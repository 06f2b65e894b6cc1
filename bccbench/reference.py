"""Answer checks made apart from the program, with networkx.

For a graph given as canonical edge arrays (``u < v``, sorted, unique —
the order the program indexes edges in), :func:`reference` computes with
``networkx.biconnected_component_edges``:

* the canonical edge partition: block ids renumbered by first
  occurrence in edge order, the convention ``BCCResult.edge_labels`` and
  the service's block ids follow;
* the articulation set: vertices that lie in two or more blocks;
* the bridge set: edges that form a block on their own.

:class:`Reference` then states the expected answer of every query op the
service and the cluster serve, so each answer is compared with a value
the program had no part in.  References are cached under
``out/refcache``, keyed by the same content hash as the program's
``graph_fingerprint`` (vertex count plus canonical edge bytes);
``run.py --rebuild-refs`` recomputes them.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np

from common import OUT_DIR

#: bump when the reference computation changes, so stale caches miss
REF_VERSION = 1
CACHE_DIR = os.path.join(OUT_DIR, "refcache")


def fingerprint(n: int, u: np.ndarray, v: np.ndarray) -> str:
    """Content hash of a canonical edge list (``graph_fingerprint``'s recipe)."""
    h = hashlib.sha256()
    h.update(str(int(n)).encode())
    h.update(b"|")
    h.update(np.ascontiguousarray(u, dtype=np.int64).tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(v, dtype=np.int64).tobytes())
    return h.hexdigest()


def _networkx_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    import networkx as nx

    m = u.size
    keys = u * np.int64(n) + v
    if m and not (np.diff(keys) > 0).all():
        raise ValueError("reference input is not canonical (u < v, sorted, unique)")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(u.tolist(), v.tolist()))
    labels = np.full(m, -1, dtype=np.int64)
    for block, edges in enumerate(nx.biconnected_component_edges(g)):
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        ids = np.searchsorted(keys, e.min(axis=1) * np.int64(n) + e.max(axis=1))
        labels[ids] = block
    if (labels < 0).any():
        raise ValueError("networkx left an edge outside every block")
    # renumber blocks by first occurrence in canonical edge order
    nblocks = int(labels.max()) + 1 if m else 0
    first = np.full(nblocks, m, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(m, dtype=np.int64))
    rank = np.empty(nblocks, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(nblocks, dtype=np.int64)
    return rank[labels]


class Reference:
    """Expected answers for one graph state (see module docstring)."""

    def __init__(self, n: int, u: np.ndarray, v: np.ndarray, labels: np.ndarray):
        self.n = int(n)
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.int64)
        m = self.u.size
        self.num_blocks = int(self.labels.max()) + 1 if m else 0
        k = np.int64(max(self.num_blocks, 1))
        # distinct (vertex, block) incidences, sorted: vertex * k + block
        self._vb = np.unique(np.concatenate([self.u * k + self.labels,
                                             self.v * k + self.labels]))
        self._k = k
        blocks_per_vertex = np.bincount(self._vb // k, minlength=self.n)
        self.art = blocks_per_vertex >= 2
        self.bridge = np.bincount(self.labels, minlength=self.num_blocks)[self.labels] == 1
        self._keys = self.u * np.int64(self.n) + self.v

    # -- whole-result checks (solve) ------------------------------------ #

    def check_result(self, labels, articulation, bridges) -> list:
        """Names of the parts of a one-shot result that disagree."""
        bad = []
        if not np.array_equal(np.asarray(labels), self.labels):
            bad.append("edge_partition")
        if not np.array_equal(np.sort(np.asarray(articulation)), np.flatnonzero(self.art)):
            bad.append("articulation_set")
        if not np.array_equal(np.sort(np.asarray(bridges)), np.flatnonzero(self.bridge)):
            bad.append("bridge_set")
        return bad

    # -- per-query expectations (serve-churn, cluster-read) -------------- #

    def _edge_ids(self, pairs: np.ndarray) -> np.ndarray:
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        probe = lo * np.int64(self.n) + hi
        i = np.minimum(np.searchsorted(self._keys, probe), max(self._keys.size - 1, 0))
        found = (self._keys.size > 0) & (self._keys[i] == probe) & (lo != hi)
        return np.where(found, i, -1)

    def _same_bcc(self, pairs: np.ndarray) -> np.ndarray:
        out = np.zeros(len(pairs), dtype=bool)
        for j, (a, b) in enumerate(pairs.tolist()):
            lo_a, hi_a = np.searchsorted(self._vb, [a * self._k, (a + 1) * self._k])
            lo_b, hi_b = np.searchsorted(self._vb, [b * self._k, (b + 1) * self._k])
            blocks_a = self._vb[lo_a:hi_a] % self._k
            blocks_b = self._vb[lo_b:hi_b] % self._k
            out[j] = np.intersect1d(blocks_a, blocks_b).size > 0
        return out

    def expected(self, record: dict):
        """The answer ``ServiceEngine.apply`` must give for a query record."""
        kind = record["op"]
        params = record.get("params", {})
        if kind == "num_components":
            return self.num_blocks
        if kind in ("is_articulation", "is_articulation_many"):
            vs = np.asarray(params["vs"] if kind.endswith("_many") else [record["v"]],
                            dtype=np.int64)
            got = self.art[vs]
            return got if kind.endswith("_many") else bool(got[0])
        pairs = np.asarray(
            params["pairs"] if "pairs" in params else [[record["u"], record["v"]]],
            dtype=np.int64,
        ).reshape(-1, 2)
        point = "params" not in record
        if kind in ("same_bcc", "same_bcc_many"):
            got = self._same_bcc(pairs)
            return bool(got[0]) if point else got
        ids = self._edge_ids(pairs)
        found = ids >= 0
        block = np.where(found, self.labels[np.maximum(ids, 0)], -1)
        bridge = found & self.bridge[np.maximum(ids, 0)] if self.u.size else found
        if kind == "is_bridge":
            return bool(bridge[0])
        if kind == "is_bridge_many":
            return bridge
        if kind == "component_of_edge":
            return None if block[0] < 0 else int(block[0])
        if kind == "component_of_edge_many":
            return block
        if kind == "classify_edges":
            return {"block": block, "is_bridge": bridge}
        raise ValueError(f"no reference for op {kind!r}")


def same_answer(expected, answer) -> bool:
    """Exact comparison of an answer with its expected value (types too)."""
    if isinstance(expected, dict):
        return (isinstance(answer, dict) and set(answer) == set(expected)
                and all(same_answer(expected[k], answer[k]) for k in expected))
    if isinstance(expected, np.ndarray):
        got = np.asarray(answer) if isinstance(answer, np.ndarray) else None
        return got is not None and got.shape == expected.shape and np.array_equal(
            got.astype(expected.dtype), expected)
    if expected is None:
        return answer is None
    if isinstance(expected, bool):
        return isinstance(answer, (bool, np.bool_)) and bool(answer) == expected
    return isinstance(answer, (int, np.integer)) and not isinstance(
        answer, (bool, np.bool_)) and int(answer) == expected


def reference(n: int, u: np.ndarray, v: np.ndarray, cache: bool = True) -> Reference:
    """The reference for a canonical edge list, from cache when present."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    path = os.path.join(CACHE_DIR, f"v{REF_VERSION}-{fingerprint(n, u, v)}.npy")
    labels = None
    if cache and os.path.isfile(path):
        labels = np.load(path)
        if labels.shape != u.shape:
            labels = None
    if labels is None:
        labels = _networkx_labels(n, u, v)
        if cache:
            os.makedirs(CACHE_DIR, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp.npy"
            np.save(tmp, labels)
            os.replace(tmp, path)
    return Reference(n, u, v, labels)


def clear_cache() -> None:
    shutil.rmtree(CACHE_DIR, ignore_errors=True)
