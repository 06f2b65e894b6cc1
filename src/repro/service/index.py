"""The BCC index: batch-first queries over one graph's biconnected structure.

Dong et al. (arXiv:2301.01356) observe that the valuable artifact of a
biconnectivity computation is not the one-shot answer but a compact
structure that keeps answering connectivity queries long after the parallel
computation finishes.  A :class:`BCCIndex` is that artifact for this repo:
it is built once per graph (via any registered algorithm from
``repro.api.ALGORITHMS``; default ``tv-filter``, the paper's best
performer) and then answers queries from precomputed arrays without
touching the pipeline again.

The *batch* is the primitive: each bulk kernel answers thousands of
queries in a handful of numpy gathers over the flat index arrays —
exactly the array-centric layout FAST-BCC exploits and the cache-friendly
access pattern the source paper's SMP design argues for.

* :meth:`~BCCIndex.same_bcc_many` — which pairs share a block?
* :meth:`~BCCIndex.is_articulation_many` / :meth:`~BCCIndex.articulation_mask`
* :meth:`~BCCIndex.is_bridge_many` — which pairs are single-edge blocks?
* :meth:`~BCCIndex.component_of_edge_many` — block ids (-1 for non-edges).
* :meth:`~BCCIndex.classify_edges` — per-pair {block id, is_bridge}.
* :meth:`~BCCIndex.edge_id_many` — canonical edge ids via one searchsorted
  (in sorted probe order for batches of 512 or more).

The scalar point queries (:meth:`~BCCIndex.same_bcc`,
:meth:`~BCCIndex.is_articulation`, :meth:`~BCCIndex.is_bridge`,
:meth:`~BCCIndex.component_of_edge`, :meth:`~BCCIndex.edge_id`) are
Python-int code over the same arrays: a scalar searchsorted into the edge
keys, and a walk of two vertices' block slices.  A size-1 batch would pay
a dozen numpy calls to answer one pair.  They coerce their arguments the
way the batch kernels do (``np.asarray(x, dtype=np.int64)``), so every
point answer, and every exception type, matches the batch kernels'.
"""

from __future__ import annotations

import operator

import numpy as np

from ..core.blockcut import BlockCutTree, block_cut_tree
from ..core.result import BCCResult
from ..graph import Graph
from ..smp import Machine

__all__ = ["BCCIndex"]

#: Probe batches at least this large are searched in sorted order: a
#: random-order searchsorted into a key array of 10^4-10^5 entries misses
#: cache on every probe, and sorting the probes first pays for itself
#: from about 512 probes on (16,384 probes into 60,000 keys: 2.4 ms
#: unsorted, 0.8 ms sorted including the argsort).
_SORTED_PROBES = 512


def _search(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``np.searchsorted(keys, probes)``, large batches probed in sorted order."""
    if probes.size < _SORTED_PROBES:
        return np.searchsorted(keys, probes)
    order = np.argsort(probes)
    out = np.empty(probes.size, dtype=np.intp)
    out[order] = np.searchsorted(keys, probes[order])
    return out


class BCCIndex:
    """Immutable query index over one graph's biconnected components.

    ``source`` records how the index came to be: ``"build"`` for a full
    algorithm run, ``"extend"``/``"shrink"`` for the incremental update
    paths of :mod:`repro.service.updates`.
    """

    __slots__ = (
        "graph",
        "result",
        "fingerprint",
        "source",
        "_is_art",
        "_is_bridge",
        "_edge_keys",
        "_vb_indptr",
        "_vb_blocks",
        "_vb_keys",
        "_vb_key_mult",
        "_bct",
    )

    def __init__(self, result: BCCResult, fingerprint: str | None = None,
                 source: str = "build"):
        self._start(result, fingerprint, source)
        g = result.graph
        self._is_art = np.zeros(g.n, dtype=bool)
        self._is_art[result.articulation_points()] = True
        self._is_bridge = np.zeros(g.m, dtype=bool)
        self._is_bridge[result.bridges()] = True
        # canonical edges are sorted lexicographically, so u*n+v is ascending
        self._edge_keys = g.u * np.int64(max(g.n, 1)) + g.v
        # vertex -> sorted block ids, CSR over (vertex, block) incidences;
        # the flat key array (vertex * k + block, globally sorted) doubles
        # as an O(log) membership structure for the bulk kernels
        k = np.int64(max(result.num_components, 1))
        self._vb_key_mult = k
        if g.m:
            vert = np.concatenate([g.u, g.v])
            lab = np.concatenate([result.edge_labels, result.edge_labels])
            keys = np.unique(vert * k + lab)
            self._vb_keys = keys
            vb_vert = keys // k
            self._vb_blocks = keys % k
            self._vb_indptr = np.searchsorted(vb_vert, np.arange(g.n + 1))
        else:
            self._vb_keys = np.zeros(0, dtype=np.int64)
            self._vb_blocks = np.zeros(0, dtype=np.int64)
            self._vb_indptr = np.zeros(g.n + 1, dtype=np.int64)
        self._freeze()

    def _start(self, result: BCCResult, fingerprint: str | None,
               source: str) -> None:
        self.graph = result.graph
        self.result = result
        if fingerprint is None:
            from .store import graph_fingerprint

            fingerprint = graph_fingerprint(result.graph)
        self.fingerprint = fingerprint
        self.source = source
        self._bct = None

    def _freeze(self) -> None:
        # patched indexes share arrays with their base in the engine's
        # cache, so no index array may be written after construction
        for name in ("_is_art", "_is_bridge", "_edge_keys", "_vb_indptr",
                     "_vb_blocks", "_vb_keys"):
            getattr(self, name).setflags(write=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        g: Graph,
        algorithm: str = "tv-filter",
        machine: Machine | None = None,
        fingerprint: str | None = None,
        backend: str | None = None,
        p: int | None = None,
    ) -> "BCCIndex":
        """Run a registered algorithm on ``g`` and index the result.

        ``backend``/``p`` select the execution backend and worker count
        (see :mod:`repro.runtime`); the default runs simulated/vectorized.
        """
        from ..api import biconnected_components

        result = biconnected_components(
            g, algorithm=algorithm, machine=machine, backend=backend, p=p
        )
        return cls(result, fingerprint=fingerprint, source="build")

    @classmethod
    def _patch(
        cls,
        base: "BCCIndex",
        graph: Graph,
        labels: np.ndarray,
        *,
        edge_keys: np.ndarray,
        bridge_mask: np.ndarray,
        source: str,
        fingerprint: str | None = None,
        certificate=None,
    ) -> "BCCIndex":
        """Index for a patch of ``base`` built from ``base``'s own arrays.

        ``labels`` are ``graph``'s edge labels in ``base``'s block ids,
        ``edge_keys`` and ``bridge_mask`` its keys and bridge flags, all
        derived by the caller with one insert or delete.  The caller
        guarantees that no vertex joins or leaves a block (an intra-block
        add, a filtered removal), so the articulation mask and the
        (vertex, block) incidence arrays are shared with ``base``.  A
        patch that moves a block's first edge permutes block ids; that
        falls back to the full constructor.
        """
        result = BCCResult(graph, labels, algorithm=base.result.algorithm,
                           certificate=certificate)
        if not np.array_equal(result.edge_labels, labels):
            return cls(result, fingerprint, source)
        self = object.__new__(cls)
        self._start(result, fingerprint, source)
        self._is_bridge = bridge_mask
        self._edge_keys = edge_keys
        self._is_art = base._is_art
        self._vb_key_mult = base._vb_key_mult
        self._vb_keys = base._vb_keys
        self._vb_blocks = base._vb_blocks
        self._vb_indptr = base._vb_indptr
        self._freeze()
        return self

    # ------------------------------------------------------------------ #
    # input validation
    # ------------------------------------------------------------------ #

    def _check_vertex(self, v: int) -> int:
        """One vertex as a Python int, coerced as the batch kernels do."""
        try:
            v = operator.index(v)
        except TypeError:
            arr = np.asarray([v], dtype=np.int64)
            if arr.shape != (1,):
                raise ValueError("expected one vertex, got a sequence") from None
            v = int(arr[0])
        if not 0 <= v < self.graph.n:
            if not -(2**63) <= v < 2**63:  # as np.asarray(..., np.int64) fails
                raise OverflowError(f"vertex {v} does not fit in int64")
            raise IndexError(f"vertex {v} out of range [0, {self.graph.n})")
        return v

    def _check_vertices(self, vs) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if vs.size:
            bad = (vs < 0) | (vs >= self.graph.n)
            if bad.any():
                v = int(vs[bad][0])
                raise IndexError(f"vertex {v} out of range [0, {self.graph.n})")
        return vs

    def _split_pairs(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Validate a (k, 2) pair batch into two int64 vertex arrays."""
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(
                f"pairs must have shape (k, 2), got {arr.shape}"
            )
        return self._check_vertices(arr[:, 0]), self._check_vertices(arr[:, 1])

    # ------------------------------------------------------------------ #
    # bulk kernels: the primitives every query is answered by
    # ------------------------------------------------------------------ #

    def edge_id_many(self, pairs) -> np.ndarray:
        """Canonical edge ids of a pair batch; -1 where not an edge.

        One vectorized searchsorted into the ascending canonical edge
        keys (``u * n + v`` with ``u < v``) answers the whole batch; a
        large batch is searched in sorted probe order (:func:`_search`).
        """
        us, vs = self._split_pairs(pairs)
        if self._edge_keys.size == 0:
            return np.full(us.size, -1, dtype=np.int64)
        lo = np.minimum(us, vs)
        hi = np.maximum(us, vs)
        probe = lo * np.int64(max(self.graph.n, 1)) + hi
        i = _search(self._edge_keys, probe)
        i_safe = np.minimum(i, self._edge_keys.size - 1)
        found = (i < self._edge_keys.size) & (self._edge_keys[i_safe] == probe)
        return np.where(found, i_safe, np.int64(-1))

    def same_bcc_many(self, pairs) -> np.ndarray:
        """Boolean per pair: do the two vertices share a common block?

        The smaller-degree side of each pair is expanded over its block
        list; membership of each block at the other vertex is one
        searchsorted into the globally sorted (vertex, block) key array.
        Interior vertices belong to exactly one block, so the expansion
        is ~1 probe per pair on typical graphs.
        """
        us, vs = self._split_pairs(pairs)
        out = np.zeros(us.size, dtype=bool)
        if us.size == 0 or self._vb_keys.size == 0:
            return out
        indptr = self._vb_indptr
        cu = indptr[us + 1] - indptr[us]
        cv = indptr[vs + 1] - indptr[vs]
        swap = cv < cu
        a = np.where(swap, vs, us)  # expand this side (fewer blocks)
        b = np.where(swap, us, vs)  # probe this side
        ca = np.where(swap, cv, cu)
        cb = np.where(swap, cu, cv)
        sel = np.flatnonzero((ca > 0) & (cb > 0))
        if sel.size == 0:
            return out
        counts = ca[sel]
        owner = np.repeat(np.arange(sel.size), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.arange(int(counts.sum())) - starts[owner]
        blocks = self._vb_blocks[indptr[a[sel]][owner] + pos]
        keys = b[sel][owner] * self._vb_key_mult + blocks
        j = np.minimum(_search(self._vb_keys, keys),
                       self._vb_keys.size - 1)
        hit = self._vb_keys[j] == keys
        out[sel] = np.bincount(owner, weights=hit, minlength=sel.size) > 0
        return out

    def is_articulation_many(self, vs) -> np.ndarray:
        """Boolean per vertex: is it a cut vertex?"""
        return self._is_art[self._check_vertices(vs)]

    def articulation_mask(self) -> np.ndarray:
        """Boolean mask over all ``n`` vertices: True at cut vertices."""
        return self._is_art.copy()

    def is_bridge_many(self, pairs) -> np.ndarray:
        """Boolean per pair: is ``{u, v}`` a single-edge block?

        Non-edges are False (they are certainly not bridges).
        """
        ids = self.edge_id_many(pairs)
        out = np.zeros(ids.size, dtype=bool)
        found = ids >= 0
        out[found] = self._is_bridge[ids[found]]
        return out

    def component_of_edge_many(self, pairs) -> np.ndarray:
        """Canonical block id per pair; -1 where ``{u, v}`` is not an edge."""
        ids = self.edge_id_many(pairs)
        out = np.full(ids.size, -1, dtype=np.int64)
        found = ids >= 0
        out[found] = self.result.edge_labels[ids[found]]
        return out

    def classify_edges(self, pairs) -> dict:
        """Per-pair edge classification in one pass.

        Returns ``{"block": int64[k], "is_bridge": bool[k]}`` — the block
        id (-1 for non-edges) and whether the edge is a bridge.  One
        ``edge_id_many`` lookup feeds both gathers.
        """
        ids = self.edge_id_many(pairs)
        block = np.full(ids.size, -1, dtype=np.int64)
        bridge = np.zeros(ids.size, dtype=bool)
        found = ids >= 0
        block[found] = self.result.edge_labels[ids[found]]
        bridge[found] = self._is_bridge[ids[found]]
        return {"block": block, "is_bridge": bridge}

    # ------------------------------------------------------------------ #
    # point queries: scalar code over the same arrays
    # ------------------------------------------------------------------ #

    def blocks_of(self, v: int) -> np.ndarray:
        """Sorted ids of the blocks containing vertex ``v``."""
        v = self._check_vertex(v)
        return self._vb_blocks[self._vb_indptr[v] : self._vb_indptr[v + 1]]

    def edge_id(self, u: int, v: int) -> int | None:
        """Canonical edge index of ``{u, v}``, or None if not an edge."""
        u, v = self._check_vertex(u), self._check_vertex(v)
        keys = self._edge_keys
        probe = min(u, v) * max(self.graph.n, 1) + max(u, v)
        i = int(keys.searchsorted(probe))
        return i if i < keys.size and keys[i] == probe else None

    def same_bcc(self, u: int, v: int) -> bool:
        """True iff ``u`` and ``v`` belong to a common block.

        Equivalently (for distinct vertices): they are adjacent or lie on
        a common simple cycle.  ``same_bcc(v, v)`` is True iff ``v`` has
        at least one incident edge.
        """
        u, v = self._check_vertex(u), self._check_vertex(v)
        indptr, blocks = self._vb_indptr, self._vb_blocks
        a0, a1 = int(indptr[u]), int(indptr[u + 1])
        b0, b1 = int(indptr[v]), int(indptr[v + 1])
        if a0 == a1 or b0 == b1:
            return False
        if a1 - a0 == 1 and b1 - b0 == 1:  # two interior vertices
            return bool(blocks[a0] == blocks[b0])
        if a1 - a0 > b1 - b0:
            a0, a1, b0, b1 = b0, b1, a0, a1
        mine, theirs = blocks[a0:a1], blocks[b0:b1]
        j = np.minimum(theirs.searchsorted(mine), theirs.size - 1)
        return bool((theirs[j] == mine).any())

    def is_articulation(self, v: int) -> bool:
        """True iff ``v`` is a cut vertex (belongs to two or more blocks)."""
        return bool(self._is_art[self._check_vertex(v)])

    def is_bridge(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is an edge forming a single-edge block.

        Non-edges return False (they are certainly not bridges).
        """
        i = self.edge_id(u, v)
        return i is not None and bool(self._is_bridge[i])

    def component_of_edge(self, u: int, v: int) -> int | None:
        """Canonical block id of edge ``{u, v}``; None for non-edges."""
        i = self.edge_id(u, v)
        return None if i is None else int(self.result.edge_labels[i])

    def num_components(self) -> int:
        """Number of biconnected components (blocks)."""
        return self.result.num_components

    @property
    def certificate(self):
        """The build's :class:`~repro.core.result.FilterCertificate`, kept
        current through the patches that preserve it; None otherwise."""
        return self.result.certificate

    # ------------------------------------------------------------------ #
    # aggregates (repro info / bench)
    # ------------------------------------------------------------------ #

    def num_articulation_points(self) -> int:
        return int(self._is_art.sum())

    def num_bridges(self) -> int:
        return int(self._is_bridge.sum())

    def largest_block_edges(self) -> int:
        sizes = self.result.component_sizes()
        return int(sizes.max()) if sizes.size else 0

    def block_cut(self) -> BlockCutTree:
        """The block-cut forest (built lazily, cached)."""
        if self._bct is None:
            self._bct = block_cut_tree(self.result)
        return self._bct

    def __repr__(self) -> str:
        return (
            f"BCCIndex(n={self.graph.n}, m={self.graph.m}, "
            f"blocks={self.num_components()}, source={self.source!r})"
        )
