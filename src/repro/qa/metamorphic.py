"""Metamorphic relations: invariants that need no external oracle.

Each relation transforms an input graph in a way whose effect on the
block partition is known *a priori*, runs the algorithm under test on
both sides, and checks the predicted relationship:

``relabel``
    Biconnectivity is label-free: permuting vertex ids must permute the
    partition and nothing else.
``edge-permutation``
    The answer cannot depend on edge-list presentation: rebuilding the
    graph from a shuffled, duplicated, self-loop-ridden edge list must
    produce identical canonical labels.
``intra-block-insertion``
    Adding an edge between two vertices already in a common block changes
    no block membership; the new edge joins that block.
``bridge-subdivision``
    Replacing a bridge (u,v) with a path u–w–v adds exactly one block:
    both halves are bridges, everything else is untouched.
``disjoint-union``
    BCC composes over connected components: labels on a disjoint union
    restrict to the labels of each part, and block counts add.

Relations apply themselves only where meaningful (e.g. bridge
subdivision needs a bridge) and return ``None`` when not applicable, so
the fuzzer can throw every relation at every instance.
"""

from __future__ import annotations

import traceback

import numpy as np

from ..core.result import canonical_edge_labels
from ..graph import Graph
from .corpus import disconnected_union, messy_edges_graph, random_graph
from .oracle import Divergence, default_runner

__all__ = ["RELATIONS", "metamorphic_check"]


def _labels(runner, g, algorithm) -> np.ndarray:
    return runner(g, algorithm).edge_labels


def _aligned(h: Graph, labels_h: np.ndarray, qu, qv) -> np.ndarray:
    """Labels of ``h``'s edges (qu, qv), in query order.

    Edges are stored canonically sorted, so a lexicographic key lookup
    finds each queried edge by binary search.  Raises if an edge is
    missing — that is a harness bug, not a finding.
    """
    qu = np.asarray(qu, dtype=np.int64)
    qv = np.asarray(qv, dtype=np.int64)
    lo = np.minimum(qu, qv)
    hi = np.maximum(qu, qv)
    key = h.u * np.int64(h.n) + h.v
    probe = lo * np.int64(h.n) + hi
    idx = np.searchsorted(key, probe)
    idx = np.clip(idx, 0, max(0, key.size - 1))
    if key.size == 0 or not np.array_equal(key[idx], probe):
        raise AssertionError("queried edge missing from transformed graph")
    return labels_h[idx]


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(canonical_edge_labels(a), canonical_edge_labels(b))


def _num_blocks(labels: np.ndarray) -> int:
    return int(labels.max(initial=-1)) + 1


# --------------------------------------------------------------------- #
# relations — each: fn(g, run, rng) -> Divergence-message str | None
# where run(graph) -> canonical edge labels
# --------------------------------------------------------------------- #


def _rel_relabel(g: Graph, run, rng) -> str | None:
    if g.m == 0:
        return None
    perm = rng.permutation(g.n).astype(np.int64)
    h = Graph(g.n, perm[g.u], perm[g.v], normalize=True)
    labels_g = run(g)
    labels_h = run(h)
    aligned = _aligned(h, labels_h, perm[g.u], perm[g.v])
    if not _same_partition(labels_g, aligned):
        return "vertex relabeling changed the block partition"
    return None


def _rel_edge_permutation(g: Graph, run, rng) -> str | None:
    if g.m == 0:
        return None
    h = messy_edges_graph(g, seed=int(rng.integers(0, 2**31)))
    if h.n != g.n or not (np.array_equal(h.u, g.u) and np.array_equal(h.v, g.v)):
        raise AssertionError("messy_edges_graph failed to normalize back to g")
    labels_g = run(g)
    labels_h = run(h)
    if not np.array_equal(labels_g, labels_h):
        return "shuffled/duplicated edge-list presentation changed the labels"
    return None


def _find_nonadjacent_block_pair(g: Graph, labels, rng):
    """A (a, b, block) with a,b in the same block but not adjacent."""
    if g.m == 0:
        return None
    order = rng.permutation(_num_blocks(labels))
    for b in order:
        sel = labels == b
        verts = np.unique(np.concatenate([g.u[sel], g.v[sel]]))
        k = verts.size
        if k < 4:  # blocks on <=3 vertices are complete (edge or triangle)
            continue
        for _ in range(16):
            i, j = rng.integers(0, k, size=2)
            if i != j and not g.has_edge(int(verts[i]), int(verts[j])):
                return int(verts[i]), int(verts[j]), int(b)
    return None


def _rel_intra_block_insertion(g: Graph, run, rng) -> str | None:
    labels_g = run(g)
    pick = _find_nonadjacent_block_pair(g, labels_g, rng)
    if pick is None:
        return None
    a, b, block = pick
    h = Graph(g.n, np.append(g.u, a), np.append(g.v, b), normalize=True)
    labels_h = run(h)
    if _num_blocks(labels_h) != _num_blocks(labels_g):
        return (
            f"inserting ({a},{b}) inside a block changed the block count "
            f"{_num_blocks(labels_g)} -> {_num_blocks(labels_h)}"
        )
    old_aligned = _aligned(h, labels_h, g.u, g.v)
    if not _same_partition(labels_g, old_aligned):
        return f"inserting ({a},{b}) inside a block moved existing edges between blocks"
    new_label = int(_aligned(h, labels_h, [a], [b])[0])
    sel = labels_g == block
    witness_label = int(_aligned(h, labels_h, g.u[sel][:1], g.v[sel][:1])[0])
    if new_label != witness_label:
        return f"new intra-block edge ({a},{b}) did not join its block"
    return None


def _rel_bridge_subdivision(g: Graph, run, rng) -> str | None:
    labels_g = run(g)
    if g.m == 0:
        return None
    counts = np.bincount(labels_g, minlength=_num_blocks(labels_g))
    bridges = np.flatnonzero(counts[labels_g] == 1)
    if bridges.size == 0:
        return None
    i = int(bridges[int(rng.integers(0, bridges.size))])
    a, b = int(g.u[i]), int(g.v[i])
    keep = np.ones(g.m, dtype=bool)
    keep[i] = False
    w = g.n
    h = Graph(
        g.n + 1,
        np.concatenate([g.u[keep], [a, w]]),
        np.concatenate([g.v[keep], [w, b]]),
        normalize=True,
    )
    labels_h = run(h)
    if _num_blocks(labels_h) != _num_blocks(labels_g) + 1:
        return (
            f"subdividing bridge ({a},{b}) changed the block count "
            f"{_num_blocks(labels_g)} -> {_num_blocks(labels_h)}, expected +1"
        )
    if np.any(keep):
        old_aligned = _aligned(h, labels_h, g.u[keep], g.v[keep])
        if not _same_partition(labels_g[keep], old_aligned):
            return f"subdividing bridge ({a},{b}) moved unrelated edges between blocks"
    halves = _aligned(h, labels_h, [a, w], [w, b])
    counts_h = np.bincount(labels_h)
    if halves[0] == halves[1] or counts_h[halves[0]] != 1 or counts_h[halves[1]] != 1:
        return f"halves of subdivided bridge ({a},{b}) are not two singleton blocks"
    return None


def _rel_disjoint_union(g: Graph, run, rng) -> str | None:
    _, piece = random_graph(rng, max_n=12)
    if g.m + piece.m == 0:
        return None
    u = disconnected_union([g, piece])
    labels_g = run(g)
    labels_p = run(piece)
    labels_u = run(u)
    if _num_blocks(labels_u) != _num_blocks(labels_g) + _num_blocks(labels_p):
        return (
            f"block counts do not add over disjoint union: "
            f"{_num_blocks(labels_g)} + {_num_blocks(labels_p)} != {_num_blocks(labels_u)}"
        )
    # disconnected_union keeps g's edges first, then piece's (shifted)
    if not _same_partition(labels_g, labels_u[: g.m]):
        return "labels restricted to the first part differ from the part alone"
    if not _same_partition(labels_p, labels_u[g.m :]):
        return "labels restricted to the second part differ from the part alone"
    return None


#: name -> relation.  Deterministic iteration order matters for seeding.
RELATIONS = {
    "relabel": _rel_relabel,
    "edge-permutation": _rel_edge_permutation,
    "intra-block-insertion": _rel_intra_block_insertion,
    "bridge-subdivision": _rel_bridge_subdivision,
    "disjoint-union": _rel_disjoint_union,
}


def metamorphic_check(
    g: Graph,
    algorithm: str,
    runner=None,
    seed=0,
    relations=None,
) -> list[Divergence]:
    """Check every (applicable) metamorphic relation on one graph.

    Each relation gets its own rng derived from ``(seed, relation index)``,
    so re-running a *single* relation with the same seed replays exactly
    the transformation that failed in a full sweep — the property the
    minimizer's predicate relies on.
    """
    runner = runner or default_runner
    names = list(relations) if relations is not None else list(RELATIONS)
    all_names = list(RELATIONS)
    for name in names:
        if name not in RELATIONS:
            raise KeyError(f"unknown metamorphic relation: {name!r}")
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)

    def run(graph):
        return _labels(runner, graph, algorithm)

    found: list[Divergence] = []
    for name in names:
        rng = np.random.default_rng(base + (all_names.index(name),))
        try:
            msg = RELATIONS[name](g, run, rng)
        except AssertionError:
            raise  # harness bug: surface loudly
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            msg = f"crashed: {type(exc).__name__}: {exc}"
            found.append(
                Divergence(
                    name, msg, algorithm=algorithm, graph=g,
                    extra={
                        "mm_seed": list(base),
                        "traceback": traceback.format_exc(limit=8),
                    },
                )
            )
            continue
        if msg is not None:
            found.append(
                Divergence(
                    name, msg, algorithm=algorithm, graph=g,
                    extra={"mm_seed": list(base)},
                )
            )
    return found
