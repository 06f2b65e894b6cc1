"""Compressed-sparse-row (adjacency) graph view.

Traversal primitives (BFS, the traversal-based spanning tree, the
DFS-ordered Euler tour) want adjacency access; connectivity and
spanning-tree primitives in the Shiloach–Vishkin family want the edge list.
The paper highlights that converting between the two "is not trivial and
incurs a real cost in implementations" — so the conversion lives here as an
explicit, instrumentable step.

``CSRGraph`` stores, for every vertex, a contiguous slice of neighbour ids
(and the originating undirected edge id for each incident arc).  Built from
the canonical edge order, the conversion is one linear-time radix pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CSRGraph", "expand_ranges"]


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], ends[i])`` for all i, vectorized.

    This is the standard frontier-gather helper for level-synchronous BFS:
    given per-vertex adjacency slice bounds it yields the flat indices of all
    incident arcs.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - starts
    if counts.size == 0:
        return np.empty(0, dtype=np.int64)
    if (counts < 0).any():
        raise ValueError("ends must be >= starts")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # offset[i] = starts[i] - (cumulative count before i)
    before = np.concatenate(([0], np.cumsum(counts)[:-1]))
    out = np.repeat(starts - before, counts) + np.arange(total, dtype=np.int64)
    return out


class CSRGraph:
    """Adjacency (CSR) view of an undirected graph.

    Attributes
    ----------
    n:
        Number of vertices.
    indptr:
        ``int64[n+1]``; the neighbours of vertex ``v`` are
        ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        ``int64[2m]`` neighbour vertex ids, sorted within each slice.
    edge_ids:
        ``int64[2m]``; ``edge_ids[k]`` is the undirected edge id of arc k in
        the owning :class:`~repro.graph.edgelist.Graph`'s edge list.
    """

    __slots__ = ("n", "indptr", "indices", "edge_ids")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray, edge_ids: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.edge_ids = edge_ids

    @classmethod
    def from_edges(cls, n: int, u: np.ndarray, v: np.ndarray) -> "CSRGraph":
        """Build CSR adjacency from an edge list (both orientations), in O(n + m).

        The arcs of vertex ``t`` are its in-arcs ``t -> s`` from the edges
        ``(s, t)``, then its out-arcs ``t -> w`` from the edges ``(t, w)``,
        each in edge order: one stable radix sort of the arc tails
        ``v ++ u`` groups them.  For :class:`~repro.graph.edgelist.Graph`'s
        canonical edges (``u < v``, sorted lexicographically; what
        ``normalize=False`` callers promise) ``s < t < w`` and both runs
        ascend, so every slice is sorted by head, with no comparison sort.
        Other input still yields a valid CSR, with unsorted slices.
        """
        from ..primitives.sorting import radix_argsort

        m = u.size
        tail = np.concatenate([v, u])
        order = radix_argsort(tail)
        head = np.concatenate([u, v])[order]
        eid = order - m * (order >= m)
        counts = np.bincount(tail, minlength=n).astype(np.int64, copy=False)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64, copy=False)
        return cls(n, indptr, head.astype(np.int64, copy=False), eid)

    @property
    def num_arcs(self) -> int:
        return int(self.indices.size)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def gather_frontier(self, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All arcs leaving a frontier set.

        Returns ``(sources, targets, arc_edge_ids)`` where ``sources`` repeats
        each frontier vertex once per incident arc.
        """
        starts = self.indptr[frontier]
        ends = self.indptr[frontier + 1]
        arc_idx = expand_ranges(starts, ends)
        srcs = np.repeat(frontier, (ends - starts))
        return srcs, self.indices[arc_idx], self.edge_ids[arc_idx]

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, arcs={self.num_arcs})"
