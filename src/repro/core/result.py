"""Result type shared by every biconnected-components algorithm."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graph import Graph
from ..smp import MachineReport

__all__ = ["BCCResult", "FilterCertificate", "canonical_edge_labels"]


#: Integer labels in ``[0, size + _DENSE_SLACK)`` are numbered in place;
#: the pipeline's labels are auxiliary-graph vertex ids, O(n + m).
_DENSE_SLACK = 1 << 16


def canonical_edge_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber component labels by first occurrence (0, 1, 2, ...).

    Two algorithms produce the same partition iff their canonical labels
    are identical arrays (edge order is canonical in :class:`Graph`).

    Labels that already number blocks by first occurrence — the first is
    0 and each is at most one above the running maximum, as the service
    patches leave them — are copied after that O(m) check, not sorted.
    Otherwise one reverse scatter finds each label's first position (the
    earliest write is the last, as in BFS discovery) and one prefix count
    over the positions numbers those firsts, in O(m + range) without a
    sort.  Foreign labels (negative, non-integer, or spread far beyond
    the array's length) are first compacted to dense ids.
    """
    labels = np.asarray(labels)
    integer = np.issubdtype(labels.dtype, np.integer)
    if labels.ndim == 1 and labels.size and integer and labels[0] == 0:
        seen = np.maximum.accumulate(labels)
        if labels.min() >= 0 and (labels[1:] <= seen[:-1] + 1).all():
            return labels.astype(np.int64)
    ids = labels.ravel()
    size = ids.size
    if size == 0:
        return np.zeros(labels.shape, dtype=np.int64)
    if not (integer and ids.min() >= 0 and ids.max() < size + _DENSE_SLACK):
        ids = np.unique(ids, return_inverse=True)[1].ravel()
    first = np.empty(int(ids.max()) + 1, dtype=np.int64)
    first[ids[::-1]] = np.arange(size - 1, -1, -1, dtype=np.int64)
    first_at = first[ids]
    rank = np.cumsum(first_at == np.arange(size), dtype=np.int64) - 1
    return rank[first_at].reshape(labels.shape)


class FilterCertificate(NamedTuple):
    """The sparse certificate tv-filter's Filtering step ran on (§4, Alg. 2).

    T is a BFS tree of G and F a spanning forest of G − T; the paper's
    theorem says T ∪ F has the same blocks as G, and every edge outside
    it takes the label of a tree edge.  The service layer keeps this
    with its index to patch removals of edges outside T ∪ F.
    """

    #: ``bool[m]``: True on the edges of T ∪ F
    mask: np.ndarray
    #: ``bool[m]``: True on the edges of T
    tree: np.ndarray
    #: ``int64[n]``: BFS level of each vertex in T
    level: np.ndarray
    #: ``int64[n]``: connected-component label of each vertex in F
    component: np.ndarray


class BCCResult:
    """Biconnected components of a graph.

    Attributes
    ----------
    graph:
        The input graph (edges in canonical order).
    edge_labels:
        ``int64[m]``; ``edge_labels[i]`` is the biconnected component id of
        edge i, canonicalized to 0..num_components-1 by first occurrence.
    algorithm:
        Name of the algorithm that produced the result.
    report:
        The simulated-machine accounting (None when run uninstrumented).
        When the run executed on a real backend, ``report.wall_regions``
        additionally holds the measured per-region wall-clock seconds.
    backend:
        Name of the execution backend that produced the result
        (``"simulated"``, ``"serial"`` or ``"processes"``).
        Every backend yields bit-identical ``edge_labels``.
    certificate:
        The :class:`FilterCertificate` of the run when its ``filter=forest``
        step ran, else None (tv-filter's density fallback, every other
        algorithm, and the incremental service patches that cannot keep it).
    """

    __slots__ = (
        "graph", "edge_labels", "algorithm", "report", "backend", "certificate", "_cut_cache",
        "_num_components",
    )

    def __init__(
        self,
        graph: Graph,
        edge_labels: np.ndarray,
        algorithm: str,
        report: MachineReport | None = None,
        backend: str = "simulated",
        certificate: FilterCertificate | None = None,
    ):
        if np.asarray(edge_labels).shape != (graph.m,):
            raise ValueError("edge_labels must have one entry per edge")
        self.graph = graph
        self.edge_labels = canonical_edge_labels(edge_labels)
        self.algorithm = algorithm
        self.report = report
        self.backend = backend
        self.certificate = certificate
        self._cut_cache = None
        self._num_components = None

    @property
    def num_components(self) -> int:
        """Number of biconnected components (blocks), counted on first use."""
        if self._num_components is None:
            m = self.graph.m
            self._num_components = int(self.edge_labels.max()) + 1 if m else 0
        return self._num_components

    def components(self) -> list[np.ndarray]:
        """Edge-index arrays, one per component, ordered by component id."""
        order = np.argsort(self.edge_labels, kind="stable")
        bounds = np.searchsorted(self.edge_labels[order], np.arange(self.num_components + 1))
        return [order[bounds[i] : bounds[i + 1]] for i in range(self.num_components)]

    def component_sizes(self) -> np.ndarray:
        """Number of edges in each component."""
        if self.graph.m == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.edge_labels, minlength=self.num_components).astype(np.int64)

    def _vertex_block_counts(self) -> np.ndarray:
        """Number of distinct blocks each vertex belongs to."""
        if self._cut_cache is not None:
            return self._cut_cache
        g = self.graph
        counts = np.zeros(g.n, dtype=np.int64)
        if g.m:
            vert = np.concatenate([g.u, g.v])
            lab = np.concatenate([self.edge_labels, self.edge_labels])
            pairs = np.unique(vert * np.int64(self.num_components) + lab)
            counts = np.bincount(pairs // self.num_components, minlength=g.n).astype(np.int64)
        self._cut_cache = counts
        return counts

    def articulation_points(self) -> np.ndarray:
        """Cut vertices: vertices belonging to two or more blocks."""
        return np.flatnonzero(self._vertex_block_counts() >= 2).astype(np.int64)

    def bridges(self) -> np.ndarray:
        """Edge indices of bridges (single-edge biconnected components)."""
        sizes = self.component_sizes()
        single = np.flatnonzero(sizes == 1)
        if single.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.isin(self.edge_labels, single)).astype(np.int64)

    def blocks_of_vertex(self, v: int) -> np.ndarray:
        """Ids of the blocks containing vertex ``v`` (sorted).

        A vertex belongs to a block when one of its incident edges does;
        isolated vertices belong to no block, articulation points to two
        or more.
        """
        if not 0 <= v < self.graph.n:
            raise IndexError(f"vertex {v} out of range")
        g = self.graph
        incident = (g.u == v) | (g.v == v)
        return np.unique(self.edge_labels[incident])

    def vertices_of_block(self, block_id: int) -> np.ndarray:
        """Sorted vertex set of one block."""
        if not 0 <= block_id < max(self.num_components, 1):
            raise IndexError(f"block {block_id} out of range")
        g = self.graph
        sel = self.edge_labels == block_id
        return np.unique(np.concatenate([g.u[sel], g.v[sel]]))

    def same_partition(self, other: "BCCResult") -> bool:
        """True iff both results partition the edges identically."""
        return bool(np.array_equal(self.edge_labels, other.edge_labels))

    def __repr__(self) -> str:
        return (
            f"BCCResult(algorithm={self.algorithm!r}, n={self.graph.n}, "
            f"m={self.graph.m}, components={self.num_components})"
        )
