"""Edge-list graph representation.

The Tarjan–Vishkin algorithm takes an edge list as input (paper §2), and the
paper makes a point of the *representation-conversion cost* between the edge
list assumed by spanning-tree/connectivity primitives and the (circular)
adjacency lists assumed by the Euler-tour technique.  We therefore keep the
edge list as the canonical representation and make every conversion explicit
(and chargeable to the machine model).

A :class:`Graph` is an immutable, simple (no self-loops, no duplicate
edges), undirected graph over vertices ``0..n-1`` with edges stored as two
parallel ``int64`` arrays ``u`` and ``v`` (canonicalized ``u < v``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Graph"]


class Graph:
    """Immutable simple undirected graph stored as an edge list.

    Parameters
    ----------
    n_vertices:
        Number of vertices; vertices are ``0..n_vertices-1``.
    u, v:
        Parallel integer arrays of edge endpoints.  Self-loops are dropped
        and duplicate edges (in either orientation) are collapsed; this
        normalization is documented behaviour (the paper's instances are
        simple graphs built by "randomly adding m unique edges").
    normalize:
        If False, the caller guarantees the input is already canonical
        (``u < v``, sorted lexicographically, unique, no self-loops) and
        normalization is skipped.
    """

    __slots__ = ("n", "u", "v", "_csr_cache")

    def __init__(
        self,
        n_vertices: int,
        u: Sequence[int] | np.ndarray,
        v: Sequence[int] | np.ndarray,
        *,
        normalize: bool = True,
    ):
        n = int(n_vertices)
        if n < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n}")
        uu = np.asarray(u, dtype=np.int64)
        vv = np.asarray(v, dtype=np.int64)
        if uu.shape != vv.shape or uu.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        if uu.size:
            lo_ok = (uu >= 0).all() and (vv >= 0).all()
            hi_ok = (uu < n).all() and (vv < n).all()
            if not (lo_ok and hi_ok):
                raise ValueError("edge endpoint out of range [0, n)")
        if normalize and uu.size:
            lo = np.minimum(uu, vv)
            hi = np.maximum(uu, vv)
            keep = lo != hi  # drop self-loops
            lo, hi = lo[keep], hi[keep]
            # unique (lo, hi) pairs, sorted lexicographically
            if lo.size:
                key = lo * np.int64(n) + hi
                _, idx = np.unique(key, return_index=True)
                lo, hi = lo[idx], hi[idx]
            uu, vv = lo, hi
        self.n = n
        self.u = np.ascontiguousarray(uu)
        self.v = np.ascontiguousarray(vv)
        self.u.setflags(write=False)
        self.v.setflags(write=False)
        self._csr_cache = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return int(self.u.size)

    @property
    def density(self) -> float:
        """Average degree ``2m/n`` (0.0 for the empty graph)."""
        return 2.0 * self.m / self.n if self.n else 0.0

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (``int64[n]``)."""
        deg = np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)
        return deg.astype(np.int64, copy=False)

    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` array of canonical edges (read-only view data)."""
        return np.stack([self.u, self.v], axis=1)

    def has_edge(self, a: int, b: int) -> bool:
        """Membership test for a single edge (O(log m) via binary search).

        One search in ``u`` finds the row of the smaller endpoint, a
        second in that row's slice of ``v`` finds the larger one.
        """
        lo, hi = (int(a), int(b)) if a < b else (int(b), int(a))
        start, stop = np.searchsorted(self.u, (lo, lo + 1))
        i = start + int(np.searchsorted(self.v[start:stop], hi))
        return bool(i < stop and self.v[i] == hi)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def csr(self):
        """The CSR adjacency view of this graph (cached).

        Returns a :class:`repro.graph.csr.CSRGraph`.  The conversion itself
        is pure; algorithms that need to *charge* the conversion cost do so
        explicitly via the machine model at their call site.
        """
        if self._csr_cache is None:
            from .csr import CSRGraph

            self._csr_cache = CSRGraph.from_edges(self.n, self.u, self.v)
        return self._csr_cache

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both orientations of every edge.

        Returns ``(tail, head, edge_id)`` arrays of length ``2m`` where arc
        ``i`` runs ``tail[i] -> head[i]`` and belongs to undirected edge
        ``edge_id[i]``.
        """
        m = self.m
        tail = np.concatenate([self.u, self.v])
        head = np.concatenate([self.v, self.u])
        eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else np.empty(0, np.int64)
        return tail, head, eid

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (test/oracle helper)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.u.tolist(), self.v.tolist()))
        return g

    @classmethod
    def from_networkx(cls, g) -> "Graph":
        """Build from a :class:`networkx.Graph` with integer nodes 0..n-1."""
        n = g.number_of_nodes()
        nodes = sorted(g.nodes())
        if nodes and (nodes[0] != 0 or nodes[-1] != n - 1):
            raise ValueError("networkx graph must be labelled 0..n-1")
        if g.number_of_edges():
            arr = np.asarray(list(g.edges()), dtype=np.int64)
            return cls(n, arr[:, 0], arr[:, 1])
        return cls(n, [], [])

    @classmethod
    def from_edge_array(cls, n_vertices: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from an iterable of ``(u, v)`` pairs."""
        arr = np.asarray(list(edges), dtype=np.int64)
        if arr.size == 0:
            return cls(n_vertices, [], [])
        return cls(n_vertices, arr[:, 0], arr[:, 1])

    # ------------------------------------------------------------------ #
    # structural edits (return new graphs; Graph is immutable)
    # ------------------------------------------------------------------ #

    def subgraph_without_edges(self, edge_mask: np.ndarray) -> "Graph":
        """Graph with the masked edges removed (same vertex set).

        ``edge_mask`` is a boolean array over edges; True means *remove*.
        """
        mask = np.asarray(edge_mask, dtype=bool)
        if mask.shape != (self.m,):
            raise ValueError("edge_mask must have one entry per edge")
        keep = ~mask
        return Graph(self.n, self.u[keep], self.v[keep], normalize=False)

    def union_edges(self, other: "Graph") -> "Graph":
        """Union of the edge sets of two graphs on the same vertex set."""
        if other.n != self.n:
            raise ValueError("vertex sets differ")
        return Graph(
            self.n,
            np.concatenate([self.u, other.u]),
            np.concatenate([self.v, other.v]),
        )

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on a vertex subset.

        Returns ``(subgraph, mapping)`` where vertex ``i`` of the subgraph
        corresponds to ``mapping[i]`` in this graph; kept edges are those
        with both endpoints selected, relabelled accordingly.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size and (vertices[0] < 0 or vertices[-1] >= self.n):
            raise ValueError("vertex out of range")
        relabel = np.full(self.n, -1, dtype=np.int64)
        relabel[vertices] = np.arange(vertices.size)
        keep = (relabel[self.u] >= 0) & (relabel[self.v] >= 0) if self.m else np.zeros(0, bool)
        return (
            Graph(vertices.size, relabel[self.u[keep]], relabel[self.v[keep]],
                  normalize=False),
            vertices,
        )

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.u, other.u))
            and bool(np.array_equal(self.v, other.v))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.u.tobytes(), self.v.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"
