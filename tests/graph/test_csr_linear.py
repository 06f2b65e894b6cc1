"""The linear-time CSR conversion against a lexsort reference.

``CSRGraph.from_edges`` groups arcs with one stable radix sort and relies
on :class:`Graph`'s canonical edge order (``u < v``, sorted) for sorted
adjacency slices.  These tests pin its arrays to the comparison-sort
builder it replaced, and pin every in-repo ``normalize=False`` producer
to that canonical order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, Graph, generators as gen

from ..strategies import any_graphs, disconnected_union, gnm_graphs


def lexsort_csr(n, u, v):
    """The comparison-sort builder: all 2m arcs lexsorted by (tail, head)."""
    m = u.size
    tail = np.concatenate([u, v])
    head = np.concatenate([v, u])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.lexsort((head, tail))
    counts = np.bincount(tail[order], minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return indptr, head[order], eid[order]


def assert_csr_matches_lexsort(g: Graph) -> None:
    csr = CSRGraph.from_edges(g.n, g.u, g.v)
    for got, want in zip((csr.indptr, csr.indices, csr.edge_ids),
                         lexsort_csr(g.n, g.u, g.v)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def assert_canonical(g: Graph) -> None:
    """``u < v`` on every edge and the edges strictly ascending by (u, v)."""
    assert (g.u < g.v).all()
    key = g.u * np.int64(max(g.n, 1)) + g.v
    assert (np.diff(key) > 0).all()
    if g.m:
        assert g.u.min() >= 0 and g.v.max() < g.n


class TestLinearCSR:
    @settings(max_examples=60)
    @given(any_graphs(max_n=60))
    def test_matches_lexsort_on_drawn_graphs(self, g):
        assert_csr_matches_lexsort(g)

    @settings(max_examples=30)
    @given(gnm_graphs(min_n=1, max_n=300, max_density=12))
    def test_matches_lexsort_on_denser_graphs(self, g):
        assert_csr_matches_lexsort(g)

    @pytest.mark.parametrize("g", [
        Graph(0, [], []),
        Graph(1, [], []),
        Graph(6, [], []),
        Graph(6, [1, 1], [4, 2]),  # vertices 0, 3 and 5 isolated
    ], ids=["empty", "n=1", "edgeless", "isolated"])
    def test_small_and_isolated(self, g):
        assert_csr_matches_lexsort(g)

    def test_multi_pass_keys(self):
        # n > 2**16 takes the radix sort's two-digit path
        n = 70_000
        g = Graph(n, [0, 3, 65_535, 65_536, 69_998, 12],
                  [n - 1, 65_537, 65_536, 69_999, 69_999, 13])
        assert_csr_matches_lexsort(g)
        assert_csr_matches_lexsort(gen.path_graph(n))

    def test_cached_view_is_the_linear_build(self):
        g = gen.random_connected_gnm(500, 3000, seed=3)
        csr = g.csr()
        indptr, indices, eids = lexsort_csr(g.n, g.u, g.v)
        np.testing.assert_array_equal(csr.indptr, indptr)
        np.testing.assert_array_equal(csr.indices, indices)
        np.testing.assert_array_equal(csr.edge_ids, eids)

    def test_non_canonical_input_is_still_a_csr(self):
        # arcs land in their tail's slice; only the head order is lost
        u, v = np.array([3, 0, 2]), np.array([1, 2, 1])
        csr = CSRGraph.from_edges(4, u, v)
        for t in range(4):
            got = sorted(zip(csr.neighbors(t).tolist(), csr.incident_edge_ids(t).tolist()))
            want = sorted([(int(v[e]), e) for e in range(3) if u[e] == t]
                          + [(int(u[e]), e) for e in range(3) if v[e] == t])
            assert got == want


class TestNormalizeFalseProducersAreCanonical:
    """Every in-repo ``Graph(..., normalize=False)`` caller keeps the order."""

    @pytest.mark.parametrize("g", [
        gen.path_graph(1), gen.path_graph(2), gen.path_graph(50),
        gen.complete_graph(1), gen.complete_graph(2), gen.complete_graph(9),
        gen.binary_tree(1), gen.binary_tree(2), gen.binary_tree(40),
    ])
    def test_generators(self, g):
        assert_canonical(g)

    def test_disconnected_union(self):
        parts = [gen.complete_graph(4), Graph(3, [], []), gen.cycle_graph(5),
                 gen.random_gnm(20, 30, seed=1)]
        assert_canonical(disconnected_union(parts))
        assert_canonical(disconnected_union([]))

    @settings(max_examples=40)
    @given(any_graphs(max_n=40), st.integers(0, 2**32 - 1))
    def test_subgraph_without_edges(self, g, seed):
        mask = np.random.default_rng(seed).random(g.m) < 0.4
        assert_canonical(g.subgraph_without_edges(mask))

    @settings(max_examples=40)
    @given(any_graphs(max_n=40), st.integers(0, 2**32 - 1))
    def test_induced_subgraph(self, g, seed):
        verts = np.flatnonzero(np.random.default_rng(seed).random(g.n) < 0.6)
        assert_canonical(g.subgraph(verts)[0])

    def test_minimize(self):
        from repro.qa.minimize import minimize_graph

        g = gen.random_connected_gnm(30, 70, seed=5)

        def has_three_non_leaves(h):
            assert_canonical(h)
            return h.m >= 3 and bool((h.degrees() >= 2).sum() >= 3)

        assert_canonical(minimize_graph(g, has_three_non_leaves, max_checks=300))

    @settings(max_examples=40)
    @given(any_graphs(max_n=40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                          max_size=12))
    def test_apply_add_edges(self, g, pairs):
        from repro.service.updates import apply_add_edges

        pairs = [(a % max(g.n, 1), b % max(g.n, 1)) for a, b in pairs] if g.n else []
        ng, _, _ = apply_add_edges(g, pairs)
        assert_canonical(ng)
        assert ng == Graph(g.n, np.concatenate([g.u, [p[0] for p in pairs]]).astype(np.int64),
                           np.concatenate([g.v, [p[1] for p in pairs]]).astype(np.int64))

    def test_cluster_worker_put_graph(self):
        from repro.cluster import backend

        rank = -7  # a rank no backend in this process uses
        backend._w_configure(rank, rank, rank + 1, "tv-filter", 2, "sync", 0.0,
                             None, "auto")
        try:
            g = gen.random_connected_gnm(200, 700, seed=2)
            backend._w_put_graph(rank, rank, rank + 1, "g", g.n, g.u, g.v)
            stored = backend._W_ENGINES[rank].store.get("g")
            assert_canonical(stored)
            assert stored == g
            assert_csr_matches_lexsort(stored)
        finally:
            backend._W_ENGINES.pop(rank, None)
