"""Unit tests for the edge-list Graph representation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graph import Graph
from tests.strategies import gnm_graphs


class TestNormalization:
    def test_self_loops_dropped(self):
        g = Graph(3, [0, 1, 2], [0, 2, 2])
        assert g.m == 1
        assert g.u.tolist() == [1] and g.v.tolist() == [2]

    def test_duplicates_collapsed(self):
        g = Graph(3, [0, 1, 0, 0], [1, 0, 1, 2])
        assert g.m == 2
        assert g.edges().tolist() == [[0, 1], [0, 2]]

    def test_orientation_canonicalized(self):
        g = Graph(4, [3, 2], [1, 0])
        assert (g.u < g.v).all()
        assert g.edges().tolist() == [[0, 2], [1, 3]]

    def test_lexicographic_order(self):
        g = Graph(5, [4, 0, 2, 0], [3, 4, 1, 1])
        assert g.edges().tolist() == [[0, 1], [0, 4], [1, 2], [3, 4]]

    def test_normalize_false_trusts_input(self):
        g = Graph(3, [0, 1], [1, 2], normalize=False)
        assert g.m == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [0], [3])
        with pytest.raises(ValueError):
            Graph(3, [-1], [0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 1], [1])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, [], [])

    def test_edges_read_only(self):
        g = Graph(3, [0], [1])
        with pytest.raises(ValueError):
            g.u[0] = 2


class TestProperties:
    def test_counts(self):
        g = Graph(5, [0, 1, 2], [1, 2, 3])
        assert g.n == 5 and g.m == 3

    def test_density(self):
        g = Graph(4, [0, 1], [1, 2])
        assert g.density == pytest.approx(1.0)
        assert Graph(0, [], []).density == 0.0

    def test_degrees(self):
        g = Graph(4, [0, 0, 1], [1, 2, 2])
        assert g.degrees().tolist() == [2, 2, 2, 0]

    def test_has_edge(self):
        g = Graph(4, [0, 1], [1, 3])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.has_edge(3, 1)
        assert not g.has_edge(0, 3)
        assert not g.has_edge(2, 3)

    @given(g=gnm_graphs(min_n=1, max_n=30), data=st.data())
    def test_has_edge_matches_set_membership(self, g, data):
        edges = set(zip(g.u.tolist(), g.v.tolist()))
        probes = [(int(a), int(b)) for a, b in zip(g.u, g.v)]
        probes += data.draw(st.lists(
            st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)),
            max_size=40,
        ))
        for a, b in probes:
            want = (min(a, b), max(a, b)) in edges
            assert g.has_edge(a, b) is want
            assert g.has_edge(b, a) is want
        for v in range(g.n):
            assert g.has_edge(v, v) is False

    def test_has_edge_out_of_range_probe_is_not_an_edge(self):
        # the key u * n + v of (0, 7) equals that of the edge (1, 2) at n = 5
        g = Graph(5, [1], [2])
        assert not g.has_edge(0, 7)

    def test_arcs_both_directions(self):
        g = Graph(3, [0, 1], [1, 2])
        tail, head, eid = g.arcs()
        assert tail.tolist() == [0, 1, 1, 2]
        assert head.tolist() == [1, 2, 0, 1]
        assert eid.tolist() == [0, 1, 0, 1]

    def test_repr(self):
        assert repr(Graph(3, [0], [1])) == "Graph(n=3, m=1)"


class TestConversions:
    def test_csr_cached(self):
        g = Graph(3, [0, 1], [1, 2])
        assert g.csr() is g.csr()

    def test_networkx_roundtrip(self):
        g = Graph(5, [0, 1, 2, 0], [1, 2, 3, 4])
        back = Graph.from_networkx(g.to_networkx())
        assert back == g

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        G = nx.Graph()
        G.add_edge(1, 5)
        with pytest.raises(ValueError):
            Graph.from_networkx(G)

    def test_from_edge_array(self):
        g = Graph.from_edge_array(4, [(0, 1), (2, 3)])
        assert g.m == 2
        assert Graph.from_edge_array(4, []).m == 0


class TestEdits:
    def test_subgraph_without_edges(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3])
        sub = g.subgraph_without_edges(np.array([False, True, False]))
        assert sub.edges().tolist() == [[0, 1], [2, 3]]
        assert sub.n == g.n

    def test_subgraph_mask_shape_checked(self):
        g = Graph(4, [0], [1])
        with pytest.raises(ValueError):
            g.subgraph_without_edges(np.array([True, False]))

    def test_union_edges(self):
        a = Graph(4, [0], [1])
        b = Graph(4, [1, 0], [2, 1])
        u = a.union_edges(b)
        assert u.edges().tolist() == [[0, 1], [1, 2]]

    def test_union_vertex_set_mismatch(self):
        with pytest.raises(ValueError):
            Graph(3, [], []).union_edges(Graph(4, [], []))


class TestEquality:
    def test_eq_and_hash(self):
        a = Graph(3, [0, 1], [1, 2])
        b = Graph(3, [1, 0], [2, 1])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Graph(3, [0], [1])
        assert a != Graph(4, [0, 1], [1, 2])

    def test_eq_other_type(self):
        assert Graph(1, [], []).__eq__(42) is NotImplemented


class TestSubgraph:
    def test_induced(self):
        g = Graph(5, [0, 1, 2, 0], [1, 2, 3, 4])
        sub, mapping = g.subgraph(np.array([0, 1, 2]))
        assert sub.n == 3
        assert sub.edges().tolist() == [[0, 1], [1, 2]]
        assert mapping.tolist() == [0, 1, 2]

    def test_relabelled(self):
        g = Graph(6, [2, 4], [4, 5])
        sub, mapping = g.subgraph(np.array([2, 4, 5]))
        assert mapping.tolist() == [2, 4, 5]
        assert sub.edges().tolist() == [[0, 1], [1, 2]]

    def test_empty_selection(self):
        g = Graph(4, [0], [1])
        sub, mapping = g.subgraph(np.array([], dtype=np.int64))
        assert sub.n == 0 and sub.m == 0

    def test_duplicates_collapsed(self):
        g = Graph(4, [0], [1])
        sub, mapping = g.subgraph(np.array([1, 0, 1]))
        assert sub.n == 2 and sub.m == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [], []).subgraph(np.array([5]))
