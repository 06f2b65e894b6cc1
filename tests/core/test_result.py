"""Unit tests for BCCResult and derived quantities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import tarjan_bcc
from repro.core.result import BCCResult, canonical_edge_labels
from repro.graph import Graph, generators as gen
from tests.conftest import nx_articulation_points, nx_bridges


class TestCanonicalLabels:
    def test_first_occurrence_order(self):
        labels = np.array([7, 7, 3, 7, 3, 9])
        np.testing.assert_array_equal(
            canonical_edge_labels(labels), [0, 0, 1, 0, 1, 2]
        )

    def test_already_canonical(self):
        labels = np.array([0, 1, 1, 2])
        np.testing.assert_array_equal(canonical_edge_labels(labels), labels)

    def test_empty(self):
        assert canonical_edge_labels(np.array([], dtype=np.int64)).size == 0


def _sort_canonical(labels):
    """The sort-based renumbering, kept as the reference."""
    labels = np.asarray(labels)
    _, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first_idx))[inverse].astype(np.int64)


@st.composite
def label_arrays(draw):
    """Canonical arrays, and the same arrays permuted, gapped or shifted
    negative, with sizes from 0 up."""
    n = draw(st.integers(0, 40))
    canon = []
    for _ in range(n):
        canon.append(draw(st.integers(0, max(canon, default=-1) + 1)))
    canon = np.array(canon, dtype=np.int64)
    k = int(canon.max()) + 1 if n else 0
    kind = draw(st.sampled_from(["canonical", "permuted", "gapped", "negative",
                                 "arbitrary"]))
    if kind == "permuted":
        perm = np.array(draw(st.permutations(range(k))), dtype=np.int64)
        return perm[canon] if n else canon
    if kind == "gapped":
        return canon * draw(st.integers(2, 5)) + draw(st.integers(0, 3))
    if kind == "negative":
        return canon - draw(st.integers(1, 10))
    if kind == "arbitrary":
        return np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)),
                        dtype=np.int64)
    return canon


class TestCanonicalLabelsProperty:
    @given(label_arrays())
    def test_matches_sort_reference(self, labels):
        before = labels.copy()
        out = canonical_edge_labels(labels)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, _sort_canonical(labels))
        np.testing.assert_array_equal(labels, before)
        # always a new array: callers may own the result
        assert not np.shares_memory(out, labels)

    @pytest.mark.parametrize("labels", [[0], [5], [-3], [0, -1], [0, 2], [1, 0]])
    def test_small_cases(self, labels):
        np.testing.assert_array_equal(canonical_edge_labels(np.array(labels)),
                                      _sort_canonical(labels))


class TestBCCResult:
    def two_triangles(self):
        # triangles {0,1,2} and {2,3,4} sharing cut vertex 2
        return Graph(5, [0, 1, 0, 2, 3, 2], [1, 2, 2, 3, 4, 4])

    def test_num_components(self):
        res = tarjan_bcc(self.two_triangles())
        assert res.num_components == 2

    def test_components_partition_edges(self):
        res = tarjan_bcc(self.two_triangles())
        comps = res.components()
        all_edges = np.sort(np.concatenate(comps))
        np.testing.assert_array_equal(all_edges, np.arange(6))
        assert res.component_sizes().tolist() == [3, 3]

    def test_articulation_points_match_networkx(self, corpus):
        for name, g in corpus:
            res = tarjan_bcc(g)
            np.testing.assert_array_equal(
                res.articulation_points(), nx_articulation_points(g), err_msg=name
            )

    def test_bridges_match_networkx(self, corpus):
        for name, g in corpus:
            res = tarjan_bcc(g)
            np.testing.assert_array_equal(res.bridges(), nx_bridges(g), err_msg=name)

    def test_same_partition(self):
        g = self.two_triangles()
        a = tarjan_bcc(g)
        b = tarjan_bcc(g)
        assert a.same_partition(b)

    def test_label_shape_checked(self):
        with pytest.raises(ValueError):
            BCCResult(self.two_triangles(), np.zeros(3, dtype=np.int64), "x")

    def test_empty_graph(self):
        res = BCCResult(Graph(2, [], []), np.zeros(0, dtype=np.int64), "x")
        assert res.num_components == 0
        assert res.component_sizes().size == 0
        assert res.articulation_points().size == 0
        assert res.bridges().size == 0

    def test_bridge_detection(self):
        # path of 3 edges: all bridges
        res = tarjan_bcc(gen.path_graph(4))
        assert res.bridges().tolist() == [0, 1, 2]

    def test_no_bridges_in_cycle(self):
        res = tarjan_bcc(gen.cycle_graph(5))
        assert res.bridges().size == 0

    def test_repr(self):
        r = repr(tarjan_bcc(self.two_triangles()))
        assert "components=2" in r


class TestVertexBlockQueries:
    def test_blocks_of_vertex(self):
        g = Graph(5, [0, 1, 0, 2, 3, 2], [1, 2, 2, 3, 4, 4])
        res = tarjan_bcc(g)
        assert res.blocks_of_vertex(2).size == 2  # the cut vertex
        assert res.blocks_of_vertex(0).size == 1
        with pytest.raises(IndexError):
            res.blocks_of_vertex(99)

    def test_isolated_vertex_no_blocks(self):
        g = Graph(3, [0], [1])
        res = tarjan_bcc(g)
        assert res.blocks_of_vertex(2).size == 0

    def test_vertices_of_block(self):
        g = Graph(5, [0, 1, 0, 2, 3, 2], [1, 2, 2, 3, 4, 4])
        res = tarjan_bcc(g)
        blocks = [set(res.vertices_of_block(b).tolist()) for b in range(2)]
        assert {frozenset(b) for b in blocks} == {
            frozenset({0, 1, 2}), frozenset({2, 3, 4})
        }
        with pytest.raises(IndexError):
            res.vertices_of_block(7)

    def test_vertex_block_consistency_with_networkx(self, corpus):
        import networkx as nx

        for name, g in corpus:
            if g.m == 0:
                continue
            res = tarjan_bcc(g)
            nx_blocks = [frozenset(c) for c in
                         nx.biconnected_components(g.to_networkx())]
            got = {frozenset(res.vertices_of_block(b).tolist())
                   for b in range(res.num_components)}
            assert got == set(nx_blocks), name
