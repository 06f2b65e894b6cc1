"""Tests for batch edge updates and incremental index maintenance."""

import numpy as np
import pytest

from repro.core.tarjan import tarjan_bcc
from repro.graph import Graph, generators as gen
from repro.service.index import BCCIndex
from repro.service.store import graph_fingerprint
from repro.service.updates import (
    apply_add_edges,
    apply_remove_edges,
    extend_index,
    normalize_pairs,
    shrink_index,
)
from tests.service.oracle import assert_same_index


def assert_index_fresh(idx: BCCIndex) -> None:
    """An incrementally maintained index must equal a from-scratch one."""
    # BCCResult canonicalizes labels by first occurrence, so identical
    # partitions mean identical label arrays
    assert_same_index(idx, BCCIndex.build(idx.graph, algorithm="sequential"))


class TestNormalizePairs:
    def test_canonical_unique(self):
        lo, hi = normalize_pairs(10, [(3, 1), (1, 3), (5, 2), (4, 4)])
        assert lo.tolist() == [1, 2] and hi.tolist() == [3, 5]

    def test_empty(self):
        lo, hi = normalize_pairs(10, [])
        assert lo.size == 0 and hi.size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            normalize_pairs(5, [(0, 5)])
        with pytest.raises(ValueError, match="out of range"):
            normalize_pairs(5, [(-1, 2)])


class TestApplyAddEdges:
    def test_noop_returns_same_object(self):
        g = gen.cycle_graph(5)
        ng, lo, hi = apply_add_edges(g, [(0, 1), (1, 0), (2, 2)])
        assert ng is g and lo.size == 0

    def test_effective_only(self):
        g = gen.path_graph(4)  # 0-1-2-3
        ng, lo, hi = apply_add_edges(g, [(0, 1), (0, 3), (3, 0)])
        assert lo.tolist() == [0] and hi.tolist() == [3]
        assert ng.m == g.m + 1
        assert graph_fingerprint(ng) != graph_fingerprint(g)

    def test_inserted_graph_is_canonical(self):
        # duplicates, both orientations, self-loops and existing edges:
        # the inserted edge list equals a normalized rebuild
        g = gen.random_gnm(40, 120, seed=3)
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 40, size=(60, 2))
        pairs = np.concatenate([pairs, pairs[:10, ::-1], g.edges()[:5]])
        ng, au, av = apply_add_edges(g, pairs)
        ref = Graph(40, np.concatenate([g.u, pairs[:, 0]]),
                    np.concatenate([g.v, pairs[:, 1]]))
        assert ng == ref and au.size == ref.m - g.m

    def test_add_to_empty_graph(self):
        g = Graph(4, [], [])
        ng, lo, hi = apply_add_edges(g, [(2, 0)])
        assert ng.m == 1 and lo.tolist() == [0] and hi.tolist() == [2]


class TestApplyRemoveEdges:
    def test_noop_returns_same_object(self):
        g = gen.path_graph(4)
        ng, removed = apply_remove_edges(g, [(0, 2), (1, 3)])
        assert ng is g and removed.size == 0

    def test_removes_and_reports_old_ids(self):
        g = gen.path_graph(4)  # edges (0,1)=0 (1,2)=1 (2,3)=2
        ng, removed = apply_remove_edges(g, [(2, 1), (1, 2)])  # dupes collapse
        assert removed.tolist() == [1]
        assert ng.m == 2
        assert ng.edges().tolist() == [[0, 1], [2, 3]]


class TestExtendIndex:
    def test_chord_inside_block(self):
        g = gen.cycle_graph(6)
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 3)])
        out = extend_index(idx, ng, au, av, fingerprint=graph_fingerprint(ng))
        assert out is not None and out.source == "extend"
        assert out.fingerprint == graph_fingerprint(ng)
        assert_index_fresh(out)

    def test_parallel_inside_clique(self):
        g, _ = gen.cliques_on_a_path(3, 4)
        idx = BCCIndex.build(g)
        # both endpoints interior to one clique block: pick a clique edge's
        # endpoints, already adjacent -> add a fresh pair inside the block
        res = tarjan_bcc(g)
        lab0 = res.edge_labels == res.edge_labels[0]
        verts = np.unique(np.concatenate([g.u[lab0], g.v[lab0]]))
        ng, au, av = apply_add_edges(g, [(int(verts[0]), int(verts[-1]))])
        if au.size:  # not already an edge
            out = extend_index(idx, ng, au, av)
            assert out is not None
            assert_index_fresh(out)

    def test_edge_between_blocks_bails(self):
        g = gen.path_graph(3)  # blocks {0,1} and {1,2}
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 2)])
        assert extend_index(idx, ng, au, av) is None

    def test_edge_between_components_bails(self):
        g = Graph(4, [0, 2], [1, 3])
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(1, 2)])
        assert extend_index(idx, ng, au, av) is None

    def test_vertex_count_mismatch_bails(self):
        g = gen.cycle_graph(4)
        idx = BCCIndex.build(g)
        ng = Graph(5, g.u, g.v)
        assert extend_index(idx, ng, np.array([], np.int64), np.array([], np.int64)) is None

    def test_multiple_chords_one_batch(self):
        g = gen.cycle_graph(8)
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 4), (1, 5), (2, 6)])
        out = extend_index(idx, ng, au, av)
        assert out is not None
        assert_index_fresh(out)


class TestShrinkIndex:
    def test_remove_bridge(self):
        g = gen.path_graph(5)
        idx = BCCIndex.build(g)
        ng, removed = apply_remove_edges(g, [(1, 2)])
        out = shrink_index(idx, ng, removed, fingerprint=graph_fingerprint(ng))
        assert out is not None and out.source == "shrink"
        assert_index_fresh(out)

    def test_remove_two_bridges(self):
        g = gen.path_graph(6)
        idx = BCCIndex.build(g)
        ng, removed = apply_remove_edges(g, [(0, 1), (4, 5)])
        out = shrink_index(idx, ng, removed)
        assert out is not None
        assert_index_fresh(out)

    def test_remove_cycle_edge_bails(self):
        g = gen.cycle_graph(5)
        idx = BCCIndex.build(g)
        ng, removed = apply_remove_edges(g, [(0, 1)])
        assert shrink_index(idx, ng, removed) is None

    def test_mixed_batch_bails(self):
        # one bridge + one cycle edge: must fall back to a rebuild
        g = Graph(5, [0, 1, 2, 0, 0], [1, 2, 3, 3, 4])  # 4-cycle + pendant 0-4
        idx = BCCIndex.build(g)
        assert np.flatnonzero(idx._is_bridge).size == 1
        ng, removed = apply_remove_edges(g, [(0, 4), (0, 1)])
        assert removed.size == 2
        assert shrink_index(idx, ng, removed) is None


class TestPatchReuse:
    """Patches build from the base index's arrays; the oracle above checks
    they still equal a fresh build."""

    def test_intra_block_add_shares_incidence_arrays(self):
        g = gen.cycle_graph(6)
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 3)])
        out = extend_index(idx, ng, au, av)
        for name in ("_is_art", "_vb_keys", "_vb_blocks", "_vb_indptr"):
            assert getattr(out, name) is getattr(idx, name)
        assert_index_fresh(out)

    def test_add_that_moves_a_block_first_falls_back(self):
        # triangle A = {0, 2, 3} numbers first (edge (0, 2)), block
        # B = {0, 1, 4, 5} second (edge (0, 4)); the chord (0, 1) of B
        # becomes the first edge, so the two block ids swap
        g = Graph(6, [0, 0, 2, 0, 0, 4, 1, 1], [2, 3, 3, 4, 5, 5, 4, 5])
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 1)])
        out = extend_index(idx, ng, au, av)
        assert out is not None and out._vb_blocks is not idx._vb_blocks
        assert out.component_of_edge(0, 2) == 1
        assert_index_fresh(out)

    def test_bridge_removal_shifts_later_blocks(self):
        # triangles {0, 1, 2} and {3, 4, 5} joined by the bridge (2, 3):
        # the second triangle's block id drops from 2 to 1
        g = Graph(6, [0, 0, 1, 2, 3, 3, 4], [1, 2, 2, 3, 4, 5, 5])
        idx = BCCIndex.build(g)
        assert idx.is_articulation(2) and idx.component_of_edge(3, 4) == 2
        ng, removed = apply_remove_edges(g, [(2, 3)])
        out = shrink_index(idx, ng, removed)
        assert out.component_of_edge(3, 4) == 1
        assert not out.articulation_mask().any()
        assert_index_fresh(out)

    def test_removing_the_last_block_bridge_recounts_articulation(self):
        # the surviving labels stay canonical, but vertex 2 leaves a block
        g = gen.path_graph(4)
        idx = BCCIndex.build(g)
        ng, removed = apply_remove_edges(g, [(2, 3)])
        out = shrink_index(idx, ng, removed)
        assert not out.is_articulation(2) and out.blocks_of(3).size == 0
        assert_index_fresh(out)

    def test_index_arrays_are_read_only(self):
        g = gen.cycle_graph(6)
        idx = BCCIndex.build(g)
        ng, au, av = apply_add_edges(g, [(0, 3)])
        out = extend_index(idx, ng, au, av)
        before = idx.same_bcc_many([[0, 3], [1, 4]])
        with pytest.raises(ValueError, match="read-only"):
            out._vb_blocks[0] = 5
        for name in ("_is_art", "_is_bridge", "_edge_keys", "_vb_keys",
                     "_vb_indptr"):
            assert not getattr(out, name).flags.writeable
            assert not getattr(idx, name).flags.writeable
        np.testing.assert_array_equal(idx.same_bcc_many([[0, 3], [1, 4]]), before)
        assert idx.blocks_of(0).tolist() == [0]


class TestBailOutGuards:
    """The last-line consistency guards must bail to None, never corrupt.

    These exercise the "shouldn't happen" branches directly — a caller
    (or a replayed delta log) handing the patch paths arguments that are
    internally inconsistent with the new graph.
    """

    def test_extend_added_set_mismatch_bails(self):
        # (1, 3) is intra-block (one cycle block) so classification passes,
        # but the graph actually gained (0, 2): the added-key-set guard
        # must catch the disagreement
        g = gen.cycle_graph(5)
        idx = BCCIndex.build(g)
        ng, _, _ = apply_add_edges(g, [(0, 2)])
        out = extend_index(idx, ng,
                           np.array([1], np.int64), np.array([3], np.int64))
        assert out is None

    def test_extend_claimed_add_on_unchanged_graph_bails(self):
        # new_graph == old graph but the delta claims one added edge
        g = gen.cycle_graph(5)
        idx = BCCIndex.build(g)
        out = extend_index(idx, g,
                           np.array([0], np.int64), np.array([2], np.int64))
        assert out is None

    def test_shrink_empty_removed_bails(self):
        g = gen.path_graph(4)
        idx = BCCIndex.build(g)
        assert shrink_index(idx, g, np.zeros(0, np.int64)) is None

    def test_shrink_vertex_count_mismatch_bails(self):
        g = gen.path_graph(4)
        idx = BCCIndex.build(g)
        ng = Graph(5, g.u[:-1], g.v[:-1])
        assert shrink_index(idx, ng, np.array([2], np.int64)) is None

    def test_shrink_edge_count_mismatch_bails(self):
        # removing bridge 0 should leave m-1 edges; handing the unchanged
        # graph as "new" trips the edge-count guard
        g = gen.path_graph(4)
        idx = BCCIndex.build(g)
        assert shrink_index(idx, g, np.array([0], np.int64)) is None
