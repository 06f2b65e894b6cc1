"""Tests for the BCC point-query index against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ALGORITHMS
from repro.core.blockcut import BlockCutTree
from repro.core.tarjan import tarjan_bcc
from repro.graph import Graph, generators as gen
from repro.service.driver import oracle_answer
from repro.service import index as index_module
from repro.service.index import BCCIndex
from tests.conftest import nx_articulation_points, nx_bridges
from tests.strategies import graph_corpus


def exhaustive_check(g: Graph, idx: BCCIndex) -> None:
    """Every point query must match the from-scratch oracle."""
    res = tarjan_bcc(g)
    assert idx.num_components() == res.num_components
    for v in range(g.n):
        assert idx.is_articulation(v) == oracle_answer(res, {"op": "is_articulation", "v": v})
    for u, v in g.edges().tolist():
        assert idx.is_bridge(u, v) == oracle_answer(res, {"op": "is_bridge", "u": u, "v": v})
        assert idx.component_of_edge(u, v) == oracle_answer(
            res, {"op": "component_of_edge", "u": u, "v": v}
        )
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, max(g.n, 1), size=(min(60, g.n * g.n), 2))
    for u, v in pairs.tolist():
        op = {"op": "same_bcc", "u": u, "v": v}
        assert idx.same_bcc(u, v) == oracle_answer(res, op), (u, v)
        # non-edges are never bridges and have no component
        if idx.edge_id(u, v) is None:
            assert not idx.is_bridge(u, v)
            assert idx.component_of_edge(u, v) is None


@pytest.mark.parametrize("label,g", graph_corpus(), ids=lambda x: x if isinstance(x, str) else "")
def test_corpus_queries_match_oracle(label, g):
    if g.n == 0:
        idx = BCCIndex.build(g)
        assert idx.num_components() == 0
        return
    exhaustive_check(g, BCCIndex.build(g))


def test_aggregates_match_networkx():
    g = gen.cliques_on_a_path(4, 5)[0]
    idx = BCCIndex.build(g)
    assert idx.num_articulation_points() == nx_articulation_points(g).size
    assert idx.num_bridges() == nx_bridges(g).size
    sizes = idx.result.component_sizes()
    assert idx.largest_block_edges() == int(sizes.max())


def test_all_algorithms_build_identical_indexes():
    g = gen.random_gnm(80, 160, seed=5)
    base = BCCIndex.build(g, algorithm="sequential")
    for name in sorted(ALGORITHMS):
        idx = BCCIndex.build(g, algorithm=name)
        np.testing.assert_array_equal(idx.result.edge_labels, base.result.edge_labels)
        np.testing.assert_array_equal(idx._is_art, base._is_art)
        np.testing.assert_array_equal(idx._is_bridge, base._is_bridge)


def test_edge_id():
    g = Graph(5, [0, 0, 2], [1, 3, 4])
    idx = BCCIndex.build(g)
    assert idx.edge_id(0, 1) == 0
    assert idx.edge_id(1, 0) == 0  # orientation-insensitive
    assert idx.edge_id(4, 2) == 2
    assert idx.edge_id(1, 2) is None
    assert idx.edge_id(0, 0) is None


def test_vertex_out_of_range():
    idx = BCCIndex.build(gen.cycle_graph(4))
    with pytest.raises(IndexError, match="out of range"):
        idx.is_articulation(4)
    with pytest.raises(IndexError):
        idx.same_bcc(0, -1)


def test_blocks_of():
    # path 0-1-2: vertex 1 is the cut vertex in both blocks
    idx = BCCIndex.build(gen.path_graph(3))
    assert idx.blocks_of(0).tolist() == [0]
    assert sorted(idx.blocks_of(1).tolist()) == [0, 1]
    assert idx.same_bcc(0, 1) and not idx.same_bcc(0, 2)


def test_same_bcc_isolated_and_self():
    g = Graph(3, [0], [1])  # vertex 2 isolated
    idx = BCCIndex.build(g)
    assert idx.same_bcc(0, 0)  # has an incident edge
    assert not idx.same_bcc(2, 2)  # isolated
    assert not idx.same_bcc(0, 2)


def test_block_cut_lazy_and_cached():
    idx = BCCIndex.build(gen.path_graph(5))
    assert idx._bct is None
    bct = idx.block_cut()
    assert isinstance(bct, BlockCutTree)
    assert idx.block_cut() is bct


def test_source_and_repr():
    idx = BCCIndex.build(gen.cycle_graph(5))
    assert idx.source == "build"
    assert "blocks=1" in repr(idx)


class TestSortedProbes:
    """Batches of ``_SORTED_PROBES`` probes or more are searched in sorted
    order; every kernel answer is bit-identical to an unsorted search."""

    CUT = index_module._SORTED_PROBES
    SIZES = (0, 1, CUT - 1, CUT, CUT + 1, 3 * CUT)

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(-50, 5000), max_size=400),
           size=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
    def test_search_equals_searchsorted(self, keys, size, seed):
        keys = np.sort(np.asarray(keys, dtype=np.int64))
        rng = np.random.default_rng(seed)
        probes = rng.integers(-100, 5100, size=size)
        if keys.size and size:  # hits, duplicates of them, and misses
            probes[: size // 2] = keys[rng.integers(0, keys.size, size // 2)]
        got = index_module._search(keys, probes)
        want = np.searchsorted(keys, probes)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 120), density=st.integers(1, 4), size=st.sampled_from(SIZES),
           edge_share=st.floats(0, 1), duplicates=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_kernels_equal_unsorted_search(self, n, density, size, edge_share,
                                           duplicates, seed):
        g = gen.random_gnm(n, min(n * (n - 1) // 2, density * n), seed=seed)
        idx = BCCIndex.build(g)
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(size, 2))
        real = np.flatnonzero(rng.random(size) < edge_share)
        if g.m and real.size:  # real edges, in either orientation
            ids = rng.integers(0, g.m, real.size)
            flip = rng.random(real.size) < 0.5
            pairs[real, 0] = np.where(flip, g.v[ids], g.u[ids])
            pairs[real, 1] = np.where(flip, g.u[ids], g.v[ids])
        if duplicates and size:
            pairs[size // 2 :] = pairs[: size - size // 2]
        kernels = ("edge_id_many", "same_bcc_many", "is_bridge_many",
                   "component_of_edge_many", "classify_edges")
        got = {name: getattr(idx, name)(pairs) for name in kernels}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(index_module, "_SORTED_PROBES", 2**62)
            want = {name: getattr(idx, name)(pairs) for name in kernels}
        for name in kernels:
            got_parts = got[name] if isinstance(got[name], dict) else {"": got[name]}
            want_parts = want[name] if isinstance(want[name], dict) else {"": want[name]}
            for key in want_parts:
                assert got_parts[key].dtype == want_parts[key].dtype
                np.testing.assert_array_equal(got_parts[key], want_parts[key])


class TestNumComponentsCounted:
    """``num_components`` is counted once per result and equals the
    labels' max + 1 on built and patched indexes alike."""

    @staticmethod
    def _expected(idx):
        labels = idx.result.edge_labels
        return int(labels.max()) + 1 if labels.size else 0

    def test_built_indexes(self):
        for _, g in graph_corpus():
            idx = BCCIndex.build(g)
            assert idx.num_components() == self._expected(idx)
            assert idx.num_components() == idx.result.num_components

    def test_extended_and_shrunk_indexes(self):
        from repro.service.engine import ServiceEngine

        rng = np.random.default_rng(5)
        engine = ServiceEngine()
        # dense enough for tv-filter's certificate, so removals patch too
        engine.put_graph("g", gen.random_connected_gnm(40, 200, seed=5))
        sources = set()
        for _ in range(60):
            g = engine.graph("g")
            if rng.random() < 0.5 and g.m > 170:
                bridges = engine.index_for("g").result.bridges()
                i = int(bridges[0] if bridges.size and rng.random() < 0.5
                        else rng.integers(0, g.m))
                engine.remove_edges("g", [[int(g.u[i]), int(g.v[i])]])
            else:
                engine.add_edges("g", rng.integers(0, g.n, size=(2, 2)).tolist())
            idx = engine.index_for("g")
            sources.add(idx.source)
            assert idx.num_components() == self._expected(idx)
            assert engine.query("g", "num_components") == self._expected(idx)
        assert {"extend", "shrink"} <= sources
