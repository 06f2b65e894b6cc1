"""Batch-first query path: vectorized ``*_many`` kernels vs point queries.

The tentpole contract of the batch refactor is *bit-identical semantics*:
every vectorized bulk kernel must answer exactly what the element-wise
point queries answer, on every graph family, including non-edges, self
loops, and repeated items.  Since the scalar methods are now size-1
wrappers over the kernels, the property is checked two ways — batch-of-k
against k batches-of-1 (wrapper consistency) and against an independent
``tarjan_bcc``/``blocks_of_vertex`` reference (kernel correctness).
The property also runs every batched op through the engine's one
``query`` method against the per-item point queries.  Engine-level tests
pin the batching contract: one index resolve, one delta replay, one
``Service-query`` region, per-item counter stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tarjan import tarjan_bcc
from repro.graph import Graph, generators as gen
from repro.obs import WallClockSink
from repro.service.engine import BATCH_OPS, ServiceEngine
from repro.service.index import BCCIndex
from repro.smp import e4500
from tests.strategies import any_graphs, graph_corpus


def random_pairs(g: Graph, rng: np.random.Generator, k: int) -> np.ndarray:
    """Mix of real edges, random (often non-) pairs, and repeats."""
    n = max(g.n, 1)
    pairs = rng.integers(0, n, size=(k, 2))
    if g.m:
        take = rng.integers(0, g.m, size=k // 2)
        pairs[: k // 2, 0] = g.u[take]
        pairs[: k // 2, 1] = g.v[take]
    if k >= 2:
        pairs[-1] = pairs[0]  # repeated item
    return pairs


def check_batch_equals_scalar(g: Graph, idx: BCCIndex, pairs: np.ndarray) -> None:
    us, vs = pairs[:, 0].tolist(), pairs[:, 1].tolist()
    # pair-shaped kernels vs their scalar wrappers
    np.testing.assert_array_equal(
        idx.same_bcc_many(pairs), [idx.same_bcc(u, v) for u, v in zip(us, vs)]
    )
    np.testing.assert_array_equal(
        idx.is_bridge_many(pairs), [idx.is_bridge(u, v) for u, v in zip(us, vs)]
    )
    comp = idx.component_of_edge_many(pairs)
    expect = [idx.component_of_edge(u, v) for u, v in zip(us, vs)]
    np.testing.assert_array_equal(comp, [-1 if c is None else c for c in expect])
    eids = idx.edge_id_many(pairs)
    expect = [idx.edge_id(u, v) for u, v in zip(us, vs)]
    np.testing.assert_array_equal(eids, [-1 if e is None else e for e in expect])
    cls = idx.classify_edges(pairs)
    np.testing.assert_array_equal(cls["block"], comp)
    np.testing.assert_array_equal(cls["is_bridge"], idx.is_bridge_many(pairs))
    # vertex-shaped kernels
    verts = np.unique(pairs)
    np.testing.assert_array_equal(
        idx.is_articulation_many(verts), [idx.is_articulation(int(v)) for v in verts]
    )
    mask = idx.articulation_mask()
    assert mask.shape == (g.n,) and mask.dtype == bool
    np.testing.assert_array_equal(mask[verts], idx.is_articulation_many(verts))


def check_engine_batch_equals_point(g: Graph, pairs: np.ndarray) -> None:
    """One engine ``query`` per batched op answers what its items answer
    as point queries through the same method."""
    eng = ServiceEngine()
    eng.put_graph("g", g)
    plist, verts = pairs.tolist(), np.unique(pairs).tolist()
    comp = [eng.query("g", "component_of_edge", u=u, v=v) for u, v in plist]
    point = {
        "same_bcc_many": [eng.query("g", "same_bcc", u=u, v=v) for u, v in plist],
        "is_bridge_many": [eng.query("g", "is_bridge", u=u, v=v) for u, v in plist],
        "component_of_edge_many": [-1 if c is None else c for c in comp],
        "is_articulation_many": [eng.query("g", "is_articulation", v=v) for v in verts],
    }
    assert set(BATCH_OPS) == set(point) | {"classify_edges"}
    items = {"pairs": plist, "vs": verts}
    for op, (items_key, _) in BATCH_OPS.items():
        got = eng.query("g", op, **{items_key: items[items_key]})
        if op == "classify_edges":
            np.testing.assert_array_equal(got["block"], point["component_of_edge_many"])
            np.testing.assert_array_equal(got["is_bridge"], point["is_bridge_many"])
        else:
            np.testing.assert_array_equal(got, point[op], err_msg=op)


def check_same_bcc_against_reference(g: Graph, idx: BCCIndex, pairs: np.ndarray) -> None:
    """Independent depth check: shared-block via blocks_of intersection."""
    res = tarjan_bcc(g)
    got = idx.same_bcc_many(pairs)
    for i, (u, v) in enumerate(pairs.tolist()):
        expect = bool(
            np.intersect1d(res.blocks_of_vertex(u), res.blocks_of_vertex(v)).size
        )
        assert bool(got[i]) == expect, (u, v)


@pytest.mark.parametrize(
    "label,g", graph_corpus(), ids=lambda x: x if isinstance(x, str) else ""
)
def test_corpus_batch_matches_scalar(label, g):
    if g.n == 0:
        idx = BCCIndex.build(g)
        assert idx.same_bcc_many(np.empty((0, 2), dtype=np.int64)).size == 0
        return
    idx = BCCIndex.build(g)
    pairs = random_pairs(g, np.random.default_rng(7), 64)
    check_batch_equals_scalar(g, idx, pairs)
    check_same_bcc_against_reference(g, idx, pairs)


@settings(max_examples=40, deadline=None)
@given(g=any_graphs(max_n=30), seed=st.integers(0, 2**16), k=st.integers(1, 48))
def test_property_batch_matches_scalar(g, seed, k):
    if g.n == 0:
        return
    idx = BCCIndex.build(g)
    pairs = random_pairs(g, np.random.default_rng(seed), k)
    check_batch_equals_scalar(g, idx, pairs)
    check_engine_batch_equals_point(g, pairs)
    check_same_bcc_against_reference(g, idx, pairs)


class TestKernelEdges:
    def setup_method(self):
        self.g = gen.cliques_on_a_path(3, 4)[0]
        self.idx = BCCIndex.build(self.g)

    def test_empty_batches(self):
        empty = np.empty((0, 2), dtype=np.int64)
        assert self.idx.same_bcc_many(empty).shape == (0,)
        assert self.idx.is_bridge_many(empty).shape == (0,)
        assert self.idx.component_of_edge_many(empty).shape == (0,)
        assert self.idx.edge_id_many(empty).shape == (0,)
        cls = self.idx.classify_edges(empty)
        assert cls["block"].shape == (0,) and cls["is_bridge"].shape == (0,)
        assert self.idx.is_articulation_many([]).shape == (0,)

    def test_list_of_lists_accepted(self):
        out = self.idx.same_bcc_many([[0, 1], [0, 0]])
        assert out.dtype == bool and out.shape == (2,)
        assert bool(out[0]) == self.idx.same_bcc(0, 1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            self.idx.same_bcc_many([0, 1, 2])
        with pytest.raises(ValueError, match="pairs"):
            self.idx.is_bridge_many(np.zeros((2, 3), dtype=np.int64))

    def test_out_of_range_rejected(self):
        n = self.g.n
        with pytest.raises(IndexError, match="out of range"):
            self.idx.same_bcc_many([[0, n]])
        with pytest.raises(IndexError, match="out of range"):
            self.idx.is_articulation_many([0, -1])
        with pytest.raises(IndexError, match="out of range"):
            self.idx.component_of_edge_many([[n, 0]])

    def test_nonedges_sentinel(self):
        # vertices in different cliques: definitely not an edge
        pairs = [[0, self.g.n - 1]]
        assert self.idx.edge_id_many(pairs)[0] == -1
        assert self.idx.component_of_edge_many(pairs)[0] == -1
        assert not self.idx.is_bridge_many(pairs)[0]

    def test_results_are_fresh_arrays(self):
        mask1 = self.idx.articulation_mask()
        mask1[:] = False
        np.testing.assert_array_equal(
            self.idx.articulation_mask(),
            [self.idx.is_articulation(v) for v in range(self.g.n)],
        )


class TestEngineBatch:
    def test_batched_query_matches_apply_and_point(self):
        g = gen.random_connected_gnm(60, 150, seed=3)
        eng = ServiceEngine()
        eng.put_graph("g", g)
        pairs = random_pairs(g, np.random.default_rng(1), 16).tolist()
        got = eng.query("g", "same_bcc_many", pairs=pairs)
        np.testing.assert_array_equal(
            got, [eng.query("g", "same_bcc", u=u, v=v) for u, v in pairs]
        )
        via_apply = eng.apply("g", {"op": "same_bcc_many", "params": {"pairs": pairs}})
        np.testing.assert_array_equal(via_apply, got)

    def test_unknown_batch_op(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.cycle_graph(4))
        with pytest.raises(ValueError, match="unknown query op 'same_bcc_all'"):
            eng.query("g", "same_bcc_all", pairs=[[0, 1]])

    def test_one_query_entry_point(self):
        assert not hasattr(ServiceEngine, "query_many")

    def test_replays_pending_deltas_exactly_once(self):
        g = gen.random_connected_gnm(40, 90, seed=2)
        eng = ServiceEngine()
        eng.put_graph("g", g)
        eng.query("g", "num_components")  # build + cache
        st0 = eng.stats
        assert (st0.rebuilds, st0.rebuilds_incremental) == (1, 0)
        eng.add_edges("g", [(0, 39), (1, 38)])  # lazy: no replay yet
        out = eng.query("g", "is_bridge_many", pairs=[[0, 39], [1, 38]])
        assert not out.any()  # both sit on new cycles through the old graph
        st1 = eng.stats
        assert st1.rebuilds == 1  # extended, not rebuilt
        assert st1.rebuilds_incremental == 1  # replayed exactly once
        eng.query("g", "same_bcc_many", pairs=[[0, 39]])
        st2 = eng.stats
        assert st2.rebuilds_incremental == 1  # second batch hits cache
        assert st2.cache_hits == st1.cache_hits + 1

    def test_per_item_counter_stats(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "same_bcc_many", pairs=[[0, 1], [2, 3], [4, 5]])
        eng.query("g", "is_articulation_many", vs=[0, 1])
        eng.query("g", "is_articulation", v=0)
        st = eng.stats
        assert st.queries == 6  # 3 + 2 + 1 items, not 3 records
        assert st.per_op["same_bcc_many"] == 3
        assert st.per_op["is_articulation_many"] == 2
        assert st.per_op["is_articulation"] == 1

    def test_single_query_region_per_batch(self):
        eng = ServiceEngine()
        sink = eng.telemetry.add_sink(WallClockSink(record_each=True))
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")  # index build outside the probe
        before = len(sink.durations_ns.get("Service-query", []))
        eng.query("g", "same_bcc_many", pairs=[[0, 1]] * 100)
        assert len(sink.durations_ns["Service-query"]) == before + 1

    def test_machine_charged_per_item(self):
        pairs = [[0, 1], [1, 2], [2, 3], [3, 4]]
        times = []
        for items in ([pairs[0]], pairs):
            eng = ServiceEngine(machine=e4500(4))
            eng.put_graph("g", gen.cycle_graph(8))
            eng.query("g", "num_components")
            t0 = eng.machine.time_s
            eng.query("g", "same_bcc_many", pairs=items)
            times.append(eng.machine.time_s - t0)
        one, four = times
        assert four == pytest.approx(4 * one)

    def test_batch_ops_registry_shape(self):
        for op, (items_key, cost) in BATCH_OPS.items():
            assert op.endswith("_many") or op == "classify_edges"
            assert items_key in ("pairs", "vs")
