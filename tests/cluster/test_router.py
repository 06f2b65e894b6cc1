"""Router correctness: the routed-equals-single-engine contract.

The hypothesis property here is the cluster's load-bearing invariant:
for ANY shard count (including the degenerate shard=1 cluster) and any
mix of graphs and records, ``ShardRouter.apply_batch`` must return
answers element-wise identical — same values, same dtypes, same Python
types — to one :class:`ServiceEngine` holding every graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Rejected, ShardRouter
from repro.cluster.frames import strip_routing
from repro.graph import generators as gen
from repro.service.engine import ServiceEngine
from repro.service.workload import op_item_count

N = 16  # per-graph vertex count: small keeps rebuilds cheap under hypothesis


def _graphs(num_graphs, seed=0):
    return {f"g{i}": gen.random_gnm(N, 20, seed=seed + i)
            for i in range(num_graphs)}


def _single_engine(graphs):
    engine = ServiceEngine(cache_size=8)
    for name, g in graphs.items():
        engine.put_graph(name, g)
    return engine


def assert_same_answer(routed, expected):
    assert type(routed) is type(expected), (routed, expected)
    if isinstance(expected, np.ndarray):
        assert routed.dtype == expected.dtype
        np.testing.assert_array_equal(routed, expected)
    elif isinstance(expected, dict):
        assert routed.keys() == expected.keys()
        for key in expected:
            assert routed[key].dtype == expected[key].dtype
            np.testing.assert_array_equal(routed[key], expected[key])
    else:
        assert routed == expected


vertex = st.integers(0, N - 1)
pair = st.lists(vertex, min_size=2, max_size=2)


@st.composite
def records(draw, num_graphs):
    gname = f"g{draw(st.integers(0, num_graphs - 1))}"
    kind = draw(st.sampled_from([
        "same_bcc", "is_articulation", "is_bridge", "component_of_edge",
        "num_components", "same_bcc_many", "is_articulation_many",
        "is_bridge_many", "component_of_edge_many", "classify_edges",
        "add_edges", "remove_edges",
    ]))
    rec = {"op": kind, "graph": gname}
    if kind in ("same_bcc", "is_bridge", "component_of_edge"):
        rec["u"], rec["v"] = draw(vertex), draw(vertex)
    elif kind == "is_articulation":
        rec["v"] = draw(vertex)
    elif kind == "is_articulation_many":
        rec["params"] = {"vs": draw(st.lists(vertex, min_size=0, max_size=4))}
    elif kind in ("same_bcc_many", "is_bridge_many",
                  "component_of_edge_many", "classify_edges"):
        rec["params"] = {"pairs": draw(st.lists(pair, min_size=0, max_size=4))}
    elif kind in ("add_edges", "remove_edges"):
        rec["edges"] = draw(st.lists(pair, min_size=1, max_size=3))
    return rec


class TestRoutedEqualsSingleEngine:
    @settings(max_examples=40, deadline=None)
    @given(
        num_shards=st.integers(1, 6),
        num_graphs=st.integers(1, 3),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_property(self, num_shards, num_graphs, seed, data):
        graphs = _graphs(num_graphs, seed=seed)
        batch = data.draw(
            st.lists(records(num_graphs), min_size=1, max_size=12))
        reference = _single_engine(graphs)
        with ShardRouter(num_shards=num_shards, backend="serial") as router:
            for name, g in graphs.items():
                router.put_graph(name, g)
            routed = router.apply_batch(batch)
        assert len(routed) == len(batch)
        for rec, answer in zip(batch, routed):
            expected = reference.apply(rec["graph"], strip_routing(rec))
            assert_same_answer(answer, expected)

    def test_shard_one_specifically(self):
        # the degenerate one-shard cluster must still be exact
        graphs = _graphs(2, seed=7)
        reference = _single_engine(graphs)
        batch = [
            {"op": "num_components", "graph": "g0"},
            {"op": "add_edges", "edges": [[0, 1], [1, 2]], "graph": "g1"},
            {"op": "classify_edges",
             "params": {"pairs": [[0, 1], [3, 4]]}, "graph": "g1"},
        ]
        with ShardRouter(num_shards=1, backend="serial") as router:
            for name, g in graphs.items():
                router.put_graph(name, g)
            routed = router.apply_batch(batch)
        for rec, answer in zip(batch, routed):
            assert_same_answer(
                answer, reference.apply(rec["graph"], strip_routing(rec)))

    def test_determinism_under_fixed_seed(self):
        # two routers, same seed-derived inputs -> identical answers,
        # identical placement, regardless of being separate instances
        graphs = _graphs(3, seed=3)
        batch = [
            {"op": "same_bcc", "u": 1, "v": 2, "graph": f"g{i % 3}"}
            for i in range(9)
        ] + [
            {"op": "same_bcc_many",
             "params": {"pairs": [[0, 1], [2, 3]]}, "graph": "g1"},
        ]

        def run():
            with ShardRouter(num_shards=4, backend="serial") as router:
                placement = {
                    name: router.put_graph(name, g)
                    for name, g in graphs.items()
                }
                return placement, router.apply_batch(batch)

        placement_a, answers_a = run()
        placement_b, answers_b = run()
        assert placement_a == placement_b
        for a, b in zip(answers_a, answers_b):
            assert_same_answer(a, b)


class TestTenancy:
    def test_batch_quota_rejects_overflow(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         tenant_batch_quota=2) as router:
            router.put_graph("g0", g, tenant="acme")
            batch = [{"op": "num_components", "graph": "g0"}] * 4
            out = router.apply_batch(batch)
            assert [isinstance(a, Rejected) for a in out] == [
                False, False, True, True]
            assert out[2].tenant == "acme"
            assert not out[2]  # Rejected is falsy
            stats = router.stats()
            assert stats.tenants["acme"]["admitted"] == 2
            assert stats.tenants["acme"]["rejected"] == 2

    def test_quota_is_per_batch_and_per_tenant(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         tenant_batch_quota=2) as router:
            router.put_graph("a", g, tenant="t-a")
            router.put_graph("b", g, tenant="t-b")
            batch = ([{"op": "num_components", "graph": "a"}] * 3
                     + [{"op": "num_components", "graph": "b"}] * 2)
            out = router.apply_batch(batch)
            # t-a: 2 admitted 1 rejected; t-b under quota
            assert [isinstance(x, Rejected) for x in out] == [
                False, False, True, False, False]
            # quota resets per batch
            out2 = router.apply_batch([{"op": "num_components", "graph": "a"}])
            assert not isinstance(out2[0], Rejected)

    def test_batched_items_count_against_quota(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=1, backend="serial",
                         tenant_batch_quota=3) as router:
            router.put_graph("g0", g, tenant="acme")
            big = {"op": "same_bcc_many", "graph": "g0",
                   "params": {"pairs": [[0, 1]] * 3}}
            out = router.apply_batch([big, {"op": "num_components",
                                            "graph": "g0"}])
            assert not isinstance(out[0], Rejected)
            assert isinstance(out[1], Rejected)  # 3 items spent the quota

    def test_graph_budget_lru_eviction(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         tenant_graph_budget=2) as router:
            router.put_graph("a", g, tenant="acme")
            router.put_graph("b", g, tenant="acme")
            # touch "a" so "b" becomes coldest
            router.apply({"op": "num_components", "graph": "a"})
            router.put_graph("c", g, tenant="acme")
            assert set(router.graphs()) == {"a", "c"}
            assert router.stats().tenants["acme"]["evictions"] == 1

    def test_budget_independent_across_tenants(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         tenant_graph_budget=1) as router:
            router.put_graph("a", g, tenant="t0")
            router.put_graph("b", g, tenant="t1")
            assert set(router.graphs()) == {"a", "b"}

    def test_reput_same_name_does_not_evict(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         tenant_graph_budget=1) as router:
            router.put_graph("a", g, tenant="acme")
            router.put_graph("a", g, tenant="acme")
            assert set(router.graphs()) == {"a"}
            assert router.stats().tenants["acme"]["evictions"] == 0


class TestLifecycle:
    def test_remove_graph(self):
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial") as router:
            router.put_graph("a", g)
            router.remove_graph("a")
            assert router.graphs() == {}
            with pytest.raises(KeyError):
                router.remove_graph("a")

    def test_unknown_graph_errors(self):
        with ShardRouter(num_shards=2, backend="serial") as router:
            with pytest.raises(KeyError):
                router.apply({"op": "num_components", "graph": "ghost"})

    def test_closed_router_refuses_work(self):
        router = ShardRouter(num_shards=2, backend="serial")
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.apply({"op": "num_components"})
        router.close()  # idempotent

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ShardRouter(num_shards=0)
        with pytest.raises(ValueError):
            ShardRouter(tenant_graph_budget=0)
        with pytest.raises(ValueError):
            ShardRouter(tenant_batch_quota=0)
        with pytest.raises(ValueError):
            ShardRouter(backend="gpu")

    def test_route_spans_emitted(self):
        from repro.obs import Telemetry
        from repro.obs.sinks import WallClockSink

        telemetry = Telemetry()
        wall = telemetry.add_sink(WallClockSink())
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial",
                         telemetry=telemetry) as router:
            router.put_graph("a", g)
            router.apply_batch([{"op": "num_components", "graph": "a"}] * 3)
        names = set(wall.seconds)
        assert {"Cluster-route", "Cluster-scatter", "Cluster-gather"} <= names

    def test_routers_sharing_telemetry_count_only_their_own_tenants(self):
        from repro.obs import CounterSink, Telemetry

        telemetry = Telemetry()
        seen = telemetry.add_sink(CounterSink())
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial", telemetry=telemetry) as a, \
                ShardRouter(num_shards=2, backend="serial", telemetry=telemetry) as b:
            a.put_graph("g", g, tenant="acme")
            a.apply({"op": "num_components", "graph": "g"})
            assert b.stats().tenants == {}
            assert a.stats().tenants["acme"]["admitted"] == 1
        # every router event still reaches the shared telemetry
        assert seen["tenant.admit.acme"] == 1 and seen["cluster.put.acme"] == 1


class PerRecordTenancy:
    """Reference model of admission and the tenant LRUs, one record at a
    time: the quota spent in record order, one admit/items/reject count
    per record, and an LRU touch per admitted record."""

    def __init__(self, quota, budget):
        self.quota, self.budget = quota, budget
        self.owner, self.lru, self.evictions = {}, {}, {}
        self.counts = {}

    def put(self, name, tenant):
        is_new = name not in self.owner
        self.owner[name] = tenant
        lru = self.lru.setdefault(tenant, [])
        if name in lru:
            lru.remove(name)
        lru.append(name)
        if is_new and len(lru) > self.budget:
            victim = lru.pop(0)
            del self.owner[victim]
            self.evictions[tenant] = self.evictions.get(tenant, 0) + 1

    def admit(self, batch):
        spent, verdicts = {}, []
        for rec in batch:
            tenant = rec.get("tenant") or self.owner[rec["graph"]]
            items = max(1, op_item_count(rec))
            row = self.counts.setdefault(tenant, {"admitted": 0, "rejected": 0, "items": 0})
            if spent.get(tenant, 0) + items > self.quota:
                row["rejected"] += 1
                verdicts.append(False)
                continue
            spent[tenant] = spent.get(tenant, 0) + items
            row["admitted"] += 1
            row["items"] += items
            verdicts.append(True)
            lru = self.lru.get(tenant, [])
            if rec["graph"] in lru:
                lru.remove(rec["graph"])
                lru.append(rec["graph"])
        return verdicts

    def tenants(self):
        return {
            tenant: {**self.counts.get(tenant, {"admitted": 0, "rejected": 0, "items": 0}),
                     "graphs": len(self.lru.get(tenant, ())),
                     "evictions": self.evictions.get(tenant, 0)}
            for tenant in sorted(set(self.lru) | {
                t for t, row in self.counts.items() if row["admitted"]})
        }


TENANTS = ("t0", "t1", "t2")
OWNED = {f"{t}-g{j}": t for t in TENANTS for j in range(3)}


@st.composite
def tenant_records(draw):
    graph = draw(st.sampled_from(sorted(OWNED)))
    kind = draw(st.sampled_from(["same_bcc", "num_components", "same_bcc_many",
                                 "is_articulation_many"]))
    rec = {"op": kind, "graph": graph}
    if kind == "same_bcc":
        rec["u"], rec["v"] = draw(vertex), draw(vertex)
    elif kind == "same_bcc_many":
        rec["params"] = {"pairs": draw(st.lists(pair, max_size=4))}
    elif kind == "is_articulation_many":
        rec["params"] = {"vs": draw(st.lists(vertex, max_size=4))}
    if draw(st.integers(0, 5)) == 0:  # a tenant other than the owner
        rec["tenant"] = draw(st.sampled_from(TENANTS))
    return rec


class TestPerBatchAdmission:
    """Admission counted per batch equals admission counted per record."""

    @settings(max_examples=40, deadline=None)
    @given(quota=st.integers(2, 8),
           batches=st.lists(st.lists(tenant_records(), min_size=1, max_size=16),
                            min_size=1, max_size=3))
    def test_matches_per_record_model(self, quota, batches):
        g = gen.random_connected_gnm(N, 30, seed=0)
        model = PerRecordTenancy(quota, budget=3)
        with ShardRouter(num_shards=2, backend="serial", tenant_batch_quota=quota,
                         tenant_graph_budget=3) as router:
            for name, tenant in OWNED.items():
                router.put_graph(name, g, tenant=tenant)
                model.put(name, tenant)
            for batch in batches:
                out = router.apply_batch(batch)
                assert [not isinstance(a, Rejected) for a in out] == model.admit(batch)
            assert router.stats().tenants == model.tenants()
            # one more graph per tenant evicts the model's victim
            for tenant in TENANTS:
                router.put_graph(f"{tenant}-new", g, tenant=tenant)
                model.put(f"{tenant}-new", tenant)
            assert router.graphs().keys() == model.owner.keys()
            assert router.stats().tenants == model.tenants()

    def test_one_admit_event_per_tenant_per_batch(self):
        from repro.obs import CounterSink, Sink, Telemetry

        class Names(Sink):
            def on_event(self, name, path, t_ns, attrs):
                events.append(name)

        telemetry = Telemetry()
        seen = telemetry.add_sink(CounterSink())
        events = []
        telemetry.add_sink(Names())
        g = gen.random_connected_gnm(N, 30, seed=0)
        with ShardRouter(num_shards=2, backend="serial", telemetry=telemetry,
                         tenant_batch_quota=5) as router:
            router.put_graph("a", g, tenant="ta")
            router.put_graph("b", g, tenant="tb")
            events.clear()
            batch = ([{"op": "num_components", "graph": "a"}] * 7
                     + [{"op": "same_bcc_many", "graph": "b",
                         "params": {"pairs": [[0, 1]] * 3}}] * 2)
            out = router.apply_batch(batch)
            assert sum(isinstance(a, Rejected) for a in out) == 3
        assert events.count("tenant.admit") == 2
        assert events.count("tenant.items") == 2
        assert events.count("tenant.reject") == 3
        assert seen["tenant.admit.ta"] == 5 and seen["tenant.items.ta"] == 5
        assert seen["tenant.admit.tb"] == 1 and seen["tenant.items.tb"] == 3
