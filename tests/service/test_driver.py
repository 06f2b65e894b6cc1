"""Tests for the workload driver: measurement, verification, acceptance run."""

import json

import pytest

import numpy as np

from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.service.driver import _per_item_ns, _percentiles, oracle_answer, run_workload
from repro.service.engine import ServiceEngine
from repro.service.workload import WorkloadSpec, generate_workload, mix_with_update_fraction
from repro.smp import e4500

SPEC = WorkloadSpec(
    num_ops=400,
    seed=3,
    graph={"family": "connected-gnm", "n": 120, "m": 360, "seed": 3},
)

BATCH_SPEC = WorkloadSpec(
    num_ops=80,
    seed=3,
    query_batch=16,
    graph={"family": "connected-gnm", "n": 120, "m": 360, "seed": 3},
)


class TestOracleAnswer:
    def test_unknown_op(self):
        res = tarjan_bcc(gen.cycle_graph(4))
        with pytest.raises(ValueError, match="unknown query op"):
            oracle_answer(res, {"op": "pagerank"})

    def test_non_edge_answers(self):
        res = tarjan_bcc(gen.path_graph(4))
        assert oracle_answer(res, {"op": "is_bridge", "u": 0, "v": 3}) is False
        assert oracle_answer(res, {"op": "component_of_edge", "u": 0, "v": 3}) is None

    def test_batch_ops_answered_elementwise(self):
        g = gen.path_graph(4)
        res = tarjan_bcc(g)
        pairs = [[0, 1], [0, 3], [1, 2]]
        assert oracle_answer(res, {"op": "is_bridge_many", "params": {"pairs": pairs}}) == [
            oracle_answer(res, {"op": "is_bridge", "u": u, "v": v}) for u, v in pairs
        ]
        assert oracle_answer(
            res, {"op": "is_articulation_many", "params": {"vs": [0, 1, 2, 3]}}
        ) == [oracle_answer(res, {"op": "is_articulation", "v": v}) for v in range(4)]
        cls = oracle_answer(res, {"op": "classify_edges", "params": {"pairs": pairs}})
        assert cls[1] == {"block": -1, "is_bridge": False}  # (0, 3) is a non-edge
        assert cls[0]["is_bridge"] is True


class TestHelpers:
    def test_percentiles_empty_is_zeros(self):
        out = _percentiles([])
        assert out == {"count": 0, "mean_us": 0.0, "p50_us": 0.0,
                       "p95_us": 0.0, "p99_us": 0.0}

    def test_percentiles_ordering(self):
        out = _percentiles([1000, 2000, 3000, 4000])
        assert out["count"] == 4
        assert out["p99_us"] >= out["p95_us"] >= out["p50_us"] > 0

    def test_per_item_ns_amortizes(self):
        # a 3-item batch at 30ns contributes three 10ns samples
        out = _per_item_ns([30, 50], [3, 1])
        np.testing.assert_allclose(sorted(out), [10.0, 10.0, 10.0, 50.0])

    def test_per_item_ns_empty(self):
        assert _per_item_ns([], []).size == 0


class TestRunWorkload:
    def test_verified_run(self):
        wl = generate_workload(SPEC)
        rep = run_workload(wl, verify=True)
        assert rep.verified is True and rep.mismatches == 0
        assert rep.num_ops == 400
        assert rep.num_queries + rep.num_updates == 400
        assert rep.throughput_ops_s > 0 and rep.wall_s > 0
        assert rep.cache_hit_rate > 0
        assert rep.graph_n == 120 and rep.graph_m == 360

    def test_latency_percentiles(self):
        rep = run_workload(generate_workload(SPEC))
        assert rep.verified is None  # verification off by default
        assert rep.query_p99_us >= rep.query_p95_us >= rep.query_p50_us > 0
        for op, lat in rep.latency_us.items():
            assert lat["count"] > 0
            assert lat["p99_us"] >= lat["p50_us"] > 0

    def test_simulated_machine(self):
        rep = run_workload(generate_workload(SPEC), machine=e4500(8))
        assert rep.p == 8
        assert rep.sim_time_s > 0
        assert set(rep.sim_regions) <= {"Service-build", "Service-extend", "Service-query"}
        assert rep.sim_regions["Service-build"] > 0

    def test_report_is_json_serializable(self):
        rep = run_workload(generate_workload(SPEC), machine=e4500(4), verify=True)
        doc = json.loads(json.dumps(rep.as_dict()))
        assert doc["verified"] is True
        assert doc["algorithm"] == "tv-filter"

    def test_explicit_graph_overrides_header(self):
        wl = generate_workload(SPEC)
        g = gen.random_connected_gnm(120, 360, seed=99)
        rep = run_workload(wl, graph=g, verify=True)
        assert rep.verified is True

    def test_reuses_passed_engine(self):
        eng = ServiceEngine(algorithm="tv-smp", cache_size=2)
        rep = run_workload(generate_workload(SPEC), engine=eng)
        assert rep.algorithm == "tv-smp"
        assert eng.stats.queries == rep.num_queries

    def test_batched_verified_run(self):
        wl = generate_workload(BATCH_SPEC)
        rep = run_workload(wl, verify=True)
        assert rep.verified is True and rep.mismatches == 0
        assert rep.num_query_items > rep.num_queries
        assert rep.num_query_items == wl.num_query_items
        assert rep.throughput_items_s > rep.throughput_ops_s
        assert rep.query_item_p99_us >= rep.query_item_p50_us > 0
        # batch latency entries carry item counts and amortized stats
        batched = [s for op, s in rep.latency_us.items() if op.endswith("_many")]
        assert batched
        for s in batched:
            assert s["items"] > s["count"]
            assert set(s["per_item_us"]) == {"mean_us", "p50_us", "p95_us", "p99_us"}
            assert s["per_item_us"]["p50_us"] <= s["p50_us"]

    def test_batched_report_json_serializable(self):
        rep = run_workload(generate_workload(BATCH_SPEC), verify=True)
        doc = json.loads(json.dumps(rep.as_dict()))
        assert doc["num_query_items"] == rep.num_query_items
        assert doc["query_item_p50_us"] == rep.query_item_p50_us

    def test_scalar_run_has_no_batch_extras(self):
        rep = run_workload(generate_workload(SPEC))
        assert rep.num_query_items == rep.num_queries
        for s in rep.latency_us.values():
            assert s["items"] == s["count"]

    def test_alternate_algorithm_verifies(self):
        spec = WorkloadSpec(num_ops=150, seed=5,
                            graph={"family": "gnm", "n": 60, "m": 120, "seed": 5})
        rep = run_workload(generate_workload(spec), algorithm="tv-opt", verify=True)
        assert rep.verified is True and rep.mismatches == 0


@pytest.mark.slow
class TestAcceptance:
    def test_10k_ops_mixed_workload(self):
        """ISSUE acceptance: seeded 10k-op 90/10 workload at n=10k, m=n*log2(n)."""
        n = 10_000
        spec = WorkloadSpec(
            num_ops=10_000,
            seed=42,
            mix=mix_with_update_fraction(0.1),
            edge_bias=0.05,
            graph={"family": "connected-gnm", "n": n, "m": n * 13, "seed": 42},
        )
        wl = generate_workload(spec)
        assert wl.num_updates == pytest.approx(1000, rel=0.2)
        rep = run_workload(wl, machine=e4500(12))
        assert rep.num_ops == 10_000
        assert rep.query_p99_us > 0  # p99 query latency is reported
        assert rep.cache_hit_rate > 0
        assert rep.throughput_ops_s > 0
        assert rep.rebuilds >= 1
        # index maintenance avoided most rebuilds
        assert rep.rebuilds_incremental > rep.rebuilds
