"""Tests for the adaptive ``algorithm="auto"`` selector (repro.core.select)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro import biconnected_components, describe_algorithm
from repro.core import select, tarjan_bcc
from repro.graph import generators as gen
from repro.service import BCCIndex, ServiceEngine
from repro.smp import SUN_E4500, VECTORIZED_HOST

CASES = [
    (1_000, 2_000, 1),
    (1_000, 2_000, 12),
    (50_000, 100_000, 1),
    (50_000, 500_000, 12),
    (200_000, 2_000_000, 12),
    (10, 45, 1),
]


class TestDeterminism:
    def test_repeated_calls_identical(self):
        for n, m, p in CASES:
            for objective in select.OBJECTIVES:
                first = select.choose_algorithm(n, m, p, objective=objective)
                assert all(
                    select.choose_algorithm(n, m, p, objective=objective) == first
                    for _ in range(5)
                )

    def test_cross_process_identical(self):
        # the selector is pure arithmetic: a fresh interpreter (different
        # hash seed, import order, everything) must pick the same names
        code = (
            "import json, sys\n"
            "from repro.core import select\n"
            "cases = json.loads(sys.argv[1])\n"
            "out = [[select.choose_algorithm(n, m, p, objective=o)\n"
            "        for o in select.OBJECTIVES] for n, m, p in cases]\n"
            "print(json.dumps(out))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(CASES)],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        )
        remote = json.loads(proc.stdout)
        local = [
            [select.choose_algorithm(n, m, p, objective=o)
             for o in select.OBJECTIVES]
            for n, m, p in CASES
        ]
        assert remote == local

    def test_choice_always_a_candidate(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 10**6))
            m = int(rng.integers(0, 10**7))
            p = int(rng.integers(1, 16))
            assert select.choose_algorithm(n, m, p) in select.AUTO_CANDIDATES

    def test_degenerate_graphs_short_circuit(self):
        assert select.choose_algorithm(0, 0) == select.AUTO_CANDIDATES[0]
        assert select.choose_algorithm(1, 0) == select.AUTO_CANDIDATES[0]
        assert select.choose_algorithm(100, 0) == select.AUTO_CANDIDATES[0]


class TestExplain:
    def test_explain_snapshot(self):
        # pinned output shape: header, one row per candidate, fallback note
        text = select.explain(1_000, 2_000, 4)
        lines = text.splitlines()
        assert lines[0] == "auto: n=1000 m=2000 m/n=2.00 p=4 objective=wall"
        assert "candidate" in lines[1] and "wall-pred" in lines[1]
        assert len([ln for ln in lines if "<- chosen" in ln]) == 1
        for name in select.AUTO_CANDIDATES:
            assert any(ln.strip().startswith(name) for ln in lines[2:]), name
        assert "tv-filter priced as its tv-opt fallback" in lines[-1]

    def test_explain_deterministic(self):
        assert select.explain(50_000, 500_000, 12) == select.explain(
            50_000, 500_000, 12)

    def test_explain_marks_the_chosen_candidate(self):
        for n, m, p in CASES:
            chosen = select.choose_algorithm(n, m, p)
            marked = [
                ln.split()[0]
                for ln in select.explain(n, m, p).splitlines()
                if "<- chosen" in ln
            ]
            assert marked == [chosen]

    def test_describe_algorithm_auto_is_policy(self):
        text = describe_algorithm("auto")
        for name in select.AUTO_CANDIDATES:
            assert name in text


class TestPredictCost:
    def test_positive_and_monotone_in_m(self):
        a = select.predict_cost_s("tv-opt", 10_000, 20_000)
        b = select.predict_cost_s("tv-opt", 10_000, 200_000)
        assert 0 < a < b

    def test_parallelism_helps(self):
        seq = select.predict_cost_s("fastbcc", 100_000, 500_000, 1)
        par = select.predict_cost_s("fastbcc", 100_000, 500_000, 12)
        assert par < seq

    def test_filter_fallback_pricing(self):
        # below the m <= 4n line tv-filter is priced exactly as tv-opt
        n, m = 10_000, 20_000
        assert select.predict_cost_s("tv-filter", n, m) == select.predict_cost_s(
            "tv-opt", n, m)
        dense_m = 10 * n
        assert select.predict_cost_s("tv-filter", n, dense_m) != pytest.approx(
            select.predict_cost_s("tv-opt", n, dense_m))

    def test_objectives_use_their_tables(self):
        n, m = 50_000, 500_000
        wall = select.predict_cost_s("tv-opt", n, m, objective="wall")
        sim = select.predict_cost_s("tv-opt", n, m, objective="simulated")
        assert wall != sim
        assert select.predict_cost_s(
            "tv-opt", n, m, costs=VECTORIZED_HOST) == wall
        assert select.predict_cost_s("tv-opt", n, m, costs=SUN_E4500) == sim

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="no cost model"):
            select.predict_cost_s("tv-turbo", 100, 200)

    def test_unknown_objective_raises(self):
        with pytest.raises(ValueError, match="unknown objective"):
            select.choose_algorithm(100, 200, objective="latency")

    def test_simulated_objective_reproduces_paper_crossover(self):
        # paper §4: on the simulated machine tv-filter pays off only in
        # the dense regime beyond the m = 4n fallback line
        sparse = select.choose_algorithm(100_000, 200_000, 12, objective="simulated")
        dense = select.choose_algorithm(100_000, 1_000_000, 12, objective="simulated")
        assert sparse != "tv-filter"
        assert dense == "tv-filter"


class TestForcedOverride:
    """Explicit algorithm names must win everywhere auto is accepted."""

    def test_api_override(self):
        g = gen.random_connected_gnm(200, 900, seed=3)
        auto = biconnected_components(g, algorithm="auto")
        assert auto.algorithm == select.choose_algorithm(g.n, g.m, 1)
        for name in ("tv-smp", "tv-opt", "tv-filter", "fastbcc"):
            res = biconnected_components(g, algorithm=name)
            assert res.algorithm == name
            assert res.same_partition(tarjan_bcc(g))

    def test_auto_objective_knob(self):
        # dense regime: the two objectives genuinely disagree, and the
        # knob routes to each objective's winner
        g = gen.random_connected_gnm(500, 5_000, seed=4)
        wall = biconnected_components(g, algorithm="auto")
        sim = biconnected_components(g, algorithm="auto", objective="simulated")
        assert wall.algorithm == select.choose_algorithm(g.n, g.m, 1)
        assert sim.algorithm == select.choose_algorithm(
            g.n, g.m, 1, objective="simulated")
        assert wall.same_partition(sim)

    def test_index_build_auto_and_override(self):
        g = gen.random_connected_gnm(150, 600, seed=5)
        idx = BCCIndex.build(g, algorithm="auto")
        assert idx.result.algorithm == select.choose_algorithm(g.n, g.m, 1)
        forced = BCCIndex.build(g, algorithm="fastbcc")
        assert forced.result.algorithm == "fastbcc"
        assert forced.result.same_partition(idx.result)

    def test_service_engine_auto_and_override(self):
        g = gen.random_connected_gnm(120, 500, seed=6)
        auto_eng = ServiceEngine(algorithm="auto")
        auto_eng.store.put("g", g)
        forced_eng = ServiceEngine(algorithm="fastbcc")
        forced_eng.store.put("g", g)
        a = auto_eng.index_for("g")
        f = forced_eng.index_for("g")
        assert a.result.algorithm == select.choose_algorithm(g.n, g.m, 1)
        assert f.result.algorithm == "fastbcc"
        assert a.result.same_partition(f.result)
