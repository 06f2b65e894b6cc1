"""Differential oracle: agreement on good code, detection of bad runners."""

import numpy as np

from repro.api import biconnected_components
from repro.core.result import BCCResult
from repro.graph import generators as gen
from repro.qa.oracle import (
    Divergence,
    check_graph,
    differential_check,
    service_replay_check,
)
from tests.strategies import graph_corpus

ALGOS = ("tv-smp", "tv-opt", "tv-filter")


class TestDifferential:
    def test_clean_on_corpus_simulated(self):
        for name, g in graph_corpus():
            for algorithm in ALGOS:
                assert differential_check(g, algorithm) is None, (name, algorithm)

    def test_check_graph_sweeps_configs(self):
        g = gen.cliques_on_a_path(3, 4)[0]
        ran = []

        def recording_runner(h, algorithm):
            ran.append(algorithm)
            return biconnected_components(h, algorithm=algorithm)

        assert check_graph(g, ALGOS, runner=recording_runner) == []
        assert ran == list(ALGOS)

    def test_wrong_labels_detected(self):
        g = gen.cliques_on_a_path(3, 4)[0]  # 3 blocks

        def bad_runner(h, algorithm):
            return BCCResult(h, np.zeros(h.m, dtype=np.int64), algorithm)

        d = differential_check(g, "tv-filter", runner=bad_runner)
        assert isinstance(d, Divergence)
        assert d.check == "differential"
        assert d.graph is g
        assert "diverge" in d.message

    def test_crash_reported_not_raised(self):
        def crashing_runner(h, algorithm):
            raise RuntimeError("kernel exploded")

        d = differential_check(gen.cycle_graph(4), "tv-opt", runner=crashing_runner)
        assert d is not None
        assert "crashed" in d.message and "kernel exploded" in d.message
        assert "traceback" in d.extra

    def test_reference_reuse_matches_fresh(self):
        from repro.qa.oracle import reference_labels

        g = gen.random_gnm(30, 50, seed=2)
        ref = reference_labels(g)
        assert differential_check(g, "tv-smp", reference=ref) is None

    def test_describe_mentions_config(self):
        d = Divergence("differential", "boom", algorithm="tv-opt",
                       graph=gen.cycle_graph(3))
        assert d.describe() == "[differential] tv-opt on n=3 m=3: boom"


class TestServiceReplay:
    def test_clean_replay(self):
        g = gen.random_connected_gnm(50, 130, seed=6)
        assert service_replay_check(g, num_ops=40, seed=3) is None

    def test_tiny_graphs_skipped(self):
        from repro.graph import Graph

        assert service_replay_check(Graph(1, [], [])) is None
        assert service_replay_check(Graph(0, [], [])) is None

    def test_crash_reported_not_raised(self, monkeypatch):
        import repro.qa.oracle as oracle_mod

        g = gen.random_connected_gnm(20, 40, seed=0)

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr("repro.service.driver.run_workload", boom)
        d = oracle_mod.service_replay_check(g, num_ops=10, seed=0)
        assert d is not None and d.check == "service"
        assert "crashed" in d.message


class TestDefaultRunner:
    def test_matches_api(self):
        from repro.qa.oracle import default_runner

        g = gen.random_connected_gnm(40, 100, seed=1)
        res = default_runner(g, "tv-filter")
        ref = biconnected_components(g, algorithm="tv-filter")
        assert res.same_partition(ref)
