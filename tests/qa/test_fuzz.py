"""The fuzz driver end to end: clean runs, planted mutants, artifacts.

The planted-mutant test is the ISSUE's acceptance case: condition 1 of
the filter stage is skipped on a scratch copy (monkeypatched
``_finish_labels``) and the harness must catch it and shrink the repro
to at most 20 edges.
"""

import json

import numpy as np
import pytest

from repro.api import biconnected_components
from repro.core import strategies as core_strategies
from repro.graph import generators as gen
from repro.qa import FuzzConfig, differential_check, minimize_graph, run_fuzz


def _mutant_finish_labels(ctx, labels, ccl):
    """The planted bug: condition-1 back-labelling skipped; filtered
    edges are dumped into an arbitrary block instead of the deeper
    endpoint's tree-edge component."""
    outside = np.flatnonzero(~ctx.consider)
    labels[outside] = 0
    ctx.labels = labels
    ctx.ccl = ccl


def _mutant_runner(g, algorithm):
    # fallback_ratio=None keeps tv-filter on its filtering path even on
    # sparse graphs (the default falls back to tv-opt for m <= 4n, which
    # never executes the mutated code)
    return biconnected_components(g, algorithm=algorithm, fallback_ratio=None)


class TestCleanFuzz:
    def test_short_run_no_divergences(self, tmp_path):
        config = FuzzConfig(
            seconds=30,
            seed=2026,
            max_iterations=8,
            out_dir=str(tmp_path),
        )
        report = run_fuzz(config)
        assert report.ok, [d.describe() for d in report.divergences]
        assert report.iterations == 8
        assert report.checks > 8
        assert report.artifacts == []
        assert not list(tmp_path.iterdir()), "no artifacts on a clean run"

    def test_report_summary_format(self, tmp_path):
        config = FuzzConfig(seconds=5, seed=1, max_iterations=2,
                            out_dir=str(tmp_path))
        report = run_fuzz(config)
        assert "OK" in report.summary()
        assert "seed=1" in report.summary()

    def test_iteration_stream_is_seeded(self, tmp_path):
        config = dict(seconds=5, algorithms=("tv-opt",),
                      max_iterations=3, out_dir=str(tmp_path))
        r1 = run_fuzz(FuzzConfig(seed=5, **config))
        r2 = run_fuzz(FuzzConfig(seed=5, **config))
        assert r1.checks == r2.checks and r1.ok and r2.ok


class TestPlantedMutant:
    def test_mutant_caught_and_minimized(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core_strategies, "_finish_labels",
                            _mutant_finish_labels)
        config = FuzzConfig(
            seconds=60,
            seed=0,
            algorithms=("tv-filter",),
            max_iterations=40,
            max_failures=1,
            minimize_budget=600,
            out_dir=str(tmp_path),
        )
        report = run_fuzz(config, runner=_mutant_runner)
        assert not report.ok, "planted mutant must be caught"
        assert report.artifacts, "failure must produce a repro artifact"

        doc = json.loads(open(report.artifacts[0]).read())
        assert doc["check"] == "differential"
        assert doc["algorithm"] == "tv-filter"
        assert doc["minimized"] is not None
        assert doc["minimized"]["m"] <= 20, (
            f"repro must shrink to <= 20 edges, got {doc['minimized']['m']}"
        )
        assert "repro" in doc and "--seed 0" in doc["repro"]

        # the minimized graph must still trip the oracle
        from repro.graph import Graph

        edges = doc["minimized"]["edges"]
        h = Graph(doc["minimized"]["n"], [e[0] for e in edges],
                  [e[1] for e in edges])
        assert differential_check(h, "tv-filter", runner=_mutant_runner) is not None

    def test_mutant_invisible_with_default_fallback(self, monkeypatch):
        # sanity: with the default fallback ratio, sparse graphs take the
        # tv-opt path and never execute the mutated filter code — the
        # fuzzer must disable the fallback to cover it (as _mutant_runner
        # does); K4+pendant is sparse (m <= 4n) so it falls back cleanly
        monkeypatch.setattr(core_strategies, "_finish_labels",
                            _mutant_finish_labels)
        g = gen.complete_graph(4)
        assert differential_check(g, "tv-filter") is None

    def test_direct_minimization_bound(self, monkeypatch):
        monkeypatch.setattr(core_strategies, "_finish_labels",
                            _mutant_finish_labels)
        g = gen.random_connected_gnm(30, 70, seed=0)
        d = differential_check(g, "tv-filter", runner=_mutant_runner)
        assert d is not None

        def still_fails(h):
            return differential_check(h, "tv-filter",
                                      runner=_mutant_runner) is not None

        small = minimize_graph(g, still_fails, max_checks=600)
        assert small.m <= 20
        assert still_fails(small)


class TestCrashFinding:
    def test_crashing_algorithm_is_caught(self, tmp_path):
        def crashing_runner(g, algorithm):
            if g.m >= 3:
                raise RuntimeError("planted crash")
            return biconnected_components(g, algorithm=algorithm)

        config = FuzzConfig(
            seconds=10, seed=1, algorithms=("tv-filter",),
            max_iterations=5, max_failures=1,
            minimize_budget=100, service_every=0, out_dir=str(tmp_path),
        )
        report = run_fuzz(config, runner=crashing_runner)
        assert not report.ok
        doc = json.loads(open(report.artifacts[0]).read())
        assert "crashed" in doc["message"]
        # crash minimizes to the smallest graph that still crashes: 3 edges
        assert doc["minimized"]["m"] == 3
