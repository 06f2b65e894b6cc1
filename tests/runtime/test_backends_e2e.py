"""End-to-end: the full BCC pipeline on every execution backend.

The acceptance bar for the runtime refactor: ``tv-filter`` (and friends)
produce labels identical to sequential Tarjan on every backend, the
simulated cost figures do not depend on the backend that executed the
run, and real backends report measured wall-clock per region.
"""

import numpy as np
import pytest

import repro
from repro.graph import Graph, generators as gen
from repro.runtime import make_team
from tests.strategies import driver_graphs

ALL_BACKENDS = ["simulated", "serial", "processes"]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("algorithm", ["tv-smp", "tv-opt", "tv-filter"])
def test_labels_match_sequential_tarjan(backend, algorithm):
    for name, g in driver_graphs():
        ref = repro.biconnected_components(g, algorithm="sequential")
        res = repro.biconnected_components(g, algorithm=algorithm, backend=backend, p=3)
        assert res.same_partition(ref), f"{algorithm}/{backend} differs on {name}"
        assert res.backend == backend


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_simulated_time_is_backend_independent(backend):
    g = gen.random_connected_gnm(500, 1500, seed=4)
    base = repro.biconnected_components(g, "tv-filter", repro.e4500(p=4))
    res = repro.biconnected_components(
        g, "tv-filter", repro.e4500(p=4), backend=backend, p=2
    )
    assert res.report.time_s == base.report.time_s
    assert res.report.totals.as_dict() == base.report.totals.as_dict()


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_real_backends_record_wall_clock(backend):
    g = gen.random_connected_gnm(300, 900, seed=2)
    res = repro.biconnected_components(g, "tv-filter", backend=backend, p=2)
    assert res.report is not None
    wall = res.report.region_wall_s()
    assert wall, "real backend must record per-region wall-clock"
    assert all(t >= 0 for t in wall.values())
    assert res.report.wall_time_s > 0
    assert "wall" in res.report.as_dict()


def test_caller_supplied_team_is_not_closed():
    g = gen.random_connected_gnm(200, 600, seed=6)
    with make_team("processes", 2) as team:
        r1 = repro.biconnected_components(g, "tv-opt", team=team)
        r2 = repro.biconnected_components(g, "tv-filter", team=team)
        assert r1.backend == "processes" and r2.backend == "processes"
        ref = repro.biconnected_components(g, algorithm="sequential")
        assert r1.same_partition(ref) and r2.same_partition(ref)


def test_edge_cases_on_process_backend():
    ref_empty = repro.biconnected_components(Graph(0, [], []), backend="processes", p=2)
    assert ref_empty.num_components == 0
    one = repro.biconnected_components(Graph(2, [0], [1]), backend="processes", p=2)
    assert one.num_components == 1


def test_unknown_backend_rejected():
    g = gen.path_graph(5)
    with pytest.raises(ValueError, match="backend"):
        repro.biconnected_components(g, backend="quantum")


def test_removed_threads_backend_rejected():
    g = gen.path_graph(5)
    with pytest.raises(ValueError, match="unknown backend"):
        repro.biconnected_components(g, backend="threads")
    with pytest.raises(ValueError, match="unknown backend"):
        make_team("threads", 2)


def test_sequential_rejects_backend():
    g = gen.path_graph(5)
    with pytest.raises(TypeError):
        repro.biconnected_components(g, algorithm="sequential", backend="serial")


def test_fallback_path_keeps_backend():
    # tv-filter falls back to tv-opt on dense graphs; the backend must
    # survive the re-dispatch
    g = gen.complete_graph(40)
    res = repro.biconnected_components(g, "tv-filter", backend="serial", p=2)
    ref = repro.biconnected_components(g, algorithm="sequential")
    assert res.same_partition(ref)
    assert res.backend == "serial"


@pytest.mark.parametrize("n,m,seed", [(800, 2400, 0), (600, 900, 1)])
def test_process_backend_p4_matches_tarjan(n, m, seed):
    # the ISSUE acceptance invocation: processes, p=4, vs sequential
    g = gen.random_connected_gnm(n, m, seed=seed)
    ref = repro.biconnected_components(g, algorithm="sequential")
    res = repro.biconnected_components(g, "tv-filter", backend="processes", p=4)
    assert res.same_partition(ref)
