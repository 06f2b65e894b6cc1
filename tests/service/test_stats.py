"""One stats schema and one catch-up path for both rebuild modes.

Every engine counter is declared once, on :class:`EngineStats`; the
cluster's per-shard rows and the workload report derive from it.  Sync
and async engines catch up through the same function, so one update
stream must count the same catch-ups either way, and the full-build wall
must read the same measurements as the per-strategy wall.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.cluster.backend import STAT_FIELDS
from repro.graph import generators as gen
from repro.obs import CounterSink, Sink, Telemetry
from repro.service import WorkloadSpec, generate_workload, run_workload
from repro.service.driver import WorkloadReport
from repro.service.engine import EngineStats, ServiceEngine
from repro.service.index import BCCIndex
from repro.smp import Machine


class _BuildEvents(Sink):
    def __init__(self):
        self.events = []

    def on_event(self, name, path, t_ns, attrs):
        if name == "index.build":
            self.events.append(dict(attrs))


def _stream(n: int, seed: int):
    """Seeded single-edge updates: patchable and structural shapes mixed."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(24):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        ops.append(("add" if rng.random() < 0.6 else "remove", [(u, v)]))
    return ops


def _run(engine: ServiceEngine, graph, stream):
    engine.put_graph("g", graph)
    engine.query("g", "num_components")
    engine.reset_stats()
    for kind, pairs in stream:
        if kind == "add":
            engine.add_edges("g", pairs)
        else:
            engine.remove_edges("g", pairs)
        engine.drain()
        engine.query("g", "num_components")
    return engine.stats


class TestOneCatchUpPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sync_and_async_count_the_same(self, seed):
        graph = gen.random_connected_gnm(40, 60, seed=seed)
        stream = _stream(graph.n, seed)
        with ServiceEngine() as sync_eng:
            sync = _run(sync_eng, graph, stream)
        with ServiceEngine(rebuild_mode="async", staleness_budget_ms=None) as async_eng:
            bg = _run(async_eng, graph, stream)
        assert bg.forced_syncs == 0 and bg.stale_hits == 0
        assert bg.rebuild_swaps > 0  # the background path did the work
        for st in (sync, bg):
            assert st.rebuilds_full >= 1 and st.rebuilds_incremental >= 1
        assert (sync.rebuilds, sync.rebuilds_incremental, sync.rebuilds_full) == (
            bg.rebuilds, bg.rebuilds_incremental, bg.rebuilds_full
        )
        assert set(sync.rebuild_wall_by_strategy) == set(bg.rebuild_wall_by_strategy)

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_full_build_wall_reads_the_strategy_wall(self, mode):
        graph = gen.random_connected_gnm(40, 60, seed=3)
        with ServiceEngine(rebuild_mode=mode, staleness_budget_ms=None) as eng:
            st = _run(eng, graph, _stream(graph.n, 3))
        # after the first build every full build catches up a delta chain,
        # so both walls sum the very same measurements
        assert st.rebuilds == st.rebuilds_full >= 1
        assert st.rebuild_wall_s == st.rebuild_wall_by_strategy["full"]
        assert st.rebuild_wall_s > 0.0

    def test_first_build_is_a_rebuild_but_no_catch_up(self):
        eng = ServiceEngine()
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")
        st = eng.stats
        assert st.rebuilds == 1 and st.rebuild_wall_s > 0.0
        assert st.rebuilds_full == st.rebuilds_incremental == 0
        assert st.rebuild_wall_by_strategy == {}

    def test_one_build_event_per_catch_up(self):
        eng = ServiceEngine()
        builds = eng.telemetry.add_sink(_BuildEvents())
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.add_edges("g", [(1, 5)])
        eng.query("g", "num_components")
        assert [(a["strategy"], a["chain"], a["deltas"]) for a in builds.events] == [
            ("full", False, 0),
            ("incremental-extend", True, 2),
        ]
        assert all(a["seconds"] > 0.0 for a in builds.events)


class TestOneSchema:
    def test_stat_fields_are_the_int_fields(self):
        blank = EngineStats()
        ints = tuple(f.name for f in fields(EngineStats)
                     if type(getattr(blank, f.name)) is int)
        assert STAT_FIELDS == ints
        assert "incremental_extensions" not in STAT_FIELDS

    def test_as_dict_is_the_field_list(self):
        st = EngineStats(rebuilds=2, rebuild_wall_by_strategy={"full": 1.0})
        d = st.as_dict()
        assert set(d) == {f.name for f in fields(EngineStats)} | {"cache_hit_rate"}
        assert d["rebuilds"] == 2 and d["rebuild_wall_by_strategy"] == {"full": 1.0}

    def test_workload_report_carries_the_engine_fields(self):
        spec = WorkloadSpec(num_ops=60, seed=5, graph={
            "family": "connected-gnm", "n": 50, "m": 120, "seed": 5})
        with ServiceEngine() as eng:
            rep = run_workload(generate_workload(spec), engine=eng)
            engine_stats = eng.stats.as_dict()
        assert {f.name for f in fields(EngineStats)} <= {
            f.name for f in fields(WorkloadReport)}
        flat = rep.as_dict()
        for name, value in engine_stats.items():
            assert flat[name] == value, name
        assert not any(isinstance(v, EngineStats) for v in flat.values())


class TestSharedTelemetry:
    """Engines handed one telemetry (directly, or through one machine)
    count only their own events, and every event still reaches it."""

    def _pair(self, shared_by):
        if shared_by == "machine":
            machine = Machine(p=1)
            return machine.telemetry, [ServiceEngine(machine=machine) for _ in range(2)]
        tel = Telemetry()
        return tel, [
            ServiceEngine(telemetry=tel, rebuild_mode="async", staleness_budget_ms=None)
            for _ in range(2)
        ]

    @pytest.mark.parametrize("shared_by", ["machine", "telemetry"])
    def test_each_engine_counts_only_its_own_events(self, shared_by):
        tel, (a, b) = self._pair(shared_by)
        seen = tel.add_sink(CounterSink())
        builds = tel.add_sink(_BuildEvents())
        try:
            for eng in (a, b):
                eng.put_graph("g", gen.cycle_graph(8))
            a.query("g", "num_components")
            a.query("g", "same_bcc_many", pairs=[[0, 1], [2, 3]])
            a.add_edges("g", [(0, 4)])
            a.drain()
            a.query("g", "num_components", freshness="fresh")
            st_a, st_b = a.stats, b.stats
        finally:
            a.close()
            b.close()
        assert st_a.queries == 4 and st_a.updates == 1 and st_a.rebuilds == 1
        assert st_a.rebuilds_incremental == 1
        assert st_b == EngineStats()
        # the shared telemetry saw exactly engine a's events, attrs intact
        assert seen["query"] == 4 and seen["update"] == 1
        assert seen["cache.miss"] == st_a.cache_misses
        assert seen["cache.hit"] == st_a.cache_hits
        assert seen["rebuild.queued"] == st_a.rebuilds_queued
        assert [(e["strategy"], e["chain"]) for e in builds.events] == [
            ("full", False), ("incremental-extend", True)
        ]


class TestQuerySpan:
    @pytest.mark.parametrize("simulated", [False, True], ids=["spans", "machine"])
    def test_kernel_runs_inside_query_span(self, simulated, monkeypatch):
        eng = ServiceEngine(machine=Machine(p=1) if simulated else None)
        eng.put_graph("g", gen.cycle_graph(6))
        eng.query("g", "num_components")
        calls = []
        for op in ("same_bcc", "same_bcc_many"):
            kernel = getattr(BCCIndex, op)

            def spy(self, *args, _op=op, _kernel=kernel, **kwargs):
                calls.append((_op, eng.telemetry.stack))
                return _kernel(self, *args, **kwargs)

            monkeypatch.setattr(BCCIndex, op, spy)
        eng.query("g", "same_bcc", u=0, v=1)
        eng.query("g", "same_bcc_many", pairs=[[0, 1]])
        assert {op for op, _ in calls} == {"same_bcc", "same_bcc_many"}
        assert all(stack == ("Service-query",) for _, stack in calls), calls


def test_catch_up_counts_survive_thread_contention():
    # the rebuild worker and inline catch-ups report concurrently; a lost
    # read-modify-write would leave the totals short
    import sys
    import threading

    from repro.service.engine import _CatchUpSink

    sink = _CatchUpSink()
    attrs = {"strategy": "full", "chain": True, "deltas": 1, "seconds": 1.0}

    def emit():
        for _ in range(2000):
            sink.on_event("index.build", "", 0, attrs)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    st = sink.stats()
    assert st.rebuilds == st.rebuilds_full == 8000
    assert st.rebuild_wall_s == st.rebuild_wall_by_strategy["full"] == 8000.0
