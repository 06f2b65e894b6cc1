"""Tests for the maintenance-strategy registry and engine accounting."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.graph import generators as gen
from repro.service import updates as upd
from repro.service.deltalog import DeltaEntry, DeltaLog
from repro.service.engine import ServiceEngine
from repro.service.index import BCCIndex
from repro.service.maintenance import (
    MAINTENANCE_MODES,
    PATCH_OPS,
    STRATEGIES,
    MaintenancePlan,
    _runs,
    apply_plan,
    plan_maintenance,
    predict_full_cost_s,
    predict_patch_cost_s,
)
from repro.service.store import graph_fingerprint
from repro.service.updates import apply_add_edges, apply_remove_edges
from repro.smp import VECTORIZED_HOST
from tests.service.oracle import assert_same_index


def _add_entry(idx_before, g_before, pairs, version):
    """A real add DeltaEntry, classified against the pre-update index
    (``"unknown"`` when ``idx_before`` is None)."""
    from repro.service.deltalog import classify_add

    g_after, au, av = apply_add_edges(g_before, pairs)
    return g_after, DeltaEntry(
        kind="add",
        graph_after=g_after,
        fingerprint_after=graph_fingerprint(g_after),
        version=version,
        applies_to=version - 1,
        a=au,
        b=av,
        classification=("unknown" if idx_before is None
                        else classify_add(idx_before, au, av)),
    )


def _remove_entry(idx_before, g_before, pairs, version):
    from repro.service.deltalog import classify_remove

    g_after, removed = apply_remove_edges(g_before, pairs)
    return g_after, DeltaEntry(
        kind="remove",
        graph_after=g_after,
        fingerprint_after=graph_fingerprint(g_after),
        version=version,
        applies_to=version - 1,
        a=removed,
        b=np.zeros(0, np.int64),
        classification=("unknown" if idx_before is None
                        else classify_remove(idx_before, removed)),
    )


def _chain(g0, steps):
    """Build (log, final_graph, base_index) from ('add'|'remove', pairs) steps.

    Like an engine whose cache holds only the chain base: the first entry
    is classified against the base index, and every later entry is
    logged ``"unknown"`` because its pre-update index is not materialized.
    """
    idx = BCCIndex.build(g0)
    log = DeltaLog("g", graph_fingerprint(g0), 1)
    g = g0
    for i, (kind, pairs) in enumerate(steps):
        make = _add_entry if kind == "add" else _remove_entry
        g, e = make(idx if i == 0 else None, g, pairs, i + 2)
        log.append(e)
    return log, g, idx


def _stored(g):
    """Stand-in for a StoredGraph: plan_maintenance reads .graph/.fingerprint."""
    return SimpleNamespace(graph=g, fingerprint=graph_fingerprint(g))


class TestRuns:
    def test_adds_coalesce_removes_stay_single(self):
        es = [SimpleNamespace(kind=k) for k in
              ["add", "add", "remove", "remove", "add"]]
        runs = _runs(es)
        assert [(k, len(r)) for k, r in runs] == [
            ("add", 2), ("remove", 1), ("remove", 1), ("add", 1)]

    def test_order_preserved(self):
        es = [SimpleNamespace(kind=k, tag=i)
              for i, k in enumerate(["add", "remove", "add", "add"])]
        runs = _runs(es)
        assert [e.tag for _, run in runs for e in run] == [0, 1, 2, 3]


class TestPredictCosts:
    def test_patch_cost_prices_one_sweep_per_run(self):
        es = [
            SimpleNamespace(kind="add", graph_after=SimpleNamespace(m=90)),
            SimpleNamespace(kind="add", graph_after=SimpleNamespace(m=100)),
            SimpleNamespace(kind="remove", graph_after=SimpleNamespace(m=95)),
        ]
        per_op = VECTORIZED_HOST.op_cost_ns(PATCH_OPS)
        # the add run costs one sweep over its FINAL edge list (m=100)
        assert predict_patch_cost_s(es) == pytest.approx(
            (100 + 95) * per_op * 1e-9)

    def test_full_cost_positive_and_handles_unmodelled_names(self):
        assert predict_full_cost_s("tv-filter", 1000, 2000) > 0
        assert predict_full_cost_s("tv-smp", 1000, 2000) > 0
        assert predict_full_cost_s("auto", 1000, 2000) > 0


class TestPlanMaintenance:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="maintenance mode"):
            plan_maintenance("bogus", None, _stored(gen.cycle_graph(4)),
                             lambda fp: None)

    def test_mode_full_forces_rebuild(self):
        log, g, idx = _chain(gen.cycle_graph(8), [("add", [(0, 2)])])
        plan = plan_maintenance("full", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "full" and not plan.incremental
        assert "forces" in plan.reason
        assert plan.patch_edges == 1  # pending work is still reported

    def test_no_log_full(self):
        plan = plan_maintenance("auto", None, _stored(gen.cycle_graph(4)),
                                lambda fp: None)
        assert plan.strategy == "full" and "no delta chain" in plan.reason

    def test_broken_log_full(self):
        log, g, idx = _chain(gen.cycle_graph(8), [("add", [(0, 2)])])
        log.broken = True
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "full" and "overflowed" in plan.reason

    def test_chain_not_reaching_content_full(self):
        log, _, idx = _chain(gen.cycle_graph(8), [("add", [(0, 2)])])
        plan = plan_maintenance("auto", log, _stored(gen.path_graph(9)),
                                lambda fp: idx)
        assert plan.strategy == "full" and "does not reach" in plan.reason

    def test_no_base_index_full(self):
        log, g, _ = _chain(gen.cycle_graph(8), [("add", [(0, 2)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: None)
        assert plan.strategy == "full" and "no materialized index" in plan.reason

    def test_intra_block_adds_extend(self):
        log, g, idx = _chain(gen.cycle_graph(8),
                             [("add", [(0, 2)]), ("add", [(1, 5)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "incremental-extend" and plan.incremental
        assert len(plan.entries) == 2 and plan.base_index is idx
        assert plan.predicted_incremental_s is not None
        assert plan.predicted_full_s is not None

    def test_bridge_removes_shrink(self):
        log, g, idx = _chain(gen.path_graph(6),
                             [("remove", [(0, 1)]), ("remove", [(4, 5)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "incremental-shrink"

    def test_filtered_removes_shrink(self):
        # dense enough (m > 4n) for tv-filter to keep its certificate
        g0 = gen.random_connected_gnm(40, 300, seed=5)
        out = np.flatnonzero(~BCCIndex.build(g0).certificate.mask)[:4]
        pairs = [(int(g0.u[i]), int(g0.v[i])) for i in out]
        # one removal, then a chain of two: the second entry's edge ids
        # index the graph after the first, so it is logged unclassified
        for steps, classes in (
            ([("remove", pairs[:2])], ("filtered",)),
            ([("remove", pairs[:2]), ("remove", pairs[2:])],
             ("filtered", "unknown")),
        ):
            log, g, idx = _chain(g0, steps)
            assert log.classifications() == classes
            plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
            assert plan.strategy == "incremental-shrink"
            assert len(plan.entries) == len(steps)
            patched = apply_plan(plan)
            assert patched is not None
            assert_same_index(patched, BCCIndex.build(g))

    def test_mixed_chain(self):
        # pendant bridge 0-6 off a 6-cycle: an intra add then a bridge remove
        log, g, idx = _chain(
            _pendant_cycle(), [("add", [(1, 3)]), ("remove", [(0, 6)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "incremental-mixed"

    def test_cross_block_add_full(self):
        log, g, idx = _chain(gen.path_graph(4), [("add", [(0, 2)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "full"
        assert "cross-block" in plan.reason

    def test_structural_remove_full(self):
        log, g, idx = _chain(gen.cycle_graph(5), [("remove", [(0, 1)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "full" and "structural" in plan.reason

    def test_strategy_names_are_not_modes(self):
        # strategies are what auto picks, not knobs: only auto/full plan
        log, g, idx = _chain(gen.path_graph(6), [("remove", [(0, 1)])])
        for mode in ("incremental-extend", "incremental-shrink"):
            with pytest.raises(ValueError, match="unknown maintenance mode"):
                plan_maintenance(mode, log, _stored(g), lambda fp: idx)

    def test_auto_prices_deep_chain_against_rebuild(self):
        # alternating fake add/remove entries, each claiming a huge
        # post-patch edge list: the patch chain must lose to one rebuild
        g = gen.cycle_graph(10)
        fp = graph_fingerprint(g)
        log = DeltaLog("g", "base", 1)
        for i in range(6):
            kind = "add" if i % 2 == 0 else "remove"
            log.append(DeltaEntry(
                kind=kind,
                graph_after=SimpleNamespace(m=10**8),
                fingerprint_after=fp if i == 5 else f"f{i}",
                version=i + 2,
                applies_to=i + 1,
                a=np.zeros(1, np.int64),
                b=np.zeros(1, np.int64),
                classification="intra-block" if kind == "add" else "bridge",
            ))
        plan = plan_maintenance(
            "auto", log, SimpleNamespace(graph=g, fingerprint=fp),
            lambda _: BCCIndex.build(g))
        assert plan.strategy == "full" and "priced above" in plan.reason
        assert plan.predicted_incremental_s > plan.predicted_full_s

    def test_modes_constant_covers_registry(self):
        assert MAINTENANCE_MODES == ("auto", "full")
        assert "full" in STRATEGIES


def _pendant_cycle():
    """A 6-cycle with a pendant bridge 0-6 (7 vertices)."""
    g = gen.cycle_graph(6)
    return type(g)(7, np.append(g.u, 0), np.append(g.v, 6))


class TestApplyPlan:
    def test_coalesced_adds_match_fresh_build(self):
        log, g, idx = _chain(
            gen.cycle_graph(8),
            [("add", [(0, 2)]), ("add", [(1, 4)]), ("add", [(3, 6)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "incremental-extend"
        out = apply_plan(plan)
        assert out is not None
        assert out.fingerprint == graph_fingerprint(g)
        assert_same_index(out, BCCIndex.build(g))

    def test_mixed_chain_matches_fresh_build(self):
        log, g, idx = _chain(
            _pendant_cycle(), [("add", [(1, 3)]), ("remove", [(0, 6)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        assert plan.strategy == "incremental-mixed"
        out = apply_plan(plan)
        assert out is not None
        assert_same_index(out, BCCIndex.build(g))

    def test_guard_bail_returns_none(self):
        # an entry claiming an add the graph never gained trips
        # extend_index's added-set guard
        g = gen.cycle_graph(6)
        idx = BCCIndex.build(g)
        bogus = DeltaEntry(
            kind="add", graph_after=g, fingerprint_after="x", version=2,
            applies_to=1, a=np.array([0], np.int64), b=np.array([2], np.int64),
            classification="intra-block")
        plan = MaintenancePlan("incremental-extend", entries=(bogus,),
                               base_index=idx)
        assert apply_plan(plan) is None

    def test_machine_charged_per_delta(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def parallel(self, size, ops):
                self.calls.append(int(size))

        log, g, idx = _chain(gen.cycle_graph(8),
                             [("add", [(0, 2)]), ("add", [(1, 4)])])
        plan = plan_maintenance("auto", log, _stored(g), lambda fp: idx)
        rec = Recorder()
        assert apply_plan(plan, machine=rec) is not None
        # coalescing is a host-side win: the simulated machine still pays
        # one relabelling sweep per delta
        assert rec.calls == [9, 10]


class TestEngineAccounting:
    def test_sync_auto_counts_incremental(self):
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")  # materialize the base index
        eng.add_edges("g", [(0, 2)])
        eng.add_edges("g", [(1, 5)])
        assert eng.stats.delta_log_depth == 2
        assert eng.query("g", "num_components") == 1
        s = eng.stats
        assert s.rebuilds_incremental == 1 and s.rebuilds_full == 0
        assert s.delta_log_depth == 0  # drained by the install
        assert s.rebuild_wall_by_strategy.get("incremental-extend", 0) > 0

    def test_sync_full_counts_full(self):
        eng = ServiceEngine(maintenance="full")
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        eng.query("g", "num_components")
        s = eng.stats
        assert s.rebuilds_full == 1 and s.rebuilds_incremental == 0
        assert s.rebuild_wall_by_strategy.get("full", 0) > 0

    def test_initial_build_is_not_a_maintenance_event(self):
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")
        s = eng.stats
        assert s.rebuilds_incremental == 0 and s.rebuilds_full == 0

    def test_cross_block_falls_back_to_full(self):
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", gen.path_graph(5))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 4)])  # closes the path into a cycle
        assert eng.query("g", "num_components") == 1
        s = eng.stats
        assert s.rebuilds_full == 1 and s.rebuilds_incremental == 0

    def test_guard_bail_falls_back_to_full(self, monkeypatch):
        # even with a qualifying plan, a patch-path bail must degrade to
        # one full rebuild with correct answers (satellite regression for
        # the updates.py "shouldn't happen" guard)
        monkeypatch.setattr(upd, "extend_index", lambda *a, **k: None)
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", gen.cycle_graph(8))
        eng.query("g", "num_components")
        eng.add_edges("g", [(0, 2)])
        assert eng.query("g", "num_components") == 1
        assert not eng.query("g", "is_articulation", v=0)
        s = eng.stats
        assert s.rebuilds_full == 1 and s.rebuilds_incremental == 0

    def test_delta_log_for_exposes_log(self):
        eng = ServiceEngine(maintenance="auto")
        eng.put_graph("g", gen.cycle_graph(8))
        assert eng.delta_log_for("g") is None
        eng.add_edges("g", [(0, 2)])
        log = eng.delta_log_for("g")
        assert isinstance(log, DeltaLog) and len(log) == 1

    def test_rejects_unknown_maintenance(self):
        with pytest.raises(ValueError, match="maintenance"):
            ServiceEngine(maintenance="bogus")


class TestAsyncMaintenance:
    def test_background_rebuild_is_incremental(self):
        with ServiceEngine(
            rebuild_mode="async", coalesce_ms=0.0, staleness_budget_ms=None,
            maintenance="auto",
        ) as eng:
            eng.put_graph("g", gen.cycle_graph(8))
            eng.query("g", "num_components")  # installs the base snapshot
            eng.add_edges("g", [(0, 2)])
            assert eng.drain(timeout=10.0)
            s = eng.stats
            assert s.rebuilds_incremental >= 1 and s.rebuilds_full == 0
            assert eng.query("g", "num_components", freshness="fresh") == 1
            assert eng.stats.delta_log_depth == 0

    def test_background_error_is_contained(self):
        with ServiceEngine(
            rebuild_mode="async", coalesce_ms=0.0, staleness_budget_ms=None,
        ) as eng:
            eng.put_graph("g", gen.cycle_graph(8))
            eng.query("g", "num_components")

            def boom(name, job):
                raise ValueError("boom")

            eng._scheduler._runner = boom
            eng.add_edges("g", [(0, 2)])
            assert eng.drain(timeout=10.0)
            s = eng.stats
            assert s.rebuild_errors == 1
            assert s.last_rebuild_error == "ValueError: boom"
            # the failed build is contained: the stale snapshot keeps serving
            assert eng.query("g", "num_components") == 1
            assert "rebuild_errors" in s.as_dict()
            assert s.as_dict()["last_rebuild_error"] == "ValueError: boom"
