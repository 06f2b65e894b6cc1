"""Fault injection against real backends: raise, kill, recover, no leaks.

These tests drive :class:`repro.qa.faults.FaultyTeam` against the serial
and process teams and assert the hardened failure contract:

* every failing rank's exception survives aggregation (``ExceptionGroup``),
* a killed worker process is detected, reported with its exit code, and
  respawned,
* shared-memory segments never leak — not even across a mid-kernel death,
* the team stays usable after any of the above.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.api import biconnected_components
from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.qa.faults import KILL_EXIT_CODE, FaultInjected, FaultPlan, FaultyTeam
from repro.runtime.process import ProcessTeam
from repro.runtime.team import SerialTeam


def _noop(rank, lo, hi):
    pass


def _fill_rank(rank, lo, hi, out):
    out[lo:hi] = rank


def _die(rank, lo, hi):
    os._exit(KILL_EXIT_CODE)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan(mode="segfault")
        with pytest.raises(ValueError, match="probability"):
            FaultPlan(probability=1.5)

    def test_deterministic_schedule(self):
        plan = FaultPlan(probability=0.4, seed=11)
        a = [plan.fires(c, r) for c in range(20) for r in range(4)]
        b = [plan.fires(c, r) for c in range(20) for r in range(4)]
        assert a == b
        assert any(a) and not all(a)

    def test_ranks_filter(self):
        plan = FaultPlan(probability=1.0, ranks=(1,))
        assert plan.fires(0, 1)
        assert not plan.fires(0, 0)
        assert not plan.fires(5, 2)

    def test_after_call_delays_faults(self):
        plan = FaultPlan(probability=1.0, after_call=3)
        assert not plan.fires(2, 0)
        assert plan.fires(3, 0)


class TestRaiseMode:
    def test_serial_single_rank_raises_plain(self):
        with SerialTeam(1) as inner:
            team = FaultyTeam(inner, FaultPlan(probability=1.0))
            with pytest.raises(FaultInjected):
                team.parallel_for(4, _noop)

    @pytest.mark.parametrize("make", [lambda: SerialTeam(2), lambda: SerialTeam(4)])
    def test_all_ranks_aggregate_into_group(self, make):
        with make() as inner:
            team = FaultyTeam(inner, FaultPlan(probability=1.0))
            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(8, _noop)
            excs = excinfo.value.exceptions
            assert len(excs) == inner.p
            assert all(isinstance(e, FaultInjected) for e in excs)

    def test_team_reusable_after_raise(self):
        with SerialTeam(2) as inner:
            team = FaultyTeam(inner, FaultPlan(probability=1.0, after_call=1))
            out = np.full(8, -1, dtype=np.int64)
            team.parallel_for(8, _fill_rank, out)  # call 0: no fault yet
            with pytest.raises(ExceptionGroup):
                team.parallel_for(8, _noop)  # call 1: both ranks fail
            # the inner team must still work after the failure
            out2 = np.full(8, -1, dtype=np.int64)
            inner.parallel_for(8, _fill_rank, out2)
            np.testing.assert_array_equal(out2, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_kill_mode_in_process_backend_raises_instead(self):
        # the safety net: "kill" must never _exit the test process itself
        with SerialTeam(1) as inner:
            team = FaultyTeam(inner, FaultPlan(mode="kill"))
            with pytest.raises(FaultInjected, match="in-process backend"):
                team.parallel_for(4, _noop)

    def test_processes_raise_mode_ships_exceptions(self):
        with ProcessTeam(2) as inner:
            team = FaultyTeam(inner, FaultPlan(probability=1.0))
            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(8, _noop)
            assert len(excinfo.value.exceptions) == 2
            assert all(
                isinstance(e, FaultInjected) for e in excinfo.value.exceptions
            )
            # workers survived (they raised, not died) and keep working
            out = inner.zeros(8, np.int64)
            inner.parallel_for(8, _fill_rank, out)
            np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1])
            inner.release(out)


class TestKillMode:
    def test_killed_worker_detected_with_exit_code(self):
        with ProcessTeam(2) as inner:
            team = FaultyTeam(inner, FaultPlan(mode="kill", ranks=(1,)))
            with pytest.raises(RuntimeError, match="died unexpectedly") as excinfo:
                team.parallel_for(8, _noop)
            assert f"exit code {KILL_EXIT_CODE}" in str(excinfo.value)

    def test_dead_worker_respawned_and_team_reusable(self):
        with ProcessTeam(2) as inner:
            team = FaultyTeam(inner, FaultPlan(mode="kill", ranks=(1,), after_call=0))
            old_pid = inner._procs[1].pid
            with pytest.raises(RuntimeError, match="died unexpectedly"):
                team.parallel_for(8, _noop)
            assert inner._procs[1].pid != old_pid
            assert inner._procs[1].is_alive()
            out = inner.zeros(8, np.int64)
            inner.parallel_for(8, _fill_rank, out)
            np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1])
            inner.release(out)

    def test_killed_dispatched_worker_raises_and_is_respawned(self):
        with ProcessTeam(2) as team:
            pids = [proc.pid for proc in team._procs]
            out = team.full(2, -1, np.int64)
            with pytest.raises(RuntimeError, match="worker 1 .*died unexpectedly"):
                team.dispatch(2, _die, {1: ()})
            assert team._procs[0].pid == pids[0]  # never woken
            assert team._procs[1].pid != pids[1]
            team.dispatch(2, _fill_rank, {1: (out,)})
            np.testing.assert_array_equal(out, [-1, 1])

    def test_multi_kill_aggregates_every_death(self):
        with ProcessTeam(2) as inner:
            team = FaultyTeam(inner, FaultPlan(mode="kill"))
            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(8, _noop)
            excs = excinfo.value.exceptions
            assert len(excs) == 2
            assert all("died unexpectedly" in str(e) for e in excs)
            inner.parallel_for(8, _noop)  # both respawned


class TestPipelineUnderFaults:
    def test_pipeline_fails_loudly_then_recovers(self):
        g = gen.random_connected_gnm(40, 100, seed=3)
        ref = tarjan_bcc(g)
        with ProcessTeam(2, grain=0) as inner:
            faulty = FaultyTeam(inner, FaultPlan(mode="kill", ranks=(0,), after_call=2))
            with pytest.raises((RuntimeError, ExceptionGroup)):
                biconnected_components(g, algorithm="tv-smp", team=faulty)
            # the same inner team then computes a correct answer
            res = biconnected_components(g, algorithm="tv-smp", team=inner)
            assert res.same_partition(ref)

    def test_no_segments_leaked_after_faulty_pipeline(self):
        g = gen.random_connected_gnm(30, 80, seed=5)
        with ProcessTeam(2, grain=0) as inner:
            faulty = FaultyTeam(inner, FaultPlan(mode="kill", ranks=(1,), after_call=1))
            with pytest.raises((RuntimeError, ExceptionGroup)):
                biconnected_components(g, algorithm="tv-opt", team=faulty)
            biconnected_components(g, algorithm="tv-opt", team=inner)
        assert inner._segments == {}
        assert inner._by_id == {}


LEAK_SCRIPT = textwrap.dedent(
    """
    import numpy as np
    from repro.api import biconnected_components
    from repro.graph import generators as gen
    from repro.qa.faults import FaultPlan, FaultyTeam
    from repro.runtime.process import ProcessTeam

    g = gen.random_connected_gnm(40, 110, seed=9)
    team = ProcessTeam(2, grain=0)
    faulty = FaultyTeam(team, FaultPlan(mode="kill", ranks=(0,), after_call=2))
    try:
        biconnected_components(g, algorithm="tv-smp", team=faulty)
    except BaseException:
        pass
    res = biconnected_components(g, algorithm="tv-smp", team=team)
    team.close()
    assert team._segments == {}, team._segments
    print("CLEAN-EXIT", res.num_components)
    """
)


class TestShmLeakRegression:
    def test_no_resource_tracker_warnings_after_worker_death(self):
        # run in a subprocess so the resource tracker's at-exit sweep runs:
        # any segment leaked past close() surfaces as a KeyError/"leaked
        # shared_memory" warning on stderr
        proc = subprocess.run(
            [sys.executable, "-c", LEAK_SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN-EXIT" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
