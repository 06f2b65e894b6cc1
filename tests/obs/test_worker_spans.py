"""Per-worker span attribution across the execution backends.

The acceptance bar from the telemetry refactor: running with a real
backend at p >= 2 must yield spans attributed to at least two
distinct worker ranks, nested under whatever pipeline span was open at
dispatch time.
"""

import numpy as np
import pytest

from repro.obs import ChromeTraceSink, Sink, Telemetry
from repro.runtime import make_team

BACKENDS = ["serial", "processes"]


def _double(rank, lo, hi, arr):
    arr[lo:hi] *= 2


class _WorkerRecorder(Sink):
    def __init__(self):
        self.spans = []

    def on_worker_span(self, worker, name, path, t0_ns, t1_ns):
        self.spans.append((worker, name, path, t0_ns, t1_ns))


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_spans_emitted_per_rank(backend):
    p = 2
    tel = Telemetry()
    rec = tel.add_sink(_WorkerRecorder())
    with make_team(backend, p) as team:
        team.telemetry = tel
        arr = team.share(np.ones(64, dtype=np.int64))
        with tel.span("stage"):
            team.parallel_for(64, _double, arr)
        assert np.all(np.asarray(arr) == 2)
    ranks = {s[0] for s in rec.spans}
    assert ranks == set(range(p)), f"expected spans from every rank, got {ranks}"
    for worker, name, path, t0, t1 in rec.spans:
        assert name == "_double"
        assert path == "stage._double"
        assert t1 >= t0


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_spans_land_on_distinct_trace_tracks(backend):
    trace = ChromeTraceSink()
    tel = Telemetry(sinks=[trace])
    with make_team(backend, 2) as team:
        team.telemetry = tel
        arr = team.share(np.zeros(64, dtype=np.int64))
        with tel.span("stage"):
            team.parallel_for(64, _double, arr)
    assert trace.worker_tracks() == (0, 1)
    worker_events = [e for e in trace.to_dict()["traceEvents"] if e.get("cat") == "worker"]
    assert {e["tid"] for e in worker_events} == {1, 2}


def test_no_spans_without_telemetry():
    rec = _WorkerRecorder()
    with make_team("serial", 2) as team:
        assert team.telemetry is None
        arr = team.share(np.ones(32, dtype=np.int64))
        team.parallel_for(32, _double, arr)
    assert rec.spans == []


def test_empty_rank_emits_no_span():
    # with n=1 and p=2, rank 1 has an empty block and must stay silent
    tel = Telemetry()
    rec = tel.add_sink(_WorkerRecorder())
    with make_team("serial", 2) as team:
        team.telemetry = tel
        arr = team.share(np.ones(1, dtype=np.int64))
        team.parallel_for(1, _double, arr)
    assert {s[0] for s in rec.spans} == {0}
