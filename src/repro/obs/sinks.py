"""The pluggable sinks behind :class:`~repro.obs.spans.Telemetry`.

========================= =================================================
sink                      keeps
========================= =================================================
:class:`SimulatedCostSink` cost-model :class:`Counters` totals plus
                           per-dotted-path attribution — the historical
                           ``Machine`` region accounting, bit-identical
:class:`WallClockSink`     measured wall seconds per dotted path
                           (re-entry accumulates); optionally every
                           individual duration, for latency percentiles
:class:`CounterSink`       aggregate integer counters from events and
                           charges (cache hits, queries, barriers, …)
:class:`ChromeTraceSink`   a ``chrome://tracing`` / Perfetto-loadable
                           JSON timeline: main-track spans, per-worker
                           tracks, instant events
:class:`ForwardSink`       nothing: re-emits every event on another
                           :class:`~repro.obs.spans.Telemetry`
========================= =================================================
"""

from __future__ import annotations

import json
from typing import Mapping

from .spans import ChargeEvent, Sink, Telemetry

__all__ = [
    "SimulatedCostSink",
    "WallClockSink",
    "CounterSink",
    "ChromeTraceSink",
    "ForwardSink",
]


class SimulatedCostSink(Sink):
    """Absorbs the machine's charge semantics: totals + region attribution.

    A region entry is created the moment its span opens (even if it never
    receives a charge) and every charge's delta is added to the totals and
    to each enclosing path, outermost first — the exact update order of
    the pre-refactor ``Machine._charge``, so accumulated floating-point
    sums are bit-identical to the historical accounting.
    """

    def __init__(self):
        from ..smp.counters import Counters

        self._counters_cls = Counters
        self.totals = Counters()
        self.regions: dict = {}

    def on_span_start(self, path: str, t_ns: int, attrs: Mapping) -> None:
        if path not in self.regions:
            self.regions[path] = self._counters_cls()

    def on_charge(self, charge: ChargeEvent) -> None:
        self.totals.add(charge.delta)
        for path in charge.paths:
            self.regions[path].add(charge.delta)

    def reset(self) -> None:
        self.totals = self._counters_cls()
        self.regions = {}


class WallClockSink(Sink):
    """Measured wall-clock seconds per dotted span path.

    ``seconds`` accumulates re-entries under the same path (a parent's
    span naturally covers its children), mirroring the historical
    per-region wall measurement.  With ``record_each=True`` every
    individual span duration is also kept (``durations_ns``), which is
    what latency-percentile reporting consumes.
    """

    def __init__(self, record_each: bool = False):
        self.seconds: dict[str, float] = {}
        self.durations_ns: dict[str, list] | None = {} if record_each else None

    def on_span_end(self, path: str, t0_ns: int, t1_ns: int, attrs: Mapping) -> None:
        self.seconds[path] = self.seconds.get(path, 0.0) + (t1_ns - t0_ns) * 1e-9
        if self.durations_ns is not None:
            self.durations_ns.setdefault(path, []).append(t1_ns - t0_ns)

    def total_s(self) -> float:
        """Sum of top-level (undotted) span seconds."""
        return sum(s for p, s in self.seconds.items() if "." not in p)

    def reset(self) -> None:
        self.seconds = {}
        if self.durations_ns is not None:
            self.durations_ns = {}


class CounterSink(Sink):
    """Aggregate integer counters from instant events (and charges).

    Each event increments its own name (by ``attrs["count"]`` when
    present, else 1); an ``op`` attribute additionally increments the
    ``"<name>.<op>"`` sub-counter, which is how per-op breakdowns like
    the service engine's ``per_op`` are kept.  Cost-model charges feed
    the ``machine.*`` counters (barriers, parallel rounds, sequential
    sections), replacing bespoke tallies.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def increment(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def on_event(self, name: str, path: str, t_ns: int, attrs: Mapping) -> None:
        self.increment(name, int(attrs.get("count", 1)))
        op = attrs.get("op")
        if op is not None:
            self.increment(f"{name}.{op}", int(attrs.get("count", 1)))

    def on_charge(self, charge: ChargeEvent) -> None:
        d = charge.delta
        if d.barriers:
            self.increment("machine.barriers", d.barriers)
        if d.parallel_rounds:
            self.increment("machine.parallel_rounds", d.parallel_rounds)
        if d.seq_sections:
            self.increment("machine.seq_sections", d.seq_sections)

    def prefixed(self, prefix: str) -> dict:
        """All ``prefix.<suffix>`` counters, keyed by suffix."""
        cut = len(prefix) + 1
        return {
            k[cut:]: v for k, v in self.counts.items() if k.startswith(prefix + ".")
        }

    def reset(self) -> None:
        self.counts = {}


class ForwardSink(Sink):
    """Re-emits each event, same name and attrs, on another telemetry.

    A component that keeps its own counters (a service engine, a shard
    router) counts on a private :class:`~repro.obs.spans.Telemetry` whose
    last sink is a ``ForwardSink`` to the telemetry it reports to, so
    components sharing one telemetry never count each other's events.
    """

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry

    def on_event(self, name: str, path: str, t_ns: int, attrs: Mapping) -> None:
        self.telemetry.event(name, **attrs)


class ChromeTraceSink(Sink):
    """Record a ``chrome://tracing`` / Perfetto-loadable JSON timeline.

    Spans become complete ("X") events on the main track (tid 0); worker
    spans land on per-worker tracks (tid = rank + 1, named
    ``worker-<rank>``); instant events become "i" marks.  Timestamps are
    microseconds relative to the first observation, strictly derived
    from monotonic ``perf_counter_ns`` values, and the exported event
    list is sorted by timestamp.

    Load the output of :meth:`write` in ``chrome://tracing`` or
    https://ui.perfetto.dev for a zoomable per-worker timeline.
    """

    PID = 1
    MAIN_TID = 0

    def __init__(self):
        self.events: list[dict] = []
        self._t0: int | None = None
        self._worker_tids: dict[int, int] = {}

    def _ts_us(self, t_ns: int) -> float:
        if self._t0 is None:
            self._t0 = t_ns
        return (t_ns - self._t0) / 1000.0

    def on_span_start(self, path: str, t_ns: int, attrs: Mapping) -> None:
        self._ts_us(t_ns)  # pin t0 to the first span start, not its end

    def on_span_end(self, path: str, t0_ns: int, t1_ns: int, attrs: Mapping) -> None:
        ts = self._ts_us(t0_ns)
        ev = {
            "name": path.rsplit(".", 1)[-1],
            "cat": "span",
            "ph": "X",
            "ts": ts,
            "dur": (t1_ns - t0_ns) / 1000.0,
            "pid": self.PID,
            "tid": self.MAIN_TID,
            "args": {"path": path, **attrs},
        }
        self.events.append(ev)

    def on_event(self, name: str, path: str, t_ns: int, attrs: Mapping) -> None:
        self.events.append({
            "name": name,
            "cat": "event",
            "ph": "i",
            "s": "t",
            "ts": self._ts_us(t_ns),
            "pid": self.PID,
            "tid": self.MAIN_TID,
            "args": {"path": path, **attrs},
        })

    def on_worker_span(
        self, worker: int, name: str, path: str, t0_ns: int, t1_ns: int
    ) -> None:
        tid = self._worker_tids.setdefault(int(worker), int(worker) + 1)
        self.events.append({
            "name": name,
            "cat": "worker",
            "ph": "X",
            "ts": self._ts_us(t0_ns),
            "dur": (t1_ns - t0_ns) / 1000.0,
            "pid": self.PID,
            "tid": tid,
            "args": {"path": path, "worker": int(worker)},
        })

    def worker_tracks(self) -> tuple:
        """Worker ranks that contributed at least one span, sorted."""
        return tuple(sorted(self._worker_tids))

    def to_dict(self) -> dict:
        """The Chrome trace document (sorted events + track metadata)."""
        meta = [{
            "name": "thread_name",
            "ph": "M",
            "pid": self.PID,
            "tid": self.MAIN_TID,
            "args": {"name": "main"},
        }]
        for worker, tid in sorted(self._worker_tids.items()):
            meta.append({
                "name": "thread_name",
                "ph": "M",
                "pid": self.PID,
                "tid": tid,
                "args": {"name": f"worker-{worker}"},
            })
        events = sorted(self.events, key=lambda e: e["ts"])
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        """Write the timeline as Chrome-trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)

    def reset(self) -> None:
        self.events = []
        self._t0 = None
        self._worker_tids = {}
