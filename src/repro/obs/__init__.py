"""Unified telemetry: hierarchical spans + pluggable sinks.

One measurement path for every subsystem — the simulated machine model,
the execution runtime, the query service, and the bench harness all emit
spans, events, and charges through :class:`Telemetry`; sinks decide what
to keep (simulated cost attribution, wall clock, counters, or a
Chrome-trace timeline).  See :mod:`repro.obs.spans` for the model.
"""

from .sinks import (
    ChromeTraceSink,
    CounterSink,
    ForwardSink,
    SimulatedCostSink,
    WallClockSink,
)
from .spans import ChargeEvent, Sink, Telemetry

__all__ = [
    "ChargeEvent",
    "ChromeTraceSink",
    "CounterSink",
    "ForwardSink",
    "Sink",
    "SimulatedCostSink",
    "Telemetry",
    "WallClockSink",
]
