"""Hierarchical spans: the one measurement path every subsystem shares.

Historically the repo had four disconnected accounting mechanisms: the
simulated :class:`~repro.smp.machine.Machine` regions (doing double duty
for cost-model charges *and* wall clock), the private event format of
``smp.trace``, the service engine's hand-rolled ``EngineStats`` counters,
and the bench runner's ad-hoc ``time.perf_counter()`` pairs.  This module
replaces all of them with one primitive:

* a :class:`Telemetry` object holds a stack of *span* paths (dotted, as
  machine regions always were: ``Service-build.Spanning-tree``) and a set
  of pluggable :class:`Sink` subscribers;
* ``telemetry.span(name)`` opens a nested span — re-entering a name
  accumulates in path-keyed sinks, exactly matching the historical
  region semantics;
* ``telemetry.event(name, **attrs)`` emits an instant event (cache hit,
  injected fault, shared-memory allocation);
* ``telemetry.charge(...)`` forwards a simulated cost-model charge — the
  :class:`~repro.smp.machine.Machine` facade computes the
  :class:`~repro.smp.counters.Counters` delta with its historical
  arithmetic and the :class:`~repro.obs.sinks.SimulatedCostSink`
  attributes it, so simulated figures are bit-identical by construction;
* ``telemetry.worker_span(...)`` records a per-worker execution interval
  shipped back by a :class:`~repro.runtime.team.Team` (the process
  team ferries these over its result pipes).

Sinks decide what to keep: wall-clock seconds per path
(:class:`~repro.obs.sinks.WallClockSink`), aggregate counters
(:class:`~repro.obs.sinks.CounterSink`), simulated cost attribution
(:class:`~repro.obs.sinks.SimulatedCostSink`), or a Chrome-/Perfetto-
loadable timeline (:class:`~repro.obs.sinks.ChromeTraceSink`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..smp.cost_model import Ops
    from ..smp.counters import Counters

__all__ = ["ChargeEvent", "Sink", "Telemetry"]


@dataclass(frozen=True)
class ChargeEvent:
    """One simulated cost-model charge, as dispatched to sinks.

    ``kind`` is one of ``{"parallel", "sequential", "spawn", "barrier"}``.
    ``paths`` is the full span stack at charge time (every enclosing
    dotted path, outermost first) — the attribution targets; the
    innermost entry (or ``""``) is the charge's own region path.
    ``delta`` is the precomputed :class:`Counters` increment; sinks add
    it rather than re-deriving it, so the machine's historical arithmetic
    stays the single source of truth.
    """

    kind: str
    paths: Tuple[str, ...]
    delta: "Counters"
    n_items: float = 0.0
    ops: "Ops | None" = None
    rounds: int = 1

    @property
    def path(self) -> str:
        """Innermost region path ('' outside all spans)."""
        return self.paths[-1] if self.paths else ""


class Sink:
    """Base class for telemetry subscribers; every hook is a no-op.

    Subclasses override only what they care about.  All timestamps are
    ``time.perf_counter_ns()`` values (monotonic, comparable across
    forked worker processes on the same host).
    """

    def on_span_start(self, path: str, t_ns: int, attrs: Mapping) -> None:
        """A span opened at ``path``."""

    def on_span_end(self, path: str, t0_ns: int, t1_ns: int, attrs: Mapping) -> None:
        """The span at ``path`` closed; ``[t0_ns, t1_ns]`` is its interval."""

    def on_event(self, name: str, path: str, t_ns: int, attrs: Mapping) -> None:
        """An instant event inside the span at ``path``."""

    def on_charge(self, charge: ChargeEvent) -> None:
        """A simulated cost-model charge."""

    def on_worker_span(
        self, worker: int, name: str, path: str, t0_ns: int, t1_ns: int
    ) -> None:
        """Worker ``worker`` executed ``name`` over ``[t0_ns, t1_ns]``."""

    def reset(self) -> None:
        """Drop all accumulated state."""


class Telemetry:
    """A span stack plus the sinks subscribed to it (see module doc)."""

    __slots__ = ("sinks", "_stack")

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        self._stack = []

    # -- sink management ------------------------------------------------ #

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        self.sinks.remove(sink)

    # -- spans ----------------------------------------------------------- #

    @property
    def path(self) -> str:
        """Current dotted span path ('' outside all spans)."""
        return self._stack[-1] if self._stack else ""

    @property
    def stack(self) -> Tuple[str, ...]:
        """All enclosing span paths, outermost first."""
        return tuple(self._stack)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        """Open a nested span; sinks see start and end with its interval.

        Paths nest with dots (``outer.inner``) and re-entering a name
        accumulates in path-keyed sinks — the historical machine-region
        contract, preserved verbatim.
        """
        path = f"{self._stack[-1]}.{name}" if self._stack else name
        t0 = time.perf_counter_ns()
        for s in self.sinks:
            s.on_span_start(path, t0, attrs)
        self._stack.append(path)
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            popped = self._stack.pop()
            assert popped == path
            for s in self.sinks:
                s.on_span_end(path, t0, t1, attrs)

    def event(self, name: str, **attrs) -> None:
        """Emit an instant event attributed to the current span path."""
        if not self.sinks:
            return
        t = time.perf_counter_ns()
        path = self.path
        for s in self.sinks:
            s.on_event(name, path, t, attrs)

    # -- machine charges and worker spans -------------------------------- #

    def charge(
        self,
        kind: str,
        delta: "Counters",
        *,
        n_items: float = 0.0,
        ops: "Ops | None" = None,
        rounds: int = 1,
    ) -> None:
        """Dispatch one simulated cost-model charge to every sink."""
        ev = ChargeEvent(kind, tuple(self._stack), delta, n_items, ops, rounds)
        for s in self.sinks:
            s.on_charge(ev)

    def worker_span(self, worker: int, name: str, t0_ns: int, t1_ns: int) -> None:
        """Record one worker's execution interval for ``name``.

        Called by teams after (or while) collecting results; the
        attribution path is the span that dispatched the parallel region
        (still open at collection time).
        """
        path = self.path
        full = f"{path}.{name}" if path else name
        for s in self.sinks:
            s.on_worker_span(worker, name, full, t0_ns, t1_ns)

    def reset(self) -> None:
        """Reset every sink (the span stack is left untouched)."""
        for s in self.sinks:
            s.reset()
