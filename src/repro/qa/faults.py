"""Runtime fault injection: make workers raise or die on a seeded schedule.

:class:`FaultyTeam` wraps any :class:`~repro.runtime.team.Team` and
rewrites every ``parallel_for`` body so that, per (call, rank), a seeded
coin decides whether to run the real body or fail first:

``"raise"``
    Raise :class:`FaultInjected` inside the body.  Valid on every
    backend; exercises error shipping, aggregation into an
    ``ExceptionGroup``, and the team's reusability afterwards.
``"kill"``
    ``os._exit`` the worker *process* mid-kernel — only meaningful on the
    process backend, where it exercises dead-worker detection, pipe
    drain, respawn, and shared-memory cleanup.  As a safety net the
    injected body refuses to ``_exit`` when it finds itself in the main
    process (serial backend) and raises instead.

Decisions are a pure function of ``(plan.seed, call_index, rank)``, so a
failing schedule replays exactly.  The injected body and the plan are
module-level/picklable, which the process backend requires (bodies are
pickled by reference, arguments by value).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass

import numpy as np

from ..runtime.team import Team

__all__ = ["FaultInjected", "FaultPlan", "FaultyTeam"]

#: Exit code used by killed workers; visible in the parent's dead-worker error.
KILL_EXIT_CODE = 87


class FaultInjected(RuntimeError):
    """The planted failure; tests assert on this exact type."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded schedule of which (call, rank) pairs fail and how.

    ``probability`` is evaluated independently per (call, rank);
    ``ranks`` optionally restricts faults to specific ranks; ``after_call``
    suppresses faults on earlier calls so a pipeline can get partway
    through before the failure lands.
    """

    mode: str = "raise"  # "raise" | "kill"
    probability: float = 1.0
    seed: int = 0
    ranks: tuple | None = None
    after_call: int = 0

    def __post_init__(self):
        if self.mode not in ("raise", "kill"):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def fires(self, call_index: int, rank: int) -> bool:
        """Deterministic per-(call, rank) decision."""
        if call_index < self.after_call:
            return False
        if self.ranks is not None and rank not in self.ranks:
            return False
        if self.probability >= 1.0:
            return True
        rng = np.random.default_rng((self.seed, call_index, rank))
        return bool(rng.random() < self.probability)


def _faulty_body(rank, lo, hi, plan, call_index, fn, *args):
    """Module-level wrapper so the process backend can pickle it by name."""
    if plan.fires(call_index, rank):
        if plan.mode == "kill":
            if mp.parent_process() is not None:
                os._exit(KILL_EXIT_CODE)
            raise FaultInjected(
                f"kill fault in rank {rank} on call {call_index} "
                "(in-process backend: raising instead of exiting)"
            )
        raise FaultInjected(f"injected fault in rank {rank} on call {call_index}")
    fn(rank, lo, hi, *args)


class FaultyTeam(Team):
    """Wrap ``inner`` so its bodies fail according to ``plan``.

    Everything except ``parallel_for`` delegates untouched, so kernels
    still allocate through the real team (shared memory on the process
    backend).  ``calls`` counts dispatched ``parallel_for``s — the
    call-index axis of the plan.
    """

    def __init__(self, inner: Team, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.calls = 0
        self.name = f"faulty-{inner.name}"
        self.p = inner.p
        self.grain = inner.grain

    def parallel_for(self, n, body, *args) -> None:
        call_index = self.calls
        self.calls += 1
        tel = self.telemetry
        if tel is not None:
            # the plan is a pure function of (call, rank), so the parent
            # can announce each injection before dispatch — fuzz repros
            # carry the fault right in their timeline
            for rank in range(self.p):
                if self.plan.fires(call_index, rank):
                    tel.event(
                        "fault.injected",
                        mode=self.plan.mode,
                        call=call_index,
                        rank=rank,
                        body=getattr(body, "__name__", "body"),
                    )
        self.inner.parallel_for(n, _faulty_body, self.plan, call_index, body, *args)

    # -- delegation ----------------------------------------------------- #

    @property
    def telemetry(self):
        return self.inner.telemetry

    @telemetry.setter
    def telemetry(self, value):
        # attach to the inner team too, so its worker spans are emitted
        self.inner.telemetry = value

    def block(self, rank, n):
        return self.inner.block(rank, n)

    def share(self, arr):
        return self.inner.share(arr)

    def empty(self, shape, dtype):
        return self.inner.empty(shape, dtype)

    def zeros(self, shape, dtype):
        return self.inner.zeros(shape, dtype)

    def full(self, shape, fill, dtype):
        return self.inner.full(shape, fill, dtype)

    def release(self, *arrays):
        self.inner.release(*arrays)

    def close(self) -> None:
        self.inner.close()
