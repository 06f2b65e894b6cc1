"""Background rebuild scheduling: coalescing, admission, clean shutdown.

A :class:`RebuildScheduler` owns one daemon worker thread that runs
index rebuilds *off* the query path, the way the paper's SMP design
hides recomputation behind useful work.  The engine hands it a runner
callable (``runner(name, job)``) that builds and atomically installs a
new :class:`~repro.service.snapshot.IndexSnapshot`; the scheduler owns
everything around that call:

* **Write coalescing** — :meth:`schedule` requests for a graph that
  already has a queued job fold into it (``rebuild.coalesced``); each
  job waits out a configurable window (``coalesce_s``) before running,
  and the runner re-reads the *latest* stored content at build start,
  so a burst of N updates costs one rebuild, not N.
* **Admission control** — at most ``max_pending`` distinct graphs may be
  queued; overflow requests answer ``"rejected"`` (``rebuild.reject``)
  and the engine falls back to serving stale (or forcing a synchronous
  rebuild once the staleness budget is blown).
* **Re-run on churn** — updates landing while a graph's job is mid-build
  mark it for one follow-up run, so the swap always converges to the
  newest content.
* **Clean shutdown** — :meth:`close` cancels queued jobs, lets an
  in-flight build finish (its install is skipped when cancelled) and
  joins the worker thread; no thread outlives the owning engine.

The clock is injectable (``clock=...``, default ``time.monotonic``) so
tests drive coalescing windows and staleness budgets deterministically;
the worker polls at ``poll_s`` while jobs wait out their window, which
keeps a frozen fake clock from wedging the thread.

Telemetry events (``rebuild.queued`` / ``rebuild.coalesced`` /
``rebuild.reject`` / ``rebuild.cancelled`` / ``rebuild.error``) are
emitted on the telemetry the engine hands the scheduler (its own event
telemetry, which counts them and forwards them to the shared one) —
``Telemetry.event`` appends to sinks under the GIL, which is safe from
the worker thread; spans/machines are not, so the runner must not open
spans or charge a machine.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..obs import Telemetry

__all__ = ["RebuildJob", "RebuildScheduler"]


class RebuildJob:
    """One scheduled rebuild of a named graph's index."""

    __slots__ = ("name", "not_before", "queued_at", "cancelled")

    def __init__(self, name: str, not_before: float, queued_at: float):
        self.name = name
        self.not_before = not_before
        self.queued_at = queued_at
        self.cancelled = False

    def __repr__(self) -> str:
        return f"RebuildJob({self.name!r}, cancelled={self.cancelled})"


class RebuildScheduler:
    """Run index rebuilds on a dedicated worker, coalesced and bounded."""

    def __init__(
        self,
        runner,
        telemetry: Telemetry | None = None,
        coalesce_s: float = 0.0,
        max_pending: int | None = 8,
        clock=None,
        poll_s: float = 0.02,
    ):
        if coalesce_s < 0:
            raise ValueError(f"coalesce_s must be >= 0, got {coalesce_s}")
        if max_pending is not None and max_pending < 0:
            raise ValueError(f"max_pending must be >= 0 (or None), got {max_pending}")
        self._runner = runner
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.coalesce_s = float(coalesce_s)
        self.max_pending = max_pending
        self._clock = clock if clock is not None else time.monotonic
        self._poll_s = float(poll_s)
        self._cond = threading.Condition()
        self._jobs: OrderedDict[str, RebuildJob] = OrderedDict()
        self._running: RebuildJob | None = None
        self._rerun: set[str] = set()
        self._closed = False
        #: last background-build exception, as "ExcType: message" ("" = none);
        #: a failed build is contained — the previous snapshot keeps serving
        self.last_error = ""
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-rebuild-scheduler"
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # producer side (engine / query path)
    # ------------------------------------------------------------------ #

    def schedule(self, name: str) -> str:
        """Request a rebuild of ``name``; returns how it was admitted.

        ``"queued"`` — a new job was enqueued (fires after the coalescing
        window); ``"coalesced"`` — an existing queued or in-flight job
        already covers it; ``"rejected"`` — the pending queue is full.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler already closed")
            if name in self._jobs:
                self.telemetry.event("rebuild.coalesced")
                return "coalesced"
            if self._running is not None and self._running.name == name:
                # mid-build churn: one follow-up run picks up the newest
                # content after the current build installs
                self._rerun.add(name)
                self.telemetry.event("rebuild.coalesced")
                return "coalesced"
            if self.max_pending is not None and len(self._jobs) >= self.max_pending:
                self.telemetry.event("rebuild.reject")
                return "rejected"
            now = self._clock()
            self._jobs[name] = RebuildJob(name, now + self.coalesce_s, now)
            self.telemetry.event("rebuild.queued")
            self._cond.notify_all()
            return "queued"

    def cancel(self, name: str) -> bool:
        """Drop ``name``'s queued job (and any re-run mark), if present.

        An in-flight build cannot be interrupted, but it is marked
        cancelled so the runner skips its install.  Returns True when a
        queued job was removed.
        """
        with self._cond:
            self._rerun.discard(name)
            if self._running is not None and self._running.name == name:
                self._running.cancelled = True
            job = self._jobs.pop(name, None)
            if job is None:
                return False
            job.cancelled = True
            self.telemetry.event("rebuild.cancelled")
            self._cond.notify_all()
            return True

    def has_pending(self, name: str) -> bool:
        with self._cond:
            return (
                name in self._jobs
                or name in self._rerun
                or (self._running is not None and self._running.name == name)
            )

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._jobs) + (1 if self._running is not None else 0)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def reset_stats(self) -> None:
        with self._cond:
            self.last_error = ""

    # ------------------------------------------------------------------ #
    # synchronization
    # ------------------------------------------------------------------ #

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued, re-run-marked, or in flight.

        Returns False on timeout.  Jobs still waiting out a coalescing
        window run as soon as the (possibly fake) clock reaches their
        window end — with a frozen clock, advance it before draining.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._jobs or self._rerun or self._running is not None:
                if self._closed:
                    return not (self._jobs or self._rerun or self._running)
                wait = self._poll_s
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._cond.wait(wait)
            return True

    def close(self, timeout: float = 10.0) -> None:
        """Cancel queued jobs and join the worker (idempotent)."""
        with self._cond:
            if not self._closed:
                for job in self._jobs.values():
                    job.cancelled = True
                if self._jobs:
                    self.telemetry.event("rebuild.cancelled", count=len(self._jobs))
                self._jobs.clear()
                self._rerun.clear()
                if self._running is not None:
                    self._running.cancelled = True
                self._closed = True
                self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "RebuildScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    def _pop_ready(self) -> RebuildJob | None:
        now = self._clock()
        for name, job in self._jobs.items():
            if job.not_before <= now:
                del self._jobs[name]
                return job
        return None

    def _wait_s(self) -> float | None:
        if not self._jobs:
            return None  # sleep until schedule()/close() notifies
        now = self._clock()
        delta = min(job.not_before - now for job in self._jobs.values())
        # cap at poll_s: a fake clock never notifies, so the worker must
        # re-check readiness on a real-time heartbeat
        return min(max(delta, 1e-4), self._poll_s)

    def _loop(self) -> None:
        while True:
            with self._cond:
                job = None
                while job is None:
                    if self._closed:
                        return
                    job = self._pop_ready()
                    if job is None:
                        self._cond.wait(self._wait_s())
                self._running = job
            try:
                if not job.cancelled:
                    self._runner(job.name, job)
            except Exception as exc:
                # a failed build keeps the previous snapshot serving; the
                # next schedule() retries
                with self._cond:
                    self.last_error = f"{type(exc).__name__}: {exc}"
                self.telemetry.event("rebuild.error")
            finally:
                with self._cond:
                    self._running = None
                    if job.name in self._rerun:
                        self._rerun.discard(job.name)
                        if not self._closed and job.name not in self._jobs:
                            now = self._clock()
                            self._jobs[job.name] = RebuildJob(
                                job.name, now + self.coalesce_s, now
                            )
                            self.telemetry.event("rebuild.queued")
                    self._cond.notify_all()

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"RebuildScheduler(pending={len(self._jobs)}, "
                f"running={self._running is not None}, closed={self._closed})"
            )
