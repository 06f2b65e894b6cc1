"""Process-backed team on ``multiprocessing.shared_memory``.

This is the backend that actually escapes the GIL: a persistent team of
worker *processes*, one per simulated E4500 processor, operating on numpy
arrays placed in POSIX shared memory — workers read and write the same
physical pages as the parent, so a ``parallel_for`` ships only a tiny
pickled message (function reference + scalars + segment names), never
array data.

Wire protocol (one duplex :func:`multiprocessing.Pipe` per worker)::

    ("run", fn, n, args)   -> ("ok", span | None) | ("err", exc)
    ("release", [names])   -> ("ok", None)     # drop cached attachments
    ("close",)             -> worker exits

:meth:`ProcessTeam.dispatch` sends ``run`` messages to a chosen set of
ranks, each with its own arguments, and waits on those ranks alone;
``parallel_for`` is ``dispatch`` to every rank with the same arguments.
A message is pickled once however many ranks receive it.

A successful run's ``span`` is ``(t0_ns, t1_ns, fn_name)`` — the worker's
measured execution interval (``perf_counter_ns``, monotonic and
host-wide on Linux, so parent and worker timestamps share a timeline) —
or ``None`` when the worker's block was empty.  The parent forwards
spans to its attached :class:`repro.obs.Telemetry`, which is how
``--trace`` gets a per-worker timeline out of forked processes without
any extra plumbing: the spans ride the existing result pipes.

``fn`` must be a module-level function (picklable by reference); array
arguments are passed as :class:`_ShmRef` name markers that each worker
resolves — and caches — by attaching to the named segment.  Arrays *not*
allocated through the team are pickled by value: fine for small read-only
broadcast data (e.g. a p-element offsets vector), but writes to them do
not propagate, so kernels allocate every output through
``team.empty/zeros/full/share``.

Workers call :func:`gc.freeze` as soon as they start.  A forked worker
inherits the parent's whole Python heap; without the freeze each of its
generation-2 collections walks that heap (and, by touching every object
header, copies it page by page on write).  See ``docs/runtime.md``.

Two CPython sharp edges are handled here:

* On Python ≤ 3.12 merely *attaching* to a segment registers it with the
  resource tracker, which misfires in a worker either way: a shared
  tracker double-tracks the parent's segment, a worker-private tracker
  accumulates entries no unlink will ever match.  Ownership here is
  strictly parent-side (create + unlink in the parent, close-only in the
  workers), so workers disable shared-memory tracking entirely
  (:func:`_disable_worker_shm_tracking`).
* A worker dying mid-job (OOM-kill, segfault) would deadlock a blocking
  ``recv``; the parent polls with a liveness check instead.

Start method defaults to ``fork`` where available (no re-import cost per
worker) and can be overridden with ``REPRO_RUNTIME_START``.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing as mp
import os
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

from .team import Team, _default_grain, block_range, raise_aggregate

__all__ = ["ProcessTeam"]

#: Teams created but not yet closed, for the interpreter-exit sweep.
_LIVE_TEAMS: "weakref.WeakSet[ProcessTeam]" = weakref.WeakSet()


def _close_live_teams() -> None:
    """Unlink any team a caller abandoned without ``close()``.

    POSIX shared-memory segments outlive the process — a parent that
    exits (sys.exit, uncaught exception, pytest crash) without closing
    its teams would leak ``/dev/shm`` blocks until reboot.  Registered
    *after* multiprocessing's import-time handler, so atexit's LIFO
    order runs this sweep first: workers get a clean shutdown message
    before multiprocessing starts joining children.  Forked children
    inherit the set, so each team is closed only by the process that
    created it (the unlinking owner).
    """
    for team in list(_LIVE_TEAMS):
        if getattr(team, "_owner_pid", None) == os.getpid():
            try:
                team.close()
            except Exception:  # pragma: no cover - exit path, best effort
                pass


atexit.register(_close_live_teams)


class _ShmRef:
    """Pickle-cheap stand-in for a shared numpy array (name + layout)."""

    __slots__ = ("name", "shape", "dtype_str")

    def __init__(self, name: str, shape: tuple, dtype_str: str):
        self.name = name
        self.shape = shape
        self.dtype_str = dtype_str


def _attach(ref: _ShmRef, cache: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]]):
    ent = cache.get(ref.name)
    if ent is None:
        seg = shared_memory.SharedMemory(name=ref.name)
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype_str), buffer=seg.buf)
        ent = (seg, arr)
        cache[ref.name] = ent
    return ent[1]


def _disable_worker_shm_tracking() -> None:
    """Stop this worker's resource tracker from adopting attachments.

    On Python <= 3.12 merely attaching to a segment calls
    ``resource_tracker.register``.  Depending on whether a tracker was
    already running when the worker forked, that either double-tracks the
    parent's segment or spawns a worker-private tracker whose entries are
    never matched by an unlink — both produce spurious warnings at exit.
    Workers never own segments (the parent alone creates and unlinks), so
    shared-memory tracking is simply disabled in the worker process.
    """
    orig = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            orig(name, rtype)

    resource_tracker.register = register


def _worker_main(rank: int, p: int, conn) -> None:
    # everything inherited at fork is long-lived from here on: keep the
    # cyclic collector from walking (and copying on write) the parent's heap
    gc.freeze()
    _disable_worker_shm_tracking()
    cache: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            kind = msg[0]
            if kind == "close":
                conn.send(("ok", None))
                break
            if kind == "release":
                for name in msg[1]:
                    ent = cache.pop(name, None)
                    if ent is not None:
                        ent[0].close()
                conn.send(("ok", None))
                continue
            _, fn, n, args = msg
            try:
                resolved = tuple(
                    _attach(a, cache) if isinstance(a, _ShmRef) else a for a in args
                )
                lo, hi = block_range(rank, n, p)
                span = None
                if lo < hi:
                    t0 = time.perf_counter_ns()
                    fn(rank, lo, hi, *resolved)
                    span = (t0, time.perf_counter_ns(), getattr(fn, "__name__", "body"))
                conn.send(("ok", span))
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                try:
                    conn.send(("err", exc))
                except Exception:
                    conn.send(("err", RuntimeError(f"{type(exc).__name__}: {exc}")))
    finally:
        for seg, _ in cache.values():
            seg.close()
        conn.close()


class ProcessTeam(Team):
    """A persistent fork–join team of worker processes (see module doc)."""

    name = "processes"

    def __init__(self, p: int, *, grain: int | None = None, start_method: str | None = None):
        if p < 1:
            raise ValueError("need at least one worker")
        self.p = p
        self.grain = _default_grain(32768) if grain is None else grain
        method = start_method or os.environ.get("REPRO_RUNTIME_START")
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._ctx = mp.get_context(method)
        # name -> (shm, array); plus id(array) -> name for wire translation
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
        self._by_id: Dict[int, str] = {}
        self._shutdown = False
        self._owner_pid = os.getpid()
        self._conns = [None] * p
        self._procs = [None] * p
        for rank in range(p):
            self._spawn(rank)
        _LIVE_TEAMS.add(self)

    def _spawn(self, rank: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, self.p, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()
        self._conns[rank] = parent_conn
        self._procs[rank] = proc

    def _respawn(self, rank: int) -> None:
        """Replace a dead worker so the team stays usable after a crash.

        The fresh worker starts with an empty attachment cache and
        re-attaches to live segments lazily on its next job.
        """
        try:
            self._conns[rank].close()
        except OSError:  # pragma: no cover - already broken
            pass
        proc = self._procs[rank]
        proc.join(timeout=1)
        if proc.is_alive():  # pragma: no cover - zombie worker
            proc.terminate()
            proc.join(timeout=1)
        self._spawn(rank)

    # -- shared-array management ---------------------------------------- #

    def _alloc(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        self._segments[seg.name] = (seg, arr)
        self._by_id[id(arr)] = seg.name
        if self.telemetry is not None:
            self.telemetry.event("shm.alloc", segment=seg.name, bytes=nbytes)
        return arr

    def share(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if id(arr) in self._by_id:
            return arr
        out = self._alloc(arr.shape, arr.dtype)
        out[...] = arr
        return out

    def empty(self, shape, dtype) -> np.ndarray:
        return self._alloc(shape, dtype)

    def zeros(self, shape, dtype) -> np.ndarray:
        out = self._alloc(shape, dtype)
        out[...] = 0
        return out

    def full(self, shape, fill, dtype) -> np.ndarray:
        out = self._alloc(shape, dtype)
        out[...] = fill
        return out

    def release(self, *arrays: np.ndarray) -> None:
        names = []
        for arr in arrays:
            name = self._by_id.pop(id(arr), None)
            if name is not None:
                names.append(name)
        if not names:
            return
        if self.telemetry is not None:
            self.telemetry.event("shm.release", count=len(names))
        try:
            if not self._shutdown:
                msg = ForkingPickler.dumps(("release", names))
                self._exchange(dict.fromkeys(range(self.p), msg))
        finally:
            # unlink unconditionally — a worker crash mid-release must not
            # leak the segments (names are already popped from _by_id)
            for name in names:
                seg, _ = self._segments.pop(name)
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    # -- execution ------------------------------------------------------ #

    def _wire(self, arg):
        if isinstance(arg, np.ndarray):
            name = self._by_id.get(id(arg))
            if name is not None:
                return _ShmRef(name, arg.shape, arg.dtype.str)
        return arg

    def _exchange(self, msgs: dict) -> None:
        """Send each rank in ``msgs`` its pickled message, then collect.

        A send can fail only when the worker is already dead (broken
        pipe); that rank is skipped — not raised — so the remaining
        ranks still receive their messages and stay in protocol sync,
        and :meth:`_collect` reports the dead one.
        """
        sent = set()
        for rank, buf in msgs.items():
            try:
                self._conns[rank].send_bytes(buf)
                sent.add(rank)
            except (BrokenPipeError, OSError):
                pass
        self._collect(msgs, sent)

    def _recv(self, rank: int):
        """One response from ``rank``, or ``None`` if the worker died.

        Polls with a liveness check (a worker dying mid-job would
        deadlock a blocking recv) and drains one last time after death —
        the response may have been written just before the worker exited.
        """
        conn, proc = self._conns[rank], self._procs[rank]
        while True:
            try:
                if conn.poll(0.1):
                    return conn.recv()
            except (EOFError, OSError):
                return None
            if not proc.is_alive():
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                return None

    def _collect(self, ranks: Iterable[int], sent: set) -> None:
        """Gather one response per rank in ``ranks``, then aggregate failures.

        Only the given ranks are waited on.  Every one is drained before
        anything is raised — raising at the first dead worker would
        leave the later workers' responses queued in their pipes and
        desynchronize the next job.  A rank that never got its message
        (``sent``) or died is reported and respawned, so the team
        remains usable.
        """
        errors, dead = [], []
        for rank in sorted(ranks):
            resp = self._recv(rank) if rank in sent else None
            if resp is None:
                proc = self._procs[rank]
                proc.join(timeout=1)  # reap, so exitcode is populated
                dead.append(rank)
                errors.append(
                    RuntimeError(
                        f"process-team worker {rank} (pid {proc.pid}) died "
                        f"unexpectedly with exit code {proc.exitcode}"
                    )
                )
                continue
            status, payload = resp
            if status == "err":
                errors.append(payload)
            elif payload is not None and self.telemetry is not None:
                t0, t1, fn_name = payload
                self.telemetry.worker_span(rank, fn_name, t0, t1)
        for rank in dead:
            self._respawn(rank)
        raise_aggregate(errors)

    def dispatch(self, n: int, body: Callable, rank_args: dict) -> None:
        """Run ``body(rank, lo, hi, *rank_args[rank])`` on the given ranks.

        ``lo, hi`` is the rank's block of range(n).  Ranks missing from
        ``rank_args`` are neither woken nor waited on.  ``body`` must be
        module-level (pickled by reference); shared arrays in the
        arguments travel as name markers, everything else by value.
        Each distinct argument tuple is pickled once.
        """
        if self._shutdown:
            raise RuntimeError("team already shut down")
        pickled: dict = {}
        msgs = {}
        for rank, args in rank_args.items():
            buf = pickled.get(id(args))
            if buf is None:
                wire_args = tuple(self._wire(a) for a in args)
                buf = pickled[id(args)] = ForkingPickler.dumps(("run", body, n, wire_args))
            msgs[rank] = buf
        self._exchange(msgs)

    def parallel_for(self, n: int, body: Callable, *args) -> None:
        """Run ``body(rank, lo, hi, *args)`` on every worker over range(n)
        (:meth:`dispatch` to every rank with the same arguments)."""
        self.dispatch(n, body, dict.fromkeys(range(self.p), args))

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        _LIVE_TEAMS.discard(self)
        for conn, proc in zip(self._conns, self._procs):
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for conn, proc in zip(self._conns, self._procs):
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for seg, _ in self._segments.values():
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._segments.clear()
        self._by_id.clear()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
