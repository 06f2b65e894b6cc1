"""Shard hosting backends: where the per-shard engines actually live.

Two placements of the N :class:`~repro.service.engine.ServiceEngine`
shard workers, behind one protocol (:class:`ShardBackend`):

:class:`InProcessBackend` (``"serial"``)
    All engines in the router's process, executed shard-by-shard.  The
    degenerate backend for 1-core CI and for property tests — same
    framing, same codec path, no forked state — mirroring
    ``SerialTeam``'s role in the runtime layer.

:class:`ProcessBackend` (``"processes"``)
    One engine per worker process, hosted on the persistent forked
    workers of :class:`repro.runtime.process.ProcessTeam` (worker
    ``rank`` owns shard ``rank``).  Graph payloads travel *once*, at
    ``put_graph`` time, as :mod:`multiprocessing.shared_memory` arrays
    the owning worker wraps zero-copy into its stored
    :class:`~repro.graph.Graph`; per-batch scatter messages carry only
    op dicts (tiny), and answers come back through a shared ``int64``
    buffer via the codec of :mod:`repro.cluster.frames` — the parent
    routes without pickling a single array.

    Graph segments stay alive until :meth:`close` (worker-side indexes
    and pending-delta chains may reference them long after a
    replacement), so a long-lived cluster should recycle graph *names*
    rather than accumulate new ones.

Worker-side engine state lives in the module-global :data:`_W_ENGINES`,
keyed by shard — each forked worker only ever touches its own rank's
entry, so the dict needs no locking.  All worker bodies are module-level
functions (``ProcessTeam`` pickles them by reference).
"""

from __future__ import annotations

import time
from dataclasses import fields

import numpy as np

from ..graph import Graph
from ..service.engine import EngineStats, ServiceEngine
from .frames import answer_slots, decode_answer, encode_answer

__all__ = ["ShardBackend", "InProcessBackend", "ProcessBackend", "make_backend", "STAT_FIELDS"]

#: Engine counters a backend reports per shard: every whole-count
#: :class:`~repro.service.engine.EngineStats` field, in declaration order.
STAT_FIELDS = tuple(f.name for f in fields(EngineStats) if f.type in (int, "int"))

#: Per-shard stat row columns: the counters plus the worst staleness, as
#: whole milliseconds so it rides the processes backend's int64 buffer.
_ROW_FIELDS = STAT_FIELDS + ("max_staleness_ms",)


def _stat_row(engine: ServiceEngine) -> list:
    stats = engine.stats
    return [int(getattr(stats, field)) for field in _ROW_FIELDS]


def _with_hit_rate(row: dict) -> dict:
    total = row["cache_hits"] + row["cache_misses"]
    row["cache_hit_rate"] = row["cache_hits"] / total if total else 0.0
    return row


class ShardBackend:
    """Protocol for a fleet of shard engines (see module docstring)."""

    name: str = "abstract"
    num_shards: int = 1

    def put_graph(self, shard: int, name: str, graph: Graph) -> None:
        raise NotImplementedError

    def remove_graph(self, shard: int, name: str) -> None:
        raise NotImplementedError

    def execute(self, frames: dict, total_slots: int) -> dict:
        """Run every frame on its shard; returns ``{seq: answer}``."""
        raise NotImplementedError

    def shard_stats(self) -> list:
        """Per-shard engine counters (``STAT_FIELDS`` plus
        ``max_staleness_ms`` and ``cache_hit_rate``)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessBackend(ShardBackend):
    """All shard engines in the caller's process (1-core CI backend)."""

    name = "serial"

    def __init__(
        self,
        num_shards: int,
        algorithm: str = "tv-filter",
        cache_size: int = 8,
        telemetry=None,
        rebuild_mode: str = "sync",
        coalesce_ms: float = 0.0,
        staleness_budget_ms: float | None = 250.0,
        maintenance: str = "auto",
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        self.telemetry = telemetry
        self.engines = [
            ServiceEngine(
                algorithm=algorithm,
                cache_size=cache_size,
                rebuild_mode=rebuild_mode,
                coalesce_ms=coalesce_ms,
                staleness_budget_ms=staleness_budget_ms,
                maintenance=maintenance,
            )
            for _ in range(num_shards)
        ]

    def put_graph(self, shard: int, name: str, graph: Graph) -> None:
        self.engines[shard].put_graph(name, graph)

    def remove_graph(self, shard: int, name: str) -> None:
        self.engines[shard].store.remove(name)

    def execute(self, frames: dict, total_slots: int) -> dict:
        answers: dict[int, object] = {}
        for shard in sorted(frames):
            frame = frames[shard]
            engine = self.engines[shard]
            t0 = time.perf_counter_ns()
            for seq, gname, op in zip(frame.seqs, frame.graphs, frame.ops):
                answers[seq] = engine.apply(gname, op)
            if self.telemetry is not None:
                # same per-shard track shape as the forked backend's
                # worker spans, so --trace output reads identically
                self.telemetry.worker_span(
                    shard, "shard-apply", t0, time.perf_counter_ns()
                )
        return answers

    def shard_stats(self) -> list:
        rows = []
        for engine in self.engines:
            row = _with_hit_rate(dict(zip(_ROW_FIELDS, _stat_row(engine))))
            # string-valued, so only the serial backend reports it — it
            # can't ride the int64 stat buffer
            row["last_rebuild_error"] = engine.stats.last_rebuild_error
            rows.append(row)
        return rows

    def close(self) -> None:
        # async engines own a rebuild worker thread each; a closed shard
        # fleet must leave nothing running
        for engine in self.engines:
            engine.close()


# --------------------------------------------------------------------- #
# forked workers: module-level state + bodies (pickled by reference)

#: shard -> engine, inside each worker process (populated post-fork; a
#: worker only ever reads/writes the entry of its own rank)
_W_ENGINES: dict[int, ServiceEngine] = {}


def _w_configure(rank, lo, hi, algorithm, cache_size, rebuild_mode, coalesce_ms,
                 staleness_budget_ms, maintenance):
    for shard in range(lo, hi):
        _W_ENGINES[shard] = ServiceEngine(
            algorithm=algorithm,
            cache_size=cache_size,
            rebuild_mode=rebuild_mode,
            coalesce_ms=coalesce_ms,
            staleness_budget_ms=staleness_budget_ms,
            maintenance=maintenance,
        )


def _w_put_graph(rank, lo, hi, shard, name, n, u, v):
    if not lo <= shard < hi:
        return
    # u/v arrive as shared-memory attachments; Graph wraps them without
    # copying (already canonical), so the worker's stored graph reads the
    # parent's physical pages
    _W_ENGINES[shard].put_graph(name, Graph(int(n), u, v, normalize=False))


def _w_remove_graph(rank, lo, hi, shard, name):
    if lo <= shard < hi:
        _W_ENGINES[shard].store.remove(name)


def _w_execute(rank, lo, hi, jobs, out):
    for shard in range(lo, hi):
        job = jobs.get(shard)
        if not job:
            continue
        engine = _W_ENGINES[shard]
        for gname, op, offset, slots in job:
            answer = engine.apply(gname, op)
            encode_answer(op["op"], answer, out[offset : offset + slots])


def _w_stats(rank, lo, hi, out):
    for shard in range(lo, hi):
        engine = _W_ENGINES.get(shard)
        if engine is None:
            continue
        out[shard] = _stat_row(engine)


def _w_close(rank, lo, hi):
    # join each engine's rebuild worker before the process exits, so a
    # closed cluster never leaves a build mid-flight in a dying worker
    for shard in range(lo, hi):
        engine = _W_ENGINES.pop(shard, None)
        if engine is not None:
            engine.drain(timeout=5.0)
            engine.close()


class ProcessBackend(ShardBackend):
    """One shard engine per forked worker process (see module docstring)."""

    name = "processes"

    def __init__(
        self,
        num_shards: int,
        algorithm: str = "tv-filter",
        cache_size: int = 8,
        telemetry=None,
        rebuild_mode: str = "sync",
        coalesce_ms: float = 0.0,
        staleness_budget_ms: float | None = 250.0,
        maintenance: str = "auto",
    ):
        from ..runtime.process import ProcessTeam

        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        # worker rank == shard id: parallel_for over range(num_shards)
        # hands each worker exactly its own shard's block [rank, rank+1)
        self.team = ProcessTeam(num_shards)
        self.team.telemetry = telemetry
        self._graph_arrays: list = []  # keep shm-backed graph arrays alive
        self.team.parallel_for(
            num_shards, _w_configure, algorithm, cache_size, rebuild_mode,
            coalesce_ms, staleness_budget_ms, maintenance,
        )

    def put_graph(self, shard: int, name: str, graph: Graph) -> None:
        u = self.team.share(graph.u)
        v = self.team.share(graph.v)
        self._graph_arrays.append((u, v))
        self.team.parallel_for(
            self.num_shards, _w_put_graph, shard, name, graph.n, u, v
        )

    def remove_graph(self, shard: int, name: str) -> None:
        self.team.parallel_for(self.num_shards, _w_remove_graph, shard, name)

    def execute(self, frames: dict, total_slots: int) -> dict:
        jobs = {
            shard: list(
                zip(
                    frame.graphs,
                    frame.ops,
                    frame.offsets,
                    [answer_slots(op) for op in frame.ops],
                )
            )
            for shard, frame in frames.items()
        }
        out = self.team.zeros((max(total_slots, 1), 2), np.int64)
        try:
            self.team.parallel_for(self.num_shards, _w_execute, jobs, out)
            answers: dict[int, object] = {}
            for frame in frames.values():
                for seq, op, offset in zip(frame.seqs, frame.ops, frame.offsets):
                    slots = answer_slots(op)
                    answers[seq] = decode_answer(
                        op["op"], out[offset : offset + slots]
                    )
        finally:
            self.team.release(out)
        return answers

    def shard_stats(self) -> list:
        out = self.team.zeros((self.num_shards, len(_ROW_FIELDS)), np.int64)
        try:
            self.team.parallel_for(self.num_shards, _w_stats, out)
            return [
                _with_hit_rate(dict(zip(_ROW_FIELDS, map(int, out[shard]))))
                for shard in range(self.num_shards)
            ]
        finally:
            self.team.release(out)

    @property
    def live_segments(self) -> int:
        """Shared-memory segments currently owned (0 after close)."""
        return len(self.team._segments)

    def workers_joined(self) -> bool:
        """True when every worker process has exited (post-close check)."""
        return all(proc is None or not proc.is_alive() for proc in self.team._procs)

    def close(self) -> None:
        self._graph_arrays.clear()
        try:
            self.team.parallel_for(self.num_shards, _w_close)
        except Exception:
            pass  # workers already gone; team.close() reaps what's left
        self.team.close()


BACKENDS = {"serial": InProcessBackend, "processes": ProcessBackend}


def make_backend(backend: str, num_shards: int, **kwargs) -> ShardBackend:
    """Construct a shard backend (``"serial"`` or ``"processes"``)."""
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown cluster backend {backend!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(num_shards, **kwargs)
