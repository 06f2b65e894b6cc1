"""Shard hosting backends: where the per-shard engines actually live.

Two placements of the N :class:`~repro.service.engine.ServiceEngine`
shard workers, behind one protocol (:class:`ShardBackend`):

:class:`InProcessBackend` (``"serial"``)
    All engines in the router's process, executed shard-by-shard.  The
    degenerate backend for 1-core CI and for property tests — same
    frame executor, same codec path (through a local numpy buffer), no
    forked state — mirroring ``SerialTeam``'s role in the runtime layer.

:class:`ProcessBackend` (``"processes"``)
    One engine per worker process, hosted on the persistent forked
    workers of :class:`repro.runtime.process.ProcessTeam` (worker
    ``rank`` owns shard ``rank``).  Graph payloads travel *once*, at
    ``put_graph`` time, as :mod:`multiprocessing.shared_memory` arrays
    the owning worker wraps zero-copy into its stored
    :class:`~repro.graph.Graph`.  A scatter sends each shard with
    records only its own frame (op dicts, pickled once) and wakes no
    other worker; answers come back through one grow-only shared
    ``int64[cap, 2]`` answer segment via the codec of
    :mod:`repro.cluster.frames` — the parent routes without pickling a
    single array, and without a new segment per frame.

    Graph segments stay alive until :meth:`close` (worker-side indexes
    and pending-delta chains may reference them long after a
    replacement), so a long-lived cluster should recycle graph *names*
    rather than accumulate new ones.

Both backends execute a frame with :func:`_run_frame`: between updates,
the frame's query records are grouped by (graph, op family) and each
group is answered by one batched ``engine.query`` whose result is
scattered into the group's answer rows.  Answers are bit-identical to
one ``engine.apply`` per record; a shard's ``per_op`` counters list the
grouped point records under their ``*_many`` op.

Worker-side engine state lives in the module-global :data:`_W_ENGINES`,
keyed by shard — each forked worker only ever touches its own rank's
entry, so the dict needs no locking.  All worker bodies are module-level
functions (``ProcessTeam`` pickles them by reference).
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import fields

import numpy as np

from ..graph import Graph
from ..service.engine import BATCH_OPS, EngineStats, ServiceEngine
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


# --------------------------------------------------------------------- #
# the frame executor shared by both backends

#: point op -> (the batched op that answers it, the record's item keys)
_POINT_GROUPS = {
    "same_bcc": ("same_bcc_many", ("u", "v")),
    "is_bridge": ("is_bridge_many", ("u", "v")),
    "component_of_edge": ("component_of_edge_many", ("u", "v")),
    "is_articulation": ("is_articulation_many", ("v",)),
}


def _batch_items(op: dict, kind: str):
    """A batched record's items as an int64 array, or None if they do not
    fit the group shape (``(k, 2)`` pairs or ``(k,)`` vertices, with ``k``
    the record's answer rows)."""
    params = op.get("params")
    items_key = BATCH_OPS[kind][0]
    if type(params) is not dict or len(params) != 1 or items_key not in params:
        return None
    try:
        items = np.asarray(params[items_key], dtype=np.int64)
        rows = len(params[items_key])
    except (TypeError, ValueError, OverflowError):
        return None
    if items_key == "vs":
        return items if items.shape == (rows,) else None
    if items.size == 0 and rows == 0:
        return items.reshape(0, 2)
    return items if items.shape == (rows, 2) else None


class _Group:
    """The queued records of one (graph, batched op) group."""

    __slots__ = ("point_items", "point_rows", "batch_items", "batch_rows")

    def __init__(self):
        self.point_items: list = []
        self.point_rows: list = []
        self.batch_items: list = []
        self.batch_rows: list = []

    def answer(self, engine: ServiceEngine, graph: str, kind: str, out) -> None:
        items = self.batch_items
        rows = [np.arange(offset, offset + len(b))
                for offset, b in zip(self.batch_rows, items)]
        if self.point_items:
            shape = (-1,) if kind == "is_articulation_many" else (-1, 2)
            items = [np.array(self.point_items, dtype=np.int64).reshape(shape), *items]
            rows = [np.array(self.point_rows, dtype=np.int64), *rows]
        rows = np.concatenate(rows)
        answer = engine.query(graph, kind, **{BATCH_OPS[kind][0]: np.concatenate(items)})
        if kind == "classify_edges":
            out[rows, 0] = answer["block"]
            out[rows, 1] = answer["is_bridge"]
        else:
            out[rows, 0] = answer


def _run_frame(engine: ServiceEngine, frame, out: np.ndarray) -> None:
    """Execute one shard frame, writing every record's answer rows of ``out``.

    Between barriers, query records are grouped by (graph, op family) —
    a point ``same_bcc``/``is_articulation``/``is_bridge``/
    ``component_of_edge`` record joins the group of its ``*_many`` op —
    and each group is answered by one batched ``engine.query``.  The
    groups need not be consecutive: bench-style frames interleave graphs
    and ops at random.  Updates, ``num_components`` and records whose
    keys do not fit a group go through ``engine.apply``; updates and
    misfits are barriers (queued groups are answered first), so record
    order holds and a bad record raises what ``engine.apply`` raises.
    """
    groups: defaultdict = defaultdict(_Group)  # (graph, batched op) -> group

    def flush():
        for (graph, kind), group in groups.items():
            group.answer(engine, graph, kind, out)
        groups.clear()

    for graph, op, offset in zip(frame.graphs, frame.ops, frame.offsets):
        kind = op["op"]
        point = _POINT_GROUPS.get(kind)
        if point is not None:
            kind, keys = point
            if len(op) == len(keys) + 1 and all(type(op.get(k)) is int for k in keys):
                group = groups[graph, kind]
                group.point_items.append(op[keys[0]] if len(keys) == 1
                                         else (op[keys[0]], op[keys[1]]))
                group.point_rows.append(offset)
                continue
        elif kind in BATCH_OPS:
            items = _batch_items(op, kind)
            if items is not None:
                group = groups[graph, kind]
                group.batch_items.append(items)
                group.batch_rows.append(offset)
                continue
        elif kind == "num_components":
            out[offset, 0] = engine.apply(graph, op)
            continue
        # an update or a misfit record: a barrier
        flush()
        encode_answer(op["op"], engine.apply(graph, op),
                      out[offset : offset + answer_slots(op)])
    flush()


def _decode_frames(frames: dict, out: np.ndarray) -> dict:
    """``{seq: answer}`` for every record of ``frames``, read from ``out``."""
    answers: dict[int, object] = {}
    for frame in frames.values():
        for seq, op, offset in zip(frame.seqs, frame.ops, frame.offsets):
            answers[seq] = decode_answer(
                op["op"], out[offset : offset + answer_slots(op)]
            )
    return answers


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
        out = np.empty((total_slots, 2), dtype=np.int64)
        for shard in sorted(frames):
            t0 = time.perf_counter_ns()
            _run_frame(self.engines[shard], frames[shard], out)
            if self.telemetry is not None:
                # same per-shard track shape as the forked backend's
                # worker spans, so --trace output reads identically
                self.telemetry.worker_span(
                    shard, "shard-apply", t0, time.perf_counter_ns()
                )
        return _decode_frames(frames, out)

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


def _w_put_graph(rank, lo, hi, name, n, u, v):
    # u/v arrive as shared-memory attachments; Graph wraps them without
    # copying (already canonical), so the worker's stored graph reads the
    # parent's physical pages
    _W_ENGINES[rank].put_graph(name, Graph(int(n), u, v, normalize=False))


def _w_remove_graph(rank, lo, hi, name):
    _W_ENGINES[rank].store.remove(name)


def _w_execute(rank, lo, hi, frame, out):
    _run_frame(_W_ENGINES[rank], frame, out)


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


#: Rows the answer segment starts with (64 KiB); it doubles from there.
_MIN_ANSWER_ROWS = 4096


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
        self._answers = None  # the grow-only answer segment (_answer_rows)
        self.team.parallel_for(
            num_shards, _w_configure, algorithm, cache_size, rebuild_mode,
            coalesce_ms, staleness_budget_ms, maintenance,
        )

    def put_graph(self, shard: int, name: str, graph: Graph) -> None:
        u = self.team.share(graph.u)
        v = self.team.share(graph.v)
        self._graph_arrays.append((u, v))
        self.team.dispatch(
            self.num_shards, _w_put_graph, {shard: (name, graph.n, u, v)}
        )

    def remove_graph(self, shard: int, name: str) -> None:
        self.team.dispatch(self.num_shards, _w_remove_graph, {shard: (name,)})

    def _answer_rows(self, rows: int) -> np.ndarray:
        """The shared answer segment, doubled until it holds ``rows`` rows.

        It is never zeroed: a frame's workers write every row that its
        decode reads.  The whole segment is handed out (a slice would
        lose its shared-memory identity and travel by value).
        """
        old = self._answers
        if old is None or rows > old.shape[0]:
            cap = _MIN_ANSWER_ROWS if old is None else old.shape[0]
            while cap < rows:
                cap *= 2
            if old is not None:
                self._answers = None
                self.team.release(old)
            self._answers = self.team.empty((cap, 2), np.int64)
        return self._answers

    def execute(self, frames: dict, total_slots: int) -> dict:
        out = self._answer_rows(total_slots)
        # each shard with records gets its own frame; other workers sleep
        self.team.dispatch(
            self.num_shards, _w_execute,
            {shard: (frame, out) for shard, frame in frames.items()},
        )
        return _decode_frames(frames, out)

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
        # team.close() unlinks every segment, the answer segment included
        self._graph_arrays.clear()
        self._answers = None
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
