"""The biconnectivity query engine.

A :class:`ServiceEngine` owns a :class:`~repro.service.store.GraphStore`
and serves point queries (:data:`QUERY_OPS`) and batched queries
(:data:`BATCH_OPS`, one vectorized kernel call per batch) through one
:meth:`~ServiceEngine.query` method against per-graph
:class:`~repro.service.index.BCCIndex` instances.  Indexes are cached in
an LRU keyed by graph *fingerprint*: replacing a graph with a previously
seen edge set (an update that reverts, or a no-op batch) re-hits the
cache without recomputation.

Updates are lazy.  ``add_edges``/``remove_edges`` replace the stored
graph and append the effective delta — classified at write time — to a
per-graph :class:`~repro.service.deltalog.DeltaLog`; the next resolution
(inline or background) asks the maintenance-strategy registry of
:mod:`repro.service.maintenance` how to catch up.  Under the default
``maintenance="auto"`` a qualifying chain is patched incrementally via
the insert/delete patches of :mod:`repro.service.updates` (no sort,
incidence arrays reused) whenever that is priced cheaper than one full
rebuild with the configured algorithm (any name from
``repro.api.ALGORITHMS``; default ``tv-filter``);
``maintenance="full"`` always rebuilds.  Consecutive updates between
queries coalesce into at most one resolution either way.

Index maintenance runs in one of two modes:

``rebuild_mode="sync"`` (default)
    The historical behaviour: the first query after an invalidating
    update resolves the index *inline* — replay or full rebuild on the
    query path.  Simple, always fresh, but the rebuild lands in some
    query's latency (the p99 tail the bench measures).

``rebuild_mode="async"`` (stale-while-revalidate)
    Queries read the last installed
    :class:`~repro.service.snapshot.IndexSnapshot` lock-free and never
    rebuild inline; a :class:`~repro.service.scheduler.RebuildScheduler`
    rebuilds off the query path and atomically swaps the snapshot in.
    ``coalesce_ms`` batches update bursts into one scheduled rebuild;
    ``staleness_budget_ms`` bounds how stale an answer may get before
    the engine falls back to a synchronous rebuild
    (``rebuild.force_sync``); ``max_pending_rebuilds`` bounds the
    scheduler queue.  Queries accept ``freshness="any"`` (default:
    serve the snapshot, possibly stale — emits ``index.stale_hit``)
    or ``freshness="fresh"`` (block for an exact index; bit-identical
    to the synchronous engine).  Async engines must be :meth:`close`-d
    (or used as context managers) so no rebuild thread outlives them;
    ``machine`` simulation is sync-only (the span stack is not
    thread-safe).

All work is optionally charged to a simulated :class:`repro.smp.Machine`
under three regions — ``Service-build``, ``Service-extend``,
``Service-query`` — so a workload's simulated cost decomposes exactly like
the paper's Fig. 4 step breakdowns.

The engine reports through a :class:`repro.obs.Telemetry`: every cache
hit/miss, catch-up, update, query, stale hit, and snapshot swap is
emitted as an instant event, and build/extend/query work runs inside
spans.  The engine counts its events on a private telemetry that
forwards each one to the telemetry it was given, so engines that share
one (or one ``Machine``) never count each other's events.  Each
catch-up — sync or background, patch or full build — runs through one
function and emits one ``index.build`` event carrying its
strategy, whether a delta chain was pending, the chain length, and its
``perf_counter`` wall seconds.  The public :attr:`ServiceEngine.stats`
view (:class:`EngineStats`, one documented field per counter) is
assembled on demand from those events.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace

from ..graph import Graph
from ..obs import CounterSink, ForwardSink, Sink, Telemetry
from ..smp import Machine, NullMachine, Ops
from . import updates as upd
from .deltalog import MAX_PENDING_DELTAS, DeltaEntry, DeltaLog, classify_add, classify_remove
from .index import BCCIndex
from .maintenance import MAINTENANCE_MODES, apply_plan, plan_maintenance
from .scheduler import RebuildScheduler
from .snapshot import IndexSnapshot
from .store import GraphStore

__all__ = [
    "QUERY_OPS",
    "BATCH_OPS",
    "UPDATE_OPS",
    "REBUILD_MODES",
    "FRESHNESS_LEVELS",
    "MAINTENANCE_MODES",
    "MAX_PENDING_DELTAS",
    "EngineStats",
    "ServiceEngine",
]

#: Point-query operations the engine serves, with the per-query cost mix
#: charged to the simulated machine (a handful of dependent loads).
QUERY_OPS = {
    "same_bcc": Ops(random=6, alu=4),
    "is_articulation": Ops(random=1, alu=1),
    "is_bridge": Ops(random=2, alu=4),
    "component_of_edge": Ops(random=2, alu=4),
    "num_components": Ops(alu=1),
}

#: Batched query operations: ``(items parameter, per-item cost)``.  Each
#: resolves the index once per batch and answers via one vectorized
#: kernel of :class:`~repro.service.index.BCCIndex`; the simulated
#: machine is charged the per-item cost times the batch size inside a
#: single ``Service-query`` region entry.
BATCH_OPS = {
    "same_bcc_many": ("pairs", QUERY_OPS["same_bcc"]),
    "is_articulation_many": ("vs", QUERY_OPS["is_articulation"]),
    "is_bridge_many": ("pairs", QUERY_OPS["is_bridge"]),
    "component_of_edge_many": ("pairs", QUERY_OPS["component_of_edge"]),
    "classify_edges": ("pairs", Ops(random=3, alu=6)),
}

#: Batch update operations (``edges`` parameter: list of [u, v] pairs).
UPDATE_OPS = ("add_edges", "remove_edges")

#: Index maintenance modes (see module docstring).
REBUILD_MODES = ("sync", "async")

#: Query freshness levels under async maintenance.
FRESHNESS_LEVELS = ("any", "fresh")


@dataclass
class EngineStats:
    """Counters accumulated by a :class:`ServiceEngine` since its last
    :meth:`~ServiceEngine.reset_stats`.

    This is the one list of engine counters: the cluster's per-shard stat
    rows and the workload report derive from it.
    Each field's comment gives its definition and the event it counts.
    """

    #: query items answered (a batch counts its items) — ``query``
    queries: int = 0
    #: update batches applied, effective or not — ``update``
    updates: int = 0
    #: update batches that changed nothing — ``update.noop``
    noop_updates: int = 0
    #: query-path index lookups served from a cached index or current
    #: snapshot — ``cache.hit``
    cache_hits: int = 0
    #: query-path index lookups that caught up inline — ``cache.miss``
    cache_misses: int = 0
    #: every full index build, first builds included — ``index.build``
    #: with strategy ``full``
    rebuilds: int = 0
    #: LRU cache entries dropped — ``cache.evict``
    evictions: int = 0
    #: async: queries served from a stale snapshot — ``index.stale_hit``
    stale_hits: int = 0
    #: async: staleness budget blown, resolved inline — ``rebuild.force_sync``
    forced_syncs: int = 0
    #: async: background jobs enqueued / swapped in / refused admission —
    #: ``rebuild.queued`` / ``rebuild.swap`` / ``rebuild.reject``
    rebuilds_queued: int = 0
    rebuild_swaps: int = 0
    rebuilds_rejected: int = 0
    #: catch-ups over a pending delta chain, by outcome: patched vs fully
    #: rebuilt — ``index.build`` with ``chain`` set
    rebuilds_incremental: int = 0
    rebuilds_full: int = 0
    #: pending (undrained) delta-log entries across all graphs, right now
    delta_log_depth: int = 0
    #: background catch-ups that raised; the previous snapshot kept
    #: serving — ``rebuild.error``
    rebuild_errors: int = 0
    last_rebuild_error: str = ""
    #: wall seconds of every full build (the ``rebuilds``), sync and
    #: background — ``index.build`` seconds
    rebuild_wall_s: float = 0.0
    #: wall seconds per strategy name of the catch-ups over a pending
    #: delta chain (exactly those ``rebuilds_incremental``/``rebuilds_full``
    #: count) — ``index.build`` seconds
    rebuild_wall_by_strategy: dict = field(default_factory=dict)
    #: async: worst staleness age observed at a stale hit or swap, in ms
    max_staleness_ms: float = 0.0
    #: query items per op name — ``query.<op>``
    per_op: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "cache_hit_rate": self.cache_hit_rate}


class _CatchUpSink(Sink):
    """Folds ``index.build`` events into the catch-up fields of an
    :class:`EngineStats` (events arrive from the rebuild worker too)."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def on_event(self, name, path, t_ns, attrs) -> None:
        if name != "index.build":
            return
        strategy, seconds = attrs["strategy"], attrs["seconds"]
        with self._lock:
            st = self._stats
            if strategy == "full":
                st.rebuilds += 1
                st.rebuild_wall_s += seconds
            if attrs["chain"]:
                if strategy == "full":
                    st.rebuilds_full += 1
                else:
                    st.rebuilds_incremental += 1
                walls = st.rebuild_wall_by_strategy
                walls[strategy] = walls.get(strategy, 0.0) + seconds

    def stats(self) -> EngineStats:
        with self._lock:
            return replace(
                self._stats,
                rebuild_wall_by_strategy=dict(self._stats.rebuild_wall_by_strategy),
            )

    def reset(self) -> None:
        with self._lock:
            self._stats = EngineStats()


def _no_region(label: str):
    """The background worker's stand-in for :meth:`ServiceEngine._region`."""
    return nullcontext()


class ServiceEngine:
    """Serve biconnectivity point queries over named, updatable graphs."""

    def __init__(
        self,
        store: GraphStore | None = None,
        algorithm: str = "tv-filter",
        cache_size: int = 8,
        machine: Machine | None = None,
        telemetry: Telemetry | None = None,
        rebuild_mode: str = "sync",
        coalesce_ms: float = 0.0,
        staleness_budget_ms: float | None = 250.0,
        max_pending_rebuilds: int | None = 8,
        maintenance: str = "auto",
        clock=None,
    ):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if rebuild_mode not in REBUILD_MODES:
            raise ValueError(
                f"unknown rebuild_mode {rebuild_mode!r}; choose from {REBUILD_MODES}"
            )
        if maintenance not in MAINTENANCE_MODES:
            raise ValueError(
                f"unknown maintenance {maintenance!r}; choose from {MAINTENANCE_MODES}"
            )
        if coalesce_ms < 0:
            raise ValueError(f"coalesce_ms must be >= 0, got {coalesce_ms}")
        if staleness_budget_ms is not None and staleness_budget_ms < 0:
            raise ValueError(
                f"staleness_budget_ms must be >= 0 (or None), got {staleness_budget_ms}"
            )
        self.store = store if store is not None else GraphStore()
        self.algorithm = algorithm
        self.cache_size = int(cache_size)
        self.machine = machine
        if telemetry is not None:
            self.telemetry = telemetry
        elif machine is not None and not isinstance(machine, NullMachine):
            # share the machine's span tree so service events and spans
            # interleave with the simulated per-region attribution
            self.telemetry = machine.telemetry
        else:
            self.telemetry = Telemetry()
        self._counters = CounterSink()
        self._catch_ups = _CatchUpSink()
        self._events = Telemetry(
            [self._counters, self._catch_ups, ForwardSink(self.telemetry)]
        )
        self._cache: OrderedDict[str, BCCIndex] = OrderedDict()
        self._logs: dict[str, DeltaLog] = {}
        self.maintenance = maintenance
        self.rebuild_mode = rebuild_mode
        self.coalesce_ms = float(coalesce_ms)
        self.staleness_budget_ms = staleness_budget_ms
        self._clock = clock if clock is not None else time.monotonic
        # snapshot installs/evictions are serialized against the rebuild
        # worker; snapshot *reads* stay lock-free (GIL-atomic dict load).
        # Re-entrant: the background swap installs through the same
        # helpers as the inline path while holding it.
        self._swap_lock = threading.RLock()
        self._snapshots: dict[str, IndexSnapshot] = {}
        self._dirty_since: dict[str, float] = {}
        self._max_staleness_ms = 0.0
        self._scheduler: RebuildScheduler | None = None
        if rebuild_mode == "async":
            if machine is not None and not isinstance(machine, NullMachine):
                raise ValueError(
                    "rebuild_mode='async' cannot be combined with a simulated "
                    "machine: background rebuilds run off the (thread-unsafe) "
                    "span stack; use rebuild_mode='sync' for cost-model runs"
                )
            self._scheduler = RebuildScheduler(
                self._background_rebuild,
                telemetry=self._events,
                coalesce_s=self.coalesce_ms / 1000.0,
                max_pending=max_pending_rebuilds,
                clock=self._clock,
            )

    # ------------------------------------------------------------------ #
    # graph management
    # ------------------------------------------------------------------ #

    def put_graph(self, name: str, graph: Graph):
        """Store (or replace) a graph under ``name``."""
        if name in self.store:
            # wholesale replacement has no edge delta: the chain restarts
            self._logs.pop(name, None)
            entry = self.store.replace(name, graph)
            if self._scheduler is not None:
                self._mark_stale(name)
            return entry
        return self.store.put(name, graph)

    def graph(self, name: str) -> Graph:
        return self.store.get(name)

    # ------------------------------------------------------------------ #
    # index resolution (cache + lazy update replay)
    # ------------------------------------------------------------------ #

    def _region(self, label: str):
        if self.machine is not None:
            return self.machine.region(label)
        return self.telemetry.span(label)

    def index_for(self, name: str, freshness: str = "any") -> BCCIndex:
        """The current index for ``name``: cached, replayed, or rebuilt.

        Sync mode resolves inline (always exact).  Async mode serves the
        installed snapshot — possibly stale under ``freshness="any"`` —
        and only resolves inline for ``freshness="fresh"``, a blown
        staleness budget, or a graph with no snapshot yet.
        """
        if freshness not in FRESHNESS_LEVELS:
            raise ValueError(
                f"unknown freshness {freshness!r}; choose from {FRESHNESS_LEVELS}"
            )
        entry = self.store.entry(name)
        if self._scheduler is None or freshness == "fresh":
            return self._index_sync(name, entry)
        return self._index_async(name, entry)

    def _index_sync(self, name: str, entry) -> BCCIndex:
        """The inline path: cache hit, or catch up right here."""
        idx = self._cache.get(entry.fingerprint)
        if idx is not None:
            with self._swap_lock:
                self._cache.move_to_end(entry.fingerprint)
            self._events.event("cache.hit")
            snap = self._snapshots.get(name)
            if (snap is not None and snap.index is idx
                    and snap.fingerprint == entry.fingerprint
                    and snap.version == entry.version):
                return idx  # already installed for exactly this content
        else:
            self._events.event("cache.miss")
            idx = self._catch_up(name, entry, self._region, self.machine)
            self._cache_put(idx)
        self._install(name, idx, entry)
        return idx

    def _index_async(self, name: str, entry) -> BCCIndex:
        """Serve the snapshot; schedule revalidation instead of rebuilding."""
        snap = self._snapshots.get(name)
        if snap is not None and snap.fingerprint == entry.fingerprint:
            self._events.event("cache.hit")
            return snap.index
        cached = self._cache.get(entry.fingerprint)
        if cached is not None:
            # content seen before (revert / no-op churn): instant swap
            self._events.event("cache.hit")
            self._install(name, cached, entry)
            return cached
        if snap is None:
            # first query for this name: nothing to serve stale yet
            return self._index_sync(name, entry)
        age_ms = self._staleness_ms(name)
        if (
            self.staleness_budget_ms is not None
            and age_ms > self.staleness_budget_ms
        ):
            self._events.event("rebuild.force_sync")
            return self._index_sync(name, entry)
        self._max_staleness_ms = max(self._max_staleness_ms, age_ms)
        self._events.event("index.stale_hit")
        # ensure a revalidation is in flight (re-tries after a rejection)
        self._scheduler.schedule(name)
        return snap.index

    def _staleness_ms(self, name: str) -> float:
        since = self._dirty_since.get(name)
        if since is None:
            return 0.0
        return max(self._clock() - since, 0.0) * 1000.0

    def _cache_put(self, idx: BCCIndex) -> None:
        with self._swap_lock:
            self._cache[idx.fingerprint] = idx
            self._cache.move_to_end(idx.fingerprint)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self._events.event("cache.evict")

    def _install(self, name: str, idx: BCCIndex, entry, inline: bool = True) -> None:
        """Atomically publish ``idx`` as ``name``'s snapshot of ``entry``.

        An inline install supersedes any queued background job.  A
        background install whose content was overtaken by churn mid-build
        leaves the staleness mark (and the log its undrained suffix) in
        place; the scheduler's re-run mark converges on the newest content.
        """
        log = self._logs.get(name)
        with self._swap_lock:
            if log is not None:
                log.catch_up(entry.fingerprint, entry.version)
            self._snapshots[name] = IndexSnapshot(
                index=idx,
                fingerprint=entry.fingerprint,
                version=entry.version,
                built_at=self._clock(),
                source=idx.source,
                log_version=log.version if log is not None else 0,
            )
            if inline or self.store.entry(name).fingerprint == entry.fingerprint:
                self._dirty_since.pop(name, None)
        if inline and self._scheduler is not None:
            self._scheduler.cancel(name)

    def _mark_stale(self, name: str) -> None:
        """After an update: track staleness age and schedule revalidation."""
        entry = self.store.entry(name)
        snap = self._snapshots.get(name)
        if snap is not None and snap.fingerprint == entry.fingerprint:
            # the update reverted to the snapshot's content: fresh again
            log = self._logs.get(name)
            with self._swap_lock:
                if log is not None:
                    log.catch_up(entry.fingerprint, entry.version)
                self._dirty_since.pop(name, None)
            self._scheduler.cancel(name)
            return
        with self._swap_lock:
            self._dirty_since.setdefault(name, self._clock())
        if snap is not None:
            # only revalidate graphs someone is reading; a never-queried
            # name builds inline (and installs) on its first query
            self._scheduler.schedule(name)

    def _background_rebuild(self, name: str, job) -> None:
        """Scheduler runner: catch the index up to the latest content and
        swap it in atomically.

        Runs on the scheduler's worker thread, so it catches up outside
        the (thread-unsafe) span stack and machine; its ``index.build``
        and swap events are plain instant events.
        """
        try:
            entry = self.store.entry(name)
        except KeyError:
            return  # graph removed while queued
        snap = self._snapshots.get(name)
        if snap is not None and snap.fingerprint == entry.fingerprint:
            return  # revalidated meanwhile (revert or inline resolve)
        idx = self._cache.get(entry.fingerprint)
        if idx is None:
            idx = self._catch_up(name, entry)
        if job.cancelled:
            return
        with self._swap_lock:
            prev = self._snapshots.get(name)
            if prev is not None and prev.version >= entry.version and not prev.fresh_for(entry):
                return  # a newer snapshot raced in; ours is obsolete
            now = self._clock()
            stale_s = now - self._dirty_since.get(name, now)
            self._cache_put(idx)
            self._install(name, idx, entry, inline=False)
        swap_ms = max(now - job.queued_at, 0.0) * 1000.0
        stale_ms = max(stale_s, 0.0) * 1000.0
        self._max_staleness_ms = max(self._max_staleness_ms, stale_ms)
        self._events.event(
            "rebuild.swap",
            swap_latency_ms=round(swap_ms, 3),
            staleness_ms=round(stale_ms, 3),
        )

    def _base_index(self, fingerprint: str) -> BCCIndex | None:
        """A materialized index for ``fingerprint``, if any is on hand."""
        idx = self._cache.get(fingerprint)
        if idx is not None:
            return idx
        for snap in list(self._snapshots.values()):
            if snap.fingerprint == fingerprint:
                return snap.index
        return None

    def _catch_up(self, name: str, entry, region=_no_region, machine=None) -> BCCIndex:
        """Bring ``name``'s index up to stored ``entry``: the one
        maintenance path of both rebuild modes.

        Plans against the delta log, patches a qualifying chain, and falls
        back to one full build when the plan says so or a patch path's
        consistency guard bails.  The work that produced the index is
        timed once and reported as one ``index.build`` event.  Inline
        callers pass the engine's ``region`` and ``machine`` so the work
        lands in ``Service-extend``/``Service-build``; the background
        worker keeps the defaults (no span, no machine).
        """
        log = self._logs.get(name)
        deltas = len(log) if log is not None else 0
        plan = plan_maintenance(
            self.maintenance, log, entry, self._base_index, algorithm=self.algorithm
        )
        idx, strategy = None, plan.strategy
        if plan.incremental:
            t0 = time.perf_counter()
            with region("Service-extend"):
                idx = apply_plan(plan, machine=machine)
        if idx is None:
            strategy = "full"
            t0 = time.perf_counter()
            with region("Service-build"):
                idx = BCCIndex.build(
                    entry.graph,
                    algorithm=self.algorithm,
                    machine=machine,
                    fingerprint=entry.fingerprint,
                )
        self._events.event(
            "index.build",
            strategy=strategy,
            chain=deltas > 0,
            deltas=deltas,
            seconds=time.perf_counter() - t0,
        )
        return idx

    # ------------------------------------------------------------------ #
    # updates (lazy: log the delta, catch up on next resolution)
    # ------------------------------------------------------------------ #

    def _log_delta(
        self, name: str, pre_entry, kind: str, graph_after, new_entry, a, b
    ) -> None:
        """Append one effective update to ``name``'s delta log, classified
        against the pre-update index when one is materialized."""
        log = self._logs.get(name)
        if log is None:
            log = DeltaLog(
                name,
                base_fingerprint=pre_entry.fingerprint,
                base_version=pre_entry.version,
            )
            self._logs[name] = log
        base = self._base_index(pre_entry.fingerprint)
        if base is None:
            classification = "unknown"
        elif kind == "add":
            classification = classify_add(base, a, b)
        else:
            classification = classify_remove(base, a)
        log.append(
            DeltaEntry(
                kind=kind,
                graph_after=graph_after,
                fingerprint_after=new_entry.fingerprint,
                version=new_entry.version,
                applies_to=pre_entry.version,
                a=a,
                b=b,
                classification=classification,
            )
        )
        self._events.event("delta.append", op=classification)

    def add_edges(self, name: str, pairs) -> int:
        """Add a batch of edges to ``name``; returns the effective count."""
        entry = self.store.entry(name)
        ng, au, av = upd.apply_add_edges(entry.graph, pairs)
        self._events.event("update")
        if au.size == 0:
            self._events.event("update.noop")
            return 0
        new_entry = self.store.replace(name, ng)
        self._log_delta(name, entry, "add", ng, new_entry, au, av)
        if self._scheduler is not None:
            self._mark_stale(name)
        return int(au.size)

    def remove_edges(self, name: str, pairs) -> int:
        """Remove a batch of edges from ``name``; returns the effective count."""
        entry = self.store.entry(name)
        ng, removed = upd.apply_remove_edges(entry.graph, pairs)
        self._events.event("update")
        if removed.size == 0:
            self._events.event("update.noop")
            return 0
        new_entry = self.store.replace(name, ng)
        self._log_delta(name, entry, "remove", ng, new_entry, removed, None)
        if self._scheduler is not None:
            self._mark_stale(name)
        return int(removed.size)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def query(self, name: str, op: str, freshness: str = "any", **params):
        """Answer one point query (:data:`QUERY_OPS`) or one batched query
        (:data:`BATCH_OPS`) against the (lazily refreshed) index.

        The index is resolved (cache / replay / rebuild — or snapshot
        under async maintenance) once, so every item of a batch answers
        from the *same* consistent index.  The kernel runs inside one
        ``Service-query`` span; the simulated machine is charged the
        per-item cost times the item count (1 for a point op, the length
        of the op's items parameter for a batched op), and the counter
        sink records that count, so per-item stats survive batching.  A
        batched op returns the kernel's numpy result — element-wise
        identical to issuing each item as a point query.

        ``freshness`` only matters under ``rebuild_mode="async"``:
        ``"any"`` serves the installed snapshot (possibly stale, never a
        torn index), ``"fresh"`` blocks for an exact resolve.
        """
        if op in QUERY_OPS:
            count, per_item = 1, QUERY_OPS[op]
        elif op in BATCH_OPS:
            items_key, per_item = BATCH_OPS[op]
            count = len(params.get(items_key, ()))
        else:
            raise ValueError(
                f"unknown query op {op!r}; choose from "
                f"{sorted(QUERY_OPS) + sorted(BATCH_OPS)}"
            )
        idx = self.index_for(name, freshness=freshness)
        with self._region("Service-query"):
            if self.machine is not None and count:
                self.machine.sequential(count, per_item)
            answer = getattr(idx, op)(**params)
        self._events.event("query", op=op, count=count)
        return answer

    def apply(self, name: str, op: dict, freshness: str = "any"):
        """Execute one workload-format operation dict against ``name``.

        Query ops return their answer; update ops return the effective
        edge count.  The op dict uses the JSON-lines schema of
        :mod:`repro.service.workload` (``{"op": ..., ...params}`` for
        point ops, ``{"op": ..., "params": {...}}`` for batched ops).
        Cluster routing keys (``graph``/``tenant``/``seq``) are ignored,
        so routed records replay unchanged on a single engine.
        """
        kind = op["op"]
        if kind in QUERY_OPS:
            params = {k: v for k, v in op.items()
                      if k not in ("op", "graph", "tenant", "seq")}
            return self.query(name, kind, freshness=freshness, **params)
        if kind in BATCH_OPS:
            return self.query(name, kind, freshness=freshness,
                              **op.get("params", {}))
        if kind == "add_edges":
            return self.add_edges(name, op["edges"])
        if kind == "remove_edges":
            return self.remove_edges(name, op["edges"])
        raise ValueError(f"unknown workload op {kind!r}")

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def snapshot_for(self, name: str) -> IndexSnapshot | None:
        """The installed snapshot for ``name`` (None before first query)."""
        return self._snapshots.get(name)

    def delta_log_for(self, name: str) -> DeltaLog | None:
        """``name``'s delta log (None before its first effective update)."""
        return self._logs.get(name)

    def staleness_ms(self, name: str) -> float:
        """Wall-clock ms the snapshot has lagged the stored content (0 = fresh)."""
        return self._staleness_ms(name)

    @property
    def stats(self) -> EngineStats:
        """Counters since the last reset, assembled from the engine's sinks."""
        c = self._counters
        return replace(
            self._catch_ups.stats(),
            queries=c["query"],
            updates=c["update"],
            noop_updates=c["update.noop"],
            cache_hits=c["cache.hit"],
            cache_misses=c["cache.miss"],
            evictions=c["cache.evict"],
            stale_hits=c["index.stale_hit"],
            forced_syncs=c["rebuild.force_sync"],
            rebuilds_queued=c["rebuild.queued"],
            rebuild_swaps=c["rebuild.swap"],
            rebuilds_rejected=c["rebuild.reject"],
            delta_log_depth=sum(len(log) for log in self._logs.values()),
            rebuild_errors=c["rebuild.error"],
            last_rebuild_error=(
                self._scheduler.last_error if self._scheduler is not None else ""
            ),
            max_staleness_ms=self._max_staleness_ms,
            per_op=c.prefixed("query"),
        )

    def reset_stats(self) -> None:
        self._counters.reset()
        self._catch_ups.reset()
        self._max_staleness_ms = 0.0
        if self._scheduler is not None:
            self._scheduler.reset_stats()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for all scheduled background rebuilds to settle (async mode)."""
        if self._scheduler is None:
            return True
        return self._scheduler.drain(timeout)

    def close(self) -> None:
        """Shut down background maintenance; idempotent, sync engines no-op."""
        if self._scheduler is not None:
            self._scheduler.close()

    def __enter__(self) -> "ServiceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServiceEngine(graphs={len(self.store)}, algorithm={self.algorithm!r}, "
            f"cached={len(self._cache)}/{self.cache_size}, mode={self.rebuild_mode!r}, "
            f"maintenance={self.maintenance!r})"
        )
