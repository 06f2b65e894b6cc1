"""The shard router: the cluster's single multi-tenant front door.

A :class:`ShardRouter` owns N shard engines (hosted by a
:mod:`repro.cluster.backend`), places every named graph on the shard
chosen by :func:`repro.cluster.partition.shard_of`, and answers batches
of workload records by scatter/gather:

1. ``Cluster-route`` — split the batch into per-shard frames (stable
   sequence numbers; see :mod:`repro.cluster.frames`) and apply tenant
   admission,
2. ``Cluster-scatter`` — dispatch every frame to its shard (concurrently
   on the process backend) and decode its answers,
3. ``Cluster-gather`` — reassemble answers into the original record
   order.

Those three phases are telemetry spans on the router's
:class:`~repro.obs.Telemetry`; shard execution additionally emits one
worker span per shard, so ``--trace`` shows a per-shard timeline under
the routing spans.

Multi-tenancy is enforced at this layer, not in the engines:

* **Per-tenant LRU budget** (``tenant_graph_budget``): each tenant may
  keep at most that many named graphs resident.  Storing one more
  evicts the tenant's least-recently-*used* graph (touched by queries,
  not just puts) from its shard — store entry, pending deltas, and the
  next index rebuild's input all go with it.
* **Per-tenant admission** (``tenant_batch_quota``): at most that many
  query/update *items* per tenant per ``apply_batch`` call; overflow
  records are not executed and answer with a :class:`Rejected` marker.
* **Admission counters**: every routed record emits a ``tenant.admit``
  (or ``tenant.reject``) event with the tenant as the ``op`` attribute,
  so the router's :class:`~repro.obs.CounterSink` accumulates
  ``tenant.admit.<tenant>`` breakdowns exactly like the engine's
  ``per_op`` stats.  Like an engine, the router counts on a private
  telemetry that forwards every event to the one it was given, so
  routers sharing a telemetry never count each other's tenants.

The router is thread-safe: one lock serializes routing (the process
backend's pipes are single-consumer), which models a single front-end
event loop — concurrent drivers contend for the door, shards do the
work.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..graph import Graph
from ..obs import CounterSink, ForwardSink, Telemetry
from ..service.workload import op_item_count
from .backend import make_backend
from .frames import gather, split_records
from .partition import shard_of

__all__ = ["Rejected", "ClusterStats", "ShardRouter", "DEFAULT_TENANT"]

#: Tenant attributed when a record/graph names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class Rejected:
    """Answer marker for a record refused by tenant admission control."""

    tenant: str
    reason: str

    def __bool__(self) -> bool:  # never truthy — fails loud in comparisons
        return False


@dataclass
class ClusterStats:
    """Router-level view: shard engine counters plus tenant admission.

    ``per_shard`` rows carry the engine freshness counters
    (``stale_hits``/``forced_syncs``/``rebuild_swaps``/``max_staleness_ms``)
    when shards run async maintenance; ``rebuild_mode`` and the
    cluster-wide worst ``max_staleness_ms`` summarize them up here.
    """

    num_shards: int
    backend: str
    graphs: dict  # name -> shard
    per_shard: list  # engine counters per shard (backend.STAT_FIELDS)
    tenants: dict  # tenant -> {"admitted", "rejected", "items", "graphs", "evictions"}
    rebuild_mode: str = "sync"
    max_staleness_ms: float = 0.0
    maintenance: str = "auto"
    rebuild_errors: int = 0

    def as_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "backend": self.backend,
            "graphs": dict(self.graphs),
            "per_shard": list(self.per_shard),
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "rebuild_mode": self.rebuild_mode,
            "max_staleness_ms": self.max_staleness_ms,
            "maintenance": self.maintenance,
            "rebuild_errors": self.rebuild_errors,
        }


class ShardRouter:
    """Route named-graph workload records across shard engines."""

    def __init__(
        self,
        num_shards: int = 2,
        backend: str = "serial",
        algorithm: str = "tv-filter",
        cache_size: int = 8,
        telemetry: Telemetry | None = None,
        tenant_graph_budget: int | None = None,
        tenant_batch_quota: int | None = None,
        default_graph: str = "g0",
        rebuild_mode: str = "sync",
        coalesce_ms: float = 0.0,
        staleness_budget_ms: float | None = 250.0,
        maintenance: str = "auto",
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if tenant_graph_budget is not None and tenant_graph_budget < 1:
            raise ValueError("tenant_graph_budget must be >= 1 (or None)")
        if tenant_batch_quota is not None and tenant_batch_quota < 1:
            raise ValueError("tenant_batch_quota must be >= 1 (or None)")
        self.num_shards = int(num_shards)
        self.backend_name = backend
        self.default_graph = default_graph
        self.tenant_graph_budget = tenant_graph_budget
        self.tenant_batch_quota = tenant_batch_quota
        self.rebuild_mode = rebuild_mode
        self.maintenance = maintenance
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._counters = CounterSink()
        self._events = Telemetry([self._counters, ForwardSink(self.telemetry)])
        self.backend = make_backend(
            backend,
            num_shards,
            algorithm=algorithm,
            cache_size=cache_size,
            telemetry=self.telemetry,
            rebuild_mode=rebuild_mode,
            coalesce_ms=coalesce_ms,
            staleness_budget_ms=staleness_budget_ms,
            maintenance=maintenance,
        )
        self._lock = threading.Lock()
        self._shard_of_graph: dict[str, int] = {}
        self._tenant_of_graph: dict[str, str] = {}
        # tenant -> LRU-ordered graph names (least recent first)
        self._tenant_lru: dict[str, OrderedDict] = {}
        self._tenant_evictions: dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # graph placement
    # ------------------------------------------------------------------ #

    def put_graph(self, name: str, graph: Graph, tenant: str | None = None) -> int:
        """Place ``graph`` on its shard; returns the shard id.

        Re-putting an existing name replaces the graph in place (same
        shard — placement is by name).  A new name charges the tenant's
        graph budget and may LRU-evict the tenant's coldest graph.
        """
        tenant = tenant or DEFAULT_TENANT
        with self._lock:
            self._ensure_open()
            shard = shard_of(name, self.num_shards)
            is_new = name not in self._shard_of_graph
            self.backend.put_graph(shard, name, graph)
            self._shard_of_graph[name] = shard
            self._tenant_of_graph[name] = tenant
            lru = self._tenant_lru.setdefault(tenant, OrderedDict())
            lru[name] = None
            lru.move_to_end(name)
            self._events.event("cluster.put", op=tenant)
            if (
                is_new
                and self.tenant_graph_budget is not None
                and len(lru) > self.tenant_graph_budget
            ):
                victim, _ = lru.popitem(last=False)
                self._remove_locked(victim)
                self._tenant_evictions[tenant] = (
                    self._tenant_evictions.get(tenant, 0) + 1
                )
                self._events.event("tenant.evict", op=tenant)
            return shard

    def remove_graph(self, name: str) -> None:
        with self._lock:
            self._ensure_open()
            if name not in self._shard_of_graph:
                raise KeyError(f"no graph named {name!r} in cluster")
            self._remove_locked(name)

    def _remove_locked(self, name: str) -> None:
        shard = self._shard_of_graph.pop(name)
        tenant = self._tenant_of_graph.pop(name)
        self._tenant_lru.get(tenant, OrderedDict()).pop(name, None)
        self.backend.remove_graph(shard, name)

    def graphs(self) -> dict:
        """Current placement: graph name -> shard id."""
        return dict(self._shard_of_graph)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #

    def _tenant_of(self, record: dict) -> str:
        tenant = record.get("tenant")
        if tenant is None:
            tenant = self._tenant_of_graph.get(
                record.get("graph", self.default_graph)
            )
        return tenant or DEFAULT_TENANT

    def apply_batch(self, records) -> list:
        """Answer a batch of workload records, preserving input order.

        Each record is the JSON-lines op schema of
        :mod:`repro.service.workload` plus optional ``graph`` (default:
        the router's ``default_graph``) and ``tenant`` routing keys.
        Answers are element-wise identical to running the same records
        through one :class:`~repro.service.engine.ServiceEngine` holding
        all the graphs; records over a tenant's batch quota answer with
        :class:`Rejected` instead of executing.
        """
        records = list(records)
        with self._lock:
            self._ensure_open()
            with self.telemetry.span("Cluster-route", records=len(records)):
                admitted, rejected = self._admit(records)
                frames, total_slots = split_records(
                    admitted, self.num_shards, default_graph=self.default_graph
                )
                for record in admitted:
                    tenant = self._tenant_of(record)
                    lru = self._tenant_lru.get(tenant)
                    if lru is not None:
                        name = record.get("graph", self.default_graph)
                        if name in lru:
                            lru.move_to_end(name)
            with self.telemetry.span("Cluster-scatter", shards=len(frames)):
                answers_by_seq = self.backend.execute(frames, total_slots)
            with self.telemetry.span("Cluster-gather"):
                routed = gather(frames, answers_by_seq, len(admitted))
        # re-interleave rejections at their original positions
        if not rejected:
            return routed
        out, it = [], iter(routed)
        for i in range(len(records)):
            out.append(rejected[i] if i in rejected else next(it))
        return out

    def _admit(self, records) -> tuple:
        """Split a batch into admitted records and ``{index: Rejected}``."""
        admitted, rejected = [], {}
        spent: dict[str, int] = {}
        for i, record in enumerate(records):
            tenant = self._tenant_of(record)
            items = max(1, op_item_count(record))
            if (
                self.tenant_batch_quota is not None
                and spent.get(tenant, 0) + items > self.tenant_batch_quota
            ):
                rejected[i] = Rejected(tenant, "batch quota exceeded")
                self._events.event("tenant.reject", op=tenant)
                continue
            spent[tenant] = spent.get(tenant, 0) + items
            admitted.append(record)
            self._events.event("tenant.admit", op=tenant)
            self._events.event("tenant.items", op=tenant, count=items)
        return admitted, rejected

    def apply(self, record: dict):
        """Answer one record (a size-1 :meth:`apply_batch`)."""
        return self.apply_batch([record])[0]

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def stats(self) -> ClusterStats:
        with self._lock:
            self._ensure_open()
            per_shard = self.backend.shard_stats()
            tenants = {}
            seen = set(self._tenant_lru) | {
                key[len("tenant.admit."):]
                for key in self._counters.counts
                if key.startswith("tenant.admit.")
            }
            for tenant in sorted(seen):
                tenants[tenant] = {
                    "admitted": self._counters[f"tenant.admit.{tenant}"],
                    "rejected": self._counters[f"tenant.reject.{tenant}"],
                    "items": self._counters[f"tenant.items.{tenant}"],
                    "graphs": len(self._tenant_lru.get(tenant, ())),
                    "evictions": self._tenant_evictions.get(tenant, 0),
                }
            return ClusterStats(
                num_shards=self.num_shards,
                backend=self.backend_name,
                graphs=dict(self._shard_of_graph),
                per_shard=per_shard,
                tenants=tenants,
                rebuild_mode=self.rebuild_mode,
                max_staleness_ms=float(max(
                    (row.get("max_staleness_ms", 0) for row in per_shard),
                    default=0,
                )),
                maintenance=self.maintenance,
                rebuild_errors=sum(
                    row.get("rebuild_errors", 0) for row in per_shard
                ),
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("router already closed")

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.backend.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={self.num_shards}, backend={self.backend_name!r}, "
            f"graphs={len(self._shard_of_graph)})"
        )
