"""Workload driver: execute an op stream against the engine and measure it.

The driver reports the service-level quantities the ROADMAP's scaling PRs
need a trajectory for — throughput, per-op-type latency percentiles
(p50/p95/p99), cache hit rate, rebuild and incremental-maintenance counts —
in *both* wall-clock time and simulated :class:`repro.smp.Machine` time, so
a workload's cost decomposes the same way as the paper's Fig. 3/4
methodology (total simulated seconds at ``p`` processors, split by region).

Latency is reported at two granularities: per *record* (a batched op is
one record) and amortized per *item* (each batch's span split over its
items), so a batched workload shows the per-item dispatch cost
collapsing as batches grow.

``verify=True`` cross-checks every query answer against a from-scratch
recomputation — sequential Hopcroft–Tarjan plus a fresh block-cut tree —
recomputed whenever the graph content changes; batched ops are checked
element-wise, one oracle answer per item.  This is the engine's
ground-truth harness (and the CI workload smoke jobs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.blockcut import block_cut_tree
from ..core.result import BCCResult
from ..core.tarjan import tarjan_bcc
from ..graph import Graph
from ..obs import Telemetry, WallClockSink
from ..smp import Machine
from .engine import EngineStats, ServiceEngine
from .store import graph_fingerprint
from .workload import (
    BATCH_OP_NAMES,
    QUERY_OP_NAMES,
    Workload,
    instance_graph,
    op_item_count,
)

__all__ = ["WorkloadReport", "run_workload", "oracle_answer"]

_PERCENTILES = (50.0, 95.0, 99.0)

#: Batched op -> the point op each item is verified through.
_BATCH_TO_SCALAR = {
    "same_bcc_many": "same_bcc",
    "is_articulation_many": "is_articulation",
    "is_bridge_many": "is_bridge",
    "component_of_edge_many": "component_of_edge",
}


def oracle_answer(result: BCCResult, op: dict):
    """Brute-force answer for one query op from a from-scratch result.

    Uses only :class:`~repro.core.result.BCCResult` accessors and a fresh
    block-cut tree — deliberately none of the index's precomputed arrays —
    so index bugs cannot cancel out.  Batched ops are answered
    element-wise through the corresponding point-op oracle (a list of
    per-item answers; ``classify_edges`` yields per-item dicts), which is
    exactly the bit-identity contract the batch kernels must meet.
    """
    g = result.graph
    kind = op["op"]
    if kind in _BATCH_TO_SCALAR:
        scalar = _BATCH_TO_SCALAR[kind]
        if kind == "is_articulation_many":
            return [oracle_answer(result, {"op": scalar, "v": v})
                    for v in op["params"]["vs"]]
        return [oracle_answer(result, {"op": scalar, "u": u, "v": v})
                for u, v in op["params"]["pairs"]]
    if kind == "classify_edges":
        out = []
        for u, v in op["params"]["pairs"]:
            blk = oracle_answer(result, {"op": "component_of_edge", "u": u, "v": v})
            out.append({
                "block": -1 if blk is None else blk,
                "is_bridge": oracle_answer(result, {"op": "is_bridge", "u": u, "v": v}),
            })
        return out
    if kind not in QUERY_OP_NAMES:
        raise ValueError(f"unknown query op {kind!r}")
    if kind == "num_components":
        return result.num_components
    if kind == "is_articulation":
        bct = block_cut_tree(result)
        return bool(np.isin(op["v"], bct.cut_vertices))
    u, v = int(op["u"]), int(op["v"])
    if kind == "same_bcc":
        a = result.blocks_of_vertex(u)
        b = result.blocks_of_vertex(v)
        return bool(np.intersect1d(a, b).size)
    # edge-shaped ops: locate {u, v} by scanning the edge list
    lo, hi = (u, v) if u < v else (v, u)
    ids = np.flatnonzero((g.u == lo) & (g.v == hi))
    if kind == "is_bridge":
        return bool(ids.size) and bool(np.isin(ids[0], result.bridges()))
    return int(result.edge_labels[ids[0]]) if ids.size else None  # component_of_edge


def _mismatches(kind: str, answer, expected) -> int:
    """Item-wise disagreement count between engine answer and oracle."""
    if kind in QUERY_OP_NAMES:
        return int(answer != expected)
    if kind == "classify_edges":
        bad = 0
        for i, exp in enumerate(expected):
            bad += int(int(answer["block"][i]) != exp["block"]
                       or bool(answer["is_bridge"][i]) != exp["is_bridge"])
        return bad
    if kind == "component_of_edge_many":
        want = np.asarray([-1 if e is None else e for e in expected], dtype=np.int64)
        return int(np.sum(np.asarray(answer, dtype=np.int64) != want))
    # boolean batch ops
    want = np.asarray(expected, dtype=bool)
    return int(np.sum(np.asarray(answer, dtype=bool) != want))


class _RecomputeOracle:
    """From-scratch recomputation, refreshed whenever the graph changes."""

    def __init__(self):
        self._fingerprint = None
        self._result = None

    def answer(self, g: Graph, op: dict):
        fp = graph_fingerprint(g)
        if fp != self._fingerprint:
            self._result = tarjan_bcc(g)
            self._fingerprint = fp
        return oracle_answer(self._result, op)


@dataclass(kw_only=True)
class WorkloadReport(EngineStats):
    """Measured outcome of one workload execution.

    Carries every :class:`~repro.service.engine.EngineStats` counter of
    the run (the engine's stats are reset at its start) next to the
    driver's own measurements; :meth:`as_dict` is one flat document.
    """

    graph_n: int
    graph_m: int
    num_ops: int
    num_queries: int
    num_updates: int
    algorithm: str
    wall_s: float
    throughput_ops_s: float
    #: individual query answers produced (batched records weighted by
    #: their item count; equals num_queries for an unbatched workload)
    num_query_items: int = 0
    #: amortized per-item throughput: (query items + update records) / wall
    throughput_items_s: float = 0.0
    #: op type -> {"count", "mean_us", "p50_us", "p95_us", "p99_us",
    #: "items", "per_item_us": {...}} — per-record (per-batch) latencies
    #: plus the amortized per-item view of the same spans
    latency_us: dict = field(default_factory=dict)
    #: aggregate per-record percentiles over all query ops
    query_p50_us: float = 0.0
    query_p95_us: float = 0.0
    query_p99_us: float = 0.0
    #: aggregate amortized per-item percentiles over all query ops
    query_item_p50_us: float = 0.0
    query_item_p95_us: float = 0.0
    query_item_p99_us: float = 0.0
    #: the engine's index maintenance mode and strategy knob, and the
    #: freshness queries asked
    rebuild_mode: str = "sync"
    maintenance: str = "auto"
    freshness: str = "any"
    #: simulated machine accounting (None when run uninstrumented)
    p: int | None = None
    sim_time_s: float | None = None
    sim_regions: dict | None = None
    verified: bool | None = None
    mismatches: int = 0


def _percentiles(ns) -> dict:
    arr = np.asarray(ns, dtype=np.float64) / 1000.0  # ns -> us
    if arr.size == 0:
        # an op type that never fired (short workload / narrow mix)
        return {"count": 0, "mean_us": 0.0, "p50_us": 0.0,
                "p95_us": 0.0, "p99_us": 0.0}
    p50, p95, p99 = np.percentile(arr, _PERCENTILES)
    return {
        "count": int(arr.size),
        "mean_us": float(arr.mean()),
        "p50_us": float(p50),
        "p95_us": float(p95),
        "p99_us": float(p99),
    }


def _per_item_ns(ns, items) -> np.ndarray:
    """Amortized per-item latencies: each batch's span split evenly.

    A record of k items run in t ns contributes k samples of t/k, so the
    percentile distribution is over *items*, not records.
    """
    arr = np.asarray(ns, dtype=np.float64)
    counts = np.asarray(items, dtype=np.int64)
    live = counts > 0
    return np.repeat(arr[live] / counts[live], counts[live])


def run_workload(
    workload: Workload,
    graph: Graph | None = None,
    engine: ServiceEngine | None = None,
    name: str = "workload",
    algorithm: str = "tv-filter",
    machine: Machine | None = None,
    cache_size: int = 8,
    verify: bool = False,
    rebuild_mode: str = "sync",
    coalesce_ms: float = 0.0,
    staleness_budget_ms: float | None = 250.0,
    max_pending_rebuilds: int | None = 8,
    freshness: str | None = None,
    maintenance: str = "auto",
) -> WorkloadReport:
    """Execute every op of ``workload`` against an engine and measure.

    The graph comes from (in order): the explicit ``graph`` argument, or
    the workload header's graph spec.  A fresh engine is built unless one
    is passed in (whose algorithm/machine/rebuild mode then win); engine
    stats are reset so the report covers exactly this run.

    ``rebuild_mode="async"`` runs the engine in stale-while-revalidate
    mode (see :mod:`repro.service.engine`); the driver drains pending
    background rebuilds before reading stats, and closes the engine on
    the way out when it created it.  ``freshness`` defaults to ``"any"``
    — except under ``verify`` with an async engine, where it defaults to
    ``"fresh"`` so every answer is exact against the recompute oracle
    (stale-serving consistency is covered by the hypothesis property
    tests instead).
    """
    owned = engine is None
    if engine is None:
        engine = ServiceEngine(algorithm=algorithm, cache_size=cache_size,
                               machine=machine, rebuild_mode=rebuild_mode,
                               coalesce_ms=coalesce_ms,
                               staleness_budget_ms=staleness_budget_ms,
                               max_pending_rebuilds=max_pending_rebuilds,
                               maintenance=maintenance)
    if freshness is None:
        freshness = "fresh" if (verify and engine.rebuild_mode == "async") else "any"
    if graph is None:
        graph = instance_graph(workload.spec)
    engine.put_graph(name, graph)
    engine.drain()
    engine.reset_stats()
    machine = engine.machine
    sim_before = machine.time_s if machine is not None else 0.0

    oracle = _RecomputeOracle() if verify else None
    mismatches = 0
    # Request latencies are spans on a driver-private telemetry: one span
    # per op record, keyed by op type, with every individual duration kept
    # for percentiles.  Deliberately *not* the engine/machine telemetry —
    # request spans are a wall-clock measurement frame, not a simulated
    # cost region, and must not re-root the Service-* attribution.
    req_sink = WallClockSink(record_each=True)
    req_tel = Telemetry(sinks=[req_sink])
    items_by_kind: dict[str, list[int]] = {}
    try:
        with req_tel.span("workload"):
            for op in workload.ops:
                kind = op["op"]
                items_by_kind.setdefault(kind, []).append(op_item_count(op))
                with req_tel.span(kind):
                    answer = engine.apply(name, op, freshness=freshness)
                if oracle is not None and (kind in QUERY_OP_NAMES
                                           or kind in BATCH_OP_NAMES):
                    expected = oracle.answer(engine.graph(name), op)
                    mismatches += _mismatches(kind, answer, expected)
        # settle in-flight background rebuilds so the stats (and any
        # follow-up use of the engine) reflect the whole run; outside the
        # workload span — convergence time is not request latency
        engine.drain()
    finally:
        if owned:
            engine.close()
    wall = req_sink.seconds["workload"]
    latencies = {
        path.split(".", 1)[1]: ns
        for path, ns in (req_sink.durations_ns or {}).items()
        if path.startswith("workload.")
    }

    st = engine.stats
    latency_us = {}
    for kind, ns in sorted(latencies.items()):
        entry = _percentiles(ns)
        items = items_by_kind.get(kind, [1] * len(ns))
        entry["items"] = int(sum(items))
        per = _percentiles(_per_item_ns(ns, items))
        per.pop("count", None)
        entry["per_item_us"] = per
        latency_us[kind] = entry
    is_query = lambda k: k in QUERY_OP_NAMES or k in BATCH_OP_NAMES  # noqa: E731
    query_ns = [ns for k, v in latencies.items() if is_query(k) for ns in v]
    q50 = q95 = q99 = 0.0
    if query_ns:
        agg = _percentiles(query_ns)
        q50, q95, q99 = agg["p50_us"], agg["p95_us"], agg["p99_us"]
    item_ns = np.concatenate([
        _per_item_ns(v, items_by_kind.get(k, [1] * len(v)))
        for k, v in latencies.items() if is_query(k)
    ]) if query_ns else np.zeros(0)
    i50 = i95 = i99 = 0.0
    if item_ns.size:
        agg = _percentiles(item_ns)
        i50, i95, i99 = agg["p50_us"], agg["p95_us"], agg["p99_us"]
    num_query_items = workload.num_query_items
    total_items = num_query_items + workload.num_updates

    report = WorkloadReport(
        graph_n=graph.n,
        graph_m=graph.m,
        num_ops=len(workload.ops),
        num_queries=workload.num_queries,
        num_updates=workload.num_updates,
        algorithm=engine.algorithm,
        wall_s=wall,
        throughput_ops_s=len(workload.ops) / wall if wall > 0 else 0.0,
        num_query_items=num_query_items,
        throughput_items_s=total_items / wall if wall > 0 else 0.0,
        latency_us=latency_us,
        query_p50_us=q50,
        query_p95_us=q95,
        query_p99_us=q99,
        query_item_p50_us=i50,
        query_item_p95_us=i95,
        query_item_p99_us=i99,
        rebuild_mode=engine.rebuild_mode,
        maintenance=engine.maintenance,
        freshness=freshness,
        **vars(st),
    )
    if machine is not None:
        rep = machine.report()
        report.p = machine.p
        report.sim_time_s = machine.time_s - sim_before
        report.sim_regions = {
            k: float(v) for k, v in rep.region_times_s().items() if k.startswith("Service-")
        }
        report.sim_time_s = float(report.sim_time_s)
    if verify:
        report.verified = mismatches == 0
        report.mismatches = mismatches
    return report
