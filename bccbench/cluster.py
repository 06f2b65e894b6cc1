"""Workload ``cluster-read``: read-only frames through a two-shard router.

A round starts a ``ShardRouter`` on the ``processes`` backend with two
shards, places the four graphs (two per shard, checked from
``ShardRouter.graphs()``), builds every index with one query per graph
(the set-up sample), then sends the round's frames one by one through
``ShardRouter.apply_batch``, each timed on its own, and closes the
router.  Every round replays the same frames on a fresh router.

The benchmark hands the router a ``Telemetry`` carrying its own sink: an
:class:`probes.EventCounter` (shared-memory allocations) in untraced
rounds, a :class:`probes.Recorder` (route/scatter/gather spans, worker
spans, events) in traced ones.
"""

from __future__ import annotations

import time
from multiprocessing import resource_tracker

from repro.cluster import Rejected, ShardRouter
from repro.obs import Telemetry

from common import (
    Outcome, SetupError, Stopwatch, digest, median, pct, peak_rss_mb, rounds_until,
    steal_ticks,
)
from inputs import CLUSTER_PLACEMENT, CLUSTER_SHARDS, cluster_frames, cluster_graphs, item_count
from probes import EventCounter, Recorder
from reference import reference, same_answer


def _start(seed: int, traced: bool):
    graphs = cluster_graphs(seed)
    sink = Recorder() if traced else EventCounter()
    router = ShardRouter(num_shards=CLUSTER_SHARDS, backend="processes",
                         telemetry=Telemetry([sink]))
    try:
        for name, g in graphs.items():
            router.put_graph(name, g)
        placement = router.graphs()
        if placement != CLUSTER_PLACEMENT:
            raise SetupError(f"graphs not placed as planned: {placement}")
        router.apply_batch([{"op": "num_components", "graph": n} for n in graphs])
    except BaseException:
        router.close()
        raise
    sink.take()
    if traced:
        sink.take_spans()
    return router, sink, placement


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    frames = cluster_frames(seed, cluster_graphs(seed))
    out = Outcome()
    setup_s, lat = [], {False: [], True: []}
    round_wall = {False: [], True: []}
    rss = 0.0
    # answers of the first round, and of any later round that differs from
    # it; a round with equal answers is checked by the first round's check
    kept, same_as_first = [], 0
    layer = {k: [] for k in ("route", "scatter", "gather", "worker", "transport",
                             "covered")}
    frame_items = [sum(item_count(r) for r in frame) for frame in frames]
    deadline = time.perf_counter() + seconds
    for r in rounds_until(deadline, min_rounds=2 if trace else 1):
        traced = trace and r % 2 == 1
        with Stopwatch() as sw:
            router, sink, placement = _start(seed, traced)
        if not traced:
            setup_s.append(sw.s)
        lats, answers, spans_of = [], [], []
        steal0 = steal_ticks()
        try:
            for frame in frames:
                t0 = time.perf_counter()
                try:
                    got = router.apply_batch(frame)
                except Exception as exc:  # the whole frame failed
                    got = [exc] * len(frame)
                lats.append(time.perf_counter() - t0)
                answers.append(got)
                if traced:
                    spans_of.append(sink.take_spans())
            rss = max(rss, peak_rss_mb(include_children=True))
            events = sink.take()  # before stats(), which allocates a segment too
            shard_rows = router.stats().per_shard
        finally:
            router.close()
        out.notes.setdefault("round_steal", []).append(steal_ticks() - steal0)
        out.attempted += sum(len(f) for f in frames)
        lat[traced].extend(lats)
        round_wall[traced].append(sum(lats))
        answers_hash = digest(answers)
        if not kept or answers_hash != out.work[0]["answers"]:
            kept.append(answers)
        else:
            same_as_first += 1
        out.work.append({
            "frames": len(frames),
            "records": sum(len(f) for f in frames),
            "items": sum(frame_items),
            "shm_allocs": events.get("shm.alloc", 0),
            "shard_queries": [row["queries"] for row in shard_rows],
            "shard_full_builds": [row["rebuilds"] for row in shard_rows],
            "answers": answers_hash,
        })
        if traced:
            _trace_round(lats, spans_of, layer)
    out.notes["rounds"] = r + 1
    out.notes["round_wall_s"] = round_wall
    # the program's shared-memory use started multiprocessing's resource
    # tracker; end it too, and wait for it, so the run leaves no process
    resource_tracker._resource_tracker._stop()
    _check(seed, frames, kept, same_as_first, out)

    untraced = lat[False]
    out.end_to_end = {
        "setup_s": median(setup_s),
        "items_per_s": sum(frame_items) * len(round_wall[False]) / sum(untraced),
        "op_us_p50": median(untraced) * 1e6,
        "op_us_p99": pct(untraced, 99) * 1e6,
        "peak_rss_mb": rss,
    }
    out.notes["frames_timed"] = len(untraced)
    if trace:
        w = out.work[-1]
        shard_items = [0] * CLUSTER_SHARDS
        for frame in frames:
            for record in frame:
                shard_items[placement[record["graph"]]] += item_count(record)
        out.per_layer = {
            "cluster.route_us_p50": median(layer["route"]) * 1e6,
            "cluster.scatter_us_p50": median(layer["scatter"]) * 1e6,
            "cluster.gather_us_p50": median(layer["gather"]) * 1e6,
            "cluster.worker_us_p50": median(layer["worker"]) * 1e6,
            "cluster.transport_us_p50": median(layer["transport"]) * 1e6,
            "cluster.shm_allocs_per_frame": w["shm_allocs"] / w["frames"],
            "cluster.frame_us_p99": pct(lat[True], 99) * 1e6,
            "cluster.shard_items_max_over_mean":
                max(shard_items) / (sum(shard_items) / CLUSTER_SHARDS),
            "obs.trace_overhead_pct.cluster-read":
                (median(round_wall[True]) / median(round_wall[False]) - 1.0) * 100.0,
            "obs.layer_coverage_pct.cluster-read": median(layer["covered"]),
        }
    return out


def _trace_round(lats, spans_of, layer) -> None:
    covered = 0.0
    for latency, (spans, workers) in zip(lats, spans_of):
        phase = {"Cluster-route": 0.0, "Cluster-scatter": 0.0, "Cluster-gather": 0.0}
        for path, t0, t1 in spans:
            if path in phase:
                phase[path] += (t1 - t0) * 1e-9
        slowest = max(((t1 - t0) * 1e-9 for _, _, t0, t1 in workers), default=0.0)
        layer["route"].append(phase["Cluster-route"])
        layer["scatter"].append(phase["Cluster-scatter"])
        layer["gather"].append(phase["Cluster-gather"])
        layer["worker"].append(slowest)
        layer["transport"].append(phase["Cluster-scatter"] - slowest)
        covered += sum(phase.values())
    layer["covered"].append(covered / sum(lats) * 100.0)


def _check(seed, frames, kept, same_as_first, out: Outcome) -> None:
    """Every answer of every round against the networkx reference.

    ``kept[0]`` is the first round's answers; ``same_as_first`` more rounds
    gave exactly those answers, so they share its verdicts.
    """
    graphs = cluster_graphs(seed)
    refs = {name: reference(g.n, g.u, g.v) for name, g in graphs.items()}
    expected = [[refs[r["graph"]].expected(r) for r in frame] for frame in frames]
    checked = mismatched = 0
    examples = []
    for i, answers in enumerate(kept):
        weight = 1 + (same_as_first if i == 0 else 0)
        for frame, want_frame, got_frame in zip(frames, expected, answers):
            for record, want, got in zip(frame, want_frame, got_frame):
                checked += weight
                if (isinstance(got, (Exception, Rejected))
                        or not same_answer(want, got)):
                    mismatched += weight
                    if len(examples) < 5:
                        examples.append({"record": record, "want": repr(want),
                                         "got": repr(got)})
    out.failed += mismatched
    out.checks.update(checked=checked, mismatches=mismatched, examples=examples)
