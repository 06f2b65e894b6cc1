"""Workload ``serve-churn``: a sync ``ServiceEngine`` under query/update churn.

A round starts a fresh engine (default sync mode, ``maintenance="auto"``,
``tv-filter``) on the dense service graph, builds its first index (the
set-up sample) and then applies the round's records one by one through
``ServiceEngine.apply``, each timed on its own.  Every round replays the
same records from the same state, so every round does the same work.

Traced rounds give the engine a ``Machine(p=1)`` (so full builds show
their pipeline stages) and subscribe a :class:`probes.Recorder` to its
telemetry; the spans of each record are read right after it returns.
"""

from __future__ import annotations

import time

from repro.service import ServiceEngine
from repro.smp import Machine

from common import (
    Outcome, Stopwatch, digest, median, pct, peak_rss_mb, rounds_until, steal_ticks,
)
from inputs import churn_graph, churn_stream
from probes import STAGES, Recorder, stage_seconds
from reference import reference, same_answer

GRAPH = "g"


def _start(seed: int, traced: bool):
    graph = churn_graph(seed)
    recorder = None
    if traced:
        machine = Machine(p=1)
        recorder = machine.telemetry.add_sink(Recorder())
        engine = ServiceEngine(machine=machine)
    else:
        engine = ServiceEngine()
    engine.put_graph(GRAPH, graph)
    engine.apply(GRAPH, {"op": "num_components"})  # first index build
    engine.reset_stats()
    if recorder is not None:
        recorder.take_spans()
        recorder.take()
    return engine, recorder


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    stream = churn_stream(seed, churn_graph(seed))
    records = stream.records
    out = Outcome()
    setup_s, lat = [], {False: [], True: []}
    round_wall = {False: [], True: []}
    all_answers = []
    layer = {k: [] for k in ("kernel", "dispatch", "update", "build_s", "extend_s",
                             "build_n", "extend_n", "stages", "maint", "covered")}
    deadline = time.perf_counter() + seconds
    for r in rounds_until(deadline, min_rounds=2 if trace else 1):
        traced = trace and r % 2 == 1
        with Stopwatch() as sw:
            engine, rec = _start(seed, traced)
        if not traced:
            setup_s.append(sw.s)
        answers, lats = [], []
        spans_of = []
        steal0 = steal_ticks()
        try:
            for record in records:
                t0 = time.perf_counter()
                try:
                    answer = engine.apply(GRAPH, record)
                except Exception as exc:  # raised: a failed operation
                    answer = exc
                lats.append(time.perf_counter() - t0)
                answers.append(answer)
                if rec is not None:
                    spans_of.append(rec.take_spans()[0])
            stats = engine.stats
        finally:
            engine.close()
        out.notes.setdefault("round_steal", []).append(steal_ticks() - steal0)
        out.attempted += len(records)
        lat[traced].extend(lats)
        round_wall[traced].append(sum(lats))
        all_answers.append(answers)
        out.work.append({
            "records": len(records),
            "full_builds": stats.rebuilds,
            "patches": stats.rebuilds_incremental,
            "rebuilds_full": stats.rebuilds_full,
            "noop_updates": stats.noop_updates,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "answers": digest(answers),
        })
        if traced:
            _trace_round(records, lats, spans_of, layer)
            out.work_traced.append({"build_spans": layer["build_n"][-1],
                                    "extend_spans": layer["extend_n"][-1]})
    out.notes["rounds"] = r + 1
    out.notes["round_wall_s"] = round_wall
    rss = peak_rss_mb()
    _check(stream, all_answers, out)

    untraced = lat[False]
    out.end_to_end = {
        "setup_s": median(setup_s),
        "items_per_s": len(untraced) / sum(untraced),
        "op_us_p50": median(untraced) * 1e6,
        "op_us_p99": pct(untraced, 99) * 1e6,
        "peak_rss_mb": rss,
    }
    out.notes["records_timed"] = len(untraced)
    if trace:
        w = out.work[-1]
        per = {
            "service.query.kernel_us_p50": median(layer["kernel"]) * 1e6,
            "service.query.dispatch_us_p50": median(layer["dispatch"]) * 1e6,
            "service.build.count": median(layer["build_n"]),
            "service.build.s": median(layer["build_s"]),
            "service.extend.count": median(layer["extend_n"]),
            "service.extend.s": median(layer["extend_s"]),
            "service.update.us_p50": median(layer["update"]) * 1e6,
            "service.maintenance.patch_ratio":
                w["patches"] / max(w["patches"] + w["rebuilds_full"], 1),
            "service.maintenance.share_pct": median(layer["maint"]),
            "service.updates.noop": w["noop_updates"],
            "service.cache.hits": w["cache_hits"],
            "service.cache.misses": w["cache_misses"],
            "obs.trace_overhead_pct.serve-churn":
                (median(round_wall[True]) / median(round_wall[False]) - 1.0) * 100.0,
            "obs.layer_coverage_pct.serve-churn": median(layer["covered"]),
        }
        for stage in STAGES:
            per[f"service.build.{stage}_s"] = median([s[stage] for s in layer["stages"]])
        out.per_layer = per
    return out


def _trace_round(records, lats, spans_of, layer) -> None:
    """Attribute one traced round's record latencies to layers."""
    build_s = extend_s = 0.0
    build_n = extend_n = 0
    regions = {}
    maint = covered = 0.0
    for record, latency, spans in zip(records, lats, spans_of):
        top = 0.0
        maintained = False
        for path, t0, t1 in spans:
            d = (t1 - t0) * 1e-9
            if path.startswith("Service-build."):
                regions[path] = regions.get(path, 0.0) + d
            if "." in path:
                continue
            top += d
            if path == "Service-query":
                layer["kernel"].append(d)
            elif path == "Service-build":
                build_s += d
                build_n += 1
                maintained = True
            elif path == "Service-extend":
                extend_s += d
                extend_n += 1
                maintained = True
        if record["op"] in ("add_edges", "remove_edges"):
            # updates run outside every span: the whole record is update work
            layer["update"].append(latency)
            maint += latency
            covered += latency
            continue
        covered += top
        if not maintained:
            layer["dispatch"].append(latency - top)
            covered += latency - top
    maint += build_s + extend_s
    total = sum(lats)
    layer["build_s"].append(build_s)
    layer["extend_s"].append(extend_s)
    layer["build_n"].append(build_n)
    layer["extend_n"].append(extend_n)
    layer["stages"].append(stage_seconds(regions, prefix="Service-build"))
    layer["maint"].append(maint / total * 100.0)
    layer["covered"].append(covered / total * 100.0)


def _check(stream, all_answers, out: Outcome) -> None:
    """Every update's effective count, and every answer at a sampled version."""
    refs = {ver: reference(stream.n, u, v) for ver, (u, v) in stream.sampled.items()}
    checked = mismatched = 0
    examples = []
    for answers in all_answers:
        for record, version, effective, answer in zip(
                stream.records, stream.version, stream.effective, answers):
            if effective is not None:
                want = effective
            elif version in refs:
                want = refs[version].expected(record)
            else:
                continue
            checked += 1
            if isinstance(answer, Exception) or not same_answer(want, answer):
                mismatched += 1
                if len(examples) < 5:
                    examples.append({"record": record, "want": repr(want),
                                     "got": repr(answer)})
    out.failed += mismatched
    out.checks.update(checked=checked, mismatches=mismatched, examples=examples,
                      sampled_versions=sorted(stream.sampled))

