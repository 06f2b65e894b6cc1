"""Workload ``solve``: one-shot ``repro.biconnected_components`` calls.

A pass generates the four inputs (the set-up sample), then calls every
input with every algorithm of :data:`inputs.SOLVE_ALGORITHMS` once, each
call timed on its own.  The run repeats whole passes until its time is
up.  Traced passes give each call a ``Machine(p=1)`` and read its region
wall times and simulated operation counts; in a traced run they alternate
with untraced passes, which give the tracing overhead.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.graph import generators as gen
from repro.smp import Machine

from common import Outcome, Stopwatch, median, peak_rss_mb, rounds_until, steal_ticks
from inputs import SOLVE_ALGORITHMS, SOLVE_INPUTS, input_seed
from probes import STAGES, stage_seconds
from reference import reference


def _warm_up() -> None:
    g = gen.random_connected_gnm(200, 800, seed=0)
    for alg in SOLVE_ALGORITHMS:
        repro.biconnected_components(g, algorithm=alg)
        repro.biconnected_components(g, algorithm=alg, machine=Machine(p=1))


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    _warm_up()
    out = Outcome()
    answers = {}  # (input, alg) -> list of [labels, art, bridges, calls]
    graphs = {}
    setup_s, gen_s = [], {name: [] for name in SOLVE_INPUTS}
    calls = {False: [], True: []}  # traced? -> [(pass, input, m, wall_s)]
    pass_wall = {False: [], True: []}
    stage_s = {name: [] for name in SOLVE_INPUTS}
    sim = []
    region_total = 0.0
    deadline = time.perf_counter() + seconds
    for p in rounds_until(deadline, min_rounds=2 if trace else 1):
        traced = trace and p % 2 == 1
        with Stopwatch() as setup:
            for i, (name, build) in enumerate(SOLVE_INPUTS.items()):
                with Stopwatch() as sw:
                    graphs[name] = build(input_seed(seed, i))
                gen_s[name].append(sw.s)
        setup_s.append(setup.s)
        work = {}
        pass_sim = {}
        walls = []
        steal0 = steal_ticks()
        for name, g in graphs.items():
            stages = dict.fromkeys(STAGES, 0.0)
            counts = np.zeros(3)
            for alg in SOLVE_ALGORITHMS:
                machine = Machine(p=1) if traced else None
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    res = repro.biconnected_components(g, algorithm=alg, machine=machine)
                except Exception as exc:  # a call that raises is a failed operation
                    out.failed += 1
                    out.checks.setdefault("raised", []).append(f"{name}/{alg}: {exc!r}")
                    continue
                wall = time.perf_counter() - t0
                walls.append(wall)
                calls[traced].append((p, name, g.m, wall))
                _keep_answer(answers.setdefault((name, alg), []), res)
                work[f"{name}/{alg}"] = [res.algorithm, res.num_components, g.m, g.n]
                if traced:
                    rep = res.report
                    for stage, s in stage_seconds(rep.wall_regions).items():
                        stages[stage] += s
                    region_total += sum(rep.region_wall_s().values())
                    counts += (rep.totals.work_contig, rep.totals.work_random,
                               rep.totals.barriers)
            if traced:
                stage_s[name].append(stages)
                pass_sim[name] = counts.tolist()
        pass_wall[traced].append(sum(walls))
        out.notes.setdefault("round_steal", []).append(steal_ticks() - steal0)
        out.work.append(work)
        if traced:
            sim.append(pass_sim)
    out.notes["passes"] = p + 1
    out.notes["pass_wall_s"] = pass_wall
    out.notes["inputs"] = {
        name: {"n": g.n, "m": g.m} for name, g in graphs.items()
    }
    rss = peak_rss_mb()

    # -- answer checks (after timing, so networkx stays out of the measurement)
    bad = {}
    for (name, alg), distinct in answers.items():
        g = graphs[name]
        ref = reference(g.n, g.u, g.v)
        for labels, art, bridges, count in distinct:
            wrong = ref.check_result(labels, art, bridges)
            if wrong:
                out.failed += count
                bad[f"{name}/{alg}"] = wrong
    out.checks.update(checked_calls=out.attempted, mismatches=bad)

    untraced = calls[False]
    m_sum = sum(c[2] for c in untraced)
    w_sum = sum(c[3] for c in untraced)
    slowest = {}
    for p_i, _, _, wall in untraced:
        slowest[p_i] = max(slowest.get(p_i, 0.0), wall)
    out.end_to_end = {
        "setup_s": median(setup_s),
        "items_per_s": m_sum / w_sum if w_sum else 0.0,
        "op_us_p50": median([c[3] for c in untraced]) * 1e6,
        "op_us_p99": median(list(slowest.values())) * 1e6,
        "peak_rss_mb": rss,
    }
    if trace:
        layer = {}
        for i, name in enumerate(SOLVE_INPUTS):
            for stage in STAGES:
                layer[f"solve.{name}.{stage}_s"] = median([s[stage] for s in stage_s[name]])
            counts = sim[0][name]
            layer[f"solve.{name}.contig_ops"] = counts[0]
            layer[f"solve.{name}.random_ops"] = counts[1]
            layer[f"solve.{name}.barriers"] = counts[2]
            layer[f"solve.{name}.generate_s"] = median(gen_s[name])
        traced_wall = sum(c[3] for c in calls[True])
        layer["obs.trace_overhead_pct.solve"] = (
            median(pass_wall[True]) / median(pass_wall[False]) - 1.0) * 100.0
        layer["obs.layer_coverage_pct.solve"] = region_total / traced_wall * 100.0
        out.per_layer = layer
        out.work_traced = sim
    return out


def _keep_answer(distinct: list, res) -> None:
    """Count ``res`` under an equal earlier answer, or keep it as a new one."""
    labels = res.edge_labels
    art = res.articulation_points()
    bridges = res.bridges()
    for entry in distinct:
        if (np.array_equal(entry[0], labels) and np.array_equal(entry[1], art)
                and np.array_equal(entry[2], bridges)):
            entry[3] += 1
            return
    distinct.append([labels, art, bridges, 1])
