"""Experiment runners: one function per paper figure/claim.

Each runner really executes the algorithms (vectorized numpy) on freshly
generated instances and reports *simulated* E4500 times (the substitution
of DESIGN.md §2) alongside wall-clock seconds of the vectorized execution.

Scale: the paper uses n = 1M.  The default here is n = 100k (the cost
model is scale-invariant; see DESIGN.md); pass ``n=1_000_000`` or set
``REPRO_BENCH_SCALE=paper`` to run the original size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..core import pipeline, tarjan_bcc, tv_bcc, tv_filter_bcc
from ..core.filter import FilterStats, count_biconnected_components_bfs
from ..graph import generators as gen
from ..obs import Telemetry, WallClockSink
from ..smp import PAPER_PROCESSOR_GRID, e4500, sequential_machine


def _stopwatch(fn):
    """Run ``fn()`` inside a telemetry span; return (result, wall seconds).

    All bench wall-clock numbers come from this one span+sink path — the
    same measurement machinery as ``--trace``/``--profile`` — instead of
    bespoke ``perf_counter`` pairs.
    """
    sink = WallClockSink()
    with Telemetry(sinks=[sink]).span("timed"):
        out = fn()
    return out, sink.seconds["timed"]

__all__ = [
    "default_n",
    "Fig3Cell",
    "run_fig3",
    "Fig4Row",
    "run_fig4",
    "run_fig1",
    "FilterClaimRow",
    "run_filter_claims",
    "AblationRow",
    "run_ablation",
    "run_ablation_euler",
    "run_ablation_spanning",
    "run_ablation_auxcc",
    "run_ablation_lowhigh",
    "run_fallback_sweep",
    "run_pathological",
    "run_dense",
    "run_service_tail_bench",
]

#: Densities (m/n) in the Fig. 3 / Fig. 4 grid.  The paper sweeps several
#: densities up to m = n log2 n (= 20 for n = 1M; we use the analogous
#: log2 n of the chosen scale, ~17 at n = 100k).
DEFAULT_DENSITIES = (4, 8, 12, 17)


def default_n() -> int:
    """Benchmark scale: REPRO_BENCH_N, or 1M under REPRO_BENCH_SCALE=paper."""
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "paper":
        return 1_000_000
    return int(os.environ.get("REPRO_BENCH_N", "100000"))


def _pipeline_fn(spec, **knobs):
    def fn(g, m):
        return pipeline.run_pipeline(g, spec, m, **knobs)

    return fn


def _algorithms(include_sequential: bool = False):
    """The figure grid, straight from the algorithm registry.

    Fallbacks are disabled so every registered algorithm shows its own
    step profile at every density (the paper's figures do the same).
    Post-paper variants (``in_figures=False``) are excluded: the fig3/fig4
    grid — and the figures-guard baseline pinning its 272 numbers — is
    exactly the paper's algorithm set.  Variants are measured by
    bccbench instead.
    """
    algos = []
    for name in pipeline.list_algorithms():
        spec = pipeline.get_algorithm(name)
        if not spec.in_figures:
            continue
        knobs = {"fallback_ratio": None} if spec.fallback_to is not None else {}
        algos.append((name, _pipeline_fn(spec, **knobs)))
    if include_sequential:
        algos.insert(0, ("sequential", lambda g, m: tarjan_bcc(g, m)))
    return algos


@dataclass
class Fig3Cell:
    """One point of the paper's Fig. 3: (density, algorithm, p)."""

    n: int
    m: int
    density: int
    algorithm: str
    p: int
    sim_time_s: float
    wall_time_s: float
    seq_sim_time_s: float

    @property
    def speedup(self) -> float:
        """Simulated speedup over the sequential Tarjan baseline."""
        return self.seq_sim_time_s / self.sim_time_s


def run_fig3(
    n: int | None = None,
    densities=DEFAULT_DENSITIES,
    procs=PAPER_PROCESSOR_GRID,
    seed: int = 42,
    verify: bool = True,
    replay: bool = False,
) -> list[Fig3Cell]:
    """Fig. 3: execution time of all algorithms vs p over edge densities.

    With ``replay=True`` each algorithm executes once per instance on a
    :class:`~repro.smp.trace.TraceMachine` and the processor grid is
    priced by trace replay — ~len(procs)x faster, exact at the recorded
    p = 12 and within a few percent elsewhere (see repro/smp/trace.py).
    """
    from ..smp import SUN_E4500, TraceMachine, evaluate_trace

    n = n or default_n()
    cells: list[Fig3Cell] = []
    for density in densities:
        g = gen.random_connected_gnm(n, density * n, seed=seed)
        seq_machine = sequential_machine()
        seq, seq_wall = _stopwatch(lambda: tarjan_bcc(g, seq_machine))
        seq_sim = seq_machine.time_s
        cells.append(
            Fig3Cell(n, g.m, density, "sequential", 1, seq_sim, seq_wall, seq_sim)
        )
        for name, fn in _algorithms():
            if replay:
                machine = TraceMachine(p=12, costs=SUN_E4500)
                res, wall = _stopwatch(lambda: fn(g, machine))
                if verify and not res.same_partition(seq):
                    raise AssertionError(f"{name} disagreed with sequential Tarjan")
                for p in procs:
                    rep = evaluate_trace(machine.trace, p, SUN_E4500)
                    cells.append(
                        Fig3Cell(n, g.m, density, name, p, rep.time_s, wall, seq_sim)
                    )
                continue
            for p in procs:
                machine = e4500(p)
                res, wall = _stopwatch(lambda: fn(g, machine))
                if verify and not res.same_partition(seq):
                    raise AssertionError(f"{name} disagreed with sequential Tarjan")
                cells.append(
                    Fig3Cell(n, g.m, density, name, p, machine.time_s, wall, seq_sim)
                )
    return cells


#: Step order of the paper's Fig. 4 stacked bars, derived from the stage
#: registry (canonical stage regions + strategy extras such as Root-tree).
FIG4_STEPS = pipeline.fig4_steps()


@dataclass
class Fig4Row:
    """One stacked bar of Fig. 4: per-step breakdown at p processors."""

    n: int
    m: int
    density: int
    algorithm: str
    p: int
    steps: dict = field(default_factory=dict)  # step name -> simulated s
    total_s: float = 0.0


def run_fig4(
    n: int | None = None,
    densities=DEFAULT_DENSITIES,
    p: int = 12,
    seed: int = 42,
) -> list[Fig4Row]:
    """Fig. 4: per-step breakdown at 12 processors across densities."""
    n = n or default_n()
    rows: list[Fig4Row] = []
    for density in densities:
        g = gen.random_connected_gnm(n, density * n, seed=seed)
        for name, fn in _algorithms():
            machine = e4500(p)
            fn(g, machine)
            rep = machine.report()
            region = rep.region_times_s()
            steps = {s: region.get(s, 0.0) for s in FIG4_STEPS}
            rows.append(Fig4Row(n, g.m, density, name, p, steps, rep.time_s))
    return rows


def run_fig1() -> dict:
    """The Fig. 1 worked example: R''c condition counts for G1 and G2."""
    from ..core.auxgraph import build_auxiliary_graph
    from ..core.lowhigh import low_high
    from ..primitives.euler_tour import TreeNumbering

    parent = np.array([0, 0, 1, 0, 3, 0, 5])
    pre = np.arange(7)
    size = np.array([7, 2, 1, 2, 1, 2, 1])
    depth = np.array([0, 1, 2, 1, 2, 1, 2])
    tree_edges = [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    nontree = {"G1": [(1, 3), (3, 5), (2, 4), (4, 6)], "G2": [(2, 4), (4, 6)]}
    out = {}
    for label, extra in nontree.items():
        edges = tree_edges + extra
        eu = np.array([a for a, b in edges], dtype=np.int64)
        ev = np.array([b for a, b in edges], dtype=np.int64)
        m = eu.size
        tree_mask = np.zeros(m, dtype=bool)
        tree_mask[: len(tree_edges)] = True
        child_of_edge = np.full(m, -1, dtype=np.int64)
        parent_edge = np.full(7, -1, dtype=np.int64)
        for i, (a, b) in enumerate(tree_edges):
            child = b if parent[b] == a else a
            child_of_edge[i] = child
            parent_edge[child] = i
        numbering = TreeNumbering(
            parent.copy(), parent_edge, pre.copy(), size.copy(), depth.copy(),
            np.array([0]),
        )
        low, high = low_high(eu[~tree_mask], ev[~tree_mask], numbering)
        aux = build_auxiliary_graph(
            7, eu, ev, np.ones(m, dtype=bool), tree_mask, child_of_edge,
            numbering, low, high,
        )
        used = np.unique(np.concatenate([aux.au, aux.av])).size
        out[label] = {
            "condition_counts": aux.condition_counts,
            "relation_size": sum(aux.condition_counts),
            "aux_vertices_used": int(used),
            "aux_edges": int(aux.au.size),
        }
    return out


@dataclass
class FilterClaimRow:
    n: int
    m: int
    density: float
    tree_edges: int
    forest_edges: int
    filtered_edges: int
    guaranteed_minimum: int
    bfs_levels: int
    bcc_count_true: int
    bcc_count_bfs_recipe: int


def run_filter_claims(
    n: int | None = None, densities=DEFAULT_DENSITIES, seed: int = 42
) -> list[FilterClaimRow]:
    """§4 claims: filtered-edge bound and the two-BFS counting corollary."""
    n = n or default_n()
    rows = []
    for density in densities:
        g = gen.random_connected_gnm(n, density * n, seed=seed)
        stats: list[FilterStats] = []
        res = tv_filter_bcc(g, fallback_ratio=None, stats_out=stats)
        st = stats[0]
        rows.append(
            FilterClaimRow(
                n=n,
                m=g.m,
                density=density,
                tree_edges=st.tree_edges,
                forest_edges=st.forest_edges,
                filtered_edges=st.filtered_edges,
                guaranteed_minimum=st.guaranteed_minimum_filtered,
                bfs_levels=st.bfs_levels,
                bcc_count_true=res.num_components,
                bcc_count_bfs_recipe=count_biconnected_components_bfs(g),
            )
        )
    return rows


@dataclass
class AblationRow:
    label: str
    n: int
    m: int
    p: int
    sim_time_s: float
    wall_time_s: float
    extra: dict = field(default_factory=dict)


def _timed(label, fn, g, p, **extra) -> AblationRow:
    machine = e4500(p)
    _, wall = _stopwatch(lambda: fn(machine))
    return AblationRow(label, g.n, g.m, p, machine.time_s, wall, extra)


#: Which algorithm spec(s) each stage is ablated against by default.
ABLATION_BASES = {"cc": ("tv-opt", "tv-filter"), "filter": ("tv-filter",)}

#: Per-stage default edge density (the aux-CC comparison wants a denser
#: instance so the pruned/full gap is visible at bench scale).
ABLATION_DENSITIES = {"cc": 12}


def run_ablation(
    stage: str,
    n: int | None = None,
    p: int = 12,
    seed: int = 42,
    density: int | None = None,
    bases=None,
) -> list[AblationRow]:
    """Ablate one pipeline stage by enumerating the strategy registry.

    For each base algorithm and each registered strategy of ``stage``
    (times its declared ``ablate`` knob grid), the full pipeline runs with
    just that stage swapped; incompatible downstream stages are repaired
    (e.g. an unrooted SV spanning tree forces the list-ranked Euler tour).
    New strategies registered for ``stage`` get ablation coverage for
    free.  Fallbacks are disabled so the swapped stage actually runs.
    """
    if stage not in pipeline.STAGE_ORDER:
        raise ValueError(
            f"unknown pipeline stage {stage!r}; stages: {list(pipeline.STAGE_ORDER)}"
        )
    n = n or default_n()
    density = density if density is not None else ABLATION_DENSITIES.get(stage, 8)
    bases = tuple(bases) if bases else ABLATION_BASES.get(stage, ("tv-opt",))
    g = gen.random_connected_gnm(n, density * n, seed=seed)
    rows: list[AblationRow] = []
    for base in bases:
        spec = pipeline.get_algorithm(base)
        for strat in pipeline.list_strategies(stage):
            try:
                resolved = pipeline.resolve_strategies(
                    spec, {stage: strat.name}, repair=True
                )
            except ValueError:
                continue  # no compatible pipeline around this strategy
            if resolved.get(stage) != strat.name:
                continue  # repair replaced the strategy under test itself
            for combo in strat.ablate or ({},):
                knobs = dict(combo)
                if spec.fallback_to is not None:
                    knobs["fallback_ratio"] = None
                suffix = "".join(f"[{v}]" for v in combo.values())
                label = f"{base} {stage}={strat.name}{suffix}"
                machine = e4500(p)
                _, wall = _stopwatch(
                    lambda: pipeline.run_pipeline(
                        g, spec, machine, strategies=resolved, **knobs
                    )
                )
                region = spec.regions.get(stage, strat.region)
                regions = [region] if region else list(strat.extra_regions)
                rts = machine.report().region_times_s()
                extra = {
                    "stage": stage,
                    "strategy": strat.name,
                    "base": base,
                    "strategies": dict(resolved),
                    "stage_region_s": float(sum(rts.get(r, 0.0) for r in regions)),
                    **combo,
                }
                rows.append(AblationRow(label, g.n, g.m, p, machine.time_s, wall, extra))
    return rows


def run_ablation_euler(n: int | None = None, p: int = 12, seed: int = 42) -> list[AblationRow]:
    """§3.2 design choice: tour + list ranking vs DFS-ordered numbering."""
    return run_ablation("euler", n=n, p=p, seed=seed)


def run_ablation_spanning(
    n: int | None = None, density: int = 8, p: int = 12, seed: int = 42
) -> list[AblationRow]:
    """§3.2 design choice: SV spanning tree vs traversal spanning tree."""
    return run_ablation("spanning", n=n, p=p, seed=seed, density=density)


def run_ablation_auxcc(
    n: int | None = None, density: int = 12, p: int = 12, seed: int = 42
) -> list[AblationRow]:
    """Beyond-paper: full aux-graph CC vs leaf-pruned CC."""
    return run_ablation("cc", n=n, p=p, seed=seed, density=density)


def run_ablation_lowhigh(
    n: int | None = None, density: int = 8, p: int = 12, seed: int = 42
) -> list[AblationRow]:
    """Low-high aggregation: level sweep vs preorder-interval RMQ."""
    return run_ablation("lowhigh", n=n, p=p, seed=seed, density=density)


def run_fallback_sweep(
    n: int | None = None, p: int = 12, seed: int = 42
) -> list[AblationRow]:
    """§4: where does filtering start to pay?  Sweep m/n around 4."""
    n = n or default_n()
    rows = []
    for density in (2, 3, 4, 6, 8, 12):
        g = gen.random_connected_gnm(n, density * n, seed=seed)
        rows.append(
            _timed(f"tv-opt m/n={density}",
                   lambda m: tv_bcc(g, m, variant="opt"), g, p,
                   density=density, algorithm="tv-opt")
        )
        rows.append(
            _timed(f"tv-filter m/n={density}",
                   lambda m: tv_filter_bcc(g, m, fallback_ratio=None), g, p,
                   density=density, algorithm="tv-filter")
        )
    return rows


def run_pathological(n: int | None = None, p: int = 12, seed: int = 42) -> list[AblationRow]:
    """§4: d = O(n) pathological chain vs diameter-2-ish random graph."""
    n = n or default_n()
    n_path = min(n, 20_000)  # the chain costs O(d) = O(n) BFS rounds
    chain = gen.path_graph(n_path)
    rng_graph = gen.random_connected_gnm(n_path, 4 * n_path, seed=seed)
    rows = []
    for label, g in (("chain d=O(n)", chain), ("random d=O(log n)", rng_graph)):
        rows.append(
            _timed(f"tv-filter {label}",
                   lambda m: tv_filter_bcc(g, m, fallback_ratio=None), g, p,
                   graph=label)
        )
        rows.append(
            _timed(f"sequential {label}", lambda m: tarjan_bcc(g, m), g, 1,
                   graph=label)
        )
    return rows


def _tail_leg(rep) -> dict:
    """One sync/async leg of the tail bench as a JSON row."""
    return {
        "rebuild_mode": rep.rebuild_mode,
        "freshness": rep.freshness,
        "wall_s": rep.wall_s,
        "ops_per_s": rep.throughput_ops_s,
        "query_p50_us": rep.query_p50_us,
        "query_p95_us": rep.query_p95_us,
        "query_p99_us": rep.query_p99_us,
        "rebuilds": rep.rebuilds,
        "rebuild_wall_s": rep.rebuild_wall_s,
        "stale_hits": rep.stale_hits,
        "forced_syncs": rep.forced_syncs,
        "rebuilds_queued": rep.rebuilds_queued,
        "rebuild_swaps": rep.rebuild_swaps,
        "rebuilds_rejected": rep.rebuilds_rejected,
        "max_staleness_ms": rep.max_staleness_ms,
        "verified": rep.verified,
        "mismatches": rep.mismatches,
        "maintenance": rep.maintenance,
        "rebuilds_incremental": rep.rebuilds_incremental,
        "rebuilds_full": rep.rebuilds_full,
        "rebuild_wall_by_strategy": dict(rep.rebuild_wall_by_strategy),
        "rebuild_errors": rep.rebuild_errors,
    }


def _mean_rebuild_wall_s(leg: dict, incremental: bool) -> float | None:
    """Mean per-rebuild wall from a leg's per-strategy accounting."""
    by_strategy = leg["rebuild_wall_by_strategy"]
    if incremental:
        count = leg["rebuilds_incremental"]
        wall = sum(s for k, s in by_strategy.items() if k != "full")
    else:
        count = leg["rebuilds_full"]
        wall = by_strategy.get("full", 0.0)
    return wall / count if count else None


def run_service_tail_bench(
    n: int | None = None,
    ops: int = 400,
    seed: int = 42,
    update_frac: float = 0.2,
    algorithm: str = "tv-filter",
    edge_bias: float = 0.05,
    cache_size: int = 8,
    coalesce_ms: float = 2.0,
    staleness_budget_ms: float | None = 1000.0,
) -> dict:
    """Sync vs async index maintenance: query tail latency under churn.

    Runs the *same* seeded churn-heavy workload (default 20% batch
    updates) through three engine configurations:

    ``sync``
        every post-update query pays the full rebuild inline — the
        rebuild cost lands in the query tail (p99 >> p50),
    ``async`` (freshness ``any``)
        stale-while-revalidate: queries serve the last consistent
        snapshot lock-free while a background worker rebuilds, so the
        tail collapses to ordinary dispatch cost,
    ``async`` + ``--verify`` (freshness ``fresh``)
        the correctness leg: every query demands an up-to-date index
        and every answer is checked against sequential recompute-from-
        scratch — async maintenance with ``freshness="fresh"`` must be
        bit-identical to sync (``mismatches`` = 0).

    A second ``incremental_maintenance`` section runs an intra-block-
    dominated churn stream (watts-strogatz instance, add-only update
    mix, ``update_locality=1.0`` so every add lands inside one
    biconnected block) through async engines with ``maintenance=full``
    vs ``auto`` vs ``auto`` + ``--verify``: the delta log lets auto
    patch the last snapshot via ``extend_index`` instead of rebuilding,
    and ``mean_rebuild_speedup`` reports mean-full-wall /
    mean-incremental-wall (the acceptance floor is 3x).

    All three legs run uninstrumented (no simulated machine — async
    engines forbid one, and the comparison is pure wall-clock).  The
    headline numbers are ``tail_collapse_p99`` (sync p99 / async p99)
    and ``async_p99_over_p50`` (how flat the async tail is; the target
    is within ~10x of p50).  ``python -m repro.bench service --json
    PATH`` writes the result; the frozen results/BENCH_service.json (v4)
    holds the last committed run under ``"tail_latency"``.

    The default staleness budget (1 s) deliberately exceeds one full
    rebuild at this scale: a budget smaller than a rebuild forces a
    synchronous rebuild in every churn window, which puts the rebuild
    cost right back into the query tail being measured.

    The ~10x-of-p50 target needs >= 2 cores.  On a single-core host the
    query thread and the rebuild worker time-share one CPU, so a query
    landing mid-build waits out an OS scheduling timeslice (~4 ms
    regardless of instance size); ``host_cpus`` records the core count
    so the committed artifact is interpretable.  The p95 ratio shows the
    collapse even there: stale serves are ordinary dispatch cost.
    """
    from ..service import (
        DEFAULT_MIX,
        WorkloadSpec,
        generate_workload,
        mix_with_update_fraction,
    )
    from ..service.driver import run_workload

    if n is None:
        n = (default_n() if ("REPRO_BENCH_N" in os.environ
                             or os.environ.get("REPRO_BENCH_SCALE"))
             else 10_000)
    m = n * max(1, round(math.log2(n)))
    spec = WorkloadSpec(
        num_ops=ops,
        seed=seed,
        mix=mix_with_update_fraction(update_frac),
        edge_bias=edge_bias,
        graph={"family": "connected-gnm", "n": int(n), "m": int(m), "seed": seed},
    )
    workload = generate_workload(spec)
    common = dict(algorithm=algorithm, cache_size=cache_size)
    sync_rep = run_workload(workload, rebuild_mode="sync", **common)
    async_rep = run_workload(
        workload, rebuild_mode="async", coalesce_ms=coalesce_ms,
        staleness_budget_ms=staleness_budget_ms, **common,
    )
    fresh_rep = run_workload(
        workload, rebuild_mode="async", coalesce_ms=coalesce_ms,
        staleness_budget_ms=staleness_budget_ms, verify=True, **common,
    )
    # -- incremental maintenance: intra-block churn, add-only updates -- #
    # Adds with update_locality=1.0 always land inside one biconnected
    # block of the initial graph, so every pending delta classifies
    # intra-block and the auto planner can extend the last snapshot.
    churn_mix = mix_with_update_fraction(
        update_frac, base={**DEFAULT_MIX, "remove_edges": 0.0}
    )
    churn_spec = WorkloadSpec(
        num_ops=ops,
        seed=seed + 1,
        mix=churn_mix,
        edge_bias=edge_bias,
        update_locality=1.0,
        graph={"family": "watts-strogatz", "n": int(n), "m": int(2 * n),
               "seed": seed},
    )
    churn = generate_workload(churn_spec)
    churn_common = dict(
        rebuild_mode="async", coalesce_ms=coalesce_ms,
        staleness_budget_ms=staleness_budget_ms, **common,
    )
    full_rep = run_workload(churn, maintenance="full", **churn_common)
    auto_rep = run_workload(churn, maintenance="auto", **churn_common)
    auto_verify_rep = run_workload(
        churn, maintenance="auto", verify=True, **churn_common
    )
    full_leg = _tail_leg(full_rep)
    auto_leg = _tail_leg(auto_rep)
    mean_full = _mean_rebuild_wall_s(full_leg, incremental=False)
    mean_inc = _mean_rebuild_wall_s(auto_leg, incremental=True)
    incremental = {
        "graph_family": "watts-strogatz",
        "graph_n": int(n),
        "graph_m": int(full_rep.graph_m),
        "ops": int(ops),
        "update_frac": update_frac,
        "update_locality": 1.0,
        "full": full_leg,
        "auto": auto_leg,
        "auto_verify": _tail_leg(auto_verify_rep),
        "mean_full_rebuild_s": mean_full,
        "mean_incremental_rebuild_s": mean_inc,
        "mean_rebuild_speedup": (
            mean_full / mean_inc if mean_full and mean_inc else None
        ),
        "staleness_ratio": (
            full_rep.max_staleness_ms / auto_rep.max_staleness_ms
            if auto_rep.max_staleness_ms else None
        ),
    }

    async_p99 = async_rep.query_p99_us or 1.0
    async_p50 = async_rep.query_p50_us or 1.0
    return {
        "graph_n": int(n),
        "graph_m": int(m),
        "ops": int(ops),
        "update_frac": update_frac,
        "algorithm": algorithm,
        "coalesce_ms": coalesce_ms,
        "staleness_budget_ms": staleness_budget_ms,
        "host_cpus": os.cpu_count(),
        "sync": _tail_leg(sync_rep),
        "async": _tail_leg(async_rep),
        "fresh_verify": _tail_leg(fresh_rep),
        "tail_collapse_p99": sync_rep.query_p99_us / async_p99,
        "tail_collapse_p95": sync_rep.query_p95_us
        / (async_rep.query_p95_us or 1.0),
        "async_p99_over_p50": async_rep.query_p99_us / async_p50,
        "async_p95_over_p50": async_rep.query_p95_us / async_p50,
        "incremental_maintenance": incremental,
    }


def run_dense(p: int = 12, seed: int = 42, n: int = 1500) -> list[AblationRow]:
    """Woo–Sahni's regime (§1): graphs keeping 70%/90% of K_n's edges."""
    rows = []
    for frac in (0.7, 0.9):
        g = gen.dense_gnm(n, frac, seed=seed)
        ms = sequential_machine()
        tarjan_bcc(g, ms)
        for name, fn in _algorithms():
            row = _timed(f"{name} {int(frac * 100)}%", lambda m: fn(g, m), g, p,
                         fraction=frac, seq_sim_time_s=ms.time_s)
            rows.append(row)
    return rows
