"""Plain-text rendering of experiment results (paper-shaped tables)."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from .runner import AblationRow, Fig3Cell, Fig4Row, FilterClaimRow, FIG4_STEPS

__all__ = [
    "table",
    "format_profile",
    "format_fig3",
    "format_fig4",
    "format_fig4_bars",
    "format_fig1",
    "format_filter_claims",
    "format_ablation",
    "format_service_tail",
    "format_incremental_maintenance",
    "ascii_bars",
]


def table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.3f}"
    return str(x)


def format_profile(report) -> str:
    """Per-stage simulated-vs-measured table from a ``MachineReport``.

    The human summary behind ``repro bcc --profile``: one row per
    top-level stage with the simulated E4500 seconds next to the measured
    wall-clock seconds of the same span, plus a TOTAL row.
    """
    sim = report.region_times_s()
    wall = report.region_wall_s()
    rows = [
        [name, f"{sim.get(name, 0.0):.6f}", f"{wall.get(name, 0.0):.6f}"]
        for name in dict.fromkeys([*sim, *wall])
    ]
    rows.append(["TOTAL", f"{report.time_s:.6f}", f"{report.wall_time_s:.6f}"])
    return table(
        ["stage", "sim [s]", "wall [s]"],
        rows,
        title=f"Profile — simulated E4500 (p={report.p}) vs measured wall clock",
    )


def format_fig3(cells: list[Fig3Cell]) -> str:
    """Fig. 3: one block per density; rows = p, columns = algorithms."""
    by_density: dict[int, list[Fig3Cell]] = defaultdict(list)
    for c in cells:
        by_density[c.density].append(c)
    blocks = []
    for density in sorted(by_density):
        group = by_density[density]
        seq = next(c for c in group if c.algorithm == "sequential")
        algs = sorted({c.algorithm for c in group} - {"sequential"})
        procs = sorted({c.p for c in group if c.algorithm != "sequential"})
        headers = ["p"] + [f"{a} [s]" for a in algs] + [f"{a} speedup" for a in algs]
        rows = []
        for p in procs:
            row = [p]
            at_p = {c.algorithm: c for c in group if c.p == p}
            for a in algs:
                row.append(at_p[a].sim_time_s)
            for a in algs:
                row.append(at_p[a].speedup)
            rows.append(row)
        title = (
            f"Fig. 3 — n={seq.n:,}, m={seq.m:,} (m/n={density}); "
            f"sequential Tarjan = {seq.sim_time_s:.3f}s (simulated E4500 time)"
        )
        blocks.append(table(headers, rows, title))
    return "\n\n".join(blocks)


def format_fig4(rows: list[Fig4Row]) -> str:
    """Fig. 4: per-step breakdown columns per (density, algorithm)."""
    by_density: dict[int, list[Fig4Row]] = defaultdict(list)
    for r in rows:
        by_density[r.density].append(r)
    blocks = []
    for density in sorted(by_density):
        group = by_density[density]
        headers = ["step"] + [r.algorithm for r in group]
        body = []
        for step in FIG4_STEPS:
            if all(r.steps.get(step, 0.0) == 0.0 for r in group):
                continue
            body.append([step] + [r.steps.get(step, 0.0) for r in group])
        body.append(["TOTAL"] + [r.total_s for r in group])
        title = (
            f"Fig. 4 — breakdown at p={group[0].p}, n={group[0].n:,}, "
            f"m={group[0].m:,} (m/n={density}); simulated seconds"
        )
        blocks.append(table(headers, body, title))
    return "\n\n".join(blocks)


def format_fig1(result: dict) -> str:
    headers = ["graph", "cond1", "cond2", "cond3", "|R''c|", "aux |V| (used)", "aux |E|"]
    rows = []
    for label in ("G1", "G2"):
        r = result[label]
        c1, c2, c3 = r["condition_counts"]
        rows.append([label, c1, c2, c3, r["relation_size"],
                     r["aux_vertices_used"], r["aux_edges"]])
    return table(
        headers, rows,
        "Fig. 1 — worked example (paper: G1 = 4+4+3 = 11, aux 10V/11E; "
        "G2 = 2+2+3 = 7, aux 8V/7E)",
    )


def format_filter_claims(rows: list[FilterClaimRow]) -> str:
    headers = [
        "m/n", "m", "|T|", "|F|", "filtered", "bound max(m-2(n-1),0)",
        "BFS levels", "#BCC true", "#BCC 2xBFS recipe",
    ]
    body = [
        [r.density, r.m, r.tree_edges, r.forest_edges, r.filtered_edges,
         r.guaranteed_minimum, r.bfs_levels, r.bcc_count_true,
         r.bcc_count_bfs_recipe]
        for r in rows
    ]
    return table(headers, body, f"§4 filtering claims — n={rows[0].n:,}")


def format_ablation(rows: list[AblationRow], title: str) -> str:
    headers = ["configuration", "n", "m", "p", "sim [s]", "wall [s]"]
    body = [[r.label, r.n, r.m, r.p, r.sim_time_s, r.wall_time_s] for r in rows]
    return table(headers, body, title)


def format_service_tail(tail: dict) -> str:
    """Sync-vs-async tail-latency comparison from
    :func:`repro.bench.runner.run_service_tail_bench`: one row per engine
    configuration on the same churn-heavy workload, then the headline
    tail-collapse ratios and the freshness bit-identity verdict."""
    headers = [
        "maintenance", "wall [s]", "ops/s", "p50 [us]", "p95 [us]",
        "p99 [us]", "rebuild wall [s]", "stale hits", "swaps", "forced",
    ]
    body = []
    for label, leg in (
        ("sync (inline)", tail["sync"]),
        ("async (stale ok)", tail["async"]),
        ("async (fresh+verify)", tail["fresh_verify"]),
    ):
        body.append([
            label, leg["wall_s"], f"{leg['ops_per_s']:,.0f}",
            f"{leg['query_p50_us']:.1f}", f"{leg['query_p95_us']:.1f}",
            f"{leg['query_p99_us']:.1f}", f"{leg['rebuild_wall_s']:.3f}",
            leg["stale_hits"], leg["rebuild_swaps"], leg["forced_syncs"],
        ])
    title = (
        f"Service tail latency — n={tail['graph_n']:,}, m={tail['graph_m']:,}, "
        f"{tail['ops']:,} ops at {tail['update_frac']:.0%} updates, "
        f"algorithm={tail['algorithm']}, coalesce={tail['coalesce_ms']:g} ms"
    )
    lines = [table(headers, body, title)]
    lines.append(
        f"tail collapse sync->async: p95 {tail['tail_collapse_p95']:.1f}x, "
        f"p99 {tail['tail_collapse_p99']:.1f}x; async p95/p99 = "
        f"{tail['async_p95_over_p50']:.1f}x/{tail['async_p99_over_p50']:.1f}x "
        f"its p50 (max staleness {tail['async']['max_staleness_ms']:.1f} ms)"
    )
    if tail.get("host_cpus") == 1:
        lines.append(
            "note: single-core host — queries landing mid-build wait an OS "
            "timeslice (~4 ms), which sets the async p99 floor; on >= 2 "
            "cores the rebuild worker runs beside the query thread"
        )
    fresh = tail["fresh_verify"]
    lines.append(
        f"freshness=fresh bit-identity vs recompute-from-scratch: "
        f"verified={fresh['verified']} ({fresh['mismatches']} mismatches)"
    )
    inc = tail.get("incremental_maintenance")
    if inc:
        lines.append("")
        lines.append(format_incremental_maintenance(inc))
    return "\n".join(lines)


def format_incremental_maintenance(inc: dict) -> str:
    """Incremental-vs-full maintenance comparison on the intra-block
    churn leg of :func:`repro.bench.runner.run_service_tail_bench`."""
    headers = [
        "maintenance", "wall [s]", "ops/s", "p99 [us]", "incr", "full",
        "rebuild wall [s]", "max stale [ms]",
    ]
    body = []
    for label, leg in (
        ("full (always rebuild)", inc["full"]),
        ("auto (delta log)", inc["auto"]),
        ("auto + verify", inc["auto_verify"]),
    ):
        body.append([
            label, leg["wall_s"], f"{leg['ops_per_s']:,.0f}",
            f"{leg['query_p99_us']:.1f}", leg["rebuilds_incremental"],
            leg["rebuilds_full"], f"{leg['rebuild_wall_s']:.3f}",
            f"{leg['max_staleness_ms']:.1f}",
        ])
    title = (
        f"Incremental maintenance — {inc['graph_family']} "
        f"n={inc['graph_n']:,} m={inc['graph_m']:,}, {inc['ops']:,} ops at "
        f"{inc['update_frac']:.0%} add-only updates, locality="
        f"{inc['update_locality']:g}"
    )
    lines = [table(headers, body, title)]
    mean_full = inc["mean_full_rebuild_s"]
    mean_inc = inc["mean_incremental_rebuild_s"]
    speedup = inc["mean_rebuild_speedup"]
    if speedup is not None:
        lines.append(
            f"mean rebuild wall: full {mean_full * 1e3:.2f} ms vs "
            f"incremental {mean_inc * 1e3:.3f} ms -> {speedup:.1f}x cheaper"
        )
    verify = inc["auto_verify"]
    lines.append(
        f"auto vs recompute-from-scratch oracle: verified="
        f"{verify['verified']} ({verify['mismatches']} mismatches)"
    )
    return "\n".join(lines)


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 48,
    unit: str = "s",
) -> str:
    """Horizontal ASCII bar chart (for Fig. 4-style step breakdowns)."""
    values = [float(v) for v in values]
    top = max(values) if values else 0.0
    lines = []
    lw = max((len(l) for l in labels), default=0)
    for label, v in zip(labels, values):
        bar = "#" * (round(width * v / top) if top > 0 else 0)
        lines.append(f"{label.ljust(lw)} | {bar} {_fmt(v)}{unit}")
    return "\n".join(lines)


def format_fig4_bars(rows: list[Fig4Row]) -> str:
    """Fig. 4 rendered as per-algorithm ASCII step bars (one block per
    density, mirroring the paper's stacked-bar layout)."""
    by_density: dict[int, list[Fig4Row]] = defaultdict(list)
    for r in rows:
        by_density[r.density].append(r)
    blocks = []
    for density in sorted(by_density):
        group = by_density[density]
        for r in group:
            steps = [(s, r.steps.get(s, 0.0)) for s in FIG4_STEPS if r.steps.get(s, 0.0) > 0]
            blocks.append(
                f"{r.algorithm}  (m/n={density}, p={r.p}, total {_fmt(r.total_s)}s)\n"
                + ascii_bars([s for s, _ in steps], [v for _, v in steps])
            )
    return "\n\n".join(blocks)
