"""Command-line interface: ``python -m repro <command>``.

Commands
--------
bcc        compute biconnected components of a graph file
generate   write a generated instance to a graph file
convert    convert between edge-list / DIMACS / METIS formats
info       structural summary of a graph file (blocks, cuts, bridges)
augment    add edges until the graph is biconnected
workload   generate / run biconnectivity query workloads (repro.service)

Graph file formats are selected by extension: ``.edges`` (plain edge
list), ``.dimacs``/``.col`` (DIMACS), ``.metis``/``.graph`` (METIS).
``bcc`` and ``info`` accept ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .api import ALGORITHMS, biconnected_components, describe_algorithm
from .core.blockcut import augment_to_biconnected
from .graph import Graph, generators as gen
from .graph.io import read_graph, write_graph
from .runtime import BACKEND_NAMES
from .service.engine import FRESHNESS_LEVELS, MAINTENANCE_MODES, REBUILD_MODES
from .smp import e4500

__all__ = ["main"]


def _read(path: str) -> Graph:
    try:
        return read_graph(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _write(g: Graph, path: str) -> None:
    try:
        write_graph(g, path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


GENERATORS = {
    "gnm": lambda args: gen.random_gnm(args.n, args.m, seed=args.seed),
    "connected-gnm": lambda args: gen.random_connected_gnm(args.n, args.m, seed=args.seed),
    "tree": lambda args: gen.random_tree(args.n, seed=args.seed),
    "path": lambda args: gen.path_graph(args.n),
    "cycle": lambda args: gen.cycle_graph(args.n),
    "star": lambda args: gen.star_graph(args.n),
    "complete": lambda args: gen.complete_graph(args.n),
    "rmat": lambda args: gen.rmat_graph(
        max(args.n - 1, 1).bit_length(), edge_factor=args.m / max(args.n, 1), seed=args.seed
    ),
    "barabasi-albert": lambda args: gen.barabasi_albert(
        args.n, k=max(1, round(args.m / max(args.n, 1))), seed=args.seed
    ),
    # m is a target edge count, mapped to the (even) ring degree k ~ 2m/n
    "watts-strogatz": lambda args: gen.watts_strogatz(
        args.n,
        k=min(max(2, 2 * round(args.m / max(args.n, 1))),
              (args.n - 1) - (args.n - 1) % 2),
        beta=args.beta,
        seed=args.seed,
    ),
}


def _parse_strategies(pairs) -> dict:
    """Parse repeated ``--strategy STAGE=NAME`` options into a dict."""
    out = {}
    for item in pairs or ():
        stage, sep, name = item.partition("=")
        if not sep or not stage or not name:
            raise SystemExit(
                f"--strategy expects STAGE=NAME (e.g. lowhigh=rmq), got {item!r}"
            )
        out[stage] = name
    return out


def cmd_bcc(args) -> int:
    strategies = _parse_strategies(args.strategy) or None
    if args.explain:
        try:
            if args.algorithm == "auto" and args.graph:
                # with a graph in hand, show the actual per-graph decision
                # followed by the chosen concrete pipeline
                from .core import select

                g = _read(args.graph)
                chosen = select.choose_algorithm(g.n, g.m, args.p or 1)
                print(select.explain(g.n, g.m, args.p or 1))
                print()
                print(describe_algorithm(chosen, strategies=strategies))
            else:
                print(describe_algorithm(args.algorithm, strategies=strategies))
        except (TypeError, ValueError) as exc:
            raise SystemExit(str(exc)) from None
        return 0
    if not args.graph:
        raise SystemExit("bcc: a graph file is required (or use --explain)")
    g = _read(args.graph)
    machine = e4500(args.p) if args.p else None
    if machine is None and (args.profile or args.trace):
        machine = e4500(1)  # observability needs an instrumented machine
    trace_sink = None
    if args.trace:
        from .obs import ChromeTraceSink

        trace_sink = machine.telemetry.add_sink(ChromeTraceSink())
    workers = args.p if args.p else None
    try:
        res = biconnected_components(
            g,
            algorithm=args.algorithm,
            machine=machine,
            strategies=strategies,
            backend=args.backend,
            p=workers,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    if trace_sink is not None:
        trace_sink.write(args.trace)
    verified = None
    if args.verify:
        ref = biconnected_components(g, algorithm="sequential")
        verified = res.same_partition(ref)
    sizes = res.component_sizes()
    wall = res.report.region_wall_s() if res.report is not None else {}
    if args.json:
        doc = {
            "command": "bcc",
            "file": args.graph,
            "n": g.n,
            "m": g.m,
            "algorithm": res.algorithm,
            "backend": res.backend,
            "num_components": res.num_components,
            "num_articulation_points": int(res.articulation_points().size),
            "num_bridges": int(res.bridges().size),
            "largest_block_edges": int(sizes.max()) if sizes.size else 0,
            "simulated": None,
        }
        if machine is not None:
            doc["simulated"] = {
                "p": machine.p,
                "time_s": float(machine.time_s),
                "regions": {k: float(v)
                            for k, v in res.report.region_times_s().items()},
            }
        if wall:
            doc["wall"] = {
                "time_s": float(res.report.wall_time_s),
                "regions": {k: float(v) for k, v in wall.items()},
            }
        if verified is not None:
            doc["verified"] = verified
        print(json.dumps(doc, indent=2))
    else:
        print(f"n={g.n} m={g.m} algorithm={res.algorithm} backend={res.backend}")
        print(f"biconnected components: {res.num_components}")
        if sizes.size:
            print(f"largest block: {int(sizes.max())} edges; "
                  f"single-edge blocks (bridges): {int((sizes == 1).sum())}")
        print(f"articulation points: {res.articulation_points().size}")
        if machine is not None:
            print(f"simulated E4500 time at p={args.p}: {machine.time_s:.4f}s")
            for step, sec in res.report.region_times_s().items():
                print(f"  {step:22s} {sec:8.4f}s")
        if wall:
            print(f"measured wall-clock ({res.backend}): "
                  f"{res.report.wall_time_s:.4f}s")
            for step, sec in wall.items():
                print(f"  {step:22s} {sec:8.4f}s")
        if args.profile:
            from .bench.report import format_profile

            print(format_profile(res.report))
        if trace_sink is not None:
            workers_seen = len(trace_sink.worker_tracks())
            print(f"chrome trace written to {args.trace} "
                  f"({len(trace_sink.events)} events, {workers_seen} worker tracks); "
                  f"open in chrome://tracing or ui.perfetto.dev")
        if verified is not None:
            print(f"verified against sequential Tarjan: {verified}")
    if verified is False:
        raise SystemExit("bcc: labels disagree with sequential Tarjan")
    if args.labels_out:
        np.savetxt(args.labels_out, res.edge_labels, fmt="%d")
        if not args.json:
            print(f"edge labels written to {args.labels_out}")
    return 0


#: Families parameterized by a target edge count: --m is mandatory for
#: these (the default --m 0 would yield a degenerate instance).
EDGE_COUNT_FAMILIES = ("connected-gnm", "gnm", "rmat", "barabasi-albert",
                       "watts-strogatz")


def cmd_generate(args) -> int:
    if args.family in EDGE_COUNT_FAMILIES and args.m <= 0:
        raise SystemExit(
            f"generate {args.family}: --m (target edge count) is required for "
            f"edge-count families {list(EDGE_COUNT_FAMILIES)} and must be "
            f"positive, e.g. --n {args.n} --m {4 * args.n}"
        )
    g = GENERATORS[args.family](args)
    _write(g, args.out)
    print(f"wrote {args.family} graph n={g.n} m={g.m} to {args.out}")
    return 0


def cmd_convert(args) -> int:
    g = _read(args.src)
    _write(g, args.dst)
    print(f"converted {args.src} -> {args.dst} (n={g.n}, m={g.m})")
    return 0


def cmd_info(args) -> int:
    from .graph.validate import is_connected
    from .service.index import BCCIndex

    g = _read(args.graph)
    deg = g.degrees()
    try:
        idx = BCCIndex.build(
            g,
            algorithm=args.algorithm,
            backend=args.backend,
            p=args.p if args.p else None,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    connected = is_connected(g)
    biconnected = bool(
        g.n >= 3
        and connected
        and idx.num_components() == 1
        and idx.num_articulation_points() == 0
        and (deg > 0).all()
    )
    facts = {
        "file": args.graph,
        "n": g.n,
        "m": g.m,
        "avg_degree": round(g.density, 4),
        "degree_min": int(deg.min()) if g.n else 0,
        "degree_max": int(deg.max()) if g.n else 0,
        "connected": bool(connected),
        "blocks": idx.num_components(),
        "articulation_points": idx.num_articulation_points(),
        "bridges": idx.num_bridges(),
        "leaf_blocks": int(idx.block_cut().leaf_blocks().size),
        "largest_block_edges": idx.largest_block_edges(),
        "biconnected": biconnected,
        "backend": idx.result.backend,
    }
    report = idx.result.report
    wall = report.region_wall_s() if report is not None else {}
    if args.json:
        doc = {"command": "info", **facts}
        if wall:
            doc["wall"] = {
                "time_s": float(report.wall_time_s),
                "regions": {k: float(v) for k, v in wall.items()},
            }
        print(json.dumps(doc, indent=2))
        return 0
    print(f"file            : {facts['file']}")
    print(f"vertices        : {facts['n']}")
    print(f"edges           : {facts['m']}")
    print(f"avg degree      : {g.density:.2f}")
    if g.n:
        print(f"degree min/max  : {facts['degree_min']}/{facts['degree_max']}")
    print(f"connected       : {facts['connected']}")
    print(f"blocks          : {facts['blocks']}")
    print(f"articulation pts: {facts['articulation_points']}")
    print(f"bridges         : {facts['bridges']}")
    print(f"leaf blocks     : {facts['leaf_blocks']}")
    print(f"largest block   : {facts['largest_block_edges']} edges")
    print(f"biconnected     : {facts['biconnected']}")
    if facts["backend"] != "simulated":
        print(f"backend         : {facts['backend']}")
        for step, sec in wall.items():
            print(f"  {step:22s} {sec:8.4f}s")
    return 0


def cmd_augment(args) -> int:
    g = _read(args.graph)
    g2, added = augment_to_biconnected(g, algorithm=args.algorithm)
    _write(g2, args.out)
    print(f"added {len(added)} edge(s); wrote biconnected graph to {args.out}")
    for a, b in added:
        print(f"  + ({a}, {b})")
    return 0


def cmd_workload_gen(args) -> int:
    from .service import WorkloadSpec, generate_workload, mix_with_update_fraction
    from .service.store import GRAPH_FAMILIES

    if args.graph:
        graph_spec = {"path": args.graph}
    else:
        if not args.n:
            raise SystemExit("workload gen: pass --n (generated instance) or --graph FILE")
        m = args.m if args.m > 0 else args.n * max(1, round(math.log2(args.n)))
        if args.family not in GRAPH_FAMILIES:
            raise SystemExit(
                f"unknown family {args.family!r}; choose from {sorted(GRAPH_FAMILIES)}"
            )
        graph_spec = {"family": args.family, "n": args.n, "m": int(m),
                      "seed": args.graph_seed if args.graph_seed is not None else args.seed}
    try:
        spec = WorkloadSpec(
            num_ops=args.ops,
            seed=args.seed,
            mix=mix_with_update_fraction(args.update_frac),
            vertex_dist=args.dist,
            skew=args.skew,
            batch_size=args.update_batch,
            edge_bias=args.edge_bias,
            query_batch=args.batch,
            update_locality=args.update_locality,
            graph=graph_spec,
        )
        wl = generate_workload(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    from .service import save_workload

    save_workload(wl, args.out)
    batched = (f" [{wl.num_query_items} query items, batch={args.batch}]"
               if args.batch > 1 else "")
    print(f"wrote {len(wl)} ops ({wl.num_queries} queries, {wl.num_updates} updates)"
          f"{batched} to {args.out}")
    return 0


def _staleness_budget(args) -> float | None:
    """``--staleness-budget-ms``: a negative value means unbounded."""
    budget = args.staleness_budget_ms
    return None if budget < 0 else budget


def cmd_workload_run(args) -> int:
    from .service import load_workload, run_workload

    try:
        wl = load_workload(args.workload)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"workload run: {exc}") from None
    graph = _read(args.graph) if args.graph else None
    machine = e4500(args.p) if args.p else None
    try:
        rep = run_workload(
            wl,
            graph=graph,
            algorithm=args.algorithm,
            machine=machine,
            cache_size=args.cache_size,
            verify=args.verify,
            rebuild_mode=args.rebuild_mode,
            coalesce_ms=args.coalesce_ms,
            staleness_budget_ms=_staleness_budget(args),
            freshness=args.freshness,
            maintenance=args.maintenance,
        )
    except (ValueError, IndexError) as exc:
        # IndexError: --graph override smaller than the workload's universe
        raise SystemExit(f"workload run: {exc}") from None
    if args.json:
        print(json.dumps(rep.as_dict(), indent=2))
    else:
        batched = rep.num_query_items > rep.num_queries
        print(f"graph n={rep.graph_n} m={rep.graph_m}  algorithm={rep.algorithm}")
        print(f"ops: {rep.num_ops} ({rep.num_queries} queries, {rep.num_updates} updates) "
              f"in {rep.wall_s:.3f}s -> {rep.throughput_ops_s:,.0f} ops/s")
        if batched:
            print(f"batched: {rep.num_query_items} query items -> "
                  f"{rep.throughput_items_s:,.0f} items/s amortized")
        print(f"query latency us: p50={rep.query_p50_us:.1f} "
              f"p95={rep.query_p95_us:.1f} p99={rep.query_p99_us:.1f}")
        if batched:
            print(f"per-item latency us: p50={rep.query_item_p50_us:.2f} "
                  f"p95={rep.query_item_p95_us:.2f} p99={rep.query_item_p99_us:.2f}")
        for op, lat in rep.latency_us.items():
            per_item = (f" item-p50={lat['per_item_us']['p50_us']:8.2f}"
                        if lat.get("items", lat["count"]) > lat["count"] else "")
            print(f"  {op:22s} x{lat['count']:<6d} p50={lat['p50_us']:9.1f} "
                  f"p95={lat['p95_us']:9.1f} p99={lat['p99_us']:9.1f}{per_item}")
        print(f"cache: {rep.cache_hits} hits / {rep.cache_misses} misses "
              f"(hit rate {rep.cache_hit_rate:.1%}); no-ops={rep.noop_updates}")
        print(f"full builds: {rep.rebuilds} in {rep.rebuild_wall_s:.3f}s "
              f"(mode={rep.rebuild_mode})")
        if rep.rebuilds_incremental or rep.rebuilds_full:
            by_strategy = ", ".join(
                f"{name}={sec * 1e3:.1f}ms"
                for name, sec in sorted(rep.rebuild_wall_by_strategy.items())
            )
            print(f"maintenance={rep.maintenance}: "
                  f"{rep.rebuilds_incremental} incremental / "
                  f"{rep.rebuilds_full} full catch-ups; wall by strategy: "
                  f"{by_strategy or 'n/a'}")
        if rep.rebuild_errors:
            print(f"rebuild errors: {rep.rebuild_errors} "
                  f"(last: {rep.last_rebuild_error})")
        if rep.rebuild_mode == "async":
            print(f"freshness={rep.freshness}: {rep.stale_hits} stale hits, "
                  f"{rep.forced_syncs} forced syncs, "
                  f"{rep.rebuilds_queued} queued / {rep.rebuild_swaps} swapped "
                  f"/ {rep.rebuilds_rejected} rejected; "
                  f"max staleness {rep.max_staleness_ms:.1f}ms")
        if rep.sim_time_s is not None:
            print(f"simulated E4500 time at p={rep.p}: {rep.sim_time_s:.4f}s")
            for region, sec in (rep.sim_regions or {}).items():
                print(f"  {region:18s} {sec:8.4f}s")
        if rep.verified is not None:
            print(f"verified against recompute-from-scratch: "
                  f"{rep.verified} ({rep.mismatches} mismatches)")
    if args.verify and rep.mismatches:
        raise SystemExit(
            f"workload run: {rep.mismatches} query answers disagreed with recompute"
        )
    return 0


def cmd_cluster_run(args) -> int:
    from .cluster import run_cluster_workload
    from .service import WorkloadSpec, mix_with_update_fraction

    m = args.m if args.m > 0 else args.n * max(1, round(math.log2(max(args.n, 2))))
    telemetry = trace_sink = None
    if args.trace:
        from .obs import ChromeTraceSink, Telemetry

        telemetry = Telemetry()
        trace_sink = telemetry.add_sink(ChromeTraceSink())
    try:
        spec = WorkloadSpec(
            num_ops=args.ops,
            seed=args.seed,
            mix=mix_with_update_fraction(args.update_frac),
            query_batch=args.batch,
            graph={"family": args.family, "n": args.n, "m": int(m), "seed": args.seed},
        )
        rep = run_cluster_workload(
            spec,
            num_shards=args.shards,
            num_clients=args.clients,
            backend=args.backend,
            frame_records=args.frame,
            algorithm=args.algorithm,
            cache_size=args.cache_size,
            verify=args.verify,
            telemetry=telemetry,
            maintenance=args.maintenance,
        )
    except ValueError as exc:
        raise SystemExit(f"cluster run: {exc}") from None
    if trace_sink is not None:
        trace_sink.write(args.trace)
    if args.json:
        print(json.dumps(rep.as_dict(), indent=2))
    else:
        print(f"cluster: {rep.num_shards} shard(s) [{rep.backend}] x "
              f"{rep.num_clients} client(s), frames of {rep.frame_records}")
        print(f"graph per client: n={rep.graph_n} m={rep.graph_m}  "
              f"algorithm={rep.algorithm}")
        print(f"ops: {rep.num_ops} ({rep.num_queries} queries, {rep.num_updates} "
              f"updates, {rep.num_query_items} query items) in {rep.wall_s:.3f}s "
              f"-> {rep.throughput_ops_s:,.0f} ops/s")
        print(f"frame latency us: p50={rep.frame_p50_us:.1f} "
              f"p95={rep.frame_p95_us:.1f} p99={rep.frame_p99_us:.1f}; "
              f"per-item p50={rep.query_item_p50_us:.2f}")
        for shard, row in enumerate(rep.per_shard):
            print(f"  shard {shard}: {row['queries']} queries, {row['updates']} "
                  f"updates, {row['rebuilds']} rebuilds, "
                  f"hit rate {row['cache_hit_rate']:.1%}")
        for tenant, row in sorted(rep.tenants.items()):
            print(f"  tenant {tenant}: admitted={row['admitted']} "
                  f"rejected={row['rejected']} items={row['items']} "
                  f"graphs={row['graphs']} evictions={row['evictions']}")
        if rep.verified is not None:
            print(f"verified against single-engine replay: {rep.verified} "
                  f"({rep.mismatches} mismatches)")
        if rep.clean_shutdown is not None:
            print(f"shutdown: clean={rep.clean_shutdown} "
                  f"leaked_segments={rep.leaked_segments}")
        if trace_sink is not None:
            print(f"chrome trace written to {args.trace} "
                  f"({len(trace_sink.events)} events, "
                  f"{len(trace_sink.worker_tracks())} shard tracks)")
    if args.verify and rep.mismatches:
        raise SystemExit(
            f"cluster run: {rep.mismatches} routed answers disagreed with "
            f"single-engine replay"
        )
    if rep.clean_shutdown is False:
        raise SystemExit(
            f"cluster run: unclean shutdown ({rep.leaked_segments} leaked "
            f"shared-memory segments)"
        )
    return 0


def cmd_cluster_serve(args) -> int:
    from .cluster import serve

    lines = open(args.input, encoding="utf-8") if args.input else sys.stdin
    try:
        handled = serve(
            lines,
            sys.stdout,
            num_shards=args.shards,
            backend=args.backend,
            algorithm=args.algorithm,
            cache_size=args.cache_size,
            tenant_graph_budget=args.tenant_graph_budget,
            tenant_batch_quota=args.tenant_batch_quota,
            rebuild_mode=args.rebuild_mode,
            coalesce_ms=args.coalesce_ms,
            staleness_budget_ms=_staleness_budget(args),
            maintenance=args.maintenance,
        )
    finally:
        if args.input:
            lines.close()
    print(f"served {handled} request(s)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bcc", help="compute biconnected components")
    p.add_argument("graph", nargs="?", default=None,
                   help="graph file (optional with --explain)")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="tv-filter")
    p.add_argument("--strategy", action="append", default=None, metavar="STAGE=NAME",
                   help="override one pipeline stage strategy (repeatable), "
                        "e.g. --strategy lowhigh=rmq --strategy cc=pruned")
    p.add_argument("--explain", action="store_true",
                   help="print the resolved stage/strategy pipeline and exit")
    p.add_argument("--p", "-p", type=int, default=0,
                   help="processor count: simulated E4500 processors and, for "
                        "real backends, the worker count (0: off/backend default)")
    p.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                   help="execution backend (default simulated); real backends "
                        "additionally report measured per-region wall-clock")
    p.add_argument("--verify", action="store_true",
                   help="check the labels against sequential Tarjan and fail "
                        "on mismatch")
    p.add_argument("--labels-out", default=None,
                   help="write per-edge block labels to this file")
    p.add_argument("--profile", action="store_true",
                   help="print a per-stage table of simulated vs measured "
                        "wall-clock seconds")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a chrome://tracing / Perfetto JSON timeline "
                        "(stage spans; plus per-worker tracks on real backends)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document")
    p.set_defaults(fn=cmd_bcc)

    p = sub.add_parser("generate", help="generate an instance")
    p.add_argument("family", choices=sorted(GENERATORS))
    p.add_argument("out")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=float, default=0.1,
                   help="watts-strogatz rewiring probability (0: pure ring "
                        "lattice, one biconnected block)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("convert", help="convert between graph formats")
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("info", help="structural summary")
    p.add_argument("graph")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="tv-filter")
    p.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                   help="execution backend for the index build "
                        "(default simulated)")
    p.add_argument("--p", "-p", type=int, default=0,
                   help="worker count for real backends (0: backend default)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("augment", help="augment to biconnectivity")
    p.add_argument("graph")
    p.add_argument("out")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="tv-filter")
    p.set_defaults(fn=cmd_augment)

    # engine maintenance flags, shared by every command that hosts engines
    maint = argparse.ArgumentParser(add_help=False)
    maint.add_argument("--maintenance", choices=MAINTENANCE_MODES, default="auto",
                       help="catch-up strategy for pending deltas: the cost "
                            "model's pick of incremental patch vs full "
                            "rebuild (auto, default) or always rebuild from "
                            "scratch (full)")
    rebuild = argparse.ArgumentParser(add_help=False, parents=[maint])
    rebuild.add_argument("--rebuild-mode", choices=REBUILD_MODES, default="sync",
                         help="index maintenance: inline rebuilds on the query "
                              "path (sync, default) or stale-while-revalidate "
                              "background rebuilds with atomic snapshot swap "
                              "(async; see docs/service.md)")
    rebuild.add_argument("--coalesce-ms", type=float, default=0.0,
                         help="async: window batching an update burst into "
                              "one scheduled rebuild (default 0: rebuild per "
                              "burst)")
    rebuild.add_argument("--staleness-budget-ms", type=float, default=250.0,
                         help="async: serve stale at most this long before "
                              "forcing an inline rebuild (negative: unbounded)")

    p = sub.add_parser(
        "workload",
        help="generate or run biconnectivity query workloads (repro.service)",
    )
    wsub = p.add_subparsers(dest="workload_command", required=True)

    pg = wsub.add_parser("gen", help="generate a JSON-lines op stream")
    pg.add_argument("out", help="output workload file (JSON lines)")
    pg.add_argument("--ops", type=int, default=1000, help="number of operations")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--n", type=int, default=0,
                    help="vertex count of the generated instance")
    pg.add_argument("--m", type=int, default=0,
                    help="edge count (default: n * round(log2 n))")
    pg.add_argument("--family", default="connected-gnm",
                    help="generator family for the instance (default connected-gnm)")
    pg.add_argument("--graph-seed", type=int, default=None,
                    help="instance seed (default: --seed)")
    pg.add_argument("--graph", default=None,
                    help="use this graph file instead of a generated instance")
    pg.add_argument("--update-frac", type=float, default=0.1,
                    help="fraction of ops that are batch updates (default 0.1)")
    pg.add_argument("--dist", choices=("uniform", "skewed"), default="uniform",
                    help="vertex choice distribution")
    pg.add_argument("--skew", type=float, default=3.0,
                    help="skew exponent for --dist skewed")
    pg.add_argument("--batch", type=int, default=1,
                    help="items per batched query op: > 1 emits every "
                         "batchable query as its *_many form with this many "
                         "items (1: point queries, the classic stream)")
    pg.add_argument("--update-batch", type=int, default=4,
                    help="max edges per update batch")
    pg.add_argument("--edge-bias", type=float, default=0.25,
                    help="probability edge-shaped ops sample a real edge")
    pg.add_argument("--update-locality", type=float, default=0.0,
                    help="probability an update targets incremental-friendly "
                         "structure of the initial graph: adds stay inside "
                         "one biconnected block, removes pop known bridges "
                         "(default 0: historical uniform sampling)")
    pg.set_defaults(fn=cmd_workload_gen)

    pr = wsub.add_parser("run", help="execute a workload against the engine",
                         parents=[rebuild])
    pr.add_argument("workload", help="workload file produced by 'workload gen'")
    pr.add_argument("--graph", default=None,
                    help="graph file overriding the workload's graph spec")
    pr.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="tv-filter")
    pr.add_argument("--p", type=int, default=0,
                    help="simulate this many E4500 processors (0: off)")
    pr.add_argument("--cache-size", type=int, default=8,
                    help="LRU size of the fingerprint-keyed index cache")
    pr.add_argument("--verify", action="store_true",
                    help="check every query against recompute-from-scratch "
                         "(sequential Tarjan + fresh block-cut tree); async "
                         "runs verify in freshness=fresh mode unless "
                         "--freshness any is forced")
    pr.add_argument("--freshness", choices=FRESHNESS_LEVELS, default=None,
                    help="async query freshness (default: any; fresh blocks "
                         "for an exact index, bit-identical to sync)")
    pr.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    pr.set_defaults(fn=cmd_workload_run)

    p = sub.add_parser(
        "cluster",
        help="sharded multi-tenant front-end over engine workers (repro.cluster)",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)

    def _cluster_common(cp):
        cp.add_argument("--shards", type=int, default=2,
                        help="number of shard engines (default 2)")
        cp.add_argument("--backend", choices=("serial", "processes"),
                        default="serial",
                        help="shard hosting: in-process engines (serial, "
                             "1-core CI) or forked workers with shared-memory "
                             "graphs (processes)")
        cp.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                        default="tv-filter")
        cp.add_argument("--cache-size", type=int, default=8,
                        help="per-shard LRU size of the index cache")

    cr = csub.add_parser("run", help="seeded multi-client driver run",
                         parents=[maint])
    _cluster_common(cr)
    cr.add_argument("--clients", type=int, default=2,
                    help="concurrent driver clients, one graph/tenant each")
    cr.add_argument("--ops", type=int, default=1000,
                    help="operations per client")
    cr.add_argument("--n", type=int, default=1000,
                    help="vertex count of each client's instance")
    cr.add_argument("--m", type=int, default=0,
                    help="edge count (default: n * round(log2 n))")
    cr.add_argument("--family", default="connected-gnm",
                    help="generator family for client instances")
    cr.add_argument("--seed", type=int, default=0)
    cr.add_argument("--batch", type=int, default=1,
                    help="items per batched query op (see workload gen)")
    cr.add_argument("--frame", type=int, default=16,
                    help="records per routed frame (scatter/gather unit)")
    cr.add_argument("--update-frac", type=float, default=0.1,
                    help="fraction of ops that are batch updates")
    cr.add_argument("--verify", action="store_true",
                    help="replay every client stream on a single engine and "
                         "fail on any element-wise answer difference")
    cr.add_argument("--trace", default=None, metavar="FILE",
                    help="write a chrome://tracing timeline (route/scatter/"
                         "gather spans plus per-shard tracks)")
    cr.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    cr.set_defaults(fn=cmd_cluster_run)

    cs = csub.add_parser("serve", help="JSON-lines request loop on stdin/stdout",
                         parents=[rebuild])
    _cluster_common(cs)
    cs.add_argument("--input", default=None,
                    help="read requests from this file instead of stdin")
    cs.add_argument("--tenant-graph-budget", type=int, default=None,
                    help="max resident graphs per tenant (LRU-evicted)")
    cs.add_argument("--tenant-batch-quota", type=int, default=None,
                    help="max query/update items per tenant per batch")
    cs.set_defaults(fn=cmd_cluster_serve)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
