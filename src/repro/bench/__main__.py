"""Command-line experiment harness: ``python -m repro.bench <experiment>``.

Experiments (see DESIGN.md §3.3 for the index):

  fig3          Fig. 3 — execution time / speedup vs p over densities
  fig4          Fig. 4 — per-step breakdown at p=12
  fig1          Fig. 1 — worked-example relation sizes
  filter        §4 claims — filtered-edge bound, 2xBFS counting recipe
  abl-euler     ablation: Euler tour + list ranking vs DFS numbering
  abl-spanning  ablation: SV vs traversal spanning trees
  abl-auxcc     ablation (beyond paper): full vs leaf-pruned aux CC
  abl-lowhigh   ablation: Low-high via level sweep vs RMQ
  abl-filter    ablation: edge filtering on vs off (tv-filter base)
  abl-fallback  §4: m/n sweep around the m = 4n fallback threshold

The abl-* experiments enumerate the stage/strategy registry
(repro.core.pipeline): newly registered strategies appear automatically.
  pathological  §4: chain (d = O(n)) vs random (small d)
  dense         Woo–Sahni regime: 70%/90% of K_n
  service       sync-vs-async index-maintenance tail latency and an
                incremental-vs-full rebuild comparison under intra-block
                churn (repro.service; see docs/service.md); writes JSON
                only with --json PATH
  guard         recompute fig3/fig4 at the --baseline file's n and require
                every simulated number bit-identical (exit 1 on drift)
  all           run every experiment above except guard

Scale: --n overrides the vertex count (default 100,000;
REPRO_BENCH_SCALE=paper selects the paper's n = 1,000,000).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass

from . import report, runner
from .guard import run_guard


def _emit(text: str, args) -> None:
    print(text)
    print()


def _save_json(obj, path: str) -> None:
    def default(o):
        if is_dataclass(o):
            return asdict(o)
        raise TypeError(type(o))

    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, default=default)


EXPERIMENTS = {}


def experiment(name):
    def wrap(fn):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


@experiment("fig3")
def _fig3(args):
    cells = runner.run_fig3(n=args.n, seed=args.seed)
    _emit(report.format_fig3(cells), args)
    return cells


@experiment("fig4")
def _fig4(args):
    rows = runner.run_fig4(n=args.n, seed=args.seed)
    _emit(report.format_fig4(rows), args)
    _emit(report.format_fig4_bars(rows), args)
    return rows


@experiment("fig1")
def _fig1(args):
    result = runner.run_fig1()
    _emit(report.format_fig1(result), args)
    return result


@experiment("filter")
def _filter(args):
    rows = runner.run_filter_claims(n=args.n, seed=args.seed)
    _emit(report.format_filter_claims(rows), args)
    return rows


@experiment("abl-euler")
def _abl_euler(args):
    rows = runner.run_ablation_euler(n=args.n, seed=args.seed)
    _emit(report.format_ablation(
        rows, "Ablation — Euler tour construction & tree numbering (§3.2)"), args)
    return rows


@experiment("abl-spanning")
def _abl_spanning(args):
    rows = runner.run_ablation_spanning(n=args.n, seed=args.seed)
    _emit(report.format_ablation(rows, "Ablation — spanning tree strategy (§3.2)"), args)
    return rows


@experiment("abl-auxcc")
def _abl_auxcc(args):
    rows = runner.run_ablation_auxcc(n=args.n, seed=args.seed)
    _emit(report.format_ablation(
        rows, "Ablation — auxiliary-graph CC: full (paper) vs leaf-pruned"), args)
    return rows


@experiment("abl-lowhigh")
def _abl_lowhigh(args):
    rows = runner.run_ablation_lowhigh(n=args.n, seed=args.seed)
    _emit(report.format_ablation(rows, "Ablation — Low-high aggregation"), args)
    return rows


@experiment("abl-filter")
def _abl_filter(args):
    rows = runner.run_ablation("filter", n=args.n, seed=args.seed)
    _emit(report.format_ablation(
        rows, "Ablation — edge filtering on vs off (§4)"), args)
    return rows


@experiment("abl-fallback")
def _abl_fallback(args):
    rows = runner.run_fallback_sweep(n=args.n, seed=args.seed)
    _emit(report.format_ablation(
        rows, "§4 — filter vs TV-opt around the m = 4n fallback threshold"), args)
    return rows


@experiment("pathological")
def _pathological(args):
    rows = runner.run_pathological(n=args.n, seed=args.seed)
    _emit(report.format_ablation(rows, "§4 — pathological d = O(n) chain"), args)
    return rows


@experiment("dense")
def _dense(args):
    rows = runner.run_dense(seed=args.seed)
    _emit(report.format_ablation(rows, "Woo–Sahni dense regime (§1)"), args)
    return rows


@experiment("service")
def _service(args):
    tail = runner.run_service_tail_bench(n=args.n, seed=args.seed)
    _emit(report.format_service_tail(tail), args)
    return tail


@experiment("all")
def _all(args):
    results = {}
    for name, fn in EXPERIMENTS.items():
        if name == "all":
            continue
        print(f"=== {name} " + "=" * (68 - len(name)))
        results[name] = fn(args)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=sorted([*EXPERIMENTS, "guard"]))
    parser.add_argument("--n", type=int, default=None,
                        help="vertex count (default: REPRO_BENCH_N or 100000)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", type=str, default=None,
                        help="also write results as JSON to this path")
    parser.add_argument("--baseline", type=str, default="results/all_n100k.json",
                        help="guard: committed fig3/fig4 baseline to diff against")
    args = parser.parse_args(argv)
    if args.experiment == "guard":
        return run_guard(args.baseline)
    result = EXPERIMENTS[args.experiment](args)
    if args.json:
        _save_json(result, args.json)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
