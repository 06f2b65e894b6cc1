"""Benchmark runner for the biconnected-components program.

Run one workload (from the root of a checkout)::

    python3 bccbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

prints every end-to-end metric of ``BENCHMARK.json`` (``--trace 1``:
every per-layer metric) with its unit, checks every answer against
networkx, appends a result record to ``--out`` and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.

Other modes::

    python3 bccbench/run.py --sweep --seeds 1-10 --out a.jsonl   # many runs
    python3 bccbench/run.py --compare a.jsonl b.jsonl            # medians, deltas
    python3 bccbench/run.py --selftest        # the answer check rejects corruption
    python3 bccbench/run.py --rebuild-refs --seeds 1-10   # recompute references
    python3 bccbench/run.py --describe --seed 1   # input make-up, baselines, noise

See ``bccbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from common import OUT_DIR, SetupError, bootstrap, pin_one_cpu

WORKLOADS = ("solve", "serve-churn", "cluster-read")
DEFAULT_OUT = os.path.join(OUT_DIR, "runs.jsonl")


def _module(workload: str):
    if workload == "solve":
        import solve as mod
    elif workload == "serve-churn":
        import churn as mod
    else:
        import cluster as mod
    return mod


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(spec: dict, args) -> int:
    cpu = pin_one_cpu()  # shard workers inherit the mask
    out = _module(args.workload).run(args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    produced = out.per_layer if args.trace else out.end_to_end
    declared = {m["name"]: m["unit"] for m in spec[section]}
    unknown = sorted(set(produced) - set(declared))
    if unknown:
        raise SetupError(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace and set(produced) != set(declared):
        raise SetupError(f"end-to-end metrics not produced: {sorted(set(declared) - set(produced))}")
    # a traced run lists every per-layer metric; layers this workload does
    # not exercise read 0 (see README, "Per-layer metrics")
    metrics = {name: {"value": float(produced.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    wrong_answers = out.checks.get("mismatches")
    correct = not wrong_answers and out.attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
        "work": out.work[0] if out.work else {},
        "work_traced": out.work_traced[0] if out.work_traced else {},
        "work_repeat": out.work_repeat,
        "work_digest": out.work_digest,
        "checks": out.checks,
        "notes": out.notes,
        "host": {"cpus": os.cpu_count(), "pinned_cpu": cpu,
                 "python": platform.python_version(), "machine": platform.machine()},
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {int(args.trace)}  "
          f"{'rounds' if 'rounds' in out.notes else 'passes'} "
          f"{out.notes.get('rounds', out.notes.get('passes'))}")
    for name, m in metrics.items():
        if args.trace and name not in produced:
            continue
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    print(f"  attempted {out.attempted}  failed {out.failed}  correct {correct}")
    print(f"  work repeats across rounds: {out.work_repeat}  digest {out.work_digest}")
    print(f"  work per round: {json.dumps(record['work'], default=str)}")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


def sweep(args) -> int:
    """Run every (workload, seed) in its own process, appending to --out."""
    workloads = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    script = os.path.abspath(__file__)
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", args.out]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"{time.perf_counter() - t0:.1f}s {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-2000:])
                return proc.returncode
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=DEFAULT_OUT, help="result file (JSON lines, appended)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--sweep", action="store_true", help="run --workloads x --seeds")
    mode.add_argument("--compare", nargs="+", metavar="RESULTS",
                      help="summarize one result file, or compare two")
    mode.add_argument("--selftest", action="store_true")
    mode.add_argument("--rebuild-refs", action="store_true")
    mode.add_argument("--describe", action="store_true")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    args = ap.parse_args(argv)
    try:
        spec = bootstrap()
        if args.sweep:
            return sweep(args)
        if args.compare:
            from compare import compare

            return compare(spec, args.compare)
        if args.selftest:
            from selftest import selftest

            return selftest()
        if args.rebuild_refs:
            from describe import rebuild_refs

            return rebuild_refs(parse_seeds(args.seeds))
        if args.describe:
            from describe import describe

            pin_one_cpu()
            return describe(args.seed)
        if not args.workload:
            ap.error("--workload is required")
        return run_one(spec, args)
    except SetupError as exc:
        print(f"bccbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
