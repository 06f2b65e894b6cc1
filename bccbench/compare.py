"""``run.py --compare OLD [NEW]``: medians, quartiles and deltas per workload.

Each result file holds JSON lines appended by ``run.py`` (one per run).
For every workload and every metric the report gives, per file, the
median and the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  With two files it adds the change of the median.  For an
end-to-end metric it gives a verdict against the metric's bound from
``BENCHMARK.json``:

``unresolved``  either file's spread exceeds the bound, so run-to-run
                noise could hide a change of that size
``worse``       the median moved the wrong way by more than the bound
``better``      the median moved the right way by more than the bound
``same``        otherwise

It also reports whether runs of the same workload and seed did the same
work (equal work digests) and the share of failed operations.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> list:
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def _group(runs: list) -> dict:
    """(workload, trace) -> {"metrics": name -> [values], "runs": [...]}"""
    out = defaultdict(lambda: {"metrics": defaultdict(list), "runs": []})
    for run in runs:
        g = out[(run["workload"], run["trace"])]
        g["runs"].append(run)
        for name, m in run["metrics"].items():
            g["metrics"][name].append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3, spread) — spread is (q3 - q1) / |median|."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return q1, med, q3, spread


def _verdict(bound, better, old, new) -> str:
    if bound is None:
        return ""
    if old[3] > bound or new[3] > bound:
        return "unresolved"
    change = (new[1] - old[1]) / abs(old[1]) if old[1] else 0.0
    if better == "lower":
        change = -change
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def _work_line(old_runs, new_runs) -> str:
    repeat = all(r.get("work_repeat", False) for r in old_runs + new_runs)
    digests = defaultdict(set)
    for r in old_runs + new_runs:
        digests[r["seed"]].add(r.get("work_digest", ""))
    differ = sorted(s for s, d in digests.items() if len(d) > 1)
    text = f"work repeats within every run: {repeat}"
    if differ:
        text += f"; seeds whose runs did different work: {differ}"
    else:
        text += "; runs of the same seed did the same work"
    return text


def _failed_share(runs) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return f"{failed}/{attempted}"


def compare(spec: dict, paths: list) -> int:
    if len(paths) > 2:
        raise SystemExit("--compare takes one or two result files")
    metas = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old = _group(load(paths[0]))
    new = _group(load(paths[1])) if len(paths) == 2 else None
    for key in sorted(old):
        workload, trace = key
        a = old[key]
        b = new.get(key) if new is not None else None
        print(f"\n== {workload} (trace {trace}): {len(a['runs'])} runs"
              + (f" vs {len(b['runs'])} runs" if b else ""))
        print("   failed/attempted: " + _failed_share(a["runs"])
              + (f" vs {_failed_share(b['runs'])}" if b else ""))
        print("   " + _work_line(a["runs"], b["runs"] if b else []))
        head = f"   {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}"
        if b:
            head += f" {'new median':>12s} {'spread':>7s} {'delta':>8s} verdict"
        print(head)
        for name, values in a["metrics"].items():
            meta = metas.get(name, {})
            qa = quartiles(values)
            line = (f"   {name:40s} {qa[1]:12.6g} {qa[0]:12.6g} {qa[2]:12.6g} "
                    f"{qa[3]:7.1%}")
            if b and name in b["metrics"]:
                qb = quartiles(b["metrics"][name])
                delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
                line += (f" {qb[1]:12.6g} {qb[3]:7.1%} {delta:+8.1%} "
                         f"{_verdict(meta.get('bound'), meta.get('better'), qa, qb)}")
            elif not b and meta.get("bound") is not None:
                ok = qa[3] <= meta["bound"]
                line += f"  (bound {meta['bound']:.0%}: {'within' if ok else 'EXCEEDS'})"
            print(line + f" {meta.get('unit', '')}")
    return 0
