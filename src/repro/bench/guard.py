"""Bit-identity guard for the simulated paper figures.

Recomputes the Fig. 3 and Fig. 4 experiments at the committed baseline's
scale and diffs every *simulated* number against the baseline
(``results/all_n100k.json``) with exact ``==`` float comparison — not a
tolerance.  The simulated cost model is deterministic arithmetic over a
seeded graph, so any drift, however small, means the cost-accounting
semantics changed (e.g. a refactor reordered float additions) and must
be either fixed or explicitly re-baselined.

Wall-clock fields are ignored: they are measurements, not model outputs.

Usage::

    PYTHONPATH=src python -m repro.bench guard [--baseline PATH]

Exit status 0 iff every simulated figure number is bit-identical.
"""

from __future__ import annotations

import json
import sys

from . import runner

__all__ = ["FIG3_SIM_FIELDS", "diff_fig3", "diff_fig4", "run_guard"]

#: fig3 fields that must match bit-for-bit (wall_time_s is excluded).
FIG3_SIM_FIELDS = ("n", "m", "sim_time_s", "seq_sim_time_s")


def _key(rec) -> tuple:
    get = rec.get if isinstance(rec, dict) else lambda k: getattr(rec, k)
    return (get("density"), get("algorithm"), get("p"))


def _field(rec, name):
    return rec[name] if isinstance(rec, dict) else getattr(rec, name)


def diff_fig3(baseline: list[dict], fresh) -> list[str]:
    """Mismatch messages between baseline fig3 cells and recomputed ones."""
    errors = []
    base = {_key(c): c for c in baseline}
    new = {_key(c): c for c in fresh}
    for missing in sorted(set(base) - set(new)):
        errors.append(f"fig3 {missing}: cell missing from recomputation")
    for extra in sorted(set(new) - set(base)):
        errors.append(f"fig3 {extra}: unexpected new cell (re-baseline?)")
    for key in sorted(set(base) & set(new)):
        for field in FIG3_SIM_FIELDS:
            want, got = base[key][field], _field(new[key], field)
            if got != want:
                errors.append(
                    f"fig3 {key} {field}: baseline {want!r} != recomputed {got!r}"
                )
    return errors


def diff_fig4(baseline: list[dict], fresh) -> list[str]:
    """Mismatch messages between baseline fig4 rows and recomputed ones."""
    errors = []
    base = {_key(r): r for r in baseline}
    new = {_key(r): r for r in fresh}
    for missing in sorted(set(base) - set(new)):
        errors.append(f"fig4 {missing}: row missing from recomputation")
    for extra in sorted(set(new) - set(base)):
        errors.append(f"fig4 {extra}: unexpected new row (re-baseline?)")
    for key in sorted(set(base) & set(new)):
        want_steps = base[key]["steps"]
        got_steps = _field(new[key], "steps")
        for step in sorted(set(want_steps) | set(got_steps)):
            want, got = want_steps.get(step), got_steps.get(step)
            if got != want:
                errors.append(
                    f"fig4 {key} step {step!r}: baseline {want!r} != "
                    f"recomputed {got!r}"
                )
        want, got = base[key]["total_s"], _field(new[key], "total_s")
        if got != want:
            errors.append(f"fig4 {key} total_s: baseline {want!r} != recomputed {got!r}")
    return errors


def run_guard(baseline_path: str) -> int:
    """Recompute fig3/fig4 at the baseline's n and diff; return the exit code."""
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    n = baseline["fig3"][0]["n"]
    seed = 42  # the committed baseline's seed (bench harness default)

    print(f"recomputing fig3 at n={n:,} (seed {seed}) ...", flush=True)
    fig3 = runner.run_fig3(n=n, seed=seed)
    print(f"recomputing fig4 at n={n:,} (seed {seed}) ...", flush=True)
    fig4 = runner.run_fig4(n=n, seed=seed)

    errors = diff_fig3(baseline["fig3"], fig3) + diff_fig4(baseline["fig4"], fig4)
    if errors:
        for e in errors:
            print(f"MISMATCH: {e}", file=sys.stderr)
        print(
            f"\nfigures guard FAILED: {len(errors)} simulated number(s) drifted "
            f"from {baseline_path}",
            file=sys.stderr,
        )
        return 1
    n_numbers = len(fig3) * 2 + sum(len(r.steps) + 1 for r in fig4)
    print(
        f"figures guard OK: {len(fig3)} fig3 cells and {len(fig4)} fig4 rows "
        f"({n_numbers} simulated numbers) bit-identical to {baseline_path}"
    )
    return 0
