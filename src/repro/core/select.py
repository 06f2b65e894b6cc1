"""Adaptive algorithm selection — ``algorithm="auto"``.

Picks a BCC variant per graph from (n, m) alone, using closed-form cost
predictions instead of trial runs, so the choice is pure arithmetic:
deterministic across processes, hosts, and hash seeds.

The predictor reuses the simulated machine's vocabulary.  For each
candidate, :data:`_MODEL` stores the *work composition* — contiguous /
random / ALU operation counts as linear functions of n and m, plus a
barrier count affine in log2(n) — fitted by least squares against the
instrumented simulator on random connected G(n, m) graphs across
densities m/n ∈ [2, 10] (see ``calibrate()``; the simulator is
deterministic, so the fit is reproducible).  A composition priced with a
:class:`~repro.smp.cost_model.CostTable` becomes a predicted runtime:

* priced with :data:`~repro.smp.cost_model.VECTORIZED_HOST` (per-op
  weights fitted to measured wall time of this reproduction's vectorized
  execution) it predicts *wall* cost — the default objective, because
  "auto" serves the live query path;
* priced with :data:`~repro.smp.cost_model.SUN_E4500` it predicts the
  paper machine's *simulated* cost — the ``objective="simulated"`` knob,
  which reproduces the paper's crossovers (tv-opt below the m <= 4n
  fallback line, tv-filter beyond it).

``tv-filter`` is priced with its density fallback folded in: at
m <= 4n it *is* tv-opt (the spec falls back before filtering), so the
predictor charges tv-opt's composition there — and the deterministic
tie then resolves to the earlier :data:`AUTO_CANDIDATES` entry.
"""

from __future__ import annotations

import math

from ..smp import SUN_E4500, VECTORIZED_HOST, CostTable

__all__ = [
    "AUTO_CANDIDATES",
    "OBJECTIVES",
    "predict_cost_s",
    "choose_algorithm",
    "explain",
    "describe_policy",
    "calibrate",
]

#: Candidate pool, in deterministic tie-break order.  tv-smp is excluded
#: (dominated by tv-opt on every metric — paper §3.2).
AUTO_CANDIDATES = ("tv-opt", "tv-filter", "fastbcc")

OBJECTIVES = ("wall", "simulated")

#: tv-filter's density fallback line (paper §4: fall back when m <= 4n).
FALLBACK_RATIO = 4.0

#: Work composition per candidate: operation counts as linear functions of
#: (n, m) — ``{class: (per_n, per_m)}`` — plus ``barriers`` affine in
#: log2(n).  Fitted by ``calibrate()`` on random connected G(n, m) at
#: n ∈ {50k, 150k}, m/n ∈ {2, 5/3, 10/3, ...} (five points spanning
#: m/n ∈ [2, 10]); tv-filter fitted with its fallback disabled so the
#: coefficients describe the *filtering* pipeline itself.
_MODEL = {
    "tv-opt": {
        "contig": (-3.186, 79.015),
        "random": (66.993, 83.128),
        "alu": (50.347, 105.002),
        "barriers": (-173.68, 17.98),
    },
    "tv-filter": {
        "contig": (90.868, 38.029),
        "random": (201.09, 32.507),
        "alu": (149.3, 64.017),
        "barriers": (-48.2, 13.04),
    },
    "fastbcc": {
        "contig": (28.374, 28.368),
        "random": (61.211, 78.876),
        "alu": (41.722, 76.703),
        "barriers": (-98.74, 12.2),
    },
}


def _table_for(objective: str) -> CostTable:
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; choose from {list(OBJECTIVES)}")
    return VECTORIZED_HOST if objective == "wall" else SUN_E4500


def predict_cost_s(
    algorithm: str,
    n: int,
    m: int,
    p: int = 1,
    *,
    objective: str = "wall",
    costs: CostTable | None = None,
) -> float:
    """Predicted runtime (seconds) of ``algorithm`` on G(n, m) with p workers.

    ``costs`` overrides the objective's cost table.  tv-filter at
    m <= 4n is priced as tv-opt (the registered fallback fires before any
    filtering work happens).
    """
    table = costs if costs is not None else _table_for(objective)
    name = algorithm
    if name == "tv-filter" and m <= FALLBACK_RATIO * n:
        name = "tv-opt"
    try:
        entry = _MODEL[name]
    except KeyError:
        raise ValueError(
            f"no cost model for algorithm {algorithm!r}; modelled: {sorted(_MODEL)}"
        ) from None
    if n <= 0:
        return 0.0
    work_ns = 0.0
    for cls, ns_per_op in (
        ("contig", table.contig_ns),
        ("random", table.random_ns),
        ("alu", table.alu_ns),
    ):
        per_n, per_m = entry[cls]
        work_ns += max(per_n * n + per_m * m, 0.0) * ns_per_op
    b0, b_logn = entry["barriers"]
    barriers = max(b0 + b_logn * math.log2(max(n, 2)), 1.0)
    sync_ns = barriers * table.barrier_ns(p) + table.spawn_ns
    return (work_ns / max(p, 1) + sync_ns) * 1e-9


def choose_algorithm(n: int, m: int, p: int = 1, *, objective: str = "wall") -> str:
    """The candidate with the lowest predicted cost (deterministic).

    Ties resolve to the earliest :data:`AUTO_CANDIDATES` entry.  Degenerate
    graphs (no edges, or fewer than two vertices) short-circuit to tv-opt:
    every pipeline is O(1) there and tv-opt is the tie-break anchor.
    """
    if n <= 1 or m == 0:
        return AUTO_CANDIDATES[0]
    best_name = None
    best_cost = math.inf
    for name in AUTO_CANDIDATES:
        cost = predict_cost_s(name, n, m, p, objective=objective)
        if cost < best_cost:
            best_name, best_cost = name, cost
    return best_name


def explain(n: int, m: int, p: int = 1, *, objective: str = "wall") -> str:
    """Human-readable selection table (the CLI's ``--explain`` for auto)."""
    chosen = choose_algorithm(n, m, p, objective=objective)
    ratio = m / n if n else float("inf")
    lines = [
        f"auto: n={n} m={m} m/n={ratio:.2f} p={p} objective={objective}",
        f"  {'candidate':<11} {'wall-pred':>12} {'sim-pred':>12}",
    ]
    for name in AUTO_CANDIDATES:
        wall = predict_cost_s(name, n, m, p, objective="wall")
        sim = predict_cost_s(name, n, m, p, objective="simulated")
        mark = " <- chosen" if name == chosen else ""
        lines.append(f"  {name:<11} {wall * 1e3:>10.1f}ms {sim * 1e3:>10.1f}ms{mark}")
    if m <= FALLBACK_RATIO * n:
        lines.append(
            f"  note: m <= {FALLBACK_RATIO:g}n, tv-filter priced as its tv-opt fallback"
        )
    return "\n".join(lines)


def describe_policy() -> str:
    """Static policy description (``bcc --algorithm auto --explain`` with no graph)."""
    lines = [
        "auto — adaptive per-graph selection over "
        + ", ".join(AUTO_CANDIDATES),
        "  Closed-form cost predictions from (n, m) and the worker count:",
        "  per-candidate operation compositions (calibrated against the",
        "  instrumented simulator) priced with a cost table.  Default",
        f"  objective 'wall' uses {VECTORIZED_HOST.name} (fitted to measured",
        f"  vectorized execution); 'simulated' uses {SUN_E4500.name} (the",
        "  paper machine, reproducing the m <= 4n tv-filter crossover).",
        "  Pure arithmetic: the same graph always selects the same",
        "  algorithm, in every process.  Pass an explicit algorithm name",
        "  anywhere 'auto' is accepted to override it.",
    ]
    return "\n".join(lines)


def calibrate(
    points=((50_000, 100_000), (50_000, 250_000), (50_000, 500_000),
            (150_000, 300_000), (150_000, 600_000)),
    seed: int = 1234,
) -> dict:
    """Refit :data:`_MODEL` from instrumented simulator runs (dev helper).

    Runs every candidate on random connected G(n, m) for each point,
    reads the machine's operation counters, and least-squares fits the
    per-class (per_n, per_m) coefficients and the barrier affine.
    Returns the fitted dict (does not mutate :data:`_MODEL`); the bench's
    variants experiment uses it to report model drift.
    """
    import numpy as np

    from ..graph import generators as gen
    from ..smp import Machine
    from .pipeline import run_pipeline

    rows: dict[str, list] = {c: [] for c in AUTO_CANDIDATES}
    for n, m in points:
        g = gen.random_connected_gnm(n, m, seed=seed)
        for cand in AUTO_CANDIDATES:
            knobs = {"fallback_ratio": None} if cand == "tv-filter" else {}
            mach = Machine(p=1)
            run_pipeline(g, cand, mach, **knobs)
            t = mach.report().totals
            rows[cand].append((n, m, t.work_contig, t.work_random, t.work_alu, t.barriers))

    fitted: dict[str, dict] = {}
    for cand, data in rows.items():
        nm = np.array([[n, m] for n, m, *_ in data], dtype=float)
        entry: dict[str, tuple] = {}
        for i, cls in enumerate(("contig", "random", "alu")):
            y = np.array([d[2 + i] for d in data], dtype=float)
            coef, *_ = np.linalg.lstsq(nm, y, rcond=None)
            entry[cls] = (round(float(coef[0]), 3), round(float(coef[1]), 3))
        basis = np.array([[1.0, math.log2(n)] for n, m, *_ in data])
        y = np.array([d[5] for d in data], dtype=float)
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        entry["barriers"] = (round(float(coef[0]), 2), round(float(coef[1]), 2))
        fitted[cand] = entry
    return fitted
