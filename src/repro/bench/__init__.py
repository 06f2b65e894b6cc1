"""Experiment harness reproducing the paper's figures and claims.

Run from the command line (``python -m repro.bench fig3``; ``python -m
repro.bench guard`` checks the simulated figures against the committed
baseline) or call the runners programmatically (:mod:`repro.bench.runner`).
"""

from . import report, runner
from .runner import (
    run_ablation_auxcc,
    run_ablation_euler,
    run_ablation_lowhigh,
    run_ablation_spanning,
    run_dense,
    run_fallback_sweep,
    run_fig1,
    run_fig3,
    run_fig4,
    run_filter_claims,
    run_pathological,
    run_service_tail_bench,
)

__all__ = [
    "runner",
    "report",
    "run_fig1",
    "run_fig3",
    "run_fig4",
    "run_filter_claims",
    "run_ablation_euler",
    "run_ablation_spanning",
    "run_ablation_auxcc",
    "run_ablation_lowhigh",
    "run_fallback_sweep",
    "run_pathological",
    "run_dense",
    "run_service_tail_bench",
]
