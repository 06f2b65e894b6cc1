"""Differential oracle: everything against sequential Tarjan.

Two kinds of cross-check live here:

* :func:`differential_check` runs one registered algorithm and compares
  the canonical edge labels (:func:`repro.core.result.canonical_edge_labels`, applied by
  ``BCCResult`` itself) against sequential Hopcroft–Tarjan.  Canonical
  labels over the canonical edge order make "same partition" a plain
  array equality — labeling nondeterminism (Liu & Tarjan) cannot hide.
* :func:`service_replay_check` replays a seeded workload through the
  :class:`~repro.service.engine.ServiceEngine` (cache, lazy coalescing,
  incremental extend/shrink paths and all) with the driver's
  full-recompute oracle enabled.

Both return ``None`` on agreement or a :class:`Divergence` describing the
failure; they never raise on algorithm disagreement (crashes inside the
algorithm under test are also captured as divergences).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field

import numpy as np

from ..core.tarjan import tarjan_bcc
from ..graph import Graph

__all__ = [
    "Divergence",
    "default_runner",
    "differential_check",
    "check_graph",
    "service_replay_check",
]


@dataclass
class Divergence:
    """One observed disagreement (or crash) with the reference."""

    check: str  # "differential" | "service" | a metamorphic relation name
    message: str
    algorithm: str | None = None
    graph: Graph | None = None
    extra: dict = field(default_factory=dict)

    def describe(self) -> str:
        where = self.algorithm or "?"
        g = f" on n={self.graph.n} m={self.graph.m}" if self.graph is not None else ""
        return f"[{self.check}] {where}{g}: {self.message}"


def default_runner(g: Graph, algorithm: str):
    """The production entry point; the fuzzer's injectable seam.

    Tests substitute a *mutant* runner here to prove the harness catches
    a planted bug end to end.
    """
    from ..api import biconnected_components

    return biconnected_components(g, algorithm=algorithm)


def reference_labels(g: Graph) -> np.ndarray:
    """Canonical ground-truth labels from sequential Hopcroft–Tarjan."""
    return tarjan_bcc(g).edge_labels


def differential_check(
    g: Graph,
    algorithm: str,
    runner=None,
    reference: np.ndarray | None = None,
) -> Divergence | None:
    """Compare one algorithm against sequential Tarjan.

    ``reference`` lets callers amortize the Tarjan run over many
    algorithms on the same graph.  A crash in the run under test is reported as a
    divergence, not raised.
    """
    runner = runner or default_runner
    if reference is None:
        reference = reference_labels(g)
    try:
        res = runner(g, algorithm)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return Divergence(
            "differential",
            f"crashed: {type(exc).__name__}: {exc}",
            algorithm=algorithm,
            graph=g,
            extra={"traceback": traceback.format_exc(limit=8)},
        )
    if not np.array_equal(res.edge_labels, reference):
        bad = int(np.flatnonzero(res.edge_labels != reference)[0])
        return Divergence(
            "differential",
            f"labels diverge from sequential Tarjan at edge {bad} "
            f"({int(g.u[bad])},{int(g.v[bad])}): got {int(res.edge_labels[bad])}, "
            f"expected {int(reference[bad])} "
            f"({int(np.max(res.edge_labels, initial=-1)) + 1} vs "
            f"{int(np.max(reference, initial=-1)) + 1} blocks)",
            algorithm=algorithm,
            graph=g,
        )
    return None


def check_graph(g: Graph, algorithms, runner=None) -> list[Divergence]:
    """Differential sweep of one graph over ``algorithms``."""
    reference = reference_labels(g)
    found: list[Divergence] = []
    for algorithm in algorithms:
        d = differential_check(g, algorithm, runner=runner, reference=reference)
        if d is not None:
            found.append(d)
    return found


def service_replay_check(
    g: Graph,
    num_ops: int = 60,
    seed: int = 0,
    algorithm: str = "tv-filter",
    update_frac: float = 0.25,
) -> Divergence | None:
    """Replay a seeded workload with the full-recompute oracle enabled.

    Exercises the engine's cache / lazy-coalescing / incremental
    extend-shrink machinery against from-scratch sequential recomputation
    (:func:`repro.service.driver.run_workload` with ``verify=True``).
    """
    from ..service.driver import run_workload
    from ..service.workload import (
        WorkloadSpec,
        generate_workload,
        mix_with_update_fraction,
    )

    if g.n < 2:
        return None
    spec = WorkloadSpec(
        num_ops=num_ops,
        seed=seed,
        mix=mix_with_update_fraction(update_frac),
        edge_bias=0.5,
    )
    try:
        workload = generate_workload(spec, graph=g)
        report = run_workload(workload, graph=g, algorithm=algorithm, verify=True)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        return Divergence(
            "service",
            f"workload replay crashed: {type(exc).__name__}: {exc}",
            algorithm=algorithm,
            graph=g,
            extra={"traceback": traceback.format_exc(limit=8)},
        )
    if report.mismatches:
        return Divergence(
            "service",
            f"{report.mismatches} of {report.num_queries} query answers "
            f"disagree with full recompute (seed={seed})",
            algorithm=algorithm,
            graph=g,
            extra={"seed": seed, "num_ops": num_ops},
        )
    return None
