"""Public API: one entry point over all registered algorithms.

>>> import repro
>>> g = repro.generators.random_connected_gnm(1000, 5000, seed=7)
>>> res = repro.biconnected_components(g, algorithm="tv-filter")
>>> res.num_components >= 1
True

Custom hybrids compose registry strategies with no new code::

    res = repro.biconnected_components(
        g, algorithm="custom",
        strategies={"lowhigh": "rmq", "cc": "pruned"},
    )
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .core import pipeline as _pipeline
from .core import select as _select
from .core.filter import count_biconnected_components_bfs
from .core.result import BCCResult
from .core.tarjan import tarjan_bcc
from .graph import Graph
from .smp import Machine

__all__ = [
    "ALGORITHMS",
    "biconnected_components",
    "list_algorithms",
    "describe_algorithm",
    "articulation_points",
    "bridges",
    "is_biconnected",
    "count_biconnected_components_bfs",
]

#: Base spec the ``"custom"`` algorithm starts from before ``strategies``
#: overrides are applied.
CUSTOM_BASE = "tv-opt"


def _sequential_runner(g, machine=None, *, strategies=None, backend=None, p=None,
                       team=None, **kwargs):
    rejected = sorted(kwargs)
    if strategies is not None:
        rejected.append("strategies")
    if backend not in (None, "simulated"):
        rejected.append("backend")
    if p is not None:
        rejected.append("p")
    if team is not None:
        rejected.append("team")
    if rejected:
        raise TypeError(
            f"algorithm 'sequential' accepts no algorithm options, got {rejected}"
        )
    return tarjan_bcc(g, machine)


def _pipeline_runner(spec_name: str, result_name: str | None = None):
    def run(g, machine=None, *, strategies=None, backend=None, p=None,
            team=None, **kwargs):
        return _pipeline.run_pipeline(
            g,
            spec_name,
            machine,
            strategies=strategies,
            algorithm_name=result_name,
            backend=backend,
            p=p,
            team=team,
            **kwargs,
        )

    return run


def _auto_runner(g, machine=None, *, strategies=None, backend=None, p=None,
                 team=None, objective="wall", **kwargs):
    """Adaptive dispatch: pick a concrete variant via :mod:`repro.core.select`.

    The choice is pure arithmetic on (n, m, workers) — deterministic
    across processes.  The result carries the *chosen* algorithm's name so
    callers can see what ran; every other option (strategies, knobs,
    backend, team) is forwarded to the chosen runner untouched.
    """
    workers = p
    if workers is None:
        workers = getattr(machine, "p", None)
    if workers is None and team is not None:
        workers = team.p
    chosen = _select.choose_algorithm(g.n, g.m, workers or 1, objective=objective)
    return ALGORITHMS[chosen](g, machine, strategies=strategies, backend=backend,
                              p=p, team=team, **kwargs)


def _build_algorithms():
    algos = {"sequential": _sequential_runner}
    for name in _pipeline.list_algorithms():
        algos[name] = _pipeline_runner(name)
    algos["custom"] = _pipeline_runner(CUSTOM_BASE, "custom")
    algos["auto"] = _auto_runner
    return algos


#: Algorithm registry: name -> callable(graph, machine, *, strategies=None,
#: **knobs) -> BCCResult.  Pipeline entries are built from the
#: :mod:`repro.core.pipeline` registry; ``"custom"`` starts from
#: :data:`CUSTOM_BASE` and exists to be overridden via ``strategies``.
ALGORITHMS = _build_algorithms()


def list_algorithms() -> list[str]:
    """Names accepted by :func:`biconnected_components`."""
    return list(ALGORITHMS)


def describe_algorithm(
    algorithm: str,
    strategies: Mapping[str, str] | None = None,
    **knobs,
) -> str:
    """Human-readable resolved pipeline for ``algorithm`` (CLI ``--explain``)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    if algorithm == "sequential":
        return (
            "sequential — Hopcroft–Tarjan iterative DFS baseline "
            "(no pipeline stages; accepts no options)"
        )
    if algorithm == "auto":
        return _select.describe_policy()
    base = CUSTOM_BASE if algorithm == "custom" else algorithm
    text = _pipeline.describe_algorithm(base, strategies, **knobs)
    if algorithm == "custom":
        text = f"custom — user-composed hybrid over base {CUSTOM_BASE}:\n" + text
    return text


def biconnected_components(
    g: Graph,
    algorithm: str = "tv-filter",
    machine: Machine | None = None,
    *,
    strategies: Mapping[str, str] | None = None,
    backend: str | None = None,
    p: int | None = None,
    team=None,
    **kwargs,
) -> BCCResult:
    """Biconnected components of ``g``.

    Parameters
    ----------
    g:
        The input graph.  Need not be connected (all algorithms handle
        forests of components); self-loops/multi-edges were already
        normalized away by :class:`~repro.graph.edgelist.Graph`.
    algorithm:
        ``"sequential"`` (Tarjan), ``"tv-smp"``, ``"tv-opt"``,
        ``"tv-filter"`` (the default — the paper's best performer),
        ``"fastbcc"`` (skeleton-based, O(n) extra space), ``"auto"``
        (per-graph adaptive choice — see :mod:`repro.core.select`) or
        ``"custom"`` (a hybrid over :data:`CUSTOM_BASE`, meant to be used
        with ``strategies``).
    machine:
        Optional simulated SMP; pass e.g. ``repro.e4500(p=12)`` to obtain a
        :class:`~repro.smp.machine.MachineReport` in ``result.report``.
    strategies:
        Per-stage strategy overrides, e.g. ``{"lowhigh": "rmq",
        "cc": "pruned"}`` — see :func:`repro.core.pipeline.list_strategies`.
    backend:
        Execution backend: ``"simulated"`` (default; vectorized + cost
        model), ``"serial"`` or ``"processes"`` (real worker team on
        shared memory; see :mod:`repro.runtime`).  All
        backends produce bit-identical labels; real backends additionally
        record measured per-region wall-clock times in ``result.report``.
    p:
        Worker count for real backends (defaults to ``machine.p`` when a
        machine is given, else 1).
    team:
        A caller-owned :class:`~repro.runtime.team.Team` to execute on
        as-is (instead of creating one per run) — what long-lived callers
        like the service layer's background rebuild scheduler use.  The
        caller keeps ownership; ``"sequential"`` rejects it.
    kwargs:
        Strategy knobs (``lowhigh_method``, ``list_ranking``,
        ``fallback_ratio``, ...).  Unknown knobs raise ``TypeError``.
    """
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        ) from None
    return fn(g, machine, strategies=strategies, backend=backend, p=p,
              team=team, **kwargs)


def articulation_points(
    g: Graph, algorithm: str = "tv-filter", machine: Machine | None = None
) -> np.ndarray:
    """Cut vertices of ``g`` ("fault-tolerant network design", paper §1)."""
    return biconnected_components(g, algorithm, machine).articulation_points()


def bridges(
    g: Graph, algorithm: str = "tv-filter", machine: Machine | None = None
) -> np.ndarray:
    """Edge indices of bridges (single-edge blocks) of ``g``."""
    return biconnected_components(g, algorithm, machine).bridges()


def is_biconnected(
    g: Graph, algorithm: str = "tv-filter", machine: Machine | None = None
) -> bool:
    """True iff ``g`` is biconnected (2-vertex-connected).

    Follows the usual convention: at least three vertices, connected, and
    no articulation points — equivalently, a single block covering every
    vertex.  (K2 is a block but not a biconnected *graph* under this
    definition; change the n >= 3 guard at the call site if your
    convention differs.)
    """
    if g.n < 3:
        return False
    res = biconnected_components(g, algorithm, machine)
    if res.num_components != 1:
        return False
    # a single block must also cover every vertex (no isolated vertices)
    deg_ok = bool((g.degrees() > 0).all())
    return deg_ok and res.articulation_points().size == 0
