"""Declarative stage/strategy pipeline for the Tarjan–Vishkin family.

The paper's entire experimental program is swapping *strategies* inside one
six-step TV pipeline: SV grafting vs. traversal spanning trees, list-ranked
Euler tours vs. prefix-sum numbering, RMQ vs. level-sweep low/high, with or
without BFS edge filtering.  This module makes that structure explicit:

* :class:`StageSpec` — one registered strategy for one canonical stage
  (``spanning``, ``filter``, ``euler``, ``lowhigh``, ``label``, ``cc``),
  created with the :func:`strategy` decorator;
* :class:`AlgorithmSpec` — a named bundle choosing one strategy per stage
  (plus optional per-stage region overrides and a density fallback);
  ``tv-smp``, ``tv-opt`` and ``tv-filter`` are pure data of this kind
  (registered in :mod:`repro.core.strategies`);
* :func:`run_pipeline` — the single generic driver: it resolves strategy
  overrides, validates knobs, applies the ``m <= r*n`` fallback, and wraps
  each stage in ``machine.region(...)`` so Fig. 4 breakdowns and
  ``smp.trace`` replay get their region names from one source of truth.

Strategies may declare capability tokens: ``provides`` (e.g. the traversal
spanning tree provides ``"rooted"`` and ``"bfs-levels"``) and ``requires``
(the filter forest requires ``"bfs-levels"`` — Lemma 1 is unsound for
non-BFS trees).  :func:`resolve_strategies` rejects inconsistent hybrids,
or repairs them when enumerating combinations for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..smp import Machine, NullMachine, resolve_machine
from .result import BCCResult

__all__ = [
    "STAGE_ORDER",
    "STAGE_REGIONS",
    "StageSpec",
    "AlgorithmSpec",
    "PipelineContext",
    "strategy",
    "get_strategy",
    "list_strategies",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "describe_algorithm",
    "resolve_strategies",
    "fig4_steps",
    "run_pipeline",
]

#: Canonical stages in execution order.  ``filter`` runs after ``spanning``
#: (it needs the tree) and is the only optional stage.
STAGE_ORDER = ("spanning", "filter", "euler", "lowhigh", "label", "cc")

#: Presentation order for step breakdowns (Fig. 4 lists Filtering first).
DISPLAY_ORDER = ("filter", "spanning", "euler", "lowhigh", "label", "cc")

#: Default machine-region name per stage — the paper's Fig. 4 step names.
STAGE_REGIONS = {
    "spanning": "Spanning-tree",
    "filter": "Filtering",
    "euler": "Euler-tour",
    "lowhigh": "Low-high",
    "label": "Label-edge",
    "cc": "Connected-components",
}

#: Legacy keyword knobs that select a whole strategy for a stage
#: (``lowhigh_method="rmq"`` is shorthand for ``strategies={"lowhigh": "rmq"}``).
#: An explicit ``strategies`` entry for the stage wins over the knob.
SELECTOR_KNOBS = {"lowhigh_method": "lowhigh", "aux_cc": "cc"}

_OPTIONAL_STAGES = frozenset({"filter"})

_UNSET = object()

_STRATEGIES: dict[str, dict[str, "StageSpec"]] = {s: {} for s in STAGE_ORDER}
_ALGORITHMS: dict[str, "AlgorithmSpec"] = {}


@dataclass(frozen=True)
class StageSpec:
    """A registered strategy for one pipeline stage.

    Attributes
    ----------
    fn:
        ``fn(ctx)`` — reads inputs from and writes outputs to the
        :class:`PipelineContext`.
    region:
        Machine region the driver opens around ``fn`` (``None`` when the
        strategy manages its own regions, e.g. the list-ranked Euler tour
        which charges ``Euler-tour`` and ``Root-tree`` itself).
    extra_regions:
        Region names the strategy emits beyond the stage default — used to
        build the canonical Fig. 4 step list.
    provides / requires:
        Capability tokens for hybrid validation (``"rooted"``,
        ``"bfs-levels"``).
    knobs:
        Keyword options ``fn`` reads from ``ctx.knobs``.
    ablate:
        Knob combinations the ablation harness should enumerate.
    """

    stage: str
    name: str
    fn: Callable[["PipelineContext"], None]
    region: str | None
    extra_regions: tuple[str, ...] = ()
    provides: frozenset[str] = frozenset()
    requires: frozenset[str] = frozenset()
    knobs: tuple[str, ...] = ()
    ablate: tuple[Mapping[str, Any], ...] = ()
    description: str = ""


@dataclass(frozen=True)
class AlgorithmSpec:
    """A TV-family algorithm as declarative data: one strategy per stage.

    Attributes
    ----------
    strategies:
        Mapping stage -> strategy name.  Every stage except ``filter`` is
        required.
    regions:
        Per-stage region-name overrides (tv-filter charges its BFS tree
        under ``Filtering``, matching the paper's Fig. 4 accounting).
    fallback_to / fallback_ratio:
        Density fallback as data: when set and ``m <= ratio * n``, the
        named algorithm runs instead (paper §4: "if m <= 4n, we can always
        fall back to TV-opt").  The ``fallback_ratio`` knob overrides the
        ratio per call; ``None`` disables the fallback.
    in_figures:
        Whether the algorithm belongs to the paper's fig3/fig4 sweep.
        Post-paper variants (fastbcc) register with ``False`` so
        the figure benches — and the figures-guard baseline — keep exactly
        the paper's algorithm set.
    """

    name: str
    strategies: Mapping[str, str]
    regions: Mapping[str, str] = field(default_factory=dict)
    fallback_to: str | None = None
    fallback_ratio: float | None = None
    in_figures: bool = True
    description: str = ""


class PipelineContext:
    """Mutable state threaded through the pipeline stages.

    Spanning strategies set either ``tree_ids`` (unrooted forest) or
    ``parent``/``level``/``parent_edge``/``roots`` (rooted tree); the
    euler stage produces ``numbering``; the driver derives
    ``tree_mask``/``consider``/``child_of_edge``/``nu_mask`` before the
    labelling stages; the cc stage writes ``labels``.  The ``filter=forest``
    step also sets ``certificate``, which the result carries.
    """

    __slots__ = (
        "g",
        "machine",
        "knobs",
        "tree_ids",
        "parent",
        "level",
        "parent_edge",
        "roots",
        "num_levels",
        "consider",
        "tree_mask",
        "numbering",
        "child_of_edge",
        "nu_mask",
        "low",
        "high",
        "aux",
        "sk_u",
        "sk_v",
        "labels",
        "ccl",
        "certificate",
    )

    def __init__(self, g, machine, knobs):
        self.g = g
        self.machine = machine
        self.knobs = dict(knobs)
        for name in self.__slots__[3:]:
            setattr(self, name, None)

    def knob(self, name: str, default=None):
        value = self.knobs.get(name)
        return default if value is None else value


def strategy(
    stage: str,
    name: str,
    *,
    region=_UNSET,
    extra_regions=(),
    provides=(),
    requires=(),
    knobs=(),
    ablate=(),
    description: str = "",
):
    """Decorator registering ``fn(ctx)`` as a strategy for ``stage``.

    ``region`` defaults to the stage's canonical region name; pass ``None``
    for strategies that open their own regions.
    """
    if stage not in STAGE_ORDER:
        raise ValueError(f"unknown pipeline stage {stage!r}; stages: {list(STAGE_ORDER)}")

    def wrap(fn):
        desc = description
        if not desc and fn.__doc__:
            desc = fn.__doc__.strip().splitlines()[0]
        spec = StageSpec(
            stage=stage,
            name=name,
            fn=fn,
            region=STAGE_REGIONS[stage] if region is _UNSET else region,
            extra_regions=tuple(extra_regions),
            provides=frozenset(provides),
            requires=frozenset(requires),
            knobs=tuple(knobs),
            ablate=tuple(dict(a) for a in ablate),
            description=desc,
        )
        if name in _STRATEGIES[stage]:
            raise ValueError(f"duplicate strategy {name!r} for stage {stage!r}")
        _STRATEGIES[stage][name] = spec
        return fn

    return wrap


def _ensure_registered() -> None:
    # The built-in strategies/algorithms live in repro.core.strategies,
    # which imports this module; importing it lazily avoids the cycle while
    # guaranteeing registration before any registry lookup.
    from . import strategies  # noqa: F401


def get_strategy(stage: str, name: str) -> StageSpec:
    """Look up a registered strategy; raises ValueError listing options."""
    _ensure_registered()
    if stage not in _STRATEGIES:
        raise ValueError(f"unknown pipeline stage {stage!r}; stages: {list(STAGE_ORDER)}")
    try:
        return _STRATEGIES[stage][name]
    except KeyError:
        options = sorted(_STRATEGIES[stage])
        raise ValueError(
            f"unknown {stage} strategy {name!r}; choose from {options}"
        ) from None


def list_strategies(stage: str) -> list[StageSpec]:
    """All strategies registered for ``stage``, in registration order."""
    _ensure_registered()
    if stage not in _STRATEGIES:
        raise ValueError(f"unknown pipeline stage {stage!r}; stages: {list(STAGE_ORDER)}")
    return list(_STRATEGIES[stage].values())


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register an :class:`AlgorithmSpec` under its name."""
    if spec.name in _ALGORITHMS:
        raise ValueError(f"duplicate algorithm {spec.name!r}")
    _ALGORITHMS[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    _ensure_registered()
    try:
        return _ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(_ALGORITHMS)}"
        ) from None


def list_algorithms() -> list[str]:
    """Registered algorithm names, in registration order."""
    _ensure_registered()
    return list(_ALGORITHMS)


def fig4_steps() -> tuple[str, ...]:
    """The canonical Fig. 4 step list, derived from the registry.

    Stage regions in display order, with each strategy's ``extra_regions``
    spliced in after its stage (the list-ranked tour contributes
    ``Root-tree``).
    """
    _ensure_registered()
    steps: list[str] = []
    for stage in DISPLAY_ORDER:
        for r in (STAGE_REGIONS[stage],):
            if r not in steps:
                steps.append(r)
        for strat in _STRATEGIES[stage].values():
            for r in strat.extra_regions:
                if r not in steps:
                    steps.append(r)
    return tuple(steps)


def resolve_strategies(
    spec: AlgorithmSpec,
    strategies: Mapping[str, str] | None = None,
    knobs: Mapping[str, Any] | None = None,
    *,
    repair: bool = False,
) -> dict[str, str]:
    """Resolve the stage -> strategy plan for a run.

    Precedence: explicit ``strategies`` overrides > selector knobs
    (``lowhigh_method``, ``aux_cc``) > the spec's own choices.  Validates
    that every strategy's ``requires`` tokens are provided by an earlier
    stage; with ``repair=True`` an incompatible downstream choice is
    replaced by the first compatible registered strategy instead of
    raising (used when ablations enumerate combinations).
    """
    _ensure_registered()
    knobs = knobs or {}
    chosen = dict(spec.strategies)
    for knob, stage in SELECTOR_KNOBS.items():
        value = knobs.get(knob)
        if value is not None and not (strategies and stage in strategies):
            chosen[stage] = value
    if strategies:
        bad = set(strategies) - set(STAGE_ORDER)
        if bad:
            raise ValueError(
                f"unknown pipeline stage(s) {sorted(bad)}; stages: {list(STAGE_ORDER)}"
            )
        chosen.update(strategies)
    for stage in STAGE_ORDER:
        if stage not in chosen and stage not in _OPTIONAL_STAGES:
            raise ValueError(f"algorithm {spec.name!r} is missing required stage {stage!r}")

    provided: set[str] = set()
    resolved: dict[str, str] = {}
    for stage in STAGE_ORDER:
        name = chosen.get(stage)
        if name is None:
            continue
        strat = get_strategy(stage, name)
        if not strat.requires <= provided:
            if repair:
                for cand in _STRATEGIES[stage].values():
                    if cand.requires <= provided:
                        strat = cand
                        break
                else:
                    raise ValueError(
                        f"no registered {stage} strategy is compatible with "
                        f"the earlier stages of {spec.name!r}"
                    )
            else:
                missing = sorted(strat.requires - provided)
                raise ValueError(
                    f"strategy {name!r} for stage {stage!r} requires {missing}, "
                    f"which the earlier stages of {spec.name!r} do not provide"
                )
        provided |= strat.provides
        resolved[stage] = strat.name
    return resolved


def _allowed_knobs(spec: AlgorithmSpec, resolved: Mapping[str, str]) -> set[str]:
    allowed: set[str] = set()
    for stage, name in resolved.items():
        allowed.update(get_strategy(stage, name).knobs)
    for knob, stage in SELECTOR_KNOBS.items():
        if stage in resolved:
            allowed.add(knob)
    if spec.fallback_to is not None:
        allowed.add("fallback_ratio")
    return allowed


def describe_algorithm(
    algorithm: str | AlgorithmSpec,
    strategies: Mapping[str, str] | None = None,
    **knobs,
) -> str:
    """Human-readable resolved pipeline (the CLI's ``bcc --explain``)."""
    spec = algorithm if isinstance(algorithm, AlgorithmSpec) else get_algorithm(algorithm)
    resolved = resolve_strategies(spec, strategies, knobs)
    header = spec.name
    if spec.description:
        header += f" — {spec.description}"
    lines = [header]
    if spec.fallback_to is not None:
        ratio = knobs.get("fallback_ratio", spec.fallback_ratio)
        if ratio is not None:
            lines.append(f"  fallback: {spec.fallback_to} when m <= {ratio:g} * n")
        else:
            lines.append("  fallback: disabled")
    lines.append(f"  {'stage':<9} {'strategy':<11} {'region':<21} description")
    for stage in STAGE_ORDER:
        if stage not in resolved:
            continue
        strat = get_strategy(stage, resolved[stage])
        region = spec.regions.get(stage, strat.region)
        shown = region if region is not None else "/".join(strat.extra_regions) or "-"
        lines.append(f"  {stage:<9} {strat.name:<11} {shown:<21} {strat.description}")
    return "\n".join(lines)


def _prepare_labeling(ctx: PipelineContext) -> None:
    """Uncharged glue before the labelling stages (steps 4–6).

    Mirrors the mask bookkeeping the monolithic implementation did between
    regions: derive the tree mask from the numbering when the spanning
    stage did not set one, default ``consider`` to all edges, and compute
    the child-endpoint map of each tree edge.
    """
    g, numbering = ctx.g, ctx.numbering
    m = g.m
    if ctx.tree_mask is None:
        tree_mask = np.zeros(m, dtype=bool)
        ids = numbering.parent_edge[numbering.parent_edge >= 0]
        tree_mask[ids] = True
        ctx.tree_mask = tree_mask
    if ctx.consider is None:
        ctx.consider = np.ones(m, dtype=bool)
    child_of_edge = np.full(m, -1, dtype=np.int64)
    nonroot = np.flatnonzero(numbering.parent_edge >= 0)
    child_of_edge[numbering.parent_edge[nonroot]] = nonroot
    ctx.child_of_edge = child_of_edge
    ctx.nu_mask = ctx.consider & ~ctx.tree_mask


def run_pipeline(
    g,
    algorithm: str | AlgorithmSpec,
    machine: Machine | None = None,
    *,
    strategies: Mapping[str, str] | None = None,
    algorithm_name: str | None = None,
    **knobs,
) -> BCCResult:
    """Run an algorithm spec (or registered name) through the stage pipeline.

    ``strategies`` overrides individual stages (``{"lowhigh": "rmq"}``);
    remaining keyword ``knobs`` are validated against the resolved
    strategies' declared options — unknown knobs raise ``TypeError``.
    ``algorithm_name`` relabels the :class:`BCCResult` (used by wrappers
    and the density fallback, which reports the caller's name).
    """
    spec = algorithm if isinstance(algorithm, AlgorithmSpec) else get_algorithm(algorithm)
    machine = resolve_machine(machine)
    name = algorithm_name or spec.name

    resolved = resolve_strategies(spec, strategies, knobs)
    allowed = _allowed_knobs(spec, resolved)
    unknown = sorted(set(knobs) - allowed)
    if unknown:
        raise TypeError(
            f"algorithm {spec.name!r} got unknown option(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )

    if g.m == 0:
        return BCCResult(g, np.zeros(0, dtype=np.int64), name, _maybe_report(machine))

    if spec.fallback_to is not None:
        ratio = knobs.get("fallback_ratio", spec.fallback_ratio)
        if ratio is not None and g.m <= ratio * g.n:
            fb = get_algorithm(spec.fallback_to)
            fb_strategies = {
                s: v for s, v in (strategies or {}).items() if s in fb.strategies
            } or None
            fb_selectors = {
                k: v for k, v in knobs.items() if k in SELECTOR_KNOBS and v is not None
            }
            fb_resolved = resolve_strategies(fb, fb_strategies, fb_selectors)
            fb_allowed = _allowed_knobs(fb, fb_resolved) - {"fallback_ratio"}
            fb_knobs = {k: v for k, v in knobs.items() if k in fb_allowed}
            return run_pipeline(
                g,
                fb,
                machine,
                strategies=fb_strategies,
                algorithm_name=name,
                **fb_knobs,
            )

    ctx = PipelineContext(g, machine, knobs)
    for stage in STAGE_ORDER:
        if stage not in resolved:
            continue
        strat = get_strategy(stage, resolved[stage])
        if stage == "lowhigh":
            _prepare_labeling(ctx)
        region = spec.regions.get(stage, strat.region)
        if region is None:
            strat.fn(ctx)
        else:
            with machine.region(region):
                strat.fn(ctx)
    return BCCResult(
        g, ctx.labels, name, _maybe_report(machine), certificate=ctx.certificate
    )


def _maybe_report(machine: Machine):
    return machine.report() if not isinstance(machine, NullMachine) else None
