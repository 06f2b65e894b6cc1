"""Maintenance-strategy registry: how a stale index catches up to its log.

Given a graph's pending :class:`~repro.service.deltalog.DeltaLog`, the
engine asks :func:`plan_maintenance` how to bring an index up to the
current stored content.  The registry holds three concrete strategies —

======================  ======================================================
``incremental-extend``  patch intra-block edge adds with
                        :func:`~repro.service.updates.extend_index` (one
                        insert per per-edge array, no recompute or sort)
``incremental-shrink``  patch bridge removals, and removals tv-filter's
                        certificate can be kept clear of (the §4 theorem:
                        T ∪ F has the same blocks as G), with
                        :func:`~repro.service.updates.shrink_index`
``full``                rebuild from scratch with the engine's algorithm
======================  ======================================================

— and two modes: ``full`` always rebuilds, and ``auto`` classifies the
pending chain and picks the cheapest *applicable* strategy: chains
containing a ``cross-block`` or ``structural`` delta go straight to
``full``; qualifying chains are priced per patch call (one relabelling sweep over the post-patch edge
list, the same ``Ops(contig=2, alu=1)`` mix the engine charges its
simulated machine — a run of consecutive adds coalesces into a single
sweep) against the closed-form full-build cost from
:func:`repro.core.select.predict_cost_s`, so a deep patch chain of
removals on a small graph still loses to one rebuild.  A mixed
qualifying chain (adds and removals interleaved) applies each run with
its kind's strategy and reports as ``incremental-mixed``.

Planning never mutates anything; :func:`apply_plan` executes an
incremental plan against a *copy* of the base index (`extend_index` /
`shrink_index` construct fresh immutable indexes) and returns None when
a patch path's own consistency guard bails — the caller then falls back
to one full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import select
from ..smp import VECTORIZED_HOST, CostTable, Ops
from . import updates as upd
from .deltalog import DeltaLog
from .index import BCCIndex

__all__ = [
    "MAINTENANCE_MODES",
    "STRATEGIES",
    "MaintenanceStrategy",
    "MaintenancePlan",
    "plan_maintenance",
    "apply_plan",
    "predict_patch_cost_s",
    "predict_full_cost_s",
]

#: The per-delta cost mix of one incremental patch: a relabelling sweep
#: over the post-delta edge list (mirrors the engine's simulated charge).
PATCH_OPS = Ops(contig=2, alu=1)


@dataclass(frozen=True)
class MaintenanceStrategy:
    """One registered way of refreshing an index."""

    name: str
    #: delta kinds the strategy can patch ("add" / "remove"); empty = any
    kinds: frozenset
    #: classifications that qualify; empty = no incremental patching
    classes: frozenset
    description: str


STRATEGIES: dict[str, MaintenanceStrategy] = {
    "incremental-extend": MaintenanceStrategy(
        "incremental-extend",
        frozenset({"add"}),
        frozenset({"intra-block", "unknown"}),
        "patch intra-block edge adds via extend_index",
    ),
    "incremental-shrink": MaintenanceStrategy(
        "incremental-shrink",
        frozenset({"remove"}),
        frozenset({"bridge", "filtered", "unknown"}),
        "patch bridge and filtered removals via shrink_index",
    ),
    "full": MaintenanceStrategy(
        "full", frozenset(), frozenset(), "rebuild from scratch"
    ),
}

#: Engine/CLI maintenance modes: ``auto`` picks per chain; ``full`` always
#: rebuilds (the oracle the property tests compare ``auto`` against).
MAINTENANCE_MODES = ("auto", "full")

_STRATEGY_FOR_KIND = {"add": "incremental-extend", "remove": "incremental-shrink"}


@dataclass(frozen=True)
class MaintenancePlan:
    """The decision: which strategy, over which entries, and why."""

    strategy: str  # a STRATEGIES name or "incremental-mixed"
    entries: tuple = ()
    base_index: BCCIndex | None = None
    #: total edges across the pending chain (0 when no chain is on file)
    patch_edges: int = 0
    predicted_incremental_s: float | None = None
    predicted_full_s: float | None = None
    reason: str = ""

    @property
    def incremental(self) -> bool:
        return self.strategy != "full"


def _runs(entries):
    """Group a chain into maximal same-kind runs, preserving order.

    Consecutive ``add`` entries coalesce into one :func:`extend_index`
    call (an intra-block add never changes any vertex's block
    membership, so a later add's classification — and its label — is
    the same against the run's base index as against the intermediate
    one).  ``remove`` entries stay singletons: their edge ids index the
    entry's own pre-removal graph, so they cannot be concatenated.
    """
    runs: list[tuple[str, list]] = []
    for e in entries:
        if runs and runs[-1][0] == "add" and e.kind == "add":
            runs[-1][1].append(e)
        else:
            runs.append((e.kind, [e]))
    return runs


def predict_patch_cost_s(
    entries, costs: CostTable = VECTORIZED_HOST
) -> float:
    """Predicted seconds to patch a qualifying chain incrementally.

    One relabelling sweep per *applied patch call* — a run of adds costs
    a single sweep over its final edge list, each removal one sweep —
    matching what :func:`apply_plan` actually executes.
    """
    per_op_ns = costs.op_cost_ns(PATCH_OPS)
    total_m = sum(run[-1].graph_after.m for _, run in _runs(entries))
    return total_m * per_op_ns * 1e-9


def predict_full_cost_s(algorithm: str, n: int, m: int, p: int = 1) -> float:
    """Predicted seconds of one full rebuild with ``algorithm`` on G(n, m).

    Unmodelled algorithm names (tv-smp, sequential, custom
    registrations) are priced as tv-opt — close enough to rank a patch
    chain against a recompute.
    """
    name = algorithm
    if name == "auto":
        name = select.choose_algorithm(n, m, p)
    try:
        return select.predict_cost_s(name, n, m, p, objective="wall")
    except ValueError:
        return select.predict_cost_s("tv-opt", n, m, p, objective="wall")


def _qualify(entries) -> tuple[str | None, str]:
    """(incremental strategy name, reason) for a chain; (None, why) if not."""
    kinds = set()
    for e in entries:
        strat = STRATEGIES[_STRATEGY_FOR_KIND[e.kind]]
        if e.classification not in strat.classes:
            return None, f"{e.classification} delta requires a full rebuild"
        kinds.add(e.kind)
    if kinds == {"add"}:
        return "incremental-extend", ""
    if kinds == {"remove"}:
        return "incremental-shrink", ""
    return "incremental-mixed", ""


def plan_maintenance(
    mode: str,
    log: DeltaLog | None,
    entry,
    base_lookup,
    *,
    algorithm: str = "tv-filter",
    p: int = 1,
) -> MaintenancePlan:
    """Decide how the index for stored ``entry`` should catch up.

    ``mode`` is one of :data:`MAINTENANCE_MODES`; ``entry`` is the
    :class:`~repro.service.store.StoredGraph` to reach; ``base_lookup``
    maps a fingerprint to a cached :class:`BCCIndex` (or None).  Always
    returns a plan — ``full`` whenever nothing cheaper is provably safe.
    """
    if mode not in MAINTENANCE_MODES:
        raise ValueError(
            f"unknown maintenance mode {mode!r}; choose from {MAINTENANCE_MODES}"
        )
    g = entry.graph
    full_s = predict_full_cost_s(algorithm, g.n, g.m, p)
    patch_edges = log.patch_edges() if log is not None else 0

    def full(reason: str, inc_s: float | None = None) -> MaintenancePlan:
        return MaintenancePlan(
            "full",
            patch_edges=patch_edges,
            predicted_incremental_s=inc_s,
            predicted_full_s=full_s,
            reason=reason,
        )

    if mode == "full":
        return full("maintenance=full forces rebuilds")
    if log is None:
        return full("no delta chain on file")
    if log.broken:
        return full("delta chain overflowed")
    chain = log.entries_through(entry.fingerprint)
    if chain is None:
        return full("delta chain does not reach the current content")
    base = base_lookup(log.base_fingerprint)
    if base is None:
        return full("no materialized index for the chain base")
    strategy, why_not = _qualify(chain)
    if strategy is None:
        return full(why_not)
    inc_s = predict_patch_cost_s(chain)
    if inc_s > full_s:
        return full(
            f"patch chain priced above a rebuild "
            f"({inc_s * 1e6:.1f}us vs {full_s * 1e6:.1f}us)",
            inc_s,
        )
    return MaintenancePlan(
        strategy,
        entries=chain,
        base_index=base,
        patch_edges=sum(e.size for e in chain),
        predicted_incremental_s=inc_s,
        predicted_full_s=full_s,
        reason=f"predicted {inc_s * 1e6:.1f}us vs {full_s * 1e6:.1f}us full",
    )


def apply_plan(plan: MaintenancePlan, machine=None) -> BCCIndex | None:
    """Execute an incremental plan against a copy of its base index.

    Returns the patched index, or None when any entry's patch path bails
    on its own consistency guard — the caller must fall back to a full
    rebuild.  ``machine`` (sync mode only) is charged one relabelling
    sweep per delta, exactly like the historical replay path.
    """
    idx = plan.base_index
    for kind, run in _runs(plan.entries):
        last = run[-1]
        if kind == "add":
            a = last.a if len(run) == 1 else np.concatenate([e.a for e in run])
            b = last.b if len(run) == 1 else np.concatenate([e.b for e in run])
            idx = upd.extend_index(
                idx, last.graph_after, a, b, fingerprint=last.fingerprint_after
            )
        else:
            idx = upd.shrink_index(
                idx, last.graph_after, last.a, fingerprint=last.fingerprint_after
            )
        if idx is None:
            return None
        if machine is not None:
            # one simulated relabelling sweep per delta, exactly like the
            # historical replay path (coalescing is a host-side win only)
            for e in run:
                machine.parallel(e.graph_after.m, PATCH_OPS)
    return idx
