"""Shiloach–Vishkin connected components (graft & shortcut).

TV uses the Shiloach–Vishkin CRCW algorithm twice: to find the spanning tree
of the input (step 1) and for the connected components of the auxiliary
graph (step 6).  The algorithm maintains a pointer forest ``D`` over the
vertices and repeats two phases until stable:

* **graft**: every edge (u, v) with ``D[v] < D[u]`` proposes hooking the
  *root* ``D[u]`` under ``D[v]``; concurrent proposals to the same root are
  resolved arbitrarily (CRCW arbitrary-write — numpy's last-write-wins
  scatter is a faithful realization).  Because parents strictly decrease,
  no cycles form.
* **shortcut**: pointer jumping ``D = D[D]`` until every tree is a star.

Each successful graft merges two components and records the edge that won —
those edges are exactly a spanning forest, which is how the derived
spanning-tree algorithm (paper step 1, [18]) falls out.

O((n + m) log n) work in the worst case; the per-round edge sweeps are the
irregular-access traffic the cost model charges as random.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from ..smp import Machine, Ops, resolve_machine

__all__ = [
    "ConnectivityResult",
    "shiloach_vishkin",
    "fastsv",
    "hirschberg_chandra_sarwate",
    "connected_components",
]


class ConnectivityResult:
    """Output of Shiloach–Vishkin connectivity.

    Attributes
    ----------
    labels:
        ``int64[n]``; ``labels[v]`` is the component representative of v
        (a vertex id; use :meth:`compact_labels` for 0..k-1 ids).
    num_components:
        Number of connected components.
    forest_edges:
        ``int64[n - num_components]`` edge indices (into the input edge
        list) that performed grafts: a spanning forest.
    rounds:
        Number of graft+shortcut iterations executed.
    """

    __slots__ = ("labels", "num_components", "forest_edges", "rounds")

    def __init__(self, labels, num_components, forest_edges, rounds):
        self.labels = labels
        self.num_components = num_components
        self.forest_edges = forest_edges
        self.rounds = rounds

    def compact_labels(self) -> np.ndarray:
        """Component labels renumbered to 0..num_components-1."""
        _, inv = np.unique(self.labels, return_inverse=True)
        return inv.astype(np.int64)


def shiloach_vishkin(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    machine: Machine | None = None,
    *,
    mode: str = "engineered",
) -> ConnectivityResult:
    """SV connectivity over an edge list on vertices ``0..n-1``.

    Two execution modes, selected by the paper's two usage sites:

    * ``"textbook"`` — the CRCW PRAM schedule TV-SMP emulates: every round
      re-scans *every* edge and performs a *single* pointer-jump step, and
      the schedule runs for the full ceil(log2 n) iterations the PRAM bound
      prescribes (the PRAM algorithm has no global convergence test — the
      bound replaces it).  Extra rounds are appended in the rare case the
      simplified hooking has not converged by then, so results are always
      exact.  This is TV's step 1 as written.
    * ``"engineered"`` — the SMP-engineered variant the paper's
      implementations use for the shared Connected-components step: each
      round fully flattens the forest (repeated shortcuts) and prunes
      settled (intra-component) edges from later rounds, so the per-round
      sweep shrinks rapidly after the first round.

    Both modes produce identical components and a valid spanning forest of
    graft-winning edges; they differ in the work/rounds profile charged to
    the machine.
    """
    if mode not in ("engineered", "textbook"):
        raise ValueError(f"unknown SV mode {mode!r}")
    machine = resolve_machine(machine)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    D = np.arange(n, dtype=np.int64)
    winner = np.full(n, -1, dtype=np.int64)  # edge id that grafted root r
    if n == 0:
        return ConnectivityResult(D, 0, np.empty(0, np.int64), 0)
    machine.spawn()
    if m == 0:
        return ConnectivityResult(D, n, np.empty(0, np.int64), 0)
    # one list, both arc directions: each round takes the u->v half's
    # graft candidates and then the v->u half's, the order a doubled arc
    # list would give, while gathering and pruning m entries, not 2m
    eid = np.arange(m, dtype=np.int64)
    schedule = int(np.ceil(np.log2(max(n, 2))))  # the PRAM iteration bound
    rounds = 0
    while True:
        rounds += 1
        # one fused edge sweep: gather both endpoint labels once and derive
        # the graft candidates (and, in engineered mode, the settled edges)
        Du = D[u]
        Dv = D[v]
        down = Dv < Du  # u->v arcs: graft D[u] under D[v]
        up = Du < Dv  # v->u arcs: graft D[v] under D[u]
        machine.parallel(2 * u.size, Ops(contig=2, random=2, alu=2))
        any_cand = bool(down.any()) or bool(up.any())
        if any_cand:
            # a candidate's root is the larger endpoint label.  Only actual
            # roots may be grafted: parents strictly decrease, so the
            # winner edges always join two distinct trees and the recorded
            # grafts form a spanning forest
            hi = np.maximum(Du, Dv)
            isroot = D[hi] == hi
            grafts = 0
            for arcs in (np.flatnonzero(down & isroot), np.flatnonzero(up & isroot)):
                # CRCW arbitrary write: duplicates resolved by last write,
                # the u->v half's scatter first; the same ordering is used
                # for D and winner so the recorded edge matches the graft
                # that actually happened
                roots = hi[arcs]
                D[roots] = Du[arcs] + Dv[arcs] - roots
                winner[roots] = eid[arcs]
                grafts += arcs.size
            machine.parallel(grafts, Ops(random=3, alu=1))
        if mode == "textbook":
            # a single pointer-jump step over all vertices
            Dn = D[D]
            stable = bool((Dn == D).all())
            D = Dn
            machine.parallel(n, Ops(random=2, alu=1))
            if rounds >= schedule and not any_cand and stable:
                break
        else:
            _shortcut(D, machine)
            if not any_cand:
                break
            live = down | up  # settled before this round's grafts stays settled
            u, v, eid = u[live], v[live], eid[live]
            machine.parallel(2 * u.size, Ops(contig=3))
            if u.size == 0:
                break
    labels = D
    reps = labels == np.arange(n)
    num_components = int(reps.sum())
    forest = winner[winner >= 0]
    machine.parallel(n, Ops(contig=2))
    return ConnectivityResult(labels, num_components, forest, rounds)


def _shortcut(D: np.ndarray, machine: Machine) -> int:
    """Pointer-jump D until every tree is a star; returns rounds used."""
    rounds = 0
    while True:
        Dn = D[D]
        machine.parallel(D.size, Ops(random=2, alu=1))
        if (Dn == D).all():
            return rounds
        D[:] = Dn
        rounds += 1


def fastsv(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    machine: Machine | None = None,
) -> ConnectivityResult:
    """FastSV connectivity (Zhang–Azad–Hu, arXiv:1910.05971).

    A min-based reformulation of Shiloach–Vishkin: every round applies,
    from one start-of-round snapshot of the parent array ``f``,

    * *stochastic hooking*  — ``f[f[u]] <- min(f[f[u]], f[f[v]])``,
    * *aggressive hooking*  — ``f[u]    <- min(f[u],    f[f[v]])``,
    * *shortcutting*        — ``f[u]    <- min(f[u],    f[f[u]])``,

    over both arc directions, and stops when ``f`` is stable.  Because
    every update is a ``min`` over values derived from the same snapshot,
    the result is independent of update order — no CRCW arbitration is
    needed.  At the fixpoint every tree is a star and adjacent vertices share a
    root, so ``labels`` are the per-component *minimum* vertex ids.

    Unlike SV's arbitrary-graft schedule, min-hooking has no well-defined
    "winning edge" per merge, so ``forest_edges`` is always empty — use
    :func:`shiloach_vishkin` (or HCS) when a spanning forest is needed.
    """
    machine = resolve_machine(machine)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    f = np.arange(n, dtype=np.int64)
    if n == 0:
        return ConnectivityResult(f, 0, np.empty(0, np.int64), 0)
    machine.spawn()
    if m == 0:
        return ConnectivityResult(f, n, np.empty(0, np.int64), 0)
    t = np.concatenate([u, v])
    h = np.concatenate([v, u])
    rounds = 0
    while True:
        rounds += 1
        fg = f[f]  # grandparents: the round's shared snapshot
        machine.parallel(n, Ops(random=2))
        ft = f[t]
        gh = fg[h]
        machine.parallel(t.size, Ops(contig=2, random=2))
        fn = fg.copy()  # shortcutting seeds the round's minima
        np.minimum.at(fn, ft, gh)  # stochastic hooking onto parents
        np.minimum.at(fn, t, gh)  # aggressive hooking onto the vertex itself
        machine.parallel(t.size, Ops(random=4, alu=2))
        machine.parallel(n, Ops(contig=2))
        if np.array_equal(fn, f):
            break
        f = fn
    num_components = int((f == np.arange(n)).sum())
    machine.parallel(n, Ops(contig=2))
    return ConnectivityResult(f, num_components, np.empty(0, np.int64), rounds)


def connected_components(g: Graph, machine: Machine | None = None) -> ConnectivityResult:
    """SV connectivity of a :class:`~repro.graph.edgelist.Graph`."""
    return shiloach_vishkin(g.n, g.u, g.v, machine=machine)


def hirschberg_chandra_sarwate(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    machine: Machine | None = None,
) -> ConnectivityResult:
    """HCS connectivity: hook every component to its *minimum* neighbour.

    Hirschberg–Chandra–Sarwate [10] is the paper's other named
    graft-and-shortcut algorithm (§3.2).  Where SV resolves concurrent
    grafts arbitrarily, HCS is a priority-CRCW algorithm: each round every
    component root hooks onto the minimum label among all neighbouring
    components (realized with a scatter-min over the arcs), then the
    forest is flattened.  Each round merges every component that has a
    smaller neighbour, so components shrink at least geometrically on
    typical inputs.

    Returns the same :class:`ConnectivityResult` contract as
    :func:`shiloach_vishkin` (labels are component minima; graft-winning
    edges form a spanning forest).
    """
    machine = resolve_machine(machine)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = u.size
    D = np.arange(n, dtype=np.int64)
    winner = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return ConnectivityResult(D, 0, np.empty(0, np.int64), 0)
    machine.spawn()
    if m == 0:
        return ConnectivityResult(D, n, np.empty(0, np.int64), 0)
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    t = np.concatenate([u, v])
    h = np.concatenate([v, u])
    A = np.int64(t.size)
    sentinel = np.iinfo(np.int64).max
    rounds = 0
    while True:
        rounds += 1
        Dt = D[t]
        Dh = D[h]
        machine.parallel(t.size, Ops(contig=2, random=2, alu=2))
        smaller = Dh < Dt
        if not smaller.any():
            break
        # priority CRCW: per component root, the minimum (neighbour label,
        # arc) pair — encoded so the scatter-min picks the smallest label
        # with a deterministic arc tie-break
        best = np.full(n, sentinel, dtype=np.int64)
        keys = Dh[smaller] * A + np.flatnonzero(smaller)
        np.minimum.at(best, Dt[smaller], keys)
        machine.parallel(int(smaller.sum()), Ops(random=2, alu=2))
        roots = np.flatnonzero(best != sentinel)
        new_parent = best[roots] // A
        arc = best[roots] % A
        # all targeted labels are current roots (D was flat after the
        # previous round's shortcut), and new_parent < root: acyclic
        D[roots] = new_parent
        winner[roots] = eid[arc]
        machine.parallel(roots.size, Ops(random=3, alu=1))
        _shortcut(D, machine)
        live = Dt != Dh
        t, h, eid2 = t[live], h[live], eid[live]
        eid = eid2
        machine.parallel(int(live.sum()), Ops(contig=3))
        if t.size == 0:
            break
    labels = D
    num_components = int((labels == np.arange(n)).sum())
    forest = winner[winner >= 0]
    machine.parallel(n, Ops(contig=2))
    return ConnectivityResult(labels, num_components, forest, rounds)
