"""The Low-high step (TV step 4).

For every vertex v, ``low(v)`` is the smallest preorder number that is
either a descendant of v or adjacent to a descendant of v by a nontree
edge; ``high(v)`` is the largest such number.  Computation has two halves:

1. *local* values: every nontree edge (u, v) relaxes ``locallow[u]`` with
   ``pre[v]`` and vice versa — one scatter pass over the nontree edges.
   This is why filtering pays: "to compute high and low, we need to inspect
   every nontree edge of the graph" (paper §4).
2. *subtree aggregation*: ``low(v) = min over v's subtree of locallow``.
   Two interchangeable strategies, compared by the ablation bench:

   * ``sweep``       — bottom-up level sweep (O(n) work over depth rounds);
   * ``rmq``         — lay locallow out in preorder; subtrees are contiguous
     intervals, so a doubling sparse table answers all n queries
     (O(n log n) build, O(1) random accesses per query);
   * ``contraction`` — Miller–Reif rake & compress (O(n) work, O(log n)
     rounds regardless of tree height — the robust choice for deep trees).
"""

from __future__ import annotations

import numpy as np

from ..primitives.euler_tour import TreeNumbering
from ..primitives.rmq import SparseTable
from ..primitives.tree_contraction import subtree_aggregate_contraction
from ..primitives.tree_computations import (
    subtree_max_sweep,
    subtree_min_sweep,
    vertices_by_level,
)
from ..smp import Machine, Ops, resolve_machine

__all__ = ["low_high"]


def low_high(
    nontree_u: np.ndarray,
    nontree_v: np.ndarray,
    numbering: TreeNumbering,
    machine: Machine | None = None,
    *,
    method: str = "sweep",
) -> tuple[np.ndarray, np.ndarray]:
    """Compute (low, high) in preorder terms for every vertex.

    ``nontree_u``/``nontree_v`` are the endpoints of the nontree edges to
    inspect (for TV-filter these are only the forest F's edges).
    """
    machine = resolve_machine(machine)
    pre = numbering.pre
    n = pre.size
    locallow = pre.copy()
    localhigh = pre.copy()
    nu = np.asarray(nontree_u, dtype=np.int64)
    nv = np.asarray(nontree_v, dtype=np.int64)
    if nu.size:
        machine.spawn()
        pnu = pre[nu]
        pnv = pre[nv]
        np.minimum.at(locallow, nu, pnv)
        np.minimum.at(locallow, nv, pnu)
        np.maximum.at(localhigh, nu, pnv)
        np.maximum.at(localhigh, nv, pnu)
        # per edge: two preorder gathers + four scatter min/max updates
        machine.parallel(nu.size, Ops(random=6, alu=4))

    if method == "sweep":
        by_level = vertices_by_level(numbering.depth)
        low = subtree_min_sweep(
            locallow, numbering.parent, numbering.depth, machine, by_level=by_level
        )
        high = subtree_max_sweep(
            localhigh, numbering.parent, numbering.depth, machine, by_level=by_level
        )
        return low, high
    if method == "contraction":
        low = subtree_aggregate_contraction(locallow, numbering.parent, "min", machine)
        high = subtree_aggregate_contraction(localhigh, numbering.parent, "max", machine)
        return low, high
    if method == "rmq":
        # pre is a permutation of 0..n-1: the preorder layout is its inverse
        order = np.empty(n, dtype=np.int64)
        order[pre] = np.arange(n, dtype=np.int64)
        arr_low = locallow[order]
        arr_high = localhigh[order]
        machine.parallel(n, Ops(random=2, contig=2))
        lo = pre
        hi = pre + numbering.size
        low = SparseTable(arr_low, "min", machine).query(lo, hi, machine)
        high = SparseTable(arr_high, "max", machine).query(lo, hi, machine)
        return low, high
    raise ValueError(f"unknown low/high method {method!r}")
