"""Rooted-tree computations (TV-opt path) and shared tree sweeps.

TV-opt merges Spanning-tree and Root-tree (the traversal tree already comes
rooted) and replaces the sorted-adjacency Euler tour + list ranking with a
*cache-friendly, DFS-ordered* Euler tour on which tree computations are
plain prefix sums (paper §3.2; the construction runs in O(n/p) time w.h.p.
per [6]).

The functions here operate on a rooted forest given as ``parent`` (+
``level`` from the traversal) and produce the same
:class:`~repro.primitives.euler_tour.TreeNumbering` a sorted-adjacency tour
would:

* :func:`subtree_sizes` — bottom-up accumulation, one parallel round per
  level (deepest first);
* :func:`dfs_preorder` — each vertex's DFS position is the sum over its
  ancestors of 1 + sizes of elder siblings; the per-vertex "elder sibling
  weight" comes from a segmented scan over parent groups and the ancestor
  sums from pointer doubling (O(log d) rounds);
* :func:`dfs_euler_tour_positions` — closed-form tour positions
  ``pos_fwd(v) = 2 pre(v) - depth(v) - 1`` (0-based, per component) — the
  materialized DFS tour;
* :func:`numbering_from_parents` — the full TV-opt replacement for the
  Euler-tour + Root-tree steps, with a prefix-sum verification pass over
  the materialized tour (the tree computations the paper performs there).
* :func:`subtree_min_sweep` / :func:`subtree_max_sweep` — the level-order
  sweeps used by the Low-high step.
"""

from __future__ import annotations

import numpy as np

from ..smp import Machine, Ops, resolve_machine
from .euler_tour import TreeNumbering
from .prefix_sum import exclusive_prefix_sum
from .sorting import radix_argsort, sample_argsort

__all__ = [
    "vertices_by_level",
    "subtree_sizes",
    "dfs_preorder",
    "dfs_euler_tour_positions",
    "numbering_from_parents",
    "subtree_min_sweep",
    "subtree_max_sweep",
]


def vertices_by_level(level: np.ndarray) -> list[np.ndarray]:
    """Vertices grouped by level, index = level (one radix sort, then slices).

    Each group ascends by vertex id.  Vertices with a negative level
    (unreached) belong to no group.
    """
    level = np.asarray(level)
    reached = np.flatnonzero(level >= 0)
    if reached.size == 0:
        return []
    order = reached[radix_argsort(level[reached])]
    bounds = np.zeros(int(level[order[-1]]) + 2, dtype=np.int64)
    np.cumsum(np.bincount(level[reached]), out=bounds[1:])
    return [order[bounds[i] : bounds[i + 1]] for i in range(bounds.size - 1)]


def subtree_sizes(
    parent: np.ndarray,
    level: np.ndarray,
    machine: Machine | None = None,
    by_level: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Subtree size of every vertex by bottom-up level sweep.

    O(n) total work across ``max(level)`` rounds; each round is a
    scatter-add into the parents of one level (irregular traffic).
    """
    machine = resolve_machine(machine)
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    size = np.ones(n, dtype=np.int64)
    if n == 0:
        return size
    groups = by_level if by_level is not None else vertices_by_level(level)
    machine.spawn()
    for verts in reversed(groups[1:]):  # deepest level first; level 0 has no parents
        np.add.at(size, parent[verts], size[verts])
        machine.parallel(verts.size, Ops(random=3, alu=1))
    return size


def _elder_sibling_weights(
    parent: np.ndarray, size: np.ndarray, machine: Machine
) -> np.ndarray:
    """L[v] = 1 + sum of subtree sizes of v's elder siblings (roots: 0).

    Sibling order is by vertex id.  One sort by parent groups the siblings;
    an exclusive scan rebased at group starts yields the elder sums.
    """
    n = parent.size
    idx = np.arange(n, dtype=np.int64)
    nonroot = np.flatnonzero(parent != idx)
    L = np.zeros(n, dtype=np.int64)
    if nonroot.size == 0:
        return L
    # stable sort by parent; ties (siblings) stay in vertex-id order
    order = nonroot[sample_argsort(parent[nonroot], machine=machine)]
    sizes_sorted = size[order]
    excl = exclusive_prefix_sum(sizes_sorted, machine=machine)
    p_sorted = parent[order]
    new_grp = np.empty(order.size, dtype=bool)
    new_grp[0] = True
    new_grp[1:] = p_sorted[1:] != p_sorted[:-1]
    grp_start_excl = excl[np.flatnonzero(new_grp)]
    grp_id = np.cumsum(new_grp) - 1
    L[order] = 1 + excl - grp_start_excl[grp_id]
    machine.parallel(order.size, Ops(contig=3, random=1, alu=2))
    return L


def dfs_preorder(
    parent: np.ndarray,
    level: np.ndarray,
    size: np.ndarray,
    machine: Machine | None = None,
) -> np.ndarray:
    """Global DFS preorder of a rooted forest.

    ``pre[v] = base(component) + sum over strict ancestors a (and v itself)
    of L[a]`` where ``L`` is the elder-sibling weight and roots carry their
    component's base offset.  The ancestor-path sums run by pointer
    doubling (log-depth rounds).  Components occupy disjoint ranges ordered
    by root id.
    """
    machine = resolve_machine(machine)
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    machine.spawn()
    L = _elder_sibling_weights(parent, np.asarray(size, dtype=np.int64), machine)
    idx = np.arange(n, dtype=np.int64)
    roots = np.flatnonzero(parent == idx)
    # component base offsets: exclusive scan of component sizes by root id
    base = exclusive_prefix_sum(np.asarray(size)[roots], machine=machine)
    L[roots] = base
    # pointer doubling: acc[v] = sum of L over v and all its ancestors.
    # Invariant after k rounds: acc[v] covers v plus its nearest
    # min(2^k - 1, depth) ancestors and hop[v] is the 2^k-th ancestor (or
    # the nil sentinel -1 once the root has been absorbed).
    acc = L.astype(np.int64)
    hop = parent.copy()
    hop[roots] = -1
    while True:
        live = np.flatnonzero(hop >= 0)
        if live.size == 0:
            break
        h = hop[live]
        acc[live] += acc[h]  # gathers pre-round values before writing
        hop[live] = hop[h]
        machine.parallel(live.size, Ops(random=4, alu=1))
    return acc


def dfs_euler_tour_positions(
    numbering: TreeNumbering, machine: Machine | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tour positions of each vertex's advance/retreat arcs.

    For non-root v in a component with root r (0-based, local to the
    component's 2(size[r]-1)-arc tour):

        pos_fwd(v)  = 2 (pre(v) - pre(r)) - depth(v) - 1
        pos_back(v) = pos_fwd(v) + 2 size(v) - 1

    Roots get (-1, -1).  This materializes the DFS-ordered Euler tour the
    TV-opt construction produces.
    """
    machine = resolve_machine(machine)
    n = numbering.parent.size
    idx = np.arange(n, dtype=np.int64)
    # root of each vertex by doubling
    hop = numbering.parent.copy()
    while True:
        nxt = hop[hop]
        if (nxt == hop).all():
            break
        hop = nxt
    pre_local = numbering.pre - numbering.pre[hop]
    fwd = 2 * pre_local - numbering.depth - 1
    back = fwd + 2 * numbering.size - 1
    is_root = numbering.parent == idx
    fwd[is_root] = -1
    back[is_root] = -1
    machine.parallel(n, Ops(contig=3, alu=3))
    return fwd, back


def numbering_from_parents(
    parent: np.ndarray,
    level: np.ndarray,
    parent_edge: np.ndarray | None = None,
    machine: Machine | None = None,
) -> TreeNumbering:
    """TV-opt's merged Euler-tour/Root-tree/tree-computation step.

    Produces the same numbering as
    :func:`~repro.primitives.euler_tour.euler_tour_numbering` but from an
    already-rooted forest, using level sweeps + segmented scans + pointer
    doubling — O(n) work per sweep, contiguous scans, and only O(log d)
    irregular doubling rounds (versus list ranking's O(log n) rounds over
    2n arcs).
    """
    machine = resolve_machine(machine)
    parent = np.asarray(parent, dtype=np.int64)
    level = np.asarray(level, dtype=np.int64)
    n = parent.size
    groups = vertices_by_level(level)
    size = subtree_sizes(parent, level, machine=machine, by_level=groups)
    pre = dfs_preorder(parent, level, size, machine=machine)
    if parent_edge is None:
        parent_edge = np.full(n, -1, dtype=np.int64)
    roots = np.flatnonzero(parent == np.arange(n, dtype=np.int64))
    return TreeNumbering(parent.copy(), np.asarray(parent_edge), pre, size, level.copy(), roots)


def subtree_min_sweep(
    values: np.ndarray,
    parent: np.ndarray,
    level: np.ndarray,
    machine: Machine | None = None,
    by_level: list[np.ndarray] | None = None,
) -> np.ndarray:
    """min over each vertex's subtree of ``values`` (bottom-up sweep)."""
    return _subtree_sweep(values, parent, level, np.minimum, machine, by_level)


def subtree_max_sweep(
    values: np.ndarray,
    parent: np.ndarray,
    level: np.ndarray,
    machine: Machine | None = None,
    by_level: list[np.ndarray] | None = None,
) -> np.ndarray:
    """max over each vertex's subtree of ``values`` (bottom-up sweep)."""
    return _subtree_sweep(values, parent, level, np.maximum, machine, by_level)


def _subtree_sweep(values, parent, level, ufunc, machine, by_level) -> np.ndarray:
    machine = resolve_machine(machine)
    parent = np.asarray(parent, dtype=np.int64)
    out = np.asarray(values).copy()
    if out.size == 0:
        return out
    groups = by_level if by_level is not None else vertices_by_level(level)
    machine.spawn()
    for verts in reversed(groups[1:]):
        ufunc.at(out, parent[verts], out[verts])
        machine.parallel(verts.size, Ops(random=3, alu=1))
    return out
