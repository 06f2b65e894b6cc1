"""Level-synchronous parallel breadth-first search.

BFS serves two roles in the paper:

* step 1 of the new TV-filter algorithm (Alg. 2) computes a **BFS tree** —
  the filtering proof (Lemma 1) depends on the BFS level property;
* the traversal-based rooted spanning tree that TV-opt uses to merge the
  Spanning-tree and Root-tree steps is a parallel graph traversal of this
  kind (Cong–Bader [6, 3]).

The implementation is the standard frontier-expansion BFS: each level
gathers all arcs out of the frontier (one irregular gather), filters
unvisited heads, and resolves discovery races with a first-writer-wins rule
(CRCW arbitrary).  Work O(n + m) over d rounds; expected time O((n + m)/p)
whenever frontiers are larger than p (paper §4's performance argument).
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph, Graph
from ..runtime.context import current_team
from ..smp import Machine, Ops, resolve_machine

__all__ = ["BFSResult", "bfs", "bfs_forest"]


class BFSResult:
    """Rooted BFS forest.

    Attributes
    ----------
    parent:
        ``int64[n]`` with ``parent[root] == root``; ``-1`` marks vertices
        not reached (only when ``roots`` did not cover every component).
    level:
        ``int64[n]`` BFS depth (roots at 0; unreached -1).
    parent_edge:
        ``int64[n]`` edge id of the tree edge (v, parent[v]); -1 for roots
        and unreached vertices.
    roots:
        The root vertices used.
    num_levels:
        Number of BFS levels (max level + 1), i.e. eccentricity + 1.
    """

    __slots__ = ("parent", "level", "parent_edge", "roots", "num_levels")

    def __init__(self, parent, level, parent_edge, roots, num_levels):
        self.parent = parent
        self.level = level
        self.parent_edge = parent_edge
        self.roots = roots
        self.num_levels = num_levels

    @property
    def reached(self) -> np.ndarray:
        return self.parent >= 0

    def tree_edge_mask(self, m: int) -> np.ndarray:
        """Boolean mask over the graph's edges marking tree edges."""
        mask = np.zeros(m, dtype=bool)
        ids = self.parent_edge[self.parent_edge >= 0]
        mask[ids] = True
        return mask


def bfs(
    g: Graph,
    root: int = 0,
    machine: Machine | None = None,
    csr: CSRGraph | None = None,
) -> BFSResult:
    """BFS from a single root (see :func:`bfs_forest` for whole graphs)."""
    return bfs_forest(g, roots=np.array([root], dtype=np.int64), machine=machine, csr=csr)


def root_picker(parent, roots: np.ndarray | None, cover_all: bool):
    """The forest's root order as a ``next_root()`` callable (None: done).

    The given ``roots`` come first, skipping any an earlier tree reached;
    then, when ``roots`` is None or ``cover_all`` is set, the smallest
    unreached vertex, again and again.  That search keeps a forward-only
    cursor: every vertex below it is already reached and stays reached, so
    it scans ``parent`` once in total, in chunks that double while they
    find nothing, instead of once per tree.
    """
    pending = iter(roots.tolist()) if roots is not None else iter(())
    exhaust_rest = roots is None or cover_all
    n = len(parent)
    cursor, chunk = 0, 64

    def next_root() -> int | None:
        nonlocal cursor, chunk
        for r in pending:
            if parent[r] < 0:
                return int(r)
        while exhaust_rest and cursor < n:
            hi = min(cursor + chunk, n)
            hits = np.flatnonzero(np.asarray(parent[cursor:hi]) < 0)
            if hits.size:
                cursor += int(hits[0])
                chunk = 64
                return cursor
            cursor, chunk = hi, chunk * 2
        return None

    return next_root


def bfs_forest(
    g: Graph,
    roots: np.ndarray | None = None,
    machine: Machine | None = None,
    csr: CSRGraph | None = None,
    cover_all: bool = False,
    *,
    team=None,
) -> BFSResult:
    """Level-synchronous BFS from ``roots`` (all components if None).

    When ``roots`` is None, or ``cover_all`` is True, the forest covers the
    whole graph: after the given roots exhaust, the smallest unreached
    vertex seeds the next tree, and so on (sequential restarts, parallel
    levels).

    When an execution backend is active (``team`` passed explicitly, or
    published via :func:`repro.runtime.active_team`) and the graph clears
    the team's dispatch grain, frontier expansion runs on the backend's
    worker team (:func:`repro.runtime.kernels.bfs_forest`) — identical
    machine charges, bit-identical parents/levels/parent edges.
    """
    if team is None:
        team = current_team()
    if team is not None and g.n + 2 * g.m >= team.grain:
        from ..runtime import kernels

        return kernels.bfs_forest(
            g, roots, team=team, machine=machine, csr=csr, cover_all=cover_all
        )
    machine = resolve_machine(machine)
    n = g.n
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return BFSResult(parent, level, parent_edge, np.empty(0, np.int64), 0)
    if csr is None:
        csr = g.csr()
        # edge list -> adjacency conversion: the "representation
        # discrepancy" cost the paper highlights (a sort of 2m arcs)
        machine.parallel(2 * g.m, Ops(contig=2, random=1, alu=np.log2(max(2 * g.m, 2))))
    machine.spawn()

    used_roots: list[int] = []
    next_root = root_picker(parent, roots, cover_all)
    max_level = -1

    while True:
        r = next_root()
        if r is None:
            break
        used_roots.append(r)
        parent[r] = r
        level[r] = 0
        frontier = np.array([r], dtype=np.int64)
        depth = 0
        while frontier.size:
            srcs, dsts, eids = csr.gather_frontier(frontier)
            machine.parallel(srcs.size + frontier.size, Ops(random=2, contig=1))
            fresh = parent[dsts] < 0
            machine.parallel(dsts.size, Ops(random=1, alu=1))
            dsts, srcs, eids = dsts[fresh], srcs[fresh], eids[fresh]
            if dsts.size == 0:
                break
            # first-writer-wins (CRCW arbitrary): keep the first proposal
            # for each newly discovered vertex
            uniq, first = np.unique(dsts, return_index=True)
            parent[uniq] = srcs[first]
            parent_edge[uniq] = eids[first]
            depth += 1
            level[uniq] = depth
            machine.parallel(dsts.size, Ops(random=3, alu=np.log2(max(dsts.size, 2))))
            frontier = uniq
        max_level = max(max_level, depth)
    return BFSResult(
        parent,
        level,
        parent_edge,
        np.asarray(used_roots, dtype=np.int64),
        max_level + 1,
    )
