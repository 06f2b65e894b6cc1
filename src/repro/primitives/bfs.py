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
(CRCW arbitrary, :class:`FirstWriter`).  Work O(n + m) over d rounds;
expected time O((n + m)/p) whenever frontiers are larger than p (paper §4's
performance argument).  A forest that must cover a disconnected graph grows
every tree after the first in one multi-source pass, so its frontiers stay
large and it pays d barriers rather than one restart per component.
"""

from __future__ import annotations

import numpy as np

from ..graph import CSRGraph, Graph
from ..smp import Machine, Ops, resolve_machine
from .connectivity import shiloach_vishkin

__all__ = ["BFSResult", "FirstWriter", "bfs", "bfs_forest", "tree_seeds"]


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


#: A level whose proposals number fewer than ``n / _SORT_BELOW`` sorts them
#: to list its new vertices; larger levels scan a mark array of length n
#: instead.  Either way the list is ascending, so the choice never shows in
#: the output; it only keeps high-diameter graphs (paths: one proposal per
#: level) from paying an O(n) scan per level.
_SORT_BELOW = 1024


class FirstWriter:
    """First-writer-wins discovery (CRCW arbitrary) without a sort.

    Each newly discovered vertex takes the *first* arc, in gather order,
    that proposes it.  Arc positions are scattered in reverse into a slot
    array, so the earliest proposal is the last write (numpy's
    last-write-wins scatter, the rule Shiloach–Vishkin's grafts rely on
    too); the new vertices, ascending, come from a mark-and-scan over a
    bool array that is cleared again afterwards.  Both arrays belong to
    one forest and are reused level after level; the claims go into its
    ``parent``, ``level`` and ``parent_edge`` arrays.
    """

    __slots__ = ("parent", "level", "parent_edge", "slot", "seen")

    def __init__(self, parent, level, parent_edge):
        self.parent, self.level, self.parent_edge = parent, level, parent_edge
        self.slot = np.empty(len(level), dtype=np.int64)
        self.seen = np.zeros(len(level), dtype=bool)

    def discover(self, srcs, dsts, eids, depth: int, machine: Machine) -> np.ndarray:
        """Claim the fresh targets ``dsts`` at ``depth``; returns them ascending
        (the next frontier)."""
        k = dsts.size
        self.slot[dsts[::-1]] = np.arange(k - 1, -1, -1, dtype=np.int64)
        if k * _SORT_BELOW < self.seen.size:
            uniq = np.unique(dsts)
        else:
            self.seen[dsts] = True
            uniq = np.flatnonzero(self.seen)
            self.seen[uniq] = False
        first = self.slot[uniq]
        self.parent[uniq] = srcs[first]
        self.parent_edge[uniq] = eids[first]
        self.level[uniq] = depth
        machine.parallel(k, Ops(random=3, alu=np.log2(max(k, 2))))
        return uniq


def tree_seeds(csr: CSRGraph, parent, roots: np.ndarray | None, cover_all: bool,
               machine: Machine):
    """The forest's seed sets, one BFS per yielded ``int64`` array.

    The given ``roots`` come first, one tree each, skipping any an earlier
    tree reached; with ``roots`` None that is vertex 0.  Then, when
    ``roots`` is None or ``cover_all`` is set, every component no tree has
    reached yet is seeded at its minimum vertex, all in one array, so the
    rest of the graph grows in one multi-source BFS rather than one restart
    per component.  Those seeds are exactly the roots the restart loop
    would pick: the smallest unreached vertex, again and again.  Lazy: each
    set is chosen after the previous trees are grown into ``parent``.
    """
    for r in ([0] if roots is None else roots.tolist()):
        if parent[r] < 0:
            yield np.array([r], dtype=np.int64)
    if roots is None or cover_all:
        seeds = _remainder_roots(csr, parent, machine)
        if seeds.size:
            yield seeds


def _remainder_roots(csr: CSRGraph, parent, machine: Machine) -> np.ndarray:
    """Minimum vertex of every component no tree reached, ascending.

    Grown trees are whole components, so the arcs out of the unreached
    vertices are exactly the edges among them (each once per direction).
    Shiloach–Vishkin over one direction of each, on the unreached vertices
    renumbered in order, labels each component by its minimum (grafts only
    ever lower a label).  Charges nothing when every vertex is reached, so
    connected graphs cost what one tree costs.
    """
    rest = np.flatnonzero(np.asarray(parent) < 0)
    if rest.size == 0:
        return rest
    srcs, dsts, _ = csr.gather_frontier(rest)
    machine.parallel(srcs.size + rest.size, Ops(random=2, contig=1))
    one_way = srcs < dsts
    local = np.empty(csr.n, dtype=np.int64)
    local[rest] = np.arange(rest.size, dtype=np.int64)
    machine.parallel(srcs.size + rest.size, Ops(random=1, alu=1))
    cc = shiloach_vishkin(
        rest.size, local[srcs[one_way]], local[dsts[one_way]], machine=machine
    )
    is_min = cc.labels == np.arange(rest.size)
    machine.parallel(rest.size, Ops(contig=2, alu=1))
    return rest[is_min]


def bfs_forest(
    g: Graph,
    roots: np.ndarray | None = None,
    machine: Machine | None = None,
    csr: CSRGraph | None = None,
    cover_all: bool = False,
) -> BFSResult:
    """Level-synchronous BFS from ``roots`` (all components if None).

    When ``roots`` is None, or ``cover_all`` is True, the forest covers the
    whole graph: after the given roots' trees (vertex 0's when ``roots`` is
    None), every component still unreached is rooted at its minimum vertex
    and all of them grow together in one multi-source BFS
    (:func:`tree_seeds`).  The result is what restarting at the smallest
    unreached vertex, tree after tree, would give — the same roots,
    parents, levels and parent edges — because components share no arc and
    each keeps its proposals' relative order in every level's gather.
    """
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

    used_roots: list[np.ndarray] = []
    writer = FirstWriter(parent, level, parent_edge)
    max_level = -1
    for seeds in tree_seeds(csr, parent, roots, cover_all, machine):
        used_roots.append(seeds)
        parent[seeds] = seeds
        level[seeds] = 0
        frontier = seeds
        depth = 0
        while frontier.size:
            srcs, dsts, eids = csr.gather_frontier(frontier)
            machine.parallel(srcs.size + frontier.size, Ops(random=2, contig=1))
            fresh = parent[dsts] < 0
            machine.parallel(dsts.size, Ops(random=1, alu=1))
            dsts, srcs, eids = dsts[fresh], srcs[fresh], eids[fresh]
            if dsts.size == 0:
                break
            depth += 1
            frontier = writer.discover(srcs, dsts, eids, depth, machine)
        max_level = max(max_level, depth)
    return BFSResult(
        parent,
        level,
        parent_edge,
        np.concatenate(used_roots) if used_roots else np.empty(0, np.int64),
        max_level + 1,
    )
