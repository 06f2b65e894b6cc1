"""The registered stage strategies and built-in algorithm specs.

The concrete step implementations of the TV family — previously inlined in
``core/tv.py`` and ``core/filter.py`` — registered against the stage
registry in :mod:`repro.core.pipeline`.  Machine charges are preserved
exactly: each body is the original code, only reading its inputs from and
writing its outputs to the :class:`~repro.core.pipeline.PipelineContext`.

The three paper algorithms are pure :class:`AlgorithmSpec` data at the
bottom of this module; mixing strategies across them (e.g. TV-opt with RMQ
low/high and the pruned aux-CC) needs no new code — see
``biconnected_components(g, algorithm="custom", strategies=...)``.
"""

from __future__ import annotations

import numpy as np

from ..primitives.connectivity import fastsv, shiloach_vishkin
from ..primitives.euler_tour import euler_tour_numbering
from ..primitives.spanning_tree import (
    bfs_spanning_tree,
    hcs_spanning_tree,
    sv_spanning_tree,
    traversal_spanning_tree,
)
from ..primitives.tree_computations import numbering_from_parents
from ..smp import Ops
from .auxgraph import build_auxiliary_graph
from .lowhigh import low_high
from .pipeline import AlgorithmSpec, register_algorithm, strategy
from .result import FilterCertificate

__all__ = ["FilterStats"]


class FilterStats:
    """What the Filtering step did (exposed for the filter-claims bench)."""

    __slots__ = ("m", "tree_edges", "forest_edges", "filtered_edges", "bfs_levels")

    def __init__(self, m, tree_edges, forest_edges, filtered_edges, bfs_levels):
        self.m = m
        self.tree_edges = tree_edges
        self.forest_edges = forest_edges
        self.filtered_edges = filtered_edges
        self.bfs_levels = bfs_levels

    @property
    def guaranteed_minimum_filtered(self) -> int:
        """The paper's lower bound: max(m - 2(n-1), 0) for connected G."""
        n_minus_1 = self.tree_edges  # |T| = n - #components
        return max(self.m - 2 * n_minus_1, 0)


# ---------------------------------------------------------------------------
# stage: spanning


@strategy(
    "spanning",
    "sv",
    knobs=("sv_mode",),
    ablate=({"sv_mode": "textbook"}, {"sv_mode": "engineered"}),
    description="Shiloach–Vishkin graft-and-shortcut spanning forest (TV-SMP; unrooted)",
)
def _spanning_sv(ctx):
    forest = sv_spanning_tree(ctx.g, ctx.machine, mode=ctx.knob("sv_mode", "textbook"))
    ctx.tree_ids = forest.edge_ids


@strategy(
    "spanning",
    "hcs",
    description="Hirschberg–Chandra–Sarwate min-hooking spanning forest (unrooted)",
)
def _spanning_hcs(ctx):
    ctx.tree_ids = hcs_spanning_tree(ctx.g, ctx.machine).edge_ids


def _store_rooted(ctx, res):
    ctx.parent = res.parent
    ctx.level = res.level
    ctx.parent_edge = res.parent_edge
    ctx.roots = res.roots
    ctx.num_levels = res.num_levels


@strategy(
    "spanning",
    "traversal",
    provides=("rooted", "bfs-levels"),
    description="traversal-based rooted tree (TV-opt; Root-tree merged into step 1)",
)
def _spanning_traversal(ctx):
    _store_rooted(ctx, traversal_spanning_tree(ctx.g, root=0, machine=ctx.machine))


@strategy(
    "spanning",
    "bfs",
    provides=("rooted", "bfs-levels"),
    description="level-synchronous BFS tree (TV-filter step 1; Lemma 1 needs BFS levels)",
)
def _spanning_bfs(ctx):
    _store_rooted(ctx, bfs_spanning_tree(ctx.g, root=0, machine=ctx.machine))


# ---------------------------------------------------------------------------
# stage: filter


@strategy(
    "filter",
    "none",
    region=None,
    description="no filtering: every edge enters the auxiliary graph",
)
def _filter_none(ctx):
    ctx.consider = np.ones(ctx.g.m, dtype=bool)


@strategy(
    "filter",
    "forest",
    requires=("bfs-levels",),
    knobs=("stats_out",),
    description="Algorithm 2: keep T plus a spanning forest F of G − T; relabel the rest",
)
def _filter_forest(ctx):
    g, machine = ctx.g, ctx.machine
    m = g.m
    tree_mask = np.zeros(m, dtype=bool)
    ids = ctx.parent_edge[ctx.parent_edge >= 0]
    tree_mask[ids] = True
    # step 2: spanning forest F of G - T
    nontree_ids = np.flatnonzero(~tree_mask)
    sv = shiloach_vishkin(g.n, g.u[nontree_ids], g.v[nontree_ids], machine)
    forest_ids = nontree_ids[sv.forest_edges]
    consider = tree_mask.copy()
    consider[forest_ids] = True
    machine.parallel(m, Ops(contig=2))
    ctx.tree_mask = tree_mask
    ctx.consider = consider
    ctx.certificate = FilterCertificate(consider, tree_mask, ctx.level, sv.labels)
    stats_out = ctx.knob("stats_out")
    if stats_out is not None:
        stats_out.append(
            FilterStats(
                m=m,
                tree_edges=int(tree_mask.sum()),
                forest_edges=int(forest_ids.size),
                filtered_edges=int(m - tree_mask.sum() - forest_ids.size),
                bfs_levels=ctx.num_levels,
            )
        )


# ---------------------------------------------------------------------------
# stage: euler


@strategy(
    "euler",
    "tour",
    region=None,
    extra_regions=("Euler-tour", "Root-tree"),
    knobs=("list_ranking",),
    ablate=({"list_ranking": "wyllie"}, {"list_ranking": "helman-jaja"}),
    description="sort-paired circular tour + list ranking (TV-SMP; emits Root-tree)",
)
def _euler_tour(ctx):
    g = ctx.g
    tree_ids = ctx.tree_ids
    if tree_ids is None:
        # rooted spanning stage: recover the tree-edge id list, and keep
        # the existing roots so re-rooting cannot break the BFS property
        tree_ids = ctx.parent_edge[ctx.parent_edge >= 0]
    numbering = euler_tour_numbering(
        g.n,
        g.u[tree_ids],
        g.v[tree_ids],
        ctx.machine,
        roots=ctx.roots,
        list_ranking=ctx.knob("list_ranking", "wyllie"),
    )
    # parent_edge indexes the tree-edge sublist; re-index to g's edges
    pe = numbering.parent_edge
    has = pe >= 0
    pe_global = np.full(g.n, -1, dtype=np.int64)
    pe_global[has] = tree_ids[pe[has]]
    numbering.parent_edge = pe_global
    ctx.numbering = numbering


@strategy(
    "euler",
    "prefix",
    requires=("rooted",),
    description="DFS-ordered numbering from parents via prefix sums (TV-opt)",
)
def _euler_prefix(ctx):
    ctx.numbering = numbering_from_parents(ctx.parent, ctx.level, ctx.parent_edge, ctx.machine)


# ---------------------------------------------------------------------------
# stage: lowhigh


def _make_lowhigh(method):
    def _fn(ctx):
        g = ctx.g
        nu = ctx.nu_mask
        ctx.low, ctx.high = low_high(
            g.u[nu], g.v[nu], ctx.numbering, ctx.machine, method=method
        )

    return _fn


for _method, _desc in (
    ("sweep", "bottom-up level sweep over tree levels (TV-opt)"),
    ("rmq", "preorder-interval min/max via sparse-table RMQ (TV-SMP / PRAM form)"),
    ("contraction", "Miller–Reif rake-and-compress tree contraction"),
):
    strategy("lowhigh", _method, description=_desc)(_make_lowhigh(_method))


# ---------------------------------------------------------------------------
# stage: label


@strategy(
    "label",
    "aux",
    provides=("aux",),
    description="Algorithm 1: build the auxiliary graph over conditions 1–3",
)
def _label_aux(ctx):
    g = ctx.g
    ctx.aux = build_auxiliary_graph(
        g.n,
        g.u,
        g.v,
        ctx.consider,
        ctx.tree_mask,
        ctx.child_of_edge,
        ctx.numbering,
        ctx.low,
        ctx.high,
        ctx.machine,
    )


@strategy(
    "label",
    "skeleton",
    provides=("skeleton",),
    description="FAST-BCC skeleton: conditions 2–3 as vertex pairs, no aux graph",
)
def _label_skeleton(ctx):
    """Skeleton-based labelling (Dong–Wang–Gu–Sun, arXiv:2301.01356).

    Emits conditions 2 and 3 of R''c directly as *vertex* pairs of G — the
    "skeleton" whose connectivity, read off at each tree edge's child
    endpoint, already equals the biconnected-component partition.  Skips
    the auxiliary-graph machinery entirely: no 3|L| staging bands, no
    prefix-sum ``N`` numbering of nontree edges, no compaction — O(n)
    extra space instead of O(m).  Condition 1 (each nontree edge joins its
    deeper endpoint's tree edge) becomes a pure labelling rule applied by
    the ``vertex`` cc strategy, so it costs no skeleton edges at all.
    """
    g, machine, numbering = ctx.g, ctx.machine, ctx.numbering
    pre, parent, size = numbering.pre, numbering.parent, numbering.size
    machine.spawn()

    # condition 2: considered nontree (u, v) with u, v unrelated -> {u, v}
    ntidx = np.flatnonzero(ctx.consider & ~ctx.tree_mask)
    eu, ev = g.u[ntidx], g.v[ntidx]
    pre_u, pre_v = pre[eu], pre[ev]
    size_u, size_v = size[eu], size[ev]
    machine.parallel(ntidx.size, Ops(contig=2, random=4))
    u_anc_v = (pre_u <= pre_v) & (pre_v < pre_u + size_u)
    v_anc_u = (pre_v <= pre_u) & (pre_u < pre_v + size_v)
    unrel = ~u_anc_v & ~v_anc_u
    machine.parallel(ntidx.size, Ops(alu=6))

    # condition 3: tree (c, w), w not a root, subtree of c escapes w -> {c, w}
    tidx = np.flatnonzero(ctx.consider & ctx.tree_mask)
    c = ctx.child_of_edge[tidx]
    w = parent[c]
    w_nonroot = parent[w] != w
    escapes = (ctx.low[c] < pre[w]) | (ctx.high[c] >= pre[w] + size[w])
    sel = w_nonroot & escapes
    machine.parallel(tidx.size, Ops(random=6, alu=4))

    ctx.sk_u = np.concatenate([eu[unrel], c[sel]])
    ctx.sk_v = np.concatenate([ev[unrel], w[sel]])
    machine.parallel(ctx.sk_u.size, Ops(contig=2))


# ---------------------------------------------------------------------------
# stage: cc


def _finish_labels(ctx, labels, ccl):
    """Back-label edges outside ``consider`` via condition 1, then the
    final label-compaction pass (shared by both cc strategies)."""
    g, machine, numbering = ctx.g, ctx.machine, ctx.numbering
    outside = np.flatnonzero(~ctx.consider)
    if outside.size:
        # condition 1 for every filtered edge: same component as the
        # deeper endpoint's tree edge (paper Alg. 2, step 4)
        eu, ev = g.u[outside], g.v[outside]
        deeper = np.where(numbering.pre[eu] > numbering.pre[ev], eu, ev)
        labels[outside] = ccl[deeper]
        machine.parallel(outside.size, Ops(random=3, alu=1))
    machine.parallel(g.m, Ops(random=2))
    ctx.labels = labels
    ctx.ccl = ccl


@strategy(
    "cc",
    "full",
    requires=("aux",),
    description="TV step 6 as written: SV over all n + m' auxiliary vertices",
)
def _cc_full(ctx):
    g, aux, machine = ctx.g, ctx.aux, ctx.machine
    labels = np.full(g.m, -1, dtype=np.int64)
    cc = shiloach_vishkin(aux.num_vertices, aux.au, aux.av, machine)
    ccl = cc.labels[: g.n]
    inside = np.flatnonzero(ctx.consider)
    labels[inside] = cc.labels[aux.aux_id_of_edge[inside]]
    _finish_labels(ctx, labels, ccl)


@strategy(
    "cc",
    "pruned",
    requires=("aux",),
    description="leaf-pruned CC: SV on tree-edge vertices only; nontree edges inherit",
)
def _cc_pruned(ctx):
    g, aux, machine, numbering = ctx.g, ctx.aux, ctx.machine, ctx.numbering
    m = g.m
    labels = np.full(m, -1, dtype=np.int64)
    n1 = aux.condition_counts[0]
    cc = shiloach_vishkin(g.n, aux.au[n1:], aux.av[n1:], machine)
    ccl = cc.labels
    tidx = np.flatnonzero(ctx.consider & ctx.tree_mask)
    labels[tidx] = ccl[ctx.child_of_edge[tidx]]
    ntidx = np.flatnonzero(ctx.nu_mask)
    if ntidx.size:
        eu, ev = g.u[ntidx], g.v[ntidx]
        deeper = np.where(numbering.pre[eu] > numbering.pre[ev], eu, ev)
        labels[ntidx] = ccl[deeper]
    machine.parallel(m, Ops(random=3, alu=1))
    _finish_labels(ctx, labels, ccl)


@strategy(
    "cc",
    "vertex",
    requires=("skeleton",),
    knobs=("connectivity",),
    ablate=({"connectivity": "fastsv"}, {"connectivity": "sv"}),
    description="connectivity on G's own vertices over the skeleton edges",
)
def _cc_vertex(ctx):
    """FAST-BCC step 6: run connectivity on the n-vertex skeleton.

    Tree edges read their label at the child endpoint; nontree edges
    inherit from the deeper endpoint (condition 1 as a labelling rule) —
    the same component algebra as the pruned aux-CC, but with no aux
    vertex ids anywhere.
    """
    g, machine, numbering = ctx.g, ctx.machine, ctx.numbering
    m = g.m
    labels = np.full(m, -1, dtype=np.int64)
    conn = fastsv if ctx.knob("connectivity", "fastsv") == "fastsv" else shiloach_vishkin
    cc = conn(g.n, ctx.sk_u, ctx.sk_v, machine)
    ccl = cc.labels
    tidx = np.flatnonzero(ctx.consider & ctx.tree_mask)
    labels[tidx] = ccl[ctx.child_of_edge[tidx]]
    ntidx = np.flatnonzero(ctx.nu_mask)
    if ntidx.size:
        eu, ev = g.u[ntidx], g.v[ntidx]
        deeper = np.where(numbering.pre[eu] > numbering.pre[ev], eu, ev)
        labels[ntidx] = ccl[deeper]
    machine.parallel(m, Ops(random=3, alu=1))
    _finish_labels(ctx, labels, ccl)


# ---------------------------------------------------------------------------
# the paper's algorithms, as pure data


register_algorithm(
    AlgorithmSpec(
        name="tv-smp",
        strategies={
            "spanning": "sv",
            "filter": "none",
            "euler": "tour",
            "lowhigh": "rmq",
            "label": "aux",
            "cc": "full",
        },
        description="direct coarse-grained emulation of Tarjan–Vishkin (paper §3.1)",
    )
)

register_algorithm(
    AlgorithmSpec(
        name="tv-opt",
        strategies={
            "spanning": "traversal",
            "filter": "none",
            "euler": "prefix",
            "lowhigh": "sweep",
            "label": "aux",
            "cc": "full",
        },
        description="engineering-optimized TV: merged steps 1–3, prefix-sum numbering (§3.2)",
    )
)

register_algorithm(
    AlgorithmSpec(
        name="tv-filter",
        strategies={
            "spanning": "bfs",
            "filter": "forest",
            "euler": "prefix",
            "lowhigh": "sweep",
            "label": "aux",
            "cc": "full",
        },
        # Fig. 4 charges the BFS tree under Filtering (step 1 of Alg. 2)
        regions={"spanning": "Filtering"},
        fallback_to="tv-opt",
        fallback_ratio=4.0,
        description="edge filtering (Algorithm 2): run TV on T ∪ F only (§4)",
    )
)


# ---------------------------------------------------------------------------
# post-paper variants (excluded from the fig3/fig4 sweep by in_figures=False;
# the figures-guard baseline pins exactly the paper's algorithm set)


register_algorithm(
    AlgorithmSpec(
        name="fastbcc",
        strategies={
            "spanning": "bfs",
            "filter": "none",
            "euler": "prefix",
            "lowhigh": "sweep",
            "label": "skeleton",
            "cc": "vertex",
        },
        in_figures=False,
        description="skeleton-based BCC, O(n) extra space, no aux graph (arXiv:2301.01356)",
    )
)
