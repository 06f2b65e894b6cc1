"""Unit tests for level-synchronous parallel BFS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generators as gen
from repro.graph.validate import is_bfs_tree, is_connected, is_spanning_tree
from repro.primitives import bfs, bfs_forest
from repro.runtime import ProcessTeam, SerialTeam
from repro.smp import Machine, Ops
from tests.strategies import corpus_graphs, gnm_graphs


def nx_levels(g, root):
    import networkx as nx

    return nx.single_source_shortest_path_length(g.to_networkx(), root)


class TestBFS:
    def test_levels_match_networkx(self):
        for seed in range(4):
            g = gen.random_connected_gnm(80, 160, seed=seed)
            res = bfs(g, root=0)
            ref = nx_levels(g, 0)
            for v, d in ref.items():
                assert res.level[v] == d

    def test_parent_one_level_up(self):
        g = gen.random_connected_gnm(100, 300, seed=1)
        res = bfs(g, root=5)
        nonroot = np.flatnonzero(res.parent != np.arange(g.n))
        assert (res.level[nonroot] == res.level[res.parent[nonroot]] + 1).all()

    def test_is_valid_bfs_tree(self):
        g = gen.random_connected_gnm(60, 150, seed=2)
        res = bfs(g, root=0)
        assert is_bfs_tree(g, res.parent, res.level)
        assert is_spanning_tree(g, res.parent, root=0)

    def test_parent_edges_are_real_edges(self):
        g = gen.random_connected_gnm(50, 120, seed=3)
        res = bfs(g, root=0)
        nonroot = np.flatnonzero(res.parent != np.arange(g.n))
        for v in nonroot.tolist():
            e = res.parent_edge[v]
            pair = {int(g.u[e]), int(g.v[e])}
            assert pair == {v, int(res.parent[v])}

    def test_num_levels_path(self):
        g = gen.path_graph(10)
        res = bfs(g, root=0)
        assert res.num_levels == 10
        res_mid = bfs(g, root=5)
        assert res_mid.num_levels == 6

    def test_unreached_marked(self):
        g = Graph(5, [0, 3], [1, 4])
        res = bfs(g, root=0)
        assert res.parent[2] == -1 and res.level[3] == -1
        assert not res.reached[4]
        assert res.reached[0] and res.reached[1]

    def test_tree_edge_mask(self):
        g = gen.cycle_graph(5)
        res = bfs(g, root=0)
        mask = res.tree_edge_mask(g.m)
        assert mask.sum() == 4

    def test_single_vertex(self):
        res = bfs(Graph(1, [], []), root=0)
        assert res.parent.tolist() == [0]
        assert res.num_levels == 1

    def test_empty_graph(self):
        res = bfs_forest(Graph(0, [], []))
        assert res.parent.size == 0
        assert res.num_levels == 0


class TestBFSForest:
    def test_covers_all_components(self):
        g = Graph(7, [0, 1, 3, 5], [1, 2, 4, 6])
        res = bfs_forest(g)
        assert (res.parent >= 0).all()
        assert sorted(res.roots.tolist()) == [0, 3, 5]

    def test_explicit_roots_then_cover(self):
        g = Graph(6, [0, 2, 4], [1, 3, 5])
        res = bfs_forest(g, roots=np.array([4]), cover_all=True)
        assert res.roots[0] == 4
        assert (res.parent >= 0).all()

    def test_explicit_roots_no_cover(self):
        g = Graph(6, [0, 2, 4], [1, 3, 5])
        res = bfs_forest(g, roots=np.array([2]))
        assert res.reached.sum() == 2

    def test_duplicate_roots_ignored(self):
        g = gen.cycle_graph(4)
        res = bfs_forest(g, roots=np.array([1, 1, 2]))
        assert res.roots.tolist() == [1]

    def test_isolated_vertices_are_roots(self):
        g = Graph(3, [0], [1])
        res = bfs_forest(g)
        assert 2 in res.roots.tolist()
        assert res.level[2] == 0


def _sparse_components(n_isolated: int = 3000, seed: int = 4):
    """Thousands of isolated vertices with a few components hidden among them."""
    rng = np.random.default_rng(seed)
    parts = [gen.random_connected_gnm(40, 70, seed=seed), gen.cycle_graph(25),
             gen.path_graph(12)]
    n = n_isolated + sum(p.n for p in parts)
    ids = rng.permutation(n)
    us, vs, off = [], [], 0
    for p in parts:
        us.append(ids[off + p.u])
        vs.append(ids[off + p.v])
        off += p.n
    return Graph(n, np.concatenate(us), np.concatenate(vs))


def _components(g):
    import networkx as nx

    return list(nx.connected_components(g.to_networkx()))


def _forest_block(rank, lo, hi, n, u, v, parent, level):
    """Grow the whole forest in this worker and keep its block of it."""
    got = bfs_forest(Graph(int(n[0]), np.asarray(u), np.asarray(v)))
    parent[lo:hi] = got.parent[lo:hi]
    level[lo:hi] = got.level[lo:hi]


class TestBFSForestRootOrder:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_roots_are_smallest_unreached_vertices(self, backend):
        g = _sparse_components()
        # the oracle: each tree is seeded by the smallest vertex no earlier
        # tree reached, i.e. by its component's minimum, in ascending order
        expected = sorted(min(c) for c in _components(g))
        got = bfs_forest(g, machine=Machine(p=4))
        assert got.roots.tolist() == expected
        assert (got.parent[got.roots] == got.roots).all()
        assert (got.level[got.roots] == 0).all()
        # a forest grown inside the team's workers, as a cluster shard
        # engine grows it, is the same forest, block for block
        team_cls = {"serial": SerialTeam, "processes": ProcessTeam}[backend]
        with team_cls(2) as team:
            args = [team.share(np.asarray(a, dtype=np.int64))
                    for a in ([g.n], g.u, g.v)]
            parent = team.full(g.n, -2, np.int64)
            level = team.full(g.n, -2, np.int64)
            team.parallel_for(g.n, _forest_block, *args, parent, level)
            np.testing.assert_array_equal(np.asarray(parent), got.parent)
            np.testing.assert_array_equal(np.asarray(level), got.level)
        self_parented = np.flatnonzero(got.parent == np.arange(g.n))
        assert self_parented.tolist() == expected

    def test_explicit_roots_then_smallest_unreached(self):
        g = _sparse_components(n_isolated=500)
        comps = _components(g)
        big = max(comps, key=len)
        first = max(big)  # a non-minimal root of the largest component
        res = bfs_forest(g, roots=np.array([first]), cover_all=True)
        rest = sorted(min(c) for c in comps if c is not big)
        assert res.roots.tolist() == [first, *rest]


def restart_bfs_forest(g, roots=None, machine=None, cover_all=False):
    """The forest grown one tree per root, restarting at the smallest
    unreached vertex once the given roots run out, with ``np.unique`` as
    the first-writer rule: the reference the one-pass forest must equal
    field for field, and charge for charge whenever no restart is needed."""
    machine = machine or Machine(p=1)
    n = g.n
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    csr = g.csr()
    machine.parallel(2 * g.m, Ops(contig=2, random=1, alu=np.log2(max(2 * g.m, 2))))
    machine.spawn()
    order = [] if roots is None else [int(r) for r in roots]
    if roots is None or cover_all:
        order += list(range(n))
    used, max_level = [], -1
    for r in order:
        if parent[r] >= 0:
            continue
        used.append(r)
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
            uniq, first = np.unique(dsts, return_index=True)
            parent[uniq] = srcs[first]
            parent_edge[uniq] = eids[first]
            depth += 1
            level[uniq] = depth
            machine.parallel(dsts.size, Ops(random=3, alu=np.log2(max(dsts.size, 2))))
            frontier = uniq
        max_level = max(max_level, depth)
    return parent, level, parent_edge, np.asarray(used, dtype=np.int64), max_level + 1


@st.composite
def scattered_graphs(draw):
    """Tiny components and isolated vertices under a random vertex order."""
    pieces = draw(st.lists(gnm_graphs(min_n=1, max_n=8), max_size=5))
    n = draw(st.integers(0, 30)) + sum(p.n for p in pieces)
    if n == 0:
        return Graph(0, [], [])
    ids = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    us, vs, off = [np.empty(0, np.int64)], [np.empty(0, np.int64)], 0
    for p in pieces:
        us.append(ids[off + p.u])
        vs.append(ids[off + p.v])
        off += p.n
    return Graph(n, np.concatenate(us), np.concatenate(vs))


class TestOnePassForestEqualsRestarts:
    @settings(max_examples=150)
    @given(
        g=st.one_of(corpus_graphs(), scattered_graphs(), gnm_graphs(max_n=60, max_density=1)),
        data=st.data(),
    )
    def test_every_field_and_connected_charges(self, g, data):
        roots = None
        cover_all = data.draw(st.booleans())
        if g.n and data.draw(st.booleans()):
            roots = np.asarray(
                data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4)),
                dtype=np.int64,
            )
        got_m, want_m = Machine(p=4), Machine(p=4)
        got = bfs_forest(g, roots=roots, machine=got_m, cover_all=cover_all)
        want = restart_bfs_forest(g, roots=roots, machine=want_m, cover_all=cover_all)
        for field, ref in zip(("parent", "level", "parent_edge", "roots"), want):
            np.testing.assert_array_equal(getattr(got, field), ref, err_msg=field)
        assert got.roots.dtype == np.int64
        assert got.num_levels == want[4]
        if g.n == 0:
            return
        # no remainder pass when the given trees reach every vertex it
        # would cover: then the charges are the restart loop's exactly
        if is_connected(g) or (roots is not None and not cover_all):
            assert got_m.report().totals.as_dict() == want_m.report().totals.as_dict()

    def test_isolated_vertices_charge_levels_not_components(self):
        g = Graph(5000, [], [])
        machine = Machine(p=4)
        res = bfs_forest(g, machine=machine)
        assert res.roots.tolist() == list(range(5000))
        assert (res.level == 0).all() and res.num_levels == 1
        # one tree, one remainder pass and one multi-source level, not
        # one restart per vertex (5,000 barriers)
        assert machine.report().totals.barriers <= 20
