"""Unit tests for level-synchronous parallel BFS."""

import numpy as np
import pytest

from repro.graph import Graph, generators as gen
from repro.graph.validate import is_bfs_tree, is_spanning_tree
from repro.primitives import bfs, bfs_forest


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


class TestBFSForestRootOrder:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_roots_are_smallest_unreached_vertices(self, backend):
        from repro.runtime import kernels, make_team
        from repro.smp import Machine

        g = _sparse_components()
        # the oracle: each tree is seeded by the smallest vertex no earlier
        # tree reached, i.e. by its component's minimum, in ascending order
        expected = sorted(min(c) for c in _components(g))
        ref_machine = Machine(p=4)
        ref = bfs_forest(g, machine=ref_machine)
        assert ref.roots.tolist() == expected
        with make_team(backend, 2) as team:
            machine = Machine(p=4)
            got = kernels.bfs_forest(g, team=team, machine=machine)
        assert got.roots.tolist() == expected
        np.testing.assert_array_equal(got.parent, ref.parent)
        np.testing.assert_array_equal(got.level, ref.level)
        np.testing.assert_array_equal(got.parent_edge, ref.parent_edge)
        assert got.num_levels == ref.num_levels
        assert (machine.report().totals.as_dict()
                == ref_machine.report().totals.as_dict())

    def test_explicit_roots_then_smallest_unreached(self):
        g = _sparse_components(n_isolated=500)
        comps = _components(g)
        big = max(comps, key=len)
        first = max(big)  # a non-minimal root of the largest component
        res = bfs_forest(g, roots=np.array([first]), cover_all=True)
        rest = sorted(min(c) for c in comps if c is not big)
        assert res.roots.tolist() == [first, *rest]
