"""Unit tests for the graph generators."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph.validate import is_connected, is_simple


class TestRandomGnm:
    def test_exact_counts(self):
        g = gen.random_gnm(100, 250, seed=1)
        assert g.n == 100 and g.m == 250

    def test_simple(self):
        assert is_simple(gen.random_gnm(50, 300, seed=2))

    def test_deterministic_by_seed(self):
        a = gen.random_gnm(60, 120, seed=9)
        b = gen.random_gnm(60, 120, seed=9)
        assert a == b
        assert a != gen.random_gnm(60, 120, seed=10)

    def test_full_density(self):
        g = gen.random_gnm(8, 28, seed=0)
        assert g.m == 28  # = C(8,2): the complete graph

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gen.random_gnm(4, 7, seed=0)

    def test_edges_on_tiny_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            gen.random_gnm(1, 1, seed=0)

    def test_zero_edges(self):
        assert gen.random_gnm(5, 0).m == 0


class TestRandomConnected:
    def test_connected(self):
        for seed in range(5):
            g = gen.random_connected_gnm(80, 120, seed=seed)
            assert g.n == 80 and g.m == 120
            assert is_connected(g)

    def test_tree_case(self):
        g = gen.random_connected_gnm(50, 49, seed=3)
        assert g.m == 49 and is_connected(g)

    def test_too_few_edges_rejected(self):
        with pytest.raises(ValueError):
            gen.random_connected_gnm(10, 8, seed=0)

    def test_single_vertex(self):
        g = gen.random_connected_gnm(1, 0, seed=0)
        assert g.n == 1 and g.m == 0


class TestRandomTree:
    def test_is_tree(self):
        g = gen.random_tree(40, seed=4)
        assert g.m == 39 and is_connected(g)

    def test_tiny(self):
        assert gen.random_tree(1).m == 0
        assert gen.random_tree(2).m == 1


class TestStructured:
    def test_path(self):
        g = gen.path_graph(6)
        assert g.m == 5
        deg = g.degrees()
        assert deg[0] == deg[5] == 1 and (deg[1:5] == 2).all()

    def test_path_trivial(self):
        assert gen.path_graph(1).m == 0
        assert gen.path_graph(0).n == 0

    def test_cycle(self):
        g = gen.cycle_graph(7)
        assert g.m == 7 and (g.degrees() == 2).all()
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    def test_star(self):
        g = gen.star_graph(6)
        assert g.m == 5
        assert g.degrees()[0] == 5

    def test_complete(self):
        g = gen.complete_graph(6)
        assert g.m == 15 and (g.degrees() == 5).all()

    def test_dense_gnm(self):
        g = gen.dense_gnm(12, 0.7, seed=1)
        assert g.m == round(66 * 0.7)
        with pytest.raises(ValueError):
            gen.dense_gnm(5, 0.0)

    def test_binary_tree(self):
        g = gen.binary_tree(15)
        assert g.m == 14 and is_connected(g)

    def test_grid(self):
        g = gen.grid_graph(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4
        assert is_connected(g)
        with pytest.raises(ValueError):
            gen.grid_graph(0, 3)

    def test_torus(self):
        g = gen.torus_graph(3, 5)
        assert g.n == 15 and (g.degrees() == 4).all()
        with pytest.raises(ValueError):
            gen.torus_graph(2, 5)


class TestBlockFamilies:
    def test_cliques_on_a_path_structure(self):
        import networkx as nx

        g, k = gen.cliques_on_a_path(4, 5)
        assert k == 4
        assert g.n == 4 * 4 + 1
        assert g.m == 4 * 10
        blocks = list(nx.biconnected_components(g.to_networkx()))
        assert len(blocks) == k

    def test_cycles_chain_structure(self):
        import networkx as nx

        g, k = gen.cycles_chain(5, 4)
        assert k == 5
        blocks = list(nx.biconnected_components(g.to_networkx()))
        assert len(blocks) == k

    def test_block_graph_matches_networkx(self):
        import networkx as nx

        for seed in range(4):
            g, k = gen.block_graph(15, seed=seed)
            assert is_connected(g)
            blocks = list(nx.biconnected_components(g.to_networkx()))
            assert len(blocks) == k

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen.cliques_on_a_path(0, 3)
        with pytest.raises(ValueError):
            gen.cycles_chain(2, 2)
        with pytest.raises(ValueError):
            gen.block_graph(0)


class TestPaperInstance:
    def test_small_paper_instance(self):
        g = gen.paper_instance(n=2000, edges_per_vertex=4.0, seed=1)
        assert g.n == 2000 and g.m == 8000
        assert is_connected(g)


class TestRmat:
    def test_basic_shape(self):
        g = gen.rmat_graph(10, edge_factor=8.0, seed=1)
        assert g.n == 1024
        assert 0 < g.m <= 8 * 1024
        assert is_simple(g)

    def test_deterministic(self):
        assert gen.rmat_graph(8, seed=3) == gen.rmat_graph(8, seed=3)
        assert gen.rmat_graph(8, seed=3) != gen.rmat_graph(8, seed=4)

    def test_skewed_degrees(self):
        # R-MAT with default parameters produces a heavy-tailed degree
        # distribution: max degree far above the mean
        g = gen.rmat_graph(12, edge_factor=8.0, seed=0)
        deg = g.degrees()
        assert deg.max() > 6 * deg.mean()

    def test_uniform_parameters_not_skewed(self):
        g = gen.rmat_graph(12, edge_factor=8.0, a=0.25, b=0.25, c=0.25, seed=0)
        deg = g.degrees()
        assert deg.max() < 6 * max(deg.mean(), 1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen.rmat_graph(0)
        with pytest.raises(ValueError):
            gen.rmat_graph(5, a=0.9, b=0.1, c=0.1)

    def test_bcc_algorithms_handle_rmat(self):
        import numpy as np

        from repro import ALGORITHMS, biconnected_components

        g = gen.rmat_graph(8, edge_factor=4.0, seed=5)
        results = [biconnected_components(g, algorithm=a) for a in sorted(ALGORITHMS)]
        for other in results[1:]:
            assert results[0].same_partition(other)


class TestBarabasiAlbert:
    def test_basic_shape(self):
        g = gen.barabasi_albert(200, k=3, seed=1)
        assert g.n == 200
        assert g.m == 3 * (200 - 3)  # k edges per arrival, n-k arrivals
        assert is_simple(g)
        assert is_connected(g)

    def test_k1_is_tree(self):
        g = gen.barabasi_albert(64, k=1, seed=2)
        assert g.m == 63 and is_connected(g)

    def test_deterministic(self):
        assert gen.barabasi_albert(100, k=2, seed=3) == gen.barabasi_albert(100, k=2, seed=3)
        assert gen.barabasi_albert(100, k=2, seed=3) != gen.barabasi_albert(100, k=2, seed=4)

    @pytest.mark.parametrize("n,k,seed", [(2, 1, 0), (50, 1, 4), (120, 3, 7), (300, 5, 11)])
    def test_same_edges_as_distinct_pool_bound(self, n, k, seed):
        # the reference bounds each arrival's target count by the number
        # of distinct pool vertices, as the generator once did; that bound
        # is always k, so both draw the same random stream
        rng = np.random.default_rng(seed)
        us, vs, pool = [], [], list(range(k))
        for w in range(k, n):
            targets = set()
            want = min(k, len(set(pool)))
            while len(targets) < want:
                targets.add(pool[int(rng.integers(0, len(pool)))])
            for t in sorted(targets):
                us.append(t)
                vs.append(w)
                pool.extend((t, w))
        assert gen.barabasi_albert(n, k=k, seed=seed) == Graph(n, us, vs, normalize=True)

    def test_preferential_attachment_skews_degrees(self):
        # hubs emerge: max degree far above the mean (and above any
        # same-size uniform G(n, m) would plausibly produce)
        g = gen.barabasi_albert(2000, k=2, seed=0)
        deg = g.degrees()
        assert deg.max() > 6 * deg.mean()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen.barabasi_albert(1, k=1)
        with pytest.raises(ValueError):
            gen.barabasi_albert(10, k=0)
        with pytest.raises(ValueError):
            gen.barabasi_albert(5, k=5)

    def test_bcc_algorithms_handle_ba(self):
        from repro import ALGORITHMS, biconnected_components

        g = gen.barabasi_albert(150, k=2, seed=5)
        results = [biconnected_components(g, algorithm=a) for a in sorted(ALGORITHMS)]
        for other in results[1:]:
            assert results[0].same_partition(other)

    def test_family_registration(self):
        from repro.service.store import GRAPH_FAMILIES, make_graph

        assert "barabasi-albert" in GRAPH_FAMILIES
        g = make_graph("barabasi-albert", 100, m=300, seed=0)  # k = 3
        assert g.n == 100 and g.m == 3 * 97


class TestGeometric:
    def test_basic(self):
        g = gen.geometric_graph(300, 0.1, seed=1)
        assert g.n == 300
        assert is_simple(g)

    def test_radius_monotone(self):
        sparse = gen.geometric_graph(200, 0.05, seed=2)
        dense = gen.geometric_graph(200, 0.2, seed=2)
        assert dense.m > sparse.m

    def test_zero_vertices(self):
        assert gen.geometric_graph(0, 0.1).n == 0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            gen.geometric_graph(10, 0.0)

    def test_edges_respect_radius(self):
        import numpy as np

        n, r, seed = 150, 0.12, 7
        g = gen.geometric_graph(n, r, seed=seed)
        pts = np.random.default_rng(seed).random((n, 2))
        d = np.linalg.norm(pts[g.u] - pts[g.v], axis=1)
        assert (d <= r + 1e-12).all()
