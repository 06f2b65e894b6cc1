"""Unit tests for the public API surface."""

import numpy as np
import pytest

import repro
from repro import (
    ALGORITHMS,
    articulation_points,
    biconnected_components,
    bridges,
)
from repro.graph import Graph, generators as gen
from tests.conftest import nx_articulation_points, nx_bridges, nx_edge_labels


class TestBiconnectedComponents:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_every_algorithm_correct(self, algorithm):
        g = gen.random_connected_gnm(60, 180, seed=1)
        res = biconnected_components(g, algorithm=algorithm)
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_default_algorithm_is_filter(self):
        res = biconnected_components(gen.cycle_graph(4))
        assert res.algorithm == "tv-filter"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            biconnected_components(gen.cycle_graph(3), algorithm="quantum")

    def test_machine_report_attached(self):
        res = biconnected_components(
            gen.random_connected_gnm(50, 150, seed=2),
            algorithm="tv-opt",
            machine=repro.e4500(4),
        )
        assert res.report is not None
        assert res.report.p == 4
        assert res.report.time_s > 0

    def test_kwargs_forwarded(self):
        g = gen.random_connected_gnm(50, 260, seed=3)
        res = biconnected_components(
            g, algorithm="tv-filter", fallback_ratio=None, lowhigh_method="rmq"
        )
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_sequential_rejects_unknown_kwargs(self):
        g = gen.cycle_graph(5)
        with pytest.raises(TypeError, match="accepts no algorithm options"):
            biconnected_components(g, "sequential", lowhigh_method="rmq")

    def test_pipeline_rejects_unknown_kwargs(self):
        g = gen.cycle_graph(5)
        with pytest.raises(TypeError, match="unknown option"):
            biconnected_components(g, "tv-opt", turbo=True)

    def test_custom_algorithm_registered(self):
        g = gen.random_connected_gnm(40, 160, seed=4)
        res = biconnected_components(
            g, "custom", strategies={"lowhigh": "rmq", "cc": "pruned"}
        )
        assert res.algorithm == "custom"
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_list_and_describe(self):
        names = repro.list_algorithms()
        assert set(names) == set(ALGORITHMS)
        for name in names:
            text = repro.describe_algorithm(name)
            assert text  # every entry is describable
        assert "Hopcroft" in repro.describe_algorithm("sequential")
        with pytest.raises(ValueError, match="unknown algorithm"):
            repro.describe_algorithm("quantum")

    def test_removed_fastsv_algorithm_rejected(self):
        # FastSV survives only as the connectivity kernel of fastbcc's cc=vertex
        g = gen.path_graph(4)
        with pytest.raises(ValueError, match="unknown algorithm 'fastsv'"):
            biconnected_components(g, algorithm="fastsv")
        with pytest.raises(ValueError, match="unknown cc strategy 'fastsv'"):
            biconnected_components(g, "custom", strategies={"cc": "fastsv"})
        res = biconnected_components(g, "fastbcc", connectivity="fastsv")
        assert res.same_partition(biconnected_components(g, "sequential"))

    @pytest.mark.parametrize("option,value", [
        ("backend", "serial"), ("team", object()), ("p", 2),
    ], ids=["backend", "team", "p"])
    @pytest.mark.parametrize("algorithm", ["tv-filter", "sequential", "auto"])
    def test_removed_backend_options_rejected(self, algorithm, option, value):
        # every solve runs the vectorized primitives; p belongs to the Machine
        with pytest.raises(TypeError, match=f"'{option}'"):
            biconnected_components(gen.cycle_graph(5), algorithm, **{option: value})


class TestDerivedQueries:
    def test_articulation_points(self):
        g = gen.cliques_on_a_path(3, 4)[0]
        np.testing.assert_array_equal(
            articulation_points(g), nx_articulation_points(g)
        )

    def test_bridges(self):
        g = gen.path_graph(5)
        np.testing.assert_array_equal(bridges(g), nx_bridges(g))

    def test_algorithm_selectable(self):
        g = gen.block_graph(8, seed=1)[0]
        a = articulation_points(g, algorithm="sequential")
        b = articulation_points(g, algorithm="tv-smp")
        np.testing.assert_array_equal(a, b)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_public_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_count_bfs_exported(self):
        assert repro.count_biconnected_components_bfs(gen.cycle_graph(5)) == 1


class TestIsBiconnected:
    def test_cycle_is_biconnected(self):
        from repro import is_biconnected

        assert is_biconnected(gen.cycle_graph(5))
        assert is_biconnected(gen.complete_graph(4))

    def test_not_biconnected(self):
        from repro import is_biconnected

        assert not is_biconnected(gen.path_graph(5))          # cut vertices
        assert not is_biconnected(Graph(5, [0, 2], [1, 3]))   # disconnected
        assert not is_biconnected(Graph(2, [0], [1]))         # too small
        assert not is_biconnected(Graph(4, [0, 1, 2], [1, 2, 0]))  # isolated 3

    def test_matches_networkx(self, corpus):
        import networkx as nx

        from repro import is_biconnected

        for name, g in corpus:
            if g.n < 3:
                continue
            expect = nx.is_biconnected(g.to_networkx())
            assert is_biconnected(g) == expect, name
