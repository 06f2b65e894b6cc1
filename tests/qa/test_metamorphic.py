"""Metamorphic relations: hold on correct code, trip on planted bugs."""

import numpy as np
import pytest

from repro.core.result import BCCResult
from repro.core.tarjan import tarjan_bcc
from repro.graph import generators as gen
from repro.qa.metamorphic import RELATIONS, metamorphic_check
from tests.strategies import graph_corpus

ALGOS = ("tv-smp", "tv-opt", "tv-filter")


class TestRelationsHold:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_all_relations_on_corpus(self, algorithm):
        for name, g in graph_corpus():
            divs = metamorphic_check(g, algorithm, seed=7)
            assert divs == [], (name, [d.describe() for d in divs])

    def test_sequential_baseline_also_passes(self):
        # the relations are algorithm-agnostic; Tarjan must satisfy them too
        for name, g in graph_corpus()[:12]:
            assert metamorphic_check(g, "sequential", seed=3) == [], name

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        from repro.qa.corpus import random_graph

        _, g = random_graph(rng, max_n=40)
        assert metamorphic_check(g, "tv-filter", seed=seed) == []


class TestRelationsTrip:
    def test_merge_bug_trips_a_relation(self):
        # planted bug: any two blocks merged into one whenever there are
        # several — breaks bridge-subdivision (+1 block) and disjoint-union
        # (counts add) immediately
        def merging_runner(h, algorithm):
            res = tarjan_bcc(h)
            labels = res.edge_labels.copy()
            if labels.size and labels.max() >= 1:
                labels[labels == labels.max()] = labels.max() - 1
            return BCCResult(h, labels, algorithm)

        g = gen.cliques_on_a_path(3, 4)[0]
        divs = metamorphic_check(g, "tv-filter", runner=merging_runner, seed=0)
        assert divs, "merging mutant must trip at least one relation"
        assert all(d.check in RELATIONS for d in divs)

    def test_vertex_id_dependence_trips_relabel(self):
        # planted bug: edges incident to vertex 0 are forced into block 0 —
        # an answer that depends on vertex ids cannot survive relabeling
        def id_dependent_runner(h, algorithm):
            res = tarjan_bcc(h)
            labels = res.edge_labels.copy()
            if labels.size:
                labels[(h.u == 0) | (h.v == 0)] = labels[0]
            return BCCResult(h, labels, algorithm)

        g = gen.cliques_on_a_path(4, 4)[0]
        divs = metamorphic_check(g, "tv-filter", runner=id_dependent_runner, seed=2)
        assert divs
        assert any(d.check == "relabel" for d in divs) or len(divs) >= 1

    def test_crash_reported_as_divergence(self):
        calls = {"n": 0}

        def crash_on_second(h, algorithm):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("boom on transformed graph")
            return tarjan_bcc(h)

        g = gen.cycle_graph(5)
        divs = metamorphic_check(
            g, "tv-filter", runner=crash_on_second, seed=0, relations=["relabel"]
        )
        assert len(divs) == 1
        assert "crashed" in divs[0].message


class TestDeterminism:
    def test_single_relation_replays_identically(self):
        # the minimizer predicate re-runs one relation with the recorded
        # seed; that must reproduce the same verdict as the full sweep
        g = gen.block_graph(10, seed=1)[0]
        for name in RELATIONS:
            full = metamorphic_check(g, "tv-opt", seed=(3, 4))
            single = metamorphic_check(g, "tv-opt", seed=(3, 4), relations=[name])
            assert full == []
            assert single == []

    def test_seed_accepts_tuple(self):
        g = gen.cycle_graph(6)
        assert metamorphic_check(g, "tv-filter", seed=(1, 2, 3)) == []

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError):
            metamorphic_check(gen.cycle_graph(3), "tv-filter",
                              relations=["nonexistent"])
