"""Tests for the stage/strategy registry and the generic pipeline driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import biconnected_components, describe_algorithm, list_algorithms
from repro.core import pipeline, tarjan_bcc
from repro.core.pipeline import (
    STAGE_ORDER,
    STAGE_REGIONS,
    AlgorithmSpec,
    get_algorithm,
    get_strategy,
    list_strategies,
    resolve_strategies,
    run_pipeline,
)
from repro.graph import generators as gen
from repro.smp import e4500
from tests.conftest import nx_edge_labels


def _valid_combinations():
    """Every provides/requires-consistent strategy combination."""
    combos = []
    for spanning in list_strategies("spanning"):
        for filt in list_strategies("filter"):
            for euler in list_strategies("euler"):
                for lowhigh in list_strategies("lowhigh"):
                    for label in list_strategies("label"):
                        for cc in list_strategies("cc"):
                            chosen = {
                                "spanning": spanning.name,
                                "filter": filt.name,
                                "euler": euler.name,
                                "lowhigh": lowhigh.name,
                                "label": label.name,
                                "cc": cc.name,
                            }
                            provided = set()
                            ok = True
                            for stage in STAGE_ORDER:
                                strat = get_strategy(stage, chosen[stage])
                                if not strat.requires <= provided:
                                    ok = False
                                    break
                                provided |= strat.provides
                            if ok:
                                combos.append(chosen)
    return combos


COMBOS = _valid_combinations()


class TestRegistry:
    def test_builtin_algorithms_registered(self):
        assert pipeline.list_algorithms() == [
            "tv-smp", "tv-opt", "tv-filter", "fastbcc"
        ]

    def test_builtin_specs_are_pure_data(self):
        for name in pipeline.list_algorithms():
            spec = get_algorithm(name)
            assert isinstance(spec, AlgorithmSpec)
            resolve_strategies(spec)  # self-consistent

    def test_combination_count_covers_registry(self):
        # label x cc admits 3 pairs: aux x {full, pruned} + skeleton
        # x {vertex}; with 3 lowhigh strategies that is 9 per block.
        # 2 unrooted spanning x 1 euler x (3 lowhigh x 3 label/cc) x 1 filter
        # + 2 rooted spanning x 2 euler x (3 lowhigh x 3 label/cc) x 2 filter
        assert len(COMBOS) == 2 * 1 * 9 * 1 + 2 * 2 * 9 * 2 == 90

    def test_unknown_lookups_raise(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            get_strategy("turbo", "x")
        with pytest.raises(ValueError, match="unknown lowhigh strategy"):
            get_strategy("lowhigh", "x")
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("tv-turbo")

    def test_fig4_steps_canonical(self):
        assert pipeline.fig4_steps() == (
            "Filtering",
            "Spanning-tree",
            "Euler-tour",
            "Root-tree",
            "Low-high",
            "Label-edge",
            "Connected-components",
        )

    def test_incompatible_combination_rejected(self):
        spec = get_algorithm("tv-opt")
        with pytest.raises(ValueError, match="requires"):
            resolve_strategies(spec, {"spanning": "sv", "filter": "forest"})

    def test_repair_mode_replaces_downstream(self):
        spec = get_algorithm("tv-opt")
        resolved = resolve_strategies(spec, {"spanning": "sv"}, repair=True)
        assert resolved["euler"] == "tour"  # prefix needs a rooted tree

    def test_unknown_knob_raises_typeerror(self):
        g = gen.random_gnm(30, 60, seed=0)
        with pytest.raises(TypeError, match="unknown option"):
            run_pipeline(g, "tv-opt", frobnicate=1)
        with pytest.raises(TypeError, match="unknown option"):
            # list_ranking belongs to the tour strategy, absent from tv-opt
            run_pipeline(g, "tv-opt", list_ranking="wyllie")

    def test_describe_mentions_every_stage(self):
        text = describe_algorithm("tv-smp")
        for stage in ("spanning", "euler", "lowhigh", "label", "cc"):
            assert stage in text
        assert "Spanning-tree" in text


class TestAllCombinations:
    def test_every_combination_matches_tarjan(self):
        spec = get_algorithm("tv-opt")
        graphs = [
            gen.random_gnm(80, 200, seed=1),
            gen.random_connected_gnm(60, 240, seed=2),
            gen.random_tree(50, seed=3),
        ]
        for g in graphs:
            expect = nx_edge_labels(g)
            for chosen in COMBOS:
                res = run_pipeline(g, spec, strategies=chosen)
                np.testing.assert_array_equal(
                    res.edge_labels, expect, err_msg=str(chosen)
                )

    def test_every_combination_region_names_canonical(self):
        spec = get_algorithm("tv-opt")
        g = gen.random_connected_gnm(60, 240, seed=4)
        canonical = set(pipeline.fig4_steps())
        for chosen in COMBOS:
            m = e4500(4)
            run_pipeline(g, spec, m, strategies=chosen)
            regions = set(m.report().region_times_s())
            assert regions <= canonical, chosen
            # the stage regions that must always appear
            for stage in ("lowhigh", "label", "cc"):
                assert STAGE_REGIONS[stage] in regions, chosen

    @settings(max_examples=30, deadline=None)
    @given(
        chosen=st.sampled_from(COMBOS),
        n=st.integers(8, 60),
        extra=st.integers(0, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_random_graphs(self, chosen, n, extra, seed):
        m = min(n + extra, n * (n - 1) // 2)
        g = gen.random_gnm(n, m, seed=seed)
        res = run_pipeline(g, get_algorithm("tv-opt"), strategies=chosen)
        ref = tarjan_bcc(g)
        assert res.same_partition(ref), chosen


class TestPublicHybrids:
    def test_custom_hybrid_via_api(self):
        g = gen.random_connected_gnm(120, 600, seed=7)
        res = biconnected_components(
            g, algorithm="custom", strategies={"lowhigh": "rmq", "cc": "pruned"}
        )
        assert res.algorithm == "custom"
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_strategy_override_on_named_algorithm(self):
        g = gen.random_connected_gnm(100, 500, seed=8)
        res = biconnected_components(
            g, algorithm="tv-filter", fallback_ratio=None,
            strategies={"cc": "pruned"},
        )
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_selector_knobs_still_work(self):
        g = gen.random_connected_gnm(90, 270, seed=9)
        a = biconnected_components(g, "tv-opt", lowhigh_method="rmq")
        b = biconnected_components(g, "tv-opt", strategies={"lowhigh": "rmq"})
        np.testing.assert_array_equal(a.edge_labels, b.edge_labels)

    def test_explicit_strategies_beat_selector_knob(self):
        g = gen.random_gnm(40, 100, seed=10)
        # both given: the strategies dict wins, and the run still succeeds
        res = biconnected_components(
            g, "tv-opt", lowhigh_method="rmq", strategies={"lowhigh": "sweep"}
        )
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))

    def test_list_algorithms_api(self):
        names = list_algorithms()
        assert names[0] == "sequential"
        assert {"tv-smp", "tv-opt", "tv-filter", "custom"} <= set(names)

    def test_sequential_rejects_options(self):
        g = gen.random_gnm(20, 40, seed=11)
        with pytest.raises(TypeError, match="accepts no algorithm options"):
            biconnected_components(g, "sequential", lowhigh_method="rmq")
        with pytest.raises(TypeError, match="accepts no algorithm options"):
            biconnected_components(g, "sequential", strategies={"lowhigh": "rmq"})


class TestFallbackAsData:
    def test_fallback_preserves_name_and_regions(self):
        g = gen.random_connected_gnm(200, 400, seed=12)  # m <= 4n
        m = e4500(4)
        res = run_pipeline(g, "tv-filter", m)
        assert res.algorithm == "tv-filter"
        assert "Filtering" not in m.report().region_times_s()

    def test_fallback_ratio_knob_disables(self):
        g = gen.random_connected_gnm(200, 400, seed=12)
        m = e4500(4)
        run_pipeline(g, "tv-filter", m, fallback_ratio=None)
        assert "Filtering" in m.report().region_times_s()

    def test_fallback_drops_filter_only_knobs(self):
        g = gen.random_connected_gnm(200, 400, seed=13)
        stats = []
        res = run_pipeline(g, "tv-filter", stats_out=stats)
        assert res.algorithm == "tv-filter"
        assert stats == []  # filtering never ran

    def test_fallback_forwards_selector_knobs(self):
        g = gen.random_connected_gnm(150, 300, seed=14)
        res = run_pipeline(g, "tv-filter", lowhigh_method="rmq")
        np.testing.assert_array_equal(res.edge_labels, nx_edge_labels(g))
