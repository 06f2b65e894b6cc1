"""The paper's quantitative claims, asserted at reduced scale.

These are the Fig. 3 / Fig. 4 / §4-§5 shapes (see EXPERIMENTS.md for the
full-scale numbers): the instances here use n = 20k so the whole module
runs in seconds, and the assertions leave slack around the full-scale
ratios.
"""

import os

import numpy as np
import pytest

from repro.core import tarjan_bcc, tv_filter_bcc, tv_opt_bcc, tv_smp_bcc
from repro.graph import generators as gen
from repro.smp import e4500, sequential_machine

N = 20_000


@pytest.fixture(scope="module")
def timings():
    """Simulated times for all algorithms over the density grid at p=12."""
    out = {}
    for mult in (4, 12):
        g = gen.random_connected_gnm(N, mult * N, seed=42)
        ms = sequential_machine()
        seq = tarjan_bcc(g, ms)
        row = {"seq": ms.time_s}
        for name, fn in [
            ("smp", tv_smp_bcc),
            ("opt", tv_opt_bcc),
            ("filter", lambda gg, mm: tv_filter_bcc(gg, mm, fallback_ratio=None)),
        ]:
            m = e4500(12)
            res = fn(g, m)
            assert res.same_partition(seq)
            row[name] = m.time_s
        out[mult] = row
    return out


class TestFig3Shapes:
    def test_tv_smp_never_beats_sequential(self, timings):
        # §5: "For all the instances, TV-SMP does not beat the best
        # sequential implementation even at 12 processors."
        for mult, row in timings.items():
            assert row["smp"] >= row["seq"] * 0.95, (mult, row)

    def test_tv_opt_roughly_half_of_tv_smp(self, timings):
        # §5: "TV-opt takes roughly half the execution time of TV-SMP."
        for mult, row in timings.items():
            ratio = row["opt"] / row["smp"]
            assert 0.3 <= ratio <= 0.7, (mult, ratio)

    def test_tv_opt_parallel_speedup(self, timings):
        # §5: TV-opt achieves real speedup over sequential at 12 procs
        for mult, row in timings.items():
            assert row["opt"] < row["seq"], (mult, row)

    def test_tv_filter_best_at_density(self, timings):
        # §4/§5: filtering wins once the graph is not extremely sparse
        row = timings[12]
        assert row["filter"] < row["opt"] < row["smp"]

    def test_filter_advantage_grows_with_density(self, timings):
        gain_sparse = timings[4]["opt"] / timings[4]["filter"]
        gain_dense = timings[12]["opt"] / timings[12]["filter"]
        assert gain_dense > gain_sparse

    def test_filter_speedup_magnitude(self, timings):
        # the paper reports speedups up to 4 at m = n log n on 12 procs;
        # at this reduced scale require at least 2x
        assert timings[12]["seq"] / timings[12]["filter"] >= 2.0


class TestScalingWithP:
    def test_speedup_curves_monotone(self):
        g = gen.random_connected_gnm(N, 8 * N, seed=7)
        for fn in (tv_opt_bcc, tv_smp_bcc):
            prev = None
            for p in (1, 2, 4, 8, 12):
                m = e4500(p)
                fn(g, m)
                if prev is not None:
                    assert m.time_s < prev
                prev = m.time_s


class TestFig4Shapes:
    def test_smp_spends_more_on_tree_steps_than_opt(self):
        # §5: "TV-SMP takes much more time than TV-opt to compute a
        # spanning tree and construct the Euler-tour ... for tree
        # computations TV-opt is much faster"
        g = gen.random_connected_gnm(N, 8 * N, seed=8)
        m_smp, m_opt = e4500(12), e4500(12)
        tv_smp_bcc(g, m_smp)
        tv_opt_bcc(g, m_opt)
        r_smp = m_smp.report().region_times_s()
        r_opt = m_opt.report().region_times_s()
        smp_tree = r_smp["Spanning-tree"] + r_smp["Euler-tour"] + r_smp["Root-tree"]
        opt_tree = r_opt["Spanning-tree"] + r_opt["Euler-tour"]
        assert smp_tree > 2 * opt_tree

    def test_rest_roughly_same_between_smp_and_opt(self):
        # §5: "For the rest of the computations, TV-SMP and TV-opt take
        # roughly the same amount of time."
        g = gen.random_connected_gnm(N, 8 * N, seed=8)
        m_smp, m_opt = e4500(12), e4500(12)
        tv_smp_bcc(g, m_smp)
        tv_opt_bcc(g, m_opt)
        r_smp = m_smp.report().region_times_s()
        r_opt = m_opt.report().region_times_s()
        for step in ("Label-edge", "Connected-components"):
            ratio = r_smp[step] / r_opt[step]
            assert 0.5 <= ratio <= 2.0, (step, ratio)

    def test_filter_shrinks_lowhigh_label_cc(self):
        # §5/Fig.4: "we expect reduced execution time for TV-filter in
        # computing low-high values, labeling, and computing connected
        # components"
        g = gen.random_connected_gnm(N, 12 * N, seed=9)
        m_opt, m_f = e4500(12), e4500(12)
        tv_opt_bcc(g, m_opt)
        tv_filter_bcc(g, m_f, fallback_ratio=None)
        r_opt = m_opt.report().region_times_s()
        r_f = m_f.report().region_times_s()
        for step in ("Low-high", "Label-edge", "Connected-components"):
            assert r_f[step] < r_opt[step], step

    def test_filtering_step_cost_is_worthwhile_when_dense(self):
        # the extra Filtering step pays for itself at m = 12n
        g = gen.random_connected_gnm(N, 12 * N, seed=9)
        m_opt, m_f = e4500(12), e4500(12)
        tv_opt_bcc(g, m_opt)
        tv_filter_bcc(g, m_f, fallback_ratio=None)
        assert m_f.time_s < m_opt.time_s


class TestBeyondPaperShapes:
    """Shapes outside the paper's uniform G(n, m) grid, at small n."""

    def test_rmat_filter_still_beats_tv_opt(self):
        # a power-law graph's nontree edges concentrate around hubs;
        # filtering must still pay at m/n ~ 8 after dedup
        g = gen.rmat_graph(10, edge_factor=12, seed=21)
        m_opt, m_f = e4500(12), e4500(12)
        tv_opt_bcc(g, m_opt)
        res = tv_filter_bcc(g, m_f, fallback_ratio=None)
        assert res.same_partition(tarjan_bcc(g))
        assert m_f.time_s < m_opt.time_s

    @pytest.mark.parametrize("frac", [0.7, 0.9])
    def test_dense_filter_beats_sequential(self, frac):
        # Woo–Sahni's regime (§1): near-complete graphs filter almost
        # every edge
        g = gen.dense_gnm(300, frac, seed=9)
        ms, mf = sequential_machine(), e4500(12)
        seq = tarjan_bcc(g, ms)
        res = tv_filter_bcc(g, mf, fallback_ratio=None)
        assert res.same_partition(seq)
        assert mf.time_s < ms.time_s

    def test_per_edge_cost_scales_near_linearly(self):
        # the scale substitution (DESIGN.md §2): at fixed m/n the
        # per-edge simulated cost grows by log factors only, so shapes
        # measured at reduced n transfer to the paper's n = 1M
        per_edge = {}
        for n in (1_000, 8_000):
            g = gen.random_connected_gnm(n, 8 * n, seed=13)
            m_opt, ms = e4500(12), sequential_machine()
            tv_opt_bcc(g, m_opt)
            tarjan_bcc(g, ms)
            per_edge[n] = (m_opt.time_s / g.m, ms.time_s / g.m)
        opt_growth = per_edge[8_000][0] / per_edge[1_000][0]
        seq_growth = per_edge[8_000][1] / per_edge[1_000][1]
        assert opt_growth < 2.0, opt_growth
        assert seq_growth < 1.5, seq_growth
