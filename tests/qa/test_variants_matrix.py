"""Cross-algorithm differential matrix: every variant vs the Tarjan oracle.

The lockdown for the fastbcc registry addition: every registered
pipeline algorithm (plus ``auto``) must agree with the sequential Tarjan
oracle *bit for bit* on canonicalized edge labels — and therefore on the
derived articulation-point and bridge sets — across the full named
corpus, seeded random instances from the family mix (disconnected,
multi-edge-normalized, degenerate stars/paths included), and
hypothesis-generated G(n,m) draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import biconnected_components
from repro.core import tarjan_bcc
from repro.core.pipeline import list_algorithms, run_pipeline
from repro.graph import Graph, generators as gen
from repro.qa import corpus as qa_corpus

MATRIX = tuple(list_algorithms())  # tv-smp, tv-opt, tv-filter, fastbcc


def assert_bit_identical(g, res, ref, ctx):
    # edge_labels are canonicalized by first occurrence in both results,
    # so cross-algorithm agreement is exact array equality
    np.testing.assert_array_equal(res.edge_labels, ref.edge_labels, err_msg=ctx)
    np.testing.assert_array_equal(
        res.articulation_points(), ref.articulation_points(), err_msg=ctx)
    np.testing.assert_array_equal(res.bridges(), ref.bridges(), err_msg=ctx)
    assert res.num_components == ref.num_components, ctx


class TestNamedCorpusMatrix:
    @pytest.mark.parametrize("algorithm", MATRIX)
    def test_matches_tarjan_on_full_corpus(self, algorithm, corpus):
        for name, g in corpus:
            ref = tarjan_bcc(g)
            res = run_pipeline(g, algorithm)
            assert_bit_identical(g, res, ref, f"{algorithm} on {name}")

    def test_matrix_covers_all_variants(self):
        assert set(MATRIX) == {"tv-smp", "tv-opt", "tv-filter", "fastbcc"}

    def test_auto_on_corpus_via_api(self, corpus):
        for name, g in corpus:
            ref = tarjan_bcc(g)
            res = biconnected_components(g, algorithm="auto")
            assert res.algorithm in MATRIX, name
            assert_bit_identical(g, res, ref, f"auto({res.algorithm}) on {name}")


class TestRandomFamiliesMatrix:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_family_mix(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            family, g = qa_corpus.random_graph(rng, max_n=48)
            ref = tarjan_bcc(g)
            for algorithm in MATRIX:
                res = run_pipeline(g, algorithm)
                assert_bit_identical(g, res, ref, f"{algorithm} on {family}")

    @pytest.mark.parametrize("algorithm", MATRIX)
    def test_degenerate_and_disconnected(self, algorithm):
        cases = [
            ("star-16", gen.star_graph(16)),
            ("path-16", gen.path_graph(16)),
            ("isolated", Graph(4, [], [])),
            ("multi-edge", Graph(3, [0, 0, 0, 1, 1, 2], [1, 1, 1, 2, 2, 2])),
            ("union", qa_corpus.disconnected_union(
                [gen.cycle_graph(4), gen.star_graph(5), Graph(2, [], [])])),
            ("messy", qa_corpus.messy_edges_graph(gen.complete_graph(6), seed=3)),
            ("block-path", qa_corpus.block_path(12)[0]),
            ("deep-bct", qa_corpus.deep_blockcut_tree(6, fanout=1)[0]),
            ("core-pendants", qa_corpus.dense_core_pendants(10, 0.9, seed=5)),
        ]
        for name, g in cases:
            ref = tarjan_bcc(g)
            res = run_pipeline(g, algorithm)
            assert_bit_identical(g, res, ref, f"{algorithm} on {name}")

    @given(
        algorithm=st.sampled_from(MATRIX),
        n=st.integers(1, 48),
        extra=st.integers(0, 96),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_gnm(self, algorithm, n, extra, seed):
        m = min(extra, n * (n - 1) // 2)
        g = gen.random_gnm(n, m, seed=seed)
        ref = tarjan_bcc(g)
        res = run_pipeline(g, algorithm)
        assert_bit_identical(g, res, ref, f"{algorithm} n={n} m={m} seed={seed}")

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1),
           rounds=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_property_mutated(self, n, seed, rounds):
        rng = np.random.default_rng(seed)
        _, g = qa_corpus.random_graph(rng, max_n=n)
        g = qa_corpus.mutate(g, rng, rounds=rounds)
        ref = tarjan_bcc(g)
        for algorithm in ("tv-opt", "fastbcc"):
            res = run_pipeline(g, algorithm)
            assert_bit_identical(g, res, ref, f"{algorithm} mutated seed={seed}")
