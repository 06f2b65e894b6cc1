"""Bit-identity of the FastSV kernel against the vectorized primitive.

Same contract as test_kernels.py, for the FastSV connectivity kernel
added alongside Shiloach–Vishkin: labels, round counts, and simulated
machine charges must be bit-identical across every backend and worker
count — FastSV's min-only updates make this hold by algebra, not by
scheduling luck, and these tests pin it down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.connectivity import fastsv as vec_fastsv
from repro.primitives.connectivity import shiloach_vishkin as vec_sv
from repro.runtime import SerialTeam, active_team, kernels, make_team
from repro.smp import Machine


def _charges(run):
    m = Machine(p=4)
    run(m)
    return m.report().totals.as_dict()


def _random_edges(rng, n, m):
    return (rng.integers(0, n, size=m).astype(np.int64),
            rng.integers(0, n, size=m).astype(np.int64))


# --------------------------------------------------------------------- #
# hypothesis property tests (serial backend, every p)


class TestFastSVProperty:
    @given(st.integers(1, 40), st.data(), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_primitive_bitwise(self, n, data, p):
        m = data.draw(st.integers(0, 3 * n))
        edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(edges, min_size=m, max_size=m))
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        ref = vec_fastsv(n, u, v)
        with SerialTeam(p) as team:
            got = kernels.fastsv(n, u, v, team=team)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.num_components == ref.num_components
        assert got.rounds == ref.rounds
        assert got.forest_edges.size == 0

    @given(st.integers(1, 30), st.integers(0, 10**6), st.sampled_from([1, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_same_components_as_sv(self, n, seed, p):
        # different label values are allowed (SV picks roots, FastSV picks
        # minima) but the partition into components must agree
        rng = np.random.default_rng(seed)
        u, v = _random_edges(rng, n, rng.integers(0, 3 * n + 1))
        sv = vec_sv(n, u, v, mode="engineered")
        with SerialTeam(p) as team:
            fs = kernels.fastsv(n, u, v, team=team)
        assert fs.num_components == sv.num_components
        # same label <=> same component, both directions
        a = fs.labels[:, None] == fs.labels[None, :]
        b = sv.labels[:, None] == sv.labels[None, :]
        np.testing.assert_array_equal(a, b)

    def test_labels_are_component_minima(self):
        u = np.array([1, 2, 5], dtype=np.int64)
        v = np.array([2, 3, 6], dtype=np.int64)
        with SerialTeam(2) as team:
            got = kernels.fastsv(8, u, v, team=team)
        np.testing.assert_array_equal(
            got.labels, np.array([0, 1, 1, 1, 4, 5, 5, 7]))


# --------------------------------------------------------------------- #
# fixed-seed sweeps over the real backends

REAL_BACKENDS = ["serial", "processes"]


@pytest.mark.parametrize("backend", REAL_BACKENDS)
@pytest.mark.parametrize("p", [1, 2, 4])
class TestFastSVAllBackendsBitIdentical:
    def test_labels_and_rounds(self, backend, p):
        rng = np.random.default_rng(7)
        n = 400
        u, v = _random_edges(rng, n, 1100)
        ref = vec_fastsv(n, u, v)
        with make_team(backend, p) as team:
            got = kernels.fastsv(n, u, v, team=team)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.num_components == ref.num_components
        assert got.rounds == ref.rounds

    def test_charges_backend_independent(self, backend, p):
        # simulated charges must not depend on which backend executed —
        # the cost model prices FastSV identically everywhere
        rng = np.random.default_rng(11)
        n = 150
        u, v = _random_edges(rng, n, 400)
        with make_team(backend, p) as team:
            kernel_charges = _charges(
                lambda mach: kernels.fastsv(n, u, v, team=team, machine=mach))
        assert kernel_charges == _charges(lambda mach: vec_fastsv(n, u, v, mach))


class TestFastSVEdgeCases:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_empty_inputs(self, backend):
        empty = np.array([], dtype=np.int64)
        with make_team(backend, 2) as team:
            got = kernels.fastsv(0, empty, empty, team=team)
            assert got.labels.size == 0
            assert got.num_components == 0
            got = kernels.fastsv(5, empty, empty, team=team)
            np.testing.assert_array_equal(got.labels, np.arange(5))
            assert got.num_components == 5

    def test_self_loops_and_duplicates(self):
        u = np.array([0, 0, 1, 1, 1], dtype=np.int64)
        v = np.array([0, 1, 0, 0, 1], dtype=np.int64)
        ref = vec_fastsv(4, u, v)
        with SerialTeam(3) as team:
            got = kernels.fastsv(4, u, v, team=team)
        np.testing.assert_array_equal(got.labels, ref.labels)
        assert got.rounds == ref.rounds

    def test_dispatch_respects_grain(self):
        # a team with a huge grain never sees small inputs: the primitive
        # answers through the pure numpy path even with a team active
        calls = []

        class Spy(SerialTeam):
            def parallel_for(self, n, body, *args):
                calls.append(n)
                super().parallel_for(n, body, *args)

        team = Spy(2, grain=10**9)
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 2], dtype=np.int64)
        with active_team(team):
            got = vec_fastsv(5, u, v)
        assert calls == []
        np.testing.assert_array_equal(got.labels, vec_fastsv(5, u, v).labels)

    def test_dispatch_engages_team(self):
        calls = []

        class Spy(SerialTeam):
            def parallel_for(self, n, body, *args):
                calls.append(n)
                super().parallel_for(n, body, *args)

        team = Spy(2, grain=1)
        rng = np.random.default_rng(3)
        u, v = _random_edges(rng, 30, 60)
        with active_team(team):
            got = vec_fastsv(30, u, v)
        assert calls  # the kernel path actually ran
        np.testing.assert_array_equal(got.labels, vec_fastsv(30, u, v).labels)
