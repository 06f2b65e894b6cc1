"""Bit-identity of runtime kernels against the vectorized primitives.

The contract the whole backend refactor rests on: for every backend and
every worker count, a kernel produces *exactly* the arrays the vectorized
primitive produces, and charges *exactly* the same simulated operations.
Hypothesis drives the serial backend (cheap to spin up, grain 0 so every
size dispatches); fixed-seed parametrized tests sweep serial/processes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.primitives.bfs import bfs_forest as vec_bfs_forest
from repro.primitives.connectivity import shiloach_vishkin as vec_sv
from repro.primitives.prefix_sum import prefix_scan as vec_scan
from repro.runtime import SerialTeam, kernels, make_team
from repro.smp import Machine


def _charges(run):
    """Total simulated operation counts accumulated by ``run(machine)``."""
    m = Machine(p=4)
    run(m)
    return m.report().totals.as_dict()


def assert_same_charges(vec_run, ker_run):
    assert _charges(vec_run) == _charges(ker_run)


# --------------------------------------------------------------------- #
# hypothesis property tests (serial backend, every p)

class TestPrefixScanProperty:
    @given(
        st.lists(st.integers(-1000, 1000), max_size=200),
        st.sampled_from(["sum", "min", "max"]),
        st.sampled_from([1, 2, 3, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_vectorized_bitwise(self, xs, op, p):
        x = np.array(xs, dtype=np.int64)
        with SerialTeam(p) as team:
            got = kernels.prefix_scan(x, op, team=team)
        np.testing.assert_array_equal(got, vec_scan(x, op))

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=100))
    @settings(max_examples=20, deadline=None)
    def test_charges_match_vectorized(self, xs):
        x = np.array(xs, dtype=np.int64)
        with SerialTeam(3) as team:
            assert_same_charges(
                lambda m: vec_scan(x, "sum", m),
                lambda m: kernels.prefix_scan(x, "sum", team=team, machine=m),
            )


class TestShiloachVishkinProperty:
    @given(st.integers(1, 40), st.data(), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_engineered_sv_bitwise(self, n, data, p):
        m = data.draw(st.integers(0, 3 * n))
        edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(edges, min_size=m, max_size=m))
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        ref = vec_sv(n, u, v, mode="engineered")
        with SerialTeam(p) as team:
            got = kernels.shiloach_vishkin(n, u, v, team=team)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.forest_edges, ref.forest_edges)
        assert got.num_components == ref.num_components
        assert got.rounds == ref.rounds


class TestBFSProperty:
    @given(st.integers(2, 40), st.integers(0, 10**6), st.sampled_from([1, 2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_matches_vectorized_bitwise(self, n, seed, p):
        g = gen.random_gnm(n, min(2 * n, n * (n - 1) // 2), seed=seed)
        ref = vec_bfs_forest(g)
        with SerialTeam(p) as team:
            got = kernels.bfs_forest(g, team=team)
        np.testing.assert_array_equal(got.parent, ref.parent)
        np.testing.assert_array_equal(got.level, ref.level)
        np.testing.assert_array_equal(got.parent_edge, ref.parent_edge)
        np.testing.assert_array_equal(got.roots, ref.roots)
        assert got.num_levels == ref.num_levels


# --------------------------------------------------------------------- #
# fixed-seed sweeps over the real backends

REAL_BACKENDS = ["serial", "processes"]


@pytest.mark.parametrize("backend", REAL_BACKENDS)
@pytest.mark.parametrize("p", [1, 2, 3])
class TestAllBackendsBitIdentical:
    def test_prefix_scan(self, backend, p):
        rng = np.random.default_rng(42)
        x = rng.integers(-500, 500, size=4097).astype(np.int64)
        with make_team(backend, p) as team:
            for op in ("sum", "min", "max"):
                got = kernels.prefix_scan(x, op, team=team)
                np.testing.assert_array_equal(got, vec_scan(x, op))

    def test_shiloach_vishkin(self, backend, p):
        rng = np.random.default_rng(7)
        n = 400
        u = rng.integers(0, n, size=1100)
        v = rng.integers(0, n, size=1100)
        ref = vec_sv(n, u, v, mode="engineered")
        with make_team(backend, p) as team:
            got = kernels.shiloach_vishkin(n, u, v, team=team)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.forest_edges, ref.forest_edges)
        assert got.rounds == ref.rounds

    def test_bfs_forest(self, backend, p):
        g = gen.random_gnm(300, 800, seed=3)
        ref = vec_bfs_forest(g)
        with make_team(backend, p) as team:
            got = kernels.bfs_forest(g, team=team)
        np.testing.assert_array_equal(got.parent, ref.parent)
        np.testing.assert_array_equal(got.level, ref.level)
        np.testing.assert_array_equal(got.parent_edge, ref.parent_edge)

    def test_charges_backend_independent(self, backend, p):
        # the cost model must price a run identically no matter which
        # backend executed it — simulated figures stay reproducible
        rng = np.random.default_rng(11)
        x = rng.integers(0, 100, size=2000).astype(np.int64)
        n, m = 150, 400
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        g = gen.random_gnm(120, 300, seed=5)
        with make_team(backend, p) as team:
            assert_same_charges(
                lambda mach: vec_scan(x, "sum", mach),
                lambda mach: kernels.prefix_scan(x, "sum", team=team, machine=mach),
            )
            assert_same_charges(
                lambda mach: vec_sv(n, u, v, mach, mode="engineered"),
                lambda mach: kernels.shiloach_vishkin(n, u, v, team=team, machine=mach),
            )
            assert_same_charges(
                lambda mach: vec_bfs_forest(g, machine=mach),
                lambda mach: kernels.bfs_forest(g, team=team, machine=mach),
            )


class TestEdgeCases:
    @pytest.mark.parametrize("backend", REAL_BACKENDS)
    def test_empty_inputs(self, backend):
        with make_team(backend, 2) as team:
            out = kernels.prefix_scan(np.array([], dtype=np.int64), "sum", team=team)
            assert out.size == 0
            got = kernels.shiloach_vishkin(0, np.array([]), np.array([]), team=team)
            assert got.labels.size == 0
            got = kernels.shiloach_vishkin(5, np.array([]), np.array([]), team=team)
            np.testing.assert_array_equal(got.labels, np.arange(5))

    def test_bool_scan_stays_vectorized(self):
        # dispatch must skip bool (identity/extreme values are undefined);
        # the primitive still answers correctly through the numpy path
        bits = np.array([True, False, True, True], dtype=bool)
        with SerialTeam(2) as team:
            from repro.runtime import active_team

            with active_team(team):
                got = vec_scan(bits, "sum")
        np.testing.assert_array_equal(got, vec_scan(bits, "sum"))

    def test_dispatch_respects_grain(self):
        # a team with a huge grain never sees small inputs
        calls = []

        class Spy(SerialTeam):
            def parallel_for(self, n, body, *args):
                calls.append(n)
                super().parallel_for(n, body, *args)

        team = Spy(2, grain=10**9)
        from repro.runtime import active_team

        with active_team(team):
            vec_scan(np.arange(100, dtype=np.int64), "sum")
        assert calls == []
