"""The stable radix helper and the integer sorts it serves, against
``np.argsort(kind="stable")``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.primitives import radix_argsort, sample_argsort, vertices_by_level
from repro.smp import FLAT_UNIT_COSTS, Machine


def stable(keys):
    return np.argsort(keys, kind="stable")


class TestRadixArgsort:
    @given(arrays(np.int64, st.integers(0, 300),
                  elements=st.integers(-(2**63), 2**63 - 1)))
    def test_full_int64_range(self, keys):
        np.testing.assert_array_equal(radix_argsort(keys), stable(keys))

    @given(arrays(np.int64, st.integers(0, 300), elements=st.integers(0, 40)))
    def test_heavy_ties(self, keys):
        np.testing.assert_array_equal(radix_argsort(keys), stable(keys))

    @pytest.mark.parametrize("hi", [1, 2**16 - 1, 2**16, 2**20, 2**32, 2**48, 2**63 - 1])
    def test_each_digit_count(self, hi):
        keys = np.random.default_rng(hi % 1000).integers(0, hi, size=5000, endpoint=True)
        np.testing.assert_array_equal(radix_argsort(keys), stable(keys))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                       np.uint32, np.int64, np.uint64])
    def test_dtypes(self, dtype):
        info = np.iinfo(dtype)
        keys = np.random.default_rng(1).integers(info.min, info.max, size=3000,
                                                 endpoint=True, dtype=dtype)
        keys[:4] = [info.min, info.max, info.min, info.max]
        np.testing.assert_array_equal(radix_argsort(keys), stable(keys))

    def test_empty_and_single(self):
        assert radix_argsort(np.zeros(0, dtype=np.int64)).size == 0
        assert radix_argsort(np.array([7])).tolist() == [0]

    def test_rejects_non_integer_keys(self):
        with pytest.raises(TypeError):
            radix_argsort(np.array([0.5, 0.25]))


def levels_reference(level):
    """Grouping by a stable argsort, negative levels left out."""
    level = np.asarray(level)
    if level.size == 0:
        return []
    order = stable(level)
    bounds = np.searchsorted(level[order], np.arange(level[order][-1] + 2))
    return [order[bounds[i]:bounds[i + 1]] for i in range(bounds.size - 1)]


class TestVerticesByLevel:
    @given(arrays(np.int64, st.integers(0, 300), elements=st.integers(-1, 25)))
    def test_matches_stable_argsort_grouping(self, level):
        got, want = vertices_by_level(level), levels_reference(level)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_unreached_vertices_belong_to_no_level(self):
        got = vertices_by_level(np.array([2, -1, 0, 2, -1, 1]))
        assert [g.tolist() for g in got] == [[2], [5], [0, 3]]
        assert vertices_by_level(np.array([-1, -1])) == []
        assert vertices_by_level(np.zeros(0, dtype=np.int64)) == []

    def test_deep_levels(self):
        level = np.arange(70_000)[::-1].copy()  # two radix digits
        got = vertices_by_level(level)
        assert len(got) == 70_000 and got[0].tolist() == [69_999]


class TestSampleArgsortOnRadix:
    @settings(max_examples=40)
    @given(arrays(np.int64, st.integers(0, 500), elements=st.integers(-(2**40), 2**40)),
           st.sampled_from([1, 4, 12]))
    def test_matches_stable_argsort(self, keys, p):
        np.testing.assert_array_equal(sample_argsort(keys, Machine(p)), stable(keys))

    @pytest.mark.parametrize("p", [1, 4, 12])
    def test_ties_across_blocks(self, p):
        keys = np.random.default_rng(p).integers(0, 3, size=2000)
        np.testing.assert_array_equal(sample_argsort(keys, Machine(p)), stable(keys))

    @pytest.mark.parametrize("p", [1, 4, 12])
    def test_float_keys(self, p):
        keys = np.random.default_rng(p).normal(size=700)
        np.testing.assert_array_equal(sample_argsort(keys, Machine(p)), stable(keys))

    def test_charges_do_not_depend_on_key_values(self):
        # the simulated charge is a function of n and p alone
        totals = []
        for keys in (np.arange(1000), np.zeros(1000, dtype=np.int64),
                     np.random.default_rng(0).integers(0, 2**40, 1000)):
            m = Machine(4, FLAT_UNIT_COSTS)
            sample_argsort(keys, m)
            totals.append(m.totals.work_total)
        assert totals[0] == totals[1] == totals[2]
