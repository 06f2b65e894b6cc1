"""First-occurrence label numbering against an ``np.unique`` reference."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.result import canonical_edge_labels


def unique_reference(labels):
    """Rank every distinct label by the position of its first occurrence."""
    labels = np.asarray(labels)
    _, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank_by_first = np.argsort(np.argsort(first_idx))
    return rank_by_first[inverse.ravel()].reshape(labels.shape).astype(np.int64)


def check(labels):
    got = canonical_edge_labels(labels)
    want = unique_reference(labels)
    assert got.dtype == np.int64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestCanonicalEdgeLabels:
    @given(arrays(np.int64, st.integers(0, 400), elements=st.integers(0, 60)))
    def test_dense_labels(self, labels):
        check(labels)

    @given(arrays(np.int64, st.integers(0, 400), elements=st.integers(-50, 50)))
    def test_negative_labels(self, labels):
        check(labels)

    @given(arrays(np.int64, st.integers(0, 200),
                  elements=st.integers(-(2**63), 2**63 - 1)))
    def test_huge_labels(self, labels):
        check(labels)

    @given(arrays(np.int64, st.integers(1, 200), elements=st.integers(0, 2**30)))
    def test_sparse_labels(self, labels):
        check(labels)

    @given(st.lists(st.integers(0, 5), max_size=300))
    def test_already_canonical(self, steps):
        # build labels that number blocks by first occurrence
        labels, top = [], -1
        for s in steps:
            if s == 0 or top < 0:
                top += 1
                labels.append(top)
            else:
                labels.append(s % (top + 1))
        check(np.asarray(labels, dtype=np.int64))

    @pytest.mark.parametrize("labels", [
        np.zeros(0, dtype=np.int64),
        np.array([9]),
        np.array([0, 0, 0]),
        np.array([3, 1, 3, 2, 1]),
        np.array([5, 4, 3, 2, 1, 0]),
        np.array([-1, 2**62, -1, 0]),
        np.array([70_000, 3, 70_000]),  # beyond the dense range of 3 labels
        np.array([3, 1, 3], dtype=np.uint8),
        np.array([2**64 - 1, 0, 2**64 - 1], dtype=np.uint64),
        np.array([0.5, 0.25, 0.5]),
        np.array([True, False, True]),
    ])
    def test_pinned(self, labels):
        check(labels)

    def test_pipeline_scale(self):
        labels = np.random.default_rng(0).integers(0, 300_000, size=250_000)
        check(labels)
