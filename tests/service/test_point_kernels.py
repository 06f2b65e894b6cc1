"""Scalar point kernels ≡ their batch kernels, slice inserts ≡ ``np.insert``,
and a cache hit that re-installs nothing.

The point queries are Python-int code over the index arrays rather than
size-1 batches, so their answers, and the exception types of odd
arguments, are pinned here against the ``*_many`` kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import biconnected_components
from repro.graph import Graph, generators as gen
from repro.service.engine import ServiceEngine
from repro.service.index import BCCIndex
from repro.service.updates import _insert_sorted, apply_add_edges, extend_index
from tests.strategies import any_graphs

POINT_OPS = ("same_bcc", "is_bridge", "component_of_edge", "edge_id")


def batch_answer(idx: BCCIndex, op: str, u, v):
    """The point answer as the ``*_many`` kernels give it."""
    if op == "edge_id":
        i = int(idx.edge_id_many([[u, v]])[0])
        return None if i < 0 else i
    if op == "component_of_edge":
        c = int(idx.component_of_edge_many([[u, v]])[0])
        return None if c < 0 else c
    return bool(getattr(idx, f"{op}_many")([[u, v]])[0])


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception type is the answer
        return ("raise", type(exc))


@settings(max_examples=60)
@given(any_graphs(max_n=30), st.integers(0, 2**32 - 1))
def test_point_equals_batch(g, seed):
    idx = BCCIndex(biconnected_components(g))
    rng = np.random.default_rng(seed)
    n = max(g.n, 1)
    pairs = rng.integers(0, n, size=(40, 2)).tolist()
    pairs += [[int(a), int(b)] for a, b in zip(g.u[:20], g.v[:20])]
    pairs += [[int(b), int(a)] for a, b in zip(g.u[:5], g.v[:5])]
    pairs += [[x, x] for x in range(min(g.n, 5))]
    for u, v in pairs if g.n else []:
        for op in POINT_OPS:
            got = getattr(idx, op)(u, v)
            assert got == batch_answer(idx, op, u, v), (op, u, v)
            assert type(got) is type(batch_answer(idx, op, u, v))
    for v in range(g.n):
        assert idx.is_articulation(v) is bool(idx.is_articulation_many([v])[0])


@pytest.fixture(scope="module")
def two_triangles():
    """Triangles {0,1,2} and {2,3,4} sharing cut vertex 2, a bridge 4-5,
    and the isolated vertex 6."""
    g = Graph(7, [0, 0, 1, 2, 2, 3, 4], [1, 2, 2, 3, 4, 4, 5])
    return BCCIndex(biconnected_components(g))


#: odd vertex arguments: the vertex they coerce to, or the exception type
#: the batch kernels raise for them (``np.asarray(..., dtype=np.int64)``)
ODD_VERTICES = [
    (1.0, 1), (1.5, 1), (np.float64(2.0), 2), (True, 1), (False, 0),
    ("3", 3), ("1.5", ValueError), (np.int32(2), 2), (np.int64(4), 4),
    (np.uint8(3), 3), (None, TypeError), (-1, IndexError), (7, IndexError),
    (2**70, OverflowError),
]


@pytest.mark.parametrize("x,coerced", ODD_VERTICES, ids=[repr(x) for x, _ in ODD_VERTICES])
def test_odd_arguments(two_triangles, x, coerced):
    idx = two_triangles
    for op in POINT_OPS:
        fn = getattr(idx, op)
        for args in ((x, 2), (2, x)):
            got = outcome(fn, *args)
            assert got == outcome(batch_answer, idx, op, *args), (op, args)
            if isinstance(coerced, type):
                assert got == ("raise", coerced), (op, args)
            else:
                fixed = tuple(coerced if a is x else a for a in args)
                assert got == ("ok", fn(*fixed)), (op, args)
    got = outcome(idx.is_articulation, x)
    assert got == outcome(lambda y: bool(idx.is_articulation_many([y])[0]), x)
    if not isinstance(coerced, type):
        assert got == ("ok", idx.is_articulation(coerced))


def test_pinned_answers(two_triangles):
    idx = two_triangles
    assert idx.edge_id(1.0, 2) == 2 and idx.edge_id(False, 2) == 1
    assert idx.edge_id("3", 2) == 3 and idx.edge_id(2, np.int64(4)) == 4
    assert idx.component_of_edge(np.uint8(3), 2) == 1
    assert idx.component_of_edge(2, 2) is None and idx.edge_id(2, 2) is None
    assert idx.is_bridge(4, 5) and idx.is_bridge(5, 4) and not idx.is_bridge(0, 5)
    assert idx.same_bcc(0, 4) is False and idx.same_bcc(0, 1) is True
    assert idx.same_bcc(2, 5) is False and idx.same_bcc(2, 3) is True
    assert idx.same_bcc(2, 2) is True and idx.same_bcc(6, 6) is False
    assert idx.is_articulation(np.int32(2)) is True and idx.is_articulation(6) is False
    with pytest.raises(ValueError):
        idx.same_bcc([1], 2)


def test_same_bcc_between_two_cut_vertices():
    # cut vertices in several blocks each: the block-slice walk path
    g, _ = gen.cliques_on_a_path(4, 4)
    idx = BCCIndex(biconnected_components(g))
    cuts = np.flatnonzero(idx.articulation_mask()).tolist()
    assert len(cuts) >= 2
    for a in cuts:
        for b in range(g.n):
            assert idx.same_bcc(a, b) == bool(idx.same_bcc_many([[a, b]])[0])


@settings(max_examples=60)
@given(st.integers(0, 60), st.lists(st.integers(0, 60), max_size=8),
       st.sampled_from([np.int64, bool]), st.integers(0, 2**32 - 1))
def test_insert_sorted_equals_np_insert(m, positions, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, m).astype(dtype)
    ins = np.sort(np.minimum(np.asarray(positions, dtype=np.int64), m))
    values = rng.integers(0, 2, ins.size).astype(dtype)
    for vals in (values, dtype(1)):
        got, want = _insert_sorted(a, ins, vals), np.insert(a, ins, vals)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_extend_index_arrays_equal_np_insert():
    g = gen.random_connected_gnm(300, 1800, seed=4)  # dense: tv-filter keeps its certificate
    idx = BCCIndex(biconnected_components(g))
    rng = np.random.default_rng(4)
    done = 0
    for _ in range(200):
        a, b = (int(x) for x in rng.integers(0, g.n, 2))
        ng, au, av = apply_add_edges(g, [(a, b), (b, (b + 1) % g.n)])
        if au.size == 0:
            continue
        keys = g.u * np.int64(g.n) + g.v
        added = au * np.int64(g.n) + av
        ins = np.searchsorted(keys, added)
        assert ng == Graph(g.n, np.insert(g.u, ins, au), np.insert(g.v, ins, av),
                           normalize=False)
        out = extend_index(idx, ng, au, av)
        if out is None:
            continue
        np.testing.assert_array_equal(out._edge_keys, np.insert(idx._edge_keys, ins, added))
        np.testing.assert_array_equal(out._is_bridge, np.insert(idx._is_bridge, ins, False))
        fresh = BCCIndex(biconnected_components(ng))
        np.testing.assert_array_equal(out.result.edge_labels, fresh.result.edge_labels)
        cert = idx.certificate
        if out.certificate is not None:
            np.testing.assert_array_equal(out.certificate.mask, np.insert(cert.mask, ins, False))
            np.testing.assert_array_equal(out.certificate.tree, np.insert(cert.tree, ins, False))
        done += 1
    assert done >= 5


def test_cache_hit_reinstalls_nothing():
    eng = ServiceEngine()
    eng.put_graph("g", gen.random_connected_gnm(200, 600, seed=1))
    eng.query("g", "num_components")
    snap = eng.snapshot_for("g")
    for _ in range(5):
        eng.query("g", "same_bcc", u=0, v=1)
    assert eng.snapshot_for("g") is snap  # same object: not re-stamped
    eng.add_edges("g", [(0, 199)])
    eng.remove_edges("g", [(0, 199)])
    eng.query("g", "num_components")
    log = eng.delta_log_for("g")
    after, version = eng.snapshot_for("g"), log.version
    assert after is not snap  # new store version: installed again
    for _ in range(5):
        eng.query("g", "is_articulation", v=3)
    assert eng.snapshot_for("g") is after and log.version == version
    stats = eng.stats
    assert stats.cache_hits >= 10 and stats.cache_misses >= 1
