"""The grouped frame executor against a per-record ``ServiceEngine`` replay.

Both backends answer a frame by grouping its query records per (graph,
op family) between update barriers (``cluster.backend._run_frame``).
These properties pin that down: every answer, with its type, equals one
``ServiceEngine.apply`` per record; per-shard ``queries`` equal the
replay's; a bad record raises what ``engine.apply`` raises; and the
backend keeps answering correctly afterwards.
"""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.backend import InProcessBackend, ProcessBackend
from repro.cluster.frames import split_records, strip_routing
from repro.cluster.partition import shard_of
from repro.graph import generators as gen
from repro.service.engine import ServiceEngine

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

SHARDS = 2
POINT_OPS = ("same_bcc", "is_articulation", "is_bridge", "component_of_edge",
             "num_components")
BATCH_OPS = ("same_bcc_many", "is_articulation_many", "is_bridge_many",
             "component_of_edge_many", "classify_edges")


@st.composite
def cluster_graphs(draw):
    names = ["g0", "g1", "g2"][: draw(st.integers(2, 3))]
    graphs = {}
    for name in names:
        n = draw(st.integers(2, 14))
        m = draw(st.integers(n - 1, min(n * (n - 1) // 2, 3 * n)))
        graphs[name] = gen.random_connected_gnm(n, m, seed=draw(st.integers(0, 999)))
    return graphs


@st.composite
def frames(draw, graphs):
    """Records over ``graphs``: all 10 query ops, with update barriers."""

    def pair(g):
        if g.m and draw(st.booleans()):
            i = draw(st.integers(0, g.m - 1))
            return [int(g.u[i]), int(g.v[i])]
        return [draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))]

    records = []
    for _ in range(draw(st.integers(1, 30))):
        name = draw(st.sampled_from(sorted(graphs)))
        g = graphs[name]
        kind = draw(st.sampled_from(POINT_OPS + BATCH_OPS + ("add_edges", "remove_edges")))
        if kind in ("add_edges", "remove_edges"):
            record = {"op": kind, "edges": [pair(g) for _ in range(draw(st.integers(1, 3)))]}
        elif kind == "num_components":
            record = {"op": kind}
        elif kind == "is_articulation":
            record = {"op": kind, "v": draw(st.integers(0, g.n - 1))}
        elif kind == "is_articulation_many":
            k = draw(st.integers(0, 6))
            record = {"op": kind, "params": {"vs": [draw(st.integers(0, g.n - 1))
                                                     for _ in range(k)]}}
        elif kind in BATCH_OPS:
            k = draw(st.integers(0, 6))
            record = {"op": kind, "params": {"pairs": [pair(g) for _ in range(k)]}}
        else:
            u, v = pair(g)
            record = {"op": kind, "u": u, "v": v}
        record["graph"] = name
        records.append(record)
    return records


def _replay(graphs, records):
    """Per-shard engines, one ``apply`` per record; answers or the first
    exception of each shard (that shard's later records do not run)."""
    engines = [ServiceEngine() for _ in range(SHARDS)]
    for name, g in graphs.items():
        engines[shard_of(name, SHARDS)].put_graph(name, g)
    answers, failed = {}, {}
    for seq, record in enumerate(records):
        shard = shard_of(record["graph"], SHARDS)
        if shard in failed:
            continue
        try:
            answers[seq] = engines[shard].apply(record["graph"], strip_routing(record))
        except Exception as exc:  # noqa: BLE001 - compared by type
            failed[shard] = exc
    queries = [e.stats.queries for e in engines]
    return answers, failed, queries


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].dtype == want[key].dtype
            np.testing.assert_array_equal(got[key], want[key])
    else:
        assert got == want


def _put(backend, graphs):
    for name, g in graphs.items():
        backend.put_graph(shard_of(name, SHARDS), name, g)


def _queries(backend):
    return [row["queries"] for row in backend.shard_stats()]


def _check_equivalent(backend, graphs, records):
    _put(backend, graphs)
    before = _queries(backend)
    frames_, total = split_records(records, SHARDS)
    got = backend.execute(frames_, total)
    want, failed, queries = _replay(graphs, records)
    assert not failed
    assert sorted(got) == sorted(want) == list(range(len(records)))
    for seq in want:
        _assert_same(got[seq], want[seq])
    assert [b - a for a, b in zip(before, _queries(backend))] == queries


def _bad_frame(graphs, records, where, how):
    """``records`` with one bad record inserted at ``where``."""
    name = sorted(graphs)[0]
    n = graphs[name].n
    bad = {
        "range-point": {"op": "same_bcc", "u": 0, "v": n + 3},
        "range-batch": {"op": "is_bridge_many", "params": {"pairs": [[0, 1], [n, 0]]}},
        "negative": {"op": "is_articulation", "v": -1},
        "missing-v": {"op": "same_bcc", "u": 0},
    }[how]
    bad["graph"] = name
    records = list(records)
    records.insert(min(where, len(records)), bad)
    return records


def _check_bad_frame(backend, graphs, records):
    _put(backend, graphs)
    frames_, total = split_records(records, SHARDS)
    _, failed, _ = _replay(graphs, records)
    (want,) = failed.values()
    with pytest.raises(type(want)):
        backend.execute(frames_, total)
    # the backend answers correctly afterwards
    _check_equivalent(backend, graphs, [
        {"op": "same_bcc", "u": 0, "v": 1, "graph": name} for name in graphs
    ] + [{"op": "num_components", "graph": name} for name in graphs])


def _empty_row_records(graphs):
    """Every batched op with payloads whose rows are empty (``[[]]``): the
    kernels answer 0 items, as for ``[]``; point records around them."""
    records = []
    for name in graphs:
        records.append({"op": "same_bcc", "u": 0, "v": 1, "graph": name})
        for kind in BATCH_OPS:
            key = "vs" if kind == "is_articulation_many" else "pairs"
            for payload in ([[]], [[], []], []):
                records.append({"op": kind, "params": {key: payload}, "graph": name})
        records.append({"op": "num_components", "graph": name})
    return records


BAD_KINDS = st.sampled_from(["range-point", "range-batch", "negative", "missing-v"])


class TestInProcess:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_per_record_replay(self, data):
        graphs = data.draw(cluster_graphs())
        with InProcessBackend(SHARDS) as backend:
            _check_equivalent(backend, graphs, data.draw(frames(graphs)))

    @settings(max_examples=30)
    @given(data=st.data(), how=BAD_KINDS)
    def test_bad_record_raises_like_apply(self, data, how):
        graphs = data.draw(cluster_graphs())
        records = data.draw(frames(graphs))
        where = data.draw(st.integers(0, len(records)))
        with InProcessBackend(SHARDS) as backend:
            _check_bad_frame(backend, graphs, _bad_frame(graphs, records, where, how))

    def test_empty_row_batches_answer_like_apply(self):
        graphs = {"g0": gen.cycle_graph(5), "g1": gen.complete_graph(4)}
        with InProcessBackend(SHARDS) as backend:
            _check_equivalent(backend, graphs, _empty_row_records(graphs))


@needs_fork
class TestProcesses:
    @pytest.fixture(scope="class")
    def backend(self):
        backend = ProcessBackend(SHARDS)
        yield backend
        backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_per_record_replay(self, backend, data):
        graphs = data.draw(cluster_graphs())
        _check_equivalent(backend, graphs, data.draw(frames(graphs)))

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), how=BAD_KINDS)
    def test_bad_record_raises_like_apply(self, backend, data, how):
        graphs = data.draw(cluster_graphs())
        records = data.draw(frames(graphs))
        where = data.draw(st.integers(0, len(records)))
        _check_bad_frame(backend, graphs, _bad_frame(graphs, records, where, how))

    def test_empty_row_batches_answer_like_apply(self, backend):
        graphs = {"g0": gen.cycle_graph(5), "g1": gen.complete_graph(4)}
        _check_equivalent(backend, graphs, _empty_row_records(graphs))
