"""The grouped frame executor against a per-record ``ServiceEngine`` replay.

Both backends answer a frame by grouping its query records per (graph,
op family) between update barriers (``cluster.backend._run_frame``).
These properties pin that down: every answer, with its type, equals one
``ServiceEngine.apply`` per record; per-shard ``queries`` equal the
replay's; a bad record raises what ``engine.apply`` raises; and the
backend keeps answering correctly afterwards.
"""

import multiprocessing as mp
import os

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


# --------------------------------------------------------------------- #
# batched items in every shape a record may carry them

ITEM_FORMS = ("list", "int64", "int32", "tuples", "bool", "float", "ragged",
              "empty", "empty-row")


def _reshape_items(items, key, form):
    """``items`` (a list of ints or of [u, v] lists) in another form; the
    ragged form and an empty row make the kernels raise or answer 0 items."""
    if form == "int64":
        return np.asarray(items, dtype=np.int64)
    if form == "int32":
        return np.asarray(items, dtype=np.int32)
    if form == "tuples":
        return tuple(x if key == "vs" else tuple(x) for x in items)
    if form == "bool":
        return [x % 2 == 1 if key == "vs" else [a % 2 == 1 for a in x] for x in items]
    if form == "float":
        return [x + 0.75 if key == "vs" else [a + 0.75 for a in x] for x in items]
    if form == "ragged":
        return [*items, [0, 1]] if key == "vs" else [*items, [0, 1, 1]]
    if form == "empty":
        return []
    if form == "empty-row":
        return [[]]
    return items


@st.composite
def varied_frames(draw, graphs):
    """``frames(graphs)`` with each batched record's items redrawn in one
    of :data:`ITEM_FORMS`, ragged ones rare."""
    records = draw(frames(graphs))
    for record in records:
        params = record.get("params")
        if params is None:
            continue
        (key, items), = params.items()
        form = draw(st.sampled_from(ITEM_FORMS[:-3] * 3 + ITEM_FORMS[-3:]))
        params[key] = _reshape_items(items, key, form)
    return records


def _check_varied(backend, graphs, records):
    """Answers, types and dtypes as the replay; or the exception types the
    replay raised, per failing shard (an ``ExceptionGroup`` of them, or a
    ``__context__`` chain before Python 3.11, when the processes backend
    fails on both)."""
    _, failed, _ = _replay(graphs, records)
    if not failed:
        _check_equivalent(backend, graphs, records)
        return
    _put(backend, graphs)
    frames_, total = split_records(records, SHARDS)
    with pytest.raises(Exception) as info:
        backend.execute(frames_, total)
    expected = [failed[shard] for shard in sorted(failed)]
    if isinstance(backend, InProcessBackend):
        expected = expected[:1]  # shards run in order; the first failure stops it
    raised = getattr(info.value, "exceptions", None)
    if raised is None:  # one failure, or two chained (Python 3.10)
        raised = [info.value.__context__, info.value][2 - len(expected):]
    assert [type(e) for e in raised] == [type(e) for e in expected]


class TestInProcessVariedItems:
    @settings(max_examples=80)
    @given(data=st.data())
    def test_matches_per_record_replay(self, data):
        graphs = data.draw(cluster_graphs())
        with InProcessBackend(SHARDS) as backend:
            _check_varied(backend, graphs, data.draw(varied_frames(graphs)))


@needs_fork
class TestProcessesVariedItems:
    @pytest.fixture(scope="class")
    def backend(self):
        backend = ProcessBackend(SHARDS)
        yield backend
        backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_per_record_replay(self, backend, data):
        graphs = data.draw(cluster_graphs())
        _check_varied(backend, graphs, data.draw(varied_frames(graphs)))


def test_planned_items_are_int64_arrays():
    """Every group step carries its items and rows as int64 arrays, and
    no record of a fitting batch travels as a record step."""
    records = [
        {"op": "same_bcc", "u": 0, "v": 1, "graph": "g0"},
        {"op": "classify_edges", "params": {"pairs": [[0, 1], [1, 2]]}, "graph": "g0"},
        {"op": "is_articulation_many", "params": {"vs": (1, 2, 3)}, "graph": "g0"},
        {"op": "same_bcc_many", "params": {"pairs": np.array([[0, 2]], dtype=np.int32)},
         "graph": "g0"},
        {"op": "num_components", "graph": "g0"},
    ]
    (frame,) = split_records(records, 1)[0].values()
    groups = [step for step in frame.steps if len(step) == 4]
    assert [kind for _, kind, _, _ in groups] == [
        "same_bcc_many", "classify_edges", "is_articulation_many"]
    for _, kind, items, rows in groups:
        assert type(items) is np.ndarray and items.dtype == np.int64
        assert items.ndim == (1 if kind == "is_articulation_many" else 2)
        assert type(rows) is np.ndarray and rows.dtype == np.int64
        assert rows.shape == items.shape[:1]
    (record_step,) = [step for step in frame.steps if len(step) == 3]
    assert record_step[1]["op"] == "num_components"


@needs_fork
def test_batched_items_reach_the_worker_as_one_int64_array(tmp_path, monkeypatch):
    """What a worker receives over the pipe is the planned steps: each
    batched record's items inside one int64 array, no Python item list.
    The spy is installed before the fork, so the workers run it."""
    import repro.cluster.backend as backend_module

    log = tmp_path / "steps.txt"
    run_frame = backend_module._run_frame

    def spy(engine, steps, out):
        with open(log, "a") as fh:
            for step in steps:
                if len(step) == 4:
                    _, kind, items, _ = step
                    fh.write(f"{os.getpid()} {kind} {type(items).__name__} {items.dtype}\n")
                else:
                    fh.write(f"{os.getpid()} {step[1]['op']} record -\n")
        return run_frame(engine, steps, out)

    monkeypatch.setattr(backend_module, "_run_frame", spy)
    graphs = {"g0": gen.cycle_graph(6), "g1": gen.complete_graph(6)}
    records = [{"op": "classify_edges", "params": {"pairs": [[0, 1], [2, 3], [4, 5]]},
                "graph": name} for name in graphs]
    records += [{"op": "is_articulation_many", "params": {"vs": [0, 1]}, "graph": name}
                for name in graphs]
    with ProcessBackend(SHARDS) as backend:
        _check_equivalent(backend, graphs, records)
    assert backend.live_segments == 0
    lines = [line.split() for line in log.read_text().splitlines()]
    workers = [line for line in lines if int(line[0]) != os.getpid()]
    assert sorted(op for _, op, _, _ in workers) == sorted(r["op"] for r in records)
    assert all(kind == "ndarray" and dtype == "int64" for _, _, kind, dtype in workers)
