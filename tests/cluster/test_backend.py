"""Shard backends: serial/process parity and shared-memory hygiene.

Process-backend tests are skipped where fork is unavailable; every one
asserts zero leaked shared-memory segments and joined workers on close,
because an abandoned segment outlives the interpreter.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.cluster import ShardRouter, make_backend
from repro.cluster.backend import InProcessBackend, ProcessBackend
from repro.cluster.frames import split_records, strip_routing
from repro.cluster.partition import shard_of
from repro.graph import generators as gen
from repro.obs import Sink, Telemetry
from repro.service.engine import ServiceEngine

class EventNames(Sink):
    def __init__(self):
        self.names = []

    def on_event(self, name, path, t_ns, attrs):
        self.names.append(name)


class WorkerSpans(Sink):
    def __init__(self):
        self.ranks = []

    def on_worker_span(self, worker, name, path, t0_ns, t1_ns):
        self.ranks.append(worker)


needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)

RECORDS = [
    {"op": "num_components", "graph": "g0"},
    {"op": "same_bcc", "u": 0, "v": 1, "graph": "g0"},
    {"op": "classify_edges", "params": {"pairs": [[0, 1], [2, 3], [9, 9]]},
     "graph": "g1"},
    {"op": "add_edges", "edges": [[0, 5], [5, 9]], "graph": "g0"},
    {"op": "num_components", "graph": "g0"},
    {"op": "component_of_edge_many", "params": {"pairs": [[0, 5], [7, 7]]},
     "graph": "g0"},
]


def _graphs():
    return {"g0": gen.random_connected_gnm(20, 40, seed=1),
            "g1": gen.random_gnm(20, 25, seed=2)}


def _reference_answers():
    graphs = _graphs()
    engine = ServiceEngine()
    for name, g in graphs.items():
        engine.put_graph(name, g)
    return [engine.apply(r["graph"], strip_routing(r)) for r in RECORDS]


def _execute(backend):
    graphs = _graphs()
    from repro.cluster.partition import shard_of

    for name, g in graphs.items():
        backend.put_graph(shard_of(name, backend.num_shards), name, g)
    frames, total = split_records(RECORDS, backend.num_shards)
    answers = backend.execute(frames, total)
    return [answers[seq] for seq in range(len(RECORDS))]


def _assert_matches_reference(answers):
    for got, want in zip(answers, _reference_answers()):
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        elif isinstance(want, dict):
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])
        else:
            assert got == want


class TestInProcessBackend:
    def test_matches_single_engine(self):
        with make_backend("serial", 3) as backend:
            _assert_matches_reference(_execute(backend))

    def test_shard_stats_shape(self):
        with make_backend("serial", 2) as backend:
            _execute(backend)
            rows = backend.shard_stats()
            assert len(rows) == 2
            assert all("queries" in r and "cache_hit_rate" in r for r in rows)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown cluster backend"):
            make_backend("gpu", 2)


@needs_fork
class TestProcessBackend:
    def test_matches_single_engine(self):
        backend = make_backend("processes", 2)
        try:
            _assert_matches_reference(_execute(backend))
        finally:
            backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    def test_stats_cross_process(self):
        backend = make_backend("processes", 2)
        try:
            _execute(backend)
            rows = backend.shard_stats()
            assert len(rows) == 2
            assert sum(r["queries"] for r in rows) > 0
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_remove_graph_cross_process(self):
        from repro.cluster.partition import shard_of

        backend = make_backend("processes", 2)
        try:
            g = gen.random_connected_gnm(10, 15, seed=0)
            shard = shard_of("g0", 2)
            backend.put_graph(shard, "g0", g)
            backend.remove_graph(shard, "g0")
            frames, total = split_records(
                [{"op": "num_components", "graph": "g0"}], 2)
            with pytest.raises(KeyError):
                backend.execute(frames, total)
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_worker_error_propagates_and_backend_survives(self):
        backend = make_backend("processes", 2)
        try:
            g = gen.random_connected_gnm(10, 15, seed=0)
            from repro.cluster.partition import shard_of

            backend.put_graph(shard_of("g0", 2), "g0", g)
            bad = [{"op": "same_bcc", "u": 0, "v": 99, "graph": "g0"}]
            frames, total = split_records(bad, 2)
            with pytest.raises(Exception):
                backend.execute(frames, total)
            # backend still answers after the failed batch
            ok = [{"op": "num_components", "graph": "g0"}]
            frames, total = split_records(ok, 2)
            out = backend.execute(frames, total)
            assert isinstance(out[0], int)
        finally:
            backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    def test_router_on_process_backend(self):
        with ShardRouter(num_shards=2, backend="processes") as router:
            g = gen.random_connected_gnm(20, 40, seed=3)
            router.put_graph("g0", g)
            out = router.apply_batch([
                {"op": "num_components", "graph": "g0"},
                {"op": "is_bridge_many",
                 "params": {"pairs": [[0, 1], [1, 2]]}, "graph": "g0"},
            ])
            assert isinstance(out[0], int)
            assert out[1].dtype == np.bool_
        assert router.backend.live_segments == 0
        assert router.backend.workers_joined()

    def test_answer_segment_allocated_once_and_grown_by_doubling(self):
        events = EventNames()
        backend = ProcessBackend(2, telemetry=Telemetry([events]))
        try:
            g = gen.random_connected_gnm(30, 60, seed=4)
            backend.put_graph(shard_of("g0", 2), "g0", g)
            events.names.clear()

            def run(k):
                pairs = [[i % 30, (i * 7) % 30] for i in range(k)]
                frames, total = split_records(
                    [{"op": "same_bcc_many", "params": {"pairs": pairs},
                      "graph": "g0"}], 2)
                backend.execute(frames, total)
                allocs = events.names.count("shm.alloc")
                events.names.clear()
                return allocs

            assert run(100) == 1  # the first frame allocates the segment
            assert run(100) == 0  # same size: reused
            assert run(10) == 0  # smaller: reused
            cap = backend._answers.shape[0]
            assert run(cap + 1) == 1  # larger: grows once
            assert backend._answers.shape[0] == 2 * cap
            assert run(cap) == 0
        finally:
            backend.close()
        assert backend.live_segments == 0
        assert backend.workers_joined()

    def test_reused_segment_decodes_no_stale_rows(self):
        g = gen.random_connected_gnm(20, 40, seed=5)
        edges = g.edges().tolist()[:6]
        non_edges = [[a, b] for a in range(20) for b in range(a + 1, 20)
                     if not g.has_edge(a, b)][:6]
        engine = ServiceEngine()
        engine.put_graph("g0", g)
        backend = make_backend("processes", 2)
        try:
            backend.put_graph(shard_of("g0", 2), "g0", g)
            for pairs in (edges, non_edges, edges):
                records = [
                    {"op": "classify_edges", "params": {"pairs": pairs}},
                    {"op": "is_bridge", "u": pairs[0][0], "v": pairs[0][1]},
                    {"op": "component_of_edge", "u": pairs[1][0], "v": pairs[1][1]},
                ]
                frames, total = split_records(
                    [dict(r, graph="g0") for r in records], 2)
                got = backend.execute(frames, total)
                for seq, record in enumerate(records):
                    want = engine.apply("g0", record)
                    if isinstance(want, dict):
                        for key in want:
                            np.testing.assert_array_equal(got[seq][key], want[key])
                    else:
                        assert got[seq] == want
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_frame_for_one_shard_wakes_only_its_worker(self):
        spans = WorkerSpans()
        backend = ProcessBackend(2, telemetry=Telemetry([spans]))
        try:
            name = next(f"g{i}" for i in range(100) if shard_of(f"g{i}", 2) == 0)
            backend.put_graph(0, name, gen.random_connected_gnm(10, 15, seed=0))
            spans.ranks.clear()
            frames, total = split_records([{"op": "num_components", "graph": name}], 2)
            assert list(frames) == [0]
            backend.execute(frames, total)
            assert spans.ranks == [0]
        finally:
            backend.close()
        assert backend.live_segments == 0

    def test_backend_protocol_classes(self):
        assert InProcessBackend.name == "serial"
        assert ProcessBackend.name == "processes"
