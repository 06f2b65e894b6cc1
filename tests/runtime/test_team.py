"""Team protocol tests: block splits, the serial and process teams."""

import gc

import numpy as np
import pytest

from repro.obs import Sink, Telemetry
from repro.runtime import ProcessTeam, SerialTeam, block_range
from repro.runtime.team import raise_aggregate


class TestBlockRange:
    @pytest.mark.parametrize("n", [0, 1, 7, 100, 103])
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_partition_exact_and_balanced(self, n, p):
        blocks = [block_range(r, n, p) for r in range(p)]
        # contiguous, ordered, covering [0, n) exactly once
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        for (lo0, hi0), (lo1, hi1) in zip(blocks, blocks[1:]):
            assert hi0 == lo1
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_matches_cost_model_split(self):
        # first n % p ranks get the extra element
        assert [block_range(r, 10, 4) for r in range(4)] == [
            (0, 3), (3, 6), (6, 8), (8, 10),
        ]


class TestRaiseAggregate:
    def test_no_errors_is_noop(self):
        raise_aggregate([])

    def test_single_error_reraised_as_is(self):
        err = ValueError("x")
        with pytest.raises(ValueError) as excinfo:
            raise_aggregate([err])
        assert excinfo.value is err

    def test_many_errors_become_exception_group(self):
        with pytest.raises(ExceptionGroup) as excinfo:
            raise_aggregate([ValueError("a"), KeyError("b")])
        assert len(excinfo.value.exceptions) == 2


class TestSerialTeam:
    def test_rank_order_execution(self):
        with SerialTeam(4) as team:
            order = []

            def body(rank, lo, hi):
                order.append(rank)

            team.parallel_for(8, body)
            assert order == [0, 1, 2, 3]

    def test_aggregates_all_errors(self):
        with SerialTeam(3) as team:

            def bad(rank, lo, hi):
                raise ValueError(f"r{rank}")

            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(3, bad)
            assert len(excinfo.value.exceptions) == 3

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SerialTeam(0)

    # the Team contract, on the reference backend

    def test_parallel_for_covers_range_exactly_once(self):
        with SerialTeam(4) as team:
            hits = np.zeros(103, dtype=np.int64)

            def body(rank, lo, hi):
                hits[lo:hi] += 1

            team.parallel_for(103, body)
            assert (hits == 1).all()

    def test_extra_args_passed_through(self):
        with SerialTeam(2) as team:
            x = np.arange(10, dtype=np.int64)
            out = np.zeros(10, dtype=np.int64)
            team.parallel_for(10, _scale, x, out, 3)
            np.testing.assert_array_equal(out, x * 3)

    def test_single_exception_propagates_as_itself(self):
        with SerialTeam(2) as team:
            with pytest.raises(KeyError, match="only rank 0"):
                team.parallel_for(4, _raise_rank0)

    def test_empty_range(self):
        with SerialTeam(3) as team:
            called = []

            def body(rank, lo, hi):  # pragma: no cover - must not run
                called.append(rank)

            team.parallel_for(0, body)
            assert called == []

    def test_more_workers_than_items(self):
        with SerialTeam(8) as team:
            hits = np.zeros(3, dtype=np.int64)

            def body(rank, lo, hi):
                hits[lo:hi] += 1

            team.parallel_for(3, body)
            assert (hits == 1).all()

    def test_share_and_release_are_inprocess_noops(self):
        with SerialTeam(2) as team:
            x = np.arange(6, dtype=np.int64)
            shared = team.share(x)
            np.testing.assert_array_equal(shared, x)
            team.release(shared)  # must not raise

    def test_blocks_are_contiguous_and_balanced(self):
        with SerialTeam(4) as team:
            blocks = [team.block(r, 10) for r in range(4)]
            assert blocks == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_multiple_exceptions_are_aggregated(self):
        with SerialTeam(3) as team:
            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(3, _raise_per_rank)
            msgs = sorted(str(e) for e in excinfo.value.exceptions)
            assert msgs == ["worker 0 failed", "worker 1 failed", "worker 2 failed"]

    def test_team_reusable_after_raising_body(self):
        # a raising body must leave no stale errors behind
        with SerialTeam(4) as team:
            for _ in range(3):
                with pytest.raises(ExceptionGroup):
                    team.parallel_for(8, _raise_per_rank)
                ok = np.zeros(8, dtype=np.int64)
                team.parallel_for(8, _fill_rank, ok)
                np.testing.assert_array_equal(ok, [0, 0, 1, 1, 2, 2, 3, 3])


# module-level bodies: the process backend pickles them by reference
def _fill_rank(rank, lo, hi, out):
    out[lo:hi] = rank


def _scale(rank, lo, hi, src, dst, k):
    dst[lo:hi] = src[lo:hi] * k


def _raise_per_rank(rank, lo, hi):
    raise ValueError(f"worker {rank} failed")


def _raise_rank0(rank, lo, hi):
    if rank == 0:
        raise KeyError("only rank 0")


def _write_freeze_count(rank, lo, hi, out):
    out[rank] = gc.get_freeze_count()


def _write_arg(rank, lo, hi, out, value):
    out[rank] = value


class TestProcessTeam:
    def test_forked_worker_freezes_inherited_heap(self):
        with ProcessTeam(2) as team:
            out = team.zeros(2, np.int64)
            team.parallel_for(2, _write_freeze_count, out)
            assert (out > 0).all(), out

    def test_dispatch_runs_only_the_given_ranks(self):
        with ProcessTeam(3) as team:
            out = team.full(3, -1, np.int64)
            team.dispatch(3, _write_arg, {0: (out, 10), 2: (out, 12)})
            np.testing.assert_array_equal(out, [10, -1, 12])

    def test_dispatch_to_no_rank_is_a_noop(self):
        with ProcessTeam(2) as team:
            team.dispatch(2, _write_arg, {})
            out = team.zeros(2, np.int64)
            team.parallel_for(2, _write_arg, out, 5)
            np.testing.assert_array_equal(out, [5, 5])

    def test_dispatch_reports_only_dispatched_worker_spans(self):
        spans = []

        class Spans(Sink):
            def on_worker_span(self, worker, name, path, t0_ns, t1_ns):
                spans.append(worker)

        with ProcessTeam(2) as team:
            team.telemetry = Telemetry([Spans()])
            out = team.zeros(2, np.int64)
            team.dispatch(2, _write_arg, {1: (out, 3)})
        assert spans == [1]

    def test_shared_writes_visible_to_parent(self):
        with ProcessTeam(3) as team:
            out = team.empty(10, np.int64)
            team.parallel_for(10, _fill_rank, out)
            expected = np.concatenate([np.full(4, 0), np.full(3, 1), np.full(3, 2)])
            np.testing.assert_array_equal(out, expected)

    def test_share_copies_into_shared_memory(self):
        with ProcessTeam(2) as team:
            src = team.share(np.arange(9, dtype=np.int64))
            dst = team.zeros(9, np.int64)
            team.parallel_for(9, _scale, src, dst, 7)
            np.testing.assert_array_equal(dst, np.arange(9) * 7)

    def test_share_is_idempotent_on_team_arrays(self):
        with ProcessTeam(2) as team:
            a = team.zeros(4, np.int64)
            assert team.share(a) is a

    def test_release_then_reuse(self):
        with ProcessTeam(2) as team:
            a = team.empty(6, np.int64)
            team.parallel_for(6, _fill_rank, a)
            team.release(a)
            b = team.empty(6, np.int64)
            team.parallel_for(6, _fill_rank, b)
            np.testing.assert_array_equal(b, [0, 0, 0, 1, 1, 1])

    def test_worker_exceptions_aggregate(self):
        with ProcessTeam(2) as team:
            with pytest.raises(ExceptionGroup) as excinfo:
                team.parallel_for(4, _raise_per_rank)
            msgs = sorted(str(e) for e in excinfo.value.exceptions)
            assert msgs == ["worker 0 failed", "worker 1 failed"]

    def test_single_worker_exception_and_reuse(self):
        with ProcessTeam(2) as team:
            with pytest.raises(KeyError):
                team.parallel_for(4, _raise_rank0)
            out = team.zeros(4, np.int64)
            team.parallel_for(4, _fill_rank, out)
            np.testing.assert_array_equal(out, [0, 0, 1, 1])

    def test_close_idempotent_and_rejects_use(self):
        team = ProcessTeam(2)
        team.close()
        team.close()
        with pytest.raises(RuntimeError):
            team.parallel_for(4, _fill_rank, np.zeros(4, np.int64))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ProcessTeam(0)
