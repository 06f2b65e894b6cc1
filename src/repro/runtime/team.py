"""The fork–join worker-team interface: ``Team`` and ``SerialTeam``.

``parallel_for(n, body, *args)``
    Fork–join execution of ``body(rank, lo, hi, *args)`` over a block
    distribution of ``range(n)``, with an implicit barrier at the join.
    The block split is the one the cost model assumes (``divmod``-balanced
    contiguous ranges).

Array management (``share`` / ``empty`` / ``zeros`` / ``full`` /
``release``)
    Bodies allocate their shared state through the team so the process
    team can place it in :mod:`multiprocessing.shared_memory` while the
    in-process team hands back ordinary numpy arrays.  In-process
    implementations are zero-cost no-ops.
"""

from __future__ import annotations

import builtins
import time
from typing import Callable, Tuple

import numpy as np

__all__ = [
    "Team",
    "SerialTeam",
    "block_range",
    "raise_aggregate",
]


def block_range(rank: int, n: int, p: int) -> Tuple[int, int]:
    """Contiguous balanced block ``[lo, hi)`` of ``range(n)`` for ``rank``.

    Identical to the split the simulated cost model charges for: the first
    ``n % p`` workers get one extra element.
    """
    base, extra = divmod(n, p)
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


def raise_aggregate(errors: list) -> None:
    """Re-raise worker exceptions without dropping any.

    One error is re-raised as itself (so ``pytest.raises(ValueError)``
    style handling keeps working).  Several become an ``ExceptionGroup``
    where the runtime has one (3.11+); otherwise they are chained through
    ``__context__`` so every traceback still surfaces.
    """
    if not errors:
        return
    if len(errors) == 1:
        raise errors[0]
    if hasattr(builtins, "BaseExceptionGroup"):
        if all(isinstance(e, Exception) for e in errors):
            raise ExceptionGroup("parallel_for worker failures", errors)
        raise BaseExceptionGroup("parallel_for worker failures", errors)
    root = errors[0]
    for nxt in errors[1:]:
        nxt.__context__ = root
        root = nxt
    raise root


class Team:
    """Abstract fork–join worker team (see module docstring).

    Subclasses must set ``p`` and implement :meth:`parallel_for` and
    :meth:`close`.  The array-management defaults are correct for any
    team whose workers share the caller's address space.
    """

    p: int = 1

    #: Optional :class:`repro.obs.Telemetry` the team reports to.  When
    #: set, each ``parallel_for`` emits one worker span per rank
    #: that executed a non-empty block, attributed under the span that
    #: dispatched the loop.
    telemetry = None

    # -- execution ----------------------------------------------------- #

    def parallel_for(self, n: int, body: Callable, *args) -> None:
        """Run ``body(rank, lo, hi, *args)`` for every rank over range(n)."""
        raise NotImplementedError

    def block(self, rank: int, n: int) -> Tuple[int, int]:
        return block_range(rank, n, self.p)

    # -- shared-array management (in-process defaults) ------------------ #

    def share(self, arr: np.ndarray) -> np.ndarray:
        """Make ``arr`` visible to all workers (no-op when in-process)."""
        return np.ascontiguousarray(arr)

    def empty(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def full(self, shape, fill, dtype) -> np.ndarray:
        return np.full(shape, fill, dtype=dtype)

    def release(self, *arrays: np.ndarray) -> None:
        """Free team-allocated arrays (no-op when in-process)."""

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Team":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialTeam(Team):
    """One in-process worker executing blocks in rank order.

    The degenerate team: the same block splits and barrier structure as
    :class:`~repro.runtime.process.ProcessTeam`, executed sequentially.
    """

    def __init__(self, p: int = 1):
        if p < 1:
            raise ValueError("need at least one worker")
        self.p = p

    def parallel_for(self, n: int, body: Callable, *args) -> None:
        tel = self.telemetry
        errors: list = []
        for rank in range(self.p):
            lo, hi = self.block(rank, n)
            if lo >= hi:
                continue
            t0 = time.perf_counter_ns() if tel is not None else 0
            try:
                body(rank, lo, hi, *args)
            except BaseException as exc:  # noqa: BLE001 - aggregated below
                errors.append(exc)
            if tel is not None:
                tel.worker_span(
                    rank,
                    getattr(body, "__name__", "body"),
                    t0,
                    time.perf_counter_ns(),
                )
        raise_aggregate(errors)

    def close(self) -> None:
        pass
