"""The backend-pluggable execution substrate: the ``Team`` interface.

The paper runs every algorithm on a persistent team of POSIX threads with
software barriers on a Sun E4500.  This module defines the abstract
contract a team of workers must satisfy so the same kernel code
(:mod:`repro.runtime.kernels`) runs on any backend:

``parallel_for(n, body, *args)``
    Fork–join execution of ``body(rank, lo, hi, *args)`` over a block
    distribution of ``range(n)``, with an implicit software barrier at
    the join.  The block split is the same one the cost model assumes
    (``divmod``-balanced contiguous ranges), so the decomposition being
    priced and the decomposition being executed are one and the same.

Array management (``share`` / ``empty`` / ``zeros`` / ``full`` /
``release``)
    Kernels allocate their shared state through the team so the process
    backend can place it in :mod:`multiprocessing.shared_memory` while the
    in-process backends hand back ordinary numpy arrays.  In-process
    implementations are zero-cost no-ops.

``grain``
    The minimum problem size for which dispatching a vectorized primitive
    to this team's kernel pays off.  Primitives consult it through
    :func:`repro.runtime.current_team`, so tiny inner loops (e.g. the
    p-element block-sum scan) stay vectorized even under a real backend.

Backends are registered in :data:`BACKENDS` and constructed with
:func:`make_team`; ``"simulated"`` is deliberately absent — it is the
no-team default handled by the pipeline itself.
"""

from __future__ import annotations

import builtins
import os
import time
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = [
    "Team",
    "SerialTeam",
    "BACKENDS",
    "BACKEND_NAMES",
    "make_team",
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


def _default_grain(env_default: int) -> int:
    raw = os.environ.get("REPRO_RUNTIME_GRAIN")
    if raw is None:
        return env_default
    try:
        return max(0, int(raw))
    except ValueError:
        return env_default


class Team:
    """Abstract fork–join worker team (see module docstring).

    Subclasses must set ``p`` and ``name`` and implement
    :meth:`parallel_for` and :meth:`close`.  The array-management defaults
    are correct for any backend whose workers share the caller's address
    space.
    """

    name: str = "abstract"
    p: int = 1
    grain: int = 1

    #: Optional :class:`repro.obs.Telemetry` the team reports to.  When
    #: set (the pipeline attaches the machine's telemetry on real
    #: backends), each ``parallel_for`` emits one worker span per rank
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

    The degenerate backend: the same kernels, block splits, and barrier
    structure as the parallel teams, just executed sequentially.  Its
    ``grain`` is 0 so every dispatchable primitive exercises the kernel
    path — this is the backend the bit-identity tests lean on.
    """

    name = "serial"

    def __init__(self, p: int = 1, *, grain: int | None = None):
        if p < 1:
            raise ValueError("need at least one worker")
        self.p = p
        self.grain = _default_grain(0) if grain is None else grain

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


# --------------------------------------------------------------------- #
# registry

BACKENDS: Dict[str, Callable[..., Team]] = {}


def _register(name: str, factory: Callable[..., Team]) -> None:
    BACKENDS[name] = factory


_register("serial", SerialTeam)

# BACKEND_NAMES is the user-facing choice list; "simulated" maps to no
# team at all (pure cost-model execution) and is resolved by the pipeline.
BACKEND_NAMES = ("simulated", "serial", "processes")


def make_team(backend: str, p: int = 1, **kwargs) -> Team:
    """Construct a team for ``backend`` (one of :data:`BACKENDS`)."""
    # a late import keeps `import repro.runtime.team` free of process
    # machinery; the registry self-populates on first construction.
    if backend == "processes" and "processes" not in BACKENDS:
        from .process import ProcessTeam

        _register("processes", ProcessTeam)
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{', '.join(sorted(set(BACKEND_NAMES) - {'simulated'}))}"
        ) from None
    return factory(p, **kwargs)
