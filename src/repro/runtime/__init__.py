"""Pluggable execution runtime: one backend interface for the whole pipeline.

The paper's experiments run on a real SMP (POSIX threads + software
barriers on a Sun E4500).  This package runs the same block-partitioned
kernels on one substrate with three backends:

========== ===================================================== ==========
backend    execution                                             speedup
========== ===================================================== ==========
simulated  vectorized numpy, cost model only (no team)           modeled
serial     the kernels, one in-process worker, rank order        none
processes  worker processes on ``multiprocessing.shared_memory`` real
========== ===================================================== ==========

All three produce bit-identical results; see :mod:`repro.runtime.kernels`
for why.  The active team is published via :func:`active_team` so deeply
nested primitives can dispatch without signature changes.
"""

from .context import active_team, current_team
from .process import ProcessTeam
from .team import BACKEND_NAMES, BACKENDS, SerialTeam, Team, block_range, make_team

#: kernels are re-exported lazily: they depend on repro.primitives (for
#: the shared result classes), and the primitives import
#: repro.runtime.context — an eager import here would close that cycle.
_LAZY_KERNELS = ("prefix_scan", "shiloach_vishkin", "bfs_forest")


def __getattr__(name):
    if name in _LAZY_KERNELS:
        from . import kernels

        return getattr(kernels, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Team",
    "SerialTeam",
    "ProcessTeam",
    "BACKENDS",
    "BACKEND_NAMES",
    "make_team",
    "block_range",
    "active_team",
    "current_team",
    "prefix_scan",
    "shiloach_vishkin",
    "bfs_forest",
]
