"""Worker teams: the cluster's shard transport.

A :class:`Team` runs ``body(rank, lo, hi, *args)`` over a block
distribution of a range, fork–join, with an implicit barrier at the join:

=========== ================================================= ==============
team        execution                                         shared memory
=========== ================================================= ==============
SerialTeam  one in-process worker, blocks in rank order       caller's arrays
ProcessTeam persistent worker processes                       ``multiprocessing.shared_memory``
=========== ================================================= ==============

:class:`repro.cluster.ProcessBackend` hosts one shard engine per
``ProcessTeam`` worker, and :class:`repro.qa.FaultyTeam` wraps either team
to inject worker faults.  Every biconnected-components computation runs
the vectorized primitives; parallel speedup is modelled by
:class:`repro.smp.Machine`, not measured here.
"""

from .process import ProcessTeam
from .team import SerialTeam, Team, block_range

__all__ = [
    "Team",
    "SerialTeam",
    "ProcessTeam",
    "block_range",
]
