"""The biconnectivity query service: serve the answers, not the run.

The one-shot pipelines of :mod:`repro.api` compute a full BCC labelling
per call; this subsystem turns that into a long-lived query engine —
named graphs with content fingerprints (:mod:`~repro.service.store`), a
per-graph point-query index built once by any registered algorithm
(:mod:`~repro.service.index`), lazy batch updates logged to a versioned
write-ahead delta log (:mod:`~repro.service.deltalog`) and applied by a
maintenance-strategy registry that prices incremental patching
(:mod:`~repro.service.updates`) against a full rebuild
(:mod:`~repro.service.maintenance`), an LRU-cached engine facade
(:mod:`~repro.service.engine`), and a seeded workload generator + driver
(:mod:`~repro.service.workload`, :mod:`~repro.service.driver`) measuring
throughput, latency percentiles and cache behaviour in wall-clock and
simulated SMP time.

Quick start::

    from repro.service import ServiceEngine
    import repro

    eng = ServiceEngine()
    eng.put_graph("net", repro.generators.random_connected_gnm(1000, 4000, seed=1))
    eng.query("net", "same_bcc", u=3, v=17)
    eng.add_edges("net", [(3, 999)])          # lazy: reindexed on next query
    eng.query("net", "is_articulation", v=3)
    eng.query("net", "same_bcc_many", pairs=[[3, 17], [5, 40]])  # one kernel call

Point ops (:data:`QUERY_OPS`) and batched ops (:data:`BATCH_OPS`) go
through the one ``query`` method.

CLI: ``python -m repro workload gen|run`` (see docs/service.md).
"""

from .deltalog import (
    CLASSIFICATIONS,
    MAX_PENDING_DELTAS,
    DeltaEntry,
    DeltaLog,
    classify_add,
    classify_remove,
)
from .driver import WorkloadReport, oracle_answer, run_workload
from .engine import (
    BATCH_OPS,
    FRESHNESS_LEVELS,
    QUERY_OPS,
    REBUILD_MODES,
    UPDATE_OPS,
    EngineStats,
    ServiceEngine,
)
from .index import BCCIndex
from .maintenance import (
    MAINTENANCE_MODES,
    STRATEGIES,
    MaintenancePlan,
    MaintenanceStrategy,
    apply_plan,
    plan_maintenance,
)
from .scheduler import RebuildScheduler
from .snapshot import IndexSnapshot
from .store import GraphStore, StoredGraph, graph_fingerprint, make_graph
from .updates import apply_add_edges, apply_remove_edges, extend_index, shrink_index
from .workload import (
    BATCH_OP_NAMES,
    DEFAULT_MIX,
    Workload,
    WorkloadSpec,
    generate_workload,
    instance_graph,
    load_workload,
    mix_with_update_fraction,
    op_item_count,
    save_workload,
)

__all__ = [
    "ServiceEngine",
    "EngineStats",
    "IndexSnapshot",
    "RebuildScheduler",
    "DeltaLog",
    "DeltaEntry",
    "CLASSIFICATIONS",
    "MAX_PENDING_DELTAS",
    "classify_add",
    "classify_remove",
    "MAINTENANCE_MODES",
    "STRATEGIES",
    "MaintenanceStrategy",
    "MaintenancePlan",
    "plan_maintenance",
    "apply_plan",
    "REBUILD_MODES",
    "FRESHNESS_LEVELS",
    "QUERY_OPS",
    "BATCH_OPS",
    "BATCH_OP_NAMES",
    "op_item_count",
    "UPDATE_OPS",
    "BCCIndex",
    "GraphStore",
    "StoredGraph",
    "graph_fingerprint",
    "make_graph",
    "apply_add_edges",
    "apply_remove_edges",
    "extend_index",
    "shrink_index",
    "Workload",
    "WorkloadSpec",
    "DEFAULT_MIX",
    "mix_with_update_fraction",
    "generate_workload",
    "instance_graph",
    "save_workload",
    "load_workload",
    "run_workload",
    "WorkloadReport",
    "oracle_answer",
]
