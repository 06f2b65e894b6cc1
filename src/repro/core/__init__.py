"""Core algorithms: the paper's contribution and its sequential baseline."""

from .auxgraph import AuxiliaryGraph, build_auxiliary_graph, condition_counts
from .blockcut import BlockCutTree, augment_to_biconnected, block_cut_tree
from .filter import FilterStats, count_biconnected_components_bfs, tv_filter_bcc
from .lowhigh import low_high
from .pipeline import (
    STAGE_ORDER,
    STAGE_REGIONS,
    AlgorithmSpec,
    StageSpec,
    describe_algorithm,
    get_algorithm,
    get_strategy,
    list_algorithms,
    list_strategies,
    register_algorithm,
    resolve_strategies,
    run_pipeline,
    strategy,
)
from .result import BCCResult, FilterCertificate, canonical_edge_labels
from .tarjan import tarjan_bcc
from .tv import tv_bcc, tv_opt_bcc, tv_smp_bcc

__all__ = [
    "BCCResult",
    "FilterCertificate",
    "canonical_edge_labels",
    "tarjan_bcc",
    "tv_bcc",
    "tv_smp_bcc",
    "tv_opt_bcc",
    "tv_filter_bcc",
    "FilterStats",
    "count_biconnected_components_bfs",
    "low_high",
    "AuxiliaryGraph",
    "build_auxiliary_graph",
    "condition_counts",
    "BlockCutTree",
    "block_cut_tree",
    "augment_to_biconnected",
    "STAGE_ORDER",
    "STAGE_REGIONS",
    "AlgorithmSpec",
    "StageSpec",
    "strategy",
    "get_strategy",
    "list_strategies",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "describe_algorithm",
    "resolve_strategies",
    "run_pipeline",
]
