"""Parallel primitives: the building blocks the paper composes.

"...prefix sum, pointer jumping, list ranking, sorting, connected
components, spanning tree, Euler-tour construction and tree computations,
as building blocks" (paper §1).
"""

from .bfs import BFSResult, bfs, bfs_forest
from .compaction import pack, pack_indices
from .connectivity import (
    ConnectivityResult,
    connected_components,
    fastsv,
    hirschberg_chandra_sarwate,
    shiloach_vishkin,
)
from .euler_tour import TreeNumbering, euler_tour_numbering
from .list_ranking import distance_to_tail, helman_jaja_rank, list_rank, wyllie_rank
from .prefix_sum import (
    exclusive_prefix_sum,
    prefix_scan,
    prefix_sum,
    segmented_prefix_scan,
)
from .rmq import SparseTable, range_max, range_min
from .sorting import radix_argsort, sample_argsort, sample_sort
from .spanning_tree import (
    SpanningForest,
    bfs_spanning_tree,
    hcs_spanning_tree,
    root_tree_edges,
    sv_spanning_tree,
    traversal_spanning_tree,
)
from .tree_contraction import subtree_aggregate_contraction
from .tree_computations import (
    dfs_euler_tour_positions,
    dfs_preorder,
    numbering_from_parents,
    subtree_max_sweep,
    subtree_min_sweep,
    subtree_sizes,
    vertices_by_level,
)

__all__ = [
    "prefix_sum",
    "exclusive_prefix_sum",
    "prefix_scan",
    "segmented_prefix_scan",
    "pack",
    "pack_indices",
    "wyllie_rank",
    "helman_jaja_rank",
    "list_rank",
    "distance_to_tail",
    "sample_sort",
    "sample_argsort",
    "radix_argsort",
    "shiloach_vishkin",
    "fastsv",
    "hirschberg_chandra_sarwate",
    "connected_components",
    "ConnectivityResult",
    "SpanningForest",
    "sv_spanning_tree",
    "hcs_spanning_tree",
    "traversal_spanning_tree",
    "bfs_spanning_tree",
    "root_tree_edges",
    "bfs",
    "bfs_forest",
    "BFSResult",
    "TreeNumbering",
    "euler_tour_numbering",
    "numbering_from_parents",
    "subtree_sizes",
    "subtree_min_sweep",
    "subtree_aggregate_contraction",
    "subtree_max_sweep",
    "dfs_preorder",
    "dfs_euler_tour_positions",
    "vertices_by_level",
    "SparseTable",
    "range_min",
    "range_max",
]
