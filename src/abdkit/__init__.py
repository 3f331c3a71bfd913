"""Compare 2-D embedded graphs with direction-dependent merge trees.

For a fixed direction the vertices of an embedded graph are projected onto
that direction and the tail-less merge tree of the resulting scalar graph
records how sublevel-set components appear and join.  Merge trees are
compared with the branching distance (a semi-metric that violates the
triangle inequality); graphs are compared with the rotation-averaged
branching distance (which additionally admits distinct graphs at distance
zero).  The analysis layer builds pairwise distance matrices and feeds
them to single-linkage clustering and classical MDS.
"""

from .graph_io import EmbeddedGraph, largest_component, load_graph, write_graph
from .filtration import ScalarGraph, collapse_equal_adjacent, direction_filter
from .merge_tree import MergeTree, compute_merge_tree, load_tree, shift_median_zero, write_tree
from .branching import Branch, branching_distance, matching_cost, removal_cost
from .abd import average_branching_distance, frame_angles, merge_tree_at
from .analysis import (
    DistanceMatrix,
    classical_mds,
    cut_clusters,
    distance_matrix,
    export,
    single_linkage,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddedGraph",
    "ScalarGraph",
    "MergeTree",
    "Branch",
    "DistanceMatrix",
    "load_graph",
    "write_graph",
    "largest_component",
    "direction_filter",
    "collapse_equal_adjacent",
    "compute_merge_tree",
    "shift_median_zero",
    "load_tree",
    "write_tree",
    "matching_cost",
    "removal_cost",
    "branching_distance",
    "frame_angles",
    "merge_tree_at",
    "average_branching_distance",
    "distance_matrix",
    "single_linkage",
    "cut_clusters",
    "classical_mds",
    "export",
    "__version__",
]
