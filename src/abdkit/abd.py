"""Average branching distance between embedded graphs over rotation frames.

Both graphs are rotated simultaneously: for each of ``n`` evenly spaced
directions (starting at pi/2, the vertical) the merge trees are built,
median-shifted to 0, and compared with the branching distance.  The ABD is
the median (default) or mean of the per-frame distances, by the rule that
also shifts the trees (:func:`merge_tree.median_or_mean`).

:func:`frame_trees` builds every frame of one graph in one pass: one
(frames x vertices) value stack, one tie test over every frame's edges and
one sweep over the stack (:func:`merge_tree.compute_merge_trees`).  A frame
with a tie is collapsed and swept on its own, as a stack of one, and when
every frame ties no shared stack is swept; :func:`merge_tree_at` is the
stack of one angle, with any shift.
"""

from __future__ import annotations

import math

import numpy as np

from .branching import branching_distance
from .filtration import ScalarGraph, collapse_equal_adjacent, direction_values, tie_mask
from .graph_io import EmbeddedGraph, largest_component
from .merge_tree import (
    DisconnectedGraphError,
    MergeTree,
    compute_merge_tree,
    compute_merge_trees,
    median_or_mean,
    shift_median_zero,
)

# Not called here: it keeps the benchmark tracer's ("abd", "direction_filter")
# patch point resolving.  ROADMAP item 1 re-points that patch point.
from .filtration import direction_filter  # noqa: F401

__all__ = [
    "frame_angles",
    "merge_tree_at",
    "frame_trees",
    "per_frame_distances",
    "average_branching_distance",
]

TWO_PI = 2.0 * math.pi

# Adjacent values within this fraction of the graph's extent of each other are tied.
COLLAPSE_RTOL = 1e-9


def frame_angles(n: int) -> tuple[float, ...]:
    """n evenly spaced angles ``pi/2 + 2*pi*i/n``, wrapped into [0, 2*pi)."""
    if n < 1:
        raise ValueError("frame count must be >= 1")
    return tuple((math.pi / 2.0 + TWO_PI * i / n) % TWO_PI for i in range(n))


def merge_tree_at(g: EmbeddedGraph, omega: float, normalize: str = "median") -> MergeTree:
    """The merge tree of ``g`` at one angle, by the stacked sweep of :func:`frame_trees`.

    Adjacent values within ``COLLAPSE_RTOL`` times the graph's extent (the
    larger of its x and y spans) are collapsed, so the tree scales with the
    coordinates.  ``normalize`` is ``'median'``, ``'mean'`` or ``'none'``
    (no shift).  A disconnected ``g`` raises
    :class:`~abdkit.merge_tree.DisconnectedGraphError`.
    """
    (mt,) = _stacked_trees(g, (omega,))
    return mt if normalize == "none" else shift_median_zero(mt, normalize)


def frame_trees(g: EmbeddedGraph, angles: tuple[float, ...]) -> list[MergeTree]:
    """Median-shifted merge trees of ``g`` at each angle, in angle order.

    The frames without a tie are swept together, and each frame with one is
    collapsed and swept as a stack of one, so a tree does not depend on the
    other angles: :func:`merge_tree_at` is the one-angle case.  A
    disconnected ``g`` is reduced to its largest component.  Connectivity
    does not depend on the angle, so the sweep decides it: a connected
    graph is never searched for components.
    """
    try:
        trees = _stacked_trees(g, angles)
    except DisconnectedGraphError:
        trees = _stacked_trees(largest_component(g), angles)
    return [shift_median_zero(mt) for mt in trees]


def _stacked_trees(g: EmbeddedGraph, angles: tuple[float, ...]) -> list[MergeTree]:
    """The unshifted trees of :func:`frame_trees`; a disconnected ``g`` raises."""
    ids, _, _, eu, ev, extent = g.arrays
    tol = COLLAPSE_RTOL * extent
    values = direction_values(g, angles)
    ties = tie_mask(values, eu, ev, tol)
    if not np.count_nonzero(ties):
        return compute_merge_trees(ids, values, eu, ev)
    tied = ties.any(axis=1)
    swept = iter(compute_merge_trees(ids, values[~tied], eu, ev) if not tied.all() else ())
    return [compute_merge_tree(collapse_equal_adjacent(ScalarGraph(ids, row, eu, ev), tol))
            if tie else next(swept) for row, tie in zip(values, tied.tolist())]


def per_frame_distances(
    g: EmbeddedGraph, h: EmbeddedGraph, n_frames: int, tol: float | None = None
) -> list[float]:
    """Branching distance per frame, in frame order (unsorted).

    ``tol`` selects tolerance mode (see :func:`branching_distance`); ``None``
    is exact.  A distance error such as the leaf guard is re-raised naming
    the frame.
    """
    angles = frame_angles(n_frames)
    trees = zip(frame_trees(g, angles), frame_trees(h, angles))
    out = []
    for i, (omega, (mg, mh)) in enumerate(zip(angles, trees)):
        try:
            out.append(branching_distance(mg, mh, tol=tol))
        except ValueError as exc:
            raise ValueError(f"frame {i} (angle {omega!r}): {exc}") from exc
    return out


def average_branching_distance(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    n_frames: int = 10,
    avg: str = "median",
    tol: float | None = None,
) -> float:
    """Median (or mean) of the per-frame branching distances.

    Disconnected inputs are reduced to their largest component.
    :func:`merge_tree.median_or_mean` sorts the per-frame values, so the
    result is independent of evaluation order; an even frame count uses the
    midpoint of the two central values for the median.
    """
    return median_or_mean(per_frame_distances(g, h, n_frames, tol), avg, "avg")
