"""Average branching distance between embedded graphs over rotation frames.

Both graphs are rotated simultaneously: for each of ``n`` evenly spaced
directions (starting at pi/2, the vertical) the merge trees are built,
median-shifted to 0, and compared with the branching distance.  The ABD is
the median (default) or mean of the per-frame distances.
"""

from __future__ import annotations

import math

from .branching import branching_distance
from .filtration import collapse_equal_adjacent, direction_filter
from .graph_io import EmbeddedGraph, largest_component
from .merge_tree import (
    DisconnectedGraphError,
    MergeTree,
    compute_merge_tree,
    median_or_mean,
    shift_median_zero,
)

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
    """Filtration pipeline for one direction: project, collapse, build, shift.

    Adjacent values within ``COLLAPSE_RTOL`` times the graph's extent (the
    larger of its x and y spans) are collapsed, so the tree scales with the
    coordinates.  ``normalize`` is ``'median'``, ``'mean'`` or ``'none'``
    (no shift).
    """
    sg = direction_filter(g, omega)
    sg = collapse_equal_adjacent(sg, COLLAPSE_RTOL * g.arrays[-1])
    mt = compute_merge_tree(sg)
    return mt if normalize == "none" else shift_median_zero(mt, normalize)


def frame_trees(g: EmbeddedGraph, angles: tuple[float, ...]) -> list[MergeTree]:
    """Median-shifted merge trees of ``g`` at each angle, in angle order.

    A disconnected ``g`` is reduced to its largest component.  Connectivity
    does not depend on the angle, so the first angle's sweep decides it: a
    connected graph is never searched for components.
    """
    try:
        first = merge_tree_at(g, angles[0])
    except DisconnectedGraphError:
        g = largest_component(g)
        first = merge_tree_at(g, angles[0])
    return [first, *(merge_tree_at(g, omega) for omega in angles[1:])]


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

    Disconnected inputs are reduced to their largest component.  Per-frame
    values are sorted before aggregating so the result is independent of
    evaluation order; an even frame count uses the midpoint of the two
    central values for the median.
    """
    return median_or_mean(sorted(per_frame_distances(g, h, n_frames, tol)), avg, "avg")
