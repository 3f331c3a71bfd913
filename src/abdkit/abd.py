"""Average branching distance between embedded graphs over rotation frames.

Both graphs are rotated simultaneously: for each of ``n`` evenly spaced
directions (starting at pi/2, the vertical) the merge trees are built,
median-shifted to 0, and compared with the branching distance.  The ABD is
the median (default) or mean of the per-frame distances.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .branching import branching_distance
from .filtration import DEFAULT_COLLAPSE_TOL, collapse_equal_adjacent, direction_filter
from .graph_io import EmbeddedGraph, largest_component
from .merge_tree import DisconnectedGraphError, MergeTree, compute_merge_tree, shift_median_zero

__all__ = [
    "FrameSet",
    "frame_angles",
    "merge_tree_at",
    "frame_trees",
    "per_frame_distances",
    "average_branching_distance",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FrameSet:
    """n evenly spaced angles ``pi/2 + 2*pi*i/n``, wrapped into [0, 2*pi)."""

    n: int
    angles: tuple[float, ...]


def frame_angles(n: int) -> FrameSet:
    """Evenly spaced rotation frames starting at the vertical direction."""
    if n < 1:
        raise ValueError("frame count must be >= 1")
    angles = tuple((math.pi / 2.0 + TWO_PI * i / n) % TWO_PI for i in range(n))
    return FrameSet(n, angles)


def merge_tree_at(
    g: EmbeddedGraph,
    omega: float,
    collapse_tol: float = DEFAULT_COLLAPSE_TOL,
    normalize: str = "median",
) -> MergeTree:
    """Filtration pipeline for one direction: project, collapse, build, shift.

    ``normalize`` is ``'median'``, ``'mean'`` or ``'none'`` (no shift).
    """
    sg = collapse_equal_adjacent(direction_filter(g, omega), collapse_tol)
    mt = compute_merge_tree(sg)
    return mt if normalize == "none" else shift_median_zero(mt, normalize)


def frame_trees(
    g: EmbeddedGraph,
    angles: tuple[float, ...],
    collapse_tol: float = DEFAULT_COLLAPSE_TOL,
) -> list[MergeTree]:
    """Median-shifted merge trees of ``g`` at each angle, in angle order.

    A disconnected ``g`` is reduced to its largest component.  Connectivity
    does not depend on the angle, so the first angle's sweep decides it: a
    connected graph is never searched for components.
    """
    try:
        first = merge_tree_at(g, angles[0], collapse_tol)
    except DisconnectedGraphError:
        g = largest_component(g)
        first = merge_tree_at(g, angles[0], collapse_tol)
    return [first, *(merge_tree_at(g, omega, collapse_tol) for omega in angles[1:])]


def per_frame_distances(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    n_frames: int,
    mode: str = "exact",
    tol: float = 1e-6,
    collapse_tol: float = DEFAULT_COLLAPSE_TOL,
) -> list[float]:
    """Branching distance per frame, in frame order (unsorted).

    A distance error such as the leaf guard is re-raised naming the frame.
    """
    angles = frame_angles(n_frames).angles
    trees = zip(frame_trees(g, angles, collapse_tol), frame_trees(h, angles, collapse_tol))
    out = []
    for i, (omega, (mg, mh)) in enumerate(zip(angles, trees)):
        try:
            out.append(branching_distance(mg, mh, mode=mode, tol=tol))
        except ValueError as exc:
            raise ValueError(f"frame {i} (angle {omega!r}): {exc}") from exc
    return out


def average_branching_distance(
    g: EmbeddedGraph,
    h: EmbeddedGraph,
    n_frames: int = 10,
    avg: str = "median",
    mode: str = "exact",
    tol: float = 1e-6,
    collapse_tol: float = DEFAULT_COLLAPSE_TOL,
) -> float:
    """Median (or mean) of the per-frame branching distances.

    Disconnected inputs are reduced to their largest component.  Per-frame
    values are sorted before aggregating so the result is independent of
    evaluation order; an even frame count uses the midpoint of the two
    central values for the median.
    """
    dists = sorted(per_frame_distances(g, h, n_frames, mode, tol, collapse_tol))
    return _aggregate(dists, avg)


def _aggregate(values: list[float], avg: str) -> float:
    """Median or mean; ``statistics.median`` is bit-identical to ``np.median``
    here and far cheaper per call, but ``np.mean`` stays: its pairwise sum
    differs from a sequential one from 9 values on."""
    if avg == "median":
        return float(statistics.median(values))
    if avg == "mean":
        return float(np.mean(values))
    raise ValueError(f"unknown avg {avg!r}, expected 'median' or 'mean'")
