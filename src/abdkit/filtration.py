"""Direction transform: embedded graph + angle -> scalar-valued graph.

For an angle ``omega`` every vertex gets the value ``x*cos(omega) +
y*sin(omega)``, i.e. the signed magnitude of the projection of its position
onto the unit vector at that angle.  At ``omega = pi/2`` this is just the
y-coordinate.  Adjacent vertices with (near-)equal values are contracted
before merge-tree construction so every edge has a well-defined lower and
upper endpoint.

A scalar graph is stored only as index arrays: the vertex ids, one value
per vertex, and each edge's endpoints as row indices.  An embedded graph is
index arrays too (ids, coordinate columns, edge rows and its extent, built
when it is loaded or made), so every direction computes one value column
and shares the rest.  :func:`direction_values` computes the columns of
several directions as one (frames x vertices) stack, one product
``c[:, None] * xs + s[:, None] * ys``; :func:`direction_filter` is its
one-direction case.  :func:`tie_mask` tests every edge of every row for a
tie in one vectorised comparison, so one test tells which frames of a
stack need the collapse.  The collapse contracts the rows with the
union-find that finds components, ``graph_io.least_id_rows``; the sweep
reads the arrays.  The id -> value dict and the edge list are views,
derived on request for the oracles and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph_io import EmbeddedGraph, least_id_rows

__all__ = ["ScalarGraph", "direction_values", "direction_filter", "tie_mask",
           "collapse_equal_adjacent"]


@dataclass(eq=False)
class ScalarGraph:
    """A graph with one real value per vertex, for a fixed direction.

    ``ids[i]`` is the id of row ``i`` and ``column[i]`` its value; edge ``k``
    joins rows ``eu[k]`` and ``ev[k]``.  :meth:`from_dict` builds one from an
    id -> value dict and an edge list of id pairs; :attr:`values` and
    :attr:`edges` give them back, built anew on every access.
    """

    ids: np.ndarray
    column: np.ndarray
    eu: np.ndarray
    ev: np.ndarray

    @classmethod
    def from_dict(cls, values: dict[int, float], edges: list[tuple[int, int]]) -> "ScalarGraph":
        return cls(np.array(list(values)), np.fromiter(values.values(), float, len(values)),
                   *_edge_rows(values, edges))

    @property
    def n_vertices(self) -> int:
        return len(self.ids)

    @property
    def values(self) -> dict[int, float]:
        return dict(zip(self.ids.tolist(), self.column.tolist()))

    @property
    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.ids[self.eu].tolist(), self.ids[self.ev].tolist()))


def _edge_rows(vertices: dict, edges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    row = {v: i for i, v in enumerate(vertices)}
    rows = np.fromiter(map(row.__getitem__, chain.from_iterable(edges)), np.intp, 2 * len(edges))
    return rows[0::2], rows[1::2]


def _snap(t: float) -> float:
    """Clean up trig noise so cardinal directions project exactly."""
    if abs(t) < 1e-15:
        return 0.0
    if abs(abs(t) - 1.0) < 1e-15:
        return math.copysign(1.0, t)
    return t


def direction_values(g: EmbeddedGraph, angles: tuple[float, ...]) -> np.ndarray:
    """Vertex values at each angle (radians), one row per angle.

    Row ``f`` holds ``x(v)*cos(angles[f]) + y(v)*sin(angles[f])`` for every
    vertex, in vertex order; at ``pi/2`` this is exactly the y-coordinate.
    A non-finite angle is rejected.
    """
    for omega in angles:
        if not math.isfinite(omega):
            raise ValueError(f"angle {omega!r} is not finite")
    cs = np.array([(_snap(math.cos(omega)), _snap(math.sin(omega))) for omega in angles])
    cs = cs.reshape(-1, 2)  # one (cos, sin) row per angle, none for no angle
    _, xs, ys = g.arrays[:3]
    # a multiply and an add, never fused: x*c + y*s to the bit in every row
    return cs[:, :1] * xs + cs[:, 1:] * ys


def direction_filter(g: EmbeddedGraph, omega: float) -> ScalarGraph:
    """Project every vertex onto the direction at angle ``omega`` (radians):
    the one-angle case of :func:`direction_values`, as a scalar graph."""
    ids, _, _, eu, ev, _ = g.arrays
    return ScalarGraph(ids, direction_values(g, (omega,))[0], eu, ev)


def collapse_equal_adjacent(sg: ScalarGraph, tol: float) -> ScalarGraph:
    """Contract adjacent vertices whose values differ by at most ``tol``.

    Each maximal set of vertices connected through such edges becomes a
    single vertex, keeping the minimum id in the set and that vertex's
    value.  Parallel edges produced by the contraction are deduplicated and
    loops dropped.  The contraction is iterated to a fixed point so the
    output never has an edge whose endpoint values differ by <= tol; a
    single pass can leave one behind when a group's representative value
    drifts within tolerance of a neighbor it was not directly tied to.  A
    graph with no such edge is returned as is, not copied.
    """
    if tol < 0:
        raise ValueError("tol must be >= 0")
    current, tie = sg, _ties(sg, tol)
    while tie.any():
        current = _collapse_once(current, tie)
        tie = _ties(current, tol)
    return current


def tie_mask(values: np.ndarray, eu: np.ndarray, ev: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the edges whose endpoint values differ by at most ``tol``.

    ``values`` is one value column, or a stack of them with one row per
    frame, which gives one mask row per frame.  A self-loop is a tie here;
    an embedded graph has none.
    """
    return np.abs(values.take(eu, -1) - values.take(ev, -1)) <= tol


def _ties(sg: ScalarGraph, tol: float) -> np.ndarray:
    # a self-loop is no tie: a pass drops it but contracts nothing
    return tie_mask(sg.column, sg.eu, sg.ev, tol) & (sg.eu != sg.ev)


def _collapse_once(sg: ScalarGraph, tie: np.ndarray) -> ScalarGraph:
    # one contraction round over the edges that ``tie`` (``_ties`` of sg) marks
    ids, eu, ev = sg.ids, sg.eu, sg.ev
    rep = least_id_rows(ids, eu[tie], ev[tie])
    keep = rep == np.arange(len(ids))  # representatives, in their original row order
    new_row = (np.cumsum(keep) - 1)[rep]
    a, b = new_row[eu], new_row[ev]
    a, b = a[a != b], b[a != b]
    kept_ids = ids[keep]
    flip = kept_ids[a] > kept_ids[b]  # orient each edge as (smaller id, larger id)
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)
    _, first = np.unique(lo * len(kept_ids) + hi, return_index=True)  # index of first occurrence
    first.sort()
    return ScalarGraph(kept_ids, sg.column[keep], lo[first], hi[first])
