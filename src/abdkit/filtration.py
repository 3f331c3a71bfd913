"""Direction transform: embedded graph + angle -> scalar-valued graph.

For an angle ``omega`` every vertex gets the value ``x*cos(omega) +
y*sin(omega)``, i.e. the signed magnitude of the projection of its position
onto the unit vector at that angle.  At ``omega = pi/2`` this is just the
y-coordinate.  Adjacent vertices with (near-)equal values are contracted
before merge-tree construction so every edge has a well-defined lower and
upper endpoint.

A scalar graph is stored only as index arrays: the vertex ids, one value
per vertex, and each edge's endpoints as row indices.  The first filtration
of an embedded graph stores its own arrays on it (ids, coordinate columns,
edge rows) and its extent, so every direction computes one value column and
shares the rest.  The collapse tests every edge for a tie in one vectorised
comparison and contracts the rows; the merge-tree sweep reads the same
arrays.  The id -> value dict and the edge list are views, derived on
request for the oracles and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph_io import EmbeddedGraph

__all__ = ["ScalarGraph", "direction_filter", "collapse_equal_adjacent"]


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


def graph_arrays(g: EmbeddedGraph) -> tuple:
    """``g.arrays``: (ids, xs, ys, u rows, v rows, extent), built on the first call.

    The extent is the larger of the x span and the y span.
    """
    if g.arrays is None:
        xy = np.fromiter(chain.from_iterable(g.vertices.values()), float, 2 * g.n_vertices)
        xs, ys = xy[0::2], xy[1::2]
        extent = float(max(np.ptp(xs), np.ptp(ys))) if g.n_vertices else 0.0
        g.arrays = (np.array(list(g.vertices)), xs, ys, *_edge_rows(g.vertices, g.edges), extent)
    return g.arrays


def _snap(t: float) -> float:
    """Clean up trig noise so cardinal directions project exactly."""
    if abs(t) < 1e-15:
        return 0.0
    if abs(abs(t) - 1.0) < 1e-15:
        return math.copysign(1.0, t)
    return t


def direction_filter(g: EmbeddedGraph, omega: float) -> ScalarGraph:
    """Project every vertex onto the direction at angle ``omega`` (radians).

    ``value(v) = x(v)*cos(omega) + y(v)*sin(omega)``; at ``omega = pi/2``
    this is exactly the y-coordinate.  A non-finite angle is rejected.
    """
    if not math.isfinite(omega):
        raise ValueError(f"angle {omega!r} is not finite")
    c, s = _snap(math.cos(omega)), _snap(math.sin(omega))
    ids, xs, ys, eu, ev, _ = graph_arrays(g)
    # a multiply and an add, never fused: x*c + y*s to the bit
    return ScalarGraph(ids, xs * c + ys * s, eu, ev)


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
    current = sg
    while _ties(current, tol).any():
        current = _collapse_once(current, tol)
    return current


def _ties(sg: ScalarGraph, tol: float) -> np.ndarray:
    """Mask of the edges whose endpoint values differ by at most ``tol``."""
    # a self-loop is no tie: a pass drops it but contracts nothing
    return (np.abs(sg.column[sg.eu] - sg.column[sg.ev]) <= tol) & (sg.eu != sg.ev)


def _collapse_once(sg: ScalarGraph, tol: float) -> ScalarGraph:
    ids, eu, ev = sg.ids, sg.eu, sg.ev
    n = len(ids)
    id_of = ids.tolist()
    parent = list(range(n))  # row -> row, over the tie edges only

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]  # path halving
            r = parent[r]
        return r

    tie = _ties(sg, tol)
    for u, v in zip(eu[tie].tolist(), ev[tie].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:  # the set's least id represents it
            if id_of[ru] > id_of[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
    rep = np.array(parent, dtype=np.intp)
    for _ in range((n - 1).bit_length()):  # pointer jumping: a path is shorter than n
        rep = rep[rep]
    keep = rep == np.arange(n)  # representatives, in their original row order
    new_row = (np.cumsum(keep) - 1)[rep]
    a, b = new_row[eu], new_row[ev]
    a, b = a[a != b], b[a != b]
    kept_ids = ids[keep]
    flip = kept_ids[a] > kept_ids[b]  # orient each edge as (smaller id, larger id)
    lo, hi = np.where(flip, b, a), np.where(flip, a, b)
    _, first = np.unique(lo * len(kept_ids) + hi, return_index=True)  # index of first occurrence
    first.sort()
    return ScalarGraph(kept_ids, sg.column[keep], lo[first], hi[first])
