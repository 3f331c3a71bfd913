"""Direction transform: embedded graph + angle -> scalar-valued graph.

For an angle ``omega`` every vertex gets the value ``x*cos(omega) +
y*sin(omega)``, i.e. the signed magnitude of the projection of its position
onto the unit vector at that angle.  At ``omega = pi/2`` this is just the
y-coordinate.  Adjacent vertices with (near-)equal values are contracted
before merge-tree construction so every edge has a well-defined lower and
upper endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph_io import EmbeddedGraph

__all__ = ["ScalarGraph", "direction_filter", "collapse_equal_adjacent", "DEFAULT_COLLAPSE_TOL"]

# Absolute tolerance for treating adjacent values as equal.  Floating-point
# rotations rarely produce exact ties; tol=0 recovers exact-tie semantics.
DEFAULT_COLLAPSE_TOL = 1e-9


@dataclass
class ScalarGraph:
    """A graph with one real value per vertex, for a fixed direction."""

    values: dict[int, float]
    edges: list[tuple[int, int]]

    @property
    def n_vertices(self) -> int:
        return len(self.values)

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.values}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        if not self.values:
            return False
        adj = self.neighbors()
        seen = {next(iter(self.values))}
        stack = list(seen)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.values)


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
    values = {v: x * c + y * s for v, (x, y) in g.vertices.items()}
    return ScalarGraph(values, list(g.edges))


def collapse_equal_adjacent(sg: ScalarGraph, tol: float = DEFAULT_COLLAPSE_TOL) -> ScalarGraph:
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
    # a self-loop is no tie: a pass drops it but contracts nothing
    while any(u != v and abs(current.values[u] - current.values[v]) <= tol
              for u, v in current.edges):
        current = _collapse_once(current, tol)
    return current


def _collapse_once(sg: ScalarGraph, tol: float) -> ScalarGraph:
    parent = {v: v for v in sg.values}

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(u: int, v: int) -> None:
        ru, rv = find(u), find(v)
        if ru == rv:
            return
        # keep the smaller id as representative
        if ru > rv:
            ru, rv = rv, ru
        parent[rv] = ru

    for u, v in sg.edges:
        if abs(sg.values[u] - sg.values[v]) <= tol:
            union(u, v)

    values = {v: sg.values[v] for v in sg.values if find(v) == v}
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in sg.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        if key not in seen:
            seen.add(key)
            edges.append(key)
    return ScalarGraph(values, edges)
