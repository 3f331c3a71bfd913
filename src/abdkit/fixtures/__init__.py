"""Frozen counterexample fixtures.

``tree_counterexample`` is a merge-tree triple whose branching distances
are 5, 3, 1 -- violating the triangle inequality.  ``graph_counterexample``
is an embedded-graph triple whose ABDs over the single frame pi/2 are
6.5, 2.5, 3 -- violating it again at the graph level.
``indistinguishable_pair`` is a pair of non-isomorphic convex shapes with
ABD 0, showing the distance cannot separate convex geometry.  The numeric
values were derived under the constraints of the corresponding optimal
edits and verified against the exhaustive-enumeration oracle before being
frozen here; tests re-check the frozen numbers but never re-derive them.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from ..graph_io import EmbeddedGraph, load_graph
from ..merge_tree import MergeTree, load_tree

__all__ = [
    "tree_counterexample",
    "graph_counterexample",
    "indistinguishable_pair",
    "fixture_path",
]


def fixture_path(name: str) -> Path:
    return Path(resources.files(__package__) / name)


def tree_counterexample() -> tuple[MergeTree, MergeTree, MergeTree]:
    """Merge trees X, Y, Z with d_B = 5, 3, 1 for (X,Y), (Y,Z), (X,Z)."""
    return tuple(load_tree(fixture_path(f"tree_triple_{name}.json")) for name in "xyz")


def graph_counterexample() -> tuple[EmbeddedGraph, EmbeddedGraph, EmbeddedGraph]:
    """Graphs G, H, J with d_A = 6.5, 2.5, 3 over the frame set {pi/2}."""
    return tuple(load_graph(fixture_path(f"graph_triple_{name}.json")) for name in "ghj")


def indistinguishable_pair() -> tuple[EmbeddedGraph, EmbeddedGraph]:
    """Two non-isomorphic convex polygons (triangle and square) with ABD 0."""
    tri = _regular_polygon(3)
    square = _regular_polygon(4)
    return tri, square


def _regular_polygon(k: int) -> EmbeddedGraph:
    vertices = {
        i: (math.cos(2.0 * math.pi * i / k), math.sin(2.0 * math.pi * i / k))
        for i in range(k)
    }
    edges = [(i, (i + 1) % k) for i in range(k)]
    return EmbeddedGraph(vertices, edges)
