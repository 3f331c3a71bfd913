import math

import numpy as np
import pytest

from abdkit.filtration import ScalarGraph
from abdkit.graph_io import EmbeddedGraph, least_id_rows
from abdkit.merge_tree import MergeTree


def tree(values: dict[int, float], parent: dict[int, int]) -> MergeTree:
    t = MergeTree({k: float(v) for k, v in values.items()}, dict(parent))
    t.validate()
    return t


def scalar(values: dict[int, float], edges) -> ScalarGraph:
    return ScalarGraph.from_dict({k: float(v) for k, v in values.items()}, list(edges))


@pytest.fixture
def triangle() -> EmbeddedGraph:
    return EmbeddedGraph({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def random_embedded_graph(rng: np.random.Generator, max_vertices: int = 12) -> EmbeddedGraph:
    n = int(rng.integers(1, max_vertices + 1))
    vertices = {i: (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))) for i in range(n)}
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return EmbeddedGraph(vertices, edges)


def translated(g: EmbeddedGraph, dx: float, dy: float) -> EmbeddedGraph:
    """Rigid translation by (dx, dy)."""
    moved = {v: (x + dx, y + dy) for v, (x, y) in g.vertices.items()}
    return EmbeddedGraph(moved, g.edges)


def rotated(g: EmbeddedGraph, theta: float) -> EmbeddedGraph:
    """Rigid rotation about the origin by ``theta`` radians."""
    c, s = math.cos(theta), math.sin(theta)
    moved = {v: (c * x - s * y, s * x + c * y) for v, (x, y) in g.vertices.items()}
    return EmbeddedGraph(moved, g.edges)


def connected_components(g: EmbeddedGraph) -> list[list[int]]:
    """Connected components as vertex-id lists, members and components in vertex order."""
    ids, _, _, eu, ev, _ = g.arrays
    comps: dict[int, list[int]] = {}
    for r, v in zip(least_id_rows(ids, eu, ev).tolist(), ids.tolist()):
        comps.setdefault(r, []).append(v)
    return list(comps.values())


def adjacency(sg: ScalarGraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in sg.ids.tolist()}
    for u, v in sg.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def reference_sweep(sg: ScalarGraph) -> MergeTree:
    """Reference for compute_merge_tree: every vertex swept in (value, id)
    order over dicts; node ids, values, dict order and refusals must match."""
    if sg.n_vertices == 0:
        raise ValueError("empty scalar graph")
    values = sg.values
    adj = adjacency(sg)
    comp: dict[int, int] = {}
    top: dict[int, int] = {}
    parent: dict[int, int] = {}
    absorbed: dict[int, int] = {}

    def find(v: int) -> int:
        while comp[v] != v:
            v = comp[v]
        return v

    for v in sorted(values, key=lambda v: (values[v], v)):
        value = values[v]
        lower = set()
        for u in adj[v]:
            if u in comp:
                if values[u] == value:
                    raise ValueError(
                        f"adjacent equal values at edge ({min(u, v)}, {max(u, v)}); "
                        "run collapse_equal_adjacent first"
                    )
                lower.add(find(u))
        if len(lower) == 1:
            comp[v] = lower.pop()
            continue
        comp[v] = parent[v] = top[v] = v
        for r in lower:
            t = top.pop(r)
            if values[t] == value:
                absorbed[t] = v
            else:
                parent[t] = v
            comp[r] = v
    if len(top) != 1:
        raise ValueError("scalar graph is disconnected; pass the largest component")

    def resolve(p: int) -> int:
        while p in absorbed:
            p = absorbed[p]
        return p

    ordered = sorted((n for n in parent if n not in absorbed), key=lambda n: (values[n], n))
    return MergeTree({n: values[n] for n in ordered}, {n: resolve(parent[n]) for n in ordered})
