"""Synthetic embedded graphs and random test inputs.

Shape classes (noisy stars, combs, zigzags, smooth blobs, convex polygons)
stand in for the letter/skeleton data sets used in clustering experiments,
so everything runs without external downloads.  The random merge-tree and
scalar-graph generators feed the oracle-equivalence and property suites.
"""

from __future__ import annotations

import math

import numpy as np

from .filtration import ScalarGraph
from .graph_io import EmbeddedGraph
from .merge_tree import MergeTree

__all__ = [
    "convex_polygon",
    "star",
    "comb",
    "zigzag",
    "blob",
    "SHAPE_CLASSES",
    "make_shape",
    "shape_dataset",
    "random_merge_tree",
    "random_connected_scalar_graph",
]


def convex_polygon(rng: np.random.Generator, n_vertices: int) -> EmbeddedGraph:
    """Strictly convex polygon: n distinct points on a random ellipse."""
    if n_vertices < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_vertices))
        if np.all(np.diff(thetas) > 1e-6):
            break
    a = rng.uniform(1.0, 3.0)
    b = rng.uniform(1.0, 3.0)
    tilt = rng.uniform(0.0, math.pi)
    cx, cy = rng.uniform(-1.0, 1.0, 2)
    ct, st = math.cos(tilt), math.sin(tilt)
    vertices = {}
    for i, t in enumerate(thetas):
        x, y = a * math.cos(t), b * math.sin(t)
        vertices[i] = (cx + ct * x - st * y, cy + st * x + ct * y)
    edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
    return EmbeddedGraph(vertices, edges)


def star(rng: np.random.Generator, arms: int = 5, jitter: float = 0.08) -> EmbeddedGraph:
    """Central vertex with radial arms of two segments each."""
    vertices = {0: _jit(rng, 0.0, 0.0, jitter)}
    edges = []
    nid = 1
    # instances share alignment: simultaneous rotation assumes it
    phase = rng.uniform(-0.1, 0.1)
    for k in range(arms):
        ang = phase + 2.0 * math.pi * k / arms
        r1, r2 = 1.2, 2.4
        mid = nid
        vertices[mid] = _jit(rng, r1 * math.cos(ang), r1 * math.sin(ang), jitter)
        tip = nid + 1
        vertices[tip] = _jit(rng, r2 * math.cos(ang), r2 * math.sin(ang), jitter)
        edges += [(0, mid), (mid, tip)]
        nid += 2
    return EmbeddedGraph(vertices, edges)


def comb(rng: np.random.Generator, teeth: int = 4, jitter: float = 0.08) -> EmbeddedGraph:
    """Horizontal spine with downward teeth."""
    vertices = {}
    edges = []
    spine = []
    for i in range(teeth + 2):
        vertices[i] = _jit(rng, i - (teeth + 1) / 2.0, 1.0, jitter)
        spine.append(i)
        if i:
            edges.append((i - 1, i))
    nid = teeth + 2
    for i in range(1, teeth + 1):
        x = vertices[i][0]
        vertices[nid] = _jit(rng, x, -1.2, jitter)
        edges.append((i, nid))
        nid += 1
    return EmbeddedGraph(vertices, edges)


def zigzag(rng: np.random.Generator, segments: int = 6, jitter: float = 0.08) -> EmbeddedGraph:
    """Path alternating between two heights."""
    vertices = {}
    edges = []
    for i in range(segments + 1):
        y = 1.1 if i % 2 else -1.1
        vertices[i] = _jit(rng, 0.8 * i - 0.4 * segments, y, jitter)
        if i:
            edges.append((i - 1, i))
    return EmbeddedGraph(vertices, edges)


def blob(rng: np.random.Generator, n_vertices: int = 24) -> EmbeddedGraph:
    """Smooth closed curve with gentle two- and three-lobed radial waves.

    Strong enough that most directions see a nontrivial merge tree (a
    fully convex curve would make every comparison trivially zero) while
    staying smooth, so the ABD varies slowly with the frame count.
    """
    amp2 = rng.uniform(0.25, 0.5)
    amp3 = rng.uniform(0.25, 0.5)
    if amp2 + amp3 > 0.85:  # keep the radius strictly positive
        scale = 0.85 / (amp2 + amp3)
        amp2 *= scale
        amp3 *= scale
    ph2, ph3 = rng.uniform(0.0, 2.0 * math.pi, 2)
    base = rng.uniform(1.5, 2.5)
    thetas = np.linspace(0.0, 2.0 * math.pi, n_vertices, endpoint=False)
    thetas = thetas + rng.uniform(0.0, 2.0 * math.pi / n_vertices)
    vertices = {}
    for i, t in enumerate(thetas):
        r = base * (1.0 + amp2 * math.cos(2 * t + ph2) + amp3 * math.cos(3 * t + ph3))
        vertices[i] = (r * math.cos(t), r * math.sin(t))
    edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
    return EmbeddedGraph(vertices, edges)


def _jit(rng: np.random.Generator, x: float, y: float, jitter: float) -> tuple[float, float]:
    return (x + rng.normal(0.0, jitter), y + rng.normal(0.0, jitter))


SHAPE_CLASSES = ("star", "comb", "zigzag", "blob", "polygon")


def make_shape(name: str, rng: np.random.Generator) -> EmbeddedGraph:
    if name == "star":
        return star(rng)
    if name == "comb":
        return comb(rng)
    if name == "zigzag":
        return zigzag(rng)
    if name == "blob":
        return blob(rng)
    if name == "polygon":
        return convex_polygon(rng, int(rng.integers(5, 31)))
    raise ValueError(f"unknown shape class {name!r}; choose from {SHAPE_CLASSES}")


def shape_dataset(
    classes: tuple[str, ...] = ("star", "comb", "zigzag"),
    per_class: int = 6,
    seed: int = 0,
) -> tuple[list[EmbeddedGraph], list[str]]:
    """Noisy instances of each class, with their class labels."""
    rng = np.random.default_rng(seed)
    graphs: list[EmbeddedGraph] = []
    labels: list[str] = []
    for name in classes:
        for _ in range(per_class):
            graphs.append(make_shape(name, rng))
            labels.append(name)
    return graphs, labels


def random_merge_tree(
    rng: np.random.Generator,
    max_leaves: int = 5,
    integer_values: bool = False,
) -> MergeTree:
    """Random valid tail-less merge tree with 1..max_leaves leaves.

    Leaves get random values; components are merged (two or three at a
    time) at values strictly above everything merged so far.
    """
    n_leaves = int(rng.integers(1, max_leaves + 1))
    if integer_values:
        vals = [float(v) for v in rng.integers(-20, 21, n_leaves)]
    else:
        vals = [round(float(v), 3) for v in rng.uniform(-10.0, 10.0, n_leaves)]
    values = {i: vals[i] for i in range(n_leaves)}
    parent = {i: i for i in range(n_leaves)}
    roots = list(range(n_leaves))
    nid = n_leaves
    top = max(vals) if vals else 0.0
    while len(roots) > 1:
        k = min(len(roots), int(rng.integers(2, 4)))
        picks = sorted(rng.choice(len(roots), size=k, replace=False), reverse=True)
        merged = [roots.pop(i) for i in picks]
        if integer_values:
            top = float(int(top) + int(rng.integers(1, 6)))
        else:
            top = round(top + float(rng.uniform(0.5, 3.0)), 3)
        values[nid] = top
        parent[nid] = nid
        for r in merged:
            parent[r] = nid
        roots.append(nid)
        nid += 1
    return MergeTree(values, parent)


def random_connected_scalar_graph(
    rng: np.random.Generator,
    max_vertices: int = 20,
    extra_edge_prob: float = 0.3,
) -> ScalarGraph:
    """Random connected scalar graph with distinct (generic) values."""
    n = int(rng.integers(1, max_vertices + 1))
    perm = rng.permutation(n * 3)[:n]  # distinct integers, then scaled
    values = {i: float(perm[i]) + round(float(rng.uniform(0, 0.4)), 6) for i in range(n)}
    edges = []
    for i in range(1, n):
        edges.append((int(rng.integers(0, i)), i))  # random spanning tree
    n_extra = int(rng.binomial(max(n - 1, 0), extra_edge_prob))
    for _ in range(n_extra):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.append((int(min(u, v)), int(max(u, v))))
    seen = set()
    dedup = []
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key not in seen:
            seen.add(key)
            dedup.append(key)
    return ScalarGraph.from_dict(values, dedup)
