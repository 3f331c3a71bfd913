import numpy as np
import pytest

from abdkit.filtration import ScalarGraph
from abdkit.graph_io import EmbeddedGraph
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
