import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.filtration import (
    ScalarGraph,
    _collapse_once,
    _snap,
    collapse_equal_adjacent,
    direction_filter,
)
from abdkit.graph_io import EmbeddedGraph

from conftest import random_embedded_graph, scalar

finite = st.floats(-1e6, 1e6, allow_nan=False)


def test_projection_is_y_at_half_pi():
    g = EmbeddedGraph({0: (3.0, 4.0)}, [])
    assert direction_filter(g, math.pi / 2).values[0] == 4.0


def test_projection_is_x_at_zero():
    g = EmbeddedGraph({0: (3.0, 4.0)}, [])
    assert direction_filter(g, 0.0).values[0] == 3.0


def test_projection_diagonal():
    g = EmbeddedGraph({0: (1.0, 1.0)}, [])
    assert direction_filter(g, math.pi / 4).values[0] == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_non_finite_angle_rejected(omega):
    g = EmbeddedGraph({0: (3.0, 4.0)}, [])
    with pytest.raises(ValueError, match=f"angle {omega!r} is not finite"):
        direction_filter(g, omega)


@given(x=finite, y=finite, omega=st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_projection_periodic(x, y, omega):
    g = EmbeddedGraph({0: (x, y)}, [])
    a = direction_filter(g, omega).values[0]
    b = direction_filter(g, omega + 2 * math.pi).values[0]
    assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(x), abs(y)))


def test_translation_shifts_by_projected_offset(rng):
    for _ in range(20):
        g = random_embedded_graph(rng)
        omega = float(rng.uniform(0, 2 * math.pi))
        dx, dy = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        offset = dx * math.cos(omega) + dy * math.sin(omega)
        before = direction_filter(g, omega).values
        after = direction_filter(g.translated(dx, dy), omega).values
        for v in g.vertices:
            assert after[v] == pytest.approx(before[v] + offset, abs=1e-9)


def test_collapse_equal_path():
    sg = scalar({0: 0.0, 1: 0.0, 2: 5.0}, [(0, 1), (1, 2)])
    out = collapse_equal_adjacent(sg, 0.0)
    assert out.values == {0: 0.0, 2: 5.0}
    assert out.edges == [(0, 2)]


def test_collapse_identity_when_distinct():
    sg = scalar({0: 0.0, 1: 1.0, 2: 2.0}, [(0, 1), (1, 2)])
    out = collapse_equal_adjacent(sg, 1e-9)
    assert out.values == sg.values
    assert out.edges == sg.edges


def test_collapse_returns_input_without_tied_edge():
    sg = scalar({0: 0.0, 1: 1.0, 2: 2.0}, [(0, 1), (1, 2)])
    assert collapse_equal_adjacent(sg, 1e-9) is sg


def test_collapse_full_triangle():
    sg = scalar({0: 0.0, 1: 0.0, 2: 0.0}, [(0, 1), (1, 2), (0, 2)])
    out = collapse_equal_adjacent(sg, 0.0)
    assert out.values == {0: 0.0}
    assert out.edges == []


def test_collapse_keeps_min_id_value():
    sg = scalar({3: 1.0, 5: 1.0, 9: 7.0}, [(3, 5), (5, 9)])
    out = collapse_equal_adjacent(sg, 0.0)
    assert out.values == {3: 1.0, 9: 7.0}


def test_collapse_transitive_groups():
    # 0 -- 0.5 -- 1.0 with tol 0.6: both edges qualify, whole chain contracts
    sg = scalar({0: 0.0, 1: 0.5, 2: 1.0}, [(0, 1), (1, 2)])
    out = collapse_equal_adjacent(sg, 0.6)
    assert out.n_vertices == 1


def test_collapse_fixed_point_guarantees_invariant():
    # one pass leaves reps 0.5 and 0.9 adjacent within tol; iteration fixes it
    sg = ScalarGraph.from_dict({0: 0.5, 1: 0.0, 2: 0.9}, [(0, 1), (1, 2)])
    out = collapse_equal_adjacent(sg, 0.5)
    for u, v in out.edges:
        assert abs(out.values[u] - out.values[v]) > 0.5


def test_collapse_idempotent(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        values = {i: float(rng.integers(0, 4)) for i in range(n)}
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        sg = ScalarGraph.from_dict(values, edges)
        once = collapse_equal_adjacent(sg, 0.0)
        twice = collapse_equal_adjacent(once, 0.0)
        assert once.values == twice.values
        assert once.edges == twice.edges


def test_collapse_identity_on_generic(rng):
    for _ in range(20):
        g = random_embedded_graph(rng)
        sg = direction_filter(g, float(rng.uniform(0, 2 * math.pi)))
        values = sg.values
        if any(values[u] == values[v] for u, v in sg.edges):
            continue  # astronomically unlikely, but stay honest
        out = collapse_equal_adjacent(sg, 0.0)
        assert out.values == sg.values
        assert set(out.edges) == set(sg.edges)


def test_negative_tol_rejected():
    with pytest.raises(ValueError):
        collapse_equal_adjacent(scalar({0: 0.0}, []), -1.0)


@given(coords=st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
       omega=st.sampled_from([0.0, math.pi / 2, math.pi, 1.5 * math.pi]) | st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_projection_bitwise_equals_scalar_formula(coords, omega):
    # the vectorised multiply and add give x*c + y*s to the bit, signed zeros included
    ids = [3 * i - 7 for i in range(len(coords))]
    g = EmbeddedGraph(dict(zip(ids, coords)), [(ids[i - 1], ids[i]) for i in range(1, len(ids))])
    c, s = _snap(math.cos(omega)), _snap(math.sin(omega))
    expected = {v: x * c + y * s for v, (x, y) in g.vertices.items()}
    assert repr(direction_filter(g, omega).values) == repr(expected)


def test_projection_reuses_graph_arrays(rng):
    g = random_embedded_graph(rng)
    assert g.arrays is None
    first = direction_filter(g, 0.3)
    arrays = g.arrays
    second = direction_filter(g, 2.0)
    assert g.arrays is arrays
    assert first.ids is second.ids is arrays[0]  # ids shared, values per angle
    assert first.eu is second.eu is arrays[3] and first.ev is second.ev is arrays[4]
    assert repr(second.column.tolist()) == repr(list(second.values.values()))


def test_collapse_tie_test_matches_scalar_predicate(rng):
    for _ in range(300):
        n = int(rng.integers(1, 10))
        values = {i: float(rng.integers(0, 4)) * 0.5 + float(rng.choice([0.0, 1e-10, 0.3]))
                  for i in range(n)}
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n)]
        sg = ScalarGraph.from_dict(values, edges)
        for tol in (0.0, 1e-9, 0.25):
            tie = any(u != v and abs(values[u] - values[v]) <= tol for u, v in edges)
            assert (collapse_equal_adjacent(sg, tol) is not sg) == tie


def test_collapse_self_loop_is_no_tie():
    sg = ScalarGraph.from_dict({0: 1.0, 1: 2.0}, [(0, 0), (0, 1)])
    assert collapse_equal_adjacent(sg, 0.5) is sg


def _reference_collapse_once(values: dict[int, float], edges, tol: float):
    """Reference for one collapse pass: the former dict contraction, over
    the id -> value dict and the edge list; returns both for the result."""
    parent = {v: v for v in values}

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

    for u, v in edges:
        if abs(values[u] - values[v]) <= tol:
            union(u, v)

    kept = {v: values[v] for v in values if find(v) == v}
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        key = (ru, rv) if ru < rv else (rv, ru)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return kept, out


def _reference_collapse(values: dict[int, float], edges, tol: float):
    while any(u != v and abs(values[u] - values[v]) <= tol for u, v in edges):
        values, edges = _reference_collapse_once(values, edges, tol)
    return values, edges


@st.composite
def tie_heavy_graphs(draw):
    """Non-contiguous, partly negative ids; few distinct values (signed zeros
    and near-ties among them); random edges, so self-loops and parallel
    edges in both orientations are common."""
    ids = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=14, unique=True))
    level = st.sampled_from([-1.0, -0.0, 0.0, 1e-10, 0.2, 0.5, 1.0])
    values = {v: draw(level) for v in ids}
    pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    return values, draw(st.lists(pairs, max_size=2 * len(ids)))


def _as_lists(values: dict[int, float], edges):
    return list(values), [repr(x) for x in values.values()], list(edges)


@given(graph=tie_heavy_graphs(), tol=st.sampled_from([0.0, 1e-9, 0.3]))
@settings(max_examples=300, deadline=None)
def test_collapse_matches_dict_reference(graph, tol):
    values, edges = graph
    sg = ScalarGraph.from_dict(values, edges)
    if any(u != v and abs(values[u] - values[v]) <= tol for u, v in edges):
        once = _collapse_once(sg, tol)
        assert _as_lists(once.values, once.edges) == _as_lists(
            *_reference_collapse_once(values, edges, tol))
    else:
        assert collapse_equal_adjacent(sg, tol) is sg
    out = collapse_equal_adjacent(sg, tol)
    assert _as_lists(out.values, out.edges) == _as_lists(*_reference_collapse(values, edges, tol))
