import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.filtration import ScalarGraph, _snap, collapse_equal_adjacent, direction_filter
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
    out = collapse_equal_adjacent(sg)
    assert out.values == sg.values
    assert out.edges == sg.edges


def test_collapse_returns_input_without_tied_edge():
    sg = scalar({0: 0.0, 1: 1.0, 2: 2.0}, [(0, 1), (1, 2)])
    assert collapse_equal_adjacent(sg) is sg


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
    sg = ScalarGraph({0: 0.5, 1: 0.0, 2: 0.9}, [(0, 1), (1, 2)])
    out = collapse_equal_adjacent(sg, 0.5)
    for u, v in out.edges:
        assert abs(out.values[u] - out.values[v]) > 0.5


def test_collapse_idempotent(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        values = {i: float(rng.integers(0, 4)) for i in range(n)}
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        sg = ScalarGraph(values, edges)
        once = collapse_equal_adjacent(sg, 0.0)
        twice = collapse_equal_adjacent(once, 0.0)
        assert once.values == twice.values
        assert once.edges == twice.edges


def test_collapse_identity_on_generic(rng):
    for _ in range(20):
        g = random_embedded_graph(rng)
        sg = direction_filter(g, float(rng.uniform(0, 2 * math.pi)))
        if any(sg.values[u] == sg.values[v] for u, v in sg.edges):
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
    assert first.arrays[0] is second.arrays[0] is arrays[0]  # ids shared, values per angle
    assert repr(second.arrays[1].tolist()) == repr(list(second.values.values()))


def test_collapse_tie_test_matches_scalar_predicate(rng):
    for _ in range(300):
        n = int(rng.integers(1, 10))
        values = {i: float(rng.integers(0, 4)) * 0.5 + float(rng.choice([0.0, 1e-10, 0.3]))
                  for i in range(n)}
        edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(n)]
        sg = ScalarGraph(values, edges)
        for tol in (0.0, 1e-9, 0.25):
            tie = any(u != v and abs(values[u] - values[v]) <= tol for u, v in edges)
            assert (collapse_equal_adjacent(sg, tol) is not sg) == tie


def test_collapse_self_loop_is_no_tie():
    sg = ScalarGraph({0: 1.0, 1: 2.0}, [(0, 0), (0, 1)])
    assert collapse_equal_adjacent(sg, 0.5) is sg
