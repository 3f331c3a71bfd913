import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.abd import (
    average_branching_distance,
    frame_angles,
    frame_trees,
    merge_tree_at,
    per_frame_distances,
)
from abdkit.merge_tree import median_or_mean, tree_to_dict
from abdkit.fixtures import indistinguishable_pair, graph_counterexample
from abdkit.graph_io import MAX_COORDINATE_SUM, EmbeddedGraph
from abdkit.oracles import is_isomorphic
from abdkit.synth import blob, comb, convex_polygon, make_shape, star

from conftest import random_embedded_graph


def test_frame_angles_single():
    assert frame_angles(1) == (math.pi / 2,)


def test_frame_angles_four():
    angles = frame_angles(4)
    assert isinstance(angles, tuple)
    assert angles == pytest.approx((math.pi / 2, math.pi, 3 * math.pi / 2, 0.0))


def test_frame_angles_spacing():
    angles = frame_angles(10)
    assert len(angles) == 10
    gap = 2 * math.pi / 10
    for a, b in zip(angles, angles[1:]):
        assert (b - a) % (2 * math.pi) == pytest.approx(gap, abs=1e-12)
    assert all(0.0 <= a < 2 * math.pi for a in angles)


def test_frame_angles_zero_rejected():
    with pytest.raises(ValueError):
        frame_angles(0)


def test_self_distance_zero(rng):
    for make in (star, comb):
        g = make(rng)
        assert average_branching_distance(g, g, n_frames=4) == 0.0


def test_convex_polygons_distance_zero(rng):
    tri = convex_polygon(rng, 3)
    hexagon = convex_polygon(rng, 6)
    assert average_branching_distance(tri, hexagon, n_frames=8) == 0.0


def test_graph_triple_values_and_triangle_violation():
    g, h, j = graph_counterexample()
    dgh = average_branching_distance(g, h, n_frames=1)
    dgj = average_branching_distance(g, j, n_frames=1)
    dhj = average_branching_distance(h, j, n_frames=1)
    assert (dgh, dgj, dhj) == (6.5, 2.5, 3.0)
    assert dgh > dgj + dhj


def test_indistinguishable_positiveness_failure():
    a, b = indistinguishable_pair()
    assert average_branching_distance(a, b, n_frames=10) == 0.0
    assert not is_isomorphic(a, b)


def test_symmetry(rng):
    for _ in range(5):
        g = random_embedded_graph(rng, max_vertices=8)
        h = random_embedded_graph(rng, max_vertices=8)
        dgh = average_branching_distance(g, h, n_frames=4)
        assert dgh == average_branching_distance(h, g, n_frames=4) >= 0.0


def test_mean_aggregation(rng):
    g, h = blob(rng), blob(rng)
    per = sorted(per_frame_distances(g, h, 4))
    med = average_branching_distance(g, h, n_frames=4, avg="median")
    mean = average_branching_distance(g, h, n_frames=4, avg="mean")
    assert med == pytest.approx((per[1] + per[2]) / 2)
    assert mean == pytest.approx(sum(per) / 4)


def _scaled(g: EmbeddedGraph, s: float) -> EmbeddedGraph:
    return EmbeddedGraph({v: (x * s, y * s) for v, (x, y) in g.vertices.items()}, list(g.edges))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_at_coordinate_limit():
    # 100 per-frame values near float max / 4 overflow a plain sum; scaling
    # by a power of two is exact, so the mean is the scaled-down run's, scaled up
    m = MAX_COORDINATE_SUM
    ring = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = EmbeddedGraph({0: (m, 0.0), 1: (-m / 2, m / 2), 2: (0.0, -m), 3: (m / 4, -m / 2)}, ring)
    h = EmbeddedGraph({0: (0.0, m), 1: (m / 2, -m / 2), 2: (-m, 0.0), 3: (m / 4, m / 4)}, ring)
    mean = average_branching_distance(g, h, n_frames=100, avg="mean")
    small = average_branching_distance(_scaled(g, 2.0**-20), _scaled(h, 2.0**-20), 100, "mean")
    assert 0.0 < mean == math.ldexp(small, 20) < m


@given(a=st.sampled_from(["star", "comb", "zigzag", "blob"]),
       b=st.sampled_from(["star", "comb", "zigzag", "blob"]),
       seed=st.integers(0, 2**32 - 1), e=st.integers(-300, 300))
@settings(max_examples=150, deadline=None)
def test_abd_scales_linearly(a, b, seed, e):
    # the collapse tolerance follows each graph's extent, so no scale
    # collapses more or less of a graph: ABD(sG, sH) = s ABD(G, H)
    rng = np.random.default_rng(seed)
    g, h = make_shape(a, rng), make_shape(b, rng)
    s = 10.0**e
    d = s * average_branching_distance(g, h, n_frames=4)
    assert abs(average_branching_distance(_scaled(g, s), _scaled(h, s), n_frames=4) - d) <= 1e-12 * d


def test_bad_avg(rng):
    g = blob(rng)
    with pytest.raises(ValueError, match="unknown avg"):
        average_branching_distance(g, g, n_frames=2, avg="mode")


def test_rotation_by_frame_multiple_invariance(rng):
    n = 6
    for _ in range(3):
        g = comb(rng)
        h = star(rng)
        base = average_branching_distance(g, h, n_frames=n)
        theta = 2 * math.pi / n
        rotated = average_branching_distance(g.rotated(theta), h.rotated(theta), n_frames=n)
        assert rotated == pytest.approx(base, abs=1e-9)


def test_translation_invariance(rng):
    for _ in range(3):
        g = comb(rng)
        h = star(rng)
        base = average_branching_distance(g, h, n_frames=5)
        moved = average_branching_distance(
            g.translated(3.7, -1.2), h.translated(-0.4, 2.9), n_frames=5
        )
        assert moved == pytest.approx(base, abs=1e-9)


def test_disconnected_uses_largest_component():
    # a W path plus a far-away stray edge; the stray must be ignored
    w = EmbeddedGraph(
        {0: (0, 0.0), 1: (1, 5.0), 2: (2, 1.0), 3: (3, 6.0), 4: (4, 2.0),
         10: (50, 0.0), 11: (51, 1.0)},
        [(0, 1), (1, 2), (2, 3), (3, 4), (10, 11)],
    )
    w_only = EmbeddedGraph(
        {0: (0, 0.0), 1: (1, 5.0), 2: (2, 1.0), 3: (3, 6.0), 4: (4, 2.0)},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )
    assert average_branching_distance(w, w_only, n_frames=3) == 0.0


def test_per_frame_leaf_guard_names_frame(rng):
    g, h = comb(rng, teeth=21), comb(rng, teeth=21)
    refusal = r"merge tree has \d+ leaves; branching_distance is limited to 20"
    with pytest.raises(ValueError, match=refusal) as err:
        per_frame_distances(g, h, 1)
    assert f"frame 0 (angle {math.pi / 2!r})" in str(err.value)


def test_fifteen_leaf_comb_pair_answered():
    # the benchmark's guard probe pair, refused while the limit was 12 leaves
    rng = np.random.default_rng([13, 0])
    g, h = comb(rng, teeth=13), comb(rng, teeth=13)
    assert merge_tree_at(g, math.pi / 2).n_leaves == 15
    assert per_frame_distances(g, h, 1) == [0.1259187655143591]


def test_merge_tree_at_median_zero(rng):
    g = comb(rng)
    for omega in frame_angles(5):
        mt = merge_tree_at(g, omega)
        assert float(np.median(list(mt.values.values()))) == pytest.approx(0.0, abs=1e-12)


def test_median_aggregation_matches_numpy(rng):
    # zeros and repeats, as convex shapes and shared trees produce
    for _ in range(400):
        pool = [0.0, 0.0, *rng.uniform(0.0, 5.0, 3).tolist(), float(rng.integers(1, 4))]
        values = sorted(rng.choice(pool, int(rng.integers(1, 13))).tolist())
        assert repr(median_or_mean(values, "median")) == repr(float(np.median(values)))


def test_frame_trees_disconnected_takes_largest_component_with_tie_rule():
    # two 3-vertex components: the one holding the smaller minimum id (-5) wins,
    # whatever the vertex order; its first sweep is what finds the split
    g = EmbeddedGraph(
        {0: (0.0, 0.0), 1: (1.0, 3.0), 2: (2.0, 1.0), 7: (10.0, 2.0), -5: (11.0, 0.5), 8: (12.0, 4.0)},
        [(0, 1), (1, 2), (7, -5), (-5, 8)],
    )
    winner = EmbeddedGraph({7: (10.0, 2.0), -5: (11.0, 0.5), 8: (12.0, 4.0)}, [(7, -5), (-5, 8)])
    angles = frame_angles(5)
    got = [tree_to_dict(t) for t in frame_trees(g, angles)]
    assert got == [tree_to_dict(t) for t in frame_trees(winner, angles)]
    assert got == [tree_to_dict(merge_tree_at(winner, w)) for w in angles]


def _integer_graph(rng: np.random.Generator) -> EmbeddedGraph:
    # small integer coordinates: the cardinal frames see many exact ties
    n = int(rng.integers(2, 10))
    vertices = {i: (float(rng.integers(-3, 4)), float(rng.integers(-3, 4))) for i in range(n)}
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]  # connected
    edges += [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(n // 2)]
    return EmbeddedGraph(vertices, edges)


def _relabelled(g: EmbeddedGraph, rng: np.random.Generator) -> EmbeddedGraph:
    """The same graph under random non-contiguous ids, vertex order and edge order."""
    new_ids = rng.choice(np.arange(-500, 500), g.n_vertices, replace=False).tolist()
    name = dict(zip(g.vertices, new_ids))
    order = rng.permutation(g.n_vertices).tolist()
    old = list(g.vertices)
    vertices = {name[old[i]]: g.vertices[old[i]] for i in order}
    edges = [(name[u], name[v]) for u, v in g.edges]
    return EmbeddedGraph(vertices, [edges[i] for i in rng.permutation(len(edges))])


def test_vertex_relabelling_invariance(rng):
    # the collapse keeps each tied set's least id and the sweep orders by
    # (value, id), so ids only name nodes: every frame's distance is the same
    # to the bit under any relabelling
    for _ in range(100):
        g, h = _integer_graph(rng), _integer_graph(rng)
        rg, rh = _relabelled(g, rng), _relabelled(h, rng)
        for n_frames in (1, 4):
            assert (repr(per_frame_distances(rg, rh, n_frames))
                    == repr(per_frame_distances(g, h, n_frames)))
