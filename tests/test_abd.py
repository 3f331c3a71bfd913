import math

import numpy as np
import pytest

from abdkit.abd import (
    _aggregate,
    average_branching_distance,
    frame_angles,
    merge_tree_at,
    per_frame_distances,
)
from abdkit.fixtures import indistinguishable_pair, graph_counterexample
from abdkit.graph_io import EmbeddedGraph, is_isomorphic
from abdkit.synth import blob, comb, convex_polygon, star

from conftest import random_embedded_graph


def test_frame_angles_single():
    fs = frame_angles(1)
    assert fs.n == 1
    assert fs.angles == (math.pi / 2,)


def test_frame_angles_four():
    fs = frame_angles(4)
    assert fs.angles == pytest.approx((math.pi / 2, math.pi, 3 * math.pi / 2, 0.0))


def test_frame_angles_spacing():
    fs = frame_angles(10)
    assert fs.n == len(fs.angles) == 10
    gap = 2 * math.pi / 10
    for a, b in zip(fs.angles, fs.angles[1:]):
        assert (b - a) % (2 * math.pi) == pytest.approx(gap, abs=1e-12)
    assert all(0.0 <= a < 2 * math.pi for a in fs.angles)


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
    for omega in frame_angles(5).angles:
        mt = merge_tree_at(g, omega)
        assert float(np.median(list(mt.values.values()))) == pytest.approx(0.0, abs=1e-12)


def test_median_aggregation_matches_numpy(rng):
    # zeros and repeats, as convex shapes and shared trees produce
    for _ in range(400):
        pool = [0.0, 0.0, *rng.uniform(0.0, 5.0, 3).tolist(), float(rng.integers(1, 4))]
        values = sorted(rng.choice(pool, int(rng.integers(1, 13))).tolist())
        assert repr(_aggregate(values, "median")) == repr(float(np.median(values)))
