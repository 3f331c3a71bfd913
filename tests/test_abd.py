import hashlib
import json
import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.abd import (
    COLLAPSE_RTOL,
    average_branching_distance,
    frame_angles,
    frame_trees,
    merge_tree_at,
    per_frame_distances,
)
from abdkit.filtration import collapse_equal_adjacent, direction_filter
from abdkit.merge_tree import (
    MAX_TREE_VALUE,
    MergeTree,
    median_or_mean,
    shift_median_zero,
    tree_to_dict,
)
from abdkit.fixtures import indistinguishable_pair, graph_counterexample
from abdkit.graph_io import MAX_COORDINATE_SUM, EmbeddedGraph, largest_component
from abdkit.oracles import is_isomorphic, merge_tree_oracle
from abdkit.synth import blob, comb, convex_polygon, make_shape, random_merge_tree, shape_dataset, star

from conftest import random_embedded_graph, reference_sweep, rotated, translated


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
        turned = average_branching_distance(rotated(g, theta), rotated(h, theta), n_frames=n)
        assert turned == pytest.approx(base, abs=1e-9)


def test_translation_invariance(rng):
    for _ in range(3):
        g = comb(rng)
        h = star(rng)
        base = average_branching_distance(g, h, n_frames=5)
        moved = average_branching_distance(
            translated(g, 3.7, -1.2), translated(h, -0.4, 2.9), n_frames=5
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


def reference_median_or_mean(values: list[float], mode: str) -> float:
    """A list aggregation on Python floats, in the given order: the reference
    for :func:`median_or_mean`, which sorts first, so it gets sorted values."""
    if mode == "median":
        return statistics.median([v + 0.0 for v in values])
    if max(map(abs, values)) <= sys.float_info.max / len(values):
        return float(np.mean(values))
    e = math.frexp(len(values))[1]
    return math.ldexp(float(np.mean(np.ldexp(values, -e))), e)


def aggregation_rows(rng, k: int, n_rows: int) -> np.ndarray:
    """Rows of ``k`` values: zeros of both signs, ties, spread values, rows
    past ``float max / k`` and rows just inside it, in no order."""
    rows = []
    for r in range(n_rows):
        kind = r % 4
        if kind == 0:  # ties and signed zeros, as convex shapes and shared trees give
            pool = [0.0, -0.0, -0.0, 1.0, 2.0, float(rng.integers(1, 4)), rng.uniform(0.0, 5.0)]
            row = rng.choice(pool, k)
        elif kind == 1:  # spread values of both signs; their sums round differently by order
            row = rng.uniform(-1.0, 1.0, k) * 10.0 ** rng.integers(-3, 4, k)
        elif kind == 2:  # past float max / k: the sum could overflow, so the row is scaled
            row = rng.uniform(0.6, 1.0, k) * sys.float_info.max * rng.choice([-1.0, 1.0], k)
        else:  # just inside float max / k
            row = np.full(k, sys.float_info.max / k) * rng.uniform(0.5, 1.0, k)
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("mode", ["median", "mean"])
def test_row_aggregation_matches_one_list_aggregation(mode):
    rng = np.random.default_rng(20)
    scaled = 0
    for k in range(1, 13):
        for n_rows in (1, 7, 240):
            rows = aggregation_rows(rng, k, n_rows)
            got = median_or_mean(rows, mode, "avg")
            assert got.shape == (n_rows,)
            expected = [reference_median_or_mean(sorted(row), mode) for row in rows.tolist()]
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]
            scaled += sum(max(map(abs, row)) > sys.float_info.max / k for row in rows.tolist())
        # a middle -0.0 row: the median turns it into 0.0, as np.median does
        zeros = np.full((1, k), -0.0)
        assert median_or_mean(zeros, mode)[0].hex() == reference_median_or_mean([-0.0] * k, mode).hex()
    assert scaled > 100
    rows = aggregation_rows(rng, 12, 2000)  # one large array: the mean sums each row alone
    expected = [reference_median_or_mean(sorted(row), mode) for row in rows.tolist()]
    assert [v.hex() for v in median_or_mean(rows, mode).tolist()] == [v.hex() for v in expected]
    with pytest.raises(ValueError, match="unknown avg 'middle', expected 'median' or 'mean'"):
        median_or_mean(rows, "middle", "avg")


@pytest.mark.parametrize("mode", ["median", "mean"])
def test_aggregation_does_not_depend_on_order(mode):
    # the mean's pairwise sum rounds by order, so median_or_mean sorts first
    rng = np.random.default_rng(28)
    for k in range(1, 13):
        rows = aggregation_rows(rng, k, 240)
        want = [v.hex() for v in median_or_mean(np.sort(rows, axis=1), mode).tolist()]
        for shuffled in (rows, rng.permuted(rows, axis=1), np.sort(rows, axis=1)[:, ::-1]):
            assert [v.hex() for v in median_or_mean(shuffled, mode).tolist()] == want
        for row, w in zip(rng.permuted(rows, axis=1).tolist(), want):
            got = median_or_mean(row, mode)
            assert type(got) is float and got.hex() == w == median_or_mean(sorted(row), mode).hex()


def _bits(mt: MergeTree) -> tuple:
    return mt.ids, mt.up, [v.hex() for v in mt.vals]


@pytest.mark.parametrize("mode", ["median", "mean"])
def test_shift_matches_reference_aggregation_to_the_bit(mode):
    # the median shift reads the middle of the ascending value row, without numpy
    rng = np.random.default_rng(29)
    pool = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 5e-324, -5e-324, 7.125]
    trees = [MergeTree({0: -0.0}, {0: 0}),
             MergeTree({0: -2.0, 1: -0.0, 2: 3.0}, {0: 2, 1: 2, 2: 2}),  # a -0.0 middle
             MergeTree({0: -2.0, 1: -0.0, 2: -0.0, 3: 1.0}, {0: 3, 1: 3, 2: 3, 3: 3})]
    for r in range(1500):
        n = int(rng.integers(2, 16))  # leaves under one root: odd and even node counts
        if r % 3:  # ties, signed zeros and subnormals
            leaves = [float(v) for v in rng.choice(pool, n)]
            root = max(leaves) + 1.0
        else:  # near MAX_TREE_VALUE: the mean of 3 or more nodes is scaled
            leaves = (rng.uniform(-1.0, 1.0, n) * MAX_TREE_VALUE).tolist()
            root = MAX_TREE_VALUE
        trees.append(MergeTree({**dict(enumerate(leaves)), n: root}, dict.fromkeys(range(n + 1), n)))
    trees += [random_merge_tree(rng, max_leaves=8) for _ in range(200)]
    scaled = 0
    for t in trees:
        t.validate()
        scaled += max(map(abs, t.vals)) > sys.float_info.max / t.n_nodes
        want = t.shifted(-reference_median_or_mean(list(t.vals), mode))
        assert _bits(shift_median_zero(t, mode)) == _bits(want)
    assert {t.n_nodes % 2 for t in trees} == {0, 1} and scaled > 100


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


def _integer_grid(rng: np.random.Generator, a: int, b: int) -> EmbeddedGraph:
    """An a x b grid of integer points joined by a random spanning tree of its
    grid edges plus a few more: at the axis frames every edge along one axis
    ties, at every other frame of ``frame_angles`` none does."""
    cells = {i * b + j: (float(i), float(j)) for i in range(a) for j in range(b)}
    grid = [(v, v + 1) for v in cells if v % b < b - 1]
    grid += [(v, v + b) for v in cells if v < (a - 1) * b]
    rep = list(range(a * b))

    def find(v: int) -> int:
        while rep[v] != v:
            v = rep[v]
        return v

    edges = []
    for k in rng.permutation(len(grid)).tolist():
        u, v = grid[k]
        if find(u) != find(v) or rng.random() < 0.15:
            rep[find(u)] = find(v)
            edges.append((u, v))
    return EmbeddedGraph(cells, edges)


def _stack_inputs() -> list[EmbeddedGraph]:
    """Shape graphs, integer grids and disconnected graphs, fixed by their seeds."""
    rng = np.random.default_rng(26)
    shapes = shape_dataset(seed=0)[0]
    grids = [_integer_grid(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6))) for _ in range(8)]
    split = []
    for g, h in zip(shapes[::3], grids):  # a shape beside a grid moved off it
        off = max(g.vertices) + 1
        moved = {v + off: (x + 40.0, y) for v, (x, y) in h.vertices.items()}
        split.append(EmbeddedGraph({**g.vertices, **moved},
                                   g.edges + [(u + off, v + off) for u, v in h.edges]))
    return shapes + grids + split


def _rows(mt: MergeTree) -> tuple:
    return mt.ids, tuple(v.hex() for v in mt.vals), mt.up


def _hex_key(mt: MergeTree):
    """Value-preserving isomorphism key with values compared by ``float.hex``."""
    kids = mt.child_rows()

    def key(i: int):
        return mt.vals[i].hex(), sorted(key(c) for c in kids[i])

    return key(mt.n_nodes - 1)


@pytest.mark.parametrize("n_frames", [1, 2, 3, 10, 40])
def test_stacked_sweep_matches_oracle_per_frame(n_frames):
    # every frame of one stacked sweep against the definition-based oracle,
    # to the bit; the oracle numbers its nodes by rank, so the node ids and
    # rows are checked against the dict-based reference sweep
    angles = frame_angles(n_frames)
    for g in _stack_inputs():
        h = largest_component(g)
        tol = COLLAPSE_RTOL * h.arrays[-1]
        for omega, mt in zip(angles, frame_trees(g, angles), strict=True):
            sg = collapse_equal_adjacent(direction_filter(h, omega), tol)
            assert _hex_key(mt) == _hex_key(shift_median_zero(merge_tree_oracle(sg)))
            assert _rows(mt) == _rows(shift_median_zero(reference_sweep(sg)))
            assert _rows(mt) == _rows(merge_tree_at(h, omega))


def test_stack_inputs_cover_ties_and_splits():
    # the grids tie at the axis frames only, all in one call, and the split
    # graphs are reduced to their largest component
    inputs = _stack_inputs()
    grids, split = inputs[18:26], inputs[26:]
    angles = frame_angles(40)
    axis = {0, 10, 20, 30}  # pi/2, pi, 3*pi/2 and 0
    for g in grids:
        tied = {f for f, omega in enumerate(angles)
                if collapse_equal_adjacent(direction_filter(g, omega), 0.0).n_vertices
                < g.n_vertices}
        assert tied == axis
    assert all(largest_component(g) is not g for g in split)
    assert all(largest_component(g) is g for g in inputs[:26])


def test_stacked_sweep_golden():
    # SHA-256 of every frame's tree_to_dict JSON at 1, 2, 3, 10 and 40 frames,
    # recorded with the per-angle pipeline the stacked sweep replaced
    trees = [tree_to_dict(t) for n in (1, 2, 3, 10, 40) for g in _stack_inputs()
             for t in frame_trees(g, frame_angles(n))]
    digest = hashlib.sha256(json.dumps(trees).encode()).hexdigest()
    assert digest == "643417ef363c9bb3aaf1f8e1431e5f9ffe426ad133bedad61c1e6c516d726379"
