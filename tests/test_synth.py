import pytest

from abdkit.oracles import sublevel_snapshots
from abdkit.synth import (
    SHAPE_CLASSES,
    blob,
    comb,
    convex_polygon,
    make_shape,
    random_connected_scalar_graph,
    random_merge_tree,
    shape_dataset,
    star,
    zigzag,
)

from conftest import connected_components


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def test_convex_polygon_is_convex_cycle(rng):
    for _ in range(20):
        k = int(rng.integers(5, 31))
        g = convex_polygon(rng, k)
        assert g.n_vertices == k
        assert g.n_edges == k
        pts = [g.vertices[i] for i in range(k)]
        signs = set()
        for i in range(k):
            c = _cross(pts[i], pts[(i + 1) % k], pts[(i + 2) % k])
            signs.add(c > 0)
        assert len(signs) == 1  # strictly one turning direction


def test_convex_polygon_too_small(rng):
    with pytest.raises(ValueError):
        convex_polygon(rng, 2)


@pytest.mark.parametrize("maker,extra", [(star, {}), (comb, {}), (zigzag, {}), (blob, {})])
def test_shapes_connected(rng, maker, extra):
    for _ in range(5):
        g = maker(rng, **extra)
        assert len(connected_components(g)) == 1


def test_make_shape_dispatch(rng):
    for name in SHAPE_CLASSES:
        g = make_shape(name, rng)
        assert g.n_vertices >= 3
    with pytest.raises(ValueError):
        make_shape("circle", rng)


def test_shape_dataset_labels():
    graphs, labels = shape_dataset(("star", "comb"), per_class=3, seed=5)
    assert len(graphs) == 6
    assert labels == ["star"] * 3 + ["comb"] * 3


def test_shape_dataset_deterministic():
    a, _ = shape_dataset(("zigzag",), per_class=2, seed=9)
    b, _ = shape_dataset(("zigzag",), per_class=2, seed=9)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_random_merge_tree_valid(rng):
    for _ in range(50):
        mt = random_merge_tree(rng, max_leaves=5)
        mt.validate()
        assert 1 <= mt.n_leaves <= 5


def test_random_scalar_graph_generic_connected(rng):
    for _ in range(30):
        sg = random_connected_scalar_graph(rng, max_vertices=15)
        assert len(sublevel_snapshots(sg)[-1].identified) == 1  # one component
        vals = list(sg.values.values())
        assert len(set(vals)) == len(vals)
