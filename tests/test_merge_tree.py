import hashlib
import json
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.abd import frame_angles, merge_tree_at
from abdkit.branching import branching_distance
from abdkit.filtration import ScalarGraph, collapse_equal_adjacent, direction_filter
from abdkit.graph_io import EmbeddedGraph
from abdkit.merge_tree import (
    DisconnectedGraphError,
    MergeTree,
    compute_merge_tree,
    load_tree,
    shift_median_zero,
    tree_from_dict,
    tree_to_dict,
    trees_equal,
    write_tree,
)
from abdkit.oracles import children, merge_tree_oracle
from abdkit.synth import (
    convex_polygon,
    random_connected_scalar_graph,
    random_merge_tree,
    shape_dataset,
)

from conftest import adjacency, reference_sweep, scalar, tree


def test_two_minima_then_third():
    # a, b are minima merging at c; {a, b} then merges with minimum d at e
    sg = scalar({0: 0.0, 1: 1.0, 2: 3.0, 3: 2.0, 4: 5.0},
                [(0, 2), (1, 2), (2, 4), (3, 4)])
    mt = compute_merge_tree(sg)
    expected = tree(
        {0: 0.0, 1: 1.0, 3: 2.0, 2: 3.0, 4: 5.0},
        {0: 2, 1: 2, 2: 4, 3: 4, 4: 4},
    )
    assert trees_equal(mt, expected)
    ch = children(mt)
    saddle = [n for n in mt.values if mt.values[n] == 3.0][0]
    assert sorted(mt.values[c] for c in ch[saddle]) == [0.0, 1.0]


def test_monotone_path_is_trivial():
    sg = scalar({0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}, [(0, 1), (1, 2), (2, 3)])
    mt = compute_merge_tree(sg)
    assert mt.is_trivial()
    assert list(mt.values.values()) == [0.0]


def test_w_shaped_path():
    # hand trace: leaves 0, 1, 2; saddle 5 joins {0} and {1}; root 6 joins the rest
    sg = scalar({0: 0.0, 1: 5.0, 2: 1.0, 3: 6.0, 4: 2.0},
                [(0, 1), (1, 2), (2, 3), (3, 4)])
    mt = compute_merge_tree(sg)
    expected = tree(
        {0: 0.0, 2: 1.0, 4: 2.0, 1: 5.0, 3: 6.0},
        {0: 1, 2: 1, 1: 3, 4: 3, 3: 3},
    )
    assert trees_equal(mt, expected)
    assert trees_equal(merge_tree_oracle(sg), expected)


def test_oracle_single_vertex():
    mt = merge_tree_oracle(scalar({0: 4.0}, []))
    assert mt.is_trivial()
    assert list(mt.values.values()) == [4.0]


def test_oracle_equivalence_random(rng):
    for _ in range(60):
        sg = random_connected_scalar_graph(rng, max_vertices=14)
        assert trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg))


def test_oracle_equivalence_with_ties(rng):
    # equal values at non-adjacent vertices, including simultaneous merges
    for _ in range(40):
        n = int(rng.integers(3, 12))
        values = {i: float(rng.integers(0, 4)) for i in range(n)}
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        sg = collapse_equal_adjacent(ScalarGraph.from_dict(values, edges), 0.0)
        assert trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg))


def test_simultaneous_merge_collapses_to_one_node():
    # minima 0,1 merge at value 5 (vertex 2); minimum 3 joins at the
    # equal-valued, non-adjacent vertex 4: one arity-3 root at 5
    sg = scalar({0: 0.0, 1: 1.0, 2: 5.0, 3: 3.0, 4: 5.0, 6: 2.0},
                [(0, 2), (1, 2), (1, 6), (6, 4), (3, 4)])
    mt = compute_merge_tree(sg)
    assert trees_equal(mt, merge_tree_oracle(sg))
    ch = children(mt)
    root = mt.root
    assert mt.values[root] == 5.0
    assert len(ch[root]) == 3
    assert sorted(mt.values[c] for c in ch[root]) == [0.0, 1.0, 3.0]


def _tree_digest(trees) -> str:
    h = hashlib.sha256()
    for mt in trees:
        h.update(json.dumps(tree_to_dict(mt)).encode() + b"\n")
    return h.hexdigest()


def _tie_heavy_graphs():
    # integer values in 0..4: ties across edges are collapsed, and many
    # non-adjacent equal values make same-level merges (192 of the 400
    # trees have a node of arity 3 or more)
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(2, 25))
        values = {i: float(rng.integers(0, 5)) for i in range(n)}
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        for _ in range(int(rng.integers(0, n))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                edges.append((min(u, v), max(u, v)))
        yield collapse_equal_adjacent(ScalarGraph.from_dict(values, sorted(set(edges))), 0.0)


def test_sweep_golden_ids_and_order():
    # SHA-256 of the tree_to_dict JSON (node ids, values, parent map and dict
    # order, which trees_equal ignores), recorded with the previous sweep
    # implementation
    graphs, _ = shape_dataset(seed=0)
    shapes = [merge_tree_at(g, w, normalize="none")
              for g in graphs for w in frame_angles(10)]
    assert len(shapes) == 180
    assert _tree_digest(shapes) == (
        "5fd5aa8870445e1892307ee2bf4cf1362403c399419762ebf8d3560be2f42086")
    ties = [compute_merge_tree(sg) for sg in _tie_heavy_graphs()]
    assert _tree_digest(ties) == (
        "b0460da59cf9d540daab01d9f7347ded015f9feae33681a6e465753cc2cc3fae")


def _outcome(build, sg: ScalarGraph) -> str:
    """The tree's JSON (ids, signed values, dict order) or the refusal text."""
    try:
        return json.dumps(tree_to_dict(build(sg)))
    except ValueError as exc:
        return f"refused: {exc}"


def _assert_sweep_exact(sg: ScalarGraph) -> None:
    fresh = ScalarGraph.from_dict(sg.values, sg.edges)  # rebuilt from its views
    got = _outcome(compute_merge_tree, sg)
    assert got == _outcome(reference_sweep, sg)
    assert _outcome(compute_merge_tree, fresh) == got
    if not got.startswith("refused") and all(u != v for u, v in sg.edges):  # the oracle takes no loops
        assert trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg))


@st.composite
def scalar_graphs(draw):
    """Random graphs over non-contiguous, partly negative ids, with repeated
    values (signed zeros among them), parallel edges and self-loops; about
    one in four is left disconnected."""
    ids = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=14, unique=True))
    level = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-10, 10)
    values = {v: draw(level) for v in ids}
    n = len(ids)
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=n))
    if draw(st.integers(0, 3)) == 0:
        edges = [e for e in edges if draw(st.booleans())]
    return ScalarGraph.from_dict(values, edges)


@given(sg=scalar_graphs(), tol=st.sampled_from([0.0, 0.3, 1e-9]))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_reference_and_oracle(sg, tol):
    _assert_sweep_exact(sg)  # ties and disconnection refused alike
    _assert_sweep_exact(collapse_equal_adjacent(sg, tol))


def test_sweep_matches_reference_on_seeded_graphs(rng):
    for _ in range(200):
        sg = random_connected_scalar_graph(rng, max_vertices=40)
        _assert_sweep_exact(sg)
    for sg in _tie_heavy_graphs():
        _assert_sweep_exact(sg)


def test_sweep_noncontiguous_negative_ids():
    # the W path on ids -7, 100, 3, -1, 42: leaves -7, 3, 42; saddles 100, -1
    sg = scalar({-7: 0.0, 100: 5.0, 3: 1.0, -1: 6.0, 42: 2.0},
                [(-7, 100), (100, 3), (3, -1), (-1, 42)])
    mt = compute_merge_tree(sg)
    assert list(mt.values.items()) == [(-7, 0.0), (3, 1.0), (42, 2.0), (100, 5.0), (-1, 6.0)]
    assert mt.parent == {-7: 100, 3: 100, 42: -1, 100: -1, -1: -1}
    _assert_sweep_exact(sg)


def test_sweep_signed_zero_minima():
    # -0.0 and 0.0 are equal values: ordered by id, each keeps its sign
    sg = ScalarGraph.from_dict({9: 0.0, 2: 1.0, 5: -0.0}, [(5, 2), (2, 9)])
    mt = compute_merge_tree(sg)
    assert [(n, repr(v)) for n, v in mt.values.items()] == [(5, "-0.0"), (9, "0.0"), (2, "1.0")]
    _assert_sweep_exact(sg)
    # adjacent, they are a tie: refused, and contracted onto the smaller id
    tied = ScalarGraph.from_dict({9: 0.0, 5: -0.0, 2: 1.0}, [(9, 5), (5, 2)])
    with pytest.raises(ValueError, match=r"adjacent equal values at edge \(5, 9\)"):
        compute_merge_tree(tied)
    assert repr(collapse_equal_adjacent(tied, 0.0).values[5]) == "-0.0"


def test_sweep_absorbs_equal_tops_across_long_chains():
    # minima 0, 20, 40 on a path; the saddles 10 and 30 share the value 10,
    # each reached through monotone chains of 9 vertices, and are not adjacent
    values = {0: 0.0, 20: 0.2, 40: 0.4, 10: 10.0, 30: 10.0}
    for i in range(1, 10):
        values[i] = values[20 - i] = values[20 + i] = values[40 - i] = float(i)
    sg = scalar(values, [(i, i + 1) for i in range(40)])
    mt = compute_merge_tree(sg)
    assert mt.parent == {0: 30, 20: 30, 40: 30, 30: 30}  # 10 absorbed into 30
    _assert_sweep_exact(sg)


def test_sweep_single_vertex():
    mt = compute_merge_tree(scalar({-4: 2.5}, []))
    assert (mt.values, mt.parent) == ({-4: 2.5}, {-4: -4})
    g = EmbeddedGraph({7: (3.0, -1.5)}, [])
    assert merge_tree_at(g, math.pi / 2, normalize="none").values == {7: -1.5}


def test_axis_aligned_comb_at_half_pi():
    # spine x=0, teeth along y=0, 2, 4 tie with the spine at pi/2 and are
    # collapsed; tips hang below each tooth and become the three leaves
    vertices = {0: (0.0, 0.0), 1: (0.0, 2.0), 2: (0.0, 4.0),
                3: (1.0, 0.0), 4: (1.0, 2.0), 5: (1.0, 4.0),
                6: (2.0, -0.5), 7: (2.0, 1.5), 8: (2.0, 3.5)}
    edges = [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)]
    g = EmbeddedGraph(vertices, edges)
    sg = collapse_equal_adjacent(direction_filter(g, math.pi / 2), 0.0)
    assert sg.values == {0: 0.0, 1: 2.0, 2: 4.0, 6: -0.5, 7: 1.5, 8: 3.5}
    _assert_sweep_exact(sg)
    mt = merge_tree_at(g, math.pi / 2, normalize="none")
    assert list(mt.values.items()) == [(6, -0.5), (7, 1.5), (1, 2.0), (8, 3.5), (2, 4.0)]
    assert mt.parent == {6: 1, 7: 1, 1: 2, 8: 2, 2: 2}


def test_disconnected_raises_disconnected_graph_error():
    sg = scalar({0: 0.0, 1: 1.0, 2: 3.0, 3: 0.5}, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        compute_merge_tree(sg)


def test_disconnected_rejected():
    refusal = "^scalar graph is disconnected; pass the largest component$"
    for values, edges in [
        ({0: 0.0, 1: 1.0}, []),
        # a W-shaped path (with a merge) beside a lone vertex above all of it
        ({0: 0.0, 1: 5.0, 2: 1.0, 3: 6.0, 4: 2.0, 5: 9.0}, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        # two components that each merge two minima
        ({0: 0.0, 1: 1.0, 2: 3.0, 3: 0.5, 4: 1.5, 5: 2.0}, [(0, 2), (1, 2), (3, 5), (4, 5)]),
    ]:
        with pytest.raises(ValueError, match=refusal):
            compute_merge_tree(scalar(values, edges))


def test_adjacent_equal_rejected():
    refusal = r"^adjacent equal values at edge \(0, 1\); run collapse_equal_adjacent first$"
    with pytest.raises(ValueError, match=refusal):
        compute_merge_tree(scalar({0: 1.0, 1: 1.0}, [(0, 1)]))
    # a tie at the vertex that merges minima 0 and 1
    with pytest.raises(ValueError, match=r"at edge \(2, 4\)"):
        compute_merge_tree(scalar({0: 0.0, 1: 1.0, 2: 3.0, 3: 2.0, 4: 3.0},
                                  [(0, 2), (1, 2), (2, 4), (3, 4)]))


def test_leaf_count_equals_local_minima(rng):
    for _ in range(30):
        sg = random_connected_scalar_graph(rng, max_vertices=16)
        values, adj = sg.values, adjacency(sg)
        minima = sum(
            1
            for v in values
            if all(values[v] < values[u] for u in adj[v])
        )
        assert compute_merge_tree(sg).n_leaves == minima


def test_sublevel_snapshot_invariants(rng):
    from abdkit.oracles import sublevel_snapshots

    for _ in range(20):
        sg = random_connected_scalar_graph(rng, max_vertices=12)
        for snap in sublevel_snapshots(sg):
            assert snap.delta <= snap.identified
            members = [set(mu) for mu in snap.identified]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert not (members[i] & members[j])


def test_subdividing_monotone_edge_preserves_tree(rng):
    for _ in range(25):
        sg = random_connected_scalar_graph(rng, max_vertices=12)
        values, edges = sg.values, sg.edges
        if not edges:
            continue
        before = compute_merge_tree(sg)
        u, v = edges[int(rng.integers(0, len(edges)))]
        lo, hi = sorted((values[u], values[v]))
        mid_val = float(rng.uniform(lo, hi))
        if mid_val in (lo, hi):
            continue
        new_id = max(values) + 1
        values[new_id] = mid_val
        edges = [e for e in edges if e != (min(u, v), max(u, v))]
        edges += [(u, new_id), (v, new_id)]
        after = compute_merge_tree(ScalarGraph.from_dict(values, edges))
        assert trees_equal(before, after)


def test_trees_equal_deep_caterpillar():
    # 1,500 rising minima joined one by one: 2,999 nodes, 1,499 levels deep
    def caterpillar(ids):
        values = {ids[2 * k]: float(k) for k in range(1500)}
        values.update({ids[2 * k + 1]: k + 1.5 for k in range(1499)})
        parent = {ids[0]: ids[1], ids[2997]: ids[2997]}
        for k in range(1499):
            parent[ids[2 * k + 2]] = ids[2 * k + 1]
            if k < 1498:
                parent[ids[2 * k + 1]] = ids[2 * k + 3]
        return MergeTree(values, parent)

    a = caterpillar(list(range(2999)))
    b = caterpillar([5000 - n for n in range(2999)])
    a.validate()
    assert trees_equal(a, b)
    moved = MergeTree({**b.values, 4900: b.values[4900] - 0.25}, b.parent)  # one leaf moved
    assert not trees_equal(a, moved)


def test_convex_polygon_trivial_small(rng):
    for _ in range(10):
        poly = convex_polygon(rng, int(rng.integers(5, 20)))
        for _ in range(10):
            omega = float(rng.uniform(0, 2 * math.pi))
            assert merge_tree_at(poly, omega).is_trivial()


def test_shift_trivial_to_zero():
    mt = tree({0: 7.0}, {0: 0})
    assert list(shift_median_zero(mt).values.values()) == [0.0]


def test_shift_median_already_zero():
    mt = tree({0: 1.0, 1: -1.0, 2: 0.0}, {2: 0, 1: 0, 0: 0})
    assert shift_median_zero(mt).values == mt.values


def test_shift_mean():
    mt = tree({0: 10.0, 1: 0.0, 2: 2.0}, {0: 0, 1: 0, 2: 0})
    out = shift_median_zero(mt, mode="mean")
    assert out.values == {0: 6.0, 1: -4.0, 2: -2.0}


def test_shift_preserves_differences(rng):
    for _ in range(20):
        sg = random_connected_scalar_graph(rng, max_vertices=10)
        mt = compute_merge_tree(sg)
        shifted = shift_median_zero(mt)
        base = list(mt.values)
        for a in base:
            for b in base:
                assert (mt.values[a] - mt.values[b]) == pytest.approx(
                    shifted.values[a] - shifted.values[b], abs=1e-12
                )


def test_shift_median_matches_numpy(rng):
    # repr equality, so signed zeros count: np.median turns a -0.0 middle into 0.0
    pool = [-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 5e-324, -5e-324, 7.125]
    for _ in range(2000):
        vals = [float(v) for v in rng.choice(pool, int(rng.integers(1, 16)))]
        mt = MergeTree(dict(enumerate(vals)), {i: 0 for i in range(len(vals))})
        shift = -float(np.median(np.array(vals)))
        expected = {n: v + shift for n, v in mt.values.items()}
        assert repr(shift_median_zero(mt).values) == repr(expected)


def test_shift_bad_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        shift_median_zero(tree({0: 1.0}, {0: 0}), mode="mode")


def test_validate_rejects_bad_trees():
    with pytest.raises(ValueError, match="root"):
        MergeTree({0: 0.0, 1: 1.0}, {0: 0, 1: 1}).validate()
    with pytest.raises(ValueError, match="parent value"):
        MergeTree({0: 5.0, 1: 1.0, 2: 1.0}, {0: 0, 1: 2, 2: 0}).validate()
    with pytest.raises(ValueError, match="single child"):
        MergeTree({0: 5.0, 1: 1.0}, {0: 0, 1: 0}).validate()


def test_tree_json_round_trip(tmp_path):
    mt = tree({0: 0.0, 2: 1.0, 4: 2.0, 1: 5.0, 3: 6.0},
              {0: 1, 2: 1, 1: 3, 4: 3, 3: 3})
    p = tmp_path / "t.json"
    write_tree(mt, p)
    back = load_tree(p)
    assert back.values == mt.values
    assert back.parent == mt.parent
    assert tree_from_dict(tree_to_dict(mt)).values == mt.values


def _sorted_key(mt: MergeTree) -> tuple:
    """canonical_key as it was built from the dicts: nodes sorted by value,
    then each node's key from its children's, popped as they are used."""
    values, ch = mt.values, children(mt)
    key: dict[int, tuple] = {}
    for n in sorted(values, key=values.__getitem__):
        key[n] = (values[n], len(ch[n]), *chain.from_iterable(sorted(key.pop(c) for c in ch[n])))
    return key[mt.root]


def _assert_rows(mt: MergeTree) -> None:
    ids, vals, up = mt.ids, mt.vals, mt.up
    n = len(ids)
    assert len(vals) == len(up) == n == len(set(ids)) > 0
    assert all(a <= b for a, b in zip(vals, vals[1:]))  # ascending in value
    assert all(i < up[i] for i in range(n - 1)) and up[-1] == n - 1  # parents above, root last
    assert mt.root == ids[-1] and list(mt.values) == list(ids)
    assert MergeTree(mt.values, mt.parent) == mt
    assert mt.canonical_key() == _sorted_key(mt)


def _sweep_trees(rng):
    graphs, _ = shape_dataset(seed=0)
    trees = [merge_tree_at(g, w, normalize="none") for g in graphs for w in frame_angles(10)]
    trees += [compute_merge_tree(random_connected_scalar_graph(rng, max_vertices=40))
              for _ in range(100)]
    trees += [compute_merge_tree(sg) for sg in _tie_heavy_graphs()]
    return trees


def _in_file_order(mt: MergeTree, order: list[int], path) -> MergeTree:
    values, parent = mt.values, mt.parent
    path.write_text(json.dumps({"nodes": [{"id": n, "value": values[n]} for n in order],
                                "parent": {str(n): parent[n] for n in order}}))
    return load_tree(path)


def test_sweep_rows(rng):
    for mt in _sweep_trees(rng):
        _assert_rows(mt)


def test_tree_file_rows_do_not_depend_on_node_order(tmp_path, rng):
    trees = [random_merge_tree(rng, max_leaves=12, integer_values=k % 2 == 1) for k in range(40)]
    trees += _sweep_trees(rng)[::10]
    for mt in trees:
        ids = list(mt.ids)
        shuffled = [ids[k] for k in rng.permutation(len(ids))]
        for order in (ids[::-1], shuffled):  # root first, and shuffled
            loaded = _in_file_order(mt, order, tmp_path / "t.json")
            _assert_rows(loaded)
            assert (loaded.ids, loaded.vals, loaded.up) == (mt.ids, mt.vals, mt.up)


def test_shifted_rows(rng):
    for mt in _sweep_trees(rng)[::3]:
        for out in (shift_median_zero(mt), shift_median_zero(mt, "mean"),
                    mt.shifted(float(rng.uniform(-50.0, 50.0)))):
            _assert_rows(out)
            assert (out.ids, out.up) == (mt.ids, mt.up)


def test_random_merge_tree_rows(rng):
    for k in range(200):
        _assert_rows(random_merge_tree(rng, max_leaves=1 + k % 20, integer_values=k % 3 == 0))


def test_a_tree_is_not_edited_through_its_views():
    # editing a view once left the stored branch table stale: 0.0 where a
    # fresh tree with the edited values gives 2.0
    x, y = (tree({0: 0.0, 1: 1.0, 2: 3.0}, {0: 2, 1: 2, 2: 2}) for _ in range(2))
    assert branching_distance(x, y) == 0.0
    x.values[0] -= 2.0
    x.parent[0] = 1
    assert x == y and x.values == {0: 0.0, 1: 1.0, 2: 3.0}
    assert branching_distance(x, y) == 0.0
    moved = MergeTree({**x.values, 0: x.values[0] - 2.0}, x.parent)
    assert branching_distance(moved, y) == branching_distance(y, moved) == 2.0
