import hashlib
import json
import math

import numpy as np
import pytest

from abdkit.abd import frame_angles, merge_tree_at

from abdkit.filtration import ScalarGraph, collapse_equal_adjacent, direction_filter
from abdkit.merge_tree import (
    MergeTree,
    compute_merge_tree,
    load_tree,
    merge_tree_oracle,
    shift_median_zero,
    tree_from_dict,
    tree_to_dict,
    trees_equal,
    write_tree,
)
from abdkit.synth import convex_polygon, random_connected_scalar_graph, shape_dataset

from conftest import scalar, tree


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
    ch = mt.children()
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
        sg = collapse_equal_adjacent(ScalarGraph(values, edges), 0.0)
        assert trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg))


def test_simultaneous_merge_collapses_to_one_node():
    # minima 0,1 merge at value 5 (vertex 2); minimum 3 joins at the
    # equal-valued, non-adjacent vertex 4: one arity-3 root at 5
    sg = scalar({0: 0.0, 1: 1.0, 2: 5.0, 3: 3.0, 4: 5.0, 6: 2.0},
                [(0, 2), (1, 2), (1, 6), (6, 4), (3, 4)])
    mt = compute_merge_tree(sg)
    assert trees_equal(mt, merge_tree_oracle(sg))
    ch = mt.children()
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
        yield collapse_equal_adjacent(ScalarGraph(values, sorted(set(edges))), 0.0)


def test_sweep_golden_ids_and_order():
    # SHA-256 of the tree_to_dict JSON (node ids, values, parent map and dict
    # order, which trees_equal ignores), recorded with the previous sweep
    # implementation
    graphs, _ = shape_dataset(seed=0)
    shapes = [merge_tree_at(g, w, normalize="none")
              for g in graphs for w in frame_angles(10).angles]
    assert len(shapes) == 180
    assert _tree_digest(shapes) == (
        "5fd5aa8870445e1892307ee2bf4cf1362403c399419762ebf8d3560be2f42086")
    ties = [compute_merge_tree(sg) for sg in _tie_heavy_graphs()]
    assert _tree_digest(ties) == (
        "b0460da59cf9d540daab01d9f7347ded015f9feae33681a6e465753cc2cc3fae")


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
        adj = sg.neighbors()
        minima = sum(
            1
            for v in sg.values
            if all(sg.values[v] < sg.values[u] for u in adj[v])
        )
        assert compute_merge_tree(sg).n_leaves == minima


def test_sublevel_snapshot_invariants(rng):
    from abdkit.merge_tree import sublevel_snapshots

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
        if not sg.edges:
            continue
        before = compute_merge_tree(sg)
        u, v = sg.edges[int(rng.integers(0, len(sg.edges)))]
        lo, hi = sorted((sg.values[u], sg.values[v]))
        mid_val = float(rng.uniform(lo, hi))
        if mid_val in (lo, hi):
            continue
        new_id = max(sg.values) + 1
        values = dict(sg.values)
        values[new_id] = mid_val
        edges = [e for e in sg.edges if e != (min(u, v), max(u, v))]
        edges += [(u, new_id), (v, new_id)]
        after = compute_merge_tree(ScalarGraph(values, edges))
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
    b.values[4900] -= 0.25  # one leaf moved
    assert not trees_equal(a, b)


def test_convex_polygon_trivial_small(rng):
    for _ in range(10):
        poly = convex_polygon(rng, int(rng.integers(5, 20)))
        for _ in range(10):
            omega = float(rng.uniform(0, 2 * math.pi))
            sg = collapse_equal_adjacent(direction_filter(poly, omega))
            assert compute_merge_tree(sg).is_trivial()


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
