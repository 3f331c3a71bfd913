from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abdkit.branching import (
    Branch,
    branching_distance,
    brute_force_distance,
    candidate_costs,
    enumerate_branch_decompositions,
    is_eps_similar,
    matching_cost,
    removal_cost,
    representations,
    rooted_tree_representation,
)
from abdkit.fixtures import tree_counterexample
from abdkit.merge_tree import MergeTree
from abdkit.synth import random_merge_tree

from conftest import tree

finite = st.floats(-1e9, 1e9, allow_nan=False)


def branch(m, s):
    return Branch(0, float(m), 1 if m != s else 0, float(s))


# ---------------------------------------------------------------------------
# costs
# ---------------------------------------------------------------------------

def test_matching_cost_examples():
    assert matching_cost(branch(1, 5), branch(1, 5)) == 0.0
    assert matching_cost(branch(1, 5), branch(3, 10)) == 5.0
    assert matching_cost(branch(0, 0), branch(-2, 4)) == 4.0


def test_removal_cost_examples():
    assert removal_cost(branch(3, 3)) == 0.0
    assert removal_cost(branch(1, 5)) == 2.0
    assert removal_cost(branch(-4, 9)) == 6.5


@given(a=finite, b=finite, c=finite, d=finite)
@settings(max_examples=100, deadline=None)
def test_matching_cost_symmetric_nonnegative(a, b, c, d):
    u, v = branch(a, b), branch(c, d)
    assert matching_cost(u, v) == matching_cost(v, u) >= 0.0
    assert removal_cost(u) >= 0.0


# ---------------------------------------------------------------------------
# decomposition enumeration vs an independent set-cover brute force
# ---------------------------------------------------------------------------

def _tree_paths(mt):
    """Edge set of the unique ascending path from every node to each ancestor."""
    paths = {}
    for leaf in mt.leaves():
        edges = []
        node = leaf
        while node != mt.parent[node]:
            edges.append((node, mt.parent[node]))
            node = mt.parent[node]
            paths[(leaf, node)] = frozenset(edges)
    return paths


def _brute_force_pair_sets(mt):
    """All (min, saddle-or-root) pair sets with edge-disjoint covering paths."""
    if mt.is_trivial():
        v = mt.root
        return [frozenset([(v, v)])]
    paths = _tree_paths(mt)
    candidates = sorted(paths)
    all_edges = {(n, p) for n, p in mt.parent.items() if n != p}
    vertices = set(mt.values)
    valid = []
    for size in range(1, len(candidates) + 1):
        for subset in combinations(candidates, size):
            used = set()
            ok = True
            for pair in subset:
                pe = paths[pair]
                if used & pe:
                    ok = False
                    break
                used |= pe
            if not ok or used != all_edges:
                continue
            endpoint_cover = {v for pair in subset for v in pair}
            if endpoint_cover != vertices:
                continue
            valid.append(frozenset(subset))
    return valid


def test_enumerate_trivial():
    mt = tree({0: 3.0}, {0: 0})
    decs = enumerate_branch_decompositions(mt)
    assert len(decs) == 1
    (b,) = decs[0].branches
    assert b.degenerate
    assert b.m_value == b.s_value == 3.0


def test_enumerate_two_leaf():
    mt = tree({0: 5.0, 1: 0.0, 2: 1.0}, {0: 0, 1: 0, 2: 0})
    decs = enumerate_branch_decompositions(mt)
    assert len(decs) == 2
    pair_sets = {frozenset((b.m_id, b.s_id) for b in d.branches) for d in decs}
    assert pair_sets == {frozenset({(1, 0), (2, 0)})}
    # the two decompositions differ in which branch is the root branch
    root_ms = sorted(d.branches[d.root_index].m_id for d in decs)
    assert root_ms == [1, 2]


def caterpillar():
    # leaves 1, 2 under saddle 3; leaf 4 and saddle 3 under root 5
    return tree(
        {1: 0.0, 2: 1.0, 3: 4.0, 4: 2.0, 5: 6.0},
        {1: 3, 2: 3, 3: 5, 4: 5, 5: 5},
    )


def test_enumerate_caterpillar_against_set_cover():
    mt = caterpillar()
    decs = enumerate_branch_decompositions(mt)
    brute_sets = _brute_force_pair_sets(mt)
    enum_sets = {frozenset((b.m_id, b.s_id) for b in d.branches) for d in decs}
    assert enum_sets == set(brute_sets)
    # decorated count: one decomposition per root branch of each pair set
    root = mt.root
    expected = sum(sum(1 for (m, s) in ps if s == root) for ps in brute_sets)
    assert len(decs) == expected == 4


def test_enumerate_random_against_set_cover(rng):
    for _ in range(15):
        mt = random_merge_tree(rng, max_leaves=4)
        decs = enumerate_branch_decompositions(mt)
        brute_sets = _brute_force_pair_sets(mt)
        enum_sets = {frozenset((b.m_id, b.s_id) for b in d.branches) for d in decs}
        assert enum_sets == set(brute_sets)
        root = mt.root
        if mt.is_trivial():
            assert len(decs) == 1
            continue
        expected = sum(sum(1 for (m, s) in ps if s == root) for ps in brute_sets)
        assert len(decs) == expected


def test_decomposition_constraints(rng):
    for _ in range(15):
        mt = random_merge_tree(rng, max_leaves=5)
        all_edges = {(n, p) for n, p in mt.parent.items() if n != p}
        for dec in enumerate_branch_decompositions(mt):
            used = set()
            for path in dec.paths:
                assert not (used & path)  # edge-disjoint
                used |= path
            assert used == all_edges  # covering
            # every minimum in exactly one branch
            ms = [b.m_id for b in dec.branches]
            assert sorted(ms) == sorted(mt.leaves())
            assert dec.branches[dec.root_index].s_id == mt.root


# ---------------------------------------------------------------------------
# rooted tree representations
# ---------------------------------------------------------------------------

def test_representation_trivial():
    mt = tree({0: 3.0}, {0: 0})
    rep = rooted_tree_representation(enumerate_branch_decompositions(mt)[0])
    assert len(rep.branches) == 1
    assert rep.parent == [0]


def test_representation_two_leaf():
    mt = tree({0: 5.0, 1: 0.0, 2: 1.0}, {0: 0, 1: 0, 2: 0})
    for dec in enumerate_branch_decompositions(mt):
        rep = rooted_tree_representation(dec)
        assert len(rep.branches) == 2
        edges = sum(1 for i, p in enumerate(rep.parent) if i != p)
        assert edges == 1
        # the non-root branch hangs off the root branch
        assert rep.parent[1 - rep.root] == rep.root


def test_representation_caterpillar_shapes():
    mt = caterpillar()
    shapes = []
    for dec in enumerate_branch_decompositions(mt):
        rep = rooted_tree_representation(dec)
        root_m = rep.branches[rep.root].m_id
        kids = len(rep.children[rep.root])
        shapes.append((root_m, kids))
    # deep-leaf decorations give the root two children (star); the shallow
    # leaf 4 as root branch gives a chain
    assert sorted(shapes) == [(1, 2), (2, 2), (4, 1), (4, 1)]


def test_representation_adjacency_rule_general_position(rng):
    # the on-path rule and the chain-ownership reading agree on binary trees
    checked = 0
    while checked < 12:
        mt = random_merge_tree(rng, max_leaves=5)
        if any(len(c) > 2 for c in mt.children().values()):
            continue
        checked += 1
        for dec in enumerate_branch_decompositions(mt):
            rep = rooted_tree_representation(dec)
            path_vertices = []
            for i, b in enumerate(dec.branches):
                verts = {b.m_id, b.s_id}
                for u, v in dec.paths[i]:
                    verts |= {u, v}
                path_vertices.append(verts)
            rule_edges = set()
            for i in range(len(dec.branches)):
                for j in range(i + 1, len(dec.branches)):
                    si = dec.branches[i].s_id
                    sj = dec.branches[j].s_id
                    if si in path_vertices[j] or sj in path_vertices[i]:
                        rule_edges.add((i, j))
            parent_edges = {
                tuple(sorted((i, p))) for i, p in enumerate(rep.parent) if i != p
            }
            assert parent_edges == rule_edges


def test_representations_are_trees(rng):
    for _ in range(15):
        mt = random_merge_tree(rng, max_leaves=5)
        for rep in representations(mt):
            seen = set()
            for i in range(len(rep.branches)):
                node = i
                while node != rep.parent[node]:
                    node = rep.parent[node]
                assert node == rep.root
                seen.add(i)
            assert len(seen) == len(rep.branches)


# ---------------------------------------------------------------------------
# eps-similarity and distances
# ---------------------------------------------------------------------------

def test_identical_trees_zero_similar(rng):
    for _ in range(10):
        mt = random_merge_tree(rng, max_leaves=4)
        assert is_eps_similar(mt, mt, 0.0)


def test_trivial_pair_threshold():
    a = tree({0: 0.0}, {0: 0})
    b = tree({0: 3.0}, {0: 0})
    assert not is_eps_similar(a, b, 2.9)
    assert is_eps_similar(a, b, 3.0)
    assert branching_distance(a, b) == 3.0
    assert brute_force_distance(a, b) == 3.0


def test_trivial_vs_tree_threshold():
    # matching the root branch is forced; removing (c,b) costs 6.5
    mg = tree({0: 0.0}, {0: 0})
    mh = tree({0: 5.0, 1: 0.0, 2: -8.0}, {0: 0, 1: 0, 2: 0})
    assert is_eps_similar(mg, mh, 6.5)
    assert not is_eps_similar(mg, mh, 6.4999)
    assert branching_distance(mg, mh) == 6.5


def test_self_distance_zero(rng):
    for _ in range(10):
        mt = random_merge_tree(rng, max_leaves=4)
        assert branching_distance(mt, mt) == 0.0


def test_tree_triple_values_and_triangle_violation():
    x, y, z = tree_counterexample()
    dxy = branching_distance(x, y)
    dyz = branching_distance(y, z)
    dxz = branching_distance(x, z)
    assert (dxy, dyz, dxz) == (5.0, 3.0, 1.0)
    assert dxy > dxz + dyz  # the triangle inequality fails
    assert brute_force_distance(x, y) == dxy
    assert brute_force_distance(y, z) == dyz
    assert brute_force_distance(x, z) == dxz


def test_oracle_equivalence_sample(rng):
    for _ in range(25):
        x = random_merge_tree(rng, max_leaves=3)
        y = random_merge_tree(rng, max_leaves=3)
        assert branching_distance(x, y) == brute_force_distance(x, y)


def test_symmetry_exact(rng):
    for _ in range(25):
        x = random_merge_tree(rng, max_leaves=4)
        y = random_merge_tree(rng, max_leaves=4)
        assert branching_distance(x, y) == branching_distance(y, x) >= 0.0


def test_monotonicity_of_decision(rng):
    for _ in range(10):
        x = random_merge_tree(rng, max_leaves=3)
        y = random_merge_tree(rng, max_leaves=3)
        answers = [is_eps_similar(x, y, c) for c in candidate_costs(x, y)]
        assert answers == sorted(answers)  # False then True


def test_exact_result_is_a_candidate(rng):
    for _ in range(15):
        x = random_merge_tree(rng, max_leaves=4)
        y = random_merge_tree(rng, max_leaves=4)
        d = branching_distance(x, y)
        assert d in candidate_costs(x, y)


def test_tolerance_mode_within_delta(rng):
    for _ in range(15):
        x = random_merge_tree(rng, max_leaves=4)
        y = random_merge_tree(rng, max_leaves=4)
        exact = branching_distance(x, y)
        approx = branching_distance(x, y, mode="tolerance", tol=1e-6)
        assert abs(approx - exact) <= 1e-6


def test_common_shift_invariance_exact(rng):
    # integer values and integer shifts keep float arithmetic exact
    for _ in range(15):
        x = random_merge_tree(rng, max_leaves=4, integer_values=True)
        y = random_merge_tree(rng, max_leaves=4, integer_values=True)
        c = float(rng.integers(-10, 11))
        assert branching_distance(x, y) == branching_distance(x.shifted(c), y.shifted(c))


def test_one_sided_shift_bounded(rng):
    for _ in range(10):
        x = random_merge_tree(rng, max_leaves=3, integer_values=True)
        y = random_merge_tree(rng, max_leaves=3, integer_values=True)
        c = float(rng.integers(-5, 6))
        base = branching_distance(x, y)
        moved = branching_distance(x.shifted(c), y)
        assert abs(moved - base) <= abs(c) + 1e-12


def test_positivity_under_perturbation(rng):
    for _ in range(15):
        x = random_merge_tree(rng, max_leaves=4)
        cands = candidate_costs(x, x)
        gaps = [b - a for a, b in zip(cands, cands[1:]) if b - a > 0]
        delta = (min(gaps) if gaps else 1.0) * 1.5
        perturbed = x.shifted(0.0)
        leaf = min(x.leaves())
        perturbed.values[leaf] -= delta
        assert branching_distance(x, perturbed) > 0.0


def test_size_guards():
    n = 13
    values = {i: float(i) for i in range(n)}
    values[100] = 100.0
    parent = {i: 100 for i in range(n)}
    parent[100] = 100
    big = MergeTree(values, parent)
    with pytest.raises(ValueError, match="limited to 12"):
        enumerate_branch_decompositions(big)
    with pytest.raises(ValueError, match="limited to 12"):
        branching_distance(big, big)
    six = MergeTree(
        {i: float(i) for i in range(6)} | {10: 10.0},
        {i: 10 for i in range(6)} | {10: 10},
    )
    with pytest.raises(ValueError, match="limited to 5"):
        brute_force_distance(six, six)


def test_bad_mode_rejected():
    a = tree({0: 0.0}, {0: 0})
    with pytest.raises(ValueError, match="unknown mode"):
        branching_distance(a, a, mode="fast")
    with pytest.raises(ValueError, match="tol must be"):
        branching_distance(a, a, mode="tolerance", tol=0.0)
