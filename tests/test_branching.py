import hashlib
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from abdkit import branching, oracles
from abdkit.abd import frame_angles, frame_trees, merge_tree_at
from abdkit.branching import MAX_LEAVES, branching_distance
from abdkit.fixtures import graph_counterexample, tree_counterexample
from abdkit.merge_tree import MergeTree, load_tree
from abdkit.oracles import (
    Branch,
    RootedTreeRep,
    brute_force_distance,
    candidate_costs,
    children,
    is_eps_similar,
    leaves,
    matching_cost,
    minmax_distance,
    minmax_table,
    removal_cost,
    representations,
)
from abdkit.synth import comb, random_merge_tree, shape_dataset

from conftest import random_caterpillar, random_star, tree

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
# decomposition enumeration: the oracle for ``representations``
# ---------------------------------------------------------------------------

@dataclass
class BranchDecomposition:
    """Branches plus their descending paths (edges as (child, parent) pairs).

    ``root_index`` marks the branch whose chain was extended through the
    root; decompositions with identical branch sets but different root
    branches are distinct.
    """

    tree: MergeTree
    branches: list[Branch]
    paths: list[frozenset[tuple[int, int]]]
    root_index: int

    def edge_owner(self) -> dict[tuple[int, int], int]:
        owner: dict[tuple[int, int], int] = {}
        for i, path in enumerate(self.paths):
            for e in path:
                owner[e] = i
        return owner


def enumerate_branch_decompositions(mt: MergeTree) -> list[BranchDecomposition]:
    """All branch decompositions of ``mt``, exactly once each.

    Generated by choosing at every saddle and at the root which descending
    child chain extends through it, in lexicographic order of the chosen
    child ids.  Exponential in the number of leaves.
    """
    root = mt.root
    if mt.is_trivial():
        b = Branch(root, mt.values[root], root, mt.values[root])
        return [BranchDecomposition(mt, [b], [frozenset()], 0)]

    ch = children(mt)
    internal = sorted(n for n in mt.values if ch[n])
    tips = sorted(leaves(mt))
    out: list[BranchDecomposition] = []
    for combo in product(*[sorted(ch[t]) for t in internal]):
        choice = dict(zip(internal, combo))
        branches: list[Branch] = []
        paths: list[frozenset[tuple[int, int]]] = []
        root_index = -1
        for m in tips:
            cur = m
            edges = []
            while True:
                p = mt.parent[cur]
                edges.append((cur, p))
                if choice[p] == cur:
                    cur = p
                    if cur == root:
                        s = root
                        root_index = len(branches)
                        break
                else:
                    s = p
                    break
            branches.append(Branch(m, mt.values[m], s, mt.values[s]))
            paths.append(frozenset(edges))
        out.append(BranchDecomposition(mt, branches, paths, root_index))
    return out


def rooted_tree_representation(bd: BranchDecomposition) -> RootedTreeRep:
    """Tree of branches: each branch hangs off the chain owning its saddle."""
    mt = bd.tree
    root = mt.root
    owner = bd.edge_owner()
    n = len(bd.branches)
    parent = [0] * n
    for i, b in enumerate(bd.branches):
        if i == bd.root_index:
            parent[i] = i
        elif b.s_id == root:
            parent[i] = bd.root_index
        else:
            parent[i] = owner[(b.s_id, mt.parent[b.s_id])]
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parent):
        if i != p:
            children[p].append(i)
    rc = _subtree_max_rc(bd.branches, children)
    return RootedTreeRep(list(bd.branches), bd.root_index, children, rc)


def _parent_map(rep: RootedTreeRep) -> dict[int, int]:
    """Parent of every branch, derived from ``children``; the root maps to itself."""
    parent = {rep.root: rep.root}
    for i, kids in enumerate(rep.children):
        for c in kids:
            assert c not in parent  # one parent per branch, none for the root
            parent[c] = i
    return parent


def _subtree_max_rc(branches, children) -> list[float]:
    def rc(i: int) -> float:
        return max([removal_cost(branches[i])] + [rc(c) for c in children[i]])

    return [rc(i) for i in range(len(branches))]


def _oracle_keys(mt):
    decs = enumerate_branch_decompositions(mt)
    return {rooted_tree_representation(d).canonical_key() for d in decs}


# comb_abd's mix of benchmark pairs: (teeth, rng key) for both combs of each pair
COMB_MIX = [(6, k) for k in range(12)] + [(7, k) for k in (0, 1, 2, 3, 4, 5, 11, 12)] + [(8, 2)]


def _comb_trees():
    angle = frame_angles(1)[0]
    for teeth, k in COMB_MIX:
        rng = np.random.default_rng([teeth, k])
        for _ in range(2):
            yield merge_tree_at(comb(rng, teeth=teeth), angle)


def test_representations_match_oracle_random(rng):
    # float values (distinct almost surely) and integer values (frequent ties,
    # so many decompositions share a canonical key)
    for i in range(600):
        mt = random_merge_tree(rng, max_leaves=7, integer_values=i % 3 == 2)
        keys = [rep.canonical_key() for rep in representations(mt)]
        assert len(keys) == len(set(keys))
        assert set(keys) == _oracle_keys(mt)


def test_representations_match_oracle_combs():
    for mt in _comb_trees():
        keys = [rep.canonical_key() for rep in representations(mt)]
        assert len(keys) == len(set(keys))
        assert set(keys) == _oracle_keys(mt)


def test_representation_fields(rng):
    # real node ids from one decomposition, consistent links, subtree removal costs
    for _ in range(60):
        mt = random_merge_tree(rng, max_leaves=6, integer_values=True)
        pair_sets = {frozenset((b.m_id, b.s_id) for b in d.branches)
                     for d in enumerate_branch_decompositions(mt)}
        for rep in representations(mt):
            assert frozenset((b.m_id, b.s_id) for b in rep.branches) in pair_sets
            for b in rep.branches:
                assert (b.m_value, b.s_value) == (mt.values[b.m_id], mt.values[b.s_id])
            assert sorted(_parent_map(rep)) == list(range(len(rep.branches)))
            assert rep.branches[rep.root].s_id == mt.root
            assert rep.subtree_max_rc == _subtree_max_rc(rep.branches, rep.children)


# ---------------------------------------------------------------------------
# the decomposition oracle vs an independent set-cover brute force
# ---------------------------------------------------------------------------

def _tree_paths(mt):
    """Edge set of the unique ascending path from every node to each ancestor."""
    paths = {}
    for leaf in leaves(mt):
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
            assert sorted(ms) == sorted(leaves(mt))
            assert dec.branches[dec.root_index].s_id == mt.root


# ---------------------------------------------------------------------------
# rooted tree representations
# ---------------------------------------------------------------------------

def test_representation_trivial():
    mt = tree({0: 3.0}, {0: 0})
    (rep,) = representations(mt)
    assert len(rep.branches) == 1
    assert _parent_map(rep) == {0: 0}
    assert rep.branches[0].degenerate


def test_representation_two_leaf():
    mt = tree({0: 5.0, 1: 0.0, 2: 1.0}, {0: 0, 1: 0, 2: 0})
    reps = representations(mt)
    assert sorted(rep.branches[rep.root].m_id for rep in reps) == [1, 2]
    for rep in reps:
        assert len(rep.branches) == 2
        # the non-root branch hangs off the root branch
        assert _parent_map(rep) == {0: rep.root, 1: rep.root}


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
        if any(len(c) > 2 for c in children(mt).values()):
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
                tuple(sorted((i, p))) for i, p in _parent_map(rep).items() if i != p
            }
            assert parent_edges == rule_edges


def test_representations_are_trees(rng):
    for _ in range(15):
        mt = random_merge_tree(rng, max_leaves=5)
        for rep in representations(mt):
            parent = _parent_map(rep)
            seen = set()
            for i in range(len(rep.branches)):
                node = i
                while node != parent[node]:
                    node = parent[node]
                assert node == rep.root
                seen.add(i)
            assert len(seen) == len(rep.branches)


# ---------------------------------------------------------------------------
# the enumeration decision engine: the oracle for the min-max recursion
# ---------------------------------------------------------------------------

def _children_assignable(rx: RootedTreeRep, ry: RootedTreeRep, cu, cv, eps, feas) -> bool:
    """Can cu/cv be matched pairwise or removed, all within eps?

    Unmatched children must be removable (every branch in their subtree has
    removal cost <= eps).  Solved as a padded square assignment where each
    child owns a dummy slot that is free exactly when it is removable.
    """
    removable_u = [rx.subtree_max_rc[c] <= eps for c in cu]
    removable_v = [ry.subtree_max_rc[c] <= eps for c in cv]
    if not cu and not cv:
        return True
    if not cu:
        return all(removable_v)
    if not cv:
        return all(removable_u)
    n1, n2 = len(cu), len(cv)
    size = n1 + n2
    cost = np.ones((size, size), dtype=np.int8)
    for i, ci in enumerate(cu):
        for j, cj in enumerate(cv):
            if feas(ci, cj):
                cost[i, j] = 0
        if removable_u[i]:
            cost[i, n2 + i] = 0
    for j in range(n2):
        if removable_v[j]:
            cost[n1 + j, j] = 0
    cost[n1:, n2:] = 0
    rows, cols = linear_sum_assignment(cost)
    return int(cost[rows, cols].sum()) == 0


def _rep_pair_feasible(rx: RootedTreeRep, ry: RootedTreeRep, eps: float) -> bool:
    memo: dict[tuple[int, int], bool] = {}

    def feas(i: int, j: int) -> bool:
        key = (i, j)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle-safe default; trees have none
        if matching_cost(rx.branches[i], ry.branches[j]) <= eps:
            memo[key] = _children_assignable(
                rx, ry, rx.children[i], ry.children[j], eps, feas
            )
        return memo[key]

    return feas(rx.root, ry.root)


def _similar(reps_x: list[RootedTreeRep], reps_y: list[RootedTreeRep], eps: float) -> bool:
    if eps < 0:
        return False
    for rx in reps_x:
        for ry in reps_y:
            if _rep_pair_feasible(rx, ry, eps):
                return True
    return False


def _tolerance(decide, x, y, tol):
    """Tolerance-mode bisection of [0, value span] against ``decide``."""
    if decide(0.0):
        return 0.0
    values = [*x.values.values(), *y.values.values()]
    lo, hi = 0.0, max(values) - min(values)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if decide(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_recursion_matches_enumeration_random(rng):
    # a third integer-valued (frequent ties), a quarter identical pairs
    for i in range(500):
        x = random_merge_tree(rng, max_leaves=7, integer_values=i % 3 == 2)
        y = x if i % 4 == 0 else random_merge_tree(rng, max_leaves=7, integer_values=i % 3 == 2)
        reps_x, reps_y = representations(x), representations(y)
        d = branching_distance(x, y)
        cands = candidate_costs(x, y)
        answers = [_similar(reps_x, reps_y, eps) for eps in cands]
        assert answers == [d <= eps for eps in cands], i
        # the engine compares eps only with matching and removal costs, all of
        # them candidates, so its answer at eps is its answer at the largest
        # candidate not above eps
        def decide(eps):
            return eps >= 0 and answers[bisect_right(cands, eps) - 1]

        for tol in (1e-6, 1e-2):
            assert branching_distance(x, y, tol=tol) == _tolerance(decide, x, y, tol)


def test_recursion_matches_enumeration_combs():
    # every condition of the engine is "cost <= eps", so its answers only grow
    # with eps: true at d and false at the candidate below fixes every answer
    trees = list(_comb_trees())
    for x, y in zip(trees[::2], trees[1::2]):
        reps_x, reps_y = representations(x), representations(y)
        d = branching_distance(x, y)
        cands = candidate_costs(x, y)
        assert d > 0.0 and _similar(reps_x, reps_y, d)
        assert not _similar(reps_x, reps_y, cands[cands.index(d) - 1])


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


def _sized_merge_tree(rng, lo, hi, integer_values=False):
    """A random merge tree with between lo and hi leaves."""
    while True:
        mt = random_merge_tree(rng, max_leaves=hi, integer_values=integer_values)
        if mt.n_leaves >= lo:
            return mt


def _metamorphic_pairs(rng):
    """Random pairs of up to 7 leaves, a third integer-valued, then the comb
    pairs, then random pairs of 10-16 leaves and caterpillar pairs of 12-16
    leaves, where the engine's cutoffs prune the most."""
    for i in range(150):
        yield (random_merge_tree(rng, max_leaves=7, integer_values=i % 3 == 2),
               random_merge_tree(rng, max_leaves=7, integer_values=i % 3 == 2))
    trees = list(_comb_trees())
    yield from zip(trees[::2], trees[1::2])
    for i in range(30):
        yield (_sized_merge_tree(rng, 10, 16, integer_values=i % 3 == 2),
               _sized_merge_tree(rng, 10, 16, integer_values=i % 3 == 2))
    for n in (12, 14, 16):
        yield random_caterpillar(rng, n), random_caterpillar(rng, n, integer_values=n == 14)


def _lopsided_pairs(rng):
    """Pairs whose sides hold unequal slot counts, where the engine's slot
    count (Hall) rules leaf pairs out: trivial trees against 2-12-leaf
    trees, stars against caterpillars of another size, and random pairs of
    different leaf counts, a third integer-valued so that a removal cost
    can equal the best value exactly."""
    for n in range(2, 13):
        yield tree({0: float(n)}, {0: 0}), _sized_merge_tree(rng, n, n)
        yield tree({0: -1.5}, {0: 0}), random_caterpillar(rng, n, integer_values=n % 2 == 0)
        yield tree({0: 0.25}, {0: 0}), random_star(rng, n, integer_values=n % 3 == 0)
    for i, (k, m) in enumerate((k, m) for k in (2, 4, 6, 9, 12) for m in (3, 7, 11, 15)):
        yield random_star(rng, k, integer_values=i % 3 == 2), random_caterpillar(
            rng, m, integer_values=i % 3 == 2)
    pairs = 0
    while pairs < 60:
        ints = pairs % 3 == 2
        x = random_merge_tree(rng, max_leaves=8, integer_values=ints)
        y = random_merge_tree(rng, max_leaves=16, integer_values=ints)
        if x.n_leaves != y.n_leaves:
            pairs += 1
            yield x, y


def _minmax_reference_pairs(rng):
    """Random pairs of up to 20 leaves, caterpillars, stars, combs, the
    fixture triples and the lopsided pairs."""
    for i in range(45):
        yield (random_merge_tree(rng, max_leaves=20, integer_values=i % 3 == 2),
               random_merge_tree(rng, max_leaves=20, integer_values=i % 3 == 2))
    for n in (12, 16, 20):
        yield random_caterpillar(rng, n), random_caterpillar(rng, n - 2)
        yield (random_caterpillar(rng, n, integer_values=True),
               random_caterpillar(rng, n, integer_values=True))
    for n in (5, 12, 20):
        yield random_star(rng, n), random_star(rng, n - 1, integer_values=True)
        yield random_star(rng, n), random_caterpillar(rng, n)
    trees = list(_comb_trees())
    yield from zip(trees[::2], trees[1::2])
    triple = tree_counterexample()
    graphs = [merge_tree_at(g, frame_angles(1)[0]) for g in graph_counterexample()]
    for t in (triple, graphs):
        yield from ((a, b) for a in t for b in t)
    yield from _lopsided_pairs(rng)


def test_engine_matches_minmax_reference(rng):
    # the engine prunes every weight at its caller's cutoff; the reference
    # computes each in full, so the two must agree to the bit
    for x, y in _minmax_reference_pairs(rng):
        assert branching_distance(x, y) == minmax_distance(x, y)
        assert branching_distance(y, x) == minmax_distance(y, x)


def test_engine_matches_minmax_reference_past_the_guard(rng, monkeypatch):
    # 25-30 leaves, with the leaf guard raised for this test only; the
    # reference takes up to about 2 s an order on the caterpillar pair
    monkeypatch.setattr(branching, "MAX_LEAVES", 30)
    monkeypatch.setattr(oracles, "MAX_LEAVES", 30)
    pairs = [(_sized_merge_tree(rng, 25, 30, integer_values=i >= 2),
              _sized_merge_tree(rng, 25, 30, integer_values=i >= 2)) for i in range(4)]
    pairs += [(random_star(rng, 30), random_star(rng, 25)),
              (random_caterpillar(rng, 26, integer_values=True),
               random_caterpillar(rng, 27, integer_values=True))]
    for x, y in pairs:
        assert max(x.n_leaves, y.n_leaves) > MAX_LEAVES
        assert branching_distance(x, y) == minmax_distance(x, y)
        assert branching_distance(y, x) == minmax_distance(y, x)


def _reference_least_cover(t, rows, removal, cutoff):
    """The least cover by bisection: a fresh matching at each candidate t."""
    def covers(t):
        partners = {a: [b for w, b in row if w <= t] for a, row in rows.items() if removal[a] > t}
        owner = {}

        def augment(a, seen):
            for b in partners[a]:
                if b not in seen:
                    seen.add(b)
                    if b not in owner or augment(owner[b], seen):
                        owner[b] = a
                        return True
            return False

        return all(augment(a, set()) for a in partners)

    if covers(t):
        return t
    ts = sorted({u for a, row in rows.items() for u in (removal[a], *(w for w, _ in row))
                 if t < u < cutoff})
    i = bisect_left(ts, True, key=covers)  # covering only grows with t
    return ts[i] if i < len(ts) else math.inf


@st.composite
def cover_problems(draw):
    """Rows of 1-8 slots over 1-8 partners with small integer weights, so
    weights tie; ``t`` sometimes one of them, ``cutoff`` sometimes inf."""
    n_slots, n_partners = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    weights = st.integers(0, 6).map(float)
    rows = {a: sorted((w, b) for b, w in draw(
                st.dictionaries(st.integers(0, n_partners - 1), weights)).items())
            for a in range(n_slots)}
    removal = {a: draw(weights) for a in rows}
    row_weights = sorted({w for row in rows.values() for w, _ in row})
    t = draw(st.sampled_from(row_weights) if row_weights and draw(st.booleans()) else weights)
    cutoff = draw(st.just(math.inf) | st.integers(0, 7).map(float))
    return t, rows, removal, cutoff


@given(problem=cover_problems())
@settings(max_examples=500, deadline=None)
def test_least_cover_matches_bisection(problem):
    assert branching._least_cover(*problem) == _reference_least_cover(*problem)


def _star(*values):
    """Leaves 0..n-2 at ``values[:-1]`` under one root at ``values[-1]``."""
    root = len(values) - 1
    return tree(dict(enumerate(values)), {i: root for i in range(root + 1)})


# In every pair, two slots of one side weigh least against the same slot of
# the other, so the first partners are no matching: the search must go past
# a first partner, into its owner, or fail and raise t.
SHARED_FIRST_PARTNER_PAIRS = [
    # roots match leaf 0 to leaf 0; x's slots 1 and 2 both weigh least against
    # y's slot 1, so x's 2 goes to y's 5 and d_B = 3
    (_star(0, 1, 2, 10), _star(0, 1, 5, 10)),
    (_star(0, 1, 2, 3, 10), _star(0, 1, 6, 7, 10)),
    # tied slots: x's two leaves at 2 share y's leaf at 2
    (_star(0, 2, 2, 10), _star(0, 2, 4, 10)),
    # nested: the slots hang at two saddles of the root branch
    (tree({0: 0, 1: 1, 2: 2, 3: 6, 4: 8}, {0: 3, 1: 3, 3: 4, 2: 4, 4: 4}),
     tree({0: 0, 1: 1, 2: 5, 3: 6, 4: 8}, {0: 3, 1: 3, 3: 4, 2: 4, 4: 4})),
]


@pytest.mark.parametrize("x, y", SHARED_FIRST_PARTNER_PAIRS,
                         ids=["star3", "star4", "tied-star3", "nested"])
def test_shared_first_partner_matches_minmax_reference(x, y, monkeypatch):
    augment, depth, contested = branching._augment, [0], [0]

    def counted_augment(*args):
        # a call made inside another recursed into an owner
        contested[0] += depth[0] > 0
        depth[0] += 1
        matched = augment(*args)
        depth[0] -= 1
        contested[0] += not matched
        return matched

    monkeypatch.setattr(branching, "_augment", counted_augment)
    for a, b in ((x, y), (y, x)):
        before = contested[0]
        assert branching_distance(a, b) == minmax_distance(a, b)
        assert contested[0] > before


def test_engine_matches_minmax_reference_on_shape_dataset():
    # the paper's clustering run: every distinct (tree, tree) item of the
    # 18-graph matrix at 10 frames, in both argument orders
    graphs, _ = shape_dataset(seed=0)
    rows = [frame_trees(g, frame_angles(10)) for g in graphs]
    items = {}
    for rx, ry in combinations(rows, 2):
        for x, y in zip(rx, ry):
            items.setdefault((x.canonical_key(), y.canonical_key()), (x, y))
    assert len(items) > 1000
    for x, y in items.values():
        assert branching_distance(x, y) == minmax_distance(x, y)
        assert branching_distance(y, x) == minmax_distance(y, x)


def _tied_saddles(rng):
    """Two or three random subtrees shifted so that their roots, siblings
    under one new root, share one value; integer values tie leaves too."""
    values, parent, top = {}, {}, 40.0
    for k in range(int(rng.integers(2, 4))):
        sub = random_merge_tree(rng, max_leaves=6, integer_values=True)
        shift = top - sub.values[sub.root]
        for n, v in sub.values.items():
            values[100 * k + n] = v + shift
            parent[100 * k + n] = 100 * k + sub.parent[n]
        parent[100 * k + sub.root] = -1
    values[-1], parent[-1] = top + 1.0, -1
    return MergeTree(values, parent)


def _table_trees(rng):
    """Random trees of up to 20 leaves (a third with tied integer values),
    stars, caterpillars, trees with tied sibling saddles, the trivial tree,
    each also relabelled and listed in a shuffled node order."""
    for i in range(90):
        yield random_merge_tree(rng, max_leaves=20, integer_values=i % 3 == 2)
    for n in (2, 5, 12, 20):
        yield random_star(rng, n)
        yield random_star(rng, n, integer_values=True)
        yield random_caterpillar(rng, n)
        yield random_caterpillar(rng, n, integer_values=True)
    for _ in range(20):
        yield _tied_saddles(rng)
    yield MergeTree({7: 1.5}, {7: 7})


def _engine_table_by_id(mt):
    """The engine's three row lists of ``mt`` (saddle, branches, removal
    cost), keyed back by node id as the reference's five maps, with ``None``
    for the virtual node above the root and sets for orderless fields."""
    saddle, branches, removal = branching._table(mt)
    n, node = mt.n_nodes, [*mt.ids, None]
    up = [*mt.up[:-1], n]  # the root's branches reach up to the virtual node
    assert len(saddle) == len(branches) == len(removal) == n
    assert all(i < up[i] for i in range(n))  # children first
    # every node's value, read from its children's saddles and its own branch as a leaf
    seen = {(node[up[i]], saddle[i].hex()) for i in range(n)}
    seen |= {(node[m], v.hex()) for own in branches for v, m, _, _ in own}
    value = dict(seen)
    assert len(value) == len(seen) == n + 1  # one value a node, however it is read
    for own in branches:  # each branch carries its slots' largest removal cost, to the bit
        assert all(r.hex() == max([0.0, *(removal[c] for c in hung)]).hex() for _, _, hung, r in own)
    return (value,
            {node[i]: node[up[i]] for i in range(n)},
            {node[i]: {node[m] for _, m, _, _ in own} for i, own in enumerate(branches)},
            {(node[m], node[up[i]]): {node[c] for c in hung}
             for i, own in enumerate(branches) for _, m, hung, _ in own},
            {node[i]: removal[i].hex() for i in range(n - 1)})


def test_engine_table_matches_minmax_table(rng):
    # the engine's rows and the reference's node-id maps are built apart;
    # mapped back to node ids they must hold the same values to the bit
    trees = list(_table_trees(rng))
    trees += [_relabelled(t, rng) for t in trees]
    assert len(trees) >= 200
    for mt in trees:
        value, up, below, slots, removal = minmax_table(mt)
        assert _engine_table_by_id(mt) == (
            {n: v.hex() for n, v in value.items()},
            up,
            {n: set(leaves) for n, leaves in below.items()},
            {branch: set(hung) for branch, hung in slots.items()},
            {n: r.hex() for n, r in removal.items()},
        )


def _pinned_pairs(rng):
    """Random pairs of up to 20 leaves (every other one integer-valued),
    20-leaf stars and caterpillars, trees with tied sibling saddles, and
    neighbouring shape-dataset graphs' frame trees."""
    for i in range(420):
        yield (random_merge_tree(rng, max_leaves=20, integer_values=i % 2 == 1),
               random_merge_tree(rng, max_leaves=20, integer_values=i % 2 == 1))
    for i in range(6):
        yield random_star(rng, 20, integer_values=i % 2 == 1), random_star(rng, 20)
        yield (random_caterpillar(rng, 20, integer_values=i % 2 == 1),
               random_caterpillar(rng, 20))
        yield random_star(rng, 20), random_caterpillar(rng, 20, integer_values=i % 2 == 1)
    for _ in range(30):
        yield _tied_saddles(rng), _tied_saddles(rng)
    graphs, _ = shape_dataset(seed=0)
    rows = [frame_trees(g, frame_angles(4)) for g in graphs]
    for rx, ry in zip(rows, rows[1:]):
        yield from zip(rx, ry)


# SHA-256 of the newline-joined float.hex of d_B over _pinned_pairs(rng), each
# pair in both orders; any engine change that moves one bit changes it
PINNED_DISTANCES = "7db7032aac9eabf3af13d37fe63b5dbaeb07d888dabb29e4faef39a445225463"


def test_engine_floats_are_pinned(rng):
    pairs = list(_pinned_pairs(rng))
    assert 2 * len(pairs) >= 1000
    digest = hashlib.sha256("\n".join(
        branching_distance(a, b).hex() for x, y in pairs for a, b in ((x, y), (y, x))
    ).encode()).hexdigest()
    assert digest == PINNED_DISTANCES


def _rows(mt):
    return mt.ids, [v.hex() for v in mt.vals], mt.up


def _in_node_order(mt, order):
    return MergeTree({n: mt.values[n] for n in order}, {n: mt.parent[n] for n in order})


@pytest.mark.parametrize("tol", [None, 1e-3], ids=["exact", "tolerance"])
def test_node_order_does_not_change_distance(rng, tol):
    # a hand-written tree file may list its nodes in any order; the tree's
    # rows come from one sort, so ascending, root-first and shuffled orders
    # give the same rows and the same bits in both argument orders
    def orders(mt):
        ascending = sorted(mt.values, key=mt.values.get)
        shuffled = [ascending[k] for k in rng.permutation(len(ascending))]
        return [_in_node_order(mt, o) for o in (ascending, ascending[::-1], shuffled)]

    pairs = [(random_merge_tree(rng, max_leaves=12, integer_values=i % 2 == 1),
              random_merge_tree(rng, max_leaves=12, integer_values=i % 2 == 1))
             for i in range(30)]
    pairs += [(_tied_saddles(rng), _tied_saddles(rng)) for _ in range(10)]
    pairs += [(random_star(rng, 9, integer_values=True), random_caterpillar(rng, 9))]
    for x, y in pairs:
        (ax, *other_x), (ay, *other_y) = orders(x), orders(y)
        for a, others in ((ax, other_x), (ay, other_y)):
            assert all(_rows(t) == _rows(a) for t in others)
        d = branching_distance(ax, ay, tol=tol).hex()
        for ox, oy in product([ax, *other_x], [ay, *other_y]):
            assert branching_distance(ox, oy, tol=tol).hex() == d
            assert branching_distance(oy, ox, tol=tol).hex() == d


def test_node_order_in_a_tree_file_does_not_change_distance(tmp_path, rng):
    x, y = _tied_saddles(rng), random_caterpillar(rng, 8, integer_values=True)
    d = branching_distance(x, y)
    for name, order in (("root-first", sorted(x.values, key=x.values.get, reverse=True)),
                        ("shuffled", [list(x.values)[k] for k in rng.permutation(x.n_nodes)])):
        doc = {"nodes": [{"id": n, "value": x.values[n]} for n in order],
               "parent": {str(n): x.parent[n] for n in order}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        loaded = load_tree(path)
        assert _rows(loaded) == _rows(x)
        assert branching_distance(loaded, y) == branching_distance(y, loaded) == d


def _relabelled(mt, rng):
    """The same tree under new node ids, inserted in a new order."""
    old = list(mt.values)
    new = dict(zip(old, (1000 + 7 * int(k) for k in rng.permutation(len(old)))))
    order = [old[k] for k in rng.permutation(len(old))]
    return MergeTree({new[n]: mt.values[n] for n in order},
                     {new[n]: new[mt.parent[n]] for n in order})


def test_symmetry_exact(rng):
    for x, y in _metamorphic_pairs(rng):
        assert branching_distance(x, y) == branching_distance(y, x) >= 0.0


def test_relabelling_and_power_of_two_scaling_exact(rng):
    # scaling by 2**k is exact in floating point, so the distance scales exactly
    for x, y in _metamorphic_pairs(rng):
        d = branching_distance(x, y)
        assert branching_distance(_relabelled(x, rng), _relabelled(y, rng)) == d
        for k in (-3, 5):
            sx, sy = (MergeTree({n: math.ldexp(v, k) for n, v in t.values.items()}, dict(t.parent))
                      for t in (x, y))
            assert branching_distance(sx, sy) == math.ldexp(d, k)


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
        approx = branching_distance(x, y, tol=1e-6)
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
        leaf = min(leaves(x))
        perturbed = MergeTree({**x.values, leaf: x.values[leaf] - delta}, x.parent)
        assert branching_distance(x, perturbed) > 0.0


def star_tree(n):
    return MergeTree({i: float(i) for i in range(n)} | {100: 100.0},
                     {i: 100 for i in range(n)} | {100: 100})


def test_size_guards():
    big = star_tree(MAX_LEAVES + 1)
    with pytest.raises(ValueError, match="merge tree has 21 leaves; representations is limited to 20"):
        representations(big)
    small = tree({0: 0.0}, {0: 0})
    refusal = "merge tree has 21 leaves; branching_distance is limited to 20"
    for x, y in ((big, big), (small, big), (big, small)):
        with pytest.raises(ValueError, match=refusal):
            branching_distance(x, y)
        with pytest.raises(ValueError, match=refusal):
            is_eps_similar(x, y, 1.0)
    at_limit = star_tree(MAX_LEAVES)
    assert branching_distance(at_limit, at_limit) == 0.0
    assert branching_distance(small, at_limit) == 100.0
    six = MergeTree(
        {i: float(i) for i in range(6)} | {10: 10.0},
        {i: 10 for i in range(6)} | {10: 10},
    )
    with pytest.raises(ValueError, match="limited to 5"):
        brute_force_distance(six, six)
