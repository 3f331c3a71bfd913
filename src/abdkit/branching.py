"""Branch decompositions and the branching distance between merge trees.

A branch decomposition pairs every minimum of a merge tree with a saddle or
the root through edge-disjoint descending paths that cover every edge.  It
is generated by choosing, at each saddle and at the root, which child chain
extends through that vertex; the chain chosen at the root is the
decomposition's *root branch*.  The rooted tree representation has one
vertex per branch, rooted at the root branch, with each branch attached to
the chain that owns the up-edge at its saddle (branches ending at the tree
root attach to the root branch).  For trees in general position this is
exactly the on-path adjacency rule; when three or more chains meet at one
vertex the literal rule would create a clique, and the ownership reading is
what keeps the representation a tree.

Two merge trees are eps-similar if some pair of representations admits a
valid matching (a parent/child-preserving partial bijection whose removed
vertices form complete fringe subtrees and which keeps a root branch on
each side) with every matched cost and removal cost at most eps.  The
branching distance is the least such eps over all representation pairs.
Every achievable max-cost is either a pairwise node-value difference or
half a branch length, so the exact distance is found by binary search over
that finite candidate set; a plain bisection to a width tolerance is also
provided.

``brute_force_distance`` recomputes the distance by exhaustive enumeration
of removal sets and order-preserving bijections and is the test oracle for
the optimized path.  Everything here enumerates decompositions and is
guarded to trees with at most 12 leaves (5 for the brute force).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np
from scipy.optimize import linear_sum_assignment

from .merge_tree import MergeTree

__all__ = [
    "Branch",
    "BranchDecomposition",
    "RootedTreeRep",
    "matching_cost",
    "removal_cost",
    "enumerate_branch_decompositions",
    "rooted_tree_representation",
    "representations",
    "is_eps_similar",
    "branching_distance",
    "brute_force_distance",
    "candidate_costs",
    "MAX_LEAVES_BASELINE",
    "MAX_LEAVES_BRUTE_FORCE",
]

MAX_LEAVES_BASELINE = 12
MAX_LEAVES_BRUTE_FORCE = 5


@dataclass(frozen=True)
class Branch:
    """A (minimum, saddle-or-root) pair; degenerate when both coincide."""

    m_id: int
    m_value: float
    s_id: int
    s_value: float

    @property
    def degenerate(self) -> bool:
        return self.m_id == self.s_id


def matching_cost(u: Branch, v: Branch) -> float:
    """max(|m_u - m_v|, |s_u - s_v|)."""
    return max(abs(u.m_value - v.m_value), abs(u.s_value - v.s_value))


def removal_cost(u: Branch) -> float:
    """|m_u - s_u| / 2."""
    return abs(u.m_value - u.s_value) / 2.0


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


@dataclass
class RootedTreeRep:
    """Tree of branches, rooted at the decomposition's root branch."""

    branches: list[Branch]
    parent: list[int]
    root: int
    children: list[list[int]]
    subtree_max_rc: list[float]

    def canonical_key(self):
        def rec(i: int):
            b = self.branches[i]
            return (b.m_value, b.s_value, tuple(sorted(rec(c) for c in self.children[i])))

        return rec(self.root)


def _guard_leaves(mt: MergeTree, limit: int, what: str) -> None:
    n = mt.n_leaves
    if n > limit:
        raise ValueError(f"merge tree has {n} leaves; {what} is limited to {limit}")


def enumerate_branch_decompositions(
    mt: MergeTree, max_leaves: int = MAX_LEAVES_BASELINE
) -> list[BranchDecomposition]:
    """All branch decompositions of ``mt``, exactly once each.

    Generated by choosing at every saddle and at the root which descending
    child chain extends through it, in lexicographic order of the chosen
    child ids.  Exponential in the number of leaves.
    """
    _guard_leaves(mt, max_leaves, "decomposition enumeration")
    root = mt.root
    if mt.is_trivial():
        b = Branch(root, mt.values[root], root, mt.values[root])
        return [BranchDecomposition(mt, [b], [frozenset()], 0)]

    ch = mt.children()
    internal = sorted(n for n in mt.values if ch[n])
    leaves = sorted(mt.leaves())
    out: list[BranchDecomposition] = []
    for combo in product(*[sorted(ch[t]) for t in internal]):
        choice = dict(zip(internal, combo))
        branches: list[Branch] = []
        paths: list[frozenset[tuple[int, int]]] = []
        root_index = -1
        for m in leaves:
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
    rep = RootedTreeRep(list(bd.branches), parent, bd.root_index, children, [0.0] * n)
    _fill_subtree_rc(rep)
    return rep


def _fill_subtree_rc(rep: RootedTreeRep) -> None:
    order = _postorder(rep)
    for i in order:
        rc = removal_cost(rep.branches[i])
        for c in rep.children[i]:
            rc = max(rc, rep.subtree_max_rc[c])
        rep.subtree_max_rc[i] = rc


def _postorder(rep: RootedTreeRep) -> list[int]:
    out: list[int] = []
    stack = [(rep.root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(node)
        else:
            stack.append((node, True))
            for c in rep.children[node]:
                stack.append((c, False))
    return out


def representations(mt: MergeTree, max_leaves: int = MAX_LEAVES_BASELINE) -> list[RootedTreeRep]:
    """All rooted tree representations of ``mt`` (one per decomposition)."""
    return [rooted_tree_representation(bd) for bd in enumerate_branch_decompositions(mt, max_leaves)]


def _unique_representations(mt: MergeTree) -> list[RootedTreeRep]:
    """Representations deduplicated by (value, shape); identical reps match identically.

    Built on the first call and kept in ``mt.unique_reps`` for later ones.
    """
    if mt.unique_reps is None:
        unique: dict = {}
        for rep in representations(mt):
            unique.setdefault(rep.canonical_key(), rep)
        mt.unique_reps = list(unique.values())
    return mt.unique_reps


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


def is_eps_similar(x: MergeTree, y: MergeTree, eps: float) -> bool:
    """Decide whether some representation pair matches within ``eps``.

    Roots of the two representations must match (they are root branches by
    construction; enumerating all decompositions covers every choice of
    surviving root branch), children are matched pairwise or removed as
    whole subtrees.
    """
    _guard_leaves(x, MAX_LEAVES_BASELINE, "is_eps_similar")
    _guard_leaves(y, MAX_LEAVES_BASELINE, "is_eps_similar")
    return _similar(_unique_representations(x), _unique_representations(y), eps)


def candidate_costs(x: MergeTree, y: MergeTree) -> list[float]:
    """Every value the optimal max-cost can take, sorted ascending.

    Matched costs are absolute differences of node values; removal costs
    are half branch lengths, i.e. half the value difference between a leaf
    and one of its ancestors.
    """
    vals = list(x.values.values()) + list(y.values.values())
    cands = {0.0}
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            cands.add(abs(a - b))
    for t in (x, y):
        for leaf in t.leaves():
            node = leaf
            while node != t.parent[node]:
                node = t.parent[node]
                cands.add(abs(t.values[leaf] - t.values[node]) / 2.0)
    return sorted(cands)


def branching_distance(
    x: MergeTree,
    y: MergeTree,
    mode: str = "exact",
    tol: float = 1e-6,
) -> float:
    """Smallest eps for which the trees are eps-similar.

    ``mode='exact'`` binary-searches the finite candidate set and returns
    the optimum itself.  ``mode='tolerance'`` bisects [0, max candidate]
    down to width ``tol`` and returns a feasible value within ``tol`` of
    the optimum.
    """
    _guard_leaves(x, MAX_LEAVES_BASELINE, "branching_distance")
    _guard_leaves(y, MAX_LEAVES_BASELINE, "branching_distance")
    reps_x = _unique_representations(x)
    reps_y = _unique_representations(y)
    cands = candidate_costs(x, y)
    if mode == "exact":
        if _similar(reps_x, reps_y, cands[0]):
            return cands[0]
        lo, hi = 0, len(cands) - 1
        # cands[-1] is always feasible: match the two root branches, remove the rest
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _similar(reps_x, reps_y, cands[mid]):
                hi = mid
            else:
                lo = mid
        return cands[hi]
    if mode == "tolerance":
        if tol <= 0:
            raise ValueError("tol must be > 0 in tolerance mode")
        if _similar(reps_x, reps_y, 0.0):
            return 0.0
        lo, hi = 0.0, cands[-1]
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if _similar(reps_x, reps_y, mid):
                hi = mid
            else:
                lo = mid
        return hi
    raise ValueError(f"unknown mode {mode!r}, expected 'exact' or 'tolerance'")


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def _kept_sets(rep: RootedTreeRep) -> list[tuple[frozenset[int], float]]:
    """All connected kept-sets containing the representation root.

    Returns (kept vertices, max removal cost over the discarded fringe
    subtrees) for every way of pruning whole subtrees.
    """

    def rec(i: int) -> list[tuple[frozenset[int], float]]:
        per_child = []
        for c in rep.children[i]:
            opts = rec(c) + [(frozenset(), rep.subtree_max_rc[c])]
            per_child.append(opts)
        out = []
        for combo in product(*per_child):
            kept = {i}
            cost = 0.0
            for ks, cc in combo:
                kept |= ks
                cost = max(cost, cc)
            out.append((frozenset(kept), cost))
        return out

    return rec(rep.root)


def _min_max_matched(
    rx: RootedTreeRep,
    ry: RootedTreeRep,
    kept_x: frozenset[int],
    kept_y: frozenset[int],
) -> float:
    """Minimal max matching cost over all order-preserving bijections.

    Infinity when the kept subtrees are not shape-isomorphic.  Choices in
    disjoint child subtrees are independent, so the min-max splits per
    child pair and the bijection at each vertex is brute-forced.
    """
    memo: dict[tuple[int, int], float] = {}

    def rec(i: int, j: int) -> float:
        key = (i, j)
        if key in memo:
            return memo[key]
        cu = [c for c in rx.children[i] if c in kept_x]
        cv = [c for c in ry.children[j] if c in kept_y]
        base = matching_cost(rx.branches[i], ry.branches[j])
        if len(cu) != len(cv):
            memo[key] = float("inf")
            return memo[key]
        if not cu:
            memo[key] = base
            return base
        sub = {(a, b): rec(a, b) for a in cu for b in cv}
        best = float("inf")
        for perm in permutations(cv):
            worst = max(sub[(a, b)] for a, b in zip(cu, perm))
            if worst < best:
                best = worst
        memo[key] = max(base, best)
        return memo[key]

    return rec(rx.root, ry.root)


def brute_force_distance(x: MergeTree, y: MergeTree) -> float:
    """Exhaustive branching distance; independent oracle for small trees.

    Enumerates every representation pair, every fringe-subtree removal set
    on both sides, and every order-preserving bijection on the remainders,
    returning the global min-max cost.  Limited to 5 leaves per tree.
    """
    _guard_leaves(x, MAX_LEAVES_BRUTE_FORCE, "brute_force_distance")
    _guard_leaves(y, MAX_LEAVES_BRUTE_FORCE, "brute_force_distance")
    best = float("inf")
    for rx in representations(x):
        kept_xs = _kept_sets(rx)
        for ry in representations(y):
            kept_ys = _kept_sets(ry)
            for kept_x, rem_x in kept_xs:
                for kept_y, rem_y in kept_ys:
                    if len(kept_x) != len(kept_y):
                        continue
                    matched = _min_max_matched(rx, ry, kept_x, kept_y)
                    if matched == float("inf"):
                        continue
                    total = max(matched, rem_x, rem_y)
                    if total < best:
                        best = total
    return best
