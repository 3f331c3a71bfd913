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
what keeps the representation a tree.  :func:`representations` builds the
distinct representations directly, in one recursion over the tree.

Two merge trees are eps-similar if some pair of representations admits a
valid matching (a parent/child-preserving partial bijection whose removed
vertices form complete fringe subtrees and which keeps a root branch on
each side) with every matched cost and removal cost at most eps.  The
branching distance is the least such eps over all representation pairs.
Every achievable max-cost is either the difference between a node value of
one tree and one of the other, or half a branch length, so the exact
distance is found by binary search over that finite candidate set; a plain
bisection to a width tolerance is also provided.

``brute_force_distance`` recomputes the distance by exhaustive enumeration
of removal sets and order-preserving bijections and is the test oracle for
the optimized path.  The number of representations is exponential in the
leaf count, so everything here is guarded to trees with at most 12 leaves
(5 for the brute force).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np
from scipy.optimize import linear_sum_assignment

from .merge_tree import MergeTree

__all__ = [
    "Branch",
    "RootedTreeRep",
    "matching_cost",
    "removal_cost",
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
class RootedTreeRep:
    """Tree of branches, rooted at the root branch (index ``root``)."""

    branches: list[Branch]
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


def representations(mt: MergeTree, max_leaves: int = MAX_LEAVES_BASELINE) -> list[RootedTreeRep]:
    """The distinct rooted tree representations of ``mt``, one per canonical key.

    One recursion over the tree.  Each node yields its distinct upward
    chains, keyed by (minimum value, keys of the branches hanging off the
    chain).  At a saddle one child chain continues and every other child
    chain ends there as a branch hanging off the continuing one; the chain
    through the root is the root branch.  The first chain met under each key
    is kept, so duplicates never form.  Exponential in the number of leaves.
    """
    _guard_leaves(mt, max_leaves, "representations")
    ch = mt.children()
    vals = mt.values

    def chains(n: int) -> dict:
        # key -> (id of the chain's minimum, branches hanging off the chain),
        # where a branch is (key, Branch, branches hanging off it)
        if not ch[n]:
            return {(vals[n], ()): (n, ())}
        s = vals[n]
        below = [chains(c) for c in sorted(ch[n])]
        out: dict = {}
        for i, through in enumerate(below):
            for ended in product(*(c.items() for c in below[:i] + below[i + 1 :])):
                new = tuple(((m, s, att), Branch(m_id, m, n, s), hung)
                            for (m, att), (m_id, hung) in ended)
                for (m, att), (m_id, hung) in through.items():
                    key = (m, tuple(sorted(att + tuple(b[0] for b in new))))
                    out.setdefault(key, (m_id, hung + new))
        return out

    root, s = mt.root, vals[mt.root]
    return [_rep(((m, s, att), Branch(m_id, m, root, s), hung))
            for (m, att), (m_id, hung) in chains(root).items()]


def _rep(top) -> RootedTreeRep:
    """Index a (key, Branch, hanging branches) tree, root first."""
    rep = RootedTreeRep([], 0, [], [])

    def add(node) -> int:
        _, b, hung = node
        i = len(rep.branches)
        rep.branches.append(b)
        rep.children.append([])
        rep.subtree_max_rc.append(removal_cost(b))
        for h in hung:
            c = add(h)
            rep.children[i].append(c)
            rep.subtree_max_rc[i] = max(rep.subtree_max_rc[i], rep.subtree_max_rc[c])
        return i

    add(top)
    return rep


def _unique_representations(mt: MergeTree) -> list[RootedTreeRep]:
    """``representations(mt)``, built on the first call and kept in ``mt.unique_reps``.

    This is the distance functions' only leaf-count guard: ``representations``
    refuses a tree over the 12-leaf limit on every call until one succeeds.
    """
    if mt.unique_reps is None:
        mt.unique_reps = representations(mt)
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
    construction; the representations cover every choice of surviving
    root branch), children are matched pairwise or removed as
    whole subtrees.
    """
    return _similar(_unique_representations(x), _unique_representations(y), eps)


def candidate_costs(x: MergeTree, y: MergeTree) -> list[float]:
    """Every value the optimal max-cost can take, sorted ascending.

    A matched cost is the absolute difference between a node value of ``x``
    and one of ``y``; a removal cost is half a branch length, i.e. half the
    value difference between a leaf and one of its ancestors.
    """
    cands = {0.0}
    cands.update(abs(a - b) for a in x.values.values() for b in y.values.values())
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
    the optimum itself.  ``mode='tolerance'`` bisects [0, span of both
    trees' values] down to width ``tol`` and returns a feasible value within
    ``tol`` of the optimum.
    """
    reps_x = _unique_representations(x)
    reps_y = _unique_representations(y)
    if mode == "exact":
        cands = candidate_costs(x, y)
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
        values = [*x.values.values(), *y.values.values()]
        lo, hi = 0.0, max(values) - min(values)
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
