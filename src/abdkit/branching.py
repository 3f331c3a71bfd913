"""Branch decompositions and the branching distance between merge trees.

A branch decomposition pairs every minimum with a saddle or the root through
edge-disjoint descending paths covering every edge.  Its representation is
the tree of branches rooted at the root branch (the chain through the root),
each branch attached to the chain owning the up-edge at its saddle.  Trees
are eps-similar if some pair of representations admits a parent-preserving
matching of the root branches and more, the rest removed as whole fringe
subtrees, with every matched and removal cost at most eps; d_B is the least
such eps.  Choices in disjoint subtrees are independent, so
:func:`branching_distance` builds no representation.  A branch is a state
``(m, s)``, leaf ``m`` under ``s`` (``None`` above the root for the root
branch); its *slots* are the off-path children of the nodes strictly
between, and slot ``c`` holds a branch ``(m', parent of c)`` for any leaf
``m'`` below ``c``.  Removing a slot costs the least ``R`` over its leaves,
``R(m, s) = max(|m - s| / 2, removal costs of its slots)``; a branch pair
costs ``V = max(matching_cost, least t at which every slot of either side
is removed or matched to a slot of the other within t)``, a slot pair
weighing its least ``V``; d_B is the least ``V`` of root branches.  Only
the float operations of :func:`candidate_costs` occur, so the exact value
is a candidate; tolerance mode bisects against ``d_B <= mid``.  Trees are
limited to 20 leaves.  :func:`representations` (exponential) and
:func:`brute_force_distance` (5 leaves at most) are the test oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations, product
from math import inf

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
    "MAX_LEAVES",
    "MAX_LEAVES_BRUTE_FORCE",
]

MAX_LEAVES = 20
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


def _guard_leaves(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise ValueError(f"merge tree has {n} leaves; {what} is limited to {limit}")


def representations(mt: MergeTree) -> list[RootedTreeRep]:
    """The distinct rooted tree representations of ``mt``, one per canonical key.

    One recursion over the tree.  Each node yields its distinct upward
    chains, keyed by (minimum value, keys of the branches hanging off the
    chain).  At a saddle one child chain continues and every other child
    chain ends there as a branch hanging off the continuing one; the chain
    through the root is the root branch.  The first chain met under each key
    is kept, so duplicates never form.  Exponential in the number of leaves.
    """
    _guard_leaves(mt.n_leaves, MAX_LEAVES, "representations")
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


def _table(mt: MergeTree) -> tuple[dict, dict, dict, dict, dict]:
    """``mt.branch_table``, built on the first call; the distance's leaf guard.

    Five maps, with ``None`` a virtual parent of the root valued like it:
    node -> value, node -> parent (root -> None), node -> leaves below it,
    branch ``(m, s)`` -> its slots, slot -> least removal cost.
    """
    if mt.branch_table is None:
        ch = mt.children()
        leaves = [n for n in mt.values if not ch[n]]
        _guard_leaves(len(leaves), MAX_LEAVES, "branching_distance")
        value = {**mt.values, None: mt.values[mt.root]}
        up = {n: (p if p != n else None) for n, p in mt.parent.items()}
        ascending = sorted(mt.values, key=value.get)  # every child before its parent
        below: dict = {}
        for n in ascending:
            below[n] = [m for c in ch[n] for m in below[c]] or [n]
        slots: dict = {}
        for m in leaves:
            v, hung = m, ()
            while v is not None:
                prev, v = v, up[v]
                slots[m, v] = hung
                hung += tuple(c for c in ch.get(v, ()) if c != prev)
        removal: dict = {}
        for c in ascending[:-1]:  # every node but the root
            removal[c] = min(max([abs(value[m] - value[up[c]]) / 2.0,
                                  *(removal[d] for d in slots[m, up[c]])]) for m in below[c])
        mt.branch_table = value, up, below, slots, removal
    return mt.branch_table


def _covers(partners: dict) -> bool:
    """Does some matching cover every key of ``partners``?  Augmenting paths."""
    owner: dict = {}

    def augment(a, seen: set) -> bool:
        for b in partners[a]:
            if b not in seen:
                seen.add(b)
                if b not in owner or augment(owner[b], seen):
                    owner[b] = a
                    return True
        return False

    return all(augment(a, set()) for a in partners)


def _distance(x: MergeTree, y: MergeTree) -> float:
    """d_B in one pass of the min-max recursion (see the module docstring).

    ``slot(cx, cy)`` is the weight of a slot pair; its leaf pairs go in
    ascending matching cost until the cost reaches the best value so far,
    and ``value`` returns inf once it cannot beat that ``cutoff`` either.
    """
    (vx, upx, belowx, slotsx, rx), (vy, upy, belowy, slotsy, ry) = _table(x), _table(y)
    if len(vx) == len(vy) == 2:  # two trivial trees
        return abs(vx[None] - vy[None])
    memo: dict = {}

    def slot(cx, cy) -> float:
        px, py = upx[cx], upy[cy]
        saddles = abs(vx[px] - vy[py])
        best = inf
        for cost, mx, my in sorted((max(abs(vx[mx] - vy[my]), saddles), mx, my)
                                   for mx in belowx[cx] for my in belowy[cy]):
            if cost >= best:
                break
            best = min(best, value(cost, slotsx[mx, px], slotsy[my, py], best))
        memo[cx, cy] = best
        return best

    def value(cost: float, sx: tuple, sy: tuple, cutoff: float) -> float:
        hx = [a for a in sx if rx[a] > cost]  # slots too costly to remove at cost
        hy = [b for b in sy if ry[b] > cost]
        if not hx and not hy:
            return cost
        # pairs with a heavy side; a saddle gap of cutoff or more rules one out
        weight = {(a, b): memo[a, b] if (a, b) in memo else slot(a, b)
                  for a, b in {*product(hx, sy), *product(sx, hy)}
                  if abs(vx[upx[a]] - vy[upy[b]]) < cutoff}

        def feasible(t: float) -> bool:  # each side's heavy slots covered apart suffices
            return (_covers({a: [b for b in sy if weight.get((a, b), inf) <= t]
                             for a in hx if rx[a] > t})
                    and _covers({b: [a for a in sx if weight.get((a, b), inf) <= t]
                                 for b in hy if ry[b] > t}))

        # every heavy slot needs a partner or its removal within t
        low = max([cost, *(min([rx[a], *(weight.get((a, b), inf) for b in sy)]) for a in hx),
                   *(min([ry[b], *(weight.get((a, b), inf) for a in sx)]) for b in hy)])
        if low >= cutoff or feasible(low):
            return low if low < cutoff else inf
        ts = sorted({t for t in [*weight.values(), *(rx[a] for a in hx), *(ry[b] for b in hy)]
                     if low < t < cutoff})
        i = bisect_left(ts, True, key=feasible)  # feasibility only grows with t
        return ts[i] if i < len(ts) else inf

    return slot(x.root, y.root)


def is_eps_similar(x: MergeTree, y: MergeTree, eps: float) -> bool:
    """Does some pair of branch decompositions match within ``eps``?"""
    return branching_distance(x, y) <= eps


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

    ``mode='exact'`` returns the optimum itself, one of
    :func:`candidate_costs`.  ``mode='tolerance'`` bisects [0, span of both
    trees' values] down to width ``tol`` against ``optimum <= mid`` and
    returns a feasible value within ``tol`` of the optimum.
    """
    if mode not in ("exact", "tolerance"):
        raise ValueError(f"unknown mode {mode!r}, expected 'exact' or 'tolerance'")
    if mode == "tolerance" and tol <= 0:
        raise ValueError("tol must be > 0 in tolerance mode")
    d = _distance(x, y)
    if mode == "exact" or d <= 0.0:
        return d
    values = [*x.values.values(), *y.values.values()]
    lo, hi = 0.0, max(values) - min(values)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if d <= mid else (mid, hi)
    return hi


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
    for t in (x, y):
        _guard_leaves(t.n_leaves, MAX_LEAVES_BRUTE_FORCE, "brute_force_distance")
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
