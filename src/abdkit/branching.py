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
the float operations of the candidate costs occur (a node value of one tree
minus one of the other, half a branch length), so the exact value is one of
them; tolerance mode bisects against ``d_B <= mid``.  Trees are limited to
20 leaves.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from math import inf

from .merge_tree import MergeTree

__all__ = [
    "Branch",
    "matching_cost",
    "removal_cost",
    "branching_distance",
    "MAX_LEAVES",
]

MAX_LEAVES = 20

# The benchmark's tracer patches representations and candidate_costs in this
# module and imports is_eps_similar from it, so the three names still resolve
# here, to abdkit.oracles, on first access.  ROADMAP item 1 deletes this hook.
_TRACED_ORACLES = ("representations", "candidate_costs", "is_eps_similar")


def __getattr__(name: str):
    if name in _TRACED_ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _guard_leaves(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise ValueError(f"merge tree has {n} leaves; {what} is limited to {limit}")


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


def branching_distance(x: MergeTree, y: MergeTree, tol: float | None = None) -> float:
    """Smallest eps for which the trees are eps-similar.

    With ``tol`` None (exact mode) the optimum itself, one of
    :func:`candidate_costs`.  A ``tol`` selects tolerance mode: bisect
    [0, span of both trees' values] down to width ``tol`` against
    ``optimum <= mid`` and return a feasible value within ``tol`` of the
    optimum.
    """
    if tol is not None and not 0.0 < tol < inf:  # NaN fails too
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    d = _distance(x, y)
    if tol is None or d <= 0.0:
        return d
    values = [*x.values.values(), *y.values.values()]
    lo, hi = 0.0, max(values) - min(values)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if d <= mid else (mid, hi)
    return hi

