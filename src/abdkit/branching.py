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
``(m, s)``, leaf ``m`` under ``s`` (a virtual node above the root for the
root branch); its *slots* are the off-path children of the nodes strictly
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

Cutoff rule: every weight is asked for below a cutoff, the best value its
caller has so far, and a weight at or above the caller's cutoff never
decides a value, so none is computed past it.  A slot pair's weight is
memoised exactly when it falls below the cutoff and as a lower bound
otherwise.  A value scores its *heavy* slots (costlier to remove than the
branch pair's matching cost) costliest first, each by the lesser of its
removal cost and best partner weight, and returns inf at the first score
to reach the cutoff; a slot neither removable nor matchable below it ends
the value unaided, as the saddle-gap test empties its row.  The sides' covers
are independent and monotone in t: the least t is the larger of theirs.
Each side grows one bottleneck matching from the largest score ``low``
upward: a slot whose first partner is free takes it at once, and a slot
that finds no augmenting path raises t straight to the least removal cost,
or weight on a partner the search did not see, among the slots it
reached.  A leaf pair none of whose slots costs more to remove than its
matching cost (no slot at all, say) is worth that cost, no value asked.
Hall's slot count (Hall 1935) rules out another pair with no value asked:
the pair beats the best value so far only if each slot of one side that
costs that value or more to remove gets its own slot of the other side, so
a side with more such slots than the other side has slots cannot.  The
count is a plain loop, run only on the side with more slots, and only when
that side's largest removal cost reaches the best value.

Integer rows: :func:`_table` reads the tree's rows, its n nodes in
ascending (value, id) order, so a child's row is below its parent's and
the root's is n - 1, and builds three lists by row in one pass, children
first.  Row i's saddle is its parent's value (the root's own for the root,
standing in for the virtual node); its branches are the ``(m, parent of
i)``, one per leaf m below i, each held as (value of m, m, slot rows,
largest removal cost among those slots), so a row's branches are its
children's, each extended by that child's siblings; its removal cost is the
least over them.  A leaf pair reads its slots from the two branch tuples,
and the weight of slot pair ``(a, b)`` is memoised under the one int ``a *
ny + b`` (``ny`` rows in y), so the recursion builds and hashes no tuple
key and does no dict lookup per leaf pair.
"""

from __future__ import annotations

from math import inf

from .merge_tree import MergeTree

__all__ = ["branching_distance", "MAX_LEAVES"]

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


def _guard_leaves(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise ValueError(f"merge tree has {n} leaves; {what} is limited to {limit}")


def _table(mt: MergeTree) -> tuple[list, list, list]:
    """``mt.branch_table``, built on the first call; the distance's leaf guard.

    Three lists over the tree's rows, built children first: row -> saddle
    (its parent's value, the root's own for the root), row -> its branches
    ``(value of m, m, slot rows, largest slot removal cost)``, one for each
    leaf m below it, reaching up to its parent, and row -> least removal
    cost.  Plain loops build them, since on small trees a generator per
    row costs more than the row's work: a leaf's row is its own slotless
    branch, and a parent's least removal cost is kept while its branches
    are extended.
    """
    if mt.branch_table is None:
        ch = mt.child_rows()
        _guard_leaves(sum(not c for c in ch), MAX_LEAVES, "branching_distance")
        saddle, branches, removal = [mt.vals[p] for p in mt.up], [], []
        for i, v in enumerate(mt.vals):
            kids, s = ch[i], saddle[i]
            if not kids:  # a leaf's own branch has no slot
                branches.append([(v, i, (), 0.0)])
                removal.append(abs(v - s) / 2.0)
                continue
            own, least = [], inf
            for c in kids:  # a child's branches reach up through row i: c's siblings hang on
                off, top = [], 0.0
                for d in kids:
                    if d != c:
                        off.append(d)
                        if removal[d] > top:
                            top = removal[d]
                off = tuple(off)
                for lv, m, hung, r in branches[c]:
                    if r < top:
                        r = top
                    own.append((lv, m, hung + off, r))
                    e = abs(lv - s) / 2.0
                    if e < r:
                        e = r
                    if e < least:
                        least = e
            branches.append(own)
            removal.append(least)
        mt.branch_table = saddle, branches, removal
    return mt.branch_table


def _augment(a, u: float, rows: dict, owner: dict, seen: set) -> bool:
    """Match slot ``a`` within ``u`` along an augmenting path over ``owner``
    (partner -> slot), marking every partner tried in ``seen``."""
    for w, b in rows[a]:
        if w > u:
            return False
        if b not in seen:
            seen.add(b)
            if b not in owner or _augment(owner[b], u, rows, owner, seen):
                owner[b] = a
                return True
    return False


def _least_cover(t: float, rows: dict, removal: list, cutoff: float) -> float:
    """Least t' >= ``t`` at which every slot of ``rows`` not removable within
    t' has its own partner within t', or inf if none below ``cutoff`` does.

    ``rows[a]`` lists a's ``(weight, partner)`` pairs, weights ascending.  One
    matching grows slot by slot.  When a slot finds no augmenting path, the
    slots the search reached hold fewer partners within t than themselves
    (those seen), and keep doing so until t reaches one's removal cost or
    weight on a partner not seen: t jumps to the least of these, and the
    slots then removable leave the matching.
    """
    owner: dict = {}  # partner -> slot
    for a in rows:
        while removal[a] > t:
            seen: set = set()
            if _augment(a, t, rows, owner, seen):
                break
            t = min(min(removal[c], next((w for w, b in rows[c] if b not in seen), inf))
                    for c in (a, *(owner[b] for b in seen)))
            if t >= cutoff:
                return inf
            owner = {b: c for b, c in owner.items() if removal[c] > t}
    return t


def _distance(x: MergeTree, y: MergeTree) -> float:
    """d_B in one pass of the min-max recursion (see the module docstring).

    ``weight(a, b, key, cutoff)`` is the weight of slot pair ``(a, b)``,
    memo key ``key = a * ny + b`` (``ny`` rows in y), if below ``cutoff``,
    else at least ``cutoff``; its leaf pairs, read from the two rows'
    branches, go in ascending matching cost until the cost reaches the best
    value so far, and ``value`` returns inf once it cannot beat that
    ``cutoff`` either.  Callers read ``exact`` first.
    """
    (saddle_x, bx, rx), (saddle_y, by, ry) = _table(x), _table(y)
    ny = len(saddle_y)  # the stride of a slot-pair key
    exact: dict = {}  # slot-pair key -> weight
    floor: dict = {}  # slot-pair key -> a bound its weight is known to reach

    def weight(a: int, b: int, key: int, cutoff: float) -> float:
        saddles = abs(saddle_x[a] - saddle_y[b])
        if saddles >= cutoff or floor.get(key, -inf) >= cutoff:
            return inf  # a weight is at least its saddle gap, or known to reach cutoff
        # plain loops: a comprehension would make cells of these locals on every call
        best, leaf_pairs = cutoff, []
        for vx, mx, sx, tx in bx[a]:
            for vy, my, sy, ty in by[b]:
                cost = abs(vx - vy)
                if cost < saddles:
                    cost = saddles
                if cost < cutoff:
                    leaf_pairs.append((cost, mx, my, sx, sy, tx, ty))
        for cost, _, _, sx, sy, tx, ty in sorted(leaf_pairs):  # (mx, my) settles every tie
            if cost >= best:
                break
            if tx <= cost and ty <= cost:  # every slot is removable within the pair's cost
                best = cost
                continue
            # Hall: below best, each slot costing best or more to remove needs its own
            # partner, so only a side with more slots than the other can run short
            big, r, t, free = (sx, rx, tx, len(sy)) if len(sx) > len(sy) else (sy, ry, ty, len(sx))
            if t >= best and len(big) > free:
                for c in big:
                    if r[c] >= best:
                        free -= 1
                if free < 0:
                    continue
            best = min(best, value(cost, sx, sy, best))
        if best < cutoff:
            exact[key] = best
        else:
            floor[key] = cutoff
        return best

    def value(cost: float, sx: tuple, sy: tuple, cutoff: float) -> float:
        # plain loops, as in weight: no cells
        heavy = []  # (removal cost, x slot or -1, y slot or -1) of slots too costly at cost
        for a in sx:
            if rx[a] > cost:
                heavy.append((rx[a], a, -1))
        for b in sy:
            if ry[b] > cost:
                heavy.append((ry[b], -1, b))
        # score each heavy slot on its (weight, partner) row of weights below cutoff
        low, rows_x, rows_y = cost, {}, {}
        heavy.sort(reverse=True)
        for removal, a, b in heavy:
            r = []
            if b < 0:
                base = a * ny
                for c in sy:
                    key = base + c
                    w = exact[key] if key in exact else weight(a, c, key, cutoff)
                    if w < cutoff:
                        r.append((w, c))
                r.sort()
                rows_x[a] = r
            else:
                for c in sx:
                    key = c * ny + b
                    w = exact[key] if key in exact else weight(c, b, key, cutoff)
                    if w < cutoff:
                        r.append((w, c))
                r.sort()
                rows_y[b] = r
            if r and r[0][0] < removal:
                removal = r[0][0]
            if removal > low:
                low = removal
                if low >= cutoff:
                    return inf
        # the sides are covered apart, each monotone in t: the least t is the larger
        t = _least_cover(low, rows_x, rx, cutoff)
        return _least_cover(t, rows_y, ry, cutoff) if t < cutoff else inf

    root_x, root_y = len(saddle_x) - 1, ny - 1
    return weight(root_x, root_y, root_x * ny + root_y, inf)


def branching_distance(x: MergeTree, y: MergeTree, tol: float | None = None) -> float:
    """Smallest eps for which the trees are eps-similar.

    With ``tol`` None (exact mode) the optimum itself, one of
    :func:`abdkit.oracles.candidate_costs`.  A ``tol`` selects tolerance
    mode: bisect [0, span of both trees' values] down to width ``tol``
    against ``optimum <= mid`` and return a feasible value within ``tol``
    of the optimum.
    """
    if tol is not None and not 0.0 < tol < inf:  # NaN fails too
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    d = _distance(x, y)
    if tol is None or d <= 0.0:
        return d
    lo, hi = 0.0, max(x.vals[-1], y.vals[-1]) - min(x.vals[0], y.vals[0])  # rows ascend
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if d <= mid else (mid, hi)
    return hi

