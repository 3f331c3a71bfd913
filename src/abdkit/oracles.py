"""Reference implementations that the tests and ``abd-kit verify`` check against.

Each oracle recomputes a production result straight from its definition,
by exhaustive search, so it shares no shortcut with the code it checks.
No production module imports this one.

* :func:`merge_tree_oracle` (with :func:`sublevel_snapshots`) checks
  :func:`abdkit.merge_tree.compute_merge_tree`: it recomputes the connected
  components of the closed and open sublevel graphs at every distinct value.
  Quadratic or worse.
* :func:`brute_force_distance` checks
  :func:`abdkit.branching.branching_distance`: it enumerates every pair of
  branch representations, every removal of fringe subtrees and every
  order-preserving bijection of what is kept.  At most 5 leaves per tree.
* :func:`minmax_distance` checks the same function: it is the min-max
  recursion as first written, every slot-pair weight it needs computed in
  full whatever its caller's cutoff and the least t found by one joint
  bisection, so the engine's pruning can be checked to the bit on trees
  of up to 20 leaves.  It reads :func:`minmax_table`, the recursion's
  table keyed by node id, which also checks the engine's integer-row table.
  :func:`children` and :func:`leaves` list a tree's nodes by id for the
  oracles, ``verify`` and the tests; the engine reads rows.
* :func:`representations` builds the distinct rooted tree representations
  of a merge tree (exponential in its leaves), trees of :class:`Branch`
  with the matching and removal costs of Beketayev et al. 2014; the
  enumeration oracles of the tests build on it.  :func:`candidate_costs`
  lists every value the distance can take, and :func:`is_eps_similar` is
  the eps-decision.
* :func:`is_isomorphic` decides graph isomorphism by backtracking, so a
  zero ABD between two graphs can be shown to join distinct graphs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations, product
from math import inf

from .branching import MAX_LEAVES, _guard_leaves, branching_distance
from .filtration import ScalarGraph
from .graph_io import EmbeddedGraph
from .merge_tree import MergeTree

__all__ = [
    "SublevelSnapshot",
    "sublevel_snapshots",
    "merge_tree_oracle",
    "children",
    "leaves",
    "Branch",
    "matching_cost",
    "removal_cost",
    "RootedTreeRep",
    "representations",
    "is_eps_similar",
    "candidate_costs",
    "brute_force_distance",
    "MAX_LEAVES_BRUTE_FORCE",
    "minmax_table",
    "minmax_distance",
    "is_isomorphic",
]

MAX_LEAVES_BRUTE_FORCE = 5


# ---------------------------------------------------------------------------
# merge trees from the definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SublevelSnapshot:
    """Identified components of one closed sublevel set (oracle-internal).

    ``identified`` holds the minima set of every component of the closed
    sublevel graph at ``level``; ``delta`` is the subset that was not
    already identified strictly below the level (the change in
    connectedness).  Elements of ``identified`` are pairwise disjoint and
    ``delta`` is contained in ``identified``.
    """

    level: float
    identified: frozenset[frozenset[int]]
    delta: frozenset[frozenset[int]]


def sublevel_snapshots(sg: ScalarGraph) -> list[SublevelSnapshot]:
    """One snapshot per distinct vertex value, ascending, by fresh traversal."""
    values = sg.values
    adj: dict[int, list[int]] = {v: [] for v in values}
    for u, v in sg.edges:
        adj[u].append(v)
        adj[v].append(u)

    def components(keep: set[int]) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for s in sorted(keep):
            if s in seen:
                continue
            comp = set()
            stack = [s]
            seen.add(s)
            while stack:
                x = stack.pop()
                comp.add(x)
                for w in adj[x]:
                    if w in keep and w not in seen:
                        seen.add(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def minima(comp: set[int]) -> frozenset[int]:
        return frozenset(
            v for v in comp
            if all(values[v] <= values[w] for w in adj[v] if w in comp)
        )

    out = []
    for a in sorted(set(values.values())):
        closed = {v for v in values if values[v] <= a}
        below = {v for v in values if values[v] < a}
        gamma_closed = frozenset(minima(c) for c in components(closed))
        gamma_open = frozenset(minima(c) for c in components(below))
        out.append(SublevelSnapshot(a, gamma_closed, gamma_closed - gamma_open))
    return out


def merge_tree_oracle(sg: ScalarGraph) -> MergeTree:
    """Definition-based merge tree: recompute sublevel components per level.

    A merge-tree node is created for every element of every snapshot's
    ``delta`` and attached to the identified components of the sublevel set
    strictly below that it properly contains.  The last snapshot holds one
    component per connected component of the graph, so it also decides
    connectivity.  Quadratic or worse; intended only as a test oracle.
    """
    if sg.n_vertices == 0:
        raise ValueError("empty scalar graph")
    values = sg.values
    for u, v in sg.edges:
        if values[u] == values[v]:
            raise ValueError(f"adjacent equal values at edge ({u}, {v})")
    snapshots = sublevel_snapshots(sg)
    if len(snapshots[-1].identified) != 1:
        raise ValueError("scalar graph is disconnected")

    node_value: dict[frozenset[int], float] = {}
    node_parent: dict[frozenset[int], frozenset[int]] = {}
    gamma_below: frozenset[frozenset[int]] = frozenset()

    for snap in snapshots:
        for entering in snap.delta:
            node_value[entering] = snap.level
            node_parent[entering] = entering
            for prior in gamma_below:
                if prior < entering:  # proper subset
                    node_parent[prior] = entering
        # nothing lives strictly between two consecutive vertex values, so
        # the open sublevel set at the next level equals this closed one
        gamma_below = snap.identified

    ids = {
        mu: i
        for i, mu in enumerate(sorted(node_value, key=lambda m: (node_value[m], sorted(m))))
    }
    return MergeTree(
        {ids[mu]: node_value[mu] for mu in ids},
        {ids[mu]: ids[node_parent[mu]] for mu in ids},
    )


def children(mt: MergeTree) -> dict[int, list[int]]:
    """Node id -> the ids of its children, in row order."""
    return {n: [mt.ids[c] for c in kids] for n, kids in zip(mt.ids, mt.child_rows())}


def leaves(mt: MergeTree) -> list[int]:
    """The ids of the nodes without children, in row order."""
    return [n for n, kids in zip(mt.ids, mt.child_rows()) if not kids]


# ---------------------------------------------------------------------------
# branch representations and the exhaustive distance
# ---------------------------------------------------------------------------

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
    ch = children(mt)
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
        for leaf in leaves(t):
            node = leaf
            while node != t.parent[node]:
                node = t.parent[node]
                cands.add(abs(t.values[leaf] - t.values[node]) / 2.0)
    return sorted(cands)


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


# ---------------------------------------------------------------------------
# the min-max recursion with every weight in full
# ---------------------------------------------------------------------------

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


def minmax_table(mt: MergeTree) -> tuple[dict, dict, dict, dict, dict]:
    """The min-max recursion's table of ``mt``, keyed by node id, built afresh.

    Five maps, with ``None`` a virtual parent of the root valued like it:
    node -> value, node -> parent (root -> None), node -> leaves below it,
    branch ``(m, s)`` -> its slots, slot -> least removal cost.
    """
    ch = children(mt)
    tips = leaves(mt)
    _guard_leaves(len(tips), MAX_LEAVES, "branching_distance")
    value = {**mt.values, None: mt.values[mt.root]}
    up = {n: (p if p != n else None) for n, p in mt.parent.items()}
    ascending = sorted(mt.values, key=value.get)  # every child before its parent
    below: dict = {}
    for n in ascending:
        below[n] = [m for c in ch[n] for m in below[c]] or [n]
    slots: dict = {}
    for m in tips:
        v, hung = m, ()
        while v is not None:
            prev, v = v, up[v]
            slots[m, v] = hung
            hung += tuple(c for c in ch.get(v, ()) if c != prev)
    removal: dict = {}
    for c in ascending[:-1]:  # every node but the root
        removal[c] = min(max([abs(value[m] - value[up[c]]) / 2.0,
                              *(removal[d] for d in slots[m, up[c]])]) for m in below[c])
    return value, up, below, slots, removal


def minmax_distance(x: MergeTree, y: MergeTree) -> float:
    """d_B by the min-max recursion of :mod:`abdkit.branching` as first written.

    Every slot-pair weight a value needs is computed in full, whatever the
    caller's cutoff, and the least feasible t is one bisection over both
    sides' covers at once.

    ``slot(cx, cy)`` is the weight of a slot pair; its leaf pairs go in
    ascending matching cost until the cost reaches the best value so far,
    and ``value`` returns inf once it cannot beat that ``cutoff`` either.
    """
    (vx, upx, belowx, slotsx, rx), (vy, upy, belowy, slotsy, ry) = minmax_table(x), minmax_table(y)
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


# ---------------------------------------------------------------------------
# graph isomorphism
# ---------------------------------------------------------------------------

def is_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Exact graph-isomorphism test on the combinatorial structure.

    Backtracking over degree-compatible assignments; intended for the small
    graphs this package works with, not for large instances.
    """
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False

    def neighbour_sets(g: EmbeddedGraph) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in g.vertices}
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    adj_a, adj_b = neighbour_sets(a), neighbour_sets(b)
    deg_a = sorted(len(ns) for ns in adj_a.values())
    deg_b = sorted(len(ns) for ns in adj_b.values())
    if deg_a != deg_b:
        return False
    ids_a = sorted(adj_a, key=lambda u: len(adj_a[u]))
    return _iso_backtrack(ids_a, adj_a, adj_b, {}, set())


def _iso_backtrack(order, adj_a, adj_b, mapping, used) -> bool:
    if len(mapping) == len(order):
        return True
    u = order[len(mapping)]
    for v in adj_b:
        if v in used or len(adj_b[v]) != len(adj_a[u]):
            continue
        ok = True
        for w in adj_a[u]:
            if w in mapping and mapping[w] not in adj_b[v]:
                ok = False
                break
        if not ok:
            continue
        mapping[u] = v
        used.add(v)
        if _iso_backtrack(order, adj_a, adj_b, mapping, used):
            return True
        del mapping[u]
        used.remove(v)
    return False
