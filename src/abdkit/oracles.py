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
* :func:`representations` builds the distinct rooted tree representations
  of a merge tree (exponential in its leaves); the enumeration oracles of
  the tests build on it.  :func:`candidate_costs` lists every value the
  distance can take, and :func:`is_eps_similar` is the eps-decision.
* :func:`is_isomorphic` decides graph isomorphism by backtracking, so a
  zero ABD between two graphs can be shown to join distinct graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .branching import (
    MAX_LEAVES,
    Branch,
    _guard_leaves,
    branching_distance,
    matching_cost,
    removal_cost,
)
from .filtration import ScalarGraph
from .graph_io import EmbeddedGraph
from .merge_tree import MergeTree

__all__ = [
    "SublevelSnapshot",
    "sublevel_snapshots",
    "merge_tree_oracle",
    "RootedTreeRep",
    "representations",
    "is_eps_similar",
    "candidate_costs",
    "brute_force_distance",
    "MAX_LEAVES_BRUTE_FORCE",
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


# ---------------------------------------------------------------------------
# branch representations and the exhaustive distance
# ---------------------------------------------------------------------------

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
# graph isomorphism
# ---------------------------------------------------------------------------

def is_isomorphic(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Exact graph-isomorphism test on the combinatorial structure.

    Backtracking over degree-compatible assignments; intended for the small
    graphs this package works with, not for large instances.
    """
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False
    adj_a = {u: set(ns) for u, ns in a.neighbors().items()}
    adj_b = {u: set(ns) for u, ns in b.neighbors().items()}
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
