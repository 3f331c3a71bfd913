"""Tail-less merge trees of scalar graphs.

The merge tree tracks connected components of sublevel sets as the level
rises: components are born at local minima and joined at saddles.  The
*tail-less* variant stops at the last merge, so the root is the node with
the largest value and a graph whose sublevel sets are always connected has
a trivial (single-node) tree.

Two constructions are provided:

* :func:`compute_merge_tree` -- one near-linear union-find sweep over
  vertices in ascending value order that builds the tree and checks its
  input (no tie across an edge, one component) as it goes.
* :func:`merge_tree_oracle` -- a quadratic reference that recomputes the
  connected components of both the closed and open sublevel graphs at
  every distinct value, straight from the definition.  Test use only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .filtration import ScalarGraph

__all__ = [
    "MergeTree",
    "compute_merge_tree",
    "merge_tree_oracle",
    "shift_median_zero",
    "trees_equal",
    "load_tree",
    "write_tree",
]


@dataclass
class MergeTree:
    """Valued nodes with parent links; the unique root maps to itself.

    Invariants: exactly one root, holding the maximum value; every non-root
    node's parent has a strictly larger value; every internal node has at
    least two children.  A trivial tree is a single node that is both root
    and minimum.  The first branching-distance call stores the tree's table
    for the distance recursion in ``branch_table`` (not compared, not in
    ``repr``, not kept by :meth:`shifted`); a tree is not edited after that.
    """

    values: dict[int, float]
    parent: dict[int, int]
    branch_table: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.values)

    @property
    def root(self) -> int:
        for n, p in self.parent.items():
            if n == p:
                return n
        raise ValueError("merge tree has no root")

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {n: [] for n in self.values}
        for n, p in self.parent.items():
            if n != p:
                ch[p].append(n)
        return ch

    def leaves(self) -> list[int]:
        ch = self.children()
        return [n for n in self.values if not ch[n]]

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def is_trivial(self) -> bool:
        return self.n_nodes == 1

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is broken."""
        roots = [n for n, p in self.parent.items() if n == p]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        if self.values[root] != max(self.values.values()):
            raise ValueError("root does not hold the maximum value")
        ch = self.children()
        for n, p in self.parent.items():
            if n == p:
                continue
            if p not in self.values:
                raise ValueError(f"dangling parent {p}")
            if not self.values[p] > self.values[n]:
                raise ValueError(f"parent value not greater at node {n}")
        for n, kids in ch.items():
            if kids and len(kids) < 2:
                raise ValueError(f"internal node {n} has a single child")
        # connectivity: every node must reach the root
        for n in self.values:
            seen = set()
            while n != self.parent[n]:
                if n in seen:
                    raise ValueError("parent cycle")
                seen.add(n)
                n = self.parent[n]
            if n != root:
                raise ValueError("disconnected node")

    def canonical_key(self) -> tuple:
        """Order-insensitive (value, structure) key; equal for isomorphic trees.

        A flat tuple, built bottom-up in ascending value order: a node's key
        is its value, its child count, then its children's keys in sorted
        order.  Being flat, it is built, hashed and compared without
        recursion however deep the tree.
        """
        ch = self.children()
        key: dict[int, tuple] = {}
        for n in sorted(self.values, key=self.values.__getitem__):  # children first
            key[n] = (self.values[n], len(ch[n]),
                      *chain.from_iterable(sorted(key.pop(c) for c in ch[n])))
        return key[self.root]

    def shifted(self, delta: float) -> "MergeTree":
        return MergeTree({n: v + delta for n, v in self.values.items()}, dict(self.parent))


def trees_equal(a: MergeTree, b: MergeTree) -> bool:
    """Value-preserving isomorphism test (ignores node ids)."""
    return a.canonical_key() == b.canonical_key()


def compute_merge_tree(sg: ScalarGraph) -> MergeTree:
    """Sweep construction of the tail-less merge tree.

    Vertices are processed ascending by (value, id); a tree node takes the
    id of the vertex that creates it.  Union-find tracks the swept
    components, and each component root maps to the tree node at the top
    of its component.  No lower component makes a leaf; one extends that
    component; two or more make a merge node adopting each component's top.
    A top at exactly the merge value (an earlier, non-adjacent vertex of the
    same value merged it) is absorbed: its children move to the new node
    when the parent map is written out, so one merge event gives one node
    of higher arity.

    Requires a connected input with distinct values across every edge;
    both are checked during the sweep.
    """
    if sg.n_vertices == 0:
        raise ValueError("empty scalar graph")
    values = sg.values
    adj = sg.neighbors()
    comp: dict[int, int] = {}  # union-find links over swept vertices
    top: dict[int, int] = {}  # component root -> tree node at its top
    parent: dict[int, int] = {}  # tree node -> parent, tops map to themselves
    absorbed: dict[int, int] = {}  # absorbed node -> the node that took its children

    def find(v: int) -> int:
        root = v
        while comp[root] != root:
            root = comp[root]
        while comp[v] != root:  # path compression
            comp[v], v = root, comp[v]
        return root

    for v in sorted(values, key=lambda v: (values[v], v)):
        value = values[v]
        lower = set()  # components of the neighbors swept before v
        for u in adj[v]:
            if u in comp:
                if values[u] == value:
                    raise ValueError(
                        f"adjacent equal values at edge ({min(u, v)}, {max(u, v)}); "
                        "run collapse_equal_adjacent first"
                    )
                lower.add(find(u))
        if len(lower) == 1:
            comp[v] = lower.pop()
            continue
        comp[v] = parent[v] = top[v] = v
        for r in lower:
            t = top.pop(r)
            if values[t] == value:
                absorbed[t] = v
            else:
                parent[t] = v
            comp[r] = v

    if len(top) != 1:
        raise ValueError("scalar graph is disconnected; pass the largest component")

    def resolve(p: int) -> int:
        while p in absorbed:
            p = absorbed[p]
        return p

    ordered = sorted((n for n in parent if n not in absorbed), key=lambda n: (values[n], n))
    return MergeTree({n: values[n] for n in ordered}, {n: resolve(parent[n]) for n in ordered})


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
    adj = sg.neighbors()

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
            if all(sg.values[v] <= sg.values[w] for w in adj[v] if w in comp)
        )

    out = []
    for a in sorted(set(sg.values.values())):
        closed = {v for v in sg.values if sg.values[v] <= a}
        below = {v for v in sg.values if sg.values[v] < a}
        gamma_closed = frozenset(minima(c) for c in components(closed))
        gamma_open = frozenset(minima(c) for c in components(below))
        out.append(SublevelSnapshot(a, gamma_closed, gamma_closed - gamma_open))
    return out


def merge_tree_oracle(sg: ScalarGraph) -> MergeTree:
    """Definition-based merge tree: recompute sublevel components per level.

    A merge-tree node is created for every element of every snapshot's
    ``delta`` and attached to the identified components of the sublevel set
    strictly below that it properly contains.  Quadratic or worse; intended
    only as a test oracle.
    """
    if sg.n_vertices == 0:
        raise ValueError("empty scalar graph")
    for u, v in sg.edges:
        if sg.values[u] == sg.values[v]:
            raise ValueError(f"adjacent equal values at edge ({u}, {v})")
    if not sg.is_connected():
        raise ValueError("scalar graph is disconnected")

    node_value: dict[frozenset[int], float] = {}
    node_parent: dict[frozenset[int], frozenset[int]] = {}
    gamma_below: frozenset[frozenset[int]] = frozenset()

    for snap in sublevel_snapshots(sg):
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


def shift_median_zero(mt: MergeTree, mode: str = "median") -> MergeTree:
    """Shift all node values by one constant so their median (or mean) is 0.

    The statistic is taken over merge-tree node values; an even count of
    nodes uses the midpoint of the two central values.
    """
    if mt.n_nodes == 0:
        raise ValueError("empty merge tree")
    vals = np.array(list(mt.values.values()), dtype=float)
    if mode == "median":
        stat = float(np.median(vals))
    elif mode == "mean":
        stat = float(np.mean(vals))
    else:
        raise ValueError(f"unknown mode {mode!r}, expected 'median' or 'mean'")
    return mt.shifted(-stat)


def tree_to_dict(mt: MergeTree) -> dict:
    return {
        "nodes": [{"id": n, "value": v} for n, v in mt.values.items()],
        "parent": {str(n): p for n, p in mt.parent.items()},
    }


def tree_from_dict(doc: dict) -> MergeTree:
    values = {int(n["id"]): float(n["value"]) for n in doc["nodes"]}
    parent = {int(k): int(v) for k, v in doc["parent"].items()}
    tree = MergeTree(values, parent)
    tree.validate()
    return tree


def write_tree(mt: MergeTree, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tree_to_dict(mt), indent=1) + "\n")


def load_tree(path: str | Path) -> MergeTree:
    return tree_from_dict(json.loads(Path(path).read_text()))
