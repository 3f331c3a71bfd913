"""Tail-less merge trees of scalar graphs.

The merge tree tracks connected components of sublevel sets as the level
rises: components are born at local minima and joined at saddles.  The
*tail-less* variant stops at the last merge, so the root is the node with
the largest value and a graph whose sublevel sets are always connected has
a trivial (single-node) tree.

:func:`compute_merge_tree` builds it in one sweep over the graph's index
arrays in ascending value order.  Vertices with one lower neighbour are
linked in arrays; only the critical ones (minima and vertices with several
lower neighbours) run the union-find in Python.  It checks its input (no tie
across an edge) and counts the components it ends with, so a caller learns
that a graph is disconnected from the sweep itself.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .filtration import ScalarGraph

__all__ = [
    "MergeTree",
    "DisconnectedGraphError",
    "compute_merge_tree",
    "median_or_mean",
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


class DisconnectedGraphError(ValueError):
    """The swept scalar graph has more than one connected component."""


def compute_merge_tree(sg: ScalarGraph) -> MergeTree:
    """Sweep construction of the tail-less merge tree.

    Vertices are ordered by (value, id); a tree node takes the id of the
    vertex that creates it.  A vertex with exactly one lower neighbour
    extends that neighbour's component, so these are linked to their lower
    neighbour and pointer-jumped, in arrays, down to the bottom of their
    chain.  Only the other vertices -- minima and vertices with several
    lower neighbours -- are swept in Python: union-find tracks their
    components, and each component root maps to the tree node at the top
    of its component.  No lower component makes a leaf; one extends that
    component; two or more make a merge node adopting each component's top.
    A top at exactly the merge value (an earlier, non-adjacent vertex of the
    same value merged it) is absorbed: its children move to the new node
    when the parent map is written out, so one merge event gives one node
    of higher arity.

    Requires distinct values across every edge (checked first) and a
    connected input: the sweep counts the components it ends with and
    raises :class:`DisconnectedGraphError` for more than one.
    """
    if sg.n_vertices == 0:
        raise ValueError("empty scalar graph")
    ids, values, eu, ev = sg.ids, sg.column, sg.eu, sg.ev
    n = len(ids)
    order = np.lexsort((ids, values))
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    loops = eu == ev  # a self-loop joins nothing
    if loops.any():
        eu, ev = eu[~loops], ev[~loops]
    up = rank[eu] > rank[ev]
    hi, lo = np.where(up, eu, ev), np.where(up, ev, eu)
    tied = np.flatnonzero(values[hi] == values[lo])
    if tied.size:
        # the first tie a sweep meets: at the earliest later endpoint, first in edge order
        e = tied[np.argmin(rank[hi[tied]])]
        u, v = sorted((int(ids[lo[e]]), int(ids[hi[e]])))
        raise ValueError(f"adjacent equal values at edge ({u}, {v}); "
                         "run collapse_equal_adjacent first")
    n_lower = np.bincount(hi, minlength=n)
    link = np.arange(n)
    one = n_lower[hi] == 1
    link[hi[one]] = lo[one]
    for _ in range((n - 1).bit_length()):  # pointer jumping: a chain is shorter than n
        link = link[link]
    below: dict[int, list[int]] = {}  # vertex with several lower neighbours -> their chain bottoms
    many = n_lower[hi] > 1
    for v, r in zip(hi[many].tolist(), link[lo[many]].tolist()):
        below.setdefault(v, []).append(r)

    comp: dict[int, int] = {}  # union-find links over swept chain bottoms
    top: dict[int, int] = {}  # component root -> tree node at its top
    parent: dict[int, int] = {}  # tree node -> parent, tops map to themselves
    absorbed: dict[int, int] = {}  # absorbed node -> the node that took its children
    node_value: dict[int, float] = {}

    def find(v: int) -> int:
        root = v
        while comp[root] != root:
            root = comp[root]
        while comp[v] != root:  # path compression
            comp[v], v = root, comp[v]
        return root

    swept = order[n_lower[order] != 1]
    for v, value in zip(swept.tolist(), values[swept].tolist()):
        lower = {find(r) for r in below.get(v, ())}
        if len(lower) == 1:
            comp[v] = lower.pop()
            continue
        comp[v] = parent[v] = top[v] = v
        node_value[v] = value
        for r in lower:
            t = top.pop(r)
            if node_value[t] == value:
                absorbed[t] = v
            else:
                parent[t] = v
            comp[r] = v

    if len(top) != 1:
        raise DisconnectedGraphError("scalar graph is disconnected; pass the largest component")

    def resolve(p: int) -> int:
        while p in absorbed:
            p = absorbed[p]
        return p

    nodes = [v for v in parent if v not in absorbed]  # created in (value, id) order
    ident = dict(zip(nodes, ids[nodes].tolist()))
    return MergeTree({ident[v]: node_value[v] for v in nodes},
                     {ident[v]: ident[resolve(parent[v])] for v in nodes})


def median_or_mean(values: list[float], mode: str = "median", what: str = "mode") -> float:
    """The median or the mean of ``values``; ``what`` names ``mode`` in the error.

    The median is bit-identical to ``np.median``, whose sum starts at 0.0 and
    so turns a -0.0 middle into 0.0; adding 0.0 to each value does the same.
    An even count uses the midpoint of the two central values.  The mean is
    ``np.mean``, whose pairwise sum differs from a sequential one from 9
    values on; where that sum could overflow, the values are first scaled
    down by a power of two, which is exact.
    """
    if mode == "median":
        return statistics.median([v + 0.0 for v in values])
    if mode == "mean":
        if max(map(abs, values)) <= sys.float_info.max / len(values):
            return float(np.mean(values))
        e = math.frexp(len(values))[1]
        return math.ldexp(float(np.mean(np.ldexp(values, -e))), e)
    raise ValueError(f"unknown {what} {mode!r}, expected 'median' or 'mean'")


def shift_median_zero(mt: MergeTree, mode: str = "median") -> MergeTree:
    """Shift all node values by one constant so their median (or mean) is 0."""
    if mt.n_nodes == 0:
        raise ValueError("empty merge tree")
    return mt.shifted(-median_or_mean(list(mt.values.values()), mode))


def tree_to_dict(mt: MergeTree) -> dict:
    return {
        "nodes": [{"id": n, "value": v} for n, v in mt.values.items()],
        "parent": {str(n): p for n, p in mt.parent.items()},
    }


# Largest |value| a loaded tree may hold, so the span of two trees' values,
# which tolerance mode bisects, stays finite.
MAX_TREE_VALUE = sys.float_info.max / 2


def tree_from_dict(doc: dict) -> MergeTree:
    """Build and validate a tree.

    A missing key, a wrong type, or a value that is NaN or beyond
    ``MAX_TREE_VALUE`` is a ValueError.
    """
    try:
        values = {int(n["id"]): float(n["value"]) for n in doc["nodes"]}
        parent = {int(k): int(v) for k, v in doc["parent"].items()}
        for n, v in values.items():
            if not abs(v) <= MAX_TREE_VALUE:  # NaN fails too
                raise ValueError(f"node {n} has value {v!r}, beyond |value| <= {MAX_TREE_VALUE!r}")
        tree = MergeTree(values, parent)
        tree.validate()
    except KeyError as exc:
        raise ValueError(f"malformed merge tree: missing key {exc}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed merge tree: {exc}") from None
    return tree


def write_tree(mt: MergeTree, path: str | Path) -> None:
    Path(path).write_text(json.dumps(tree_to_dict(mt), indent=1) + "\n")


def load_tree(path: str | Path) -> MergeTree:
    """Read a tree JSON file; malformed content is a ValueError naming ``path``."""
    try:
        return tree_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
