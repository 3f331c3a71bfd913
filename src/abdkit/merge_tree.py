"""Tail-less merge trees of scalar graphs.

The merge tree tracks connected components of sublevel sets as the level
rises: components are born at local minima and joined at saddles.  The
*tail-less* variant stops at the last merge, so the root is the node with
the largest value and a graph whose sublevel sets are always connected has
a trivial (single-node) tree.

A tree is three rows in ascending (value, id) order, node ids, values and
parent rows, which the sweep emits and the dict constructor sorts once:
every child comes before its parent, the root is last, and no reader sorts
nodes again.  A tree is never edited.

:func:`compute_merge_trees` builds the trees of one graph under a stack of
value rows (one row per frame) in one sweep over its index arrays in
ascending value order: one ``lexsort`` orders every row, and the ranks of
all frames are one flat array.  Vertices with one lower neighbour are
linked in arrays; only the critical ones (minima and vertices with several
lower neighbours) run the union-find in Python, every frame in one loop.
It counts the components it ends with, so a caller learns that a graph is
disconnected from the sweep itself.  :func:`compute_merge_tree` is its
one-frame case for a scalar graph, and checks that graph first (no tie
across an edge); ``abd.frame_trees`` tests a whole stack for ties.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from collections.abc import Sequence
from itertools import chain
from pathlib import Path

import numpy as np

from .filtration import ScalarGraph
from .graph_io import INTEGER_TEXT

__all__ = [
    "MergeTree",
    "DisconnectedGraphError",
    "compute_merge_tree",
    "compute_merge_trees",
    "median_or_mean",
    "shift_median_zero",
    "trees_equal",
    "load_tree",
    "write_tree",
]


class MergeTree:
    """Valued nodes with parent links, kept as rows; the root is its own parent.

    Invariants: one root, holding the maximum value; a non-root node's parent
    has a strictly larger value; an internal node has two or more children.
    The rows are tuples in ascending (value, id) order: ``ids``, ``vals`` and
    ``up`` (parent rows), sorted once from ``MergeTree(values, parent)``'s
    dicts (a node without a parent, or a parent of no node, is a KeyError).
    :attr:`values` and :attr:`parent` are views, so a changed tree is a new
    one; ``branch_table`` keeps the distance's table (not compared).
    """

    def __init__(self, values: dict[int, float], parent: dict[int, int]) -> None:
        order = sorted(zip(values.values(), values))  # (value, id): every child before its parent
        ids = tuple(n for _, n in order)
        row = dict(zip(ids, range(len(ids))))
        if len(parent) > len(ids):
            raise KeyError(next(n for n in parent if n not in row))
        self.ids, self.vals, self.up, self.branch_table = (
            ids, tuple(v for v, _ in order), tuple(row[parent[n]] for n in ids), None)

    @classmethod
    def _from_rows(cls, ids: tuple, vals: tuple, up: tuple) -> "MergeTree":
        mt = cls.__new__(cls)
        mt.ids, mt.vals, mt.up, mt.branch_table = ids, vals, up, None
        return mt

    @property
    def values(self) -> dict[int, float]:
        return dict(zip(self.ids, self.vals))

    @property
    def parent(self) -> dict[int, int]:
        return dict(zip(self.ids, map(self.ids.__getitem__, self.up)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MergeTree) and (self.values, self.parent) == (
            other.values, other.parent)

    def __repr__(self) -> str:
        return f"MergeTree(values={self.values!r}, parent={self.parent!r})"

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def root(self) -> int:
        return self.ids[-1]

    def child_rows(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.up]
        for i, p in enumerate(self.up):
            if i != p:
                ch[p].append(i)
        return ch

    @property
    def n_leaves(self) -> int:
        return sum(not kids for kids in self.child_rows())

    def is_trivial(self) -> bool:
        return self.n_nodes == 1

    def validate(self) -> None:
        """Raise ValueError if any invariant is broken (values rise along parent
        links, so one root rules out cycles and every node reaches it)."""
        roots = [i for i, p in enumerate(self.up) if i == p]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        if self.vals[roots[0]] != self.vals[-1]:
            raise ValueError("root does not hold the maximum value")
        for i, p in enumerate(self.up):
            if i != p and not self.vals[p] > self.vals[i]:
                raise ValueError(f"parent value not greater at node {self.ids[i]}")
        for n, kids in zip(self.ids, self.child_rows()):
            if len(kids) == 1:
                raise ValueError(f"internal node {n} has a single child")

    def canonical_key(self) -> tuple:
        """Order-insensitive (value, structure) key; equal for isomorphic trees.

        A flat tuple, built up the rows: a node's key is its value, its child
        count, then its children's keys in sorted order.  Being flat, it is
        built, hashed and compared without recursion however deep the tree.
        """
        keys: list = [[] for _ in self.up]  # row -> its children's keys, until its own is built
        for i, (v, p) in enumerate(zip(self.vals, self.up)):
            kids, keys[i] = sorted(keys[i]), None
            key = (v, len(kids), *chain.from_iterable(kids))
            if p != i:
                keys[p].append(key)
        return key

    def shifted(self, delta: float) -> "MergeTree":
        return MergeTree._from_rows(self.ids, tuple(v + delta for v in self.vals), self.up)


def trees_equal(a: MergeTree, b: MergeTree) -> bool:
    """Value-preserving isomorphism test (ignores node ids)."""
    return a.canonical_key() == b.canonical_key()


class DisconnectedGraphError(ValueError):
    """The swept scalar graph has more than one connected component."""


def compute_merge_tree(sg: ScalarGraph) -> MergeTree:
    """The tail-less merge tree of ``sg``: :func:`compute_merge_trees` of its
    one value column, after dropping self-loops (they join nothing).

    An edge whose endpoints hold equal values is refused, naming the first
    tie a sweep would meet: the one whose later endpoint in (value, id)
    order -- the larger id of the two -- comes first, then the first in
    edge order.
    """
    ids, column, eu, ev = sg.ids, sg.column, sg.eu, sg.ev
    loops = eu == ev
    if np.count_nonzero(loops):
        eu, ev = eu[~loops], ev[~loops]
    tied = (column[eu] == column[ev]).nonzero()[0]
    if tied.size:
        u, v = ids[eu[tied]], ids[ev[tied]]
        e = np.lexsort((np.maximum(u, v), column[eu[tied]]))[0]  # stable: first in edge order
        u, v = sorted((int(u[e]), int(v[e])))
        raise ValueError(f"adjacent equal values at edge ({u}, {v}); "
                         "run collapse_equal_adjacent first")
    return compute_merge_trees(ids, column[None], eu, ev)[0]


def compute_merge_trees(ids: np.ndarray, values: np.ndarray, eu: np.ndarray,
                        ev: np.ndarray) -> list[MergeTree]:
    """Sweep construction of one tail-less merge tree per row of ``values``.

    ``values`` is a (frames x vertices) stack over one graph: vertex ids
    ``ids`` and edges joining rows ``eu[k]`` and ``ev[k]``.  Every frame is
    swept in one pass.  One ``lexsort`` orders each row by (value, id), and
    the sweep then works on ranks: frame ``f``'s vertices are ranks ``f *
    n`` to ``f * n + n - 1`` in sweep order, so edge orientation,
    lower-neighbour counts and pointer jumping run on flat arrays, and no
    edge joins two frames.  A tree node takes the id of the vertex that
    creates it.  A vertex with exactly one lower neighbour extends that
    neighbour's component, so these are linked to their lower neighbour and
    pointer-jumped, in arrays, down to the bottom of their chain.  Only the
    other vertices -- minima and vertices with several lower neighbours --
    are swept in Python, all frames in one loop in rank order: union-find
    tracks their components, and each component root maps to the tree node
    at the top of its component.  No lower component makes a leaf; one
    extends that component; two or more make a merge node adopting each
    component's top.  A top at exactly the merge value (an earlier,
    non-adjacent vertex of the same value merged it) is absorbed: its
    children move to the new node when the rows are written out, so one
    merge event gives one node of higher arity.  Nodes are made in rank
    order, so each frame's rows are one run of them.

    Requires edges without self-loops, with distinct values at their ends
    in every frame: :func:`compute_merge_tree` checks a scalar graph, and
    ``abd.frame_trees`` tests every frame for ties before its sweep.  The
    graph must be connected: the sweep counts the components it ends with
    and raises :class:`DisconnectedGraphError` for more than one.
    """
    n_frames, n = values.shape
    if n == 0:
        raise ValueError("empty scalar graph")
    size = n_frames * n
    by_id = ids[None] if n_frames == 1 else ids[None].repeat(n_frames, 0)
    order = np.lexsort((by_id, values))  # rank -> vertex row, per frame
    at = order.ravel() if n_frames == 1 else (order + np.arange(0, size, n)[:, None]).ravel()
    rank = np.empty(size, dtype=np.intp)  # flat vertex -> rank, over all frames
    rank[at] = np.arange(size)
    rank = rank.reshape(n_frames, n)
    ru, rv = rank.take(eu, 1).ravel(), rank.take(ev, 1).ravel()
    hi, lo = np.maximum(ru, rv), np.minimum(ru, rv)
    swept_value = values.ravel()[at]  # value at each rank
    n_lower = np.bincount(hi, minlength=size)
    link = np.arange(size)
    one = n_lower[hi] == 1  # every upper endpoint has at least one lower neighbour
    link[hi[one]] = lo[one]
    for _ in range((n - 1).bit_length()):  # pointer jumping: a chain is shorter than n
        link = link[link]
    below: dict[int, list[int]] = {}  # rank with several lower neighbours -> their chain bottoms
    many = ~one
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

    swept = (n_lower != 1).nonzero()[0]
    for v, value in zip(swept.tolist(), swept_value[swept].tolist()):
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

    if len(top) != n_frames:  # each frame ends with at least one top
        raise DisconnectedGraphError("scalar graph is disconnected; pass the largest component")
    nodes = [v for v in parent if v not in absorbed]  # ascending ranks: the rows, frame by frame
    row = dict(zip(nodes, range(len(nodes))))
    for t in reversed(absorbed):  # the last absorption first, so a chain of them resolves
        row[t] = row[absorbed[t]]
    node_ids = ids[order.ravel()[nodes]].tolist()
    vals = list(map(node_value.get, nodes))
    ups = [row[parent[v]] for v in nodes]
    cuts = [*(bisect_left(nodes, f * n) for f in range(n_frames)), len(nodes)]
    return [MergeTree._from_rows(tuple(node_ids[a:b]), tuple(vals[a:b]),
                                 tuple(u - a for u in ups[a:b]))
            for a, b in zip(cuts, cuts[1:])]


def _middle(s: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """The median of values ascending along the first axis of ``s``, as in
    :func:`median_or_mean`: one float for a tuple, one per column for an array."""
    m, odd = divmod(len(s), 2)
    if odd:
        return s[m] + 0.0
    return ((s[m - 1] + 0.0) + (s[m] + 0.0)) / 2


def median_or_mean(values: Sequence[float] | np.ndarray, mode: str = "median",
                   what: str = "mode") -> float | np.ndarray:
    """The median or the mean along the last axis of ``values``; ``what``
    names ``mode`` in the error.

    The values are sorted first, so the result does not depend on their
    order.  The median is bit-identical to ``np.median``, whose sum starts
    at 0.0 and so turns a -0.0 middle into 0.0; adding 0.0 to the middle
    values does the same.  An even count uses the midpoint of the two
    central values.  The mean is ``np.mean`` of the sorted values, whose
    pairwise sum differs from a sequential one from 9 values on; where that
    sum could overflow, the values are first scaled down by a power of two,
    which is exact.

    A 1-D input gives one float.  A 2-D array gives an array with one value
    per row, by the same rule, without a Python call per row: a row's mean
    is ``np.mean`` of that sorted row alone, and only the rows whose sum
    could overflow are scaled.
    """
    if mode not in ("median", "mean"):
        raise ValueError(f"unknown {what} {mode!r}, expected 'median' or 'mean'")
    s = np.sort(values, axis=-1)
    rows = np.atleast_2d(s)
    if mode == "median":
        with np.errstate(over="ignore"):  # a midpoint of two huge values is inf, as on Python floats
            out = _middle(rows.T)
    else:
        k = rows.shape[1]
        big = ~(np.abs(rows).max(axis=1) <= sys.float_info.max / k)
        e = math.frexp(k)[1]
        out = np.mean(np.where(big[:, None], np.ldexp(rows, -e), rows), axis=1)
        out[big] = np.ldexp(out[big], e)
    return float(out[0]) if s.ndim == 1 else out


def shift_median_zero(mt: MergeTree, mode: str = "median") -> MergeTree:
    """Shift all node values by one constant so their median (or mean) is 0.

    The value row is ascending, so the median is its middle: no sort, no numpy."""
    if mt.n_nodes == 0:
        raise ValueError("empty merge tree")
    return mt.shifted(-(_middle(mt.vals) if mode == "median" else median_or_mean(mt.vals, mode)))


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

    A missing key, a wrong type, a node id or parent that is not an integer
    (an int, not a bool or float), a node id listed twice, a value that is
    not a number (an int or float, not a bool or string), or one that is
    NaN or beyond ``MAX_TREE_VALUE`` is a ValueError.  Parent keys are
    strings, as JSON object keys are, of an optional sign and ASCII digits
    (the edge-list id rule); any other key, such as ``"1_0"`` or ``" 3"``,
    is a ValueError naming it.  So are a parent entry for a node that is not
    listed, a parent that is not listed, and a listed node without a parent
    entry.
    """
    try:
        values: dict[int, float] = {}
        for n in doc["nodes"]:
            if type(node := n["id"]) is not int:
                raise ValueError(f"node id {node!r} is not an integer")
            if node in values:
                raise ValueError(f"duplicate node id {node}")
            if type(v := n["value"]) not in (int, float):
                raise ValueError(f"could not convert the value {v!r} of node {node} to a number")
            values[node] = float(v)
        parent: dict[int, int] = {}
        for k, p in doc["parent"].items():
            if not (type(k) is str and INTEGER_TEXT.fullmatch(k)):
                raise ValueError(f"parent key {k!r} is not an integer")
            if type(p) is not int:
                raise ValueError(f"parent {p!r} of node {k} is not an integer")
            parent[int(k)] = p
        for n, v in values.items():
            if not abs(v) <= MAX_TREE_VALUE:  # NaN fails too
                raise ValueError(f"node {n} has value {v!r}, beyond |value| <= {MAX_TREE_VALUE!r}")
        for n, p in parent.items():
            if n not in values:
                raise ValueError(f"node {n} has a parent entry but is not listed")
            if p not in values:
                raise ValueError(f"parent {p} of node {n} is not listed")
        if len(parent) < len(values):
            raise ValueError(f"node {next(n for n in values if n not in parent)} has no parent")
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
