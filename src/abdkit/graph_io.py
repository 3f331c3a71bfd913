"""Embedded-graph container plus load/validate/preprocess/serialize helpers.

An embedded graph is an undirected graph whose vertices carry 2-D
coordinates.  Two on-disk formats are supported:

* canonical JSON::

      {"vertices": [{"id": 0, "x": 0.0, "y": 0.0}, ...],
       "edges": [[0, 1], ...]}

* edge list: a ``# id x y`` coordinate header block followed by one
  ``u v`` pair per line.

A graph is stored only as index arrays: the vertex ids, the x and y
columns, each edge's endpoints as row indices, and the extent.  Both
loaders and the in-memory constructor build them in one validating indexer
(unique integer ids, no dangling endpoints, no self-loops), which collapses
parallel edges, since they never affect sublevel-set connectivity.  Loading
also requires finite coordinates within ``MAX_COORDINATE_SUM``.  Each format
has one reader, which checks whole columns; a failed check names its first
culprit from what it computed, without a second pass over the input.
The id -> (x, y) dict and the edge list are views, built on request.
Components come from one union-find over the edge rows, ``least_id_rows``,
which the tie contraction shares; the largest is sliced from the arrays.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Iterable, Sized
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np

__all__ = [
    "EmbeddedGraph",
    "GraphFormatError",
    "load_graph",
    "write_graph",
    "largest_component",
]

FORMATS = ("json", "edgelist")

# Largest |x| + |y| a loaded vertex may have: every projection then stays
# within it, and a median shift, a value difference or a tolerance-mode
# span within a few times it, all finite.
MAX_COORDINATE_SUM = sys.float_info.max / 8


class GraphFormatError(ValueError):
    """Raised when a graph file or in-memory graph fails validation."""


class EmbeddedGraph:
    """Vertices with 2-D coordinates plus undirected, deduplicated edges.

    The graph is its index arrays, ``arrays = (ids, xs, ys, eu, ev,
    extent)``: the vertex ids in vertex order, their x and y columns, each
    edge's endpoints as row indices (the smaller id in ``eu``), and the
    larger of the x span and the y span.  They are built and checked once,
    when the graph is made, and every filtration reads them.
    ``EmbeddedGraph(vertices, edges)`` takes an id -> (x, y) dict, whose
    order is the vertex order and whose coordinates are stored as floats,
    and ``(u, v)`` pairs; a coordinate value or an edge that is not a pair
    (a sequence of length 2), or a vertex id or edge endpoint that is not
    an int (a float or a bool, say), is a :class:`GraphFormatError`.
    :attr:`vertices` and :attr:`edges` are views: the dict and the list of
    ``(u, v)`` pairs with ``u < v``, built anew on every access.
    """

    def __init__(self, vertices: dict[int, tuple[float, float]],
                 edges: Iterable[tuple[int, int]]) -> None:
        try:
            xs, ys = [x for x, _ in vertices.values()], [y for _, y in vertices.values()]
        except (TypeError, ValueError):  # a value that does not unpack to two
            v, c = list(vertices.items())[_first_non_pair(vertices.values())]
            raise GraphFormatError(
                f"vertex {v!r} has coordinates {c!r}, not an (x, y) pair") from None
        self.arrays = _index(list(vertices), xs, ys, list(edges))

    @classmethod
    def _from_arrays(cls, arrays: tuple) -> "EmbeddedGraph":
        g = cls.__new__(cls)
        g.arrays = arrays
        return g

    @property
    def vertices(self) -> dict[int, tuple[float, float]]:
        ids, xs, ys = self.arrays[:3]
        return dict(zip(ids.tolist(), zip(xs.tolist(), ys.tolist())))

    @property
    def edges(self) -> list[tuple[int, int]]:
        ids, eu, ev = self.arrays[0], self.arrays[3], self.arrays[4]
        return list(zip(ids[eu].tolist(), ids[ev].tolist()))

    @property
    def n_vertices(self) -> int:
        return len(self.arrays[0])

    @property
    def n_edges(self) -> int:
        return len(self.arrays[3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return self.vertices == other.vertices and set(self.edges) == set(other.edges)

    def __repr__(self) -> str:
        return f"EmbeddedGraph({self.vertices!r}, {self.edges!r})"


def _index(ids: list, xs: list, ys: list, edges: list) -> tuple:
    """Check a graph and build its arrays (ids, xs, ys, eu, ev, extent).

    ``ids`` are the vertex ids in row order, ``xs`` and ``ys`` their
    coordinates and ``edges`` the ``(u, v)`` pairs.  Every check is one pass
    over a whole column; a failed one takes its first culprit from what it
    computed: the type or length list, the stable sort of the ids or the
    endpoint ranks.  An edge that is no pair of integers is named unless an
    earlier one is a self-loop or misses a vertex.  Each edge is oriented
    from its smaller id and its first copy kept.
    """
    if not set(map(type, ids)) <= {int}:
        bad = [type(v) is int for v in ids].index(False)
        raise GraphFormatError(f"vertex id {ids[bad]!r} is not an integer")
    if not ids:
        raise GraphFormatError("graph has an empty vertex set")
    idx, order, sids = _sorted_ids(ids)
    xs = np.fromiter(map(float, xs), float, len(ids))
    ys = np.fromiter(map(float, ys), float, len(ids))
    cut = _first_non_pair(edges)
    ends = list(chain.from_iterable(edges if cut == len(edges) else islice(edges, cut)))
    stray = (len(ends) if set(map(type, ends)) <= {int}
             else [type(v) is int for v in ends].index(False))
    good = ends if stray == len(ends) else ends[:stray - stray % 2]  # the edges before the stray's
    e = _int_array(good) if good else idx[:0]
    if e.dtype != idx.dtype:  # one side beyond int64
        sids, e = sids.astype(object), e.astype(object)
    rank = np.searchsorted(sids, e)
    ru, rv = rank[0::2], rank[1::2]
    missing = sids.take(rank, mode="clip") != e
    if np.count_nonzero(missing) or np.count_nonzero(ru == rv):
        # two missing ids can share a rank, so a loop is told by its ids
        k = 2 * int(np.argmax(missing[0::2] | missing[1::2] | (ru == rv)))
        u, v = good[k:k + 2]
        raise GraphFormatError(f"self-loop at vertex {u}" if u == v
                               else f"edge ({u}, {v}) references a missing vertex")
    if stray < len(ends):
        raise GraphFormatError(f"edge endpoint {ends[stray]!r} is not an integer")
    if cut < len(edges):  # another length, a scalar or an iterator
        raise GraphFormatError(f"edge {list(edges)[cut]!r} is not a (u, v) pair")
    lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)  # ranks order as the ids do
    key = lo * len(ids) + hi
    sorted_key = np.sort(key)
    if np.count_nonzero(sorted_key[1:] == sorted_key[:-1]):  # parallel edges: keep each first copy
        first = np.sort(np.unique(key, return_index=True)[1])
        lo, hi = lo[first], hi[first]
    return idx, xs, ys, order[lo], order[hi], _extent(xs, ys)


def _sorted_ids(ids: list) -> tuple:
    """The ids as an array, its stable argsort and the sorted ids; a repeated id is named."""
    idx = _int_array(ids)
    order = np.argsort(idx, kind="stable")
    sids = idx[order]
    repeat = sids[1:] == sids[:-1]
    # stable: later copies sort after their first, so the least of them is the first repeat
    if np.count_nonzero(repeat):
        raise GraphFormatError(f"duplicate vertex id {ids[order[1:][repeat].min()]}")
    return idx, order, sids


def _first_non_pair(items) -> int:
    """Index of the first item without a length of 2, else ``len(items)``."""
    try:
        if set(map(len, items)) <= {2}:
            return len(items)
    except TypeError:  # an item without a length
        pass
    return [isinstance(c, Sized) and len(c) == 2 for c in items].index(False)


def _extent(xs: np.ndarray, ys: np.ndarray) -> float:
    # the larger span, in Python floats: beyond the float range it is inf, with no numpy warning
    return max(float(xs.max()) - float(xs.min()), float(ys.max()) - float(ys.min()))


def _int_array(values: list) -> np.ndarray:
    """int64 if every value fits, else object: np.array would pick uint64 or float64."""
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(values, dtype=object)


def _check_coordinates(g: EmbeddedGraph) -> None:
    """Reject a non-finite coordinate or a vertex beyond ``MAX_COORDINATE_SUM``."""
    ids, xs, ys = g.arrays[:3]
    # enough for every vertex; summed as Python floats, so no numpy overflow
    # warning, and NaN or inf fails it
    if float(np.abs(xs).max()) + float(np.abs(ys).max()) <= MAX_COORDINATE_SUM:
        return
    # per vertex; halved, no sum overflows
    fits = np.abs(xs) / 2 + np.abs(ys) / 2 <= MAX_COORDINATE_SUM / 2
    if fits.all():
        return
    k = int(np.argmin(fits))
    v, x, y = ids.tolist()[k], float(xs[k]), float(ys[k])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GraphFormatError(f"vertex {v} has a non-finite coordinate ({x}, {y})")
    raise GraphFormatError(f"vertex {v} at ({x}, {y}) exceeds the coordinate "
                           f"limit |x| + |y| <= {MAX_COORDINATE_SUM!r}")


def load_graph(path: str | Path, format: str = "json") -> EmbeddedGraph:
    """Load and validate an embedded graph from ``path``.

    Parallel edges are collapsed; vertex order is preserved as given.
    Raises :class:`GraphFormatError`, its message prefixed with ``path``,
    on parse failures, a vertex id or edge endpoint that is not an integer,
    a coordinate that is not a number (in JSON, a string, bool or null),
    a duplicate vertex id, a non-finite coordinate (``NaN``/``Infinity`` in
    JSON, ``nan``/``inf`` in an edge list), a vertex with ``|x| + |y|``
    above ``MAX_COORDINATE_SUM``, dangling edge endpoints, self-loops, an
    edge that is not a pair, an integer beyond ``int()``'s digit limit, or
    an empty vertex set.  An edge list names its first line that is neither
    ``# id x y`` nor ``u v`` (an id is a sign and ASCII digits, a coordinate
    ASCII text without ``_`` that float() reads), unless a vertex id repeats
    on an earlier line.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    text = Path(path).read_text()
    try:
        g = _parse_json(text) if format == "json" else _parse_edgelist(text)
        _check_coordinates(g)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    return g


_ID, _X, _Y = itemgetter("id"), itemgetter("x"), itemgetter("y")


def _parse_json(text: str) -> EmbeddedGraph:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond int()'s digit limit
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    try:
        vs = doc["vertices"]
        try:
            ids, xs, ys = list(map(_ID, vs)), list(map(_X, vs)), list(map(_Y, vs))
        except (KeyError, TypeError):
            list(map(itemgetter("id", "x", "y"), vs))  # raises at the first vertex lacking a key
            raise
        # float() would read "0.5" and true as numbers; one scan of the types
        # is cheaper than a test per value
        if not {*map(type, xs), *map(type, ys)} <= {int, float}:
            xy = list(chain.from_iterable(zip(xs, ys)))
            k = [type(c) in (int, float) for c in xy].index(False)
            v, axis = ids[k // 2], "xy"[k % 2]
            raise GraphFormatError(f"vertex {v!r} has {axis} {xy[k]!r}, not a number")
        return EmbeddedGraph._from_arrays(_index(ids, xs, ys, doc["edges"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, GraphFormatError):
            raise
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc


# An integer as text: an optional sign and ASCII digits.  int() alone would
# also read "1_0" as 10, " 3" as 3 and Arabic-Indic digits.
INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
# Stripped edge-list lines apart by "\n", each "# id x y" or "u v", as far as
# they are well formed.  A coordinate is what float() reads in ASCII text
# without "_" (the "a" flag keeps a dotless "\u0131nf" out).
_EDGELIST_GRAMMAR = r"(?:(?:#{s}*{i}{s}+{c}{s}+{c}|{i}{s}+{i})(?:\n|\Z))*".format(
    s=r"[^\S\n]", i=INTEGER_TEXT.pattern,
    c=r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?ai:inf(?:inity)?|nan))")


def _parse_edgelist(text: str) -> EmbeddedGraph:
    """Read an edge list in whole columns.  If one fails, the first line that
    ``_EDGELIST_GRAMMAR`` stops at is named, unless an id repeats on an earlier line."""
    raw = text.splitlines()
    lines = [line for line in map(str.strip, raw) if line]
    vertices = [line[1:].split() for line in lines if line[0] == "#"]
    pairs = [line.split() for line in lines if line[0] != "#"]
    try:
        ids, xs, ys = zip(*vertices) if vertices else ((), (), ())
        ends = list(chain.from_iterable(pairs))
        # int() and float() read just the grammar's tokens in ASCII text without
        # "_"; non-ASCII whitespace may part the tokens, so only they must be ASCII
        if not (set(map(len, vertices)) <= {3} and set(map(len, pairs)) <= {2} and "_" not in text
                and (text.isascii() or " ".join([*ids, *xs, *ys, *ends]).isascii())):
            raise ValueError("a line that is neither '# id x y' nor 'u v'")
        xs, ys = list(map(float, xs)), list(map(float, ys))
        ends, ids = list(map(int, ends)), list(map(int, ids))
    except ValueError as exc:
        joined = "\n".join(lines)
        end = re.match(_EDGELIST_GRAMMAR, joined).end()
        if end == len(joined):  # every line is well formed: int()'s digit limit
            raise GraphFormatError(str(exc)) from None
        k = joined.count("\n", 0, end)  # the first line the grammar stops at
        earlier = vertices[:sum(line[0] == "#" for line in lines[:k])]
        _sorted_ids([int(v[0]) for v in earlier])  # an id repeated on an earlier line comes first
        lineno = [n for n, line in enumerate(raw, 1) if line.strip()][k]
        raise GraphFormatError(f"cannot parse line {lineno}: {raw[lineno - 1]!r}") from None
    return EmbeddedGraph._from_arrays(_index(ids, xs, ys, list(zip(ends[0::2], ends[1::2]))))


# How json.dumps(doc, indent=1) lays out one vertex and one edge.
_JSON_VERTEX = '  {{\n   "id": {},\n   "x": {},\n   "y": {}\n  }}'.format
_JSON_EDGE = "  [\n   {},\n   {}\n  ]".format


def write_graph(g: EmbeddedGraph, path: str | Path, format: str = "json") -> None:
    """Serialize ``g`` from its arrays so that ``load_graph`` round-trips it.

    JSON is written as ``json.dumps(doc, indent=1)`` writes it, byte for byte.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    ids, xs, ys, eu, ev, _ = g.arrays
    columns = ids.tolist(), xs.tolist(), ys.tolist(), ids[eu].tolist(), ids[ev].tolist()
    if format == "json":
        # with an indent json.dumps encodes in Python, about 10 ms for an
        # 800-vertex blob; the C encoder writes each column's numbers in one call
        i, x, y, u, v = (json.dumps(c)[1:-1].split(", ") if c else [] for c in columns)
        edges = ",\n".join(map(_JSON_EDGE, u, v))
        text = ('{\n "vertices": [\n' + ",\n".join(map(_JSON_VERTEX, i, x, y)) + "\n ],\n"
                ' "edges": ' + ("[\n" + edges + "\n ]" if edges else "[]") + "\n}")
    else:
        i, x, y, u, v = columns
        lines = [f"# {a} {b!r} {c!r}" for a, b, c in zip(i, x, y)]
        lines += [f"{a} {b}" for a, b in zip(u, v)]
        text = "\n".join(lines)
    Path(path).write_text(text + "\n")


def least_id_rows(ids: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Each row's representative: the row of the least id in its set, joined by ``(eu, ev)``."""
    id_of = ids.tolist()
    parent = list(range(len(ids)))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = parent[parent[r]]  # path halving
            r = parent[r]
        return r

    for u, v in zip(eu.tolist(), ev.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:  # the set's least id represents it
            if id_of[ru] > id_of[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
    rep = np.array(parent, dtype=np.intp)
    for _ in range((len(ids) - 1).bit_length()):  # pointer jumping: a path has < len(ids) rows
        rep = rep[rep]
    return rep


def largest_component(g: EmbeddedGraph) -> EmbeddedGraph:
    """Induced subgraph on the largest connected component.

    A connected graph is returned as it is (the result is then ``g``
    itself, not a copy).  Size ties are broken by the smallest minimum
    vertex id, so the result is independent of vertex order.  It is sliced
    from the arrays, keeping the vertex and edge order.
    """
    ids, xs, ys, eu, ev, _ = g.arrays
    rep = least_id_rows(ids, eu, ev)
    size = np.bincount(rep, minlength=len(ids))
    roots = np.flatnonzero(size)  # each set's least-id row
    if len(roots) == 1:
        return g
    big = roots[size[roots] == size.max()]
    keep = rep == big[np.argmin(ids[big])]
    row = np.cumsum(keep) - 1
    kept = _int_array(ids[keep].tolist())  # int64 if the kept ids fit, as _index builds them
    xs, ys, edge = xs[keep], ys[keep], keep[eu]  # an edge lies in one set
    return EmbeddedGraph._from_arrays((kept, xs, ys, row[eu[edge]], row[ev[edge]], _extent(xs, ys)))
