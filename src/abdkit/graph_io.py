"""Embedded-graph container plus load/validate/preprocess/serialize helpers.

An embedded graph is an undirected graph whose vertices carry 2-D
coordinates.  Two on-disk formats are supported:

* canonical JSON::

      {"vertices": [{"id": 0, "x": 0.0, "y": 0.0}, ...],
       "edges": [[0, 1], ...]}

* edge list: a ``# id x y`` coordinate header block followed by one
  ``u v`` pair per line.

Loading validates the graph (unique integer ids, finite numeric coordinates
within ``MAX_COORDINATE_SUM``, no dangling endpoints, no self-loops) and
collapses parallel edges, which never affect sublevel-set connectivity.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "EmbeddedGraph",
    "GraphFormatError",
    "load_graph",
    "write_graph",
    "largest_component",
    "connected_components",
]

FORMATS = ("json", "edgelist")

# Largest |x| + |y| a loaded vertex may have: every projection then stays
# within it, and a median shift, a value difference or a tolerance-mode
# span within a few times it, all finite.
MAX_COORDINATE_SUM = sys.float_info.max / 8


class GraphFormatError(ValueError):
    """Raised when a graph file or in-memory graph fails validation."""


@dataclass
class EmbeddedGraph:
    """Vertices with 2-D coordinates plus undirected, deduplicated edges.

    ``vertices`` maps id -> (x, y) and preserves insertion order.  Edges are
    stored as a list of ``(u, v)`` pairs with ``u < v``.  The first
    filtration stores the graph's index arrays in ``arrays`` (vertex ids in
    vertex order, x and y columns, edge endpoints as row indices, then the
    extent; not compared, not in ``repr``), and every later direction reuses
    them, so a graph is not edited after its first filtration.  A vertex id
    or edge endpoint that is not an int (a float or a bool, say) is a
    :class:`GraphFormatError`.
    """

    vertices: dict[int, tuple[float, float]] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)
    arrays: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not set(map(type, self.vertices)) <= {int}:
            _reject_non_integer(self.vertices, "vertex id")
        self.edges = _normalize_edges(self.vertices, self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self) -> dict[int, list[int]]:
        """Adjacency lists keyed by vertex id (neighbor order follows edges)."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def translated(self, dx: float, dy: float) -> "EmbeddedGraph":
        """Rigid translation by (dx, dy)."""
        moved = {v: (x + dx, y + dy) for v, (x, y) in self.vertices.items()}
        return EmbeddedGraph(moved, list(self.edges))

    def rotated(self, theta: float) -> "EmbeddedGraph":
        """Rigid rotation about the origin by ``theta`` radians."""
        c, s = math.cos(theta), math.sin(theta)
        moved = {v: (c * x - s * y, s * x + c * y) for v, (x, y) in self.vertices.items()}
        return EmbeddedGraph(moved, list(self.edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return (
            dict(self.vertices) == dict(other.vertices)
            and set(self.edges) == set(other.edges)
        )


def _normalize_edges(
    vertices: dict[int, tuple[float, float]],
    edges,
) -> list[tuple[int, int]]:
    """Validate endpoints, reject loops, deduplicate parallel edges."""
    if not vertices:
        raise GraphFormatError("graph has an empty vertex set")
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            _reject_non_integer((u, v), "edge endpoint")
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if u not in vertices or v not in vertices:
            raise GraphFormatError(f"edge ({u}, {v}) references a missing vertex")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def load_graph(path: str | Path, format: str = "json") -> EmbeddedGraph:
    """Load and validate an embedded graph from ``path``.

    Parallel edges are collapsed; vertex order is preserved as given.
    Raises :class:`GraphFormatError`, its message prefixed with ``path``,
    on parse failures, a vertex id or edge endpoint that is not an integer
    (in JSON, any value but an integer; in an edge list, anything but a sign
    and ASCII digits), a coordinate that is not a number (in JSON, a string,
    bool or null; in an edge list, text with ``_`` or non-ASCII characters),
    a duplicate vertex id, a non-finite coordinate (``NaN``/``Infinity`` in
    JSON, ``nan``/``inf`` in an edge list), a vertex with ``|x| + |y|``
    above ``MAX_COORDINATE_SUM``, dangling edge endpoints, self-loops, or an
    empty vertex set.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    text = Path(path).read_text()
    try:
        g = _parse_json(text) if format == "json" else _parse_edgelist(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None
    for v, (x, y) in g.vertices.items():
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GraphFormatError(f"{path}: vertex {v} has a non-finite coordinate ({x}, {y})")
        if abs(x) + abs(y) > MAX_COORDINATE_SUM:
            raise GraphFormatError(f"{path}: vertex {v} at ({x}, {y}) exceeds the coordinate "
                                   f"limit |x| + |y| <= {MAX_COORDINATE_SUM!r}")
    return g


def _reject_non_integer(values, what: str) -> None:
    """Name the first of ``values`` that is not a JSON integer (an int, not a bool or float)."""
    for v in values:
        if type(v) is not int:
            raise GraphFormatError(f"{what} {v!r} is not an integer")


def _reject_non_number(ids, xs, ys) -> None:
    """Name the first coordinate that is not a JSON number (an int or float, not a bool)."""
    for v, x, y in zip(ids, xs, ys):
        for axis, c in (("x", x), ("y", y)):
            if type(c) not in (int, float):
                raise GraphFormatError(f"vertex {v!r} has {axis} {c!r}, not a number")


def _parse_json(text: str) -> EmbeddedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    try:
        # float() would read "0.5" and true as numbers; one scan of the types
        # is cheaper than a test per value, and the slow scan only names a culprit
        ids, xs, ys = [], [], []
        for v in doc["vertices"]:
            ids.append(v["id"])
            xs.append(v["x"])
            ys.append(v["y"])
        if not {*map(type, xs), *map(type, ys)} <= {int, float}:
            _reject_non_number(ids, xs, ys)
        vertices = dict(zip(ids, zip(map(float, xs), map(float, ys))))
        if len(vertices) != len(ids):
            _reject_non_integer(ids, "vertex id")  # 0 and 0.0 are one key
            dup = next(v for v, n in Counter(ids).items() if n > 1)
            raise GraphFormatError(f"duplicate vertex id {dup}")
        edges = [(u, v) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, GraphFormatError):
            raise
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc
    return EmbeddedGraph(vertices, edges)


_EDGELIST_ID = re.compile(r"[+-]?[0-9]+")


def _edgelist_id(token: str) -> int:
    """An optional sign and ASCII digits; int() alone would read ``1_0`` as 10."""
    if not _EDGELIST_ID.fullmatch(token):
        raise ValueError(f"not an id: {token!r}")
    return int(token)


def _edgelist_coordinate(token: str) -> float:
    """float() of ASCII text with no ``_``; float() alone would read ``1_0.5`` as 10.5."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a coordinate: {token!r}")
    return float(token)


def _parse_edgelist(text: str) -> EmbeddedGraph:
    vertices: dict[int, tuple[float, float]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                ident, x, y = line[1:].split()
                vid = _edgelist_id(ident)
                if vid in vertices:
                    raise GraphFormatError(f"duplicate vertex id {vid}")
                vertices[vid] = (_edgelist_coordinate(x), _edgelist_coordinate(y))
            else:
                u, v = line.split()
                edges.append((_edgelist_id(u), _edgelist_id(v)))
        except (ValueError, GraphFormatError) as exc:
            if isinstance(exc, GraphFormatError):
                raise
            raise GraphFormatError(f"cannot parse line {lineno}: {raw!r}") from exc
    return EmbeddedGraph(vertices, edges)


def write_graph(g: EmbeddedGraph, path: str | Path, format: str = "json") -> None:
    """Serialize ``g`` so that ``load_graph`` round-trips it."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "json":
        doc = {
            "vertices": [{"id": v, "x": x, "y": y} for v, (x, y) in g.vertices.items()],
            "edges": [[u, v] for u, v in g.edges],
        }
        text = json.dumps(doc, indent=1)
    else:
        lines = [f"# {v} {x!r} {y!r}" for v, (x, y) in g.vertices.items()]
        lines += [f"{u} {v}" for u, v in g.edges]
        text = "\n".join(lines)
    Path(path).write_text(text + "\n")


def connected_components(g: EmbeddedGraph) -> list[list[int]]:
    """Connected components as vertex-id lists, in order of discovery."""
    adj = g.neighbors()
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def largest_component(g: EmbeddedGraph) -> EmbeddedGraph:
    """Induced subgraph on the largest connected component.

    A connected graph is returned as it is (the result is then ``g``
    itself, not a copy).  Size ties are broken by the smallest minimum
    vertex id, so the result is deterministic and independent of vertex
    order.
    """
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    best = max(comps, key=lambda c: (len(c), -min(c)))
    keep = set(best)
    vertices = {v: xy for v, xy in g.vertices.items() if v in keep}
    edges = [(u, v) for u, v in g.edges if u in keep and v in keep]
    return EmbeddedGraph(vertices, edges)

