"""Embedded-graph container plus load/validate/preprocess/serialize helpers.

An embedded graph is an undirected graph whose vertices carry 2-D
coordinates.  Two on-disk formats are supported:

* canonical JSON::

      {"vertices": [{"id": 0, "x": 0.0, "y": 0.0}, ...],
       "edges": [[0, 1], ...]}

* edge list: a ``# id x y`` coordinate header block followed by one
  ``u v`` pair per line.

Loading validates the graph (unique ids, finite coordinates, no dangling
endpoints, no self-loops) and collapses parallel edges, which never affect
sublevel-set connectivity.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "EmbeddedGraph",
    "GraphFormatError",
    "load_graph",
    "write_graph",
    "largest_component",
    "connected_components",
    "is_isomorphic",
]

FORMATS = ("json", "edgelist")


class GraphFormatError(ValueError):
    """Raised when a graph file or in-memory graph fails validation."""


@dataclass
class EmbeddedGraph:
    """Vertices with 2-D coordinates plus undirected, deduplicated edges.

    ``vertices`` maps id -> (x, y) and preserves insertion order.  Edges are
    stored as a list of ``(u, v)`` pairs with ``u < v``.
    """

    vertices: dict[int, tuple[float, float]] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
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
    for e in edges:
        u, v = int(e[0]), int(e[1])
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
    Raises :class:`GraphFormatError` on parse failures, a non-finite
    coordinate (``NaN``/``Infinity`` in JSON, ``nan``/``inf`` in an edge
    list), dangling edge endpoints, self-loops, or an empty vertex set.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    text = Path(path).read_text()
    g = _parse_json(text) if format == "json" else _parse_edgelist(text)
    for v, (x, y) in g.vertices.items():
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GraphFormatError(f"{path}: vertex {v} has a non-finite coordinate ({x}, {y})")
    return g


def _parse_json(text: str) -> EmbeddedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    try:
        vertices = {int(v["id"]): (float(v["x"]), float(v["y"])) for v in doc["vertices"]}
        if len(vertices) != len(doc["vertices"]):
            raise GraphFormatError("duplicate vertex id")
        edges = [(int(u), int(v)) for u, v in doc["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GraphFormatError):
            raise
        raise GraphFormatError(f"malformed graph JSON: {exc}") from exc
    return EmbeddedGraph(vertices, edges)


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
                vid = int(ident)
                if vid in vertices:
                    raise GraphFormatError(f"duplicate vertex id {vid}")
                vertices[vid] = (float(x), float(y))
            else:
                u, v = line.split()
                edges.append((int(u), int(v)))
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
