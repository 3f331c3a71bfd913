import json
import math
import re

import pytest

from abdkit.graph_io import (
    MAX_COORDINATE_SUM,
    EmbeddedGraph,
    GraphFormatError,
    connected_components,
    largest_component,
    load_graph,
    write_graph,
)
from abdkit.oracles import is_isomorphic

from conftest import random_embedded_graph


def test_load_triangle_json(tmp_path, triangle):
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0},
            {"id": 1, "x": 1.0, "y": 0.0},
            {"id": 2, "x": 0.0, "y": 1.0},
        ],
        "edges": [[0, 1], [1, 2], [2, 0]],
    }
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(doc))
    g = load_graph(p)
    assert g.n_vertices == 3
    assert g.n_edges == 3
    assert g == triangle


def test_self_loop_rejected(tmp_path):
    doc = {"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0, 0]]}
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_graph(p)


def test_parallel_edges_deduplicated():
    g = EmbeddedGraph({0: (0, 0), 1: (1, 1)}, [(0, 1), (1, 0)])
    assert g.edges == [(0, 1)]


def test_empty_vertex_set_rejected():
    with pytest.raises(GraphFormatError, match="empty"):
        EmbeddedGraph({}, [])


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphFormatError, match="missing vertex"):
        EmbeddedGraph({0: (0, 0)}, [(0, 1)])


def test_parse_failure(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(GraphFormatError, match="invalid JSON"):
        load_graph(p)


@pytest.mark.parametrize("fmt, text", [
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 7, "x": NaN, "y": 1}],'
             ' "edges": [[0, 7]]}'),
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 7, "x": 1, "y": -Infinity}],'
             ' "edges": [[0, 7]]}'),
    ("edgelist", "# 0 0.0 0.0\n# 7 nan 1.0\n0 7\n"),
    ("edgelist", "# 0 0.0 0.0\n# 7 1.0 inf\n0 7\n"),
], ids=["json-nan", "json-inf", "edgelist-nan", "edgelist-inf"])
def test_non_finite_coordinate_rejected(tmp_path, fmt, text):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match="vertex 7 has a non-finite coordinate"):
        load_graph(p, fmt)


def test_coordinate_limit(tmp_path):
    # beyond the limit a projection can overflow to inf; at it every value stays finite
    m, edges = MAX_COORDINATE_SUM, [(0, 1), (1, 2), (2, 3)]
    huge = EmbeddedGraph({0: (1.7e308, 1.7e308), 1: (-1.7e308, 1.7e308),
                          2: (1.7e308, -1.7e308), 3: (-1.7e308, -1.7e308)}, edges)
    over = EmbeddedGraph({0: (0.0, 0.0), 1: (0.0, 1.0), 2: (1.0, 1.0),
                          3: (math.nextafter(m, math.inf), 0.0)}, edges)
    at = EmbeddedGraph({0: (m, 0.0), 1: (-m / 2, m / 2), 2: (0.0, -m), 3: (m / 4, -m / 2)}, edges)
    for fmt in ("json", "edgelist"):
        p = tmp_path / f"g.{fmt}"
        for g, vertex in ((huge, 0), (over, 3)):
            write_graph(g, p, fmt)
            x, y = g.vertices[vertex]
            expected = (f"{p}: vertex {vertex} at ({x}, {y}) exceeds the coordinate limit "
                        f"|x| + |y| <= {m!r}")
            with pytest.raises(GraphFormatError, match=f"^{re.escape(expected)}$"):
                load_graph(p, fmt)
        write_graph(at, p, fmt)
        assert load_graph(p, fmt) == at


def test_largest_component_connected_identity(triangle):
    assert largest_component(triangle) is triangle


def test_largest_component_disconnected_copy():
    vertices = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (5, 5), 4: (6, 6)}
    g = EmbeddedGraph(dict(vertices), [(0, 1), (1, 2), (3, 4)])
    lc = largest_component(g)
    assert lc is not g
    assert lc == EmbeddedGraph({v: vertices[v] for v in (0, 1, 2)}, [(0, 1), (1, 2)])
    assert g.vertices == vertices and g.edges == [(0, 1), (1, 2), (3, 4)]  # input untouched


def test_largest_component_picks_bigger():
    g = EmbeddedGraph(
        {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (5, 5), 4: (6, 6)},
        [(0, 1), (1, 2), (2, 0), (3, 4)],
    )
    lc = largest_component(g)
    assert sorted(lc.vertices) == [0, 1, 2]
    assert lc.n_edges == 3


def test_largest_component_tie_break_by_min_id():
    g = EmbeddedGraph(
        {0: (0, 0), 1: (1, 0), 2: (5, 5), 3: (6, 5)},
        [(0, 1), (2, 3)],
    )
    lc = largest_component(g)
    assert sorted(lc.vertices) == [0, 1]


def test_largest_component_is_induced(rng):
    for _ in range(25):
        g = random_embedded_graph(rng)
        lc = largest_component(g)
        assert len(connected_components(lc)) == 1
        keep = set(lc.vertices)
        induced = {(u, v) for u, v in g.edges if u in keep and v in keep}
        assert set(lc.edges) == induced


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_round_trip(tmp_path, rng, fmt):
    for i in range(20):
        g = random_embedded_graph(rng)
        p = tmp_path / f"g{i}.{fmt}"
        write_graph(g, p, fmt)
        assert load_graph(p, fmt) == g


def test_round_trip_single_vertex(tmp_path):
    g = EmbeddedGraph({7: (1.5, -2.5)}, [])
    p = tmp_path / "one.json"
    write_graph(g, p)
    back = load_graph(p)
    assert back.n_vertices == 1
    assert back.n_edges == 0
    assert back == g


def test_write_to_unwritable_path(tmp_path, triangle):
    with pytest.raises(OSError):
        write_graph(triangle, tmp_path)  # a directory, not a file


def test_unknown_format(triangle, tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        write_graph(triangle, tmp_path / "x", "xml")
    with pytest.raises(ValueError, match="unknown format"):
        load_graph(tmp_path / "x", "xml")


def test_is_isomorphic_relabeled(triangle):
    relabeled = EmbeddedGraph(
        {10: (3, 3), 20: (4, 4), 30: (5, 5)}, [(10, 20), (20, 30), (30, 10)]
    )
    assert is_isomorphic(triangle, relabeled)


def test_is_isomorphic_distinguishes():
    tri = EmbeddedGraph({0: (0, 0), 1: (1, 0), 2: (0, 1)}, [(0, 1), (1, 2), (2, 0)])
    path = EmbeddedGraph({0: (0, 0), 1: (1, 0), 2: (0, 1)}, [(0, 1), (1, 2)])
    square = EmbeddedGraph(
        {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}, [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    assert not is_isomorphic(tri, path)
    assert not is_isomorphic(tri, square)
    # same degree sequence, different structure: two triangles vs 6-cycle
    two_tri = EmbeddedGraph(
        {i: (i, 0) for i in range(6)},
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
    )
    hexagon = EmbeddedGraph(
        {i: (i, 0) for i in range(6)},
        [(i, (i + 1) % 6) for i in range(6)],
    )
    assert not is_isomorphic(two_tri, hexagon)
