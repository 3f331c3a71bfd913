import json
import math
import re
from collections import deque

import numpy as np
import pytest

from abdkit import synth
from abdkit.abd import average_branching_distance
from abdkit.graph_io import (
    MAX_COORDINATE_SUM,
    EmbeddedGraph,
    GraphFormatError,
    largest_component,
    load_graph,
    write_graph,
)
from abdkit.oracles import is_isomorphic

from conftest import connected_components, random_embedded_graph


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
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: self-loop at vertex 0')}$"):
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
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: invalid JSON: ')}"):
        load_graph(p)


@pytest.mark.parametrize("fmt, text, message", [
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0},'
             ' {"id": 1, "x": 2, "y": 0}], "edges": [[0, 1]]}', "duplicate vertex id 1"),
    ("edgelist", "# 0 0 0\n# 1 1 0\n# 1 2 0\n0 1\n", "duplicate vertex id 1"),
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],'
             ' "edges": [[0, 5]]}', "edge (0, 5) references a missing vertex"),
    ("edgelist", "# 0 0 0\n# 1 1 0\n0 1\n0 1 2\n", "cannot parse line 4: '0 1 2'"),
    # float() of a 401-digit JSON integer overflows
    ("json", '{"vertices": [{"id": 0, "x": 1' + "0" * 400 + ', "y": 0}], "edges": []}',
     "malformed graph JSON: int too large to convert to float"),
    # two ids repeat: the one whose repeat comes first is named, in both formats
    ("json", '{"vertices": [{"id": 5, "x": 0, "y": 0}, {"id": 3, "x": 1, "y": 0},'
             ' {"id": 3, "x": 2, "y": 0}, {"id": 5, "x": 3, "y": 0}], "edges": []}',
     "duplicate vertex id 3"),
    ("edgelist", "# 5 0 0\n# 3 1 0\n# 3 2 0\n# 5 3 0\n", "duplicate vertex id 3"),
], ids=["json-duplicate", "edgelist-duplicate", "json-dangling", "edgelist-line", "json-huge-int",
        "json-two-duplicates", "edgelist-two-duplicates"])
def test_load_error_names_file(tmp_path, fmt, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p, fmt)


@pytest.mark.parametrize("vertex_ids, edge, message", [
    # int() would truncate both ids to 0 and call them duplicates
    ((0.2, 0.7), [0.2, 0.7], "vertex id 0.2 is not an integer"),
    ((0, 1.0), [0, 1], "vertex id 1.0 is not an integer"),
    ((0, True), [0, 1], "vertex id True is not an integer"),
    ((0, "1"), [0, 1], "vertex id '1' is not an integer"),
    ((0, None), [0, 1], "vertex id None is not an integer"),
    ((0, 1), [0, 0.7], "edge endpoint 0.7 is not an integer"),
    ((0, 1), [False, 1], "edge endpoint False is not an integer"),
    ((0, 1), ["0", 1], "edge endpoint '0' is not an integer"),
    ((0, [1]), [0, 1], "vertex id [1] is not an integer"),
], ids=["fractions", "float", "bool", "string", "null", "edge-fraction", "edge-bool",
        "edge-string", "list"])
def test_json_ids_must_be_integers(tmp_path, vertex_ids, edge, message):
    doc = {"vertices": [{"id": v, "x": float(k), "y": 0.0} for k, v in enumerate(vertex_ids)],
           "edges": [edge]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p)


@pytest.mark.parametrize("vertex, message", [
    # float() would place these at (0.5, 0.0) and (1.0, 1.0)
    ({"id": 1, "x": "0.5", "y": 0}, "vertex 1 has x '0.5', not a number"),
    ({"id": 1, "x": 1, "y": True}, "vertex 1 has y True, not a number"),
    ({"id": 1, "x": None, "y": 0}, "vertex 1 has x None, not a number"),
], ids=["numeric-string", "bool", "null"])
def test_json_coordinates_must_be_numbers(tmp_path, vertex, message):
    doc = {"vertices": [{"id": 0, "x": 0, "y": 0.0}, vertex], "edges": [[0, 1]]}
    p = tmp_path / "g.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p)


@pytest.mark.parametrize("vertices, edges, message", [
    # int() would truncate 1.7 to 1 and read False, True as 0, 1
    ({0: (0.0, 0.0), 1: (1.0, 0.0)}, [(0, 1.7)], "edge endpoint 1.7 is not an integer"),
    ({0: (0.0, 0.0), 1: (1.0, 0.0)}, [(False, True)], "edge endpoint False is not an integer"),
    ({0: (0.0, 0.0), 1.5: (1.0, 0.0)}, [], "vertex id 1.5 is not an integer"),
], ids=["fractional-endpoint", "bool-endpoints", "fractional-id"])
def test_in_memory_ids_must_be_integers(vertices, edges, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        EmbeddedGraph(vertices, edges)


@pytest.mark.parametrize("text, line", [
    # int() and float() take Python literal forms: 1_0 would be vertex 10
    ("# 0 0 0\n# 1_0 1 0\n0 10\n", "# 1_0 1 0"),
    ("# 0 0 0\n# 10 1 0\n0 1_0\n", "0 1_0"),
    ("# 0 0 0\n# 1 1_0.5 0\n0 1\n", "# 1 1_0.5 0"),
    ("# 0 0 0\n# \u0661 1 0\n0 1\n", "# \u0661 1 0"),
    ("# 0 0 0\n# 1 \u0661.5 0\n0 1\n", "# 1 \u0661.5 0"),
], ids=["underscore-id", "underscore-endpoint", "underscore-coordinate", "arabic-indic-id",
        "arabic-indic-coordinate"])
def test_edgelist_tokens_are_plain(tmp_path, text, line):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    message = f"{p}: cannot parse line {text.splitlines().index(line) + 1}: {line!r}"
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        load_graph(p, "edgelist")


def test_edgelist_signed_ids_and_exponents_load(tmp_path):
    # the strict tokens still take a sign, and a coordinate an exponent
    p = tmp_path / "g.txt"
    p.write_text("# -3 1e-1 -2.5E2\n# +4 1 0\n-3 +4\n")
    assert load_graph(p, "edgelist") == EmbeddedGraph({-3: (0.1, -250.0), 4: (1.0, 0.0)}, [(-3, 4)])


@pytest.mark.parametrize("text, vertices, edges", [
    ("# -3 1e-1 -2.5E2\n# +4 1 0\n-3 +4\n", {-3: (0.1, -250.0), 4: (1.0, 0.0)}, [(-3, 4)]),
    # edges before a vertex, tabs, CRLF, "#7" without a space
    ("\n  #7\t0.5 -0\r\n0 7\n\n# 0 1 1\n7 0\n   \n# 9 2 2",
     {7: (0.5, -0.0), 0: (1.0, 1.0), 9: (2.0, 2.0)}, [(0, 7), (7, 0)]),
    ("# 0 0 0\n# 1 1 0\n# 2 0 1\n0 1\n1 2\n2 0\n1 0\n",
     {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}, [(0, 1), (1, 2), (2, 0), (1, 0)]),
    (f"# {2**70} 0.1 0.2\n# -{2**70} 0.3 0.4\n{2**70} -{2**70}\n",
     {2**70: (0.1, 0.2), -2**70: (0.3, 0.4)}, [(2**70, -2**70)]),
    ("# 0 0 0\n", {0: (0.0, 0.0)}, []),
], ids=["signs-exponents", "layout", "parallel", "beyond-int64", "no-edge"])
def test_edgelist_reads_what_the_constructor_builds(tmp_path, text, vertices, edges):
    p = tmp_path / "g.txt"
    p.write_text(text, newline="")
    ref, g = EmbeddedGraph(vertices, edges), load_graph(p, "edgelist")
    for a, b in zip(ref.arrays[:5], g.arrays[:5]):
        assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist())
    assert repr(g.arrays[5]) == repr(ref.arrays[5])


@pytest.mark.parametrize("text, message", [
    ("# 0 0 0\n# 1_0 1 0\n0 10\n", "cannot parse line 2: '# 1_0 1 0'"),
    ("# 0 0 0\n# 10 1 0\n0 1_0\n", "cannot parse line 3: '0 1_0'"),
    ("# 0 0 0\n# 1 1_0.5 0\n0 1\n", "cannot parse line 2: '# 1 1_0.5 0'"),
    ("# 0 0 0\n# \u0661 1 0\n0 1\n", "cannot parse line 2: '# \u0661 1 0'"),
    ("# 0 0 0\n# 1 0 \u0661.5\n0 1\n", "cannot parse line 2: '# 1 0 \u0661.5'"),
    ("# 0 0 0\n# 1 1 0\n0 1 2\n", "cannot parse line 3: '0 1 2'"),
    ("# 0 0 0\n# 1 1\n0 1\n", "cannot parse line 2: '# 1 1'"),
    ("# 0 0 0\n# 1 1 0\n0\n1 0\n", "cannot parse line 3: '0'"),
    ("# 0 0 0\n# 1 x 0\n0 1\n", "cannot parse line 2: '# 1 x 0'"),
    ("# 0 0 0\n# 1 1 0\n0 1.0\n", "cannot parse line 3: '0 1.0'"),
    ("# 0 0 0\n#\n", "cannot parse line 2: '#'"),
    ("", "graph has an empty vertex set"),  # no line to fault
], ids=["underscore-id", "underscore-endpoint", "underscore-coordinate", "arabic-indic-id",
        "arabic-indic-coordinate", "long-edge", "short-vertex", "short-edge", "word-coordinate",
        "float-endpoint", "bare-hash", "empty"])
def test_edgelist_names_its_first_bad_line(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p, "edgelist")


@pytest.mark.parametrize("text, message", [
    # the bad line's own id does not count: only a repeat on an earlier line comes first
    ("# 7 1 2\n# 7 x 0\n0 7\n", "cannot parse line 2: '# 7 x 0'"),
    ("# 7 1 2\n# 7 3 4\n# 8 x 0\n", "duplicate vertex id 7"),
    ("# 7 x 0\n# 7 1 2\n# 7 3 4\n", "cannot parse line 1: '# 7 x 0'"),
], ids=["own-id", "earlier-repeat", "later-repeat"])
def test_edgelist_bad_line_and_repeated_id_order(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p, "edgelist")


_TWO = '{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}'
_BIG = 2**70


# Malformed inputs with the message each gives: the first fault is named,
# in the order the checks run, whatever follows it.
@pytest.mark.parametrize("fmt, text, message", [
    # the first vertex that lacks any key, though a later one lacks "id"
    ("json", '{"vertices": [{"id": 0, "x": 0}, {"x": 1, "y": 0}], "edges": []}',
     "malformed graph JSON: 'y'"),
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": 0}, [1, 2]], "edges": []}',
     "malformed graph JSON: list indices must be integers or slices, not str"),
    # coordinates are checked before ids
    ("json", '{"vertices": [{"id": 0.5, "x": 0, "y": 0}, {"id": 1, "x": "a", "y": 0}],'
             ' "edges": []}',
     "vertex 1 has x 'a', not a number"),
    ("json", '{"vertices": [{"id": 0, "x": 0, "y": null}, {"id": 1, "x": true, "y": 0}],'
             ' "edges": []}',
     "vertex 0 has y None, not a number"),
    # edges in order: a self-loop before a non-integer endpoint or a non-pair, and back
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1], [0, 0], [0, 1.5]]}',
     "self-loop at vertex 0"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1.5], [0, 0]]}',
     "edge endpoint 1.5 is not an integer"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[1, 1], [0, 1, 2]]}', "self-loop at vertex 1"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1, 2], [1, 1]]}',
     "edge [0, 1, 2] is not a (u, v) pair"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1], 5, [1, 1]]}',
     "edge 5 is not a (u, v) pair"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1], [0, 7], [1, 1]]}',
     "edge (0, 7) references a missing vertex"),
    # two missing ids of one rank are no loop
    ("json", '{"vertices": [' + _TWO + '], "edges": [[3, 5], [0, 0]]}',
     "edge (3, 5) references a missing vertex"),
    ("json", '{"vertices": [' + _TWO + '], "edges": 5}',
     "malformed graph JSON: 'int' object is not iterable"),
    ("json", '{"vertices": [' + _TWO + '], "edges": [[0, 1], "ab"]}',
     "edge endpoint 'a' is not an integer"),
    # ids beyond int64
    ("json", f'{{"vertices": [{{"id": {_BIG}, "x": 0, "y": 0}}, {{"id": 1, "x": 1, "y": 0}},'
             f' {{"id": {_BIG}, "x": 2, "y": 0}}], "edges": []}}', f"duplicate vertex id {_BIG}"),
    ("json", f'{{"vertices": [{{"id": {_BIG}, "x": 0, "y": 0}}, {{"id": 1, "x": 1, "y": 0}}],'
             f' "edges": [[1, {_BIG + 1}]]}}', f"edge (1, {_BIG + 1}) references a missing vertex"),
    ("json", f'{{"vertices": [{{"id": {_BIG}, "x": 0, "y": 0}}], "edges": [[{_BIG}, {_BIG}]]}}',
     f"self-loop at vertex {_BIG}"),
    ("json", '{"vertices": [' + _TWO + f'], "edges": [[1, {2**63}]]}}',
     f"edge (1, {2**63}) references a missing vertex"),
    ("edgelist", f"# {_BIG} 0 0\n# 1 1 0\n# {_BIG} 2 0\n", f"duplicate vertex id {_BIG}"),
    ("edgelist", f"# {_BIG} 0 0\n# 1 1 0\n1 {_BIG + 1}\n",
     f"edge (1, {_BIG + 1}) references a missing vertex"),
    # line numbers count as str.splitlines() breaks lines
    ("edgelist", "# 0 0 0\r# 1 1 0\x0b0 1\x1c0 x\n", "cannot parse line 4: '0 x'"),
    ("edgelist", "# 0 0 0\r\r# 1 1 0\x0b\x0b0 1\x1c\x1c0 x\n", "cannot parse line 7: '0 x'"),
    ("edgelist", "# 0 0 0\x1d# 1 1 0\x1e\u20281 0 1\n", "cannot parse line 4: '1 0 1'"),
    ("edgelist", "# 0 0 0\r\n\r\n# 1 1_0 0\n0 1\n", "cannot parse line 3: '# 1 1_0 0'"),
    # a bad line before a later fault of the graph, and a graph fault before a later loop
    ("edgelist", "# 0 0 0\n# 1 1 0\n0 0\n0 x\n", "cannot parse line 4: '0 x'"),
    ("edgelist", "# 0 0 0\n# 1 1 0\n0 5\n1 1\n", "edge (0, 5) references a missing vertex"),
], ids=["first-lacking-vertex", "list-vertex", "coordinate-before-id", "y-before-later-x",
        "loop-before-fraction", "fraction-before-loop", "loop-before-non-pair",
        "non-pair-before-loop",
        "scalar-edge", "missing-before-loop", "missing-pair-one-rank", "edges-not-a-list",
        "string-edge", "big-duplicate", "big-missing", "big-loop", "just-beyond-int64-missing",
        "edgelist-big-duplicate", "edgelist-big-missing", "cr-vt-fs-breaks", "blank-breaks",
        "gs-rs-ls-breaks", "crlf-blank", "bad-line-after-loop", "missing-before-loop-edgelist"])
def test_load_error_golden(tmp_path, fmt, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(GraphFormatError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_graph(p, fmt)


@pytest.mark.parametrize("edges, error, message", [
    ([(0, 1), (1, 1), (0, 1.5)], GraphFormatError, "self-loop at vertex 1"),
    ([(1, 1), (0, 1, 2)], GraphFormatError, "self-loop at vertex 1"),
    ([(0, 1), (0, 9), (1, 1)], GraphFormatError, "edge (0, 9) references a missing vertex"),
    ([(0, 1), (2, 0, 1)], GraphFormatError, "edge (2, 0, 1) is not a (u, v) pair"),
    ([(0, 1), [0, 1, 2]], GraphFormatError, "edge [0, 1, 2] is not a (u, v) pair"),
    ([(0, 1), 5], GraphFormatError, "edge 5 is not a (u, v) pair"),
], ids=["loop-before-fraction", "loop-before-non-pair", "missing-before-loop", "non-pair",
        "non-pair-list", "scalar"])
def test_in_memory_error_golden(edges, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        EmbeddedGraph({0: (0.0, 0.0), 1: (1.0, 0.0)}, edges)


def test_iterator_edge_pairs_are_rejected():
    # each edge a reversed iterator: no length, so no pair; they were dropped, leaving no edge
    vertices, edges = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0)}, [(0, 1), (1, 2)]
    with pytest.raises(GraphFormatError, match=r"^edge <reversed object at 0x\w+> is not a "
                                               r"\(u, v\) pair$"):
        EmbeddedGraph(vertices, map(reversed, edges))
    assert EmbeddedGraph(vertices, map(tuple, map(reversed, edges))).edges == edges
    with pytest.raises(GraphFormatError, match=r"^vertex 1 has coordinates <tuple_iterator object "
                                               r"at 0x\w+>, not an \(x, y\) pair$"):
        EmbeddedGraph({0: (0.0, 0.0), 1: iter((1.0, 0.0))}, [])


def test_iterator_edge_pairs_never_reach_abd():
    comb = synth.comb(np.random.default_rng(3), teeth=4)
    with pytest.raises(GraphFormatError, match="is not a \\(u, v\\) pair"):
        average_branching_distance(comb, EmbeddedGraph(comb.vertices, map(reversed, comb.edges)), 4)
    copy = EmbeddedGraph(comb.vertices, [(v, u) for u, v in comb.edges])
    assert average_branching_distance(comb, copy, 4) == 0.0


@pytest.mark.parametrize("vertices, message", [
    # every other value of the flattened values was taken: stored as {0: (1, 2), 1: (3, 4)}
    ({0: (1.0, 2.0, 3.0), 1: (4.0,)},
     "vertex 0 has coordinates (1.0, 2.0, 3.0), not an (x, y) pair"),
    ({0: (1.0,), 1: (2.0,)}, "vertex 0 has coordinates (1.0,), not an (x, y) pair"),
    ({0: (0.0, 0.0), 1: 5.0}, "vertex 1 has coordinates 5.0, not an (x, y) pair"),
    ({0: (0.0, 0.0), 1: [1.0, 2.0, 3.0]},
     "vertex 1 has coordinates [1.0, 2.0, 3.0], not an (x, y) pair"),
], ids=["three-then-one", "ones", "scalar", "list-of-three"])
def test_in_memory_coordinates_must_be_pairs(vertices, message):
    with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
        EmbeddedGraph(vertices, [])


@pytest.mark.parametrize("big", [2**40, 2**70], ids=["int64", "beyond-int64"])
def test_formats_build_identical_arrays(tmp_path, big):
    # parallel edges both ways, unsorted and negative ids, isolated vertices 9 and -8
    vertices = {5: (0.5, -1.0), -3: (2.0, 1.0), big: (-1.5, 0.25), 0: (3.0, 3.0),
                9: (-2.0, 0.0), -8: (1.0, -4.0)}
    edges = [(5, -3), (-3, 5), (big, 5), (5, big), (0, -3), (-3, 5)]
    pj, pe = tmp_path / "g.json", tmp_path / "g.txt"
    doc = {"vertices": [{"id": v, "x": x, "y": y} for v, (x, y) in vertices.items()],
           "edges": edges}
    pj.write_text(json.dumps(doc))
    pe.write_text("\n".join([f"# {v} {x!r} {y!r}" for v, (x, y) in vertices.items()]
                            + [f"{u} {v}" for u, v in edges]))
    ref = EmbeddedGraph(vertices, edges)
    assert ref.arrays[0].dtype == (np.int64 if big < 2**63 else object)
    assert ref.edges == [(-3, 5), (5, big), (-3, 0)]
    for g in (load_graph(pj), load_graph(pe, "edgelist")):
        for a, b in zip(ref.arrays[:5], g.arrays[:5]):
            assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist())
        assert repr(g.arrays[5]) == repr(ref.arrays[5])
        assert list(g.vertices.items()) == list(ref.vertices.items())
        assert g.edges == ref.edges
        assert g == ref


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


def _bfs_components(g: EmbeddedGraph) -> list[list[int]]:
    """Reference: components by breadth-first search over the adjacency lists."""
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp, queue = [], deque([start])
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


def _reference_largest(g: EmbeddedGraph) -> EmbeddedGraph:
    """Reference: the largest BFS component, rebuilt through the validating constructor."""
    comps = _bfs_components(g)
    if len(comps) == 1:
        return g
    keep = set(max(comps, key=lambda c: (len(c), -min(c))))
    return EmbeddedGraph({v: xy for v, xy in g.vertices.items() if v in keep},
                         [(u, v) for u, v in g.edges if u in keep and v in keep])


def _random_components_graph(rng: np.random.Generator) -> EmbeddedGraph:
    """Components of 1-4 vertices (so sizes tie), unsorted and negative ids,
    shuffled vertex and edge order, and sometimes an id beyond int64."""
    sizes = rng.integers(1, 5, size=int(rng.integers(1, 6))).tolist()
    ids = rng.permutation(np.arange(-40, 40))[:sum(sizes)].tolist()
    big = int(rng.integers(0, 3))  # 1: an isolated id beyond int64, 2: one replaces an id
    if big == 2:
        ids[int(rng.integers(len(ids)))] = 2**63 + int(rng.integers(5))
    edges, start = [], 0
    for k in sizes:
        comp = ids[start:start + k]
        start += k
        edges += [(comp[i], comp[int(rng.integers(i))]) for i in range(1, k)]  # a spanning tree
        for _ in range(k // 3):  # extra edges, parallel ones too
            i, j = rng.choice(k, 2, replace=False).tolist()
            edges.append((comp[i], comp[j]))
    if big == 1:
        ids.append(2**64 + int(rng.integers(5)))  # isolated and never the least id: dropped
    order = rng.permutation(len(ids)).tolist()
    scale = float(rng.choice([1e-3, 1.0, 1e6]))
    vertices = {ids[i]: tuple((rng.normal(size=2) * scale).tolist()) for i in order}
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return EmbeddedGraph(vertices, [edges[i] for i in rng.permutation(len(edges))])


def test_largest_component_matches_bfs_reference():
    rng = np.random.default_rng(2024)
    seen = {"connected": 0, "size-tie": 0, "dropped-big-id": 0, "isolated": 0}
    for _ in range(400):
        g = _random_components_graph(rng)
        comps = _bfs_components(g)
        ref, lc = _reference_largest(g), largest_component(g)
        assert (lc is g) == (ref is g)
        for a, b in zip(ref.arrays[:5], lc.arrays[:5]):
            assert a.dtype == b.dtype and repr(a.tolist()) == repr(b.tolist())
        assert repr(lc.arrays[5]) == repr(ref.arrays[5])
        # the same partition, members listed in vertex order
        assert connected_components(g) == [[v for v in g.vertices if v in set(c)] for c in comps]
        sizes = sorted(map(len, comps))
        seen["connected"] += len(comps) == 1
        seen["size-tie"] += len(sizes) > 1 and sizes[-1] == sizes[-2]
        seen["isolated"] += len(comps) > 1 and sizes[0] == 1
        seen["dropped-big-id"] += (g.arrays[0].dtype == object and lc.arrays[0].dtype == np.int64)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_round_trip(tmp_path, rng, fmt):
    for i in range(20):
        g = random_embedded_graph(rng)
        p = tmp_path / f"g{i}.{fmt}"
        write_graph(g, p, fmt)
        assert load_graph(p, fmt) == g


def test_json_text_is_the_json_dumps_layout(tmp_path, rng):
    # the JSON writer lays numbers out itself; json.dumps with indent=1 is the reference
    special = EmbeddedGraph({2**70: (math.nan, -0.0), -3: (math.inf, 5e-324), 4: (-math.inf, 1e22),
                             0: (1.7e308, 0.1)}, [(2**70, -3), (4, -3), (-3, 2**70)])
    graphs = [special, EmbeddedGraph({7: (1.5, -2.5)}, [])]
    graphs += [random_embedded_graph(rng) for _ in range(10)]
    p = tmp_path / "g.json"
    for g in graphs:
        write_graph(g, p)
        doc = {"vertices": [{"id": v, "x": x, "y": y} for v, (x, y) in g.vertices.items()],
               "edges": [[u, v] for u, v in g.edges]}
        assert p.read_text() == json.dumps(doc, indent=1) + "\n"


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
