import hashlib
import json
import math
import shutil
import sys

import pytest

from abdkit import abd, cli
from abdkit.cli import main
from abdkit.fixtures import fixture_path
from abdkit.graph_io import MAX_COORDINATE_SUM, EmbeddedGraph, load_graph, write_graph
from abdkit.merge_tree import compute_merge_trees
from abdkit.synth import shape_dataset


def w_path_graph():
    return EmbeddedGraph(
        {0: (0, 0.0), 1: (1, 5.0), 2: (2, 1.0), 3: (3, 6.0), 4: (4, 2.0)},
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    )


@pytest.fixture
def w_path(tmp_path):
    p = tmp_path / "w.json"
    write_graph(w_path_graph(), p)
    return p


def test_tree_w_path(w_path, capsys):
    assert main(["tree", str(w_path), "--angle", str(math.pi / 2)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 5
    values = sorted(n["value"] for n in doc["nodes"])
    assert values == [0.0, 1.0, 2.0, 5.0, 6.0]


# SHA-256 of `abd-kit tree` stdout on each graph_triple fixture, at each
# angle with each --normalize, in that order; recorded when trees were
# still dicts, so the row form changed no byte
_TREE_GOLDEN = {
    "g": "4e04551c36640bbae832f0dccbcb75a2bc845a5a247ff12026fef1c780f9878b",
    "h": "45f5f556a38398e87d72abce8289211e0926aa10d662d2a3ade4f3ffc174bdff",
    "j": "b9d67bfb1be2f6d2ad0da959279bc8c8b0809d425d2cd923b15a391a724e018d",
}


@pytest.mark.parametrize("name", sorted(_TREE_GOLDEN))
def test_tree_output_golden(capsys, name):
    digest = hashlib.sha256()
    for angle in ("0", "0.7", repr(math.pi / 2), "3"):
        for normalize in ("none", "median", "mean"):
            graph = str(fixture_path(f"graph_triple_{name}.json"))
            assert main(["tree", graph, "--angle", angle, "--normalize", normalize]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == _TREE_GOLDEN[name]


def test_tree_and_dist_output_golden(capsys):
    graph = str(fixture_path("graph_triple_j.json"))
    assert main(["tree", graph, "--angle", "0.7", "--normalize", "median"]) == 0
    assert capsys.readouterr().out == (
        '{\n "nodes": [\n  {\n   "id": 2,\n   "value": -1.047186374381787\n  },\n'
        '  {\n   "id": 4,\n   "value": -0.8059373742881921\n  },\n'
        '  {\n   "id": 0,\n   "value": 0.0\n  },\n'
        '  {\n   "id": 1,\n   "value": 1.4090598745221796\n  },\n'
        '  {\n   "id": 3,\n   "value": 1.6503088746157744\n  }\n ],\n'
        ' "parent": {\n  "2": 1,\n  "4": 3,\n  "0": 1,\n  "1": 3,\n  "3": 3\n }\n}\n')
    x, y = (str(fixture_path(f"tree_triple_{n}.json")) for n in "xy")
    assert main(["dist", x, y, "--tol", "1e-3"]) == 0
    assert capsys.readouterr().out == "5.0\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="int() has no digit limit in this interpreter")
@pytest.mark.parametrize("fmt, text", [
    ("json", '{"vertices": [{"id": 1' + "0" * 5000 + ', "x": 0, "y": 0}], "edges": []}'),
    ("edgelist", "# 1" + "0" * 5000 + " 0 0\n"),
], ids=["json", "edgelist"])
def test_tree_names_the_file_of_an_id_beyond_the_digit_limit(tmp_path, capsys, fmt, text):
    p = tmp_path / "big.txt"
    p.write_text(text)
    assert main(["tree", str(p), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: ")
    assert "Exceeds the limit" in captured.err and "integer string conversion" in captured.err


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_tree_non_finite_angle_rejected(w_path, capsys, angle):
    assert main(["tree", str(w_path), "--angle", angle]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: angle {float(angle)!r} is not finite\n"


def test_tree_monotone_trivial(tmp_path, capsys):
    g = EmbeddedGraph({0: (0, 0.0), 1: (1, 1.0), 2: (2, 2.0)}, [(0, 1), (1, 2)])
    p = tmp_path / "mono.json"
    write_graph(g, p)
    assert main(["tree", str(p)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 1


def test_tree_disconnected_warns(tmp_path, capsys):
    g = EmbeddedGraph(
        {0: (0, 0.0), 1: (1, 1.0), 2: (9, 9.0), 3: (9, 10.0), 4: (10, 9.5)},
        [(0, 1), (2, 3), (3, 4), (2, 4)],
    )
    p = tmp_path / "disc.json"
    write_graph(g, p)
    assert main(["tree", str(p)]) == 0
    captured = capsys.readouterr()
    assert "largest component" in captured.err
    doc = json.loads(captured.out)
    assert len(doc["nodes"]) == 1  # triangle component wins (3 > 2 vertices)


# SHA-256 of `abd-kit tree --angle 0` stdout with each --normalize, in the
# order of the loop below, on a graph whose largest component ties across
# edge (11, 12) at angle 0, so its tree comes from the collapse
_DISCONNECTED_TIED_GOLDEN = "0a6a1f7023e4287e0632bc33a0912e9febb7eea3de016f0bcf9a6c57740286fa"


def test_tree_disconnected_tied_golden(tmp_path, capsys):
    g = EmbeddedGraph(
        {0: (5.0, 5.0), 1: (6.0, 6.0), 10: (0.1, 0.0), 11: (3.3, 1.0), 12: (3.3, 2.0),
         13: (1.2, 3.0), 14: (4.9, 4.0), 15: (2.6, 5.0)},
        [(0, 1), (10, 11), (11, 12), (12, 13), (13, 14), (14, 15)],
    )
    p = tmp_path / "disc.json"
    write_graph(g, p)
    digest = hashlib.sha256()
    for normalize in ("none", "median", "mean"):
        assert main(["tree", str(p), "--angle", "0", "--normalize", normalize]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: graph is disconnected; using the largest component\n"
        assert len(json.loads(captured.out)["nodes"]) == 5  # 11 and 12 collapse to one node
        digest.update(captured.out.encode())
    assert digest.hexdigest() == _DISCONNECTED_TIED_GOLDEN


def test_tree_with_every_frame_tied_sweeps_no_stack(monkeypatch, capsys):
    # graph_triple_g's two vertices tie at angle 0, so its one frame is
    # collapsed and swept alone; the stacked sweep gets no (0 x vertices) stack
    stacks = []

    def spy(ids, values, eu, ev):
        stacks.append(values.shape)
        return compute_merge_trees(ids, values, eu, ev)

    monkeypatch.setattr(abd, "compute_merge_trees", spy)
    assert main(["tree", str(fixture_path("graph_triple_g.json")), "--angle", "0"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nodes"]) == 1
    g = load_graph(fixture_path("graph_triple_g.json"))
    assert [t.n_nodes for t in abd.frame_trees(g, (0.0, math.pi))] == [1, 1]
    assert stacks == []


def test_tree_normalize_median(w_path, capsys):
    assert main(["tree", str(w_path), "--normalize", "median"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = sorted(n["value"] for n in doc["nodes"])
    assert values == [-2.0, -1.0, 0.0, 3.0, 4.0]


def test_dist_identical_and_fixtures(tmp_path, capsys):
    for name in ("tree_triple_x", "tree_triple_y", "tree_triple_z"):
        shutil.copy(fixture_path(f"{name}.json"), tmp_path / f"{name}.json")
    x, y, z = (str(tmp_path / f"tree_triple_{n}.json") for n in "xyz")
    assert main(["dist", x, x]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["dist", x, y]) == 0
    assert capsys.readouterr().out.strip() == "5.0"
    assert main(["dist", y, z]) == 0
    assert capsys.readouterr().out.strip() == "3.0"
    assert main(["dist", x, z]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


def test_dist_tolerance_mode(tmp_path, capsys):
    for name in ("tree_triple_x", "tree_triple_y"):
        shutil.copy(fixture_path(f"{name}.json"), tmp_path / f"{name}.json")
    x, y = str(tmp_path / "tree_triple_x.json"), str(tmp_path / "tree_triple_y.json")
    assert main(["dist", x, y, "--tol", "1e-6"]) == 0
    captured = capsys.readouterr()
    assert abs(float(captured.out.strip()) - 5.0) <= 1e-6
    assert "tolerance mode" in captured.err


def test_dist_names_its_engine(tmp_path, capsys):
    x = str(shutil.copy(fixture_path("tree_triple_x.json"), tmp_path / "x.json"))
    for extra, mode in (([], "exact"), (["--tol", "1e-6"], "tolerance")):
        assert main(["dist", x, x, *extra]) == 0
        assert capsys.readouterr().err == f"engine: min-max recursion ({mode} mode)\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_dist_rejects_tol_not_positive_and_finite(tmp_path, capsys, tol):
    x = shutil.copy(fixture_path("tree_triple_x.json"), tmp_path / "x.json")
    y = shutil.copy(fixture_path("tree_triple_y.json"), tmp_path / "y.json")
    assert main(["dist", str(x), str(y), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tol must be a positive finite number, got {float(tol)!r}\n"


@pytest.mark.parametrize("content, problem", [
    ('{"a": 1}', "missing key 'nodes'"),
    ('{"vertices": [{"id": 0, "x": 0.0, "y": 0.0}], "edges": []}', "missing key 'nodes'"),
    ('[1, 2]', "list indices must be integers"),
    ('{"nodes": [{"id": 0, "value": "low"}], "parent": {"0": 0}}', "could not convert"),
    ('{"nodes": [{"id": 0, "value": 1.0}], "parent": [0]}', "no attribute 'items'"),
    ('{"nodes": [{"id": 0, "value": -Infinity}], "parent": {"0": 0}}', "node 0 has value -inf"),
    ('{"nodes": [{"id": 0, "value": 1e308}], "parent": {"0": 0}}', "node 0 has value 1e+308"),
    ('{"nodes": [{"id": 0, "value": 9.0}, {"id": 1, "value": 1.0}, {"id": 2, "value": 5.0},'
     ' {"id": 2, "value": 7.0}], "parent": {"0": 0, "1": 0, "2": 0}}', "duplicate node id 2"),
    # int() would truncate these to nodes 0 and 2, and dist would print 0.0
    ('{"nodes": [{"id": 0.5, "value": 1.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"0": 2.7, "2": 2}}', "node id 0.5 is not an integer"),
    ('{"nodes": [{"id": 0, "value": 1.0}, {"id": 1, "value": 2.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"0": 2.7, "1": 2, "2": 2}}', "parent 2.7 of node 0 is not an integer"),
    ('{"nodes": [{"id": true, "value": 1.0}], "parent": {"1": 1}}',
     "node id True is not an integer"),
    ('{"nodes": [{"id": 0, "value": 1.0}], "parent": {"0": "0"}}',
     "parent '0' of node 0 is not an integer"),
    # float() would read these as 1.5 and 1.0, and dist would print 0.0
    ('{"nodes": [{"id": 0, "value": "1.5"}], "parent": {"0": 0}}',
     "could not convert the value '1.5' of node 0 to a number"),
    ('{"nodes": [{"id": 0, "value": 2.0}, {"id": 1, "value": true}], "parent": {"0": 0, "1": 0}}',
     "could not convert the value True of node 1 to a number"),
    # int() would read these keys as nodes 10 and 3, and dist would print 0.0
    ('{"nodes": [{"id": 10, "value": 1.0}, {"id": 3, "value": 2.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"1_0": 2, "3": 2, "2": 2}}', "parent key '1_0' is not an integer"),
    ('{"nodes": [{"id": 10, "value": 1.0}, {"id": 3, "value": 2.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"10": 2, "\\u0663": 2, "2": 2}}', "parent key '\u0663' is not an integer"),
    ('{"nodes": [{"id": 10, "value": 1.0}, {"id": 3, "value": 2.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"10": 2, " 3": 2, "2": 2}}', "parent key ' 3' is not an integer"),
    # each of these read "missing key N", whichever of the two was missing
    ('{"nodes": [{"id": 0, "value": 1.0}], "parent": {"0": 0, "7": 0}}',
     "node 7 has a parent entry but is not listed"),
    ('{"nodes": [{"id": 0, "value": 1.0}, {"id": 1, "value": 2.0}, {"id": 2, "value": 3.0}],'
     ' "parent": {"0": 2, "2": 2}}', "node 1 has no parent"),
    ('{"nodes": [{"id": 0, "value": 1.0}, {"id": 2, "value": 3.0}], "parent": {"0": 5, "2": 2}}',
     "parent 5 of node 0 is not listed"),
], ids=["no-nodes", "graph-file", "list", "text-value", "parent-list", "infinite", "too-large",
        "duplicate-id", "fractional-id", "fractional-parent", "bool-id", "string-parent",
        "numeric-string-value", "bool-value", "underscore-parent-key", "arabic-indic-parent-key",
        "space-parent-key", "unlisted-node", "no-parent-entry", "unlisted-parent"])
def test_dist_malformed_tree_file_errors(tmp_path, capsys, content, problem):
    p = tmp_path / "t.json"
    p.write_text(content)
    assert main(["dist", str(p), str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: ") and problem in captured.err


def test_dist_format_is_a_usage_error(tmp_path, capsys):
    # dist reads tree files: a graph-file option is rejected, not ignored
    x = str(shutil.copy(fixture_path("tree_triple_x.json"), tmp_path / "x.json"))
    with pytest.raises(SystemExit) as exit_:
        main(["dist", x, x, "--format", "json"])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tree", "dist", "abd", "matrix"])
def test_help_lists_neither_mode_nor_collapse_tol(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "--mode" not in out and "--collapse-tol" not in out


def test_abd_self_zero(w_path, capsys):
    assert main(["abd", str(w_path), str(w_path), "--frames", "4"]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_abd_graph_triple(tmp_path, capsys):
    shutil.copy(fixture_path("graph_triple_g.json"), tmp_path / "g.json")
    shutil.copy(fixture_path("graph_triple_h.json"), tmp_path / "h.json")
    assert main(["abd", str(tmp_path / "g.json"), str(tmp_path / "h.json"),
                 "--frames", "1"]) == 0
    assert float(capsys.readouterr().out.strip()) == 6.5


def test_abd_per_frame(w_path, capsys):
    assert main(["abd", str(w_path), str(w_path), "--frames", "3", "--per-frame"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "frame,angle,distance"
    assert len(lines) == 4
    assert all(line.split(",")[2] == "0.0" for line in lines[1:])


def test_matrix_cluster_mds_pipeline(tmp_path, capsys):
    files = []
    for name in ("graph_triple_g", "graph_triple_h", "graph_triple_j"):
        dst = tmp_path / f"{name}.json"
        shutil.copy(fixture_path(f"{name}.json"), dst)
        files.append(str(dst))
    mpath = tmp_path / "m.csv"
    assert main(["matrix", *files, "--frames", "1", "--out", str(mpath)]) == 0
    text = mpath.read_text()
    assert text.splitlines()[0] == "graph_triple_g,graph_triple_h,graph_triple_j"
    assert "6.5" in text

    nwk = tmp_path / "d.nwk"
    svg = tmp_path / "d.svg"
    assert main(["cluster", str(mpath), "--out", str(nwk), "--svg", str(svg),
                 "--cut", "2"]) == 0
    out = capsys.readouterr().out
    assert nwk.read_text().endswith(";\n")
    assert svg.exists()
    assert "graph_triple_g," in out

    epath = tmp_path / "e.csv"
    esvg = tmp_path / "e.svg"
    assert main(["mds", str(mpath), "--out", str(epath), "--svg", str(esvg)]) == 0
    captured = capsys.readouterr()
    assert "clamped eigenvalues" in captured.err
    assert epath.read_text().startswith("label,")


@pytest.mark.parametrize("cmd", ["mds", "cluster"])
def test_non_finite_matrix_rejected(tmp_path, capsys, cmd):
    mpath = tmp_path / "m.csv"
    mpath.write_text("a,b\n0,inf\ninf,0\n")
    assert main([cmd, str(mpath)]) == 1
    assert "non-finite entry inf between 'a' and 'b'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["mds", "cluster"])
def test_empty_matrix_rejected(tmp_path, capsys, cmd):
    mpath = tmp_path / "empty.csv"
    mpath.write_text("")
    assert main([cmd, str(mpath)]) == 1
    assert capsys.readouterr().err == f"error: {mpath}: empty matrix file\n"


@pytest.mark.parametrize("dims", ["0", "-1"])
def test_mds_dims_below_one_rejected(tmp_path, capsys, dims):
    mpath = tmp_path / "m.csv"
    mpath.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    out, svg = tmp_path / "e.csv", tmp_path / "e.svg"
    assert main(["mds", str(mpath), "--dims", dims, "--out", str(out), "--svg", str(svg)]) == 1
    assert capsys.readouterr().err == f"error: k={dims} must be at least 1\n"
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("stem", ["a,b", "a\nb"])
def test_matrix_rejects_label_a_csv_cannot_hold(tmp_path, capsys, stem):
    bad = shutil.copy(fixture_path("graph_triple_g.json"), tmp_path / f"{stem}.json")
    ok = shutil.copy(fixture_path("graph_triple_h.json"), tmp_path / "c.json")
    out = tmp_path / "m.csv"
    assert main(["matrix", str(bad), str(ok), "--frames", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: label {stem!r} holds a comma or a line break, "
                            "which a matrix CSV cannot hold\n")
    assert not out.exists()


@pytest.mark.parametrize("content, problem", [
    ("{not json", "invalid JSON: "),
    ('{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}], "edges": []}',
     "duplicate vertex id 0"),
    ('{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0, 5]]}',
     "edge (0, 5) references a missing vertex"),
    ('{"vertices": [{"id": 0.2, "x": 0, "y": 0}, {"id": 0.7, "x": 1, "y": 0}],'
     ' "edges": [[0.2, 0.7]]}', "vertex id 0.2 is not an integer"),
], ids=["invalid-json", "duplicate-id", "dangling", "fractional-id"])
def test_matrix_graph_error_names_the_file(tmp_path, capsys, content, problem):
    # among several good files, the error says which one is bad
    ok = str(shutil.copy(fixture_path("graph_triple_g.json"), tmp_path / "ok.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert main(["matrix", ok, str(bad), ok, "--frames", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {problem}")


def test_matrix_jobs_zero_rejected(capsys):
    files = [str(fixture_path(f"graph_triple_{n}.json")) for n in "gh"]
    assert main(["matrix", *files, "--jobs", "0"]) == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1, got 0\n"


def test_matrix_deterministic_bytes(tmp_path):
    files = []
    for name in ("graph_triple_g", "graph_triple_h"):
        dst = tmp_path / f"{name}.json"
        shutil.copy(fixture_path(f"{name}.json"), dst)
        files.append(str(dst))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["matrix", *files, "--frames", "3", "--out", str(p1)]) == 0
    assert main(["matrix", *files, "--frames", "3", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["gen", "--classes", "star,comb", "--per-class", "2",
                     "--seed", "7", "--out", str(d)]) == 0
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    labels = (d1 / "labels.csv").read_text().splitlines()
    assert labels[0] == "file,class"
    assert len(labels) == 5


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("edgelist", "txt")])
def test_gen_writes_the_shape_dataset(tmp_path, fmt, ext):
    # gen is shape_dataset written out: the same graphs, in the same rng order
    classes = ("star", "comb", "zigzag", "polygon")
    assert main(["gen", "--classes", ",".join(classes), "--per-class", "3", "--seed", "7",
                 "--format", fmt, "--out", str(tmp_path / "gen")]) == 0
    graphs, labels = shape_dataset(classes, per_class=3, seed=7)
    names = [f"{name}_{k % 3:02d}.{ext}" for k, name in enumerate(labels)]
    for g, name in zip(graphs, names):
        write_graph(g, tmp_path / name, fmt)
        assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "gen").iterdir()) == sorted([*names, "labels.csv"])
    assert (tmp_path / "gen" / "labels.csv").read_text().splitlines() == [
        "file,class", *(f"{f},{c}" for f, c in zip(names, labels))]


def test_gen_bad_class(tmp_path, capsys):
    assert main(["gen", "--classes", "spiral", "--out", str(tmp_path / "x")]) == 1
    assert "unknown class" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--classes", "star,spiral"], "unknown class 'spiral'"),
    (["--per-class", "0"], "--per-class must be >= 1, got 0"),
    (["--per-class", "-3"], "--per-class must be >= 1, got -3"),
], ids=["late-bad-class", "zero-per-class", "negative-per-class"])
def test_gen_bad_arguments_write_nothing(tmp_path, capsys, args, named):
    out = tmp_path / "x"
    assert main(["gen", *args, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes(capsys):
    assert main(["verify", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert "d_B = 5.0/3.0/1.0" in out
    assert "d_A = 6.5/2.5/3.0" in out
    assert "verify: PASS" in out


@pytest.mark.parametrize("trials", [-5, 0, 3])
def test_verify_refuses_trials_below_four(capsys, trials):
    # once clamped to 4 and reported as a pass; now refused before any suite runs
    assert main(["verify", "--trials", str(trials)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: trials must be >= 4, got {trials}\n"
    from abdkit import verify

    with pytest.raises(ValueError, match=f"^trials must be >= 4, got {trials}$"):
        verify.run_all(trials=trials)


def test_verify_corrupted_fixture_fails(tmp_path, capsys):
    # a fixtures dir holding a broken triple must make verify exit nonzero
    for name in ("tree_triple_x", "tree_triple_y", "tree_triple_z", "graph_triple_g", "graph_triple_h", "graph_triple_j"):
        shutil.copy(fixture_path(f"{name}.json"), tmp_path / f"{name}.json")
    (tmp_path / "tree_triple_x.json").write_text('{"nodes": [], "parent": {}}')
    assert main(["verify", "--trials", "8", "--fixtures-dir", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_non_finite_graph_rejected(tmp_path, capsys):
    p = tmp_path / "nan.json"
    p.write_text('{"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": NaN}],'
                 ' "edges": [[0, 1]]}')
    for argv in (["tree", str(p)], ["abd", str(p), str(p), "--frames", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: vertex 1 has a non-finite coordinate (1.0, nan)\n"


def _square(tmp_path, name, corners):
    p = tmp_path / name
    write_graph(EmbeddedGraph(dict(enumerate(corners)), [(0, 1), (1, 2), (2, 3)]), p)
    return str(p)


def test_graph_beyond_coordinate_limit_rejected(tmp_path, capsys):
    big = 1.7e308
    p = _square(tmp_path, "huge.json", [(big, big), (-big, big), (big, -big), (-big, -big)])
    for argv in (["tree", p, "--angle", "0.7"], ["abd", p, p, "--frames", "3"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {p}: vertex 0 at ({big}, {big}) exceeds the coordinate "
                                f"limit |x| + |y| <= {MAX_COORDINATE_SUM!r}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_graph_at_coordinate_limit_runs(tmp_path, capsys):
    m = MAX_COORDINATE_SUM
    g = _square(tmp_path, "g.json", [(m, 0.0), (-m / 2, m / 2), (0.0, -m), (m / 4, -m / 2)])
    h = _square(tmp_path, "h.json", [(0.0, m), (m / 2, -m / 2), (-m, 0.0), (m / 4, m / 4)])
    assert main(["tree", g, "--angle", "0.7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] and all(math.isfinite(n["value"]) for n in doc["nodes"])
    for extra in ([], ["--tol", "1e300"]):
        assert main(["abd", g, h, "--frames", "3", *extra]) == 0
        assert 0.0 < float(capsys.readouterr().out) < m


def _comb_near_limit(tmp_path, name, s):
    # 12 teeth hanging off a level spine at 0.99 x the limit, all scaled by s
    y = 0.99 * MAX_COORDINATE_SUM * s
    spine = {i: (i * s, y) for i in range(12)}
    tips = {12 + i: (i * s, y * (1 - 1e-3 * (i + 1))) for i in range(12)}
    edges = [(i, i + 1) for i in range(11)] + [(i, 12 + i) for i in range(12)]
    p = tmp_path / name
    write_graph(EmbeddedGraph(spine | tips, edges), p)
    return str(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tree_normalize_mean_at_coordinate_limit(tmp_path, capsys):
    # the 13 node values overflow a plain sum; scaling them by a power of two
    # first is exact, so the tree is the scaled-down comb's, scaled up
    trees = []
    for s in (1.0, 2.0**-20):
        assert main(["tree", _comb_near_limit(tmp_path, f"comb_{s}.json", s),
                     "--normalize", "mean"]) == 0
        trees.append(json.loads(capsys.readouterr().out))
    big, small = trees
    assert len(big["nodes"]) == 13
    assert all(math.isfinite(n["value"]) for n in big["nodes"])
    for n in small["nodes"]:
        n["value"] = math.ldexp(n["value"], 20)
    assert big == small


def test_bad_graph_file_errors(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert main(["tree", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cached_parser_leaks_no_state_between_calls(w_path, tmp_path, capsys):
    shutil.copy(fixture_path("graph_triple_g.json"), tmp_path / "g.json")
    shutil.copy(fixture_path("graph_triple_h.json"), tmp_path / "h.json")
    g, h = str(tmp_path / "g.json"), str(tmp_path / "h.json")
    calls = [
        ["abd", g, h, "--frames", "3", "--tol", "1e-3"],
        ["abd", g, h, "--frames", "3"],
        ["abd", g, h, "--frames", "4", "--per-frame"],
        ["abd", g, h, "--frames", "4"],
        ["abd", g, h, "--frames", "5", "--avg", "mean"],
        ["abd", g, h, "--frames", "5"],
        ["matrix", g, h, str(w_path), "--frames", "2", "--tol", "1e-3", "--avg", "mean"],
        ["matrix", g, h, str(w_path), "--frames", "2"],
        ["tree", str(w_path), "--normalize", "median"],
        ["tree", str(w_path)],
    ]

    def outputs(fresh: bool) -> list[tuple[int, str, str]]:
        out = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            out.append((main(argv), *capsys.readouterr()))
        return out

    cached = outputs(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert cached == outputs(fresh=True)
    assert [o for o, _, _ in cached] == [0] * len(calls)
