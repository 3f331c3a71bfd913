"""The line between the production engine and the oracles that check it."""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import abdkit
from abdkit import branching, graph_io, oracles
from abdkit.fixtures import fixture_path
from abdkit.graph_io import EmbeddedGraph
from abdkit.merge_tree import MergeTree

REPO = Path(__file__).resolve().parents[1]

# Runs every production command in one interpreter, then prints which of the
# test-only modules it loaded, and whether it loaded xml.sax or urllib.request
# (about 35 ms of start-up that the SVG exports do not need) or the process
# pool (about 13 ms, needed only by a matrix with more than one worker).
PRODUCTION_RUN = """
import json, sys
from abdkit.cli import main
g, h, j, x, d = sys.argv[1:]
for argv in (["tree", g, "--out", f"{d}/t.json"],
             ["dist", x, x, "--out", f"{d}/d.txt"],
             ["abd", g, h, "--frames", "3", "--out", f"{d}/a.txt"],
             ["matrix", g, h, j, "--frames", "2", "--out", f"{d}/m.csv"],
             ["cluster", f"{d}/m.csv", "--out", f"{d}/c.nwk", "--svg", f"{d}/c.svg"],
             ["mds", f"{d}/m.csv", "--out", f"{d}/e.csv", "--svg", f"{d}/e.svg"]):
    assert main(argv) == 0, argv
names = ("abdkit.cli", "abdkit.oracles", "abdkit.verify", "xml.sax", "urllib.request",
         "concurrent.futures", "multiprocessing")
print(json.dumps([m for m in names if m in sys.modules]))
"""


def test_production_commands_load_no_oracle(tmp_path):
    names = ("graph_triple_g", "graph_triple_h", "graph_triple_j", "tree_triple_x")
    g, h, j, x = (str(shutil.copy(fixture_path(f"{n}.json"), tmp_path / f"{n}.json"))
                  for n in names)
    src = str(Path(abdkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", PRODUCTION_RUN, g, h, j, x, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == ["abdkit.cli"]


def test_tracer_patch_points_resolve(monkeypatch):
    # loaded by path, writing no bytecode next to it; its dataclasses need it in sys.modules
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for mod_name, attr in tracer.PATCH_POINTS:
        assert callable(getattr(importlib.import_module(f"abdkit.{mod_name}"), attr)), attr
    assert branching.representations is oracles.representations
    assert branching.candidate_costs is oracles.candidate_costs
    assert branching.is_eps_similar is oracles.is_eps_similar
    with pytest.raises(AttributeError, match="brute_force_distance"):
        branching.brute_force_distance


# The public names of the package and of every production module (every
# module but oracles, verify, synth and the fixtures); cli has no __all__.
# A name leaves one of these lists only by an edit here.
PUBLIC_API = {
    "abdkit": [
        "EmbeddedGraph", "ScalarGraph", "MergeTree", "DistanceMatrix", "load_graph",
        "write_graph", "largest_component", "direction_filter", "collapse_equal_adjacent",
        "compute_merge_tree", "shift_median_zero", "load_tree", "write_tree",
        "branching_distance", "frame_angles", "merge_tree_at", "average_branching_distance",
        "distance_matrix", "single_linkage", "cut_clusters", "classical_mds", "export",
        "__version__",
    ],
    "abdkit.abd": ["frame_angles", "merge_tree_at", "frame_trees", "per_frame_distances",
                   "average_branching_distance"],
    "abdkit.analysis": [
        "DistanceMatrix", "Dendrogram", "Embedding2D", "distance_matrix", "single_linkage",
        "cut_clusters", "cluster_purity", "classical_mds", "export", "load_distance_csv",
        "matrix_to_csv", "dendrogram_to_newick", "embedding_to_csv",
    ],
    "abdkit.branching": ["branching_distance", "MAX_LEAVES"],
    "abdkit.cli": None,
    "abdkit.filtration": ["ScalarGraph", "direction_values", "direction_filter", "tie_mask",
                          "collapse_equal_adjacent"],
    "abdkit.graph_io": ["EmbeddedGraph", "GraphFormatError", "load_graph", "write_graph",
                        "largest_component"],
    "abdkit.merge_tree": [
        "MergeTree", "DisconnectedGraphError", "compute_merge_tree", "compute_merge_trees",
        "median_or_mean", "shift_median_zero", "trees_equal", "load_tree", "write_tree",
    ],
}


def test_public_api_is_pinned():
    for name, expected in PUBLIC_API.items():
        assert getattr(importlib.import_module(name), "__all__", None) == expected, name


def test_test_only_names_live_with_their_callers():
    # Beketayev et al.'s branch and costs, and the tree's child and leaf
    # lists, serve only the oracles, verify and the tests
    for name in ("Branch", "matching_cost", "removal_cost", "children", "leaves"):
        assert name in oracles.__all__ and callable(getattr(oracles, name)), name
        assert name not in abdkit.__all__ and not hasattr(branching, name), name
    for owner, names in ((MergeTree, ("children", "leaves")),
                         (EmbeddedGraph, ("neighbors", "translated", "rotated")),
                         (graph_io, ("connected_components",))):
        for name in names:
            assert not hasattr(owner, name), name
