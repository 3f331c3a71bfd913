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
from abdkit import branching, oracles
from abdkit.fixtures import fixture_path

REPO = Path(__file__).resolve().parents[1]

# Runs every production command in one interpreter, then prints which of the
# test-only modules it loaded.
PRODUCTION_RUN = """
import json, sys
from abdkit.cli import main
g, h, j, x, d = sys.argv[1:]
for argv in (["tree", g, "--out", f"{d}/t.json"],
             ["dist", x, x, "--out", f"{d}/d.txt"],
             ["abd", g, h, "--frames", "3", "--out", f"{d}/a.txt"],
             ["matrix", g, h, j, "--frames", "2", "--out", f"{d}/m.csv"],
             ["cluster", f"{d}/m.csv", "--out", f"{d}/c.nwk"],
             ["mds", f"{d}/m.csv", "--out", f"{d}/e.csv"]):
    assert main(argv) == 0, argv
print(json.dumps([m for m in ("abdkit.cli", "abdkit.oracles", "abdkit.verify") if m in sys.modules]))
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
