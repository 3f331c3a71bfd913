"""Self-test of the benchmark on a four-graph workload.

    python3 -m pytest perfbench/test_bench.py -q

Checks that both kinds of run emit every metric named in BENCHMARK.json
with its unit, and that the output check rejects a perturbed matrix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record_references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

workloads._import_abdkit()

TINY = workloads.Workload("tiny", frames=2)
STEMS = ("star_0", "comb_0", "zigzag_0", "star_1")


def tiny_cases(name: str, with_graphs: bool = True) -> list[workloads.Case]:
    import numpy as np
    from abdkit import synth

    rng = np.random.default_rng(0)
    graphs = {s: synth.make_shape(s.split("_")[0], rng) for s in STEMS} if with_graphs else {}
    calls = workloads._matrix_calls(list(STEMS), TINY)
    calls.append(workloads._abd_call("star_0", "comb_0", TINY.frames))
    return [workloads.Case(calls, graphs=graphs)]


def fake_setup(name: str, indir: Path) -> list[float]:
    workloads.write_inputs(name, indir)
    return [0.5]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(workloads, "build_cases", tiny_cases)
    monkeypatch.setattr(run, "setup", fake_setup)
    for module in (run, record_references):
        monkeypatch.setattr(module, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")
    refs = {"tiny": record_references.record("tiny")}
    monkeypatch.setattr(run, "REFERENCES", tmp_path / "references.json")
    run.REFERENCES.write_text(json.dumps(refs))
    return refs["tiny"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, trace, section):
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
        assert any(line.startswith(name + " ") for line in lines), name


def test_output_check_rejects_a_perturbed_matrix(tiny, tmp_path):
    indir, outdir = tmp_path / "in", tmp_path / "out"
    outdir.mkdir()
    workloads.write_inputs("tiny", indir)
    runner = run.Runner(indir, outdir, tiny)
    matrix_call = tiny_cases("tiny", with_graphs=False)[0].calls[0]
    result = runner.run_call(matrix_call)
    runner.check(result)
    assert runner.failures == []

    path = outdir / "matrix.csv"
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    runner.check(result)
    assert len(runner.failures) == 1 and "matrix.csv" in runner.failures[0]
    assert runner.attempted == 2


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    code = run.main(["--workload", "comb_abd", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
