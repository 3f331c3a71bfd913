"""abdkit benchmark: runs one workload through ``abdkit.cli.main`` in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and their inputs are defined in ``workloads.py``.  A run:

1. sets up ``SETUP_REPEATS`` times, each in a fresh interpreter (import,
   input generation, input-file writing), and reports the median;
2. with ``--trace 0``, repeats passes over the workload's calls for about
   ``--seconds`` (at least two passes and ``MIN_ABD_CALLS`` abd calls), and
   reports the end-to-end metrics.  Times are reported in units of a fixed
   reference loop timed before every call (see ``reference_seconds``); the
   same times in seconds are printed too;
   with ``--trace 1``, runs one untraced and one traced pass and reports
   the per-layer metrics, in seconds, plus the tracing overhead;
3. checks every output file against ``references.json`` and replays the
   frozen counterexample checks of ``abdkit.verify``.

Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads
from workloads import WORKLOADS, Call, Case

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SPANS_DIR = HERE / "out"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
EPS_PROBE_LIMIT = 40
# p75 of the abd-call latency needs ten calls beyond it
MIN_ABD_CALLS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "frame_pairs_per_ref": "1/ref",
    "abd_call_ref.p50": "ref",
    "abd_call_ref.p75": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "graph_io.self_s": "s",
    "graph_io.load_s": "s",
    "filtration.self_s": "s",
    "filtration.direction_filter_s": "s",
    "filtration.collapse_s": "s",
    "filtration.collapse_ratio": "ratio",
    "merge_tree.self_s": "s",
    "merge_tree.sweep_s": "s",
    "merge_tree.shift_s": "s",
    "merge_tree.trees": "count",
    "merge_tree.leaves_max": "count",
    "merge_tree.trivial_ratio": "ratio",
    "branching.self_s": "s",
    "branching.representations_s": "s",
    "branching.representations_total": "count",
    "branching.representations_unique_ratio": "ratio",
    "branching.distance_s": "s",
    "branching.distance_call_s.p50": "s",
    "branching.distance_call_s.p90": "s",
    "branching.candidates": "count",
    "branching.rep_pairs": "count",
    "branching.eps_decision_s.p50": "s",
    "branching.refused": "count",
    "abd.self_s": "s",
    "abd.per_frame_s": "s",
    "analysis.self_s": "s",
    "analysis.matrix_s": "s",
    "analysis.jobs_speedup": "ratio",
    "analysis.linkage_s": "s",
    "analysis.cut_s": "s",
    "analysis.mds_s": "s",
    "analysis.mds_clamped": "count",
    "analysis.export_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def output_digest(name: str, data: bytes) -> str:
    """What the references keep of an output: an abd result's exact text,
    the SHA-256 of any other file."""
    return data.decode() if name.startswith("abd-") else hashlib.sha256(data).hexdigest()


@dataclass
class CallResult:
    call: Call
    seconds: float
    code: int
    stderr: str


class Runner:
    """Runs calls through ``abdkit.cli`` in this process and checks outputs."""

    def __init__(self, indir: Path, outdir: Path, references: dict[str, str]):
        from abdkit import cli

        self.cli = cli
        self.indir, self.outdir = indir, outdir
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: list[float] = []  # reference-loop times, one before each call

    def argv(self, call: Call) -> list[str]:
        return [a.format(**{"in": self.indir, "out": self.outdir}) for a in call.argv]

    def run_call(self, call: Call) -> CallResult:
        argv = self.argv(call)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # an uncaught error fails this call, not the run
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - t0
        if call.stdout:
            (self.outdir / call.stdout).write_text(out.getvalue())
        return CallResult(call, seconds, code, err.getvalue().strip())

    def run_pass(self, cases: list[Case], rng: random.Random) -> tuple[float, list[CallResult]]:
        """One pass over every case, in an order drawn from ``rng``.

        Returns the summed time of the calls and their results.  Before each
        call the reference loop is timed once, into ``self.refs``.
        """
        order = list(cases)
        rng.shuffle(order)
        results: list[CallResult] = []
        for case in order:
            calls = list(case.calls)
            if case.shuffle:
                rng.shuffle(calls)
            for call in calls:
                self.refs.append(reference_seconds())
                results.append(self.run_call(call))
        for r in results:
            self.check(r)
        return sum(r.seconds for r in results), results

    def check(self, r: CallResult) -> None:
        """Count the call; it fails on a nonzero exit or any output unlike its reference."""
        self.attempted += 1
        if r.code != 0:
            self.failures.append(f"{r.call.outputs[0]}: exit {r.code}: {r.stderr}")
            return
        wrong = []
        for name in r.call.outputs:
            try:
                data = (self.outdir / name).read_bytes()
            except FileNotFoundError:
                wrong.append(f"{name} was not written")
                continue
            got = output_digest(name, data)
            if got != self.references.get(name):
                wrong.append(f"{name} is {got!r}, reference {self.references.get(name)!r}")
        if wrong:
            self.failures.append("; ".join(wrong))

    def replay_checks(self) -> None:
        """The frozen facts: d_B 5/3/1, ABD 6.5/2.5/3 and zero between convex shapes."""
        from abdkit import verify

        for check in (verify.check_tree_triangle_violation, verify.check_abd_triangle_violation,
                      verify.check_abd_positiveness_failure):
            self.attempted += 1
            result = check()
            if not result.passed:
                self.failures.append(f"verify {result.name}: {result.detail}")


def _reference_work(n: int = 10_000) -> int:
    memo: dict[tuple[int, int, int], int] = {}
    out = []
    for i in range(n):
        key = (i % 61, i % 53, i & 7)
        memo[key] = memo.get(key, 0) + 1
        out.append(tuple(sorted((i % 13, i % 7, i % 5))))
    out.sort()
    return len(memo) + len(out)


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop of dict, tuple and sort work.

    Its median over a run is the unit of the ``*_ref`` metrics.  Timed
    before every call, it slows down with the machine, so times divided by
    it stay comparable between runs on a machine whose speed drifts.
    """
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


def setup(name: str, indir: Path) -> list[float]:
    """Set up in fresh interpreters; the last one leaves the inputs in ``indir``."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), name, str(indir)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(runner: Runner, cases: list[Case], args, rng) -> dict[str, float]:
    walls: list[float] = []
    results: list[CallResult] = []
    abd_per_pass = sum(c.kind == "abd" for case in cases for c in case.calls)
    min_passes = max(2, math.ceil(MIN_ABD_CALLS / abd_per_pass))
    t0 = time.perf_counter()
    # stop before a pass that would end past --seconds, once min_passes ran
    while len(walls) < min_passes or (
        time.perf_counter() - t0 + statistics.median(walls) <= args.seconds
    ):
        wall, res = runner.run_pass(cases, rng)
        walls.append(wall)
        results += res
    ref = statistics.median(runner.refs)
    # a refused or failed call counts as infinitely slow
    abd_s = [r.seconds if r.code == 0 else math.inf for r in results if r.call.kind == "abd"]
    frame_pairs = sum(r.call.frame_pairs for r in results if r.code == 0)
    n = len(abd_s)
    top = 1.0 - 10.0 / n
    print(f"passes: {len(walls)}  pass wall s: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"reference loop s: median {ref:.6f} over {len(runner.refs)} samples")
    print(f"abd calls: {n}  highest percentile with ten calls beyond it: "
          f"p{math.floor(100 * top)} = {tracer.percentile(abd_s, top):.6f} s")
    raw = {
        "wall_s": statistics.median(walls),
        "frame_pairs_per_s": frame_pairs / sum(walls),
        "abd_call_s.p50": tracer.percentile(abd_s, 0.50),
        "abd_call_s.p75": tracer.percentile(abd_s, 0.75),
    }
    for name, value in raw.items():
        print(f"{name:40s} {value:>16.6f} {'1/s' if name.endswith('per_s') else 's'}")
    return {
        "wall_ref": raw["wall_s"] / ref,
        "frame_pairs_per_ref": raw["frame_pairs_per_s"] * ref,
        "abd_call_ref.p50": raw["abd_call_s.p50"] / ref,
        "abd_call_ref.p75": raw["abd_call_s.p75"] / ref,
    }


def jobs_speedup(runner: Runner, cases: list[Case], frames: int) -> float:
    """distance_matrix wall time at jobs=1 over jobs=2, on the first matrix call."""
    from abdkit import analysis
    from abdkit.graph_io import load_graph

    matrix = next((c for case in cases for c in case.calls if c.kind == "matrix"), None)
    if matrix is None:
        return 0.0
    argv = runner.argv(matrix)
    graphs = [load_graph(a) for a in argv[1:] if a.endswith(".json")]
    seconds = []
    for jobs in (1, 2):
        t0 = time.perf_counter()
        analysis.distance_matrix(graphs, n_frames=frames, jobs=jobs)
        seconds.append(time.perf_counter() - t0)
    return seconds[0] / seconds[1]


def per_layer(runner: Runner, cases: list[Case], wl, args, rng) -> dict[str, float]:
    untraced, _ = runner.run_pass(cases, rng)
    with tracer.Tracer() as tr:
        tr.run = 1
        traced, _ = runner.run_pass(cases, rng)
        if wl.name == "comb_abd":
            tr.run = 2
            guard_probe(runner)
    tr.write(SPANS_DIR / f"{wl.name}-seed{args.seed}-spans.json")
    m = tracer.layer_metrics(tr.spans)
    times, wrong = tracer.probe_eps_decisions(tr.spans, EPS_PROBE_LIMIT)
    runner.attempted += len(times)
    if wrong:
        runner.failures.append(f"{wrong} eps-decision probes contradict the returned distance")
    m["branching.eps_decision_s.p50"] = statistics.median(times) if times else 0.0
    m["analysis.jobs_speedup"] = jobs_speedup(runner, cases, wl.frames)
    m["trace.overhead_s"] = traced - untraced
    print(f"untraced pass s: {untraced:.4f}  traced pass s: {traced:.4f}  "
          f"eps probes: {len(times)}  spans: {len(tr.spans)}")
    return m


def guard_probe(runner: Runner) -> None:
    """Run the over-guard comb pair once and print its outcome."""
    r = runner.run_call(workloads.guard_probe_call())
    if r.code == 0:
        outcome = "answered " + (runner.outdir / r.call.outputs[0]).read_text().strip()
    else:
        outcome = f"refused ({r.stderr})"
    print(f"guard probe (13-tooth comb pair, 1 frame): {outcome}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "abdkit").is_dir():
        print(f"error: abdkit sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    indir, outdir = work / "in", work / "out"
    try:
        outdir.mkdir(parents=True)
        setup_s = setup(wl.name, indir)
        cases = workloads.build_cases(wl.name, with_graphs=False)
        references = json.loads(REFERENCES.read_text())[wl.name]
        rng = random.Random(args.seed)
        runner = Runner(indir, outdir, references)
        if args.trace:
            metrics = per_layer(runner, cases, wl, args, rng)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(runner, cases, args, rng)
            metrics["setup_s"] = statistics.median(setup_s)
            if wl.name == "comb_abd":
                guard_probe(runner)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
        runner.replay_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"set-up s: {' '.join(f'{t:.4f}' for t in setup_s)}")
    failed = len(runner.failures)
    for msg in runner.failures:
        print(f"FAILED: {msg}")
    print(f"ops attempted: {runner.attempted}  failed: {failed}  "
          f"ops_failed_ratio: {failed / runner.attempted:.6f}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
