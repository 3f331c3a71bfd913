"""Workload definitions: the fixed inputs of each workload and its CLI calls.

Every output of every call was recorded from the code the benchmark was
introduced with (``references.json``).  The benchmark seed fixes the order
in which the calls run, never their inputs, so every output can be checked
byte for byte.

Run as a script, this module is one set-up step in a fresh interpreter:

    python3 perfbench/workloads.py <workload> <outdir>

It imports abdkit, generates the workload's inputs, writes them under
``outdir`` and prints the elapsed seconds.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before abdkit and numpy are imported

import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Call:
    """One ``abd-kit`` invocation; argv holds ``{in}``/``{out}`` placeholders.

    ``outputs`` name the files under ``{out}`` whose bytes are checked against
    the references; ``stdout`` names the file the captured stdout is saved to.
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    kind: str  # "abd", "matrix", "cluster" or "mds"
    frame_pairs: int = 0  # branching distances the call computes
    stdout: str | None = None


@dataclass
class Case:
    """Calls that share inputs; they run in order unless ``shuffle`` is set."""

    calls: list[Call]
    shuffle: bool = False
    graphs: dict[str, object] = field(default_factory=dict)  # file stem -> EmbeddedGraph


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    frames: int


# Every call runs with one worker (the CLI default), so a traced run keeps
# every span in its own process; ``analysis.jobs_speedup`` measures the pool.
WORKLOADS = {
    "shape_matrix": Workload("shape_matrix", frames=10),
    "comb_abd": Workload("comb_abd", frames=1),
    "wide_matrix": Workload("wide_matrix", frames=2),
}

# comb_abd: (teeth, pair index) of every pair in a pass; about 7 s per pass on
# the 2-core machine of the recorded baseline.  The 7-tooth pairs 11 and 12
# put the 75th latency percentile inside a cluster of calls of similar cost
# rather than on the gap between two, which keeps it steady between runs.
COMB_PAIRS = (
    [(6, k) for k in range(12)] + [(7, k) for k in (0, 1, 2, 3, 4, 5, 11, 12)] + [(8, 2)]
)
# One pair past the 12-leaf guard, run once per comb_abd run outside the
# measured passes; its outcome (refusal text or distance) goes into the result.
GUARD_PROBE = (13, 0)

SHAPE_DATASET = 0
SHAPE_ABD_PAIRS = ((0, 6), (1, 12), (2, 8), (3, 14), (6, 12), (7, 13), (4, 5), (15, 16))
WIDE_BLOBS = 60
WIDE_POLYGONS = 60
WIDE_BLOB_VERTICES = 800
WIDE_ABD_PAIRS = tuple((f"blob_{i:02d}", f"blob_{i + 1:02d}") for i in range(0, 32, 2)) + tuple(
    (f"polygon_{i:02d}", f"polygon_{i + 1:02d}") for i in range(0, 8, 2)
)


def _import_abdkit() -> None:
    if not (SRC / "abdkit" / "__init__.py").is_file():
        raise SystemExit(f"error: abdkit sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _matrix_calls(stems: list[str], wl: Workload) -> list[Call]:
    n = len(stems)
    return [
        Call(("matrix", *(f"{{in}}/{s}.json" for s in stems), "--frames", str(wl.frames),
              "--out", "{out}/matrix.csv"),
             ("matrix.csv",), "matrix", n * (n - 1) // 2 * wl.frames),
        Call(("cluster", "{out}/matrix.csv", "--cut", "3", "--out", "{out}/tree.nwk"),
             ("tree.nwk", "cut.txt"), "cluster", stdout="cut.txt"),
        Call(("mds", "{out}/matrix.csv", "--out", "{out}/coords.csv"), ("coords.csv",), "mds"),
    ]


def _abd_call(a: str, b: str, frames: int) -> Call:
    name = f"abd-{a}-{b}.txt"
    return Call(("abd", f"{{in}}/{a}.json", f"{{in}}/{b}.json", "--frames", str(frames),
                 "--out", f"{{out}}/{name}"), (name,), "abd", frames)


def build_cases(name: str, with_graphs: bool = True) -> list[Case]:
    """The workload's calls, with their generated input graphs.

    Without ``with_graphs`` only the calls are built, so the measuring
    process never holds the generated graphs.
    """
    _import_abdkit()
    import numpy as np
    from abdkit import synth

    wl = WORKLOADS[name]
    graphs: dict[str, object] = {}
    if name == "shape_matrix":
        classes = [c for c in ("star", "comb", "zigzag") for _ in range(6)]
        stems = [f"{c}_{i:02d}" for i, c in enumerate(classes)]
        if with_graphs:
            graphs = dict(zip(stems, synth.shape_dataset(seed=SHAPE_DATASET)[0]))
        abd_pairs = [(stems[i], stems[j]) for i, j in SHAPE_ABD_PAIRS]
        return [Case(_matrix_calls(stems, wl), graphs=graphs),
                Case([_abd_call(a, b, wl.frames) for a, b in abd_pairs], shuffle=True)]
    if name == "comb_abd":
        calls = []
        for teeth, k in COMB_PAIRS + [GUARD_PROBE]:
            rng = np.random.default_rng([teeth, k])
            a, b = f"comb{teeth}-{k}a", f"comb{teeth}-{k}b"
            if with_graphs:
                graphs[a] = synth.comb(rng, teeth=teeth)
                graphs[b] = synth.comb(rng, teeth=teeth)
            if (teeth, k) != GUARD_PROBE:
                calls.append(_abd_call(a, b, wl.frames))
        return [Case(calls, shuffle=True, graphs=graphs)]
    if name == "wide_matrix":
        rng = np.random.default_rng(144)
        blobs = [f"blob_{i:02d}" for i in range(WIDE_BLOBS)]
        polygons = [f"polygon_{i:02d}" for i in range(WIDE_POLYGONS)]
        if with_graphs:
            graphs = {s: synth.blob(rng, n_vertices=WIDE_BLOB_VERTICES) for s in blobs}
            graphs.update({s: synth.convex_polygon(rng, int(rng.integers(5, 31)))
                           for s in polygons})
        return [Case(_matrix_calls(blobs + polygons, wl), graphs=graphs),
                Case([_abd_call(a, b, wl.frames) for a, b in WIDE_ABD_PAIRS], shuffle=True)]
    raise KeyError(name)


def guard_probe_call() -> Call:
    teeth, k = GUARD_PROBE
    return _abd_call(f"comb{teeth}-{k}a", f"comb{teeth}-{k}b", WORKLOADS["comb_abd"].frames)


def write_inputs(name: str, outdir: Path) -> list[Case]:
    cases = build_cases(name)
    from abdkit.graph_io import write_graph

    outdir.mkdir(parents=True, exist_ok=True)
    for case in cases:
        for stem, g in case.graphs.items():
            write_graph(g, outdir / f"{stem}.json")
    return cases


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} OUTDIR")
    write_inputs(sys.argv[1], Path(sys.argv[2]))
    print(repr(time.perf_counter() - _T0))
