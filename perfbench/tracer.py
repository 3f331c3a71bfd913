"""In-memory spans around calls into abdkit's public functions.

The package itself carries no instrumentation: while a :class:`Tracer` is
installed, each function listed in ``PATCH_POINTS`` is replaced, in the
module namespace its callers look it up in, by a wrapper that records one
span (name, start, end, parent span, run id).  Spans stay in memory;
:func:`layer_metrics` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

# (namespace module, attribute).  A function is looked up where its caller
# imported it, so some appear in several namespaces; the span's layer is the
# module that defines the function.
PATCH_POINTS = (
    ("cli", "main"),
    ("cli", "load_graph"),
    ("cli", "average_branching_distance"),
    ("cli", "per_frame_distances"),
    ("abd", "largest_component"),
    ("abd", "per_frame_distances"),
    ("abd", "merge_tree_at"),
    ("abd", "direction_filter"),
    ("abd", "collapse_equal_adjacent"),
    ("abd", "compute_merge_tree"),
    ("abd", "shift_median_zero"),
    ("abd", "branching_distance"),
    ("branching", "representations"),
    ("branching", "candidate_costs"),
    ("analysis", "largest_component"),
    ("analysis", "merge_tree_at"),
    ("analysis", "branching_distance"),
    ("analysis", "distance_matrix"),
    ("analysis", "single_linkage"),
    ("analysis", "cut_clusters"),
    ("analysis", "classical_mds"),
    ("analysis", "export"),
    ("analysis", "load_distance_csv"),
    ("analysis", "matrix_to_csv"),
    ("analysis", "dendrogram_to_newick"),
    ("analysis", "embedding_to_csv"),
)

LAYERS = ("cli", "graph_io", "filtration", "merge_tree", "branching", "abd", "analysis")
EXPORT_FUNCS = ("export", "load_distance_csv", "matrix_to_csv", "dendrogram_to_newick",
                "embedding_to_csv")


def _n_frames(args, kwargs):
    return kwargs["n_frames"] if "n_frames" in kwargs else args[2]


# What a span keeps besides its times: cheap references or sizes only, taken
# after the span's end so the cost never lands in the callee's own time.
PAYLOADS = {
    "collapse_equal_adjacent": lambda a, k, r: (a[0].n_vertices, r.n_vertices),
    "compute_merge_tree": lambda a, k, r: r,
    "representations": lambda a, k, r: (a[0], len(r)),
    "candidate_costs": lambda a, k, r: len(r),
    "branching_distance": lambda a, k, r: (a[0], a[1], r),
    "classical_mds": lambda a, k, r: r.n_clamped,
    "per_frame_distances": lambda a, k, r: _n_frames(a, k),
}


@dataclass
class Span:
    id: int
    parent: int  # -1 for a root span
    run: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    payload: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        payload = PAYLOADS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, self.run, layer, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                stack.pop()
            span.end = time.perf_counter()
            if payload is not None:
                span.payload = payload(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for mod_name, attr in PATCH_POINTS:
            mod = importlib.import_module(f"abdkit.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        rows = [[s.id, s.parent, s.run, f"{s.layer}.{s.name}", s.start, s.end, s.error]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def unique_rep_count(tree, cache: dict) -> int:
    """Representations of ``tree`` that differ in values or shape."""
    from abdkit.branching import representations

    key = id(tree)
    if key not in cache:
        cache[key] = (tree, len({rep.canonical_key() for rep in representations(tree)}))
    return cache[key][1]


def probe_eps_decisions(spans: list[Span], limit: int) -> tuple[list[float], int]:
    """Time ``is_eps_similar`` at the optimum and at the next candidate below.

    Probes up to ``limit`` successful ``branching_distance`` calls, evenly
    spaced.  Returns the decision times and the number of probes whose
    answer contradicts the returned distance (true at the optimum, false
    just below it).
    """
    from abdkit.branching import candidate_costs, is_eps_similar

    calls = [s.payload for s in spans if s.name == "branching_distance" and s.error is None]
    step = max(1, len(calls) // limit) if calls else 1
    times: list[float] = []
    wrong = 0
    for x, y, d in calls[::step][:limit]:
        cands = candidate_costs(x, y)
        probes = [(d, True)]
        if d in cands and cands.index(d) > 0:
            probes.append((cands[cands.index(d) - 1], False))
        for eps, expected in probes:
            t0 = time.perf_counter()
            got = is_eps_similar(x, y, eps)
            times.append(time.perf_counter() - t0)
            wrong += got != expected
    return times, wrong


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts over all recorded spans."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    def self_total(names) -> float:
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, selfs) if s.layer == layer)
    m["graph_io.load_s"] = total("load_graph")

    m["filtration.direction_filter_s"] = total("direction_filter")
    m["filtration.collapse_s"] = total("collapse_equal_adjacent")
    sizes = [s.payload for s in by_name.get("collapse_equal_adjacent", ()) if s.error is None]
    m["filtration.collapse_ratio"] = (
        sum(o for _, o in sizes) / sum(i for i, _ in sizes) if sizes else 0.0
    )

    trees = [s.payload for s in by_name.get("compute_merge_tree", ()) if s.error is None]
    m["merge_tree.sweep_s"] = total("compute_merge_tree")
    m["merge_tree.shift_s"] = total("shift_median_zero")
    m["merge_tree.trees"] = len(trees)
    m["merge_tree.leaves_max"] = max((t.n_leaves for t in trees), default=0)
    m["merge_tree.trivial_ratio"] = (
        sum(t.is_trivial() for t in trees) / len(trees) if trees else 0.0
    )

    reps = [s.payload for s in by_name.get("representations", ()) if s.error is None]
    m["branching.representations_s"] = total("representations")
    m["branching.representations_total"] = sum(n for _, n in reps)
    m["branching.representations_unique_ratio"] = (
        len({id(t) for t, _ in reps}) / len(reps) if reps else 0.0
    )
    dist = by_name.get("branching_distance", [])
    done = [s for s in dist if s.error is None]
    m["branching.distance_s"] = self_total(["branching_distance"])
    call_s = [s.seconds for s in done]
    m["branching.distance_call_s.p50"] = percentile(call_s, 0.5) if call_s else 0.0
    m["branching.distance_call_s.p90"] = percentile(call_s, 0.9) if call_s else 0.0
    m["branching.candidates"] = sum(s.payload for s in by_name.get("candidate_costs", ())
                                    if s.error is None)
    cache: dict = {}
    m["branching.rep_pairs"] = sum(
        unique_rep_count(s.payload[0], cache) * unique_rep_count(s.payload[1], cache)
        for s in done
    )
    m["branching.refused"] = sum(1 for s in dist if s.error is not None)

    per_frame = by_name.get("per_frame_distances", [])
    frames = sum(s.payload for s in per_frame if s.error is None)
    m["abd.per_frame_s"] = (
        sum(s.seconds for s in per_frame if s.error is None) / frames if frames else 0.0
    )

    m["analysis.matrix_s"] = total("distance_matrix")
    m["analysis.linkage_s"] = total("single_linkage")
    m["analysis.cut_s"] = total("cut_clusters")
    m["analysis.mds_s"] = total("classical_mds")
    m["analysis.mds_clamped"] = sum(s.payload for s in by_name.get("classical_mds", ())
                                    if s.error is None)
    m["analysis.export_s"] = self_total(EXPORT_FUNCS)
    m["trace.spans"] = len(spans)
    return m
