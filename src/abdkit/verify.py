"""Replays of every counterexample and randomized property suite.

Each check returns a :class:`CheckResult`; :func:`run_all` collects them
into a report.  The headline facts being reproduced are deliberate
*failures* of metric axioms: the branching distance violates the triangle
inequality on the frozen tree triple, the ABD violates it on the graph triple and has
a zero between the non-isomorphic indistinguishable shapes, while symmetry and
nonnegativity hold everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .abd import average_branching_distance, merge_tree_at
from .branching import branching_distance
from .fixtures import tree_counterexample, indistinguishable_pair, graph_counterexample
from .merge_tree import MergeTree, compute_merge_tree, trees_equal
from .oracles import brute_force_distance, candidate_costs, is_isomorphic, leaves, merge_tree_oracle
from .synth import blob, convex_polygon, random_connected_scalar_graph, random_merge_tree

__all__ = ["CheckResult", "Report", "run_all", "frame_stability"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"verify: {'PASS' if self.passed else 'FAIL'} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return out


def check_tree_triangle_violation(fixtures_dir: str | Path | None = None) -> CheckResult:
    """d_B on the frozen tree triple is 5, 3, 1 and violates the triangle inequality."""
    x, y, z = tree_counterexample(fixtures_dir)
    for t in (x, y, z):
        t.validate()
    dxy = branching_distance(x, y)
    dyz = branching_distance(y, z)
    dxz = branching_distance(x, z)
    expected = dxy == 5.0 and dyz == 3.0 and dxz == 1.0
    oracle_ok = (
        brute_force_distance(x, y) == dxy
        and brute_force_distance(y, z) == dyz
        and brute_force_distance(x, z) == dxz
    )
    violated = dxy > dxz + dyz
    return CheckResult(
        "branching-distance triangle violation",
        expected and oracle_ok and violated,
        f"d_B = {dxy}/{dyz}/{dxz}, oracle agrees: {oracle_ok}, 5 > 3 + 1: {violated}",
    )


def check_abd_triangle_violation(fixtures_dir: str | Path | None = None) -> CheckResult:
    """ABD on the frozen graph triple over {pi/2} is 6.5, 2.5, 3 and violates the triangle."""
    g, h, j = graph_counterexample(fixtures_dir)
    dgh = average_branching_distance(g, h, n_frames=1)
    dgj = average_branching_distance(g, j, n_frames=1)
    dhj = average_branching_distance(h, j, n_frames=1)
    ok = dgh == 6.5 and dgj == 2.5 and dhj == 3.0 and dgh > dgj + dhj
    return CheckResult(
        "ABD triangle violation",
        ok,
        f"d_A = {dgh}/{dgj}/{dhj}, 6.5 > 2.5 + 3: {dgh > dgj + dhj}",
    )


def check_abd_positiveness_failure() -> CheckResult:
    """Non-isomorphic convex shapes at ABD 0: positiveness fails."""
    a, b = indistinguishable_pair()
    dist = average_branching_distance(a, b, n_frames=10)
    iso = is_isomorphic(a, b)
    return CheckResult(
        "ABD positiveness failure",
        dist == 0.0 and not iso,
        f"d_A = {dist}, isomorphic: {iso}",
    )


def check_convex_triviality(n_polygons: int = 50, n_angles: int = 25, seed: int = 0) -> CheckResult:
    """Convex polygons have trivial merge trees from every direction and pairwise ABD 0."""
    rng = np.random.default_rng(seed)
    polys = [convex_polygon(rng, int(rng.integers(5, 31))) for _ in range(n_polygons)]
    nontrivial = 0
    for g in polys:
        for omega in rng.uniform(0.0, 2.0 * np.pi, n_angles):
            if not merge_tree_at(g, float(omega)).is_trivial():
                nontrivial += 1
    nonzero = 0
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if average_branching_distance(polys[i], polys[j], n_frames=5) != 0.0:
                nonzero += 1
    ok = nontrivial == 0 and nonzero == 0
    return CheckResult(
        "convex-polygon triviality",
        ok,
        f"{n_polygons} polygons x {n_angles} angles: {nontrivial} nontrivial trees, "
        f"{nonzero} nonzero pairwise ABDs",
    )


def check_merge_tree_oracle(trials: int = 200, seed: int = 0) -> CheckResult:
    """Sweep construction matches the definition-based oracle."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    for _ in range(trials):
        sg = random_connected_scalar_graph(rng)
        if not trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg)):
            mismatches += 1
    return CheckResult(
        "merge-tree oracle equivalence",
        mismatches == 0,
        f"{trials} random graphs, {mismatches} mismatches",
    )


def check_distance_oracle(pairs: int = 100, seed: int = 0) -> CheckResult:
    """Exact-mode distance equals the exhaustive enumeration on small trees."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(pairs):
        x = random_merge_tree(rng, max_leaves=5)
        y = random_merge_tree(rng, max_leaves=5)
        if branching_distance(x, y) != brute_force_distance(x, y):
            bad += 1
    return CheckResult(
        "distance oracle equivalence",
        bad == 0,
        f"{pairs} random tree pairs, {bad} disagreements",
    )


def check_semi_metric(pairs: int = 200, seed: int = 0) -> CheckResult:
    """Symmetry, d(X,X)=0, nonnegativity, and positivity under perturbation."""
    rng = np.random.default_rng(seed)
    bad = []
    for _ in range(pairs):
        x = random_merge_tree(rng, max_leaves=4)
        y = random_merge_tree(rng, max_leaves=4)
        dxy = branching_distance(x, y)
        if dxy < 0.0:
            bad.append("negative")
        if dxy != branching_distance(y, x):
            bad.append("asymmetric")
        if branching_distance(x, x) != 0.0:
            bad.append("self-distance nonzero")
        perturbed = _perturb_leaf(x)
        if branching_distance(x, perturbed) <= 0.0:
            bad.append("perturbation not detected")
    return CheckResult(
        "semi-metric properties of d_B",
        not bad,
        f"{pairs} random pairs, violations: {bad[:5] if bad else 'none'}",
    )


def _perturb_leaf(tree):
    """Lower one leaf by more than the smallest candidate gap."""
    cands = candidate_costs(tree, tree)
    gaps = [b - a for a, b in zip(cands, cands[1:]) if b - a > 0]
    delta = (min(gaps) if gaps else 1.0) * 1.5
    leaf = min(leaves(tree))
    return MergeTree({**tree.values, leaf: tree.values[leaf] - delta}, tree.parent)


def check_tolerance_bracket(trials: int = 50, seed: int = 0) -> CheckResult:
    """Tolerance mode lands in [exact, exact + tol] for tol in 1e-6, 1e-3, 1e-1."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        x = random_merge_tree(rng, max_leaves=4)
        y = random_merge_tree(rng, max_leaves=4)
        exact = branching_distance(x, y)
        for tol in (1e-6, 1e-3, 1e-1):
            if not exact <= branching_distance(x, y, tol=tol) <= exact + tol:
                bad += 1
    return CheckResult(
        "tolerance-mode bracket",
        bad == 0,
        f"{trials} pairs x tol 1e-6/1e-3/1e-1, {bad} values outside [exact, exact + tol]",
    )


@dataclass
class StabilityRow:
    pair: int
    abd_small: float
    abd_large: float
    rel: float
    stable: bool


def frame_stability(
    pairs: int = 10,
    seed: int = 0,
    frames_small: int = 20,
    frames_large: int = 100,
    rel_tol: float = 0.15,
    floor: float = 1e-9,
) -> list[StabilityRow]:
    """Relative ABD change between two frame counts on smooth blob pairs."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(pairs):
        g, h = blob(rng), blob(rng)
        small = average_branching_distance(g, h, n_frames=frames_small)
        large = average_branching_distance(g, h, n_frames=frames_large)
        rel = abs(small - large) / max(large, floor)
        rows.append(StabilityRow(i, small, large, rel, rel <= rel_tol))
    return rows


def check_frame_stability(pairs: int = 10, seed: int = 0, need: int = 8) -> CheckResult:
    rows = frame_stability(pairs=pairs, seed=seed)
    stable = sum(r.stable for r in rows)
    failures = [f"pair {r.pair} (rel {r.rel:.3f})" for r in rows if not r.stable]
    detail = f"{stable}/{pairs} pairs within 15% between 20 and 100 frames"
    if failures:
        detail += "; unstable: " + ", ".join(failures)
    return CheckResult("frame-count stability", stable >= need, detail)


def run_all(trials: int = 200, seed: int = 0, fixtures_dir: str | Path | None = None) -> Report:
    """All counterexample regressions and property suites.

    ``trials`` is the fuzz count for the randomized suites (the smaller
    suites run proportionally fewer cases, the smallest a quarter of it);
    below 4 it is refused before any suite runs.
    """
    if trials < 4:
        raise ValueError(f"trials must be >= 4, got {trials}")
    report = Report()

    def run(name: str, fn, *args, **kwargs) -> None:
        try:
            report.checks.append(fn(*args, **kwargs))
        except Exception as exc:  # a broken fixture or bug is a FAIL, not a crash
            report.checks.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))

    run("branching-distance triangle violation", check_tree_triangle_violation, fixtures_dir)
    run("ABD triangle violation", check_abd_triangle_violation, fixtures_dir)
    run("ABD positiveness failure", check_abd_positiveness_failure)
    run("convex-polygon triviality", check_convex_triviality, seed=seed)
    run("merge-tree oracle equivalence", check_merge_tree_oracle, trials=trials, seed=seed)
    run("distance oracle equivalence", check_distance_oracle, pairs=trials // 2, seed=seed)
    run("semi-metric properties of d_B", check_semi_metric, pairs=trials, seed=seed)
    run("tolerance-mode bracket", check_tolerance_bracket, trials=trials // 4, seed=seed)
    run("frame-count stability", check_frame_stability, seed=seed)
    return report
