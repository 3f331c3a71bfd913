"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and enforces its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from abdkit.abd import average_branching_distance, merge_tree_at
from abdkit.analysis import cluster_purity, cut_clusters, distance_matrix, single_linkage
from abdkit.branching import branching_distance
from abdkit.fixtures import tree_counterexample, indistinguishable_pair, graph_counterexample
from abdkit.merge_tree import MergeTree, compute_merge_tree, trees_equal
from abdkit.oracles import (
    brute_force_distance,
    candidate_costs,
    is_isomorphic,
    leaves,
    merge_tree_oracle,
)
from abdkit.synth import (
    convex_polygon,
    random_connected_scalar_graph,
    random_merge_tree,
    shape_dataset,
)
from abdkit.verify import frame_stability

SEED = 0


@contextmanager
def criterion(n: int, desc: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {n} FAIL: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {n} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {n} PASS ({elapsed:.2f}s): {desc}")


def test_criterion_1_branching_triangle_violation():
    with criterion(1, "d_B triangle violation: 5/3/1 on the frozen tree triple", 1.0):
        x, y, z = tree_counterexample()
        dxy = branching_distance(x, y)
        dyz = branching_distance(y, z)
        dxz = branching_distance(x, z)
        assert dxy == 5.0
        assert dyz == 3.0
        assert dxz == 1.0
        assert dxy > dyz + dxz


def test_criterion_2_abd_counterexamples():
    with criterion(2, "ABD counterexamples: 6.5/2.5/3 at {pi/2}; d_A=0 non-isomorphic pair", 1.0):
        g, h, j = graph_counterexample()
        dgh = average_branching_distance(g, h, n_frames=1)
        dgj = average_branching_distance(g, j, n_frames=1)
        dhj = average_branching_distance(h, j, n_frames=1)
        assert dgh == 6.5
        assert dgj == 2.5
        assert dhj == 3.0
        assert dgh > dgj + dhj
        a, b = indistinguishable_pair()
        assert average_branching_distance(a, b, n_frames=10) == 0.0
        assert not is_isomorphic(a, b)


def test_criterion_3_convex_polygon_triviality():
    with criterion(3, "convex polygons: trivial trees, pairwise ABD 0", 30.0):
        rng = np.random.default_rng(SEED)
        polys = [convex_polygon(rng, int(rng.integers(5, 31))) for _ in range(50)]
        for g in polys:
            for omega in rng.uniform(0.0, 2.0 * np.pi, 25):
                assert merge_tree_at(g, float(omega)).is_trivial()
        dm = distance_matrix(polys, n_frames=10)
        assert np.array_equal(dm.d, np.zeros((50, 50)))


def test_criterion_4_merge_tree_oracle_equivalence():
    with criterion(4, "sweep == definition oracle on 200 random graphs", 60.0):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            sg = random_connected_scalar_graph(rng, max_vertices=20)
            assert trees_equal(compute_merge_tree(sg), merge_tree_oracle(sg))


def _criterion5_pairs():
    rng = np.random.default_rng(SEED)
    return [
        (random_merge_tree(rng, max_leaves=5), random_merge_tree(rng, max_leaves=5))
        for _ in range(100)
    ]


def test_criterion_5_distance_oracle_equivalence():
    with criterion(5, "exact d_B == brute force on 100 random tree pairs", 300.0):
        for x, y in _criterion5_pairs():
            assert branching_distance(x, y) == brute_force_distance(x, y)


def test_criterion_6_semi_metric_properties():
    with criterion(6, "symmetry, self-distance 0, perturbation positivity on 200 pairs", 120.0):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            x = random_merge_tree(rng, max_leaves=4)
            y = random_merge_tree(rng, max_leaves=4)
            assert branching_distance(x, y) == branching_distance(y, x)
            assert branching_distance(x, x) == 0.0
            cands = candidate_costs(x, x)
            gaps = [b - a for a, b in zip(cands, cands[1:]) if b - a > 0]
            delta = (min(gaps) if gaps else 1.0) * 1.5
            leaf = min(leaves(x))
            perturbed = MergeTree({**x.values, leaf: x.values[leaf] - delta}, x.parent)
            assert branching_distance(x, perturbed) > 0.0


def test_criterion_7_clustering_purity():
    with criterion(7, "3 shape classes x 6 instances: purity >= 0.9 at k=3", 600.0):
        graphs, labels = shape_dataset(("star", "comb", "zigzag"), per_class=6, seed=SEED)
        dm = distance_matrix(graphs, n_frames=10, labels=labels)
        assignment = cut_clusters(single_linkage(dm), 3)
        purity = cluster_purity(assignment, labels)
        assert purity >= 0.9, f"purity {purity}"


def test_criterion_8_frame_count_stability():
    with criterion(8, "ABD@20 vs ABD@100 within 15% on >= 8/10 smooth pairs", 120.0):
        rows = frame_stability(pairs=10, seed=SEED)
        stable = sum(r.stable for r in rows)
        for r in rows:
            print(f"  pair {r.pair}: abd@20={r.abd_small:.4f} abd@100={r.abd_large:.4f} "
                  f"rel={r.rel:.3f} {'ok' if r.stable else 'UNSTABLE'}")
        assert stable >= 8, f"only {stable}/10 stable"


def test_criterion_9_tolerance_mode_contract():
    with criterion(9, "tolerance mode within 1e-6 of exact on the criterion-5 pairs", 300.0):
        for x, y in _criterion5_pairs():
            exact = branching_distance(x, y)
            approx = branching_distance(x, y, tol=1e-6)
            assert abs(approx - exact) <= 1e-6
