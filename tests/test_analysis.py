import concurrent.futures
import hashlib
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.linalg import orthogonal_procrustes
from scipy.sparse.csgraph import minimum_spanning_tree

from abdkit import analysis, branching, graph_io
from abdkit.abd import (
    average_branching_distance,
    frame_angles,
    frame_trees,
    merge_tree_at,
    per_frame_distances,
)
from abdkit.analysis import (
    Dendrogram,
    _dendrogram_svg,
    DistanceMatrix,
    classical_mds,
    cluster_purity,
    cut_clusters,
    dendrogram_to_newick,
    distance_matrix,
    embedding_to_csv,
    export,
    load_distance_csv,
    matrix_to_csv,
    single_linkage,
)
from abdkit.fixtures import graph_counterexample
from abdkit.filtration import ScalarGraph
from abdkit.graph_io import EmbeddedGraph
from abdkit.synth import comb, convex_polygon, shape_dataset, star

from conftest import connected_components, translated


def dm(labels, rows):
    return DistanceMatrix(list(labels), np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# distance_matrix
# ---------------------------------------------------------------------------

def test_matrix_self_pair(rng):
    g = star(rng)
    out = distance_matrix([g, g], n_frames=3)
    assert np.array_equal(out.d, np.zeros((2, 2)))


def test_matrix_convex_polygons_all_zero(rng):
    polys = [convex_polygon(rng, k) for k in (5, 7, 9)]
    out = distance_matrix(polys, n_frames=4)
    assert np.array_equal(out.d, np.zeros((3, 3)))


def test_matrix_graph_triple_values():
    g, h, j = graph_counterexample()
    out = distance_matrix([g, h, j], n_frames=1, labels=["g", "h", "j"])
    assert out.d[0, 1] == 6.5
    assert out.d[0, 2] == 2.5
    assert out.d[1, 2] == 3.0
    assert np.array_equal(out.d, out.d.T)


def test_matrix_permutation_equivariance():
    g, h, j = graph_counterexample()
    a = distance_matrix([g, h, j], n_frames=1)
    b = distance_matrix([j, g, h], n_frames=1)
    perm = [2, 0, 1]  # position of [j, g, h] items inside [g, h, j]
    for r in range(3):
        for c in range(3):
            assert b.d[r, c] == a.d[perm[r], perm[c]]


@pytest.mark.parametrize("avg", ["median", "mean"])
@pytest.mark.parametrize("tol", [None, 1e-3], ids=["exact", "tolerance"])
def test_matrix_jobs_parallel_matches_serial(avg, tol):
    g, h, j = graph_counterexample()
    kw = dict(n_frames=3, avg=avg, tol=tol)
    a = distance_matrix([g, h, j], jobs=1, **kw)
    b = distance_matrix([g, h, j], jobs=2, **kw)
    assert np.array_equal(a.d, b.d)


def test_matrix_builds_branch_tables_once_per_tree(rng, monkeypatch):
    builds = []
    real = branching._table

    def counted(mt):
        if mt.branch_table is None:
            builds.append(mt)
        return real(mt)

    monkeypatch.setattr(branching, "_table", counted)
    distance_matrix([star(rng), comb(rng), star(rng)], n_frames=2)
    assert len(builds) <= 6  # 3 graphs x 2 frames


def test_matrix_leaf_guard_names_pair_and_frame(rng):
    combs = [comb(rng, teeth=21), comb(rng, teeth=21)]
    refusal = r"merge tree has \d+ leaves; branching_distance is limited to 20"
    with pytest.raises(ValueError, match=refusal) as err:
        distance_matrix(combs, n_frames=1, labels=["left", "right"])
    assert "left vs right, frame 0" in str(err.value)


def duplicate_heavy_set(rng):
    """Graphs whose trees repeat: convex polygons, a translated star, a comb twice."""
    polys = [convex_polygon(rng, k) for k in (4, 5, 6, 9, 12, 17)]
    s, c = star(rng), comb(rng)
    return polys + [s, translated(s, 3.0, -2.0), c, c, *graph_counterexample()]


@pytest.mark.parametrize("n_frames", [1, 2, 10])
@pytest.mark.parametrize("avg", ["median", "mean"])
@pytest.mark.parametrize("tol", [None, 1e-3], ids=["exact", "tolerance"])
def test_matrix_equals_per_pair_abd(rng, n_frames, avg, tol):
    graphs = duplicate_heavy_set(rng)
    n = len(graphs)
    kw = dict(n_frames=n_frames, avg=avg, tol=tol)
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            expected[i, j] = expected[j, i] = average_branching_distance(graphs[i], graphs[j], **kw)
    for jobs in (1, 2):
        got = distance_matrix(graphs, jobs=jobs, **kw).d
        assert [v.hex() for v in got.ravel()] == [v.hex() for v in expected.ravel()]


def reference_pair_items(tree_ids: list[list[int]]):
    """Work items and each (pair, frame)'s item, built with a dict as the
    matrix did before its items came from one ``np.unique``."""
    n = len(tree_ids)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    items: dict[tuple[int, int], tuple[int, int, int]] = {}
    pair_items = [
        [items.setdefault((a, b) if a <= b else (b, a), (i, j, f))
         for f, (a, b) in enumerate(zip(tree_ids[i], tree_ids[j]))]
        for i, j in pairs
    ]
    return list(items.values()), pair_items


def random_graph_set(rng):
    """Stars, combs and polygons, some repeated or translated, in random order."""
    pool = [star(rng), comb(rng), convex_polygon(rng, 6), *graph_counterexample()]
    graphs = [pool[k] for k in rng.integers(0, len(pool), int(rng.integers(2, 13)))]
    graphs += [translated(g, 1.5, -0.5) for g in graphs[: int(rng.integers(0, 3))]]
    return [graphs[k] for k in rng.permutation(len(graphs))]


@pytest.mark.parametrize("n_frames", [1, 2, 10])
def test_matrix_work_list_matches_dict_reference(rng, monkeypatch, n_frames):
    calls = []
    real = analysis._frame_distance

    def recorded(trees, labels, tol, item):
        calls.append(item)
        return real(trees, labels, tol, item)

    monkeypatch.setattr(analysis, "_frame_distance", recorded)
    angles = frame_angles(n_frames)
    shared = reversed_ids = 0
    for graphs in [duplicate_heavy_set(rng)] + [random_graph_set(rng) for _ in range(6)]:
        ids: dict = {}
        tree_ids = [[ids.setdefault(t.canonical_key(), len(ids)) for t in frame_trees(g, angles)]
                    for g in graphs]
        work, pair_items = reference_pair_items(tree_ids)
        calls.clear()
        distance_matrix(graphs, n_frames=n_frames)
        assert calls == work  # same items, same order, same orientation
        got_work, item_of = analysis._pair_items(np.array(tree_ids))
        assert got_work == work
        assert [[got_work[k] for k in row] for row in item_of.tolist()] == pair_items
        shared += len(pair_items) * n_frames - len(work)
        reversed_ids += sum(tree_ids[i][f] > tree_ids[j][f] for i, j, f in work)
    assert shared > 0
    assert reversed_ids > 0 or n_frames == 1  # one frame numbers trees in graph order


def test_pair_items_match_dict_reference_on_random_ids():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, n_frames = int(rng.integers(2, 41)), int(rng.integers(1, 11))
        tree_ids = rng.integers(0, int(rng.integers(1, 3 * n)), (n, n_frames))
        work, pair_items = reference_pair_items(tree_ids.tolist())
        got_work, item_of = analysis._pair_items(tree_ids)
        assert got_work == work
        assert [[got_work[k] for k in row] for row in item_of.tolist()] == pair_items


@pytest.mark.parametrize("n_frames", [1, 10])
def test_matrix_compares_each_distinct_tree_pair_once(rng, monkeypatch, n_frames):
    graphs = duplicate_heavy_set(rng)
    calls = []
    real = analysis.branching_distance

    def counted(x, y, **kw):
        calls.append(frozenset((x.canonical_key(), y.canonical_key())))
        return real(x, y, **kw)

    monkeypatch.setattr(analysis, "branching_distance", counted)
    distance_matrix(graphs, n_frames=n_frames)
    keys = [[merge_tree_at(g, w).canonical_key() for w in frame_angles(n_frames)]
            for g in graphs]
    n = len(graphs)
    distinct = {frozenset((keys[i][f], keys[j][f]))
                for i in range(n) for j in range(i + 1, n) for f in range(n_frames)}
    assert len(calls) == len(set(calls))  # each distinct unordered pair once
    assert set(calls) == distinct
    assert len(calls) < n * (n - 1) // 2 * n_frames


@pytest.mark.parametrize("tol", [None, 1e-3], ids=["exact", "tolerance"])
def test_matrix_computes_a_reversed_tree_pair_once(rng, monkeypatch, tol):
    # (star, comb) at pair (0, 1) and (comb, star) at pair (1, 2) are one item
    s, c = star(rng), comb(rng)
    graphs = [s, c, s]
    expected = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            expected[i, j] = expected[j, i] = average_branching_distance(
                graphs[i], graphs[j], n_frames=1, tol=tol)
    calls = []
    real = analysis.branching_distance

    def counted(x, y, **kw):
        calls.append((x.canonical_key(), y.canonical_key()))
        return real(x, y, **kw)

    monkeypatch.setattr(analysis, "branching_distance", counted)
    got = distance_matrix(graphs, n_frames=1, tol=tol, labels=["s", "c", "t"])
    star_key, comb_key = (merge_tree_at(g, frame_angles(1)[0]).canonical_key() for g in (s, c))
    assert star_key != comb_key
    assert calls == [(star_key, comb_key), (star_key, star_key)]
    assert matrix_to_csv(got) == matrix_to_csv(DistanceMatrix(["s", "c", "t"], expected))


@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_refusal_names_first_order_of_a_reversed_pair(rng, jobs):
    # (zig, star) at pair (0, 1) fails first; (star, zig) at pair (1, 2) is the same item
    graphs = [zigzag_path(30), star(rng), zigzag_path(30)]
    with pytest.raises(ValueError, match="^zig vs s, frame 0: merge tree has 30 leaves"):
        distance_matrix(graphs, n_frames=2, labels=["zig", "s", "zag"], jobs=jobs)


def zigzag_path(minima: int) -> EmbeddedGraph:
    """Path whose minima rise one by one: its vertical merge tree is a caterpillar."""
    vertices = {}
    for k in range(minima):
        vertices[2 * k] = (2.0 * k, float(k))
        if k + 1 < minima:
            vertices[2 * k + 1] = (2.0 * k + 1.0, k + 1.5)
    return EmbeddedGraph(vertices, [(v, v + 1) for v in range(len(vertices) - 1)])


def test_matrix_refuses_deep_tree_with_error_line(rng):
    with pytest.raises(ValueError) as err:
        distance_matrix([star(rng), zigzag_path(1500)], n_frames=1, labels=["s", "zig"])
    assert str(err.value) == (
        "s vs zig, frame 0: merge tree has 1500 leaves; branching_distance is limited to 20"
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_refusal_names_first_failing_pair_and_frame(rng, jobs):
    graphs = [star(rng), zigzag_path(30), zigzag_path(25)]  # every zigzag tree is refused
    with pytest.raises(ValueError, match="^s vs zig, frame 0: merge tree has 30 leaves"):
        distance_matrix(graphs, n_frames=2, labels=["s", "zig", "zag"], jobs=jobs)


@pytest.mark.parametrize("jobs", [0, -3])
def test_matrix_rejects_jobs_below_one(jobs):
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        distance_matrix(list(graph_counterexample()), n_frames=1, jobs=jobs)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and chunksize,
    maps in-process."""

    started: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, items)


def pin_cpus(monkeypatch, n):
    """Make every CPU query of the process report ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.mark.parametrize("jobs, workers", [(2, [2]), (64, [3])])
def test_matrix_pool_size_capped_by_items(monkeypatch, jobs, workers):
    pin_cpus(monkeypatch, 64)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    graphs = list(graph_counterexample())  # 3 pairs of distinct trees at one frame
    out = distance_matrix(graphs, n_frames=1, jobs=jobs)
    assert RecordingPool.started == workers
    assert RecordingPool.chunks == [1]
    assert np.array_equal(out.d, distance_matrix(graphs, n_frames=1).d)


@pytest.mark.parametrize("jobs", [2, 3])
def test_matrix_pool_sends_about_four_chunks_per_worker(monkeypatch, jobs):
    graphs = shape_dataset(seed=0)[0][::2]  # 9 graphs: 36 pairs, many distinct trees
    calls = []
    real = analysis.branching_distance

    def counted(x, y, **kw):
        calls.append(1)
        return real(x, y, **kw)

    monkeypatch.setattr(analysis, "branching_distance", counted)
    serial = distance_matrix(graphs, n_frames=3)
    items = len(calls)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    pin_cpus(monkeypatch, 64)
    out = distance_matrix(graphs, n_frames=3, jobs=jobs)
    assert items > 4 * jobs
    assert RecordingPool.started == [jobs]
    assert RecordingPool.chunks == [math.ceil(items / (4 * jobs))]
    assert np.array_equal(out.d, serial.d)


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu_count"])
def test_matrix_pool_size_capped_by_cpus(monkeypatch, affinity):
    # every pool worker starts at once, so a huge --jobs must not fork huge numbers
    pin_cpus(monkeypatch, 4)
    if not affinity:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    graphs = shape_dataset(seed=0)[0][::2]  # 9 graphs: more distinct tree pairs than CPUs
    out = distance_matrix(graphs, n_frames=2, jobs=10**6)
    assert RecordingPool.started == [4]
    assert np.array_equal(out.d, distance_matrix(graphs, n_frames=2, jobs=1).d)


def _disjoint_union(g: EmbeddedGraph, h: EmbeddedGraph) -> EmbeddedGraph:
    off = max(g.vertices) + 1 - min(h.vertices)
    return EmbeddedGraph({**g.vertices, **{v + off: xy for v, xy in h.vertices.items()}},
                         g.edges + [(u + off, v + off) for u, v in h.edges])


def test_load_to_distance_builds_no_graph_view(rng, tmp_path, monkeypatch):
    # the arrays are the graph: loading, filtering and comparing graphs, and
    # cutting a disconnected one to its largest component, never builds the
    # id -> (x, y) dict or the edge list
    graphs = [star(rng), comb(rng), convex_polygon(rng, 6), star(rng),
              _disjoint_union(star(rng), translated(convex_polygon(rng, 5), 3.0, 0.0)),
              _disjoint_union(EmbeddedGraph({0: (9.0, 9.0)}, []), comb(rng))]
    assert [len(connected_components(g)) for g in graphs] == [1, 1, 1, 1, 2, 2]
    for fmt in ("json", "edgelist"):
        for i, g in enumerate(graphs):
            graph_io.write_graph(g, tmp_path / f"g{i}.{fmt}", fmt)
    expected = distance_matrix(graphs, n_frames=4).d.tobytes()
    abd = [repr(average_branching_distance(graphs[i], graphs[j], n_frames=4))
           for i, j in ((0, 1), (4, 5))]

    def refuse(self):
        raise AssertionError("view of an embedded graph built")

    for view in ("vertices", "edges"):
        monkeypatch.setattr(EmbeddedGraph, view, property(refuse))
    for fmt in ("json", "edgelist"):
        loaded = [graph_io.load_graph(tmp_path / f"g{i}.{fmt}", fmt) for i in range(len(graphs))]
        assert distance_matrix(loaded, n_frames=4).d.tobytes() == expected
        assert [repr(average_branching_distance(loaded[i], loaded[j], n_frames=4))
                for i, j in ((0, 1), (4, 5))] == abd


def test_matrix_connected_graphs_build_no_adjacency(rng, monkeypatch):
    graphs = [star(rng), comb(rng), convex_polygon(rng, 6)]
    expected = distance_matrix(graphs, n_frames=3).d

    def refuse(*args):
        raise AssertionError("adjacency built for a connected graph")

    monkeypatch.setattr(graph_io, "least_id_rows", refuse)
    fresh = [EmbeddedGraph(dict(g.vertices), list(g.edges)) for g in graphs]
    assert np.array_equal(distance_matrix(fresh, n_frames=3).d, expected)


def test_production_path_builds_no_dict_view(rng, monkeypatch):
    # direction filter, collapse and sweep work on the index arrays only;
    # the integer comb ties across edges at pi/2, so the collapse runs too
    tied = EmbeddedGraph({0: (0.0, 0.0), 1: (0.0, 2.0), 2: (1.0, 0.0), 3: (1.0, 2.0),
                          4: (2.0, -1.0), 5: (2.0, 1.0)},
                         [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)])
    graphs = [star(rng), comb(rng), convex_polygon(rng, 6), tied]
    expected = distance_matrix(graphs, n_frames=4).d.tobytes()
    frames = repr(per_frame_distances(graphs[0], tied, 4))

    def refuse(self):
        raise AssertionError("dict view of a scalar graph built")

    for view in ("values", "edges"):
        monkeypatch.setattr(ScalarGraph, view, property(refuse))
    fresh = [EmbeddedGraph(dict(g.vertices), list(g.edges)) for g in graphs]
    assert distance_matrix(fresh, n_frames=4).d.tobytes() == expected
    assert repr(per_frame_distances(fresh[0], fresh[3], 4)) == frames


def test_matrix_single_item_starts_no_pool(rng, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "started", [])
    polys = [convex_polygon(rng, k) for k in (5, 7, 9)]  # one trivial tree at one frame
    out = distance_matrix(polys, n_frames=1, jobs=4)
    assert RecordingPool.started == []
    assert np.array_equal(out.d, np.zeros((3, 3)))


def test_matrix_needs_two_graphs(rng):
    with pytest.raises(ValueError):
        distance_matrix([star(rng)])


def test_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        dm(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        dm(["a", "b"], [[1, 1], [1, 0]])
    with pytest.raises(ValueError, match="negative"):
        dm(["a", "b"], [[0, -1], [-1, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_rejects_non_finite_naming_labels(bad):
    rows = [[0, 1, 2], [1, 0, bad], [2, bad, 0]]
    with pytest.raises(ValueError, match=f"non-finite entry {bad} between 'b' and 'c'"):
        dm(["a", "b", "c"], rows)


# ---------------------------------------------------------------------------
# single linkage + cuts
# ---------------------------------------------------------------------------

def reference_single_linkage(dm: DistanceMatrix) -> Dendrogram:
    """Agglomerate by smallest inter-cluster (minimum-link) distance.

    Ties are broken by the lexicographically smallest (a, b) cluster-id
    pair, so dendrograms are reproducible across runs and platforms.
    """
    n = dm.n
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges: list[tuple[int, int, float, int]] = []
    next_id = n
    d = dm.d
    while len(members) > 1:
        best: tuple[float, int, int] | None = None
        ids = sorted(members)
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                link = min(d[p, q] for p in members[a] for q in members[b])
                if best is None or link < best[0]:
                    best = (link, a, b)
        link, a, b = best
        members[next_id] = members.pop(a) + members.pop(b)
        merges.append((a, b, float(link), len(members[next_id])))
        next_id += 1
    return Dendrogram(list(dm.labels), merges)


@pytest.mark.parametrize("kind", ["ternary", "uniform", "zero"])
def test_single_linkage_matches_reference(kind):
    rng = np.random.default_rng(["ternary", "uniform", "zero"].index(kind))
    for _ in range(70):
        n = int(rng.integers(1, 31))
        if kind == "ternary":
            m = rng.integers(0, 3, (n, n)).astype(float)
        elif kind == "uniform":
            m = rng.uniform(0.0, 5.0, (n, n))
        else:
            m = np.zeros((n, n))
        m = np.triu(m, 1)
        d = dm([f"x{i}" for i in range(n)], m + m.T)
        assert single_linkage(d).merges == reference_single_linkage(d).merges


def reference_argmin_linkage(dm: DistanceMatrix) -> Dendrogram:
    """Single linkage as it ran before whole-matrix argmins: one gather of
    the active clusters' upper triangle per merge."""
    n = dm.n
    n_ids = max(2 * n - 1, 0)
    link = np.full((n_ids, n_ids), np.inf)
    link[:n, :n] = dm.d
    active = list(range(n))
    sizes = [1] * n
    merges = []
    for c in range(n, 2 * n - 1):
        ids = np.array(active)
        rows, cols = np.triu_indices(len(ids), 1)
        best = int(np.argmin(link[ids[rows], ids[cols]]))
        a, b = int(ids[rows[best]]), int(ids[cols[best]])
        link[c] = link[:, c] = np.minimum(link[a], link[b])
        active = [x for x in active if x != a and x != b] + [c]
        sizes.append(sizes[a] + sizes[b])
        merges.append((a, b, float(link[a, b]), sizes[c]))
    return Dendrogram(list(dm.labels), merges)


def test_single_linkage_matches_triu_reference_at_scale():
    rng = np.random.default_rng(40)
    for t in range(40):
        n = 150 if t < 4 else int(rng.integers(31, 151))
        m = np.triu(rng.integers(0, 3, (n, n)).astype(float), 1)
        d = dm([f"x{i}" for i in range(n)], m + m.T)
        assert single_linkage(d).merges == reference_argmin_linkage(d).merges


def test_dendrogram_outputs_golden_tie_heavy():
    labels = ["a", "b b", "c&d", "<e>", "f", "g"]
    d = dm(labels, [
        [0, 1, 2, 1, 2, 2],
        [1, 0, 1, 2, 2, 1],
        [2, 1, 0, 1, 0, 2],
        [1, 2, 1, 0, 2, 2],
        [2, 2, 0, 2, 0, 1],
        [2, 1, 2, 2, 1, 0],
    ])
    dend = single_linkage(d)
    assert dend.merges == [(2, 4, 0.0, 2), (0, 1, 1.0, 2), (3, 6, 1.0, 3), (5, 7, 1.0, 3),
                           (8, 9, 1.0, 6)]
    assert dendrogram_to_newick(dend) == (
        "((_e_:1.0,(c_d:0.0,f:0.0):1.0):0.0,(g:1.0,(a:1.0,b_b:1.0):0.0):0.0);"
    )
    assert [cut_clusters(dend, k) for k in range(1, 7)] == [
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 0],
        [0, 0, 1, 1, 1, 2],
        [0, 0, 1, 2, 1, 3],
        [0, 1, 2, 3, 2, 4],
        [0, 1, 2, 3, 4, 5],
    ]
    svg = _dendrogram_svg(dend).encode()
    assert hashlib.sha256(svg).hexdigest() == (
        "91d57a854e461b11333670605b128d0399c0b428c80623d2a7d372881ec25636"
    )

    one = single_linkage(dm(["solo"], [[0]]))
    assert one.merges == []
    assert dendrogram_to_newick(one) == "solo;"
    assert _dendrogram_svg(one) == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="300" viewBox="0 0 80 300">\n'
        '<text x="40" y="274" font-size="9" text-anchor="middle">solo</text>\n</svg>\n'
    )

def test_single_linkage_two_points():
    dend = single_linkage(dm(["a", "b"], [[0, 1], [1, 0]]))
    assert dend.merges == [(0, 1, 1.0, 2)]


def test_single_linkage_three_point_trace():
    d = dm(["a", "b", "c"], [[0, 1, 5], [1, 0, 4], [5, 4, 0]])
    dend = single_linkage(d)
    assert [m[2] for m in dend.merges] == [1.0, 4.0]
    assert dend.merges[0][:2] == (0, 1)
    assert cut_clusters(dend, 2) == [0, 0, 1]


def test_single_linkage_all_zero():
    dend = single_linkage(dm(list("abc"), np.zeros((3, 3))))
    assert [m[2] for m in dend.merges] == [0.0, 0.0]


def test_single_linkage_heights_match_mst(rng):
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = rng.uniform(0.1, 5.0, (n, n))
        m = np.triu(m, 1)
        m = m + m.T
        d = dm([f"x{i}" for i in range(n)], m)
        dend = single_linkage(d)
        heights = sorted(step[2] for step in dend.merges)
        mst = minimum_spanning_tree(m).toarray()
        mst_weights = sorted(mst[mst > 0])
        assert heights == pytest.approx(mst_weights)


def test_cut_clusters_edges():
    dend = single_linkage(dm(["a", "b"], [[0, 2], [2, 0]]))
    assert cut_clusters(dend, 2) == [0, 1]
    assert cut_clusters(dend, 1) == [0, 0]
    with pytest.raises(ValueError):
        cut_clusters(dend, 3)
    with pytest.raises(ValueError):
        cut_clusters(dend, 0)


def test_cluster_purity():
    assert cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"]) == 1.0
    assert cluster_purity([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.5


# ---------------------------------------------------------------------------
# classical MDS
# ---------------------------------------------------------------------------

def test_mds_all_zero():
    emb = classical_mds(dm(list("abc"), np.zeros((3, 3))), k=2)
    assert np.allclose(emb.coords, 0.0)


def test_mds_collinear_points():
    # points 0, 1, 2 on a line
    d = dm(list("abc"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    emb = classical_mds(d, k=2)
    for i in range(3):
        for j in range(3):
            dist = np.linalg.norm(emb.coords[i] - emb.coords[j])
            assert dist == pytest.approx(d.d[i, j], abs=1e-9)


def test_mds_recovers_planar_configuration(rng):
    for _ in range(5):
        n = int(rng.integers(4, 9))
        pts = rng.uniform(-3, 3, (n, 2))
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        emb = classical_mds(dm([f"p{i}" for i in range(n)], d), k=2)
        # embedded pairwise distances reproduce the input
        dd = np.linalg.norm(emb.coords[:, None, :] - emb.coords[None, :, :], axis=2)
        assert np.allclose(dd, d, atol=1e-8)
        # and the configuration matches up to rigid motion
        centered = pts - pts.mean(axis=0)
        rot, _ = orthogonal_procrustes(emb.coords, centered)
        residual = np.linalg.norm(emb.coords @ rot - centered)
        assert residual < 1e-6


def test_mds_clamps_negative_eigenvalues():
    # a non-metric matrix (violates the triangle inequality badly)
    d = dm(list("abc"), [[0, 10, 1], [10, 0, 1], [1, 1, 0]])
    emb = classical_mds(d, k=2)
    assert emb.n_clamped >= 1
    assert np.all(np.isfinite(emb.coords))


def test_mds_column_centered_and_sign_fixed(rng):
    n = 6
    pts = rng.uniform(-2, 2, (n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    emb = classical_mds(dm([f"p{i}" for i in range(n)], d), k=2)
    assert np.allclose(emb.coords.mean(axis=0), 0.0, atol=1e-9)
    for col in range(2):
        mag = np.abs(emb.coords[:, col])
        nz = np.nonzero(mag > 1e-12 * mag.max())[0]
        if nz.size:
            assert emb.coords[nz[0], col] > 0


def test_mds_sign_fixing_follows_the_scale():
    # scaling by 2**k is exact, so the embedding scales by 2**k, signs included
    graphs, labels = shape_dataset(seed=0)
    d = distance_matrix(graphs, n_frames=10, labels=[f"{s}{i}" for i, s in enumerate(labels)])
    base = classical_mds(d, k=2).coords
    for k in (-40, -20, 20):
        scaled = classical_mds(dm(d.labels, np.ldexp(d.d, k)), k=2).coords
        np.testing.assert_allclose(scaled, np.ldexp(base, k), rtol=1e-12, atol=0)


def test_mds_k_too_large():
    with pytest.raises(ValueError):
        classical_mds(dm(["a", "b"], [[0, 1], [1, 0]]), k=3)


def test_mds_k_below_one():
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k} must be at least 1"):
            classical_mds(dm(["a", "b"], [[0, 1], [1, 0]]), k=k)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    d = dm(["alpha", "beta", "gamma"], [[0, 1.5, 2.25], [1.5, 0, 0.75], [2.25, 0.75, 0]])
    p = tmp_path / "m.csv"
    export(d, p, "csv")
    back = load_distance_csv(p)
    assert back.labels == d.labels
    assert np.array_equal(back.d, d.d)


@pytest.mark.parametrize("row, what", [("1.5,0", "2 values for 3 labels"),
                                       ("1.5,0,x", "could not convert string to float")])
def test_load_distance_csv_names_path_and_line(tmp_path, row, what):
    p = tmp_path / "m.csv"
    p.write_text(f"\na,b,c\n0,1.5,2\n{row}\n2,0,0\n")
    with pytest.raises(ValueError, match=f"m.csv, line 4: {what}"):
        load_distance_csv(p)


def test_newick_leaf_count(tmp_path):
    labels = [f"leaf{i}" for i in range(5)]
    rngm = np.random.default_rng(3)
    m = rngm.uniform(1, 2, (5, 5))
    m = np.triu(m, 1)
    m = m + m.T
    dend = single_linkage(dm(labels, m))
    p = tmp_path / "d.nwk"
    export(dend, p, "newick")
    text = p.read_text()
    assert text.endswith(";\n")
    for label in labels:
        assert label in text
    assert text.count(",") == 4  # n-1 internal commas for a binary dendrogram


def test_newick_single_leaf():
    dend = Dendrogram(["only"], [])
    assert dendrogram_to_newick(dend) == "only;"


def test_svg_parses_as_xml(tmp_path, rng):
    labels = [f"L{i}" for i in range(4)]
    m = rng.uniform(1, 2, (4, 4))
    m = np.triu(m, 1)
    m = m + m.T
    d = dm(labels, m)
    dend = single_linkage(d)
    emb = classical_mds(d, k=2)
    for artifact, name in [(dend, "dend.svg"), (emb, "emb.svg")]:
        p = tmp_path / name
        export(artifact, p, "svg")
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")


def test_embedding_csv(tmp_path):
    emb = classical_mds(dm(["a", "b"], [[0, 2], [2, 0]]), k=2)
    p = tmp_path / "e.csv"
    export(emb, p, "csv")
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "label,x0,x1"
    assert len(lines) == 3
    assert embedding_to_csv(emb).startswith("label,")


def test_export_rejects_bad_combos(tmp_path):
    d = dm(["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        export(d, tmp_path / "x", "svg")
    dend = single_linkage(d)
    with pytest.raises(ValueError):
        export(dend, tmp_path / "x", "csv")
    with pytest.raises(TypeError):
        export(42, tmp_path / "x", "csv")


def _triangle_checks(d: np.ndarray) -> tuple[int, list]:
    """Checks d[a, c] <= d[a, b] + d[b, c] over a < c and b apart from both:
    each triple is checked once per side as the long one.  Returns the
    number of checks and the failures as (excess, a, b, c), worst first."""
    n = len(d)
    a, b, c = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    checked = (a < c) & (b != a) & (b != c)
    excess = d[a, c] - (d[a, b] + d[b, c])
    fail = checked & (excess > 0)
    return int(checked.sum()), sorted(zip(excess[fail].tolist(), a[fail].tolist(),
                                          b[fail].tolist(), c[fail].tolist()), reverse=True)


@pytest.mark.parametrize("n_frames, failures, worst", [
    (10, 50, ((11, 6, 14), ("comb", "comb", "zigzag"),
              ("0x1.5e3884b689ac2p+0", "0x1.bf7ffbac6b054p-4", "0x1.fd6ee981916dcp-1"))),
    (40, 1, ((2, 1, 3), ("star", "star", "star"),
             ("0x1.101321f6715d6p-1", "0x1.0c95596515424p-3", "0x1.4a8768bc552c8p-2"))),
])
def test_shape_dataset_breaks_the_triangle_inequality(n_frames, failures, worst):
    # the paper's non-metric claim on data, not only on fixture triples: the
    # count of failed checks and the worst one, its long side d[a, c] and its
    # two short sides d[a, b] and d[b, c], recorded with the per-angle sweep
    graphs, labels = shape_dataset(seed=0)
    angles = frame_angles(n_frames)
    for g in graphs:  # the stacked sweep gives the one-frame pipeline's trees to the bit
        for omega, mt in zip(angles, frame_trees(g, angles), strict=True):
            one = merge_tree_at(g, omega)
            assert (mt.ids, [v.hex() for v in mt.vals], mt.up) == (
                one.ids, [v.hex() for v in one.vals], one.up)
    d = distance_matrix(graphs, n_frames=n_frames).d
    checks, failed = _triangle_checks(d)
    assert (checks, len(failed)) == (2448, failures)
    _, a, b, c = failed[0]
    assert ((a, b, c), (labels[a], labels[b], labels[c]),
            (d[a, c].hex(), d[a, b].hex(), d[b, c].hex())) == worst
    assert np.count_nonzero(d) == len(d) * (len(d) - 1)  # no two shapes at distance 0
