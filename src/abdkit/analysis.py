"""Pairwise ABD matrices, single-linkage clustering, classical MDS, exports.

The distance matrix is symmetric and nonnegative with a zero diagonal but
is *not* assumed to satisfy the triangle inequality -- the underlying
distance provably does not.  Classical (Torgerson) MDS therefore clamps
negative eigenvalues of the double-centered Gram matrix at zero and
reports how many were clamped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .abd import frame_angles, frame_trees
from .branching import branching_distance
from .graph_io import EmbeddedGraph
from .merge_tree import median_or_mean

# Not called here: the benchmark's tracer patches these two names in this
# module.  The matrix builds its trees through abd.frame_trees, which calls
# them in abd, where the tracer patches them too.
from .abd import merge_tree_at  # noqa: F401
from .graph_io import largest_component  # noqa: F401

__all__ = [
    "DistanceMatrix",
    "Dendrogram",
    "Embedding2D",
    "distance_matrix",
    "single_linkage",
    "cut_clusters",
    "cluster_purity",
    "classical_mds",
    "export",
    "load_distance_csv",
    "matrix_to_csv",
    "dendrogram_to_newick",
    "embedding_to_csv",
]


@dataclass
class DistanceMatrix:
    labels: list[str]
    d: np.ndarray

    def __post_init__(self) -> None:
        self.d = np.asarray(self.d, dtype=float)
        n = len(self.labels)
        if self.d.shape != (n, n):
            raise ValueError(f"matrix shape {self.d.shape} does not match {n} labels")
        if not np.isfinite(self.d).all():
            i, j = np.argwhere(~np.isfinite(self.d))[0]
            a, b = self.labels[i], self.labels[j]
            raise ValueError(f"non-finite entry {self.d[i, j]} between {a!r} and {b!r}")
        if not np.allclose(self.d, self.d.T, atol=0.0, rtol=0.0, equal_nan=False):
            raise ValueError("matrix is not symmetric")
        if np.any(np.diag(self.d) != 0.0):
            raise ValueError("diagonal is not zero")
        if np.any(self.d < 0.0):
            raise ValueError("negative entries")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class Dendrogram:
    """Single-linkage merge steps: (cluster-a, cluster-b, height, new size).

    Original items are clusters ``0..n-1``; step ``t`` creates cluster
    ``n + t``.  Heights are non-decreasing.
    """

    labels: list[str]
    merges: list[tuple[int, int, float, int]]

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class Embedding2D:
    labels: list[str]
    coords: np.ndarray
    eigenvalues: np.ndarray
    n_clamped: int = 0


def _frame_distance(trees, labels, tol, item: tuple[int, int, int]) -> float:
    """Branching distance of graphs ``i`` and ``j`` in frame ``f``; errors name them."""
    i, j, f = item
    try:
        return branching_distance(trees[i][f], trees[j][f], tol=tol)
    except ValueError as exc:
        raise ValueError(f"{labels[i]} vs {labels[j]}, frame {f}: {exc}") from exc


_worker_args: tuple = ()  # _frame_distance's leading arguments, set once in each pool worker


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker_frame_distance(item: tuple[int, int, int]) -> float:
    return _frame_distance(*_worker_args, item)


def distance_matrix(
    graphs: list[EmbeddedGraph],
    n_frames: int = 10,
    avg: str = "median",
    tol: float | None = None,
    labels: list[str] | None = None,
    jobs: int = 1,
) -> DistanceMatrix:
    """Pairwise ABD matrix; each merge tree is built once per (graph, angle).

    Trees come from :func:`abd.frame_trees`, so each graph is indexed once
    and reduced to its largest component only if its first sweep finds it
    disconnected.  Equal trees (same values and shape, whatever their node
    ids) share one comparison: each distinct ordered pair of trees is one
    work item, computed once on the first (pair, frame) that produces it.
    ``jobs`` > 1 runs the items in a process pool of at most
    ``min(jobs, items)`` workers, each sent every tree once and then item
    indices in about four chunks per worker.
    Per-frame values are sorted before aggregation, so the result does not
    depend on scheduling.  Items run in the order pairs, then frames, first
    met, so a refusal names the first failing pair and frame.
    """
    if len(graphs) < 2:
        raise ValueError("need at least 2 graphs")
    if labels is None:
        labels = [f"g{i}" for i in range(len(graphs))]
    if len(labels) != len(graphs):
        raise ValueError("labels/graphs length mismatch")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    angles = frame_angles(n_frames)
    trees = [frame_trees(g, angles) for g in graphs]
    ids: dict = {}  # canonical key -> small id, shared by all frames
    tree_ids = [[ids.setdefault(t.canonical_key(), len(ids)) for t in row] for row in trees]
    n = len(graphs)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    items: dict[tuple[int, int], tuple[int, int, int]] = {}  # (id_x, id_y) -> first (i, j, f)
    pair_items = [
        [items.setdefault((tree_ids[i][f], tree_ids[j][f]), (i, j, f)) for f in range(n_frames)]
        for i, j in pairs
    ]
    args, work = (trees, labels, tol), list(items.values())
    workers = min(jobs, len(work))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=args) as pool:
            chunk = -(-len(work) // (4 * workers))  # about four chunks per worker
            values = dict(zip(work, pool.map(_worker_frame_distance, work, chunksize=chunk)))
    else:
        values = {item: _frame_distance(*args, item) for item in work}
    out = np.zeros((n, n))
    for (i, j), row in zip(pairs, pair_items):
        out[i, j] = out[j, i] = median_or_mean(sorted(values[item] for item in row), avg, "avg")
    return DistanceMatrix(labels, out)


def single_linkage(dm: DistanceMatrix) -> Dendrogram:
    """Agglomerate by smallest inter-cluster (minimum-link) distance.

    Ties are broken by the lexicographically smallest (a, b) cluster-id
    pair, so dendrograms are reproducible across runs and platforms.  The
    link matrix is indexed by cluster id; a merged cluster's row is the
    elementwise minimum of its parts' rows (the Lance-Williams update for
    single linkage), so each merge is one vectorised pass over O(n^2) memory.
    """
    n = dm.n
    n_ids = max(2 * n - 1, 0)  # one row and column per cluster id
    link = np.full((n_ids, n_ids), np.inf)
    link[:n, :n] = dm.d
    active = list(range(n))  # ascending: a new cluster id is always the largest
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []
    for c in range(n, 2 * n - 1):
        ids = np.array(active)
        rows, cols = np.triu_indices(len(ids), 1)  # row-major: first argmin = smallest (a, b)
        best = int(np.argmin(link[ids[rows], ids[cols]]))
        a, b = int(ids[rows[best]]), int(ids[cols[best]])
        link[c] = link[:, c] = np.minimum(link[a], link[b])
        active = [x for x in active if x != a and x != b] + [c]
        sizes.append(sizes[a] + sizes[b])
        merges.append((a, b, float(link[a, b]), sizes[c]))
    return Dendrogram(list(dm.labels), merges)


def _replay(dend: Dendrogram, leaf, join, steps: int | None = None) -> list:
    """Fold the first ``steps`` merges (all by default) over the leaves.

    Item ``i`` starts as ``leaf(i)``; merge ``(a, b, h)`` replaces the values
    of clusters ``a`` and ``b`` by ``join(value_a, value_b, h)``.  Returns the
    values of the clusters left unmerged.
    """
    nodes = {i: leaf(i) for i in range(dend.n)}
    for c, (a, b, h, _) in enumerate(dend.merges[:steps], start=dend.n):
        nodes[c] = join(nodes.pop(a), nodes.pop(b), h)
    return list(nodes.values())


def cut_clusters(dend: Dendrogram, k: int) -> list[int]:
    """Cluster index per item after undoing the last k-1 merges.

    Clusters are numbered 0..k-1 ordered by their smallest member index.
    """
    n = dend.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    groups = sorted(_replay(dend, lambda i: [i], lambda a, b, _: a + b, n - k), key=min)
    cluster = {item: idx for idx, group in enumerate(groups) for item in group}
    return [cluster[i] for i in range(n)]


def cluster_purity(assignment: list[int], truth: list[str]) -> float:
    """Fraction of items in their cluster's majority class."""
    if len(assignment) != len(truth):
        raise ValueError("length mismatch")
    total = 0
    for c in set(assignment):
        counts: dict[str, int] = {}
        for a, t in zip(assignment, truth):
            if a == c:
                counts[t] = counts.get(t, 0) + 1
        total += max(counts.values())
    return total / len(truth)


def classical_mds(dm: DistanceMatrix, k: int = 2) -> Embedding2D:
    """Torgerson MDS: double-center the squared distances, eigendecompose.

    Negative eigenvalues (the matrix is non-metric, so they do occur) are
    clamped at zero and counted.  Each output axis is sign-fixed so its
    first nonzero coordinate is positive.
    """
    n = dm.n
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dm.d**2) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    n_clamped = int(np.sum(evals < 0.0))
    clamped = np.clip(evals, 0.0, None)
    coords = evecs[:, :k] * np.sqrt(clamped[:k])
    for col in range(coords.shape[1]):
        nz = np.nonzero(np.abs(coords[:, col]) > 1e-12)[0]
        if nz.size and coords[nz[0], col] < 0:
            coords[:, col] = -coords[:, col]
    return Embedding2D(list(dm.labels), coords, evals, n_clamped)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export(artifact, path: str | Path, kind: str) -> None:
    """Write an analysis artifact: matrices to csv, dendrograms to newick or
    svg, embeddings to csv or svg."""
    path = Path(path)
    if isinstance(artifact, DistanceMatrix):
        if kind != "csv":
            raise ValueError("distance matrices export as csv only")
        path.write_text(matrix_to_csv(artifact))
    elif isinstance(artifact, Dendrogram):
        if kind == "newick":
            path.write_text(dendrogram_to_newick(artifact) + "\n")
        elif kind == "svg":
            path.write_text(_dendrogram_svg(artifact))
        else:
            raise ValueError("dendrograms export as newick or svg")
    elif isinstance(artifact, Embedding2D):
        if kind == "csv":
            path.write_text(embedding_to_csv(artifact))
        elif kind == "svg":
            path.write_text(_scatter_svg(artifact))
        else:
            raise ValueError("embeddings export as csv or svg")
    else:
        raise TypeError(f"cannot export {type(artifact).__name__}")


def matrix_to_csv(dm: DistanceMatrix) -> str:
    lines = [",".join(dm.labels)]
    for row in dm.d:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_distance_csv(path: str | Path) -> DistanceMatrix:
    """Read a matrix CSV; a malformed row is reported with its 1-based line number."""
    text = Path(path).read_text()
    skipped = text.count("\n", 0, len(text) - len(text.lstrip()))  # leading blank lines
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    labels = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=skipped + 2):
        try:
            row = [float(x) for x in line.split(",")]
        except ValueError as exc:
            raise ValueError(f"{path}, line {lineno}: {exc}") from None
        if len(row) != len(labels):
            raise ValueError(f"{path}, line {lineno}: {len(row)} values for {len(labels)} labels")
        rows.append(row)
    return DistanceMatrix(labels, np.array(rows))


def _newick_name(label: str) -> str:
    out = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
    return out or "_"


def dendrogram_to_newick(dend: Dendrogram) -> str:
    """Newick with branch lengths; leaf-to-parent length = merge height."""

    def join(a: tuple[str, float], b: tuple[str, float], h: float) -> tuple[str, float]:
        return f"({a[0]}:{h - a[1]!r},{b[0]}:{h - b[1]!r})", h

    ((text, _),) = _replay(dend, lambda i: (_newick_name(dend.labels[i]), 0.0), join)
    return text + ";"


def _svg_header(width: float, height: float) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.6g}" '
        f'height="{height:.6g}" viewBox="0 0 {width:.6g} {height:.6g}">\n'
    )


def _dendrogram_svg(dend: Dendrogram) -> str:
    (order,) = _replay(dend, lambda i: [i], lambda a, b, _: a + b)
    xpos = {leaf: 40.0 + 30.0 * i for i, leaf in enumerate(order)}
    max_h = max((m[2] for m in dend.merges), default=1.0) or 1.0
    plot_h = 240.0

    def ypix(h: float) -> float:
        return 20.0 + plot_h * (1.0 - h / max_h)

    parts = []

    def join(a: tuple[float, float], b: tuple[float, float], h: float) -> tuple[float, float]:
        (xa, ha), (xb, hb) = a, b
        ya, yb, ym = ypix(ha), ypix(hb), ypix(h)
        parts.append(
            f'<path d="M {xa:.6g} {ya:.6g} V {ym:.6g} H {xb:.6g} V {yb:.6g}" '
            'fill="none" stroke="black"/>'
        )
        return (xa + xb) / 2.0, h

    _replay(dend, lambda i: (xpos[i], 0.0), join)
    for i, leaf in enumerate(order):
        x = 40.0 + 30.0 * i
        parts.append(
            f'<text x="{x:.6g}" y="{20.0 + plot_h + 14.0:.6g}" font-size="9" '
            f'text-anchor="middle">{escape(dend.labels[leaf])}</text>'
        )
    width = 80.0 + 30.0 * (len(order) - 1)
    return _svg_header(width, plot_h + 60.0) + "\n".join(parts) + "\n</svg>\n"


def embedding_to_csv(emb: Embedding2D) -> str:
    k = emb.coords.shape[1]
    header = "label," + ",".join(f"x{i}" for i in range(k))
    lines = [header]
    for label, row in zip(emb.labels, emb.coords):
        lines.append(label + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _scatter_svg(emb: Embedding2D) -> str:
    pts = emb.coords[:, :2] if emb.coords.shape[1] >= 2 else np.column_stack(
        [emb.coords[:, 0], np.zeros(len(emb.labels))]
    )
    span = max(float(np.abs(pts).max()), 1e-9)
    size = 320.0
    parts = []
    for label, (x, y) in zip(emb.labels, pts):
        px = size / 2.0 + (x / span) * (size / 2.0 - 30.0)
        py = size / 2.0 - (y / span) * (size / 2.0 - 30.0)
        parts.append(f'<circle cx="{px:.6g}" cy="{py:.6g}" r="3" fill="steelblue"/>')
        parts.append(
            f'<text x="{px + 5.0:.6g}" y="{py - 5.0:.6g}" font-size="9">{escape(label)}</text>'
        )
    return _svg_header(size, size) + "\n".join(parts) + "\n</svg>\n"
