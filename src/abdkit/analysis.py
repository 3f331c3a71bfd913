"""Pairwise ABD matrices, single-linkage clustering, classical MDS, exports.

The distance matrix is symmetric and nonnegative with a zero diagonal but
is *not* assumed to satisfy the triangle inequality -- the underlying
distance provably does not.  Classical (Torgerson) MDS therefore clamps
negative eigenvalues of the double-centered Gram matrix at zero and
reports how many were clamped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .abd import frame_angles, frame_trees
from .branching import branching_distance
from .graph_io import EmbeddedGraph
from .merge_tree import median_or_mean

# Not called here: they keep the benchmark tracer's ("analysis", "merge_tree_at")
# and ("analysis", "largest_component") patch points resolving.  The matrix
# builds its trees through abd.frame_trees.  ROADMAP item 1 removes both.
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


def _check_labels(labels: list[str]) -> None:
    """Reject a label that a matrix CSV header cannot hold."""
    for label in labels:
        if "," in label or "".join(label.splitlines()) != label:  # splitlines drops line breaks
            raise ValueError(f"label {label!r} holds a comma or a line break, "
                             "which a matrix CSV cannot hold")


@dataclass
class DistanceMatrix:
    labels: list[str]
    d: np.ndarray

    def __post_init__(self) -> None:
        _check_labels(self.labels)
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


def _available_cpus() -> int:
    """CPUs this process may run on; every pool worker starts at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pair_items(tree_ids: np.ndarray) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Work items of a matrix and, per pair and frame, the item it reads.

    ``tree_ids`` is the (graphs, frames) array of tree ids.  Pairs ``i < j``
    run in row-major order, then frames.  Each distinct unordered pair of
    tree ids is one item, given as the first ``(i, j, f)`` that produces it
    in either order; items are listed in the order first met.  The second
    result maps each (pair, frame) to its item's position in that list.
    """
    n, n_frames = tree_ids.shape
    iu, ju = np.triu_indices(n, 1)  # row-major
    a, b = tree_ids[iu], tree_ids[ju]
    top = int(tree_ids.max()) + 1  # at most graphs x frames, so top**2 fits in int64
    keys = (np.minimum(a, b) * top + np.maximum(a, b)).ravel()  # (pair, frame) row-major
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct keys by first occurrence
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    pair, frame = np.divmod(first[order], n_frames)
    work = list(zip(iu[pair].tolist(), ju[pair].tolist(), frame.tolist()))
    return work, rank[inverse].reshape(len(iu), n_frames)


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
    ids) get one id, shared by all frames.  One ``np.unique`` over the
    (pair, frame) keys of unordered id pairs gives the work items: each
    distinct unordered pair of trees is computed once, on the first (pair,
    frame) that produces it in either order, since d_B is symmetric to the
    bit.  Items run in the order first met, so a refusal names the first
    failing pair and frame.
    ``jobs`` > 1 runs the items in a process pool of at most
    ``min(jobs, items, available CPUs)`` workers, each sent every tree once
    and then item indices in about four chunks per worker.
    The item values are gathered into a (pairs, frames) array in frame
    order, and one :func:`median_or_mean` call aggregates every row; it
    sorts each row first, so the result does not depend on scheduling.
    """
    if len(graphs) < 2:
        raise ValueError("need at least 2 graphs")
    if labels is None:
        labels = [f"g{i}" for i in range(len(graphs))]
    if len(labels) != len(graphs):
        raise ValueError("labels/graphs length mismatch")
    _check_labels(labels)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    angles = frame_angles(n_frames)
    trees = [frame_trees(g, angles) for g in graphs]
    ids: dict = {}  # canonical key -> small id, shared by all frames
    tree_ids = np.array([[ids.setdefault(t.canonical_key(), len(ids)) for t in row]
                         for row in trees])
    work, item_of = _pair_items(tree_ids)
    args = (trees, labels, tol)
    workers = min(jobs, len(work), _available_cpus())
    if workers > 1:
        # imported here, as only a pool needs it: it adds about 13 ms to every start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=args) as pool:
            chunk = -(-len(work) // (4 * workers))  # about four chunks per worker
            values = list(pool.map(_worker_frame_distance, work, chunksize=chunk))
    else:
        values = [_frame_distance(*args, item) for item in work]
    per_pair = np.array(values)[item_of]
    n = len(graphs)
    iu, ju = np.triu_indices(n, 1)
    out = np.zeros((n, n))
    out[iu, ju] = out[ju, iu] = median_or_mean(per_pair, avg, "avg")
    return DistanceMatrix(labels, out)


def single_linkage(dm: DistanceMatrix) -> Dendrogram:
    """Agglomerate by smallest inter-cluster (minimum-link) distance.

    Ties are broken by the lexicographically smallest (a, b) cluster-id
    pair, so dendrograms are reproducible across runs and platforms.  The
    link matrix is indexed by cluster id, with inf on its diagonal and in
    the rows and columns of merged or not yet created clusters; a new
    cluster's row is the elementwise minimum of its parts' rows (the
    Lance-Williams update for single linkage).  Each merge is the first
    row-major ``argmin`` of the whole matrix: it is symmetric, so that
    entry is the lexicographically smallest (a, b) among the minima.
    """
    n = dm.n
    n_ids = max(2 * n - 1, 0)  # one row and column per cluster id
    link = np.full((n_ids, n_ids), np.inf)
    link[:n, :n] = dm.d
    np.fill_diagonal(link, np.inf)
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []
    for c in range(n, 2 * n - 1):
        a, b = divmod(int(np.argmin(link)), n_ids)
        height = float(link[a, b])
        link[c] = link[:, c] = np.minimum(link[a], link[b])
        link[[a, b]] = link[:, [a, b]] = np.inf
        sizes.append(sizes[a] + sizes[b])
        merges.append((a, b, height, sizes[c]))
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
    first coordinate above 1e-12 of its largest magnitude is positive, so
    scaling the matrix by a power of two scales the embedding exactly.
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
        mag = np.abs(coords[:, col])
        nz = np.nonzero(mag > 1e-12 * mag.max())[0]
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
    lines += [",".join(map(repr, row)) for row in dm.d.tolist()]
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
            row = list(map(float, line.split(",")))
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


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` as entities.

    What ``xml.sax.saxutils.escape`` does, whose import loads
    ``urllib.request`` and ``ssl``, about 35 ms of every CLI start.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
            f'text-anchor="middle">{_escape(dend.labels[leaf])}</text>'
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
            f'<text x="{px + 5.0:.6g}" y="{py - 5.0:.6g}" font-size="9">{_escape(label)}</text>'
        )
    return _svg_header(size, size) + "\n".join(parts) + "\n</svg>\n"
