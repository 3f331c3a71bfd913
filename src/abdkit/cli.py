"""Command-line front end.

Subcommands::

    tree     merge tree of a graph for one direction (JSON to stdout/--out)
    dist     branching distance between two merge-tree JSON files
    abd      average branching distance between two graphs
    matrix   pairwise ABD matrix over many graphs (CSV)
    cluster  single-linkage dendrogram of a matrix CSV (newick/SVG)
    mds      classical MDS embedding of a matrix CSV (CSV/SVG)
    verify   replay every counterexample and property suite
    gen      write synthetic shape datasets

Identical invocations with identical inputs and seed produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import analysis, synth
from .abd import average_branching_distance, frame_angles, merge_tree_at, per_frame_distances
from .branching import branching_distance
from .graph_io import GraphFormatError, largest_component, load_graph, write_graph
from .merge_tree import DisconnectedGraphError, load_tree, tree_to_dict

ENGINE = "min-max recursion"  # label printed by dist for its one engine


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_tree(args) -> int:
    g = load_graph(args.graph, args.format)
    try:
        mt = merge_tree_at(g, args.angle, args.normalize)
    except DisconnectedGraphError:
        print("warning: graph is disconnected; using the largest component", file=sys.stderr)
        mt = merge_tree_at(largest_component(g), args.angle, args.normalize)
    _write_out(json.dumps(tree_to_dict(mt), indent=1) + "\n", args.out)
    return 0


def cmd_dist(args) -> int:
    a = load_tree(args.tree_a)
    b = load_tree(args.tree_b)
    value = branching_distance(a, b, tol=args.tol)
    mode = "exact" if args.tol is None else "tolerance"
    print(f"engine: {ENGINE} ({mode} mode)", file=sys.stderr)
    _write_out(f"{value!r}\n", args.out)
    return 0


def cmd_abd(args) -> int:
    g = load_graph(args.graph_g, args.format)
    h = load_graph(args.graph_h, args.format)
    if args.per_frame:
        dists = per_frame_distances(g, h, args.frames, args.tol)
        lines = ["frame,angle,distance"]
        for i, (w, d) in enumerate(zip(frame_angles(args.frames), dists)):
            lines.append(f"{i},{w!r},{d!r}")
        _write_out("\n".join(lines) + "\n", args.out)
        return 0
    value = average_branching_distance(g, h, n_frames=args.frames, avg=args.avg, tol=args.tol)
    _write_out(f"{value!r}\n", args.out)
    return 0


def cmd_matrix(args) -> int:
    graphs = [load_graph(p, args.format) for p in args.graphs]
    labels = [Path(p).stem for p in args.graphs]
    dm = analysis.distance_matrix(
        graphs, n_frames=args.frames, avg=args.avg, tol=args.tol, labels=labels, jobs=args.jobs
    )
    _write_out(analysis.matrix_to_csv(dm), args.out)
    return 0


def cmd_cluster(args) -> int:
    dm = analysis.load_distance_csv(args.matrix)
    dend = analysis.single_linkage(dm)
    if args.cut is not None:
        assignment = analysis.cut_clusters(dend, args.cut)
        for label, c in zip(dend.labels, assignment):
            print(f"{label},{c}")
    _write_out(analysis.dendrogram_to_newick(dend) + "\n", args.out)
    if args.svg:
        analysis.export(dend, args.svg, "svg")
    return 0


def cmd_mds(args) -> int:
    dm = analysis.load_distance_csv(args.matrix)
    emb = analysis.classical_mds(dm, k=args.dims)
    print(
        f"clamped eigenvalues: {emb.n_clamped} of {len(emb.eigenvalues)}",
        file=sys.stderr,
    )
    _write_out(analysis.embedding_to_csv(emb), args.out)
    if args.svg:
        analysis.export(emb, args.svg, "svg")
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the only command that loads the oracles

    report = verify.run_all(trials=args.trials, seed=args.seed, fixtures_dir=args.fixtures_dir)
    print("\n".join(report.lines()))
    return 0 if report.passed else 1


def cmd_gen(args) -> int:
    classes = args.classes.split(",")
    for name in classes:  # every argument checked before any file is written
        if name not in synth.SHAPE_CLASSES:
            raise ValueError(f"unknown class {name!r}; choose from {synth.SHAPE_CLASSES}")
    if args.per_class < 1:
        raise ValueError(f"--per-class must be >= 1, got {args.per_class}")
    graphs, labels = synth.shape_dataset(tuple(classes), args.per_class, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for k, (g, name) in enumerate(zip(graphs, labels)):
        fname = f"{name}_{k % args.per_class:02d}.{'json' if args.format == 'json' else 'txt'}"
        write_graph(g, outdir / fname, args.format)
        rows.append(f"{fname},{name}")
    (outdir / "labels.csv").write_text("file,class\n" + "\n".join(rows) + "\n")
    print(f"wrote {len(rows)} graphs to {outdir}")
    return 0


@functools.cache  # one parser per process: building it costs milliseconds a call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abd-kit",
        description="Merge trees, branching distance, and rotation-averaged "
        "branching distance for 2-D embedded graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out_opt = argparse.ArgumentParser(add_help=False)
    out_opt.add_argument("--out", default=None, help="write output to this path instead of stdout")

    graph_opts = argparse.ArgumentParser(add_help=False, parents=[out_opt])
    graph_opts.add_argument("--format", choices=("json", "edgelist"), default="json",
                            help="graph file format")

    tol_opt = argparse.ArgumentParser(add_help=False)
    tol_opt.add_argument("--tol", type=float, default=None,
                         help="bisection width; selects tolerance mode (default: exact)")

    abd_opts = argparse.ArgumentParser(add_help=False)
    abd_opts.add_argument("--frames", type=int, default=10,
                          help="number of evenly spaced rotation frames")
    abd_opts.add_argument("--avg", choices=("median", "mean"), default="median",
                          help="per-frame aggregation")

    p = sub.add_parser("tree", parents=[graph_opts], help="merge tree for one direction")
    p.add_argument("graph")
    p.add_argument("--angle", type=float, default=math.pi / 2, help="direction in radians")
    p.add_argument("--normalize", choices=("none", "median", "mean"), default="none",
                   help="shift node values so their median/mean is 0")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("dist", parents=[out_opt, tol_opt],
                       help="branching distance between two merge-tree JSON files")
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("abd", parents=[graph_opts, tol_opt, abd_opts],
                       help="average branching distance between two graphs")
    p.add_argument("graph_g")
    p.add_argument("graph_h")
    p.add_argument("--per-frame", action="store_true",
                   help="emit the individual per-frame distances as CSV")
    p.set_defaults(func=cmd_abd)

    p = sub.add_parser("matrix", parents=[graph_opts, tol_opt, abd_opts],
                       help="pairwise ABD matrix as CSV")
    p.add_argument("graphs", nargs="+")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for pair tasks, capped at the available CPUs")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("cluster", help="single-linkage dendrogram of a matrix CSV")
    p.add_argument("matrix")
    p.add_argument("--out", default=None, help="write newick here instead of stdout")
    p.add_argument("--svg", default=None, help="also write an SVG dendrogram")
    p.add_argument("--cut", type=int, default=None, help="print cluster assignment at k clusters")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("mds", help="classical MDS embedding of a matrix CSV")
    p.add_argument("matrix")
    p.add_argument("--out", default=None, help="write coordinates CSV here instead of stdout")
    p.add_argument("--svg", default=None, help="also write an SVG scatter plot")
    p.add_argument("--dims", type=int, default=2, help="embedding dimension")
    p.set_defaults(func=cmd_mds)

    p = sub.add_parser("verify", help="replay counterexamples and property suites")
    p.add_argument("--trials", type=int, default=200,
                   help="fuzz count for randomized suites, at least 4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixtures-dir", default=None,
                   help="load counterexample fixtures from this directory instead of the package")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate synthetic shape datasets")
    p.add_argument("--classes", default="star,comb,zigzag",
                   help="comma-separated class names "
                        f"(available: {','.join(synth.SHAPE_CLASSES)})")
    p.add_argument("--per-class", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
