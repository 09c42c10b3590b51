"""Command-line front end: stats, truss, decompose, minimize, bench.

Reads whitespace-separated edge lists ('#' comments allowed), reports in
original vertex labels, and emits machine-readable JSON/CSV with timing
fields kept separate so golden-file comparisons can strip them.

Exit codes: 0 success or warning, 2 usage error, 3 I/O or parse error,
4 exact-solver enumeration cap exceeded, 5 out of memory, 130 interrupted
(Ctrl-C).  The last three print a one-line message, not a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional

from .errors import EdgeListParseError, EnumerationCapExceeded
from .graph import Graph, load_edge_list
from .groups import build_truss_group_index, find_support_groups
from .minimize import ALGORITHMS, MinimizationReport, SolverConfig, solve
from .truss import k_truss, truss_decompose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAP = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

BENCH_HEADER = "k,b,algorithm,rep,followers_total,time_ms,candidates_evaluated"


def _positive_int(minimum: int, name: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}")
        return value
    return parse


def _int_list(minimum: int, name: str):
    def parse(text: str) -> list[int]:
        out = []
        for tok in text.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                value = int(tok)
            except ValueError:
                raise argparse.ArgumentTypeError(f"{name} must be comma-separated integers")
            if value < minimum:
                raise argparse.ArgumentTypeError(f"every {name} must be >= {minimum}")
            out.append(value)
        if not out:
            raise argparse.ArgumentTypeError(f"{name} list is empty")
        return out
    return parse


def _algorithm_list(text: str) -> list[str]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {tok!r}; choose from {', '.join(ALGORITHMS)}")
        out.append(tok)
    if not out:
        raise argparse.ArgumentTypeError("algorithm list is empty")
    return out


def _load(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------

def cmd_stats(args) -> int:
    g = _load(args.input)
    tau = truss_decompose(g)
    tris, edge_tris = g.triangle_index()
    lines = [
        f"vertices: {g.n}",
        f"edges: {g.m}",
        f"triangles: {len(tris)}",
        f"max_support: {max(map(len, edge_tris), default=0)}",
        f"max_trussness: {tau.max_trussness()}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_truss(args) -> int:
    g = _load(args.input)
    t = k_truss(g, args.k)
    pairs = sorted(g.original_pair(e) for e in t.alive_edge_ids())
    _emit("".join(f"{u} {v}\n" for u, v in pairs), args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load(args.input)
    tau = truss_decompose(g)
    rows = sorted((g.original_pair(e), tau.values[e]) for e in range(g.m))
    _emit("".join(f"{u} {v} {val}\n" for (u, v), val in rows), args.output)
    return EXIT_OK


def _human_report(report: MinimizationReport) -> str:
    buf = io.StringIO()
    buf.write(f"algorithm={report.algorithm} k={report.k} b={report.b}\n")
    buf.write(f"initial truss edges: {report.initial_truss_edges}\n")
    buf.write("iter  edge            followers  candidates  evaluated  time_ms\n")
    for i, r in enumerate(report.iterations, start=1):
        edge = f"({r.edge[0]}, {r.edge[1]})"
        buf.write(f"{i:<5} {edge:<15} {r.followers:<10} {r.candidates_total:<11} "
                  f"{r.candidates_evaluated:<10} {r.time_ms:.1f}\n")
    buf.write(f"followers total: {report.followers_total}\n")
    buf.write(f"final truss edges: {report.final_truss_edges}\n")
    for w in report.warnings:
        buf.write(f"warning: {w}\n")
    return buf.getvalue()


def _groups_dump(g: Graph, k: int) -> dict:
    t = k_truss(g, k)
    support_groups, candidates = find_support_groups(t)
    tau = truss_decompose(g)
    idx = build_truss_group_index(g, tau, k)
    _, truss_groups = idx.levels[k]
    return {
        "support_groups": [
            {
                "gid": grp.gid,
                "size": len(grp.members),
                "members": [list(g.original_pair(e)) for e in grp.members],
                "pruned_followers": sorted(
                    list(g.original_pair(e)) for e in grp.pruned_followers),
            }
            for grp in support_groups
        ],
        "candidates": [list(g.original_pair(e)) for e in candidates],
        "truss_groups": [
            {"gid": gid, "size": len(members),
             "members": [list(g.original_pair(e)) for e in sorted(members)]}
            for gid, members in sorted(idx.levels[k][1].items())
        ],
    }


def cmd_minimize(args) -> int:
    g = _load(args.input)
    cfg = SolverConfig(k=args.k, b=args.b, algorithm=args.algorithm,
                       threads=args.threads, exact_cap=args.exact_cap,
                       rebuild_index=args.rebuild_index)
    report = solve(g, cfg)
    if args.format == "json":
        payload = report.to_dict()
        if args.dump_groups:
            payload["groups_dump"] = _groups_dump(g, args.k)
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "u", "v", "followers",
                         "candidates_total", "candidates_evaluated", "time_ms"])
        for i, r in enumerate(report.iterations, start=1):
            writer.writerow([i, r.edge[0], r.edge[1], r.followers,
                             r.candidates_total, r.candidates_evaluated,
                             f"{r.time_ms:.3f}"])
        _emit(buf.getvalue(), args.output)
    else:
        _emit(_human_report(report), args.output)
    return EXIT_OK


def cmd_bench(args) -> int:
    g = _load(args.input)
    buf = io.StringIO()
    buf.write(BENCH_HEADER + "\n")
    for k in args.k:
        for b in args.b:
            for algorithm in args.algorithms:
                for rep in range(1, args.reps + 1):
                    try:
                        start = time.perf_counter()
                        report = solve(g, SolverConfig(
                            k=k, b=b, algorithm=algorithm, threads=args.threads,
                            exact_cap=args.exact_cap))
                        elapsed = (time.perf_counter() - start) * 1000.0
                        evaluated = sum(r.candidates_evaluated for r in report.iterations)
                        buf.write(f"{k},{b},{algorithm},{rep},"
                                  f"{report.followers_total},{elapsed:.3f},{evaluated}\n")
                    except (EnumerationCapExceeded, ValueError) as exc:
                        # record the failed cell and keep going
                        sys.stderr.write(f"bench cell k={k} b={b} {algorithm}: {exc}\n")
                        buf.write(f"{k},{b},{algorithm},{rep},,,\n")
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trussmin",
        description="Measure k-truss stability and find the most destabilizing edges.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="edge-list file (two integer labels per line)")
        p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    p_stats = sub.add_parser("stats", help="basic size and cohesion numbers")
    add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_truss = sub.add_parser("truss", help="emit the edges of the k-truss")
    add_common(p_truss)
    p_truss.add_argument("-k", type=_positive_int(3, "k"), required=True)
    p_truss.set_defaults(func=cmd_truss)

    p_dec = sub.add_parser("decompose", help="emit per-edge trussness")
    add_common(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_min = sub.add_parser("minimize", help="find b edges that unravel the k-truss most")
    add_common(p_min)
    p_min.add_argument("-k", type=_positive_int(3, "k"), required=True)
    p_min.add_argument("-b", type=_positive_int(1, "b"), required=True)
    p_min.add_argument("--algorithm", choices=ALGORITHMS, default="up_edge")
    p_min.add_argument("--format", choices=("json", "csv", "human"), default="human")
    p_min.add_argument("--threads", type=_positive_int(1, "threads"), default=1,
                       help="worker processes for baseline and gp_edge candidate "
                            "evaluation; 1 (the default) evaluates sequentially")
    p_min.add_argument("--exact-cap", type=_positive_int(1, "exact-cap"),
                       default=2_000_000, help="refusal threshold for the exact solver")
    p_min.add_argument("--rebuild-index", action="store_true",
                       help="rebuild the group index each iteration instead of refreshing")
    p_min.add_argument("--dump-groups", action="store_true",
                       help="attach a JSON dump of the discovered groups (json format only)")
    p_min.set_defaults(func=cmd_minimize)

    p_bench = sub.add_parser("bench", help="run a (k, b, algorithm) matrix and emit CSV")
    add_common(p_bench)
    p_bench.add_argument("-k", type=_int_list(3, "k"), required=True,
                         help="comma-separated k values")
    p_bench.add_argument("-b", type=_int_list(1, "b"), required=True,
                         help="comma-separated budgets")
    p_bench.add_argument("--algorithms", type=_algorithm_list,
                         default=["baseline", "gp_edge", "up_edge"],
                         help="comma-separated algorithm names")
    p_bench.add_argument("--reps", type=_positive_int(1, "reps"), default=1)
    p_bench.add_argument("--threads", type=_positive_int(1, "threads"), default=1)
    p_bench.add_argument("--exact-cap", type=_positive_int(1, "exact-cap"),
                         default=2_000_000)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        sys.stderr.write(f"error: {args.input}: {exc}\n")
        return EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_MEMORY
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
