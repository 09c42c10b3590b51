"""Command-line front end: stats, truss, decompose, minimize, bench.

Reads whitespace-separated edge lists ('#' comments allowed), reports in
original vertex labels, and emits machine-readable JSON/CSV with timing
fields kept separate so golden-file comparisons can strip them.

Exit codes: 0 success or warning, 2 usage error, 3 I/O or parse error,
4 exact-solver enumeration cap exceeded, 5 out of memory, 130 interrupted
(Ctrl-C), 141 output pipe closed early, printing nothing.  Codes 4, 5 and
130 print a one-line message, not a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import nullcontext
from itertools import compress, islice
from typing import Iterable, Iterator, Optional

from .errors import EdgeListParseError, EnumerationCapExceeded
from .graph import Graph, load_edge_list
from .groups import SupportGroupIndex, build_truss_group_index
from .minimize import ALGORITHMS, DEFAULT_EXACT_CAP, MinimizationReport, SolverConfig, \
    _two_level_tau, solve
from .truss import k_truss, parked, truss_decompose

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAP = 4
EXIT_MEMORY = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_PIPE = 141  # 128 + SIGPIPE

BENCH_HEADER = "k,b,algorithm,rep,followers_total,time_ms,candidates_evaluated"
# `truss` and `decompose` join and write this many rows at a time
_ROWS_PER_WRITE = 1 << 12


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


def _algorithm(text: str) -> str:
    if text not in ALGORITHMS:
        raise argparse.ArgumentTypeError(
            f"unknown algorithm {text!r}; choose from {', '.join(ALGORITHMS)}")
    return text


def _comma_list(check):
    """Parse a comma-separated list, passing each non-empty token to `check`."""
    def parse(text: str) -> list:
        out = [check(tok) for tok in map(str.strip, text.split(",")) if tok]
        if not out:
            raise argparse.ArgumentTypeError("list is empty")
        return out
    return parse


def _load(path: str) -> Graph:
    # Undecodable bytes become lone surrogates, which the parser rejects as
    # non-ASCII on a data line and ignores on a comment line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return load_edge_list(fh)


def _emit(rows: Iterable[str], output: Optional[str]) -> None:
    """Write `rows` to `output`, or to stdout, joined `_ROWS_PER_WRITE` at a time."""
    with open(output, "w", encoding="utf-8") if output else nullcontext(sys.stdout) as fh:
        rows = iter(rows)
        while chunk := "".join(islice(rows, _ROWS_PER_WRITE)):
            fh.write(chunk)
        fh.flush()  # a reader gone early shows here, in `main`, not at exit


# -- subcommands ---------------------------------------------------------------

def cmd_stats(args) -> int:
    g = _load(args.input)
    tau = truss_decompose(g)
    lines = [
        f"vertices: {g.n}",
        f"edges: {g.m}",
        f"triangles: {g.triangle_count()}",
        # two partner edges per triangle
        f"max_support: {max(map(len, g.triangle_index()), default=0) // 2}",
        f"max_trussness: {max(tau, default=0)}",
    ]
    _emit((line + "\n" for line in lines), args.output)
    return EXIT_OK


def _labelled(g: Graph, keys: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The input-label endpoints of each edge key, in the order given.

    Edge ids run in lexicographic order of dense vertex ids, and those run
    in the order of the sorted labels, so keys taken in id order give rows
    already sorted by label pair.
    """
    n, labels = g.n, g.labels
    for key in keys:
        u, v = divmod(key, n)
        yield labels[u], labels[v]


def cmd_truss(args) -> int:
    g = _load(args.input)
    t = k_truss(g, args.k)
    pairs = _labelled(g, compress(g.keys, t.alive))
    _emit((f"{u} {v}\n" for u, v in pairs), args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load(args.input)
    tau = truss_decompose(g)
    rows = zip(_labelled(g, g.keys), tau)
    _emit((f"{u} {v} {val}\n" for (u, v), val in rows), args.output)
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
    """The k-truss's groups by smallest edge, each numbered by its position.

    Each index is the one a solve at k parked (`truss.parked`), read as it
    is, or built afresh when none is parked; the dump parks nothing.
    """
    t = k_truss(g, k)
    groups = parked(t)  # before the nested level may evict the k-level
    support_groups = groups.get("support") or SupportGroupIndex(t)
    idx = groups.get("truss") or build_truss_group_index(t, _two_level_tau(t))
    return {
        "support_groups": [
            {
                "gid": i,
                "size": len(grp.members),
                "members": [list(g.original_pair(e)) for e in grp.members],
                "pruned_followers": sorted(
                    list(g.original_pair(e)) for e in grp.pruned_followers),
            }
            for i, (_, grp) in enumerate(sorted(support_groups.groups.items()))
        ],
        "candidates": [list(g.original_pair(e)) for e in support_groups.iter_candidates()],
        "truss_groups": [
            {"gid": i, "size": len(grp.members),
             "members": [list(g.original_pair(e)) for e in grp.members]}
            for i, (_, grp) in enumerate(sorted(idx.groups.items()))
        ],
    }


def cmd_minimize(args) -> int:
    g = _load(args.input)
    cfg = SolverConfig(k=args.k, b=args.b, algorithm=args.algorithm,
                       exact_cap=args.exact_cap)
    report = solve(g, cfg)
    if args.format == "json":
        payload = report.to_dict()
        if args.dump_groups:
            payload["groups_dump"] = _groups_dump(g, args.k)
        _emit((json.dumps(payload, indent=2, sort_keys=True), "\n"), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["iteration", "u", "v", "followers",
                         "candidates_total", "candidates_evaluated", "time_ms"])
        for i, r in enumerate(report.iterations, start=1):
            writer.writerow([i, r.edge[0], r.edge[1], r.followers,
                             r.candidates_total, r.candidates_evaluated,
                             f"{r.time_ms:.3f}"])
        _emit((buf.getvalue(),), args.output)
    else:
        _emit((_human_report(report),), args.output)
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
                        report = solve(g, SolverConfig(
                            k=k, b=b, algorithm=algorithm, exact_cap=args.exact_cap))
                        evaluated = sum(r.candidates_evaluated for r in report.iterations)
                        buf.write(f"{k},{b},{algorithm},{rep},{report.followers_total},"
                                  f"{report.time_ms_total:.3f},{evaluated}\n")
                    except EnumerationCapExceeded as exc:
                        # record the refused cell and keep going
                        sys.stderr.write(f"bench cell k={k} b={b} {algorithm}: {exc}\n")
                        buf.write(f"{k},{b},{algorithm},{rep},,,\n")
    _emit((buf.getvalue(),), args.output)
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
    p_min.add_argument("--exact-cap", type=_positive_int(1, "exact-cap"),
                       default=DEFAULT_EXACT_CAP, help="refusal threshold for the exact solver")
    p_min.add_argument("--dump-groups", action="store_true",
                       help="attach a JSON dump of the discovered groups "
                            "(needs --format json)")
    p_min.set_defaults(func=cmd_minimize)

    p_bench = sub.add_parser("bench", help="run a (k, b, algorithm) matrix and emit CSV")
    add_common(p_bench)
    p_bench.add_argument("-k", type=_comma_list(_positive_int(3, "k")), required=True,
                         help="comma-separated k values")
    p_bench.add_argument("-b", type=_comma_list(_positive_int(1, "b")), required=True,
                         help="comma-separated budgets")
    p_bench.add_argument("--algorithms", type=_comma_list(_algorithm),
                         default=["baseline", "gp_edge", "up_edge"],
                         help="comma-separated algorithm names")
    p_bench.add_argument("--reps", type=_positive_int(1, "reps"), default=1,
                         help="runs of each cell; the graph keeps its last two peeled "
                              "truss levels and the groups and scan orders solves parked "
                              "on them, so while a level stays cached only an algorithm's "
                              "first solve at its k has the peel, group and scan-order "
                              "builds in its time_ms")
    p_bench.add_argument("--exact-cap", type=_positive_int(1, "exact-cap"),
                         default=DEFAULT_EXACT_CAP)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "minimize" and args.dump_groups and args.format != "json":
        parser.error("argument --dump-groups: needs --format json")
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        sys.stderr.write(f"error: {args.input}: {exc}\n")
        return EXIT_IO
    except BrokenPipeError:
        # the reader has gone: send the flush at exit to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
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
