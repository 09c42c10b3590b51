"""trussmin benchmark: set-up, solving and layer costs on synthetic graphs.

    python3 perfbench/run.py --workload greedy_s30 --seed 42 --seconds 8 --trace 0

Each run loads edge-list files made from `tests/synth.community_pairs` (by
`fixtures.py`, in another interpreter), builds the triangle index, and
calls `solve()` the way a library user does, sequentially (`threads=1`).
Every answer is checked (see `checks.py`).  With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it wraps the library's
layers (see `spans.py`) and reports per-layer metrics.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run uses `graphs` generator seeds: `--seed` itself, then seeds derived
from it.  Each graph is set up once (`setup_s` is the median over the
run's graphs), then the workload's query list runs `passes` times, and
again while the graph's share of `--seconds` has not yet elapsed.
README.md maps each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / ".data"
TRACES = HERE / ".traces"
K = 10
TINY_SCALE = 2

# On a shared 2-core VM the CPU speed was seen to drift by up to 1.7x within
# seconds, for every process alike, which swamps run-to-run differences in
# plain wall time.  A
# fixed pure-Python kernel is timed right before and right after each timed
# region; `setup_s` and `solve_s` are the region's wall time scaled to the
# host speed at which the kernel takes REF_KERNEL_S.  The raw wall times are
# printed beside them.
REF_KERNEL_S = 0.015


@dataclass(frozen=True)
class Workload:
    scale: int
    queries: tuple[tuple[str, int], ...]    # (algorithm, budget b)
    graphs: int
    passes: int = 1


WORKLOADS = {
    "ingest_s120": Workload(120, (("up_edge", 5), ("support", 5)), graphs=2, passes=2),
    "greedy_s30": Workload(30, (("baseline", 5), ("gp_edge", 5), ("up_edge", 5)), graphs=3),
    "deep_budget_s30": Workload(30, (("up_edge", 40), ("support", 40)), graphs=3),
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def graph_seeds(seed: int, n: int) -> list[int]:
    """`seed` first, so seed 42 always includes the golden graph."""
    return [seed] + [random.Random(f"perfbench:{seed}:{i}").randrange(1, 2**31)
                     for i in range(1, n)]


def ensure_fixtures(scale: int, seeds: list[int]) -> None:
    from fixtures import fixture_paths

    missing = [s for s in seeds if not fixture_paths(DATA, scale, s)[1].exists()]
    if not missing:
        return
    cmd = [sys.executable, str(HERE / "fixtures.py"), "--scale", str(scale),
           "--seeds", ",".join(map(str, missing)), "--out", str(DATA)]
    if subprocess.run(cmd, timeout=600).returncode != 0:
        sys.exit("perfbench: fixture generation failed")


class Answer(NamedTuple):
    """One timed `solve()` call."""
    report: object            # MinimizationReport, or None when solve() raised
    error: Optional[str]
    wall_s: float
    corrected_s: float        # wall_s at the reference host speed


def speed_kernel() -> int:
    """Fixed interpreter work; allocates no objects the GC tracks."""
    s, d = 0, {}
    for i in range(80_000):
        d[i & 1023] = s
        s += i * 3 % 7
    return s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: its graphs, timings, answers and failures."""

    def __init__(self, wl: Workload, seed: int, seconds: float, trace: bool):
        import trussmin
        from spans import Tracer

        self.lib = trussmin
        self.wl, self.seconds = wl, seconds
        self.seeds = graph_seeds(seed, wl.graphs)
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        # per graph: (load, index) wall seconds and the host-corrected total
        self.setups: list[tuple[float, float]] = []
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []       # host-corrected, median pass per graph
        self.solve_wall_s: list[float] = []  # the same passes in wall time
        self.kernel_s: list[float] = []      # every host-speed probe
        self.traced: list[list[Answer]] = []  # the traced pass of each graph
        self.followers_total = 0
        self.edges = 0
        self.triangles = 0
        self.rss_after_setup_mb = 0.0

    # -- phases ----------------------------------------------------------------

    def setup(self, path: Path):
        """Load the graph and build its triangle index, timing each step."""
        load, index = self.lib.load_edge_list, self.lib.Graph.triangle_index
        if self.tracer is not None:
            load = self.tracer.wrap("graph.load", load)
            index = self.tracer.wrap("graph.triangle_index", index)
        before = self.probe()
        gc.collect()
        t0 = time.perf_counter()
        with open(path) as f:
            g = load(f)
        t1 = time.perf_counter()
        index(g)
        t2 = time.perf_counter()
        self.setups.append((t1 - t0, t2 - t1))
        self.setup_s.append(self.corrected(t2 - t0, before, self.probe()))
        return g

    def probe(self) -> float:
        """Median of five timings of the kernel: the host's speed right now."""
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            speed_kernel()
            times.append(time.perf_counter() - t0)
        self.kernel_s.append(statistics.median(times))
        return self.kernel_s[-1]

    @staticmethod
    def corrected(wall: float, before: float, after: float) -> float:
        return wall * REF_KERNEL_S / ((before + after) / 2)

    def query(self, solve, g, algorithm: str, b: int) -> Answer:
        cfg = self.lib.SolverConfig(k=K, b=b, algorithm=algorithm, threads=1)
        before = self.probe()
        gc.collect()
        t0 = time.perf_counter()
        try:
            report, err = solve(g, cfg), None
        except Exception as exc:  # a failed query is counted, the run goes on
            report, err = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        return Answer(report, err, wall, self.corrected(wall, before, self.probe()))

    def solve_passes(self, g) -> list[list[Answer]]:
        budget = self.seconds / self.wl.graphs
        passes: list[list[Answer]] = []
        start = time.perf_counter()
        while len(passes) < self.wl.passes or time.perf_counter() - start < budget:
            passes.append([self.query(self.lib.solve, g, a, b) for a, b in self.wl.queries])
        return passes

    def traced_pass(self, g, gi: int) -> list[Answer]:
        from spans import SOLVE

        tracer = self.tracer
        solve = tracer.wrap(SOLVE, self.lib.solve)
        out = []
        with tracer.installed():
            for a, b in self.wl.queries:
                tracer.qid = f"g{gi}/{a}/b{b}"
                out.append(self.query(solve, g, a, b))
        tracer.qid = None
        return out

    def check(self, g, manifest: dict, passes: list[list[Answer]]) -> None:
        """Check every answer, count attempts and failures, print one line per query.

        The first pass is checked in full; a later pass must repeat its answers.
        """
        from checks import GOLDEN_FOLLOWERS, GOLDEN_SEED, check_greedy_agreement, \
            check_report, choices

        queries = self.wl.queries
        truss = self.lib.k_truss(g, K)
        problems = [[[q.error] if q.error else [] for q in p] for p in passes]
        first = {a: q.report for (a, _), q in zip(queries, passes[0]) if q.report is not None}
        for i, (a, b) in enumerate(queries):
            if a in first:
                golden = None
                if manifest["seed"] == GOLDEN_SEED:
                    golden = GOLDEN_FOLLOWERS.get((manifest["scale"], a, b))
                problems[0][i] += check_report(g, truss, b, first[a], golden)
        for a, found in check_greedy_agreement(first).items():
            problems[0][[q[0] for q in queries].index(a)] += found
        for p, probs in zip(passes[1:], problems[1:]):
            for i, ((a, _), q) in enumerate(zip(queries, p)):
                if q.report is None:
                    continue
                if a not in first or choices(q.report) != choices(first[a]):
                    probs[i].append("a repeated pass gave another answer")
                elif problems[0][i]:
                    probs[i].append("repeats the failed answer of the first pass")
        self.attempted += len(passes) * len(queries)
        self.failed += sum(1 for probs in problems for q in probs if q)
        self.followers_total += sum(r.followers_total for r in first.values())
        for i, (a, b) in enumerate(queries):
            report = first.get(a)
            found = [f for probs in problems for f in probs[i]]
            print(f"  {a} b={b}: followers {report.followers_total if report else '-'}, "
                  f"evaluated {sum(r.candidates_evaluated for r in report.iterations) if report else '-'}, "
                  f"{statistics.median(p[i].wall_s for p in passes):.3f} s wall, "
                  f"{statistics.median(p[i].corrected_s for p in passes):.3f} s corrected, "
                  f"median of {len(passes)} "
                  f"{'ok' if not found else 'FAILED: ' + '; '.join(found)}")

    def run(self) -> None:
        from checks import check_graph, check_manifest
        from fixtures import fixture_paths

        fixtures = [fixture_paths(DATA, self.wl.scale, seed) for seed in self.seeds]
        manifests = [json.loads(path.read_text()) for _, path in fixtures]
        problems = [p for manifest in manifests for p in check_manifest(manifest)]
        if problems:
            sys.exit("perfbench: " + "; ".join(problems))
        for gi, ((edges_path, _), manifest) in enumerate(zip(fixtures, manifests)):
            g = self.setup(edges_path)
            if gi == 0:
                self.rss_after_setup_mb = peak_rss_mb()
            problems = check_graph(g, manifest)
            if problems:
                sys.exit("perfbench: " + "; ".join(problems))
            self.edges += g.m
            self.triangles += g.triangle_count()
            print(f"graph {gi}: seed {manifest['seed']}, scale {self.wl.scale}, m {g.m}, "
                  f"triangles {g.triangle_count()}, set-up {sum(self.setups[-1]):.3f} s wall, "
                  f"{self.setup_s[-1]:.3f} s corrected")
            if self.tracer is None:
                passes = timed = self.solve_passes(g)
            else:
                # alternate the order, so that whatever makes a graph's first
                # pass faster or slower does not land in trace.overhead_s
                if gi % 2:
                    traced = self.traced_pass(g, gi)
                untraced = [self.query(self.lib.solve, g, a, b) for a, b in self.wl.queries]
                if not gi % 2:
                    traced = self.traced_pass(g, gi)
                self.traced.append(traced)
                passes, timed = [untraced, traced], [untraced]
            self.solve_s.append(statistics.median(sum(q.corrected_s for q in p) for p in timed))
            self.solve_wall_s.append(statistics.median(sum(q.wall_s for q in p) for p in timed))
            self.check(g, manifest, passes)
            g = None

    # -- results ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {"setup_s": statistics.median(self.setup_s),
                "solve_s": sum(self.solve_s),
                "peak_rss_mb": peak_rss_mb(), "followers_total": self.followers_total}

    def per_layer(self) -> dict[str, float]:
        from checks import GREEDY
        from spans import TIMED

        m: dict[str, float] = {
            "graph.load_s": statistics.median(a for a, _ in self.setups),
            "graph.triangle_index_s": statistics.median(b for _, b in self.setups),
            "graph.edges": self.edges,
            "graph.triangles": self.triangles,
            "graph.rss_after_setup_mb": self.rss_after_setup_mb,
        }
        m.update(self.tracer.layer_metrics())
        records = [(a, rec) for p in self.traced for (a, _), q in zip(self.wl.queries, p)
                   if q.report is not None for rec in q.report.iterations]
        greedy = [rec for a, rec in records if a in GREEDY]
        m["minimize.iterations"] = len(records)
        m["minimize.candidates_total"] = sum(r.candidates_total for r in greedy)
        m["minimize.candidates_evaluated"] = sum(r.candidates_evaluated for r in greedy)
        m["minimize.eval_ratio"] = (m["minimize.candidates_evaluated"]
                                    / max(1, m["minimize.candidates_total"]))
        priced = sum(rec.candidates_total for a, rec in records if a == "up_edge")
        m["groups.candidates_priced"] = priced
        m["groups.bound_cache_hit_ratio"] = 1 - m["groups.bound_pricing_calls"] / max(1, priced)
        traced_wall = sum(q.wall_s for p in self.traced for q in p)
        # minimize.self_s already holds the self time of the two_level_tau spans
        accounted = m["minimize.self_s"] + sum(
            m[name + "_s"] for name in TIMED if not name.startswith("minimize."))
        m["trace.solve_s"] = traced_wall
        m["trace.untraced_solve_s"] = sum(self.solve_wall_s)
        # host-corrected, like solve_s: traced and untraced passes run at different moments
        m["trace.overhead_s"] = (sum(q.corrected_s for p in self.traced for q in p)
                                 - sum(self.solve_s))
        m["trace.accounted_frac"] = accounted / traced_wall
        m["host.kernel_s"] = statistics.median(self.kernel_s)
        return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="trussmin benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="least solve-phase time, shared by the run's graphs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"smoke-test size: graphs of scale {TINY_SCALE}")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trussmin" / "__init__.py").is_file():
        sys.exit(f"perfbench: the library is not at {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, scale=TINY_SCALE)
    run = Run(wl, args.seed, args.seconds, bool(args.trace))
    if not run.lib.__file__.startswith(str(ROOT / "src")):
        sys.exit(f"perfbench: imported trussmin from {run.lib.__file__}, not {ROOT / 'src'}")
    ensure_fixtures(wl.scale, run.seeds)
    run.run()

    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.trace:
        run.tracer.write(TRACES / f"{args.workload}.tsv.gz")
    for name, value in metrics.items():
        print(f"{name:<36} {value} {unit_of(name)}")
    print(f"{'wall: setup, solve':<36} {statistics.median(sum(t) for t in run.setups)} s, "
          f"{sum(run.solve_wall_s)} s (host kernel median {statistics.median(run.kernel_s)} s, "
          f"reference {REF_KERNEL_S} s)")
    print(f"{'failed_frac':<36} {run.failed / run.attempted} ratio "
          f"({run.failed} of {run.attempted} queries)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
