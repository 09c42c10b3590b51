"""Criterion 7's wall-clock ratios over many isolated runs.

`test_acceptance.py::test_criterion_7_desk_scale_trends` requires
up_edge <= gp_edge <= baseline in wall-clock time on the seed-42 scale-30
synthetic graph at k = 10.  This probe repeats the test's three timed
solves N times at each k of `--k` (default 10), each in a new process, one
process at a time, in two modes:

- warm: exactly as the test runs them, on one graph whose triangle index
  is built first, and whose truss cache and parked groups the test's
  budget loop (`up_edge` at b = 1..5) has filled, so `gp_edge` and
  `up_edge` start from the groups that loop grew;
- fresh: each solve on a newly built `Graph` whose triangle index is built
  before the clock starts, so every solve peels its own truss levels and
  grows its own groups.

It prints the minimum, quartiles and median of gp/up and base/gp per k and
mode, and how many runs broke either order.  pytest does not collect it,
since its name does not match `test_*.py`.  Run it from the repository
root:

    PYTHONPATH=src python tests/criterion7_probe.py [--runs 20] [--k 6,10,12]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import synth

ALGORITHMS = ("baseline", "gp_edge", "up_edge")
MODES = ("warm", "fresh")


def timed_solves(mode: str, k: int) -> dict[str, float]:
    """One run of the three timed solves at `k`; wall seconds per algorithm."""
    from trussmin import SolverConfig, solve
    from trussmin.graph import Graph

    pairs = synth.community_pairs()
    b = synth.DEFAULT_B

    def graph():
        g = Graph.from_pairs(pairs)
        g.triangle_index()
        return g

    g = None
    if mode == "warm":
        g = graph()
        for budget in range(1, b + 1):
            solve(g, SolverConfig(k=k, b=budget, algorithm="up_edge"))
    walls = {}
    for algorithm in ALGORITHMS:
        h = g or graph()
        start = time.perf_counter()
        solve(h, SolverConfig(k=k, b=b, algorithm=algorithm))
        walls[algorithm] = time.perf_counter() - start
    return walls


def spread(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"min {min(values):.3f}  q1 {q1:.3f}  median {median:.3f}  q3 {q3:.3f}"


def k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("--k takes comma-separated integers")
    if min(ks) < 3:
        raise argparse.ArgumentTypeError("every k must be >= 3")
    return ks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=20, help="runs per k and mode (>= 2)")
    ap.add_argument("--k", type=k_list, default=[synth.DEFAULT_K],
                    help="comma-separated truss levels (default %(default)s)")
    ap.add_argument("--child", choices=MODES, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(timed_solves(args.child, args.k[0])))
        return 0
    if args.runs < 2:
        ap.error("--runs must be >= 2")
    runs = {(k, mode): [] for k in args.k for mode in MODES}
    for _ in range(args.runs):
        for k, mode in runs:
            out = subprocess.run([sys.executable, __file__, "--child", mode, "--k", str(k)],
                                 check=True, capture_output=True, text=True)
            runs[k, mode].append(json.loads(out.stdout.splitlines()[-1]))
    for (k, mode), walls in runs.items():
        broken = [w for w in walls
                  if not w["up_edge"] <= w["gp_edge"] <= w["baseline"]]
        print(f"k={k} {mode}: {len(walls)} runs, {len(broken)} broke an order")
        print(f"  gp/up    {spread([w['gp_edge'] / w['up_edge'] for w in walls])}")
        print(f"  base/gp  {spread([w['baseline'] / w['gp_edge'] for w in walls])}")
        for w in broken:
            print("  broken: " + "  ".join(f"{a} {w[a] * 1e3:.1f}ms" for a in ALGORITHMS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
