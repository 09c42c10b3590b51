"""Output checks for every `solve()` answer the benchmark gets.

Each check returns a list of problems; an empty list means the answer
passed.  The benchmark counts a query with problems as failed and goes on.
"""

from __future__ import annotations

from typing import Optional

from trussmin import Graph, MinimizationReport, TrussSubgraph, delete_and_cascade

# Follower totals of the generator's seed 42 at k = 10, recorded from the
# library at the commit that introduced this benchmark.
GOLDEN_SEED = 42
GOLDEN_FOLLOWERS = {
    (30, "baseline", 5): 680,
    (30, "gp_edge", 5): 680,
    (30, "up_edge", 5): 680,
    (30, "up_edge", 40): 3522,
    (30, "support", 40): 1158,
    (120, "up_edge", 5): 881,
    (120, "support", 5): 104,
}

# m and triangle count of the generator's seed 42 graphs, so a change in
# the generator fails loudly instead of quietly changing the workload.
PINNED_SHAPE = {30: (73_920, 216_239), 120: (296_542, 872_660)}

GREEDY = ("baseline", "gp_edge", "up_edge")


def check_manifest(manifest: dict) -> list[str]:
    """The generator's own counts against the seed-42 pin."""
    pinned = PINNED_SHAPE.get(manifest["scale"])
    got = (manifest["m"], manifest["triangles"])
    if manifest["seed"] != GOLDEN_SEED or pinned is None or got == pinned:
        return []
    return [f"seed {GOLDEN_SEED} scale {manifest['scale']} generates (m, triangles) = "
            f"{got}, expected {pinned}; did tests/synth.py change?"]


def check_graph(g: Graph, manifest: dict) -> list[str]:
    """The loaded graph against the counts the fixture generator made."""
    got, want = (g.m, g.triangle_count()), (manifest["m"], manifest["triangles"])
    if got == want:
        return []
    return [f"loaded graph has (m, triangles) = {got}, the fixture manifest says {want}"]


def check_report(g: Graph, truss: TrussSubgraph, b: int,
                 report: MinimizationReport, golden: Optional[int]) -> list[str]:
    """Replay the chosen edges on a fresh k-truss and compare every count.

    `truss` is a k-truss of `g` that no solver has touched; it is not
    modified.
    """
    problems = []
    if len(report.iterations) != b or report.b_effective != b:
        problems.append(f"{len(report.iterations)} iterations, budget {b}")
    if report.initial_truss_edges != truss.edge_count:
        problems.append(f"initial truss {report.initial_truss_edges}, replay {truss.edge_count}")
    cur = truss
    for i, rec in enumerate(report.iterations):
        if rec.edge != g.original_pair(rec.eid):
            problems.append(f"iteration {i}: edge {rec.edge} is not edge id {rec.eid}")
        if not cur.alive[rec.eid]:
            problems.append(f"iteration {i}: edge id {rec.eid} is not in the truss")
            return problems
        out = delete_and_cascade(cur, [rec.eid])
        if len(out.followers) != rec.followers:
            problems.append(f"iteration {i}: reported {rec.followers} followers, "
                            f"replay gives {len(out.followers)}")
        cur = out.surviving
    if report.followers_total != sum(r.followers for r in report.iterations):
        problems.append("followers_total is not the sum of the iterations")
    if report.final_truss_edges != cur.edge_count:
        problems.append(f"final truss {report.final_truss_edges}, replay {cur.edge_count}")
    if golden is not None and report.followers_total != golden:
        problems.append(f"followers_total {report.followers_total}, golden {golden}")
    return problems


def choices(report: MinimizationReport) -> list[tuple[int, int]]:
    return [(r.eid, r.followers) for r in report.iterations]


def check_greedy_agreement(reports: dict[str, MinimizationReport]) -> dict[str, list[str]]:
    """The greedy solvers given must choose identical (eid, followers) sequences.

    Returns problems per algorithm; `baseline` is the reference when present.
    """
    present = [a for a in GREEDY if a in reports]
    if len(present) < 2:
        return {}
    ref = choices(reports[present[0]])
    return {a: [f"chose {choices(reports[a])}, {present[0]} chose {ref}"]
            for a in present[1:] if choices(reports[a]) != ref}
