"""Budgeted edge-deletion solvers over one k-truss.

Five strategies behind one dispatcher: exhaustive subset search, a
minimum-support heuristic, the full greedy scan, greedy over the reduced
candidate set, and greedy with upper-bound ordered early-stopping.  The
three greedy variants share a single tie-break rule (smallest edge id
among all edges achieving the maximum follower count) so their chosen
edges and per-iteration counts are bit-identical.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .cascade import commit_region, simulate_followers
from .errors import ContractViolation, EnumerationCapExceeded
from .graph import Graph
from .groups import SupportGroup, SupportGroupIndex, build_truss_group_index, \
    find_support_groups, refresh_index
from .truss import TrussSubgraph, k_truss
# unused here, but the benchmark tracer (perfbench/spans.py) patches this name
from .truss import update_after_deletion  # noqa: F401

ALGORITHMS = ("exact", "support", "baseline", "gp_edge", "up_edge")

DEFAULT_EXACT_CAP = 2_000_000


@dataclass(frozen=True)
class SolverConfig:
    """What to solve: truss level, deletion budget, strategy, knobs.

    Every algorithm is deterministic and sequential; there is no seed
    anywhere.  `threads` is validated (>= 1) but ignored.
    """

    k: int
    b: int
    algorithm: str = "up_edge"
    threads: int = 1
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.b < 1:
            raise ValueError("budget b must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class IterationRecord:
    edge: tuple[int, int]          # endpoints in original input labels
    eid: int
    followers: int
    candidates_total: int
    candidates_evaluated: int
    time_ms: float


@dataclass
class MinimizationReport:
    k: int
    b: int
    algorithm: str
    iterations: list[IterationRecord] = field(default_factory=list)
    initial_truss_edges: int = 0
    final_truss_edges: int = 0
    followers_total: int = 0
    b_effective: int = 0
    warnings: list[str] = field(default_factory=list)
    time_ms_total: float = 0.0

    def to_dict(self) -> dict:
        return {
            "config": {"k": self.k, "b": self.b, "algorithm": self.algorithm},
            "iterations": [
                {
                    "edge": list(r.edge),
                    "followers": r.followers,
                    "candidates_total": r.candidates_total,
                    "candidates_evaluated": r.candidates_evaluated,
                    "time_ms": r.time_ms,
                }
                for r in self.iterations
            ],
            "totals": {
                "followers_total": self.followers_total,
                "initial_truss_edges": self.initial_truss_edges,
                "final_truss_edges": self.final_truss_edges,
                "b_effective": self.b_effective,
                "timing": {"time_ms_total": self.time_ms_total},
            },
            "warnings": list(self.warnings),
        }


# -- shared helpers -----------------------------------------------------------

def _commit(t: TrussSubgraph, eid: int,
            expected: Optional[int] = None) -> tuple[list[int], list[int]]:
    """Apply one deletion for real; returns the cascade's dead list and log.

    When `expected` is given, the committed follower count must equal it:
    this is the check that ties candidate evaluation to the commit.
    """
    log: list[int] = []
    dead = t.cascade([eid], log)
    if expected is not None and len(dead) - 1 != expected:
        raise ContractViolation(
            f"deleting edge id {eid} dropped {len(dead) - 1} followers; "
            f"evaluation predicted {expected}")
    return dead, log


def _choose_from_ties(t: TrussSubgraph, best_f: int, ties: list[int],
                      rep_group: dict[int, SupportGroup]) -> int:
    """Shared tie-break: smallest edge id among every maximizer.

    A tying group representative stands for its whole group and for the
    over-threshold edges the group certainly drags down; all of those tie
    it exactly, so they join the pool.  When nothing has followers, or
    there were no candidates at all, the smallest alive edge is chosen,
    matching the unpruned reference scan.
    """
    if best_f <= 0:
        e = t.min_alive_edge()
        if e is None:
            raise ContractViolation("no alive edge to choose from")
        return e
    pool: list[int] = []
    for c in ties:
        pool.append(c)
        grp = rep_group.get(c)
        if grp is not None:
            pool.extend(grp.members)
            pool.extend(grp.pruned_followers)
    return min(pool)


# -- solvers --------------------------------------------------------------------

def solve_baseline(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy reference: the exact follower count of every alive edge, each iteration.

    Each edge's dead set (itself plus its followers, ascending) is kept
    across iterations and simulated again only after a commit's
    `commit_region` meets it, since a simulation reads nothing outside the
    triangles of its own dead set.  Equal dead sets (every member of one
    support group has the same one) share one tuple; an edge without
    followers stores the empty tuple.
    """
    chosen: list[int] = []
    records: list[IterationRecord] = []
    memo: list[Optional[tuple[int, ...]]] = [None] * t.graph.m
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    while len(chosen) < b and t.edge_count > 0:
        start = time.perf_counter()
        alive = t.alive_edge_ids()
        best_f, best_e = -1, -1
        for e in alive:
            dead_set = memo[e]
            if dead_set is None:
                fl = simulate_followers(t, e)
                if fl:
                    fl.append(e)
                    fl.sort()
                    key = tuple(fl)
                    dead_set = shared.setdefault(key, key)
                else:
                    dead_set = ()
                memo[e] = dead_set
            f = len(dead_set) - 1 if dead_set else 0
            if f > best_f:
                best_f, best_e = f, e
        dead, log = _commit(t, best_e, best_f)
        region = commit_region(t, dead, log)
        for x in region:
            memo[x] = None  # an edge's own dead set holds it
        for dead_set in [d for d in shared if not region.isdisjoint(d)]:
            del shared[dead_set]
            for x in dead_set:  # every edge sharing a dead set lies in it
                if memo[x] is dead_set:
                    memo[x] = None
        chosen.append(best_e)
        records.append(IterationRecord(
            edge=t.graph.original_pair(best_e), eid=best_e, followers=best_f,
            candidates_total=len(alive), candidates_evaluated=len(alive),
            time_ms=(time.perf_counter() - start) * 1000.0))
    return chosen, records


def solve_support(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Heuristic: delete the weakest triangle partner of the weakest edge."""
    tris, edge_tris = t.graph.triangle_index()
    m = t.graph.m
    alive, sup, tri_alive = t.alive, t.sup, t.tri_alive
    # Lazy min-heap of sup * m + e, which orders alive edges by (sup, e).
    # Supports only fall, so an entry is stale exactly when its edge died
    # or has since been pushed again with a lower support.
    heap = [sup[e] * m + e for e in range(m) if alive[e]]
    heapq.heapify(heap)
    chosen: list[int] = []
    records: list[IterationRecord] = []
    while len(chosen) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates_total = t.edge_count
        while True:
            s_min, e_min = divmod(heap[0], m)
            if alive[e_min] and sup[e_min] == s_min:
                break
            heapq.heappop(heap)
        partners: set[int] = set()
        for ti in edge_tris[e_min]:
            if tri_alive[ti]:
                partners.update(o for o in tris[ti] if o != e_min and alive[o])
        # inside a truss with k >= 3 every edge sits in a triangle
        if not partners:
            raise ContractViolation(f"minimum-support edge id {e_min} has no alive triangle")
        e_star = min(partners, key=lambda e: (sup[e], e))
        dead, log = _commit(t, e_star)
        for o in {x for x in log if x >= 0}:
            if alive[o]:
                heapq.heappush(heap, sup[o] * m + o)
        chosen.append(e_star)
        records.append(IterationRecord(
            edge=t.graph.original_pair(e_star), eid=e_star, followers=len(dead) - 1,
            candidates_total=candidates_total, candidates_evaluated=0,
            time_ms=(time.perf_counter() - start) * 1000.0))
    return chosen, records


def solve_exact(t: TrussSubgraph, b: int,
                cap: int = DEFAULT_EXACT_CAP) -> tuple[list[int], list[IterationRecord]]:
    """Enumerate every b-subset jointly and keep the best.

    Ties resolve to the lexicographically smallest edge-id sequence, which
    is the first one enumerated.  Refuses to run past `cap` combinations.
    """
    alive = t.alive_edge_ids()
    bb = min(b, len(alive))
    ncomb = math.comb(len(alive), bb)
    if ncomb > cap:
        raise EnumerationCapExceeded(
            f"C({len(alive)}, {bb}) = {ncomb} subsets exceeds the cap of {cap}; "
            f"use one of the heuristic algorithms instead")
    start = time.perf_counter()
    best_f, best_set = -1, None
    for combo in combinations(alive, bb):
        log: list[int] = []
        dead = t.cascade(combo, log)
        f = len(dead) - len(combo)
        t.rollback(log, dead)
        if f > best_f:
            best_f, best_set = f, combo
    if best_set is None:
        raise ContractViolation("no edge subset was enumerated")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    # Commit the winning set one edge at a time so the report carries
    # per-edge records; marginal followers exclude the chosen set itself,
    # so they sum to the joint follower count.
    chosen_set = set(best_set)
    records: list[IterationRecord] = []
    for i, e in enumerate(best_set):
        dead = t.cascade([e])
        marginal = len([x for x in dead if x not in chosen_set])
        records.append(IterationRecord(
            edge=t.graph.original_pair(e), eid=e, followers=marginal,
            candidates_total=ncomb, candidates_evaluated=ncomb if i == 0 else 0,
            time_ms=elapsed_ms if i == 0 else 0.0))
    if sum(r.followers for r in records) != best_f:
        raise ContractViolation(
            f"committing {list(best_set)} dropped {sum(r.followers for r in records)} "
            f"followers; enumeration found {best_f}")
    return list(best_set), records


def _scan(t: TrussSubgraph, candidates: list[int],
          ubs: dict[int, int]) -> tuple[int, list[int], int]:
    """Evaluate `candidates` by descending bound; returns (best_f, ties, evaluated).

    `candidates` ascend and `ubs[c]` bounds the follower count of c, so a
    stable reverse sort scans by (-bound, edge id).  Once something beats a
    positive score, every candidate whose bound falls below it is skipped;
    bound-zero candidates are never evaluated.  A candidate that shows up
    in an evaluated candidate's follower set is skipped when its bound
    equals its remover's (it cannot do strictly better than its remover)
    or falls below the remover's score (it cannot tie the maximum).
    Skipped candidates whose remover holds the maximum are re-evaluated
    once at the end: they may tie it exactly, and ties decide the chosen
    edge.
    """
    order = sorted(candidates, key=ubs.__getitem__, reverse=True)
    fvals: dict[int, int] = {}
    removed_by: dict[int, int] = {}
    best_f = -1
    ties: list[int] = []
    evaluated = 0
    for c in order:
        if ubs[c] == 0:
            break
        if best_f > 0 and ubs[c] < best_f:
            break
        if c in removed_by:
            continue
        fl = simulate_followers(t, c)
        f = len(fl)
        fvals[c] = f
        evaluated += 1
        if f > best_f:
            best_f, ties = f, [c]
        elif f == best_f:
            ties.append(c)
        for x in fl:
            if x in fvals or x in removed_by:
                continue
            ub_x = ubs.get(x)
            if ub_x is None:
                continue
            if ub_x == ubs[c] or ub_x < f:
                removed_by[x] = c
    for c in candidates:
        if c in fvals or c not in removed_by:
            continue
        if fvals[removed_by[c]] != best_f:
            continue
        f = len(simulate_followers(t, c))
        fvals[c] = f
        evaluated += 1
        if f == best_f:
            ties.append(c)
    return best_f, ties, evaluated


def solve_gp_edge(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy over the reduced candidate set.

    Every candidate gets the same bound, the graph's edge count, so `_scan`
    evaluates them in ascending edge-id order, never stops early, and skips
    every candidate that shows up in an evaluated candidate's follower set.
    """
    chosen: list[int] = []
    records: list[IterationRecord] = []
    support_groups = SupportGroupIndex(t, find_support_groups(t)[0])
    while len(chosen) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates = support_groups.candidates()
        best_f, ties, evaluated = _scan(t, candidates, dict.fromkeys(candidates, t.graph.m))
        e_star = _choose_from_ties(t, best_f, ties, support_groups.rep_group)
        followers = max(best_f, 0)
        dead, log = _commit(t, e_star, followers)
        support_groups.update(dead, log)
        chosen.append(e_star)
        records.append(IterationRecord(
            edge=t.graph.original_pair(e_star), eid=e_star, followers=followers,
            candidates_total=len(candidates), candidates_evaluated=evaluated,
            time_ms=(time.perf_counter() - start) * 1000.0))
    return chosen, records


def _two_level_tau(t: TrussSubgraph) -> TrussSubgraph:
    """The (k+1)-truss nested inside the k-truss `t`, as its own `TrussSubgraph`.

    The bound index only asks whether a truss edge has trussness exactly k
    or more, and it has more exactly when it is alive here, so one extra
    peel replaces a full decomposition.  After each commit to `t`, passing
    the commit's dead list to `upper.cascade` keeps this the (k+1)-truss of
    the reduced graph: that truss lies inside the reduced k-truss, so it
    holds none of the dead edges.
    """
    upper = t.clone()
    upper.k = t.k + 1
    upper.cascade([e for e in upper.alive_edge_ids() if upper.sup[e] < t.k - 1])
    return upper


def solve_up_edge(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy with bound-ordered scanning and early stopping.

    Each candidate is priced with an upper bound on its follower count
    (the sizes of the truss groups it touches) for `_scan`.  The early stop
    is strict, so equal-bound candidates are still evaluated and exact ties
    keep the shared smallest-edge-id break.  Each commit cascades through
    both the k-truss and the nested (k+1)-truss, and the group index is
    refreshed over the region the two cascades changed.
    """
    chosen: list[int] = []
    records: list[IterationRecord] = []
    upper = _two_level_tau(t)
    idx = build_truss_group_index(t, upper)
    # Bounds survive across iterations: a bound changes only when its edge
    # lies in a commit's region or one of the groups it summed over
    # dissolves, and surviving groups keep their exact member lists.
    ub_cache: dict[int, tuple[int, frozenset[int]]] = {}

    support_groups = SupportGroupIndex(t, find_support_groups(t)[0])

    while len(chosen) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates = support_groups.candidates()
        sizes = idx.group_sizes()
        ubs: dict[int, int] = {}
        for c in candidates:
            hit = ub_cache.get(c)
            if hit is None:
                gids = idx.adjacent_gids(c)
                hit = (sum(sizes[x] for x in gids), frozenset(gids))
                ub_cache[c] = hit
            ubs[c] = hit[0]
        best_f, ties, evaluated = _scan(t, candidates, ubs)
        e_star = _choose_from_ties(t, best_f, ties, support_groups.rep_group)
        followers = max(best_f, 0)
        dead, log = _commit(t, e_star, followers)
        chosen.append(e_star)
        support_groups.update(dead, log)
        region = commit_region(t, dead + upper.cascade(dead), log)
        idx = refresh_index(idx, region)
        for x in region:
            ub_cache.pop(x, None)
        dissolved = idx.last_dissolved
        if dissolved:
            for e in [e for e, (_, gids) in ub_cache.items() if gids & dissolved]:
                del ub_cache[e]
        records.append(IterationRecord(
            edge=t.graph.original_pair(e_star), eid=e_star, followers=followers,
            candidates_total=len(candidates), candidates_evaluated=evaluated,
            time_ms=(time.perf_counter() - start) * 1000.0))
    return chosen, records


# -- dispatcher ---------------------------------------------------------------

def solve(g: Graph, cfg: SolverConfig) -> MinimizationReport:
    """Extract T_k once, run the configured solver, assemble the report."""
    start = time.perf_counter()
    t = k_truss(g, cfg.k)
    report = MinimizationReport(k=cfg.k, b=cfg.b, algorithm=cfg.algorithm,
                                initial_truss_edges=t.edge_count)
    if t.edge_count == 0:
        report.final_truss_edges = 0
        report.warnings.append(f"the {cfg.k}-truss is empty; nothing to delete")
        report.time_ms_total = (time.perf_counter() - start) * 1000.0
        return report

    if cfg.algorithm == "exact":
        chosen, records = solve_exact(t, cfg.b, cap=cfg.exact_cap)
    elif cfg.algorithm == "support":
        chosen, records = solve_support(t, cfg.b)
    elif cfg.algorithm == "baseline":
        chosen, records = solve_baseline(t, cfg.b)
    elif cfg.algorithm == "gp_edge":
        chosen, records = solve_gp_edge(t, cfg.b)
    else:
        chosen, records = solve_up_edge(t, cfg.b)

    report.iterations = records
    report.followers_total = sum(r.followers for r in records)
    report.final_truss_edges = t.edge_count
    report.b_effective = len(chosen)
    if report.b_effective < cfg.b:
        report.warnings.append(
            f"truss emptied after {report.b_effective} deletions; budget was {cfg.b}")
    report.time_ms_total = (time.perf_counter() - start) * 1000.0
    return report

