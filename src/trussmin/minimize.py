"""Budgeted edge-deletion solvers over one k-truss.

Five strategies behind one dispatcher: exhaustive subset search, a
minimum-support heuristic, the full greedy scan, greedy over the reduced
candidate set, and greedy with upper-bound ordered early-stopping.  The
three greedy variants share a single tie-break rule (smallest edge id
among all edges achieving the maximum follower count) so their chosen
edges and per-iteration counts are bit-identical.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import combinations, compress
from typing import Iterable, Optional

from .cascade import commit_region, simulate_followers
from .errors import ContractViolation, EnumerationCapExceeded
from .graph import Graph
from .groups import SupportGroup, SupportGroupIndex, build_truss_group_index, refresh_index
from .truss import TrussSubgraph, _peel, _undo, k_truss
# unused here, but the benchmark tracer (perfbench/spans.py) patches these names
from .groups import find_support_groups  # noqa: F401
from .truss import update_after_deletion  # noqa: F401

ALGORITHMS = ("exact", "support", "baseline", "gp_edge", "up_edge")

DEFAULT_EXACT_CAP = 2_000_000


@dataclass(frozen=True)
class SolverConfig:
    """What to solve: truss level, deletion budget, strategy, knobs.

    Every algorithm is deterministic and sequential; there is no seed
    anywhere.  `threads` is validated (>= 1) but ignored; `exact_cap`, the
    exact solver's refusal threshold, must be at least 1 too.  Every number
    must be a plain int: a float budget, a NaN level or a bool is refused.
    """

    k: int
    b: int
    algorithm: str = "up_edge"
    threads: int = 1
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        for name in ("k", "b", "threads", "exact_cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.b < 1:
            raise ValueError("budget b must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.exact_cap < 1:
            raise ValueError("exact_cap must be >= 1")


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

class _Holders:
    """The edges whose stored dead set holds edge `e`, as a `stop`.

    `x in holders` bisects x's live slot for `e`, so an edge whose slot
    was cleared drops out at once, and any stored tuple holding `e` counts.
    """

    __slots__ = ("slots", "e")

    def __init__(self, slots: list, e: int):
        self.slots, self.e = slots, e

    def __contains__(self, x: int) -> bool:
        dead_set = self.slots[x]
        if not dead_set:
            return False
        i = bisect_left(dead_set, self.e)
        return i < len(dead_set) and dead_set[i] == self.e


class DeadSetMemo:
    """Each edge's dead set in `t`, kept until a commit's region meets it.

    All three greedy solvers read follower counts through one: `baseline`
    for every alive edge, `gp_edge` and `up_edge` through `_scan`.

    A dead set is the edge plus its followers, ascending.  A simulation
    reads nothing outside the triangles of its own dead set, so after a
    commit only the dead sets meeting `cascade.commit_region` (or any
    superset of it) can change.  An edge without followers stores the
    empty tuple.

    A miss for e stops its simulation at the first dead edge x whose
    stored slot holds e, and e takes x's tuple: x died in e's peel, so
    x is in D(e), and e is in D(x), so D(x) = D(e) (`simulate_followers`
    says why).  Whether a stop is exact depends on x's slot alone, and
    every stored slot is current.  `held[x]` is set for each member x of
    a freshly stored tuple and never cleared; a miss for an edge that no
    stored set has ever held simulates without a stop.  A miss whose dead
    set equals a stored one always stops (the peel kills that set's
    holder), so equal dead sets share one tuple, every member of a
    support group included.
    """

    def __init__(self, t: TrussSubgraph):
        self.t = t
        self.slots: list[Optional[tuple[int, ...]]] = [None] * t.graph.m
        self.shared: set[tuple[int, ...]] = set()
        self.held = bytearray(t.graph.m)

    def dead_set(self, e: int) -> tuple[int, ...]:
        """The stored dead set of alive edge `e`, simulated when none is stored."""
        slots = self.slots
        dead_set = slots[e]
        if dead_set is None:
            stop = _Holders(slots, e) if self.held[e] else ()
            # the module global, looked up per call, so wrappers of it see every simulation
            fl = simulate_followers(self.t, e, stop)
            if fl and fl[-1] in stop:
                dead_set = slots[fl[-1]]
            elif fl:
                fl.append(e)
                fl.sort()
                dead_set = tuple(fl)
                self.shared.add(dead_set)
                held = self.held
                for x in dead_set:
                    held[x] = 1
            else:
                dead_set = ()
            slots[e] = dead_set
        return dead_set

    def invalidate(self, region: set[int]) -> None:
        """Forget every dead set that meets `region`."""
        slots = self.slots
        for x in region:
            slots[x] = None  # an edge's own dead set holds it
        for dead_set in [d for d in self.shared if not region.isdisjoint(d)]:
            self.shared.remove(dead_set)
            for x in dead_set:  # every edge sharing a dead set lies in it
                if slots[x] is dead_set:
                    slots[x] = None


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
    it exactly.  It is the group's smallest member, so only the edges it
    drags down join the pool.  When nothing has followers, or there are no
    candidates, the smallest alive edge is chosen, as the reference scan does.
    """
    if best_f <= 0:
        e = t.alive.find(1)
        if e < 0:
            raise ContractViolation("no alive edge to choose from")
        return e
    pool: list[int] = []
    for c in ties:
        pool.append(c)
        grp = rep_group.get(c)
        if grp is not None:
            pool.extend(grp.pruned_followers)
    return min(pool)


def _record(t: TrussSubgraph, eid: int, followers: int, candidates_total: int,
            candidates_evaluated: int, start: float) -> IterationRecord:
    """The record of a `support`, `baseline`, `gp_edge` or `up_edge` iteration
    that deleted `eid` and began at the `time.perf_counter()` reading `start`."""
    return IterationRecord(
        edge=t.graph.original_pair(eid), eid=eid, followers=followers,
        candidates_total=candidates_total, candidates_evaluated=candidates_evaluated,
        time_ms=(time.perf_counter() - start) * 1000.0)


# -- solvers --------------------------------------------------------------------

def solve_baseline(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy reference: the exact follower count of every alive edge, each iteration.

    Dead sets come from a `DeadSetMemo`, so an edge is simulated again
    only after a commit's `commit_region` meets its dead set.
    """
    records: list[IterationRecord] = []
    memo = DeadSetMemo(t)
    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        alive = t.alive_edge_ids()
        best_f, best_e = -1, -1
        for e in alive:
            dead_set = memo.dead_set(e)
            f = len(dead_set) - 1 if dead_set else 0
            if f > best_f:
                best_f, best_e = f, e
        dead, log = _commit(t, best_e, best_f)
        memo.invalidate(commit_region(t, dead, log))
        records.append(_record(t, best_e, best_f, len(alive), len(alive), start))
    return [r.eid for r in records], records


def solve_support(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Heuristic: delete the weakest triangle partner of the weakest edge.

    The weakest edge is the alive edge smallest by (support, edge id), so
    it is the first alive edge holding the lowest alive support.  The only
    state kept across iterations is `level`, never above that support:
    after each cascade every alive edge of the k-truss has support at least
    k-2, so it starts there, and after a commit it falls to the lowest
    support the commit's `log` leaves on an alive edge (supports only fall,
    and every fallen one is logged).  `list.index` then finds the edges
    holding `level` at C speed; a dead edge keeps the support it died with,
    so the Python loop steps over dead edges only where they hold `level`,
    and since a peeled edge dies below k-2 those are committed seeds.  When
    no alive edge holds `level`, it rises to the lowest alive support.
    """
    partners_of = t.graph.triangle_index()
    alive, sup = t.alive, t.sup
    level = t.k - 2
    records: list[IterationRecord] = []
    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates_total = t.edge_count
        e_min = -1
        while True:
            try:
                e_min = sup.index(level, e_min + 1)
            except ValueError:
                level, e_min = min(compress(sup, alive)), -1
                continue
            if alive[e_min]:
                break
        partners: set[int] = set()
        it = iter(partners_of[e_min])
        for x, y in zip(it, it):
            if alive[x] and alive[y]:
                partners.add(x)
                partners.add(y)
        # inside a truss with k >= 3 every edge sits in a triangle
        if not partners:
            raise ContractViolation(f"minimum-support edge id {e_min} has no alive triangle")
        e_star = min(partners, key=lambda e: (sup[e], e))
        dead, log = _commit(t, e_star)
        for o in log:
            if alive[o] and sup[o] < level:
                level = sup[o]
        records.append(_record(t, e_star, len(dead) - 1, candidates_total, 0, start))
    return [r.eid for r in records], records


def solve_exact(t: TrussSubgraph, b: int,
                cap: int = DEFAULT_EXACT_CAP) -> tuple[list[int], list[IterationRecord]]:
    """Enumerate every b-subset jointly and keep the best.

    Each subset is peeled and undone as a simulation is (`truss._peel`,
    `truss._undo`).  Ties resolve to the lexicographically smallest
    edge-id sequence, which is the first one enumerated.  Refuses to run
    past `cap` combinations.
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
        dead, lowered = _peel(t, combo)
        _undo(t, dead, lowered)
        f = len(dead) - len(combo)
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


class _ScanOrder:
    """A greedy solver's candidates as ascending keys `(m - bound) * m + e`.

    Ascending keys run by descending bound, then ascending edge id, the
    order `_scan` evaluates in.  `candidates` is the live candidate set of
    a `SupportGroupIndex` and `bound` a per-edge bound list: the live
    `GroupIndex.bound`, or `gp_edge`'s constant `[m] * m`, under which a
    key is the edge id.  `key` maps each candidate to its entry in `keys`.
    After a commit, `rekey` re-reads the given edges only, so keeping the
    order costs what the commit changed, not the candidate count.
    """

    __slots__ = ("m", "candidates", "bound", "key", "keys")

    def __init__(self, m: int, candidates: set[int], bound: list[int]):
        self.m, self.candidates, self.bound = m, candidates, bound
        self.key: dict[int, int] = {c: (m - bound[c]) * m + c for c in candidates}
        self.keys = sorted(self.key.values())

    def rekey(self, edges: Iterable[int]) -> None:
        """Move every edge of `edges` to its current key, or out of the order.

        `edges` must hold each edge whose candidacy or bound changed since
        the last call; other edges may appear, and repeat, at no harm.
        """
        m, candidates, bound, key, keys = self.m, self.candidates, self.bound, self.key, self.keys
        for e in edges:
            old = key.pop(e, None)
            new = None
            if e in candidates:
                new = (m - bound[e]) * m + e
                key[e] = new
            if new != old:
                if old is not None:
                    del keys[bisect_left(keys, old)]
                if new is not None:
                    insort(keys, new)


def _scan(order: _ScanOrder, memo: DeadSetMemo) -> tuple[int, list[int], int]:
    """Evaluate the candidates by descending bound; returns (best_f, ties, evaluated).

    The candidates are read in `order.keys` order, by (-bound, edge id),
    which the solver keeps across commits; the scan builds no list, dict
    or sort over all candidates, so its cost follows the candidates it
    reads and the followers of those it evaluates.

    Once something beats a positive score, every candidate whose bound
    falls below it is skipped; bound-zero candidates are never evaluated.
    A candidate that shows up in an evaluated candidate's follower set is
    skipped when its bound equals its remover's (it cannot do strictly
    better than its remover) or falls below the remover's score (it cannot
    tie the maximum).  Skipped candidates whose remover holds the maximum
    are re-evaluated once at the end, by ascending edge id: they may tie
    it exactly, and ties decide the chosen edge.

    Follower counts come from `memo`, which simulates a candidate only
    when no dead set of it is stored; `evaluated` counts the candidates
    consulted, whether the memo held their count or not.
    """
    m, key, dead_set_of = order.m, order.key, memo.dead_set
    fvals: dict[int, int] = {}
    # skipped candidate -> the evaluated candidate whose followers hold it
    removed_by: dict[int, int] = {}
    best_f = -1
    ties: list[int] = []
    evaluated = 0
    for kc in order.keys:
        q, c = divmod(kc, m)
        ub = m - q
        if ub == 0:
            break
        if best_f > 0 and ub < best_f:
            break
        if c in removed_by:
            continue
        dead_set = dead_set_of(c)
        f = len(dead_set) - 1 if dead_set else 0
        fvals[c] = f
        evaluated += 1
        if f > best_f:
            best_f, ties = f, [c]
        elif f == best_f:
            ties.append(c)
        for x in dead_set:
            if x in fvals or x in removed_by:
                continue
            kx = key.get(x)
            if kx is None:
                continue
            ub_x = m - kx // m
            if ub_x == ub or ub_x < f:
                removed_by[x] = c
    # a skipped candidate is never evaluated above, and only candidates are skipped
    for c in sorted(removed_by):
        if fvals[removed_by[c]] != best_f:
            continue
        evaluated += 1
        # best_f > 0 here (c follows its remover), so an empty dead set never ties
        if len(dead_set_of(c)) - 1 == best_f:
            ties.append(c)
    return best_f, ties, evaluated


def solve_gp_edge(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy over the reduced candidate set.

    Every candidate gets the same bound, the graph's edge count, so `_scan`
    evaluates them in ascending edge-id order, never stops early, and skips
    every candidate that shows up in an evaluated candidate's follower set.
    The order is kept across commits: each commit re-keys only the edges
    whose candidacy the support-group index's update may have changed.
    Follower counts come from a `DeadSetMemo`, as in the other two greedy
    solvers: each commit's `commit_region` is computed once and fed to
    both the support-group index and the memo.
    """
    records: list[IterationRecord] = []
    support_groups = SupportGroupIndex(t)
    memo = DeadSetMemo(t)
    m = t.graph.m
    order = _ScanOrder(m, support_groups.candidates, [m] * m)
    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates_total = len(order.keys)
        best_f, ties, evaluated = _scan(order, memo)
        e_star = _choose_from_ties(t, best_f, ties, support_groups.rep_group)
        followers = max(best_f, 0)
        dead, log = _commit(t, e_star, followers)
        region = commit_region(t, dead, log)
        support_groups.update(region)
        memo.invalidate(region)
        order.rekey(support_groups.changed)
        records.append(_record(t, e_star, followers, candidates_total, evaluated, start))
    return [r.eid for r in records], records


def _two_level_tau(t: TrussSubgraph) -> TrussSubgraph:
    """The (k+1)-truss nested inside the k-truss `t`, as its own `TrussSubgraph`.

    The bound index only asks whether a truss edge has trussness exactly k
    or more, and it has more exactly when it is alive here, so one extra
    peel replaces a full decomposition.  After each commit to `t`, passing
    the commit's dead list to `upper.cascade` keeps this the (k+1)-truss of
    the reduced graph: that truss lies inside the reduced k-truss, so it
    holds none of the dead edges.

    The (k+1)-truss of the reduced graph lies inside both the graph's own
    (k+1)-truss and `t`, and is the largest edge set there with support at
    least k-1, so it is the graph's (k+1)-level (from the truss cache, see
    `k_truss`) with the edges dead in `t` cascaded out.  A fresh `t` has
    none of those, and a repeated solve on one graph peels neither level
    again.
    """
    upper = k_truss(t.graph, t.k + 1)
    # Both alive arrays hold one 0/1 byte per edge, so one big-int AND-NOT
    # marks the edges dead in `t` that `upper` still holds, and `compress`
    # takes them without a Python step per edge.
    lost = int.from_bytes(upper.alive, "little") & ~int.from_bytes(t.alive, "little")
    upper.cascade(compress(range(t.graph.m), lost.to_bytes(t.graph.m, "little")))
    return upper


def solve_up_edge(t: TrussSubgraph, b: int) -> tuple[list[int], list[IterationRecord]]:
    """Greedy with bound-ordered scanning and early stopping.

    Each candidate's upper bound on its follower count (the sizes of the
    truss groups it touches) is read from the group index's maintained
    `bound` list into a `_ScanOrder` that `_scan` walks.  The early stop is
    strict, so equal-bound candidates are still evaluated and exact ties
    keep the shared smallest-edge-id break.  The order is kept across
    commits: after each one, only the edges whose bound the refresh moved
    (`idx.moved`) are re-keyed, so an iteration's bookkeeping follows its
    commit, not the candidate count.  Those edges also hold every edge whose
    candidacy the commit changed (`support_groups.changed`): a support
    group lies inside one truss group, and its over-adjacent edges in that
    group's touch set, so the support groups a commit dissolves or grows
    lie in truss groups the refresh dissolves or grows.  Each commit cascades through both the k-truss
    and the nested (k+1)-truss, and `commit_region` is computed once per
    commit over what the two cascades changed.  That region holds the
    k-truss commit's own region, so the one set feeds all three maintained
    structures: the support-group index, the truss-group index with its
    bounds, and the `DeadSetMemo` the scan reads follower counts from.
    """
    records: list[IterationRecord] = []
    upper = _two_level_tau(t)
    idx = build_truss_group_index(t, upper)
    support_groups = SupportGroupIndex(t)
    memo = DeadSetMemo(t)
    order = _ScanOrder(t.graph.m, support_groups.candidates, idx.bound)

    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates_total = len(order.keys)
        best_f, ties, evaluated = _scan(order, memo)
        e_star = _choose_from_ties(t, best_f, ties, support_groups.rep_group)
        followers = max(best_f, 0)
        dead, log = _commit(t, e_star, followers)
        region = commit_region(t, dead + upper.cascade(dead), log)
        support_groups.update(region)
        idx = refresh_index(idx, region)
        memo.invalidate(region)
        order.rekey(idx.moved)
        records.append(_record(t, e_star, followers, candidates_total, evaluated, start))
    return [r.eid for r in records], records


# -- dispatcher ---------------------------------------------------------------

def solve(g: Graph, cfg: SolverConfig) -> MinimizationReport:
    """Take T_k from `k_truss`, run the configured solver, assemble the report.

    `k_truss` peels T_k on the first solve at k on a graph; later solves
    at k clone the graph's cached copy.
    """
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
        _, records = solve_exact(t, cfg.b, cap=cfg.exact_cap)
    elif cfg.algorithm == "support":
        _, records = solve_support(t, cfg.b)
    elif cfg.algorithm == "baseline":
        _, records = solve_baseline(t, cfg.b)
    elif cfg.algorithm == "gp_edge":
        _, records = solve_gp_edge(t, cfg.b)
    else:
        _, records = solve_up_edge(t, cfg.b)

    report.iterations = records
    report.followers_total = sum(r.followers for r in records)
    report.final_truss_edges = t.edge_count
    report.b_effective = len(records)
    if report.b_effective < cfg.b:
        report.warnings.append(
            f"truss emptied after {report.b_effective} deletions; budget was {cfg.b}")
    report.time_ms_total = (time.perf_counter() - start) * 1000.0
    return report

