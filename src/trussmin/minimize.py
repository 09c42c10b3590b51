"""Budgeted edge-deletion solvers over one k-truss.

Five strategies behind one dispatcher: exhaustive subset search, a
minimum-support heuristic, the full greedy scan, greedy over the reduced
candidate set (GP-Edge), and greedy with upper-bound ordered early-stopping
(UP-Edge).  GP-Edge and UP-Edge run one greedy loop, `_solve_greedy`, and
differ only in the bound source they hand it: a constant bound, under
which the scan runs in edge-id order, or the truss-group bound, which
orders the scan and stops it early.  The three greedy variants share a
single tie-break rule (smallest edge id among all edges achieving the
maximum follower count) so their chosen edges and per-iteration counts
are bit-identical.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import combinations, compress
from typing import Callable, Iterable, Optional, Sequence

from .cascade import commit_region, simulate_followers
from .errors import ContractViolation, EnumerationCapExceeded, require_int
from .graph import Graph
from .groups import SupportGroup, SupportGroupIndex, build_truss_group_index, refresh_index
from .truss import TrussSubgraph, _k_truss, _peel, _undo, k_truss, parked
# unused here, but the benchmark tracer (perfbench/spans.py) patches these names
from .groups import find_support_groups  # noqa: F401
from .truss import update_after_deletion  # noqa: F401

DEFAULT_EXACT_CAP = 2_000_000


@dataclass(frozen=True)
class SolverConfig:
    """What to solve: truss level, deletion budget, strategy, knobs.

    Every algorithm is deterministic and sequential; there is no seed
    anywhere.  `threads` is validated (>= 1) but ignored; `exact_cap`, the
    exact solver's refusal threshold, must be at least 1 too.  Every number
    must be a plain int (`errors.require_int`), as every solver's budget
    must: a float budget, a NaN level or a bool is refused.
    """

    k: int
    b: int
    algorithm: str = "up_edge"
    threads: int = 1
    exact_cap: int = DEFAULT_EXACT_CAP

    def __post_init__(self):
        require_int("k", self.k, 3)
        require_int("budget b", self.b, 1)
        require_int("threads", self.threads, 1)
        require_int("exact_cap", self.exact_cap, 1)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


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
    An edge flagged follower-free has no slot, and its empty dead set holds
    no edge.
    """

    __slots__ = ("slots", "e")

    def __init__(self, slots: dict[int, tuple[int, ...]], e: int):
        self.slots, self.e = slots, e

    def __contains__(self, x: int) -> bool:
        dead_set = self.slots.get(x)
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
    superset of it) can change.  An edge without followers stores no
    slot: its byte in `zero` is set instead, and its dead set reads as the
    empty tuple.

    A miss for e stops its simulation at the first dead edge x whose
    stored slot holds e, and e takes x's tuple: x died in e's peel, so
    x is in D(e), and e is in D(x), so D(x) = D(e) (`simulate_followers`
    says why).  Whether a stop is exact depends on x's slot alone, and
    every stored slot is current.  `held` gains each member of a freshly
    stored tuple and never loses one; a miss for an edge that no stored
    set has ever held simulates without a stop.  A miss whose dead set
    equals a stored one always stops (the peel kills that set's holder),
    so equal dead sets share one tuple, every member of a support group
    included.

    An edge asked about and not invalidated since either holds a slot in
    the dict `slots` or is flagged in `zero`, never both.  `zero` holds
    one byte per graph edge, allocated with the memo (74 KB at scale 30);
    most edges of a truss have no followers (26,817 of 39,181 at scale 30,
    k = 10), and a flag keeps no int or dict entry for them.  `slots` and
    the set `held` follow the edges with followers that the solver asks
    about.
    """

    def __init__(self, t: TrussSubgraph):
        self.t = t
        self.slots: dict[int, tuple[int, ...]] = {}
        self.zero = bytearray(t.graph.m)
        self.shared: set[tuple[int, ...]] = set()
        self.held: set[int] = set()

    def dead_set(self, e: int) -> tuple[int, ...]:
        """The stored dead set of alive edge `e`, simulated when none is stored."""
        if self.zero[e]:
            return ()
        slots = self.slots
        dead_set = slots.get(e)
        if dead_set is None:
            stop = _Holders(slots, e) if e in self.held else ()
            # the module global, looked up per call, so wrappers of it see every simulation
            fl = simulate_followers(self.t, e, stop)
            if fl and fl[-1] in stop:
                dead_set = slots[fl[-1]]
            elif fl:
                fl.append(e)
                fl.sort()
                dead_set = tuple(fl)
                self.shared.add(dead_set)
                self.held.update(dead_set)
            else:
                self.zero[e] = 1
                return ()
            slots[e] = dead_set
        return dead_set

    def invalidate(self, region: set[int]) -> None:
        """Forget every dead set that meets `region`."""
        slots, zero = self.slots, self.zero
        for x in region:
            slots.pop(x, None)  # an edge's own dead set holds it
            zero[x] = 0
        for dead_set in [d for d in self.shared if not region.isdisjoint(d)]:
            self.shared.remove(dead_set)
            for x in dead_set:  # every edge sharing a dead set lies in it
                if slots.get(x) is dead_set:
                    del slots[x]


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
                      groups: dict[int, SupportGroup]) -> int:
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
        grp = groups.get(c)
        if grp is not None:
            pool.extend(grp.pruned_followers)
    return min(pool)


def _record(t: TrussSubgraph, eid: int, followers: int, candidates_total: int,
            candidates_evaluated: int, start: float) -> IterationRecord:
    """The record of a solver iteration that deleted `eid` and began at the
    `time.perf_counter()` reading `start`; every solver builds its records here."""
    return IterationRecord(
        edge=t.graph.original_pair(eid), eid=eid, followers=followers,
        candidates_total=candidates_total, candidates_evaluated=candidates_evaluated,
        time_ms=(time.perf_counter() - start) * 1000.0)


# -- solvers --------------------------------------------------------------------

def solve_baseline(t: TrussSubgraph, b: int) -> list[IterationRecord]:
    """Greedy reference: the exact follower count of every alive edge, each iteration.

    Dead sets come from a `DeadSetMemo`, so an edge is simulated again
    only after a commit's `commit_region` meets its dead set.  The sweep
    builds no list of the alive edge ids; every alive edge is evaluated, so
    both candidate counts are the edge count at the iteration's start.
    """
    require_int("budget b", b, 1)
    records: list[IterationRecord] = []
    memo = DeadSetMemo(t)
    m, alive = t.graph.m, t.alive
    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates = t.edge_count
        best_f, best_e = -1, -1
        # `compress` reads `alive` lazily, between simulations; each one
        # restores `alive` (`truss._undo`) before it returns, so the sweep
        # sees exactly the edges alive at the iteration's start
        for e in compress(range(m), alive):
            dead_set = memo.dead_set(e)
            f = len(dead_set) - 1 if dead_set else 0
            if f > best_f:
                best_f, best_e = f, e
        dead, log = _commit(t, best_e, best_f)
        memo.invalidate(commit_region(t, dead, log))
        records.append(_record(t, best_e, best_f, candidates, candidates, start))
    return records


def solve_support(t: TrussSubgraph, b: int) -> list[IterationRecord]:
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
    require_int("budget b", b, 1)
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
    return records


def solve_exact(t: TrussSubgraph, b: int,
                cap: int = DEFAULT_EXACT_CAP) -> list[IterationRecord]:
    """Enumerate every b-subset jointly and keep the best.

    Each subset is peeled and undone as a simulation is (`truss._peel`,
    `truss._undo`).  Ties resolve to the lexicographically smallest
    edge-id sequence, which is the first one enumerated.  Refuses to run
    past `cap` combinations.
    """
    require_int("budget b", b, 1)
    require_int("cap", cap, 1)
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
        lowered: list[int] = []
        dead = _peel(t, combo, lowered)
        _undo(t, dead, lowered)
        f = len(dead) - len(combo)
        if f > best_f:
            best_f, best_set = f, combo
    if best_set is None:
        raise ContractViolation("no edge subset was enumerated")
    # Commit the winning set one edge at a time so the report carries
    # per-edge records; marginal followers exclude the chosen set itself,
    # so they sum to the joint follower count.  The first record carries
    # the enumeration's time and count, each later one its own commit.
    chosen_set = set(best_set)
    records: list[IterationRecord] = []
    for e in best_set:
        dead = t.cascade([e])
        marginal = len([x for x in dead if x not in chosen_set])
        records.append(_record(t, e, marginal, ncomb, 0 if records else ncomb, start))
        start = time.perf_counter()
    if sum(r.followers for r in records) != best_f:
        raise ContractViolation(
            f"committing {list(best_set)} dropped {sum(r.followers for r in records)} "
            f"followers; enumeration found {best_f}")
    return records


class _ScanOrder:
    """A greedy solver's candidates as ascending keys `(m - bound) * m + e`.

    Ascending keys run by descending bound, then ascending edge id, the
    order `_scan` evaluates in.  `keys` holds them sorted, as an
    `array('q')`, and `kbound[e]` is the bound edge `e` was last keyed
    under, so an edge in the order has the key `(m - kbound[e]) * m + e`;
    the order keeps no dict and no int per candidate.  `cand` is the
    `SupportGroupIndex.cand` the order follows, read, never written.
    `bound` is the bound source's per-edge `array('i')`: the live
    `GroupIndex.bound`, or `gp_edge`'s constant one with m in every slot,
    under which a key is the edge id.

    The order starts from a rest form, the sorted keys (`_rest_order`)
    taken under `bound` as it stands, and copies them at C speed, as it
    copies `bound` into `kbound`: the rest form is left as it was handed
    in.  After a commit, `rekey` re-reads the given edges only, so keeping
    the order costs what the commit changed, not the candidate count.
    """

    __slots__ = ("m", "cand", "bound", "keys", "kbound")

    def __init__(self, m: int, cand: bytearray, bound: Sequence[int], keys: array):
        self.m, self.cand, self.bound = m, cand, bound
        self.keys, self.kbound = keys[:], array("i", bound)

    def rekey(self, edges: Iterable[int]) -> None:
        """Move every edge of `edges` to its current key, or out of the order.

        `edges` must hold each edge whose candidacy or bound changed since
        the last call; other edges may appear, and repeat, at no harm.  A
        key names its edge, and an edge holds at most one, so finding the
        key `kbound` gives it means the edge is in the order.
        """
        m, cand, bound, keys, kbound = self.m, self.cand, self.bound, self.keys, self.kbound
        for e in edges:
            old = (m - kbound[e]) * m + e
            i = bisect_left(keys, old)
            if i < len(keys) and keys[i] == old:
                if cand[e] and kbound[e] == bound[e]:
                    continue
                del keys[i]
            if cand[e]:
                insort(keys, (m - bound[e]) * m + e)
            kbound[e] = bound[e]


def _rest_order(t: TrussSubgraph, groups: SupportGroupIndex, bound: Sequence[int]) -> array:
    """A scan order's rest form: the sorted keys of the candidates of `groups` under `bound`."""
    m = t.graph.m
    return array("q", sorted((m - bound[c]) * m + c for c in groups.iter_candidates()))


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
    m, cand, kbound, dead_set_of = order.m, order.cand, order.kbound, memo.dead_set
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
            if x in fvals or x in removed_by or not cand[x]:
                continue
            ub_x = kbound[x]
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


def _two_level_tau(t: TrussSubgraph) -> TrussSubgraph:
    """The (k+1)-truss nested inside the k-truss `t`, as its own `TrussSubgraph`.

    The bound index only asks whether a truss edge has trussness exactly k
    or more, and it has more exactly when it is alive here, so one extra
    peel replaces a full decomposition; `groups.refresh_index` keeps it
    current after each commit to `t`.

    The (k+1)-truss of the reduced graph lies inside both the graph's own
    (k+1)-truss and `t`, and is the largest edge set there with support at
    least k-1, so it is the graph's (k+1)-level (from the truss cache, see
    `k_truss`) with the edges dead in `t` cascaded out.  A fresh `t` has
    none of those, and a repeated solve on one graph peels neither level
    again.  Only this truss's own cascades read its supports, so they stay
    the cached level's compact array (`truss._k_truss`), not a list.
    """
    upper = _k_truss(t.graph, t.k + 1, compact=True)
    # Both alive arrays hold one 0/1 byte per edge, so one big-int AND-NOT
    # marks the edges dead in `t` that `upper` still holds, and `compress`
    # takes them without a Python step per edge; a fresh `t` has lost
    # nothing, and skips that pass.
    lost = int.from_bytes(upper.alive, "little") & ~int.from_bytes(t.alive, "little")
    if lost:
        upper.cascade(compress(range(t.graph.m), lost.to_bytes(t.graph.m, "little")))
    return upper


def _solve_greedy(t: TrussSubgraph, b: int, groups: dict, source: str, bound: Sequence[int],
                  refresh: Callable[[list[int], set[int], list[int]], object]
                  ) -> list[IterationRecord]:
    """The greedy loop of `gp_edge` and `up_edge`; only the bound source differs.

    The source is the per-edge `bound` array the scan order reads, and
    `refresh(dead, region, changed)`, which brings the bounds up to date
    after a commit with that dead list and region and appends the edges
    whose bound moved to `changed`; `source` is its name.  Each iteration
    `_scan`s by descending bound, commits the tie-broken maximizer and
    computes its `commit_region` in `t` once, for the support-group index,
    the bound source and the `DeadSetMemo` alike.  The support-group index
    holds the candidates across commits, and the scan order their keys.
    The support groups and the bounds append the edges whose candidacy or
    bound the commit changed to one `changed` list; after them and the
    memo, the order re-keys that list once and it is cleared.

    `groups` is what `truss.parked(t)` returned: the loop lends the
    support-group index parked under `"support"`, whose `cand` the scan
    order reads, and the order's rest form parked under `source`, or
    builds what is not parked (`_rest_order`), and parks them there again
    as `truss.parked` describes.  The order works on a copy of the keys,
    so the rest form goes back as it was lent, even when it is empty.
    """
    records: list[IterationRecord] = []
    support_groups = groups.pop("support", None) or SupportGroupIndex(t)
    keys = groups.pop(source, None)
    if keys is None:
        keys = _rest_order(t, support_groups, bound)
    memo = DeadSetMemo(t)
    order = _ScanOrder(t.graph.m, support_groups.cand, bound, keys)
    changed: list[int] = []
    while len(records) < b and t.edge_count > 0:
        start = time.perf_counter()
        candidates_total = len(order.keys)
        best_f, ties, evaluated = _scan(order, memo)
        e_star = _choose_from_ties(t, best_f, ties, support_groups.groups)
        followers = max(best_f, 0)
        dead, log = _commit(t, e_star, followers)
        region = commit_region(t, dead, log)
        support_groups.update(t, region, changed)
        refresh(dead, region, changed)
        memo.invalidate(region)
        order.rekey(changed)
        changed.clear()
        records.append(_record(t, e_star, followers, candidates_total, evaluated, start))
    support_groups.rollback()
    groups["support"], groups[source] = support_groups, keys
    return records


def solve_gp_edge(t: TrussSubgraph, b: int) -> list[IterationRecord]:
    """Greedy over the reduced candidate set.

    Every edge's bound is the edge count m, so a scan key is the edge id:
    `_scan` evaluates the candidates in ascending edge-id order, never
    stops early, and skips every candidate that shows up in an evaluated
    candidate's follower set.  No bound ever moves, so a commit re-keys
    only the changed candidacies.
    """
    require_int("budget b", b, 1)
    m = t.graph.m
    return _solve_greedy(t, b, parked(t), "gp_edge", array("i", [m]) * m,
                         lambda dead, region, changed: None)


def solve_up_edge(t: TrussSubgraph, b: int) -> list[IterationRecord]:
    """Greedy with bound-ordered scanning and early stopping.

    An edge's bound is the total size of the truss groups it touches,
    read from the group index's maintained `bound`.  The early stop is
    strict, so equal-bound candidates are still evaluated and exact ties
    keep the shared smallest-edge-id break.  `groups.refresh_index` keeps the
    nested (k+1)-truss current after each commit and appends the edges whose
    bound moved to the loop's change list.  The three builders are module
    globals looked up per call, so wrappers of them see every call.

    The group index is the one parked on the graph's cached k-level
    (`truss.parked`), lent as `_solve_greedy` lends the support-group
    index, or built when none is parked; the refresh is handed `t` and a
    freshly thawed nested truss.
    """
    require_int("budget b", b, 1)
    groups = parked(t)  # before the nested level may evict the k-level
    upper = _two_level_tau(t)
    idx = groups.pop("truss", None) or build_truss_group_index(t, upper)
    records = _solve_greedy(t, b, groups, "up_edge", idx.bound, lambda dead, region, changed:
                            refresh_index(idx, t, upper, dead, region, changed))
    idx.rollback()
    groups["truss"] = idx
    return records


# -- dispatcher ---------------------------------------------------------------

_SOLVERS = {"exact": solve_exact, "support": solve_support, "baseline": solve_baseline,
            "gp_edge": solve_gp_edge, "up_edge": solve_up_edge}
ALGORITHMS = tuple(_SOLVERS)


def solve(g: Graph, cfg: SolverConfig) -> MinimizationReport:
    """Take T_k from `k_truss`, run the configured solver, assemble the report.

    `k_truss` peels T_k on the first solve at k on a graph; later solves
    at k clone the graph's cached copy.  Every solver returns no records
    on an empty T_k.
    """
    start = time.perf_counter()
    t = k_truss(g, cfg.k)
    initial = t.edge_count
    solver = _SOLVERS[cfg.algorithm]
    records = solver(t, cfg.b, cfg.exact_cap) if solver is solve_exact else solver(t, cfg.b)
    if initial == 0:
        warnings = [f"the {cfg.k}-truss is empty; nothing to delete"]
    elif len(records) < cfg.b:
        warnings = [f"truss emptied after {len(records)} deletions; budget was {cfg.b}"]
    else:
        warnings = []
    return MinimizationReport(
        k=cfg.k, b=cfg.b, algorithm=cfg.algorithm, iterations=records,
        initial_truss_edges=initial, final_truss_edges=t.edge_count,
        followers_total=sum(r.followers for r in records), b_effective=len(records),
        warnings=warnings, time_ms_total=(time.perf_counter() - start) * 1000.0)
