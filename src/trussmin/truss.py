"""k-truss extraction, truss decomposition and trussness maintenance.

A k-truss here is edge-centric: the surviving edge set of the peeling
process that repeatedly removes edges supported by fewer than k-2 alive
triangles.  Trussness tau(e) is the largest k for which e survives; edges
in no triangle carry the sentinel tau = 2.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .errors import ContractViolation
from .graph import Graph


class TrussSubgraph:
    """Alive edge set of one k-truss plus the counters the cascade needs.

    Holds per-edge support within the alive set, and per-triangle liveness
    flags so a cascade can destroy each triangle exactly once.  All solver
    loops mutate one instance in place; candidate evaluation uses a change
    log and rolls back (see `cascade`).
    """

    __slots__ = ("graph", "k", "alive", "sup", "tri_alive", "edge_count")

    def __init__(self, graph: Graph, k: int, alive: bytearray, sup: list[int],
                 tri_alive: bytearray, edge_count: int):
        self.graph = graph
        self.k = k
        self.alive = alive
        self.sup = sup
        self.tri_alive = tri_alive
        self.edge_count = edge_count

    def clone(self) -> "TrussSubgraph":
        return TrussSubgraph(self.graph, self.k, bytearray(self.alive),
                             list(self.sup), bytearray(self.tri_alive), self.edge_count)

    def alive_edge_ids(self) -> list[int]:
        return [e for e in range(self.graph.m) if self.alive[e]]

    def min_alive_edge(self) -> Optional[int]:
        for e in range(self.graph.m):
            if self.alive[e]:
                return e
        return None

    # -- cascade engine ------------------------------------------------------

    def cascade(self, seeds: Iterable[int], log: Optional[list[int]] = None) -> list[int]:
        """Delete `seeds` and peel every edge whose support drops below k-2.

        Returns the dead edges (seeds first, then followers in removal
        order).  When `log` is given it receives one flat int per state
        change: `~t` for each killed triangle t and the edge id for each
        support decrement.  Together with the returned dead list that is
        everything `rollback` needs, and everything a maintained index
        needs to find the region the cascade touched.
        """
        tris, edge_tris = self.graph.triangle_index()
        alive, sup, tri_alive = self.alive, self.sup, self.tri_alive
        threshold = self.k - 2
        push = log.append if log is not None else None
        dead: list[int] = []
        for e in seeds:
            if alive[e]:
                alive[e] = 0
                dead.append(e)
        stack = list(dead)
        while stack:
            e = stack.pop()
            for t in edge_tris[e]:
                if not tri_alive[t]:
                    continue
                tri_alive[t] = 0
                if push is not None:
                    push(~t)
                for o in tris[t]:
                    if not alive[o]:
                        continue
                    sup[o] -= 1
                    if push is not None:
                        push(o)
                    if sup[o] < threshold:
                        alive[o] = 0
                        dead.append(o)
                        stack.append(o)
        self.edge_count -= len(dead)
        return dead

    def rollback(self, log: list[int], dead: list[int]) -> None:
        """Undo a logged `cascade`; `dead` is the list that cascade returned."""
        sup, tri_alive, alive = self.sup, self.tri_alive, self.alive
        for x in log:
            if x < 0:
                tri_alive[~x] = 1
            else:
                sup[x] += 1
        for e in dead:
            alive[e] = 1
        self.edge_count += len(dead)


def k_truss(g: Graph, k: int) -> TrussSubgraph:
    """Extract the k-truss: start from every edge and triangle, then peel.

    Supports start as raw triangle counts, and every edge below k-2 seeds
    one cascade.  Only alive edges keep exact supports afterwards: a peeled
    edge keeps whatever count it had when it died, and no reader looks at
    the support of a dead edge.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    tris, edge_tris = g.triangle_index()
    m = g.m
    sup = list(map(len, edge_tris))
    sub = TrussSubgraph(g, k, bytearray(b"\x01") * m, sup,
                        bytearray(b"\x01") * len(tris), m)
    sub.cascade(e for e in range(m) if sup[e] < k - 2)
    return sub


class TrussnessMap:
    """Per-edge trussness over the graph minus any deleted edges."""

    __slots__ = ("graph", "values", "alive")

    def __init__(self, graph: Graph, values: list[int], alive: bytearray):
        self.graph = graph
        self.values = values
        self.alive = alive

    def copy(self) -> "TrussnessMap":
        return TrussnessMap(self.graph, list(self.values), bytearray(self.alive))

    def max_trussness(self) -> int:
        vals = [self.values[e] for e in range(self.graph.m) if self.alive[e]]
        return max(vals) if vals else 0


def truss_decompose(g: Graph) -> TrussnessMap:
    """Trussness of every edge by ascending-support peeling.

    Bucket-queue peel: edges enter buckets by triangle count (ids ascending
    within the initial buckets, so ties start from the smallest edge id),
    fall into lower buckets as their triangles die, and receive tau = peel
    floor + 2.  The assigned values do not depend on within-bucket order.
    """
    m = g.m
    tris, edge_tris = g.triangle_index()
    alive_now = bytearray(b"\x01") * m
    tri_alive = bytearray(b"\x01") * len(tris)
    sup = list(map(len, edge_tris))
    tau = [2] * m
    max_sup = max(sup, default=0)
    buckets: list[list[int]] = [[] for _ in range(max_sup + 1)]
    for e, s in enumerate(sup):
        buckets[s].append(e)
    pos = [0] * (max_sup + 1)
    level = 0
    while level <= max_sup:
        bucket = buckets[level]
        if pos[level] >= len(bucket):
            level += 1
            continue
        e = bucket[pos[level]]
        pos[level] += 1
        if not alive_now[e] or sup[e] != level:
            continue  # moved to another bucket since it was queued
        tau[e] = level + 2
        alive_now[e] = 0
        for t in edge_tris[e]:
            if not tri_alive[t]:
                continue
            tri_alive[t] = 0
            for o in tris[t]:
                if alive_now[o]:
                    s = sup[o] - 1
                    if s < level:
                        s = level  # the peel floor is monotone
                    sup[o] = s
                    buckets[s].append(o)
        # a decrement may have refilled a lower bucket
        if level and pos[level - 1] < len(buckets[level - 1]):
            level -= 1
    return TrussnessMap(g, tau, bytearray(b"\x01") * m)


def update_after_deletion(g: Graph, tau_map: TrussnessMap,
                          e: tuple[int, int]) -> tuple[TrussnessMap, set[int]]:
    """Delete one edge and repair trussness locally.

    Returns a fresh map plus the set of edges whose trussness changed;
    each changed edge drops by exactly one level.  The repair re-peels,
    per affected level, only the region reachable from the triangles the
    deleted edge destroyed, which matches a from-scratch recomputation
    (enforced by the oracle-equivalence tests).
    """
    eid = g.edge_id(*e)
    if not tau_map.alive[eid]:
        raise ContractViolation(f"edge {e} already deleted")
    tris, edge_tris = g.triangle_index()
    old = tau_map.values
    new_map = tau_map.copy()
    new_map.alive[eid] = 0
    alive = new_map.alive
    te = old[eid]

    # Seed each level with the edges that just lost a contributing triangle:
    # a triangle counts toward tau(x) only while both other edges sit at
    # tau >= tau(x).
    seeds: dict[int, set[int]] = {}
    for t in edge_tris[eid]:
        a, b, c = tris[t]
        others = [x for x in (a, b, c) if x != eid]
        x, y = others
        if not (alive[x] and alive[y]):
            continue
        tx, ty = old[x], old[y]
        if tx >= 3 and ty >= tx and te >= tx:
            seeds.setdefault(tx, set()).add(x)
        if ty >= 3 and tx >= ty and te >= ty:
            seeds.setdefault(ty, set()).add(y)

    changed: set[int] = set()
    for level, seed_edges in seeds.items():
        demoted: set[int] = set()
        s: dict[int, int] = {}

        def level_support(x: int) -> int:
            cnt = 0
            for t in edge_tris[x]:
                a, b, c = tris[t]
                ok = True
                for o in (a, b, c):
                    if o == x:
                        continue
                    if not alive[o] or o in demoted or old[o] < level:
                        ok = False
                        break
                if ok:
                    cnt += 1
            return cnt

        queue = deque()
        for x in seed_edges:
            s[x] = level_support(x)
            if s[x] < level - 2:
                queue.append(x)
        while queue:
            x = queue.popleft()
            if x in demoted or s[x] >= level - 2:
                continue
            for t in edge_tris[x]:
                a, b, c = tris[t]
                others = [o for o in (a, b, c) if o != x]
                p, q = others
                if not (alive[p] and alive[q]):
                    continue
                # The triangle counted for y while x and the third edge both
                # sat at level or above; x is about to fall below.  x joins
                # the demoted set only after this loop so that lazy support
                # counts still include its triangles and the decrements here
                # stay consistent.
                for y, z in ((p, q), (q, p)):
                    if old[y] != level or y in demoted:
                        continue
                    if z in demoted or old[z] < level:
                        continue
                    if y not in s:
                        s[y] = level_support(y)
                    s[y] -= 1
                    if s[y] < level - 2:
                        queue.append(y)
            demoted.add(x)
        for x in demoted:
            new_map.values[x] = level - 1
            changed.add(x)
    return new_map, changed
