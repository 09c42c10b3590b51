"""k-truss extraction, truss decomposition and trussness maintenance.

A k-truss here is edge-centric: the surviving edge set of the peeling
process that repeatedly removes edges supported by fewer than k-2 alive
triangles.  Trussness tau(e) is the largest k for which e survives; edges
in no triangle carry the sentinel tau = 2.

`_peel` is the one peel loop behind every deletion.  `TrussSubgraph.cascade`
runs it for every deletion that stays: `k_truss` peels one k with it,
`truss_decompose` walks it up the levels in O(m + triangles), and the
solvers commit through it.  Simulated deletions
(`cascade.simulate_followers`) run it directly, stop it early and undo it
from the lists it returns.  A peeled k-truss depends only on (graph, k), so
`k_truss` keeps the graph's last two levels frozen on the graph and hands
every caller a fresh clone: the solvers' repeated `solve()` calls on one
graph peel each level once.  The level walks of `truss_decompose` and
`update_after_deletion` start from an uncached peel (`_peel_graph`), so
they neither fill nor evict those levels.  `update_after_deletion` reruns
that level walk over the graph minus the deleted edges, also in
O(m + triangles); it is not a local repair.
"""

from __future__ import annotations

from array import array
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

    # -- cascade engine ------------------------------------------------------

    def cascade(self, seeds: Iterable[int], log: Optional[list[int]] = None) -> list[int]:
        """Delete `seeds` and peel every edge whose support drops below k-2.

        Returns the dead edges (seeds first, then followers in removal
        order).  When `log` is given it receives one flat int per state
        change: `~t` for each killed triangle t and the edge id for each
        support decrement.  The log is a multiset in no promised order.
        Together with the returned dead list that is everything `rollback`
        needs, and everything a maintained index needs to find the region
        the cascade touched.
        """
        dead, killed, lowered = _peel(self, seeds, record=log is not None)
        self.edge_count -= len(dead)
        if log is not None:
            log.extend([~ti for ti in killed])
            log.extend(lowered)
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


# Appending to it keeps nothing: where a peel's undo lists go when no one
# will undo it.
_DISCARD = deque(maxlen=0)


def _peel(t: TrussSubgraph, seeds: Iterable[int], stop: int = -1,
          record: bool = True) -> tuple[list[int], list[int], list[int]]:
    """The peel loop behind every deletion: (dead, killed, lowered).

    Kills each alive seed, then peels every edge whose support drops below
    k-2.  `dead` lists the seeds first, then the followers in removal
    order; `killed` lists the killed triangles and `lowered` every support
    decrement, which is all it takes to undo the peel.  With `record`
    false both come back empty, so a peel that stays (a whole-graph peel
    kills most triangles) holds no lists it would throw away.  Returns as
    soon as the edge `stop` dies, with `stop` last (the default -1 never
    stops).  `t.edge_count` is left as it was.
    """
    tris, edge_tris = t.graph.triangle_index()
    alive, sup, tri_alive = t.alive, t.sup, t.tri_alive
    threshold = t.k - 2
    dead: list[int] = []
    for e in seeds:
        if alive[e]:
            alive[e] = 0
            dead.append(e)
    killed: list[int] = []
    lowered: list[int] = []
    kill, lower = (killed.append, lowered.append) if record else (_DISCARD.append,) * 2
    stack = list(dead)
    while stack:
        e = stack.pop()
        for ti in edge_tris[e]:
            if not tri_alive[ti]:
                continue
            tri_alive[ti] = 0
            kill(ti)
            for o in tris[ti]:
                if not alive[o]:
                    continue
                sup[o] -= 1
                lower(o)
                if sup[o] < threshold:
                    alive[o] = 0
                    dead.append(o)
                    if o == stop:
                        return dead, killed, lowered
                    stack.append(o)
    return dead, killed, lowered


# Truss levels a graph keeps cached: enough for `solve_up_edge`'s k and k+1.
CACHED_LEVELS = 2


def peel_to(t: TrussSubgraph, k: int) -> TrussSubgraph:
    """Peel `t`, a truss at some level up to k, in place to the k-truss; returns `t`.

    Every alive edge below k-2 seeds one cascade.
    """
    alive, sup = t.alive, t.sup
    t.k = k
    t.cascade([e for e in range(t.graph.m) if alive[e] and sup[e] < k - 2])
    return t


def _peel_graph(g: Graph, k: int) -> TrussSubgraph:
    """The k-truss peeled from every edge and triangle, bypassing the cache."""
    tris, edge_tris = g.triangle_index()
    m = g.m
    return peel_to(TrussSubgraph(g, k, bytearray(b"\x01") * m, list(map(len, edge_tris)),
                                 bytearray(b"\x01") * len(tris), m), k)


def _thaw(g: Graph, k: int, level: tuple) -> TrussSubgraph:
    alive, sup, tri_alive, edge_count = level
    return TrussSubgraph(g, k, bytearray(alive), list(sup), bytearray(tri_alive), edge_count)


def k_truss(g: Graph, k: int) -> TrussSubgraph:
    """The k-truss of `g`, as a fresh `TrussSubgraph` the caller owns.

    The peel depends only on (g, k), so the graph keeps a frozen copy of
    its last `CACHED_LEVELS` levels and a repeated call clones one.  A miss
    peels from the cached (k-1)-level when there is one, else from scratch
    (`_peel_graph`).  Only alive edges keep exact supports afterwards: a
    peeled edge keeps whatever count it had when it died, which may differ
    between the two routes, and no reader looks at the support of a dead
    edge.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    cache = g._truss_cache
    level = cache.get(k)
    if level is not None:
        return _thaw(g, k, level)
    below = cache.get(k - 1)
    t = _peel_graph(g, k) if below is None else peel_to(_thaw(g, k - 1, below), k)
    if len(cache) >= CACHED_LEVELS:
        del cache[next(iter(cache))]  # the oldest level
    cache[k] = (bytes(t.alive), array("i", t.sup), bytes(t.tri_alive), t.edge_count)
    return t


class TrussnessMap:
    """Per-edge trussness over the graph minus any deleted edges."""

    __slots__ = ("graph", "values", "alive")

    def __init__(self, graph: Graph, values: list[int], alive: bytearray):
        self.graph = graph
        self.values = values
        self.alive = alive

    def max_trussness(self) -> int:
        vals = [self.values[e] for e in range(self.graph.m) if self.alive[e]]
        return max(vals) if vals else 0


def _level_walk(t: TrussSubgraph, tau: list[int], alive: bytearray) -> TrussnessMap:
    """Walk the 3-truss `t` up the levels, writing each edge's trussness.

    Raises the threshold one level at a time: the edges of the k-truss that
    fall when k becomes k+1 get tau = k.  Each level scans only the edges
    still alive for seeds.  An edge with tau = k is scanned at k-2 levels
    and sits in at least k-2 triangles, so the scans total O(m + triangles),
    as do the cascades, which kill each triangle once.  Edges outside `t`
    keep the value they have in `tau`.
    """
    live = t.alive_edge_ids()
    k = 3
    while live:
        t.k = k + 1
        for e in t.cascade([e for e in live if t.sup[e] < k - 1]):
            tau[e] = k
        live = [e for e in live if t.alive[e]]
        k += 1
    return TrussnessMap(t.graph, tau, alive)


def truss_decompose(g: Graph) -> TrussnessMap:
    """Trussness of every edge: the level walk from the full 3-truss."""
    return _level_walk(_peel_graph(g, 3), [2] * g.m, bytearray(b"\x01") * g.m)


def update_after_deletion(g: Graph, tau_map: TrussnessMap,
                          e: tuple[int, int]) -> tuple[TrussnessMap, set[int]]:
    """Delete one edge and recompute trussness over what is left.

    Reruns the level walk over the 3-truss of the graph minus every deleted
    edge, in O(m + triangles); it is not a local repair.  Returns a fresh
    map plus the set of alive edges whose trussness changed; each changed
    edge drops by exactly one level.  Deleted edges keep their last value.
    """
    eid = g.edge_id(*e)
    if not tau_map.alive[eid]:
        raise ContractViolation(f"edge {e} already deleted")
    alive = bytearray(tau_map.alive)
    alive[eid] = 0
    old = tau_map.values
    t = _peel_graph(g, 3)
    t.cascade(x for x in range(g.m) if not alive[x])
    new_map = _level_walk(t, [2 if alive[x] else old[x] for x in range(g.m)], alive)
    changed = {x for x in range(g.m) if alive[x] and new_map.values[x] != old[x]}
    return new_map, changed
