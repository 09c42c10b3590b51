"""k-truss extraction, truss decomposition and trussness maintenance.

A k-truss here is edge-centric: the surviving edge set of the peeling
process that repeatedly removes edges supported by fewer than k-2 alive
triangles.  Trussness tau(e) is the largest k for which e survives.
`truss_decompose` and `update_after_deletion` return it as a plain list
indexed by edge id, in which an edge in no triangle reads 2 and a deleted
edge reads 0.

`_peel` is the one peel loop behind every deletion.  `TrussSubgraph.cascade`
runs it for every deletion that stays: `k_truss` peels one k with it,
`truss_decompose` walks it up the levels in O(m + triangles), and the
solvers commit through it.  A deletion that is only tried runs `_peel`
directly and restores the truss with `_undo` from the peel's dead list and
decrements: `cascade.simulate_followers` (which may stop the peel early)
and the subset enumeration of `minimize.solve_exact`.  A truss keeps no
per-triangle state: a triangle is alive exactly when its three edges are,
and the peel walks the pairs of each edge's partner tuple
(`Graph.triangle_index`).

A peeled k-truss depends only on (graph, k), so `k_truss` keeps the
graph's last two levels frozen on the graph and hands every caller a
fresh clone: the solvers' repeated `solve()` calls on one graph peel each
level once.  What the greedy solvers build on a level is kept the same
way: each cached level carries a dict that `parked` hands out, created
empty with the level and evicted with it, in which each group index
waits, rolled back to the level's groups, for the next solve at that
level, beside each scan order's rest form and `up_edge`'s frozen nested
(k+1)-truss.  The level walks of `truss_decompose` and
`update_after_deletion` start from an uncached peel (`_peel_graph`), so
they neither fill nor evict those levels.
`update_after_deletion` reruns that level walk over the graph minus the
deleted edges, also in O(m + triangles); it is not a local repair.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress
from typing import Container, Iterable, Optional

from .errors import ContractViolation, require_int
from .graph import Graph


class TrussSubgraph:
    """Alive edge set of one k-truss plus the counters the cascade needs.

    `alive[e]` is 1 for an alive edge and 0 for a dead one; `sup` holds
    each alive edge's support, its triangles whose other two edges are
    alive.  A triangle is alive exactly when all three of its edges are,
    so nothing is kept per triangle.  All solver loops mutate one instance
    in place; a tried deletion is undone with `_undo` from what `_peel`
    returned and recorded.
    """

    __slots__ = ("graph", "k", "alive", "sup", "edge_count")

    def __init__(self, graph: Graph, k: int, alive: bytearray, sup: list[int],
                 edge_count: int):
        self.graph = graph
        self.k = k
        self.alive = alive
        self.sup = sup
        self.edge_count = edge_count

    def clone(self) -> "TrussSubgraph":
        return TrussSubgraph(self.graph, self.k, bytearray(self.alive),
                             list(self.sup), self.edge_count)

    def alive_edge_ids(self) -> list[int]:
        """The alive edge ids, ascending, picked out of `alive` at C speed."""
        return list(compress(range(self.graph.m), self.alive))

    # -- cascade engine ------------------------------------------------------

    def cascade(self, seeds: Iterable[int], log: Optional[list[int]] = None) -> list[int]:
        """Delete `seeds` and peel every edge whose support drops below k-2.

        Returns the dead edges (seeds first, then followers in removal
        order).  The peel appends to `log` the id of each edge whose support
        fell, once per decrement: a multiset in no promised order.  With the
        dead list that is everything a maintained index needs to find the
        region the cascade touched (`cascade.commit_region`).  Without `log`
        it appends to `_DISCARD`, which keeps nothing.
        """
        dead = _peel(self, seeds, _DISCARD if log is None else log)
        self.edge_count -= len(dead)
        return dead


# Appending to it keeps nothing: the change list of a caller that reads none,
# such as a peel that stays (a whole-graph peel lowers most edges).
_DISCARD = deque(maxlen=0)


def _peel(t: TrussSubgraph, seeds: Iterable[int], lowered: list[int],
          stop: Container[int] = ()) -> list[int]:
    """The peel loop behind every deletion; returns the dead edges.

    Kills each alive seed, then peels every edge whose support drops below
    k-2.  The returned list holds the seeds first, then the followers in
    removal order.  Each support decrement is appended to the caller's
    `lowered`, which with the dead list is all `_undo` needs to undo the
    peel; a caller that undoes nothing passes `_DISCARD`.  Returns as soon
    as an edge in `stop` dies, with that edge last (the default `()` never
    stops); `stop` is asked once per death, not per decrement.
    `t.edge_count` is left as it was.

    While it runs, `alive[e]` is 2 for a dead edge still on the stack, whose
    triangles are not yet broken; popping it sets 0.  So a popped edge's
    pair (a, b) is a triangle still to break exactly when neither a nor b
    was popped, and only the edges at 1 lose support.  A full peel pops
    every dead edge; a stopped one leaves 2s for `_undo` to clear.
    """
    partners = t.graph.triangle_index()
    alive, sup = t.alive, t.sup
    threshold = t.k - 2
    dead: list[int] = []
    for e in seeds:
        if alive[e] == 1:
            alive[e] = 2
            dead.append(e)
    lower = lowered.append
    stack = list(dead)
    while stack:
        e = stack.pop()
        alive[e] = 0
        it = iter(partners[e])
        for a, b in zip(it, it):
            if not (alive[a] and alive[b]):
                continue
            # a and b alike, written out twice: a loop over (a, b) made
            # single-edge simulations about 20% slower
            if alive[a] == 1:
                sup[a] -= 1
                lower(a)
                if sup[a] < threshold:
                    alive[a] = 2
                    dead.append(a)
                    if a in stop:
                        return dead
                    stack.append(a)
            if alive[b] == 1:
                sup[b] -= 1
                lower(b)
                if sup[b] < threshold:
                    alive[b] = 2
                    dead.append(b)
                    if b in stop:
                        return dead
                    stack.append(b)
    return dead


def _undo(t: TrussSubgraph, dead: list[int], lowered: list[int]) -> None:
    """Undo a `_peel` of `t` from its dead list and the decrements it appended.

    Every edge the peel set to 2 or 0 is in `dead`, so a stopped peel's
    queued edges come back alive too.
    """
    sup, alive = t.sup, t.alive
    for o in lowered:
        sup[o] += 1
    for e in dead:
        alive[e] = 1


# Truss levels a graph keeps cached: with two, a caller that goes back to
# a level after a solve at another one (k, k', k) peels it and builds its
# groups once.  Each level costs 2m bytes frozen, 4m with its nested
# (k+1)-truss, besides what is parked on it.
CACHED_LEVELS = 2


def peel_to(t: TrussSubgraph, k: int) -> list[int]:
    """Peel `t`, a truss at some level up to k, in place to the k-truss.

    Every alive edge below k-2 seeds one cascade; returns its dead edges.
    """
    sup = t.sup
    t.k = k
    return t.cascade([e for e in compress(range(t.graph.m), t.alive) if sup[e] < k - 2])


def _peel_graph(g: Graph, k: int) -> TrussSubgraph:
    """The k-truss peeled from every edge and triangle, bypassing the cache."""
    m = g.m
    t = TrussSubgraph(g, k, bytearray(b"\x01") * m, [len(p) >> 1 for p in g.triangle_index()], m)
    peel_to(t, k)
    return t


def _freeze(t: TrussSubgraph) -> tuple:
    """`t` frozen: `bytes` of alive flags, the supports as an `array('B')`
    (an `array('i')` once one reaches 256) and the edge count."""
    sup = array("B" if max(t.sup, default=0) < 256 else "i", t.sup)
    return bytes(t.alive), sup, t.edge_count


def _thaw(g: Graph, k: int, level: tuple) -> TrussSubgraph:
    return TrussSubgraph(g, k, bytearray(level[0]), list(level[1]), level[2])


def parked(t: TrussSubgraph) -> dict:
    """What is parked on the cached level `t.k`, when `t` is that level.

    `t` is the level when its alive bytes and edge count equal the cached
    ones.  `solve()` always hands a solver such a truss, but a caller of
    `solve_gp_edge` or `solve_up_edge` may hand over one it has already
    committed on, and gets a new empty dict that nothing keeps.  The groups
    and the nested (k+1)-truss of a level depend on the graph and k alone,
    so the greedy solvers park in the returned dict what they build from
    them:

    - `"upper"`: `up_edge`'s nested (k+1)-truss, frozen
      (`minimize._two_level_tau`), which a `k_truss` miss may peel from;
    - `"support"`: the `groups.SupportGroupIndex` that `gp_edge` and
      `up_edge` share, with its candidate flags (`cand`);
    - `"truss"`: `up_edge`'s `groups.GroupIndex`;
    - `"gp_edge"` and `"up_edge"`: each solver's sorted scan keys, an
      `array('q')` with 8 bytes a candidate (`minimize._rest_order`).

    The dict lives as long as the level: created empty with it and evicted
    with it (`k_truss`).

    Each solve runs one cycle per index.  Lend: it pops the index, or
    builds one when nothing is parked.  Commit: each of its commits to its
    own clone of the level updates the index, which takes that truss as an
    argument and keeps none.  Rollback: when the loop returns,
    `rollback()` puts the index back to the level's groups.  Park: it
    stores the index in the dict again.  The scan keys skip the
    rollback: the solve commits to a copy of them and parks them as it
    popped them.  A solve that raises parks nothing, so no
    half-committed index is lent, and the next solve builds afresh.  The
    nested truss is never lent: each solve thaws its own copy.
    """
    level = t.graph._truss_cache.get(t.k)
    if level is None or level[2] != t.edge_count or level[0] != t.alive:
        return {}
    return level[3]


def k_truss(g: Graph, k: int) -> TrussSubgraph:
    """The k-truss of `g`, as a fresh `TrussSubgraph` the caller owns.

    The peel depends only on (g, k), so the graph keeps its last
    `CACHED_LEVELS` levels frozen (`_freeze`), each with the dict that
    `parked` hands out, and a repeated call thaws one.  A miss thaws the
    highest cached level below k, or the nested truss frozen on it
    (`"upper"`, the level above it) when there is one, and peels that to
    k; with no level below k it peels from scratch (`_peel_graph`).  It
    evicts the oldest level when the cache is full.  Only alive edges keep
    exact supports afterwards: a peeled edge keeps whatever count it had
    when it died, which may differ between the routes, and no reader
    looks at the support of a dead edge.
    """
    require_int("k", k, 3)
    cache = g._truss_cache
    if k in cache:
        return _thaw(g, k, cache[k])
    below = max((j for j in cache if j < k), default=None)
    if below is None:
        t = _peel_graph(g, k)
    else:
        upper = cache[below][3].get("upper")
        t = _thaw(g, below, cache[below]) if upper is None else _thaw(g, below + 1, upper)
        peel_to(t, k)
    if len(cache) >= CACHED_LEVELS:
        del cache[next(iter(cache))]  # the oldest level
    cache[k] = (*_freeze(t), {})
    return t


def _level_walk(t: TrussSubgraph, tau: list[int]) -> list[int]:
    """Walk the 3-truss `t` up the levels, writing each edge's trussness into `tau`.

    Raises the level one at a time: the edges of the k-truss that fall
    when `peel_to` takes it to k+1 get tau = k.  Each level picks its seeds
    out of the edges still alive: `compress` skips the dead ones at C speed,
    reading m bytes a level, and keeps no list of edge ids across levels.
    An edge with tau = k is looked at in Python at k-2 levels and sits in
    at least k-2 triangles, so the Python work totals O(m + triangles), as
    do the cascades, which kill each triangle once.  Edges outside `t`
    keep the value they have in `tau`.  Returns `tau`.
    """
    k = 3
    while t.edge_count:
        for e in peel_to(t, k + 1):
            tau[e] = k
        k += 1
    return tau


def truss_decompose(g: Graph) -> list[int]:
    """Trussness of every edge, as a list indexed by edge id.

    The level walk from the full 3-truss; an edge in no triangle reads 2.
    """
    return _level_walk(_peel_graph(g, 3), [2] * g.m)


def update_after_deletion(g: Graph, tau: list[int],
                          e: tuple[int, int]) -> tuple[list[int], set[int]]:
    """Delete one edge and recompute trussness over what is left.

    `tau` is a values list from `truss_decompose` or from an earlier call,
    where a deleted edge reads 0.  Reruns the level walk over the 3-truss
    of the graph minus every deleted edge, in O(m + triangles); it is not a
    local repair.  Returns a new list, in which `e` reads 0, plus the set
    of remaining edges whose trussness changed; each changed edge drops by
    exactly one level.  `tau` itself is left as it was.
    """
    eid = g.edge_id(*e)
    if not tau[eid]:
        raise ContractViolation(f"edge {e} already deleted")
    new = [2 if v else 0 for v in tau]
    new[eid] = 0
    t = _peel_graph(g, 3)
    t.cascade(x for x in range(g.m) if not new[x])
    _level_walk(t, new)
    changed = {x for x in range(g.m) if new[x] and new[x] != tau[x]}
    return new, changed
