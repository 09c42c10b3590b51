"""Cascading edge removal triggered by deleting edges from a truss.

Deleting an edge destroys its triangles, which can push neighboring edges
below the support threshold and unravel whole regions.  `followers` are
the edges dragged down by a deletion, excluding the deleted set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable

from .errors import ContractViolation
from .truss import TrussSubgraph, _peel, _undo


@dataclass
class DeletionOutcome:
    """Result of deleting an edge set: what was asked, what followed, what's left."""

    deleted: set[int]
    followers: set[int]
    surviving: TrussSubgraph


def _normalize(t: TrussSubgraph, edges: Iterable) -> list[int]:
    """Edge ids for an iterable of edge ids or (u, v) pairs, alive ones only.

    Pairs of int vertices that are not graph edges count as outside the
    truss and drop out; an int must be an edge id of the graph, and
    anything else is refused as `Graph.resolve_edge` refuses it.
    """
    g = t.graph
    out = []
    for e in edges:
        eid = g.resolve_edge(e) if isinstance(e, int) else g._lookup(*g._pair(e))
        if eid is not None and t.alive[eid]:
            out.append(eid)
    return sorted(set(out))


def delete_and_cascade(t: TrussSubgraph, edge_set: Iterable) -> DeletionOutcome:
    """Delete the given edges and peel to a fixpoint; `t` is left untouched.

    Edges are ids or (u, v) pairs of dense vertex ids (positions in the
    sorted `t.graph.labels`), not input labels.  Edges outside the truss
    are ignored.  The surviving subgraph is a fresh instance, so it never
    becomes empty "specially": deleting everything simply yields zero
    alive edges.
    """
    seeds = _normalize(t, edge_set)
    survivor = t.clone()
    dead = survivor.cascade(seeds)
    seed_set = set(seeds)
    followers = {e for e in dead if e not in seed_set}
    return DeletionOutcome(deleted=seed_set, followers=followers, surviving=survivor)


def simulate_followers(t: TrussSubgraph, eid: int, stop: Container[int] = ()) -> list[int]:
    """Follower edge ids of deleting one edge; `t` is left as it was.

    Each partner of `eid` in an alive triangle (a pair of `eid`'s partner
    tuple whose two edges are alive) shares exactly that one triangle with
    it, so deleting `eid` costs every partner exactly one support.  When
    no partner sits at the threshold nothing can fall, and the answer is
    known without touching any state.

    Otherwise it runs the peel loop of `TrussSubgraph.cascade([eid])`
    (`truss._peel`) directly, undoes it with `truss._undo`, and returns
    the followers in removal order, so `t` holds no queued edge (an
    `alive` byte of 2) afterwards.  The peel returns as soon as an edge
    in the container `stop` dies, with that edge last (the default `()`
    never stops).  An `eid` outside 0..m-1 or of a type other than int (a
    bool would pass for edge 0 or 1), and an int `stop`, are refused before
    `t` is touched.  Stopping is exact when `eid`
    lies in the dead set D(x) of every edge x in `stop` (the dead set of
    deleting x: the edge plus its followers).  The k-truss is the unique
    maximal subgraph whose edges all have support >= k-2, so for any edge
    y in D(x) the k-truss left after deleting x avoids y and lies inside
    the one left after deleting y: D(y) is a subset of D(x).  A peel from
    `eid` that kills such an x puts x in D(eid), so, as sets,
    D(x) <= D(eid) <= D(x): D(eid) is D(x), which the caller already holds.
    """
    alive, sup, threshold = t.alive, t.sup, t.k - 2
    if type(eid) is not int or not 0 <= eid < len(alive):
        raise ContractViolation(f"edge id {eid!r} is not in 0..{len(alive) - 1}")
    if not hasattr(stop, "__contains__"):
        raise ContractViolation(f"stop must be a container of edge ids, not {stop!r}")
    if not alive[eid]:
        raise ContractViolation(f"edge id {eid} is not alive in the truss")
    it = iter(t.graph.triangle_index()[eid])
    for a, b in zip(it, it):
        if alive[a] and alive[b] and (sup[a] <= threshold or sup[b] <= threshold):
            break
    else:
        return []
    lowered: list[int] = []
    dead = _peel(t, [eid], lowered, stop)
    _undo(t, dead, lowered)
    return dead[1:]


def commit_region(t: TrussSubgraph, dead: list[int], log: Iterable[int]) -> set[int]:
    """The edges a committed cascade changed, plus their alive-triangle partners.

    `dead` and `log` are what `t.cascade(seeds, log)` returned and logged:
    the dead edges and the decremented ones, one log entry per decrement.
    The region is every dead or decremented edge, plus every edge sharing a
    still-alive triangle with one of them: each pair of an alive edge's
    partner tuple whose two edges are alive.  A triangle the cascade killed
    holds nothing but dead and decremented edges, so the alive triangles
    are the only ones left to look through.

    A simulation from an edge reads only the triangles of its dead set and
    the liveness and support of those triangles' edges.  So a simulation
    whose dead set misses this region returns the same list after the
    commit as before it, and a support group missing it keeps its members.

    Each greedy commit computes its region once and hands the same set to
    every structure it maintains: `SupportGroupIndex.update`,
    `DeadSetMemo.invalidate` and the bound source of the shared greedy loop
    (`minimize._solve_greedy`).  Each accepts any superset of the region.
    The memo and the support groups read `t` alone; `up_edge`'s bound
    source, `groups.refresh_index`, widens its own copy by the edges that
    fall out of the (k+1)-truss nested in `t`.
    """
    partners, alive = t.graph.triangle_index(), t.alive
    changed = set(dead).union(log)
    region = set(changed)
    for x in changed:
        if alive[x]:  # a dead edge has no alive triangle left
            it = iter(partners[x])
            for a, b in zip(it, it):
                if alive[a] and alive[b]:
                    region.add(a)
                    region.add(b)
    return region


def followers_of_edge(t: TrussSubgraph, e) -> int:
    """|followers| of deleting a single alive edge.

    `e` is an edge id or a (u, v) pair of dense vertex ids (positions in the
    sorted `t.graph.labels`), not a pair of input labels.
    """
    return len(simulate_followers(t, t.graph.resolve_edge(e)))

