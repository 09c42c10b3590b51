"""Cascading edge removal triggered by deleting edges from a truss.

Deleting an edge destroys its triangles, which can push neighboring edges
below the support threshold and unravel whole regions.  `followers` are
the edges dragged down by a deletion, excluding the deleted set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolation
from .truss import TrussSubgraph, _peel


@dataclass
class DeletionOutcome:
    """Result of deleting an edge set: what was asked, what followed, what's left."""

    deleted: set[int]
    followers: set[int]
    surviving: TrussSubgraph


def _normalize(t: TrussSubgraph, edges: Iterable) -> list[int]:
    """Edge ids for an iterable of edge ids or (u, v) pairs, alive ones only.

    Pairs that are not graph edges count as outside the truss and drop out;
    an int must be an edge id of the graph.
    """
    out = []
    for e in edges:
        if isinstance(e, int):
            eid = t.graph.resolve_edge(e)
        else:
            u, v = e
            if not t.graph.has_edge(u, v):
                continue
            eid = t.graph.edge_id(u, v)
        if t.alive[eid]:
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


def simulate_followers(t: TrussSubgraph, eid: int, stop: int = -1) -> list[int]:
    """Follower edge ids of deleting one edge; rolls back, `t` unchanged.

    Each partner of `eid` in an alive triangle shares exactly that one
    triangle with it, so deleting `eid` costs every partner exactly one
    support.  When no partner sits at the threshold nothing can fall, and
    the answer is known without touching any state.

    Otherwise it runs the peel loop of `TrussSubgraph.cascade([eid])`
    (`truss._peel`) directly, undoes it from the killed triangles and
    support decrements that loop returns, and returns the followers in
    removal order.  The peel returns as soon as the edge `stop` dies, with
    `stop` last (the default -1 never stops).  Stopping is exact when
    `eid` lies in D(stop), the dead set of deleting `stop` (the edge plus
    its followers).  The k-truss is the unique maximal subgraph whose
    edges all have support >= k-2, so the k-truss left after deleting
    `stop` avoids `eid` and lies inside the one left after deleting `eid`:
    D(eid) is a subset of D(stop).  A peel from `eid` that kills `stop`
    shows the converse, so then D(eid) = D(stop), which the caller already
    holds.
    """
    if not t.alive[eid]:
        raise ContractViolation(f"edge id {eid} is not alive in the truss")
    tris, edge_tris = t.graph.triangle_index()
    alive, sup, tri_alive, threshold = t.alive, t.sup, t.tri_alive, t.k - 2
    for ti in edge_tris[eid]:
        if not tri_alive[ti]:
            continue
        a, b, c = tris[ti]
        if (sup[a] <= threshold and a != eid or sup[b] <= threshold and b != eid
                or sup[c] <= threshold and c != eid):
            break
    else:
        return []
    dead, killed, lowered = _peel(t, [eid], stop)
    for ti in killed:
        tri_alive[ti] = 1
    for o in lowered:
        sup[o] += 1
    for e in dead:
        alive[e] = 1
    return dead[1:]


def commit_region(t: TrussSubgraph, dead: list[int], log: list[int]) -> set[int]:
    """The edges a committed cascade changed, plus their alive-triangle partners.

    `dead` and `log` are what `t.cascade(seeds, log)` returned and logged.
    The region is every dead or decremented edge, plus every edge sharing a
    still-alive triangle with one of them.  A triangle the cascade killed
    holds nothing but dead and decremented edges, so the alive triangles
    are the only ones left to look through.

    A simulation from an edge reads only the triangles of its dead set and
    the liveness and support of those triangles' edges.  So a simulation
    whose dead set misses this region returns the same list after the
    commit as before it, and a support group missing it keeps its members.

    Each greedy commit computes its region once and hands the same set to
    every structure it maintains: `SupportGroupIndex.update`,
    `DeadSetMemo.invalidate` and, in `solve_up_edge`, `refresh_index`.
    Each accepts any superset of the region.  `solve_up_edge` passes `dead
    + upper.cascade(dead)`, where `upper` is the (k+1)-truss nested in `t`:
    the edges that fell from trussness k+1 to k join the region with their
    alive-triangle partners.
    """
    tris, edge_tris = t.graph.triangle_index()
    alive, tri_alive = t.alive, t.tri_alive
    changed = set(dead)
    changed.update(x for x in log if x >= 0)
    region = set(changed)
    for x in changed:
        if alive[x]:  # a dead edge has no alive triangle left
            for ti in edge_tris[x]:
                if tri_alive[ti]:
                    region.update(tris[ti])
    return region


def followers_of_edge(t: TrussSubgraph, e) -> int:
    """|followers| of deleting a single alive edge.

    `e` is an edge id or a (u, v) pair of dense vertex ids (positions in the
    sorted `t.graph.labels`), not a pair of input labels.
    """
    return len(simulate_followers(t, t.graph.resolve_edge(e)))

