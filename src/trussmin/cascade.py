"""Cascading edge removal triggered by deleting edges from a truss.

Deleting an edge destroys its triangles, which can push neighboring edges
below the support threshold and unravel whole regions.  `followers` are
the edges dragged down by a deletion, excluding the deleted set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolation
from .truss import TrussSubgraph


@dataclass
class DeletionOutcome:
    """Result of deleting an edge set: what was asked, what followed, what's left."""

    deleted: set[int]
    followers: set[int]
    surviving: TrussSubgraph


def _normalize(t: TrussSubgraph, edges: Iterable) -> list[int]:
    """Edge ids for an iterable of edge ids or (u, v) pairs, alive ones only.

    Pairs that are not graph edges count as outside the truss and drop out.
    """
    out = []
    for e in edges:
        if isinstance(e, int):
            eid = e
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

    Edges outside the truss are ignored.  The surviving subgraph is a fresh
    instance, so it never becomes empty "specially": deleting everything
    simply yields zero alive edges.
    """
    seeds = _normalize(t, edge_set)
    survivor = t.clone()
    dead = survivor.cascade(seeds)
    seed_set = set(seeds)
    followers = {e for e in dead if e not in seed_set}
    return DeletionOutcome(deleted=seed_set, followers=followers, surviving=survivor)


def simulate_followers(t: TrussSubgraph, eid: int) -> list[int]:
    """Follower edge ids of deleting one edge; rolls back, `t` unchanged.

    Each partner of `eid` in an alive triangle shares exactly that one
    triangle with it, so deleting `eid` costs every partner exactly one
    support.  When no partner sits at the threshold nothing can fall, and
    the answer is known without touching any state.
    """
    if not t.alive[eid]:
        raise ContractViolation(f"edge id {eid} is not alive in the truss")
    tris, edge_tris = t.graph.triangle_index()
    sup, tri_alive, threshold = t.sup, t.tri_alive, t.k - 2
    for ti in edge_tris[eid]:
        if not tri_alive[ti]:
            continue
        a, b, c = tris[ti]
        if (sup[a] <= threshold and a != eid or sup[b] <= threshold and b != eid
                or sup[c] <= threshold and c != eid):
            break
    else:
        return []
    log: list[int] = []
    dead = t.cascade([eid], log)
    t.rollback(log, dead)
    return dead[1:]


def followers_of_edge(t: TrussSubgraph, e) -> int:
    """|followers| of deleting a single alive edge."""
    eid = e if isinstance(e, int) else t.graph.edge_id(*e)
    return len(simulate_followers(t, eid))


def oracle_best_single(t: TrussSubgraph) -> tuple[int, int]:
    """Exhaustively find the alive edge with the most followers.

    Ties break toward the smallest edge id.  Returns (edge id, followers).
    """
    if t.edge_count == 0:
        raise ContractViolation("empty truss")
    best_e, best_f = -1, -1
    for eid in t.alive_edge_ids():
        f = len(simulate_followers(t, eid))
        if f > best_f:
            best_e, best_f = eid, f
    return best_e, best_f
