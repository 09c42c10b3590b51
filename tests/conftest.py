import random
from collections import Counter
from itertools import compress

import pytest

from trussmin import ContractViolation, Graph, SolverConfig, TrussSubgraph, k_truss, solve
from trussmin.cascade import commit_region, simulate_followers
from trussmin.groups import SupportGroupIndex, find_support_groups
from trussmin.minimize import _rest_order, _ScanOrder
from trussmin.truss import peel_to


def complete_pairs(n, offset=0):
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def path_pairs(n, offset=0):
    return [(offset + i, offset + i + 1) for i in range(n - 1)]


def er_pairs(rng, n, p):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def graph_of(pairs) -> Graph:
    return Graph.from_pairs(pairs)


def label_pair(g: Graph, eid: int):
    return g.original_pair(eid)


def label_pairs(g: Graph, eids):
    return {g.original_pair(e) for e in eids}


def random_trusses(rng, count, ks=range(3, 8)):
    """(graph, k, truss) triples with a non-empty truss, for k in `ks`."""
    out = []
    while len(out) < count:
        g = graph_of(er_pairs(rng, rng.randint(6, 18), rng.uniform(0.4, 0.8)))
        for k in ks:
            t = k_truss(g, k)
            if t.edge_count:
                out.append((g, k, t))
    return out


# -- reference helpers over the package's own types --------------------------

def edge_pairs(g: Graph) -> list[tuple[int, int]]:
    """Every edge's dense endpoints (u, v), u < v, in edge-id order."""
    return list(map(g.endpoints, range(g.m)))


def neighbours(g: Graph, u: int) -> set[int]:
    return {a if b == u else b for a, b in edge_pairs(g) if u in (a, b)}


def support(g: Graph, u: int, v: int, alive=None) -> int:
    """Number of triangles on (u, v) whose other two edges are in `alive`.

    `alive` is indexed by edge id (truthy = present); None means every edge.
    """
    eid = g.edge_id(u, v)
    if alive is not None and not alive[eid]:
        raise ContractViolation(f"edge ({u}, {v}) is not in the alive set")
    common = neighbours(g, u) & neighbours(g, v)
    if alive is None:
        return len(common)
    return sum(1 for w in common
               if alive[g.edge_id(u, w)] and alive[g.edge_id(v, w)])


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


def verify_equivalence(g: Graph, k: int, b: int) -> bool:
    """True iff the three greedy solvers agree edge-for-edge on this input."""
    outcomes = []
    for algorithm in ("baseline", "gp_edge", "up_edge"):
        rep = solve(g, SolverConfig(k=k, b=b, algorithm=algorithm))
        outcomes.append([(r.eid, r.followers) for r in rep.iterations])
    return outcomes[0] == outcomes[1] == outcomes[2]


def assert_no_queued_edge(t: TrussSubgraph) -> None:
    """Every `alive` byte of `t` is 0 or 1.

    `truss._peel` marks a dead edge still on its stack with 2; no such mark
    may outlive a full peel, or a stopped one once it is undone.
    """
    assert set(t.alive) <= {0, 1}


def commit_nested(t: TrussSubgraph, eid: int) -> tuple[list[int], set[int]]:
    """Delete `eid` from `t` as `solve_up_edge`'s loop does.

    Returns the commit's dead list and its region in `t`, the `dead` and
    `region` that `refresh_index` takes; the refresh cascades the dead
    through the nested (k+1)-truss, so until it runs that truss is stale.
    """
    log: list[int] = []
    dead = t.cascade([eid], log)
    assert_no_queued_edge(t)
    return dead, commit_region(t, dead, log)


def next_level(t: TrussSubgraph) -> TrussSubgraph:
    """The (k+1)-truss inside `t`, peeled from a clone of `t`.

    It reads neither the graph's truss cache nor the graph's own
    (k+1)-level, so tests compare `minimize._two_level_tau` and the
    maintained (k+1)-truss with it.
    """
    upper = t.clone()
    peel_to(upper, t.k + 1)
    return upper


def assert_support_build_matches_reference(t: TrussSubgraph, context=None) -> None:
    """`SupportGroupIndex(t)` is what the reference scan `find_support_groups(t)` finds.

    Groups compare field by field (members, pruned followers, over-adjacent
    edges), group ids and candidates exactly, and each edge's vote counts
    are the number of groups listing it.  Every group's pruned followers
    are over-adjacent to it, so `SupportGroupIndex._weigh` lists a group's
    votes through its over-adjacent edges alone.
    """
    groups, candidates = find_support_groups(t)
    index = SupportGroupIndex(t)
    assert [grp for _, grp in sorted(index.groups.items())] == groups, context
    assert all(grp.pruned_followers <= set(grp.over_adjacent) for grp in groups), context
    assert gids(index.gid_of) == {e: grp.representative for grp in groups for e in grp.members}, \
        context
    assert sorted(index.iter_candidates()) == candidates, context
    assert index.over_count == Counter(o for grp in groups for o in grp.over_adjacent), context
    assert index.pruned_count == Counter(o for grp in groups for o in grp.pruned_followers), context
    assert_candidacy_rule(t, index, context)


def gids(gid_of) -> dict[int, int]:
    """A group index's `gid_of`, a dict or a per-edge array, as a dict from
    each edge in a group to the group's id; an edge at -1 is in none, and
    is left out."""
    pairs = gid_of.items() if isinstance(gid_of, dict) else enumerate(gid_of)
    return {e: gid for e, gid in pairs if gid >= 0}


def votes(counts: dict[int, int]) -> dict[int, int]:
    """A `SupportGroupIndex` vote table without its zero counts, which
    every reader takes for no vote."""
    return {e: n for e, n in counts.items() if n}


def assert_candidacy_rule(t: TrussSubgraph, index: SupportGroupIndex, context=None) -> None:
    """`index.cand` flags exactly the representatives and the edges some
    group votes over-adjacent and none pruned, among the edges of the graph
    of `t`, the truss the index is kept on, and holds no byte but 0 and 1."""
    over, pruned = index.over_count, index.pruned_count
    want = {e for e in range(t.graph.m)
            if e in index.groups or (over.get(e, 0) > 0 and not pruned.get(e, 0))}
    assert set(compress(range(t.graph.m), index.cand)) == want, context
    assert set(index.cand) <= {0, 1}, context


def new_order(t: TrussSubgraph, index: SupportGroupIndex, bound) -> _ScanOrder:
    """A scan order over the candidates of `index`, keyed under `bound`,
    started from a rest form built cold."""
    return _ScanOrder(t.graph.m, index.cand, bound, _rest_order(t, index, bound))


def order_view(order: _ScanOrder) -> tuple[dict[int, int], list[int]]:
    """A scan order in comparable form: each candidate's key, read off the
    flags it follows and its bound table, and the key list."""
    m, kbound = order.m, order.kbound
    return {c: (m - kbound[c]) * m + c for c in compress(range(m), order.cand)}, list(order.keys)


def upper_bound(idx, t: TrussSubgraph, upper: TrussSubgraph, e) -> int:
    """Bound on the follower count of `e`: total size of its adjacent groups.

    The from-scratch reference for the maintained `idx.bound`, summed
    afresh from `idx.adjacent_gids` over the k-truss `t` and the
    (k+1)-truss `upper` nested in it.  `e` is an edge id or a pair of dense
    vertex ids (positions in the sorted `t.graph.labels`), not a pair of
    input labels.
    """
    eid = t.graph.resolve_edge(e)
    if not t.alive[eid]:
        raise ContractViolation(
            f"edge id {eid} is not in the current truss; index is stale")
    return sum(len(idx.groups[gid][0]) for gid in idx.adjacent_gids(t, upper, eid))


def group_sizes(idx) -> dict[int, int]:
    """Size of each truss group of a `GroupIndex`, by gid."""
    return {gid: len(members) for gid, (members, _) in idx.groups.items()}


def truss_edge_ids(tau: list[int], k: int) -> list[int]:
    """Edge ids of T_k under these trussness values: tau >= k (a deleted
    edge reads 0, below every k)."""
    return [e for e, v in enumerate(tau) if v >= k]


@pytest.fixture
def k5():
    return graph_of(complete_pairs(5))


@pytest.fixture
def k4():
    return graph_of(complete_pairs(4))


@pytest.fixture
def k6():
    return graph_of(complete_pairs(6))


@pytest.fixture
def rng():
    return random.Random(20250809)
