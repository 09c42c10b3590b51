"""Support groups for candidate reduction and the truss-group bound index.

A support group is a maximal set of threshold edges (support exactly k-2)
chained through shared triangles; deleting any member unravels the whole
group, so one representative stands in for all of them.  Truss groups play
the same role one level up: maximal sets of trussness-k edges chained
through triangles whose edges all sit at trussness >= k, crossing only
shared edges of trussness exactly k.  The sum of the sizes of the truss
groups an edge touches bounds its follower count from above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .cascade import commit_region
from .errors import ContractViolation
from .graph import Graph
from .truss import TrussSubgraph, TrussnessMap


@dataclass
class SupportGroup:
    gid: int
    members: list[int]                      # edge ids, ascending; members[0] is the representative
    pruned_followers: set[int] = field(default_factory=set)
    # over-threshold edges sharing an alive triangle with a member
    over_adjacent: tuple[int, ...] = ()

    @property
    def representative(self) -> int:
        return self.members[0]


def _grow_support_group(t: TrussSubgraph, start: int, gid_of: dict[int, int],
                        gid: int) -> SupportGroup:
    """BFS over threshold edges through alive triangles, starting at `start`.

    Records every member in `gid_of`.  Meeting an edge that `gid_of`
    already gives to another group means that group should have been
    dissolved first, which is an internal error.
    """
    tris, edge_tris = t.graph.triangle_index()
    threshold = t.k - 2
    sup, tri_alive = t.sup, t.tri_alive
    members = [start]
    gid_of[start] = gid
    # over-threshold edge -> the member triangles it sits in
    hit: dict[int, set[int]] = {}
    for e in members:  # grows while it is walked: breadth-first
        for ti in edge_tris[e]:
            if not tri_alive[ti]:
                continue
            for o in tris[ti]:
                if o == e:
                    continue
                if sup[o] == threshold:
                    other = gid_of.get(o)
                    if other is None:
                        gid_of[o] = gid
                        members.append(o)
                    elif other != gid:
                        raise AssertionError(
                            f"support group grown from edge {start} reached group {other}")
                elif o in hit:
                    hit[o].add(ti)
                else:
                    hit[o] = {ti}
    members.sort()
    # An over-threshold edge whose slack is exceeded by distinct triangles
    # that each contain a group member must fall with the group.
    pruned = {o for o, triangles in hit.items() if len(triangles) > sup[o] - threshold}
    return SupportGroup(gid=gid, members=members, pruned_followers=pruned,
                        over_adjacent=tuple(hit))


def find_support_groups(t: TrussSubgraph) -> tuple[list[SupportGroup], list[int]]:
    """Discover support groups and the per-iteration candidate edge set.

    Candidates are one representative per group plus every over-threshold
    edge that shares a triangle with a threshold edge and was not already
    identified as a certain follower of some group.  Everything outside
    that set provably has zero followers.

    This scans the whole truss; it is the from-scratch reference that
    `SupportGroupIndex` is checked against.
    """
    alive, sup, threshold = t.alive, t.sup, t.k - 2
    groups: list[SupportGroup] = []
    gid_of: dict[int, int] = {}
    for start in range(t.graph.m):
        if alive[start] and sup[start] == threshold and start not in gid_of:
            groups.append(_grow_support_group(t, start, gid_of, len(groups)))
    over_adjacent: set[int] = set()
    pruned_all: set[int] = set()
    for grp in groups:
        over_adjacent.update(grp.over_adjacent)
        pruned_all |= grp.pruned_followers
    candidates = sorted({grp.representative for grp in groups}
                        | (over_adjacent - pruned_all))
    return groups, candidates


class SupportGroupIndex:
    """Support groups and candidates of one truss, maintained across commits.

    Starts from the groups `find_support_groups(t)` found; after each
    committed cascade, `update` takes that cascade's dead list and change
    log, dissolves only the groups the cascade could have changed, and
    regrows groups over their region.  Groups and candidates always equal
    what `find_support_groups` would return for the current state of `t`.
    """

    __slots__ = ("t", "gid_of", "by_gid", "rep_group", "over_count",
                 "pruned_count", "_candidates", "next_gid")

    def __init__(self, t: TrussSubgraph, groups: list[SupportGroup]):
        self.t = t
        self.gid_of: dict[int, int] = {}            # threshold edge -> gid
        self.by_gid: dict[int, SupportGroup] = {}
        self.rep_group: dict[int, SupportGroup] = {}
        # per edge: how many groups list it as over-adjacent / pruned
        self.over_count: dict[int, int] = {}
        self.pruned_count: dict[int, int] = {}
        self._candidates: Optional[list[int]] = None
        self.next_gid = 0
        for grp in groups:
            for e in grp.members:
                self.gid_of[e] = grp.gid
            self._add(grp)
            self.next_gid = max(self.next_gid, grp.gid + 1)

    def groups(self) -> list[SupportGroup]:
        """The current groups, ordered by representative."""
        return [self.rep_group[r] for r in sorted(self.rep_group)]

    def candidates(self) -> list[int]:
        """Representatives plus unpruned over-adjacent edges, ascending."""
        if self._candidates is None:
            pruned = self.pruned_count
            self._candidates = sorted(
                [*self.rep_group, *(o for o in self.over_count if o not in pruned)])
        return self._candidates

    def update(self, dead: list[int], log: list[int]) -> None:
        """Bring the index up to date after `t.cascade(seeds, log)` returned `dead`.

        Only a dead or decremented edge changes its own support, so only
        the groups holding an edge of the cascade's `commit_region` can
        change; every other group keeps its members, supports and
        triangles.
        """
        t = self.t
        alive, sup, threshold = t.alive, t.sup, t.k - 2
        gid_of = self.gid_of
        region = commit_region(t, dead, log)  # grows into the dissolved groups
        dissolve = {gid_of[x] for x in region if x in gid_of}
        for gid in dissolve:
            grp = self.by_gid.pop(gid)
            del self.rep_group[grp.representative]
            for e in grp.members:
                del gid_of[e]
            region.update(grp.members)
            self._count(grp, -1)
        for e in sorted(region):
            if alive[e] and sup[e] == threshold and e not in gid_of:
                self._grow(e)
        self._candidates = None

    # -- bookkeeping -----------------------------------------------------------

    def _grow(self, start: int) -> None:
        self._add(_grow_support_group(self.t, start, self.gid_of, self.next_gid))
        self.next_gid += 1

    def _add(self, grp: SupportGroup) -> None:
        self.by_gid[grp.gid] = grp
        self.rep_group[grp.representative] = grp
        self._count(grp, 1)

    def _count(self, grp: SupportGroup, delta: int) -> None:
        """Add (+1) or withdraw (-1) one group's votes for its over-adjacent edges."""
        for counts, edges in ((self.over_count, grp.over_adjacent),
                              (self.pruned_count, grp.pruned_followers)):
            for o in edges:
                n = counts.get(o, 0) + delta
                if n:
                    counts[o] = n
                else:
                    del counts[o]


class GroupIndex:
    """Partition of the trussness-k edges into truss groups.

    Group ids survive refreshes of unrelated regions.
    """

    __slots__ = ("graph", "tau", "k", "gid_of", "members", "next_gid",
                 "last_dissolved")

    def __init__(self, graph: Graph, tau: TrussnessMap, k: int):
        self.graph = graph
        self.tau = tau
        self.k = k
        self.gid_of: dict[int, int] = {}            # trussness-k edge -> gid
        self.members: dict[int, list[int]] = {}     # gid -> edge ids, ascending
        self.next_gid = 0
        # group ids dissolved by the most recent refresh; lets callers drop
        # anything they derived from those groups
        self.last_dissolved: set[int] = set()

    def _level_partners(self, e: int) -> list[int]:
        """Trussness-k edges other than `e` in its alive triangles of trussness >= k."""
        tris, edge_tris = self.graph.triangle_index()
        values, alive, k = self.tau.values, self.tau.alive, self.k
        out = []
        for ti in edge_tris[e]:
            a, b, c = tris[ti]
            if (alive[a] and alive[b] and alive[c]
                    and values[a] >= k and values[b] >= k and values[c] >= k):
                for o in (a, b, c):
                    if o != e and values[o] == k:
                        out.append(o)
        return out

    def _grow(self, start: int) -> None:
        """BFS over trussness-k edges through triangles of trussness >= k.

        Meeting an edge that `gid_of` already gives to another group means
        that group should have been dissolved first, which is an internal
        error.
        """
        gid_of, gid = self.gid_of, self.next_gid
        self.next_gid += 1
        members = [start]
        gid_of[start] = gid
        for e in members:  # grows while it is walked: breadth-first
            for o in self._level_partners(e):
                other = gid_of.get(o)
                if other is None:
                    gid_of[o] = gid
                    members.append(o)
                elif other != gid:
                    raise AssertionError(
                        f"truss group grown from edge {start} reached group {other}")
        members.sort()
        self.members[gid] = members

    # -- queries ---------------------------------------------------------------

    def group_sizes(self) -> dict[int, int]:
        return {gid: len(m) for gid, m in self.members.items()}

    def adjacent_gids(self, eid: int) -> set[int]:
        """Ids of the truss groups the edge touches through truss triangles."""
        gid_of = self.gid_of
        out = {gid_of[o] for o in self._level_partners(eid)}
        if self.tau.values[eid] == self.k:
            out.add(gid_of[eid])
        return out


def build_truss_group_index(g: Graph, tau: TrussnessMap, k: int) -> GroupIndex:
    """Index the trussness-k groups of the current graph state."""
    if k < 3:
        raise ValueError("k must be >= 3")
    idx = GroupIndex(g, tau, k)
    values, alive = tau.values, tau.alive
    for e in range(g.m):
        if alive[e] and values[e] == k and e not in idx.gid_of:
            idx._grow(e)
    return idx


def upper_bound(idx: GroupIndex, e) -> int:
    """Bound on the follower count of `e`: total size of its adjacent groups.

    `e` is an edge id or a pair of dense vertex ids (positions in the sorted
    `idx.graph.labels`), not a pair of input labels.
    """
    eid = idx.graph.resolve_edge(e)
    if not idx.tau.alive[eid] or idx.tau.values[eid] < idx.k:
        raise ContractViolation(
            f"edge id {eid} is not in the current truss; index is stale")
    return sum(len(idx.members[gid]) for gid in idx.adjacent_gids(eid))


def refresh_index(idx: GroupIndex, changed: Iterable[int], g: Graph,
                  tau: TrussnessMap, deleted: int) -> GroupIndex:
    """Repair the index after deleting edge `deleted` changed some trussness values.

    `tau` is the map `update_after_deletion` returned for that deletion,
    and `changed` the edges it reported.  Dissolves every group holding a
    changed (or the deleted) edge or sharing a pre-deletion triangle with
    one, then regrows groups over that region; the deleted edge can be a
    pure bridge, so losing its triangles may split a group without any
    trussness changing.  Untouched groups keep their ids and member lists.
    The result matches a rebuild from scratch.
    """
    changed = set(changed)
    alive = tau.alive
    tris, edge_tris = g.triangle_index()
    gid_of, group_members = idx.gid_of, idx.members

    # Rebind current state first: regrown regions must see the new values.
    idx.tau = tau
    idx.last_dissolved = set()

    dissolve: set[int] = set()
    for x in changed | {deleted}:
        if x in gid_of:
            dissolve.add(gid_of[x])
        for ti in edge_tris[x]:
            a, b, c = tris[ti]
            # alive before the deletion
            if not ((alive[a] or a == deleted) and (alive[b] or b == deleted)
                    and (alive[c] or c == deleted)):
                continue
            for o in (a, b, c):
                if o != x and o in gid_of:
                    dissolve.add(gid_of[o])
    if not dissolve and not any(alive[c] and tau.values[c] == idx.k for c in changed):
        return idx
    idx.last_dissolved = dissolve
    region: set[int] = set()
    for gid in dissolve:
        region.update(group_members.pop(gid))
    for e in region:
        del gid_of[e]
    region |= changed
    for e in sorted(region):
        if alive[e] and tau.values[e] == idx.k and e not in gid_of:
            idx._grow(e)
    return idx
