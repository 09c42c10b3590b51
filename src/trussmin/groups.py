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
from typing import Optional

from .errors import ContractViolation
from .truss import TrussSubgraph


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
    committed cascade, `update` takes that cascade's region, dissolves only
    the groups the cascade could have changed, and regrows groups over the
    region.  Groups and candidates always equal what `find_support_groups`
    would return for the current state of `t`.
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

    def update(self, region: set[int]) -> None:
        """Bring the index up to date after a committed cascade on `t`.

        `region` is the commit's `cascade.commit_region`, or any superset
        of it.  Only a dead or decremented edge changes its own support, so
        only the groups holding a region edge can change; they are
        dissolved and regrown, and every other group keeps its members,
        supports and triangles.
        """
        t = self.t
        alive, sup, threshold = t.alive, t.sup, t.k - 2
        gid_of = self.gid_of
        dissolve = {gid_of[x] for x in region if x in gid_of}
        # a list, not a set: it copies the region at a fraction of the
        # memory, and a repeated edge is in `gid_of` once it has grown
        grown = list(region)
        for gid in dissolve:
            grp = self.by_gid.pop(gid)
            del self.rep_group[grp.representative]
            for e in grp.members:
                del gid_of[e]
            grown.extend(grp.members)
            self._count(grp, -1)
        for e in sorted(grown):
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
    """Partition of the trussness-k edges into truss groups, with every edge's bound.

    `t` is the k-truss and `upper` the (k+1)-truss nested inside it, both
    `TrussSubgraph`s of the same graph kept current by the cascade engine.
    An edge has trussness exactly k when it is alive in `t` but not in
    `upper`.  A triangle alive in `t` has all three edges in the k-truss,
    so `t.tri_alive` alone marks the triangles groups chain through.
    Group ids survive refreshes of unrelated regions.

    The per-edge state is flat: `gid_of[e]` is the group of edge `e`, or
    -1 when it has none, and `bound` and `stamp` are indexed by edge id
    too.  Each group's touch set is a duplicate-free list of its members
    plus every edge sharing an alive triangle of `t` with a member.
    `bound[e]` is the total size of the groups whose touch set holds `e`,
    which is `upper_bound(self, e)` for an alive edge and 0 for a dead
    one: growing a group adds its size over its touch set, and dissolving
    it takes the size back.  `stamp` marks the edges already in the touch
    set being grown; it is all zero between growths.
    """

    __slots__ = ("t", "upper", "gid_of", "members", "touch", "bound", "stamp",
                 "next_gid", "last_dissolved")

    def __init__(self, t: TrussSubgraph, upper: TrussSubgraph):
        m = t.graph.m
        self.t = t
        self.upper = upper
        self.gid_of: list[int] = [-1] * m
        self.members: dict[int, list[int]] = {}     # gid -> edge ids, ascending
        self.touch: dict[int, list[int]] = {}       # gid -> its touch set
        self.bound: list[int] = [0] * m
        self.stamp = bytearray(m)
        self.next_gid = 0
        # group ids dissolved by the most recent refresh; the benchmark
        # tracer (perfbench/spans.py) counts them
        self.last_dissolved: set[int] = set()

    def at_level(self, e: int) -> bool:
        """Whether edge `e` has trussness exactly k."""
        return bool(self.t.alive[e]) and not self.upper.alive[e]

    def _grow(self, start: int, walked: bytearray) -> None:
        """BFS over trussness-k edges through alive triangles of the k-truss.

        Every edge of a walked triangle joins the touch set.  `walked`
        marks triangles by id and is shared by every growth of one build or
        one refresh: an alive triangle holding a trussness-k edge belongs
        to exactly one group, so a triangle walked once is never walked
        again, and marking it loses nothing.  Meeting an edge that `gid_of`
        already gives to another group means that group should have been
        dissolved first, which is an internal error.
        """
        tris, edge_tris = self.t.graph.triangle_index()
        tri_alive, upper_alive = self.t.tri_alive, self.upper.alive
        gid_of, stamp, gid = self.gid_of, self.stamp, self.next_gid
        self.next_gid += 1
        members = [start]
        gid_of[start] = gid
        touch = [start]
        stamp[start] = 1
        for e in members:  # grows while it is walked: breadth-first
            for ti in edge_tris[e]:
                if walked[ti] or not tri_alive[ti]:
                    continue
                walked[ti] = 1
                for o in tris[ti]:
                    if not stamp[o]:
                        stamp[o] = 1
                        touch.append(o)
                    if upper_alive[o]:
                        continue
                    other = gid_of[o]
                    if other < 0:
                        gid_of[o] = gid
                        members.append(o)
                    elif other != gid:
                        raise AssertionError(
                            f"truss group grown from edge {start} reached group {other}")
        members.sort()
        self.members[gid] = members
        self.touch[gid] = touch
        size, bound = len(members), self.bound
        for x in touch:
            bound[x] += size
            stamp[x] = 0

    def _dissolve(self, gid: int) -> list[int]:
        """Drop group `gid` and its share of the bounds; returns its members."""
        members = self.members.pop(gid)
        size, bound, gid_of = len(members), self.bound, self.gid_of
        for x in self.touch.pop(gid):
            bound[x] -= size
        for e in members:
            gid_of[e] = -1
        return members

    # -- queries ---------------------------------------------------------------

    def adjacent_gids(self, eid: int) -> set[int]:
        """Ids of the truss groups the edge touches through truss triangles.

        Walks the edge's alive triangles afresh, so it is the from-scratch
        reference for `bound`.  A trussness-k edge in no group means `t` or
        `upper` changed without a refresh.
        """
        tris, edge_tris = self.t.graph.triangle_index()
        tri_alive, upper_alive, gid_of = self.t.tri_alive, self.upper.alive, self.gid_of
        out = {gid_of[o] for ti in edge_tris[eid] if tri_alive[ti]
               for o in tris[ti] if o != eid and not upper_alive[o]}
        if self.at_level(eid):
            out.add(gid_of[eid])
        if -1 in out:
            raise ContractViolation(
                f"edge id {eid} touches a trussness-k edge in no group; index is stale")
        return out


def build_truss_group_index(t: TrussSubgraph, upper: TrussSubgraph) -> GroupIndex:
    """Index the truss groups of the k-truss `t`, given its (k+1)-truss `upper`.

    `upper` is what `minimize._two_level_tau(t)` returns for the current `t`.
    """
    idx = GroupIndex(t, upper)
    alive, upper_alive, gid_of = t.alive, upper.alive, idx.gid_of
    walked = bytearray(t.graph.triangle_count())
    for e in range(t.graph.m):
        if alive[e] and not upper_alive[e] and gid_of[e] < 0:
            idx._grow(e, walked)
    return idx


def upper_bound(idx: GroupIndex, e) -> int:
    """Bound on the follower count of `e`: total size of its adjacent groups.

    Summed afresh from `idx.adjacent_gids`; `idx.bound` holds the same value.
    `e` is an edge id or a pair of dense vertex ids (positions in the sorted
    `idx.t.graph.labels`), not a pair of input labels.
    """
    eid = idx.t.graph.resolve_edge(e)
    if not idx.t.alive[eid]:
        raise ContractViolation(
            f"edge id {eid} is not in the current truss; index is stale")
    return sum(len(idx.members[gid]) for gid in idx.adjacent_gids(eid))


def refresh_index(idx: GroupIndex, region: set[int]) -> GroupIndex:
    """Bring the index up to date after one commit to `idx.t` and `idx.upper`.

    For the commit `dead = t.cascade(seeds, log)`, `upper_dead =
    upper.cascade(dead)`, `region` is `commit_region(t, dead + upper_dead,
    log)`: every edge that died, lost a triangle or fell from trussness k+1
    to k, plus its partners in alive triangles of `t`.  As in
    `SupportGroupIndex.update`, only the groups holding a region edge are
    dissolved (`last_dissolved`) and regrown; the others keep their ids,
    member lists and touch sets.  A group missing the region keeps every
    alive triangle of its members, since a triangle dies only when all its
    edges die or lose support, so its share of `bound` stays exact.  The
    result, `bound` included, matches a rebuild from scratch.

    The regrowths share one fresh walked-triangle marker, so each alive
    triangle they reach is walked once.  It is made at the first regrowth,
    so a refresh that regrows nothing (its commit erased whole groups)
    pays nothing per triangle.  It marks only the triangles this refresh
    walks: a group that should have been dissolved but survived still has
    its triangles unmarked, and a regrowth reaching it raises.
    """
    gid_of = idx.gid_of
    dissolve = {gid_of[x] for x in region}
    dissolve.discard(-1)
    idx.last_dissolved = dissolve
    grown = set(region)
    for gid in dissolve:
        grown.update(idx._dissolve(gid))
    walked = None
    for e in sorted(grown):
        if idx.at_level(e) and gid_of[e] < 0:
            if walked is None:
                walked = bytearray(idx.t.graph.triangle_count())
            idx._grow(e, walked)
    return idx
