"""Support groups for candidate reduction and the truss-group bound index.

A support group is a maximal set of threshold edges (support exactly k-2)
chained through shared triangles; deleting any member unravels the whole
group, so one representative stands in for all of them.  The solvers keep
them in a `SupportGroupIndex`, built in one threshold scan and maintained
across commits; `find_support_groups` is the from-scratch scan it is
checked against.  Truss groups play
the same role one level up: maximal sets of trussness-k edges chained
through triangles whose edges all sit at trussness >= k, crossing only
shared edges of trussness exactly k.  The sum of the sizes of the truss
groups an edge touches bounds its follower count from above, and a
`GroupIndex` keeps that sum for every edge.  Both indexes keep their
groups as `_GroupStore` describes.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection, Iterator
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

from .cascade import commit_region
from .errors import ContractViolation
from .truss import _DISCARD, TrussSubgraph


@dataclass
class SupportGroup:
    members: list[int]                      # edge ids, ascending; members[0] is the representative
    pruned_followers: set[int] = field(default_factory=set)
    # over-threshold edges sharing an alive triangle with a member
    over_adjacent: tuple[int, ...] = ()

    @property
    def representative(self) -> int:
        return self.members[0]


# Maps each byte of a 0/1 `alive` array to its complement: `alive.translate(FLIP)`
# is a per-edge marker, built at C speed, with every dead edge marked.
FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _grow_support_group(t: TrussSubgraph, start: int, gid_of: dict[int, int],
                        done: bytearray) -> SupportGroup:
    """BFS over threshold edges through alive triangles, starting at `start`.

    Callers sweep starts in ascending order, so `start` is the smallest
    member, and `gid_of`, in which an edge missing or at -1 is in no group,
    records it as every member's group.  Meeting an edge that `gid_of`
    gives to another group means that group should have been dissolved
    first, which is an internal error.

    `done` is `t.alive.translate(FLIP)`, shared by every growth of one
    build or one update: it marks the dead edges, and each member is
    marked as it is expanded.  A pair touching a marked edge is skipped:
    it is a dead triangle, or one already walked from that member (two
    threshold edges of one alive triangle are in one group, so the member
    is this group's).  Each alive triangle holding a member is thus walked
    once, and counted once for each over-threshold edge it holds.
    """
    partners = t.graph.triangle_index()
    threshold = t.k - 2
    sup = t.sup
    members = [start]
    gid_of[start] = start
    # over-threshold edge -> how many member triangles it sits in
    hit: dict[int, int] = {}
    for e in members:  # grows while it is walked: breadth-first
        done[e] = 1
        it = iter(partners[e])
        for a, b in zip(it, it):
            if done[a] or done[b]:
                continue
            # a and b alike, written out twice, as in `truss._peel`: a loop
            # over (a, b) cost a tuple and a loop step per triangle
            if sup[a] == threshold:
                other = gid_of.get(a, -1)
                if other < 0:
                    gid_of[a] = start
                    members.append(a)
                elif other != start:
                    raise AssertionError(
                        f"support group grown from edge {start} reached group {other}")
            else:
                hit[a] = hit.get(a, 0) + 1
            if sup[b] == threshold:
                other = gid_of.get(b, -1)
                if other < 0:
                    gid_of[b] = start
                    members.append(b)
                elif other != start:
                    raise AssertionError(
                        f"support group grown from edge {start} reached group {other}")
            else:
                hit[b] = hit.get(b, 0) + 1
    members.sort()
    # An over-threshold edge whose slack is exceeded by distinct triangles
    # that each contain a group member must fall with the group.
    pruned = {o for o, n in hit.items() if n > sup[o] - threshold}
    return SupportGroup(members=members, pruned_followers=pruned,
                        over_adjacent=tuple(hit))


def find_support_groups(t: TrussSubgraph) -> tuple[list[SupportGroup], list[int]]:
    """Discover support groups and the per-iteration candidate edge set.

    Candidates are one representative per group plus every over-threshold
    edge that shares a triangle with a threshold edge and was not already
    identified as a certain follower of some group.  Everything outside
    that set provably has zero followers.

    This scans the whole truss, taking its starts from the alive edges
    that `compress` picks out of `t.alive` at C speed; it is the
    from-scratch reference that `SupportGroupIndex` is checked against.
    """
    sup, threshold = t.sup, t.k - 2
    groups: list[SupportGroup] = []
    gid_of: dict[int, int] = {}
    done = t.alive.translate(FLIP)
    for start in compress(range(t.graph.m), t.alive):
        if sup[start] == threshold and start not in gid_of:
            groups.append(_grow_support_group(t, start, gid_of, done))
    over_adjacent: set[int] = set()
    pruned_all: set[int] = set()
    for grp in groups:
        over_adjacent.update(grp.over_adjacent)
        pruned_all |= grp.pruned_followers
    candidates = sorted({grp.representative for grp in groups}
                        | (over_adjacent - pruned_all))
    return groups, candidates


class _GroupStore:
    """Groups by id, each replaced but never changed, logged for a rollback.

    A group's id is its smallest member.  `gid_of` maps each grouped edge
    to its group's id, and an edge in no group to -1: an edge leaving its
    group keeps its entry at -1, so a rollback writes into entries that
    are there already and no table grows.  `groups` maps each id to the
    group's record, whose `members` are ascending.

    No record is changed once grown: an update takes out the groups it
    could have changed (`_dissolve`), grows new ones over their members,
    and logs both.  `grown` maps the id of each group it added that the
    index still holds to the record, and `dissolved` lists the records it
    took out that the build left: a group grown since the last rollback
    and dissolved again leaves `grown` and is not listed, since the groups
    a rollback returns to never held it.  `rollback` undoes every update
    since the build or the last rollback from those two logs, so one index
    serves every solve on a truss level (`truss.parked`).

    A subclass supplies `_weigh(record, delta, changed)`, which adds (+1)
    or withdraws (-1) the group's share of the index's per-edge tables.
    """

    __slots__ = ("gid_of", "groups", "grown", "dissolved")

    def __init__(self, gid_of):
        self.gid_of = gid_of
        self.groups: dict = {}
        self.grown: dict = {}
        self.dissolved: list = []

    def rollback(self) -> None:
        """Undo every update since the build or the last rollback, and empty both logs."""
        for gid in self.grown:
            self._drop(gid, _DISCARD)
        gid_of, groups = self.gid_of, self.groups
        for record in self.dissolved:
            gid = record.members[0]
            groups[gid] = record
            for e in record.members:
                gid_of[e] = gid
            self._weigh(record, 1, _DISCARD)
        self.grown.clear()
        self.dissolved.clear()

    def _drop(self, gid: int, changed: list[int]):
        """Take group `gid` out, its members' ids and its share with it; returns its record."""
        record = self.groups.pop(gid)
        gid_of = self.gid_of
        for e in record.members:
            gid_of[e] = -1
        self._weigh(record, -1, changed)
        return record

    def _dissolve(self, gids: Collection[int], changed: list[int]) -> list[int]:
        """Take out and log the groups `gids`; returns their members, to regrow from."""
        log, members = self.grown, []
        for gid in gids:
            record = self._drop(gid, changed)
            if log.pop(gid, None) is None:
                self.dissolved.append(record)
            members.extend(record.members)
        return members


class SupportGroupIndex(_GroupStore):
    """Support groups of one truss and their candidacy votes, maintained across commits.

    After each committed cascade, `update` takes that cascade's region,
    dissolves only the groups the cascade could have changed, and regrows
    groups over the region.  A build is the update of an empty index over
    every threshold edge of `t`, so groups grow through that one loop.
    `groups` maps each group's id to the `SupportGroup`, so the index
    always holds the groups `find_support_groups` finds on the current
    truss.  The index keeps no truss: `update` takes the one its caller
    commits to.

    The index owns the candidate set: `cand` holds one byte an edge, 1
    exactly for the representatives and for the edges some group lists as
    over-adjacent and none as a pruned follower.  `_weigh` keeps it beside
    each edge's votes, how many groups list it as over-adjacent and how
    many as a pruned follower, so a rollback restores it too;
    `iter_candidates` reads it, and the greedy loop's scan order
    (`minimize._ScanOrder`) reads it directly.  `update` appends every
    edge whose candidacy it touched to a list its caller owns, so callers
    keeping their own view of the candidates re-read just those; the index
    itself records nothing of it, and a build hands `update`
    `truss._DISCARD`, which keeps nothing.  A vote count that falls to 0
    keeps its entry, as `gid_of` keeps -1: every reader takes 0 for no
    vote, so a rollback writes into entries that are there already.
    """

    __slots__ = ("over_count", "pruned_count", "cand")

    def __init__(self, t: TrussSubgraph):
        super().__init__({})
        # per edge: how many groups list it as over-adjacent / pruned
        self.over_count: dict[int, int] = {}
        self.pruned_count: dict[int, int] = {}
        self.cand = bytearray(t.graph.m)
        sup, threshold = t.sup, t.k - 2
        # `list.index` finds the threshold edges at C speed; a dead edge
        # keeps the support it died with, and a peeled one died below k-2,
        # so the dead ones among them are committed seeds, for `update` to skip
        starts: list[int] = []
        start = -1
        while True:
            try:
                start = sup.index(threshold, start + 1)
            except ValueError:
                break
            starts.append(start)
        self.update(t, starts, _DISCARD)
        self.grown.clear()  # the built groups are what a rollback returns to

    def iter_candidates(self) -> Iterator[int]:
        """Every candidate, ascending, picked out of `cand` by `compress` at C speed."""
        return compress(range(len(self.cand)), self.cand)

    def update(self, t: TrussSubgraph, region: Collection[int], changed: list[int]) -> None:
        """Bring the index up to date after a committed cascade on `t`.

        `region` is the commit's `cascade.commit_region`, or any superset
        of it.  Only a dead or decremented edge changes its own support, so
        only the groups holding a region edge can change; they are
        dissolved and regrown, and every other group keeps its members,
        supports and triangles.

        Appends to `changed`, for each group withdrawn and then each group
        added, its representative and every edge it votes for: a superset,
        repeats allowed, of the edges whose candidacy the update changed.
        """
        alive, sup, threshold = t.alive, t.sup, t.k - 2
        gid_of, groups, log = self.gid_of, self.groups, self.grown
        dissolve = {gid_of.get(x, -1) for x in region}
        dissolve.discard(-1)
        # a list, not a set: it copies the region at a fraction of the
        # memory, and a repeated edge is in `gid_of` once it has grown
        grown = list(region)
        grown.extend(self._dissolve(dissolve, changed))
        done = alive.translate(FLIP)
        for e in sorted(grown):
            if alive[e] and sup[e] == threshold and gid_of.get(e, -1) < 0:
                grp = _grow_support_group(t, e, gid_of, done)
                groups[grp.representative] = log[grp.representative] = grp
                self._weigh(grp, 1, changed)

    def _weigh(self, grp: SupportGroup, delta: int, changed: list[int]) -> None:
        """Add (+1) or withdraw (-1) one group's votes, and set the flags they decide.

        The representative and every edge voted for are appended to
        `changed`: the over-adjacent edges hold the pruned followers, so
        they are listed once, and the pruned votes go in first, so the
        flag each over-adjacent edge takes reads both of its counts.  A
        representative has support k-2 and an over-adjacent edge more, so
        the groups of one truss never vote for a representative, and
        `update` withdraws every group it dissolves before it grows any.
        """
        changed.append(grp.representative)
        changed.extend(grp.over_adjacent)
        over, pruned, cand = self.over_count, self.pruned_count, self.cand
        for o in grp.pruned_followers:
            pruned[o] = pruned.get(o, 0) + delta
        for o in grp.over_adjacent:
            over[o] = n = over.get(o, 0) + delta
            cand[o] = n > 0 and not pruned.get(o, 0)
        cand[grp.representative] = delta > 0


class TrussGroup(NamedTuple):
    members: list[int]  # ascending; members[0] is the group's id
    # duplicate-free: the members and every edge sharing an alive triangle with one
    touch: list[int]


class GroupIndex(_GroupStore):
    """Partition of the trussness-k edges into truss groups, with every edge's bound.

    The index keeps no truss: every builder, query and refresh takes the
    k-truss `t` and the (k+1)-truss `upper` nested inside it, both
    `TrussSubgraph`s of the same graph.  The caller commits to `t`, and
    `refresh_index` cascades the commit's dead through `upper`.
    An edge has trussness exactly k when it is alive in `t` but not in
    `upper`.  The triangles groups chain through are those alive in `t`:
    the pairs of an edge's partner tuple (`Graph.triangle_index`) whose
    two edges are alive in `t`.
    A group's id is its smallest member edge, so the index after a refresh
    equals a rebuild over the same `t` and `upper`, ids included.

    The per-edge state is flat arrays indexed by edge id: `gid_of[e]` is
    the group of edge `e`, or -1 when it has none, and `bound[e]` its
    bound, each a 4-byte `array('i')` slot.  `groups` maps each id to a
    `TrussGroup`, whose touch set is a duplicate-free list of its members
    plus every edge sharing an alive triangle of `t` with a member.
    `bound[e]` is the total size of the groups whose touch set holds `e`:
    for an alive edge, of the groups `adjacent_gids(t, upper, e)` names,
    and 0 for a dead one.  Growing a group adds its size over its touch
    set, and dissolving it takes the size back.

    Growing or dissolving a group moves the bound of exactly the edges in
    its touch set.  `refresh_index` appends to a list its caller owns the
    widened commit region and the regrown groups' touch sets, which hold
    every edge whose bound the refresh changed (an edge repeats when
    several of them hold it); callers keeping their own copy of some
    bounds re-read just those.  A build records nothing.  The constructor
    allocates an empty index over a graph of `m` edges, and
    `build_truss_group_index` starts it.
    """

    __slots__ = ("bound", "last_dissolved")

    def __init__(self, m: int):
        super().__init__(array("i", [-1]) * m)
        self.bound = array("i", [0]) * m
        # ids (smallest members) of the groups the most recent refresh
        # dissolved; the benchmark tracer (perfbench/spans.py) counts them
        self.last_dissolved: set[int] = set()

    def _grow(self, t: TrussSubgraph, upper_alive: bytearray, start: int, done: bytearray,
              stamp: bytearray) -> TrussGroup:
        """BFS over trussness-k edges through alive triangles of the k-truss `t`.

        `upper_alive` is the alive array of the (k+1)-truss nested in `t`.
        Callers sweep starts in ascending order, so `start`, the group's
        id, is its smallest member.  Every edge of a walked triangle joins
        the touch set.  `done` is `t.alive.translate(FLIP)`, shared by
        every growth of one build or one refresh: it marks the dead edges,
        and each member is marked as it is expanded.  A pair touching a
        marked edge is skipped: it is a dead triangle, or one walked from
        that member already.  An alive triangle holding a trussness-k edge
        belongs to exactly one group, so each is walked once, and skipping
        it loses nothing.

        `stamp` marks the edges already in the touch set being grown, and
        the growth clears it again: one per build or refresh, shared by its
        growths, all zero between them, and not kept with the index.
        Membership is decided at an edge's first touch, when `stamp` marks
        it: a trussness-k edge joins there, so a stamped edge is already
        in the touch set and, at trussness k, already a member.  The check
        runs once per touched edge, not once per walked triangle.  An edge
        met untouched that `gid_of` already gives to a group belongs to
        another group, which should have been dissolved first: an
        internal error.  Returns the group's record, which it adds to `groups`.
        """
        partners, gid_of = t.graph.triangle_index(), self.gid_of
        members = [start]
        gid_of[start] = start
        touch = [start]
        stamp[start] = 1
        for e in members:  # grows while it is walked: breadth-first
            done[e] = 1
            it = iter(partners[e])
            for a, b in zip(it, it):
                if done[a] or done[b]:
                    continue
                # a and b alike, written out twice, as in `truss._peel`: a
                # loop over (a, b) cost a tuple and a loop step per triangle
                if not stamp[a]:
                    stamp[a] = 1
                    touch.append(a)
                    if not upper_alive[a]:
                        other = gid_of[a]
                        if other < 0:
                            gid_of[a] = start
                            members.append(a)
                        else:
                            raise AssertionError(
                                f"truss group grown from edge {start} reached group {other}")
                if not stamp[b]:
                    stamp[b] = 1
                    touch.append(b)
                    if not upper_alive[b]:
                        other = gid_of[b]
                        if other < 0:
                            gid_of[b] = start
                            members.append(b)
                        else:
                            raise AssertionError(
                                f"truss group grown from edge {start} reached group {other}")
        members.sort()
        self.groups[start] = record = TrussGroup(members, touch)
        bound, size = self.bound, len(members)
        for x in touch:
            bound[x] += size
            stamp[x] = 0
        return record

    def _weigh(self, record: TrussGroup, delta: int, changed: list[int]) -> None:
        """Add (+1) or withdraw (-1) the group's size over its touch set.

        `changed` is left as it is: an edge a dissolved group touched is in
        the widened region or in a regrown group's touch set, and
        `refresh_index` lists both itself.
        """
        bound, size = self.bound, delta * len(record.members)
        for x in record.touch:
            bound[x] += size

    # -- queries ---------------------------------------------------------------

    def adjacent_gids(self, t: TrussSubgraph, upper: TrussSubgraph, eid: int) -> set[int]:
        """Ids of the truss groups the edge touches through triangles of `t`.

        Walks the edge's alive triangles afresh, so it is the from-scratch
        reference for `bound`.  A trussness-k edge in no group means `t` or
        `upper` changed without a refresh.
        """
        alive, upper_alive, gid_of = t.alive, upper.alive, self.gid_of
        out: set[int] = set()
        if alive[eid]:  # a dead edge has no alive triangle
            it = iter(t.graph.triangle_index()[eid])
            out.update(gid_of[o] for a, b in zip(it, it) if alive[a] and alive[b]
                       for o in (a, b) if not upper_alive[o])
            if not upper_alive[eid]:
                out.add(gid_of[eid])
        if -1 in out:
            raise ContractViolation(
                f"edge id {eid} touches a trussness-k edge in no group; index is stale")
        return out


def build_truss_group_index(t: TrussSubgraph, upper: TrussSubgraph) -> GroupIndex:
    """Index the truss groups of the k-truss `t`, given its (k+1)-truss `upper`.

    `upper` is what `minimize._two_level_tau(t)` returns for the current
    `t`.  The groups grow from starts taken through `compress` from one
    big-int AND-NOT of the two alive arrays, whose bytes are 1 exactly at
    trussness k.
    """
    idx = GroupIndex(t.graph.m)
    m, gid_of = t.graph.m, idx.gid_of
    level = int.from_bytes(t.alive, "little") & ~int.from_bytes(upper.alive, "little")
    stamp = bytearray(m)
    done = t.alive.translate(FLIP)
    for e in compress(range(m), level.to_bytes(m, "little")):
        if gid_of[e] < 0:
            idx._grow(t, upper.alive, e, done, stamp)
    return idx


def refresh_index(idx: GroupIndex, t: TrussSubgraph, upper: TrussSubgraph, dead: list[int],
                  region: set[int], moved: list[int]) -> GroupIndex:
    """Bring the index up to date after one commit to the k-truss `t`.

    `upper` is the (k+1)-truss nested in `t` before the commit, `dead` the
    commit's dead list and `region` its `cascade.commit_region` in `t`,
    which is left as it is.  The refresh keeps the nested truss:
    `upper.cascade(dead)` leaves `upper` the (k+1)-truss of the reduced
    graph, which holds none of the dead edges, and the edges it drops widen
    the region with their alive-triangle partners.  As in
    `SupportGroupIndex.update`, only the groups holding an edge of the
    widened region are dissolved (`last_dissolved`) and regrown; the
    other records stay as they are.  A group missing it keeps every
    alive triangle of its members, since a triangle dies only when all its
    edges die or lose support, so its share of `bound` stays exact.  The
    result, ids and `bound` included, equals a fresh
    `build_truss_group_index`.

    Appends to `moved` the widened region, then the touch set of each
    regrown group: every edge whose `bound` moved.  An edge that a
    dissolved group touched and no regrown one does died or lost an alive
    triangle, so it is in the region.  Returns `idx`.

    The regrowths share one fresh per-edge marker and one touch-set stamp
    (see `GroupIndex._grow`), so each alive triangle they reach is walked
    once.  Besides the dead edges it marks only the members this refresh
    expands: a group that should have been dissolved but survived still
    has its members unmarked, and a regrowth reaching it raises.
    """
    gid_of, log = idx.gid_of, idx.grown
    grown = region | commit_region(t, upper.cascade(dead), ())
    moved.extend(grown)
    idx.last_dissolved = dissolve = {gid_of[x] for x in grown}
    dissolve.discard(-1)
    grown.update(idx._dissolve(dissolve, moved))
    stamp = bytearray(t.graph.m)
    done = t.alive.translate(FLIP)
    for e in sorted(grown):
        if t.alive[e] and not upper.alive[e] and gid_of[e] < 0:
            log[e] = record = idx._grow(t, upper.alive, e, done, stamp)
            moved.extend(record.touch)
    return idx
