import random

import pytest

import oracles
import synth
from conftest import assert_candidacy_rule, assert_no_queued_edge, \
    assert_support_build_matches_reference, commit_nested, complete_pairs, er_pairs, gids, \
    graph_of, group_sizes, label_pairs, new_order, next_level, order_view, random_trusses, \
    upper_bound, votes
from trussmin import ContractViolation, delete_and_cascade, followers_of_edge, groups, k_truss, \
    truss
from trussmin.cascade import commit_region, simulate_followers
from trussmin.groups import SupportGroupIndex, build_truss_group_index, find_support_groups, \
    refresh_index
from trussmin.minimize import _two_level_tau, solve_up_edge


def group_partition_labels(g, groups):
    return {frozenset(g.original_pair(e) for e in grp.members) for grp in groups}


def index_partition_labels(g, idx):
    return {frozenset(g.original_pair(e) for e in ms) for ms, _ in idx.groups.values()}


class TestFindSupportGroups:
    def test_k5_is_one_group_one_candidate(self, k5):
        t = k_truss(k5, 5)
        groups, candidates = find_support_groups(t)
        assert len(groups) == 1
        assert len(groups[0].members) == 10
        assert candidates == [0]
        assert group_partition_labels(k5, groups) == \
            oracles.support_group_partition(complete_pairs(5), 5)

    def test_k6_at_5_has_no_groups_or_candidates(self, k6):
        t = k_truss(k6, 5)
        groups, candidates = find_support_groups(t)
        assert groups == []
        assert candidates == []
        for e in t.alive_edge_ids():
            assert followers_of_edge(t, e) == 0

    def test_disjoint_k5s_give_two_groups(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        groups, candidates = find_support_groups(t)
        assert len(groups) == 2
        assert len(candidates) == 2
        assert candidates == [grp.representative for grp in groups]

    def test_matches_definitional_partition(self, rng):
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(5, 18), rng.uniform(0.3, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t = k_truss(g, k)
                if t.edge_count == 0:
                    continue
                groups, _ = find_support_groups(t)
                truss_pairs = label_pairs(g, t.alive_edge_ids())
                assert group_partition_labels(g, groups) == \
                    oracles.support_group_partition(truss_pairs, k)

    def test_zero_follower_guarantee_outside_candidates(self, rng):
        # every alive edge not in the candidate set has no followers
        for _ in range(30):
            pairs = er_pairs(rng, rng.randint(5, 16), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t = k_truss(g, k)
                if t.edge_count == 0:
                    continue
                groups, candidates = find_support_groups(t)
                covered = set(candidates)
                for grp in groups:
                    covered |= set(grp.members)
                    covered |= grp.pruned_followers
                for e in t.alive_edge_ids():
                    if e not in covered:
                        assert followers_of_edge(t, e) == 0

    def test_deleting_any_member_removes_the_whole_group(self, rng):
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(5, 16), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t = k_truss(g, k)
                if t.edge_count == 0:
                    continue
                groups, _ = find_support_groups(t)
                for grp in groups:
                    for m in grp.members:
                        out = delete_and_cascade(t, [m])
                        gone = out.deleted | out.followers
                        assert set(grp.members) <= gone

    def test_pruned_followers_really_follow_every_member(self, rng):
        checked = 0
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(6, 16), rng.uniform(0.35, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t = k_truss(g, k)
                if t.edge_count == 0:
                    continue
                groups, _ = find_support_groups(t)
                for grp in groups:
                    if not grp.pruned_followers:
                        continue
                    for m in grp.members:
                        followers = set(simulate_followers(t, m))
                        assert grp.pruned_followers <= followers
                        checked += 1
        assert checked > 0, "search never produced a pruned follower"

    def test_over_adjacent_and_pruned_followers_match_their_definition(self, rng):
        # soundness alone (above) misses a grower that undercounts the
        # triangles an over-threshold edge shares with the group
        pruned = 0
        for g, k, t in random_trusses(rng, 60):
            truss_pairs = label_pairs(g, t.alive_edge_ids())
            for grp in find_support_groups(t)[0]:
                over, want_pruned = oracles.support_group_reach(
                    truss_pairs, k, label_pairs(g, grp.members))
                assert len(set(grp.over_adjacent)) == len(grp.over_adjacent)
                assert label_pairs(g, grp.over_adjacent) == over, (k, grp.members)
                assert label_pairs(g, grp.pruned_followers) == want_pruned, (k, grp.members)
                pruned += len(want_pruned)
        assert pruned > 0, "search never produced a pruned follower"

    def test_growth_reaching_another_group_raises(self, rng):
        # each member in turn is handed to another group; the growth from
        # the representative must stop there, at either edge of its pair
        checked = 0
        for _, _, t in random_trusses(rng, 80):
            for grp in find_support_groups(t)[0]:
                for x in grp.members[1:]:
                    with pytest.raises(AssertionError, match="reached group"):
                        groups._grow_support_group(t, grp.representative, {x: x},
                                                   t.alive.translate(groups.FLIP))
                    checked += 1
        assert checked > 100

    def test_group_members_share_one_follower_count(self, rng):
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(5, 15), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            t = k_truss(g, 3)
            if t.edge_count == 0:
                continue
            groups, _ = find_support_groups(t)
            for grp in groups:
                counts = {followers_of_edge(t, m) for m in grp.members}
                assert len(counts) == 1


class TestSupportGroupIndex:
    def test_build_records_no_votes(self, monkeypatch):
        # the build is the update from empty, handed `_DISCARD`, which keeps nothing
        real_update, lists = SupportGroupIndex.update, []
        monkeypatch.setattr(SupportGroupIndex, "update", lambda self, t, region, changed:
                            lists.append(changed) or real_update(self, t, region, changed))
        index = SupportGroupIndex(k_truss(graph_of(complete_pairs(5)), 5))
        assert len(index.groups) == 1
        assert len(lists) == 1 and lists[0] is truss._DISCARD and not truss._DISCARD

    def test_untouched_group_is_kept_as_is(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        index = SupportGroupIndex(t)
        second = index.groups[g.edge_id(5, 6)]  # labels (10, 11)
        before = set(index.iter_candidates())
        log = []
        dead = t.cascade([g.edge_id(0, 1)], log)
        changed = []
        index.update(t, commit_region(t, dead, log), changed)
        assert [grp for _, grp in sorted(index.groups.items())] == [second]
        assert index.groups[g.edge_id(5, 6)] is second
        assert sorted(index.iter_candidates()) == [g.edge_id(5, 6)]
        assert before ^ set(index.iter_candidates()) <= set(changed)
        assert_candidacy_rule(t, index)

    def test_new_threshold_edges_form_groups(self):
        # K6 at k=5 has no threshold edge; one deletion lowers its
        # neighbours to the threshold without killing them
        g = graph_of(complete_pairs(6))
        t = k_truss(g, 5)
        index = SupportGroupIndex(t)
        assert index.groups == {} and sorted(index.iter_candidates()) == []
        log = []
        dead = t.cascade([g.edge_id(0, 1)], log)
        assert dead == [g.edge_id(0, 1)]
        changed = []
        index.update(t, commit_region(t, dead, log), changed)
        groups, candidates = find_support_groups(t)
        assert [grp.members for _, grp in sorted(index.groups.items())] == \
            [grp.members for grp in groups] != []
        assert sorted(index.iter_candidates()) == candidates
        assert set(candidates) <= set(changed)
        assert_candidacy_rule(t, index)

    def test_build_matches_reference_on_random_trusses(self, rng):
        for g, k, t in random_trusses(rng, 40):
            assert_support_build_matches_reference(t, f"k={k} build")
            # committed seeds stay dead at the support they had, often k-2
            order = t.alive_edge_ids()
            rng.shuffle(order)
            for eid in order[:6]:
                if t.alive[eid]:
                    t.cascade([eid])
                    assert_support_build_matches_reference(
                        t, f"k={k} after deleting {g.original_pair(eid)}")

    def test_build_matches_reference_on_overlapping_communities(self):
        t = k_truss(graph_of(synth.overlapping_pairs(seed=42, scale=1)), 10)
        assert_support_build_matches_reference(t)

    def test_build_steps_over_a_dead_seed_at_the_threshold(self):
        # every edge of two disjoint K5s has support 3 = k-2 at k=5;
        # deleting (0, 1) kills the first K5 and leaves the seed dead at
        # support 3, below the alive threshold edges of the second
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        seed = g.edge_id(0, 1)
        t.cascade([seed])
        assert not t.alive[seed] and t.sup[seed] == t.k - 2
        assert t.sup.index(t.k - 2) == seed
        assert_support_build_matches_reference(t)
        index = SupportGroupIndex(t)
        assert list(index.groups) == [g.edge_id(5, 6)]  # labels (10, 11)
        assert sorted(index.iter_candidates()) == [g.edge_id(5, 6)]


def nested_index(g, k):
    """The k-truss, its (k+1)-truss and the truss-group index over them."""
    t = k_truss(g, k)
    upper = _two_level_tau(t)
    return t, upper, build_truss_group_index(t, upper)


class TestTrussGroupIndex:
    def test_k5_single_group(self, k5):
        _, _, idx = nested_index(k5, 5)
        assert index_partition_labels(k5, idx) == \
            oracles.truss_group_partition(complete_pairs(5), 5)
        assert sorted(group_sizes(idx).values()) == [10]

    def test_two_k4s_sharing_an_edge_form_one_group(self):
        pairs = complete_pairs(4) + [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
        g = graph_of(pairs)
        _, _, idx = nested_index(g, 4)
        expected = oracles.truss_group_partition(pairs, 4)
        assert len(expected) == 1 and len(next(iter(expected))) == 11
        assert index_partition_labels(g, idx) == expected

    def test_k6_has_empty_level_5(self, k6):
        _, _, idx = nested_index(k6, 5)
        assert group_sizes(idx) == {}

    def test_matches_definitional_partition(self, rng):
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(5, 18), rng.uniform(0.3, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                _, _, idx = nested_index(g, k)
                assert index_partition_labels(g, idx) == \
                    oracles.truss_group_partition(pairs, k)

    def test_growth_reaching_another_group_raises(self, rng):
        # as for support groups: each member in turn is handed to another
        # group, and the growth from the group's id must stop there
        checked = 0
        for _, _, t in random_trusses(rng, 40):
            upper = next_level(t)
            for gid, (members, _) in build_truss_group_index(t, upper).groups.items():
                for x in members[1:]:
                    idx = groups.GroupIndex(t.graph.m)
                    idx.gid_of[x] = x
                    with pytest.raises(AssertionError, match="reached group"):
                        idx._grow(t, upper.alive, gid, t.alive.translate(groups.FLIP),
                                  bytearray(t.graph.m))
                    checked += 1
        assert checked > 100

    def test_a_build_walks_each_alive_triangle_once(self, monkeypatch, rng):
        # `_grow` reads the touch-set stamp of the two other edges of each
        # triangle it walks, so counting the reads counts the walks.  The
        # stamp a build shares between its growths is all zero between them,
        # so each growth may read a counting copy of it instead
        reads = [0]

        class CountingStamp(bytearray):
            def __getitem__(self, i):
                reads[0] += 1
                return super().__getitem__(i)

        real_grow = groups.GroupIndex._grow

        def grow(idx, t, upper_alive, start, done, stamp):
            assert not any(stamp)
            counting = CountingStamp(stamp)
            real_grow(idx, t, upper_alive, start, done, counting)
            assert not any(counting)

        monkeypatch.setattr(groups.GroupIndex, "_grow", grow)
        walked = 0
        for _ in range(30):
            g = graph_of(er_pairs(rng, rng.randint(6, 16), rng.uniform(0.4, 0.75)))
            partners = g.triangle_index()
            for k in (3, 4, 5):
                t = k_truss(g, k)
                upper = next_level(t)
                reads[0] = 0
                build_truss_group_index(t, upper)
                want = set()  # alive triangles holding a trussness-k edge
                for e in t.alive_edge_ids():
                    if not upper.alive[e]:
                        it = iter(partners[e])
                        want.update(frozenset((e, a, b)) for a, b in zip(it, it)
                                    if t.alive[a] and t.alive[b])
                assert reads[0] == 2 * len(want)
                walked += len(want)
        assert walked > 100


class TestUpperBound:
    def test_k5_bound_dominates_followers(self, k5):
        t, upper, idx = nested_index(k5, 5)
        for e in t.alive_edge_ids():
            assert upper_bound(idx, t, upper, e) == 10
            assert followers_of_edge(t, e) == 9

    def test_disjoint_k5s_only_own_group_counts(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t, upper, idx = nested_index(g, 5)
        for e in range(g.m):
            assert upper_bound(idx, t, upper, e) == 10

    def test_edge_with_no_adjacent_level_edges_bounds_zero(self):
        # K6 plus a disjoint K4: at k=4 the K6 edges sit above level 4
        # and touch no trussness-4 edge, so their bound is the empty sum.
        pairs = complete_pairs(6) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        t, upper, idx = nested_index(g, 4)
        k6_edge = g.edge_id(0, 1)
        assert upper_bound(idx, t, upper, k6_edge) == 0
        assert followers_of_edge(t, k6_edge) == 0

    def test_stale_or_outside_edge_rejected(self, k5):
        pairs = complete_pairs(5) + [(4, 9)]
        g = graph_of(pairs)
        t, upper, idx = nested_index(g, 5)
        pendant = g.m - 1
        with pytest.raises(ContractViolation):
            upper_bound(idx, t, upper, pendant)

    @pytest.mark.parametrize("bad", [-1, 10, True])
    def test_out_of_range_and_bool_ids_rejected(self, k5, bad):
        t, upper, idx = nested_index(k5, 5)
        with pytest.raises(ContractViolation):
            upper_bound(idx, t, upper, bad)

    def test_level_edge_outside_every_group_is_stale(self, k6):
        # deleting a K6 edge drops the other 14 from trussness 6 to 5; with
        # the nested truss cascaded but no refresh they sit at level 5 in no group
        t, upper, idx = nested_index(k6, 5)
        dead, _ = commit_nested(t, k6.edge_id(0, 1))
        upper.cascade(dead)
        for e in t.alive_edge_ids():
            with pytest.raises(ContractViolation, match="stale"):
                upper_bound(idx, t, upper, e)

    def test_bound_dominates_on_random_graphs(self, rng):
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(5, 18), rng.uniform(0.3, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t, upper, idx = nested_index(g, k)
                if t.edge_count == 0:
                    continue
                for e in t.alive_edge_ids():
                    assert upper_bound(idx, t, upper, e) >= followers_of_edge(t, e)


class TestRefreshIndex:
    def test_no_changes_returns_same_object(self):
        g = graph_of([(0, 1), (1, 2), (0, 2), (2, 3)])
        t, upper, idx = nested_index(g, 3)
        dead, region = commit_nested(t, g.edge_id(2, 3))
        assert region == set()
        moved = []
        idx2 = refresh_index(idx, t, upper, dead, region, moved)
        assert idx2 is idx and moved == []
        assert idx2.last_dissolved == set()
        assert index_partition_labels(g, idx2) == \
            index_partition_labels(g, nested_index(g, 3)[2])

    def test_k5_deletion_moves_the_group_down_a_level(self, k5):
        t, upper, idx = nested_index(k5, 5)
        idx = refresh_index(idx, t, upper, *commit_nested(t, k5.edge_id(0, 1)), [])
        assert group_sizes(idx) == {}
        t4, upper4, _ = nested_index(k5, 4)
        dead, _ = commit_nested(t4, k5.edge_id(0, 1))
        upper4.cascade(dead)
        assert sorted(group_sizes(build_truss_group_index(t4, upper4)).values()) == [9]

    def test_untouched_group_keeps_identity(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t, upper, idx = nested_index(g, 5)
        second_gid = {idx.gid_of[e] for e in range(g.m)
                      if g.original_pair(e)[0] >= 10}
        assert second_gid == {g.edge_id(5, 6)}  # labels (10, 11), its smallest edge
        second_gid = second_gid.pop()
        before = idx.groups[second_gid]
        idx = refresh_index(idx, t, upper, *commit_nested(t, g.edge_id(0, 1)), [])
        # a regrown group would get the same id and an equal record, so check
        # that the refresh left it alone rather than rebuilt it
        assert second_gid not in idx.last_dissolved
        assert idx.groups[second_gid] is before

    def test_stale_group_trips_the_cross_group_check(self):
        # a K4 and a K5 sharing edge (0, 1): at k=4 the five other K4 edges
        # form one group.  Deleting a K5 edge drops the rest of the K5 to
        # trussness 4, and through (0, 1) it joins that group.  The commit's
        # region in the k-truss holds (0, 1) but none of the group's members,
        # so a refresh that does not widen it by the nested truss's dead keeps
        # the group alive, and the regrowth through (0, 1) must hit it even
        # though the build expanded its members.
        pairs = complete_pairs(4) + [(0, 1), (0, 4), (0, 5), (0, 6), (1, 4), (1, 5),
                                     (1, 6), (4, 5), (4, 6), (5, 6)]
        g = graph_of(pairs)
        t, upper, idx = nested_index(g, 4)
        assert sorted(group_sizes(idx).values()) == [5]
        dead, region = commit_nested(t, g.edge_id(4, 5))
        assert g.edge_id(0, 1) in region and {idx.gid_of[x] for x in region} == {-1}
        upper.cascade(dead)
        with pytest.raises(AssertionError, match="reached group"):
            refresh_index(idx, t, upper, [], region, [])

    @staticmethod
    def assert_matches_rebuild(g, t, upper, idx, context):
        """Group ids, members, touch sets and every edge's bound equal a fresh index's.

        `upper` is the nested truss the refreshes kept.  Each touch set is
        also checked against its definition: duplicate-free, and the members
        plus every edge of their alive triangles.
        """
        fresh_upper = next_level(t)
        fresh = build_truss_group_index(t, fresh_upper)
        assert_no_queued_edge(upper)
        partners = g.triangle_index()

        def triangle_edges(e):
            """The other two edges of each alive triangle of `e`."""
            it = iter(partners[e])
            return {o for a, b in zip(it, it) if t.alive[a] and t.alive[b] for o in (a, b)}

        for ms, touch in idx.groups.values():
            assert len(set(touch)) == len(touch), context
            assert set(touch) == set(ms).union(*map(triangle_edges, ms)), context
        assert index_partition_labels(g, idx) == index_partition_labels(g, fresh), context
        assert idx.gid_of == fresh.gid_of, context
        assert {gid: (ms, set(touch)) for gid, (ms, touch) in idx.groups.items()} == \
            {gid: (ms, set(touch)) for gid, (ms, touch) in fresh.groups.items()}, context
        assert idx.bound == fresh.bound, context
        for e in range(g.m):
            want = upper_bound(fresh, t, fresh_upper, e) if t.alive[e] else 0
            assert idx.bound[e] == want, (context, g.original_pair(e))

    @staticmethod
    def assert_support_groups_match(t, index, context):
        """Groups, group ids and candidates of a maintained index equal a fresh scan's."""
        groups, candidates = find_support_groups(t)
        assert [grp for _, grp in sorted(index.groups.items())] == groups, context
        assert gids(index.gid_of) == \
            {e: grp.representative for grp in groups for e in grp.members}, context
        assert sorted(index.iter_candidates()) == candidates, context

    def test_refresh_equals_rebuild_over_random_deletion_chains(self, rng):
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(6, 16), rng.uniform(0.35, 0.7))
            if not pairs:
                continue
            g = graph_of(pairs)
            k = rng.choice((3, 4, 5))
            t, upper, idx = nested_index(g, k)
            index = SupportGroupIndex(t)
            self.assert_matches_rebuild(g, t, upper, idx, f"level {k} build")
            order = list(range(g.m))
            rng.shuffle(order)
            for eid in order[:12]:
                dead, region = commit_nested(t, eid)
                before = list(idx.bound)
                moved = []
                idx = refresh_index(idx, t, upper, dead, region, moved)
                index.update(t, region, [])
                context = f"level {k} diverged after deleting {g.original_pair(eid)}"
                self.assert_matches_rebuild(g, t, upper, idx, context)
                self.assert_support_groups_match(t, index, context)
                # a solver keeping its own copy of the bounds re-reads `moved` alone
                assert {e for e in range(g.m) if idx.bound[e] != before[e]} <= set(moved), \
                    context

    def test_refresh_equals_rebuild_on_partially_eroding_graph(self):
        # the up_edge deletion chain at k=8, b=12: each commit erodes only
        # part of a truss component, so groups split and touch sets shrink
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        chosen = [r.eid for r in solve_up_edge(k_truss(g, 8), 12)]
        t, upper, idx = nested_index(g, 8)
        index = SupportGroupIndex(t)
        dissolved = 0
        for eid in chosen:
            dead, region = commit_nested(t, eid)
            idx = refresh_index(idx, t, upper, dead, region, [])
            index.update(t, region, [])
            dissolved += len(idx.last_dissolved)
            context = f"after deleting {g.original_pair(eid)}"
            self.assert_matches_rebuild(g, t, upper, idx, context)
            self.assert_support_groups_match(t, index, context)
        assert dissolved > len(chosen)

    def test_refresh_splits_a_giant_group(self):
        # at k=8 one truss group holds 6,537 of the 7,545 level-k edges, so
        # nearly every commit dissolves it; up_edge's chain splits pieces off
        g = graph_of(synth.overlapping_pairs(seed=42, scale=1))
        chosen = [r.eid for r in solve_up_edge(k_truss(g, 8), 5)]
        t, upper, idx = nested_index(g, 8)
        sizes = sorted(group_sizes(idx).values())
        assert (sizes[-1], sum(sizes)) == (6_537, 7_545)
        index = SupportGroupIndex(t)
        order = new_order(t, index, idx.bound)
        splits = 0
        for eid in chosen:
            dead, region = commit_nested(t, eid)
            before, groups_before = list(idx.bound), len(idx.groups)
            moved = []
            idx = refresh_index(idx, t, upper, dead, region, moved)
            index.update(t, region, [])
            splits += len(idx.groups) > groups_before
            context = f"after deleting {g.original_pair(eid)}"
            self.assert_matches_rebuild(g, t, upper, idx, context)
            assert {e for e in range(g.m) if idx.bound[e] != before[e]} <= set(moved), context
            # the support groups the commit dissolved regrew from all their
            # members: the maintained index equals a rebuild, field by field,
            # the -1 ids and zero counts that withdrawn groups leave dropped
            rebuilt = SupportGroupIndex(t)
            assert (gids(index.gid_of), index.groups) == (rebuilt.gid_of, rebuilt.groups), \
                context
            for name in ("over_count", "pruned_count"):
                assert votes(getattr(index, name)) == getattr(rebuilt, name), (name, context)
            assert index.cand == rebuilt.cand, context
            # `moved` alone re-keys the scan order: it holds every edge whose
            # bound moved, and every edge whose candidacy changed
            order.rekey(moved)
            assert order_view(order) == order_view(new_order(t, rebuilt, idx.bound)), context
        assert splits >= 2
