import random
from collections import Counter

import pytest

import oracles
from conftest import assert_no_queued_edge, complete_pairs, er_pairs, graph_of, label_pairs, \
    oracle_best_single, random_trusses, support
from trussmin import ContractViolation, delete_and_cascade, followers_of_edge, k_truss, truss
from trussmin.cascade import simulate_followers


def truss_label_pairs(g, t):
    return label_pairs(g, t.alive_edge_ids())


class TestDeleteAndCascade:
    def test_k5_at_5_single_deletion(self, k5):
        t = k_truss(k5, 5)
        expected = oracles.cascade(complete_pairs(5), 5, [(0, 1)])
        out = delete_and_cascade(t, [(0, 1)])
        assert label_pairs(k5, out.followers) == expected[1]
        assert len(out.followers) == 9
        assert out.surviving.edge_count == 0
        assert t.edge_count == 10  # input untouched

    def test_k4_at_4_single_deletion(self, k4):
        t = k_truss(k4, 4)
        expected = oracles.cascade(complete_pairs(4), 4, [(0, 1)])
        out = delete_and_cascade(t, [(0, 1)])
        assert len(out.followers) == len(expected[1]) == 5

    def test_k5_at_3_no_cascade(self, k5):
        t = k_truss(k5, 3)
        expected = oracles.cascade(complete_pairs(5), 3, [(0, 1)])
        out = delete_and_cascade(t, [(0, 1)])
        assert out.followers == set()
        assert expected[1] == set()
        assert out.surviving.edge_count == 9

    def test_edges_outside_truss_are_ignored(self, k5):
        pairs = complete_pairs(5) + [(4, 9)]
        g = graph_of(pairs)
        t = k_truss(g, 5)
        pendant = g.endpoints(g.m - 1)  # dense endpoints of labels (4, 9)
        assert g.original_pair(g.edge_id(*pendant)) == (4, 9)
        out = delete_and_cascade(t, [pendant, (990, 991)])
        assert out.deleted == set()
        assert out.followers == set()
        assert out.surviving.edge_count == 10

    def test_outcome_partitions_the_truss(self, rng):
        for _ in range(30):
            pairs = er_pairs(rng, rng.randint(5, 18), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            k = rng.choice((3, 4, 5))
            t = k_truss(g, k)
            if t.edge_count == 0:
                continue
            alive = t.alive_edge_ids()
            picks = rng.sample(alive, min(len(alive), rng.randint(1, 3)))
            out = delete_and_cascade(t, picks)
            assert out.followers.isdisjoint(out.deleted)
            assert t.edge_count == len(out.deleted) + len(out.followers) \
                + out.surviving.edge_count
            # survivors meet the support constraint
            for e in out.surviving.alive_edge_ids():
                u, v = g.endpoints(e)
                assert support(g, u, v, out.surviving.alive) >= k - 2

    def test_matches_scratch_recompute(self, rng):
        for _ in range(60):
            pairs = er_pairs(rng, rng.randint(5, 18), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            k = rng.choice((3, 4, 5))
            t = k_truss(g, k)
            if t.edge_count == 0:
                continue
            alive = t.alive_edge_ids()
            picks = rng.sample(alive, min(len(alive), rng.randint(1, 3)))
            out = delete_and_cascade(t, picks)
            truss_pairs = label_pairs(g, alive)
            b_pairs = {g.original_pair(e) for e in picks}
            _, followers, survivors = oracles.cascade(truss_pairs, k, b_pairs)
            assert label_pairs(g, out.followers) == followers
            assert truss_label_pairs(g, out.surviving) == survivors


class TestFollowersOfEdge:
    def test_k5_at_5(self, k5):
        t = k_truss(k5, 5)
        for e in t.alive_edge_ids():
            assert followers_of_edge(t, e) == 9
        assert t.edge_count == 10

    def test_two_k5s_sharing_a_vertex(self):
        pairs = complete_pairs(5) + [(i, j) for i in range(4, 9)
                                     for j in range(i + 1, 9)]
        g = graph_of(pairs)
        t = k_truss(g, 5)
        assert t.edge_count == 20
        e = g.edge_id(0, 1)
        assert followers_of_edge(t, e) == 9  # second clique untouched

    def test_edge_with_no_threshold_neighbor_has_none(self, k6):
        t = k_truss(k6, 5)  # all supports 4 > 3
        for e in t.alive_edge_ids():
            assert followers_of_edge(t, e) == 0

    def test_dead_edge_rejected(self, k5):
        t = k_truss(k5, 5)
        delete_and_cascade(t, [(0, 1)])  # clone; t untouched
        t.cascade([k5.edge_id(0, 1)])
        with pytest.raises(ContractViolation):
            followers_of_edge(t, (0, 1))

    @pytest.mark.parametrize("bad", [-1, 6, True, (False, True), (0.5, 1), (0, 1, 2), "ab"])
    def test_out_of_range_and_bool_ids_rejected(self, k4, bad):
        # -1 would wrap to the last edge, True would pass for edge 1 and
        # (False, True) for edge (0, 1); the rest are no edge id or pair
        t = k_truss(k4, 4)
        with pytest.raises(ContractViolation):
            followers_of_edge(t, bad)
        with pytest.raises(ContractViolation):
            delete_and_cascade(t, [bad])
        with pytest.raises(ContractViolation):
            delete_and_cascade(t, [0, bad])
        assert t.edge_count == 6

    def test_rollback_restores_state(self, rng):
        pairs = er_pairs(rng, 14, 0.5)
        g = graph_of(pairs)
        t = k_truss(g, 3)
        if t.edge_count == 0:
            pytest.skip("empty truss for this seed")
        before = truss_state(t)
        for e in t.alive_edge_ids():
            simulate_followers(t, e)
        assert truss_state(t) == before


def truss_state(t):
    return (bytes(t.alive), list(t.sup), t.edge_count)


class TestCascadeLog:
    def test_undo_restores_state_after_multi_seed_peels(self, rng):
        seen_k = set()
        for _, k, t in random_trusses(rng, 60):
            before = truss_state(t)
            alive = t.alive_edge_ids()
            for size in (1, 2, 3):
                for _ in range(5):
                    seeds = sorted(rng.sample(alive, min(size, len(alive))))
                    lowered = []
                    dead = truss._peel(t, seeds, lowered)
                    assert dead[:len(seeds)] == seeds
                    # a full peel pops every dead edge, and its dead list and
                    # the decrements it appended are exactly what changed
                    assert_no_queued_edge(t)
                    assert sorted(dead) == [e for e in range(len(before[0]))
                                            if before[0][e] and not t.alive[e]]
                    assert Counter(lowered) == {e: n - t.sup[e] for e, n in enumerate(before[1])
                                                if n != t.sup[e]}
                    truss._undo(t, dead, lowered)
                    assert truss_state(t) == before, f"k={k}, seeds {seeds}"
            seen_k.add(k)
        assert seen_k == set(range(3, 8))

    def test_log_holds_each_decrement(self, rng):
        for _, _, t in random_trusses(rng, 30):
            alive = t.alive_edge_ids()
            seeds = rng.sample(alive, min(2, len(alive)))
            sup_before = list(t.sup)
            log = []
            t.cascade(seeds, log)
            assert all(isinstance(x, int) and 0 <= x < t.graph.m for x in log)
            for e in range(t.graph.m):
                assert log.count(e) == sup_before[e] - t.sup[e]

    def test_cascade_without_a_log_keeps_no_undo_lists(self, rng, monkeypatch):
        # a log-less cascade hands its peel `_DISCARD`, which keeps nothing
        real_peel, lists = truss._peel, []
        monkeypatch.setattr(truss, "_peel", lambda t, seeds, lowered, stop=():
                            lists.append(lowered) or real_peel(t, seeds, lowered, stop))
        for _, _, t in random_trusses(rng, 30):
            seeds = rng.sample(t.alive_edge_ids(), min(2, t.edge_count))
            logged, unlogged = t.clone(), t.clone()
            log = []
            assert logged.cascade(seeds, log) == unlogged.cascade(seeds)
            assert truss_state(logged) == truss_state(unlogged)
            assert lists[-2] is log and lists[-1] is truss._DISCARD and not truss._DISCARD

    def test_zero_follower_shortcut_matches_full_cascade(self, rng):
        shortcut = 0
        for _, _, t in random_trusses(rng, 60):
            before = truss_state(t)
            for e in t.alive_edge_ids():
                full = t.clone().cascade([e])[1:]
                got = simulate_followers(t, e)
                assert got == full
                shortcut += not full
            assert truss_state(t) == before
        assert shortcut > 0


class TestStoppedSimulation:
    """`simulate_followers(t, e, stop)` returns once an edge of the container
    `stop` dies, which is exact for e in the dead set D(w) when every edge of
    `stop` has dead set D(w): then D(e) = D(w)."""

    def test_stop_inside_the_dead_set(self, rng):
        # For e in D(w), D(e) is a subset of D(w).  When the peel from e
        # kills w the two are equal, and the stopped peel is a prefix of the
        # full one ending at w; otherwise the stop never fires.
        stopped, subset, seen_k = 0, 0, set()
        for g, k, t in random_trusses(rng, 40):
            before = truss_state(t)
            truss_pairs = label_pairs(g, t.alive_edge_ids())
            for w in t.alive_edge_ids():
                _, followers, _ = oracles.cascade(truss_pairs, k, [g.original_pair(w)])
                dead_w = followers | {g.original_pair(w)}
                for e in t.alive_edge_ids():
                    if g.original_pair(e) not in followers:
                        continue
                    full = simulate_followers(t, e)
                    dead_e = label_pairs(g, full) | {g.original_pair(e)}
                    got = simulate_followers(t, e, (w,))
                    assert_no_queued_edge(t)
                    if w in full:
                        assert got[-1] == w
                        assert got == full[:len(got)]
                        assert dead_e == dead_w
                        stopped += 1
                    else:
                        assert got == full
                        assert dead_e < dead_w
                        subset += 1
                    assert truss_state(t) == before
            seen_k.add(k)
        assert seen_k == set(range(3, 8))
        assert stopped > 0 and subset > 0

    def test_stop_at_the_first_member_to_die(self, rng):
        # A stop of several edges ends the peel at whichever dies first, and
        # the stopped list is a prefix of the full one.
        stopped, longer = 0, 0
        for _, _, t in random_trusses(rng, 40):
            before = truss_state(t)
            m = t.graph.m
            for e in t.alive_edge_ids():
                full = simulate_followers(t, e)
                if not full:
                    continue
                stop = set(rng.sample(full, rng.randint(1, min(3, len(full)))))
                stop.update(rng.sample(range(m), 2))
                stop.discard(e)
                got = simulate_followers(t, e, stop)
                assert_no_queued_edge(t)
                first = next(i for i, x in enumerate(full) if x in stop)
                assert got == full[:first + 1]
                assert truss_state(t) == before
                stopped += 1
                longer += first + 1 < len(full)
        assert stopped > 0 and longer > 0

    def test_stop_outside_the_dead_set_changes_nothing(self, rng):
        for _, _, t in random_trusses(rng, 40):
            before = truss_state(t)
            m = t.graph.m
            for e in t.alive_edge_ids():
                full = t.clone().cascade([e])[1:]
                assert simulate_followers(t, e) == full
                assert simulate_followers(t, e, ()) == full
                outside = [x for x in range(m) if x != e and x not in full]
                for stop in rng.sample(outside, min(5, len(outside))):
                    assert simulate_followers(t, e, (stop,)) == full
                    assert_no_queued_edge(t)
                assert truss_state(t) == before

    def test_int_stop_is_refused_before_the_peel(self, k5):
        # an int would fail inside the peel, with `t` half peeled
        t = k_truss(k5, 5)
        before = truss_state(t)
        with pytest.raises(ContractViolation):
            simulate_followers(t, 0, 3)
        assert_no_queued_edge(t)
        assert truss_state(t) == before
        assert simulate_followers(t, 0) == t.clone().cascade([0])[1:]

    @pytest.mark.parametrize("bad", [-2, -1, 11, 12, True, False, 1.0, "1"])
    def test_out_of_range_and_bool_ids_are_refused(self, bad):
        # on K5 plus one disjoint edge (m = 11), -2 would wrap to edge 9, True
        # would pass for edge 1 and 11 would raise a raw IndexError
        g = graph_of(complete_pairs(5) + [(10, 11)])
        t = k_truss(g, 3)
        before = truss_state(t)
        with pytest.raises(ContractViolation):
            simulate_followers(t, bad)
        assert truss_state(t) == before


class TestOracleBestSingle:
    def test_k5_ties_resolve_to_smallest_edge_id(self, k5):
        t = k_truss(k5, 5)
        assert oracle_best_single(t) == (0, 9)

    def test_k4_with_disjoint_k5_at_4(self):
        pairs = complete_pairs(4) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 4)
        got_eid, got_f = oracle_best_single(t)
        expected_edge, expected_f = oracles.best_single(label_pairs(g, t.alive_edge_ids()), 4)
        assert g.original_pair(got_eid) == expected_edge
        assert got_f == expected_f

    def test_single_triangle_at_3(self):
        g = graph_of([(0, 1), (0, 2), (1, 2)])
        t = k_truss(g, 3)
        assert oracle_best_single(t) == (0, 2)

    def test_empty_truss_rejected(self):
        g = graph_of([(0, 1), (1, 2)])
        t = k_truss(g, 3)
        with pytest.raises(ContractViolation, match="empty truss"):
            oracle_best_single(t)


class TestCascadeShape:
    def test_removed_total_is_monotone_in_the_deleted_set(self, rng):
        # Growing the deleted set never shrinks the total removed;
        # reported followers can dip only when the extra deletions were
        # already followers of the smaller set, so that case is tracked
        # against the total instead.
        for _ in range(40):
            pairs = er_pairs(rng, rng.randint(6, 16), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            k = rng.choice((3, 4))
            t = k_truss(g, k)
            if t.edge_count < 3:
                continue
            alive = t.alive_edge_ids()
            small = rng.sample(alive, rng.randint(1, min(2, len(alive))))
            extra = [e for e in alive if e not in small]
            big = small + rng.sample(extra, min(2, len(extra)))
            out_small = delete_and_cascade(t, small)
            out_big = delete_and_cascade(t, big)
            removed_small = len(out_small.deleted) + len(out_small.followers)
            removed_big = len(out_big.deleted) + len(out_big.followers)
            assert removed_small <= removed_big
            assert out_big.surviving.edge_count <= out_small.surviving.edge_count
            if not out_small.followers & set(big):
                assert len(out_small.followers) <= len(out_big.followers)

    def test_cascade_is_order_independent(self, rng):
        # Same surviving set no matter how the deleted set is presented.
        for _ in range(20):
            pairs = er_pairs(rng, rng.randint(6, 15), rng.uniform(0.35, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            t = k_truss(g, 3)
            if t.edge_count < 4:
                continue
            alive = t.alive_edge_ids()
            picks = rng.sample(alive, 3)
            baseline = delete_and_cascade(t, picks)
            for _ in range(3):
                rng.shuffle(picks)
                again = delete_and_cascade(t, picks)
                assert set(again.surviving.alive_edge_ids()) == \
                    set(baseline.surviving.alive_edge_ids())

    def test_non_submodular_witness_on_k6(self, k6):
        # Two zero-damage deletions can jointly unravel everything.
        t = k_truss(k6, 5)
        a = [(0, 1)]
        b = [(2, 3)]
        f_a = len(delete_and_cascade(t, a).followers)
        f_b = len(delete_and_cascade(t, b).followers)
        f_union = len(delete_and_cascade(t, a + b).followers)
        f_inter = len(delete_and_cascade(t, []).followers)
        # Oracle check of the same numbers.
        pairs = complete_pairs(6)
        assert f_a == len(oracles.cascade(pairs, 5, a)[1]) == 0
        assert f_b == len(oracles.cascade(pairs, 5, b)[1]) == 0
        assert f_union == len(oracles.cascade(pairs, 5, a + b)[1]) == 13
        assert f_union + f_inter > f_a + f_b

    def test_non_submodular_witness_found_by_search(self, rng):
        # A second, independent witness located by seeded random search.
        found = None
        for _ in range(300):
            pairs = er_pairs(rng, rng.randint(6, 12), rng.uniform(0.4, 0.7))
            if not pairs:
                continue
            g = graph_of(pairs)
            t = k_truss(g, 4)
            if t.edge_count < 4:
                continue
            alive = t.alive_edge_ids()
            e1, e2 = rng.sample(alive, 2)
            f_a = followers_of_edge(t, e1)
            f_b = followers_of_edge(t, e2)
            f_union = len(delete_and_cascade(t, [e1, e2]).followers)
            if f_union > f_a + f_b:
                found = (pairs, e1, e2)
                break
        assert found is not None, "no witness in the search budget"
