import random
from array import array

import pytest

import oracles
import synth
from conftest import complete_pairs, er_pairs, graph_of, label_pairs, next_level, \
    path_pairs, random_trusses, support, truss_edge_ids
from trussmin import ContractViolation, k_truss, truss, truss_decompose
from trussmin.minimize import _two_level_tau, solve_up_edge
from trussmin.truss import update_after_deletion


class TestKTruss:
    def test_k5_at_5(self, k5):
        t = k_truss(k5, 5)
        assert t.edge_count == 10
        assert all(t.sup[e] == 3 for e in t.alive_edge_ids())

    def test_triangle_free_graph_is_empty(self):
        g = graph_of(path_pairs(6))
        for k in (3, 4, 5):
            assert k_truss(g, k).edge_count == 0

    def test_k5_minus_edge_at_5_collapses(self):
        pairs = [p for p in complete_pairs(5) if p != (0, 1)]
        # Oracle: naive re-peeling leaves nothing at k=5.
        assert oracles.truss_edges(pairs, 5) == set()
        g = graph_of(pairs)
        assert k_truss(g, 5).edge_count == 0

    def test_k_below_3_rejected(self, k5):
        with pytest.raises(ValueError):
            k_truss(k5, 2)

    def test_no_isolated_nodes_reported(self):
        pairs = complete_pairs(4) + [(3, 9)]
        g = graph_of(pairs)
        t = k_truss(g, 4)
        nodes = {g.labels[v] for e in t.alive_edge_ids() for v in g.endpoints(e)}
        assert nodes == {0, 1, 2, 3}

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(30):
            pairs = er_pairs(rng, rng.randint(5, 20), rng.uniform(0.25, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5, 6):
                t = k_truss(g, k)
                assert label_pairs(g, t.alive_edge_ids()) == oracles.truss_edges(pairs, k)

    def test_supports_consistent_after_peel(self, rng):
        pairs = er_pairs(rng, 16, 0.5)
        g = graph_of(pairs)
        partners = g.triangle_index()
        for k in (3, 4, 5, 6):
            t = k_truss(g, k)
            # no edge is left queued (2) by the peel
            assert set(t.alive) <= {0, 1}
            for e in t.alive_edge_ids():
                u, v = g.endpoints(e)
                assert t.sup[e] == support(g, u, v, t.alive)
                # a triangle is alive exactly when all three of its edges are
                it = iter(partners[e])
                assert t.sup[e] == sum(1 for a, b in zip(it, it) if t.alive[a] and t.alive[b])

    def test_truss_is_at_least_a_core(self, rng):
        # every vertex of T_k touches at least k-1 alive neighbors
        for _ in range(15):
            pairs = er_pairs(rng, rng.randint(6, 20), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                t = k_truss(g, k)
                deg = {}
                for e in t.alive_edge_ids():
                    u, v = g.endpoints(e)
                    deg[u] = deg.get(u, 0) + 1
                    deg[v] = deg.get(v, 0) + 1
                assert all(d >= k - 1 for d in deg.values())


class TestTrussDecompose:
    def test_clique_trussness(self):
        for n in (3, 4, 5, 6):
            g = graph_of(complete_pairs(n))
            tau = truss_decompose(g)
            assert all(v == n for v in tau)

    def test_pendant_edge_gets_sentinel(self):
        g = graph_of([(0, 1), (1, 2), (0, 2), (2, 3)])
        tau = truss_decompose(g)
        assert tau[g.edge_id(2, 3)] == 2
        for u, v in ((0, 1), (0, 2), (1, 2)):
            assert tau[g.edge_id(u, v)] == 3

    def test_two_k4s_sharing_an_edge(self):
        pairs = complete_pairs(4) + [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
        g = graph_of(pairs)
        expected = oracles.trussness(pairs)   # membership route, per level
        tau = truss_decompose(g)
        for e in range(g.m):
            assert tau[e] == expected[g.original_pair(e)]
        assert set(tau) == {4}

    def test_matches_oracle_on_community_graph(self):
        pairs = synth.community_pairs(seed=2, scale=3)
        g = graph_of(pairs)
        expected = oracles.trussness(pairs)
        tau = truss_decompose(g)
        assert g.m == 7373 and max(tau) == 13
        for e in range(g.m):
            assert tau[e] == expected[g.original_pair(e)]

    def test_empty_graph(self):
        tau = truss_decompose(graph_of([]))
        assert tau == []

    def test_triangle_free_path_gets_sentinel(self):
        tau = truss_decompose(graph_of(path_pairs(6)))
        assert tau == [2] * 5

    def test_membership_equivalence(self, rng):
        # tau(e) >= k exactly when e survives the k-truss peel
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(5, 20), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            tau = truss_decompose(g)
            top = max(tau, default=2)
            for k in range(3, top + 2):
                t = k_truss(g, k)
                assert set(t.alive_edge_ids()) == set(truss_edge_ids(tau, k))

    def test_containment_chain(self, rng):
        pairs = er_pairs(rng, 18, 0.5)
        g = graph_of(pairs)
        prev = None
        for k in (3, 4, 5, 6, 7):
            cur = set(k_truss(g, k).alive_edge_ids())
            if prev is not None:
                assert cur <= prev
            prev = cur


class TestUpdateAfterDeletion:
    def test_k5_delete_edge_drops_everything_one_level(self, k5):
        tau = truss_decompose(k5)
        new_tau, changed = update_after_deletion(k5, tau, (0, 1))
        # Frozen from rerunning the decomposition on K5 minus an edge.
        survivors = [e for e in range(k5.m) if new_tau[e] != 0]
        assert len(survivors) == 9
        assert all(new_tau[e] == 4 for e in survivors)
        assert changed == set(survivors)

    def test_disjoint_cliques_do_not_interact(self):
        pairs = complete_pairs(4) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        tau = truss_decompose(g)
        _, changed = update_after_deletion(g, tau, (g.labels.index(0), g.labels.index(1)))
        for e in changed:
            u, v = g.original_pair(e)
            assert u < 10 and v < 10

    def test_pendant_deletion_changes_nothing(self):
        g = graph_of([(0, 1), (1, 2), (0, 2), (2, 3)])
        tau = truss_decompose(g)
        new_tau, changed = update_after_deletion(g, tau, (2, 3))
        assert changed == set()
        for u, v in ((0, 1), (0, 2), (1, 2)):
            assert new_tau[g.edge_id(u, v)] == 3

    def test_double_deletion_rejected(self, k5):
        tau = truss_decompose(k5)
        tau2, _ = update_after_deletion(k5, tau, (0, 1))
        with pytest.raises(ContractViolation):
            update_after_deletion(k5, tau2, (0, 1))

    def test_matches_full_recompute_on_random_trials(self, rng):
        trials = 0
        while trials < 200:
            pairs = er_pairs(rng, rng.randint(5, 25), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            tau = truss_decompose(g)
            eid = rng.randrange(g.m)
            lu, lv = g.original_pair(eid)
            before = list(tau)
            new_tau, changed = update_after_deletion(g, tau, g.endpoints(eid))
            assert tau == before, "the input list was mutated"
            reduced = [p for p in {g.original_pair(e) for e in range(g.m)}
                       if p != (lu, lv)]
            expected = oracles.trussness(reduced)
            for e in range(g.m):
                if e == eid:
                    assert new_tau[e] == 0
                    continue
                assert new_tau[e] == expected[g.original_pair(e)], \
                    f"edge {g.original_pair(e)} after deleting {(lu, lv)}"
            # every change is a decrease of exactly one
            for e in changed:
                assert new_tau[e] == tau[e] - 1
            assert changed == {e for e in range(g.m) if e != eid
                               and new_tau[e] != tau[e]}
            trials += 1

    def test_sequential_deletions_stay_consistent(self, rng):
        pairs = er_pairs(rng, 15, 0.5)
        g = graph_of(pairs)
        tau = truss_decompose(g)
        remaining = {g.original_pair(e) for e in range(g.m)}
        deletable = list(range(g.m))
        rng.shuffle(deletable)
        for eid in deletable[:6]:
            remaining.discard(g.original_pair(eid))
            prev = tau
            tau, changed = update_after_deletion(g, tau, g.endpoints(eid))
            expected = oracles.trussness(remaining)
            for e in range(g.m):
                if g.original_pair(e) in remaining:
                    assert tau[e] == expected[g.original_pair(e)]
                else:
                    # a deleted edge reads 0, however long ago it went
                    assert tau[e] == 0
            assert changed == {e for e in range(g.m)
                               if tau[e] != 0 and tau[e] != prev[e]}
            assert all(tau[e] == prev[e] - 1 for e in changed)


def assert_same_truss(got, want):
    """Equal alive edges, alive-edge supports and edge count.

    A triangle is alive exactly when its three edges are, so equal alive
    edges mean equal alive triangles.
    """
    assert got.k == want.k
    assert got.alive == want.alive and set(got.alive) <= {0, 1}
    assert got.edge_count == want.edge_count
    assert [got.sup[e] for e in got.alive_edge_ids()] == \
        [want.sup[e] for e in want.alive_edge_ids()]


def assert_compact_copy(t, cached):
    """`t`'s supports are the cached level's array type, in an array of its own."""
    assert type(t.sup) is array and t.sup.typecode == cached.typecode and t.sup is not cached


def cold_trusses(rng, count):
    """(graph, k) of `random_trusses` at k = 3..8, the graph's truss cache
    emptied as each pair is handed out."""
    for g, k, _ in random_trusses(rng, count, ks=range(3, 9)):
        g._truss_cache.clear()
        yield g, k


class TestTrussCache:
    """`k_truss` keeps a graph's last two levels and hands out clones of them;
    every case is compared with an uncached peel (`truss._peel_graph`)."""

    def test_mutating_a_returned_truss_leaves_later_calls_alone(self, rng):
        for g, k in cold_trusses(rng, 60):
            first, second = k_truss(g, k), k_truss(g, k)  # the peeled one, then a clone
            for t in (first, second):
                alive = t.alive_edge_ids()
                lowered = []
                dead = truss._peel(t, rng.sample(alive, min(3, len(alive))), lowered)
                truss._undo(t, dead, lowered)
                t.cascade([rng.choice(alive)])
                assert t.alive != g._truss_cache[k][0]
                assert_same_truss(k_truss(g, k), truss._peel_graph(g, k))

    def test_next_level_peels_from_the_cached_level(self, monkeypatch, rng):
        # a miss peels from the highest cached level below it, or from the
        # nested truss frozen on that level, else from scratch, and evicts
        # the oldest level once two are cached
        scratch, thawed = [], []
        real, real_thaw = truss._peel_graph, truss._thaw
        monkeypatch.setattr(truss, "_peel_graph", lambda g, k: scratch.append(k) or real(g, k))
        monkeypatch.setattr(truss, "_thaw",
                            lambda g, k, level: thawed.append(k) or real_thaw(g, k, level))
        for g, k in cold_trusses(rng, 60):
            scratch.clear()
            thawed.clear()
            k_truss(g, k)
            upper = k_truss(g, k + 1)
            assert scratch == [k] and thawed == [k] and list(g._truss_cache) == [k, k + 1]
            assert_same_truss(upper, real(g, k + 1))
            g._truss_cache.clear()
            steps = ((k, None, [k]), (k + 2, k, [k, k + 2]), (k + 1, k, [k + 2, k + 1]),
                     (k + 3, k + 2, [k + 1, k + 3]))
            for level, source, cached in steps:
                scratch.clear()
                thawed.clear()
                got = k_truss(g, level)
                assert (scratch, thawed) == (([level], []) if source is None else ([], [source]))
                assert list(g._truss_cache) == cached, (level, source)
                assert_same_truss(got, real(g, level))
            g._truss_cache.clear()
            scratch.clear()
            _two_level_tau(k_truss(g, k))
            for level, cached in ((k + 2, [k, k + 2]), (k + 1, [k + 2, k + 1])):
                thawed.clear()
                got = k_truss(g, level)
                assert thawed == [k + 1] and list(g._truss_cache) == cached, level
                assert_same_truss(got, real(g, level))
            assert scratch == [k]

    def test_at_most_two_levels_stay_cached(self, rng):
        for g, _ in cold_trusses(rng, 20):
            for k in rng.choices(range(3, 9), k=12):
                assert_same_truss(k_truss(g, k), truss._peel_graph(g, k))
                assert len(g._truss_cache) <= truss.CACHED_LEVELS and k in g._truss_cache

    def test_two_level_tau_of_a_fresh_truss_is_the_cached_next_level(self, rng):
        # the nested level is frozen on the k-level, not cached as a level
        # of its own, and each call hands out a compact copy of it
        for g, k in cold_trusses(rng, 60):
            t = k_truss(g, k)
            want = truss._peel_graph(g, k + 1)
            upper = _two_level_tau(t)
            assert list(g._truss_cache) == [k]
            frozen = truss.parked(t)["upper"]
            assert (frozen[0], frozen[2]) == (want.alive, want.edge_count)
            assert_same_truss(upper, want)
            assert_compact_copy(upper, frozen[1])
            upper.cascade(rng.sample(upper.alive_edge_ids(), min(2, upper.edge_count)))
            again = _two_level_tau(t)
            assert truss.parked(t) == {"upper": frozen} and list(g._truss_cache) == [k]
            assert_same_truss(again, want)
            assert_compact_copy(again, frozen[1])

    def test_two_level_tau_peels_a_committed_truss(self, rng):
        # a committed truss is not its level: it peels its own nested
        # truss, not the one frozen on the level
        for g, k in cold_trusses(rng, 60):
            t = k_truss(g, k)
            _two_level_tau(t)
            seeds = rng.sample(t.alive_edge_ids(), min(2, t.edge_count))
            t.cascade(seeds)
            assert_same_truss(_two_level_tau(t), next_level(t))

    def test_up_edge_on_a_committed_truss_matches_the_reduced_graph(self, rng):
        # `solve_up_edge` peels the nested truss of a committed `t` itself;
        # the one frozen on the level would still hold `t`'s dead edges
        for g, k in cold_trusses(rng, 40):
            t = k_truss(g, k)
            _two_level_tau(t)
            seeds = rng.sample(t.alive_edge_ids(), min(2, t.edge_count))
            t.cascade(seeds)
            if not t.edge_count:
                continue
            gone = {g.original_pair(e) for e in seeds}
            reduced = graph_of([p for p in map(g.original_pair, range(g.m)) if p not in gone])
            got = solve_up_edge(t, 3)
            want = solve_up_edge(k_truss(reduced, k), 3)
            assert [(r.edge, r.followers, r.candidates_evaluated) for r in got] == \
                [(r.edge, r.followers, r.candidates_evaluated) for r in want]

    def test_each_cached_level_parks_in_its_own_dict(self, rng):
        # `parked` hands out a level's dict for a truss equal to the level,
        # and a new one that nothing keeps for any other
        for g, k in cold_trusses(rng, 40):
            t = k_truss(g, k)
            groups = truss.parked(t)
            assert groups == {} and groups is g._truss_cache[k][3]
            assert truss.parked(t.clone()) is groups
            assert truss.parked(k_truss(g, k + 1)) is not groups
            if t.edge_count:
                t.cascade([rng.choice(t.alive_edge_ids())])
                assert truss.parked(t) == {} and truss.parked(t) is not groups
                assert truss.parked(t) is not truss.parked(t)
            k_truss(g, k + 2)  # evicts the k-level, and its dict with it
            assert k not in g._truss_cache
            assert truss.parked(k_truss(g, k)) is not groups

    @pytest.mark.parametrize("spokes, typecode", [(255, "B"), (256, "i")])
    def test_a_book_caches_and_thaws_its_supports(self, spokes, typecode):
        # one spine edge (0, 1) in `spokes` triangles: its support is the
        # largest, and one byte holds it only up to 255
        pairs = [(0, 1)] + [(x, w) for w in range(2, spokes + 2) for x in (0, 1)]
        g = graph_of(pairs)
        levels = {k: k_truss(g, k) for k in (3, 4)}  # each peeled, then cached
        assert levels[3].sup[g.edge_id(0, 1)] == spokes and levels[4].edge_count == 0
        # the 4-truss is empty: the spine died at support 1
        assert [g._truss_cache[k][1].typecode for k in (3, 4)] == [typecode, "B"]
        for k, peeled in levels.items():
            thawed = k_truss(g, k)
            assert thawed.sup == peeled.sup and thawed.alive == peeled.alive
            assert_same_truss(thawed, truss._peel_graph(g, k))

    def test_decomposition_neither_fills_nor_evicts(self, rng):
        for g, k in cold_trusses(rng, 20):
            tau = truss_decompose(g)
            update_after_deletion(g, tau, g.endpoints(rng.randrange(g.m)))
            assert g._truss_cache == {}
            k_truss(g, k)
            k_truss(g, k + 1)
            levels = dict(g._truss_cache)
            tau = truss_decompose(g)
            update_after_deletion(g, tau, g.endpoints(rng.randrange(g.m)))
            assert g._truss_cache.keys() == levels.keys()
            assert all(g._truss_cache[j] is levels[j] for j in levels)
