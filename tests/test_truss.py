import random

import pytest

import oracles
from conftest import complete_pairs, er_pairs, graph_of, label_pairs, path_pairs, \
    support, truss_edge_ids
from trussmin import ContractViolation, k_truss, truss_decompose, update_after_deletion


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
        nodes = {g.labels[v] for e in t.alive_edge_ids() for v in g.edges[e]}
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
        tris, _ = g.triangle_index()
        for k in (3, 4, 5, 6):
            t = k_truss(g, k)
            for e in t.alive_edge_ids():
                u, v = g.edges[e]
                assert t.sup[e] == support(g, u, v, t.alive)
            # a triangle is alive exactly when all three of its edges are
            for ti, tri in enumerate(tris):
                assert bool(t.tri_alive[ti]) == all(t.alive[e] for e in tri)

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
                    u, v = g.edges[e]
                    deg[u] = deg.get(u, 0) + 1
                    deg[v] = deg.get(v, 0) + 1
                assert all(d >= k - 1 for d in deg.values())


class TestTrussDecompose:
    def test_clique_trussness(self):
        for n in (3, 4, 5, 6):
            g = graph_of(complete_pairs(n))
            tau = truss_decompose(g)
            assert all(v == n for v in tau.values)

    def test_pendant_edge_gets_sentinel(self):
        g = graph_of([(0, 1), (1, 2), (0, 2), (2, 3)])
        tau = truss_decompose(g)
        assert tau.values[g.edge_id(2, 3)] == 2
        for u, v in ((0, 1), (0, 2), (1, 2)):
            assert tau.values[g.edge_id(u, v)] == 3

    def test_two_k4s_sharing_an_edge(self):
        pairs = complete_pairs(4) + [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
        g = graph_of(pairs)
        expected = oracles.trussness(pairs)   # membership route, per level
        tau = truss_decompose(g)
        for e in range(g.m):
            assert tau.values[e] == expected[g.original_pair(e)]
        assert set(tau.values) == {4}

    def test_membership_equivalence(self, rng):
        # tau(e) >= k exactly when e survives the k-truss peel
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(5, 20), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            tau = truss_decompose(g)
            top = max(tau.values, default=2)
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
        survivors = [e for e in range(k5.m) if new_tau.alive[e]]
        assert len(survivors) == 9
        assert all(new_tau.values[e] == 4 for e in survivors)
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
            assert new_tau.values[g.edge_id(u, v)] == 3

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
            new_tau, changed = update_after_deletion(g, tau, g.edges[eid])
            reduced = [p for p in {g.original_pair(e) for e in range(g.m)}
                       if p != (lu, lv)]
            expected = oracles.trussness(reduced)
            for e in range(g.m):
                if e == eid:
                    assert not new_tau.alive[e]
                    continue
                assert new_tau.values[e] == expected[g.original_pair(e)], \
                    f"edge {g.original_pair(e)} after deleting {(lu, lv)}"
            # every change is a decrease of exactly one
            for e in changed:
                assert new_tau.values[e] == tau.values[e] - 1
            assert changed == {e for e in range(g.m) if e != eid
                               and new_tau.values[e] != tau.values[e]}
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
            tau, _ = update_after_deletion(g, tau, g.edges[eid])
            expected = oracles.trussness(remaining)
            for e in range(g.m):
                if tau.alive[e]:
                    assert tau.values[e] == expected[g.original_pair(e)]
