import math
import os
import random
import subprocess
import sys
from itertools import compress

import pytest

import oracles
import synth
from conftest import assert_no_queued_edge, commit_nested, complete_pairs, er_pairs, gids, \
    graph_of, label_pairs, new_order, next_level, oracle_best_single, order_view, \
    random_trusses, upper_bound, verify_equivalence, votes
from trussmin import ContractViolation, EnumerationCapExceeded, Graph, SolverConfig, \
    delete_and_cascade, k_truss, solve, solve_baseline, solve_exact, solve_gp_edge, \
    solve_support, solve_up_edge, truss
from trussmin.cascade import commit_region, simulate_followers
from trussmin.groups import SupportGroupIndex, build_truss_group_index, find_support_groups, \
    refresh_index
from trussmin.minimize import _two_level_tau
from trussmin.truss import TrussSubgraph

# Frozen instance where the unpruned reference scan ties on an edge that the
# reduced candidate set only reaches through a group's certain followers
# (found by seeded search; keeps the shared tie-break honest).
TIE_REGRESSION_PAIRS = [
    (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 2), (1, 3),
    (1, 6), (1, 8), (2, 3), (2, 10), (3, 4), (3, 6), (3, 10), (4, 5), (4, 6),
    (4, 9), (4, 10), (5, 6), (5, 7), (5, 8), (5, 10), (6, 8), (6, 9), (7, 10),
    (8, 9), (8, 10), (9, 10),
]


@pytest.fixture(autouse=True)
def no_queued_edge_after_a_commit(monkeypatch):
    """Every greedy or support commit (`minimize._commit`) leaves `alive` at 0 or 1."""
    from trussmin import minimize
    real = minimize._commit

    def commit(t, eid, expected=None):
        out = real(t, eid, expected)
        assert_no_queued_edge(t)
        return out

    monkeypatch.setattr(minimize, "_commit", commit)


class TestSolverConfig:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SolverConfig(k=2, b=1)
        with pytest.raises(ValueError):
            SolverConfig(k=3, b=0)
        with pytest.raises(ValueError):
            SolverConfig(k=3, b=1, algorithm="annealing")
        with pytest.raises(ValueError):
            SolverConfig(k=3, b=1, threads=0)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_rejects_an_exact_cap_below_one(self, cap):
        # the CLI refuses these too; a solve once failed with "exceeds the cap of -5"
        with pytest.raises(ValueError, match="exact_cap must be >= 1"):
            SolverConfig(k=3, b=1, algorithm="exact", exact_cap=cap)

    # a float budget once made more deletions than b, a NaN level returned
    # the whole graph as its truss, and True passed as 1
    NON_INTS = [2.5, 8.0, float("nan"), float("inf"), True, "8"]

    @pytest.mark.parametrize("bad", NON_INTS)
    @pytest.mark.parametrize("name", ["k", "b", "threads", "exact_cap"])
    def test_rejects_numbers_that_are_not_plain_ints(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            SolverConfig(**{"k": 8, "b": 2, name: bad})

    @pytest.mark.parametrize("bad", NON_INTS)
    def test_k_truss_rejects_a_level_that_is_not_a_plain_int(self, k5, bad):
        with pytest.raises(ValueError, match="k must be an int"):
            k_truss(k5, bad)

    # called directly, each solver once took b = 2.5 for 3 deletions, True
    # for 1, and 0 or -1 for none, without an error
    @pytest.mark.parametrize("bad", NON_INTS + [0, -1])
    @pytest.mark.parametrize("solver", [solve_exact, solve_support, solve_baseline,
                                        solve_gp_edge, solve_up_edge],
                             ids=["exact", "support", "baseline", "gp_edge", "up_edge"])
    def test_every_solver_refuses_a_budget_the_config_refuses(self, k5, solver, bad):
        with pytest.raises(ValueError):
            SolverConfig(k=5, b=bad)
        t = k_truss(k5, 5)
        with pytest.raises(ValueError, match="budget b must be"):
            solver(t, bad)
        assert t.edge_count == k5.m

    @pytest.mark.parametrize("bad", NON_INTS + [0, -1])
    def test_exact_refuses_a_cap_the_config_refuses(self, k5, bad):
        # a float cap once ended in a raw TypeError
        with pytest.raises(ValueError):
            SolverConfig(k=5, b=1, algorithm="exact", exact_cap=bad)
        t = k_truss(k5, 5)
        with pytest.raises(ValueError, match="cap must be"):
            solve_exact(t, 1, bad)
        assert t.edge_count == k5.m


class TestSolveDispatch:
    def test_k5_every_algorithm_fully_collapses(self, k5):
        for algorithm in ("exact", "support", "baseline", "gp_edge", "up_edge"):
            report = solve(k5, SolverConfig(k=5, b=1, algorithm=algorithm))
            assert report.followers_total == 9
            assert report.final_truss_edges == 0
            assert report.b_effective == 1

    @pytest.mark.parametrize("algorithm, solver", [
        ("exact", solve_exact), ("support", solve_support), ("baseline", solve_baseline),
        ("gp_edge", solve_gp_edge), ("up_edge", solve_up_edge),
    ], ids=["exact", "support", "baseline", "gp_edge", "up_edge"])
    def test_empty_truss_warns_and_does_nothing(self, algorithm, solver):
        g = graph_of([(0, 1), (1, 2), (2, 3)])
        assert solver(k_truss(g, 3), 2) == []
        report = solve(g, SolverConfig(k=3, b=2, algorithm=algorithm))
        assert report.iterations == []
        assert report.b_effective == 0
        assert report.followers_total == 0
        assert report.final_truss_edges == 0
        assert report.warnings == ["the 3-truss is empty; nothing to delete"]

    def test_early_stop_marks_effective_budget(self, k5):
        report = solve(k5, SolverConfig(k=5, b=3, algorithm="baseline"))
        assert report.b_effective == 1
        assert any("emptied" in w for w in report.warnings)

    def test_k4_and_k5_mixture_matches_oracle_greedy(self):
        pairs = complete_pairs(4) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        # Oracle: repeat best-single twice on the label-space truss.
        truss_pairs = label_pairs(g, k_truss(g, 4).alive_edge_ids())
        picks = []
        cur = set(truss_pairs)
        for _ in range(2):
            edge, count = oracles.best_single(cur, 4)
            picks.append((edge, count))
            deleted, followers, survivors = oracles.cascade(cur, 4, [edge])
            cur = survivors
        report = solve(g, SolverConfig(k=4, b=2, algorithm="baseline"))
        got = [(r.edge, r.followers) for r in report.iterations]
        assert got == picks

    def test_report_accounting_invariant(self, rng):
        for _ in range(25):
            pairs = er_pairs(rng, rng.randint(6, 18), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for algorithm in ("support", "baseline", "gp_edge", "up_edge", "exact"):
                report = solve(g, SolverConfig(k=3, b=2, algorithm=algorithm))
                assert report.followers_total + report.b_effective == \
                    report.initial_truss_edges - report.final_truss_edges


class TestExact:
    def test_k5_single(self, k5):
        t = k_truss(k5, 5)
        records = solve_exact(t, 1)
        assert [r.eid for r in records] == [0]
        assert records[0].followers == 9

    def test_k5_pairs_return_lexicographically_smallest(self, k5):
        t = k_truss(k5, 5)
        records = solve_exact(t, 2)
        assert [r.eid for r in records] == [0, 1]  # every pair removes everything; first wins
        assert sum(r.followers for r in records) == 8

    def test_k5_pair_counts_the_enumeration_once(self, k5):
        # C(10, 2) = 45 subsets, all evaluated before the first commit
        records = solve_exact(k_truss(k5, 5), 2)
        assert [(r.candidates_total, r.candidates_evaluated) for r in records] == \
            [(45, 45), (45, 0)]

    def test_two_disjoint_k4s_picks_one_edge_each(self):
        pairs = complete_pairs(4) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 4)
        records = solve_exact(t, 2)
        sides = {g.original_pair(r.eid)[0] < 10 for r in records}
        assert sides == {True, False}
        assert sum(r.followers for r in records) == 10

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(10):
            pairs = er_pairs(rng, rng.randint(6, 12), rng.uniform(0.4, 0.7))
            if not pairs:
                continue
            g = graph_of(pairs)
            t = k_truss(g, 3)
            if not 0 < t.edge_count <= 20:
                continue
            truss_pairs = label_pairs(g, t.alive_edge_ids())
            _, expected = oracles.best_subset(truss_pairs, 3, 2)
            records = solve_exact(t, 2)
            assert sum(r.followers for r in records) == expected

    def test_leaves_the_truss_the_joint_deletion_leaves(self, rng):
        def state(t):
            alive = t.alive_edge_ids()
            return bytes(t.alive), t.edge_count, [t.sup[e] for e in alive]

        checked = 0
        while checked < 60:
            pairs = er_pairs(rng, rng.randint(6, 12), rng.uniform(0.4, 0.7))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4):
                for b in (1, 2, 3):
                    t = k_truss(g, k)
                    if not 0 < t.edge_count <= 20:
                        continue
                    before = t.clone()
                    chosen = [r.eid for r in solve_exact(t, b)]
                    assert_no_queued_edge(t)
                    assert state(t) == state(delete_and_cascade(before, chosen).surviving)
                    checked += 1

    def test_every_subset_is_undone_to_the_truss_it_started_from(self, monkeypatch, rng):
        from trussmin import minimize
        real = minimize._undo
        undone = []

        def undo(t, dead, lowered):
            real(t, dead, lowered)
            assert_no_queued_edge(t)
            assert t.alive == start
            undone.append(len(dead))

        monkeypatch.setattr(minimize, "_undo", undo)
        for _ in range(10):
            g = graph_of(er_pairs(rng, rng.randint(6, 12), rng.uniform(0.4, 0.7)))
            for k in (3, 4):
                t = k_truss(g, k)
                if not 0 < t.edge_count <= 20:
                    continue
                start = bytes(t.alive)
                solve_exact(t, 2)
        assert len(undone) > 100

    def test_cap_refusal(self, rng):
        pairs = er_pairs(rng, 20, 0.6)
        g = graph_of(pairs)
        t = k_truss(g, 3)
        with pytest.raises(EnumerationCapExceeded, match="heuristic"):
            solve_exact(t, 3, cap=10)


class TestSupportHeuristic:
    def test_k5_deletes_neighbor_of_smallest_edge(self, k5):
        t = k_truss(k5, 5)
        records = solve_support(t, 1)
        assert k5.original_pair(records[0].eid) == (0, 2)  # edge id 1
        assert records[0].followers == 9

    def test_disjoint_k5s_take_one_edge_per_clique(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        records = solve_support(t, 2)
        sides = {g.original_pair(r.eid)[0] < 10 for r in records}
        assert sides == {True, False}

    @staticmethod
    def reference(t, b):
        """`solve_support` by full scans: (support of the weakest edge, chosen,
        followers, candidates_total) per iteration.

        Each iteration takes the alive edge smallest by (support, edge id),
        then its alive-triangle partner smallest by the same key, and
        commits it.
        """
        partners_of = t.graph.triangle_index()
        out = []
        while len(out) < b and t.edge_count:
            total = t.edge_count
            e_min = min(t.alive_edge_ids(), key=lambda e: (t.sup[e], e))
            it = iter(partners_of[e_min])
            partners = {x for pair in zip(it, it) if t.alive[pair[0]] and t.alive[pair[1]]
                        for x in pair}
            e_star = min(partners, key=lambda e: (t.sup[e], e))
            out.append((t.sup[e_min], e_star, len(t.cascade([e_star])) - 1, total))
        return out

    @classmethod
    def check(cls, g, k):
        """Run both to an empty truss; returns the support of each weakest edge."""
        t = k_truss(g, k)
        want = cls.reference(t.clone(), t.edge_count)
        records = solve_support(t, t.edge_count)
        assert [(r.eid, r.followers, r.candidates_total) for r in records] == \
            [w[1:] for w in want]
        assert t.edge_count == 0
        return [w[0] for w in want]

    def test_matches_full_scan_reference_on_random_trusses(self, rng):
        for g, k, _ in random_trusses(rng, 60):
            self.check(g, k)

    @pytest.mark.parametrize("pairs, weakest", [
        (complete_pairs(6), [4, 3, 3]),
        (complete_pairs(6) + complete_pairs(7, offset=10), [4, 3, 3, 5, 4, 3, 4, 3, 3]),
    ], ids=["k6", "k6+k7"])
    def test_minimum_support_above_the_threshold(self, pairs, weakest):
        # at k = 5 the threshold is 3, and no edge starts there
        assert self.check(graph_of(pairs), 5) == weakest

    def test_minimum_support_rises_after_commits(self):
        # A K7 (support 5) and a K9 (support 7) with vertex 30 joined to four
        # K9 vertices: at k = 5 only its four edges start at the threshold.
        # Deleting one peels the rest and lowers six K9 edges to 7 (from 8),
        # above the threshold; the weakest edge is then in the K7 at 5 and,
        # once the K7 is gone, in the K9 at 7, below the K9's other edges.
        pairs = (complete_pairs(7) + complete_pairs(9, offset=10)
                 + [(10 + i, 30) for i in range(4)])
        assert self.check(graph_of(pairs), 5) == [
            3, 5, 4, 3, 4, 3, 3, 7, 6, 5, 4, 3, 6, 5, 4, 3, 5, 4, 3, 4, 3, 3]

    def test_dead_edges_at_or_above_the_threshold_are_committed_seeds(self, rng):
        # `solve_support`'s scan steps in Python over every dead edge holding
        # its level, which is at least k-2; a peeled edge dies below k-2
        for g, k, t in random_trusses(rng, 60):
            seeds = set()
            while True:
                assert {e for e in range(g.m) if not t.alive[e] and t.sup[e] >= k - 2} <= seeds
                if not t.edge_count:
                    break
                e = rng.choice(t.alive_edge_ids())
                seeds.add(e)
                t.cascade([e])


class TestGpEdge:
    def test_k5_uses_one_candidate(self, k5):
        t = k_truss(k5, 5)
        records = solve_gp_edge(t, 1)
        assert [r.eid for r in records] == [0]
        assert records[0].candidates_total == 1
        assert records[0].candidates_evaluated == 1

    @pytest.mark.parametrize("solver", [solve_gp_edge, solve_up_edge],
                             ids=["gp_edge", "up_edge"])
    def test_k6_at_5_falls_back_to_smallest_alive_edge(self, k6, solver):
        # no threshold edge, so no candidate: the main loop deletes the
        # smallest alive edge with nothing evaluated
        t = k_truss(k6, 5)
        records = solver(t, 1)
        assert [r.eid for r in records] == [0]
        assert records[0].followers == 0
        assert records[0].candidates_total == 0
        assert records[0].candidates_evaluated == 0

    def test_tie_regression_instance_matches_reference(self):
        g = graph_of(TIE_REGRESSION_PAIRS)
        assert verify_equivalence(g, 5, 1)
        report = solve(g, SolverConfig(k=5, b=1, algorithm="baseline"))
        assert report.iterations[0].eid == 0


class TestUpEdge:
    def test_k5_evaluates_one_candidate(self, k5):
        t = k_truss(k5, 5)
        records = solve_up_edge(t, 1)
        assert [r.eid for r in records] == [0]
        assert records[0].candidates_evaluated == 1

    def test_disjoint_k5s_evaluate_both_representatives(self):
        # The second bound (10) still exceeds the best score (9), so both
        # candidates are inspected and the tie goes to the smaller edge id.
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        records = solve_up_edge(t, 1)
        assert records[0].candidates_total == 2
        assert records[0].candidates_evaluated == 2
        assert [r.eid for r in records] == [0]

    def test_zero_bound_candidates_are_never_evaluated(self):
        # K6 carries candidates at k=4? No: its supports exceed the
        # threshold, so pair it with a K4 whose group does the work; the
        # K6 edges bound to zero and the scan must skip them.
        pairs = complete_pairs(6) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 4)
        records = solve_up_edge(t, 1)
        assert records[0].followers == 5  # the K4 collapses
        assert g.original_pair(records[0].eid)[0] >= 10


class TestGreedyEquivalence:
    def test_k5(self, k5):
        assert verify_equivalence(k5, 5, 1)

    def test_k6_all_zero_followers(self, k6):
        assert verify_equivalence(k6, 5, 1)

    def test_random_graphs(self, rng):
        done = 0
        while done < 100:
            pairs = er_pairs(rng, rng.randint(5, 25), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4, 5):
                for b in (1, 2, 3):
                    assert verify_equivalence(g, k, b)
            done += 1

    def test_candidate_counts_never_exceed_the_scan(self, rng):
        for _ in range(30):
            pairs = er_pairs(rng, rng.randint(6, 20), rng.uniform(0.3, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4):
                base = solve(g, SolverConfig(k=k, b=3, algorithm="baseline"))
                gp = solve(g, SolverConfig(k=k, b=3, algorithm="gp_edge"))
                up = solve(g, SolverConfig(k=k, b=3, algorithm="up_edge"))
                for rb, rg, ru in zip(base.iterations, gp.iterations, up.iterations):
                    assert ru.candidates_evaluated <= rg.candidates_evaluated
                    assert rg.candidates_evaluated <= rb.candidates_evaluated


class TestDominanceAndMonotonicity:
    def test_exact_dominates_greedy_everywhere(self, rng):
        done = 0
        while done < 25:
            pairs = er_pairs(rng, rng.randint(6, 14), rng.uniform(0.35, 0.65))
            if not pairs:
                continue
            g = graph_of(pairs)
            for k in (3, 4):
                t = k_truss(g, k)
                if not 0 < t.edge_count <= 25:
                    continue
                for b in (1, 2, 3):
                    exact = solve(g, SolverConfig(k=k, b=b, algorithm="exact"))
                    for algorithm in ("baseline", "gp_edge", "up_edge"):
                        greedy = solve(g, SolverConfig(k=k, b=b, algorithm=algorithm))
                        # The objective (what survives) is dominated always;
                        # follower totals are only comparable when greedy
                        # spent the same budget, since followers exclude the
                        # deleted edges themselves.
                        assert exact.final_truss_edges <= greedy.final_truss_edges
                        if greedy.b_effective == b:
                            assert exact.followers_total >= greedy.followers_total
            done += 1

    def test_greedy_trap_shows_strict_gap(self):
        # Greedy grabs the 9-follower clique bomb; the joint optimum pairs
        # two individually harmless K6 edges that unravel all 15.
        pairs = complete_pairs(6) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        _, oracle_best = oracles.best_subset(pairs, 5, 2)
        exact = solve(g, SolverConfig(k=5, b=2, algorithm="exact"))
        assert exact.followers_total == oracle_best == 13
        for algorithm in ("baseline", "gp_edge", "up_edge"):
            greedy = solve(g, SolverConfig(k=5, b=2, algorithm=algorithm))
            assert greedy.followers_total == 9 < exact.followers_total

    def test_totals_grow_with_budget(self, rng):
        for _ in range(15):
            pairs = er_pairs(rng, rng.randint(6, 16), rng.uniform(0.35, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            for algorithm in ("baseline", "gp_edge", "up_edge", "support"):
                prev = -1
                for b in (1, 2, 3, 4):
                    got = solve(g, SolverConfig(k=3, b=b, algorithm=algorithm))
                    assert got.followers_total >= prev
                    prev = got.followers_total

    def test_greedy_prefixes_are_consistent(self, rng):
        # budget b's run is exactly the first b iterations of a larger run
        for _ in range(10):
            pairs = er_pairs(rng, rng.randint(8, 18), rng.uniform(0.35, 0.6))
            if not pairs:
                continue
            g = graph_of(pairs)
            full = solve(g, SolverConfig(k=3, b=4, algorithm="up_edge"))
            for b in (1, 2, 3):
                part = solve(g, SolverConfig(k=3, b=b, algorithm="up_edge"))
                want = [(r.eid, r.followers) for r in full.iterations[:b]]
                assert [(r.eid, r.followers) for r in part.iterations] == want


def overlapping_clique_pairs(rng):
    """A few cliques of 4..7 vertices that share vertices, plus sparse noise."""
    n = rng.randint(10, 22)
    pairs = set()
    for _ in range(rng.randint(2, 5)):
        members = rng.sample(range(n), rng.randint(4, min(7, n)))
        pairs.update((min(u, v), max(u, v)) for u in members for v in members if u != v)
    pairs.update((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.08)
    return sorted(pairs)


def memo_test_graphs(rng, count):
    for i in range(count):
        if i % 2:
            pairs = overlapping_clique_pairs(rng)
        else:
            pairs = er_pairs(rng, rng.randint(8, 20), rng.uniform(0.35, 0.7))
        if pairs:
            yield graph_of(pairs)


class TestBaselineMemo:
    """The baseline keeps each edge's dead set until a commit's region meets it."""

    def test_memo_matches_fresh_evaluation(self, rng):
        for g in memo_test_graphs(rng, 60):
            for k in range(3, 7):
                b = rng.randint(1, 6)
                fresh = k_truss(g, k)
                want = []
                while len(want) < b and fresh.edge_count > 0:
                    e, f = oracle_best_single(fresh)
                    fresh.cascade([e])
                    want.append((e, f))
                records = solve_baseline(k_truss(g, k), b)
                assert [(r.eid, r.followers) for r in records] == want

    def test_simulations_missing_the_commit_region_are_unchanged(self, rng):
        kept = 0
        for g in memo_test_graphs(rng, 80):
            for k in range(3, 7):
                t = k_truss(g, k)
                if t.edge_count < 2:
                    continue
                before = {e: simulate_followers(t, e) for e in t.alive_edge_ids()}
                seeds = rng.sample(t.alive_edge_ids(), rng.randint(1, 2))
                log: list[int] = []
                dead = t.cascade(seeds, log)
                region = commit_region(t, dead, log)
                assert set(dead) <= region
                for e, fl in before.items():
                    if region.isdisjoint(fl) and e not in region:
                        assert t.alive[e]
                        assert simulate_followers(t, e) == fl
                        kept += 1
        assert kept > 0

    def test_fresh_simulations_go_through_the_module_global(self, monkeypatch):
        # Two disjoint K5s: the first commit erases one clique, so only the
        # first iteration simulates; the other clique's dead sets are kept.
        from trussmin import minimize
        real = minimize.simulate_followers
        calls = []
        monkeypatch.setattr(minimize, "simulate_followers",
                            lambda t, e, stop=(): calls.append(e) or real(t, e, stop))
        g = graph_of(complete_pairs(5) + complete_pairs(5, offset=10))
        report = solve(g, SolverConfig(k=5, b=2, algorithm="baseline"))
        assert [(r.eid, r.followers) for r in report.iterations] == [(0, 9), (10, 9)]
        assert [r.candidates_evaluated for r in report.iterations] == [20, 10]
        assert sorted(calls) == list(range(20))


class TestMemoStop:
    """A memo miss for e stops its simulation at the first dead edge whose
    stored slot holds e, and e takes that edge's tuple.  A miss whose dead
    set equals a stored one always stops.  `held` gains every member of
    every stored tuple and never loses one."""

    @staticmethod
    def replay(monkeypatch, rng, t, commits):
        """Random lookups and commits through one memo; returns the stopped simulations."""
        from trussmin import minimize
        real = minimize.simulate_followers
        stops = []

        def sim(t, e, stop=()):
            out = real(t, e, stop)
            assert_no_queued_edge(t)
            if out and out[-1] in stop:
                assert e in memo.slots[out[-1]]
                stops.append(e)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(minimize, "simulate_followers", sim)
            memo = minimize.DeadSetMemo(t)
            for i in range(commits + 1):
                alive = t.alive_edge_ids()
                if not alive:
                    break
                rng.shuffle(alive)
                for e in alive[:rng.randint(1, len(alive))]:
                    lowered = []
                    dead = truss._peel(t, [e], lowered)
                    truss._undo(t, dead, lowered)
                    assert_no_queued_edge(t)
                    want = tuple(sorted(dead)) if len(dead) > 1 else ()
                    known = e not in memo.slots and want in memo.shared
                    before = len(stops)
                    assert memo.dead_set(e) == want
                    if known:
                        assert stops[before:] == [e]
                assert all(x in memo.held for dead_set in memo.shared for x in dead_set)
                if i == commits:
                    break
                held = set(memo.held)
                log = []
                dead = t.cascade(rng.sample(alive, rng.randint(1, 2)), log)
                assert_no_queued_edge(t)
                memo.invalidate(commit_region(t, dead, log))
                assert memo.held == held
        return len(stops)

    def test_random_graphs(self, monkeypatch, rng):
        stopped = 0
        for g in memo_test_graphs(rng, 60):
            for k in range(3, 7):
                t = k_truss(g, k)
                if t.edge_count:
                    stopped += self.replay(monkeypatch, rng, t, 4)
        assert stopped > 0

    def test_partially_eroding_graph(self, monkeypatch, rng):
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        assert self.replay(monkeypatch, rng, k_truss(g, 8), 6) > 0

    def test_holders_are_the_slots_holding_the_edge(self, k5):
        # Membership, not identity: any tuple in a live slot that holds the
        # edge counts, whoever stored it; a cleared slot drops out at once.
        from trussmin import minimize
        memo = minimize.DeadSetMemo(k_truss(k5, 5))
        dead_set = memo.dead_set(0)
        assert dead_set == tuple(range(10))
        holders = minimize._Holders(memo.slots, 3)
        assert 0 in holders and 1 not in holders
        memo.slots[1] = tuple(list(dead_set))
        assert 1 in holders
        memo.slots[2] = tuple(x for x in dead_set if x != 3)
        assert 2 not in holders
        memo.slots[4] = ()
        assert 4 not in holders
        del memo.slots[0]
        assert 0 not in holders

    def test_slots_follow_the_edges_asked_about(self, rng):
        # A lookup fills the slot of the edge asked about, or flags it when
        # it has no followers, and touches no other edge, a stopped lookup
        # included; `held` is the members of the stored sets.  An
        # invalidation only drops slots and clears flags.
        from trussmin import minimize
        partial = 0  # cases that asked about only some alive edges
        flagged_cases = 0  # cases with both slots and flags
        for g in memo_test_graphs(rng, 40):
            for k in range(3, 6):
                t = k_truss(g, k)
                alive = t.alive_edge_ids()
                if not alive:
                    continue
                memo = minimize.DeadSetMemo(t)
                asked = set(rng.sample(alive, rng.randint(1, len(alive))))
                for e in asked:
                    memo.dead_set(e)
                flagged = {x for x in range(g.m) if memo.zero[x]}
                assert memo.slots.keys() | flagged == asked
                assert memo.slots.keys().isdisjoint(flagged)
                assert all(memo.slots[x] for x in memo.slots)
                assert memo.held == {x for dead_set in memo.shared for x in dead_set}
                log = []
                dead = t.cascade([rng.choice(alive)], log)
                region = commit_region(t, dead, log)
                memo.invalidate(region)
                assert memo.slots.keys() <= asked - region
                assert not any(memo.zero[x] for x in region)
                assert {x for x in range(g.m) if memo.zero[x]} == flagged - region
                partial += len(asked) < len(alive)
                flagged_cases += bool(flagged and memo.slots)
        assert partial > 0 and flagged_cases > 0

    def test_a_commit_clears_the_flags_in_its_region_only(self, monkeypatch):
        # Two disjoint K5s at k = 4: no edge has followers, so every lookup
        # flags its edge.  A commit in the first clique puts that clique in
        # its region; the edges left there are simulated again and now have
        # followers, while the second clique's flags stand.
        from trussmin import minimize
        real = minimize.simulate_followers
        calls = []
        monkeypatch.setattr(minimize, "simulate_followers",
                            lambda t, e, stop=(): calls.append(e) or real(t, e, stop))
        g = graph_of(complete_pairs(5) + complete_pairs(5, offset=10))
        t = k_truss(g, 4)
        memo = minimize.DeadSetMemo(t)
        assert [memo.dead_set(e) for e in range(20)] == [()] * 20
        assert calls == list(range(20)) and not memo.slots
        log = []
        dead = t.cascade([0], log)
        region = commit_region(t, dead, log)
        memo.invalidate(region)
        assert region == set(range(10))
        calls.clear()
        got = {e: memo.dead_set(e) for e in t.alive_edge_ids()}
        assert calls == list(range(1, 10))
        assert all(got[e] == () for e in range(10, 20))
        assert all(len(got[e]) == len(simulate_followers(t, e)) + 1 > 1 for e in range(1, 10))


@pytest.mark.parametrize("algorithm", ["gp_edge", "up_edge"])
class TestScanMemo:
    """`solve_gp_edge` and `solve_up_edge` read follower counts through a
    `DeadSetMemo` in `_scan`; their records equal a replay whose memo
    simulates on every lookup."""

    SOLVERS = {"gp_edge": solve_gp_edge, "up_edge": solve_up_edge}

    @classmethod
    def outcomes(cls, monkeypatch, algorithm, g, k, b):
        """(memo run, memo-free replay), each as (outcome, simulations made)."""
        from trussmin import minimize
        real_sim, real_dead_set = minimize.simulate_followers, minimize.DeadSetMemo.dead_set

        def dead_set(memo, e):
            memo.slots.pop(e, None)
            memo.zero[e] = 0
            return real_dead_set(memo, e)

        runs = []
        for memo_free in (False, True):
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(minimize, "simulate_followers",
                           lambda t, e, stop=(): calls.append(e) or real_sim(t, e, stop))
                if memo_free:
                    mp.setattr(minimize.DeadSetMemo, "dead_set", dead_set)
                outcome = solver_outcome(cls.SOLVERS[algorithm], k_truss(g, k), b)
                runs.append((outcome, len(calls)))
        replay, replay_sims = runs[1]
        assert replay_sims == sum(evaluated for *_, evaluated in replay)
        return runs

    def test_memo_matches_memo_free_replay(self, monkeypatch, rng, algorithm):
        saved = 0
        for _ in range(60):
            g = graph_of(er_pairs(rng, rng.randint(8, 20), rng.uniform(0.35, 0.75)))
            for k in range(3, 7):
                (got, sims), (want, replay_sims) = self.outcomes(
                    monkeypatch, algorithm, g, k, rng.randint(1, 6))
                assert got == want, (k, want)
                saved += replay_sims - sims
        assert saved > 0

    def test_partially_eroding_graph(self, monkeypatch, algorithm):
        # commits here erode only part of a component, so some dead sets
        # survive a commit and others meet its region
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        (got, sims), (want, replay_sims) = self.outcomes(monkeypatch, algorithm, g, 8, 12)
        assert got == want
        assert 0 < sims < replay_sims

    def test_fresh_simulations_go_through_the_module_global(self, monkeypatch, algorithm):
        # Two disjoint K5s: both representatives are simulated once; the
        # first commit erases one clique, and the other's count is kept.
        from trussmin import minimize
        real_sim, real_scan = minimize.simulate_followers, minimize._scan
        calls, per_scan = [], []
        monkeypatch.setattr(minimize, "simulate_followers",
                            lambda t, e, stop=(): calls.append(e) or real_sim(t, e, stop))

        def scan(order, memo):
            before = len(calls)
            out = real_scan(order, memo)
            per_scan.append(calls[before:])
            return out

        monkeypatch.setattr(minimize, "_scan", scan)
        g = graph_of(complete_pairs(5) + complete_pairs(5, offset=10))
        report = solve(g, SolverConfig(k=5, b=2, algorithm=algorithm))
        assert [(r.eid, r.followers) for r in report.iterations] == [(0, 9), (10, 9)]
        assert [r.candidates_evaluated for r in report.iterations] == [2, 1]
        assert per_scan == [[0, 10], []]


class TestEarlyStopCounts:
    """Fresh simulations and early stops on the seed-42 scale-30 graph at
    k = 10.  The stop changes how far a simulation peels, never which edges
    are simulated."""

    @pytest.fixture(scope="class")
    def desk_graph(self):
        return graph_of(synth.community_pairs(seed=42, scale=30))

    @pytest.mark.parametrize("algorithm, b, sims, stops", [
        ("baseline", 5, 39_181, 9_160),
        ("gp_edge", 5, 2_797, 117),
        ("up_edge", 5, 423, 117),
        ("up_edge", 40, 1_974, 1_076),
    ])
    def test_counts(self, monkeypatch, desk_graph, algorithm, b, sims, stops):
        from trussmin import minimize
        real = minimize.simulate_followers
        calls, stopped = [], []

        def sim(t, e, stop=()):
            out = real(t, e, stop)
            calls.append(e)
            if out and out[-1] in stop:
                stopped.append(e)
            return out

        monkeypatch.setattr(minimize, "simulate_followers", sim)
        solve(desk_graph, SolverConfig(k=10, b=b, algorithm=algorithm))
        assert (len(calls), len(stopped)) == (sims, stops)



class TestOverlappingCommunities:
    """`synth.overlapping_pairs` at seed 42, scale 1, k = 10, b = 8.  Its
    communities share vertices, so each commit erodes only part of the
    10-truss: stored dead sets survive some commits and meet the region of
    others, and a refresh dissolves some truss groups but keeps the rest."""

    K, B = 10, 8

    @pytest.fixture(scope="class")
    def graph(self):
        return graph_of(synth.overlapping_pairs(seed=42, scale=1))

    def test_sizes(self, graph):
        assert (graph.m, k_truss(graph, self.K).edge_count) == (33_492, 4_593)

    def test_greedy_solvers_agree(self, graph):
        outcomes = [[(r.eid, r.followers) for r in solve(
            graph, SolverConfig(k=self.K, b=self.B, algorithm=algorithm)).iterations]
            for algorithm in ("baseline", "gp_edge", "up_edge")]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert sum(f for _, f in outcomes[0]) == 1_201

    def test_baseline_simulates_again_after_commits(self, monkeypatch, graph):
        # fresh simulations per iteration: the first sweep simulates every
        # alive edge, and a later one only the edges whose dead set met a
        # commit's region
        from trussmin import minimize
        real_sim, real_commit = minimize.simulate_followers, minimize._commit
        calls, per_iteration = [], []

        def commit(t, eid, expected=None):
            per_iteration.append(len(calls) - sum(per_iteration))
            return real_commit(t, eid, expected)

        monkeypatch.setattr(minimize, "simulate_followers",
                            lambda t, e, stop=(): calls.append(e) or real_sim(t, e, stop))
        monkeypatch.setattr(minimize, "_commit", commit)
        solve(graph, SolverConfig(k=self.K, b=self.B, algorithm="baseline"))
        assert per_iteration == [4_593, 124, 202, 506, 198, 0, 348, 0]

    def test_up_edge_refresh_dissolves_some_groups_only(self, monkeypatch, graph):
        # a group the refresh kept holds the very record it held before
        from trussmin import minimize
        real_refresh = minimize.refresh_index
        before_and_dissolved = []

        def refresh(idx, t, upper, dead, region, moved):
            before = dict(idx.groups)
            out = real_refresh(idx, t, upper, dead, region, moved)
            dissolved = sum(out.groups.get(gid) is not grp for gid, grp in before.items())
            before_and_dissolved.append((len(before), dissolved))
            return out

        monkeypatch.setattr(minimize, "refresh_index", refresh)
        solve(graph, SolverConfig(k=self.K, b=self.B, algorithm="up_edge"))
        # regrowth splits groups: the count rises from 18 to 20
        assert [n for n, _ in before_and_dissolved] == [18, 18, 19, 20, 20, 19, 19, 18]
        assert all(0 < d < n for n, d in before_and_dissolved), before_and_dissolved


class TestCommitChecks:
    """Evaluation and commit must agree, also when asserts are compiled out."""

    def test_under_reported_followers_are_caught(self, k5, monkeypatch):
        from trussmin import minimize
        real = minimize.simulate_followers
        monkeypatch.setattr(minimize, "simulate_followers", lambda t, e, stop=(): real(t, e, stop)[1:])
        for algorithm in ("baseline", "gp_edge", "up_edge"):
            with pytest.raises(ContractViolation):
                solve(k5, SolverConfig(k=5, b=1, algorithm=algorithm))

    def test_check_survives_optimized_mode(self):
        script = (
            "from trussmin import ContractViolation, Graph, SolverConfig, minimize, solve\n"
            "real = minimize.simulate_followers\n"
            "minimize.simulate_followers = lambda t, e, stop=(): real(t, e, stop)[1:]\n"
            "g = Graph.from_pairs([(i, j) for i in range(5) for j in range(i + 1, 5)])\n"
            "try:\n"
            "    solve(g, SolverConfig(k=5, b=1, algorithm='gp_edge'))\n"
            "except ContractViolation:\n"
            "    print('caught')\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "caught", out.stderr


def solver_outcome(solver, t, b):
    return [(r.eid, r.followers, r.candidates_total, r.candidates_evaluated)
            for r in solver(t, b)]


class TestDeadEdgeSupport:
    """No reader looks at the support of a dead edge.

    `k_truss` leaves a peeled edge with whatever count it died at, so every
    reader must check liveness first.  Overwriting those counts with values
    around the threshold must change no solver's answer, no support group
    and no nested (k+1)-truss.
    """

    SOLVERS = (solve_exact, solve_support, solve_baseline, solve_gp_edge, solve_up_edge)

    @classmethod
    def snapshot(cls, g, k, poison=None):
        def fresh():
            t = k_truss(g, k)
            if poison is not None:
                for e in range(g.m):
                    if not t.alive[e]:
                        t.sup[e] = poison
            return t
        groups, candidates = find_support_groups(fresh())
        upper = next_level(fresh())
        return ([(grp.members, grp.pruned_followers, grp.over_adjacent) for grp in groups],
                candidates, upper.alive,
                [solver_outcome(solver, fresh(), 2) for solver in cls.SOLVERS])

    def test_overwritten_dead_supports_change_nothing(self, rng):
        poisoned = 0
        for _ in range(20):
            pairs = er_pairs(rng, rng.randint(7, 13), rng.uniform(0.4, 0.75))
            g = graph_of(pairs)
            for k in (3, 4, 5, 6):
                t = k_truss(g, k)
                if t.edge_count == 0 or t.edge_count == g.m:
                    continue
                poisoned += 1
                want = self.snapshot(g, k)
                for poison in (k - 3, k - 2, k - 1):
                    assert self.snapshot(g, k, poison) == want, (pairs, k, poison)
        assert poisoned >= 20


class TestSharedScanGolden:
    """Per-iteration records of the two pruned solvers, frozen before they
    shared one scan.  On this graph commits erode only part of a component,
    so the pruning and the tie re-evaluation both run on changed groups."""

    GP_EDGE = [(3661, 49, 708, 392), (5472, 45, 682, 368), (5431, 56, 646, 359),
               (1356, 42, 635, 350), (0, 34, 641, 467), (542, 34, 618, 444),
               (6705, 34, 595, 421), (6825, 34, 572, 398), (1310, 21, 549, 375),
               (5950, 18, 503, 346), (6018, 73, 492, 320), (5234, 16, 449, 318)]
    UP_EDGE = [(3661, 49, 708, 120), (5472, 45, 682, 96), (5431, 56, 646, 82),
               (1356, 42, 635, 78), (0, 34, 641, 161), (542, 34, 618, 138),
               (6705, 34, 595, 115), (6825, 34, 572, 92), (1310, 21, 549, 168),
               (5950, 18, 503, 171), (6018, 73, 492, 38), (5234, 16, 449, 143)]

    @pytest.mark.parametrize("solver, want", [(solve_gp_edge, GP_EDGE), (solve_up_edge, UP_EDGE)],
                             ids=["gp_edge", "up_edge"])
    def test_records(self, solver, want):
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        got = solver_outcome(solver, k_truss(g, 8), 12)
        assert got == want


def fresh_keys(t, bounded: bool) -> dict[int, int]:
    """Each candidate of a fresh `find_support_groups(t)` with its scan key.

    The key is `(m - bound) * m + c`, with the bound taken from a truss-group
    index built from scratch; unbounded (`gp_edge`), it is the edge id.
    """
    m, candidates = t.graph.m, find_support_groups(t)[1]
    if not bounded:
        return {c: c for c in candidates}
    upper = next_level(t)
    fresh = build_truss_group_index(t, upper)
    return {c: (m - upper_bound(fresh, t, upper, c)) * m + c for c in candidates}


def check_scan_order(monkeypatch, bounded: bool) -> list[int]:
    """Wraps `minimize._scan` so that every scan first checks its order.

    The order's candidates and their keys (`order_view`) must equal
    `fresh_keys(memo.t, bounded)`, for the truss the memo reads, and its
    key list their sort.  Returns the list that collects each scan's
    candidate count.
    """
    from trussmin import minimize
    real = minimize._scan
    counts: list[int] = []

    def scan(order, memo):
        want = fresh_keys(memo.t, bounded)
        context = f"stale scan order after {len(counts)} scans"
        assert order_view(order) == (want, sorted(want.values())), context
        counts.append(len(want))
        return real(order, memo)

    monkeypatch.setattr(minimize, "_scan", scan)
    return counts


class TestCachedBounds:
    """Every key `solve_up_edge` hands `_scan` equals `(m - bound) * m + c`
    for the bound of a truss-group index built from scratch over the
    current truss, for exactly the candidates of a fresh support-group scan,
    at every iteration: the kept (k+1)-truss, the refresh region and the
    re-keying of the scan order must together leave no stale key."""

    @pytest.fixture
    def checked(self, monkeypatch):
        return check_scan_order(monkeypatch, bounded=True)

    def test_random_graphs(self, checked, rng):
        for _ in range(100):
            g = graph_of(er_pairs(rng, rng.randint(8, 20), rng.uniform(0.4, 0.8)))
            for k in (3, 4, 5, 6, 7):
                solve_up_edge(k_truss(g, k), 6)
        assert sum(checked) > 10000

    def test_partially_eroding_graph(self, checked):
        # thirteen scans: the build's and one after each of twelve commits
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        solve_up_edge(k_truss(g, 8), 13)
        assert len(checked) == 13 and sum(checked) > 5000


class TestScanOrder:
    """The support-group index's candidates, and each solver's scan order
    over them, equal a fresh scan's after every commit."""

    @staticmethod
    def assert_fresh(t, index, up, gp, context):
        assert sorted(index.iter_candidates()) == find_support_groups(t)[1], context
        for order, bounded in ((up, True), (gp, False)):
            want = fresh_keys(t, bounded)
            assert order_view(order) == (want, sorted(want.values())), (context, bounded)

    def test_random_deletion_chains(self, rng):
        commits = 0
        for _ in range(30):
            g = graph_of(er_pairs(rng, rng.randint(6, 16), rng.uniform(0.35, 0.75)))
            for k in range(3, 8):
                t = k_truss(g, k)
                if t.edge_count == 0:
                    continue
                upper = _two_level_tau(t)
                idx = build_truss_group_index(t, upper)
                index = SupportGroupIndex(t)
                up = new_order(t, index, idx.bound)
                gp = new_order(t, index, [g.m] * g.m)
                self.assert_fresh(t, index, up, gp, f"k={k} build")
                while t.edge_count:
                    eid = rng.choice(t.alive_edge_ids())
                    dead, region = commit_nested(t, eid)
                    changed, moved = [], []
                    index.update(t, region, changed)
                    refresh_index(idx, t, upper, dead, region, moved)
                    # the edges whose bound moved also hold every edge whose
                    # candidacy changed, so they alone re-key `up`
                    up.rekey(moved)
                    gp.rekey(changed)
                    self.assert_fresh(t, index, up, gp,
                                      f"k={k}, after deleting {g.original_pair(eid)}")
                    commits += 1
        assert commits > 500

    def test_gp_edge_on_partially_eroding_graph(self, monkeypatch):
        # as `TestCachedBounds.test_partially_eroding_graph` does for up_edge
        checked = check_scan_order(monkeypatch, bounded=False)
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        solve_gp_edge(k_truss(g, 8), 13)
        assert len(checked) == 13 and min(checked) > 400


def support_view(index) -> tuple:
    """A `SupportGroupIndex` in comparable form: each group's members,
    pruned followers and over-adjacent edges (as a set) by id, each grouped
    edge's id, the nonzero votes and the candidate flags."""
    return ({rep: (grp.members, grp.pruned_followers, set(grp.over_adjacent))
             for rep, grp in index.groups.items()},
            gids(index.gid_of), votes(index.over_count), votes(index.pruned_count),
            bytes(index.cand))


def truss_view(idx) -> tuple:
    """A `GroupIndex` in comparable form: each group's members and touch
    set (as a set) by id, each grouped edge's id, and every edge's bound."""
    return ({gid: (members, set(touch)) for gid, (members, touch) in idx.groups.items()},
            gids(idx.gid_of), list(idx.bound))


def upper_view(alive, sup, edge_count) -> tuple:
    """A nested truss in comparable form: its alive bytes, each alive
    edge's support, and its edge count."""
    return bytes(alive), [sup[e] for e in compress(range(len(alive)), alive)], edge_count


def cold_views(g, k) -> tuple:
    """`support_view` and `truss_view` of the indexes built afresh on the
    k-truss of `g`, peeled without the cache, so the cache stays as it was,
    the scan order's rest form over them, as lists by parked key: each
    bound source's sorted keys for the candidates of a fresh support-group
    scan, `gp_edge`'s under the constant bound m and `up_edge`'s under the
    fresh index's, and the `upper_view` of a cold `next_level`."""
    t = truss._peel_graph(g, k)
    upper = next_level(t)
    idx = build_truss_group_index(t, upper)
    m, candidates = g.m, find_support_groups(t)[1]
    rest = {"gp_edge": candidates,
            "up_edge": sorted((m - idx.bound[c]) * m + c for c in candidates)}
    return (support_view(SupportGroupIndex(t)), truss_view(idx), rest,
            upper_view(upper.alive, upper.sup, upper.edge_count))


def parked_on(g, k) -> dict:
    """The indexes parked on the cached k-level of `g`."""
    return g._truss_cache[k][3]


PARKED_KEYS = {"upper", "support", "truss", "gp_edge", "up_edge"}


def assert_parked_as_built(g, k, want) -> None:
    """The nested truss, indexes and scan-order rest forms parked on the
    k-level of `g` equal `want`, what `cold_views` returns, and the
    indexes hold no log and no truss."""
    parked = parked_on(g, k)
    assert parked.keys() <= PARKED_KEYS, k
    if "upper" in parked:
        assert upper_view(*parked["upper"]) == want[3], k
    for kind, want_rest in want[2].items():
        if kind in parked:
            assert list(parked[kind]) == want_rest, (kind, k)
    for kind, view, want_view in (("support", support_view, want[0]),
                                  ("truss", truss_view, want[1])):
        index = parked.get(kind)
        if index is None:
            continue
        assert view(index) == want_view, (kind, k)
        assert not index.grown and not index.dissolved, (kind, k)
        assert [name for cls in type(index).__mro__ for name in getattr(cls, "__slots__", ())
                if isinstance(getattr(index, name), TrussSubgraph)] == [], (kind, k)


def records_of(report) -> list[tuple]:
    """A report's iteration records without their timing."""
    return [(r.edge, r.eid, r.followers, r.candidates_total, r.candidates_evaluated)
            for r in report.iterations]


def cold_copy(g):
    """A graph with the edges of `g` and nothing cached but its triangle index."""
    cold = Graph(g.n, g.keys, g.labels)
    cold._tri_cache = g.triangle_index()
    return cold


def counting_builds(monkeypatch, g) -> list[int]:
    """The levels of the truss-group builds on `g` from now on, in order."""
    from trussmin import minimize
    real_build, builds = minimize.build_truss_group_index, []
    monkeypatch.setattr(minimize, "build_truss_group_index", lambda t, upper: (
        t.graph is g and builds.append(t.k)) or real_build(t, upper))
    return builds


def counting_orders(monkeypatch, g) -> list[int]:
    """The levels of the scan-order rest forms built on `g` from now on, in order."""
    from trussmin import minimize
    real_build, builds = minimize._rest_order, []
    monkeypatch.setattr(minimize, "_rest_order", lambda t, groups, bound: (
        t.graph is g and builds.append(t.k)) or real_build(t, groups, bound))
    return builds


class TestParkedGroups:
    """The first `gp_edge` or `up_edge` solve on a graph's cached k-level
    parks the indexes and scan-order rest forms it builds on that level,
    and later solves at k pop them, commit on them (or on copies) and roll
    them back while the level stays cached: every answer equals a cold
    graph's, and after every solve what is parked equals a cold build on
    the level."""

    # (algorithm, budget in thirds of the largest) in the order one graph
    # runs them at each level
    PLAN = (("gp_edge", 2), ("baseline", 3), ("up_edge", 3), ("support", 2),
            ("up_edge", 1), ("gp_edge", 3), ("up_edge", 2))

    def warm_equals_cold(self, monkeypatch, g, k, b=3):
        """Run `PLAN`, with budgets up to `b`, at k, k + 1 and k again on
        `g`; returns the levels of the truss-group builds on `g`, in order.

        The visits to k and k + 1 build the scan order's rest form once per
        bound source; the visit to k + 1 leaves k's level cached, so the
        return to k builds none."""
        builds, orders = counting_builds(monkeypatch, g), counting_orders(monkeypatch, g)
        cold, built = {}, {}
        for level in (k, k + 1, k):
            for algorithm, thirds in self.PLAN:
                cfg = SolverConfig(k=level, b=max(1, b * thirds // 3), algorithm=algorithm)
                if cfg not in cold:
                    cold[cfg] = records_of(solve(cold_copy(g), cfg))
                assert records_of(solve(g, cfg)) == cold[cfg], cfg
                if level not in built:
                    built[level] = cold_views(g, level)
                assert_parked_as_built(g, level, built[level])
            assert parked_on(g, level).keys() == PARKED_KEYS
        assert orders == [k, k, k + 1, k + 1]
        return builds

    def test_random_graphs(self, monkeypatch, rng):
        for g in memo_test_graphs(rng, 60):
            k = rng.randint(3, 6)
            builds = self.warm_equals_cold(monkeypatch, g, k)
            # the first up_edge solve at each level builds and the later
            # ones lend: the visit to k + 1 freezes its nested (k + 2)-truss
            # on its own level, which evicts nothing
            assert builds == [k, k + 1]

    def solve_at(self, g, plan, b=12) -> list[list[tuple]]:
        """The records of solving `g` at each (algorithm, k) of `plan`."""
        return [records_of(solve(g, SolverConfig(k=k, b=b, algorithm=algorithm)))
                for algorithm, k in plan]

    def test_a_level_keeps_its_groups_across_solves_at_another_level(self, monkeypatch):
        pairs = synth.community_pairs(seed=2, scale=3)
        for other in (9, 10):
            g = graph_of(pairs)
            builds = counting_builds(monkeypatch, g)
            first, _, again = self.solve_at(g, (("up_edge", 8), ("gp_edge", other),
                                                ("up_edge", 8)))
            # the other level was cached beside the 8-level, so the solve
            # there evicted nothing
            assert builds == [8] and list(g._truss_cache) == [8, other], other
            assert again == first
            assert parked_on(g, other).keys() == {"support", "gp_edge"}, other

    def test_a_cached_level_builds_each_scan_order_once(self, monkeypatch):
        # gp_edge and up_edge at 8 each park their keys there; gp_edge at 9
        # builds its own on the 9-level; no later solve builds any again
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        orders = counting_orders(monkeypatch, g)
        plan = (("gp_edge", 8), ("up_edge", 8), ("gp_edge", 9),
                ("up_edge", 8), ("gp_edge", 8), ("gp_edge", 9))
        want = ([8], [8], [9], [], [], [])
        records = []
        for step, new in zip(plan, want):
            before = len(orders)
            records += self.solve_at(g, (step,))
            assert orders[before:] == new, step
        assert records[3:] == [records[1], records[0], records[2]]
        assert list(g._truss_cache) == [8, 9]
        assert parked_on(g, 8).keys() == PARKED_KEYS
        assert_parked_as_built(g, 8, cold_views(g, 8))

    def test_a_level_without_candidates_lends_its_empty_keys(self, monkeypatch):
        # the 4-level holds 6,599 edges and no candidate, so each source
        # parks empty keys; later solves lend them instead of building again
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        orders = counting_orders(monkeypatch, g)
        for algorithm in ("gp_edge", "up_edge", "gp_edge", "up_edge"):
            cfg = SolverConfig(k=4, b=3, algorithm=algorithm)
            assert records_of(solve(g, cfg)) == records_of(solve(cold_copy(g), cfg)), cfg
        assert orders == [4, 4]
        parked = parked_on(g, 4)
        assert k_truss(g, 4).edge_count == 6_599 and not any(parked["support"].cand)
        assert (len(parked["gp_edge"]), len(parked["up_edge"])) == (0, 0)
        assert_parked_as_built(g, 4, cold_views(g, 4))

    def test_an_evicted_level_grows_its_groups_again(self, monkeypatch):
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        builds = counting_builds(monkeypatch, g)
        plan = (("up_edge", 8), ("gp_edge", 9), ("gp_edge", 10))
        first = self.solve_at(g, plan)[0]
        assert list(g._truss_cache) == [9, 10]
        assert self.solve_at(g, (("up_edge", 8),)) == [first]
        assert builds == [8, 8]
        assert_parked_as_built(g, 8, cold_views(g, 8))

    @pytest.mark.parametrize("pairs, k, b", [
        (synth.community_pairs(seed=2, scale=3), 8, 12),
        (synth.overlapping_pairs(seed=42, scale=1), 10, 8),
    ], ids=["community_s2", "overlapping"])
    def test_eroding_graphs(self, monkeypatch, pairs, k, b):
        builds = self.warm_equals_cold(monkeypatch, graph_of(pairs), k, b)
        assert builds == [k, k + 1]

    def test_a_committed_truss_grows_its_own_groups(self):
        pairs = synth.community_pairs(seed=42, scale=30)
        g = graph_of(pairs)
        first = solve_up_edge(k_truss(g, 10), 2)[0].eid
        t = k_truss(g, 10)
        t.cascade([first])
        cold = k_truss(graph_of(pairs), 10)
        cold.cascade([first])
        want = [(r.eid, r.followers) for r in solve_baseline(cold, 3)]
        assert want == [(72895, 138), (3802, 137), (67475, 136)]
        for solver in (solve_up_edge, solve_gp_edge):
            assert [(r.eid, r.followers) for r in solver(t.clone(), 3)] == want, solver

    def test_a_rolled_back_index_equals_a_build(self, rng):
        # two rounds of commits on clones of one level, each followed by a
        # rollback, as two solves at k use one parked pair of indexes
        rounds = 0
        for g in memo_test_graphs(rng, 40):
            for k in range(3, 7):
                t = k_truss(g, k)
                want = cold_views(g, k)[:2]
                index = SupportGroupIndex(t)
                idx = build_truss_group_index(t, _two_level_tau(t))
                for _ in range(2):
                    t = k_truss(g, k)
                    upper = _two_level_tau(t)
                    for eid in rng.sample(t.alive_edge_ids(), min(3, t.edge_count)):
                        if t.alive[eid]:
                            dead, region = commit_nested(t, eid)
                            index.update(t, region, [])
                            refresh_index(idx, t, upper, dead, region, [])
                            rounds += 1
                    index.rollback()
                    idx.rollback()
                    assert (support_view(index), truss_view(idx)) == want, (k, rounds)
                    assert not (index.grown or index.dissolved or idx.grown or idx.dissolved)
        assert rounds > 100

    def test_interleaved_budgets_and_an_evicting_sweep(self, monkeypatch):
        # baseline, gp_edge and up_edge in turn at b = 1, 5 and 40 (which
        # takes 14% to 50% of the level's edges), at levels that evict one
        # visited before: each parked pair of indexes is rolled back after
        # every solve, whatever it committed
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        builds = counting_builds(monkeypatch, g)
        cold = {}
        for k in (8, 10, 8, 9, 8):
            want = cold_views(g, k)
            for b in (1, 40, 5):
                for algorithm in ("up_edge", "baseline", "gp_edge"):
                    cfg = SolverConfig(k=k, b=b, algorithm=algorithm)
                    if cfg not in cold:
                        cold[cfg] = records_of(solve(cold_copy(g), cfg))
                    assert records_of(solve(g, cfg)) == cold[cfg], cfg
                    assert_parked_as_built(g, k, want)
            assert parked_on(g, k).keys() == PARKED_KEYS
        # the 10-level leaves the 8-level cached, so the second visit to 8
        # builds nothing; the 9-level evicts the 8-level, and the third
        # visit to 8 evicts the 10-level, so each of those builds once
        assert builds == [8, 10, 9, 8]

    def test_a_solve_that_raises_parks_nothing(self, monkeypatch):
        # the second commit raises: the level's truss and the indexes the
        # solve popped, or built, are half committed, and the next solve
        # must not start from them; nor from the scan order's rest form,
        # which it lent to copies.  So `solve()` evicts the level, with all
        # that is parked on it, and no other level: the next solve at k
        # peels it and builds its groups again.  A solver called directly
        # on a clone of the level leaves the level cached, and parks
        # nothing on it.  Every scan, in the solve that raises and the one
        # after it, reads an order equal to a fresh one
        from trussmin import minimize
        pairs = synth.community_pairs(seed=2, scale=3)
        real_commit = minimize._commit
        solvers = {"gp_edge": solve_gp_edge, "up_edge": solve_up_edge}
        for algorithm, solver in solvers.items():
            cfg = SolverConfig(k=8, b=5, algorithm=algorithm)
            want = records_of(solve(graph_of(pairs), cfg))
            for mode in ("cold", "warm", "direct"):
                g = graph_of(pairs)
                if mode != "cold":
                    solve(g, cfg)
                    solve(g, SolverConfig(k=9, b=1, algorithm=algorithm))
                builds = counting_builds(monkeypatch, g)
                commits = []

                def commit(t, eid, expected=None):
                    commits.append(eid)
                    if len(commits) == 2:
                        raise RuntimeError("second commit")
                    return real_commit(t, eid, expected)

                with monkeypatch.context() as checked:
                    scans = check_scan_order(checked, bounded=algorithm == "up_edge")
                    with monkeypatch.context() as patched:
                        patched.setattr(minimize, "_commit", commit)
                        with pytest.raises(RuntimeError, match="second commit"):
                            if mode == "direct":
                                solver(k_truss(g, 8), cfg.b)
                            else:
                                solve(g, cfg)
                    if mode == "direct":
                        # the nested truss is never lent, so the one up_edge
                        # froze on the level is left as peeled
                        left = {"upper"} if algorithm == "up_edge" else set()
                        cached = [8, 9]
                        assert list(g._truss_cache) == cached, (algorithm, mode)
                        assert parked_on(g, 8).keys() == left, (algorithm, mode)
                        assert_parked_as_built(g, 8, cold_views(g, 8))
                    else:
                        others = [] if mode == "cold" else [9]
                        assert list(g._truss_cache) == others, (algorithm, mode)
                        cached = others + [8]
                    assert records_of(solve(g, cfg)) == want, (algorithm, mode)
                    assert list(g._truss_cache) == cached, (algorithm, mode)
                assert len(scans) == 2 + len(want), (algorithm, mode)
                # up_edge builds once the raising solve is over, and a cold
                # solve that raises has built once already
                want_builds = [8, 8] if mode == "cold" else [8]
                assert builds == (want_builds if algorithm == "up_edge" else []), \
                    (algorithm, mode)
                assert_parked_as_built(g, 8, cold_views(g, 8))


class TestLentTruss:
    """`solve()` lends its solver the cached level's own alive bytes and
    supports (`truss._level`) and undoes every journaled commit once the
    solver returns: each solve leaves the level as it found it, down to
    the supports of its dead edges, and copies none of it."""

    SOLVERS = {"exact": solve_exact, "support": solve_support, "baseline": solve_baseline,
               "gp_edge": solve_gp_edge, "up_edge": solve_up_edge}

    @staticmethod
    def level_state(g, k) -> tuple:
        """The cached k-level of `g`: alive bytes, whole supports list, edge count."""
        alive, sup, edge_count = g._truss_cache[k][:3]
        return bytes(alive), list(sup), edge_count

    def test_every_solver_leaves_the_level_as_it_found_it(self, rng):
        emptied = exact = 0
        for g in memo_test_graphs(rng, 40):
            k = rng.randint(3, 6)
            cold = truss._peel_graph(g, k)
            want_alive = cold.alive_edge_ids()
            want_sup = [cold.sup[e] for e in want_alive]
            k_truss(g, k)  # caches the level
            before = self.level_state(g, k)
            # the last budget empties the truss: each commit deletes an edge
            for b in (1, 3, max(1, cold.edge_count)):
                for algorithm, solver in self.SOLVERS.items():
                    if algorithm == "exact" and math.comb(cold.edge_count, b) > 5_000:
                        continue
                    cfg = SolverConfig(k=k, b=b, algorithm=algorithm)
                    own = k_truss(g, k)
                    want = [(r.eid, r.followers) for r in (
                        solver(own, b, cfg.exact_cap) if algorithm == "exact" else solver(own, b))]
                    report = solve(g, cfg)
                    assert [(r.eid, r.followers) for r in report.iterations] == want, cfg
                    assert report.final_truss_edges == own.edge_count, cfg
                    assert self.level_state(g, k) == before, cfg
                    assert g._truss_cache[k][4] == [], cfg  # the journal is emptied
                    t = k_truss(g, k)
                    assert t.alive_edge_ids() == want_alive and t.edge_count == cold.edge_count
                    assert [t.sup[e] for e in want_alive] == want_sup, cfg
                    emptied += cold.edge_count > 0 and own.edge_count == 0
                    exact += algorithm == "exact" and bool(want)
        assert emptied > 50 and exact > 10

    def test_a_warm_solve_copies_no_level(self, monkeypatch):
        # after one solve of each kind at k, a later solve neither thaws nor
        # clones a truss: up_edge's nested truss is copied from its frozen
        # arrays, the one copy a warm solve makes
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        algorithms = ("support", "baseline", "gp_edge", "up_edge")
        first = [records_of(solve(g, SolverConfig(k=8, b=3, algorithm=a))) for a in algorithms]
        copies = []
        real_thaw, real_clone = truss._thaw, TrussSubgraph.clone
        monkeypatch.setattr(truss, "_thaw", lambda g, k, level: (
            copies.append(("thaw", k)) or real_thaw(g, k, level)))
        monkeypatch.setattr(TrussSubgraph, "clone", lambda t: (
            copies.append(("clone", t.k)) or real_clone(t)))
        again = [records_of(solve(g, SolverConfig(k=8, b=3, algorithm=a))) for a in algorithms]
        assert again == first and copies == []
        k_truss(g, 8)
        assert copies == [("clone", 8)]
