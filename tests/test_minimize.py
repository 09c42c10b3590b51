import os
import random
import subprocess
import sys

import pytest

import oracles
import synth
from conftest import commit_nested, complete_pairs, er_pairs, graph_of, label_pairs, \
    next_level, oracle_best_single, verify_equivalence
from trussmin import ContractViolation, EnumerationCapExceeded, SolverConfig, \
    build_truss_group_index, find_support_groups, k_truss, simulate_followers, solve, \
    solve_baseline, solve_exact, solve_gp_edge, solve_support, solve_up_edge, upper_bound
from trussmin.cascade import commit_region
from trussmin.groups import SupportGroupIndex, refresh_index
from trussmin.minimize import _ScanOrder, _two_level_tau

# Frozen instance where the unpruned reference scan ties on an edge that the
# reduced candidate set only reaches through a group's certain followers
# (found by seeded search; keeps the shared tie-break honest).
TIE_REGRESSION_PAIRS = [
    (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (1, 2), (1, 3),
    (1, 6), (1, 8), (2, 3), (2, 10), (3, 4), (3, 6), (3, 10), (4, 5), (4, 6),
    (4, 9), (4, 10), (5, 6), (5, 7), (5, 8), (5, 10), (6, 8), (6, 9), (7, 10),
    (8, 9), (8, 10), (9, 10),
]


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


class TestSolveDispatch:
    def test_k5_every_algorithm_fully_collapses(self, k5):
        for algorithm in ("exact", "support", "baseline", "gp_edge", "up_edge"):
            report = solve(k5, SolverConfig(k=5, b=1, algorithm=algorithm))
            assert report.followers_total == 9
            assert report.final_truss_edges == 0
            assert report.b_effective == 1

    def test_empty_truss_warns_and_does_nothing(self):
        g = graph_of([(0, 1), (1, 2), (2, 3)])
        report = solve(g, SolverConfig(k=3, b=2, algorithm="baseline"))
        assert report.iterations == []
        assert report.b_effective == 0
        assert report.warnings

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
        chosen, records = solve_exact(t, 1)
        assert chosen == [0]
        assert records[0].followers == 9

    def test_k5_pairs_return_lexicographically_smallest(self, k5):
        t = k_truss(k5, 5)
        chosen, records = solve_exact(t, 2)
        assert chosen == [0, 1]  # every pair removes everything; first wins
        assert sum(r.followers for r in records) == 8

    def test_two_disjoint_k4s_picks_one_edge_each(self):
        pairs = complete_pairs(4) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 4)
        chosen, records = solve_exact(t, 2)
        sides = {g.original_pair(e)[0] < 10 for e in chosen}
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
            chosen, records = solve_exact(t, 2)
            assert sum(r.followers for r in records) == expected

    def test_cap_refusal(self, rng):
        pairs = er_pairs(rng, 20, 0.6)
        g = graph_of(pairs)
        t = k_truss(g, 3)
        with pytest.raises(EnumerationCapExceeded, match="heuristic"):
            solve_exact(t, 3, cap=10)


class TestSupportHeuristic:
    def test_k5_deletes_neighbor_of_smallest_edge(self, k5):
        t = k_truss(k5, 5)
        chosen, records = solve_support(t, 1)
        assert k5.original_pair(chosen[0]) == (0, 2)  # edge id 1
        assert records[0].followers == 9

    def test_disjoint_k5s_take_one_edge_per_clique(self):
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        chosen, _ = solve_support(t, 2)
        sides = {g.original_pair(e)[0] < 10 for e in chosen}
        assert sides == {True, False}


class TestGpEdge:
    def test_k5_uses_one_candidate(self, k5):
        t = k_truss(k5, 5)
        chosen, records = solve_gp_edge(t, 1)
        assert chosen == [0]
        assert records[0].candidates_total == 1
        assert records[0].candidates_evaluated == 1

    @pytest.mark.parametrize("solver", [solve_gp_edge, solve_up_edge],
                             ids=["gp_edge", "up_edge"])
    def test_k6_at_5_falls_back_to_smallest_alive_edge(self, k6, solver):
        # no threshold edge, so no candidate: the main loop deletes the
        # smallest alive edge with nothing evaluated
        t = k_truss(k6, 5)
        chosen, records = solver(t, 1)
        assert chosen == [0]
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
        chosen, records = solve_up_edge(t, 1)
        assert chosen == [0]
        assert records[0].candidates_evaluated == 1

    def test_disjoint_k5s_evaluate_both_representatives(self):
        # The second bound (10) still exceeds the best score (9), so both
        # candidates are inspected and the tie goes to the smaller edge id.
        pairs = complete_pairs(5) + complete_pairs(5, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 5)
        chosen, records = solve_up_edge(t, 1)
        assert records[0].candidates_total == 2
        assert records[0].candidates_evaluated == 2
        assert chosen == [0]

    def test_zero_bound_candidates_are_never_evaluated(self):
        # K6 carries candidates at k=4? No: its supports exceed the
        # threshold, so pair it with a K4 whose group does the work; the
        # K6 edges bound to zero and the scan must skip them.
        pairs = complete_pairs(6) + complete_pairs(4, offset=10)
        g = graph_of(pairs)
        t = k_truss(g, 4)
        chosen, records = solve_up_edge(t, 1)
        assert records[0].followers == 5  # the K4 collapses
        assert g.original_pair(chosen[0])[0] >= 10


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
                _, records = solve_baseline(k_truss(g, k), b)
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
                            lambda t, e, stop=-1: calls.append(e) or real(t, e, stop))
        g = graph_of(complete_pairs(5) + complete_pairs(5, offset=10))
        report = solve(g, SolverConfig(k=5, b=2, algorithm="baseline"))
        assert [(r.eid, r.followers) for r in report.iterations] == [(0, 9), (10, 9)]
        assert [r.candidates_evaluated for r in report.iterations] == [20, 10]
        assert sorted(calls) == list(range(20))


class TestMemoWitness:
    """A memo miss whose witness w has a stored dead set stops its simulation
    once w dies; commits only shrink the truss, so the stored D(w) still
    holds every alive edge w witnesses.  A commit drops the witness entries
    of the edges it kills."""

    @staticmethod
    def replay(monkeypatch, rng, t, commits):
        """Random lookups and commits through one memo; returns witness uses."""
        from trussmin import minimize
        real = minimize.simulate_followers
        used = []

        def sim(t, e, stop=-1):
            out = real(t, e, stop)
            if out and out[-1] == stop:
                used.append(e)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(minimize, "simulate_followers", sim)
            memo = minimize.DeadSetMemo(t)
            for i in range(commits + 1):
                alive = t.alive_edge_ids()
                if not alive:
                    break
                for e in alive:
                    w = memo.witness.get(e)
                    if w is not None and memo.slots[w]:
                        assert e in memo.slots[w]
                rng.shuffle(alive)
                for e in alive[:rng.randint(1, len(alive))]:
                    log: list[int] = []
                    dead = t.cascade([e], log)
                    t.rollback(log, dead)
                    assert memo.dead_set(e) == (tuple(sorted(dead)) if len(dead) > 1 else ())
                if i == commits:
                    break
                log = []
                dead = t.cascade(rng.sample(alive, rng.randint(1, 2)), log)
                memo.invalidate(commit_region(t, dead, log))
                assert all(t.alive[x] for x in memo.witness)
        return len(used)

    def test_random_graphs(self, monkeypatch, rng):
        used = 0
        for g in memo_test_graphs(rng, 60):
            for k in range(3, 7):
                t = k_truss(g, k)
                if t.edge_count:
                    used += self.replay(monkeypatch, rng, t, 4)
        assert used > 0

    def test_partially_eroding_graph(self, monkeypatch, rng):
        g = graph_of(synth.community_pairs(seed=2, scale=3))
        assert self.replay(monkeypatch, rng, k_truss(g, 8), 6) > 0


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
            memo.slots[e] = None
            return real_dead_set(memo, e)

        runs = []
        for memo_free in (False, True):
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(minimize, "simulate_followers",
                           lambda t, e, stop=-1: calls.append(e) or real_sim(t, e, stop))
                if memo_free:
                    mp.setattr(minimize.DeadSetMemo, "dead_set", dead_set)
                outcome = solver_outcome(cls.SOLVERS[algorithm], k_truss(g, k), b)
                runs.append((outcome, len(calls)))
        (_, replay), replay_sims = runs[1]
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
                            lambda t, e, stop=-1: calls.append(e) or real_sim(t, e, stop))

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


class TestCommitChecks:
    """Evaluation and commit must agree, also when asserts are compiled out."""

    def test_under_reported_followers_are_caught(self, k5, monkeypatch):
        from trussmin import minimize
        real = minimize.simulate_followers
        monkeypatch.setattr(minimize, "simulate_followers", lambda t, e, stop=-1: real(t, e, stop)[1:])
        for algorithm in ("baseline", "gp_edge", "up_edge"):
            with pytest.raises(ContractViolation):
                solve(k5, SolverConfig(k=5, b=1, algorithm=algorithm))

    def test_check_survives_optimized_mode(self):
        script = (
            "from trussmin import ContractViolation, Graph, SolverConfig, minimize, solve\n"
            "real = minimize.simulate_followers\n"
            "minimize.simulate_followers = lambda t, e, stop=-1: real(t, e, stop)[1:]\n"
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
    chosen, records = solver(t, b)
    return chosen, [(r.eid, r.followers, r.candidates_total, r.candidates_evaluated)
                    for r in records]


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
        _, got = solver_outcome(solver, k_truss(g, 8), 12)
        assert got == want


def fresh_keys(t, bounded: bool) -> dict[int, int]:
    """Each candidate of a fresh `find_support_groups(t)` with its scan key.

    The key is `(m - bound) * m + c`, with the bound taken from a truss-group
    index built from scratch; unbounded (`gp_edge`), it is the edge id.
    """
    m, candidates = t.graph.m, find_support_groups(t)[1]
    if not bounded:
        return {c: c for c in candidates}
    fresh = build_truss_group_index(t, next_level(t))
    return {c: (m - upper_bound(fresh, c)) * m + c for c in candidates}


def check_scan_order(monkeypatch, bounded: bool) -> list[int]:
    """Wraps `minimize._scan` so that every scan first checks its order.

    The order's candidate set and key dict must equal `fresh_keys(memo.t,
    bounded)`, for the truss the memo reads, and its key list their sort.
    Returns the list that collects each scan's candidate count.
    """
    from trussmin import minimize
    real = minimize._scan
    counts: list[int] = []

    def scan(order, memo):
        want = fresh_keys(memo.t, bounded)
        context = f"stale scan order after {len(counts)} scans"
        assert order.candidates == set(want), context
        assert order.key == want, context
        assert order.keys == sorted(want.values()), context
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
    """The candidate set the support-group index keeps, and each solver's
    scan order over it, equal a fresh scan's after every commit."""

    @staticmethod
    def assert_fresh(t, index, up, gp, context):
        assert sorted(index.candidates) == find_support_groups(t)[1], context
        for order, bounded in ((up, True), (gp, False)):
            want = fresh_keys(t, bounded)
            assert order.key == want, (context, bounded)
            assert order.keys == sorted(want.values()), (context, bounded)

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
                index = SupportGroupIndex(t, find_support_groups(t)[0])
                up = _ScanOrder(g.m, index.candidates, idx.bound)
                gp = _ScanOrder(g.m, index.candidates)
                self.assert_fresh(t, index, up, gp, f"k={k} build")
                while t.edge_count:
                    eid = rng.choice(t.alive_edge_ids())
                    region = commit_nested(t, upper, eid)
                    index.update(region)
                    refresh_index(idx, region)
                    # as the solvers re-key: edges whose bound moved hold
                    # every edge whose candidacy changed
                    up.rekey(idx.moved)
                    gp.rekey(index.changed)
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
