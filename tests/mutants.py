"""Mutation checks: each mutant of the library must fail the tests listed for it.

Every entry names a file under `src/trussmin`, an exact piece of its text,
the text to put in its place, and the pytest node ids that must fail once
it is in.  The old text must occur in the file exactly once, or the
script fails: a refactor that moves it updates the mutant instead of
silently skipping it.  The script copies `src/` into a temporary
directory once per worker (`WORKERS` of them), and each worker applies
one mutant at a time to its own copy, runs that mutant's node ids against
it and restores it.  The report lists the mutants in order, with each
node id none of whose tests failed.  A run that outlasts `TIMEOUT_S`
counts against the tests too: a defect must show as a named failure, not
as a hang.  A surviving mutant is a gap in the tests to close, never a
mutant to delete.

pytest does not collect this file, since its name does not match
`test_*.py`.  It needs only the standard library and pytest.  Run it from
anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
# pytest runs at once, each against its own copy of src/
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    path: str               # relative to src/trussmin
    old: str                # must occur exactly once
    new: str
    tests: tuple[str, ...]  # node ids, each of which must fail


GRAPH, GROUPS, TRUSS, CASCADE, MINIMIZE, CLI = "graph.py", "groups.py", "truss.py", \
    "cascade.py", "minimize.py", "cli.py"
SUPPORT_PARTITION = "tests/test_groups.py::TestFindSupportGroups::test_matches_definitional_partition"
SUPPORT_REACH = ("tests/test_groups.py::TestFindSupportGroups::"
                 "test_over_adjacent_and_pruned_followers_match_their_definition")
SUPPORT_RAISE = "tests/test_groups.py::TestFindSupportGroups::test_growth_reaching_another_group_raises"
TRUSS_PARTITION = "tests/test_groups.py::TestTrussGroupIndex::test_matches_definitional_partition"
TRUSS_RAISE = "tests/test_groups.py::TestTrussGroupIndex::test_growth_reaching_another_group_raises"
REFRESH_CHAIN = ("tests/test_groups.py::TestRefreshIndex::"
                 "test_refresh_equals_rebuild_over_random_deletion_chains")
REFRESH_GIANT = "tests/test_groups.py::TestRefreshIndex::test_refresh_splits_a_giant_group"
CRITERION_9 = "tests/test_acceptance.py::test_criterion_9_support_group_maintenance_matches_scratch"
MEMO_STOP = "tests/test_minimize.py::TestMemoStop::test_random_graphs"
HOLDERS = "tests/test_minimize.py::TestMemoStop::test_holders_are_the_slots_holding_the_edge"
EARLY_STOP_UP = "tests/test_minimize.py::TestEarlyStopCounts::test_counts[up_edge-5-423-117]"
STOP_INSIDE = "tests/test_cascade.py::TestStoppedSimulation::test_stop_inside_the_dead_set"
SUPPORT_REFERENCE = ("tests/test_minimize.py::TestSupportHeuristic::"
                     "test_matches_full_scan_reference_on_random_trusses")
SUPPORT_RISE = "tests/test_minimize.py::TestSupportHeuristic::test_minimum_support_rises_after_commits"
TRUSS_CACHE_MUTATED = ("tests/test_truss.py::TestTrussCache::"
                       "test_mutating_a_returned_truss_leaves_later_calls_alone")
DUMP_AFTER_SOLVE = "tests/test_cli.py::TestMinimize::test_dump_groups_after_a_solve_equals_a_cold_dump"
EXACT_LEAVES = "tests/test_minimize.py::TestExact::test_leaves_the_truss_the_joint_deletion_leaves"
GROUP_KEPT = "tests/test_groups.py::TestSupportGroupIndex::test_untouched_group_is_kept_as_is"
GROUP_NEW = "tests/test_groups.py::TestSupportGroupIndex::test_new_threshold_edges_form_groups"
TRUSS_GROUP_KEPT = "tests/test_groups.py::TestRefreshIndex::test_untouched_group_keeps_identity"
BASELINE_MEMO = "tests/test_minimize.py::TestBaselineMemo::test_memo_matches_fresh_evaluation"
REGION_MISS = ("tests/test_minimize.py::TestBaselineMemo::"
               "test_simulations_missing_the_commit_region_are_unchanged")
SCAN_MEMO_GP = "tests/test_minimize.py::TestScanMemo::test_memo_matches_memo_free_replay[gp_edge]"
SCAN_MEMO_GP_ERODING = "tests/test_minimize.py::TestScanMemo::test_partially_eroding_graph[gp_edge]"
CACHED_BOUNDS = "tests/test_minimize.py::TestCachedBounds::test_random_graphs"
GP_ORDER = "tests/test_minimize.py::TestScanOrder::test_gp_edge_on_partially_eroding_graph"
OVERLAP_AGREE = "tests/test_minimize.py::TestOverlappingCommunities::test_greedy_solvers_agree"
OVERLAP_SIMS = ("tests/test_minimize.py::TestOverlappingCommunities::"
                "test_baseline_simulates_again_after_commits")
PIPE_EARLY = ("tests/test_cli.py::TestConsoleEntryPoint::"
              "test_reader_closing_early_exits_141_quietly")
PIPE_BUFFERED = ("tests/test_cli.py::TestConsoleEntryPoint::"
                 "test_reader_gone_before_a_buffered_write_exits_141_quietly")
OVERLAP_REFRESH = ("tests/test_minimize.py::TestOverlappingCommunities::"
                   "test_up_edge_refresh_dissolves_some_groups_only")
BUILD_RANDOM = ("tests/test_groups.py::TestSupportGroupIndex::"
                "test_build_matches_reference_on_random_trusses")
BUILD_OVERLAP = ("tests/test_groups.py::TestSupportGroupIndex::"
                 "test_build_matches_reference_on_overlapping_communities")
BUILD_DEAD_SEED = ("tests/test_groups.py::TestSupportGroupIndex::"
                   "test_build_steps_over_a_dead_seed_at_the_threshold")
BUILD_NO_VOTES = "tests/test_groups.py::TestSupportGroupIndex::test_build_records_no_votes"
BUILD_K10 = "tests/test_acceptance.py::test_support_group_index_build_matches_reference[10]"
EMPTY_TRUSS = "tests/test_minimize.py::TestSolveDispatch::test_empty_truss_warns_and_does_nothing"
EXACT_COUNTS = "tests/test_minimize.py::TestExact::test_k5_pair_counts_the_enumeration_once"
EARLY_STOP_GP = "tests/test_minimize.py::TestEarlyStopCounts::test_counts[gp_edge-5-2797-117]"
MEMO_SLOTS = "tests/test_minimize.py::TestMemoStop::test_slots_follow_the_edges_asked_about"
BOOK_256 = "tests/test_truss.py::TestTrussCache::test_a_book_caches_and_thaws_its_supports[256-i]"
NEXT_LEVEL = "tests/test_truss.py::TestTrussCache::test_next_level_peels_from_the_cached_level"
TWO_LEVEL_COMMITTED = "tests/test_truss.py::TestTrussCache::test_two_level_tau_peels_a_committed_truss"
SCAN_ORDER_CHAINS = "tests/test_minimize.py::TestScanOrder::test_random_deletion_chains"
GOLDEN_UP = "tests/test_acceptance.py::test_greedy_records_match_golden[up_edge]"
GOLDEN_BASELINE = "tests/test_acceptance.py::test_greedy_records_match_golden[baseline]"
MEMO_FLAGS = "tests/test_minimize.py::TestMemoStop::test_a_commit_clears_the_flags_in_its_region_only"
TWO_LEVEL_FRESH = ("tests/test_truss.py::TestTrussCache::"
                   "test_two_level_tau_of_a_fresh_truss_is_the_cached_next_level")
GREEDY_RANDOM = "tests/test_minimize.py::TestGreedyEquivalence::test_random_graphs"
LOG_DECREMENTS = "tests/test_cascade.py::TestCascadeLog::test_log_holds_each_decrement"
NO_LOG = "tests/test_cascade.py::TestCascadeLog::test_cascade_without_a_log_keeps_no_undo_lists"
SIMULATION_SHORTCUT = ("tests/test_cascade.py::TestCascadeLog::"
                       "test_zero_follower_shortcut_matches_full_cascade")
EXACT_ORACLE = "tests/test_minimize.py::TestExact::test_matches_exhaustive_oracle"
DECOMPOSE_ORACLE = ("tests/test_truss.py::TestTrussDecompose::"
                    "test_matches_oracle_on_community_graph")
DECOMPOSE_DIGEST = ("tests/test_cli.py::TestGoldenRows::"
                    "test_stdout_and_output_file_match_the_digest")
UP_EDGE_COMMITTED = ("tests/test_truss.py::TestTrussCache::"
                     "test_up_edge_on_a_committed_truss_matches_the_reduced_graph")
PARKED_RANDOM = "tests/test_minimize.py::TestParkedGroups::test_random_graphs"
PARKED_ERODING = "tests/test_minimize.py::TestParkedGroups::test_eroding_graphs[community_s2]"
PARKED_OVERLAP = "tests/test_minimize.py::TestParkedGroups::test_eroding_graphs[overlapping]"
PARKED_STALE = ("tests/test_minimize.py::TestParkedGroups::"
                "test_a_committed_truss_grows_its_own_groups")
PARKED_ROLLBACK = ("tests/test_minimize.py::TestParkedGroups::"
                   "test_a_rolled_back_index_equals_a_build")
PARKED_INTERLEAVED = ("tests/test_minimize.py::TestParkedGroups::"
                      "test_interleaved_budgets_and_an_evicting_sweep")
PARKED_RAISES = "tests/test_minimize.py::TestParkedGroups::test_a_solve_that_raises_parks_nothing"
PARKED_KEPT = ("tests/test_minimize.py::TestParkedGroups::"
               "test_a_level_keeps_its_groups_across_solves_at_another_level")
PARKED_LEVELS = "tests/test_truss.py::TestTrussCache::test_each_cached_level_parks_in_its_own_dict"
PARKED_EMPTY = ("tests/test_minimize.py::TestParkedGroups::"
                "test_a_level_without_candidates_lends_its_empty_keys")
PARKED_ORDERS = ("tests/test_minimize.py::TestParkedGroups::"
                 "test_a_cached_level_builds_each_scan_order_once")
BUDGET = "tests/test_minimize.py::TestSolverConfig::test_every_solver_refuses_a_budget_the_config_refuses"
BUDGET_UP, BUDGET_UP_ZERO = BUDGET + "[up_edge-2.5]", BUDGET + "[up_edge-0]"
CAP = "tests/test_minimize.py::TestSolverConfig::test_exact_refuses_a_cap_the_config_refuses"
CAP_FLOAT, CAP_ZERO = CAP + "[2.5]", CAP + "[0]"

MUTANTS = (
    # the key layout (`graph.Graph`): with v >= n, u*n + v is another edge's key
    Mutant("lookup forms keys for v >= n", GRAPH,
           "if 0 <= u < v < self.n:", "if 0 <= u < v:",
           ("tests/test_graph.py::TestEdgeLookup::test_edge_id_rejects_and_has_edge_denies[0-7]",
            "tests/test_graph.py::TestEdgeLookup::test_every_pair_around_the_vertex_range")),
    # each edge's partner pairs come in ascending order of the smallest edge
    Mutant("triangle build walks each forward map in descending order", GRAPH,
           "for v, e_uv in hu.items():", "for v, e_uv in reversed(hu.items()):",
           ("tests/test_graph.py::TestTriangleIndex::test_random_graphs_with_sparse_labels",
            "tests/test_graph.py::TestTriangleIndex::test_empty_path_and_k5[pairs2-10]")),
    # an edge's partner list is frozen into a tuple once its vertex u is walked
    Mutant("triangle build leaves the partner lists unfrozen", GRAPH,
           "partners[e] = tuple(partners[e])", "pass",
           ("tests/test_graph.py::TestTriangleIndex::test_random_graphs_with_sparse_labels",
            "tests/test_graph.py::TestTriangleIndex::test_empty_path_and_k5[pairs2-10]")),
    # `Graph.from_pairs` refuses an item that is not a pair, as it refuses a bad label
    Mutant("from_pairs unpacks its items unchecked", GRAPH,
           "            try:\n"
           "                a, b = item\n"
           "            except (TypeError, ValueError):\n",
           "            a, b = item\n"
           "            if False:\n",
           ("tests/test_graph.py::TestFromPairs::test_labels_must_be_non_negative_ints[int-item]",
            "tests/test_graph.py::TestFromPairs::test_labels_must_be_non_negative_ints[triple]")),
    # the b half of the support-group grower (`groups._grow_support_group`)
    Mutant("support grower drops b as a member", GROUPS,
           "other = gid_of.get(b, -1)\n"
           "                if other < 0:\n"
           "                    gid_of[b] = start\n"
           "                    members.append(b)\n",
           "other = gid_of.get(b, -1)\n"
           "                if other < 0:\n"
           "                    gid_of[b] = start\n",
           (SUPPORT_PARTITION, CRITERION_9)),
    Mutant("support grower never counts b's triangles", GROUPS,
           "hit[b] = hit.get(b, 0) + 1", "hit[b] = hit.get(b, 0)",
           (SUPPORT_REACH,)),
    Mutant("support grower lets b cross into another group", GROUPS,
           "members.append(b)\n"
           "                elif other != start:",
           "members.append(b)\n"
           "                elif False:",
           (SUPPORT_RAISE,)),
    # the b half of the truss-group grower (`groups.GroupIndex._grow`)
    Mutant("truss grower leaves b out of the touch set", GROUPS,
           "touch.append(b)", "pass",
           (REFRESH_CHAIN,)),
    Mutant("truss grower drops b as a member", GROUPS,
           "other = gid_of[b]\n"
           "                        if other < 0:\n"
           "                            gid_of[b] = start\n"
           "                            members.append(b)\n",
           "other = gid_of[b]\n"
           "                        if other < 0:\n"
           "                            gid_of[b] = start\n",
           (TRUSS_PARTITION, REFRESH_CHAIN)),
    Mutant("truss grower lets b cross into another group", GROUPS,
           "members.append(b)\n"
           "                        else:",
           "members.append(b)\n"
           "                        elif False:",
           (TRUSS_RAISE,)),
    # the whole-truss sweeps
    Mutant("truss groups start from every alive edge", GROUPS,
           'compress(range(m), level.to_bytes(m, "little"))',
           "compress(range(m), t.alive)",
           (TRUSS_PARTITION, REFRESH_CHAIN)),
    Mutant("support groups start from every alive edge", GROUPS,
           "if sup[start] == threshold and start not in gid_of:",
           "if start not in gid_of:",
           (SUPPORT_PARTITION, CRITERION_9)),
    # the peel: an edge already queued (alive byte 2) loses support again
    Mutant("peel decrements queued edges", TRUSS,
           "if alive[a] == 1:", "if alive[a]:",
           (CRITERION_9, "tests/test_truss.py::TestKTruss::test_matches_oracle_on_random_graphs")),
    # trussness after deletions (`truss.update_after_deletion`): a deleted
    # edge reads 0, stays out of every later walk and cannot go twice
    Mutant("a later deletion revives earlier ones", TRUSS,
           "new = [2 if v else 0 for v in tau]", "new = [2] * g.m",
           ("tests/test_truss.py::TestUpdateAfterDeletion::test_sequential_deletions_stay_consistent",)),
    Mutant("a deleted edge can be deleted again", TRUSS,
           "    if not tau[eid]:\n"
           "        raise ContractViolation(f\"edge {e} already deleted\")\n",
           "",
           ("tests/test_truss.py::TestUpdateAfterDeletion::test_double_deletion_rejected",)),
    # the support heuristic's scan (`minimize.solve_support`), whose `level`
    # is never above the lowest alive support
    Mutant("a commit never lowers level", MINIMIZE,
           "level = sup[o]", "pass",
           (SUPPORT_REFERENCE, SUPPORT_RISE)),
    Mutant("the scan takes a dead edge", MINIMIZE,
           "if alive[e_min]:\n"
           "                break\n",
           "if True:\n"
           "                break\n",
           (SUPPORT_REFERENCE, SUPPORT_RISE)),
    Mutant("the fallback takes max", MINIMIZE,
           "level, e_min = min(compress(sup, alive)), -1",
           "level, e_min = max(compress(sup, alive)), -1",
           (SUPPORT_REFERENCE, SUPPORT_RISE)),
    # the truss cache (`truss.k_truss`): a frozen bytearray is the one the
    # caller mutates, and a support of 256 does not fit a byte; a miss
    # peels from the highest cached level below it, or from the nested
    # truss frozen on that level
    Mutant("truss cache stores the bytearray", TRUSS,
           "return bytes(t.alive), sup, t.edge_count", "return t.alive, sup, t.edge_count",
           (TRUSS_CACHE_MUTATED, DUMP_AFTER_SOLVE)),
    Mutant("the cache always uses 'B'", TRUSS,
           '"B" if max(t.sup, default=0) < 256 else "i"', '"B"',
           (BOOK_256,)),
    Mutant("a miss peels only from k-1", TRUSS,
           "below = max((j for j in cache if j < k), default=None)",
           "below = k - 1 if k - 1 in cache else None",
           (NEXT_LEVEL,)),
    Mutant("a miss never starts from a frozen nested truss", TRUSS,
           'upper = cache[below][3].get("upper")', "upper = None",
           (NEXT_LEVEL,)),
    # the nested (k+1)-truss (`minimize._two_level_tau`) is frozen on its
    # level, and only a truss equal to the level thaws it; each call hands
    # out its own compact copy of the frozen supports
    Mutant("a committed truss thaws the level's nested truss", MINIMIZE,
           "    groups = parked(t)\n    frozen = ",
           "    groups = t.graph._truss_cache.get(t.k, (0, 0, 0, {}))[3]\n    frozen = ",
           (TWO_LEVEL_COMMITTED, UP_EDGE_COMMITTED)),
    Mutant("the nested truss is never frozen on its level", MINIMIZE,
           'frozen = groups["upper"] = _freeze(upper)', "frozen = _freeze(upper)",
           (TWO_LEVEL_FRESH, PARKED_RANDOM)),
    Mutant("a peeled nested truss shares the cached supports", MINIMIZE,
           "upper.sup = frozen[1][:]", "upper.sup = frozen[1]",
           (TWO_LEVEL_FRESH,)),
    Mutant("the cold nested peel keeps the clone's list supports", MINIMIZE,
           "        upper.sup = frozen[1][:]\n", "",
           (TWO_LEVEL_FRESH,)),
    Mutant("a thawed nested truss shares the frozen supports", MINIMIZE,
           "frozen[1][:], frozen[2])", "frozen[1], frozen[2])",
           (TWO_LEVEL_FRESH,)),
    # `solve_exact` commits its winner through the cascade, which keeps
    # `edge_count`
    Mutant("exact commits its winner without edge_count", MINIMIZE,
           "dead = t.cascade([e])", "dead = _peel(t, [e], [])",
           (EXACT_LEAVES,)),
    Mutant("every exact record claims the enumeration", MINIMIZE,
           "0 if records else ncomb", "ncomb",
           (EXACT_COUNTS,)),
    # every solver refuses, before it commits or builds anything, the
    # budgets and caps `SolverConfig` refuses (`errors.require_int`)
    Mutant("up_edge takes any budget", MINIMIZE,
           "    require_int(\"budget b\", b, 1)\n"
           "    groups = parked(t)",
           "    groups = parked(t)",
           (BUDGET_UP, BUDGET_UP_ZERO)),
    Mutant("exact takes any cap", MINIMIZE,
           '    require_int("cap", cap, 1)\n', "",
           (CAP_FLOAT, CAP_ZERO)),
    # the dispatcher (`minimize.solve`): its name-to-solver table, and the
    # warning an empty truss gets instead of the early-stop one
    Mutant("an empty truss warns as emptied", MINIMIZE,
           "if initial == 0:", "if False:",
           (EMPTY_TRUSS,)),
    Mutant("the table sends gp_edge to solve_up_edge", MINIMIZE,
           '"gp_edge": solve_gp_edge', '"gp_edge": solve_up_edge',
           (EARLY_STOP_GP,)),
    # the memo's early stop (`minimize.DeadSetMemo`, `truss._peel`)
    Mutant("holders hold every edge", MINIMIZE,
           "        i = bisect_left(dead_set, self.e)\n"
           "        return i < len(dead_set) and dead_set[i] == self.e\n",
           "        return True\n",
           (HOLDERS, MEMO_STOP)),
    Mutant("held is never set", MINIMIZE,
           "self.held.update(dead_set)", "pass",
           (MEMO_STOP, EARLY_STOP_UP)),
    # a slot is held only for an edge asked about and not invalidated since
    Mutant("invalidation leaves a None slot", MINIMIZE,
           "slots.pop(x, None)", "slots[x] = None",
           (MEMO_SLOTS,)),
    # an edge without followers is flagged in `zero` until a region meets it
    Mutant("invalidate leaves the zero flags set", MINIMIZE,
           "            zero[x] = 0\n", "",
           (MEMO_FLAGS, MEMO_SLOTS, GOLDEN_BASELINE)),
    Mutant("memo stops without asking the holder", MINIMIZE,
           "if fl and fl[-1] in stop:", "if fl and stop:",
           (MEMO_STOP,)),
    Mutant("stopped peel drops its last decrement", TRUSS,
           "if a in stop:\n"
           "                        return dead\n",
           "if a in stop:\n"
           "                        lowered.pop()\n"
           "                        return dead\n",
           (STOP_INSIDE, MEMO_STOP)),
    # each peel appends its decrements to the caller's list: a cascade to
    # its log, or to `_DISCARD` without one; a tried deletion to a list it
    # undoes from
    Mutant("cascade always hands its peel _DISCARD", TRUSS,
           "_DISCARD if log is None else log", "_DISCARD",
           (LOG_DECREMENTS, CRITERION_9, REGION_MISS)),
    Mutant("a log-less cascade hands its peel a list", TRUSS,
           "_DISCARD if log is None else log", "[] if log is None else log",
           (NO_LOG,)),
    Mutant("a simulation undoes from _DISCARD", CASCADE,
           "    lowered: list[int] = []\n",
           "    from .truss import _DISCARD as lowered\n",
           (SIMULATION_SHORTCUT, STOP_INSIDE, MEMO_STOP)),
    Mutant("exact undoes from _DISCARD", MINIMIZE,
           "        lowered: list[int] = []\n",
           "        from .truss import _DISCARD as lowered\n",
           (EXACT_LEAVES, EXACT_ORACLE)),
    # `peel_to` returns its cascade's dead, which `truss._level_walk` reads
    # as the edges falling at each level
    Mutant("peel_to returns its seeds alone", TRUSS,
           "    return t.cascade([e for e in compress(range(t.graph.m), t.alive) if sup[e] < k - 2])\n",
           "    seeds = [e for e in compress(range(t.graph.m), t.alive) if sup[e] < k - 2]\n"
           "    t.cascade(seeds)\n"
           "    return seeds\n",
           (DECOMPOSE_ORACLE, DECOMPOSE_DIGEST)),
    # what a commit invalidates: its region (`cascade.commit_region`) and
    # the memo's shared dead sets meeting it
    Mutant("commit region skips the alive-triangle partners", CASCADE,
           "if alive[a] and alive[b]:\n"
           "                    region.add(a)\n",
           "if False:\n"
           "                    region.add(a)\n",
           (REGION_MISS, REFRESH_CHAIN, CRITERION_9)),
    Mutant("memo invalidation skips the shared dead sets", MINIMIZE,
           "for dead_set in [d for d in self.shared if not region.isdisjoint(d)]:",
           "for dead_set in []:",
           (BASELINE_MEMO, MEMO_STOP, OVERLAP_SIMS)),
    # `baseline` counts the edges alive when its sweep starts
    Mutant("baseline reads edge_count after the commit", MINIMIZE,
           "_record(t, best_e, best_f, candidates, candidates, start)",
           "_record(t, best_e, best_f, t.edge_count, t.edge_count, start)",
           (GOLDEN_BASELINE,)),
    Mutant("the greedy loop never invalidates its memo", MINIMIZE,
           "        memo.invalidate(region)\n", "",
           (SCAN_MEMO_GP, SCAN_MEMO_GP_ERODING)),
    # support-group maintenance (`groups.SupportGroupIndex`): a dissolved
    # group's members, which `_dissolve` returns, regrow, and `update`
    # appends to its caller's `changed` list the representative and every
    # edge voted for (its over-adjacent edges) of each group added or withdrawn
    Mutant("support groups regrow from the region alone", GROUPS,
           "grown.extend(self._dissolve(dissolve, changed))", "self._dissolve(dissolve, changed)",
           (CRITERION_9, OVERLAP_AGREE, REFRESH_GIANT)),
    Mutant("a group's votes leave changed alone", GROUPS,
           "changed.extend(grp.over_adjacent)", "pass",
           (GROUP_NEW, CRITERION_9, GP_ORDER)),
    Mutant("a group's representative leaves changed alone", GROUPS,
           "changed.append(grp.representative)", "pass",
           (GROUP_KEPT, CRITERION_9)),
    # candidacy (`groups.SupportGroupIndex.cand`), which `_weigh` sets beside
    # the votes and the scan order reads: a pruned vote vetoes it
    Mutant("a candidate flag ignores pruned votes", GROUPS,
           "cand[o] = n > 0 and not pruned.get(o, 0)", "cand[o] = n > 0",
           (CRITERION_9, BUILD_RANDOM, GP_ORDER)),
    # a withdrawn vote leaves a count of 0, which reads as no vote
    Mutant("a candidate flag takes a zero count for a vote", GROUPS,
           "cand[o] = n > 0 and not", "cand[o] = o in over and not",
           (CRITERION_9, GP_ORDER)),
    # a flag reads both counts once the group's pruned votes are in
    Mutant("flags are set before the group's pruned votes", GROUPS,
           "        for o in grp.pruned_followers:\n"
           "            pruned[o] = pruned.get(o, 0) + delta\n"
           "        for o in grp.over_adjacent:\n"
           "            over[o] = n = over.get(o, 0) + delta\n"
           "            cand[o] = n > 0 and not pruned.get(o, 0)\n",
           "        for o in grp.over_adjacent:\n"
           "            over[o] = n = over.get(o, 0) + delta\n"
           "            cand[o] = n > 0 and not pruned.get(o, 0)\n"
           "        for o in grp.pruned_followers:\n"
           "            pruned[o] = pruned.get(o, 0) + delta\n",
           (CRITERION_9, BUILD_RANDOM, GP_ORDER)),
    Mutant("a dissolved representative keeps its flag", GROUPS,
           "cand[grp.representative] = delta > 0", "cand[grp.representative] = 1",
           (CRITERION_9, GROUP_KEPT, GP_ORDER)),
    # the support-group index's build (`groups.SupportGroupIndex.__init__`),
    # the update from empty: its threshold scan meets dead edges, which
    # `update` steps over, and it hands `update` `_DISCARD` for the votes
    Mutant("the threshold scan takes a dead edge", GROUPS,
           "if alive[e] and sup[e] == threshold and gid_of.get(e, -1) < 0:",
           "if sup[e] == threshold and gid_of.get(e, -1) < 0:",
           (BUILD_DEAD_SEED, BUILD_RANDOM)),
    Mutant("the build collects its votes", GROUPS,
           "self.update(t, starts, _DISCARD)", "self.update(t, starts, [])",
           (BUILD_NO_VOTES,)),
    # the greedy loop (`minimize._solve_greedy`): the support groups append
    # the changed candidacies to its one `changed` list, up_edge's refresh
    # the moved bounds as well, and the order re-keys that list
    Mutant("the loop never re-keys its order", MINIMIZE,
           "order.rekey(changed)", "pass",
           (GP_ORDER, OVERLAP_AGREE)),
    Mutant("support-group updates write into a list the loop never reads", MINIMIZE,
           "support_groups.update(t, region, changed)", "support_groups.update(t, region, [])",
           (GP_ORDER, OVERLAP_AGREE)),
    Mutant("the bound source's refresh writes into a list the loop never reads", MINIMIZE,
           "refresh_index(idx, t, upper, dead, region, changed)",
           "refresh_index(idx, t, upper, dead, region, [])",
           (CACHED_BOUNDS, GOLDEN_UP)),
    # the refresh takes the nested truss as an argument: `solve_up_edge`'s
    # own, thawed for the solve, not the k-truss it commits to
    Mutant("up_edge hands the refresh its k-truss as the nested truss", MINIMIZE,
           "refresh_index(idx, t, upper, dead, region, changed)",
           "refresh_index(idx, t, t, dead, region, changed)",
           (CACHED_BOUNDS, GOLDEN_UP)),
    # truss-group maintenance (`groups.GroupIndex`, `groups.refresh_index`):
    # the refresh cascades the commit's dead through the nested truss, widens
    # the region by that truss's dead, and appends the widened region and
    # the regrown touch sets to `moved`
    Mutant("the refresh never cascades the nested truss", GROUPS,
           "commit_region(t, upper.cascade(dead), ())", "commit_region(t, [], ())",
           (REFRESH_CHAIN, CACHED_BOUNDS, GREEDY_RANDOM)),
    Mutant("the nested truss's dead stay out of the region", GROUPS,
           "grown = region | commit_region(t, upper.cascade(dead), ())",
           "upper.cascade(dead)\n    grown = set(region)",
           (REFRESH_CHAIN, CACHED_BOUNDS, GREEDY_RANDOM)),
    Mutant("refresh leaves the region out of moved", GROUPS,
           "    moved.extend(grown)\n", "",
           (REFRESH_CHAIN, REFRESH_GIANT, SCAN_ORDER_CHAINS)),
    # the stamp is shared by the growths of one build or refresh only, so
    # one left set drops shared edges from the touch sets grown after it
    Mutant("truss grower leaves stamp set", GROUPS,
           "            stamp[x] = 0\n", "",
           (REFRESH_CHAIN, CACHED_BOUNDS)),
    Mutant("refresh leaves a regrown group's touch set out of moved", GROUPS,
           "            moved.extend(record.touch)\n", "",
           (REFRESH_CHAIN, REFRESH_GIANT)),
    Mutant("refresh keeps its walked marker across calls", GROUPS,
           "    done = t.alive.translate(FLIP)\n    for e in sorted(grown):\n",
           "    done = refresh_index.__dict__.setdefault(id(idx), t.alive.translate(FLIP))\n"
           "    for e in sorted(grown):\n",
           (REFRESH_CHAIN, OVERLAP_REFRESH)),
    # the stamp still decides membership at first touch, but no longer
    # keeps an edge out of the touch set twice
    Mutant("truss grower repeats touch entries", GROUPS,
           "                if not stamp[a]:\n"
           "                    stamp[a] = 1\n"
           "                    touch.append(a)\n",
           "                touch.append(a)\n"
           "                if not stamp[a]:\n"
           "                    stamp[a] = 1\n",
           (REFRESH_CHAIN, CACHED_BOUNDS)),
    Mutant("refresh dissolves every group", GROUPS,
           "dissolve = {gid_of[x] for x in grown}", "dissolve = set(idx.groups)",
           (TRUSS_GROUP_KEPT, OVERLAP_REFRESH)),
    # parked indexes (`truss.parked`): each cached level parks in a dict of
    # its own, reused only for a truss equal to the level.  A solve pops
    # each index it uses, and parks it again only once the loop returns,
    # rolled back to the level's groups
    Mutant("reuse ignores the freshness check", TRUSS,
           "if level is None or level[2] != t.edge_count or level[0] != t.alive:",
           "if level is None:",
           (PARKED_STALE, PARKED_LEVELS)),
    Mutant("every level shares one parked dict", TRUSS,
           "cache[k] = (*_freeze(t), {})",
           "cache[k] = (*_freeze(t), [*cache.values(), (0, 0, 0, {})][0][3])",
           (PARKED_RANDOM, PARKED_KEPT, PARKED_LEVELS)),
    Mutant("a solve never parks its support index", MINIMIZE,
           'groups["support"], groups[source] = support_groups, keys',
           'groups[source] = keys',
           (PARKED_RANDOM, PARKED_INTERLEAVED)),
    # the rollback both indexes share (`groups._GroupStore`), and its log:
    # a group grown since the last rollback and dissolved again leaves
    # `grown` and never enters `dissolved`
    Mutant("rollback skips one dissolved group", GROUPS,
           "for record in self.dissolved:", "for record in self.dissolved[1:]:",
           (PARKED_ROLLBACK, PARKED_ERODING, PARKED_OVERLAP)),
    Mutant("rollback leaves one grown group", GROUPS,
           "for gid in self.grown:", "for gid in list(self.grown)[1:]:",
           (PARKED_ROLLBACK, PARKED_ERODING, PARKED_OVERLAP)),
    Mutant("a regrown group dissolved again is logged as dissolved", GROUPS,
           "if log.pop(gid, None) is None:", "if log.pop(gid, None) is None or True:",
           (PARKED_ROLLBACK, PARKED_ERODING, PARKED_OVERLAP)),
    Mutant("the truss index is re-parked in a finally", MINIMIZE,
           '    records = _solve_greedy(t, b, groups, "up_edge", idx.bound, '
           "lambda dead, region, changed:\n"
           "                            refresh_index(idx, t, upper, dead, region, changed))\n"
           "    idx.rollback()\n"
           '    groups["truss"] = idx\n',
           "    try:\n"
           '        records = _solve_greedy(t, b, groups, "up_edge", idx.bound, '
           "lambda dead, region, changed:\n"
           "                                refresh_index(idx, t, upper, dead, region, changed))\n"
           "    finally:\n"
           "        idx.rollback()\n"
           '        groups["truss"] = idx\n',
           (PARKED_RAISES,)),
    # the scan order's rest form (`minimize._rest_order`), parked beside the
    # indexes: each solve's order commits to a copy of it, and parks it as
    # it was lent; `rekey` finds an edge's old key through `kbound`, and
    # deletes only that key
    Mutant("the lent order shares the parked keys instead of copying them", MINIMIZE,
           "keys[:], array(\"i\", bound)", "keys, array(\"i\", bound)",
           (PARKED_RANDOM, PARKED_INTERLEAVED, PARKED_ORDERS)),
    Mutant("rekey leaves kbound at the old bound", MINIMIZE,
           "            kbound[e] = bound[e]\n", "",
           (CACHED_BOUNDS, SCAN_ORDER_CHAINS, REFRESH_GIANT)),
    Mutant("rekey deletes whatever key sits at the bisect point", MINIMIZE,
           "if i < len(keys) and keys[i] == old:", "if i < len(keys):",
           (CACHED_BOUNDS, SCAN_ORDER_CHAINS, GP_ORDER)),
    # a level without candidates parks empty keys, which are still lent
    Mutant("empty parked keys are built again", MINIMIZE,
           "    keys = groups.pop(source, None)\n"
           "    if keys is None:\n"
           "        keys = _rest_order(t, support_groups, bound)\n",
           "    keys = groups.pop(source, None) or _rest_order(t, support_groups, bound)\n",
           (PARKED_EMPTY,)),
    Mutant("a solve never parks its scan order", MINIMIZE,
           'groups["support"], groups[source] = support_groups, keys',
           'groups["support"] = support_groups',
           (PARKED_RANDOM, PARKED_ORDERS)),
    Mutant("the skip rule skips edges outside the order", MINIMIZE,
           "if x in fvals or x in removed_by or not cand[x]:",
           "if x in fvals or x in removed_by:",
           (EARLY_STOP_UP, GOLDEN_UP)),
    # `--dump-groups` (`cli._groups_dump`) reads the indexes a solve parked
    Mutant("the dump grows its own groups", CLI,
           "groups = parked(t)", "groups = {}",
           (DUMP_AFTER_SOLVE,)),
    # `truss` and `decompose` write their rows a chunk at a time
    Mutant("row output stops after its first chunk", CLI,
           "while chunk := ", "if chunk := ",
           ("tests/test_cli.py::TestGoldenRows::test_stdout_and_output_file_match_the_digest",)),
    # a reader that goes early: `main` turns the broken pipe into exit 141,
    # and `_emit` flushes so that it is raised there, not at exit
    Mutant("a broken pipe is an I/O error", CLI,
           "    except BrokenPipeError:\n", "    except ZeroDivisionError:\n",
           (PIPE_EARLY, PIPE_BUFFERED)),
    Mutant("emit leaves its stream unflushed", CLI,
           "        fh.flush()", "        pass",
           (PIPE_BUFFERED,)),
    # `stats` on a graph with no edges, whose trussness list is empty
    Mutant("stats takes max(tau) without a default", CLI,
           "max(tau, default=0)", "max(tau)",
           ("tests/test_cli.py::TestStats::test_empty_file",)),
)


def failed_nodes(output: str) -> list[str]:
    """Node ids of the FAILED and ERROR lines of a `-rfE` summary."""
    out = []
    for line in output.splitlines():
        head, _, rest = line.partition(" ")
        if head in ("FAILED", "ERROR"):
            out.append(rest.split(" - ", 1)[0])
    return out


def check(mutant: Mutant, src: Path) -> list[str]:
    """Apply `mutant` to the copy `src`, run its tests, restore; returns the problems."""
    path = src / "trussmin" / mutant.path
    original = path.read_text()
    count = original.count(mutant.old)
    if count != 1:
        return [f"its old text occurs {count} times in {mutant.path}, not once"]
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests],
            # no bytecode cache: a mutant written within the second of the
            # previous one, at the same size, would pass its stale check
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"its tests ran past {TIMEOUT_S} s"]
    finally:
        path.write_text(original)
    if proc.returncode not in (0, 1):
        return [f"pytest exited with {proc.returncode}:\n{proc.stdout}{proc.stderr}"]
    failed = failed_nodes(proc.stdout)
    return [f"survives {node}" for node in mutant.tests
            if not any(f == node or f.startswith((node + "::", node + "["))
                       for f in failed)]


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copies: queue.SimpleQueue[Path] = queue.SimpleQueue()
        for i in range(WORKERS):
            src = Path(tmp) / f"src{i}"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(src)

        def timed_check(mutant: Mutant) -> tuple[list[str], float]:
            src = copies.get()  # a copy no other worker holds
            start = time.perf_counter()
            try:
                return check(mutant, src), time.perf_counter() - start
            finally:
                copies.put(src)

        with ThreadPoolExecutor(WORKERS) as pool:
            for mutant, (problems, seconds) in zip(MUTANTS, pool.map(timed_check, MUTANTS)):
                status = "SURVIVED" if problems else "killed"
                print(f"{status:8} {mutant.name} ({seconds:.1f} s)", flush=True)
                for p in problems:
                    print(f"         {p}")
                bad += bool(problems)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
