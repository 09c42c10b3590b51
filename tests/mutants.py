"""Mutation checks: each mutant of the library must fail the tests listed for it.

Every entry names a file under `src/trussmin`, an exact piece of its text,
the text to put in its place, and the pytest node ids that must fail once
it is in.  The old text must occur in the file exactly once, or the
script fails: a refactor that moves it updates the mutant instead of
silently skipping it.  The script copies `src/` into a temporary
directory, applies one mutant at a time, runs that mutant's node ids
against the copy and reports each node id none of whose tests failed.  A
run that outlasts `TIMEOUT_S` counts against the tests too: a defect must
show as a named failure, not as a hang.  A surviving mutant is a gap in
the tests to close, never a mutant to delete.

pytest does not collect this file, since its name does not match
`test_*.py`.  It needs only the standard library and pytest.  Run it from
anywhere:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str               # relative to src/trussmin
    old: str                # must occur exactly once
    new: str
    tests: tuple[str, ...]  # node ids, each of which must fail


GRAPH, GROUPS, TRUSS, CASCADE, MINIMIZE = "graph.py", "groups.py", "truss.py", "cascade.py", \
    "minimize.py"
SUPPORT_PARTITION = "tests/test_groups.py::TestFindSupportGroups::test_matches_definitional_partition"
SUPPORT_REACH = ("tests/test_groups.py::TestFindSupportGroups::"
                 "test_over_adjacent_and_pruned_followers_match_their_definition")
SUPPORT_RAISE = "tests/test_groups.py::TestFindSupportGroups::test_growth_reaching_another_group_raises"
TRUSS_PARTITION = "tests/test_groups.py::TestTrussGroupIndex::test_matches_definitional_partition"
TRUSS_RAISE = "tests/test_groups.py::TestTrussGroupIndex::test_growth_reaching_another_group_raises"
REFRESH_CHAIN = ("tests/test_groups.py::TestRefreshIndex::"
                 "test_refresh_equals_rebuild_over_random_deletion_chains")
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
OVERLAP_REFRESH = ("tests/test_minimize.py::TestOverlappingCommunities::"
                   "test_up_edge_refresh_dissolves_some_groups_only")
BUILD_RANDOM = ("tests/test_groups.py::TestSupportGroupIndex::"
                "test_build_matches_reference_on_random_trusses")
BUILD_OVERLAP = ("tests/test_groups.py::TestSupportGroupIndex::"
                 "test_build_matches_reference_on_overlapping_communities")
BUILD_DEAD_SEED = ("tests/test_groups.py::TestSupportGroupIndex::"
                   "test_build_steps_over_a_dead_seed_at_the_threshold")
BUILD_K10 = "tests/test_acceptance.py::test_support_group_index_build_matches_reference[10]"

MUTANTS = (
    # the key layout (`graph.Graph`): with v >= n, u*n + v is another edge's key
    Mutant("lookup forms keys for v >= n", GRAPH,
           "if 0 <= u < v < self.n:", "if 0 <= u < v:",
           ("tests/test_graph.py::TestEdgeLookup::test_edge_id_rejects_and_has_edge_denies[0-7]",
            "tests/test_graph.py::TestEdgeLookup::test_every_pair_around_the_vertex_range")),
    # each edge's partner pairs come in ascending order of the smallest edge
    Mutant("triangle build walks the vertices in descending order", GRAPH,
           "for hu in higher:", "for hu in reversed(higher):",
           ("tests/test_graph.py::TestTriangleIndex::test_random_graphs_with_sparse_labels",
            "tests/test_graph.py::TestTriangleIndex::test_empty_path_and_k5[pairs2-10]")),
    # the b half of the support-group grower (`groups._grow_support_group`)
    Mutant("support grower drops b as a member", GROUPS,
           "other = gid_of.get(b)\n"
           "                if other is None:\n"
           "                    gid_of[b] = start\n"
           "                    members.append(b)\n",
           "other = gid_of.get(b)\n"
           "                if other is None:\n"
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
    # the truss cache (`truss.k_truss`): a stored bytearray is the one the
    # caller mutates
    Mutant("truss cache stores the bytearray", TRUSS,
           'cache[k] = (bytes(t.alive), array("i", t.sup), t.edge_count)',
           'cache[k] = (t.alive, array("i", t.sup), t.edge_count)',
           (TRUSS_CACHE_MUTATED, DUMP_AFTER_SOLVE)),
    # `solve_exact` commits its winner through the cascade, which keeps
    # `edge_count`
    Mutant("exact commits its winner without edge_count", MINIMIZE,
           "dead = t.cascade([e])", "dead = _peel(t, [e])[0]",
           (EXACT_LEAVES,)),
    # the memo's early stop (`minimize.DeadSetMemo`, `truss._peel`)
    Mutant("holders hold every edge", MINIMIZE,
           "        i = bisect_left(dead_set, self.e)\n"
           "        return i < len(dead_set) and dead_set[i] == self.e\n",
           "        return True\n",
           (HOLDERS, MEMO_STOP)),
    Mutant("held is never set", MINIMIZE,
           "held[x] = 1", "pass",
           (MEMO_STOP, EARLY_STOP_UP)),
    Mutant("memo stops without asking the holder", MINIMIZE,
           "if fl and fl[-1] in stop:", "if fl and stop:",
           (MEMO_STOP,)),
    Mutant("stopped peel drops its last decrement", TRUSS,
           "if a in stop:\n"
           "                        return dead, lowered\n",
           "if a in stop:\n"
           "                        return dead, lowered[:-1]\n",
           (STOP_INSIDE, MEMO_STOP)),
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
    Mutant("gp_edge never invalidates its memo", MINIMIZE,
           "        memo.invalidate(region)\n"
           "        order.rekey(support_groups.changed)\n",
           "        order.rekey(support_groups.changed)\n",
           (SCAN_MEMO_GP, SCAN_MEMO_GP_ERODING)),
    # support-group maintenance (`groups.SupportGroupIndex`): a dissolved
    # group's members regrow, and every edge a group votes for is re-decided
    Mutant("support groups regrow from the region alone", GROUPS,
           "            grown.extend(grp.members)\n", "",
           (CRITERION_9, OVERLAP_AGREE)),
    Mutant("a group's votes leave changed alone", GROUPS,
           "self.changed.update(edges)", "pass",
           (GROUP_NEW, CRITERION_9, GP_ORDER)),
    Mutant("settle re-decides nothing", GROUPS,
           '        """Re-decide the candidacy of every edge in `changed`."""\n',
           '        """Re-decide the candidacy of every edge in `changed`."""\n'
           "        return\n",
           (GROUP_KEPT, GROUP_NEW, CRITERION_9)),
    # the support-group index's build (`groups.SupportGroupIndex.__init__`):
    # its threshold scan meets dead edges, and a pruned vote vetoes candidacy
    Mutant("the threshold scan takes a dead edge", GROUPS,
           "if alive[start] and start not in gid_of:", "if start not in gid_of:",
           (BUILD_DEAD_SEED, BUILD_RANDOM)),
    Mutant("candidacy ignores pruned votes", GROUPS,
           "set(rep_group) | (over.keys() - pruned.keys())", "set(rep_group) | over.keys()",
           (BUILD_RANDOM, BUILD_OVERLAP, BUILD_K10)),
    Mutant("gp_edge never re-keys its order", MINIMIZE,
           "order.rekey(support_groups.changed)", "pass",
           (GP_ORDER, OVERLAP_AGREE)),
    # truss-group maintenance (`groups.GroupIndex`, `groups.refresh_index`)
    Mutant("truss grower leaves stamp set", GROUPS,
           "            stamp[x] = 0\n", "",
           (REFRESH_CHAIN, OVERLAP_REFRESH)),
    Mutant("dissolve leaves moved alone", GROUPS,
           "            bound[x] -= size\n"
           "        self.moved.extend(touch)\n",
           "            bound[x] -= size\n",
           (CACHED_BOUNDS, EARLY_STOP_UP)),
    Mutant("refresh keeps its walked marker across calls", GROUPS,
           "    done = idx.t.alive.translate(FLIP)\n",
           "    done = refresh_index.__dict__.setdefault(id(idx), idx.t.alive.translate(FLIP))\n",
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
           "dissolve = {gid_of[x] for x in region}", "dissolve = set(idx.members)",
           (TRUSS_GROUP_KEPT, OVERLAP_REFRESH)),
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
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in MUTANTS:
            start = time.perf_counter()
            problems = check(mutant, src)
            status = "SURVIVED" if problems else "killed"
            print(f"{status:8} {mutant.name} ({time.perf_counter() - start:.1f} s)")
            for p in problems:
                print(f"         {p}")
            bad += bool(problems)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
