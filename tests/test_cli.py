import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import synth
from conftest import complete_pairs, er_pairs, graph_of, path_pairs, random_trusses
from trussmin import SolverConfig, cli, groups, load_edge_list, solve
from trussmin.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_edges(path, pairs):
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    return write_edges(tmp_path / "k5.txt", complete_pairs(5))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_k5(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "stats", k5_file)
        assert code == 0
        assert "vertices: 5" in out
        assert "edges: 10" in out
        assert "triangles: 10" in out
        assert "max_trussness: 5" in out

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        for line in out.strip().splitlines():
            assert line.endswith(": 0")

    def test_triangle_with_pendant(self, capsys, tmp_path):
        path = write_edges(tmp_path / "t.txt", [(0, 1), (0, 2), (1, 2), (2, 3)])
        code, out, _ = run_cli(capsys, "stats", path)
        assert code == 0
        assert "vertices: 4" in out
        assert "edges: 4" in out
        assert "triangles: 1" in out
        assert "max_trussness: 3" in out

    def test_triangle_free_path_reads_the_sentinel(self, capsys, tmp_path):
        path = write_edges(tmp_path / "path.txt", path_pairs(6))
        code, out, _ = run_cli(capsys, "stats", path)
        assert code == 0
        assert "triangles: 0\n" in out and "max_trussness: 2\n" in out

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", str(tmp_path / "nope.txt"))
        assert code == 3
        assert "error" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\noops\n")
        code, _, err = run_cli(capsys, "stats", str(path))
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("token", ["1_000", "+5", "\u0663"])
    def test_non_ascii_digit_label_is_a_parse_error(self, capsys, tmp_path, token):
        path = tmp_path / "bad.txt"
        path.write_text(f"0 1\n{token} 2\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "stats", str(path))
        assert code == 3
        assert "line 2" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="int() has no digit limit here")
    def test_label_past_the_digit_limit_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("0 1\n1 2\n2 0\n" + "9" * (sys.get_int_max_str_digits() + 1) + " 3\n")
        code, _, err = run_cli(capsys, "stats", str(path))
        assert code == 3
        assert ": line 4: " in err and "Traceback" not in err

    def test_undecodable_data_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0 1\n1 2\n\xff\xfe 3\n")
        code, _, err = run_cli(capsys, "stats", str(path))
        assert code == 3
        assert "line 3" in err

    def test_undecodable_comment_line_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xe9\n0 1\n1 2\n0 2\n")
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "triangles: 1" in out

    def test_max_support_matches_oracle(self, capsys, tmp_path, rng):
        for _ in range(5):
            pairs = er_pairs(rng, 12, 0.5)
            path = write_edges(tmp_path / "g.txt", pairs)
            code, out, _ = run_cli(capsys, "stats", path)
            assert code == 0
            expected = max(oracles.supports(pairs).values(), default=0)
            assert f"max_support: {expected}\n" in out


class TestFailureExits:
    @pytest.mark.parametrize("exc, code, message", [
        (MemoryError, 5, "error: out of memory\n"),
        (KeyboardInterrupt, 130, "error: interrupted\n"),
    ])
    def test_one_line_message_and_documented_code(self, capsys, monkeypatch, k5_file,
                                                   exc, code, message):
        def fail(args):
            raise exc()
        monkeypatch.setattr(cli, "cmd_stats", fail)
        got, out, err = run_cli(capsys, "stats", k5_file)
        assert (got, out, err) == (code, "", message)


class TestTruss:
    def test_k5_at_5(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "truss", k5_file, "-k", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_k5_at_6_is_empty_but_ok(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "truss", k5_file, "-k", "6")
        assert code == 0
        assert out.strip() == ""

    def test_pendant_is_excluded(self, capsys, tmp_path):
        path = write_edges(tmp_path / "p.txt", complete_pairs(5) + [(4, 99)])
        code, out, _ = run_cli(capsys, "truss", path, "-k", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10
        assert "99" not in out

    def test_k_below_3_is_usage_error(self, capsys, k5_file):
        with pytest.raises(SystemExit) as exc:
            main(["truss", k5_file, "-k", "2"])
        assert exc.value.code == 2

    def test_round_trip_is_a_fixpoint(self, capsys, tmp_path, rng):
        pairs = er_pairs(rng, 18, 0.5)
        path = write_edges(tmp_path / "g.txt", pairs)
        code, out, _ = run_cli(capsys, "truss", path, "-k", "4")
        assert code == 0
        again = write_edges(tmp_path / "t4.txt", [
            tuple(map(int, line.split())) for line in out.strip().splitlines()])
        code, out2, _ = run_cli(capsys, "truss", again, "-k", "4")
        assert code == 0
        assert out2 == out

    def test_labels_past_64_bits(self, capsys, tmp_path):
        # a K4 on labels past the signed and the unsigned 64-bit range, and
        # a pendant edge that the 4-truss drops
        big = [5, 2**63, 2**64 + 3, 10**30]
        k4 = [(u, v) for i, u in enumerate(big) for v in big[i + 1:]]
        path = write_edges(tmp_path / "big.txt", k4 + [(10**30, 7)])
        with open(path) as fh:
            g = load_edge_list(fh)
        assert g.labels == [5, 7, 2**63, 2**64 + 3, 10**30]
        assert [g.original_pair(e) for e in range(g.m)] == sorted(k4 + [(7, 10**30)])
        code, out, _ = run_cli(capsys, "truss", path, "-k", "4")
        assert code == 0
        assert out == "".join(f"{u} {v}\n" for u, v in k4)


class TestDecompose:
    def test_triangle_with_pendant(self, capsys, tmp_path):
        path = write_edges(tmp_path / "t.txt", [(0, 1), (0, 2), (1, 2), (2, 3)])
        code, out, _ = run_cli(capsys, "decompose", path)
        assert code == 0
        rows = dict()
        for line in out.strip().splitlines():
            u, v, tau = line.split()
            rows[(int(u), int(v))] = int(tau)
        assert rows == {(0, 1): 3, (0, 2): 3, (1, 2): 3, (2, 3): 2}

    def test_triangle_free_path_reads_the_sentinel(self, capsys, tmp_path):
        path = write_edges(tmp_path / "path.txt", path_pairs(6))
        code, out, _ = run_cli(capsys, "decompose", path)
        assert (code, out) == (0, "".join(f"{u} {v} 2\n" for u, v in path_pairs(6)))


class TestGoldenRows:
    # sha256 of each command's output on the seed-42 scale-30 graph, taken
    # while the commands still joined every row into one string
    @pytest.mark.parametrize("argv", [("decompose",), ("truss", "-k", "10")])
    def test_stdout_and_output_file_match_the_digest(self, capsys, tmp_path, argv):
        want = json.loads((GOLDEN / "cli_s30_sha256.json").read_text())[" ".join(argv)]
        path = write_edges(tmp_path / "s30.txt", synth.community_pairs(seed=42, scale=30))
        code, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
        out_path = tmp_path / "rows.txt"
        code, out, _ = run_cli(capsys, argv[0], path, *argv[1:], "-o", str(out_path))
        assert (code, out) == (0, "")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == want


class TestMinimize:
    def test_json_schema(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--algorithm", "up_edge", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "iterations", "totals", "warnings"}
        assert payload["config"] == {"k": 5, "b": 1, "algorithm": "up_edge"}
        (it,) = payload["iterations"]
        assert set(it) == {"edge", "followers", "candidates_total",
                           "candidates_evaluated", "time_ms"}
        assert it["edge"] == [0, 1]
        assert it["followers"] == 9
        assert payload["totals"]["followers_total"] == 9
        assert payload["totals"]["final_truss_edges"] == 0

    def test_exact_matches_up_edge_total_here(self, capsys, k5_file):
        _, out_up, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--algorithm", "up_edge", "--format", "json")
        _, out_ex, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--algorithm", "exact", "--format", "json")
        up = json.loads(out_up)["totals"]["followers_total"]
        ex = json.loads(out_ex)["totals"]["followers_total"]
        assert up == ex == 9

    def test_usage_error_for_small_k(self, capsys, k5_file):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", k5_file, "-k", "2", "-b", "1"])
        assert exc.value.code == 2

    def test_cap_refusal_exit_code(self, capsys, tmp_path, rng):
        pairs = er_pairs(rng, 25, 0.5)
        path = write_edges(tmp_path / "big.txt", pairs)
        code, _, err = run_cli(capsys, "minimize", path, "-k", "3", "-b", "3",
                               "--algorithm", "exact", "--exact-cap", "100")
        assert code == 4
        assert "heuristic" in err

    def test_empty_truss_warns_but_exits_zero(self, capsys, tmp_path):
        path = write_edges(tmp_path / "p.txt", [(0, 1), (1, 2), (2, 3)])
        code, out, _ = run_cli(capsys, "minimize", path, "-k", "3", "-b", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == []
        assert payload["warnings"] == ["the 3-truss is empty; nothing to delete"]
        code, out, _ = run_cli(capsys, "minimize", path, "-k", "3", "-b", "2",
                               "--format", "human")
        assert code == 0
        assert "warning: the 3-truss is empty; nothing to delete\n" in out

    def test_output_uses_original_labels(self, capsys, tmp_path):
        pairs = [(10 * u + 3, 10 * v + 3) for u, v in complete_pairs(5)]
        path = write_edges(tmp_path / "lab.txt", pairs)
        code, out, _ = run_cli(capsys, "minimize", path, "-k", "5", "-b", "1",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["iterations"][0]["edge"] == [3, 13]

    def test_json_is_deterministic_modulo_timing(self, capsys, k5_file):
        def strip(payload):
            for it in payload["iterations"]:
                it.pop("time_ms")
            payload["totals"].pop("timing")
            return payload

        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                                "--format", "json")
            outs.append(json.dumps(strip(json.loads(out)), sort_keys=True))
        assert outs[0] == outs[1]

    def test_dump_groups(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--format", "json", "--dump-groups")
        payload = json.loads(out)
        dump = payload["groups_dump"]
        assert len(dump["support_groups"]) == 1
        assert dump["support_groups"][0]["size"] == 10
        assert len(dump["truss_groups"]) == 1
        assert dump["truss_groups"][0]["size"] == 10

    @pytest.mark.parametrize("fmt", ["csv", "human"])
    def test_dump_groups_needs_json(self, capsys, k5_file, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["minimize", k5_file, "-k", "5", "-b", "1", "--format", fmt, "--dump-groups"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "--dump-groups: needs --format json" in err

    def test_dump_groups_truss_groups_match_oracle(self, capsys, tmp_path, rng):
        checked = 0
        while checked < 20:
            pairs = er_pairs(rng, rng.randint(6, 16), rng.uniform(0.35, 0.65))
            if not pairs:
                continue
            path = write_edges(tmp_path / f"g{checked}.txt", pairs)
            for k in (3, 4):
                code, out, _ = run_cli(capsys, "minimize", path, "-k", str(k), "-b", "1",
                                       "--format", "json", "--dump-groups")
                assert code == 0
                dump = json.loads(out)["groups_dump"]
                got = {frozenset(map(tuple, grp["members"])) for grp in dump["truss_groups"]}
                assert got == oracles.truss_group_partition(pairs, k), (k, pairs)
                assert all(grp["size"] == len(grp["members"]) for grp in dump["truss_groups"])
            checked += 1

    def test_dump_groups_golden_on_partially_eroding_graph(self, capsys, tmp_path):
        # frozen before up_edge kept its bounds in the group index; every
        # commit on this graph erodes only part of a truss component
        path = write_edges(tmp_path / "community.txt", synth.community_pairs(seed=2, scale=3))
        code, out, _ = run_cli(capsys, "minimize", path, "-k", "8", "-b", "12",
                               "--algorithm", "up_edge", "--format", "json", "--dump-groups")
        assert code == 0
        payload = json.loads(out)
        for it in payload["iterations"]:
            it.pop("time_ms")
        payload["totals"].pop("timing")
        want = json.loads((GOLDEN / "minimize_up_edge_community_s2.json").read_text())
        assert payload == want

    def test_dump_groups_after_a_solve_equals_a_cold_dump(self, monkeypatch, rng):
        # `--dump-groups` runs after `solve`, which leaves its truss levels in
        # the graph's cache with the groups it parked on them; a dump on a
        # freshly loaded graph peels the levels and grows every group.  The
        # dump reads the indexes the solve parked and grows only the rest:
        # each group is counted as it grows
        grown = {"support_groups": 0, "truss_groups": 0}
        real_grow, real_grow_support = groups.GroupIndex._grow, groups._grow_support_group

        def grow(idx, t, upper_alive, start, stamp):
            grown["truss_groups"] += 1
            return real_grow(idx, t, upper_alive, start, stamp)

        def grow_support(t, start, gid_of):
            grown["support_groups"] += 1
            return real_grow_support(t, start, gid_of)

        monkeypatch.setattr(groups.GroupIndex, "_grow", grow)
        monkeypatch.setattr(groups, "_grow_support_group", grow_support)
        # the kinds of group a dump after each solve grows
        plan = {"up_edge": (), "gp_edge": ("truss_groups",),
                "baseline": ("support_groups", "truss_groups")}
        cases = [([g.original_pair(e) for e in range(g.m)], k)
                 for g, k, _ in random_trusses(rng, 40)]
        cases.append((synth.community_pairs(seed=2, scale=3), 8))
        for pairs, k in cases:
            cold = cli._groups_dump(graph_of(pairs), k)
            for algorithm, kinds in plan.items():
                g = graph_of(pairs)
                solve(g, SolverConfig(k=k, b=3, algorithm=algorithm))
                grown.update(dict.fromkeys(grown, 0))
                assert cli._groups_dump(g, k) == cold, (algorithm, k, pairs)
                assert grown == {kind: len(cold[kind]) if kind in kinds else 0
                                 for kind in grown}, (algorithm, k, pairs)
        assert cold["support_groups"] and cold["truss_groups"]

    def test_human_format_prints_a_table(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1")
        assert code == 0
        assert "followers" in out
        assert "followers total: 9" in out

    def test_csv_format(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("iteration,")
        assert len(lines) == 2


class TestBench:
    def test_matrix_shape_and_agreement(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "bench", k5_file, "-k", "5", "-b", "1,2",
                               "--algorithms", "baseline,gp_edge,up_edge",
                               "--reps", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,b,algorithm,rep,followers_total,time_ms,candidates_evaluated"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        for b in ("1", "2"):
            totals = {r[4] for r in rows if r[1] == b}
            assert len(totals) == 1  # all algorithms agree per budget

    def test_single_cell(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "bench", k5_file, "-k", "5", "-b", "1",
                               "--algorithms", "up_edge")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_repetitions_are_deterministic(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "bench", k5_file, "-k", "5", "-b", "1",
                               "--algorithms", "gp_edge", "--reps", "3")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert len({r[4] for r in rows}) == 1
        assert len({r[6] for r in rows}) == 1

    def test_failed_cell_recorded_and_run_continues(self, capsys, tmp_path, rng):
        pairs = er_pairs(rng, 25, 0.5)
        path = write_edges(tmp_path / "big.txt", pairs)
        code, out, err = run_cli(capsys, "bench", path, "-k", "3", "-b", "3",
                                 "--algorithms", "exact,gp_edge",
                                 "--exact-cap", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        exact_row = next(line for line in lines if ",exact," in line)
        assert exact_row.endswith(",,")
        gp_row = next(line for line in lines if ",gp_edge," in line)
        assert not gp_row.endswith(",,")

    def test_internal_failure_is_raised_not_recorded(self, monkeypatch, k5_file):
        # argparse refuses every setting `SolverConfig` would, so a
        # `ContractViolation` out of a solve is a broken invariant, here the
        # commit's "evaluation predicted" check; it propagates, as from `minimize`
        from trussmin import ContractViolation, minimize
        real = minimize.simulate_followers
        monkeypatch.setattr(minimize, "simulate_followers",
                            lambda t, e, stop=(): real(t, e, stop)[1:])
        with pytest.raises(ContractViolation, match="evaluation predicted"):
            main(["bench", k5_file, "-k", "5", "-b", "1", "--algorithms", "support,gp_edge"])

    @pytest.mark.parametrize("argv, message", [
        (("-k", "2,5", "-b", "1"), "argument -k: k must be >= 3"),
        (("-k", "x", "-b", "1"), "argument -k: k must be an integer"),
        (("-k", "5", "-b", "0"), "argument -b: b must be >= 1"),
        (("-k", "5", "-b", ","), "argument -b: list is empty"),
        (("-k", "5", "-b", "1", "--algorithms", "nope"),
         "argument --algorithms: unknown algorithm 'nope'"),
    ])
    def test_usage_errors(self, capsys, k5_file, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["bench", k5_file, *argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestConsoleEntryPoint:
    def test_module_invocation(self, k5_file):
        proc = subprocess.run(
            [sys.executable, "-m", "trussmin.cli", "stats", k5_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "vertices: 5" in proc.stdout

    def test_reader_closing_early_exits_141_quietly(self, tmp_path):
        # about 1.7 MB of rows, past any pipe buffer, so the writes after
        # the read end closes meet a broken pipe
        path = write_edges(tmp_path / "path.txt", path_pairs(100_000))
        proc = subprocess.Popen(
            [sys.executable, "-m", "trussmin.cli", "decompose", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"0 1 2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    def test_reader_gone_before_a_buffered_write_exits_141_quietly(self, k5_file):
        # `stats` writes five short lines, which a buffered stdout would
        # hold until the interpreter's exit flush unless `_emit` flushes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "trussmin.cli", "stats", k5_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # long before the child has loaded the file
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")
