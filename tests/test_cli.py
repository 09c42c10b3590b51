import json
import subprocess
import sys

import pytest

import oracles
from conftest import complete_pairs, er_pairs
from trussmin import cli
from trussmin.cli import build_parser, main


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


class TestMinimize:
    def test_threads_default_to_one(self, k5_file):
        parser = build_parser()
        for argv in (["minimize", k5_file, "-k", "5", "-b", "1"],
                     ["bench", k5_file, "-k", "5", "-b", "1"]):
            assert parser.parse_args(argv).threads == 1

    def test_json_schema(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--algorithm", "up_edge", "--format", "json",
                               "--threads", "1")
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
                               "--algorithm", "up_edge", "--format", "json",
                               "--threads", "1")
        _, out_ex, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--algorithm", "exact", "--format", "json",
                               "--threads", "1")
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
                               "--format", "json", "--threads", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["iterations"] == []
        assert payload["warnings"]

    def test_output_uses_original_labels(self, capsys, tmp_path):
        pairs = [(10 * u + 3, 10 * v + 3) for u, v in complete_pairs(5)]
        path = write_edges(tmp_path / "lab.txt", pairs)
        code, out, _ = run_cli(capsys, "minimize", path, "-k", "5", "-b", "1",
                               "--format", "json", "--threads", "1")
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
                                "--format", "json", "--threads", "1")
            outs.append(json.dumps(strip(json.loads(out)), sort_keys=True))
        assert outs[0] == outs[1]

    def test_dump_groups(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--format", "json", "--threads", "1",
                               "--dump-groups")
        payload = json.loads(out)
        dump = payload["groups_dump"]
        assert len(dump["support_groups"]) == 1
        assert dump["support_groups"][0]["size"] == 10
        assert len(dump["truss_groups"]) == 1
        assert dump["truss_groups"][0]["size"] == 10

    def test_human_format_prints_a_table(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--threads", "1")
        assert code == 0
        assert "followers" in out
        assert "followers total: 9" in out

    def test_csv_format(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "minimize", k5_file, "-k", "5", "-b", "1",
                               "--format", "csv", "--threads", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("iteration,")
        assert len(lines) == 2


class TestBench:
    def test_matrix_shape_and_agreement(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "bench", k5_file, "-k", "5", "-b", "1,2",
                               "--algorithms", "baseline,gp_edge,up_edge",
                               "--reps", "1", "--threads", "1")
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
                               "--algorithms", "up_edge", "--threads", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_repetitions_are_deterministic(self, capsys, k5_file):
        code, out, _ = run_cli(capsys, "bench", k5_file, "-k", "5", "-b", "1",
                               "--algorithms", "gp_edge", "--reps", "3",
                               "--threads", "1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert len({r[4] for r in rows}) == 1
        assert len({r[6] for r in rows}) == 1

    def test_failed_cell_recorded_and_run_continues(self, capsys, tmp_path, rng):
        pairs = er_pairs(rng, 25, 0.5)
        path = write_edges(tmp_path / "big.txt", pairs)
        code, out, err = run_cli(capsys, "bench", path, "-k", "3", "-b", "3",
                                 "--algorithms", "exact,gp_edge",
                                 "--exact-cap", "100", "--threads", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        exact_row = next(line for line in lines if ",exact," in line)
        assert exact_row.endswith(",,")
        gp_row = next(line for line in lines if ",gp_edge," in line)
        assert not gp_row.endswith(",,")


class TestConsoleEntryPoint:
    def test_module_invocation(self, k5_file):
        proc = subprocess.run(
            [sys.executable, "-m", "trussmin.cli", "stats", k5_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "vertices: 5" in proc.stdout
