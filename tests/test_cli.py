import json
from pathlib import Path

import jsonschema
import pytest

from normalsets import (
    EXIT_ERROR,
    EXIT_NOT_FOUND,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    RunConfig,
    SetBitset,
    main,
    read_nset,
    write_nset,
)
from normalsets.cli import _parse_grid, _parse_seeds

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"
DATA = Path(__file__).resolve().parent / "data"

# argv of the reports under data/pairsquare: the three benchmark shapes
# (64-seed Monte Carlo, decay grid, four offsets past the uint64 line) and
# a 130-seed run spanning three lane batches
PAIRSQUARE_GOLDEN = {
    "mc": ["--limit", "9950", "--offsets", "1", "--seeds", "3000000000-3000000063"],
    "grid": ["--limit", "2450", "--offsets", "1,2", "--grid", "1000:2450:poly2"],
    "k4": ["--limit", "9990", "--offsets", "1,2,3,4"],
    "seeds130": ["--limit", "4999", "--offsets", "1", "--seeds", "0-129", "--grid", "100,2000,4999"],
}


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_summary_and_file(self, capsys, tmp_path):
        out = str(tmp_path / "a.nset")
        code, stdout, _ = run(
            capsys, "generate", "--seed", "0", "--limit", "1000", "--out", out
        )
        assert code == EXIT_OK
        summary = json.loads(stdout)
        jsonschema.validate(summary, load_schema("generate_summary"))
        bits = read_nset(out)
        assert bits.limit == 1000
        assert bits.count() == summary["count"]
        assert summary["first_members"] == [int(m) for m in bits.members()[:16]]
        assert summary["density"] == pytest.approx(summary["count"] / 1000)

    def test_classic_members(self, capsys, tmp_path):
        out = str(tmp_path / "c.nset")
        code, stdout, _ = run(
            capsys, "generate", "--mode", "classic", "--limit", "100", "--out", out
        )
        assert code == EXIT_OK
        summary = json.loads(stdout)
        assert summary["first_members"][:5] == [2, 3, 5, 7, 8]

    def test_missing_out(self, capsys):
        code, _, err = run(capsys, "generate", "--limit", "10")
        assert code == EXIT_USAGE
        code, _, err = run(capsys, "generate", "--limit", "0", "--out", "/tmp/x.nset")
        assert code == EXIT_ERROR
        assert "positive" in err


class TestStats:
    def test_schema_and_counts(self, capsys):
        code, stdout, _ = run(
            capsys, "stats", "--seed", "0", "--limit", "20000", "--max-word-len", "4"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("stats_report"))
        assert report["N"] == 20000
        assert len(report["words"]) == 2 + 4 + 8 + 16
        for length in range(1, 5):
            rows = [w for w in report["words"] if w["length"] == length]
            assert sum(w["count"] for w in rows) == 20000 - length + 1
            assert all(w["window"] == 20000 - length + 1 for w in rows)
        assert report["discrepancy"]["overall"] == max(
            row["deviation"] for row in report["discrepancy"]["per_length"]
        )

    def test_file_matches_seeded(self, capsys, tmp_path):
        out = str(tmp_path / "s.nset")
        run(capsys, "generate", "--seed", "5", "--limit", "5000", "--out", out)
        _, from_seed, _ = run(
            capsys, "stats", "--seed", "5", "--limit", "5000", "--max-word-len", "3"
        )
        _, from_file, _ = run(capsys, "stats", "--in", out, "--max-word-len", "3")
        a = json.loads(from_seed)
        b = json.loads(from_file)
        assert a["source"] == {"mode": "random", "seed": 5}
        assert b["source"] == {"in": out}
        assert a["words"] == b["words"]
        assert a["discrepancy"] == b["discrepancy"]

    def test_threads_do_not_change_bytes(self, capsys):
        args = ["stats", "--seed", "1", "--limit", "300000", "--max-word-len", "6"]
        _, one, _ = run(capsys, *args, "--threads", "1")
        _, eight, _ = run(capsys, *args, "--threads", "8")
        assert one == eight
        assert "threads" not in one

    def test_repeat_is_byte_identical(self, capsys):
        args = ["stats", "--seed", "2", "--limit", "1000"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCorrelation:
    def test_plain_value(self, capsys, table):
        from normalsets import SignAssignment, build_signed_sequence, correlation_sum
        from normalsets.sieve import OffsetSpec

        code, stdout, _ = run(
            capsys, "correlation", "--seed", "0", "--limit", "1000", "--offsets", "1"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("correlation_report"))
        seq = build_signed_sequence(SignAssignment(0), 1001, table)
        expected = correlation_sum(seq, OffsetSpec((1,)), 1000)
        assert report["sum"] == expected.total
        assert report["value_num"] == expected.total
        assert report["value_den"] == 1000
        assert report["offsets"] == [1]

    def test_trend_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "trend.csv"
        code, stdout, _ = run(
            capsys,
            "correlation",
            "--mode",
            "classic",
            "--offsets",
            "1",
            "--grid",
            "100,400,1600",
            "--csv",
            str(csv),
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("correlation_report"))
        trend = report["trend"]
        assert [p["N"] for p in trend["points"]] == [100, 400, 1600]
        assert len(trend["ratios"]) == 2
        assert trend["degenerate"] is False
        assert report["N"] == 1600
        assert report["sum"] == trend["points"][-1]["sum"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "N,sum,value_num,value_den,value"
        assert len(lines) == 4
        for line, point in zip(lines[1:], trend["points"]):
            n, s, num, den, val = line.split(",")
            assert int(n) == point["N"]
            assert int(s) == point["sum"]
            assert int(num) == point["sum"] and int(den) == point["N"]
            assert float(val) == pytest.approx(point["value"])

    def test_poly_grid_form(self, capsys):
        code, stdout, _ = run(
            capsys, "correlation", "--seed", "3", "--grid", "100:10000:poly2"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        marks = [p["N"] for p in report["trend"]["points"]]
        assert marks[0] == 100 and marks[-1] == 10000
        assert all(round(m**0.5) ** 2 == m for m in marks)

    def test_in_file_default_cutoff(self, capsys, tmp_path):
        out = str(tmp_path / "f.nset")
        run(capsys, "generate", "--seed", "0", "--limit", "500", "--out", out)
        code, stdout, _ = run(capsys, "correlation", "--in", out, "--offsets", "2")
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["N"] == 498
        assert report["source"] == {"in": out}

    def test_missing_limit(self, capsys):
        code, _, err = run(capsys, "correlation", "--seed", "0")
        assert code == EXIT_ERROR
        assert "--limit or --grid" in err

    def test_bad_offsets(self, capsys):
        code, _, err = run(
            capsys, "correlation", "--limit", "100", "--offsets", "3,1"
        )
        assert code == EXIT_ERROR
        assert "increasing" in err


class TestPairsquare:
    def test_small_exact(self, capsys):
        code, stdout, _ = run(capsys, "pairsquare", "--limit", "10")
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("pairsquare_report"))
        assert report["pair_count"] == 18
        assert report["e_tn2_num"] == 18 and report["e_tn2_den"] == 100
        assert report["e_tn2"] == 0.18
        assert report["bound_violations"] == []
        assert report["smallest_p"] == 5
        assert report["prime_index"] == 3
        assert report["sum_2h"] == 21
        assert report["checkpoints"][-1] == [10, 21]

    def test_monte_carlo_block(self, capsys):
        code, stdout, _ = run(
            capsys, "pairsquare", "--limit", "64", "--offsets", "1", "--seeds", "0-9"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("pairsquare_report"))
        mc = report["monte_carlo"]
        assert mc["n_seeds"] == 10
        assert len(mc["values"]) == 10
        # values are reduced fractions over the original N^2 denominator
        assert all((64 * 64) % den == 0 for _, den in mc["values"])
        assert mc["mean"] == pytest.approx(
            sum(num / den for num, den in mc["values"]) / 10, rel=1e-9
        )

    def test_decay_grid_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "decay.csv"
        code, stdout, _ = run(
            capsys,
            "pairsquare",
            "--limit",
            "256",
            "--offsets",
            "1",
            "--grid",
            "64,128,256",
            "--csv",
            str(csv),
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        decay = report["decay"]
        assert [d["N"] for d in decay] == [64, 128, 256]
        ratios = [d["e_tn2"] for d in decay]
        assert ratios[0] > ratios[1] > ratios[2]
        lines = csv.read_text().splitlines()
        assert lines[0] == "N,pair_count,e_tn2_num,e_tn2_den,e_tn2"
        assert len(lines) == 4
        assert lines[1].startswith("64,")

    @pytest.mark.parametrize("name", sorted(PAIRSQUARE_GOLDEN))
    def test_golden_reports(self, capsys, tmp_path, name):
        # the reports were written by the per-integer implementation
        out = tmp_path / f"{name}.json"
        code, _, _ = run(capsys, "pairsquare", *PAIRSQUARE_GOLDEN[name], "--out", str(out))
        assert code == EXIT_OK
        assert out.read_bytes() == (DATA / "pairsquare" / f"{name}.json").read_bytes()

    def test_grid_outside_limit_fails_before_counting(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("counting started")

        monkeypatch.setattr("normalsets.cli.build_spf", never)
        for grid, point in (("50,200", 200), ("0,50", 0)):
            code, stdout, err = run(capsys, "pairsquare", "--limit", "100", "--grid", grid)
            assert code == EXIT_ERROR
            assert stdout == ""
            assert err == f"error: --grid point {point} is outside [1, --limit 100]\n"

    def test_out_of_memory_is_exit_one(self, capsys, monkeypatch, tmp_path):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("normalsets.cli.count_square_pairs", exhausted)
        code, stdout, err = run(capsys, "pairsquare", "--limit", "10")
        assert (code, stdout, err) == (EXIT_ERROR, "", "error: out of memory in pairsquare\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "pairsquare", "limit": 10}))
        code, _, err = run(capsys, "replay", str(config))
        assert (code, err) == (EXIT_ERROR, "error: out of memory in pairsquare\n")


class TestSolve:
    def test_schur_seeded_ok(self, capsys):
        code, stdout, _ = run(
            capsys, "solve", "--equation", "schur", "--seed", "0", "--limit", "10000"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("solution_report"))
        assert report["verified"] is True
        assert report["seed"] == 0
        assert report["equation"] == "xy_eq_z"

    def test_schur_violation_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.nset"
        write_nset(path, SetBitset.from_members(10, [2, 3, 6]))
        code, stdout, _ = run(capsys, "solve", "--equation", "schur", "--in", str(path))
        assert code == EXIT_VIOLATION
        report = json.loads(stdout)
        assert report["verified"] is False
        assert report["witnesses"] == {"x": 2, "y": 3, "z": 6}
        assert "seed" not in report

    def test_xyz2_seeded(self, capsys):
        code, stdout, _ = run(
            capsys, "solve", "--equation", "xyz2", "--seed", "0", "--limit", "100"
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        jsonschema.validate(report, load_schema("solution_report"))
        w = report["witnesses"]
        assert w == {"x": 3, "y": 12, "z": 6}
        assert report["seed"] == 0

    def test_sumsq_not_found(self, capsys, tmp_path):
        path = tmp_path / "one.nset"
        write_nset(path, SetBitset.from_members(50, [1]))
        code, stdout, _ = run(capsys, "solve", "--equation", "sumsq", "--in", str(path))
        assert code == EXIT_NOT_FOUND
        report = json.loads(stdout)
        assert report["verified"] is False
        assert report["witnesses"] == {}

    def test_sumsq_triple_override(self, capsys, tmp_path):
        path = tmp_path / "all.nset"
        write_nset(path, SetBitset.from_members(300, range(1, 301)))
        code, stdout, _ = run(
            capsys,
            "solve",
            "--equation",
            "sumsq",
            "--in",
            str(path),
            "--triple",
            "44,117,240",
        )
        assert code == EXIT_OK
        w = json.loads(stdout)["witnesses"]
        assert w["x"] ** 2 + w["y"] ** 2 == w["s"] ** 2

    def test_cnk_good_seed(self, capsys):
        code, stdout, _ = run(
            capsys,
            "solve",
            "--equation",
            "cnk",
            "--seed",
            "1",
            "--c",
            "2",
            "--k",
            "2",
            "--limit",
            "10000",
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["verified"] is True
        assert report["equation"] == "xy_eq_c_nk"

    def test_cnk_bad_seed(self, capsys):
        # seed 0 assigns +1 to the prime 2
        code, _, err = run(
            capsys,
            "solve",
            "--equation",
            "cnk",
            "--seed",
            "0",
            "--c",
            "2",
            "--k",
            "2",
            "--limit",
            "1000",
        )
        assert code == EXIT_ERROR
        assert "different seed" in err

    def test_cnk_rejects_in_file(self, capsys, tmp_path):
        path = tmp_path / "x.nset"
        write_nset(path, SetBitset.from_members(10, [2]))
        code, _, err = run(
            capsys, "solve", "--equation", "cnk", "--in", str(path), "--c", "2", "--k", "2"
        )
        assert code == EXIT_ERROR
        assert "seeded assignment" in err

    def test_unknown_equation_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "--equation", "fermat", "--limit", "10")
        assert code == EXIT_USAGE


class TestReplay:
    def test_stats_replay_identical(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        args = [
            "stats",
            "--seed",
            "4",
            "--limit",
            "2000",
            "--max-word-len",
            "5",
            "--save-config",
            str(cfg_path),
        ]
        _, first, _ = run(capsys, *args)
        saved = json.loads(cfg_path.read_text())
        assert saved["command"] == "stats"
        assert saved["seed"] == 4
        code, second, _ = run(capsys, "replay", str(cfg_path))
        assert code == EXIT_OK
        assert first == second

    def test_solve_replay_same_exit(self, capsys, tmp_path):
        cfg_path = tmp_path / "solve.json"
        code1, first, _ = run(
            capsys,
            "solve",
            "--equation",
            "xyz2",
            "--seed",
            "1",
            "--limit",
            "1000",
            "--save-config",
            str(cfg_path),
        )
        code2, second, _ = run(capsys, "replay", str(cfg_path))
        assert (code1, first) == (code2, second)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"command":"stats","limit":10,"model":"x"}\n')
        code, _, err = run(capsys, "replay", str(cfg_path))
        assert code == EXIT_ERROR
        assert "unknown config keys" in err

    def test_missing_command_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "nocmd.json"
        cfg_path.write_text('{"limit":10}\n')
        code, _, err = run(capsys, "replay", str(cfg_path))
        assert code == EXIT_ERROR
        assert "missing 'command'" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "replay", str(tmp_path / "nope.json"))
        assert code == EXIT_ERROR


class TestParsers:
    def test_parse_seeds(self):
        assert _parse_seeds("0-3,7") == [0, 1, 2, 3, 7]
        assert _parse_seeds("5") == [5]
        assert _parse_seeds("1, 2, 3") == [1, 2, 3]

    def test_parse_grid(self):
        assert _parse_grid("10,20,30") == [10, 20, 30]
        grid = _parse_grid("100:10000:poly2")
        assert grid[0] == 100 and grid[-1] == 10000
        with pytest.raises(ValueError):
            _parse_grid("100:200")

    def test_run_config_round_trip(self):
        cfg = RunConfig(command="stats", seed=9, limit=100)
        back = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg


class TestTopLevel:
    def test_no_args_is_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "generate" in out

    def test_report_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "pairsquare", "--limit", "10", "--out", str(out)
        )
        assert code == EXIT_OK
        assert stdout == ""
        report = json.loads(out.read_text())
        assert report["pair_count"] == 18
