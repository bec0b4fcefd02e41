"""Command-line interface: subcommands, output, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permtri import cli, exhaustive_scan, ff, scan
from permtri.cli import main
from permtri.scan import report_from_json, to_csv_text, to_json_text

HUGE_PRIME = "1000000000000000003"


@pytest.fixture
def no_big_primality(monkeypatch):
    """Oversized fields must be refused before any trial division: a
    primality test of a large number fails the test instead of hanging."""
    real = ff.is_prime

    def guarded(n):
        if n > 10**6:
            pytest.fail(f"is_prime({n}) ran before the size check")
        return real(n)

    monkeypatch.setattr(ff, "is_prime", guarded)


class TestScanCommand:
    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "q5.csv"
        code = main(["scan", "--p", "5", "--h", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text() == to_csv_text(exhaustive_scan(5, 1))

    def test_csv_to_stdout(self, capsys):
        code = main(["scan", "--p", "5", "--h", "1", "--summary-only"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.splitlines()[0].startswith("q,a_idx,b_idx,")

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["scan", "--p", "7", "--h", "1", "--sample", "100", "--seed", "4",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["q"] == 7 and data["mode"] == "sampled"

    def test_sample_seed_defaults_to_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["scan", "--p", "7", "--h", "1", "--sample", "50", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 0 and data["rows"] == scan.sampled_scan(7, 1, 50, 0).rows.tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_bytes_equal_file_bytes(self, fmt, tmp_path, capsys, monkeypatch):
        rep = exhaustive_scan(5, 1)  # one report, so both carry the same wall_time
        monkeypatch.setattr(cli, "exhaustive_scan", lambda *args, **kwargs: rep)
        monkeypatch.setattr(scan, "_SLICE_PAIRS", 100)  # several blocks
        out = tmp_path / f"r.{fmt}"
        argv = ["scan", "--p", "5", "--h", "1", "--format", fmt]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        assert stdout == out.read_bytes() + (b"\n" if fmt == "json" else b"")

    @pytest.mark.parametrize("p", [5, pytest.param(31, marks=pytest.mark.slow)], ids=["q5", "q31"])
    def test_stdout_json_reads_like_the_file(self, tmp_path, capsys, monkeypatch, p):
        """The JSON on stdout ends in a newline; report_from_json reads the
        rows of both through numpy (at q = 31 the block boundaries fall
        inside a-rows) and gives the scan's report, bytes and all."""
        rep = exhaustive_scan(p, 1)
        monkeypatch.setattr(cli, "exhaustive_scan", lambda *args, **kwargs: rep)
        out = tmp_path / "r.json"
        argv = ["scan", "--p", str(p), "--h", "1", "--format", "json", "--out"]
        assert main(argv + [str(out)]) == 0 and main(argv + ["-"]) == 0
        stdout, text = capsys.readouterr().out, out.read_text()
        assert stdout == text + "\n"
        loaded, real_loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda s, **kw: loaded.append(s) or real_loads(s, **kw))
        for read in (stdout, text):
            got = report_from_json(read)
            assert read not in loaded  # the rows went through numpy
            assert got.rows.dtype == np.int32 and np.array_equal(got.rows, rep.rows)
            assert to_json_text(got) == text

    # at q = 31 one, two and five threads cut the 14 850 class pairs into as many
    # slices; the 921 600 rows are written in 29 blocks
    @pytest.mark.parametrize(
        "p,threads", [(7, ["4"]), pytest.param(31, ["1", "2", "5"], marks=pytest.mark.slow)], ids=["q7", "q31"]
    )
    def test_threads_flag(self, tmp_path, p, threads):
        argv = ["scan", "--p", str(p), "--h", "1", "--out"]
        assert main(argv + [str(tmp_path / "default.csv")]) == 0
        for t in threads:
            assert main(argv + [str(tmp_path / f"t{t}.csv"), "--threads", t]) == 0
            assert (tmp_path / f"t{t}.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, budget_env, message",
        [
            pytest.param(["--p", "6", "--h", "1"], None, "prime", id="non-prime"),
            pytest.param(["--p", "37", "--h", "1"], None, "sampled", id="budget-exceeded"),
            pytest.param(["--p", "7", "--h", "1", "--sample", "-5"], None, "non-negative", id="negative-sample"),
            pytest.param(["--p", "5", "--h", "1"], "abc", "TRINOMIAL_BUDGET_Q", id="bad-budget-env"),
            pytest.param(["--p", "5", "--h", "1", "--out", "missing/x.csv"], None, "missing/x.csv", id="unwritable-out"),
            pytest.param(["--p", "5", "--h", "1", "--threads", "0"], None, "threads", id="zero-threads"),
            pytest.param(
                ["--p", HUGE_PRIME, "--h", "1", "--sample", "3"], None, f"{HUGE_PRIME}^2 exceeds", id="huge-prime"
            ),
            pytest.param(["--p", "3", "--h", "10000000"], None, "q = 3^10000000 exceeds", id="huge-h"),
            # the CSV has no column for witnesses or point counts
            pytest.param(["--p", "5", "--h", "1", "--diagnostics"], None, "--format json", id="diagnostics-csv"),
            pytest.param(
                ["--p", "5", "--h", "1", "--sample", "9", "--summary-only", "--diagnostics", "--format", "csv"],
                None, "--format json", id="diagnostics-sampled-csv",
            ),
            # an exhaustive scan draws no pairs to seed
            pytest.param(["--p", "5", "--h", "1", "--seed", "3"], None, "--sample", id="seed-exhaustive"),
        ],
    )
    def test_usage_error(self, argv, budget_env, message, tmp_path, monkeypatch, capsys, no_big_primality):
        monkeypatch.chdir(tmp_path)
        if budget_env is not None:
            monkeypatch.setenv("TRINOMIAL_BUDGET_Q", budget_env)
        assert main(["scan", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestCheckCommand:
    def test_json_record(self, capsys):
        code = main(["check", "--p", "5", "--h", "1", "--a", "5", "--b", "1"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"]["is_pp"] is True
        assert data["gcd_deg"] == 2
        assert data["conditions"]["prima_bis"] is True and "v" in data["conditions"]

    def test_diagnostics_flag(self, capsys):
        code = main(["check", "--p", "5", "--h", "1", "--a", "2", "--b", "3", "--diagnostics"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["points_off_diag"] == 0
        assert data["conic"]["pattern"] == "conic-swap"

    @pytest.mark.parametrize("p, h", [(HUGE_PRIME, "1"), ("3", "10000000")], ids=["huge-prime", "huge-h"])
    def test_oversized_field_is_usage_error(self, p, h, capsys, no_big_primality):
        assert main(["check", "--p", p, "--h", h, "--a", "1", "--b", "1"]) == 2
        assert f"{p}^{2 * int(h)} exceeds the bound" in capsys.readouterr().err

    def test_zero_parameter_is_usage_error(self, capsys):
        assert main(["check", "--p", "5", "--h", "1", "--a", "0", "--b", "3"]) == 2

    def test_runs_as_a_module_from_a_plain_checkout(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-m", "permtri", "check", "--p", "5", "--h", "1", "--a", "5", "--b", "1"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["gcd_deg"] == 2


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--nope"])
        assert exc.value.code == 2


class TestSharedParser:
    """`main` parses every call with the one parser built at import."""

    CHECK = ["check", "--p", "5", "--h", "1", "--a", "2", "--b", "3"]
    SCAN = ["scan", "--p", "5", "--h", "1", "--out"]

    def test_no_parser_per_call(self, monkeypatch, capsys, tmp_path):
        built, real_init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(self.CHECK) == 0
        assert main(self.SCAN + [str(tmp_path / "r.csv"), "--summary-only"]) == 0
        assert main(["selftest", "--max-q", "2"]) == 2
        assert built == []

    def test_diagnostics_do_not_leak_into_the_next_check(self, capsys):
        assert main(self.CHECK + ["--diagnostics"]) == 0
        assert "conic" in json.loads(capsys.readouterr().out)
        assert main(self.CHECK) == 0
        record = json.loads(capsys.readouterr().out)
        assert not {"four_line", "conic", "points_off_diag"} & record.keys()

    def test_summary_only_does_not_leak_into_the_next_scan(self, tmp_path):
        assert main(self.SCAN + [str(tmp_path / "summary.csv"), "--summary-only"]) == 0
        assert main(self.SCAN + [str(tmp_path / "rows.csv")]) == 0
        text = (tmp_path / "rows.csv").read_text()
        assert text == to_csv_text(exhaustive_scan(5, 1))
        assert len(text.splitlines()) == 1 + 24 * 24  # header and every pair

    @pytest.mark.parametrize(
        "bad",
        [["scan", "--nope"], ["scan", "--p", "5", "--h", "1", "--diagnostics"]],
        ids=["argparse-exit", "value-error"],
    )
    def test_usage_error_leaves_the_parser_usable(self, bad, tmp_path, capsys):
        try:
            code = main(bad)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        out = tmp_path / "q5.csv"
        assert main(self.SCAN + [str(out)]) == 0
        assert out.read_text() == to_csv_text(exhaustive_scan(5, 1))


class TestSelftest:
    def test_small_bound_passes(self, capsys):
        # at max-q 5 every mandated check trims to q = 5 and passes
        code = main(["selftest", "--max-q", "5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("criterion")]
        assert len(lines) == 11
        assert all(": PASS" in l or "skipped" in l for l in lines)

    def test_bound_below_every_field_is_usage_error(self, capsys):
        # at max-q 2 every field-bounded criterion would skip and report PASS
        assert main(["selftest", "--max-q", "2"]) == 2
        captured = capsys.readouterr()
        assert "criterion" not in captured.out
        assert captured.err.startswith("error: ") and "max_q 2 is below 3" in captured.err
