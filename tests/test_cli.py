"""Command-line interface: subcommands, output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permtri import exhaustive_scan, ff
from permtri.cli import main
from permtri.scan import to_csv_text

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

    def test_threads_flag(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--p", "7", "--h", "1", "--out", str(out1)]) == 0
        assert main(["scan", "--p", "7", "--h", "1", "--threads", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
