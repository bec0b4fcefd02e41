"""The three workloads: their operations, inputs and output checks.

Every operation is a call into permtri's public API (or `cli.main`) that
returns what a user would get back: a report, a file, an exit code and
stdout.  `check` looks at that output after the timer has stopped and
returns a list of problems; an operation with any problem counts as failed.
`digest` condenses the output so that repeated and traced passes can be
compared with the first untraced one.

Sizes are chosen so that one pass takes a few seconds and a run holds
many passes: many short samples are what keep the figures steady on a
shared host (see DESIGN.md).

Recorded digests and counts come from the commit that introduced the
benchmark.  Those of the q = 59 sample hold only for DEFAULT_SEED; every
other check holds for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable

import numpy as np

from permtri import acceptance, cli, scan
from permtri.engine import ScanEngine
from permtri.ff import make_field

DEFAULT_SEED = 0

SAMPLES_Q59 = 20_000
CHECK_PAIRS = 8  # per-pair `check` inputs of each kind: permutations and not

# Recorded on the commit that added the benchmark.  Payload digests are
# SHA-256 of the JSON text with only `wall_time` removed; file digests are
# SHA-256 of the bytes written.
RECORDED = {
    "exhaustive_q25": {"pp_count": 546, "digest": "266525e47ea550d0f66704fb84d16aa3138e26c06472e11021e19b744f423838"},
    # the q = 59 sample: DEFAULT_SEED only
    "sampled_q59": {"pp_count": 3, "digest": "ba35618c1a1529bd4c2f07d05934cbbbe0e8cc0ab993e4ac9950b0050e67a7b0"},
    "csv_q19": {"digest": "446961e6099d5a7395d168bcd52ce370b1d50d400657f81cf529a4dcf4a1a548"},
    "csv_q9": {"digest": "048aa3cd3833fb2e25b04fef4a7aa20d0515d7148eeb7a26b1516981d76835e0"},
    "json_q19": {"pp_count": 300, "digest": "1538e832187fc1b7b4fe8b57a643db029b88e3d8a18382c856122fe8c12fdb71"},
    "diag_q13": {"pp_count": 126, "digest": "06c74bbaee5c66864f496776c7554af4a9911956e60d234d0c7a383d58b88551"},
    "diag_q8": {"pp_count": 63, "digest": "fa65dd3128d9aff44a1274675bbfb93d51a1e1b10f217eb798278a2202862551"},
    "selftest_q7": {"digest": "fedaf478d66f9bd842e067980821b06587755768031548f488dd64e00a40d7e5"},
}


@dataclass
class Op:
    name: str
    part: int  # 1 or 2: which of part1_s / part2_s the op counts towards
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]
    prepare: Callable[[], None] | None = None  # untimed, before each run
    collect: Callable[[Any], Any] | None = None  # untimed, turns run()'s value into the output


@dataclass
class Workload:
    name: str
    fields: tuple[tuple[int, int], ...]  # every (p, h) the workload builds
    build: Callable[[int, Path], list[Op]]
    # the workload's headline rates, from per-op times in seconds
    headline: Callable[[dict[str, float]], dict[str, tuple[float, str]]]
    speedup_ops: tuple[str, str] | None = None  # (1 thread, 2 threads)


# ------------------------------------------------------------ helpers

_WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+(, )?')


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(text: str | bytes) -> str:
    """Digest of a JSON report as `to_json_text` writes it, `wall_time`
    removed (it is the one field that differs between identical runs)."""
    if isinstance(text, bytes):
        text = text.decode()
    return sha256_bytes(_WALL_TIME.sub("", text, count=1).encode())


def report_digest(report) -> str:
    return payload_digest(scan.to_json_text(report))


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _recorded(problems, key, field_name, value):
    want = RECORDED[key][field_name]
    if want is not None:
        _expect(problems, value == want, f"{key}: {field_name} {value!r} != recorded {want!r}")


def report_problems(rep, *, key: str, q: int, pair_count: int, rows: bool) -> list[str]:
    """Checks that hold for any ScanReport, whatever the seed."""
    problems: list[str] = []
    pp = rep.pp_count
    _expect(problems, rep.q == q, f"{key}: q {rep.q} != {q}")
    _expect(problems, rep.pair_count == pair_count, f"{key}: pair_count {rep.pair_count} != {pair_count}")
    _expect(problems, not rep.equivalence_violations, f"{key}: {len(rep.equivalence_violations)} equivalence violations")
    if rep.p > 3:
        se = rep.set_equalities or {}
        _expect(
            problems,
            se.get("prima_eq_prima_bis") is True and se.get("seconda_eq_seconda_bis") is True,
            f"{key}: set equalities {se}",
        )
    else:
        _expect(problems, rep.set_equalities is None, f"{key}: set_equalities should be null for p = {rep.p}")
    hist = {int(k): v for k, v in rep.gcd_histogram.items()}
    _expect(problems, sum(hist.values()) == pp, f"{key}: gcd histogram sums to {sum(hist.values())}, pp_count {pp}")
    _expect(problems, set(hist) <= {0, 2}, f"{key}: gcd degrees {sorted(hist)} outside {{0, 2}}")
    _expect(problems, sum(rep.attribution.values()) == pp, f"{key}: attribution does not sum to pp_count")
    if rows:
        _expect(problems, rep.rows is not None and rep.rows.shape == (pair_count, 10), f"{key}: row matrix shape")
    else:
        _expect(problems, rep.rows is None, f"{key}: summary report carries rows")
    return problems


def diagnostics_problems(rep, key: str) -> list[str]:
    problems: list[str] = []
    diag = rep.diagnostics or []
    _expect(problems, len(diag) == rep.pp_count, f"{key}: {len(diag)} diagnostics for {rep.pp_count} instances")
    for entry in diag:
        if rep.p == 2:
            _expect(problems, "points_off_diag" not in entry, f"{key}: p = 2 entry carries a point count")
        else:
            _expect(
                problems,
                entry.get("points_off_diag") == 0,
                f"{key}: ({entry['a_idx']}, {entry['b_idx']}) has {entry.get('points_off_diag')} points off the diagonal",
            )
        _expect(problems, "four_line" in entry and "conic" in entry, f"{key}: entry without witnesses")
    return problems


def _capture(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _scan_op(name, part, run, *, q, pair_count, diagnostics=False, extra=None) -> Op:
    """An op returning a summary ScanReport.  Without `extra`, its pp_count
    and digest are checked against RECORDED[name]."""

    def check(rep):
        problems = report_problems(rep, key=name, q=q, pair_count=pair_count, rows=False)
        if diagnostics:
            problems += diagnostics_problems(rep, name)
        if extra is not None:
            problems += extra(rep)
        else:
            _recorded(problems, name, "pp_count", rep.pp_count)
            _recorded(problems, name, "digest", report_digest(rep))
        return problems

    return Op(name, part, run, check, report_digest)


# ---------------------------------------------------------------- sweep


def _sweep_ops(seed: int, out_dir: Path) -> list[Op]:
    def sampled_extra(rep):
        problems: list[str] = []
        _expect(problems, rep.samples == SAMPLES_Q59 and rep.seed == seed, "sampled_q59: samples/seed not echoed")
        if seed == DEFAULT_SEED:
            _recorded(problems, "sampled_q59", "pp_count", rep.pp_count)
            _recorded(problems, "sampled_q59", "digest", report_digest(rep))
        return problems

    return [
        _scan_op(
            "exhaustive_q25", 1, lambda: scan.exhaustive_scan(5, 2, summary_only=True),
            q=25, pair_count=624 * 624,
        ),
        _scan_op(
            "sampled_q59", 2, lambda: scan.sampled_scan(59, 1, SAMPLES_Q59, seed, summary_only=True),
            q=59, pair_count=SAMPLES_Q59, extra=sampled_extra,
        ),
    ]


def _sweep_headline(med):
    return {
        "exhaustive_pairs_per_s": (624 * 624 / med["exhaustive_q25"], "1/s"),
        "sampled_pairs_per_s": (SAMPLES_Q59 / med["sampled_q59"], "1/s"),
    }


# ----------------------------------------------------------------- rows

PAIRS_Q19 = 360 * 360
PAIRS_Q9 = 80 * 80


def _file_op(name: str, part: int, argv: list[str], path: Path, check, digest) -> Op:
    """`permtri <argv> --out path`; the output is (exit code, file bytes)."""
    return Op(
        name,
        part,
        lambda: cli.main(argv + ["--out", str(path)]),
        check,
        digest,
        collect=lambda code: (code, path.read_bytes()),
    )


def _file_digest(out) -> str:
    return f"{out[0]}:{sha256_bytes(out[1])}"


def _csv_check(name: str, key: str, pairs: int, empty_conditions: bool):
    header = (",".join(scan.CSV_COLUMNS) + "\n").encode()

    def check(out) -> list[str]:
        code, data = out
        problems: list[str] = []
        _expect(problems, code == 0, f"{name}: exit code {code}")
        _recorded(problems, key, "digest", sha256_bytes(data))
        _expect(problems, data.startswith(header), f"{name}: header")
        _expect(problems, data.count(b"\n") == pairs + 1 and data.endswith(b"\n"), f"{name}: row count")
        first = data[len(header) : data.find(b"\n", len(header))].split(b",")
        _expect(problems, (first[4:9] == [b""] * 5) == empty_conditions, f"{name}: condition cells")
        return problems

    return check


def _rows_ops(seed: int, out_dir: Path) -> list[Op]:
    q19 = ["scan", "--p", "19", "--h", "1"]
    json_path = out_dir / "scan_q19.json"

    def check_json(out):
        code, data = out
        problems: list[str] = []
        _expect(problems, code == 0, f"json_q19: exit code {code}")
        _recorded(problems, "json_q19", "digest", payload_digest(data))
        return problems

    def reload():
        text = json_path.read_text()
        return scan.report_from_json(text), text

    def check_reload(out):
        report, text = out
        problems = report_problems(report, key="reload_q19", q=19, pair_count=PAIRS_Q19, rows=True)
        _recorded(problems, "json_q19", "pp_count", report.pp_count)
        _expect(problems, scan.to_json_text(report) == text, "reload_q19: to_json_text(report_from_json(t)) != t")
        return problems

    return [
        _file_op(
            "csv_q19_t1", 1, q19 + ["--threads", "1"], out_dir / "scan_q19_t1.csv",
            _csv_check("csv_q19_t1", "csv_q19", PAIRS_Q19, False), _file_digest,
        ),
        _file_op(
            "csv_q19_t2", 1, q19 + ["--threads", "2"], out_dir / "scan_q19_t2.csv",
            _csv_check("csv_q19_t2", "csv_q19", PAIRS_Q19, False), _file_digest,
        ),
        _file_op(
            "csv_q9", 1, ["scan", "--p", "3", "--h", "2"], out_dir / "scan_q9.csv",
            _csv_check("csv_q9", "csv_q9", PAIRS_Q9, True), _file_digest,
        ),
        _file_op(
            "json_q19", 2, q19 + ["--format", "json"], json_path,
            check_json, lambda out: f"{out[0]}:{payload_digest(out[1])}",
        ),
        Op("reload_q19", 2, reload, check_reload, lambda out: payload_digest(out[1])),
    ]


def _rows_headline(med):
    return {
        "csv_pairs_per_s": (
            (2 * PAIRS_Q19 + PAIRS_Q9) / (med["csv_q19_t1"] + med["csv_q19_t2"] + med["csv_q9"]),
            "1/s",
        ),
        "json_pairs_per_s": (PAIRS_Q19 / med["json_q19"], "1/s"),
        "report_from_json_s": (med["reload_q19"], "s"),
    }


# --------------------------------------------------------------- verify


def check_pairs(seed: int) -> list[tuple[int, int, bool]]:
    """Seeded (a, b, is_pp) inputs for the per-pair `check` command at
    q = 13: CHECK_PAIRS permutation instances and as many others, labelled
    by the engine's verdict."""
    eng = ScanEngine(make_field(13, 1))
    n = eng.n
    a = np.repeat(np.arange(1, n, dtype=np.int64), n - 1)
    b = np.tile(np.arange(1, n, dtype=np.int64), n - 1)
    pp = eng.pp_mu(a, b)
    rng = Random(seed)
    hits = rng.sample(np.flatnonzero(pp).tolist(), CHECK_PAIRS)
    misses = rng.sample(np.flatnonzero(~pp).tolist(), CHECK_PAIRS)
    return [(int(a[i]), int(b[i]), bool(pp[i])) for i in sorted(hits + misses)]


def selftest_problems(code: int, text: str) -> list[str]:
    """`selftest` must exit 1 with criterion 7 (a strict xfail by design)
    as its only FAIL."""
    problems: list[str] = []
    _expect(problems, code == 1, f"selftest_q7: exit code {code}, want 1")
    status = dict(re.findall(r"^criterion\s+(\d+): (PASS|FAIL) ", text, flags=re.M))
    _expect(problems, sorted(int(k) for k in status) == list(range(1, 12)), "selftest_q7: criteria 1..11 not all reported")
    failed = sorted(int(k) for k, v in status.items() if v == "FAIL")
    _expect(problems, failed == [7], f"selftest_q7: failed criteria {failed}, want exactly [7]")
    return problems


def _selftest_digest(out) -> str:
    code, text = out
    return sha256_bytes(f"{code}\n{re.sub(r' [(][0-9.]+s[)]$', '', text, flags=re.M)}".encode())


def _verify_ops(seed: int, out_dir: Path) -> list[Op]:
    pairs = check_pairs(seed)

    def run_checks():
        return [
            _capture(["check", "--p", "13", "--h", "1", "--a", str(a), "--b", str(b), "--diagnostics"])
            for a, b, _ in pairs
        ]

    def check_checks(outs):
        problems: list[str] = []
        for (a, b, want_pp), (code, text) in zip(pairs, outs):
            rec = json.loads(text)
            is_pp = rec["verdict"]["is_pp"]
            _expect(problems, code == 0, f"check ({a}, {b}): exit code {code}")
            _expect(problems, (rec["a_idx"], rec["b_idx"]) == (a, b), f"check ({a}, {b}): echoed pair")
            _expect(problems, is_pp == want_pp, f"check ({a}, {b}): per-pair verdict {is_pp}, engine {want_pp}")
            _expect(problems, rec["conditions"]["main_predicate"] == is_pp, f"check ({a}, {b}): criterion disagrees")
            if is_pp:
                _expect(problems, rec.get("points_off_diag") == 0, f"check ({a}, {b}): points off the diagonal")
        return problems

    def check_selftest(out):
        problems = selftest_problems(*out)
        _recorded(problems, "selftest_q7", "digest", _selftest_digest(out))
        return problems

    def fresh_selftest_caches():
        # a `permtri selftest` process builds its towers and engines once
        acceptance._tower.cache_clear()
        acceptance._engine.cache_clear()

    return [
        _scan_op(
            "diag_q13", 1, lambda: scan.exhaustive_scan(13, 1, summary_only=True, diagnostics=True),
            q=13, pair_count=168 * 168, diagnostics=True,
        ),
        _scan_op(
            "diag_q8", 1, lambda: scan.exhaustive_scan(2, 3, summary_only=True, diagnostics=True),
            q=8, pair_count=63 * 63, diagnostics=True,
        ),
        Op("check_q13", 1, run_checks, check_checks, lambda outs: sha256_bytes(json.dumps(outs).encode())),
        Op(
            "selftest_q7",
            2,
            lambda: _capture(["selftest", "--max-q", "7"]),
            check_selftest,
            _selftest_digest,
            prepare=fresh_selftest_caches,
        ),
    ]


def _verify_headline(med):
    instances = RECORDED["diag_q13"]["pp_count"] + RECORDED["diag_q8"]["pp_count"]
    return {
        "instances_per_s": (instances / (med["diag_q13"] + med["diag_q8"]), "1/s"),
        "check_ms_per_pair": (1e3 * med["check_q13"] / (2 * CHECK_PAIRS), "ms"),
        "selftest_s": (med["selftest_q7"], "s"),
    }


WORKLOADS = {
    "sweep": Workload("sweep", ((5, 2), (59, 1)), _sweep_ops, _sweep_headline),
    "rows": Workload("rows", ((19, 1), (3, 2)), _rows_ops, _rows_headline, speedup_ops=("csv_q19_t1", "csv_q19_t2")),
    "verify": Workload(
        "verify",
        ((13, 1), (2, 3), (5, 1), (7, 1), (2, 2), (3, 1)),
        _verify_ops,
        _verify_headline,
    ),
}
