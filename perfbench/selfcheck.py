"""Self-test of the benchmark's checks and bookkeeping.

    python3 perfbench/selfcheck.py

Feeds corrupted outputs to the output checks and sees each counted as a
failed operation, checks that the tracer restores every patched name, and
that BENCHMARK.json lists exactly the metrics run.py and layers.py emit.
Exits 0 when every case behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

from permtri import scan  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def counted_as_failed(op: Op) -> bool:
    runner = run.Runner([op])
    runner.run_op(op, traced=False)
    return runner.attempted == 1 and runner.failed == 1


def case_corrupted_csv(tmp: Path) -> None:
    ops = workloads._rows_ops(0, tmp)
    csv_op = next(op for op in ops if op.name == "csv_q9")
    good = csv_op.collect(csv_op.run())
    expect(csv_op.check(good) == [], "the real q = 9 CSV passes its check")
    code, data = good
    flipped = data[:-2] + (b"0" if data[-2:-1] == b"1" else b"1") + data[-1:]  # last main_predicate cell
    bad = Op("csv_q9", 1, lambda: (code, flipped), csv_op.check, workloads._file_digest)
    expect(counted_as_failed(bad), "a CSV with one changed cell counts as failed")


def case_report_checks() -> None:
    rep = scan.exhaustive_scan(5, 1, summary_only=True, diagnostics=True)

    def problems(r):
        return workloads.report_problems(r, key="q5", q=5, pair_count=24 * 24, rows=False) + (
            workloads.diagnostics_problems(r, "q5")
        )

    expect(problems(rep) == [], "the real q = 5 report passes the report checks")
    corrupted = {
        "an equivalence violation": replace(rep, equivalence_violations=[(1, 2, True, False)]),
        "a broken set equality": replace(rep, set_equalities={"prima_eq_prima_bis": False, "seconda_eq_seconda_bis": True}),
        "a wrong pair_count": replace(rep, pair_count=rep.pair_count - 1),
        "a rational point off the diagonal": replace(
            rep, diagnostics=[dict(rep.diagnostics[0], points_off_diag=1)] + rep.diagnostics[1:]
        ),
    }
    for what, bad in corrupted.items():
        expect(problems(bad) != [], f"{what} is a problem")

    op = Op("q5", 1, lambda: rep, lambda r: ["injected"] if r.pp_count == 18 else [], workloads.report_digest)
    expect(counted_as_failed(op), "a failing check is counted in `failed`")

    text = scan.to_json_text(rep)
    expect(workloads.payload_digest(text) == workloads.payload_digest(scan.to_json_text(replace(rep, wall_time=9.5))),
           "payload digests ignore wall_time")
    expect(workloads.payload_digest(text) != workloads.payload_digest(scan.to_json_text(replace(rep, pp_count=17))),
           "payload digests see every other field")


def case_selftest_checks() -> None:
    lines = [f"criterion {k:2d}: {'FAIL' if k == 7 else 'PASS'} - label [detail] (0.1s)" for k in range(1, 12)]
    good = "\n".join(lines) + "\n"
    expect(workloads.selftest_problems(1, good) == [], "criterion 7 as the only FAIL, exit 1, passes")
    expect(workloads.selftest_problems(0, good) != [], "exit 0 from selftest is a problem")
    expect(workloads.selftest_problems(1, good.replace("7: FAIL", "7: PASS")) != [],
           "criterion 7 passing (strict xfail) is a problem")
    expect(workloads.selftest_problems(1, good.replace("8: PASS", "8: FAIL")) != [],
           "any other failing criterion is a problem")


def case_digest_drift() -> None:
    outputs = iter(["a", "b"])
    op = Op("drift", 1, lambda: next(outputs), lambda out: [], lambda out: out)
    runner = run.Runner([op])
    runner.run_op(op, traced=False)
    runner.run_op(op, traced=False)
    expect(runner.failed == 1, "an output that changes between passes counts as failed")


def case_tracer_restores() -> None:
    def snapshot():
        owners = list(tracing.MODULES) + [c for c, *_ in tracing.METHODS] + [tracing.ff.FieldCtx, tracing.ff.Elem]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    patched = tracer.installed()
    traced_rep = tracer.span("op.q7", scan.exhaustive_scan, 7, 1, summary_only=True)
    tracer.restore()
    after = snapshot()
    expect(patched > 50 and before.keys() == after.keys() and all(before[k] is after[k] for k in before),
           f"install() patched {patched} names and restore() put every one back")
    plain = scan.exhaustive_scan(7, 1, summary_only=True)
    expect(workloads.report_digest(traced_rep) == workloads.report_digest(plain), "traced output equals untraced output")
    names = {s[1] for s in tracer.spans}
    expect({"scan.exhaustive_scan", "engine.classify_bulk", "engine.pp_mu", "ff.vmul.dense"} <= names,
           "spans recorded at the scan, engine and ff boundaries")


def case_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(per_layer == list(layers.PER_LAYER), "BENCHMARK.json per_layer matches layers.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names match")


def main() -> int:
    tmp = ROOT / ".bench_out" / "selfcheck"
    tmp.mkdir(parents=True, exist_ok=True)
    case_corrupted_csv(tmp)
    case_report_checks()
    case_selftest_checks()
    case_digest_drift()
    case_tracer_restores()
    case_benchmark_json()
    for f in tmp.iterdir():
        f.unlink()
    tmp.rmdir()
    print(f"{len(FAILURES)} failing case(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
