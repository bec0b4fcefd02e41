"""One table of every end-to-end metric, one row per workload.

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py for every workload in BENCHMARK.json, untraced and
then traced, each in a fresh process for its run_seconds, and prints the
end-to-end metrics by name with units, the workload's headline rates,
fail_ratio and the tracing overhead.  Run from the root of a source
checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if res.returncode not in (0, 1):  # 1: the run finished, but some output failed its check
        raise SystemExit(f"{workload} (trace {trace}) exited {res.returncode}:\n{res.stderr}")
    return json.loads((ROOT / ".bench_out" / f"BENCH_{workload}_trace{trace}_seed{seed}.json").read_text())


def fmt(value: float, unit: str) -> str:
    return f"{value:.4g} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    failed = 0

    for workload in (w["name"] for w in bench["workloads"]):
        plain = run_one(workload, args.seed, seconds, 0)
        traced = run_one(workload, args.seed, seconds, 1)
        m = plain["metrics"]
        cells = [f"{name}={fmt(v['value'], v['unit'])}" for name, v in m.items()]
        p = plain["pass"]
        tail = "n/a" if p["tail"] is None else f"p{p['tail_pct']} {p['tail']:.4g} s"
        cells.append(f"pass median={p['median']:.4g} s tail={tail} n={p['n']}")
        cells += [f"{name}={fmt(v['value'], v['unit'])}" for name, v in plain["headline"].items()]
        cells.append(f"fail_ratio={plain['fail_ratio']:.4g} ({plain['failed']}/{plain['attempted']} ops)")
        failed += plain["failed"] + traced["failed"]
        tm = traced["metrics"]
        cells.append(
            f"trace_overhead={fmt(tm['trace.overhead_s']['value'], 's')} "
            f"({100 * tm['trace.overhead_share']['value']:.1f}%)"
        )
        print(f"{workload:7s} " + "  ".join(cells), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
