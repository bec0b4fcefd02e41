"""permtri benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload {sweep,rows,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; permtri is imported from ./src.
The run is a single-process closed loop.  After one warm-up pass it repeats
passes over the workload's operations until the next pass would end after
--seconds, timing each operation.  Checks run after each operation's timer
stops; an operation whose output fails a check counts in `failed`.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreters that
import permtri and build every field and engine the workload uses), wall_s
(one pass), part1_s and part2_s (the two halves of that pass; see
DESIGN.md) and peak_rss_mb.  Each time is the median of its samples, and
a pass is the sum of its operations' medians; fastest samples, tails and
sample counts are printed beside them and kept in the detail file.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, with the tracing overhead.

The last line of stdout is one JSON object; the lines before it are a
human-readable summary.  The exit code is 0 when every output passed its
check and 1 when any failed (the result line is printed either way).  Details, every sample and the spans go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
BUDGET_ENV = "TRINOMIAL_BUDGET_Q"
BUDGET_PIN = "31"  # the library default; pinned so the caller's environment cannot change it
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("part1_s", "s"),
    ("part2_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "rows", "verify"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def summarize(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it
    (None when there are too few samples), with the sample count."""
    s = sorted(samples)
    n = len(s)
    out = {"n": n, "min": s[0], "median": statistics.median(s), "tail": None, "tail_pct": None}
    if n > 10:
        out["tail"] = s[n - 11]
        out["tail_pct"] = round(100 * (n - 10) / n, 1)
    return out


class SetupProbe:
    """Cold set-up times, each in a fresh interpreter.  The probes are
    spread over the run (one after a pass, at most every seconds/repeats)
    so that one busy stretch of the host does not slow them all."""

    def __init__(self, fields, seconds: float):
        self.argv = [sys.executable, str(BENCH_DIR / "setup_probe.py")] + [f"{p}:{h}" for p, h in fields]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []

    def probe(self) -> None:
        res = subprocess.run(self.argv, env=self.env, capture_output=True, text=True, timeout=120, check=True)
        self.times.append(float(res.stdout.strip().splitlines()[-1]))

    def after_pass(self, elapsed: float) -> None:
        if len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.every:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.probe()
        return self.times


def llc_mib() -> float:
    try:
        res = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(res.stdout.strip() or 0) / (1 << 20)
    except (OSError, ValueError, subprocess.SubprocessError):
        return 0.0


class Runner:
    """Runs passes over a workload's operations and checks every output."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = {op.name: [] for op in ops}  # untraced seconds
        self.traced_samples = {op.name: [] for op in ops}
        self.pass_times: list[float] = []
        self.traced_pass_times: list[float] = []
        self.reference: dict[str, str] = {}  # op -> digest of its first untraced output
        self.warmup_times: dict[str, float] = {}

    def run_op(self, op, traced: bool, sample: bool = True) -> float:
        self.attempted += 1
        if op.prepare is not None:
            op.prepare()
        gc.collect()  # every sample starts from the same collector state
        problems: list[str] = []
        elapsed = 0.0
        try:
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                if traced:
                    value = self.tracer.span(f"op.{op.name}", op.run)
                else:
                    value = op.run()
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    self.tracer.restore()
            out = value if op.collect is None else op.collect(value)
            problems = op.check(out)
            digest = op.digest(out)
            ref = self.reference.setdefault(op.name, digest)
            if digest != ref:
                kind = "traced" if traced else "repeated"
                problems.append(f"{op.name}: {kind} output differs from the first untraced one")
        except Exception:  # noqa: BLE001 - one failing operation must not end the run
            problems = [f"{op.name}: raised\n{traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        if sample:
            (self.traced_samples if traced else self.samples)[op.name].append(elapsed)
        return elapsed

    def warm_up(self) -> None:
        """One pass whose times are kept apart: the first calls in a fresh
        process pay for allocator and page-cache warm-up.  Its outputs are
        checked and become the reference digests."""
        for op in self.ops:
            self.warmup_times[op.name] = self.run_op(op, traced=False, sample=False)

    def run(self, seconds: float, trace: bool, after_pass=None) -> None:
        """Untraced passes; with trace, untraced and traced passes alternate
        (at least one of each).  No pass starts once the previous pass's
        length would carry the run past `seconds`.  `after_pass(elapsed)`
        runs between passes, outside every timer."""
        start = time.perf_counter()
        k = 0
        while True:
            traced = trace and k % 2 == 1
            t_pass = time.perf_counter()
            total = sum(self.run_op(op, traced) for op in self.ops)
            (self.traced_pass_times if traced else self.pass_times).append(total)
            k += 1
            pass_wall = time.perf_counter() - t_pass
            if after_pass is not None:
                after_pass(time.perf_counter() - start)
            if k >= (2 if trace else 1) and time.perf_counter() - start + pass_wall > seconds:
                break

    def medians(self, traced: bool = False) -> dict[str, float]:
        """Median sample of each op.  On a shared host the fastest sample
        depends on whether a run happens to catch a quiet moment; across
        runs the median spreads about half as much (see DESIGN.md)."""
        src = self.traced_samples if traced else self.samples
        return {name: statistics.median(v) for name, v in src.items() if v}


def dense_table_mib(fields) -> float:
    from permtri import ff

    best = 0.0
    for p, h in fields:
        n = p ** (2 * h)
        if n * n <= ff._DENSE_TABLE_CELLS:
            best = max(best, 2 * n * n * 4 / (1 << 20))
    return best


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "permtri" / "__init__.py").is_file():
        print(f"error: no permtri sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ[BUDGET_ENV] = BUDGET_PIN
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    probe = None if args.trace else SetupProbe(wl.fields, args.seconds)
    run_dir = OUT_DIR / f"{args.workload}_trace{args.trace}_seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ops = wl.build(args.seed, run_dir)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(ops, tracer)
    try:
        runner.warm_up()
        runner.run(args.seconds, bool(args.trace), None if probe is None else probe.after_pass)
    finally:
        for f in run_dir.iterdir():
            f.unlink()
        run_dir.rmdir()

    med = runner.medians()
    pass_med = sum(med.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "cpus": os.cpu_count(),
            BUDGET_ENV: f"pinned to {BUDGET_PIN}",
        },
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "problems": runner.problems,
        "warmup_pass": runner.warmup_times,
        "ops": {name: summarize(v) | {"samples": v} for name, v in runner.samples.items()},
        "pass": summarize(runner.pass_times),
        "headline": {k: {"value": v, "unit": u} for k, (v, u) in wl.headline(med).items()},
    }
    if args.trace:
        traced_med = sum(runner.medians(traced=True).values())
        speedup = 0.0
        if wl.speedup_ops is not None:
            one, two = wl.speedup_ops
            speedup = med[one] / med[two]
        metrics = layers.layer_metrics(
            tracer.spans,
            tracer.elem_calls,
            len(runner.traced_pass_times),
            dense_table_mb=dense_table_mib(wl.fields),
            llc_mb=llc_mib(),
            threads2_speedup=speedup,
            overhead_s=traced_med - pass_med,
            overhead_share=(traced_med - pass_med) / pass_med,
        )
        units = dict(layers.PER_LAYER)
        detail["traced_ops"] = {name: summarize(v) for name, v in runner.traced_samples.items()}
        with open(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        setup = probe.finish()
        detail["setup"] = summarize(setup) | {"samples": setup}
        parts = {1: 0.0, 2: 0.0}
        for op in ops:
            parts[op.part] += med[op.name]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_med,
            "part1_s": parts[1],
            "part2_s": parts[2],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail["metrics"] = result["metrics"]
    (OUT_DIR / f"BENCH_{args.workload}_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )

    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(runner.pass_times)}+{len(runner.traced_pass_times)} traced  "
          f"attempted {runner.attempted}  failed {runner.failed}")
    for name, s in detail["ops"].items():
        tail = "" if s["tail"] is None else f"  p{s['tail_pct']} {s['tail']:.4f}"
        print(f"#   op {name:16s} median {s['median']:.4f} s  best {s['min']:.4f} s{tail}  n={s['n']}")
    for name, h in detail["headline"].items():
        print(f"#   {name:24s} {h['value']:.6g} {h['unit']}")
    print(json.dumps(result))
    return 1 if runner.failed else 0


if __name__ == "__main__":
    sys.exit(main())
