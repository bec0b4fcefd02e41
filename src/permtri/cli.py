"""Command-line front end: scan, check, selftest.

Exit codes: 0 ok, 1 verification violation / failed selftest, 2 usage or
I/O error.

`main` may be called again and again in one process: every call parses
with the one parser that `_build_parser` makes when this module is
imported, and keeps nothing from the calls before it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .perm import TrinomialParams
from .scan import (
    classify_pair,
    emit_report,
    exhaustive_scan,
    report_blocks,
    sampled_scan,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permtri",
        description="Verify which trinomials X(1 + aX^(q(q-1)) + bX^(2(q-1))) permute GF(q^2).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("scan", help="sweep all (or sampled) parameter pairs at one q")
    ps.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    ps.add_argument("--h", type=int, required=True, help="extension degree, q = p^h")
    ps.add_argument("--sample", type=int, metavar="N", help="sample N pairs instead of exhausting")
    ps.add_argument("--seed", type=int, help="seed for sampled mode (default 0)")
    ps.add_argument("--threads", type=int, default=1)
    ps.add_argument("--diagnostics", action="store_true", help="attach curve/witness diagnostics to permutation instances")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--out", default="-", help="output path, or - for stdout")
    ps.add_argument("--summary-only", action="store_true", help="aggregates only, no per-pair rows")

    pc = sub.add_parser("check", help="classify a single (a, b) pair")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--h", type=int, required=True)
    pc.add_argument("--a", type=int, required=True, metavar="A_IDX", help="canonical index of a")
    pc.add_argument("--b", type=int, required=True, metavar="B_IDX", help="canonical index of b")
    pc.add_argument("--diagnostics", action="store_true")

    pt = sub.add_parser("selftest", help="run the acceptance suite")
    pt.add_argument("--max-q", type=int, default=None, dest="max_q")
    return parser


def _cmd_scan(args) -> int:
    if args.diagnostics and args.format == "csv":
        raise ValueError("--diagnostics needs --format json: the CSV has no column for witnesses or point counts")
    if args.seed is not None and args.sample is None:
        raise ValueError("--seed needs --sample: an exhaustive scan draws no pairs")
    if args.sample is not None:
        report = sampled_scan(
            args.p,
            args.h,
            args.sample,
            0 if args.seed is None else args.seed,
            threads=args.threads,
            summary_only=args.summary_only,
            diagnostics=args.diagnostics,
        )
    else:
        report = exhaustive_scan(
            args.p,
            args.h,
            threads=args.threads,
            summary_only=args.summary_only,
            diagnostics=args.diagnostics,
        )
    if args.out == "-":
        for block in report_blocks(report, args.format):
            sys.stdout.write(block.decode("ascii"))
        if args.format == "json":
            sys.stdout.write("\n")
    else:
        emit_report(report, args.format, args.out)
    return 1 if report.equivalence_violations else 0


def _cmd_check(args) -> int:
    from .ff import make_field

    tower = make_field(args.p, args.h)
    params = TrinomialParams.from_indices(tower, args.a, args.b)
    record = classify_pair(params, diagnostics=args.diagnostics)
    print(json.dumps(record.to_json(), sort_keys=True, indent=2))
    return 0


def _cmd_selftest(args) -> int:
    from .acceptance import DEFAULT_MAX_Q, run_all

    max_q = DEFAULT_MAX_Q if args.max_q is None else args.max_q
    return 0 if run_all(max_q=max_q) else 1


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.cmd == "scan":
            return _cmd_scan(args)
        if args.cmd == "check":
            return _cmd_check(args)
        return _cmd_selftest(args)
    except (ValueError, OSError) as exc:  # BudgetExceededError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
