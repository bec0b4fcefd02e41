"""Exhaustive and sampled verification sweeps, reports, and persistence.

A sweep walks parameter pairs (a, b) over GF(q^2)* x GF(q^2)*, classifies
each pair (permutation verdict, closed-form conditions, GCD degree) through
the vectorised engine, and aggregates a ScanReport.  Any disagreement
between the verdict and the closed-form criterion is collected as an
equivalence violation, never silently dropped.

Both sweeps run one pipeline: a pair source (pair_grid or sample_pairs)
yields the pairs sorted by (a_idx, b_idx), pair_chunks slices them for the
kernels, and a _Tally accumulates each slice.

Parallelism contract: the sorted pair list is split into contiguous index
ranges, one per requested thread (a split may fall inside an a-row).  A pool
of at most os.cpu_count() workers tallies the ranges, and the tallies merge
in range order.  Output is therefore byte-identical for any thread count.
A sweep with a single range runs in the calling thread; fewer than one
thread is a ValueError.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import numpy as np

from .bipoly import conic_witnesses, count_points_off_diag, build_curves, four_line_witness, gcd_degree
from .conds import ConditionReport, condition_report
from .engine import ScanEngine
from .ff import make_field
from .perm import TrinomialParams, Verdict, is_pp_mu

__all__ = [
    "CSV_COLUMNS",
    "DEFAULT_BUDGET_Q",
    "BUDGET_ENV_VAR",
    "BudgetExceededError",
    "PairRecord",
    "ScanReport",
    "classify_pair",
    "exhaustive_scan",
    "sampled_scan",
    "emit_report",
    "to_csv_text",
    "to_json_text",
    "report_from_json",
    "pair_grid",
    "sample_pairs",
    "pair_chunks",
]

CSV_COLUMNS = (
    "q",
    "a_idx",
    "b_idx",
    "is_pp",
    "prima",
    "seconda",
    "prima_bis",
    "seconda_bis",
    "seconda_tris",
    "gcd_deg",
    "main_predicate",
)

# Exhaustion is refused above this q unless overridden (argument first,
# then the environment variable).
DEFAULT_BUDGET_Q = 31
BUDGET_ENV_VAR = "TRINOMIAL_BUDGET_Q"

_ROW_FIELDS = CSV_COLUMNS[1:]  # rows store everything but the constant q
_CHUNK_CELLS = 1 << 20  # kernel grid cells per pair_chunks slice


class BudgetExceededError(ValueError):
    """Raised when an exhaustive sweep would exceed the configured budget."""


@dataclass(frozen=True)
class PairRecord:
    """Per-pair classification through the per-pair module path."""

    q: int
    a_idx: int
    b_idx: int
    verdict: Verdict
    conditions: ConditionReport
    gcd_deg: int
    points_off_diag: int | None = None
    four_line: dict | None = None
    conic: dict | None = None

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "a_idx": self.a_idx,
            "b_idx": self.b_idx,
            "verdict": self.verdict.to_json(),
            "conditions": self.conditions.to_json(),
            "gcd_deg": self.gcd_deg,
        }
        if self.points_off_diag is not None:
            out["points_off_diag"] = self.points_off_diag
        if self.four_line is not None:
            out["four_line"] = self.four_line
        if self.conic is not None:
            out["conic"] = self.conic
        return out


def classify_pair(params: TrinomialParams, diagnostics: bool = False) -> PairRecord:
    """One classification row; with diagnostics, permutation instances also
    get the curve point count and the factorisation-pattern witnesses."""
    verdict = is_pp_mu(params)
    diag = _diagnose(params) if diagnostics and verdict.is_pp else {}
    return PairRecord(
        q=params.q,
        a_idx=params.a.i,
        b_idx=params.b.i,
        verdict=verdict,
        conditions=condition_report(params),
        gcd_deg=gcd_degree(params),
        **diag,
    )


@dataclass(eq=False)
class ScanReport:
    """Aggregate outcome of one sweep.

    `rows` (full mode only) is an int32 matrix with one line per pair in
    (a_idx, b_idx) order, columns as in CSV_COLUMNS[1:], -1 marking
    conditions that do not apply to the characteristic.
    """

    q: int
    p: int
    h: int
    mode: str  # "exhaustive" | "sampled"
    pair_count: int
    pp_count: int
    attribution: dict[str, int]
    gcd_histogram: dict[int, int]
    equivalence_violations: list[tuple[int, int, bool, bool]]
    set_equalities: dict[str, bool] | None
    wall_time: float
    samples: int | None = None
    seed: int | None = None
    rows: np.ndarray | None = None
    diagnostics: list[dict] | None = None

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "h": self.h,
            "mode": self.mode,
            "pair_count": self.pair_count,
            "pp_count": self.pp_count,
            "attribution": self.attribution,
            "gcd_histogram": {str(k): v for k, v in self.gcd_histogram.items()},
            "equivalence_violations": [list(v) for v in self.equivalence_violations],
            "set_equalities": self.set_equalities,
            "wall_time": self.wall_time,
            "samples": self.samples,
            "seed": self.seed,
            "rows": None if self.rows is None else self.rows.tolist(),
            "diagnostics": self.diagnostics,
        }


def report_from_json(text: str) -> ScanReport:
    d = json.loads(text)
    return ScanReport(
        q=d["q"],
        p=d["p"],
        h=d["h"],
        mode=d["mode"],
        pair_count=d["pair_count"],
        pp_count=d["pp_count"],
        attribution=d["attribution"],
        gcd_histogram={int(k): v for k, v in d["gcd_histogram"].items()},
        equivalence_violations=[tuple(v) for v in d["equivalence_violations"]],
        set_equalities=d["set_equalities"],
        wall_time=d["wall_time"],
        samples=d["samples"],
        seed=d["seed"],
        rows=None if d["rows"] is None else np.array(d["rows"], dtype=np.int32),
        diagnostics=d["diagnostics"],
    )


def _effective_budget(max_q: int | None) -> int:
    if max_q is not None:
        return max_q
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET_Q
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


def pair_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of GF(q^2)* x GF(q^2)* (n = q^2), in (a_idx, b_idx) order."""
    nonzero = np.arange(1, n, dtype=np.int64)
    return np.repeat(nonzero, n - 1), np.tile(nonzero, n - 1)


def sample_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` seeded pairs drawn with replacement from GF(q^2)* x GF(q^2)*,
    a then b for each pair, returned sorted by (a_idx, b_idx)."""
    rng = Random(seed)
    pairs = sorted((rng.randrange(1, n), rng.randrange(1, n)) for _ in range(count))
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
    return a, b


def pair_chunks(a: np.ndarray, b: np.ndarray, cells_per_pair: int):
    """Yield consecutive slices of the pairs (a, b), each small enough that
    a kernel allocating `cells_per_pair` cells per pair stays near
    _CHUNK_CELLS cells."""
    step = max(1, _CHUNK_CELLS // cells_per_pair)
    for lo in range(0, len(a), step):
        yield a[lo : lo + step], b[lo : lo + step]


@dataclass
class _Tally:
    """Aggregates of a run of sorted pairs; tallies of consecutive runs
    merge in order into the tally of their concatenation."""

    p: int
    keep_rows: bool
    pp_count: int = 0
    attribution: Counter = field(default_factory=Counter)
    gcd_histogram: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    pp_pairs: list = field(default_factory=list)
    prima_mismatch: bool = False
    seconda_mismatch: bool = False
    rows: list = field(default_factory=list)

    def add(self, a: np.ndarray, b: np.ndarray, cols: dict[str, np.ndarray]) -> None:
        """Fold in one classify_bulk result for the pairs (a, b)."""
        pp, main = cols["is_pp"], cols["main"]
        self.pp_count += int(pp.sum())
        for i in np.flatnonzero(pp != main).tolist():
            self.violations.append((int(a[i]), int(b[i]), bool(pp[i]), bool(main[i])))
        self.pp_pairs.extend(zip(a[pp].tolist(), b[pp].tolist()))
        vals, counts = np.unique(cols["gcd_deg"][pp], return_counts=True)
        self.gcd_histogram.update(dict(zip(vals.tolist(), counts.tolist())))
        if self.p > 3:
            pr, se = cols["prima"], cols["seconda"]
            self.attribution.update(
                {
                    "prima_only": int((pp & pr & ~se).sum()),
                    "seconda_only": int((pp & se & ~pr).sum()),
                    "both": int((pp & pr & se).sum()),
                }
            )
            self.prima_mismatch |= bool((pr != cols["prima_bis"]).any())
            self.seconda_mismatch |= bool((se != cols["seconda_bis"]).any())
        else:
            self.attribution.update({"char2" if self.p == 2 else "char3": int(pp.sum())})
        if self.keep_rows:
            named = {**cols, "a_idx": a, "b_idx": b, "main_predicate": main}
            absent = np.full(len(a), -1, dtype=np.int32)
            self.rows.append(np.column_stack([named.get(f, absent).astype(np.int32) for f in _ROW_FIELDS]))

    def merge(self, other: _Tally) -> None:
        """Append the tally of the run that follows this one."""
        self.pp_count += other.pp_count
        self.attribution.update(other.attribution)
        self.gcd_histogram.update(other.gcd_histogram)
        self.violations.extend(other.violations)
        self.pp_pairs.extend(other.pp_pairs)
        self.prima_mismatch |= other.prima_mismatch
        self.seconda_mismatch |= other.seconda_mismatch
        self.rows.extend(other.rows)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _diagnose(params: TrinomialParams) -> dict:
    """Curve point count (odd characteristic) and factorisation-pattern
    witnesses of a permutation instance."""
    out = {}
    if params.tower.p != 2:
        out["points_off_diag"] = count_points_off_diag(build_curves(params))
    out["four_line"] = four_line_witness(params).to_json()
    out["conic"] = conic_witnesses(params).to_json()
    return out


def _sweep(tower, mode, a, b, t0, threads, summary_only, diagnostics, samples=None, seed=None) -> ScanReport:
    """Classify the sorted pairs (a, b) and aggregate them into a report."""
    engine = ScanEngine(tower)
    keep_rows = not summary_only

    def tally(lo: int, hi: int) -> _Tally:
        part = _Tally(tower.p, keep_rows)
        for ca, cb in pair_chunks(a[lo:hi], b[lo:hi], tower.q + 1):
            part.add(ca, cb, engine.classify_bulk(ca, cb))
        return part

    bounds = np.linspace(0, len(a), min(threads, len(a)) + 1).astype(int).tolist()
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(spans) <= 1:  # inline: a worker thread would bring its own malloc arena
        parts = [tally(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=min(len(spans), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(lambda span: tally(*span), spans))
    total = _Tally(tower.p, keep_rows)
    for part in parts:  # range order
        total.merge(part)

    rows = None
    if keep_rows:
        rows = np.concatenate(total.rows) if total.rows else np.empty((0, len(_ROW_FIELDS)), dtype=np.int32)
    diag = None
    if diagnostics:
        diag = [
            {"a_idx": ai, "b_idx": bi, **_diagnose(TrinomialParams.from_indices(tower, ai, bi))}
            for ai, bi in total.pp_pairs
        ]
    set_eq = None
    if tower.p > 3:
        set_eq = {
            "prima_eq_prima_bis": not total.prima_mismatch,
            "seconda_eq_seconda_bis": not total.seconda_mismatch,
        }
    return ScanReport(
        q=tower.q,
        p=tower.p,
        h=tower.h,
        mode=mode,
        pair_count=len(a),
        pp_count=total.pp_count,
        attribution=dict(total.attribution),
        gcd_histogram=dict(total.gcd_histogram),
        equivalence_violations=total.violations,
        set_equalities=set_eq,
        wall_time=time.perf_counter() - t0,
        samples=samples,
        seed=seed,
        rows=rows,
        diagnostics=diag,
    )


def exhaustive_scan(
    p: int,
    h: int,
    *,
    threads: int = 1,
    summary_only: bool = False,
    diagnostics: bool = False,
    max_q: int | None = None,
) -> ScanReport:
    """Classify every pair (a, b) in GF(q^2)* x GF(q^2)*.

    Refuses to run when q exceeds the exhaustion budget (argument, else the
    TRINOMIAL_BUDGET_Q environment variable, else 31); use sampled_scan
    beyond that.  The budget and the thread count are checked before the
    field is built.
    """
    t0 = time.perf_counter()
    _check_threads(threads)
    budget = _effective_budget(max_q)
    if p**h > budget:
        raise BudgetExceededError(
            f"q = {p**h} exceeds the exhaustion budget {budget}; "
            "use sampled_scan (or raise the budget)"
        )
    tower = make_field(p, h)
    a, b = pair_grid(tower.fq2.order)
    return _sweep(tower, "exhaustive", a, b, t0, threads, summary_only, diagnostics)


def sampled_scan(
    p: int,
    h: int,
    samples: int,
    seed: int,
    *,
    threads: int = 1,
    summary_only: bool = False,
    diagnostics: bool = False,
) -> ScanReport:
    """Classify a seeded pseudo-random sample of pairs (with replacement).

    Rows are sorted by (a_idx, b_idx) regardless of draw order, so a fixed
    seed reproduces the report byte for byte.
    """
    t0 = time.perf_counter()
    if samples < 0:
        raise ValueError(f"sample count must be non-negative, got {samples}")
    _check_threads(threads)
    tower = make_field(p, h)
    a, b = sample_pairs(tower.fq2.order, samples, seed)
    return _sweep(tower, "sampled", a, b, t0, threads, summary_only, diagnostics, samples=samples, seed=seed)


def to_csv_text(report: ScanReport) -> str:
    """Full-row CSV (header only when the report carries no rows).

    Booleans are 0/1; conditions that do not apply to the characteristic
    are left empty.
    """
    lines = [",".join(CSV_COLUMNS)]
    if report.rows is not None:
        q = str(report.q)
        for row in report.rows.tolist():
            cells = [q]
            cells.extend("" if v == -1 else str(v) for v in row)
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def to_json_text(report: ScanReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ": "))


def emit_report(report: ScanReport, fmt: str, path) -> Path:
    """Serialise the report to `path` as csv or json."""
    if fmt == "csv":
        text = to_csv_text(report)
    elif fmt == "json":
        text = to_json_text(report)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path = Path(path)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path
