"""Exhaustive and sampled verification sweeps, reports, and persistence.

A sweep covers parameter pairs (a, b) of GF(q^2)* x GF(q^2)*, classifies
them (permutation verdict, closed-form conditions, GCD degree) through the
vectorised engine, and aggregates a ScanReport.  Any disagreement between
the verdict and the closed-form criterion is collected as an equivalence
violation, never silently dropped.

Every sweep runs one pipeline over slices: it takes a pair count and a
pair source pairs(lo, hi), which gives the pairs lo ... hi-1, cuts [0, count)
into consecutive slices of step = min(_SLICE_PAIRS, ceil(count / threads))
pairs (at least one), and maps one function over them; the engine slices
its grid kernels itself.  Of each slice the sweep keeps, in the CSV row
layout, the rows where is_pp, main, prima_bis or seconda_bis holds (_keep).
Every count of the report but pair_count (pp_count, attribution,
gcd_histogram, the equivalence violations, set_equalities and the
instances the diagnostics describe) is read off those kept rows after the
merge: off them, prima, seconda and both bis forms are 0.  A sampled sweep
slices the sorted pairs sample_pairs drew; a full-row one allocates its
(pairs, 10) int32 row matrix once and each slice writes its own range.

An exhaustive sweep classifies one pair per class of the group that
mu_(q+1) and the q-power map generate, the transversal of _transversal.
X -> cX takes f_(a,b) to c f_(a w^-1, b w^2) with w = c^(q-1) in mu_(q+1),
so the q+1 pairs of an orbit share every column but seconda_tris; and
f_(a^q,b^q)(X^q) = f_(a,b)(X)^q, so (a^q, b^q) permutes exactly when (a, b)
does, and shares the criteria and the gcd degree.  With N = q^2 - 1, w in
mu_(q+1) takes the conjugate of (g^k, g^(k+t)) to its twin
(g^k, g^(k+sigma_k(t))), sigma_k(t) = q t + 3(q-1)k mod N, an involution
fixing the q-1 values t = -3k mod (q+1).  Every exhaustive sweep counts
off its class rows: after the merge it copies each kept row whose t sigma_k
moves to its twin, and each row then to every pair of its orbit, in
(a_idx, b_idx) order, so the counts read off them are those of classifying
every pair; pair_count is (q^2-1)^2.  Nothing counted reads seconda_tris,
the one column that varies inside a class.

A full-row exhaustive sweep writes every row of the transversal, then fills
its (pairs, 10) int32 matrix, allocated once, one pair_grid window of
_SLICE_PAIRS pairs at a time.  Two invariants name a pair's class:
k = log a mod (q-1) and the lesser of s = log(a^2 b) and q s mod N.  For w
in mu_(q+1), (a w^-1)^2 b w^2 = a^2 b and log w is a multiple of q-1;
conjugation sends a^2 b to (a^2 b)^q and log a to q log a, which is log a
mod q-1.  Transversal pair k M + i has log(a^2 b) = R[i], so each pair
gathers the row at k M + pos_R[min(s, q s mod N)] (_class_positions) and
writes its own a_idx and b_idx; for p > 3 the engine computes each window's
seconda_tris, which varies inside orbits.  The matrix is output only; the
report's counts come off the class rows, as a summary's do.  The fill runs
in the calling thread: it is gathers and one cheap kernel, and in a pool it
raised peak RSS by the worker's arena.
The diagnostics describe every instance in one call of each engine kernel.

Parallelism contract: the slice is the only unit of work.  Where there
are at least `threads` pairs there are at least `threads` slices, and a cut
may fall inside an a-row.  With one worker (the least of threads, the
slice count and os.cpu_count()) the slices run in the calling thread;
otherwise ThreadPoolExecutor.map runs them and returns them in order.  One
concatenation merges their kept rows.  Each pair's row depends on that pair
alone, so output is byte-identical for any thread count.  Fewer than one
thread is a ValueError.

Serialisation contract: report_blocks is the one path from a report to
text.  It yields the CSV or JSON as consecutive ASCII byte blocks:
emit_report writes them to a binary file, the CLI writes them to stdout,
and to_csv_text and to_json_text are their joins.  The rows go through
_encode_rows, which formats blocks of _SLICE_PAIRS rows with array
operations and no Python loop per row, so a writer holds one block of
text at a time.  The bytes equal those of formatting each row with str():
CSV rows are `q,` and the cells joined by `,` with -1 as an empty cell;
JSON is exactly
json.dumps(report.to_json(), sort_keys=True, separators=(",", ": ")).
report_from_json reads the top-level rows with numpy and the rest with
json.loads, and keeps that reading only when report_blocks writes it back
as exactly the text (JSON whitespace around it aside); any other text is
read whole by json.loads.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
import warnings
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from random import Random

import numpy as np

from .bipoly import conic_witnesses, count_points_off_diag, build_curves, four_line_witness, gcd_degree
from .conds import ConditionReport, condition_report
from .engine import ScanEngine
from .ff import FieldCtx, capped_pow, make_field
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
    "report_blocks",
    "to_csv_text",
    "to_json_text",
    "report_from_json",
    "pair_grid",
    "sample_pairs",
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
_SLICE_PAIRS = 1 << 15  # pairs per sweep slice, rows per encoded block
_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # what json.loads skips around a value


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
        """The fields, verdict and conditions through their own to_json,
        without the diagnostics a record does not carry (None)."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        return {**out, "verdict": self.verdict.to_json(), "conditions": self.conditions.to_json()}


def classify_pair(params: TrinomialParams, diagnostics: bool = False) -> PairRecord:
    """One classification row; with diagnostics, permutation instances also
    get the curve point count (odd characteristic) and the
    factorisation-pattern witnesses, all through the per-pair bipoly path."""
    verdict = is_pp_mu(params)
    diag = {}
    if diagnostics and verdict.is_pp:
        if params.tower.p != 2:
            diag["points_off_diag"] = count_points_off_diag(build_curves(params))
        diag["four_line"] = four_line_witness(params).to_json()
        diag["conic"] = conic_witnesses(params).to_json()
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
        """The fields, with string histogram keys, violations as lists and
        the rows as nested lists."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "gcd_histogram": {str(k): v for k, v in self.gcd_histogram.items()},
            "equivalence_violations": [list(v) for v in self.equivalence_violations],
            "rows": None if self.rows is None else self.rows.tolist(),
        }


def report_from_json(text: str) -> ScanReport:
    """The report that to_json_text(report) wrote as `text`.

    One np.fromstring parses the top-level rows span and one json.loads the
    text around it.  That reading is kept only when report_blocks writes it
    back as exactly `text`, JSON whitespace around it aside: the writer's
    output is json.dumps(report.to_json()), so json.loads would read the
    same report.  Any other text is read whole by json.loads.
    """
    report = _numpy_reading(text)
    if report is not None and _writes(report, text):
        return report
    d = json.loads(text)
    return _report(d, d["rows"])


def _report(d: dict, rows) -> ScanReport:
    """The report of the JSON object `d`, with `rows` (nested lists or a
    flat int32 array of the cells) as its rows.  Every field is read as
    d[name], so a missing key raises KeyError; other keys are ignored."""
    return ScanReport(
        **{f.name: d[f.name] for f in fields(ScanReport)}
        | {
            "gcd_histogram": {int(k): v for k, v in d["gcd_histogram"].items()},
            "equivalence_violations": [tuple(v) for v in d["equivalence_violations"]],
            "rows": None if rows is None else np.asarray(rows, dtype=np.int32).reshape(-1, len(_ROW_FIELDS)),
        }
    )


def _numpy_reading(text: str) -> ScanReport | None:
    """`text` read as the writer lays out a full-row report, or None where
    that reading fails; report_from_json keeps it only if _writes holds."""
    try:
        key = '"rows": ['
        start = text.index(key)
        end = text.rindex('],"samples": ', start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy warns, not raises, where it stops early
            # as bytes: from the str span np.fromstring took 0.7 s longer at q = 43 (2-vCPU Xeon)
            span = text[start + len(key) : end].encode("ascii").translate(None, b"[]")
            cells = np.fromstring(span, dtype=np.int32, sep=",")
        return _report(json.loads(text[:start] + '"rows": null' + text[end + 1 :]), cells)
    except (ValueError, TypeError, KeyError, AttributeError, DeprecationWarning):
        return None  # text the writer did not lay out can fail at any step


def _writes(report: ScanReport, text: str) -> bool:
    """Whether report_blocks(report, "json") is exactly `text`, JSON
    whitespace around it aside, compared block by block."""
    pos = _JSON_SPACE.match(text).end()
    for block in report_blocks(report, "json"):
        block = block.decode("ascii")
        if not text.startswith(block, pos):
            return False
        pos += len(block)
    return _JSON_SPACE.fullmatch(text, pos) is not None


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


def pair_grid(n: int, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pairs lo ... hi-1 (hi: the last pair, if None) of GF(q^2)* x GF(q^2)*
    (n = q^2), in (a_idx, b_idx) order, as int32 index arrays.  Pair k is
    (k // (n-1) + 1, k % (n-1) + 1); k counts in int32 from the start of
    pair lo's a-row, and a window past the last pair raises IndexError."""
    a = np.arange(1, n, dtype=np.int32)
    first, start = divmod(lo, n - 1)
    stop = start + ((n - 1) ** 2 if hi is None else hi) - lo
    if stop > 1 << 31:
        raise ValueError(f"a pair_grid window of {stop - start} pairs overflows its int32 count")
    row, col = np.divmod(np.arange(start, stop, dtype=np.int32), n - 1)
    col += 1
    return a[first:][row], col


def _class_reps(q: int) -> np.ndarray:
    """R = {s in [0, N) : s <= q s mod N}, N = q^2 - 1, as int32: the lesser
    member of each class {s, sigma_0(s)}, M = (N + q - 1) / 2 of them."""
    s = np.arange(q * q - 1, dtype=np.int64)
    return s[s <= s * q % (q * q - 1)].astype(np.int32)


def _transversal(ctx: FieldCtx, lo: int, hi: int, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs lo ... hi-1 of one pair per class of mu_(q+1) and the q-power
    map, as int32 index arrays.  In the coset g^k mu_(q+1) of a the classes
    are the pairs {t, sigma_k(t)} (module docstring), and
    sigma_k(t) = sigma_0(t + 3k) - 3k, so R = _class_reps(q) serves every k:
    pair k M + i is (g^k, g^(k+t)), t = R[i] - 3k mod N, 0 <= k < q-1.  A
    sweep builds R once and passes it as `reps`.  As in pair_grid, positions
    count in int32 from pair lo's k-row, and a window past the last pair
    raises IndexError."""
    N, q, M = ctx.order - 1, math.isqrt(ctx.order), len(reps)
    if not 0 <= lo <= hi <= (q - 1) * M:
        raise IndexError(f"transversal window [{lo}, {hi}) outside its {(q - 1) * M} pairs")
    first, start = divmod(lo, M)
    if start + hi - lo > 1 << 31:
        raise ValueError(f"a transversal window of {hi - lo} pairs overflows its int32 count")
    k, i = np.divmod(np.arange(start, start + hi - lo, dtype=np.int32), M)
    k += first
    e = reps.take(i)  # k + t = R[i] - 2k mod N, and 2k < N: index R[i] - 2k + N of exp2
    e += N
    e -= k
    e -= k
    return ctx.np_exp2.take(k), ctx.np_exp2.take(e)


def _twins(engine: ScanEngine, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the transversal pairs (g^k, g^(k+t)) whose t
    sigma_k moves, and the b = g^(k+sigma_k(t)) of each one's twin:
    k + sigma_k(t) = q (k + t) + 2(q-1)k mod N."""
    ctx, q, N = engine.ctx, engine.q, engine.n - 1
    k, lb = ctx.np_log[a].astype(np.int64), ctx.np_log[b].astype(np.int64)
    twin = (q * lb + 2 * (q - 1) * k) % N
    moved = np.flatnonzero(twin != lb)
    return moved, ctx.np_exp2[twin[moved]]


def _orbit_members(engine: ScanEngine, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The q+1 members (a w^-1, b w^2), w in MU, of the orbit of each pair
    (a, b), in (a_idx, b_idx) order, and the position in (a, b) of the pair
    whose orbit each member is."""
    ctx, mu = engine.ctx, engine.MU
    ea = ctx.vmul(a[:, None], engine.INV[mu][None, :]).ravel()
    eb = ctx.vmul(b[:, None], ctx.vmul(mu, mu)[None, :]).ravel()
    order = np.argsort(ea.astype(np.int64) * engine.n + eb)  # the keys a n + b are distinct
    return ea[order], eb[order], order // len(mu)


def _word_batch(need: int, width: int) -> int:
    """Words to read for `need` draws below `width`: the expected number at
    the acceptance rate width / 2^k, plus at least four standard deviations
    and 32, so that sample_pairs rarely reads a second batch."""
    expected = need * (1 << width.bit_length()) // width
    return expected + 4 * math.isqrt(expected) + 32


def sample_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` seeded pairs of GF(q^2)* x GF(q^2)* (n = q^2), sorted by
    (a_idx, b_idx), as int32 index arrays.

    The pairs are the draws of Random(seed).randrange(1, n), a then b for
    each pair, read in bulk.  randrange(1, n) keeps the top
    k = (n-1).bit_length() bits of one 32-bit Mersenne Twister word and
    draws again while they are >= n-1, and getrandbits(32 m) is the next m
    words, least significant first.  So the draws are the words whose top
    k bits are below n-1, plus 1, in stream order.  count <= 0 gives no
    pairs; otherwise n must lie in [2, 2^31], where a draw is one word and
    an index fits int32."""
    if count <= 0:
        return np.empty(0, np.int32), np.empty(0, np.int32)
    if not 2 <= n <= 1 << 31:
        raise ValueError(f"sample_pairs needs 2 <= n <= 2^31, got n = {n}")
    width, k = n - 1, (n - 1).bit_length()
    rng, kept, need = Random(seed), [], 2 * count
    while need:
        words = _word_batch(need, width)
        top = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"), "<u4") >> (32 - k)
        kept.append(top[top < width][:need])
        need -= len(kept[-1])
    draws = np.concatenate(kept).astype(np.int64) + 1
    key = draws[0::2] * n + draws[1::2]  # < n^2 <= 2^62
    key.sort()
    a, b = np.divmod(key, n)
    return a.astype(np.int32), b.astype(np.int32)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def _instance_diagnostics(engine: ScanEngine, a: np.ndarray, b: np.ndarray) -> list[dict]:
    """Indices, point count (odd characteristic) and witnesses of each
    permutation instance (a, b).  The engine builds F, and G for odd p, once
    for all instances, counts points on G (slicing that grid kernel itself)
    and finds the witnesses from F."""
    F, G = engine.curve_coeffs(a, b)
    found = engine.witnesses(a, b, F)
    if G is not None:
        found = [{"points_off_diag": c, **w} for c, w in zip(engine.count_off_diag(G).tolist(), found)]
    return [{"a_idx": ai, "b_idx": bi, **w} for ai, bi, w in zip(a.tolist(), b.tolist(), found)]


def _keep(col) -> np.ndarray:
    """The positions of the rows a sweep keeps: where is_pp, main_predicate,
    prima_bis or seconda_bis holds in `col`, a mapping from those names to
    bool columns that may lack the bis forms."""
    bis = col.get("prima_bis", False) | col.get("seconda_bis", False)
    return np.flatnonzero(col["is_pp"] | col["main_predicate"] | bis)


def _class_positions(ctx: FieldCtx, reps: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The position k M + pos_R[min(s, q s mod N)] in the transversal of
    `reps` (R = _class_reps(q), M = len(R)) of the class of each pair
    (a, b): k = log a mod (q-1), s = log(a^2 b) mod N, and pos_R the inverse
    of R (module docstring).  It counts in int32: q s < q^3 < 2^31 up to
    q = 1290, past the memory of any full grid."""
    N, q, M = ctx.order - 1, math.isqrt(ctx.order), len(reps)
    pos_r = np.zeros(N, dtype=np.int32)
    pos_r[reps] = np.arange(M, dtype=np.int32)
    la = ctx.np_log.take(a)
    s = (2 * la + ctx.np_log.take(b)) % N
    return pos_r.take(np.minimum(s, q * s % N)) + la % (q - 1) * M


def _grid_rows(engine: ScanEngine, classes: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The (pairs, 10) int32 rows of the whole grid in (a_idx, b_idx) order.
    `classes` holds the rows of the transversal of `reps`.  One pair_grid
    window of _SLICE_PAIRS pairs at a time, each pair gathers its class's
    row and writes its own a_idx and b_idx; for p > 3 each window's
    seconda_tris, which is not mu_(q+1)-invariant, comes from the engine.
    No count is read off these rows (module docstring)."""
    n = engine.n
    total = (n - 1) ** 2
    rows = np.empty((total, len(_ROW_FIELDS)), dtype=np.int32)
    tris = _ROW_FIELDS.index("seconda_tris")
    for lo in range(0, total, _SLICE_PAIRS):
        a, b = pair_grid(n, lo, min(lo + _SLICE_PAIRS, total))
        out = rows[lo : lo + len(a)]
        # every position is in range; under mode="raise" take would buffer `out`
        classes.take(_class_positions(engine.ctx, reps, a, b), axis=0, out=out, mode="clip")
        out[:, 0], out[:, 1] = a, b
        if engine.p > 3:
            out[:, tris] = engine.seconda_tris(a, b)
    return rows


def _sweep(tower, count, pairs, t0, threads, summary_only, diagnostics, samples=None, seed=None, reps=None) -> ScanReport:
    """Classify the `count` pairs that pairs(lo, hi) gives, slice by slice,
    and aggregate them into a report.  A sampled sweep's come sorted; an
    exhaustive sweep's (given `reps`) are the transversal of `reps`, one
    pair per class of mu_(q+1) and the q-power map.  An exhaustive sweep,
    full-row or summary, copies its kept rows to their twins and then to
    every pair of their orbits and reads every count off those; a full-row
    one also gives every pair of the grid its class's row (_grid_rows)."""
    mode = "sampled" if reps is None else "exhaustive"
    engine = ScanEngine(tower)
    rows = None if summary_only else np.empty((count, len(_ROW_FIELDS)), dtype=np.int32)
    step = max(1, min(_SLICE_PAIRS, -(-count // threads)))

    def kept_rows(lo: int) -> np.ndarray:
        """The rows of the slice from pair lo that the keep mask selects; a
        full-row sweep writes every row of the slice into `rows` (an
        exhaustive one: the transversal's rows, which _grid_rows spreads)."""
        a, b = pairs(lo, min(lo + step, count))
        cols = engine.classify_bulk(a, b, summary=rows is None)
        named = {**cols, "a_idx": a, "b_idx": b, "main_predicate": cols["main"]}
        keep = _keep(named)
        if rows is None:  # a summary writes the kept rows only
            named = {f: v[keep] for f, v in named.items()}
            out = np.empty((len(keep), len(_ROW_FIELDS)), dtype=np.int32)
        else:
            out = rows[lo : lo + len(a)]
        for j, f in enumerate(_ROW_FIELDS):
            out[:, j] = named.get(f, -1)
        return out if rows is None else out[keep]

    starts = range(0, count, step)
    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers <= 1:  # inline: a worker thread would bring its own malloc arena
        parts = list(map(kept_rows, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(kept_rows, starts))
    if mode == "exhaustive" and rows is not None:  # `rows` holds the classes' rows
        rows = _grid_rows(engine, rows, reps)
    kept = np.concatenate([np.empty((0, len(_ROW_FIELDS)), np.int32), *parts])
    if mode == "exhaustive":  # each kept row stands for its class
        moved, twin_b = _twins(engine, kept[:, 0], kept[:, 1])
        twins = kept[moved]
        twins[:, 1] = twin_b
        kept = np.concatenate([kept, twins])
        a_idx, b_idx, src = _orbit_members(engine, kept[:, 0], kept[:, 1])
        kept = kept[src]
        kept[:, 0], kept[:, 1] = a_idx, b_idx
        count = (engine.n - 1) ** 2

    col = dict(zip(_ROW_FIELDS, kept.T))
    pp, main = col["is_pp"] == 1, col["main_predicate"] == 1
    inst = dict(zip(_ROW_FIELDS, kept[pp].T))
    if not count:  # no key before a pair is classified, a zero count after
        attribution = {}
    elif tower.p > 3:
        pr, se = inst["prima"] == 1, inst["seconda"] == 1
        attribution = {
            "prima_only": int((pr & ~se).sum()),
            "seconda_only": int((se & ~pr).sum()),
            "both": int((pr & se).sum()),
        }
    else:
        attribution = {f"char{tower.p}": int(pp.sum())}
    degrees, counts = np.unique(inst["gcd_deg"], return_counts=True)
    bad = pp != main
    violations = list(zip(col["a_idx"][bad].tolist(), col["b_idx"][bad].tolist(), pp[bad].tolist(), main[bad].tolist()))
    diag = _instance_diagnostics(engine, inst["a_idx"], inst["b_idx"]) if diagnostics else None
    set_eq = None
    if tower.p > 3:
        set_eq = {
            "prima_eq_prima_bis": bool((col["prima"] == col["prima_bis"]).all()),
            "seconda_eq_seconda_bis": bool((col["seconda"] == col["seconda_bis"]).all()),
        }
    return ScanReport(
        q=tower.q,
        p=tower.p,
        h=tower.h,
        mode=mode,
        pair_count=count,
        pp_count=int(pp.sum()),
        attribution=attribution,
        gcd_histogram=dict(zip(degrees.tolist(), counts.tolist())),
        equivalence_violations=violations,
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

    Both modes classify (q-1)^2 (q+2) / 2 pairs, one per class of
    mu_(q+1) and the q-power map, about half the (q-1)(q^2-1) mu_(q+1)
    orbits: the conjugate (a^q, b^q) permutes exactly when (a, b) does.
    Both copy each kept row to its twin and to their orbits, so the counts,
    violations and diagnostics cover every pair.  A full-row sweep also
    gives every pair its class's row, with its own indices and (p > 3) its
    own seconda_tris.

    Refuses to run when q exceeds the exhaustion budget (argument, else the
    TRINOMIAL_BUDGET_Q environment variable, else 31); use sampled_scan
    beyond that.  The budget and the thread count are checked before the
    field is built.
    """
    t0 = time.perf_counter()
    _check_threads(threads)
    budget = _effective_budget(max_q)
    if capped_pow(p, h, budget) > budget:
        raise BudgetExceededError(
            f"q = {p}^{h} exceeds the exhaustion budget {budget}; "
            "use sampled_scan (or raise the budget)"
        )
    tower = make_field(p, h)
    reps = _class_reps(tower.q)
    count, pairs = (tower.q - 1) * len(reps), partial(_transversal, tower.fq2, reps=reps)
    return _sweep(tower, count, pairs, t0, threads, summary_only, diagnostics, reps=reps)


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
    return _sweep(
        tower, len(a), lambda lo, hi: (a[lo:hi], b[lo:hi]),
        t0, threads, summary_only, diagnostics, samples, seed,
    )


def _cell_index(col: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values a table must cover, and each cell's table index.
    A range no longer than the column is indexed by offset; a sparse
    column (a sampled b_idx at large q) goes through np.unique instead."""
    lo, hi = int(col.min()), int(col.max())
    if hi - lo < len(col):
        return list(range(lo, hi + 1)), col - lo
    values, idx = np.unique(col, return_inverse=True)
    return values.tolist(), idx


def _encode_rows(rows: np.ndarray, lead: str, sep: str, end: str, cell) -> Iterator[bytes]:
    """ASCII bytes of an int32 row matrix, one block per _SLICE_PAIRS rows:
    per row `lead`, the cells `cell(v)` joined by `sep`, then `end`.

    Each column of a block gathers its cells (with the `sep` or `end` that
    follows them) from a small table of NUL-padded byte strings into one
    field of a fixed-width line record; one bytes.replace over the block's
    bytes then drops the padding.  No output text may contain a NUL.
    """
    tails = [sep] * (rows.shape[1] - 1) + [end]
    for lo in range(0, len(rows), _SLICE_PAIRS):
        block = rows[lo : lo + _SLICE_PAIRS]
        pieces = [np.bytes_(lead.encode())]
        for col, tail in zip(block.T, tails):
            values, idx = _cell_index(col)
            pieces.append(np.array([(cell(v) + tail).encode() for v in values]).take(idx))
        line = np.empty(len(block), [("", f.dtype) for f in pieces])
        for name, f in zip(line.dtype.names, pieces):
            line[name] = f
        yield line.tobytes().replace(b"\0", b"")


def _csv_blocks(report: ScanReport) -> Iterator[bytes]:
    yield (",".join(CSV_COLUMNS) + "\n").encode()
    if report.rows is not None:
        yield from _encode_rows(report.rows, f"{report.q},", ",", "\n", lambda v: "" if v == -1 else str(v))


def _json_blocks(report: ScanReport) -> Iterator[bytes]:
    payload = replace(report, rows=None).to_json()
    text = json.dumps(payload, sort_keys=True, separators=(",", ": "))
    if report.rows is None:
        yield text.encode()
        return
    # keys sort, so the top-level "rows": null is followed by exactly the
    # keys after "rows"; a nested "rows" in their values cannot move the cut
    after = json.dumps({k: v for k, v in payload.items() if k > "rows"}, sort_keys=True, separators=(",", ": "))
    cut = len(text) - len(after) - len("null")
    yield (text[:cut] + "[").encode()
    for i, block in enumerate(_encode_rows(report.rows, ",[", ",", "]", str)):
        yield block[1:] if i == 0 else block  # no comma before the first row
    yield ("]" + text[cut + len("null") :]).encode()


def report_blocks(report: ScanReport, fmt: str) -> Iterator[bytes]:
    """The report serialised as csv or json, in consecutive ASCII blocks.

    CSV is the header and one row per pair (header only when the report
    carries no rows): booleans are 0/1 and conditions that do not apply to
    the characteristic are empty.  JSON is exactly
    json.dumps(report.to_json(), sort_keys=True, separators=(",", ": ")),
    with the rows encoded by _encode_rows instead of through Python lists.
    """
    if fmt == "csv":
        return _csv_blocks(report)
    if fmt == "json":
        return _json_blocks(report)
    raise ValueError(f"unknown format {fmt!r}")


def to_csv_text(report: ScanReport) -> str:
    """The report's full-row CSV (see report_blocks)."""
    return b"".join(report_blocks(report, "csv")).decode("ascii")


def to_json_text(report: ScanReport) -> str:
    """The report's one-line JSON (see report_blocks)."""
    return b"".join(report_blocks(report, "json")).decode("ascii")


def emit_report(report: ScanReport, fmt: str, path) -> Path:
    """Serialise the report to `path` as csv or json, block by block."""
    blocks = report_blocks(report, fmt)  # an unknown fmt raises before the file is created
    path = Path(path)
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
    return path
