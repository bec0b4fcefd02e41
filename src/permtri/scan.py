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
mu_(q+1) and the Frobenius x -> x^p generate.  X -> cX takes f_(a,b) to
c f_(a w^-1, b w^2) with w = c^(q-1) in mu_(q+1), so the q+1 pairs of an
orbit share every column but seconda_tris; and f_(a^p,b^p)(X^p) =
f_(a,b)(X)^p, so (a^p, b^p) permutes exactly when (a, b) does, and shares
the criteria and the gcd degree.  With N = q^2 - 1, two numbers name a
pair's orbit: k = log a mod (q-1) and s = log(a^2 b) mod N, since
(a w^-1)^2 b w^2 = a^2 b and log w is a multiple of q-1.  The Frobenius
sends (k, s) to (p k mod (q-1), p s mod N), so the classes are the orbits of
<p>, of order 2h (q = p^h), on Z/(q-1) x Z/N, and the pair (g^k, g^(s-2k))
of least key k N + s stands for its class.  Its k is least in its
<p>-orbit on Z/(q-1), and its s is least in its orbit under k's stabiliser
<p^d> (d divides h, as p^h = q fixes every k).  So _classes builds one int32
list of representatives s per stabiliser, O(N) entries each, and
_transversal hands out windows of the pairs, k-row by k-row, from those
lists without listing them.  At h = 1, <p> = {1, q}: the classes are those
of mu_(q+1) and the q-power map, (q-1)^2 (q+2) / 2 pairs.  Past it the
sweep classifies about 1/h as many: 83 pairs at q = 8, 178 at 9, 509 at 16,
3 896 at 25 and 3 274 at 27.  Every exhaustive sweep counts off its class
rows: after the merge it copies each kept row to every pair of its class,
in (a_idx, b_idx) order (_class_members: the distinct images (p^j k, p^j s)
of its (k, s), each spread over its orbit), so the counts
read off them are those of classifying every pair; pair_count is
(q^2-1)^2.  Nothing counted reads seconda_tris, the one column that varies
inside a class.

A full-row exhaustive sweep writes every row of the transversal, then fills
its (pairs, 10) int32 matrix, allocated once, in log coordinates.  It builds
one table T of (q-1) 3N int32 class positions (_class_table; 0.9 MiB at
q = 43): T[k 3N + s] is the position of the class of the pairs with
log a = k mod (q-1) and log(a^2 b) = s mod N, and the pair (a, b) gathers
the row at T[(log a mod (q-1)) 3N + 2 log a + log b] (_class_positions).
The fill runs over windows of max(1, _SLICE_PAIRS // N) whole a-rows: each
cell is one add of its a-row's offset to the fixed row of log b and one
gather from T, and a_idx and b_idx are written by broadcasting.  For p > 3 the
class rows' seconda_tris, the one column that varies inside an orbit, is
set to 0 first; its equation 3b = 3a^q + 1 names one partner b for each a
(ScanEngine.seconda_tris_pairs), so at most N ones are scattered after the
windows.  The matrix is output only; the report's counts come off the class
rows, as a summary's do.  The fill runs in the calling thread: it is
gathers and a scatter, and in a pool it raised peak RSS by the worker's
arena.
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

from . import bipoly
from .bipoly import count_points_off_diag, gcd_degree
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
    factorisation-pattern witnesses, all through the per-pair bipoly path,
    from one collision quartic F."""
    verdict = is_pp_mu(params)
    diag = {}
    if diagnostics and verdict.is_pp:
        F = bipoly._collision_poly(params)
        if params.tower.p != 2:
            diag["points_off_diag"] = count_points_off_diag(bipoly._curves_of(params, F))
        diag["four_line"] = bipoly._four_line_of(params, F).to_json()
        diag["conic"] = bipoly._conic_of(params, F).to_json()
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


def pair_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of GF(q^2)* x GF(q^2)* (n = q^2), in (a_idx, b_idx) order,
    as int32 index arrays.  Pair k is (k // (n-1) + 1, k % (n-1) + 1), and k
    counts in int32: a grid of more than 2^31 pairs raises ValueError."""
    total = (n - 1) ** 2
    if total > 1 << 31:
        raise ValueError(f"a pair_grid of {total} pairs overflows its int32 count")
    a, b = np.divmod(np.arange(total, dtype=np.int32), n - 1)
    a += 1
    b += 1
    return a, b


@dataclass(frozen=True)
class _Classes:
    """One pair per class of the group that mu_(q+1) and x -> x^p generate
    (module docstring), laid out in k-rows without listing the pairs.
    k-row r holds the pairs start[r] ... start[r+1]-1: (g^k, g^(s - 2k)) with
    k = k[r] and s = reps[base[r] + i], the i-th entry of the list of its
    stabiliser.  `powers` are p^j mod N, 0 <= j < 2h."""

    q: int
    powers: np.ndarray  # int64
    k: np.ndarray  # int32, least in its <p>-orbit on Z/(q-1), ascending
    start: np.ndarray  # int64, len(k) + 1 entries, the last the pair count
    base: np.ndarray  # int64
    reps: np.ndarray  # int32, one list per stabiliser <p^d>, concatenated


def _classes(tower) -> _Classes:
    """The classes of the tower's GF(q^2)* x GF(q^2)*: the k-rows are the k
    least in their <p>-orbit on Z/(q-1), and the list of the stabiliser
    <p^d> of k holds each s in [0, N) least in its <p^d>-orbit on Z/N."""
    q, N = tower.q, tower.q * tower.q - 1
    powers = np.array([pow(tower.p, j, N) for j in range(2 * tower.h)], dtype=np.int64)
    k = np.arange(q - 1, dtype=np.int64)
    images = k[:, None] * powers % (q - 1)
    k = k[images.min(axis=1) == k]
    d = (images[k, 1:] == k[:, None]).argmax(axis=1) + 1  # p^h = q fixes every k
    s, lists = np.arange(N, dtype=np.int64), {}
    for stab in sorted(set(d.tolist())):
        least = np.ones(N, dtype=bool)
        for m in powers[stab::stab]:
            least &= s <= s * m % N
        lists[stab] = s[least].astype(np.int32)
    offsets = dict(zip(lists, np.cumsum([0] + [len(x) for x in lists.values()]).tolist()))
    return _Classes(
        q=q,
        powers=powers,
        k=k.astype(np.int32),
        start=np.cumsum([0] + [len(lists[x]) for x in d.tolist()], dtype=np.int64),
        base=np.array([offsets[x] for x in d.tolist()], dtype=np.int64),
        reps=np.concatenate(list(lists.values())),
    )


def _transversal(ctx: FieldCtx, lo: int, hi: int, classes: _Classes) -> tuple[np.ndarray, np.ndarray]:
    """Pairs lo ... hi-1 of `classes`, one pair per class of mu_(q+1) and
    x -> x^p, as int32 index arrays: (g^k, g^(s - 2k)) for each k-row and
    each s of its list.  A sweep builds `classes` once and hands it to every
    window.  Positions count in int32 from pair lo's k-row, and a window
    past the last pair raises IndexError."""
    N, start = ctx.order - 1, classes.start
    if not 0 <= lo <= hi <= start[-1]:
        raise IndexError(f"transversal window [{lo}, {hi}) outside its {start[-1]} pairs")
    first, last = np.searchsorted(start, lo, "right") - 1, np.searchsorted(start, hi)
    offset = int(start[first])
    if hi - offset > 1 << 31:
        raise ValueError(f"a transversal window of {hi - lo} pairs overflows its int32 count")
    lengths = np.diff(np.clip(start[first : last + 1], lo, hi))
    k = np.repeat(classes.k[first:last], lengths)
    i = np.arange(lo - offset, hi - offset, dtype=np.int32)
    i -= np.repeat((start[first:last] - offset - classes.base[first:last]).astype(np.int32), lengths)
    e = classes.reps.take(i)  # s - 2k mod N, and 2k < N: index s - 2k + N of exp2
    e += N
    e -= k
    e -= k
    return ctx.np_exp2.take(k), ctx.np_exp2.take(e)


def _class_members(ctx: FieldCtx, powers: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of the class of each pair (a, b), in (a_idx, b_idx) order,
    and the position in (a, b) of the pair whose class each one is.  In the
    coordinates (k, s) = (log a mod (q-1), log(a^2 b)) the images of a class
    are (m k mod (q-1), m s mod N), m in `powers`, and the orbit of an image
    is (g^(k + (q-1) i), g^(s - 2k - 2 (q-1) i)), 0 <= i <= q."""
    N = ctx.order - 1
    q, la = math.isqrt(ctx.order), ctx.np_log.take(a).astype(np.int64)
    k, s = la % (q - 1), (2 * la + ctx.np_log.take(b)) % N
    key, first = np.unique(k[:, None] * powers % (q - 1) * N + s[:, None] * powers % N, return_index=True)
    k, s = np.divmod(key, N)
    la = k[:, None] + (q - 1) * np.arange(q + 1)
    ea, eb = ctx.np_exp2.take(la).ravel(), ctx.np_exp2.take((s[:, None] - 2 * la) % N).ravel()
    order = np.argsort(ea.astype(np.int64) * ctx.order + eb)  # the keys a n + b are distinct
    return first[order // (q + 1)] // len(powers), ea[order], eb[order]


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


def _class_table(classes: _Classes) -> np.ndarray:
    """T[k 3N + s], 0 <= k < q-1 and 0 <= s < 3N, N = q^2 - 1, as int32:
    the position in `classes` of the class of the pairs with
    log a = k mod (q-1) and log(a^2 b) = s mod N, indexed by
    (log a mod (q-1)) 3N + 2 log a + log b without a reduction.  The powers
    p^j that take k to the least of its orbit take s to its k-row; the least
    of those images is the s that k-row lists."""
    q, powers = classes.q, classes.powers
    N = q * q - 1
    s = np.arange(N, dtype=np.int64)
    table, row_pos = np.empty((q - 1, N), dtype=np.int32), {}
    for k in range(q - 1):
        images = k * powers % (q - 1)
        r = np.searchsorted(classes.k, images.min())
        hit = tuple(np.flatnonzero(images == images.min()).tolist())  # it fixes the stabiliser, so the list
        if hit not in row_pos:
            listed = classes.reps[classes.base[r] : classes.base[r] + classes.start[r + 1] - classes.start[r]]
            row_pos[hit] = np.searchsorted(listed, (s * powers[list(hit), None] % N).min(axis=0))
        table[k] = row_pos[hit] + classes.start[r]
    return np.tile(table, 3).ravel()


def _class_positions(ctx: FieldCtx, table: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """[i, j]: the position T[(log a mod (q-1)) 3N + 2 log a + log b] in the
    transversal of the class of the pair (a, b) = (lo + i + 1, j + 1), for
    the a-rows lo ... hi-1 of the grid, with T = `table` (_class_table).  It
    counts in int32: indices stay below (q-1) 3N < 2^31 up to q = 894, past
    the memory of any full grid."""
    N, la = ctx.order - 1, ctx.np_log[lo + 1 : hi + 1]
    return table.take(ctx.np_log[None, 1:] + (la % (math.isqrt(ctx.order) - 1) * 3 * N + 2 * la)[:, None])


def _grid_rows(engine: ScanEngine, rows: np.ndarray, classes: _Classes) -> np.ndarray:
    """The (pairs, 10) int32 rows of the whole grid in (a_idx, b_idx) order,
    filled window by window of whole a-rows from `rows`, the rows of the
    pairs of `classes` (for p > 3 its seconda_tris column is set to 0), as
    the module docstring describes.  No count is read off these rows."""
    N = engine.n - 1
    grid_rows = np.empty((N * N, len(_ROW_FIELDS)), dtype=np.int32)
    grid = grid_rows.reshape(N, N, len(_ROW_FIELDS))
    table = _class_table(classes)
    tris = _ROW_FIELDS.index("seconda_tris")
    if engine.p > 3:  # the one column that varies inside a class
        rows[:, tris] = 0
    step = max(1, _SLICE_PAIRS // N)
    for lo in range(0, N, step):
        out = grid[lo : lo + step]
        # every position is in range; under mode="raise" take would buffer `out`
        rows.take(_class_positions(engine.ctx, table, lo, lo + len(out)), axis=0, out=out, mode="clip")
        out[:, :, 0] = np.arange(lo + 1, lo + len(out) + 1, dtype=np.int32)[:, None]
        out[:, :, 1] = np.arange(1, N + 1, dtype=np.int32)
    if engine.p > 3:
        a, b = engine.seconda_tris_pairs()
        grid_rows[(a - 1) * N + b - 1, tris] = 1
    return grid_rows


def _sweep(tower, count, pairs, t0, threads, summary_only, diagnostics, samples=None, seed=None, classes=None) -> ScanReport:
    """Classify the `count` pairs that pairs(lo, hi) gives, slice by slice,
    and aggregate them into a report.  A sampled sweep's come sorted; an
    exhaustive sweep's (given `classes`) are one pair per class of mu_(q+1)
    and x -> x^p.  An exhaustive sweep, full-row or summary, copies its kept
    rows to their distinct Frobenius images and then to every pair of their
    orbits and reads every count off those; a full-row one also gives every
    pair of the grid its class's row (_grid_rows)."""
    mode = "sampled" if classes is None else "exhaustive"
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
        rows = _grid_rows(engine, rows, classes)
    kept = np.concatenate([np.empty((0, len(_ROW_FIELDS)), np.int32), *parts])
    if mode == "exhaustive":  # each kept row stands for its class
        src, a_idx, b_idx = _class_members(engine.ctx, classes.powers, kept[:, 0], kept[:, 1])
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

    Both modes classify one pair per class of the group that mu_(q+1) and
    x -> x^p generate, since (a^p, b^p) permutes exactly when (a, b) does:
    about 1/(2h) of the (q-1)(q^2-1) mu_(q+1) orbits at q = p^h, and
    (q-1)^2 (q+2) / 2 pairs at h = 1 (3 896 at q = 25, where the q-power
    map alone leaves 7 776).  Both copy each kept row to its distinct
    Frobenius images and to their orbits, so the counts, violations and
    diagnostics cover every pair.  A full-row sweep also
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
    classes = _classes(tower)
    count, pairs = int(classes.start[-1]), partial(_transversal, tower.fq2, classes=classes)
    return _sweep(tower, count, pairs, t0, threads, summary_only, diagnostics, classes=classes)


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
