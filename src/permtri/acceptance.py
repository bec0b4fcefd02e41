"""Acceptance suite: the verification targets the library must reproduce.

Each criterion is a callable returning (passed, detail); run_all prints one
PASS/FAIL line per criterion.  The same functions back `permtri selftest`
and tests/test_acceptance.py.  Criteria are exact: no tolerances anywhere,
every comparison is field arithmetic or integer arithmetic.

Runner contract: every field-bounded criterion lists its jobs (p, h, ...)
and hands them to _per_field with a check(*job) -> (passed, detail).  Jobs
with p**h above max_q are skipped; the rest all run (a failure does not
stop later fields), the criterion passes iff every job passed, and the
details are joined with "; ", or read "skipped (bound)" when no job ran.
"""

from __future__ import annotations

import functools
import time
from random import Random

import numpy as np

from .bipoly import build_curves, gcd_degree, hasse_weil_ok, resultant_vs_closed_form
from .conds import check_char2, check_char3, check_prima_bis
from .engine import ScanEngine
from .ff import is_prime_power, make_field
from .perm import TrinomialParams, is_pp_direct, is_pp_mu
from .scan import exhaustive_scan, pair_chunks, pair_grid, sample_pairs, to_csv_text

__all__ = ["run_all", "CRITERIA", "DEFAULT_MAX_Q"]

# Covers every mandated q (the characteristic-3 exhaustive check reaches 27);
# raising it to 43 extends the closed-form reproduction to the full range.
DEFAULT_MAX_Q = 27


@functools.lru_cache(maxsize=None)
def _tower(p: int, h: int):
    return make_field(p, h)


@functools.lru_cache(maxsize=None)
def _engine(p: int, h: int) -> ScanEngine:
    return ScanEngine(_tower(p, h))


def _params(tower, a_idx: int, b_idx: int) -> TrinomialParams:
    return TrinomialParams.from_indices(tower, int(a_idx), int(b_idx))


def _per_field(max_q: int, jobs, check):
    """Run check(*job) -> (ok, detail) on every job (p, h, ...) with
    p**h <= max_q; pass iff every job passes, details joined in job order."""
    results = [check(*job) for job in jobs if job[0] ** job[1] <= max_q]
    return all(ok for ok, _ in results), "; ".join(d for _, d in results) or "skipped (bound)"


def _pairs(n: int, count: int | None, seed: int):
    """Every pair when count is None, else `count` seeded pairs."""
    return pair_grid(n) if count is None else sample_pairs(n, count, seed)


def _mismatches(eng: ScanEngine, kernel, a, b, spot: int, seed: int, reference) -> int:
    """Pairs of (a, b) where kernel disagrees with eng.pp_direct, plus `spot`
    seeded pairs where reference(params) disagrees with is_pp_direct."""
    bad = sum(int((eng.pp_direct(ca, cb) != kernel(ca, cb)).sum()) for ca, cb in pair_chunks(a, b, eng.n))
    for a_idx, b_idx in zip(*sample_pairs(eng.n, spot, seed)):
        prm = _params(eng.tower, a_idx, b_idx)
        bad += reference(prm) != is_pp_direct(prm).is_pp
    return bad


# --------------------------------------------------------------- criteria


def crit_closed_form_core(max_q: int):
    """Exhaustive verdict-vs-criterion agreement at q in {5, 7, 11, 13}."""

    def check(p, h):
        rep = exhaustive_scan(p, h, summary_only=True, max_q=max_q)
        bad = len(rep.equivalence_violations)
        return bad == 0, f"q={rep.q}: {bad} violations, {rep.pp_count} instances"

    return _per_field(max_q, ((5, 1), (7, 1), (11, 1), (13, 1)), check)


def crit_closed_form_extended(max_q: int):
    """Same at q in {17, 19, 23, 25}, plus 29..43 when the bound allows."""

    def check(p, h):
        rep = exhaustive_scan(p, h, summary_only=True, max_q=max_q)
        bad = len(rep.equivalence_violations)
        return bad == 0, f"q={rep.q}: {bad} violations"

    jobs = ((17, 1), (19, 1), (23, 1), (5, 2), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1))
    return _per_field(max_q, jobs, check)


def _criterion_grid_equality(kernel_name: str, towers, max_q: int, spot_check):
    def check(p, h):
        eng = _engine(p, h)
        # the per-pair module path is tied in on 25 seeded pairs
        bad = _mismatches(eng, getattr(eng, kernel_name), *pair_grid(eng.n), 25, p * 1000 + h, spot_check)
        return bad == 0, f"q={eng.q}: {bad} mismatches"

    return _per_field(max_q, towers, check)


def crit_char2(max_q: int):
    """check_char2 matches the direct verdict exhaustively at q in {4, 8, 16}."""
    return _criterion_grid_equality("char2", ((2, 2), (2, 3), (2, 4)), max_q, check_char2)


def crit_char3(max_q: int):
    """check_char3 matches the direct verdict exhaustively at q in {3, 9, 27}."""
    return _criterion_grid_equality("char3", ((3, 1), (3, 2), (3, 3)), max_q, check_char3)


def crit_agw_equivalence(max_q: int):
    """Direct and root-of-unity verdicts agree: exhaustively at q in {5, 7},
    on 10^4 seeded pairs at q in {9, 11, 13, 25}."""

    def check(p, h, count):
        eng = _engine(p, h)
        spot = 0 if count is None else 50
        a, b = _pairs(eng.n, count, seed=eng.q)
        bad = _mismatches(eng, eng.pp_mu, a, b, spot, eng.q + 1, lambda prm: is_pp_mu(prm).is_pp)
        return bad == 0, f"q={eng.q} {'exhaustive' if count is None else 'sampled'}: {bad} mismatches"

    jobs = [(5, 1, None), (7, 1, None)] + [(p, h, 10_000) for p, h in ((3, 2), (11, 1), (13, 1), (5, 2))]
    return _per_field(max_q, jobs, check)


def crit_hasse_weil_threshold(max_q: int):
    """(q-5)^2 > 36q exactly separates q <= 43 from q >= 47 on prime powers."""
    bad = [
        q
        for q in range(2, 1001)
        if is_prime_power(q) and hasse_weil_ok(q) != (q >= 47)
    ]
    return not bad, f"prime powers up to 1000 checked, exceptions: {bad}"


def crit_gcd_structure(max_q: int):
    """On permutation instances the cubics' GCD degree is 0 or 2 (never 1);
    degree-2 instances satisfy the v-parametrised condition; the bis/tris
    variants imply their base conditions on every pair.

    KNOWN DEFECT (documented, kept red on purpose): the unconditional
    seconda_tris -> seconda implication is false whenever -3 is a square in
    GF(q) (q = 1 mod 3, e.g. q in {7, 13}); it holds exactly when -3 is a
    nonsquare, and on every permutation instance regardless.  The criterion
    is evaluated as stated and therefore fails at those q.
    """

    def check(p, h):
        eng = _engine(p, h)
        gcd_vals = set()
        bad_bis = 0
        bad_impl = {"prima_bis": 0, "seconda_bis": 0, "seconda_tris": 0}
        for a, b in pair_chunks(*pair_grid(eng.n), eng.q + 1):
            cols = eng.classify_bulk(a, b)
            pp = cols["is_pp"]
            gcd_vals.update(np.unique(cols["gcd_deg"][pp]).tolist())
            if eng.p > 3:
                pr, se = cols["prima"], cols["seconda"]
                bad_impl["prima_bis"] += int((cols["prima_bis"] & ~pr).sum())
                bad_impl["seconda_bis"] += int((cols["seconda_bis"] & ~se).sum())
                bad_impl["seconda_tris"] += int((cols["seconda_tris"] & ~se).sum())
                deg2 = pp & (cols["gcd_deg"] == 2)
                bad_bis += int((deg2 & ~cols["prima_bis"]).sum())
                for ai, bi in zip(a[deg2].tolist(), b[deg2].tolist()):
                    holds, _v = check_prima_bis(_params(eng.tower, ai, bi))
                    bad_bis += not holds
        ok = gcd_vals <= {0, 2} and bad_bis == 0 and not any(bad_impl.values())
        impl_txt = ", ".join(f"{k}: {v}" for k, v in bad_impl.items() if v)
        return ok, (
            f"q={eng.q}: gcd degrees {sorted(gcd_vals)}, deg-2 without prima_bis {bad_bis}"
            + (f", implication failures ({impl_txt})" if impl_txt else "")
        )

    ok, detail = _per_field(max_q, ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)), check)
    if not ok:
        detail += "; seconda_tris -> seconda is a documented false claim at q = 1 mod 3; see README"
    return ok, detail


def crit_curve_identities(max_q: int):
    """Curve construction invariants: exact division, GF(q) coefficients,
    the closed-form corner coefficient, and the transform identity, exactly;
    every pair at q=5, 1000 seeded pairs per larger odd q.
    The engine builds the curves of all pairs at once; on 25 seeded pairs
    per field they must equal bipoly.build_curves."""

    def check(p, h, count):
        eng = _engine(p, h)
        ctx, k = eng.ctx, eng.ctx.scalar_idx
        a, b = _pairs(eng.n, count, seed=eng.q * 3)
        F, G = eng.curve_coeffs(a, b)  # raises on inexact division / escape
        # corner G[2, 2] = 3 a a^q + 2a + 2a^q - 3 b b^q - b - b^q + 1
        plus = ctx.vadd(ctx.vmul(k(3), eng.NORM[a]), ctx.vmul(k(2), ctx.vadd(a, eng.FROB[a])))
        minus = ctx.vadd(ctx.vmul(k(3), eng.NORM[b]), ctx.vadd(b, eng.FROB[b]))
        bad = G[2, 2] != ctx.vadd(ctx.vsub(plus, minus), k(1))
        bad |= ~eng.iso_identity(F, G)
        for i in Random(eng.q).sample(range(len(a)), 25):  # the reference path
            cp = build_curves(_params(eng.tower, a[i], b[i]))
            bad[i] |= cp.F.coeff_grid(3) != F[:, :, i].tolist() or cp.G.coeff_grid(3) != G[:, :, i].tolist()
        return not bad.any(), f"q={eng.q}: {len(a)} pairs, {int(bad.sum())} failures"

    jobs = [(5, 1, None)] + [
        (p, h, 1000) for p, h in ((7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2))
    ]
    return _per_field(max_q, jobs, check)


def crit_no_rational_points(max_q: int):
    """Every permutation instance yields a curve without off-diagonal
    GF(q)-rational points, q in {5, 7, 9, 11, 13}."""

    def check(p, h):
        eng = _engine(p, h)
        a, b = pair_grid(eng.n)
        pp = eng.pp_mu(a, b)
        counts = eng.count_off_diag(eng.curve_coeffs(a[pp], b[pp])[1])
        worst = int(counts.max(initial=0))
        return worst == 0, f"q={eng.q}: {len(counts)} instances, max off-diagonal points {worst}"

    return _per_field(max_q, ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)), check)


def crit_resultant_relation(max_q: int):
    """Res(N, D) vanishes exactly with a positive GCD degree (exhaustive at
    q=5), and on seeded samples at q in {5, 7, 11} the resultant equals the
    inner factor of the closed form, whose square times b^(2q+10) is the
    closed form.  The engine computes the resultant, the inner factor and the
    GCD degree of all pairs of a job at once; on 25 seeded pairs per job they
    must equal bipoly.resultant_vs_closed_form (and gcd_degree)."""

    def check(p, h, count):
        eng = _engine(p, h)
        ctx = eng.ctx
        a, b = _pairs(eng.n, count, seed=eng.q * 7)
        res, inner = eng.resultant(a, b), eng.resultant_inner(a, b)
        if count is None:
            gcd = eng.gcd_deg(a, b)
            bad = (res == 0) != (gcd > 0)
        else:
            prefactor = ctx.vpow(b, 2 * eng.q + 10)
            closed_form = ctx.vmul(prefactor, ctx.vmul(inner, inner))
            bad = (res != inner) | (closed_form != ctx.vmul(prefactor, ctx.vmul(res, res)))
        for i in Random(eng.q * 7).sample(range(len(a)), 25):  # the reference path
            prm = _params(eng.tower, a[i], b[i])
            cmp = resultant_vs_closed_form(prm)
            bad[i] |= cmp.lhs.i != res[i] or cmp.inner.i != inner[i]
            if count is None:
                bad[i] |= gcd_degree(prm) != gcd[i]
        if count is None:
            return not bad.any(), f"q={eng.q} vanishing<->gcd exceptions: {int(bad.sum())}"
        return not bad.any(), f"q={eng.q}: {int(bad.sum())}/{count} relation failures"

    return _per_field(max_q, ((5, 1, None), (5, 1, 1000), (7, 1, 1000), (11, 1, 1000)), check)


def crit_scan_determinism(max_q: int):
    """Thread count never changes scan bytes: 1, 2, 8 threads at q=7."""

    def check(p, h):
        texts = [to_csv_text(exhaustive_scan(p, h, threads=t)) for t in (1, 2, 8)]
        same = texts[0] == texts[1] == texts[2]
        return same, f"CSV bytes identical across 1/2/8 threads: {same}"

    return _per_field(max_q, ((7, 1),), check)


CRITERIA = (
    (1, "closed-form criterion is exact at q in {5,7,11,13}", crit_closed_form_core),
    (2, "closed-form criterion is exact at q in {17..25} (+29..43 when allowed)", crit_closed_form_extended),
    (3, "characteristic-2 criterion matches the direct test at q in {4,8,16}", crit_char2),
    (4, "characteristic-3 criterion matches the direct test at q in {3,9,27}", crit_char3),
    (5, "direct and root-of-unity verdicts agree", crit_agw_equivalence),
    (6, "point-count threshold (q-5)^2 > 36q splits exactly at 47", crit_hasse_weil_threshold),
    (7, "GCD degree structure and bis/tris implications", crit_gcd_structure),
    (8, "curve construction identities hold", crit_curve_identities),
    (9, "permutation instances give pointless curves off the diagonal", crit_no_rational_points),
    (10, "resultant/closed-form reconciliation", crit_resultant_relation),
    (11, "scan output is thread-count invariant", crit_scan_determinism),
)


def run_all(max_q: int = DEFAULT_MAX_Q) -> bool:
    """Run every criterion; one line each; True iff all passed."""
    if max_q < 3:  # below every field a criterion uses: nothing would be checked
        raise ValueError(f"max_q {max_q} is below 3, the smallest field any criterion uses")
    all_ok = True
    for num, label, fn in CRITERIA:
        t0 = time.perf_counter()
        passed, detail = fn(max_q)
        all_ok &= passed
        status = "PASS" if passed else "FAIL"
        print(f"criterion {num:2d}: {status} - {label} [{detail}] ({time.perf_counter() - t0:.1f}s)")
    return all_ok
