"""Acceptance suite: the verification targets the library must reproduce.

Each criterion is a callable returning (passed, detail); run_all prints one
PASS/FAIL line per criterion.  The same functions back `permtri selftest`
and tests/test_acceptance.py.  Criteria are exact: no tolerances anywhere,
every comparison is field arithmetic or integer arithmetic.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .bipoly import (
    build_curves,
    count_points_off_diag,
    gcd_degree,
    hasse_weil_ok,
    resultant_vs_closed_form,
    verify_iso_identity,
)
from .conds import check_char2, check_char3, check_prima_bis
from .engine import ScanEngine
from .ff import frobenius, is_prime_power, lift, make_field
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


# --------------------------------------------------------------- criteria


def crit_closed_form_core(max_q: int):
    """Exhaustive verdict-vs-criterion agreement at q in {5, 7, 11, 13}."""
    details = []
    ok = True
    for p, h in ((5, 1), (7, 1), (11, 1), (13, 1)):
        if p**h > max_q:
            continue
        rep = exhaustive_scan(p, h, summary_only=True, max_q=max_q)
        ok &= not rep.equivalence_violations
        details.append(f"q={rep.q}: {len(rep.equivalence_violations)} violations, {rep.pp_count} instances")
    return ok, "; ".join(details) or "skipped (bound)"


def crit_closed_form_extended(max_q: int):
    """Same at q in {17, 19, 23, 25}, plus 29..43 when the bound allows."""
    details = []
    ok = True
    pairs = [(17, 1), (19, 1), (23, 1), (5, 2), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1)]
    for p, h in pairs:
        if p**h > max_q or p**h < 17:
            continue
        rep = exhaustive_scan(p, h, summary_only=True, max_q=max_q)
        ok &= not rep.equivalence_violations
        details.append(f"q={rep.q}: {len(rep.equivalence_violations)} violations")
    return ok, "; ".join(details) or "skipped (bound)"


def _criterion_grid_equality(kernel_name: str, towers, max_q: int, spot_check):
    details = []
    ok = True
    for p, h in towers:
        if p**h > max_q:
            continue
        eng = _engine(p, h)
        tower = eng.tower
        mismatches = 0
        for a, b in pair_chunks(*pair_grid(eng.n), eng.n):
            direct = eng.pp_direct(a, b)
            cond = getattr(eng, kernel_name)(a, b)
            mismatches += int((direct != cond).sum())
        ok &= mismatches == 0
        # tie the grids to the per-pair module path on a seeded sample
        for a_idx, b_idx in zip(*sample_pairs(eng.n, 25, seed=p * 1000 + h)):
            prm = _params(tower, a_idx, b_idx)
            if spot_check(prm) != is_pp_direct(prm).is_pp:
                ok = False
                mismatches += 1
        details.append(f"q={tower.q}: {mismatches} mismatches")
    return ok, "; ".join(details) or "skipped (bound)"


def crit_char2(max_q: int):
    """check_char2 matches the direct verdict exhaustively at q in {4, 8, 16}."""
    return _criterion_grid_equality("char2", ((2, 2), (2, 3), (2, 4)), max_q, check_char2)


def crit_char3(max_q: int):
    """check_char3 matches the direct verdict exhaustively at q in {3, 9, 27}."""
    return _criterion_grid_equality("char3", ((3, 1), (3, 2), (3, 3)), max_q, check_char3)


def crit_agw_equivalence(max_q: int):
    """Direct and root-of-unity verdicts agree: exhaustively at q in {5, 7},
    on 10^4 seeded pairs at q in {9, 11, 13, 25}."""
    details = []
    ok = True
    for p, h in ((5, 1), (7, 1)):
        if p**h > max_q:
            continue
        eng = _engine(p, h)
        mism = 0
        for a, b in pair_chunks(*pair_grid(eng.n), eng.n):
            mism += int((eng.pp_direct(a, b) != eng.pp_mu(a, b)).sum())
        ok &= mism == 0
        details.append(f"q={eng.q} exhaustive: {mism} mismatches")
    for p, h in ((3, 2), (11, 1), (13, 1), (5, 2)):
        if p**h > max_q:
            continue
        eng = _engine(p, h)
        mism = sum(
            int((eng.pp_direct(a, b) != eng.pp_mu(a, b)).sum())
            for a, b in pair_chunks(*sample_pairs(eng.n, 10_000, seed=eng.q), eng.n)
        )
        for a_idx, b_idx in zip(*sample_pairs(eng.n, 50, seed=eng.q + 1)):
            prm = _params(eng.tower, a_idx, b_idx)
            mism += is_pp_direct(prm).is_pp != is_pp_mu(prm).is_pp
        ok &= mism == 0
        details.append(f"q={eng.q} sampled: {mism} mismatches")
    return ok, "; ".join(details) or "skipped (bound)"


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
    details = []
    ok = True
    for p, h in ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)):
        if p**h > max_q:
            continue
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
        ok &= gcd_vals <= {0, 2} and bad_bis == 0 and not any(bad_impl.values())
        impl_txt = ", ".join(f"{k}: {v}" for k, v in bad_impl.items() if v)
        details.append(
            f"q={eng.q}: gcd degrees {sorted(gcd_vals)}, deg-2 without prima_bis {bad_bis}"
            + (f", implication failures ({impl_txt})" if impl_txt else "")
        )
    if not ok:
        details.append(
            "seconda_tris -> seconda is a documented false claim at q = 1 mod 3; see README"
        )
    return ok, "; ".join(details) or "skipped (bound)"


def crit_curve_identities(max_q: int):
    """Curve construction invariants: exact division, GF(q) coefficients,
    the closed-form corner coefficient, and the transform identity at 50
    random points; every pair at q=5, 1000 seeded pairs per larger odd q."""
    details = []
    ok = True
    jobs = [(5, 1, None)] + [
        (p, h, 1000) for p, h in ((7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1), (5, 2))
    ]
    for p, h, count in jobs:
        if p**h > max_q:
            continue
        tower = _tower(p, h)
        n = tower.fq2.order
        a_arr, b_arr = pair_grid(n) if count is None else sample_pairs(n, count, seed=tower.q * 3)
        pairs = list(zip(a_arr.tolist(), b_arr.tolist()))
        bad = 0
        for a_idx, b_idx in pairs:
            prm = _params(tower, a_idx, b_idx)
            cp = build_curves(prm)  # raises on inexact division / escape
            a, b = prm.a, prm.b
            aq, bq = frobenius(a), frobenius(b)
            closed = 3 * a * aq + 2 * a + 2 * aq - 3 * b * bq - b - bq + 1
            if lift(cp.G.coeff(2, 2), tower.fq2) != closed:
                bad += 1
            elif not verify_iso_identity(cp, trials=50, seed=a_idx * n + b_idx):
                bad += 1
        ok &= bad == 0
        details.append(f"q={tower.q}: {len(pairs)} pairs, {bad} failures")
    return ok, "; ".join(details) or "skipped (bound)"


def crit_no_rational_points(max_q: int):
    """Every permutation instance yields a curve without off-diagonal
    GF(q)-rational points, q in {5, 7, 9, 11, 13}."""
    details = []
    ok = True
    for p, h in ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        if p**h > max_q:
            continue
        eng = _engine(p, h)
        worst = 0
        checked = 0
        for a, b in pair_chunks(*pair_grid(eng.n), eng.q + 1):
            pp = eng.pp_mu(a, b)
            for ai, bi in zip(a[pp].tolist(), b[pp].tolist()):
                cp = build_curves(_params(eng.tower, ai, bi))
                worst = max(worst, count_points_off_diag(cp))
                checked += 1
        ok &= worst == 0
        details.append(f"q={eng.q}: {checked} instances, max off-diagonal points {worst}")
    return ok, "; ".join(details) or "skipped (bound)"


def crit_resultant_relation(max_q: int):
    """Res(N, D) vanishes exactly with a positive GCD degree (exhaustive at
    q=5), and on seeded samples at q in {5, 7, 11} the resultant equals the
    inner factor of the closed form, whose square times b^(2q+10) is the
    closed form."""
    details = []
    ok = True
    if 5 <= max_q:
        tower = _tower(5, 1)
        bad = sum(
            (resultant_vs_closed_form(_params(tower, a, b)).lhs.i == 0)
            != (gcd_degree(_params(tower, a, b)) > 0)
            for a, b in zip(*pair_grid(tower.fq2.order))
        )
        ok &= bad == 0
        details.append(f"q=5 vanishing<->gcd exceptions: {bad}")
    for p, h in ((5, 1), (7, 1), (11, 1)):
        if p**h > max_q:
            continue
        tower = _tower(p, h)
        n = tower.fq2.order
        a_arr, b_arr = sample_pairs(n, 1000, seed=tower.q * 7)
        bad = 0
        for ai, bi in zip(a_arr.tolist(), b_arr.tolist()):
            cmp = resultant_vs_closed_form(_params(tower, ai, bi))
            if not (cmp.lhs_equals_inner and cmp.rhs_is_prefactor_times_lhs_squared):
                bad += 1
        ok &= bad == 0
        details.append(f"q={tower.q}: {bad}/1000 relation failures")
    return ok, "; ".join(details) or "skipped (bound)"


def crit_scan_determinism(max_q: int):
    """Thread count never changes scan bytes: 1, 2, 8 threads at q=7."""
    if 7 > max_q:
        return True, "skipped (bound)"
    texts = [to_csv_text(exhaustive_scan(7, 1, threads=t)) for t in (1, 2, 8)]
    same = texts[0] == texts[1] == texts[2]
    return same, f"CSV bytes identical across 1/2/8 threads: {same}"


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


def run_all(max_q: int = DEFAULT_MAX_Q, echo=print) -> bool:
    """Run every criterion; one line each; True iff all passed."""
    all_ok = True
    for num, label, fn in CRITERIA:
        t0 = time.perf_counter()
        passed, detail = fn(max_q)
        all_ok &= passed
        status = "PASS" if passed else "FAIL"
        echo(f"criterion {num:2d}: {status} - {label} [{detail}] ({time.perf_counter() - t0:.1f}s)")
    return all_ok
