"""The acceptance gate: one test per criterion, each printing its verdict.

Criterion 7 is expected to fail and is marked as a strict xfail: the
unconditional seconda_tris -> seconda implication it demands is false
whenever -3 is a square in GF(q) (q = 1 mod 3; first counterexamples at
q = 7).  The criterion is still evaluated exactly as stated; the true,
conditional law is covered by tests/test_conds.py.  Everything else must
pass at the stated scopes with no tolerance.
"""

import numpy as np
import pytest

from permtri import acceptance
from permtri.acceptance import (
    CRITERIA,
    DEFAULT_MAX_Q,
    crit_curve_identities,
    crit_no_rational_points,
    crit_resultant_relation,
)
from permtri.engine import ScanEngine

KNOWN_FALSE = pytest.mark.xfail(
    strict=True,
    reason=(
        "known false claim, kept red on purpose: the unconditional "
        "seconda_tris -> seconda implication fails for q = 1 mod 3 "
        "(-3 a square); see README and tests/test_conds.py for the "
        "verified conditional law"
    ),
)


@pytest.mark.parametrize(
    "num, label, fn",
    [
        pytest.param(
            num,
            label,
            fn,
            id=f"{num:02d}-{fn.__name__.removeprefix('crit_')}",
            marks=KNOWN_FALSE if num == 7 else (),
        )
        for num, label, fn in CRITERIA
    ],
)
def test_criterion(num, label, fn):
    passed, detail = fn(DEFAULT_MAX_Q)
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {label} [{detail}]")
    assert passed


def test_criterion_8_fails_on_a_perturbed_curve(monkeypatch):
    """G + 1 is still a GF(q) curve but adds (X-1)^2 (Y-1)^2 to the left
    side of the transform identity, so a coefficient differs and every pair
    must fail."""
    real = ScanEngine.curve_coeffs

    def perturbed(self, a, b):
        F, G = real(self, a, b)
        G = G.copy()
        G[0, 0] = self.ctx.vadd(G[0, 0], 1)
        return F, G

    monkeypatch.setattr(ScanEngine, "curve_coeffs", perturbed)
    assert crit_curve_identities(5) == (False, "q=5: 576 pairs, 576 failures")


def test_criterion_8_raises_on_a_division_remainder(monkeypatch):
    real = ScanEngine._div_x_minus_y

    def leftover(self, grid):
        grid = grid.copy()
        grid[0, 0] = self.ctx.vadd(grid[0, 0], 1)
        return real(self, grid)

    monkeypatch.setattr(ScanEngine, "_div_x_minus_y", leftover)
    with pytest.raises(ArithmeticError, match="remainder"):
        crit_curve_identities(5)


def test_criterion_9_reports_points(monkeypatch):
    monkeypatch.setattr(ScanEngine, "count_off_diag", lambda self, G: np.ones(G.shape[-1], dtype=np.int64))
    assert crit_no_rational_points(5) == (False, "q=5: 18 instances, max off-diagonal points 1")


@pytest.mark.parametrize("kernels, failures", [(("resultant",), 1000), (("resultant", "resultant_inner"), 25)])
def test_criterion_10_fails_on_a_perturbed_resultant(monkeypatch, kernels, failures):
    """Res + 1 breaks the relation on every sampled pair and the vanishing
    no longer tracks the GCD degree.  Shifting the inner factor with it keeps
    the engine's relation, so only the 25 reference pairs per job fail."""
    for name in kernels:
        real = getattr(ScanEngine, name)
        monkeypatch.setattr(ScanEngine, name, lambda self, a, b, real=real: self.ctx.vadd(real(self, a, b), 1))
    assert crit_resultant_relation(7) == (
        False,
        f"q=5 vanishing<->gcd exceptions: 264; q=5: {failures}/1000 relation failures; "
        f"q=7: {failures}/1000 relation failures",
    )


def test_criterion_10_ties_in_bipoly_on_25_pairs_per_job(monkeypatch):
    calls = []
    real = acceptance.resultant_vs_closed_form

    def counted(prm):
        calls.append(prm)
        return real(prm)

    monkeypatch.setattr(acceptance, "resultant_vs_closed_form", counted)
    assert crit_resultant_relation(7)[0]
    assert len(calls) == 75


def test_memo_names_the_benchmark_clears():
    # perfbench's selftest_q7 clears both memos by these names before each
    # run, outside the try that counts a failed op: without either name
    # every verify run stops
    for memo in (acceptance._tower, acceptance._engine):
        memo(5, 1)
        assert memo.cache_info().currsize > 0
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
