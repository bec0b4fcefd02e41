"""Proven symmetries of the family, used as oracles for both paths.

Substituting X -> cX gives f_{a,b}(cX) = c f_{a',b'}(X) with
(a', b') = (a w^-1, b w^2) and w = c^(q-1), which ranges over mu_{q+1};
raising both coefficients to the p-th power conjugates f by the Frobenius.
Neither map changes whether f permutes, the GCD degree of the two cubics or
the closed-form criterion, so every verdict and condition column must be
constant on the orbits of both.  seconda_tris is the exception under the
mu_{q+1} action: it is a sharper variant, not a criterion, and flips inside
orbits at q = 5, 7, 13 and 25; it is asserted under the Frobenius only.
The checks rely on neither implementation being right.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permtri import TrinomialParams, condition_report, gcd_degree, is_pp_direct, is_pp_mu
from permtri.acceptance import _engine, _tower
from permtri.scan import pair_grid

FIELDS = ((2, 2), (3, 1), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (5, 2))
CONDITIONS = ("prima", "seconda", "prima_bis", "seconda_bis", "seconda_tris", "char2", "char3", "main")
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def pairs(draw):
    """(p, h, a_idx, b_idx) with a, b nonzero in GF(q^2)."""
    p, h = draw(st.sampled_from(FIELDS))
    n = _tower(p, h).fq2.order
    return p, h, draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))


def _assert_constant(cols: dict, skip=()):
    for name, col in cols.items():
        if name not in skip:
            assert (col == col[0]).all(), name


@SETTINGS
@given(pairs())
def test_engine_columns_constant_on_mu_orbit(case):
    p, h, a, b = case
    eng = _engine(p, h)
    ctx, w = eng.ctx, eng.MU
    a_img, b_img = ctx.vmul(a, eng.INV[w]), ctx.vmul(b, ctx.vmul(w, w))
    cols = eng.classify_bulk(a_img, b_img)
    _assert_constant({**cols, "pp_direct": eng.pp_direct(a_img, b_img)}, skip=("seconda_tris",))


@SETTINGS
@given(pairs())
def test_engine_columns_constant_on_frobenius_orbit(case):
    p, h, a, b = case
    eng = _engine(p, h)
    powers = [p**k for k in range(2 * h)]
    a_img = np.array([eng.ctx.pow_i(a, k) for k in powers])
    b_img = np.array([eng.ctx.pow_i(b, k) for k in powers])
    _assert_constant({**eng.classify_bulk(a_img, b_img), "pp_direct": eng.pp_direct(a_img, b_img)})


def _per_pair(prm: TrinomialParams) -> dict:
    rep = condition_report(prm)
    return {
        "is_pp_mu": is_pp_mu(prm).is_pp,
        "is_pp_direct": is_pp_direct(prm).is_pp,
        "gcd_degree": gcd_degree(prm),
        **{name: getattr(rep, name) for name in CONDITIONS},
    }


@SETTINGS
@given(pairs(), st.integers(min_value=0), st.booleans())
def test_per_pair_path_invariant(case, w_pick, frobenius):
    p, h, a, b = case
    t = _tower(p, h)
    ctx = t.fq2
    prm = TrinomialParams.from_indices(t, a, b)
    if frobenius:
        img = TrinomialParams.from_indices(t, ctx.pow_i(a, p), ctx.pow_i(b, p))
    else:
        w = ctx.elem(ctx.mu_indices[w_pick % len(ctx.mu_indices)])
        img = TrinomialParams.from_indices(t, (prm.a / w).i, (prm.b * w * w).i)
    before, after = _per_pair(prm), _per_pair(img)
    if not frobenius:
        del before["seconda_tris"], after["seconda_tris"]
    assert before == after


@pytest.mark.parametrize(
    "p,h",
    [(2, 3), (3, 2), (2, 4), (5, 2), (3, 3)] + [pytest.param(p, h, marks=pytest.mark.slow) for p, h in ((2, 5), (7, 2))],
)
def test_grid_columns_constant_on_each_class(p, h):
    """Every classify_bulk column but seconda_tris is constant on each class
    of the group that mu_(q+1) and x -> x^p generate, over the whole
    pair_grid at q = 8, 9, 16, 25 and 27, and at 32 and 49 under the slow
    marker, classified 2^18 pairs at a time.  Each column must be invariant
    under the two maps that generate the group: (a, b) -> (a w^-1, b w^2)
    for the generator w = g^(q-1) of mu_(q+1), and (a, b) -> (a^p, b^p),
    both tabulated by scalar arithmetic."""
    eng = _engine(p, h)
    ctx, q, N = eng.ctx, eng.q, eng.n - 1
    w = ctx.pow_i(ctx.generator_idx, q - 1)
    assert sorted(ctx.pow_i(w, j) for j in range(q + 1)) == list(ctx.mu_indices)
    x = range(eng.n)
    maps = {
        "mu": ([ctx.mul_i(v, ctx.inv_i(w)) for v in x], [ctx.mul_i(v, ctx.mul_i(w, w)) for v in x]),
        "frobenius": ([ctx.pow_i(v, p) for v in x], [ctx.pow_i(v, p) for v in x]),
    }
    a, b = pair_grid(eng.n)
    step = 1 << 18
    parts = [eng.classify_bulk(a[lo : lo + step], b[lo : lo + step]) for lo in range(0, len(a), step)]
    cols = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    cols.pop("seconda_tris", None)  # p > 3 only
    for name, (ma, mb) in maps.items():
        image = (np.array(ma, dtype=np.int64)[a] - 1) * N + np.array(mb, dtype=np.int64)[b] - 1
        assert not (image == np.arange(N * N)).all(), name
        for col, values in cols.items():
            assert np.array_equal(values[image], values), (name, col)
