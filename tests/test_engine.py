"""The vectorised kernels must agree with the per-pair module path."""

import json
import math
import random

import numpy as np
import pytest

from permtri import (
    BivarPoly,
    Poly,
    TrinomialParams,
    bipoly,
    build_curves,
    build_numden,
    condition_report,
    conic_witnesses,
    count_points_off_diag,
    four_line_witness,
    frobenius,
    g_eval,
    gcd_degree,
    is_pp_direct,
    is_pp_mu,
    resultant,
    resultant_vs_closed_form,
    roots,
    upoly,
    verify_iso_identity,
)
from permtri import engine
from permtri.engine import ScanEngine, _det
from permtri.scan import pair_grid, sample_pairs, sampled_scan


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 2), (3, 1)])
def test_exhaustive_agreement(tower, p, h):
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order)
    cols = eng.classify_bulk(a, b)
    direct = eng.pp_direct(a, b)
    conditions = [name for name in cols if name not in ("is_pp", "gcd_deg")]
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert bool(direct[i]) == is_pp_direct(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)
        for name in conditions:
            assert bool(cols[name][i]) == getattr(rep, name), name


@pytest.mark.parametrize("p,h,count", [(2, 4, 150), (5, 2, 200), (3, 3, 150), (7, 2, 30)])
def test_sampled_agreement_larger_fields(tower, p, h, count):
    """Seeded pairs, and 40 seeded permutation pairs (the first ones of a
    larger seeded sample, picked by pp_mu, not by the condition kernels;
    main holds exactly on them): every column against the per-pair path, at
    q = 16, 25, 27 and 49."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = sample_pairs(t.fq2.order, count, seed=t.q)
    wa, wb = sample_pairs(t.fq2.order, 100_000, seed=t.q + 1)
    hit = np.flatnonzero(eng.pp_mu(wa, wb))[:40]
    assert len(hit) == 40
    a, b = np.concatenate([a, wa[hit]]), np.concatenate([b, wb[hit]])
    cols = eng.classify_bulk(a, b)
    conditions = [name for name in cols if name not in ("is_pp", "gcd_deg", "main")]
    direct = eng.pp_direct(a, b)
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert bool(direct[i]) == is_pp_direct(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)
        for name in conditions + ["main"]:
            assert bool(cols[name][i]) == getattr(rep, name), name


# Past q = 27 pp_direct runs on the rows a = g^0, g^1, g^2 only, every b
_A_ROW_FIELDS = [(7, 2), (59, 1), (2, 6), (3, 4)]


@pytest.mark.parametrize(
    "p,h",
    [(5, 1), (7, 1), (2, 3), (3, 2)]
    + [pytest.param(p, h, marks=pytest.mark.slow) for p, h in [(2, 4), (5, 2), (3, 3), *_A_ROW_FIELDS]],
)
def test_direct_and_mu_grids_agree(tower, p, h):
    """pp_mu (the power form on the roots of unity) against pp_direct (f on
    all of GF(q^2)) on the whole pair_grid up to q = 27, and at q = 49, 59,
    64 and 81 on every pair with a in {g^0, g^1, g^2}.  Some pair must
    permute, or the grid checks no acceptance.  Each kernel is handed the
    whole grid and slices it itself."""
    eng = ScanEngine(tower(p, h))
    if (p, h) in _A_ROW_FIELDS:
        a, b = np.repeat(eng.ctx.np_exp2[:3], eng.n - 1), np.tile(np.arange(1, eng.n, dtype=np.int32), 3)
    else:
        a, b = pair_grid(eng.n)
    pp = eng.pp_mu(a, b)
    assert (eng.pp_direct(a, b) == pp).all()
    assert pp.any()


def test_broadcasting_shapes(tower):
    eng = ScanEngine(tower(5, 1))
    a = np.array([2, 2, 3], dtype=np.int64)
    b = np.array([3, 4, 3], dtype=np.int64)
    out = eng.classify_bulk(a, b)
    assert out["is_pp"].shape == (3,)
    assert out["gcd_deg"].dtype == np.uint8


# The screened verdicts pp_mu/pp_direct against their full tests _pp_mu/_pp_direct,
# with the column width and the screen's prefix K = floor(2.5 sqrt(q)) or floor(4.7 q)
_KERNELS = {
    "mu": (lambda q: q + 1, lambda q: int(2.5 * math.sqrt(q))),
    "direct": (lambda q: q * q, lambda q: int(4.7 * q)),
}
_SCREEN_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def _assert_screen_exact(eng, kernel, a, b):
    """The screened verdict on all of (a, b) in one call against the full
    test, which the engine does not slice, on 1000 pairs at a time."""
    full = getattr(eng, "_pp_" + kernel)
    want = np.concatenate([full(a[lo : lo + 1000], b[lo : lo + 1000]) for lo in range(0, len(a), 1000)])
    assert np.array_equal(getattr(eng, "pp_" + kernel)(a, b), want)


_SCREEN_CASES = [(k, p, h) for k in _KERNELS for p, h in _SCREEN_FIELDS] + [("mu", 11, 1), ("mu", 5, 2)]


@pytest.mark.parametrize("kernel,p,h", _SCREEN_CASES)
def test_screened_verdicts_equal_the_full_test(tower, kernel, p, h):
    eng = ScanEngine(tower(p, h))
    _assert_screen_exact(eng, kernel, *pair_grid(eng.n))


@pytest.mark.parametrize("p,h", [(5, 2), (3, 3)])
def test_screened_pp_direct_exact_on_samples(tower, p, h):
    """The full grids at q = 25 and 27 take 10-15 s, so the suite samples them;
    criterion 4 checks the screened pp_direct on every pair at q = 27 against
    the char-3 criterion."""
    eng = ScanEngine(tower(p, h))
    _assert_screen_exact(eng, "direct", *sample_pairs(eng.n, 20_000, seed=eng.q))


@pytest.mark.parametrize("kernel", ["mu", "direct"])
@pytest.mark.parametrize("p,h", _SCREEN_FIELDS)
def test_full_test_sees_only_the_screen_survivors(tower, monkeypatch, kernel, p, h):
    """Per slice of the pairs, in order, the full test runs once on the
    prefix of K columns, then once more, on all columns, on exactly the
    pairs the prefix left, if any; where K + 2 >= the width (q <= 8 for mu,
    q <= 5 for direct) it runs once per slice on every pair.  At q = 16 the
    grid is cut into 2 (mu) and 16 (direct) slices."""
    eng = ScanEngine(tower(p, h))
    width, k = (rule(eng.q) for rule in _KERNELS[kernel])
    full, calls = getattr(eng, "_pp_" + kernel), []

    def record(a, b, cols=slice(None)):
        calls.append((a, b, cols))
        return full(a, b, cols)

    monkeypatch.setattr(eng, "_pp_" + kernel, record)
    a, b = pair_grid(eng.n)
    verdict = getattr(eng, "pp_" + kernel)(a, b)
    screen = k + 2 < width
    slices, live = [], []
    while calls:
        a0, b0, cols = calls.pop(0)
        assert cols == (slice(k) if screen else slice(None))
        slices.append((a0, b0))
        if screen:
            live.append(full(a0, b0, slice(k)))
            if live[-1].any():
                a1, b1, rest = calls.pop(0)
                assert rest == slice(None) and (a1 == a0[live[-1]]).all() and (b1 == b0[live[-1]]).all()
    assert len(slices) == {(2, 4, "mu"): 2, (2, 4, "direct"): 16}.get((p, h, kernel), 1)
    assert np.array_equal(np.concatenate([s[0] for s in slices]), a)
    assert np.array_equal(np.concatenate([s[1] for s in slices]), b)
    if screen:
        live = np.concatenate(live)
        assert not (verdict & ~live).any() and live.sum() < len(a)  # every permutation passes a prefix that rejects


def test_sliced_cuts_the_last_axis_to_the_cell_budget(monkeypatch):
    """7 pairs along the last axis, at 3 cells a pair under a budget of 10:
    slices of 3 pairs and a last slice of one; at 11 cells a pair, past the
    budget, one pair a slice.  The results join in pair order."""
    monkeypatch.setattr(engine, "_GRID_CELLS", 10)
    seen = []

    def kernel(x, y):
        seen.append(y.tolist())
        return x.sum(axis=0) * 10 + y

    x, y = np.arange(14).reshape(2, 7), np.arange(7)
    assert np.array_equal(engine._sliced(kernel, 3, x, y), x.sum(axis=0) * 10 + y)
    assert seen == [[0, 1, 2], [3, 4, 5], [6]]
    seen.clear()
    assert np.array_equal(engine._sliced(kernel, 11, x, y), x.sum(axis=0) * 10 + y)
    assert seen == [[v] for v in range(7)]


@pytest.mark.parametrize("cells", [3, 200])
@pytest.mark.parametrize("p,h", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_grid_kernels_equal_their_unsliced_results(tower, monkeypatch, p, h, cells):
    """With the cell budget cut to 3 cells (one pair a slice, so slices end
    inside a-rows and the last holds one pair) or 200 (a few pairs a
    slice), the grid kernels and classify_bulk give what they give on one
    slice, on every pair."""
    eng = ScanEngine(tower(p, h))
    a, b = pair_grid(eng.n)
    G = eng.curve_coeffs(a, b)[1]
    want = (eng.pp_mu(a, b), eng.pp_direct(a, b), eng.classify_bulk(a, b))
    want_points = None if G is None else eng.count_off_diag(G)
    monkeypatch.setattr(engine, "_GRID_CELLS", cells)
    eng = ScanEngine(tower(p, h))
    assert np.array_equal(eng.pp_mu(a, b), want[0])
    assert np.array_equal(eng.pp_direct(a, b), want[1])
    got = eng.classify_bulk(a, b)
    assert got.keys() == want[2].keys() and all(np.array_equal(got[k], v) for k, v in want[2].items())
    if G is not None:
        seen, evaluate = [], engine._eval_curve  # (pairs, points) of each slice

        def spy(ctx, C, x, y):
            seen.append((C.shape[-1], len(x)))
            return evaluate(ctx, C, x, y)

        monkeypatch.setattr(engine, "_eval_curve", spy)
        assert np.array_equal(eng.count_off_diag(G), want_points)
        assert len(seen) > 1 and sum(k for k, _ in seen) == G.shape[-1]
        assert all(k == 1 or k * width <= cells for k, width in seen)


@pytest.mark.parametrize(
    "p,h,count", [(2, 3, None), (3, 2, None), (5, 1, None), (7, 1, None), (13, 1, None), (5, 2, 20_000)]
)
def test_summary_mode_runs_only_what_the_tally_reads(tower, monkeypatch, p, h, count):
    """classify_bulk(summary=True): gcd_deg runs once, on exactly the is_pp
    pairs, and the column holds 255 elsewhere; seconda_tris never runs; the
    seconda equation is evaluated once, and seconda and seconda_bis each
    receive it whole; prima_bis' quadratic sees exactly the pairs whose
    v = b a^2 lies in GF(q)*.  Every other column equals the full mode's."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(eng.n) if count is None else sample_pairs(eng.n, count, seed=eng.q)
    full = eng.classify_bulk(a, b)
    calls = {name: [] for name in ("gcd_deg", "_seconda_eq", "seconda", "seconda_bis", "_prima_bis_eq")}

    def recorder(name):
        original = getattr(eng, name)

        def record(*args):
            calls[name].append([x.copy() for x in args])
            return original(*args)

        return record

    def never(a, b):
        raise AssertionError("seconda_tris ran in summary mode")

    for name in calls:
        monkeypatch.setattr(eng, name, recorder(name))
    monkeypatch.setattr(eng, "seconda_tris", never)
    cols = eng.classify_bulk(a, b, summary=True)

    pp = full["is_pp"]
    [(ga, gb)] = calls["gcd_deg"]
    assert (ga == a[pp]).all() and (gb == b[pp]).all() and 0 < pp.sum() < len(a)
    assert (cols["gcd_deg"][pp] == full["gcd_deg"][pp]).all() and (cols["gcd_deg"][~pp] == 255).all()
    assert "seconda_tris" not in cols and set(cols) == set(full) - {"seconda_tris"}
    for name in set(cols) - {"gcd_deg"}:
        assert (cols[name] == full[name]).all(), name
    if p <= 3:
        assert all(not calls[name] for name in calls if name != "gcd_deg")
        return

    [eq_args] = calls["_seconda_eq"]
    assert (eq_args[0] == a).all() and (eq_args[1] == b).all()
    eq = ScanEngine._seconda_eq(eng, a, b)
    for name in ("seconda", "seconda_bis"):
        [(_a, _b, got)] = calls[name]
        assert (got == eq).all(), name
    assert (eq & ~full["seconda"]).any()  # seconda overwrites its mask: an alias would reach seconda_bis changed

    in_fq = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        prm = TrinomialParams.from_indices(t, ai, bi)
        v = prm.b * prm.a * prm.a
        if v.i != 0 and frobenius(v) == v:
            in_fq.append(v.i)
    [(v, _na)] = calls["_prima_bis_eq"]
    assert v.tolist() == in_fq and 0 < len(in_fq) < len(a) // eng.q

@pytest.mark.parametrize(
    "p,h,count",
    [
        (2, 2, None), (5, 1, None), (7, 1, None), (2, 3, None), (3, 2, None),
        (5, 2, 300), (59, 1, 200), (2, 6, 300), (3, 4, 300),
    ],
)
def test_root_images_are_g_eval(tower, p, h, count):
    """zeta^(image exponent) equals perm.g_eval at every root of unity, and
    the sentinel q+1 stands exactly where g_eval has a pole: on every pair
    at q in {4, 5, 7, 8, 9}, on seeded pairs at q = 25 and, past the dense
    tables, at q = 59, 64 and 81."""
    t = tower(p, h)
    eng, ctx = ScanEngine(t), t.fq2
    a, b = pair_grid(eng.n) if count is None else sample_pairs(eng.n, count, seed=eng.q)
    zeta = ctx.pow_i(ctx.generator_idx, eng.q - 1)
    powers = [ctx.pow_i(zeta, k) for k in range(eng.q + 1)] + [None]  # the sentinel q+1 marks a pole
    img = eng._images(a, b)
    assert img.shape == (len(a), eng.q + 1) and img.dtype == np.int32
    roots = [ctx.elem(x) for x in eng.MU.tolist()]
    poles = 0
    for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
        prm = TrinomialParams.from_indices(t, ai, bi)
        want = [g_eval(prm, x) for x in roots]
        assert [powers[k] for k in img[i].tolist()] == [None if w is None else w.i for w in want]
        poles += want.count(None)
    assert poles > 0
    assert (ctx.np_mul is None) == (eng.q >= 59)


@pytest.mark.parametrize("p,h", [(5, 1), (2, 3), (59, 1)])
def test_pp_mu_rejects_indices_outside_its_domain(tower, p, h):
    """pp_mu takes nonzero indices of GF(q^2): -1 and q^2 are out of range
    (np.take would wrap -1 silently), and 0 has no log."""
    eng = ScanEngine(tower(p, h))
    good = np.array([1, 2, eng.n - 1])
    eng.pp_mu(good, good)
    for bad, error in ((-1, IndexError), (eng.n, IndexError), (0, ValueError)):
        x = good.copy()
        x[1] = bad
        for a, b in ((x, good), (good, x)):
            with pytest.raises(error):
                eng.pp_mu(a, b)


# The square-class step of each condition kernel as the per-pair path states
# it: the pair's equation, and the GF(q) operand of its square test.
def _equation_and_operand(name, prm):
    a, b, one = prm.a, prm.b, prm.a.ctx.one
    aq, na, nb = frobenius(a), a * frobenius(a), b * frobenius(b)
    if name == "prima":
        return aq * frobenius(b) == a * (nb - na), one - 4 * nb * na.inv()
    if name == "seconda":
        return aq + 3 * a * b == 0, -3 * (one - 4 * nb * na.inv())
    if name == "seconda_bis":
        return aq + 3 * a * b == 0, 3 * na * (4 - 9 * na)
    v = b * a * a  # prima_bis
    return v != 0 and frobenius(v) == v and v * v - na * v - na**3 == 0, -3 * na * na - 4 * v


@pytest.mark.parametrize("name", ["prima", "seconda", "prima_bis", "seconda_bis"])
@pytest.mark.parametrize("p,h,count", [(5, 1, None), (7, 1, None), (13, 1, None), (5, 2, 20_000)])
def test_square_test_sees_only_the_pairs_whose_equation_holds(tower, monkeypatch, name, p, h, count):
    """Each condition kernel evaluates its equation on every pair and calls
    _sq_ok once, on the operands of exactly the pairs where it holds, in
    pair order."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(eng.n) if count is None else sample_pairs(eng.n, count, seed=eng.q)
    sq_ok, calls = eng._sq_ok, []

    def record(val):
        calls.append(val.tolist())
        return sq_ok(val)

    monkeypatch.setattr(eng, "_sq_ok", record)
    got = getattr(eng, name)(a, b)
    want = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        eq, val = _equation_and_operand(name, TrinomialParams.from_indices(t, ai, bi))
        if eq:
            want.append(val.i)
    assert calls == [want] and 0 < len(want) < len(a)
    assert got.sum() <= len(want)


@pytest.mark.parametrize("p,h,count", [(5, 1, None), (7, 1, 200), (3, 2, 200), (11, 1, 200), (13, 1, 200), (5, 2, 200)])
def test_curve_kernels_match_bipoly(tower, p, h, count):
    """F, G and the off-diagonal point count of every pair at q = 5 and of
    seeded pairs elsewhere equal build_curves / count_points_off_diag."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order) if count is None else sample_pairs(t.fq2.order, count, seed=t.q)
    F, G = eng.curve_coeffs(a, b)
    points = eng.count_off_diag(G)
    assert points.any()  # nonzero counts are compared too, not only zeros
    for i in range(len(a)):
        cp = build_curves(TrinomialParams.from_indices(t, int(a[i]), int(b[i])))
        assert cp.F.coeff_grid(3) == F[:, :, i].tolist()
        assert cp.G.coeff_grid(3) == G[:, :, i].tolist()
        assert count_points_off_diag(cp) == points[i]


def test_curve_kernels_build_F_at_char2(tower):
    """F equals bipoly's collision quartic on every pair at q = 2 and 4;
    there is no G (no e with e^q = -e)."""
    for h in (1, 2):
        t = tower(2, h)
        a, b = pair_grid(t.fq2.order)
        F, G = ScanEngine(t).curve_coeffs(a, b)
        assert G is None
        for i, (ai, bi) in enumerate(zip(a.tolist(), b.tolist())):
            assert bipoly._collision_poly(TrinomialParams.from_indices(t, ai, bi)).coeff_grid(3) == F[:, :, i].tolist()


def test_curve_constants_built_on_first_use(tower):
    eng = ScanEngine(tower(7, 1))
    lazy = ("_psi_basis", "_off_diag_points", "_root_tables")
    assert not any(name in vars(eng) for name in lazy)
    a, b = np.array([1]), np.array([2])
    F, G = eng.curve_coeffs(a, b)
    eng.count_off_diag(G)
    eng.witnesses(a, b, F)
    assert all(name in vars(eng) for name in lazy)


@pytest.mark.parametrize("p,h,count", [(5, 1, None), (7, 1, 200), (3, 2, 200), (5, 2, 200), (59, 1, 200)])
def test_iso_identity_matches_symbolic_reference(tower, p, h, count):
    """iso_identity equals verify_iso_identity on every pair at
    q = 5 and on seeded pairs at q = 7, 9, 25 and, past the dense tables, 59."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order) if count is None else sample_pairs(t.fq2.order, count, seed=t.q)
    pairs = zip(a.tolist(), b.tolist())
    want = [verify_iso_identity(build_curves(TrinomialParams.from_indices(t, ai, bi))) for ai, bi in pairs]
    assert eng.iso_identity(*eng.curve_coeffs(a, b)).tolist() == want
    assert (t.fq2.np_mul is None) == (p == 59)


@pytest.mark.parametrize("p", [5, 7])
def test_iso_identity_is_exact(tower, p):
    """Adding 1 to any one of the nine coefficients of G, or of F, breaks
    the identity on every pair."""
    eng = ScanEngine(tower(p, 1))
    F, G = eng.curve_coeffs(*pair_grid(eng.n))
    assert eng.iso_identity(F, G).all()
    for i in range(3):
        for j in range(3):
            for side in (0, 1):
                curves = [F, G]
                curves[side] = curves[side].copy()
                curves[side][i, j] = eng.ctx.vadd(curves[side][i, j], 1)
                assert not eng.iso_identity(*curves).any(), (i, j, side)


@pytest.mark.parametrize(
    "p,h,count", [(3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None), (5, 2, 200), (59, 1, 200)]
)
def test_resultant_kernels_match_bipoly(tower, p, h, count):
    """resultant equals upoly.resultant of the two cubics and resultant_inner
    the closed form's inner factor: on every pair at q in {3, 4, 5, 7}, the
    pairs with a shared factor (no pivot left) included, and on seeded
    pairs at q = 25 and, past the dense tables, q = 59."""
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order) if count is None else sample_pairs(t.fq2.order, count, seed=t.q)
    want_res, want_inner = [], []
    for ai, bi in zip(a.tolist(), b.tolist()):
        prm = TrinomialParams.from_indices(t, ai, bi)
        want_res.append(resultant(*build_numden(prm)).i)
        want_inner.append(resultant_vs_closed_form(prm).inner.i)
    assert eng.resultant(a, b).tolist() == want_res
    assert eng.resultant_inner(a, b).tolist() == want_inner
    assert 0 in want_res
    assert (t.fq2.np_mul is None) == (p == 59)


def test_det_matches_upoly_det(tower):
    """Seeded 6 x 6 matrices over GF(49): dense ones, singular ones (a
    repeated row, a zero column) and sparse ones, where zeros on and below
    the diagonal make the elimination swap rows."""
    ctx = tower(7, 1).fq2
    rng = np.random.default_rng(49)
    M = rng.integers(0, ctx.order, (6, 6, 300))
    M[5, :, :50] = M[2, :, :50]
    M[:, 3, 50:100] = 0
    M[:, :, 100:] *= rng.random((6, 6, 200)) < 0.4
    want = [
        upoly._det(ctx, [[ctx.elem(x) for x in row] for row in M[:, :, k].tolist()]).i for k in range(M.shape[2])
    ]
    got = _det(ctx, M)
    assert got.tolist() == want
    assert (got[:100] == 0).all() and (got[100:] == 0).any() and (got[100:] != 0).any()
    assert ((M[0, 0, 100:] == 0) & (got[100:] != 0)).any()  # a swap before a nonzero determinant


def _quad_roots_ref(ctx, c0, c1, c2):
    """upoly.roots of c2 T^2 + c1 T + c0 as indices: (lo, hi) or None."""
    rts = roots(Poly(ctx, [ctx.elem(c0), ctx.elem(c1), ctx.elem(c2)]))
    return (rts[0].i, rts[1].i) if rts else None


@pytest.mark.parametrize(
    "p,h,count", [(2, 1, None), (2, 2, None), (3, 1, None), (5, 1, None), (2, 4, 300), (13, 1, 300)]
)
def test_quad_roots_match_upoly_roots(tower, p, h, count):
    """Every monic quadratic over GF(4), GF(16), GF(9) and GF(25), seeded
    ones (monic or not) over GF(256) and GF(169): same roots, ascending, a
    double root twice."""
    t = tower(p, h)
    eng, ctx, n = ScanEngine(t), t.fq2, t.fq2.order
    if count is None:
        c0, c1 = np.divmod(np.arange(n * n), n)
        c2 = np.ones(n * n, dtype=np.int64)
    else:
        c0, c1, c2 = np.random.default_rng(p).integers(0, n, (3, count))
        c2[: count // 2] = 1
        c2[c2 == 0] = 2
        c0[:10] = 0  # a zero constant term
        c1[10:20], c0[10:20] = 0, 0  # c2 T^2: a double root at 0
    lo, hi, ok = eng.quad_roots(c0, c1, c2)
    want = [_quad_roots_ref(ctx, *c) for c in zip(c0.tolist(), c1.tolist(), c2.tolist())]
    assert [(x, y) if k else None for x, y, k in zip(lo.tolist(), hi.tolist(), ok.tolist())] == want
    assert None in want  # no root in GF(q^2)
    assert any(w is not None and w[0] == w[1] for w in want)  # a double root
    assert (c0 == 0).any()


def _witnesses_ref(t, a, b) -> list:
    """bipoly's witnesses of the pairs (a, b), as `check` reports them."""
    out = []
    for ai, bi in zip(a.tolist(), b.tolist()):
        prm = TrinomialParams.from_indices(t, ai, bi)
        out.append({"four_line": four_line_witness(prm).to_json(), "conic": conic_witnesses(prm).to_json()})
    return out


def _assert_witnesses_match(eng, a, b):
    F, _G = eng.curve_coeffs(a, b)
    # json.dumps pins the key order and the plain-int/bool types too
    assert json.dumps(eng.witnesses(a, b, F)) == json.dumps(_witnesses_ref(eng.tower, a, b))


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (2, 2), (2, 3), (2, 4)])
def test_witnesses_match_bipoly_on_every_instance(tower, p, h):
    eng = ScanEngine(tower(p, h))
    a, b = pair_grid(eng.n)
    pp = eng.pp_mu(a, b)
    _assert_witnesses_match(eng, a[pp], b[pp])


def test_witnesses_match_bipoly_on_samples_q25(tower):
    """Seeded pairs (mostly not permutations: every "none" note shows up)
    and seeded permutation instances at q = 25."""
    eng = ScanEngine(tower(5, 2))
    a, b = sample_pairs(eng.n, 60, seed=25)
    _assert_witnesses_match(eng, a, b)
    ga, gb = pair_grid(eng.n)
    pp = np.flatnonzero(eng.pp_mu(ga, gb))
    pick = np.sort(np.random.default_rng(25).choice(pp, 30, replace=False))
    _assert_witnesses_match(eng, ga[pick], gb[pick])


@pytest.mark.parametrize("h,count", [(5, 40), (6, 20)])
def test_witnesses_match_bipoly_on_samples_char2(tower, h, count):
    """Seeded pairs at q = 32 and 64, half of them permutation instances."""
    eng = ScanEngine(tower(2, h))
    a, b = sample_pairs(eng.n, 50 * eng.n, seed=eng.q)  # about 50 instances
    pp = eng.pp_mu(a, b)
    pick = np.sort(np.concatenate([np.flatnonzero(pp)[: count // 2], np.flatnonzero(~pp)[: count // 2]]))
    assert pp[pick].sum() == count // 2
    _assert_witnesses_match(eng, a[pick], b[pick])


def test_witnesses_match_bipoly_past_the_dense_limit(tower):
    """The instances of a seeded q = 59 sampled scan (log/exp tables only),
    as the scan reports them, and a few seeded pairs."""
    t = tower(59, 1)
    assert t.fq2.np_mul is None
    rep = sampled_scan(59, 1, 20_000, seed=2, summary_only=True, diagnostics=True)
    assert rep.pp_count > 0
    a = np.array([d["a_idx"] for d in rep.diagnostics])
    b = np.array([d["b_idx"] for d in rep.diagnostics])
    got = [{k: d[k] for k in ("four_line", "conic")} for d in rep.diagnostics]
    assert json.dumps(got) == json.dumps(_witnesses_ref(t, a, b))
    _assert_witnesses_match(ScanEngine(t), *sample_pairs(t.fq2.order, 8, seed=59))


def _shaped_curve(t, rng, a, b, shape):
    """-b f1 f2 for a factor pair of the given witness shape (constants as
    bipoly would derive them where it computes them from a, b), or an
    unstructured quartic; None where the shape's constants do not exist."""
    ctx, one = t.fq2, t.fq2.one

    def rand():
        return ctx.elem(rng.randrange(ctx.order))

    aq = frobenius(a)
    if shape == "four-lines":
        rts = roots(Poly(ctx, [a * b, aq * aq, aq * b]))
        if not rts:
            return None
        quad = [rts[0] * rts[1], rts[0] + rts[1], one]
        f1 = BivarPoly(ctx, {(i, 0): c for i, c in enumerate(quad)})
        f2 = BivarPoly(ctx, {(0, i): c for i, c in enumerate(quad)})
    elif shape == "conic-swap":
        rts = roots(Poly(ctx, [9 * a * aq * a - a, -9 * a * aq, 3 * aq]))
        if not rts:
            return None
        A, B, C = rts[-1], 3 * a - rts[-1], a * aq.inv()
        f1 = BivarPoly(ctx, {(1, 1): one, (1, 0): A, (0, 1): B, (0, 0): C})
        f2 = BivarPoly(ctx, {(1, 1): one, (1, 0): B, (0, 1): A, (0, 0): C})
    elif shape == "conic-sym":
        A, B, C, D = rand(), rand(), rand(), rand()
        f1 = BivarPoly(ctx, {(1, 1): one, (1, 0): A, (0, 1): A, (0, 0): C})
        f2 = BivarPoly(ctx, {(1, 1): one, (1, 0): B, (0, 1): B, (0, 0): D})
    elif shape == "conic-xsq":  # B = 0 keeps the product inside the 3 x 3 grid
        A, C = rand(), rand()
        f1 = BivarPoly(ctx, {(2, 0): one, (1, 0): A, (0, 0): C})
        f2 = BivarPoly(ctx, {(0, 2): one, (0, 1): A, (0, 0): C})
    else:
        return BivarPoly(ctx, {(i, j): rand() for i in range(3) for j in range(3)})
    return (f1 * f2).scale(-b)


@pytest.mark.parametrize("p,h", [(7, 1), (3, 2)])
def test_witnesses_match_bipoly_on_constructed_curves(tower, monkeypatch, p, h):
    """Every witness shape and note, conic-xsq included (no collision curve
    of a real pair has it): quartics built from each shape's factors are
    handed to both paths as the F of a seeded pair."""
    t = tower(p, h)
    eng, rng = ScanEngine(t), random.Random(p**h)
    shapes = ("four-lines", "conic-sym", "conic-xsq", "random") + (("conic-swap",) if p > 3 else ())
    a, b, curves = [], [], []
    while len(curves) < 100:
        ai, bi = rng.randrange(1, t.fq2.order), rng.randrange(1, t.fq2.order)
        prm = TrinomialParams.from_indices(t, ai, bi)
        F = _shaped_curve(t, rng, prm.a, prm.b, shapes[len(curves) % len(shapes)])
        if F is not None:
            a.append(ai), b.append(bi), curves.append(F)
    a, b = np.array(a), np.array(b)
    grid = np.array([F.coeff_grid(3) for F in curves]).transpose(1, 2, 0)
    want = []
    for ai, bi, F in zip(a.tolist(), b.tolist(), curves):
        monkeypatch.setattr(bipoly, "_collision_poly", lambda params, F=F: F)
        want += _witnesses_ref(t, np.array([ai]), np.array([bi]))
    assert json.dumps(eng.witnesses(a, b, grid)) == json.dumps(want)
    seen = {(w[k]["pattern"], w[k]["note"]) for w in want for k in ("four_line", "conic")}
    expected = {("four-lines", ""), ("conic-sym", ""), ("conic-xsq", ""), ("none", "")}
    expected |= {("none", "line constants not in GF(q^2)"), ("none", "some pattern constants not in GF(q^2)")}
    assert expected | ({("conic-swap", "")} if p > 3 else set()) <= seen
