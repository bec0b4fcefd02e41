"""Collision curves, the GF(q) companion form, witnesses, resultants."""

import random
from dataclasses import replace

import pytest

from permtri import (
    BivarPoly,
    Poly,
    TrinomialParams,
    build_curves,
    build_numden,
    conic_witnesses,
    count_points_off_diag,
    four_line_witness,
    frobenius,
    gcd_degree,
    hasse_weil_ok,
    is_pp_mu,
    is_prime_power,
    lift,
    mu_set,
    phi_point,
    project,
    psi_point,
    resultant_vs_closed_form,
    roots,
    verify_iso_identity,
)
from permtri.bipoly import _collision_poly, _exact_div_x_minus_y, _pair_from_sum_product


def params(t, a, b):
    return TrinomialParams.from_indices(t, a, b)


def brute_gcd_degree(p):
    """Oracle: count shared roots (with min multiplicity) over GF(q^2);
    valid here because both shared-factor cases split over GF(q^2)."""
    N, D = build_numden(p)
    rn = {}
    for r in roots(N):
        rn[r.i] = rn.get(r.i, 0) + 1
    deg = 0
    rd = {}
    for r in roots(D):
        rd[r.i] = rd.get(r.i, 0) + 1
    for i, m in rn.items():
        deg += min(m, rd.get(i, 0))
    return deg


class TestNumDen:
    def test_coefficient_vectors(self, tower):
        t = tower(5, 1)
        p = params(t, 7, 11)
        N, D = build_numden(p)
        aq, bq = frobenius(p.a), frobenius(p.b)
        assert list(N.coeffs) == [bq, t.fq2.zero, t.fq2.one, aq]
        assert list(D.coeffs) == [p.a, t.fq2.one, t.fq2.zero, p.b]

    def test_denominator_factors_on_unity_circle(self, tower):
        # D(x) = x (1 + a x^q + b x^2) whenever x^(q+1) = 1
        t = tower(7, 1)
        ctx = t.fq2
        rng = random.Random(3)
        for _ in range(20):
            p = params(t, rng.randrange(1, 49), rng.randrange(1, 49))
            _, D = build_numden(p)
            for x in mu_set(ctx):
                assert D(x) == x * (ctx.one + p.a * frobenius(x) + p.b * x * x)


class TestGcdDegree:
    def test_known_degree_two_instance(self, tower):
        assert gcd_degree(params(tower(5, 1), 5, 1)) == 2

    def test_engineered_degree_one_instance(self, tower):
        # b = -a^(2q) collapses the second reduced quadratic to a line
        t = tower(5, 1)
        p = params(t, 2, 1)
        a = p.a
        assert p.b == -(frobenius(a) ** 2)
        assert gcd_degree(p) == 1
        assert not is_pp_mu(p).is_pp  # degree 1 never permutes

    def test_exhaustive_distribution_vs_root_oracle_q5(self, tower):
        t = tower(5, 1)
        n = t.fq2.order
        hist = {0: 0, 1: 0, 2: 0}
        for a in range(1, n):
            for b in range(1, n):
                p = params(t, a, b)
                d = gcd_degree(p)
                assert d == brute_gcd_degree(p)
                hist[d] += 1
        assert hist == {0: 438, 1: 120, 2: 18}

    def test_random_vs_oracle_q7(self, tower):
        t = tower(7, 1)
        rng = random.Random(13)
        degs = set()
        for _ in range(150):
            p = params(t, rng.randrange(1, 49), rng.randrange(1, 49))
            d = gcd_degree(p)
            degs.add(d)
            assert d == brute_gcd_degree(p)
        assert 0 in degs  # generic pairs dominate


class TestCurveConstruction:
    def test_rejects_characteristic_two(self, tower):
        with pytest.raises(ValueError):
            build_curves(params(tower(2, 2), 1, 2))

    def test_division_guard_trips_on_nondivisible_input(self, tower):
        ctx = tower(5, 1).fq2
        junk = BivarPoly(ctx, {(1, 0): ctx.one})  # X is not divisible by X - Y
        with pytest.raises(ArithmeticError, match="remainder"):
            _exact_div_x_minus_y(junk)

    def test_divider_correct_on_crafted_product(self, tower):
        ctx = tower(7, 1).fq2
        x_minus_y = BivarPoly(ctx, {(1, 0): ctx.one, (0, 1): -ctx.one})
        other = BivarPoly(ctx, {(2, 1): ctx.elem(5), (0, 0): ctx.elem(9), (1, 2): ctx.one})
        assert _exact_div_x_minus_y(x_minus_y * other) == other

    def test_full_invariants_random(self, tower):
        for p_, h in ((5, 1), (7, 1), (3, 2), (13, 1)):
            t = tower(p_, h)
            ctx = t.fq2
            rng = random.Random(t.q)
            for _ in range(40):
                p = params(t, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
                cp = build_curves(p)
                grid = cp.F.coeff_grid(5)  # total degree <= 4: every term of F
                assert grid == [list(col) for col in zip(*grid)]
                assert cp.F.deg_x() <= 2 and cp.F.total_degree() <= 4
                assert cp.G.total_degree() <= 4
                assert cp.G.ctx is t.fq
                a, b = p.a, p.b
                aq, bq = frobenius(a), frobenius(b)
                corner = 3 * a * aq + 2 * a + 2 * aq - 3 * b * bq - b - bq + 1
                assert lift(cp.G.coeff(2, 2), ctx) == corner

    def test_quartic_coefficient_is_reduced_quadratic_row(self, tower):
        # the X^2-row of F is the negated shared-factor quadratic in Y
        t = tower(5, 1)
        p = params(t, 7, 11)
        F = _collision_poly(p)
        aq = frobenius(p.a)
        na, nb = p.a * aq, p.b * frobenius(p.b)
        assert F.coeff(2, 2) == -p.b
        assert F.coeff(2, 1) == aq
        assert F.coeff(2, 0) == na - nb

    def test_dump_stable(self, tower):
        t = tower(5, 1)
        d1 = build_curves(params(t, 2, 3)).G.dump()
        d2 = build_curves(params(t, 2, 3)).G.dump()
        assert d1 == d2
        lines = d1.splitlines()
        assert lines == sorted(lines)


class TestTransforms:
    def test_phi_inverts_psi(self, tower):
        t = tower(7, 1)
        ctx = t.fq2
        e = ctx.e
        rng = random.Random(19)
        for _ in range(60):
            x, y = ctx.elem(rng.randrange(ctx.order)), ctx.elem(rng.randrange(ctx.order))
            if x == e or y == e:
                continue
            u, v = psi_point(e, x, y)
            if u == ctx.one or v == ctx.one:
                continue
            assert phi_point(e, u, v) == (x, y)

    def test_psi_sends_base_points_to_unity_circle(self, tower):
        t = tower(5, 1)
        ctx = t.fq2
        e = ctx.e
        mu_ids = {m.i for m in mu_set(ctx)}
        for xi in range(t.q):
            for yi in range(t.q):
                x = lift(t.fq.elem(xi), ctx)
                y = lift(t.fq.elem(yi), ctx)
                u, v = psi_point(e, x, y)
                assert u.i in mu_ids and v.i in mu_ids
                if xi != yi:
                    assert u != v

    def test_correspondence_of_zero_sets(self, tower):
        # G(x, y) = 0 iff F(psi(x, y)) = 0 for base points off the diagonal
        for p_, h in ((5, 1), (7, 1)):
            t = tower(p_, h)
            ctx = t.fq2
            rng = random.Random(t.q + 4)
            p = params(t, rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
            cp = build_curves(p)
            e = ctx.e
            for xi in range(t.q):
                for yi in range(t.q):
                    if xi == yi:
                        continue
                    xq, yq = t.fq.elem(xi), t.fq.elem(yi)
                    u, v = psi_point(e, lift(xq, ctx), lift(yq, ctx))
                    assert (cp.G(xq, yq).i == 0) == (cp.F(u, v).i == 0)


def _identity_at_points(cp, rng, count) -> bool:
    """The transform identity evaluated at `count` seeded points off phi's
    pole X, Y = 1: an oracle that expands nothing."""
    ctx, e, G = cp.params.tower.fq2, cp.e, cp.lift_G()
    one, scale = ctx.one, 16 * e**4
    points = [i for i in range(ctx.order) if i != one.i]
    for _ in range(count):
        x, y = ctx.elem(rng.choice(points)), ctx.elem(rng.choice(points))
        if (x - one) ** 2 * (y - one) ** 2 * G(*phi_point(e, x, y)) != scale * cp.F(x, y):
            return False
    return True


class TestIsoIdentity:
    def test_symbolic_and_numeric_exhaustive_small(self, tower):
        t = tower(5, 1)
        rng = random.Random(23)
        for _ in range(30):
            cp = build_curves(params(t, rng.randrange(1, 25), rng.randrange(1, 25)))
            assert verify_iso_identity(cp) and _identity_at_points(cp, rng, 50)
            bent = replace(cp, F=cp.F + BivarPoly(t.fq2, {(0, 0): 1}))
            assert not verify_iso_identity(bent) and not _identity_at_points(bent, rng, 50)

    def test_numeric_across_fields(self, tower):
        for p_, h in ((7, 1), (3, 2), (11, 1)):
            t = tower(p_, h)
            rng = random.Random(t.q)
            cp = build_curves(params(t, rng.randrange(1, t.fq2.order), rng.randrange(1, t.fq2.order)))
            assert verify_iso_identity(cp) and _identity_at_points(cp, rng, 50)


def points_one_by_one(cp):
    """Oracle for count_points_off_diag: BivarPoly.__call__ at every
    off-diagonal point of GF(q)^2, one point at a time."""
    fq = cp.params.tower.fq
    pts = fq.order
    return sum(cp.G(fq.elem(x), fq.elem(y)).i == 0 for x in range(pts) for y in range(pts) if x != y)


class TestPointCounting:
    def test_every_pair_at_q5_matches_per_point_evaluation(self, tower):
        t = tower(5, 1)
        counts = {}
        for a in range(1, t.fq2.order):
            for b in range(1, t.fq2.order):
                cp = build_curves(params(t, a, b))
                counts[a, b] = count_points_off_diag(cp)
                assert counts[a, b] == points_one_by_one(cp), (a, b)
        assert counts[1, 1] > 0 and 0 in counts.values()

    @pytest.mark.parametrize("p,h", [(7, 1), (3, 2), (11, 1)])
    def test_seeded_pairs_match_per_point_evaluation(self, tower, p, h):
        t = tower(p, h)
        rng = random.Random(t.q)
        for _ in range(25):
            cp = build_curves(params(t, rng.randrange(1, t.fq2.order), rng.randrange(1, t.fq2.order)))
            assert count_points_off_diag(cp) == points_one_by_one(cp)

    def test_permutation_instances_have_no_points(self, tower):
        t = tower(5, 1)
        n = t.fq2.order
        for a in range(1, n):
            for b in range(1, n):
                p = params(t, a, b)
                if is_pp_mu(p).is_pp:
                    assert count_points_off_diag(build_curves(p)) == 0

    def test_collision_pulls_back_to_rational_point(self, tower):
        # a collision of the induced map away from 1 forces an off-diagonal
        # GF(q) point on the companion curve
        t = tower(5, 1)
        p = params(t, 1, 1)
        v = is_pp_mu(p)
        assert not v.is_pp and len(v.witness) == 2
        u, w = v.witness
        assert u.i != 1 and w.i != 1
        cp = build_curves(p)
        e = t.fq2.e
        x0, y0 = phi_point(e, u, w)
        x0q, y0q = project(x0, t.fq), project(y0, t.fq)
        assert x0q != y0q
        assert cp.G(x0q, y0q).i == 0
        assert count_points_off_diag(cp) > 0


class TestHasseWeil:
    def test_threshold_values(self):
        assert hasse_weil_ok(47) is True
        assert hasse_weil_ok(43) is False
        assert hasse_weil_ok(49) is True

    def test_all_prime_powers_below_threshold(self):
        smaller = [q for q in range(2, 47) if is_prime_power(q)]
        assert all(not hasse_weil_ok(q) for q in smaller)

    def test_rejects_non_prime_powers(self):
        with pytest.raises(ValueError):
            hasse_weil_ok(45)


class TestResultantComparison:
    def test_vanishing_matches_gcd_exhaustive_q5(self, tower):
        t = tower(5, 1)
        n = t.fq2.order
        for a in range(1, n):
            for b in range(1, n):
                p = params(t, a, b)
                cmp = resultant_vs_closed_form(p)
                assert (cmp.lhs.i == 0) == (gcd_degree(p) > 0)

    def test_relation_is_constant(self, tower):
        # the resultant equals the inner factor itself; the full closed form
        # is its square times b^(2q+10)
        for p_, h in ((5, 1), (7, 1), (11, 1)):
            t = tower(p_, h)
            rng = random.Random(t.q * 2)
            for _ in range(200):
                p = params(t, rng.randrange(1, t.fq2.order), rng.randrange(1, t.fq2.order))
                cmp = resultant_vs_closed_form(p)
                assert cmp.lhs_equals_inner
                assert cmp.rhs_is_prefactor_times_lhs_squared
                if cmp.rhs.i != 0:
                    assert cmp.ratio == cmp.lhs * cmp.rhs.inv()
                else:
                    assert cmp.ratio is None

    def test_degree_two_instance_kills_resultant(self, tower):
        cmp = resultant_vs_closed_form(params(tower(5, 1), 5, 1))
        assert cmp.lhs.i == 0 and cmp.ratio is None


class TestFactorWitnesses:
    def test_four_lines_on_split_degree_two_instance(self, tower):
        t = tower(5, 1)
        p = params(t, 5, 1)
        w = four_line_witness(p)
        assert w.pattern == "four-lines" and w.residual_check
        # the line constants are the roots of a^q b T^2 + a^(2q) T + a b
        aq = frobenius(p.a)
        tq = Poly(t.fq2, [p.a * p.b, aq * aq, aq * p.b])
        assert {w.constants["A"].i, w.constants["B"].i} == {r.i for r in roots(tq)}
        assert gcd_degree(p) > 0  # four lines force a shared factor

    def test_generic_pairs_have_no_pattern(self, tower):
        t = tower(7, 1)
        rng = random.Random(47)
        seen_none = 0
        for _ in range(40):
            p = params(t, rng.randrange(1, 49), rng.randrange(1, 49))
            if gcd_degree(p) == 0 and not is_pp_mu(p).is_pp:
                w = four_line_witness(p)
                c = conic_witnesses(p)
                if w.pattern == "none" and c.pattern == "none":
                    seen_none += 1
        assert seen_none > 25

    def test_conic_swap_on_seconda_instances(self, tower):
        t = tower(5, 1)
        ctx = t.fq2
        for a, b in [(2, 3), (3, 3), (5, 2), (11, 11)]:
            p = params(t, a, b)
            w = conic_witnesses(p)
            assert w.pattern == "conic-swap" and w.residual_check
            A, B, C = w.constants["A"], w.constants["B"], w.constants["C"]
            aq = frobenius(p.a)
            na = p.a * aq
            # closed-form constraints
            assert 3 * aq * A * A - 9 * na * A + 9 * na * p.a - p.a == 0
            assert B == 3 * p.a - A
            assert C == p.a * aq.inv()

    def test_reported_constants_reproduce_curve(self, tower):
        t = tower(5, 1)
        p = params(t, 2, 3)
        w = conic_witnesses(p)
        ctx = t.fq2
        A, B, C = (w.constants[k] for k in "ABC")
        f1 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): A, (0, 1): B, (0, 0): C})
        f2 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): B, (0, 1): A, (0, 0): C})
        assert (f1 * f2).scale(-p.b) == _collision_poly(p)

    def test_xsq_pattern_would_force_b_zero_line_constant(self, tower):
        # F has no X^3 term, so the square shape's B = -[X^3]/b is 0 on every
        # pair, and a square-shape witness must carry B = 0
        t = tower(5, 1)
        n = t.fq2.order
        for a in range(1, n):
            for b in range(1, n):
                p = params(t, a, b)
                assert _collision_poly(p).coeff(3, 0).i == 0
                w = conic_witnesses(p)
                if w.pattern == "conic-xsq":
                    assert w.constants["B"].i == 0

    @pytest.mark.parametrize("q", [5, 7, 11, 13])
    def test_conic_swap_roots_give_one_product(self, tower, q):
        # the roots of 3a^q A^2 - 9a^(q+1) A + 9a^(q+2) - a sum to 3a, so
        # the second root's candidate is the first one's factors swapped:
        # trying the first root alone decides the shape
        t = tower(q, 1)
        ctx, one = t.fq2, t.fq2.one
        seen = 0
        for ai in range(1, ctx.order):
            a = ctx.elem(ai)
            aq = frobenius(a)
            na = a * aq
            rts = roots(Poly(ctx, [9 * na * a - a, -9 * na, 3 * aq]))
            if not rts:
                continue
            seen += 1
            assert rts[0] + rts[1] == 3 * a
            C = a * aq.inv()
            products = []
            for A in rts:
                B = 3 * a - A
                f1 = BivarPoly(ctx, {(1, 1): one, (1, 0): A, (0, 1): B, (0, 0): C})
                f2 = BivarPoly(ctx, {(1, 1): one, (1, 0): B, (0, 1): A, (0, 0): C})
                products.append(f1 * f2)
            assert products[0] == products[1]
        assert seen > 0

    def test_zero_sum_and_product_give_the_zero_pair_twice(self, tower):
        ctx = tower(7, 1).fq2
        assert _pair_from_sum_product(ctx, ctx.zero, ctx.zero) == [(ctx.zero, ctx.zero)] * 2

    def test_witness_json(self, tower):
        w = four_line_witness(params(tower(5, 1), 5, 1))
        d = w.to_json()
        assert d["pattern"] == "four-lines" and d["residual_check"] is True
        assert set(d["constants"]) == {"A", "B"}
