"""Univariate polynomial algebra: division, GCD, resultants, roots."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtri import (
    Poly,
    TrinomialParams,
    build_numden,
    discriminant,
    frobenius,
    make_field,
    mu_set,
    poly_gcd,
    resultant,
    roots,
)
from permtri.upoly import values

_T7 = make_field(7, 1)


def rand_poly(ctx, deg, rng, monic=False):
    cs = [ctx.elem(rng.randrange(ctx.order)) for _ in range(deg)]
    cs.append(ctx.one if monic else ctx.elem(rng.randrange(1, ctx.order)))
    return Poly(ctx, cs)


def all_monic_upto(ctx, max_deg):
    """Every monic polynomial over ctx of degree 0..max_deg."""
    out = []
    for d in range(max_deg + 1):
        for tail in itertools.product(range(ctx.order), repeat=d):
            out.append(Poly(ctx, [ctx.elem(c) for c in tail] + [ctx.one]))
    return out


def brute_gcd(f, g, divisor_pool):
    """Oracle: the highest-degree monic common divisor found by trial division."""
    best = Poly(f.ctx, [f.ctx.one])
    for d in divisor_pool:
        if d.degree < 1 or d.degree > min(f.degree, g.degree):
            continue
        if (f % d).is_zero() and (g % d).is_zero() and d.degree > best.degree:
            best = d
    return best


class TestArithmetic:
    def test_divmod_self(self, tower):
        ctx = tower(5, 1).fq2
        f = Poly.from_indices(ctx, [3, 0, 1, 7])
        q, r = divmod(f, f)
        assert q == Poly(ctx, [ctx.one]) and r.is_zero()

    def test_eval_root_of_linear(self, tower):
        ctx = tower(5, 1).fq2
        for c in list(ctx.elements())[:10]:
            assert Poly.x_minus(c)(c).i == 0

    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mul_then_divmod_roundtrip(self, df, dg, data):
        ctx = _T7.fq2
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        f, g = rand_poly(ctx, df, rng), rand_poly(ctx, dg, rng)
        q, r = divmod(f * g, g)
        assert q == f and r.is_zero()

    def test_divmod_remainder_degree(self, tower):
        ctx = tower(7, 1).fq2
        rng = random.Random(2)
        for _ in range(50):
            f, g = rand_poly(ctx, 5, rng), rand_poly(ctx, 2, rng)
            q, r = divmod(f, g)
            assert r.degree < g.degree
            assert q * g + r == f

    def test_division_by_zero(self, tower):
        ctx = tower(5, 1).fq2
        with pytest.raises(ZeroDivisionError):
            divmod(Poly.from_indices(ctx, [1, 1]), Poly(ctx))

    def test_eval_is_homomorphism(self, tower):
        ctx = tower(7, 1).fq2
        rng = random.Random(9)
        for _ in range(50):
            f, g = rand_poly(ctx, 3, rng), rand_poly(ctx, 4, rng)
            x = ctx.elem(rng.randrange(ctx.order))
            assert (f * g)(x) == f(x) * g(x)
            assert (f + g)(x) == f(x) + g(x)

    def test_text_form(self, tower):
        ctx = tower(5, 1).fq2
        assert Poly.from_indices(ctx, [3, 0, 1]).text_form() == "[3,0,1]"
        assert Poly(ctx).text_form() == "[]"


class TestGcd:
    def test_gcd_with_zero(self, tower):
        ctx = tower(5, 1).fq2
        f = Poly.from_indices(ctx, [2, 4])
        assert poly_gcd(f, Poly(ctx)) == f.monic()
        assert poly_gcd(Poly(ctx), f) == f.monic()

    def test_gcd_zero_zero_raises(self, tower):
        ctx = tower(5, 1).fq2
        with pytest.raises(ValueError):
            poly_gcd(Poly(ctx), Poly(ctx))

    def test_common_linear_factor_over_f7(self, tower):
        ctx = tower(7, 1).fq
        one, two, three = (Poly.x_minus(ctx.elem(k)) for k in (1, 2, 3))
        assert poly_gcd(one * two, one * three) == one

    def test_exhaustive_low_degree_against_oracle(self, tower):
        # every pair of monic polynomials of degree <= 2 over GF(5)
        ctx = tower(5, 1).fq
        pool = all_monic_upto(ctx, 2)
        for f in pool:
            for g in pool:
                if f.is_zero() and g.is_zero():
                    continue
                assert poly_gcd(f, g) == brute_gcd(f, g, pool)

    def test_random_degree_four_against_oracle(self, tower):
        ctx = tower(5, 1).fq
        pool = all_monic_upto(ctx, 2)
        rng = random.Random(31)
        for _ in range(60):
            seed_parts = [rand_poly(ctx, rng.randrange(3), rng, monic=True) for _ in range(2)]
            common = rand_poly(ctx, rng.randrange(3), rng, monic=True)
            f, g = seed_parts[0] * common, seed_parts[1] * common
            got = poly_gcd(f, g)
            # the oracle pool only reaches degree 2, stay within it
            if got.degree <= 2:
                assert got == brute_gcd(f, g, pool)
            assert (f % got).is_zero() and (g % got).is_zero()


class TestResultant:
    def test_linear_anchor(self, tower):
        ctx = tower(7, 1).fq
        for c in ctx.elements():
            for d in ctx.elements():
                f, g = Poly.x_minus(c), Poly.x_minus(d)
                assert resultant(f, g) == c - d

    def test_vanishing_iff_common_root(self, tower):
        ctx = tower(7, 1).fq2
        rng = random.Random(17)
        for _ in range(150):
            f, g = rand_poly(ctx, 3, rng), rand_poly(ctx, 3, rng)
            shares = poly_gcd(f, g).degree >= 1
            assert (resultant(f, g).i == 0) == shares

    def test_swap_sign(self, tower):
        ctx = tower(7, 1).fq2
        rng = random.Random(23)
        for _ in range(80):
            f, g = rand_poly(ctx, rng.randrange(1, 4), rng), rand_poly(ctx, rng.randrange(1, 4), rng)
            lhs = resultant(f, g)
            rhs = resultant(g, f)
            if (f.degree * g.degree) % 2:
                rhs = -rhs
            assert lhs == rhs

    def test_multiplicative_in_second_argument(self, tower):
        ctx = tower(5, 1).fq2
        rng = random.Random(29)
        for _ in range(80):
            f = rand_poly(ctx, rng.randrange(1, 3), rng)
            g = rand_poly(ctx, rng.randrange(1, 3), rng)
            h = rand_poly(ctx, rng.randrange(1, 3), rng)
            assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)

    def test_product_over_roots_formula(self, tower):
        ctx = tower(5, 1).fq2
        rng = random.Random(37)
        for _ in range(40):
            rts = [ctx.elem(rng.randrange(ctx.order)) for _ in range(3)]
            lc = ctx.elem(rng.randrange(1, ctx.order))
            f = Poly(ctx, [lc])
            for r in rts:
                f = f * Poly.x_minus(r)
            g = rand_poly(ctx, 2, rng)
            expect = lc ** g.degree
            for r in rts:
                expect = expect * g(r)
            assert resultant(f, g) == expect


class TestDiscriminant:
    def test_quadratic_anchor_exhaustive(self, tower):
        ctx = tower(7, 1).fq
        for b in ctx.elements():
            for c in ctx.elements():
                f = Poly(ctx, [c, b, ctx.one])
                assert discriminant(f) == b * b - 4 * c

    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (5, 2)])
    def test_witness_quadratic_closed_form(self, tower, p, h):
        # 3a^q A^2 - 9a^(q+1) A + 9a^(q+2) - a has discriminant
        # 3a^(q+1)(4 - 9a^(q+1))
        t = tower(p, h)
        ctx = t.fq2
        rng = random.Random(41)
        for _ in range(40):
            a = ctx.elem(rng.randrange(1, ctx.order))
            aq = frobenius(a)
            na = a * aq
            f = Poly(ctx, [9 * na * a - a, -9 * na, 3 * aq])
            assert discriminant(f) == 3 * na * (4 - 9 * na)

    def test_repeated_root_gives_zero(self, tower):
        ctx = tower(5, 1).fq2
        r = ctx.elem(7)
        f = Poly.x_minus(r) * Poly.x_minus(r) * Poly.x_minus(ctx.elem(3))
        assert discriminant(f).i == 0

    def test_inseparable_gives_zero(self, tower):
        ctx = tower(5, 1).fq
        f = Poly(ctx, [ctx.elem(2)] + [ctx.zero] * 4 + [ctx.one])  # X^5 + 2
        assert discriminant(f).i == 0

    def test_constant_rejected(self, tower):
        ctx = tower(5, 1).fq
        with pytest.raises(ValueError):
            discriminant(Poly(ctx, [ctx.one]))


def roots_one_by_one(f, ctx):
    """Oracle for roots: Poly.__call__ on one candidate at a time, in
    ascending index order, then the multiplicity of each zero by division."""
    work = f.lift_to(ctx) if ctx.base is f.ctx else f
    found = []
    for i in range(ctx.order):
        cand = work.ctx.elem(i)
        if work(cand).i != 0:
            continue
        g, lin = work, Poly.x_minus(cand)
        while (g % lin).is_zero():
            g = g // lin
            found.append(ctx.elem(i))
    return found


class TestValues:
    @pytest.mark.parametrize("p,h,level", [(7, 1, "fq"), (7, 1, "fq2"), (2, 2, "fq2"), (3, 3, "fq")])
    def test_match_call_at_every_index(self, tower, p, h, level):
        ctx = getattr(tower(p, h), level)
        rng = random.Random(ctx.order)
        polys = [Poly(ctx), Poly(ctx, [ctx.elem(ctx.order - 1)])]
        polys += [rand_poly(ctx, d, rng) for d in range(6) for _ in range(3)]
        xs = np.arange(ctx.order)
        for f in polys:
            assert values(f, xs).tolist() == [f(ctx.elem(i)).i for i in range(ctx.order)]


class TestRoots:
    @pytest.mark.parametrize("p,h", [(2, 2), (3, 1), (5, 1)])
    def test_match_the_per_candidate_loop(self, tower, p, h):
        t = tower(p, h)
        rng = random.Random(p * 10 + h)
        # f over GF(q): its own layer and the extension; over GF(q^2): its
        # own layer and the subfield
        for layer, targets in [(t.fq, (t.fq, t.fq2)), (t.fq2, (t.fq2, t.fq))]:
            polys = [rand_poly(layer, d, rng) for d in range(1, 6) for _ in range(4)]
            for _ in range(4):  # (T - c)^3 (T - d), c in GF(q)
                c = Poly.x_minus(layer.elem(rng.randrange(t.q)))
                polys.append(c * c * c * Poly.x_minus(layer.elem(rng.randrange(layer.order))))
            for f in polys:
                for ctx in targets:  # Elem equality compares the layer too
                    assert roots(f, ctx) == roots_one_by_one(f, ctx)

    def test_repeated_roots_in_every_layer_case(self, tower):
        t = tower(3, 1)
        c, d = t.fq.elem(2), t.fq.elem(1)
        f = Poly.x_minus(c) * Poly.x_minus(c) * Poly.x_minus(c) * Poly.x_minus(d)
        want = [1, 2, 2, 2]
        assert [r.i for r in roots(f)] == want
        assert [r.i for r in roots(f, t.fq2)] == want
        assert [r.i for r in roots(f.lift_to(t.fq2), t.fq)] == want

    def test_x_squared_minus_one(self, tower):
        ctx = tower(7, 1).fq
        got = roots(Poly.from_indices(ctx, [6, 0, 1]))
        assert {r.i for r in got} == {1, 6}

    def test_subfield_roots_are_subset(self, tower):
        t = tower(3, 2)
        rng = random.Random(43)
        for _ in range(25):
            f = rand_poly(t.fq2, 3, rng)
            sub = {r.i for r in roots(f, t.fq)}
            full = {r.i for r in roots(f)}
            assert sub <= full

    def test_lifting_to_extension_finds_more(self, tower):
        t = tower(5, 1)
        f = Poly.from_indices(t.fq, [2, 0, 1])  # the canonical modulus: no GF(5) roots
        assert roots(f) == []
        ext = roots(f, t.fq2)
        assert len(ext) == 2 and all(r.ctx is t.fq2 for r in ext)

    def test_multiplicity_and_order(self, tower):
        ctx = tower(5, 1).fq2
        c3, c7 = ctx.elem(3), ctx.elem(7)
        f = Poly.x_minus(c7) * Poly.x_minus(c3) * Poly.x_minus(c3)
        got = roots(f)
        assert [r.i for r in got] == [3, 3, 7]

    def test_gcd2_instance_common_factor_roots_avoid_unity_circle(self, tower):
        # with the square clause in force the shared quadratic's roots stay
        # off the (q+1)-st roots of unity
        t = tower(5, 1)
        params = TrinomialParams.from_indices(t, 5, 1)  # known deg-2 instance
        N, D = build_numden(params)
        g = poly_gcd(N, D)
        assert g.degree == 2
        mu_ids = {x.i for x in mu_set(t.fq2)}
        for r in roots(g):
            assert r.i not in mu_ids
