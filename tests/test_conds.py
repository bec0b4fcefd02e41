"""Closed-form criteria: clause-by-clause behaviour and their implications."""

import pytest

from permtri import (
    SquareClass,
    TrinomialParams,
    check_char2,
    check_char3,
    check_prima,
    check_prima_bis,
    check_seconda,
    check_seconda_bis,
    check_seconda_tris,
    condition_report,
    frobenius,
    is_pp_direct,
    is_pp_mu,
    is_square,
    lift,
    main_predicate,
    project,
)
from permtri.engine import ScanEngine
from permtri.scan import pair_grid


def params(t, a, b):
    return TrinomialParams.from_indices(t, a, b)


def all_pairs(t):
    a, b = pair_grid(t.fq2.order)
    return zip(a.tolist(), b.tolist())


def dual_path_prima(p):
    """Independent re-implementation: norms via generic powers, Euler via
    explicit exponentiation in the subfield."""
    t = p.tower
    q = t.q
    a, b = p.a, p.b
    if a**q * b**q != a * (b ** (q + 1) - a ** (q + 1)):
        return False
    val = t.fq2.one - 4 * (b * a.inv()) ** (q + 1)
    val_q = project(val, t.fq)
    return val_q.i != 0 and val_q ** ((q - 1) // 2) == t.fq.one


def dual_path_seconda(p):
    t = p.tower
    q = t.q
    a, b = p.a, p.b
    if a ** (q - 1) + 3 * b != 0:
        return False
    val = -3 * (t.fq2.one - 4 * (b * a.inv()) ** (q + 1))
    val_q = project(val, t.fq)
    return val_q.i != 0 and val_q ** ((q - 1) // 2) == t.fq.one


class TestPrima:
    def test_wrong_characteristic_rejected(self, tower):
        with pytest.raises(ValueError):
            check_prima(params(tower(3, 1), 1, 1))

    def test_dual_path_oracle_exhaustive_q7(self, tower):
        t = tower(7, 1)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            assert check_prima(p) == dual_path_prima(p)
            assert check_seconda(p) == dual_path_seconda(p)

    def test_prima_instances_permute_q5(self, tower):
        t = tower(5, 1)
        found = 0
        for a, b in all_pairs(t):
            p = params(t, a, b)
            if check_prima(p):
                found += 1
                assert is_pp_direct(p).is_pp
        assert found == 6

    def test_algebraic_clause_violation(self, tower):
        # a in GF(q)*, b chosen so a^q b^q != a(b^(q+1) - a^(q+1))
        t = tower(5, 1)
        p = params(t, 1, 1)  # 1*1 != 1*(1-1) = 0
        assert not check_prima(p)


class TestSeconda:
    def test_first_clause_pins_b(self, tower):
        t = tower(7, 1)
        ctx = t.fq2
        a = ctx.elem(1)
        b_req = -(a ** (t.q - 1)) * ctx.scalar(3).inv()
        assert b_req == -ctx.scalar(3).inv()  # a in GF(q) so a^(q-1) = 1
        p_good = TrinomialParams(t, a, b_req)
        p_bad = TrinomialParams(t, a, b_req + 1)
        assert not check_seconda(p_bad)
        # the full condition on the good pair equals the direct Euler check
        assert check_seconda(p_good) == dual_path_seconda(p_good)


class TestPrimaBis:
    def test_returns_reparametrisation_witness(self, tower):
        t = tower(5, 1)
        holds, v = check_prima_bis(params(t, 5, 1))
        assert holds and v is not None and v.ctx is t.fq
        # b = v / a^2 and the quadratic relation
        p = params(t, 5, 1)
        vv = lift(v, t.fq2)
        assert p.b == vv * (p.a * p.a).inv()
        na = p.a * frobenius(p.a)
        assert vv * vv - na * vv - na**3 == 0

    def test_requires_v_in_subfield(self, tower):
        t = tower(5, 1)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            v = p.b * p.a * p.a
            if frobenius(v) != v:
                assert check_prima_bis(p) == (False, None)
                break

    @pytest.mark.parametrize("p_,h", [(5, 1), (7, 1), (11, 1)])
    def test_implies_prima_and_sets_agree(self, tower, p_, h):
        t = tower(p_, h)
        eng = ScanEngine(t)
        a, b = pair_grid(t.fq2.order)
        bis = eng.prima_bis(a, b)
        base = eng.prima(a, b)
        assert not (bis & ~base).any()  # implication
        assert (bis == base).all()  # empirical set equality, recorded data


class TestSecondaBis:
    @pytest.mark.parametrize("p_,h", [(5, 1), (7, 1), (11, 1)])
    def test_implies_seconda_and_sets_agree(self, tower, p_, h):
        t = tower(p_, h)
        eng = ScanEngine(t)
        a, b = pair_grid(t.fq2.order)
        bis = eng.seconda_bis(a, b)
        base = eng.seconda(a, b)
        assert not (bis & ~base).any()
        assert (bis == base).all()

    def test_subfield_a_forces_b(self, tower):
        # for a in GF(q)* the first clause reads b = -1/3
        t = tower(7, 1)
        ctx = t.fq2
        b_req = -ctx.scalar(3).inv()
        assert check_seconda_bis(TrinomialParams(t, ctx.elem(2), b_req)) in (True, False)
        assert not check_seconda_bis(TrinomialParams(t, ctx.elem(2), b_req + 1))


class TestSecondaTris:
    def test_excluded_point(self, tower):
        t = tower(5, 1)
        ctx = t.fq2
        a = -ctx.scalar(2) * ctx.scalar(3).inv()  # a = -2/3
        b = frobenius(a) + ctx.scalar(3).inv()
        if b.i != 0:
            assert not check_seconda_tris(TrinomialParams(t, a, b))

    def test_true_instance_matches_seconda_first_clause(self, tower):
        t = tower(5, 1)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            if check_seconda_tris(p):
                assert frobenius(p.a) + 3 * p.a * p.b == 0  # b = -a^(q-1)/3

    @pytest.mark.parametrize("p_,h", [(5, 1), (11, 1)])
    def test_implies_seconda_when_minus_three_nonsquare(self, tower, p_, h):
        t = tower(p_, h)
        assert is_square(t.fq.scalar(-3)) == SquareClass.NONSQUARE
        for a, b in all_pairs(t):
            p = params(t, a, b)
            if check_seconda_tris(p):
                assert check_seconda(p)
                assert is_pp_mu(p).is_pp

    @pytest.mark.parametrize("p_,h", [(7, 1), (13, 1)])
    def test_unconditional_implication_fails_when_minus_three_square(self, tower, p_, h):
        # Documented finding (see README): with -3 a square in
        # GF(q) every tris pair violates the seconda square clause (and none
        # of them permute, so the complete criterion is unaffected).
        t = tower(p_, h)
        assert is_square(t.fq.scalar(-3)) == SquareClass.SQUARE
        tris_pairs = [
            params(t, a, b) for a, b in all_pairs(t) if check_seconda_tris(params(t, a, b))
        ]
        assert tris_pairs, "tris instances exist at every q"
        assert all(not check_seconda(p) for p in tris_pairs)
        assert all(not is_pp_mu(p).is_pp for p in tris_pairs)

    def test_pp_and_tris_implies_seconda_everywhere(self, tower):
        for p_, h in ((5, 1), (7, 1), (11, 1), (13, 1)):
            t = tower(p_, h)
            for a, b in all_pairs(t):
                p = params(t, a, b)
                if check_seconda_tris(p) and is_pp_mu(p).is_pp:
                    assert check_seconda(p)


class TestChar2:
    def test_exhaustive_q4(self, tower):
        t = tower(2, 2)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            assert check_char2(p) == is_pp_direct(p).is_pp

    def test_exhaustive_q8_against_engine_direct(self, tower):
        t = tower(2, 3)
        eng = ScanEngine(t)
        a, b = pair_grid(t.fq2.order)
        direct = eng.pp_direct(a, b)
        for i in range(0, len(a), 17):  # per-pair path on a stride
            p = params(t, int(a[i]), int(b[i]))
            assert check_char2(p) == bool(direct[i])
        assert (eng.char2(a, b) == direct).all()

    def test_unit_norm_branch_exercised(self, tower):
        t = tower(2, 3)
        hits = 0
        for a, b in all_pairs(t):
            p = params(t, a, b)
            nb = p.b * frobenius(p.b)
            if nb == t.fq2.one:
                hits += 1
                check_char2(p)  # must evaluate the trace-of-(1 + 1/norm) branch
        assert hits > 0

    def test_wrong_characteristic(self, tower):
        with pytest.raises(ValueError):
            check_char2(params(tower(5, 1), 1, 1))


class TestChar3:
    def test_exhaustive_q3(self, tower):
        t = tower(3, 1)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            assert check_char3(p) == is_pp_direct(p).is_pp

    def test_exhaustive_q9_against_engine_direct(self, tower):
        t = tower(3, 2)
        eng = ScanEngine(t)
        a, b = pair_grid(t.fq2.order)
        direct = eng.pp_direct(a, b)
        assert (eng.char3(a, b) == direct).all()
        for i in range(0, len(a), 41):
            p = params(t, int(a[i]), int(b[i]))
            assert check_char3(p) == bool(direct[i])


class TestMainPredicate:
    def test_dispatch(self, tower):
        assert main_predicate(params(tower(2, 2), 1, 1)) == check_char2(params(tower(2, 2), 1, 1))
        assert main_predicate(params(tower(3, 1), 1, 1)) == check_char3(params(tower(3, 1), 1, 1))
        t5 = tower(5, 1)
        p = params(t5, 2, 3)
        assert main_predicate(p) == (check_prima(p) or check_seconda(p))

    def test_equals_permutation_verdict_exhaustive_q5(self, tower):
        t = tower(5, 1)
        for a, b in all_pairs(t):
            p = params(t, a, b)
            assert main_predicate(p) == is_pp_direct(p).is_pp


class TestConditionReport:
    def test_json_contains_v_only_when_bis_holds(self, tower):
        t = tower(5, 1)
        with_v = condition_report(params(t, 5, 1)).to_json()
        without = condition_report(params(t, 1, 1)).to_json()
        assert "v" in with_v and "v" not in without

    def test_characteristic_fields(self, tower):
        r2 = condition_report(params(tower(2, 2), 1, 2))
        assert r2.prima is None and r2.char2 is not None and r2.char3 is None
        r3 = condition_report(params(tower(3, 1), 1, 2))
        assert r3.char3 is not None and r3.char2 is None
        r5 = condition_report(params(tower(5, 1), 1, 2))
        assert r5.char2 is None and r5.prima is not None
