"""Field tower construction, element arithmetic, and the canonical encoding."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtri import ff
from permtri import (
    Poly,
    SquareClass,
    frobenius,
    is_prime_power,
    is_square,
    lift,
    make_field,
    mu_set,
    norm_trace,
    project,
    sqrt,
)


def brute_irreducible_quadratics(base):
    """Oracle: monic quadratics over `base` without roots, in lex order
    (highest non-leading coefficient first, coefficients by index)."""
    found = []
    for c1, c0 in itertools.product(range(base.order), repeat=2):
        has_root = any(
            (x * x + base.elem(c1) * x + base.elem(c0)).i == 0 for x in base.elements()
        )
        if not has_root:
            found.append((c0, c1, 1))
    return found


class TestMakeField:
    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            make_field(4, 1)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            make_field(5, 0)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="exceeds"):
            make_field(2503, 1)  # 2503^2 = 6 265 009 > DEFAULT_MAX_ORDER

    def test_size_bound_checked_before_primality(self, monkeypatch):
        monkeypatch.setattr(ff, "is_prime", lambda n: pytest.fail("primality tested before the size bound"))
        with pytest.raises(ValueError, match=r"^field size 1000000000000000003\^2 exceeds"):
            make_field(1000000000000000003, 1)
        with pytest.raises(ValueError, match=r"^field size 3\^20000000 exceeds"):
            make_field(3, 10**7)

    def test_same_field_gives_the_identical_tower(self):
        assert make_field(5, 2) is make_field(5, 2)
        assert make_field(5, 2) is not make_field(5, 1)

    def test_memo_is_bounded_at_two_towers(self):
        assert make_field.cache_info().maxsize == 2
        make_field.cache_clear()
        first = make_field(3, 2)
        assert make_field(2, 2) is make_field(2, 2)  # one other field keeps it
        assert make_field(3, 2) is first
        for p, h in ((2, 1), (3, 1)):
            make_field(p, h)
        assert make_field.cache_info().currsize == 2
        again = make_field(3, 2)
        assert again is not first
        for old, new in zip(_layers(first), _layers(again)):
            for name in ("np_exp2", "np_log", "np_neg", "np_inv", "np_add", "np_mul", "np_zech"):
                assert np.array_equal(getattr(old, name), getattr(new, name))
        assert np.array_equal(first.fq2.np_frob, again.fq2.np_frob)

    def test_acceptance_shares_the_memo(self):
        from permtri import acceptance

        assert acceptance._tower is make_field
        # an engine holds its tower, so the engines are bounded alike
        assert acceptance._engine.cache_info().maxsize == make_field.cache_info().maxsize

    def test_rejected_arguments_are_not_cached(self):
        make_field.cache_clear()
        for bad in ((4, 1), (5, 0), (2503, 1)):
            with pytest.raises(ValueError):
                make_field(*bad)
        assert make_field.cache_info().currsize == 0

    @pytest.mark.parametrize("p,h", [(5, 2), (59, 1)])
    def test_shared_tables_are_read_only(self, p, h):
        # one caller's write would reach every later user of the tower
        for ctx in _layers(make_field(p, h)):
            names = ["np_exp2", "np_log", "np_neg", "np_inv", "np_zech"]
            if ctx.np_add is not None:
                names += ["np_add", "np_mul"]
            if ctx.level == "Fq2":
                names += ["np_frob", "np_norm", "np_mu"]
            for name in names:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(ctx, name)[0] = 1
            for name in _scalar_tables(ctx):
                with pytest.raises(TypeError, match="read-only"):
                    getattr(ctx, name)[0] = 1

    def test_every_numpy_table_is_frozen(self):
        # an unmemoised tower: vars() would slow the memoised one's scalar ops
        for ctx in _layers(make_field.__wrapped__(5, 2)):
            tables = {name for name, value in vars(ctx).items() if isinstance(value, np.ndarray)}
            assert tables <= set(ff._NP_TABLES)
            # each scalar table is a read-only view of a numpy table, no copy
            views = {name: value for name, value in vars(ctx).items() if isinstance(value, memoryview)}
            assert set(views) == set(_scalar_tables(ctx))
            for view in views.values():
                assert view.readonly and any(view.obj is vars(ctx)[name] for name in tables)

    @pytest.mark.slow
    def test_tower_heap_at_q317(self):
        """A tower holds each table once, as a numpy array: its retained
        heap (tracemalloc) at q = 317 stays under 8 MiB.  Measured: 3.5 MiB;
        a Python list of one 100 489-entry table would add about 3.5 MiB."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = make_field.__wrapped__(317, 1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert t.fq2.order == 317**2
        assert held < 8 * 2**20, f"retained heap {held / 2**20:.1f} MiB"

    def test_f25_canonical_modulus(self, tower):
        # enumeration oracle: first monic quadratic over GF(5) with no root
        t = tower(5, 1)
        assert t.fq is t.fp
        assert t.fq2.modulus == brute_irreducible_quadratics(t.fq)[0] == (2, 0, 1)

    @pytest.mark.parametrize("p,h", [(3, 1), (7, 1), (3, 2), (2, 2)])
    def test_top_modulus_is_lex_smallest(self, tower, p, h):
        t = tower(p, h)
        assert t.fq2.modulus == brute_irreducible_quadratics(t.fq)[0]

    @pytest.mark.parametrize("p,h", [(2, 1), (2, 4), (3, 3), (13, 1)])
    def test_layer_sizes(self, tower, p, h):
        t = tower(p, h)
        assert (t.p, t.q, t.fq2.order) == (p, p**h, p ** (2 * h))
        assert len(list(t.fq2.elements())) == p ** (2 * h)

    @pytest.mark.parametrize("p,h", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
    def test_distinguished_element(self, tower, p, h):
        t = tower(p, h)
        e = t.fq2.e
        assert e is not None and e.i != 0
        assert frobenius(e) == -e
        assert project(e * e, t.fq)  # e^2 lands in GF(q)

    def test_char2_has_no_distinguished_element(self, tower):
        assert tower(2, 2).fq2.e is None

    def test_degree_four_modulus_has_no_small_factor(self, tower):
        # a reducible monic quartic over GF(2) would have a root inside the
        # embedded GF(4) = {x : x^4 = x}; the canonical modulus must not
        t = tower(2, 4)
        fq = t.fq
        from permtri import Poly

        f = Poly(fq, [fq.scalar(c) for c in t.fq.modulus])
        small = [x for x in fq.elements() if x**4 == x]
        assert len(small) == 4
        assert all(f(x).i != 0 for x in small)


class TestElemArithmetic:
    @given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
    @settings(max_examples=200, deadline=None)
    def test_field_axioms_f49(self, i, j, k):
        ctx = _T49.fq2
        x, y, z = ctx.elem(i), ctx.elem(j), ctx.elem(k)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert (x + y) * z == x * z + y * z
        assert x + (-x) == ctx.zero
        if x.i:
            assert x * x.inv() == ctx.one
            assert x ** (ctx.order - 1) == ctx.one  # Lagrange

    def test_inv_of_one_and_zero(self, tower):
        ctx = tower(5, 1).fq2
        assert ctx.one.inv() == ctx.one
        with pytest.raises(ZeroDivisionError):
            ctx.zero.inv()

    def test_context_mismatch(self, tower):
        a = tower(5, 1).fq2.elem(3)
        b = tower(7, 1).fq2.elem(3)
        with pytest.raises(ValueError, match="context mismatch"):
            a + b

    def test_mul_inv_roundtrip_random(self, tower):
        ctx = tower(5, 1).fq2
        rng = random.Random(11)
        for _ in range(100):
            x = ctx.elem(rng.randrange(1, ctx.order))
            assert x * x.inv() == ctx.one

    def test_pow_matches_square_and_multiply(self, tower):
        # the log-table power must agree with an independent ladder
        ctx = tower(7, 1).fq2
        rng = random.Random(3)
        for _ in range(60):
            x = ctx.elem(rng.randrange(ctx.order))
            k = rng.randrange(0, 3 * ctx.order)
            acc, base, kk = ctx.one, x, k
            while kk:
                if kk & 1:
                    acc = acc * base
                base = base * base
                kk >>= 1
            assert x**k == acc

    def test_pow_rejects_negative(self, tower):
        with pytest.raises(ValueError):
            tower(5, 1).fq2.elem(2) ** -1

    def test_int_coercion_is_scalar(self, tower):
        ctx = tower(5, 1).fq2
        assert ctx.elem(1) + 4 == ctx.zero  # 1 + 4 = 5 = 0 in GF(5) <= GF(25)
        assert 3 * ctx.one == ctx.scalar(3)


class TestEncoding:
    @pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (2, 3)])
    def test_coeffs_roundtrip_bijection(self, tower, p, h):
        for ctx in _layers(tower(p, h)):
            for x in ctx.elements():
                assert len(x.coeffs()) == ctx.degree
                assert _index(ctx, x.coeffs()) == x.i

    def test_subfield_lift_preserves_index(self, tower):
        t = tower(3, 2)
        for u in t.fq.elements():
            assert lift(u, t.fq2).i == u.i
            assert project(lift(u, t.fq2), t.fq) == u

    def test_project_rejects_outsiders(self, tower):
        t = tower(5, 1)
        with pytest.raises(ArithmeticError):
            project(t.fq2.e, t.fq)


class TestFrobenius:
    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2), (2, 2), (2, 3), (5, 2)])
    def test_matches_generic_power_exhaustively(self, tower, p, h):
        t = tower(p, h)
        q = t.q
        for x in t.fq2.elements():
            assert frobenius(x) == x**q

    def test_fixes_subfield(self, tower):
        t = tower(5, 1)
        for u in t.fq.elements():
            assert frobenius(lift(u, t.fq2)) == lift(u, t.fq2)

    def test_order_two(self, tower):
        ctx = tower(7, 1).fq2
        rng = random.Random(5)
        for _ in range(100):
            x = ctx.elem(rng.randrange(ctx.order))
            assert frobenius(frobenius(x)) == x

    def test_requires_top_layer(self, tower):
        with pytest.raises(ValueError):
            frobenius(tower(5, 1).fq.elem(2))


class TestNormTrace:
    def test_unit_values(self, tower):
        t = tower(5, 1)
        n, tr = norm_trace(t.fq2.one)
        assert n == t.fq.one and tr == t.fq.scalar(2)

    def test_norm_of_e(self, tower):
        t = tower(5, 1)
        e = t.fq2.e
        n, _ = norm_trace(e)
        assert lift(n, t.fq2) == -(e * e)

    def test_multiplicative(self, tower):
        ctx = tower(3, 2).fq2
        rng = random.Random(7)
        for _ in range(100):
            x, y = ctx.elem(rng.randrange(ctx.order)), ctx.elem(rng.randrange(ctx.order))
            nx, _ = norm_trace(x)
            ny, _ = norm_trace(y)
            nxy, _ = norm_trace(x * y)
            assert nxy == nx * ny

    @pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (13, 1)])
    def test_fibers_have_size_q_plus_one(self, tower, p, h):
        t = tower(p, h)
        fibers = {}
        for x in t.fq2.elements():
            if x.i == 0:
                continue
            n, _ = norm_trace(x)
            fibers[n.i] = fibers.get(n.i, 0) + 1
        assert set(fibers) == set(range(1, t.q))  # onto GF(q)*
        assert set(fibers.values()) == {t.q + 1}


class TestSquares:
    def test_one_is_square(self, tower):
        assert is_square(tower(5, 1).fq.one) == SquareClass.SQUARE

    def test_generator_is_nonsquare(self, tower):
        fq = tower(7, 1).fq
        assert is_square(fq.elem(fq.generator_idx)) == SquareClass.NONSQUARE

    def test_three_mod_five_nonsquare_by_enumeration(self, tower):
        fq = tower(5, 1).fq
        squares = {(x * x).i for x in fq.elements()}
        assert squares == {0, 1, 4}
        assert 3 not in squares
        assert is_square(fq.elem(3)) == SquareClass.NONSQUARE

    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2)])
    def test_square_count(self, tower, p, h):
        fq = tower(p, h).fq
        n_sq = sum(is_square(x) == SquareClass.SQUARE for x in fq.elements())
        assert n_sq == (fq.order - 1) // 2

    def test_char2_total(self, tower):
        fq = tower(2, 2).fq
        for x in fq.elements():
            expected = SquareClass.ZERO if x.i == 0 else SquareClass.SQUARE
            assert is_square(x) == expected


class TestSqrt:
    def test_zero(self, tower):
        ctx = tower(5, 1).fq
        assert sqrt(ctx.zero) == ctx.zero

    @pytest.mark.parametrize("p,h", [(5, 1), (3, 2), (2, 3)])
    def test_roundtrip_and_canonical_choice(self, tower, p, h):
        ctx = tower(p, h).fq2
        for x in ctx.elements():
            r = sqrt(x * x)
            assert r is not None and r * r == x * x
            assert r.i == min(x.i, (-x).i)

    def test_nonsquare_gives_none(self, tower):
        ctx = tower(7, 1).fq
        for x in ctx.elements():
            want_none = is_square(x) == SquareClass.NONSQUARE
            assert (sqrt(x) is None) == want_none


class TestMuSet:
    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (3, 2), (2, 2)])
    def test_exactly_the_q_plus_one_roots_of_unity(self, tower, p, h):
        t = tower(p, h)
        ctx = t.fq2
        mu = mu_set(ctx)
        assert len(mu) == t.q + 1
        members = {x.i for x in mu}
        for x in ctx.elements():
            assert (x.i in members) == (x ** (t.q + 1) == ctx.one)

    def test_contains_plus_minus_one(self, tower):
        ctx = tower(5, 1).fq2
        ids = {x.i for x in mu_set(ctx)}
        assert ctx.one.i in ids and (-ctx.one).i in ids

    def test_closed_under_inverse_and_frobenius(self, tower):
        ctx = tower(7, 1).fq2
        ids = {x.i for x in mu_set(ctx)}
        for x in mu_set(ctx):
            assert x.inv().i in ids
            assert frobenius(x).i in ids
            assert frobenius(x) * x == ctx.one

    def test_canonical_order(self, tower):
        idx = [x.i for x in mu_set(tower(5, 1).fq2)]
        assert idx == sorted(idx) == [1, 4, 7, 8, 22, 23]


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(49) == (7, 2)
    assert is_prime_power(13) == (13, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_trial_division_against_the_definitions():
    primes = [n for n in range(5001) if n >= 2 and all(n % d for d in range(2, n))]
    powers = {p**k: (p, k) for p in primes for k in range(1, 13) if p**k <= 5000}
    assert [n for n in range(5001) if ff.is_prime(n)] == primes
    assert all(is_prime_power(n) == powers.get(n) for n in range(5001))
    # the first factor ends the search: no trial division up to sqrt(n)
    assert ff.is_prime(2 * 1000000000000000003) is False
    assert ff.is_prime(3 * 1000000000000000003) is False


def test_capped_pow():
    assert ff.capped_pow(3, 4, 81) == 81
    assert ff.capped_pow(3, 5, 81) > 81
    assert ff.capped_pow(2, 10**12, 100) > 100  # stops once past the cap
    assert ff.capped_pow(1, 10**12, 5) == 1
    assert ff.capped_pow(-1, 10**12 + 1, 5) == -1
    assert ff.capped_pow(7, 0, 5) == 1


# Towers whose every layer the table oracles below walk: GF(2) itself, a
# degree-4 layer, p = 3 on two levels, and a top layer past the dense limit.
ORACLE_FIELDS = [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1), (59, 1)]
# Towers the dense-table and generator tests add: GF(8) and GF(27), three
# digits over GF(p), and GF(256), eight.
DIGIT_FIELDS = [(2, 3), (3, 3), (2, 8)]
# Under the slow marker, every tower of the orbit selftest's range
# 47 <= q <= 127 and q = 251, 256 and 317 but those listed above (q = 59, 256).
SLOW_TOWERS = [
    pytest.param(*ff.is_prime_power(q), marks=pytest.mark.slow)
    for q in [*range(47, 128), 251, 256, 317]
    if ff.is_prime_power(q) and ff.is_prime_power(q) not in ORACLE_FIELDS + DIGIT_FIELDS
]


def _layers(t):
    return list(dict.fromkeys((t.fp, t.fq, t.fq2)))


def _scalar_tables(ctx):
    """The tables the scalar ops index, by attribute name."""
    return ["_exp", "_log", "_neg", "_inv", "_zech"] + (["_frob", "mu_indices"] if ctx.level == "Fq2" else [])


def _oracle_mul(ctx, x: int, y: int) -> int:
    """x * y on `ctx` without its tables: integers mod p on GF(p), else the
    product of the coefficient polynomials over the layer below (upoly.Poly)
    modulo the layer's modulus."""
    if ctx.base is None:
        return x * y % ctx.p
    prod = Poly(ctx.base, ctx.elem(x).coeffs()) * Poly(ctx.base, ctx.elem(y).coeffs())
    rem = prod % Poly.from_indices(ctx.base, ctx.modulus)
    return _index(ctx, [rem.coeff(k) for k in range(ctx.degree)])


def _index(ctx, coeffs) -> int:
    """The index of the element of `ctx` with these coefficients over the
    layer below, lowest power first (on GF(p) the one int): the base-B
    number of the coefficients' indices, each below the order B of that
    layer."""
    order = ctx.p if ctx.base is None else ctx.base.order
    digits = [c if ctx.base is None else c.i for c in coeffs]
    assert all(0 <= d < order for d in digits)
    return sum(d * order**k for k, d in enumerate(digits))


class TestTablesAgainstOracles:
    """Every layer, GF(p) included, comes from one builder.  Each table it
    derives is pinned here to arithmetic that does not go through it."""

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS)
    def test_negation_cancels_under_the_coordinate_add(self, tower, p, h):
        # mod p on GF(p), coordinate-wise through the layer below elsewhere
        for ctx in _layers(tower(p, h)):
            x = np.arange(ctx.order)
            assert not ctx._coord_add(x, ctx.np_neg[x]).any()
            assert not ctx.vadd(x, ctx.np_neg[x]).any()
            assert ctx._neg.tolist() == ctx.np_neg.tolist()

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS)
    def test_coord_mul_is_the_polynomial_product(self, tower, p, h):
        # every pair on layers of at most 256 elements, 2 000 seeded pairs
        # on GF(625) and on GF(59^2) past the dense limit: the oracle costs
        # 20-35 us a pair, so every pair of GF(625) would take 8-13 s
        rng = np.random.default_rng(100 * p + h)
        for ctx in _layers(tower(p, h)):
            n = ctx.order
            if n <= 256:
                x, y = np.divmod(np.arange(n * n), n)
            else:
                x, y = rng.integers(0, n, size=(2, 2000))
            want = [_oracle_mul(ctx, i, j) for i, j in zip(x.tolist(), y.tolist())]
            assert ctx._coord_mul(x, y).tolist() == want

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS + DIGIT_FIELDS + SLOW_TOWERS)
    def test_dense_tables_on_every_pair(self, tower, p, h):
        # the broadcast add and the in-place mul gather against the
        # coordinate ops, which _coord_mul's test above pins to upoly, on
        # every pair of every dense layer, a window of about 2^18 pairs
        # (whole x-rows) at a time
        dense = [ctx for ctx in _layers(tower(p, h)) if ctx.np_add is not None]
        assert dense and all(ctx.np_mul is not None for ctx in dense)
        for ctx in dense:
            n = ctx.order
            rows = max(1, (1 << 18) // n)
            for table, oracle in ((ctx.np_add, ctx._coord_add), (ctx.np_mul, ctx._coord_mul)):
                assert table.dtype == np.int16 and table.shape == (n, n)
                for lo in range(0, n, rows):
                    x, y = np.divmod(np.arange(lo * n, min(lo + rows, n) * n), n)
                    assert np.array_equal(table[lo : lo + rows].ravel(), oracle(x, y))

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS)
    def test_exp_steps_by_the_generator(self, tower, p, h):
        for ctx in _layers(tower(p, h)):
            n1, g = ctx.order - 1, ctx.generator_idx
            exp = ctx._exp.tolist()
            assert exp == ctx.np_exp2.tolist() and exp[0] == 1 and exp[:n1] == exp[n1:]
            assert exp[1:n1] + [1] == [_oracle_mul(ctx, e, g) for e in exp[:n1]]
            assert [ctx._log[e] for e in exp[:n1]] == list(range(n1))

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS)
    def test_zech_is_the_log_of_one_plus_each_power(self, tower, p, h):
        # log(1 + g^k) through the coordinate add, not vadd or the table
        # itself; -1 exactly where 1 + g^k = 0 (k = 0 when p = 2)
        for ctx in _layers(tower(p, h)):
            n1 = ctx.order - 1
            ones = ctx._coord_add(np.ones(n1, dtype=np.int64), ctx.np_exp2[:n1])
            want = np.where(ones == 0, -1, ctx.np_log[ones])
            assert ctx.np_zech.tolist() == ctx._zech.tolist() == want.tolist()
            assert (ctx.np_zech == -1).sum() == 1
            assert ctx._zech.tolist().index(-1) == (0 if p == 2 else n1 // 2)

    @pytest.mark.parametrize("p,h", ORACLE_FIELDS + DIGIT_FIELDS + SLOW_TOWERS)
    def test_generator_is_the_least_index_of_full_order(self, tower, p, h):
        # The exp table is pinned to the powers of g above, so g has order
        # n - 1 iff they are distinct, and x = g^k has order (n-1)/gcd(k, n-1);
        # the log table inverts it, and g lies outside the layer below
        for ctx in _layers(tower(p, h)):
            n1, g = ctx.order - 1, ctx.generator_idx
            assert len(set(ctx._exp.tolist()[:n1])) == n1
            assert np.array_equal(ctx.np_log[ctx.np_exp2[:n1]], np.arange(n1))
            assert ctx.base is None or g >= ctx.base.order
            assert all(math.gcd(ctx._log[x], n1) > 1 for x in range(1, g))
        # on GF(p), against the primitive roots found by listing powers
        roots = [x for x in range(1, p) if len({pow(x, k, p) for k in range(p - 1)}) == p - 1]
        assert tower(p, h).fp.generator_idx == roots[0]


VECTOR_OPS = ("vadd", "vsub", "vmul")


def _scalar_op(ctx, op):
    """The scalar twin of a vector op: the Zech/log-table reference."""
    return {"vadd": ctx.add_i, "vsub": ctx.sub_i, "vmul": ctx.mul_i}[op]


class TestVectorOps:
    """The vector ops against the scalar ops, inside the dense limit (one
    flat gather) and past it (coordinate add, log/exp multiply)."""

    @pytest.mark.parametrize("p,h", [(2, 2), (3, 2), (5, 1), (7, 1)])
    def test_match_scalar_ops_on_every_pair(self, tower, p, h):
        t = tower(p, h)
        for ctx in _layers(t):
            x, y = np.divmod(np.arange(ctx.order**2), ctx.order)
            for op in VECTOR_OPS:
                f = _scalar_op(ctx, op)
                assert getattr(ctx, op)(x, y).tolist() == [f(i, j) for i, j in zip(x.tolist(), y.tolist())]

    @pytest.mark.parametrize("p,h", [(59, 1), (2, 6), (3, 4)])
    def test_match_scalar_ops_past_the_dense_limit(self, tower, p, h):
        t = tower(p, h)
        ctx = t.fq2
        assert ctx.np_add is None and ctx.np_mul is None and t.fq.np_add is not None
        rng = np.random.default_rng(p**h)
        x, y = rng.integers(0, ctx.order, (2, 20_000))
        x[:100], y[50:150] = 0, 0  # zero operands, one side and both
        for op in VECTOR_OPS:
            f = _scalar_op(ctx, op)
            assert getattr(ctx, op)(x, y).tolist() == [f(i, j) for i, j in zip(x.tolist(), y.tolist())]

    @pytest.mark.parametrize("p,h", [(7, 1), (59, 1)])
    @pytest.mark.parametrize("op", VECTOR_OPS)
    def test_broadcasts_scalars_and_dtypes(self, tower, p, h, op):
        ctx = tower(p, h).fq2
        f = getattr(ctx, op)
        rng = np.random.default_rng(7)
        x, y = rng.integers(0, ctx.order, 30), rng.integers(0, ctx.order, 40)
        x[0], y[0] = 0, 0
        scalar = _scalar_op(ctx, op)
        want = np.array([[scalar(i, j) for j in y.tolist()] for i in x.tolist()])
        for dx, dy in itertools.product((np.int32, np.int64), repeat=2):
            got = f(x.astype(dx)[:, None], y.astype(dy)[None, :])
            assert got.shape == (30, 40)
            assert (got == want).all()
        # 0-d arrays and np.int64 scalars (the engine's constants), either side
        i, j = int(x[3]), int(y[5])
        for k in (np.int64(i), np.asarray(i)):
            assert (f(k, y) == want[3]).all()
        for k in (np.int64(j), np.asarray(j)):
            assert (f(x, k) == want[:, 5]).all()
        assert f(np.int64(i), np.asarray(j)) == want[3, 5]

    @pytest.mark.parametrize("p,h", [(7, 1), (59, 1)])
    def test_gather_in_blocks(self, tower, monkeypatch, p, h):
        # 7-cell blocks end mid-row; transposed operands are not contiguous
        monkeypatch.setattr(ff, "_GATHER_BLOCK", 7)
        ctx = tower(p, h).fq2
        x, y = np.random.default_rng(11).integers(0, ctx.order, (2, 12, 10))
        x[0], y[:, 0] = 0, 0
        for op in VECTOR_OPS:
            f = _scalar_op(ctx, op)
            want = [[f(i, j) for i, j in zip(r, s)] for r, s in zip(x.T.tolist(), y.T.tolist())]
            assert getattr(ctx, op)(x.T, y.T).tolist() == want

    @pytest.mark.parametrize("p,h", [(7, 1), (59, 1)])
    @pytest.mark.parametrize("op", [*VECTOR_OPS, "vpow"])
    def test_out_of_range_operand_raises(self, tower, p, h, op):
        ctx = tower(p, h).fq2
        f = getattr(ctx, op)
        good = np.array([0, 1, ctx.order - 1])
        for bad in (ctx.order, -1):
            for dtype in (np.int32, np.int64):
                arr = good.astype(dtype)
                arr[1] = bad
                if op == "vpow":  # the exponent is a plain int
                    operands = ((arr, 2), (bad, 2), (np.int64(bad), 0))
                else:
                    operands = ((arr, good), (good, arr), (bad, 1), (1, np.int64(bad)))
                for x, y in operands:
                    with pytest.raises(IndexError):
                        f(x, y)

    @pytest.mark.parametrize("p,h", [(5, 2), (257, 1)])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    def test_narrow_negative_operand_raises(self, tower, p, h, dtype):
        # viewed unsigned, int8 -1 is 255 and int16 -1 is 65535, both below
        # the order 66049 of GF(257^2); widened first, -1 raises as in int64
        ctx = tower(p, h).fq2
        good = np.array([0, 1, 100], dtype=dtype)
        bad = good.copy()
        bad[1] = -1
        for op in (*VECTOR_OPS, "vpow"):
            f = getattr(ctx, op)
            operands = ((bad, 2),) if op == "vpow" else ((bad, good), (good, bad))
            for x, y in operands:
                with pytest.raises(IndexError):
                    f(x, y)
            y = 2 if op == "vpow" else good
            assert f(good, y).tolist() == f(good.astype(np.int64), y).tolist()

    def test_table_names_the_benchmark_reads(self):
        # perfbench names its ff.v*.dense / .logexp spans from np_add and
        # np_mul, and sizes the dense tables from _DENSE_TABLE_CELLS
        assert ff._DENSE_TABLE_CELLS == 8_000_000
        dense, past = make_field(5, 2).fq2, make_field(59, 1).fq2
        assert dense.np_add.shape == dense.np_mul.shape == (625, 625)
        x, y = np.divmod(np.arange(625 * 625), 625)
        assert (dense.np_add.ravel() == dense.vadd(x, y)).all()
        assert (dense.np_mul.ravel() == dense.vmul(x, y)).all()
        assert past.np_add is None and past.np_mul is None


class TestTakeInPlace:
    """_take_in_place is table[idx]: one np.take up to _GATHER_BLOCK cells,
    past it one per block, written over idx."""

    BLOCK = ff._GATHER_BLOCK

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("table_dtype", [np.int32, np.int16])
    def test_equals_fancy_indexing(self, size, table_dtype):
        rng = np.random.default_rng(size)
        table = rng.integers(-(1 << 14), 1 << 14, 5000).astype(table_dtype)
        idx = rng.integers(0, len(table), size, dtype=np.int32)
        idx[:2] = 0, len(table) - 1
        want = table[idx]
        got = ff._take_in_place(table, idx)
        assert got.shape == want.shape and (got == want).all()
        strided = rng.integers(0, len(table), 2 * size, dtype=np.int32)[::2]
        assert not strided.flags.c_contiguous
        want = table[strided]
        assert (ff._take_in_place(table, strided) == want).all()

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_result_is_int32_on_both_paths(self, size):
        # an int16 table (pp_mu's ZECH_W) must not give int16 results from
        # small gathers and int32 results from blocked ones
        table = np.arange(-2500, 2500, dtype=np.int16)
        idx = np.arange(size, dtype=np.int32) % len(table)
        got = ff._take_in_place(table, idx)
        assert got.dtype == np.int32
        assert (got == table[np.arange(size) % len(table)]).all()

    @pytest.mark.parametrize("size", [BLOCK - 1, BLOCK + 1])
    def test_dense_int16_tables_give_int32(self, size):
        # GF(625)'s int16 add and mul tables, through one take and in blocks
        ctx = make_field(5, 2).fq2
        assert ctx.np_add.dtype == ctx.np_mul.dtype == np.int16
        x, y = np.divmod(np.arange(size) % ctx.order**2, ctx.order)
        for op, table in ((ctx.vadd, ctx.np_add), (ctx.vmul, ctx.np_mul)):
            got = op(x, y)
            assert got.dtype == np.int32
            assert (got == table[x, y]).all()

    @pytest.mark.parametrize("size", [BLOCK, 3 * BLOCK + 5])
    def test_out_of_range_index_raises(self, size):
        table = np.arange(5000, dtype=np.int32)
        for bad in (len(table), 1 << 30):
            idx = np.zeros(size, dtype=np.int32)
            idx[-1] = bad  # in the last block past one block
            with pytest.raises(IndexError):
                ff._take_in_place(table, idx)


_T49 = make_field(7, 1)
