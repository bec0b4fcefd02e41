"""Bivariate polynomials, the collision curves, and factorisation witnesses.

The two cubics attached to a parameter pair (a, b),

    N = a^q X^3 + X^2 + b^q      D = b X^3 + X + a,

drive everything here: their GCD degree classifies the pair, their
difference quotient

    F(X, Y) = (N(X) D(Y) - N(Y) D(X)) / (X - Y)

is a symmetric quartic whose off-diagonal zeros on the (q+1)-st roots of
unity are exactly the collisions of the induced map, and the substitution
psi(X, Y) = ((X+e)/(X-e), (Y+e)/(Y-e)) with e^q = -e turns it into a curve
G over GF(q) after clearing (X-e)^2 (Y-e)^2.  The inverse transform
phi(X, Y) = (e(X+1)/(X-1), e(Y+1)/(Y-1)) satisfies

    (X-1)^2 (Y-1)^2 G(phi(X, Y)) = 16 e^4 F(X, Y)

identically, which verify_iso_identity checks by full expansion.

Factorisation-pattern witnesses search GF(q^2) only; a pattern whose
constants live in a proper quadratic extension is reported as "none" with a
note to that effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ff import Elem, FieldCtx, frobenius, is_prime_power, lift, project
from .perm import TrinomialParams
from .upoly import Poly, poly_gcd, resultant, roots, values

__all__ = [
    "BivarPoly",
    "CurvePair",
    "FactorWitness",
    "ResultantComparison",
    "build_numden",
    "gcd_degree",
    "build_curves",
    "psi_point",
    "phi_point",
    "verify_iso_identity",
    "count_points_off_diag",
    "hasse_weil_ok",
    "resultant_vs_closed_form",
    "four_line_witness",
    "conic_witnesses",
]


class BivarPoly:
    """Sparse bivariate polynomial: {(deg_x, deg_y): Elem}, no zero terms."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for key, c in dict(terms).items():
                if isinstance(c, int):
                    c = ctx.scalar(c)
                if c.ctx is not ctx:
                    raise ValueError("context mismatch")
                if c.i != 0:
                    self.terms[(int(key[0]), int(key[1]))] = c

    def coeff(self, i: int, j: int) -> Elem:
        return self.terms.get((i, j), self.ctx.zero)

    def coeff_grid(self, size: int) -> list[list[int]]:
        """Coefficient indices [i][j] of X^i Y^j for i, j < size."""
        return [[self.coeff(i, j).i for j in range(size)] for i in range(size)]

    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms

    def _merge(self, other: BivarPoly, sign: int) -> BivarPoly:
        if other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            val = c if sign > 0 else -c
            val = val if s is None else s + val
            if val.i == 0:
                out.pop(key, None)
            else:
                out[key] = val
        res = BivarPoly(self.ctx)
        res.terms = out
        return res

    def __add__(self, other: BivarPoly) -> BivarPoly:
        return self._merge(other, 1)

    def __sub__(self, other: BivarPoly) -> BivarPoly:
        return self._merge(other, -1)

    def __neg__(self) -> BivarPoly:
        return self.scale(-self.ctx.one)

    def scale(self, c: Elem) -> BivarPoly:
        if c.i == 0:
            return BivarPoly(self.ctx)
        res = BivarPoly(self.ctx)
        res.terms = {k: v * c for k, v in self.terms.items()}
        return res

    def __mul__(self, other: BivarPoly) -> BivarPoly:
        if other.ctx is not self.ctx:
            raise ValueError("context mismatch")
        out: dict[tuple[int, int], Elem] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                v = c1 * c2
                s = out.get(key)
                v = v if s is None else s + v
                if v.i == 0:
                    out.pop(key, None)
                else:
                    out[key] = v
        res = BivarPoly(self.ctx)
        res.terms = out
        return res

    def __call__(self, x: Elem, y: Elem) -> Elem:
        xp = _powers(x, self.deg_x())
        yp = _powers(y, self.deg_y())
        acc = self.ctx.zero
        for (i, j), c in self.terms.items():
            acc = acc + c * xp[i] * yp[j]
        return acc

    def lift_to(self, ext: FieldCtx) -> BivarPoly:
        res = BivarPoly(ext)
        res.terms = {k: lift(c, ext) for k, c in self.terms.items()}
        return res

    def dump(self) -> str:
        """Stable debug form: one "(i,j): index" line per term, sorted."""
        return "\n".join(f"({i},{j}): {c.i}" for (i, j), c in sorted(self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __repr__(self):
        return f"BivarPoly(GF({self.ctx.order}), {{{self.dump().replace(chr(10), ', ')}}})"


def _powers(x: Elem, n: int) -> list[Elem]:
    out = [x.ctx.one]
    for _ in range(max(n, 0)):
        out.append(out[-1] * x)
    return out


def _outer(px: Poly, py: Poly) -> BivarPoly:
    """px(X) * py(Y) as a bivariate polynomial."""
    out = BivarPoly(px.ctx)
    for i, cx in enumerate(px.coeffs):
        if cx.i == 0:
            continue
        for j, cy in enumerate(py.coeffs):
            v = cx * cy
            if v.i != 0:
                out.terms[(i, j)] = v
    return out


def _exact_div_x_minus_y(P: BivarPoly) -> BivarPoly:
    """Exact quotient P / (X - Y); raises if the remainder is nonzero."""
    ctx = P.ctx
    d = P.deg_x()
    rows: list[dict[int, Elem]] = [{} for _ in range(d + 1)]
    for (i, j), c in P.terms.items():
        rows[i][j] = c
    carry = dict(rows[d]) if d >= 0 else {}
    quot: dict[tuple[int, int], Elem] = {}
    for i in range(d - 1, -1, -1):
        for j, c in carry.items():
            quot[(i, j)] = c
        nxt = {j + 1: c for j, c in carry.items()}
        for j, c in rows[i].items():
            s = nxt.get(j)
            s = c if s is None else s + c
            if s.i == 0:
                nxt.pop(j, None)
            else:
                nxt[j] = s
        carry = nxt
    if carry:
        raise ArithmeticError("division by X - Y left a remainder (arithmetic bug)")
    res = BivarPoly(ctx)
    res.terms = quot
    return res


# ------------------------------------------------------------ constructions


def build_numden(params: TrinomialParams) -> tuple[Poly, Poly]:
    """The cubic numerator and denominator of the induced map."""
    ctx = params.tower.fq2
    a, b = params.a, params.b
    N = Poly(ctx, [frobenius(b), ctx.zero, ctx.one, frobenius(a)])
    D = Poly(ctx, [a, ctx.one, ctx.zero, b])
    return N, D


def gcd_degree(params: TrinomialParams) -> int:
    """deg gcd(N, D) in {0, 1, 2}; degree 3 would mean proportional cubics."""
    N, D = build_numden(params)
    d = poly_gcd(N, D).degree
    if d > 2:  # pragma: no cover
        raise ArithmeticError("GCD degree 3 is impossible for nonzero a, b")
    return d


def _collision_poly(params: TrinomialParams) -> BivarPoly:
    N, D = build_numden(params)
    P = _outer(N, D) - _outer(D, N)
    F = _exact_div_x_minus_y(P)
    if F.deg_x() > 2 or F.deg_y() > 2 or F.total_degree() > 4:  # pragma: no cover
        raise ArithmeticError("collision curve has unexpected degree")
    return F


@dataclass(frozen=True)
class CurvePair:
    """The collision quartic F over GF(q^2) and its GF(q) form G."""

    params: TrinomialParams
    F: BivarPoly
    G: BivarPoly
    e: Elem

    def lift_G(self) -> BivarPoly:
        return self.G.lift_to(self.params.tower.fq2)


def _psi_clear_basis(e: Elem) -> tuple[Poly, Poly, Poly]:
    # (T+e)^i (T-e)^(2-i) for i = 0, 1, 2
    ctx = e.ctx
    plus = Poly(ctx, [e, ctx.one])
    minus = Poly(ctx, [-e, ctx.one])
    return (minus * minus, plus * minus, plus * plus)


def build_curves(params: TrinomialParams) -> CurvePair:
    """Construct F and its GF(q)-rational companion G.

    G is obtained by substituting psi and clearing (X-e)^2 (Y-e)^2; every
    coefficient must land in GF(q) and is projected there, anything else
    raises.
    """
    if params.tower.p == 2:
        raise ValueError("curve construction requires odd characteristic")
    return _curves_of(params, _collision_poly(params))


def _curves_of(params: TrinomialParams, F: BivarPoly) -> CurvePair:
    """build_curves given F = _collision_poly(params), in odd characteristic."""
    tower = params.tower
    ctx = tower.fq2
    e = ctx.e
    basis = _psi_clear_basis(e)
    G_top = BivarPoly(ctx)
    for (i, j), c in F.terms.items():
        G_top = G_top + _outer(basis[i], basis[j]).scale(c)
    G = BivarPoly(tower.fq)
    for key, c in G_top.terms.items():
        if frobenius(c) != c:
            raise ArithmeticError("curve coefficient escaped GF(q)")
        G.terms[key] = project(c, tower.fq)
    return CurvePair(params=params, F=F, G=G, e=e)


def psi_point(e: Elem, x: Elem, y: Elem) -> tuple[Elem, Elem]:
    """((x+e)/(x-e), (y+e)/(y-e)); poles at x or y equal to e."""
    return (x + e) / (x - e), (y + e) / (y - e)


def phi_point(e: Elem, x: Elem, y: Elem) -> tuple[Elem, Elem]:
    """(e(x+1)/(x-1), e(y+1)/(y-1)), the inverse of psi; poles at 1."""
    one = e.ctx.one
    return e * (x + one) / (x - one), e * (y + one) / (y - one)


def verify_iso_identity(pair: CurvePair) -> bool:
    """Full expansion of both sides of the reverse-substitution identity
    (X-1)^2 (Y-1)^2 G(phi(X, Y)) = 16 e^4 F(X, Y)."""
    ctx = pair.params.tower.fq2
    e = pair.e
    one = ctx.one
    plus = Poly(ctx, [one, one])
    minus = Poly(ctx, [-one, one])
    basis = (minus * minus, plus * minus, plus * plus)
    lhs = BivarPoly(ctx)
    ep = _powers(e, 4)
    for (i, j), c in pair.lift_G().terms.items():
        lhs = lhs + _outer(basis[i], basis[j]).scale(c * ep[i + j])
    rhs = pair.F.scale(16 * e**4)
    return lhs == rhs


def count_points_off_diag(pair: CurvePair) -> int:
    """Number of GF(q)-rational zeros (x0, y0) of G with x0 != y0.

    G is evaluated on all q^2 - q off-diagonal points at once, by Horner in
    Y over its coefficient polynomials in X, through the vector ops of
    GF(q), which the tests pin to the scalar ops.
    """
    fq = pair.params.tower.fq
    G = pair.G
    x, y = np.nonzero(~np.eye(fq.order, dtype=bool))
    acc = np.zeros(x.shape, dtype=np.int32)
    for j in range(G.deg_y(), -1, -1):
        cx = Poly(fq, [G.coeff(i, j) for i in range(G.deg_x() + 1)])
        acc = fq.vadd(fq.vmul(acc, y), values(cx, x))
    return int(np.count_nonzero(acc == 0))


def hasse_weil_ok(q: int) -> bool:
    """Exact integer form of q - 6*sqrt(q) - 5 > 0, i.e. (q-5)^2 > 36q."""
    if is_prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    return q > 5 and (q - 5) ** 2 > 36 * q


# ------------------------------------------------------------- resultants


@dataclass(frozen=True)
class ResultantComparison:
    """Res_X(N, D) against the closed form b^(2q+10) * Phi(a, b)^2.

    Empirically (and as a polynomial identity in a, a^q, b, b^q) the
    resultant equals the inner factor Phi itself, unsquared and without the
    b-power prefactor, so rhs = prefactor * lhs^2.  Both relations are
    exposed as properties.
    """

    lhs: Elem
    rhs: Elem
    ratio: Elem | None
    inner: Elem
    prefactor: Elem  # b^(2q+10)

    @property
    def lhs_equals_inner(self) -> bool:
        return self.lhs == self.inner

    @property
    def rhs_is_prefactor_times_lhs_squared(self) -> bool:
        return self.rhs == self.prefactor * self.lhs * self.lhs


def resultant_vs_closed_form(params: TrinomialParams) -> ResultantComparison:
    a, b = params.a, params.b
    N, D = build_numden(params)
    lhs = resultant(N, D)
    na = a * frobenius(a)
    nb = b * frobenius(b)
    inner = (
        na**3
        - 3 * na * na * nb
        - na * na
        - a * a * b
        + 3 * na * nb * nb
        - na * nb
        - frobenius(a) ** 2 * frobenius(b)
        - nb**3
        + 2 * nb * nb
        - nb
    )
    prefactor = b ** (2 * params.q + 10)
    rhs = prefactor * inner * inner
    ratio = lhs * rhs.inv() if rhs.i != 0 else None
    return ResultantComparison(lhs=lhs, rhs=rhs, ratio=ratio, inner=inner, prefactor=prefactor)


# ------------------------------------------------------ factor witnesses


@dataclass(frozen=True)
class FactorWitness:
    """A verified factorisation shape of F, or the report that none fits.

    pattern is one of "four-lines", "conic-swap", "conic-sym", "conic-xsq",
    "none".  When a pattern is reported, re-multiplying the asserted factors
    reproduces F exactly (residual_check True).
    """

    pattern: str
    constants: dict[str, Elem] = field(default_factory=dict)
    residual_check: bool = False
    note: str = ""

    def to_json(self) -> dict:
        return {
            "pattern": self.pattern,
            "constants": {k: v.i for k, v in self.constants.items()},
            "residual_check": self.residual_check,
            "note": self.note,
        }


def four_line_witness(params: TrinomialParams) -> FactorWitness:
    """Try F = -b (X+A)(X+B)(Y+A)(Y+B) with A, B the roots of the quadratic
    a^q b T^2 + a^(2q) T + a b; validated by exact expansion."""
    return _four_line_of(params, _collision_poly(params))


def _four_line_of(params: TrinomialParams, F: BivarPoly) -> FactorWitness:
    """four_line_witness given F = _collision_poly(params)."""
    ctx = params.tower.fq2
    a, b = params.a, params.b
    aq = frobenius(a)
    tq = Poly(ctx, [a * b, aq * aq, aq * b])
    rts = roots(tq)
    if len(rts) < 2:
        return FactorWitness("none", note="line constants not in GF(q^2)")
    A, B = rts[0], rts[1]
    quad = Poly(ctx, [A * B, A + B, ctx.one])  # (T+A)(T+B)
    cand = _outer(quad, quad).scale(-b)
    if cand == F:
        return FactorWitness("four-lines", {"A": A, "B": B}, True)
    return FactorWitness("none")


def _pair_from_sum_product(ctx, s: Elem, p: Elem) -> list[tuple[Elem, Elem]]:
    rts = roots(Poly(ctx, [p, -s, ctx.one]))
    if len(rts) < 2:
        return []
    return [(rts[0], rts[1]), (rts[1], rts[0])]


def conic_witnesses(params: TrinomialParams) -> FactorWitness:
    """Try the three conic splittings of F, first verified match wins.

    Order: the swapped-pair shape -b(XY+AX+BY+C)(XY+BX+AY+C) via its
    closed-form constants (odd characteristic > 3), then the symmetric shape
    -b(XY+A(X+Y)+C)(XY+B(X+Y)+D) and the square shape
    -b(X^2+AX+BY+C)(Y^2+AY+BX+C) by coefficient matching over GF(q^2).
    """
    return _conic_of(params, _collision_poly(params))


def _conic_of(params: TrinomialParams, F: BivarPoly) -> FactorWitness:
    """conic_witnesses given F = _collision_poly(params)."""
    ctx = params.tower.fq2
    a, b = params.a, params.b
    missing_root = False

    if params.tower.p > 3:
        # constants: A a root of 3a^q A^2 - 9a^(q+1) A + 9a^(q+2) - a,
        # B = 3a - A, C = 1/a^(q-1).  The roots sum to 3a, so the other
        # root's candidate is this one with its two factors swapped.
        aq = frobenius(a)
        na = a * aq
        quad = Poly(ctx, [9 * na * a - a, -9 * na, 3 * aq])
        Cc = a * aq.inv()
        rts = roots(quad)
        if not rts:
            missing_root = True
        for A in rts[:1]:
            B = 3 * a - A
            f1 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): A, (0, 1): B, (0, 0): Cc})
            f2 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): B, (0, 1): A, (0, 0): Cc})
            if (f1 * f2).scale(-b) == F:
                return FactorWitness("conic-swap", {"A": A, "B": B, "C": Cc}, True)

    neg_b_inv = (-b).inv()
    # symmetric shape: [X^2Y] = -b(A+B), [X^2] = -b AB, [XY] = -b(2AB+C+D),
    # [1] = -b CD
    s_ab = F.coeff(2, 1) * neg_b_inv
    p_ab = F.coeff(2, 0) * neg_b_inv
    ab_pairs = _pair_from_sum_product(ctx, s_ab, p_ab)
    if not ab_pairs:
        missing_root = True
    for A, B in ab_pairs[:1]:  # (A,B) order immaterial for this shape
        s_cd = F.coeff(1, 1) * neg_b_inv - 2 * A * B
        p_cd = F.coeff(0, 0) * neg_b_inv
        cd_pairs = _pair_from_sum_product(ctx, s_cd, p_cd)  # [(0, 0), (0, 0)] when both vanish
        if not cd_pairs:
            missing_root = True
        for C, D in cd_pairs:
            f1 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): A, (0, 1): A, (0, 0): C})
            f2 = BivarPoly(ctx, {(1, 1): ctx.one, (1, 0): B, (0, 1): B, (0, 0): D})
            if (f1 * f2).scale(-b) == F:
                return FactorWitness(
                    "conic-sym", {"A": A, "B": B, "C": C, "D": D}, True
                )

    # square shape: [X^2Y] = -b A, [X^3] = -b B, [X^2] = -b(C + AB)
    A = F.coeff(2, 1) * neg_b_inv
    B = F.coeff(3, 0) * neg_b_inv
    C = F.coeff(2, 0) * neg_b_inv - A * B
    f1 = BivarPoly(ctx, {(2, 0): ctx.one, (1, 0): A, (0, 1): B, (0, 0): C})
    f2 = BivarPoly(ctx, {(0, 2): ctx.one, (0, 1): A, (1, 0): B, (0, 0): C})
    if (f1 * f2).scale(-b) == F:
        return FactorWitness("conic-xsq", {"A": A, "B": B, "C": C}, True)

    note = "some pattern constants not in GF(q^2)" if missing_root else ""
    return FactorWitness("none", note=note)
