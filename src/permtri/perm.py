"""Permutation verdicts for f(X) = X(1 + aX^(q(q-1)) + bX^(2(q-1))) on GF(q^2).

Two routes: the direct O(q^2) test on the whole field, and the O(q) test of
the induced cubic fraction g(x) = (a^q x^3 + x^2 + b^q)/(b x^3 + x + a) on
the (q+1)-st roots of unity.  The two verdicts agree for every parameter
choice; the test suite enforces that equivalence.

On the roots of unity x^q = 1/x, so g also has the power form
x (1 + a x^q + b x^2)^(q-1) = x^3 (b x^3 + x + a)^(q-1).  The engine's
pp_mu evaluates that form in the log domain, through the Zech table; the
per-pair path here keeps the fraction, so the two stay independent, and
_g_eval_power_form is the power form pair by pair, for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ff import Elem, FieldTower, frobenius

__all__ = ["TrinomialParams", "Verdict", "f_eval", "g_eval", "is_pp_direct", "is_pp_mu"]


@dataclass(frozen=True)
class TrinomialParams:
    """The pair (a, b) in GF(q^2)* that fixes one trinomial."""

    tower: FieldTower
    a: Elem
    b: Elem

    def __post_init__(self):
        if self.a.ctx is not self.tower.fq2 or self.b.ctx is not self.tower.fq2:
            raise ValueError("a and b must live in the quadratic layer")
        if self.a.i == 0 or self.b.i == 0:
            raise ValueError("a and b must be nonzero")

    @classmethod
    def from_indices(cls, tower: FieldTower, a_idx: int, b_idx: int) -> TrinomialParams:
        return cls(tower, tower.fq2.elem(a_idx), tower.fq2.elem(b_idx))

    @property
    def q(self) -> int:
        return self.tower.q


@dataclass(frozen=True)
class Verdict:
    """Outcome of a permutation test.

    When is_pp is False, `witness` is re-checkable evidence: a pair
    (x1, x2) with equal images, or a single root-of-unity x at which
    1 + a x^q + b x^2 vanishes.
    """

    is_pp: bool
    method: str  # "direct" | "mu"
    witness: tuple[Elem, ...] | None = None

    def to_json(self) -> dict:
        return {
            "is_pp": self.is_pp,
            "method": self.method,
            "witness": None if self.witness is None else [x.i for x in self.witness],
        }


def f_eval(params: TrinomialParams, x: Elem) -> Elem:
    """Evaluate the trinomial at x, using x^(q-1) = frobenius(x)/x for x != 0."""
    ctx = params.tower.fq2
    if x.ctx is not ctx:
        raise ValueError("context mismatch")
    if x.i == 0:
        return ctx.zero
    r = frobenius(x) * x.inv()  # x^(q-1)
    return x * (ctx.one + params.a * frobenius(r) + params.b * r * r)


def is_pp_direct(params: TrinomialParams) -> Verdict:
    """Evaluate on all of GF(q^2); first collision in index order wins."""
    ctx = params.tower.fq2
    first_preimage: list[int] = [-1] * ctx.order
    for i in range(ctx.order):
        img = f_eval(params, ctx.elem(i)).i
        prev = first_preimage[img]
        if prev >= 0:
            return Verdict(False, "direct", (ctx.elem(prev), ctx.elem(i)))
        first_preimage[img] = i
    return Verdict(True, "direct")


def _numden_at(params: TrinomialParams, x: Elem) -> tuple[Elem, Elem]:
    aq = frobenius(params.a)
    bq = frobenius(params.b)
    x2 = x * x
    x3 = x2 * x
    return aq * x3 + x2 + bq, params.b * x3 + x + params.a


def g_eval(params: TrinomialParams, x: Elem) -> Elem | None:
    """The induced map on the (q+1)-st roots of unity; None at a pole.

    The denominator b x^3 + x + a vanishes exactly where 1 + a x^q + b x^2
    does, since the two differ by the unit factor x on the roots of unity.
    """
    ctx = params.tower.fq2
    if x.ctx is not ctx or ctx.pow_i(x.i, params.q + 1) != 1:
        raise ValueError("x is not a (q+1)-st root of unity")
    num, den = _numden_at(params, x)
    if den.i == 0:
        return None
    return num * den.inv()


def _g_eval_power_form(params: TrinomialParams, x: Elem) -> Elem | None:
    # The power form x * (1 + a x^q + b x^2)^(q-1), which the engine's pp_mu
    # evaluates in bulk; slower than the fraction, kept as its cross-check.
    u = x.ctx.one + params.a * frobenius(x) + params.b * x * x
    if u.i == 0:
        return None
    return x * u ** (params.q - 1)


def is_pp_mu(params: TrinomialParams) -> Verdict:
    """O(q) verdict: no pole on the roots of unity and g injective there."""
    ctx = params.tower.fq2
    first_preimage: dict[int, int] = {}
    for i in ctx.mu_indices:
        x = ctx.elem(i)
        num, den = _numden_at(params, x)
        if den.i == 0:
            return Verdict(False, "mu", (x,))
        img = ctx.mul_i(num.i, ctx.inv_i(den.i))
        prev = first_preimage.get(img)
        if prev is not None:
            return Verdict(False, "mu", (ctx.elem(prev), x))
        first_preimage[img] = i
    return Verdict(True, "mu")
