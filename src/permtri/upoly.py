"""Dense univariate polynomials over a FieldCtx layer.

Coefficients are stored lowest power first with no trailing zeros (the zero
polynomial is the empty tuple).  Division, GCD, Sylvester resultants,
discriminants, evaluation on an array of indices and exhaustive root
finding; everything is a pure function of plain values.  Array evaluation
(`values`, and so `roots`) runs over all candidates at once through the
layer's vector ops, which the tests pin to the scalar ops.
"""

from __future__ import annotations

import numpy as np

from .ff import Elem, FieldCtx, lift

__all__ = ["Poly", "poly_gcd", "resultant", "discriminant", "values", "roots"]


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, int):
                c = ctx.scalar(c)
            elif c.ctx is not ctx:
                raise ValueError("context mismatch")
            cs.append(c)
        while cs and cs[-1].i == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def from_indices(cls, ctx: FieldCtx, indices) -> Poly:
        return cls(ctx, [ctx.elem(i) for i in indices])

    @classmethod
    def x_minus(cls, c: Elem) -> Poly:
        return cls(c.ctx, [-c, c.ctx.one])

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Elem:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Elem:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ctx.zero

    def monic(self) -> Poly:
        if self.is_zero():
            raise ValueError("cannot normalise the zero polynomial")
        inv = self.lc().inv()
        return Poly(self.ctx, [c * inv for c in self.coeffs])

    def __add__(self, other: Poly) -> Poly:
        self._chk(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: Poly) -> Poly:
        self._chk(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> Poly:
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other) -> Poly:
        if isinstance(other, Elem):
            return Poly(self.ctx, [c * other for c in self.coeffs])
        self._chk(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx)
        out = [self.ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.i == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __divmod__(self, den: Poly) -> tuple[Poly, Poly]:
        self._chk(den)
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd = den.degree
        quot = [self.ctx.zero] * max(len(rem) - dd, 0)
        inv_lc = den.lc().inv()
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.i == 0:
                continue
            f = c * inv_lc
            quot[k - dd] = f
            for j in range(dd + 1):
                rem[k - dd + j] = rem[k - dd + j] - f * den.coeffs[j]
        return Poly(self.ctx, quot), Poly(self.ctx, rem)

    def __floordiv__(self, den: Poly) -> Poly:
        return divmod(self, den)[0]

    def __mod__(self, den: Poly) -> Poly:
        return divmod(self, den)[1]

    def __call__(self, x: Elem) -> Elem:
        if x.ctx is not self.ctx:
            raise ValueError("context mismatch")
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> Poly:
        return Poly(self.ctx, [k * c for k, c in enumerate(self.coeffs)][1:])

    def lift_to(self, ext: FieldCtx) -> Poly:
        return Poly(ext, [lift(c, ext) for c in self.coeffs])

    def text_form(self) -> str:
        """Coefficient index list, lowest power first, e.g. "[3,0,1]"."""
        return "[" + ",".join(str(c.i) for c in self.coeffs) + "]"

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx),) + tuple(c.i for c in self.coeffs))

    def __repr__(self):
        return f"Poly(GF({self.ctx.order}), {self.text_form()})"

    def _chk(self, other: Poly) -> None:
        if not isinstance(other, Poly) or other.ctx is not self.ctx:
            raise ValueError("context mismatch")


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic GCD by the Euclidean algorithm; gcd(f, 0) = monic(f)."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def resultant(f: Poly, g: Poly) -> Elem:
    """Sylvester-matrix resultant.

    The first deg(g) rows carry the coefficients of f (highest first,
    shifted right row by row), the next deg(f) rows those of g, so that
    Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots alpha of f.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    ctx = f.ctx
    m, n = f.degree, g.degree
    size = m + n
    if size == 0:
        return ctx.one
    rows = []
    fc = [f.coeffs[m - k] for k in range(m + 1)]  # highest first
    gc = [g.coeffs[n - k] for k in range(n + 1)]
    for r in range(n):
        rows.append([ctx.zero] * r + fc + [ctx.zero] * (size - m - 1 - r))
    for r in range(m):
        rows.append([ctx.zero] * r + gc + [ctx.zero] * (size - n - 1 - r))
    return _det(ctx, rows)


def _det(ctx: FieldCtx, rows) -> Elem:
    """Gaussian elimination determinant, exact over the field."""
    n = len(rows)
    sign = 1
    det = ctx.one
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col].i != 0), None)
        if piv is None:
            return ctx.zero
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pval = rows[col][col]
        det = det * pval
        inv = pval.inv()
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f.i == 0:
                continue
            for c in range(col, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
    return det if sign == 1 else -det


def discriminant(f: Poly) -> Elem:
    """(-1)^(n(n-1)/2) Res(f, f') / lc(f), so disc(X^2+bX+c) = b^2 - 4c."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    fp = f.derivative()
    if fp.is_zero():
        return f.ctx.zero  # inseparable: every root is repeated
    r = resultant(f, fp)
    r = r * f.lc().inv()
    return -r if (n * (n - 1) // 2) % 2 else r


def values(f: Poly, xs) -> np.ndarray:
    """f at every index of the array xs, by Horner through the vector ops
    of f's layer (the int32 index of each value)."""
    ctx = f.ctx
    acc = np.zeros(np.shape(xs), dtype=np.int32)
    for c in reversed(f.coeffs):
        acc = ctx.vadd(ctx.vmul(acc, xs), c.i)
    return acc


def roots(f: Poly, ctx: FieldCtx | None = None) -> list[Elem]:
    """All roots of f in the given layer, with multiplicity, ascending.

    `ctx` may be f's own layer, its direct subfield, or its direct
    quadratic extension.  Root finding is exhaustive evaluation: one
    `values` call over every index of `ctx` (a lifted subfield element
    keeps its index), through the vector ops that the tests pin to the
    scalar ops; each zero's multiplicity is found by division.
    """
    if f.is_zero():
        raise ValueError("every point is a root of the zero polynomial")
    if ctx is None:
        ctx = f.ctx
    if ctx is f.ctx or f.ctx.base is ctx:
        work = f  # roots sought in f's layer or its subfield, f stays put
    elif ctx.base is f.ctx:
        work = f.lift_to(ctx)  # roots sought in the extension
    else:
        raise ValueError("layer is not adjacent to the polynomial's layer")

    found = []
    for i in np.flatnonzero(values(work, np.arange(ctx.order)) == 0).tolist():
        g, lin = work, Poly.x_minus(work.ctx.elem(i))
        while True:
            g, rem = divmod(g, lin)
            if not rem.is_zero():
                break
            found.append(ctx.elem(i))
    return found
