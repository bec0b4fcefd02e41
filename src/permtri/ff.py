"""Finite field towers GF(p) < GF(q) < GF(q^2) with table-backed arithmetic.

Every layer of the tower is a :class:`FieldCtx`.  An element is identified by
its canonical integer index

    n = sum_i c_i * B**i

where (c_i) are the coefficient digits over the layer below (lowest power
first) and B is that layer's cardinality, applied recursively down to GF(p).
Consequences worth knowing:

* a subfield element keeps its index when lifted into an extension, and
* written in base p, the index of any element spells out its GF(p)
  coordinates in the canonical basis.

Each layer is reduced modulo the *canonical* irreducible polynomial: the
lexicographically smallest monic irreducible, comparing the coefficient
tuple from the highest non-leading term down, each coefficient by its
integer index.  For odd p the quadratic layer therefore has modulus t^2 + c
with -c a non-square, so conjugation x -> x^q flips the sign of the t
coordinate and the adjoined root t itself is the distinguished element e
with e^q = -e.  For p = 2 the modulus is t^2 + t + c with c of absolute
trace 1 and conjugation maps u + v t to (u + v) + v t.

Every layer is built by one path, GF(p) being the degree-1 layer over no
base.  _coord_mul, the twin of _coord_add, multiplies without the layer's
own tables: x * y mod p on GF(p), else the product of the coefficient
polynomials through the vector ops of the layer below, reduced by the monic
modulus.  On a layer of n elements the generator g is the least index >= 1
of multiplicative order n - 1 (1 on GF(2)).  One _coord_mul of every index
by a candidate g gives the map x -> x g, and its cycle through 1 is the
powers of g, so the cycle's length is g's order: the first candidate whose
cycle has length n - 1 is g, the cycle is the exp table and log is its
inverse.  The search starts at the order B of the layer below: every index
below B lies in that subfield, so its order divides B - 1 < n - 1.
Negation and inversion are read off the logs: -x = x g^((n-1)/2) for odd
p, -x = x for p = 2, 1/x = g^(n-1-log x).  A dense add table is
(x + y) mod p on GF(p); above it, one digit at a time, the add table A of
the layer below (order B) broadcast against the table T so far: with
x = x_low + B^i c, the table one digit up is A[c, c'] * B^i + T[x_low,
y_low].  The mul table is exp[log x + log y], gathered from an int16 copy
of exp into the table a block of rows (at most _GATHER_BLOCK cells) at a
time, so no full-size index is ever held, with the zero row and column
cleared.  Both dense tables are int16: an order within the dense limit is
at most 2828 < 2**15.  The top layer's Frobenius table conjugates
coordinates as above.

Scalar ops index read-only memoryviews of the numpy tables, which give ints,
so each table is held once; the engine's pp_mu reads np_zech itself.
The vectorised ops (the v* methods) take numpy index arrays.  On a layer
with at most _DENSE_TABLE_CELLS cells in its order x order tables, vadd and
vmul are one gather each, on the raveled table with an int32 flat index
x * order + y, into an int32 result, so no kernel computes in int16.  Past
that limit (only the top layer GF(q^2) gets there with the default size
bound, and its GF(q) is always dense) vadd adds the
coordinates over the layer below, x = u + q v, through that layer's flat
gather, and vmul goes through the log/exp tables with a zero mask.  Every
vector operand is checked to lie in [0, order): a flat index would
otherwise read another cell without an error.  Contexts are immutable after
construction and safe to share across threads: every numpy table, and so
every view of one, is made read-only once its layer is built.

make_field memoises the 2 most recently used towers (functools.lru_cache,
maxsize 2, keyed by (p, h)), so a process that checks one field many times
builds it once, also while it alternates with a second field (a summary
sweep and a sampled one, a sweep and its per-pair checks); a call that
raises caches nothing, and make_field.cache_clear() empties the memo.  The
memo keeps at most one tower alive beyond the caller's own.  A tower
retains (tracemalloc) 1.5 MiB at q = 25, 13.1 MiB at q = 43, 30.2 MiB at
q = 53, the largest q with a dense GF(q^2), then 0.6, 1.4, 3.5 and
35.0 MiB at q = 127, 199, 317 and 1009: 34 B per element of GF(q^2) in its
arrays.  At that rate the largest field within DEFAULT_MAX_ORDER
(q = 2477, 6.1 M elements) would retain about 0.2 GiB (extrapolated, not
built), the most the memo can hold beyond the caller's own tower.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldCtx",
    "FieldTower",
    "Elem",
    "SquareClass",
    "make_field",
    "frobenius",
    "norm_trace",
    "is_square",
    "sqrt",
    "mu_set",
    "lift",
    "project",
    "is_prime",
    "is_prime_power",
    "capped_pow",
    "DEFAULT_MAX_ORDER",
]

# Largest permitted cardinality of the top layer GF(q^2).
DEFAULT_MAX_ORDER = 6_250_000

# A layer gets dense order x order add and mul tables (int16, 2 B a cell)
# when they have at most this many cells, i.e. order <= 2828; vadd and vmul
# are then one flat gather each.  Past it, vadd goes through the layer below
# and vmul through log/exp.  int32 flat indices need n * n < 2**31, and
# int16 cells need n < 2**15.
_DENSE_TABLE_CELLS = 8_000_000

# Cells gathered per step by _take_in_place and, in whole rows, by the dense
# mul table's build: the block's index and values stay in L2, and no second
# full-size array is held.  Each block is one
# np.take (mode "raise", so a bad index still raises): 2.3-4.1 ns a cell
# against 3.9-5.3 for fancy indexing, on 64 K-cell blocks from tables of
# n = 625 and 3481 (2-vCPU Xeon, numpy 2.4.6).  Its intp copy of the index
# is one block.
_GATHER_BLOCK = 1 << 16

# Every numpy table a layer may hold, made read-only once it is built.  Named
# here rather than found through vars(ctx): reading an instance's __dict__
# turns off CPython's inline attribute values, and every scalar op of that
# context then took about 1.5 times as long (mul_i 85 -> 130 ns, add_i
# 140 -> 235 ns on GF(49), Python 3.11).
_NP_TABLES = ("np_exp2", "np_log", "np_neg", "np_inv", "np_add", "np_mul", "np_zech", "np_frob", "np_norm", "np_mu")

# Unsigned dtype of each integer width: in an unsigned view of 4 or 8 bytes a
# negative index is huge, so one max() tests both ends of [0, order).
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division up to sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1 if d == 2 else 2
    return n


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (inputs are tiny here)."""
    return n >= 2 and _least_factor(n) == n


def capped_pow(base: int, exp: int, cap: int) -> int:
    """base**exp when that is at most cap, else a value above cap; stops
    multiplying as soon as the cap is passed, so a huge exponent is cheap."""
    if abs(base) < 2:
        return base**exp
    out = 1
    for _ in range(exp):
        out *= base
        if out > cap:
            break
    return out


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k and p prime, or None."""
    if n < 2:
        return None
    p, k = _least_factor(n), 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


class SquareClass:
    """Trichotomy returned by :func:`is_square`."""

    ZERO = "zero"
    SQUARE = "square-nonzero"
    NONSQUARE = "nonsquare"


class Elem:
    """A field element: a context plus its canonical integer index.

    Value semantics; arithmetic through the usual operators.  Plain ints on
    either side are coerced through ``ctx.scalar`` (i.e. interpreted as
    multiples of 1, not as indices).
    """

    __slots__ = ("ctx", "i")

    def __init__(self, ctx: FieldCtx, i: int):
        self.ctx = ctx
        self.i = i

    def coeffs(self) -> tuple:
        """Coefficient vector over the layer below, lowest power first."""
        ctx = self.ctx
        if ctx.base is None:
            return (self.i,)
        B = ctx.base.order
        i = self.i
        out = []
        for _ in range(ctx.degree):
            out.append(Elem(ctx.base, i % B))
            i //= B
        return tuple(out)

    def _coerce(self, other):
        if isinstance(other, Elem):
            if other.ctx is not self.ctx:
                raise ValueError("context mismatch")
            return other.i
        if isinstance(other, int):
            return self.ctx.scalar_idx(other)
        return None

    def __add__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.add_i(self.i, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.sub_i(self.i, j))

    def __rsub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.sub_i(j, self.i))

    def __mul__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.mul_i(self.i, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.mul_i(self.i, self.ctx.inv_i(j)))

    def __rtruediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return Elem(self.ctx, self.ctx.mul_i(j, self.ctx.inv_i(self.i)))

    def __neg__(self):
        return Elem(self.ctx, self.ctx.neg_i(self.i))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Elem(self.ctx, self.ctx.pow_i(self.i, k))

    def inv(self) -> Elem:
        return Elem(self.ctx, self.ctx.inv_i(self.i))

    def __eq__(self, other):
        if isinstance(other, Elem):
            return self.ctx is other.ctx and self.i == other.i
        if isinstance(other, int):
            return self.i == self.ctx.scalar_idx(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.i))

    def __bool__(self):
        return self.i != 0

    def __repr__(self):
        return f"GF({self.ctx.order}):{self.i}"


class FieldCtx:
    """One layer of the tower.  Build through :func:`make_field`.

    Attributes: ``p`` (characteristic), ``degree`` (over the layer below),
    ``h`` (absolute degree over GF(p)), ``order``, ``base`` (layer below or
    None), ``level`` ("Fp"/"Fq"/"Fq2"), ``modulus`` (tuple of base-layer
    indices, monic, low power first; None for the prime layer), and for the
    top layer ``q`` and ``e`` (odd p only).
    """

    def __init__(self, *, _token=None):
        if _token is not _CTX_TOKEN:
            raise TypeError("use make_field() to construct field contexts")

    # ---------------------------------------------------------------- build

    @staticmethod
    def _layer(p: int, base: FieldCtx | None, degree: int, level: str) -> FieldCtx:
        """The layer of the given degree over `base`; GF(p) is the degree-1
        layer over no base."""
        ctx = FieldCtx(_token=_CTX_TOKEN)
        ctx.p, ctx.degree, ctx.base, ctx.level = p, degree, base, level
        if base is None:
            ctx.h, ctx.order, ctx.modulus = degree, p**degree, None
        else:
            ctx.h, ctx.order = base.h * degree, base.order**degree
            ctx.modulus = ctx._canonical_modulus()
        ctx.q = ctx.e = None
        ctx._finish_tables()
        for name in _NP_TABLES:  # a memoised tower is shared
            table = getattr(ctx, name, None)
            if table is not None:
                table.flags.writeable = False
        # the scalar ops index read-only views of those tables, which give ints
        tables = (ctx.np_exp2, ctx.np_log, ctx.np_neg, ctx.np_inv, ctx.np_zech)
        ctx._exp, ctx._log, ctx._neg, ctx._inv, ctx._zech = map(memoryview, tables)
        if level == "Fq2":
            ctx._frob, ctx.mu_indices = memoryview(ctx.np_frob), memoryview(ctx.np_mu)
        return ctx

    def _canonical_modulus(self) -> tuple[int, ...]:
        base, d = self.base, self.degree
        for hi_first in itertools.product(range(base.order), repeat=d):
            cand = tuple(reversed(hi_first)) + (1,)  # low power first, monic
            if _coeff_irreducible(cand, base):
                return cand
        raise RuntimeError("no irreducible modulus found")  # pragma: no cover

    def _finish_tables(self) -> None:
        n, p = self.order, self.p
        # the least g of order n - 1 and its powers: the cycle of x -> x g
        # through 1 (module docstring), the walk bounded by n
        x = np.arange(n)
        for g in range(1 if self.base is None else self.base.order, n):
            step = self._coord_mul(x, g).tolist()
            exp, acc = [1], step[1]
            while acc != 1 and len(exp) < n:
                exp.append(acc)
                acc = step[acc]
            if acc == 1 and len(exp) == n - 1:
                break
        else:  # pragma: no cover
            raise RuntimeError("no element of order n - 1")
        self.generator_idx = g
        self.np_exp2 = np.array(exp + exp, dtype=np.int32)
        self.np_log = np.zeros(n, dtype=np.int32)
        self.np_log[self.np_exp2[: n - 1]] = np.arange(n - 1)

        # -x = x g^((n-1)/2) (x itself when p = 2) and 1/x = g^(n-1-log x);
        # 0 maps to 0 in both (the scalar path raises on inverting it)
        half = (n - 1) // 2 if p != 2 else 0
        self.np_neg = self.np_exp2[self.np_log + half]
        self.np_inv = self.np_exp2[(n - 1) - self.np_log]
        self.np_neg[0] = self.np_inv[0] = 0

        # Dense tables for the vectorised fast path.
        self.np_add = self.np_mul = None
        if n * n <= _DENSE_TABLE_CELLS:
            if self.base is None:
                idx = np.arange(n, dtype=np.int16)
                add = (idx[:, None] + idx[None, :]) % p
            else:  # one digit at a time (module docstring)
                A, B = self.base.np_add, self.base.order
                add = A
                for i in range(1, self.degree):
                    add = (A[:, None, :, None] * B**i + add[None, :, None, :]).reshape(B ** (i + 1), -1)
            self.np_add = add
            # exp[log x + log y] a block of rows at a time (module docstring)
            lg, exp16 = self.np_log, self.np_exp2.astype(np.int16)
            mul = np.empty((n, n), dtype=np.int16)
            rows = max(1, _GATHER_BLOCK // n)
            for lo in range(0, n, rows):
                mul[lo : lo + rows] = exp16.take(lg[lo : lo + rows, None] + lg[None, :])
            mul[0] = mul[:, 0] = 0
            self.np_mul = mul

        # Zech table: np_zech[k] = log(1 + g^k), -1 when the sum is zero.
        ones = self.vadd(np.ones(n - 1, dtype=np.int64), self.np_exp2[: n - 1])
        self.np_zech = np.where(ones == 0, -1, self.np_log[ones]).astype(np.int32)

        if self.level == "Fq2":
            self._finish_top_tables()

    def _finish_top_tables(self) -> None:
        n, B = self.order, self.base.order
        self.q = B
        idx = np.arange(n, dtype=np.int64)
        u, v = idx % B, idx // B
        if self.p != 2:
            if self.modulus[1] != 0:  # pragma: no cover
                raise RuntimeError("odd-p quadratic modulus must be t^2 + c")
            frob = u + B * self.base.np_neg[v]
        else:
            frob = self.base.vadd(u, v) + B * v
        self.np_frob = frob.astype(np.int32)
        self.np_norm = self.vmul(idx, self.np_frob).astype(np.int32)
        if not (self.np_norm < B).all():  # pragma: no cover
            raise RuntimeError("norm left the subfield")

        # (q+1)-st roots of unity, ascending by index
        self.np_mu = np.sort(self.np_exp2[: B * (B - 1) + 1 : B - 1])

        if self.p != 2:
            self.e = Elem(self, B)  # the adjoined root t
            if self.np_frob[B] != self.np_neg[B]:  # pragma: no cover
                raise RuntimeError("e^q != -e")

    # ------------------------------------------------------- scalar indices

    def add_i(self, x: int, y: int) -> int:
        if x == 0:
            return y
        if y == 0:
            return x
        n1 = self.order - 1
        i, j = self._log[x], self._log[y]
        z = self._zech[(j - i) % n1]
        return 0 if z < 0 else self._exp[i + z]

    def sub_i(self, x: int, y: int) -> int:
        return self.add_i(x, self._neg[y])

    def neg_i(self, x: int) -> int:
        return self._neg[x]

    def mul_i(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv_i(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inversion of zero")
        return self._inv[x]

    def pow_i(self, x: int, k: int) -> int:
        if x == 0:
            return 1 if k == 0 else 0
        return self._exp[self._log[x] * k % (self.order - 1)]

    def scalar_idx(self, k: int) -> int:
        return k % self.p

    # ------------------------------------------------------ vectorised ops

    def _in_range(self, a) -> np.ndarray:
        """a as an array, after checking that every entry lies in [0, order)."""
        a = np.asarray(a)
        if a.dtype.kind == "i" and a.itemsize < 4:  # int8 -1 views as 255 < order
            a = a.astype(np.int32)
        if a.size and a.view(_UNSIGNED[a.itemsize]).max() >= self.order:
            raise IndexError(f"index out of range for GF({self.order})")
        return a

    def _coords(self, x) -> list:
        """Coordinates of indices x over the layer below, lowest power first."""
        out = []
        for _ in range(self.degree - 1):
            x, c = np.divmod(x, self.base.order)
            out.append(c)
        return out + [x]

    def _join(self, coords: list):
        """Inverse of _coords."""
        out = coords[-1]
        for c in reversed(coords[:-1]):
            out = out * self.base.order + c
        return out

    def _coord_add(self, x, y):
        """x + y without this layer's table: mod p on the prime layer, else
        coordinate-wise through the layer below."""
        if self.base is None:
            return (x + y) % self.p
        return self._join([self.base._add(cx, cy) for cx, cy in zip(self._coords(x), self._coords(y))])

    def _coord_mul(self, x, y):
        """x * y without this layer's tables: mod p on the prime layer, else
        the product of the coefficient polynomials over the layer below,
        reduced by the monic modulus: t^d = -(m_0 + ... + m_(d-1) t^(d-1))."""
        if self.base is None:
            return x * y % self.p
        base, d = self.base, self.degree
        prod, yc = [None] * (2 * d - 1), self._coords(y)
        for i, cx in enumerate(self._coords(x)):
            for j, cy in enumerate(yc):
                t = base.vmul(cx, cy)
                prod[i + j] = t if prod[i + j] is None else base.vadd(prod[i + j], t)
        for k in range(2 * d - 2, d - 1, -1):
            for j, m in enumerate(self.modulus[:d]):
                if m:
                    prod[k - d + j] = base.vsub(prod[k - d + j], base.vmul(prod[k], m))
        return self._join(prod[:d])

    def _add(self, x, y):
        """vadd on operands already known to lie in [0, order)."""
        if self.np_add is None:
            return self._coord_add(x, y)
        return _take_in_place(self.np_add.ravel(), _flat_index(x, y, self.order))

    def vadd(self, x, y):
        return self._add(self._in_range(x), self._in_range(y))

    def vsub(self, x, y):
        return self.vadd(x, self.np_neg[self._in_range(y)])

    def vmul(self, x, y):
        x, y = self._in_range(x), self._in_range(y)
        if self.np_mul is not None:
            return _take_in_place(self.np_mul.ravel(), _flat_index(x, y, self.order))
        out = _take_in_place(self.np_exp2, np.add(self.np_log.take(x), self.np_log.take(y)))
        out *= (x != 0) & (y != 0)
        return out

    def vpow(self, x, k: int):
        x = self._in_range(x)
        lg = self.np_log[x].astype(np.int64)
        out = self.np_exp2[lg * (k % (self.order - 1)) % (self.order - 1)]
        return np.where(x == 0, 1 if k == 0 else 0, out)

    # ------------------------------------------------------------ elements

    def elem(self, i: int) -> Elem:
        if not 0 <= i < self.order:
            raise ValueError(f"index {i} out of range for GF({self.order})")
        return Elem(self, i)

    def scalar(self, k: int) -> Elem:
        return Elem(self, self.scalar_idx(k))

    @property
    def zero(self) -> Elem:
        return Elem(self, 0)

    @property
    def one(self) -> Elem:
        return Elem(self, 1)

    def elements(self):
        """All elements in canonical index order."""
        return (Elem(self, i) for i in range(self.order))

    def __repr__(self):
        return f"FieldCtx(GF({self.order}), {self.level})"


_CTX_TOKEN = object()


def _flat_index(x, y, n: int) -> np.ndarray:
    """x * n + y into a raveled n x n table, as one new int32 array of the
    broadcast shape (an intp index would take 8 B a cell)."""
    idx = np.empty(np.broadcast(x, y).shape, dtype=np.int32)
    np.multiply(x, n, out=idx, dtype=np.int32)
    return np.add(idx, y, out=idx, dtype=np.int32)


def _take_in_place(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[idx] for an int32 index array idx, through np.take, which
    raises IndexError on an index outside the table.  The result is int32
    whatever the table's dtype, so its width does not depend on idx.size.
    Past one block, idx is overwritten with the result a block at a time,
    so that the result and a full-size index never coexist."""
    if idx.size <= _GATHER_BLOCK:
        return table.take(idx).astype(np.int32, copy=False)
    flat = idx.reshape(-1)  # a copy only if idx is not C-contiguous
    for lo in range(0, flat.size, _GATHER_BLOCK):
        blk = flat[lo : lo + _GATHER_BLOCK]
        blk[...] = table.take(blk)
    return flat.reshape(idx.shape)


def _coeff_divmod_r(num: list[int], den: list[int], base: FieldCtx):
    """Remainder of coefficient-list division over `base` (low power first)."""
    num = list(num)
    dd = len(den) - 1
    inv_lc = base.inv_i(den[-1])
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        f = base.mul_i(c, inv_lc)
        for j in range(dd + 1):
            num[k - dd + j] = base.sub_i(num[k - dd + j], base.mul_i(f, den[j]))
    while num and num[-1] == 0:
        num.pop()
    return num


def _coeff_irreducible(cand: tuple[int, ...], base: FieldCtx) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    d = len(cand) - 1
    if d == 1:
        return True
    for dd in range(1, d // 2 + 1):
        for tail in itertools.product(range(base.order), repeat=dd):
            den = list(tail) + [1]
            if not _coeff_divmod_r(cand, den, base):
                return False
    return True


@dataclass(frozen=True)
class FieldTower:
    """The full construction GF(p) < GF(q) < GF(q^2); fq is fp when h = 1."""

    fp: FieldCtx
    fq: FieldCtx
    fq2: FieldCtx

    @property
    def p(self) -> int:
        return self.fp.p

    @property
    def h(self) -> int:
        return self.fq.h

    @property
    def q(self) -> int:
        return self.fq.order

    def __repr__(self):
        return f"FieldTower(p={self.p}, q={self.q}, q2={self.fq2.order})"


@functools.lru_cache(maxsize=2)
def make_field(p: int, h: int) -> FieldTower:
    """The tower GF(p) -> GF(p^h) -> GF(p^(2h)), built once per (p, h)
    while it stays among the 2 most recently used (module docstring).

    Raises ValueError for h < 1, p^(2h) > DEFAULT_MAX_ORDER or non-prime p,
    in that order: the size bound is checked before any primality work.
    A call that raises caches nothing.
    """
    if h < 1:
        raise ValueError("extension degree must be >= 1")
    if capped_pow(p, 2 * h, DEFAULT_MAX_ORDER) > DEFAULT_MAX_ORDER:
        raise ValueError(f"field size {p}^{2 * h} exceeds the bound {DEFAULT_MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fp = FieldCtx._layer(p, None, 1, "Fp")
    fq = fp if h == 1 else FieldCtx._layer(p, fp, h, "Fq")
    fq2 = FieldCtx._layer(p, fq, 2, "Fq2")
    return FieldTower(fp=fp, fq=fq, fq2=fq2)


# ------------------------------------------------------------ element ops


def _require_top(x: Elem) -> FieldCtx:
    if x.ctx.level != "Fq2":
        raise ValueError("operation requires an element of the quadratic layer")
    return x.ctx


def frobenius(x: Elem) -> Elem:
    """x -> x^q on the top layer, computed by coefficient conjugation."""
    ctx = _require_top(x)
    return Elem(ctx, ctx._frob[x.i])


def lift(x: Elem, ext: FieldCtx) -> Elem:
    """Embed a subfield element into `ext` (index-preserving)."""
    if ext.base is not x.ctx:
        raise ValueError("not a direct subfield of the target layer")
    return Elem(ext, x.i)


def project(x: Elem, sub: FieldCtx) -> Elem:
    """Inverse of lift; raises if x is not actually in the subfield."""
    if x.ctx.base is not sub:
        raise ValueError("not a direct extension of the target layer")
    if x.i >= sub.order:
        raise ArithmeticError(f"element {x!r} is not in the subfield")
    return Elem(sub, x.i)


def norm_trace(x: Elem) -> tuple[Elem, Elem]:
    """(x * x^q, x + x^q) projected into GF(q); raises if either escapes."""
    ctx = _require_top(x)
    xq = ctx._frob[x.i]
    n = ctx.mul_i(x.i, xq)
    t = ctx.add_i(x.i, xq)
    sub = ctx.base
    for val in (n, t):
        if val >= sub.order:
            raise ArithmeticError("norm/trace left the subfield")
    return Elem(sub, n), Elem(sub, t)


def is_square(x: Elem) -> str:
    """Euler-criterion square class of x within its own layer.

    In characteristic 2 squaring is bijective, so every nonzero element
    reports square-nonzero.
    """
    if x.i == 0:
        return SquareClass.ZERO
    ctx = x.ctx
    if ctx.p == 2:
        return SquareClass.SQUARE
    r = ctx.pow_i(x.i, (ctx.order - 1) // 2)
    return SquareClass.SQUARE if r == 1 else SquareClass.NONSQUARE


def sqrt(x: Elem) -> Elem | None:
    """A square root of x in its own layer, or None.

    When both roots exist the one with the smaller index is returned.
    """
    ctx = x.ctx
    if x.i == 0:
        return Elem(ctx, 0)
    if ctx.p == 2:
        return Elem(ctx, ctx.pow_i(x.i, ctx.order // 2))
    k = ctx._log[x.i]
    if k % 2:
        return None
    r = ctx._exp[k // 2]
    return Elem(ctx, min(r, ctx._neg[r]))


def mu_set(ctx: FieldCtx) -> list[Elem]:
    """The (q+1)-st roots of unity in GF(q^2), ascending by index."""
    if ctx.level != "Fq2":
        raise ValueError("mu_set is defined on the quadratic layer")
    return [Elem(ctx, i) for i in ctx.mu_indices]
