"""Vectorised verdict and condition kernels for whole parameter sweeps.

Everything here operates on numpy arrays of canonical element indices,
backed by the per-layer tables built in ff (flat gathers into the dense
tables; past them a coordinate add and log/exp multiplication).  The
kernels are algebraically independent rewrites of the per-pair functions in
perm/conds/bipoly; the test suite pins them to those module paths
exhaustively at small q and on samples elsewhere, so the scan can rely on
them at speed.

pp_mu tests the induced map g on the (q+1)-st roots of unity in its power
form.  On mu_(q+1), x^q = 1/x, so g(x) = x h(x)^(q-1) = x^3 D(x)^(q-1) with
D(x) = b x^3 + x + a.  Let zeta = gamma^(q-1) for the generator gamma of
GF(q^2)* that the log tables use: the root MU[c] is zeta^(j_c), and
d^(q-1) = zeta^(log d mod (q+1)) for d != 0.  Every exponent is computed in
the log domain, through ff's Zech table Z(k) = log(1 + gamma^k), -1 where
1 + gamma^k = 0.  For nonzero a and b, y = b x^3 + a = a (1 + gamma^e) with
e = log b - log a + 3 log x, so y = 0 where Z(e) = -1 and
log y = log a + Z(e) elsewhere.  Then D = y + x = x (1 + gamma^(log y - log x)),
and as x^3 x^(q-1) = x on mu_(q+1), g(x) = zeta^((j_c + W) mod (q+1)) with
W = Z(log y - log x) mod (q+1): W = 0 where y = 0 (D = x), and D = 0, a
pole, where that Z is -1.  Three gathers a cell read it: ZECH2, Z doubled,
at e; ZECH_W, W on three copies of the Zech range, at
log a + Z(e) - log x (ZECH2 sends y = 0 past them, to a run of zeros, and a
pole reads the sentinel 2q+1); and MOD, which reduces j_c + W mod q+1 and
maps every pole sum to the sentinel q+1.  Each gather overwrites its int32
index (ff._take_in_place), so one full-size array is alive at a time.  A
pair permutes GF(q^2) iff its row of exponents holds no sentinel and no
repeat.  The tables hold O(q^2) integers at every q, and pp_mu keeps no
state between calls.  The per-pair
perm.is_pp_mu keeps the cubic fraction, so the two stay independent.

The condition kernels (prima, seconda, prima_bis, seconda_bis and
seconda_tris; char3 is prima) first evaluate their equation on every pair
and then run the rest, the square test over GF(q) or seconda_tris' other
two equations, only on the pairs where it holds, as the per-pair conds
functions return early.  There every square-test operand is a function of
norms, so it lies in GF(q); _sq_ok still checks each one it receives.
seconda_tris' equation 3b = 3a^q + 1 names one b for each a, the partner
b*(a) = a^q + 1/3 (_tris_partner): the kernel compares b with it, and
seconda_tris_pairs lists, from each a's partner, the at most q^2 - 1 pairs
where the test holds, which a full-row fill scatters into its column.
seconda and seconda_bis share one equation, a^q + 3ab = 0: classify_bulk
evaluates it once and hands it to both.  prima_bis' equation counts only
where v = b a^2 lies in GF(q)*, about one pair in q+1, so its quadratic in
v runs on those pairs alone.

The two permutation verdicts are screened.  pp_mu evaluates its map on the
first K = floor(2.5 sqrt(q)) of the q+1 roots of unity and pp_direct
evaluates f on the first K = floor(4.7 q) of the q^2 elements; a pair with a
pole or a repeated image among those columns is rejected there, and the full
test, the same code over every column, runs only on the pairs left (through
_refine, the helper that also runs the conditions' second steps).  The
screen is exact: a pole, or two equal images, on any subset of the columns is
already a pole or a collision of the full test, so it rejects nothing the
full test would accept, and every survivor gets the full test's verdict.
Where K + 2 reaches the width (q <= 8 for pp_mu, q <= 5 for pp_direct) the
screen costs more than it saves, and the full test runs alone.  Each K
was the fastest of those measured at q = 16..127; it leaves about 5% of the
pairs for pp_mu's full test and 0.2-5% for pp_direct's.  pp_direct still
evaluates f on GF(q^2) itself, so it stays independent of the reduced test
on mu_(q+1).

The collision-curve kernels build, for a whole block of pairs at once, the
quartic F = (N(X) D(Y) - D(X) N(Y)) / (X - Y) in every characteristic and,
for odd p, its GF(q) form G, as (3, 3, P) index arrays for P pairs,
[i, j, k] holding the coefficient of X^i Y^j of the k-th pair.  They follow
bipoly.build_curves step by step (exact division top X row first, the psi
basis (T+e)^i (T-e)^(2-i), the Frobenius fixed-point check on G) and raise
where it raises.  The transform identity (X-1)^2 (Y-1)^2 G(phi(X, Y)) =
16 e^4 F(X, Y) is checked exactly, by rebasing G on phi's basis
e^i (T+1)^i (T-1)^(2-i) and comparing coefficients.  The psi constants, the
off-diagonal GF(q) points and the root tables of quad_roots are built on
first use, so an engine that never touches a curve costs nothing more to
construct.

The witness kernel is bipoly.four_line_witness and conic_witnesses for a
whole block of pairs, given their F.  Each candidate factorisation is built
from the same closed-form or coefficient-matched constants, in the same
order; where those are roots of a quadratic over GF(q^2), quad_roots finds
both at once.  It writes the quadratic as T^2 + sT + c and reads a root off
one of two tables, the square roots for s = 0 and the roots of
u^2 + u = -c/s^2 otherwise, so it never divides by 2 and serves every
characteristic.  Each candidate is expanded and compared with F, and the
first match of a pair is its witness, so the output equals the per-pair
to_json() dicts exactly.

The resultant kernel is upoly.resultant of the two cubics for a whole block
of pairs: each pair's 6 x 6 Sylvester matrix, in upoly's layout, is one
slice of a (6, 6, P) index array, and _det eliminates every slice at once,
each with its own pivot rows.  resultant_inner evaluates the closed-form
inner factor Phi(a, b) of bipoly.resultant_vs_closed_form.  The two are
computed independently of each other, so comparing them is a real check.

Every kernel accepts any number of pairs.  The grid kernels, pp_mu and
pp_direct (through _screened) and count_off_diag, cut the pairs they are
given into consecutive slices of at most _GRID_CELLS grid cells, one pair at
least, with q+1, q^2 or q^2 - q cells a pair, and join the verdicts in
order.  Every other kernel costs O(pairs), so a caller slices only to bound
what it keeps per pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ff import FieldTower, _take_in_place

__all__ = ["ScanEngine"]

# Grid cells per slice of a grid kernel's pairs (module docstring).
_GRID_CELLS = 1 << 20


class ScanEngine:
    def __init__(self, tower: FieldTower):
        self.tower = tower
        ctx = tower.fq2
        self.ctx = ctx
        self.n = ctx.order
        self.q = tower.q
        self.p = tower.p

        self.FROB = ctx.np_frob
        self.INV = ctx.np_inv
        self.NEG = ctx.np_neg
        self.NORM = ctx.np_norm
        self.MU = ctx.np_mu
        self.XALL = np.arange(self.n, dtype=np.int64)

        # pp_mu's log-domain tables (module docstring), with N = q^2 - 1:
        # per root x = MU[c] = zeta^(J[c]), 3 log x and -log x mod N; per
        # exponent, Z doubled (y = 0 -> 3N) and W on [0, 3N) (pole -> 2q+1)
        # then 0 on [3N, 5N - 1); and j + W reduced mod q+1 (pole -> q+1)
        q1, N, zech = self.q + 1, self.n - 1, ctx.np_zech
        log_x = ctx.np_log[self.MU].astype(np.int64)
        self.J = (log_x // (self.q - 1)).astype(np.int32)
        self.LOG_X3 = (3 * log_x % N).astype(np.int32)
        self.NEG_LOG_X = (-log_x % N).astype(np.int32)
        self.ZECH2 = np.tile(np.where(zech < 0, 3 * N, zech), 2).astype(np.int32)
        w = np.where(zech < 0, 2 * q1 - 1, zech % q1)
        self.ZECH_W = np.concatenate([w, w, w, np.zeros(2 * N - 1, dtype=w.dtype)]).astype(np.int16)
        self.MOD = np.append(np.arange(2 * q1 - 1) % q1, np.full(q1, q1)).astype(np.int32)

        # x^(q-1), (x^(q-1))^q and x^(2(q-1)) for the direct test; the x = 0
        # entries are garbage but always masked by the outer factor x.
        r1 = ctx.vmul(self.FROB, self.INV)
        self.FRR = self.FROB[r1]
        self.R2 = ctx.vmul(r1, r1)

        fq = tower.fq
        if self.p != 2:
            eu = fq.vpow(np.arange(self.q, dtype=np.int64), (self.q - 1) // 2)
            sq = np.where(eu == 1, 1, -1).astype(np.int8)
            sq[0] = 0
            self.SQ = sq  # square class over GF(q): 0 zero, 1 square, -1 non
        else:
            x = np.arange(self.q, dtype=np.int64)
            acc, y = x.copy(), x.copy()
            for _ in range(fq.h - 1):
                y = fq.vmul(y, y)
                acc = fq.vadd(acc, y)
            if not np.isin(acc, (0, 1)).all():  # pragma: no cover
                raise RuntimeError("absolute trace left GF(2)")
            self.TR2 = acc

    def _k(self, c: int) -> np.int64:
        """Index of the prime-field constant c."""
        return np.int64(c % self.p)

    def _sq_ok(self, val: np.ndarray) -> np.ndarray:
        """Nonzero-square test over GF(q) of subfield-valued top indices."""
        if not (val < self.q).all():  # pragma: no cover
            raise ArithmeticError("square-test operand escaped GF(q)")
        return self.SQ[val] == 1

    # ------------------------------------------------------------ verdicts

    def pp_mu(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Permutation verdict through the (q+1)-st roots of unity, screened
        on the first K = floor(2.5 sqrt(q)) of the q+1 roots.  a and b must
        be nonzero indices of GF(q^2): IndexError outside [0, q^2),
        ValueError on 0."""
        a, b = self.ctx._in_range(a), self.ctx._in_range(b)
        if not (a.all() and b.all()):
            raise ValueError("pp_mu needs nonzero a and b")
        return self._screened(self._pp_mu, a, b, self.q + 1, math.isqrt(25 * self.q // 4))

    def pp_direct(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Permutation verdict by evaluating on all of GF(q^2), screened on
        the first K = floor(4.7 q) of the q^2 elements."""
        return self._screened(self._pp_direct, a, b, self.n, 47 * self.q // 10)

    def _screened(self, test, a: np.ndarray, b: np.ndarray, width: int, k: int) -> np.ndarray:
        """test(a, b) over all `width` columns, run in full only on the pairs
        that show no pole and no repeated image on the first k columns;
        slice by slice, as _sliced cuts the pairs."""
        if k + 2 >= width:
            return _sliced(test, width, a, b)
        return _sliced(lambda a, b: _refine(test(a, b, slice(k)), test, a, b), width, a, b)

    def _pp_mu(self, a: np.ndarray, b: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """Whether the pairs map the roots of unity MU[cols] without a pole
        or a repeated image (all of them: the full test)."""
        img = self._images(a, b, cols)
        distinct = _distinct_rows(img)  # sorted: a pole's sentinel q+1, the largest entry, ends its row
        return distinct & (img[:, -1] <= self.q)

    def _images(self, a: np.ndarray, b: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """[i, k]: the exponent to base zeta of g(MU[cols][k]) for the pair
        (a[i], b[i]) of nonzero indices, on the power form
        g(x) = x^3 (b x^3 + x + a)^(q-1); q+1 at a pole.  In the log domain
        (module docstring): three gathers a cell, no field op."""
        log = self.ctx.np_log
        log_a = log.take(a)
        z = _take_in_place(self.ZECH2, ((log.take(b) - log_a) % (self.n - 1))[:, None] + self.LOG_X3[None, cols])
        z += log_a[:, None]
        z += self.NEG_LOG_X[None, cols]
        w = _take_in_place(self.ZECH_W, z)
        w += self.J[None, cols]
        return _take_in_place(self.MOD, w)

    def _pp_direct(self, a: np.ndarray, b: np.ndarray, cols: slice = slice(None)) -> np.ndarray:
        """Whether f takes distinct values on the elements XALL[cols] (all of
        GF(q^2): the full test)."""
        ctx = self.ctx
        t = ctx.vadd(ctx.vmul(a[:, None], self.FRR[None, cols]), ctx.vmul(b[:, None], self.R2[None, cols]))
        t = ctx.vadd(t, self._k(1))
        return _distinct_rows(ctx.vmul(self.XALL[None, cols], t))

    # ------------------------------------------------------ GCD structure

    def gcd_deg(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """deg gcd of the two cubics, by one explicit Euclid step.

        Both cubics reduce to the quadratics
          r1 = b X^2 - a^q X + (b^(q+1) - a^(q+1))
          r2 = (a^2q + b) X^2 + (a^(2q+1) - a^q b^(q+1)) X + b^(q+1)
        whose GCD equals the original one for nonzero a, b.
        """
        ctx = self.ctx
        aq = self.FROB[a]
        na = self.NORM[a]
        nb = self.NORM[b]
        c2 = b
        c1 = self.NEG[aq]
        c0 = ctx.vsub(nb, na)
        aq2 = ctx.vmul(aq, aq)
        d2 = ctx.vadd(aq2, b)
        d1 = ctx.vsub(ctx.vmul(aq2, a), ctx.vmul(aq, nb))
        d0 = nb
        lam = ctx.vmul(d2, self.INV[c2])
        t1 = ctx.vsub(d1, ctx.vmul(lam, c1))
        t0 = ctx.vsub(d0, ctx.vmul(lam, c0))
        deg2 = (t1 == 0) & (t0 == 0)
        x0 = ctx.vmul(self.NEG[t0], self.INV[t1])  # junk where t1 == 0, masked
        r1_at = ctx.vadd(ctx.vadd(ctx.vmul(c2, ctx.vmul(x0, x0)), ctx.vmul(c1, x0)), c0)
        deg1 = (t1 != 0) & (r1_at == 0)
        return (2 * deg2.astype(np.uint8)) + deg1.astype(np.uint8)

    # --------------------------------------------------------- resultants

    def resultant(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Res_X(N, D) of every pair (a, b nonzero): the determinant of the
        6 x 6 Sylvester matrix laid out as upoly.resultant lays it out."""
        aq, bq = self.FROB[a], self.FROB[b]
        one, zero = np.ones_like(a), np.zeros_like(a)
        num = np.stack([aq, one, zero, bq])  # N, highest power first
        den = np.stack([b, zero, one, a])  # D
        M = np.zeros((6, 6, len(a)), dtype=np.int64)
        for r in range(3):
            M[r, r : r + 4] = num
            M[3 + r, r : r + 4] = den
        return _det(self.ctx, M)

    def resultant_inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The closed-form inner factor Phi(a, b) of every pair, the ten terms
        of bipoly.resultant_vs_closed_form."""
        ctx, k = self.ctx, self._k
        na, nb = self.NORM[a], self.NORM[b]
        na2, nb2 = ctx.vmul(na, na), ctx.vmul(nb, nb)
        aq = self.FROB[a]
        terms = [
            ctx.vmul(na2, na),
            ctx.vmul(k(-3), ctx.vmul(na2, nb)),
            self.NEG[na2],
            self.NEG[ctx.vmul(ctx.vmul(a, a), b)],
            ctx.vmul(k(3), ctx.vmul(na, nb2)),
            self.NEG[ctx.vmul(na, nb)],
            self.NEG[ctx.vmul(ctx.vmul(aq, aq), self.FROB[b])],
            self.NEG[ctx.vmul(nb2, nb)],
            ctx.vmul(k(2), nb2),
            self.NEG[nb],
        ]
        return self._fsum(terms)

    # ----------------------------------------------------------- criteria

    def _disc(self, a, b):
        """1 - 4 (b/a)^(q+1), the discriminant of prima and seconda."""
        ctx = self.ctx
        return ctx.vsub(self._k(1), ctx.vmul(self._k(4), ctx.vmul(self.NORM[b], self.INV[self.NORM[a]])))

    def _seconda_eq(self, a, b):
        """a^q + 3ab = 0, the equation of seconda and seconda_bis."""
        ctx = self.ctx
        return ctx.vadd(self.FROB[a], ctx.vmul(self._k(3), ctx.vmul(a, b))) == 0

    def prima(self, a, b):
        ctx = self.ctx
        eq = ctx.vmul(self.FROB[a], self.FROB[b]) == ctx.vmul(a, ctx.vsub(self.NORM[b], self.NORM[a]))
        return _refine(eq, lambda a, b: self._sq_ok(self._disc(a, b)), a, b)

    def seconda(self, a, b, eq=None):
        """eq: _seconda_eq(a, b), if the caller has it (overwritten)."""

        def sq(a, b):
            return self._sq_ok(self.ctx.vmul(self._k(-3), self._disc(a, b)))

        return _refine(self._seconda_eq(a, b) if eq is None else eq, sq, a, b)

    def _prima_bis_eq(self, v, na):
        """v^2 - a^(q+1) v - a^(3(q+1)) = 0 for v = b a^2, the equation of
        prima_bis."""
        ctx = self.ctx
        return ctx.vsub(ctx.vsub(ctx.vmul(v, v), ctx.vmul(na, v)), ctx.vmul(na, ctx.vmul(na, na))) == 0

    def prima_bis(self, a, b):
        ctx = self.ctx
        v = ctx.vmul(b, ctx.vmul(a, a))

        def sq(v, na):
            return self._sq_ok(ctx.vadd(ctx.vmul(self._k(-3), ctx.vmul(na, na)), ctx.vmul(self._k(-4), v)))

        def quad(v, a):
            na = self.NORM[a]
            return _refine(self._prima_bis_eq(v, na), sq, v, na)

        # the square test's operand lies in GF(q) only where v does
        return _refine((v != 0) & (v < self.q), quad, v, a)

    def seconda_bis(self, a, b, eq=None):
        """eq: _seconda_eq(a, b), if the caller has it (overwritten)."""
        ctx = self.ctx

        def sq(a):
            na = self.NORM[a]
            return self._sq_ok(ctx.vmul(self._k(3), ctx.vmul(na, ctx.vsub(self._k(4), ctx.vmul(self._k(9), na)))))

        return _refine(self._seconda_eq(a, b) if eq is None else eq, sq, a)

    def _tris_partner(self, a):
        """b*(a) = a^q + 1/3, the one b with 3b = 3a^q + 1 (p > 3)."""
        return self.ctx.vadd(self.FROB[a], self.INV[self._k(3)])

    def _tris_rest(self, a):
        """The rest of seconda_tris at (a, b*(a)): 3a + 2 != 0 and
        3 a^(q+1) + a + a^q = 0."""
        ctx = self.ctx
        c1 = ctx.vadd(ctx.vmul(self._k(3), a), self._k(2)) != 0
        c3 = ctx.vadd(ctx.vadd(ctx.vmul(self._k(3), self.NORM[a]), a), self.FROB[a]) == 0
        return c1 & c3

    def seconda_tris(self, a, b):
        return _refine(b == self._tris_partner(a), self._tris_rest, a)

    def seconda_tris_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of GF(q^2)* x GF(q^2)* where seconda_tris holds, in
        (a_idx, b_idx) order: the (a, b*(a)) with b*(a) != 0 that pass the
        rest of the test, at most q^2 - 1 of them."""
        a = np.arange(1, self.n, dtype=np.int64)
        b = self._tris_partner(a)
        hold = _refine(b != 0, self._tris_rest, a)
        return a[hold], b[hold]

    def char2(self, a, b):
        ctx = self.ctx
        na = self.NORM[a]
        nb = self.NORM[b]
        aq = self.FROB[a]
        alg = ctx.vadd(ctx.vmul(b, ctx.vadd(ctx.vadd(self._k(1), na), nb)), ctx.vmul(aq, aq)) == 0
        tr_one = self.TR2[ctx.vadd(self._k(1), self.INV[na])] == 0
        tr_gen = self.TR2[ctx.vmul(nb, self.INV[na])] == 0
        return alg & np.where(nb == 1, tr_one, tr_gen)

    char3 = prima  # at p = 3 the constant 4 is 1, so prima's formula is the char-3 criterion

    # --------------------------------------------------- collision curves

    def _fsum(self, terms: np.ndarray) -> np.ndarray:
        """Field sum over the first axis."""
        return functools.reduce(self.ctx.vadd, terms)

    def _mobius_basis(self, c: int, s: int) -> np.ndarray:
        """[i, k]: coefficient of T^k in s^i (T+c)^i (T-c)^(2-i)."""
        ctx = self.ctx
        c2, c_twice = ctx.mul_i(c, c), ctx.add_i(c, c)
        rows = np.array([[c2, ctx.neg_i(c_twice), 1], [ctx.neg_i(c2), 0, 1], [c2, c_twice, 1]], dtype=np.int64)
        return ctx.vmul(rows, np.array([1, s, ctx.mul_i(s, s)], dtype=np.int64)[:, None])

    @functools.cached_property
    def _psi_basis(self) -> np.ndarray:
        """[i, k]: coefficient of T^k in (T+e)^i (T-e)^(2-i)."""
        return self._mobius_basis(self.ctx.e.i, 1)

    def _rebase(self, C: np.ndarray, basis: np.ndarray) -> np.ndarray:
        """sum C[i, j] B_i(X) B_j(Y) of (3, 3, P) coefficients C, with
        basis[i, k] the coefficient of T^k in B_i."""
        ctx = self.ctx
        # H[k, j] = sum_i basis[i, k] C[i, j];  out[k, l] = sum_j basis[j, l] H[k, j]
        H = self._fsum(ctx.vmul(basis[:, :, None, None], C[:, None]))
        return self._fsum(ctx.vmul(basis[:, None, :, None], H.swapaxes(0, 1)[:, :, None]))

    @functools.cached_property
    def _off_diag_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The q^2 - q points (x, y) of GF(q) x GF(q) with x != y."""
        x, y = np.divmod(np.arange(self.q * self.q, dtype=np.int64), self.q)
        off = x != y
        return x[off], y[off]

    def curve_coeffs(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The collision quartic F over GF(q^2) and its GF(q) form G of every
        pair, as (3, 3, len(a)) index arrays ([i, j] is the X^i Y^j term).
        G is None in characteristic 2, where no e has e^q = -e.

        Raises ArithmeticError on a division remainder, a degree overflow or
        a G coefficient outside GF(q).
        """
        ctx = self.ctx
        one, zero = np.ones_like(a), np.zeros_like(a)
        num = np.stack([self.FROB[b], zero, one, self.FROB[a]])  # N, low power first
        den = np.stack([a, one, zero, b])  # D
        F = self._div_x_minus_y(
            ctx.vsub(ctx.vmul(num[:, None], den[None, :]), ctx.vmul(den[:, None], num[None, :]))
        )
        if self.p == 2:
            return F, None
        G = self._rebase(F, self._psi_basis)
        if (self.FROB[G] != G).any():
            raise ArithmeticError("curve coefficient escaped GF(q)")
        return F, G

    def _div_x_minus_y(self, grid: np.ndarray) -> np.ndarray:
        """Exact quotient by X - Y of a (4, 4, P) coefficient grid, as
        bipoly._exact_div_x_minus_y: carry the top X row down, shifted by Y."""
        ctx = self.ctx
        rows, cols = grid.shape[:2]
        carry = np.zeros((rows + cols - 1,) + grid.shape[2:], dtype=np.int64)
        carry[:cols] = grid[-1]
        quot = np.empty((rows - 1,) + carry.shape, dtype=np.int64)
        for i in range(rows - 2, -1, -1):
            quot[i] = carry
            shifted = np.zeros_like(carry)
            shifted[1:] = carry[:-1]
            shifted[:cols] = ctx.vadd(shifted[:cols], grid[i])
            carry = shifted
        if carry.any():
            raise ArithmeticError("division by X - Y left a remainder (arithmetic bug)")
        if quot[:, 3:].any():  # pragma: no cover - implies a remainder in exact arithmetic
            raise ArithmeticError("collision curve has unexpected degree")
        return quot[:, :3]

    def count_off_diag(self, G: np.ndarray) -> np.ndarray:
        """Number of GF(q)-rational zeros (x, y), x != y, of each of the
        GF(q) curves G (as curve_coeffs gives them)."""
        x, y = self._off_diag_points
        return _sliced(lambda G: (_eval_curve(self.tower.fq, G, x, y) == 0).sum(axis=1), len(x), G)

    def iso_identity(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Per pair, whether (X-1)^2 (Y-1)^2 G(phi(X, Y)) = 16 e^4 F(X, Y) as
        polynomials, phi(X, Y) = (e(X+1)/(X-1), e(Y+1)/(Y-1)): the left side
        is G rebased on e^i (T+1)^i (T-1)^(2-i), compared coefficient by
        coefficient."""
        ctx, e = self.ctx, self.ctx.e.i
        lhs = self._rebase(G, self._mobius_basis(1, e))
        scale = ctx.mul_i(self._k(16), ctx.pow_i(e, 4))
        return (lhs == ctx.vmul(scale, F)).all(axis=(0, 1))

    # ------------------------------------------------ factorisation witnesses

    @functools.cached_property
    def _root_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Two n-entry tables, -1 where there is no root: a square root of
        each x (x^2 -> x) and an Artin-Schreier root, u with u^2 + u = x
        (x^2 + x -> x)."""
        ctx, x = self.ctx, self.XALL
        sqrt, as_root = np.full(self.n, -1, dtype=np.int32), np.full(self.n, -1, dtype=np.int32)
        x2 = ctx.vmul(x, x)
        sqrt[x2] = x
        as_root[ctx.vadd(x2, x)] = x
        return sqrt, as_root

    def quad_roots(self, c0, c1, c2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Roots of c2 T^2 + c1 T + c0 (c2 nonzero) as (lo, hi, ok).  Where
        ok, lo <= hi are the roots ascending by index with multiplicity, as
        upoly.roots lists them (lo == hi for a double root); where not, the
        quadratic has no root in GF(q^2) and both are junk.  As T^2 + sT + c,
        one root is r with r^2 = -c if s = 0, else s u with u^2 + u = -c/s^2;
        the other is -s minus it."""
        ctx = self.ctx
        sqrt, as_root = self._root_tables
        inv_c2 = self.INV[c2]
        s, neg_c = ctx.vmul(c1, inv_c2), self.NEG[ctx.vmul(c0, inv_c2)]
        u = np.where(s == 0, sqrt[neg_c], as_root[ctx.vmul(neg_c, self.INV[ctx.vmul(s, s)])])
        ok = u >= 0
        u = np.where(ok, u, 0)
        r1 = np.where(s == 0, u, ctx.vmul(s, u))
        r2 = ctx.vsub(self.NEG[s], r1)
        return np.minimum(r1, r2), np.maximum(r1, r2), ok

    def _is_F(self, b, f1: dict, f2: dict, F: np.ndarray) -> np.ndarray:
        """Per pair, whether -b f1 f2 equals the (size, size, P) grid F; f1
        and f2 map (i, j) to the coefficient of X^i Y^j."""
        ctx = self.ctx
        grid = np.zeros(F.shape, dtype=np.int64)
        for (i1, j1), c1 in f1.items():
            for (i2, j2), c2 in f2.items():
                grid[i1 + i2, j1 + j2] = ctx.vadd(grid[i1 + i2, j1 + j2], ctx.vmul(c1, c2))
        return (ctx.vmul(self.NEG[b], grid) == F).all(axis=(0, 1))

    def witnesses(self, a: np.ndarray, b: np.ndarray, F: np.ndarray) -> list[dict]:
        """Per pair, {"four_line": ..., "conic": ...}: the to_json() of
        bipoly.four_line_witness and conic_witnesses, from the pairs'
        quartics F (as curve_coeffs gives them).  Each shape of those
        functions runs here on the whole batch, in their order, with the
        same candidate constants; each candidate is checked by expanding it
        and comparing with F, and the first match of a pair wins."""
        ctx, one = self.ctx, self._k(1)
        aq = self.FROB[a]

        four = _FirstMatch(len(a))
        A, B, ok = self.quad_roots(ctx.vmul(a, b), ctx.vmul(aq, aq), ctx.vmul(aq, b))
        AB, ApB = ctx.vmul(A, B), ctx.vadd(A, B)
        lines = {(0, 0): AB, (1, 0): ApB, (2, 0): one}, {(0, 0): AB, (0, 1): ApB, (0, 2): one}
        four.offer("four-lines", {"A": A, "B": B}, ok & self._is_F(b, *lines, F))
        four_notes = np.where(ok, "", "line constants not in GF(q^2)")

        conic = _FirstMatch(len(a))
        missing = np.zeros(len(a), dtype=bool)
        if self.p > 3:  # A a root of 3a^q A^2 - 9a^(q+1) A + 9a^(q+2) - a, B = 3a - A, C = a / a^q
            na = self.NORM[a]
            c0 = ctx.vsub(ctx.vmul(ctx.vmul(self._k(9), na), a), a)
            A, _A1, ok = self.quad_roots(c0, ctx.vmul(self._k(-9), na), ctx.vmul(self._k(3), aq))
            missing |= ~ok
            C = ctx.vmul(a, self.INV[aq])
            B = ctx.vsub(ctx.vmul(self._k(3), a), A)  # the other root, whose candidate is f2 f1
            f1 = {(1, 1): one, (1, 0): A, (0, 1): B, (0, 0): C}
            f2 = {(1, 1): one, (1, 0): B, (0, 1): A, (0, 0): C}
            conic.offer("conic-swap", {"A": A, "B": B, "C": C}, ok & self._is_F(b, f1, f2, F))

        # symmetric shape: A, B from their sum and product (one order), then C, D (both orders)
        neg_b_inv = self.INV[self.NEG[b]]
        s_ab, p_ab = ctx.vmul(F[2, 1], neg_b_inv), ctx.vmul(F[2, 0], neg_b_inv)
        A, B, ok_ab = self.quad_roots(p_ab, self.NEG[s_ab], one)
        s_cd = ctx.vsub(ctx.vmul(F[1, 1], neg_b_inv), ctx.vmul(self._k(2), ctx.vmul(A, B)))
        C0, C1, ok_cd = self.quad_roots(ctx.vmul(F[0, 0], neg_b_inv), self.NEG[s_cd], one)
        missing |= ~ok_ab | ~ok_cd
        for C, D in ((C0, C1), (C1, C0)):
            f1 = {(1, 1): one, (1, 0): A, (0, 1): A, (0, 0): C}
            f2 = {(1, 1): one, (1, 0): B, (0, 1): B, (0, 0): D}
            conic.offer("conic-sym", {"A": A, "B": B, "C": C, "D": D}, ok_ab & ok_cd & self._is_F(b, f1, f2, F))

        # square shape: coefficient matching on F padded to the 4 x 4 grid of its candidate
        F4 = np.zeros((4, 4, len(a)), dtype=F.dtype)
        F4[:3, :3] = F
        A, B = ctx.vmul(F4[2, 1], neg_b_inv), ctx.vmul(F4[3, 0], neg_b_inv)
        C = ctx.vsub(ctx.vmul(F4[2, 0], neg_b_inv), ctx.vmul(A, B))
        f1 = {(2, 0): one, (1, 0): A, (0, 1): B, (0, 0): C}
        f2 = {(0, 2): one, (0, 1): A, (1, 0): B, (0, 0): C}
        conic.offer("conic-xsq", {"A": A, "B": B, "C": C}, self._is_F(b, f1, f2, F4))
        conic_notes = np.where(missing, "some pattern constants not in GF(q^2)", "")

        return [
            {"four_line": fl, "conic": cn}
            for fl, cn in zip(four.to_json(four_notes.tolist()), conic.to_json(conic_notes.tolist()))
        ]

    # ---------------------------------------------------------- assembly

    def classify_bulk(self, a: np.ndarray, b: np.ndarray, summary: bool = False) -> dict[str, np.ndarray]:
        """All per-pair scan columns at once; missing-characteristic
        condition columns are simply absent from the dict.

        summary=True leaves out what a summary sweep does not read:
        gcd_deg is computed only on the is_pp pairs and holds 255, which is
        no degree, on the others, and seconda_tris is absent."""
        pp = self.pp_mu(a, b)
        if summary:
            gcd = np.full(len(a), 255, dtype=np.uint8)
            live = np.flatnonzero(pp)
            if live.size:
                gcd[live] = self.gcd_deg(a[live], b[live])
        else:
            gcd = self.gcd_deg(a, b)
        out = {"is_pp": pp, "gcd_deg": gcd}
        if self.p > 3:
            out["prima"] = self.prima(a, b)
            eq = self._seconda_eq(a, b)
            out["seconda"] = self.seconda(a, b, eq.copy())
            out["prima_bis"] = self.prima_bis(a, b)
            out["seconda_bis"] = self.seconda_bis(a, b, eq)
            if not summary:
                out["seconda_tris"] = self.seconda_tris(a, b)
            out["main"] = out["prima"] | out["seconda"]
        elif self.p == 2:
            out["char2"] = self.char2(a, b)
            out["main"] = out["char2"]
        else:
            out["char3"] = self.char3(a, b)
            out["main"] = out["char3"]
        return out


class _FirstMatch:
    """Per pair, the first offered factorisation shape that matched F."""

    def __init__(self, size: int):
        self.which = np.full(size, -1)  # index into shapes, -1 while none matched
        self.shapes: list[tuple[str, dict[str, list[int]]]] = []

    def offer(self, pattern: str, constants: dict[str, np.ndarray], match: np.ndarray) -> None:
        self.which[match & (self.which < 0)] = len(self.shapes)
        self.shapes.append((pattern, {k: v.tolist() for k, v in constants.items()}))

    def to_json(self, notes: list[str]) -> list[dict]:
        """FactorWitness.to_json() of each pair; `notes` are those of a "none"."""
        out = []
        for i, k in enumerate(self.which.tolist()):
            if k < 0:
                out.append({"pattern": "none", "constants": {}, "residual_check": False, "note": notes[i]})
            else:
                pattern, constants = self.shapes[k]
                consts = {name: v[i] for name, v in constants.items()}
                out.append({"pattern": pattern, "constants": consts, "residual_check": True, "note": ""})
        return out


def _sliced(kernel, width: int, *args: np.ndarray) -> np.ndarray:
    """kernel(*args) for a kernel that allocates `width` grid cells a pair,
    the pairs running along the last axis of each arg: run on consecutive
    slices of at most _GRID_CELLS cells (one pair at least) and joined in
    order."""
    count, step = args[0].shape[-1], max(1, _GRID_CELLS // width)
    if count <= step:
        return kernel(*args)
    return np.concatenate([kernel(*(x[..., lo : lo + step] for x in args)) for lo in range(0, count, step)])


def _refine(mask: np.ndarray, test, *args: np.ndarray) -> np.ndarray:
    """mask with each True entry replaced by test's verdict on that pair:
    test runs once, on the pairs' entries of args where mask holds and on no
    others (mask is overwritten)."""
    live = np.flatnonzero(mask)
    if live.size:
        mask[live] = test(*(x[live] for x in args))
    return mask


def _distinct_rows(img: np.ndarray) -> np.ndarray:
    """Per row, whether its entries are pairwise distinct (sorts img in place)."""
    img.sort(axis=1)
    return ~(img[:, 1:] == img[:, :-1]).any(axis=1)


def _det(ctx, M: np.ndarray) -> np.ndarray:
    """Determinant over ctx of each (n, n) slice M[:, :, k] of an (n, n, P)
    index array, by upoly._det's Gaussian elimination: in each column the
    first nonzero entry at or below the diagonal is swapped up as the pivot.
    A slice with no pivot in some column keeps a zero there (argmax of an
    all-False column is its first row), which zeroes its determinant."""
    M = M.copy()
    n, size = M.shape[0], M.shape[2]
    slices = np.arange(size)
    det = np.ones(size, dtype=np.int64)
    odd_swaps = np.zeros(size, dtype=bool)
    for c in range(n):
        nonzero = M[c:, c] != 0
        piv = c + nonzero.argmax(axis=0)
        odd_swaps ^= piv != c
        pivot_row = M[piv, :, slices]  # (P, n)
        M[piv, :, slices] = M[c].T
        M[c] = pivot_row.T
        det = ctx.vmul(det, M[c, c])
        factor = ctx.vmul(M[c + 1 :, c], ctx.np_inv[M[c, c]])  # np_inv[0] = 0: no pivot, no elimination
        M[c + 1 :, c:] = ctx.vsub(M[c + 1 :, c:], ctx.vmul(factor[:, None], M[c, c:][None]))
    return np.where(odd_swaps, ctx.np_neg[det], det)


def _eval_curve(ctx, C: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum C[i, j] x^i y^j over ctx for (3, 3, P) coefficients C at the M
    points x, y shared by every pair, as a (P, M) array."""
    rows = [
        ctx.vadd(ctx.vmul(ctx.vadd(ctx.vmul(C[i, 2][:, None], y), C[i, 1][:, None]), y), C[i, 0][:, None])
        for i in range(3)
    ]
    return ctx.vadd(ctx.vmul(ctx.vadd(ctx.vmul(rows[2], x), rows[1]), x), rows[0])
