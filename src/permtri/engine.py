"""Vectorised verdict and condition kernels for whole parameter sweeps.

Everything here operates on numpy arrays of canonical element indices,
backed by the per-layer tables built in ff (log/exp multiplication, GF(p)
digit addition).  The kernels are algebraically independent rewrites of the
per-pair functions in perm/conds/bipoly; the test suite pins them to those
module paths exhaustively at small q and on samples elsewhere, so the scan
can rely on them at speed.

Callers are expected to chunk their (a, b) arrays; a kernel call allocates
grids of shape (len(a), q+1) or (len(a), q^2) depending on the test.
"""

from __future__ import annotations

import numpy as np

from .ff import FieldTower

__all__ = ["ScanEngine"]


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
        self.X2MU = ctx.vmul(self.MU, self.MU)
        self.X3MU = ctx.vmul(self.X2MU, self.MU)

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
        """Permutation verdict through the (q+1)-st roots of unity."""
        ctx = self.ctx
        aq = self.FROB[a]
        bq = self.FROB[b]
        num = ctx.vadd(ctx.vadd(ctx.vmul(aq[:, None], self.X3MU[None, :]), self.X2MU[None, :]), bq[:, None])
        den = ctx.vadd(ctx.vadd(ctx.vmul(b[:, None], self.X3MU[None, :]), self.MU[None, :]), a[:, None])
        pole = (den == 0).any(axis=1)
        g = ctx.vmul(num, self.INV[den])
        g.sort(axis=1)
        coll = (g[:, 1:] == g[:, :-1]).any(axis=1)
        return ~(pole | coll)

    def pp_direct(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Permutation verdict by evaluating on all of GF(q^2)."""
        ctx = self.ctx
        t = ctx.vadd(ctx.vmul(a[:, None], self.FRR[None, :]), ctx.vmul(b[:, None], self.R2[None, :]))
        t = ctx.vadd(t, self._k(1))
        img = ctx.vmul(self.XALL[None, :], t)
        img.sort(axis=1)
        return ~((img[:, 1:] == img[:, :-1]).any(axis=1))

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

    # ----------------------------------------------------------- criteria

    def prima(self, a, b):
        ctx = self.ctx
        eq = ctx.vmul(self.FROB[a], self.FROB[b]) == ctx.vmul(a, ctx.vsub(self.NORM[b], self.NORM[a]))
        val = ctx.vsub(self._k(1), ctx.vmul(self._k(4), ctx.vmul(self.NORM[b], self.INV[self.NORM[a]])))
        return eq & self._sq_ok(val)

    def seconda(self, a, b):
        ctx = self.ctx
        eq = ctx.vadd(self.FROB[a], ctx.vmul(self._k(3), ctx.vmul(a, b))) == 0
        inner = ctx.vsub(self._k(1), ctx.vmul(self._k(4), ctx.vmul(self.NORM[b], self.INV[self.NORM[a]])))
        return eq & self._sq_ok(ctx.vmul(self._k(-3), inner))

    def prima_bis(self, a, b):
        ctx = self.ctx
        v = ctx.vmul(b, ctx.vmul(a, a))
        in_fq = (v != 0) & (v < self.q)
        na = self.NORM[a]
        quad = ctx.vsub(ctx.vsub(ctx.vmul(v, v), ctx.vmul(na, v)), ctx.vmul(na, ctx.vmul(na, na))) == 0
        val = ctx.vadd(ctx.vmul(self._k(-3), ctx.vmul(na, na)), ctx.vmul(self._k(-4), v))
        cand = in_fq & quad  # val lies in GF(q) only where v does
        return cand & self._sq_ok(np.where(cand, val, 0))

    def seconda_bis(self, a, b):
        ctx = self.ctx
        eq = ctx.vadd(self.FROB[a], ctx.vmul(self._k(3), ctx.vmul(a, b))) == 0
        na = self.NORM[a]
        val = ctx.vmul(self._k(3), ctx.vmul(na, ctx.vsub(self._k(4), ctx.vmul(self._k(9), na))))
        return eq & self._sq_ok(val)

    def seconda_tris(self, a, b):
        ctx = self.ctx
        aq = self.FROB[a]
        c1 = ctx.vadd(ctx.vmul(self._k(3), a), self._k(2)) != 0
        c2 = ctx.vmul(self._k(3), b) == ctx.vadd(ctx.vmul(self._k(3), aq), self._k(1))
        c3 = ctx.vadd(ctx.vadd(ctx.vmul(self._k(3), self.NORM[a]), a), aq) == 0
        return c1 & c2 & c3

    def char2(self, a, b):
        ctx = self.ctx
        na = self.NORM[a]
        nb = self.NORM[b]
        aq = self.FROB[a]
        alg = ctx.vadd(ctx.vmul(b, ctx.vadd(ctx.vadd(self._k(1), na), nb)), ctx.vmul(aq, aq)) == 0
        tr_one = self.TR2[ctx.vadd(self._k(1), self.INV[na])] == 0
        tr_gen = self.TR2[ctx.vmul(nb, self.INV[na])] == 0
        return alg & np.where(nb == 1, tr_one, tr_gen)

    def char3(self, a, b):
        ctx = self.ctx
        eq = ctx.vmul(self.FROB[a], self.FROB[b]) == ctx.vmul(a, ctx.vsub(self.NORM[b], self.NORM[a]))
        val = ctx.vsub(self._k(1), ctx.vmul(self.NORM[b], self.INV[self.NORM[a]]))
        return eq & self._sq_ok(val)

    # ---------------------------------------------------------- assembly

    def classify_bulk(self, a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
        """All per-pair scan columns at once; missing-characteristic
        condition columns are simply absent from the dict."""
        out = {"is_pp": self.pp_mu(a, b), "gcd_deg": self.gcd_deg(a, b)}
        if self.p > 3:
            out["prima"] = self.prima(a, b)
            out["seconda"] = self.seconda(a, b)
            out["prima_bis"] = self.prima_bis(a, b)
            out["seconda_bis"] = self.seconda_bis(a, b)
            out["seconda_tris"] = self.seconda_tris(a, b)
            out["main"] = out["prima"] | out["seconda"]
        elif self.p == 2:
            out["char2"] = self.char2(a, b)
            out["main"] = out["char2"]
        else:
            out["char3"] = self.char3(a, b)
            out["main"] = out["char3"]
        return out
