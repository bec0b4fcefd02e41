"""Sweep reports: aggregates, rows, persistence, determinism, budgets."""

import json
import os
import threading
import tracemalloc
from dataclasses import fields, replace
from functools import cache
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permtri import (
    BudgetExceededError,
    TrinomialParams,
    classify_pair,
    emit_report,
    exhaustive_scan,
    main_predicate,
    sampled_scan,
)
from permtri import bipoly, scan
from permtri.engine import ScanEngine
from permtri.ff import mu_set
from permtri.scan import (
    CSV_COLUMNS,
    ScanReport,
    pair_grid,
    report_from_json,
    sample_pairs,
    to_csv_text,
    to_json_text,
)


def _randrange_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """The reference draw: `count` pairs of Random(seed).randrange(1, n),
    a then b, sorted."""
    rng = Random(seed)
    return sorted((rng.randrange(1, n), rng.randrange(1, n)) for _ in range(count))


def _reference_rows(t):
    """The full rows of every pair of the tower t, each classified by
    ScanEngine.classify_bulk on the whole pair_grid: a per-pair oracle for
    the sweeps, which classify one pair per class."""
    eng = ScanEngine(t)
    a, b = pair_grid(eng.n)
    cols = eng.classify_bulk(a, b)
    named = {**cols, "a_idx": a, "b_idx": b, "main_predicate": cols["main"]}
    absent = np.full(len(a), -1)
    return np.column_stack([named.get(f, absent).astype(np.int32) for f in CSV_COLUMNS[1:]])


def _reference_aggregates(rows, p):
    """The report fields of an exhaustive sweep, read off the full `rows`."""
    col = dict(zip(CSV_COLUMNS[1:], rows.T))
    pp, main = col["is_pp"] == 1, col["main_predicate"] == 1
    if p > 3:
        pr, se = col["prima"][pp] == 1, col["seconda"][pp] == 1
        attribution = {"prima_only": int((pr & ~se).sum()), "seconda_only": int((se & ~pr).sum()), "both": int((pr & se).sum())}
        set_eq = {
            "prima_eq_prima_bis": bool((col["prima"] == col["prima_bis"]).all()),
            "seconda_eq_seconda_bis": bool((col["seconda"] == col["seconda_bis"]).all()),
        }
    else:
        attribution, set_eq = {f"char{p}": int(pp.sum())}, None
    degrees, counts = np.unique(col["gcd_deg"][pp], return_counts=True)
    bad = pp != main
    return {
        "pair_count": len(rows),
        "pp_count": int(pp.sum()),
        "attribution": attribution,
        "gcd_histogram": dict(zip(degrees.tolist(), counts.tolist())),
        "set_equalities": set_eq,
        "equivalence_violations": list(
            zip(col["a_idx"][bad].tolist(), col["b_idx"][bad].tolist(), pp[bad].tolist(), main[bad].tolist())
        ),
    }


class TestExhaustive:
    def test_q5_frozen_aggregates(self, tower):
        rep = exhaustive_scan(5, 1)
        assert rep.pair_count == 576
        assert rep.pp_count == 18
        assert rep.attribution == {"prima_only": 6, "seconda_only": 12, "both": 0}
        assert rep.gcd_histogram == {0: 12, 2: 6}
        assert rep.equivalence_violations == []
        assert rep.set_equalities == {
            "prima_eq_prima_bis": True,
            "seconda_eq_seconda_bis": True,
        }
        assert rep.rows.shape == (576, 10)

    def test_pp_count_cross_checked_independently(self, tower):
        # count both sides separately: verdicts from the scan, criterion
        # count through the per-pair predicate
        rep = exhaustive_scan(5, 1)
        t = tower(5, 1)
        n = t.fq2.order
        by_predicate = sum(
            main_predicate(TrinomialParams.from_indices(t, a, b))
            for a in range(1, n)
            for b in range(1, n)
        )
        assert rep.pp_count == by_predicate == 18

    def test_rows_sorted_and_consistent(self, tower):
        rep = exhaustive_scan(7, 1)
        keys = rep.rows[:, 0].astype(np.int64) * 10**6 + rep.rows[:, 1]
        assert (np.diff(keys) > 0).all()
        assert rep.rows[:, 2].sum() == rep.pp_count
        assert rep.pp_count == sum(rep.attribution.values())

    def test_rows_match_per_pair_classification(self, tower):
        rep = exhaustive_scan(5, 1)
        t = tower(5, 1)
        for row in rep.rows[::37].tolist():
            a, b, is_pp, prima, seconda, pb, sb, st_, gcd, main = row
            rec = classify_pair(TrinomialParams.from_indices(t, a, b))
            assert rec.verdict.is_pp == bool(is_pp)
            assert rec.conditions.prima == bool(prima)
            assert rec.conditions.seconda == bool(seconda)
            assert rec.conditions.prima_bis == bool(pb)
            assert rec.conditions.seconda_bis == bool(sb)
            assert rec.conditions.seconda_tris == bool(st_)
            assert rec.gcd_deg == gcd
            assert rec.conditions.main == bool(main)

    def test_summary_only_drops_rows(self, tower):
        rep = exhaustive_scan(5, 1, summary_only=True)
        assert rep.rows is None and rep.pp_count == 18

    @pytest.mark.parametrize(
        "p,h",
        [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)]
        + [(2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]
        + [pytest.param(p, h, marks=pytest.mark.slow) for p, h in ((29, 1), (31, 1), (2, 5), (37, 1), (41, 1), (43, 1))],
    )
    def test_summary_aggregates_equal_the_full_rows(self, tower, p, h):
        # every prime power q <= 27, and under the slow marker q = 29 ... 43:
        # both sweeps classify one pair per class of mu_(q+1) and the
        # q-power map and count off the kept class rows, copied to their
        # twins and orbits.  The full-row sweep also gives each pair its
        # class's row (and, for p > 3, its own seconda_tris).  Both are held
        # to the reference, which classifies every pair; at q = 8, 9, 13,
        # 25, 29 and 32 (p = 2, 3 and > 3) so are their diagnostics.
        q = p**h
        reference = _reference_rows(tower(p, h))
        want = _reference_aggregates(reference, p)
        diagnostics = q in (8, 9, 13, 25, 29, 32)
        if diagnostics:
            col = dict(zip(CSV_COLUMNS[1:], reference.T))
            pp = col["is_pp"] == 1
            want["diagnostics"] = scan._instance_diagnostics(ScanEngine(tower(p, h)), col["a_idx"][pp], col["b_idx"][pp])
        for threads in (1, 3):
            full = exhaustive_scan(p, h, threads=threads, diagnostics=diagnostics, max_q=q)
            assert full.rows.dtype == np.int32 and np.array_equal(full.rows, reference)
            assert {key: getattr(full, key) for key in want} == want
        summary = exhaustive_scan(p, h, summary_only=True, diagnostics=diagnostics, max_q=q)
        assert summary.rows is None
        assert {key: getattr(summary, key) for key in want} == want
        assert (summary.set_equalities is None) == (p <= 3)

    def test_char2_scan(self, tower):
        rep = exhaustive_scan(2, 2)
        assert rep.pair_count == 225
        assert rep.attribution == {"char2": 5}
        assert rep.set_equalities is None
        assert rep.equivalence_violations == []

    def test_char3_scan(self, tower):
        rep = exhaustive_scan(3, 2, summary_only=True)
        assert rep.equivalence_violations == []
        assert rep.attribution == {"char3": rep.pp_count}

    def test_budget_refusal_and_overrides(self, tower, monkeypatch):
        def no_field(p, h):
            raise AssertionError("field built before the budget was checked")

        with monkeypatch.context() as m:
            m.setattr(scan, "make_field", no_field)
            for p, h in ((37, 1), (2003, 1), (2, 10)):
                with pytest.raises(BudgetExceededError, match="sampled_scan"):
                    exhaustive_scan(p, h)
        monkeypatch.setenv("TRINOMIAL_BUDGET_Q", "11")
        with pytest.raises(BudgetExceededError):
            exhaustive_scan(13, 1)
        assert exhaustive_scan(13, 1, max_q=13, summary_only=True).pp_count == 126
        monkeypatch.delenv("TRINOMIAL_BUDGET_Q")

    def test_diagnostics_attached_to_permutation_instances(self, tower):
        rep = exhaustive_scan(5, 1, diagnostics=True, summary_only=True)
        assert rep.diagnostics is not None and len(rep.diagnostics) == rep.pp_count
        for entry in rep.diagnostics:
            assert entry["points_off_diag"] == 0
            assert entry["conic"]["pattern"] in ("conic-swap", "conic-sym", "conic-xsq", "four-lines", "none")

    def test_diagnostics_point_counts_come_from_the_engine(self, monkeypatch):
        monkeypatch.setattr(ScanEngine, "count_off_diag", lambda self, G: np.full(G.shape[-1], 3, dtype=np.int64))
        rep = exhaustive_scan(5, 1, diagnostics=True, summary_only=True)
        assert [entry["points_off_diag"] for entry in rep.diagnostics] == [3] * rep.pp_count

    def test_diagnostics_witnesses_come_from_the_engine_for_odd_p(self, monkeypatch):
        class Called(Exception):
            pass

        def per_pair(params):
            raise Called

        for module in (scan, bipoly):
            for name in ("four_line_witness", "conic_witnesses"):
                monkeypatch.setattr(module, name, per_pair)
        rep = exhaustive_scan(5, 2, diagnostics=True, summary_only=True)
        assert len(rep.diagnostics) == rep.pp_count == 546
        rep = exhaustive_scan(2, 3, diagnostics=True, summary_only=True)  # p = 2 too
        assert len(rep.diagnostics) == rep.pp_count == 63


def _class_pair_count(q):
    """(q-1)^2 (q+2) / 2: the classes of mu_(q+1) and the q-power map."""
    return (q - 1) ** 2 * (q + 2) // 2


def _whole_transversal(t):
    """Every pair of scan._transversal, one per class of mu_(q+1) and the q-power map."""
    return scan._transversal(t.fq2, 0, _class_pair_count(t.q), scan._class_reps(t.q))


def _scalar_orbit(ctx, a, b):
    """{(a w^-1, b w^2) : w in mu_(q+1)}, by scalar arithmetic."""
    return {(ctx.mul_i(a, ctx.inv_i(w.i)), ctx.mul_i(b, ctx.mul_i(w.i, w.i))) for w in mu_set(ctx)}


def _scalar_class(ctx, q, a, b):
    """The orbit of (a, b) joined with the orbit of (a^q, b^q), by scalar
    arithmetic: the class of the group that mu_(q+1) and the q-power map
    generate, since x -> x^q is an involution that maps orbits to orbits."""
    return _scalar_orbit(ctx, a, b) | _scalar_orbit(ctx, ctx.pow_i(a, q), ctx.pow_i(b, q))


def _scalar_transversal(ctx, q):
    """The transversal's pairs by scalar arithmetic: for each k < q-1 and
    each s in [0, N) with s <= q s mod N, (g^k, g^(k+t)), t = s - 3k mod N."""
    N, g = ctx.order - 1, ctx.generator_idx
    reps = [s for s in range(N) if s <= q * s % N]
    return [(ctx.pow_i(g, k), ctx.pow_i(g, k + (s - 3 * k) % N)) for k in range(q - 1) for s in reps]


_ORBIT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


class TestOrbits:
    """Summary sweeps classify one pair of each class of mu_(q+1), acting by
    (a w^-1, b w^2), and of (a, b) -> (a^q, b^q); they copy each result to
    its Frobenius twin and then over its orbit."""

    @pytest.mark.parametrize("p,h", _ORBIT_FIELDS)
    def test_transversal_meets_each_orbit_once(self, tower, p, h):
        """The transversal meets each class once, in the (k, s) layout of
        _scalar_transversal."""
        t = tower(p, h)
        ctx, q, n = t.fq2, t.q, t.fq2.order
        mu = [x for x in range(1, n) if ctx.pow_i(x, q + 1) == 1]
        assert mu == list(ctx.mu_indices)
        cls = {}
        for a in range(1, n):
            for b in range(1, n):
                if (a, b) not in cls:
                    members = _scalar_class(ctx, q, a, b)
                    cls.update(dict.fromkeys(members, min(members)))
        a, b = _whole_transversal(t)
        assert a.dtype == b.dtype == np.int32
        assert len(a) == _class_pair_count(q)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert pairs == _scalar_transversal(ctx, q)
        hit = [cls[pair] for pair in pairs]
        assert sorted(hit) == sorted(set(cls.values()))  # every class, each once

    @pytest.mark.parametrize("p,h", _ORBIT_FIELDS)
    def test_orbit_members_expand_the_transversal(self, tower, p, h):
        """The transversal with its Frobenius twins, expanded by
        _orbit_members, is every pair once, in (a_idx, b_idx) order.  Each
        twin lies in the orbit of its pair's conjugate (a^q, b^q); each
        member lies in the scalar orbit of the expanded pair its source
        position names, and so in the class of its transversal pair."""
        t = tower(p, h)
        ctx, q, n = t.fq2, t.q, t.fq2.order
        engine = ScanEngine(t)
        a, b = _whole_transversal(t)
        moved, twin_b = scan._twins(engine, a, b)
        assert len(moved) == len(a) - (q - 1) ** 2  # q-1 fixed t per k
        for i, y in zip(moved.tolist(), twin_b.tolist()):
            x = int(a[i])
            assert (x, y) in _scalar_orbit(ctx, ctx.pow_i(x, q), ctx.pow_i(int(b[i]), q))
            assert (x, y) != (x, int(b[i]))
        pa, pb = np.concatenate([a, a[moved]]), np.concatenate([b, twin_b])
        ea, eb, src = scan._orbit_members(engine, pa, pb)
        members = list(zip(ea.tolist(), eb.tolist()))
        assert members == [(x, y) for x in range(1, n) for y in range(1, n)]
        assert all(m in _scalar_orbit(ctx, int(pa[j]), int(pb[j])) for m, j in zip(members, src.tolist()))
        origin = np.concatenate([np.arange(len(a)), moved])[src]
        classes = [_scalar_class(ctx, q, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert all(m in classes[i] for m, i in zip(members, origin.tolist()))

    def test_summary_classifies_only_the_transversal(self, tower, monkeypatch):
        """One thread classifies the (q-1)^2 (q+2) / 2 transversal pairs in
        order; on three, the workers' slices interleave but cover the same
        pairs once."""
        seen = []
        classify = ScanEngine.classify_bulk

        def spy(self, a, b, summary=False):
            seen.extend(zip(a.tolist(), b.tolist()))
            return classify(self, a, b, summary)

        monkeypatch.setattr(ScanEngine, "classify_bulk", spy)
        pairs = list(zip(*(x.tolist() for x in _whole_transversal(tower(7, 1)))))
        exhaustive_scan(7, 1, summary_only=True)
        assert len(seen) == _class_pair_count(7) == 162
        assert seen == pairs  # in transversal order
        seen.clear()
        rep = exhaustive_scan(7, 1, threads=3, summary_only=True)
        assert sorted(seen) == sorted(pairs)  # the workers' slices interleave
        assert rep.pair_count == 48 * 48

    @pytest.mark.parametrize("p,h", [(5, 1), (2, 3), (3, 2)])
    def test_violations_spread_in_row_order(self, monkeypatch, p, h):
        # flip the criterion where N(a) = 1, a set the orbits respect since
        # N(w) = 1 on mu_(q+1): every pair with a in mu_(q+1) is a violation
        classify = ScanEngine.classify_bulk

        def flipped(self, a, b, summary=False):
            cols = classify(self, a, b, summary)
            cols["main"] = cols["main"] ^ (self.NORM[a] == 1)
            return cols

        monkeypatch.setattr(ScanEngine, "classify_bulk", flipped)
        full = exhaustive_scan(p, h)
        q = full.q
        assert len(full.equivalence_violations) == (q + 1) * (q * q - 1)
        assert report_from_json(to_json_text(full)).equivalence_violations == full.equivalence_violations  # tuples
        for threads in (1, 2, 5):
            summary = exhaustive_scan(p, h, threads=threads, summary_only=True)
            assert summary.equivalence_violations == full.equivalence_violations

    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])
    def test_diagnostics_cover_every_instance(self, tower, p, h):
        """Both sweeps describe every permutation instance of the reference
        rows, in (a_idx, b_idx) order."""
        reference = _reference_rows(tower(p, h))
        a, b, is_pp = reference[:, :3].T
        want = scan._instance_diagnostics(ScanEngine(tower(p, h)), a[is_pp == 1], b[is_pp == 1])
        assert len(want) == (is_pp == 1).sum() > 0
        for summary_only in (False, True):
            assert exhaustive_scan(p, h, summary_only=summary_only, diagnostics=True).diagnostics == want

    @pytest.mark.parametrize("p,h", _ORBIT_FIELDS + [(11, 1), (13, 1), (2, 4)])
    def test_class_positions_name_each_pairs_class(self, tower, p, h):
        """At every prime power q <= 16, the transversal pair that
        _class_positions names for a grid pair (a, b) is (a w^-1, b w^2) or
        (a^q w^-1, b^q w^2) for some w in mu_(q+1), checked by scalar
        arithmetic: k = log a mod (q-1) and log(a^2 b) are fixed by w, and
        conjugation fixes the first and multiplies the second by q."""
        t = tower(p, h)
        ctx, q = t.fq2, t.q
        transversal = _scalar_transversal(ctx, q)
        a, b = pair_grid(ctx.order)
        pos = scan._class_positions(ctx, scan._class_reps(q), a, b)
        for x, y, i in zip(a.tolist(), b.tolist(), pos.tolist()):
            tx, ty = transversal[i]
            images = []
            for cx, cy in ((x, y), (ctx._frob[x], ctx._frob[y])):
                w = ctx.mul_i(cx, ctx.inv_i(tx))  # tx = cx w^-1
                images.append(ctx.pow_i(w, q + 1) == 1 and ty == ctx.mul_i(cy, ctx.pow_i(w, 2)))
            assert any(images), ((x, y), (tx, ty))


class TestSampled:
    def test_seed_reproducibility(self, tower):
        r1 = sampled_scan(7, 1, 400, seed=9)
        r2 = sampled_scan(7, 1, 400, seed=9, threads=4)
        assert to_csv_text(r1) == to_csv_text(r2)
        assert r1.pair_count == 400 and r1.samples == 400 and r1.seed == 9

    def test_zero_samples(self, tower):
        rep = sampled_scan(7, 1, 0, seed=1)
        assert rep.pair_count == 0 and rep.pp_count == 0
        assert rep.rows.shape == (0, 10)
        assert to_csv_text(rep).strip() == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize(
        "p,h,samples,seed,attribution",
        [
            (5, 1, 0, 1, {}),
            (3, 1, 0, 0, {}),
            (2, 1, 0, 0, {}),
            (5, 1, 3, -5, {"prima_only": 0, "seconda_only": 0, "both": 0}),
            (3, 1, 5, 0, {"char3": 0}),
            (2, 2, 2, 0, {"char2": 0}),
        ],
    )
    def test_aggregates_without_instances(self, p, h, samples, seed, attribution):
        """No pair gives no attribution key; pairs but no permutation
        instance keep each key of the characteristic at zero.  Diagnostics
        of no instance (the engine kernels on empty arrays) are []."""
        both = {"prima_eq_prima_bis": True, "seconda_eq_seconda_bis": True}
        for diagnostics in (False, True):
            rep = sampled_scan(p, h, samples, seed, diagnostics=diagnostics)
            assert rep.pair_count == samples and rep.pp_count == 0
            assert rep.attribution == attribution and list(rep.attribution) == list(attribution)
            assert rep.gcd_histogram == {}
            assert rep.set_equalities == (both if p > 3 else None)
            assert rep.diagnostics == ([] if diagnostics else None)

    def test_rows_sorted(self, tower):
        rep = sampled_scan(7, 1, 300, seed=2)
        keys = rep.rows[:, 0].astype(np.int64) * 10**6 + rep.rows[:, 1]
        assert (np.diff(keys) >= 0).all()  # duplicates allowed

    @pytest.mark.parametrize(
        "n,count,seed",
        [
            (9, 0, 1),
            (9, 1, 2),
            (9, 500, 3),
            (625, 2000, 4),
            (3481, 20_000, 0),
            (2, 300, 5),  # one-bit draws, half of them rejected
            (2**16, 5000, 1),  # 16-bit draws, one value in 2^16 rejected
            (2**16 + 1, 5000, 2),  # 17-bit draws, half rejected
            (2**16 + 2, 20_000, 3),  # 17-bit draws, about half rejected
            (317**2, 20_000, 317),
            (6_250_000, 20_000, 6),  # the largest field make_field builds
            (3481, 2000, -5),
            (3481, 2000, 2**40 + 3),
        ],
    )
    def test_sample_pairs_sort_the_seeded_draws(self, n, count, seed):
        """The same Random(seed) draws, a then b per pair, sorted as tuples
        (n = 9: 64 distinct pairs, so duplicates are heavy)."""
        a, b = sample_pairs(n, count, seed)
        assert a.dtype == b.dtype == np.int32
        assert list(zip(a.tolist(), b.tolist())) == _randrange_pairs(n, count, seed)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6_250_000), st.integers(0, 300), st.integers())
    def test_sample_pairs_are_the_randrange_draws(self, n, count, seed):
        a, b = sample_pairs(n, count, seed)
        assert list(zip(a.tolist(), b.tolist())) == _randrange_pairs(n, count, seed)

    def test_sample_pairs_refill_continues_the_stream(self, monkeypatch):
        """Batches far too short for the rejection rate: each refill reads
        on from where the last batch ended."""
        batches = []
        monkeypatch.setattr(scan, "_word_batch", lambda need, width: batches.append(need) or need // 3 + 1)
        a, b = sample_pairs(2**16 + 2, 1000, 11)
        assert list(zip(a.tolist(), b.tolist())) == _randrange_pairs(2**16 + 2, 1000, 11)
        assert len(batches) > 3 and batches[0] == 2000

    @pytest.mark.parametrize("n", [-3, 0, 1, 2**31 + 1, 2**32 + 1, 2**40])
    def test_sample_pairs_refuses_n_it_cannot_draw_from(self, n):
        """n < 2 has no nonzero index, and past 2^31 an index overflows
        int32 (past 2^32 + 1, randrange also takes two words a draw).  The
        error comes before any draw: 10^15 pairs would not fit in memory."""
        with pytest.raises(ValueError, match=r"2 <= n <= 2\^31"):
            sample_pairs(n, 10**15, 0)
        for count in (0, -4):
            assert all(x.shape == (0,) and x.dtype == np.int32 for x in sample_pairs(n, count, 0))

    def test_pair_grid_is_int32(self):
        a, b = pair_grid(16)
        assert a.dtype == b.dtype == np.int32
        assert list(zip(a.tolist(), b.tolist())) == [(x, y) for x in range(1, 16) for y in range(1, 16)]
        a, b = pair_grid(16, 29, 32)  # a window by position: pairs 29, 30 and 31
        assert a.dtype == b.dtype == np.int32
        assert list(zip(a.tolist(), b.tolist())) == [(2, 15), (3, 1), (3, 2)]

    def test_large_field_sample_has_no_violations(self, tower):
        rep = sampled_scan(7, 2, 100_000, seed=7, summary_only=True)
        assert rep.q == 49
        assert rep.equivalence_violations == []


class TestPairSource:
    @pytest.mark.parametrize("p,h", _ORBIT_FIELDS)
    def test_pair_grid_windows(self, tower, p, h):
        """A window of pair_grid is that slice of the whole grid: empty, one
        pair, across an a-row, to the end and whole.  A window past the last
        pair raises IndexError."""
        t = tower(p, h)
        n, m = t.fq2.order, t.fq2.order - 1
        whole = pair_grid(n)
        total = m * m
        assert list(zip(*(w.tolist() for w in whole))) == [(x, y) for x in range(1, n) for y in range(1, n)]
        windows = [(0, 0), (m, m), (total, total), (0, 1), (m - 1, m), (m, m + 1), (total - 1, total)]
        windows += [(m - 1, m + 1), (1, 2 * m + 3), (m + 1, None), (0, total)]
        for lo, hi in windows:
            a, b = pair_grid(n, lo, hi)
            assert a.dtype == b.dtype == np.int32
            assert np.array_equal(a, whole[0][lo:hi]) and np.array_equal(b, whole[1][lo:hi])
        for lo in (0, m + 1, total - 1, total):
            with pytest.raises(IndexError):
                pair_grid(n, lo, total + 1)

    @pytest.mark.parametrize("p,h", _ORBIT_FIELDS)
    def test_transversal_windows(self, tower, p, h):
        """A window of _transversal is that slice of the whole transversal
        (M = (q^2 + q - 2) / 2 pairs a k-row): empty, one pair, across a
        k-row, the last pair and whole.  A window past the last pair, or
        with lo > hi or lo < 0, raises IndexError."""
        t = tower(p, h)
        ctx, q, reps = t.fq2, t.q, scan._class_reps(t.q)
        total, M = _class_pair_count(q), (q * q + q - 2) // 2
        want = _scalar_transversal(ctx, q)
        assert len(want) == total == (q - 1) * M
        windows = [(0, 0), (M, M), (total, total), (0, 1), (M - 1, M), (M, M + 1), (total - 1, total)]
        windows += [(M - 1, M + 1), (1, 2 * M + 3), (0, total)]
        for lo, hi in windows:
            if hi > total:  # q = 2 has one k-row, q = 3 two
                with pytest.raises(IndexError):
                    scan._transversal(ctx, lo, hi, reps)
                continue
            a, b = scan._transversal(ctx, lo, hi, reps)
            assert a.dtype == b.dtype == np.int32
            assert list(zip(a.tolist(), b.tolist())) == want[lo:hi]
        for lo, hi in ((total - 1, total + 3), (total, total + 1), (total + 1, total + 1), (1, 0), (-1, 2)):
            with pytest.raises(IndexError):
                scan._transversal(ctx, lo, hi, reps)

    def test_pair_grid_windows_past_int32(self):
        """Past 2^31 pairs a window still counts in int32 from its first
        a-row; a window too long for that is refused before it is built."""
        n = 50_000  # (n-1)^2 > 2^31 pairs
        a, b = pair_grid(n, (n - 1) ** 2 - 3)
        assert a.dtype == b.dtype == np.int32
        assert list(zip(a.tolist(), b.tolist())) == [(n - 1, n - 3), (n - 1, n - 2), (n - 1, n - 1)]
        with pytest.raises(ValueError, match="overflows its int32 count"):
            pair_grid(n)

    def test_transversal_windows_past_int32(self):
        """Past 2^31 pairs a window still counts in int32 from its first
        k-row; a window too long for that is refused before it is built.
        A stand-in field of order 4096^2, with a zero table R of 2^20
        entries, has 4095 * 2^20 > 2^31 pairs, and its exp table gives back
        the exponents it is asked for."""
        q, M = 4096, 1 << 20
        ctx = SimpleNamespace(order=q * q, np_exp2=SimpleNamespace(take=lambda e: e))
        total = (q - 1) * M
        k, e = scan._transversal(ctx, total - 3, total, np.zeros(M, np.int32))
        assert k.dtype == e.dtype == np.int32
        assert k.tolist() == [q - 2] * 3 and e.tolist() == [q * q - 1 - 2 * (q - 2)] * 3
        with pytest.raises(ValueError, match="overflows its int32 count"):
            scan._transversal(ctx, 0, (1 << 31) + 1, np.zeros(M, np.int32))

    @pytest.mark.parametrize("summary_only", [False, True])
    @pytest.mark.parametrize("threads", [1, 2, 5])
    def test_sweeps_ask_for_one_slice_at_a_time(self, monkeypatch, summary_only, threads):
        """An exhaustive sweep asks _transversal for one slice at a time: the
        windows are [k step, min((k+1) step, count)) with
        step = min(_SLICE_PAIRS, ceil(count / threads)).  It builds its
        table R once and hands the same one to every window.  A full-row
        sweep then asks pair_grid for the windows
        [k _SLICE_PAIRS, min((k+1) _SLICE_PAIRS, pairs)) in order, from the
        calling thread, at any thread count; a summary never asks it."""
        windows = {"_transversal": [], "pair_grid": []}
        tables, callers = set(), set()

        def spy(name):
            source = getattr(scan, name)

            def window(head, lo, hi, **kw):  # head: the ctx or n the source is bound to
                a, b = source(head, lo, hi, **kw)
                windows[name].append((lo, lo + len(a)))
                tables.update(id(r) for r in kw.values())
                if name == "pair_grid":
                    callers.add(threading.get_ident())
                return a, b

            return window

        for name in windows:
            monkeypatch.setattr(scan, name, spy(name))
        count, total = _class_pair_count(7), 48 * 48
        for slice_pairs in (40, 1 << 15):  # at 2^15, the threads set the step
            monkeypatch.setattr(scan, "_SLICE_PAIRS", slice_pairs)
            for seen in (*windows.values(), tables, callers):
                seen.clear()
            rep = exhaustive_scan(7, 1, threads=threads, summary_only=summary_only)
            assert rep.pair_count == total
            assert len(tables) == 1
            step = min(slice_pairs, -(-count // threads))
            assert sorted(windows["_transversal"]) == [(lo, min(lo + step, count)) for lo in range(0, count, step)]
            fill = range(0, 0 if summary_only else total, slice_pairs)
            assert windows["pair_grid"] == [(lo, min(lo + slice_pairs, total)) for lo in fill]
            assert callers == (set() if summary_only else {threading.get_ident()})


class TestEmission:
    def test_csv_schema_and_row_count(self, tower, tmp_path):
        rep = exhaustive_scan(5, 1)
        path = emit_report(rep, "csv", tmp_path / "q5.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "q,a_idx,b_idx,is_pp,prima,seconda,prima_bis,seconda_bis,seconda_tris,gcd_deg,main_predicate"
        assert len(lines) == 1 + 576
        assert lines[1].startswith("5,1,1,")

    def test_csv_blank_cells_for_other_characteristics(self, tower):
        rep = exhaustive_scan(2, 2)
        line = to_csv_text(rep).splitlines()[1]
        cells = line.split(",")
        assert cells[4:9] == ["", "", "", "", ""]  # prima..seconda_tris
        assert cells[3] in ("0", "1") and cells[10] in ("0", "1")

    def test_json_round_trip(self, tower):
        rep = exhaustive_scan(5, 1)
        text = to_json_text(rep)
        again = report_from_json(text)
        assert to_json_text(again) == text
        assert np.array_equal(again.rows, rep.rows)
        assert again.gcd_histogram == rep.gcd_histogram  # int keys again

    def test_json_round_trip_keeps_empty_rows(self, tower):
        rep = sampled_scan(5, 1, 0, seed=1)
        again = report_from_json(to_json_text(rep))
        assert again.rows.shape == rep.rows.shape == (0, 10)
        assert to_csv_text(again) == to_csv_text(rep)
        assert to_json_text(again) == to_json_text(rep)

    def test_emit_json_file(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 50, seed=3)
        path = emit_report(rep, "json", tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded["mode"] == "sampled" and loaded["pair_count"] == 50

    def test_unknown_format(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 1, seed=0)
        with pytest.raises(ValueError):
            emit_report(rep, "xml", tmp_path / "x")

    def test_emit_streams_blocks(self, tower, tmp_path):
        rep = exhaustive_scan(5, 2)
        tracemalloc.start()
        try:
            path = emit_report(rep, "csv", tmp_path / "q25.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 10_000_000
        assert peak < size / 2  # one block at a time, never the whole text

    def test_unwritable_path(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 1, seed=0)
        with pytest.raises(OSError):
            emit_report(rep, "csv", tmp_path / "missing_dir" / "x.csv")


def _csv_reference(report):
    """The per-row CSV loop that the vectorised row encoder replaced."""
    lines = [",".join(CSV_COLUMNS)]
    if report.rows is not None:
        q = str(report.q)
        for row in report.rows.tolist():
            cells = [q]
            cells.extend("" if v == -1 else str(v) for v in row)
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_ENCODED_REPORTS = {
    "q5": lambda: exhaustive_scan(5, 1),
    "q7": lambda: exhaustive_scan(7, 1),
    "q9-p3": lambda: exhaustive_scan(3, 2),  # empty condition cells
    "q8-p2": lambda: exhaustive_scan(2, 3),
    "q59-sampled": lambda: sampled_scan(59, 1, 2000, seed=4),  # 4-digit, sparse indices
    "zero-samples": lambda: sampled_scan(7, 1, 0, seed=1),
    "q5-diagnostics": lambda: exhaustive_scan(5, 1, diagnostics=True),
}


class TestRowEncoder:
    @pytest.mark.parametrize("block", [None, 7], ids=["default-block", "block-7"])
    @pytest.mark.parametrize("name", list(_ENCODED_REPORTS))
    def test_bytes_match_reference(self, tower, monkeypatch, name, block):
        if block is not None:  # 7-row blocks end in the middle of a-rows
            monkeypatch.setattr(scan, "_SLICE_PAIRS", block)
        rep = _ENCODED_REPORTS[name]()
        assert to_csv_text(rep) == _csv_reference(rep)
        assert to_json_text(rep) == json.dumps(rep.to_json(), sort_keys=True, separators=(",", ": "))


def _read(text):
    """(payload without rows, rows) of report_from_json(text), or the type
    of the exception it raised."""
    try:
        rep = report_from_json(text)
    except Exception as exc:  # any error: its type is what is compared
        return type(exc)
    return replace(rep, rows=None).to_json(), rep.rows


def _read_reference(text):
    """_read through the reader that numpy replaced: json.loads of the whole
    text, and the rows through Python lists."""
    try:
        d = json.loads(text)
        kw = {f.name: d[f.name] for f in fields(ScanReport)}
        kw["gcd_histogram"] = {int(k): v for k, v in kw["gcd_histogram"].items()}
        kw["equivalence_violations"] = [tuple(v) for v in kw["equivalence_violations"]]
        rows = kw.pop("rows")
        rows = None if rows is None else np.array(rows, dtype=np.int32).reshape(-1, len(CSV_COLUMNS) - 1)
    except Exception as exc:  # any error, as in _read
        return type(exc)
    return ScanReport(**kw).to_json(), rows


def _assert_same_read(text):
    got, want = _read(text), _read_reference(text)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert got[1].dtype == np.int32 and got[1].flags.c_contiguous
        assert np.array_equal(got[1], want[1])


def _with_rows(text, rows):
    """`text` with its top-level rows replaced by the JSON text `rows`."""
    head, rest = text.split('"rows": ', 1)
    tail = rest.split(',"samples": ', 1)[1]
    return f'{head}"rows": {rows},"samples": {tail}'


_ROW = "[1,2,0,1,0,0,0,0,2,1]"


def _cells(*values):
    return "[" + ",".join(map(str, values)) + "]"


_MALFORMED_ROWS = {
    "leading-zero": "[[01,2,0,1,0,0,0,0,2,1]]",
    "leading-zero-negative": "[[-01,2,0,1,0,0,0,0,2,1]]",
    "minus-zero": "[[-0,2,0,1,0,0,0,0,2,1]]",
    "negative": f"[{_ROW},[-5,2,0,1,0,0,0,0,2,-1]]",
    "whitespace-in-row": "[[1, 2,0,1,0,0,0,0,2,1]]",
    "whitespace-between-rows": f"[{_ROW}, {_ROW}]",
    "9-columns": "[[1,2,0,1,0,0,0,0,2]]",
    "9-columns-10-rows": "[" + ",".join(["[1,2,0,1,0,0,0,0,2]"] * 10) + "]",
    "11-columns": "[[1,2,0,1,0,0,0,0,2,1,1]]",
    "9-then-11-columns": "[[1,2,0,1,0,0,0,0,2],[1,2,0,1,0,0,0,0,2,1,1]]",
    "row-inside-row": "[[1,2,0,1,0,0,0,0,2,1,5,[1,2,0,1,0,0,0,0,2]]]",
    "digit-between-rows": f"[[1,2,0,1,0,0,0,0,2,1,5]7{_ROW}]",
    "space-for-comma": "[[1 2,0,1,0,0,0,0,2,1]]",
    "digit-before-first-row": f"[5{_ROW}]",
    "int32-bounds": "[" + _cells(2**31 - 1, -(2**31), 0, 1, 0, 0, 0, 0, 2, 1) + "]",
    "2**31": "[" + _cells(2**31, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",
    "-2**31-1": "[" + _cells(-(2**31) - 1, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",
    "11-digits": "[" + _cells(10**10, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",
    "20-digits": "[" + _cells(10**19, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",
    "2**32+1": "[" + _cells(2**32 + 1, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",  # int32 would read 1
    "-2**32": "[" + _cells(-(2**32), 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",  # int32 would read 0
    "2**32+10**9": "[" + _cells(2**32 + 10**9, 2, 0, 1, 0, 0, 0, 0, 2, 1) + "]",  # int32 would read 10**9, as long
    "stray-minus": "[[1,-,0,1,0,0,0,0,2,1]]",
    "inner-minus": "[[1-2,2,0,1,0,0,0,0,2,1]]",
    "double-minus": "[[--1,2,0,1,0,0,0,0,2,1]]",
    "trailing-minus": "[[1,2,0,1,0,0,0,0,2,1-]]",
    "empty-cell": "[[1,,0,1,0,0,0,0,2,1]]",
    "float": "[[1.0,2,0,1,0,0,0,0,2,1]]",
    "exponent": "[[1e0,2,0,1,0,0,0,0,2,1]]",
    "boolean": "[[true,2,0,1,0,0,0,0,2,1]]",
    "non-ascii-digit": "[[1,2,0,1,0,0,0,0,2,\u0661]]",  # ARABIC-INDIC DIGIT ONE
    "lone-surrogate": "[[1,2,0,1,0,0,0,0,2,\ud800]]",  # a str that UTF-8 cannot encode
    "empty": "[]",
    "null": "null",
    "empty-row": "[[]]",
    "flat": _ROW,
    "unclosed-row": "[[1,2,0,1,0,0,0,0,2,1]",
    "extra-bracket": f"[{_ROW}]]",
    "cell-then-row": "[1,[2,0,1,0,0,0,0,2,1]]",
    "row-of-rows": f"[[{_ROW}]]",
}


def _whole_text_loaded(monkeypatch, text):
    """Whether report_from_json(text) calls json.loads on all of `text`,
    that is, reads its rows without numpy."""
    loaded, real_loads = [], json.loads
    with monkeypatch.context() as m:
        m.setattr(json, "loads", lambda s, **kw: loaded.append(s) or real_loads(s, **kw))
        _read(text)
    return text in loaded


@cache
def _small_json():
    return to_json_text(exhaustive_scan(3, 1))  # p = 3: -1 cells


class TestJsonReader:
    @pytest.mark.parametrize(
        "name, block",
        [pytest.param(n, None, id=n) for n in _ENCODED_REPORTS]
        + [pytest.param(n, 7, id=f"{n}-block-7") for n in _ENCODED_REPORTS],
    )
    def test_numpy_rows_equal_json_rows(self, monkeypatch, name, block):
        if block is not None:  # the reader compares blocks that end in the middle of a-rows
            monkeypatch.setattr(scan, "_SLICE_PAIRS", block)
        text = to_json_text(_ENCODED_REPORTS[name]())
        for form in (text, text + "\n"):  # the file, and what scan --out - prints
            assert not _whole_text_loaded(monkeypatch, form)
            _assert_same_read(form)
            got = report_from_json(form)
            assert to_json_text(got) == text
            assert got.rows.shape == (got.pair_count, 10)

    def test_header_bytes_the_writer_never_writes(self, monkeypatch):
        text = to_json_text(sampled_scan(7, 1, 30, seed=2))
        diag = ',"diagnostics": null'
        assert diag in text and '"wall_time": ' in text
        unbalanced = _with_rows(text, f"[{_ROW}],[{_ROW}]")  # not JSON, but with null for its rows it is
        cases = {
            "missing-key-unbalanced-rows": unbalanced.replace('"q": 7,', "", 1),
            "histogram-list-unbalanced-rows": unbalanced.replace('"gcd_histogram": {}', '"gcd_histogram": []', 1),
            "keys-out-of-order": text.replace(diag, "", 1)[:-1] + diag + "}",
            "colon-without-space": text.replace('"q": ', '"q":', 1),
            "wall-time-0.10": text[: text.index('"wall_time": ')] + '"wall_time": 0.10}',
            "extra-top-level-key": text[:-1] + ',"extra": [[1,2]]}',
            "duplicate-key": text.replace('{"attribution": ', '{"q": 11,"attribution": ', 1),
            "trailing-data": text + "]",
            "bytes": text.encode(),
        }
        assert len({text, unbalanced, *cases.values()}) == len(cases) + 2  # every edit applied
        for name, case in cases.items():
            _assert_same_read(case)
            assert _whole_text_loaded(monkeypatch, case), name
        for case in ("\r\n" + text + "\r\n", "  " + text, text + " \t\n"):
            _assert_same_read(case)  # JSON whitespace around the text: still numpy
            assert not _whole_text_loaded(monkeypatch, case)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_changed_character_reads_as_json_loads_reads_it(self, data):
        text = _small_json()
        pos = data.draw(st.integers(0, len(text) - 1), label="pos")
        char = data.draw(st.sampled_from("0123456789[],- "), label="char")
        _assert_same_read(text[:pos] + char + text[pos + 1 :])

    @pytest.mark.parametrize("name", list(_MALFORMED_ROWS))
    def test_other_rows_read_as_json_loads_reads_them(self, name):
        _assert_same_read(_with_rows(to_json_text(sampled_scan(7, 1, 3, seed=2)), _MALFORMED_ROWS[name]))

    def test_rows_key_off_the_top_level(self):
        text = to_json_text(sampled_scan(7, 1, 3, seed=2))
        nested = '"attribution": {"rows": [' + _ROW + '],"samples": 0,'
        cases = [
            text.replace('"attribution": {', nested, 1),  # nested before the real rows
            _with_rows(text, "null").replace('"attribution": {', nested, 1),  # nested only
            text[:-1] + ',"rows": null}',  # a later top-level duplicate wins
            text[:-1] + ',"\\u0072ows": null}',  # the same key, escaped
            # a "rows" key after the top-level one, with its keys sorted as the writer sorts them
            _with_rows(text, "null").replace(
                '"seconda_eq_seconda_bis"', '"rows": [' + _ROW + '],"samples": 1,"seconda_eq_seconda_bis"', 1
            ),
            '{"wrapped": ' + text + "}",
            # nested rows where cutting out the span up to the top-level
            # `],"samples": ` leaves an object without the report's keys
            text.replace('"attribution": {', '"attribution": {"rows": [1],', 1) + "}",
            "[" + text + "]",
        ]
        assert all('"rows": [' in c or "u0072" in c for c in cases)
        for case in cases:
            _assert_same_read(case)


class TestRowMatrix:
    @pytest.mark.parametrize("p, h", [(3, 2), (7, 1)], ids=["q9-p3", "q7"])
    def test_thread_slices_fill_one_matrix(self, tower, monkeypatch, p, h):
        reference = _reference_rows(tower(p, h))
        monkeypatch.setattr(scan, "_SLICE_PAIRS", 5)  # 5-pair slices and windows end mid-row
        for threads in (1, 2, 5, 8):
            rows = exhaustive_scan(p, h, threads=threads).rows
            assert rows.dtype == np.int32 and rows.flags.c_contiguous and rows.shape == reference.shape
            assert np.array_equal(rows, reference)
        assert (reference[:, 3:8] == -1).all() == (p == 3)

    def test_summary_mode_allocates_no_matrix(self, monkeypatch):
        """A full-row sweep allocates one (pairs, 10) matrix, which its
        windows fill in place, after the one matrix of its transversal's
        rows; a summary sweep allocates rows only for the pairs it keeps,
        one slice at a time."""
        matrices, empty = [], np.empty

        def spy(shape, *args, **kwargs):
            out = empty(shape, *args, **kwargs)
            if out.ndim == 2 and out.shape[1] == 10:
                matrices.append(out)
            return out

        monkeypatch.setattr(np, "empty", spy)
        monkeypatch.setattr(scan, "_SLICE_PAIRS", 50)  # 50-pair slices on two threads
        full = exhaustive_scan(7, 1, threads=2)
        # the (q-1)^2 (q+2) / 2 class rows, the matrix, then the empty merge start
        assert [m.shape for m in matrices] == [(162, 10), (2304, 10), (0, 10)]
        assert matrices[1] is full.rows
        matrices.clear()
        summary = exhaustive_scan(7, 1, threads=2, summary_only=True)
        assert summary.rows is None
        assert all(len(m) <= 50 for m in matrices)
        # the kept rows, one per class: q = 7's 3 instance orbits are each their own twin
        assert sum(len(m) for m in matrices) == summary.pp_count // 8


class TestTally:
    @pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 3), (3, 2)])  # p > 3, p = 2 and p = 3
    def test_counts_are_read_off_the_kept_rows(self, p, h):
        """Every count of a report is the one read off its full rows."""
        for diagnostics in (False, True):
            rep = exhaustive_scan(p, h, threads=2, diagnostics=diagnostics)
            col = dict(zip(CSV_COLUMNS[1:], rep.rows.T))
            pp, main = col["is_pp"] == 1, col["main_predicate"] == 1
            assert rep.pp_count == pp.sum() > 0
            assert rep.pp_count == sum(rep.attribution.values()) == sum(rep.gcd_histogram.values())
            degrees, counts = np.unique(col["gcd_deg"][pp], return_counts=True)
            assert rep.gcd_histogram == dict(zip(degrees.tolist(), counts.tolist()))
            assert rep.equivalence_violations == [] and (pp == main).all()
            if diagnostics:
                assert rep.pp_count == len(rep.diagnostics)
                instances = list(zip(col["a_idx"][pp].tolist(), col["b_idx"][pp].tolist()))
                assert [(d["a_idx"], d["b_idx"]) for d in rep.diagnostics] == instances


class TestSetEqualities:
    @pytest.mark.parametrize("kernel", ["prima_bis", "seconda_bis"])
    def test_one_mismatch_clears_its_flag(self, tower, monkeypatch, kernel):
        """A bis column flipped on one pair where is_pp, main and prima are
        all 0: the sweep keeps that pair for its bis column alone, and the
        flag reads false in the full-row, summary and sampled sweeps."""
        full = exhaustive_scan(7, 1)
        col = dict(zip(CSV_COLUMNS[1:], full.rows.T))
        quiet = (col["is_pp"] == 0) & (col["main_predicate"] == 0) & (col["prima"] == 0) & (col[kernel] == 0)
        transversal = set(zip(*(x.tolist() for x in _whole_transversal(tower(7, 1)))))
        sampled = set(map(tuple, sampled_scan(7, 1, 500, seed=5).rows[:, :2].tolist()))
        candidates = zip(col["a_idx"][quiet].tolist(), col["b_idx"][quiet].tolist())
        pair = next(pr for pr in candidates if pr in transversal & sampled)
        original = getattr(ScanEngine, kernel)

        def flipped(self, a, b, *args):
            return original(self, a, b, *args) ^ ((a == pair[0]) & (b == pair[1]))

        monkeypatch.setattr(ScanEngine, kernel, flipped)
        flags = {"prima_eq_prima_bis": kernel != "prima_bis", "seconda_eq_seconda_bis": kernel != "seconda_bis"}
        sweeps = (
            exhaustive_scan(7, 1, threads=2),
            exhaustive_scan(7, 1, summary_only=True),
            sampled_scan(7, 1, 500, seed=5),
            sampled_scan(7, 1, 500, seed=5, summary_only=True),
        )
        for rep in sweeps:
            assert rep.set_equalities == flags
            assert rep.equivalence_violations == []
        assert sweeps[0].pp_count == sweeps[1].pp_count == full.pp_count


class TestDeterminism:
    def test_thread_counts_identical_bytes(self, tower):
        # 5 threads split the 2304 pairs at q = 7 inside an a-row
        sweeps = (
            lambda t: exhaustive_scan(7, 1, threads=t, diagnostics=True),
            lambda t: exhaustive_scan(3, 2, threads=t),
            lambda t: exhaustive_scan(3, 2, threads=t, diagnostics=True),  # engine witnesses, no conic-swap
            lambda t: sampled_scan(7, 1, 500, seed=5, threads=t, diagnostics=True),
            lambda t: exhaustive_scan(3, 2, threads=t, summary_only=True),
            lambda t: exhaustive_scan(5, 2, threads=t, summary_only=True),
            # 5 threads split the 162 class representatives inside a k-row
            lambda t: exhaustive_scan(7, 1, threads=t, summary_only=True, diagnostics=True),
        )
        for sweep in sweeps:
            reports = [sweep(t) for t in (1, 2, 5, 8)]
            assert len({to_csv_text(r) for r in reports}) == 1
            payloads = {json.dumps({**r.to_json(), "wall_time": None}, sort_keys=True) for r in reports}
            assert len(payloads) == 1

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        sizes = []

        class InlinePool:  # records the requested size, starts no thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(scan, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # a pool on any host
        wide = exhaustive_scan(7, 1, threads=64)
        assert sizes == [3]
        assert to_csv_text(wide) == to_csv_text(exhaustive_scan(7, 1))

    def test_threads_below_one_refused_before_field_build(self, monkeypatch):
        monkeypatch.setattr(scan, "make_field", lambda p, h: pytest.fail("field built"))
        with pytest.raises(ValueError, match="threads"):
            exhaustive_scan(5, 1, threads=0)
        with pytest.raises(ValueError, match="threads"):
            sampled_scan(5, 1, 10, seed=1, threads=-3)

    def test_classify_pair_deterministic(self, tower):
        t = tower(5, 1)
        p = TrinomialParams.from_indices(t, 2, 3)
        a = json.dumps(classify_pair(p, diagnostics=True).to_json(), sort_keys=True)
        b = json.dumps(classify_pair(p, diagnostics=True).to_json(), sort_keys=True)
        assert a == b


class TestClassifyPair:
    def test_plain_record(self, tower):
        t = tower(5, 1)
        rec = classify_pair(TrinomialParams.from_indices(t, 5, 1))
        assert rec.verdict.is_pp and rec.gcd_deg == 2
        assert rec.conditions.prima_bis is True
        assert rec.points_off_diag is None  # diagnostics off
        assert list(rec.to_json()) == ["q", "a_idx", "b_idx", "verdict", "conditions", "gcd_deg"]

    def test_diagnostics_record(self, tower):
        t = tower(5, 1)
        rec = classify_pair(TrinomialParams.from_indices(t, 2, 3), diagnostics=True)
        assert rec.points_off_diag == 0
        assert rec.conic["pattern"] == "conic-swap"
        d = rec.to_json()
        assert d["verdict"]["is_pp"] is True and "points_off_diag" in d

    def test_char2_diagnostics_skip_curves(self, tower):
        t = tower(2, 2)
        n = t.fq2.order
        rec = next(
            classify_pair(TrinomialParams.from_indices(t, a, b), diagnostics=True)
            for a in range(1, n)
            for b in range(1, n)
            if classify_pair(TrinomialParams.from_indices(t, a, b)).verdict.is_pp
        )
        assert rec.points_off_diag is None
        assert rec.four_line is not None
