"""Sweep reports: aggregates, rows, persistence, determinism, budgets."""

import json
import os

import numpy as np
import pytest

from permtri import (
    BudgetExceededError,
    TrinomialParams,
    classify_pair,
    emit_report,
    exhaustive_scan,
    main_predicate,
    sampled_scan,
)
from permtri import scan
from permtri.scan import (
    CSV_COLUMNS,
    report_from_json,
    to_csv_text,
    to_json_text,
)


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

    def test_rows_sorted(self, tower):
        rep = sampled_scan(7, 1, 300, seed=2)
        keys = rep.rows[:, 0].astype(np.int64) * 10**6 + rep.rows[:, 1]
        assert (np.diff(keys) >= 0).all()  # duplicates allowed

    def test_large_field_sample_has_no_violations(self, tower):
        rep = sampled_scan(7, 2, 100_000, seed=7, summary_only=True)
        assert rep.q == 49
        assert rep.equivalence_violations == []


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

    def test_emit_json_file(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 50, seed=3)
        path = emit_report(rep, "json", tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded["mode"] == "sampled" and loaded["pair_count"] == 50

    def test_unknown_format(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 1, seed=0)
        with pytest.raises(ValueError):
            emit_report(rep, "xml", tmp_path / "x")

    def test_unwritable_path(self, tower, tmp_path):
        rep = sampled_scan(5, 1, 1, seed=0)
        with pytest.raises(OSError):
            emit_report(rep, "csv", tmp_path / "missing_dir" / "x.csv")


class TestDeterminism:
    def test_thread_counts_identical_bytes(self, tower):
        # 5 threads split the 2304 pairs at q = 7 inside an a-row
        sweeps = (
            lambda t: exhaustive_scan(7, 1, threads=t, diagnostics=True),
            lambda t: exhaustive_scan(3, 2, threads=t),
            lambda t: sampled_scan(7, 1, 500, seed=5, threads=t, diagnostics=True),
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
        wide = exhaustive_scan(7, 1, threads=64)
        assert sizes and max(sizes) <= os.cpu_count()
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
