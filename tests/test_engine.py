"""The vectorised kernels must agree with the per-pair module path."""

import numpy as np
import pytest

from permtri import (
    TrinomialParams,
    condition_report,
    gcd_degree,
    is_pp_direct,
    is_pp_mu,
)
from permtri.engine import ScanEngine
from permtri.scan import pair_grid, sample_pairs


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1)])
def test_exhaustive_agreement_odd_characteristic(tower, p, h):
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order)
    cols = eng.classify_bulk(a, b)
    direct = eng.pp_direct(a, b)
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert bool(direct[i]) == is_pp_direct(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)
        assert bool(cols["prima"][i]) == rep.prima
        assert bool(cols["seconda"][i]) == rep.seconda
        assert bool(cols["prima_bis"][i]) == rep.prima_bis
        assert bool(cols["seconda_bis"][i]) == rep.seconda_bis
        assert bool(cols["seconda_tris"][i]) == rep.seconda_tris
        assert bool(cols["main"][i]) == rep.main


def test_exhaustive_agreement_char2(tower):
    t = tower(2, 2)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order)
    cols = eng.classify_bulk(a, b)
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["char2"][i]) == rep.char2
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)


def test_exhaustive_agreement_char3(tower):
    t = tower(3, 1)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order)
    cols = eng.classify_bulk(a, b)
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["char3"][i]) == rep.char3
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp


@pytest.mark.parametrize("p,h,count", [(2, 4, 150), (5, 2, 200), (3, 3, 150)])
def test_sampled_agreement_larger_fields(tower, p, h, count):
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = sample_pairs(t.fq2.order, count, seed=t.q)
    cols = eng.classify_bulk(a, b)
    direct = eng.pp_direct(a, b)
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert bool(direct[i]) == is_pp_direct(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)
        assert bool(cols["main"][i]) == condition_report(prm).main


def test_direct_and_mu_grids_agree(tower):
    for p, h in ((5, 1), (7, 1), (2, 3), (3, 2)):
        t = tower(p, h)
        eng = ScanEngine(t)
        a, b = pair_grid(t.fq2.order)
        assert (eng.pp_direct(a, b) == eng.pp_mu(a, b)).all()


def test_broadcasting_shapes(tower):
    eng = ScanEngine(tower(5, 1))
    a = np.array([2, 2, 3], dtype=np.int64)
    b = np.array([3, 4, 3], dtype=np.int64)
    out = eng.classify_bulk(a, b)
    assert out["is_pp"].shape == (3,)
    assert out["gcd_deg"].dtype == np.uint8
