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


@pytest.mark.parametrize("p,h", [(5, 1), (7, 1), (2, 2), (3, 1)])
def test_exhaustive_agreement(tower, p, h):
    t = tower(p, h)
    eng = ScanEngine(t)
    a, b = pair_grid(t.fq2.order)
    cols = eng.classify_bulk(a, b)
    direct = eng.pp_direct(a, b)
    conditions = [name for name in cols if name not in ("is_pp", "gcd_deg")]
    for i in range(len(a)):
        prm = TrinomialParams.from_indices(t, int(a[i]), int(b[i]))
        rep = condition_report(prm)
        assert bool(cols["is_pp"][i]) == is_pp_mu(prm).is_pp
        assert bool(direct[i]) == is_pp_direct(prm).is_pp
        assert int(cols["gcd_deg"][i]) == gcd_degree(prm)
        for name in conditions:
            assert bool(cols[name][i]) == getattr(rep, name), name


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
