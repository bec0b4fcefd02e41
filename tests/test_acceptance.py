"""The acceptance gate: one test per criterion, each printing its verdict.

Criterion 7 is expected to fail and is marked as a strict xfail: the
unconditional seconda_tris -> seconda implication it demands is false
whenever -3 is a square in GF(q) (q = 1 mod 3; first counterexamples at
q = 7).  The criterion is still evaluated exactly as stated; the true,
conditional law is covered by tests/test_conds.py.  Everything else must
pass at the stated scopes with no tolerance.
"""

import pytest

from permtri.acceptance import CRITERIA, DEFAULT_MAX_Q

KNOWN_FALSE = pytest.mark.xfail(
    strict=True,
    reason=(
        "known false claim, kept red on purpose: the unconditional "
        "seconda_tris -> seconda implication fails for q = 1 mod 3 "
        "(-3 a square); see README and tests/test_conds.py for the "
        "verified conditional law"
    ),
)


@pytest.mark.parametrize(
    "num, label, fn",
    [
        pytest.param(
            num,
            label,
            fn,
            id=f"{num:02d}-{fn.__name__.removeprefix('crit_')}",
            marks=KNOWN_FALSE if num == 7 else (),
        )
        for num, label, fn in CRITERIA
    ],
)
def test_criterion(num, label, fn):
    passed, detail = fn(DEFAULT_MAX_Q)
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {label} [{detail}]")
    assert passed
