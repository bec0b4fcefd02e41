"""Verification toolkit for the trinomials X(1 + aX^(q(q-1)) + bX^(2(q-1))) over GF(q^2).

Layered as: field towers (ff), univariate and bivariate polynomial algebra
(upoly, bipoly), permutation verdicts (perm), closed-form permutation
criteria (conds), and the exhaustive/sampled verification harness (scan)
with a vectorised backend (engine).
"""

from .ff import (
    Elem,
    FieldCtx,
    FieldTower,
    SquareClass,
    frobenius,
    is_prime,
    is_prime_power,
    is_square,
    lift,
    make_field,
    mu_set,
    norm_trace,
    project,
    sqrt,
)
from .upoly import Poly, discriminant, poly_gcd, resultant, roots
from .bipoly import (
    BivarPoly,
    CurvePair,
    FactorWitness,
    build_curves,
    build_numden,
    conic_witnesses,
    count_points_off_diag,
    four_line_witness,
    gcd_degree,
    hasse_weil_ok,
    phi_point,
    psi_point,
    resultant_vs_closed_form,
    verify_iso_identity,
)
from .perm import TrinomialParams, Verdict, f_eval, g_eval, is_pp_direct, is_pp_mu
from .conds import (
    ConditionReport,
    check_char2,
    check_char3,
    check_prima,
    check_prima_bis,
    check_seconda,
    check_seconda_bis,
    check_seconda_tris,
    condition_report,
    main_predicate,
)
from .scan import (
    BudgetExceededError,
    PairRecord,
    ScanReport,
    classify_pair,
    emit_report,
    exhaustive_scan,
    sampled_scan,
)

__version__ = "0.1.0"
