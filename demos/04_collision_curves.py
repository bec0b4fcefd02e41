"""The geometry behind the criteria: collision curves and factorisations.

Collisions of the reduced map trace out a symmetric quartic F(X, Y); the
substitution psi turns it into a curve G over GF(q) whose off-diagonal
rational points are exactly the collisions.  Permutation instances must
therefore produce pointless curves, and their quartics split into special
shapes (four lines or pairs of conics) with constants in GF(q^2).

Run:  python demos/04_collision_curves.py
"""

from permtri import (
    TrinomialParams,
    build_curves,
    build_numden,
    conic_witnesses,
    count_points_off_diag,
    four_line_witness,
    gcd_degree,
    hasse_weil_ok,
    make_field,
    poly_gcd,
    resultant_vs_closed_form,
    verify_iso_identity,
)

t = make_field(5, 1)

# The two cubics and their GCD classify each pair.
p = TrinomialParams.from_indices(t, 5, 1)
N, D = build_numden(p)
print(f"(a=5, b=1): N = {N.text_form()}, D = {D.text_form()}")
print(f"gcd = {poly_gcd(N, D).text_form()}  -> degree {gcd_degree(p)}")

# Curves: F over GF(25), G over GF(5), linked by an exact identity.
cp = build_curves(p)
print(f"\nF terms:\n{cp.F.dump()}")
print(f"\nG terms (all coefficients in GF(5)):\n{cp.G.dump()}")
print(f"\ntransform identity, full expansion: {verify_iso_identity(cp)}")

# Permutation instances: no off-diagonal rational points.
good = TrinomialParams.from_indices(t, 2, 3)
bad = TrinomialParams.from_indices(t, 1, 1)
print(f"\noff-diagonal GF(5) points, permuting pair (2,3): "
      f"{count_points_off_diag(build_curves(good))}")
print(f"off-diagonal GF(5) points, failing pair (1,1): "
      f"{count_points_off_diag(build_curves(bad))}")

# Factorisation witnesses, re-multiplied and verified exactly.
w = four_line_witness(p)
print(f"\nfour-line witness for (5,1): pattern={w.pattern}, constants="
      f"{ {k: v.i for k, v in w.constants.items()} }, verified={w.residual_check}")
c = conic_witnesses(good)
print(f"conic witness for (2,3): pattern={c.pattern}, constants="
      f"{ {k: v.i for k, v in c.constants.items()} }, verified={c.residual_check}")

# The resultant of the cubics against the full closed form: the
# resultant IS the inner factor; the closed form is its square times
# b^(2q+10).
cmp = resultant_vs_closed_form(good)
print(f"\nresultant = {cmp.lhs.i}, inner factor = {cmp.inner.i}, "
      f"full closed form = {cmp.rhs.i}")
print(f"resultant == inner: {cmp.lhs_equals_inner}; "
      f"closed form == prefactor * resultant^2: {cmp.rhs_is_prefactor_times_lhs_squared}")

# The point-count threshold that powers the asymptotic argument.
print("\npoint-count threshold (q-5)^2 > 36q:")
for q in (43, 47, 49):
    print(f"  q={q}: {hasse_weil_ok(q)}")
