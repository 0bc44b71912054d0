"""Twisting a bracket by a 3-form and the curvature that measures it.

Every 3-form B in the kernel of the anchor defines a modified bracket
[.,.]_B = [.,.] + B̃(.,.).  The Jacobi identity then fails by an exactly
computable 4-form H = D₀B − B̃², and the modified structure is admissible
when H is closed under its own covariant derivative — automatic up to
rank 4, where B̃² vanishes identically.
"""

import random

from courantkit.axioms import check_axioms
from courantkit.exact import Matrix, ONE, Scalar, ZERO
from courantkit.kerforms import KerForm, basis_wedge_form, tilde_split_basis
from courantkit.rand import rand_wedge_coeffs
from courantkit.structure import jacobiator
from courantkit.twist import (
    base_form,
    c_twist,
    curvature_H,
    integrability_defect,
    make_point,
    twist_bracket,
)

x = Scalar.variable

print("== rank-4 split algebra, B = e1∧e2∧e3 ==")
gram = Matrix([[ONE if i == j and i < 2 else
                (Scalar.rational(-1) if i == j else ZERO)
                for j in range(4)] for i in range(4)])
split4 = make_point(4, gram, {})
b = basis_wedge_form(split4, (0, 1, 2))
print("  B~(e1,e2) =", tilde_split_basis(split4, b, (0, 1)))
twisted = twist_bracket(split4, b)
print("  twisted [e1,e2] =", twisted.table_bracket(0, 1))
print("  curvature H =", curvature_H(split4, b), "(this B is flat)")

print("\n== fifty random twists of the same algebra ==")
rng = random.Random(0)
verdicts = []
for _ in range(50):
    bb = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
    tw = twist_bracket(split4, bb)
    ok = check_axioms(tw, "h-twisted").passed
    ok = ok and integrability_defect(split4, bb).is_zero()
    verdicts.append(ok)
print("  all fifty admissible:", all(verdicts))

print("\n== the exact twist family over Q[x1..x4] ==")
spec = c_twist(4, base_form({(1, 2, 3): x(0)}))   # C = x1 dx2∧dx3∧dx4
print("  bracket gains [∂2,∂3] =", spec.table_bracket(1, 2))
print("  twist H =", spec.twist, " (the pullback of dC)")
basis = spec.basis_sections()
print("  Jacobiator(∂1,∂2,∂3) =", jacobiator(spec, basis[0], basis[1], basis[2]))
print("  H~(∂1,∂2,∂3)        =", tilde_split_basis(spec, spec.twist, (0, 1, 2)))
print("  twisted suite passes:", check_axioms(spec, "h-twisted").passed)
print("  untwisted suite fails:",
      check_axioms(spec, "courant").failing())

print("\n== closed twisting forms change nothing ==")
flat = c_twist(3, base_form({(0, 1, 2): ONE}))
print("  C = dx1∧dx2∧dx3 gives H =", flat.twist,
      "and the untwisted suite passes:",
      check_axioms(flat, "courant").passed)
