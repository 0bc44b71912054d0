"""Two-term homotopy Lie algebra packaging, verified equation by equation.

An untwisted structure packages with base functions in degree one; a twisted
structure packages with the kernel sections, the twist entering the ternary
bracket.  Both packagings satisfy the five defining equations exactly —
running them is an executable form of the underlying theorems.
"""

from courantkit.exact import Matrix, Scalar
from courantkit.linfty import build_classical, build_twisted, verify_linfty
from courantkit.structure import AlgebroidSpec, Section
from courantkit.twist import base_form, c_twist, make_point, make_standard

x = Scalar.variable

print("== classical packaging of so(3) ==")
e = lambda k: Section.basis(k, 3)
table = {}
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    table[(i, j)] = e(k)
    table[(j, i)] = e(k).scale(Scalar.rational(-1))
so3 = make_point(3, Matrix.identity(3), table)
data = build_classical(so3)
print("  l3(e1,e2,e3) =", data.l3(e(0), e(1), e(2)),
      "(three cyclic terms of one sixth)")
report = verify_linfty(data, seed=0)
for check in report.checks:
    print(f"  {check.axiom:26s} {check.status} ({check.label})")

print("\n== classical packaging of the standard bundle ==")
std2 = make_standard(2)
data = build_classical(std2)
print("  ∂(x1) =", data.boundary(x(0)))
print("  ∂1 ▷ x1 =", data.act(Section.basis(0, 4), x(0)))
print("  all equations pass:", verify_linfty(data, seed=0).passed)

print("\n== twisted packaging of the exact twist family ==")
spec = c_twist(4, base_form({(1, 2, 3): x(0)}))
data = build_twisted(spec)
basis = spec.basis_sections()
print("  l3(∂1,∂2,∂3) =", data.l3(basis[0], basis[1], basis[2]),
      "(the twist's contribution)")
report = verify_linfty(data, seed=0)
print("  all equations pass:", report.passed)

print("\n== sabotage: double the twist, keep the bracket ==")
doubled = {key: c + c for key, c in spec.twist.coeffs.items()}
broken = AlgebroidSpec(spec.ring, spec.nvars, spec.rank, spec.gram, spec.anchor,
                       spec.bracket_table, doubled, spec.kind)
report = verify_linfty(build_twisted(broken), seed=0)
print("  failing equations:", report.failing())
