"""Axiom suites as executable definitions.

Builds a quadratic Lie algebra over a point and the standard split bundle
over ℚ[x1,x2], runs the untwisted suite on both, and shows the witness a
corrupted structure produces.  Everything is exact rational arithmetic.
"""

import json

from courantkit.axioms import check_axioms
from courantkit.exact import Matrix, Scalar
from courantkit.structure import Section
from courantkit.twist import make_point, make_standard

# so(3) with the identity pairing: [e1,e2] = e3 and cyclic.
e = lambda k: Section.basis(k, 3)
table = {}
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    table[(i, j)] = e(k)
    table[(j, i)] = e(k).scale(Scalar.rational(-1))
so3 = make_point(3, Matrix.identity(3), table)

print("== so(3), untwisted suite ==")
report = check_axioms(so3, "courant")
for check in report.checks:
    print(f"  {check.axiom:16s} {check.status} ({check.label})")

print("\n== standard split bundle over Q[x1,x2] ==")
std2 = make_standard(2)
report = check_axioms(std2, "courant")
print("  all axioms pass:", report.passed)

# The ring/module suites run on the same data.
for suite in ("courant-dorfman", "sa-courant-dorfman", "lie-rinehart"):
    report = check_axioms(std2, suite)
    verdict = "pass" if report.passed else f"fails {report.failing()}"
    print(f"  suite {suite:22s} {verdict}")
print("  (the bracket is not skew on polynomial sections, so the")
print("   Lie-algebra-style suite must fail — that is a feature)")

print("\n== a corrupted structure produces a concrete witness ==")
from courantkit.structure import AlgebroidSpec

bad_table = dict(table)
bad_table[(0, 1)] = Section.make([1, 0, 1])   # [e1,e2] := e1 + e3
bad = AlgebroidSpec("point", 0, 3, Matrix.identity(3), None, bad_table)
report = check_axioms(bad, "courant")
failing = [c for c in report.checks if c.status == "fail"][0]
print("  first failing axiom:", failing.axiom)
print("  witness:", json.dumps(failing.witness, sort_keys=True))
