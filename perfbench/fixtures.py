"""The structures the workloads run on, built with courantkit's constructors.

Every structure is fixed: none depends on the benchmark seed.  ``write_all``
builds them through ``twist.c_twist``, ``twist.make_point`` and
``twist.twist_bracket`` (each validates its Gram matrix) and writes them
with ``fileio.save_spec``; that is the benchmark's set-up.

The corrupted structures change one entry of a valid one: a bracket entry,
one Gram diagonal entry, or one added twist coefficient, as in the
negative controls of the acceptance suite.
"""

from __future__ import annotations

import os
from fractions import Fraction

from courantkit import fileio
from courantkit.exact import ONE, Matrix, Scalar, ZERO
from courantkit.kerforms import KerForm, basis_wedge_form
from courantkit.structure import AlgebroidSpec, Section
from courantkit.twist import base_form, c_twist, make_point, make_standard, twist_bracket

x = Scalar.variable


def sec(*values) -> Section:
    return Section.make(values)


# -- valid structures ------------------------------------------------------------


def ct4() -> AlgebroidSpec:
    """The standard rank-8 bundle twisted by C = x1·dx2∧dx3∧dx4."""
    return c_twist(4, base_form({(1, 2, 3): x(0)}))


def ct4b() -> AlgebroidSpec:
    """Twisted by C = x4²·dx1∧dx2∧dx3 + x1·dx2∧dx3∧dx4."""
    return c_twist(4, base_form({(0, 1, 2): x(3) * x(3), (1, 2, 3): x(0)}))


def split4_b() -> AlgebroidSpec:
    """The abelian point algebra diag(1,1,-1,-1) twisted by B = e1∧e2∧e3."""
    gram = Matrix([[ONE if i == j and i < 2 else
                    (Scalar.rational(-1) if i == j else ZERO)
                    for j in range(4)] for i in range(4)])
    split4 = make_point(4, gram, {})
    return twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))


def _sl3_basis() -> list[list[list[Fraction]]]:
    """E12, E13, E21, E23, E31, E32, H1 = E11-E22, H2 = E22-E33."""
    def unit(i, j):
        m = [[Fraction(0)] * 3 for _ in range(3)]
        m[i][j] = Fraction(1)
        return m

    basis = [unit(i, j) for i in range(3) for j in range(3) if i != j]
    h1 = [[Fraction(int(i == j) * (1 if i == 0 else -1 if i == 1 else 0))
           for j in range(3)] for i in range(3)]
    h2 = [[Fraction(int(i == j) * (1 if i == 1 else -1 if i == 2 else 0))
           for j in range(3)] for i in range(3)]
    return basis + [h1, h2]


def _matmul3(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def _sl3_coords(m) -> list[Fraction]:
    """Coordinates of a traceless 3×3 matrix in the basis of _sl3_basis."""
    off = [m[i][j] for i in range(3) for j in range(3) if i != j]
    return off + [m[0][0], -m[2][2]]


def sl3() -> AlgebroidSpec:
    """sl(3) over a point with its matrix basis and the trace form tr(xy)."""
    basis = _sl3_basis()
    gram = Matrix([[Scalar.rational(sum(p[i][i] for i in range(3)))
                    for p in (_matmul3(a, b) for b in basis)] for a in basis])
    table = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            ab, ba = _matmul3(a, b), _matmul3(b, a)
            comm = [[ab[r][c] - ba[r][c] for c in range(3)] for r in range(3)]
            coords = _sl3_coords(comm)
            if any(coords):
                table[(i, j)] = Section.make(coords)
    return make_point(8, gram, table)


def so3xso3() -> AlgebroidSpec:
    """so(3)⊕so(3) over a point with the identity form."""
    table = {}
    for base in (0, 3):
        for i, j, k in ((base, base + 1, base + 2), (base + 1, base + 2, base),
                        (base + 2, base, base + 1)):
            table[(i, j)] = Section.basis(k, 6)
            table[(j, i)] = Section.basis(k, 6).scale(Scalar.rational(-1))
    return make_point(6, Matrix.identity(6), table)


# -- single-entry corruptions ----------------------------------------------------


def _rebuild(spec: AlgebroidSpec, gram=None, table=None, twist_coeffs=None):
    out = AlgebroidSpec(spec.ring, spec.nvars, spec.rank, gram or spec.gram,
                        spec.anchor, table if table is not None
                        else dict(spec.bracket_table), None, spec.kind)
    if twist_coeffs is None and spec.twist is not None:
        twist_coeffs = spec.twist.coeffs
    if twist_coeffs is not None:
        out.twist = KerForm(out, 4, twist_coeffs)
    return out


def corrupt_bracket(spec: AlgebroidSpec, i: int, j: int,
                    section: Section) -> AlgebroidSpec:
    table = dict(spec.bracket_table)
    table[(i, j)] = section
    return _rebuild(spec, table=table)


def corrupt_gram(spec: AlgebroidSpec, i: int, value: Scalar) -> AlgebroidSpec:
    entries = [list(row) for row in spec.gram.entries]
    entries[i][i] = value
    return _rebuild(spec, gram=Matrix(entries))


def corrupt_twist(spec: AlgebroidSpec, key: tuple[int, ...],
                  value: Scalar) -> AlgebroidSpec:
    coeffs = dict(spec.twist.coeffs) if spec.twist is not None else {}
    coeffs[key] = coeffs.get(key, ZERO) + value
    return _rebuild(spec, twist_coeffs=coeffs)


# -- the file set ----------------------------------------------------------------


def build_all() -> dict[str, AlgebroidSpec]:
    """Every structure a workload names, keyed by its file stem."""
    std2, std3, std4 = make_standard(2), make_standard(3), make_standard(4)
    c4, c4b, p4, s3 = ct4(), ct4b(), split4_b(), sl3()
    return {
        "std2": std2, "std3": std3, "std4": std4,
        "ct4": c4, "ct4b": c4b, "sl3": s3, "so3xso3": so3xso3(),
        # the negative controls of acceptance criterion 9
        "std2_bracket": corrupt_bracket(std2, 0, 2, Section.basis(3, 4)),
        "std2_gram": corrupt_gram(std2, 0, x(0)),
        "ct4_bracket": corrupt_bracket(c4, 1, 2, Section.basis(7, 8)),
        "ct4_gram": corrupt_gram(c4, 0, x(0)),
        "ct4_twist": corrupt_twist(c4, (4, 5, 6, 7), ONE),
        "split4b_bracket": corrupt_bracket(p4, 0, 1, sec(0, 0, 2, 0)),
        "split4b_gram": corrupt_gram(p4, 0, Scalar.rational(2)),
        "split4b_twist": corrupt_twist(p4, (0, 1, 2, 3), ONE),
        # the same kinds of corruption on further structures
        "std4_bracket": corrupt_bracket(std4, 0, 4, Section.basis(7, 8)),
        "std4_gram": corrupt_gram(std4, 1, x(1)),
        "sl3_bracket": corrupt_bracket(s3, 0, 1, Section.basis(2, 8)),
        "sl3_gram": corrupt_gram(s3, 6, Scalar.rational(3)),
        "ct4b_bracket": corrupt_bracket(c4b, 0, 1, Section.basis(6, 8)),
        "ct4b_twist": corrupt_twist(c4b, (0, 1, 2, 3), x(0)),
    }


def write_all(directory: str) -> dict[str, str]:
    """Build every structure, save it, and return stem -> file path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for stem, spec in build_all().items():
        path = os.path.join(directory, f"{stem}.json")
        fileio.save_spec(spec, path)
        paths[stem] = path
    return paths
