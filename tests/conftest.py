"""Shared fixtures: the structures every test module works with."""

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every fuzz test draws the same examples on every run, so a red run replays
settings.register_profile("courantkit", derandomize=True, deadline=None)
settings.load_profile("courantkit")

from courantkit.exact import Matrix, ONE, Scalar, ZERO
from courantkit.structure import Section
from courantkit.twist import base_form, c_twist, make_point, make_standard


STD2_FRAME = Path(__file__).parent / "std2_frame.json"


def sec(*values) -> Section:
    return Section.make(values)


def so3_table():
    return {(0, 1): sec(0, 0, 1), (1, 0): sec(0, 0, -1),
            (1, 2): sec(1, 0, 0), (2, 1): sec(-1, 0, 0),
            (2, 0): sec(0, 1, 0), (0, 2): sec(0, -1, 0)}


@pytest.fixture(scope="session")
def so3():
    """Quadratic Lie algebra over a point: [e1,e2]=e3 cyclic, identity form."""
    return make_point(3, Matrix.identity(3), so3_table())


@pytest.fixture(scope="session")
def split4():
    """Abelian rank-4 point structure with gram diag(1,1,-1,-1)."""
    entries = [[ONE if i == j and i < 2 else
                (Scalar.rational(-1) if i == j else ZERO)
                for j in range(4)] for i in range(4)]
    return make_point(4, Matrix(entries), {})


@pytest.fixture(scope="session")
def hyperbolic4():
    """Abelian rank-4 point structure with the off-diagonal split pairing."""
    entries = [[ONE if abs(i - j) == 2 else ZERO for j in range(4)]
               for i in range(4)]
    return make_point(4, Matrix(entries), {})


@pytest.fixture(scope="session")
def so3_plus_so3():
    table = {}
    for base in (0, 3):
        cyc = [(base, base + 1, base + 2), (base + 1, base + 2, base),
               (base + 2, base, base + 1)]
        for i, j, k in cyc:
            table[(i, j)] = Section.basis(k, 6)
            table[(j, i)] = Section.basis(k, 6).scale(Scalar.rational(-1))
    return make_point(6, Matrix.identity(6), table)


@pytest.fixture(scope="session")
def sl3():
    """sl(3) over a point in the basis E12, E13, E21, E23, E31, E32,
    H1 = E11 − E22, H2 = E22 − E33, with the trace form tr(xy); its Gram
    matrix has off-diagonal rows."""
    mats = [{(i, j): 1} for i in range(3) for j in range(3) if i != j]
    mats += [{(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1}]

    def mul(a, b):
        out = {}
        for (i, k), x in a.items():
            for (k2, j), y in b.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + x * y
        return out

    def coords(m):
        # a·H1 + b·H2 = diag(a, b − a, −b)
        return ([m.get((i, j), 0) for i in range(3) for j in range(3) if i != j]
                + [m.get((0, 0), 0), -m.get((2, 2), 0)])

    gram = Matrix([[Scalar.rational(sum(v for (i, j), v in mul(a, b).items()
                                         if i == j)) for b in mats] for a in mats])
    table = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            ab, ba = mul(a, b), mul(b, a)
            comm = coords({k: ab.get(k, 0) - ba.get(k, 0)
                           for k in ab.keys() | ba.keys()})
            if any(comm):
                table[(i, j)] = Section.make(comm)
    return make_point(8, gram, table)


@pytest.fixture(scope="session")
def std1():
    return make_standard(1)


@pytest.fixture(scope="session")
def std2():
    return make_standard(2)


@pytest.fixture(scope="session")
def std3():
    return make_standard(3)


@pytest.fixture(scope="session")
def std4():
    return make_standard(4)


def unipotent(rank, entries):
    """I plus the given entries strictly above the diagonal: determinant 1."""
    assert all(i < j for i, j in entries)
    return Matrix([[ONE if i == j else entries.get((i, j), ZERO)
                    for j in range(rank)] for i in range(rank)])


# polynomial frames T for the standard bundles, e′ᵢ = Σₖ Tₖᵢ·eₖ
# (tests/oracles.py::frame_change); std2's is the frame of STD2_FRAME
FRAMES = {
    "std2": unipotent(4, {(0, 1): Scalar.variable(1)}),
    "std4": unipotent(8, {(0, 1): Scalar.variable(1),
                          (1, 2): Scalar.variable(0) * Scalar.variable(2),
                          (3, 6): Scalar.rational(2)}),
}


@pytest.fixture(scope="session")
def std2_frame():
    """std2 in the frame FRAMES["std2"]: Gram and anchor entries in x2."""
    from courantkit.fileio import load_spec

    return load_spec(str(STD2_FRAME))


@pytest.fixture(scope="session")
def ctwist4():
    """The exact twist of the rank-8 split bundle by C = x1 dx2^dx3^dx4."""
    return c_twist(4, base_form({(1, 2, 3): Scalar.variable(0)}))


# -- single-entry corruption helpers (negative controls) ----------------------


def _twist_coeffs(spec):
    return None if spec.twist is None else spec.twist.coeffs


def corrupt_bracket(spec, i, j, section):
    from courantkit.structure import AlgebroidSpec

    table = dict(spec.bracket_table)
    table[(i, j)] = section
    return AlgebroidSpec(spec.ring, spec.nvars, spec.rank, spec.gram,
                         spec.anchor, table, _twist_coeffs(spec), spec.kind)


def corrupt_gram(spec, i, value):
    """Corrupt one diagonal Gram entry (keeps symmetry, one entry changed)."""
    from courantkit.structure import AlgebroidSpec

    entries = [list(row) for row in spec.gram.entries]
    entries[i][i] = value
    return AlgebroidSpec(spec.ring, spec.nvars, spec.rank, Matrix(entries),
                         spec.anchor, dict(spec.bracket_table),
                         _twist_coeffs(spec), spec.kind)


def corrupt_twist(spec, key, value):
    from courantkit.structure import AlgebroidSpec

    coeffs = dict(_twist_coeffs(spec) or {})
    coeffs[key] = coeffs.get(key, ZERO) + value
    return AlgebroidSpec(spec.ring, spec.nvars, spec.rank, spec.gram,
                         spec.anchor, dict(spec.bracket_table), coeffs, spec.kind)
