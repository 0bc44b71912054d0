"""Tests for exact scalar arithmetic and linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import matmul, matvec, zeros

from courantkit.exact import (
    ONE,
    ZERO,
    ExactError,
    Matrix,
    ParseError,
    Scalar,
    kernel_basis,
    parse_scalar,
    rref,
    solve_rational,
    wedge_indices,
)
from courantkit.structure import Section


def x(i):
    return Scalar.variable(i)


def q(*args):
    return Scalar.rational(Fraction(*args))


def is_canonical_coefficient(c) -> bool:
    """The stored type of a coefficient: an int if integral, else a
    Fraction with denominator > 1 (never a float, never Fraction(n, 1))."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# -- strategies -------------------------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def scalars(draw, max_vars=3, max_degree=4, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_degree)) for _ in range(max_vars))
        if sum(exp) > max_degree:
            continue
        terms[exp] = terms.get(exp, Fraction(0)) + draw(rationals)
    return Scalar(terms)


# -- Scalar ------------------------------------------------------------------


class TestScalar:
    def test_canonical_form_unique(self):
        a = Scalar({(1, 0): Fraction(2), (0, 0): Fraction(0)})
        b = Scalar({(1,): Fraction(2)})
        assert a == b
        assert a.terms == b.terms  # identical representation, not just equal

    def test_colliding_keys_merge_additively(self):
        a = Scalar({(1,): Fraction(2), (1, 0): Fraction(3)})
        assert a == Scalar({(1,): Fraction(5)})
        cancels = Scalar({(1,): Fraction(2), (1, 0): Fraction(-2)})
        assert cancels.is_zero()

    def test_public_int_coefficients_stored_canonically(self):
        a = Scalar({(1, 0): 2})
        assert a.terms == {(1,): Fraction(2)}
        assert all(is_canonical_coefficient(c) for c in a.terms.values())
        assert all(is_canonical_coefficient(c) for c in (a + 1).terms.values())

    @given(scalars(), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_insertion_order_is_invisible(self, s, rnd):
        items = list(s.terms.items())
        rnd.shuffle(items)
        # each term split in two halves, one of them under an untrimmed key
        pieces = {}
        for exp, coeff in items:
            pieces[exp + (0,)] = Fraction(coeff, 2)
        for exp, coeff in reversed(items):
            pieces[exp] = Fraction(coeff, 2)
        for other in (Scalar(dict(items)), Scalar(pieces)):
            assert other == s
            assert hash(other) == hash(s)
            assert other.to_text() == s.to_text()

    def test_zero_is_empty(self):
        assert (x(0) - x(0)).terms == {}
        assert (x(0) - x(0)).is_zero()

    def test_rational_vs_polynomial(self):
        assert q(3, 2).is_rational()
        assert not x(1).is_rational()
        assert q(3, 2).as_fraction() == Fraction(3, 2)
        with pytest.raises(ExactError):
            x(1).as_fraction()

    def test_arithmetic(self):
        p = x(0) + q(1)
        assert p * p == x(0) ** 2 + 2 * x(0) + 1
        assert (p - p).is_zero()
        assert (x(0) * x(1)) / 2 == q(1, 2) * x(0) * x(1)
        with pytest.raises(ExactError):
            ONE / x(0)

    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    def test_partial_power_rule(self):
        # ∂x1 (x1^2 x2) = 2 x1 x2
        p = x(0) ** 2 * x(1)
        assert p.partial(0) == 2 * x(0) * x(1)

    def test_partial_independent_variable(self):
        # ∂x2 (3/2 x1) = 0
        assert (q(3, 2) * x(0)).partial(1).is_zero()

    def test_partial_linearity(self):
        # ∂x1 (x1 + x2^2) = 1
        assert (x(0) + x(1) ** 2).partial(0) == ONE

    def test_partial_of_rational_is_zero(self):
        assert q(7, 3).partial(0).is_zero()

    @given(scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_partial_leibniz(self, p, r):
        for var in range(3):
            lhs = (p * r).partial(var)
            rhs = p * r.partial(var) + r * p.partial(var)
            assert lhs == rhs


class TestText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", ZERO),
            ("3/2", q(3, 2)),
            ("-x1", -x(0)),
            ("x1^2 - 2*x2", x(0) ** 2 - 2 * x(1)),
            ("3/2*x1*x2^3", q(3, 2) * x(0) * x(1) ** 3),
            ("x1 + x2^2", x(0) + x(1) ** 2),
        ],
    )
    def test_parse(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("bad", ["", "x0", "x1^", "y2", "1//2", "x1 + "])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    @pytest.mark.parametrize("text, position", [
        ("x1*é", 3),
        ("x1 + é", 5),
    ])
    def test_parse_error_names_the_factor_offset(self, text, position):
        with pytest.raises(ParseError) as info:
            parse_scalar(text)
        assert info.value.position == position
        assert str(info.value) == (
            f"bad factor 'é' at position {position} in {text!r}")

    # integer literals take a direct path; these values and messages are
    # those of the general parser, which reads every other text
    @pytest.mark.parametrize("text, value", [
        ("0", ZERO), ("-0", ZERO), ("007", q(7)), ("-12", q(-12)),
        ("+1", ONE), (" 1 ", ONE), ("١", ONE), ("1/2", q(1, 2)), ("x1", x(0)),
    ])
    def test_integer_literal_corpus(self, text, value):
        parsed = parse_scalar(text)
        assert parsed == value and parsed.terms == value.terms

    @pytest.mark.parametrize("text, message", [
        ("1_0", "bad factor '1_0' at position 0 in '1_0'"),
        ("²", "bad factor '²' at position 0 in '²'"),
        ("", "empty expression at position 0 in ''"),
        ("-", "missing term at position 1 in '-'"),
    ])
    def test_integer_literal_corpus_errors(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_scalar(text)
        assert str(info.value) == message

    @given(scalars())
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, s):
        assert parse_scalar(s.to_text()) == s


# -- Matrices ----------------------------------------------------------------


def mat(rows):
    return Matrix([[Scalar.rational(v) if not isinstance(v, Scalar) else v
                    for v in row] for row in rows])


class TestRref:
    def test_identity(self):
        reduced, rank, pivots = rref(Matrix.identity(3))
        assert reduced == Matrix.identity(3)
        assert rank == 3
        assert pivots == (0, 1, 2)

    def test_zero(self):
        reduced, rank, pivots = rref(zeros(2, 3))
        assert reduced == zeros(2, 3)
        assert rank == 0
        assert pivots == ()

    def test_proportional_rows(self):
        reduced, rank, pivots = rref(mat([[2, 4], [1, 2]]))
        assert reduced == mat([[1, 2], [0, 0]])
        assert rank == 1
        assert pivots == (0,)

    def test_polynomial_entries_rejected(self):
        with pytest.raises(ExactError):
            rref(Matrix([[x(0)]]))


class TestKernel:
    def test_identity_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(3)) == []

    def test_zero_full_kernel(self):
        vecs = kernel_basis(zeros(2, 3))
        assert len(vecs) == 3
        assert vecs[0] == (ONE, ZERO, ZERO)

    def test_one_relation(self):
        vecs = kernel_basis(mat([[1, 1, 0], [0, 0, 1]]))
        assert vecs == [(ONE, -ONE, ZERO)]

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_rank_nullity_and_annihilation(self, rows):
        m = mat(rows)
        _, rank, _ = rref(m)
        basis = kernel_basis(m)
        assert rank + len(basis) == m.cols
        for vec in basis:
            assert all(e.is_zero() for e in matvec(m, vec))


class TestMatrix:
    def test_det(self):
        assert mat([[1, 2], [3, 4]]).det() == q(-2)
        assert Matrix.identity(4).det() == ONE

    def test_det_polynomial(self):
        m = Matrix([[ONE, x(0)], [x(0), x(0) ** 2 + 1]])
        assert m.det() == ONE

    def test_inverse_rational(self):
        m = mat([[1, 2], [3, 4]])
        assert matmul(m, m.inverse()) == Matrix.identity(2)

    def test_inverse_polynomial_unit_det(self):
        m = Matrix([[ONE, x(0)], [x(0), x(0) ** 2 + 1]])
        assert matmul(m, m.inverse()) == Matrix.identity(2)

    def test_inverse_singular_rejected(self):
        with pytest.raises(ExactError, match="singular"):
            mat([[1, 2], [2, 4]]).inverse()

    def test_inverse_non_unit_rejected(self):
        m = Matrix([[x(0), ZERO], [ZERO, ONE]])
        with pytest.raises(ExactError):
            m.inverse()

    def test_solve(self):
        m = mat([[1, 1], [0, 1]])
        sol = solve_rational(m, (q(3), q(1)))
        assert sol == (q(2), q(1))
        assert solve_rational(mat([[1], [1]]), (q(0), q(1))) is None

    def test_wedge_indices(self):
        assert wedge_indices(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert wedge_indices(3, 4) == []


# -- the canonical coefficient type ------------------------------------------


def _canonical(value) -> bool:
    """Every coefficient of a Scalar, or of each Scalar in a (nested)
    tuple, list or Matrix, has the canonical type."""
    if isinstance(value, Scalar):
        return all(is_canonical_coefficient(c) for c in value.terms.values())
    if isinstance(value, Matrix):
        value = value.entries
    return all(_canonical(v) for v in value)


@st.composite
def unit_matrices(draw, n=3):
    """A polynomial matrix with a nonzero rational determinant: upper
    unitriangular with polynomial entries, times a rational diagonal."""
    scale = [draw(rationals.filter(bool)) for _ in range(n)]
    return Matrix([[Scalar.rational(scale[i]) * (ONE if i == j else
                                                 draw(scalars(max_terms=2)))
                    if i <= j else ZERO for j in range(n)] for i in range(n)])


class TestNoFloat:
    """No float ever appears: every operation leaves each coefficient an
    int, or a Fraction with denominator > 1 (``1 / 2`` on two ints would be
    a float)."""

    @pytest.mark.parametrize("make", [
        lambda: Scalar.rational(0.1),
        lambda: Scalar.monomial((1,), 0.5),
        lambda: Scalar({(): 0.5}),
        lambda: Matrix([[0.5]]),
        lambda: Section.make([0.5]),
    ], ids=["rational", "monomial", "constructor", "matrix", "section"])
    def test_float_coefficient_rejected(self, make):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            make()

    @given(scalars(), scalars(), rationals.filter(bool), st.integers(1, 6),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_scalar_operations(self, a, b, q, k, n):
        results = [a + b, a - b, a * b, -a, a * q, q * a, a + k, k - a,
                   a / q, a / k, a / Scalar.rational(q), a ** n,
                   parse_scalar(a.to_text()), Scalar(dict(a.terms))]
        results += [a.partial(var) for var in range(3)]
        assert _canonical(results)
        assert type(Scalar.rational(q).as_fraction()) is Fraction
        assert type(Scalar.rational(k).as_fraction()) is Fraction

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                    min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_rational_linear_algebra(self, rows, rhs):
        m = mat(rows)
        reduced, _, _ = rref(m)
        assert _canonical([m.det(), reduced, kernel_basis(m)])
        solution = solve_rational(m, [Scalar.rational(v) for v in rhs])
        assert solution is None or _canonical(solution)
        if not m.det().is_zero():
            assert _canonical(m.inverse())

    @given(unit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_polynomial_det_and_inverse(self, m):
        inverse = m.inverse()
        assert _canonical([m.det(), inverse])
        assert matmul(m, inverse) == Matrix.identity(3)
