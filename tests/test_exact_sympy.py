"""Scalar arithmetic and exact linear algebra against sympy, an independent
oracle: ``Poly`` over ℚ for Scalars, ``Matrix`` for rref, kernels, solving,
determinants and inverses.

sympy is used only here, in tests; the module is skipped where it is not
installed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import matmul, matvec

from courantkit.exact import (
    ExactError,
    Matrix,
    Scalar,
    ZERO,
    _kernel,
    kernel_basis,
    parse_scalar,
    rref,
    solve_rational,
)
from courantkit.kerforms import _coordinates
from courantkit.rand import rand_rational, rand_scalar

sympy = pytest.importorskip("sympy")

from test_exact import is_canonical_coefficient, rationals, scalars  # noqa: E402  (after the importorskip)

NVARS = 3
GENS = sympy.symbols(f"x1:{NVARS + 1}")


def to_poly(s: Scalar):
    """The same polynomial as a sympy Poly in x1..x3 over ℚ."""
    expr = sympy.Integer(0)
    for exp, coeff in s.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for gen, e in zip(GENS, exp):
            term *= gen ** e
        expr += term
    return sympy.Poly(expr, *GENS, domain="QQ")


class TestAgainstSympy:
    @given(scalars(), scalars())
    @settings(max_examples=80)
    def test_ring_operations(self, a, b):
        pa, pb = to_poly(a), to_poly(b)
        assert to_poly(a + b) == pa + pb
        assert to_poly(a - b) == pa - pb
        assert to_poly(-a) == -pa
        assert to_poly(a * b) == pa * pb

    @given(scalars(), st.one_of(st.sampled_from([0, 1, -1]), rationals),
           st.booleans())
    @settings(max_examples=120)
    def test_times_constant(self, a, c, as_scalar):
        # the constant fast paths of * give the canonical Scalar __init__
        # builds from the same terms, on either side and for int operands
        k = Scalar.rational(c) if as_scalar else c
        expected = Scalar({exp: v * c for exp, v in a.terms.items()})
        for product in (a * k, k * a, -(a * -k)):
            assert to_poly(product) == to_poly(a) * sympy.Rational(str(c))
            assert product.terms == expected.terms and product == expected
            assert hash(product) == hash(expected)
            assert product.max_var_index == expected.max_var_index
            assert all(is_canonical_coefficient(v) for v in product.terms.values())

    @given(scalars(), st.integers(0, NVARS - 1))
    @settings(max_examples=80)
    def test_partial(self, a, var):
        assert to_poly(a.partial(var)) == to_poly(a).diff(GENS[var])

    @given(scalars(), scalars())
    @settings(max_examples=80)
    def test_equality(self, a, b):
        assert (a == b) == (to_poly(a) == to_poly(b))
        assert a == Scalar(dict(a.terms))

    @given(scalars())
    @settings(max_examples=80)
    def test_text_round_trip(self, a):
        back = parse_scalar(a.to_text())
        assert back == a and to_poly(back) == to_poly(a)
        assert all(is_canonical_coefficient(c) for c in back.terms.values())


# -- linear algebra -----------------------------------------------------------


def to_matrix(m: Matrix):
    """The same matrix as a sympy Matrix of polynomial expressions."""
    return sympy.Matrix(m.rows, m.cols,
                        [to_poly(e).as_expr() for row in m.entries for e in row])


def to_vector(values):
    return sympy.Matrix(len(values), 1, [to_poly(v).as_expr() for v in values])


def first_positive(vec: list) -> list:
    """The sign normalisation of kernel_basis: first nonzero entry > 0."""
    lead = next(v for v in vec if v != 0)
    return [-v for v in vec] if lead < 0 else vec


@st.composite
def rational_grids(draw, max_rows=5, max_cols=5, square=False):
    """Rational matrices, often rank-deficient: some rows are combinations
    of the others, and some rows or columns are zero.

    A Matrix without rows has no columns either, so the empty shapes drawn
    are 0×0 and n×0.
    """
    rows = draw(st.integers(0, max_rows))
    cols = rows if square else draw(st.integers(0, max_cols))
    free = draw(st.integers(0, rows))
    grid = [[draw(rationals) for _ in range(cols)] for _ in range(free)]
    for _ in range(rows - free):
        weights = [draw(st.sampled_from([0, 0, 1, -1, Fraction(1, 2), 3]))
                   for _ in range(free)]
        grid.append([sum((w * row[c] for w, row in zip(weights, grid[:free])),
                         Fraction(0)) for c in range(cols)])
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        for row in grid:
            if c < cols:
                row[c] = Fraction(0)
    order = draw(st.permutations(range(rows)))
    return Matrix([[Scalar.rational(v) for v in grid[i]] for i in order])


@st.composite
def unimodular_matrices(draw, max_size=3):
    """L·U with L unit lower triangular and U upper triangular, polynomial
    off the diagonal and nonzero rational on it: a nonzero rational
    determinant over ℚ[x1..x3]."""
    n = draw(st.integers(1, max_size))
    poly = scalars(max_degree=2, max_terms=2)
    diag = [draw(rationals.filter(bool)) for _ in range(n)]
    lower = Matrix([[Scalar.rational(1) if i == j else
                     (draw(poly) if j < i else Scalar.rational(0))
                     for j in range(n)] for i in range(n)])
    upper = Matrix([[Scalar.rational(diag[i]) if i == j else
                     (draw(poly) if j > i else Scalar.rational(0))
                     for j in range(n)] for i in range(n)])
    return matmul(lower, upper)


class TestLinearAlgebraAgainstSympy:
    @given(rational_grids())
    @settings(max_examples=80)
    def test_rref(self, m):
        reduced, rank, pivots = rref(m)
        expected, expected_pivots = to_matrix(m).rref()
        assert pivots == tuple(expected_pivots) and rank == len(pivots)
        assert to_matrix(reduced) == expected

    @given(rational_grids())
    @settings(max_examples=80)
    def test_kernel_basis(self, m):
        basis = [[to_poly(e).as_expr() for e in vec] for vec in kernel_basis(m)]
        expected = [first_positive(list(v)) for v in to_matrix(m).nullspace()]
        assert basis == expected

    @given(rational_grids(), st.data())
    @settings(max_examples=80)
    def test_solve_rational(self, m, data):
        # half of the right-hand sides lie in the column space
        if m.cols and data.draw(st.booleans()):
            x = [Scalar.rational(data.draw(rationals)) for _ in range(m.cols)]
            rhs = list(matvec(m, x))
        else:
            rhs = [Scalar.rational(data.draw(rationals)) for _ in range(m.rows)]
        sol = solve_rational(m, rhs)
        a, b = to_matrix(m), to_vector(rhs)
        consistent = a.rank() == a.row_join(b).rank()
        assert (sol is not None) == consistent
        if sol is None:
            return
        assert a * to_vector(sol) == b
        # the particular solution: free variables 0, pivot variables read
        # off the reduced augmented matrix
        reduced, pivots = a.row_join(b).rref()
        expected = [0] * m.cols
        for r, p in enumerate(pivots):
            expected[p] = reduced[r, m.cols]
        assert list(to_vector(sol)) == expected

    @given(st.integers(0, 4).flatmap(lambda n: st.lists(
        st.lists(scalars(max_degree=2, max_terms=3), min_size=n, max_size=n),
        min_size=n, max_size=n)), st.booleans())
    @settings(max_examples=60)
    def test_det(self, grid, repeat_row):
        if repeat_row and len(grid) > 1:
            grid[-1] = [e * grid[0][0] for e in grid[0]]  # rank-deficient
        m = Matrix(grid)
        expected = sympy.expand(to_matrix(m).det(method="berkowitz"))
        assert to_poly(m.det()) == sympy.Poly(expected, *GENS, domain="QQ")

    @given(rational_grids(square=True))
    @settings(max_examples=80)
    def test_inverse_rational(self, m):
        a = to_matrix(m)
        if a.det() == 0:
            with pytest.raises(ExactError, match="singular"):
                m.inverse()
        else:
            assert to_matrix(m.inverse()) == a.inv()

    @given(unimodular_matrices())
    @settings(max_examples=40)
    def test_inverse_polynomial(self, m):
        product = (to_matrix(m) * to_matrix(m.inverse())).applyfunc(sympy.expand)
        assert product == sympy.eye(m.rows)


@st.composite
def sparse_vectors(draw, max_count=5):
    """Lists of sparse vectors {key: Scalar} in x1, x2 over the keys a..d;
    some are combinations of earlier ones, so kernels are often nonzero."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    vectors = []
    for _ in range(rng.randint(0, max_count)):
        if vectors and rng.random() < 0.4:
            a, b = rng.choice(vectors), rng.choice(vectors)
            ca, cb = rand_rational(rng), rand_rational(rng)
            vectors.append({k: a.get(k, ZERO) * ca + b.get(k, ZERO) * cb
                            for k in sorted(set(a) | set(b))})
        else:
            vectors.append({k: rand_scalar(rng, 2, 2)
                            for k in sorted(rng.sample("abcd", rng.randint(0, 4)))})
    return vectors


class TestCoordinatesAgainstSympy:
    @given(sparse_vectors())
    @settings(max_examples=80)
    def test_kernel_of_coordinates(self, vectors):
        n = len(vectors)
        kernel = _kernel(_coordinates(vectors), n)
        # the same matrix, built here: one row per (key, monomial) in sorted
        # order, zero rows of zero coefficients included
        axes = sorted({(k, exp) for vec in vectors for k in vec
                       for exp in vec[k].terms})
        m = sympy.Matrix(len(axes), n, lambda r, c: sympy.Rational(
            Fraction(vectors[c].get(axes[r][0], ZERO).terms.get(axes[r][1], 0))))
        nullspace = m.nullspace()
        found = sympy.Matrix(n, len(kernel), lambda r, c: sympy.Rational(kernel[c][r]))
        expected = sympy.Matrix.hstack(sympy.zeros(n, 0), *nullspace)
        assert len(kernel) == len(nullspace) == found.rank()
        assert m * found == sympy.zeros(len(axes), len(kernel))
        assert found.row_join(expected).rank() == len(nullspace)
        # neither the order of the keys nor of the rows changes the kernel
        flipped = [dict(reversed(vec.items())) for vec in vectors]
        assert _kernel(_coordinates(flipped), n) == kernel
