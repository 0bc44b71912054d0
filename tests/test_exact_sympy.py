"""Scalar arithmetic against sympy's Poly over ℚ, an independent oracle.

sympy is used only here, in tests; the module is skipped where it is not
installed.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courantkit.exact import Scalar, parse_scalar

sympy = pytest.importorskip("sympy")

from test_exact import scalars  # noqa: E402  (after the importorskip)

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
        assert all(type(c) is Fraction for c in back.terms.values())
