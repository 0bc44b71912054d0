"""Seeded random scalars, sections, and forms for axiom and property runs.

All randomness in the package flows through a caller-supplied
``random.Random`` so identical seeds give identical runs (and byte-identical
CLI reports).  Coefficients are small rationals; polynomial degree is capped
by the caller.
"""

from __future__ import annotations

import random
from fractions import Fraction

from courantkit.exact import Scalar, wedge_indices
from courantkit.structure import AlgebroidSpec, Section


def rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def rand_scalar(rng: random.Random, nvars: int, degree: int,
                terms: int = 2) -> Scalar:
    """Random element of ℚ[x1..xn] with total degree <= degree."""
    if nvars == 0 or degree == 0:
        return Scalar.rational(rand_rational(rng))
    total = Scalar.rational(rand_rational(rng))
    for _ in range(rng.randint(1, terms)):
        exp = [0] * nvars
        for _ in range(rng.randint(1, degree)):
            exp[rng.randrange(nvars)] += 1
        total = total + Scalar.monomial(exp, rand_rational(rng))
    return total


def rand_section(rng: random.Random, spec: AlgebroidSpec,
                 degree: int) -> Section:
    """Random section; roughly half the coordinates are zero."""
    coeffs = []
    for _ in range(spec.rank):
        if rng.random() < 0.5:
            coeffs.append(Scalar.rational(0))
        else:
            coeffs.append(rand_scalar(rng, spec.nvars, degree))
    if all(c.is_zero() for c in coeffs):
        coeffs[rng.randrange(spec.rank)] = Scalar.rational(1)
    return Section(tuple(coeffs))


def rand_combination(rng: random.Random, spec: AlgebroidSpec,
                     sections: list[Section], degree: int) -> Section:
    """Random R-combination of the given sections: stays in their span."""
    total = Section.zero(spec.rank)
    for sec in sections:
        total = total + sec.scale(rand_scalar(rng, spec.nvars, degree))
    return total


def rand_wedge_coeffs(rng: random.Random, spec: AlgebroidSpec, degree: int,
                      poly_degree: int = 0) -> dict:
    """Random coefficients on the basis wedges of Λ^degree (sparse-ish)."""
    out = {}
    for key in wedge_indices(spec.rank, degree):
        if rng.random() < 0.5:
            value = rand_scalar(rng, spec.nvars, poly_degree)
            if not value.is_zero():
                out[key] = value
    return out
