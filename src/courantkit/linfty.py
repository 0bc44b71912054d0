"""Two-term homotopy Lie algebra packaging of a (possibly twisted) structure.

Two packagings are built from an AlgebroidSpec:

classical (untwisted):  V0 = sections, V1 = base functions,
    ∂f = ρ*(df),  l2(x,y) = [x,y] − ½ρ*d⟨x,y⟩,  x▷f = ½⟨x,∂f⟩,
    l3(x,y,z) = −1/6·⟨l2(x,y),z⟩ + cyclic.

twisted:  V0 = sections, V1 = sections in ker ρ, ∂ = inclusion,
    l2(x,y) = x▷y = [x,y] − ½D⟨x,y⟩,
    l3(x,y,z) = H̃(x,y,z) − 1/6·D⟨l2(x,y),z⟩ + cyclic  (cyclic sum over the
    metric term; the H̃ term is itself cyclic-invariant and enters once).

Convention notes, pinned by running the packaging as an executable theorem
over polynomial bases (over a point every choice degenerates to the same
thing): the pairing inside l3 takes the *skew* bracket l2 — with the
non-skew bracket the cyclic sum is not even alternating — and the global
orientation of l3 is forced by the displayed defining equations under this
package's pairing convention ⟨X+ξ,Y+η⟩ = η(X)+ξ(Y).

The action and l3 read l2 only through their first argument,
act(l2, x, v) and l3(l2, x, y, z), so whichever l2 map a caller supplies is
the one both of them see.

verify_linfty checks the five defining equations exactly on basis tuples and
seeded random tuples; all five pass precisely when the underlying structure
satisfies its axiom suite.  Each call evaluates l2 once per distinct ordered
pair and l3 once per distinct ordered triple, through two tables keyed by
the exact argument values that the call owns and drops when it returns.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

from courantkit.axioms import CheckReport, _tabled, first_failure
from courantkit.exact import HALF, Scalar, ZERO
from courantkit.kerforms import kerform_basis, tilde_split
from courantkit.rand import rand_combination, rand_scalar, rand_section
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    anchor_apply,
    bracket,
    d0,
    pairing,
    rho_apply,
)

_MINUS_SIXTH = Scalar.rational(-1) / 6


@dataclass
class LInftyData:
    """Test bases and the four structure maps of a two-term homotopy algebra.

    V1 elements are Scalars in the classical packaging and ker-ρ Sections in
    the twisted one; the maps accept and return accordingly.
    """

    spec: AlgebroidSpec
    classical: bool
    v0_basis: list[Section]
    v1_basis: list
    boundary: Callable          # ∂(v): V1 → V0
    l2: Callable                # l2(x, y): V0 ∧ V0 → V0
    act: Callable               # act(l2, x, v) = x▷v: V0 ⊗ V1 → V1
    l3: Callable                # l3(l2, x, y, z): Λ³V0 → V1


def _l2(spec: AlgebroidSpec, x: Section, y: Section) -> Section:
    return bracket(spec, x, y) - d0(spec, pairing(spec, x, y)).scale(HALF)


def _metric_l3(spec: AlgebroidSpec, l2: Callable, x: Section, y: Section,
               z: Section) -> Scalar:
    """−⅙·Σ_cyc⟨l2(a,b),c⟩, the metric part of both packagings' l3."""
    return _MINUS_SIXTH * sum((pairing(spec, l2(a, b), c) for a, b, c
                               in ((x, y, z), (y, z, x), (z, x, y))), ZERO)


def build_classical(spec: AlgebroidSpec) -> LInftyData:
    """Classical packaging with base functions in degree one; rejects
    twisted input.  The action ½⟨x,D₀f⟩ is ½·ρ(x)f: D₀f = G⁻¹·A·∇f with G
    symmetric, so ⟨x,D₀f⟩ = xᵀ·A·∇f."""
    if spec.twist is not None and not spec.twist.is_zero():
        raise SpecInvariantError(
            "the classical packaging needs an untwisted structure")
    v1 = [Scalar.rational(1)] + [Scalar.variable(j) for j in range(spec.nvars)]
    return LInftyData(spec, True, spec.basis_sections(), v1,
                      boundary=lambda f: d0(spec, f),
                      l2=lambda x, y: _l2(spec, x, y),
                      act=lambda l2, x, f: HALF * rho_apply(spec, x, f),
                      l3=partial(_metric_l3, spec))


def build_twisted(spec: AlgebroidSpec) -> LInftyData:
    """Twisted packaging with V1 the sections of ker ρ.  D₀ is ℚ-linear, so
    the metric term −⅙·Σ_cyc D₀⟨l2(a,b),c⟩ is D₀ of the classical l3."""
    if spec.twist is None:
        raise SpecInvariantError(
            "the twisted packaging needs a structure with a twist "
            "(a zero twist form is fine)")
    if spec.is_point() or spec.anchor is None:
        v1 = spec.basis_sections()
    else:
        v1 = [form.as_section() for form in kerform_basis(spec, 1, max_degree=0)]
    split = tilde_split(spec, spec.twist)
    return LInftyData(spec, False, spec.basis_sections(), v1,
                      boundary=lambda v: v,
                      l2=lambda x, y: _l2(spec, x, y),
                      act=lambda l2, x, v: l2(x, v),
                      l3=lambda l2, x, y, z: (d0(spec, _metric_l3(spec, l2, x, y, z))
                                              + split(x, y, z)))


# -- the five defining equations ------------------------------------------------
#
# The equations and checks below read a copy made by _with_tables, whose
# action and l3 are bound to its l2 table: act(x, v) and l3(x, y, z).


def _with_tables(data: LInftyData) -> LInftyData:
    """A copy of data whose l2 and l3 read tables owned by the copy, with the
    action and l3 bound to that l2 table; data itself is left untouched.

    Keys are the ordered arguments, never filled from skewness or
    alternation, which are among the properties being checked.
    """
    l2 = _tabled(data.l2)
    return replace(data, l2=l2, act=partial(data.act, l2),
                   l3=_tabled(partial(data.l3, l2)))


_UNSHUFFLES_22 = [((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
                  ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1)]
# the action sum enters with the opposite orientation to the l3∘l2 sum,
# as in the homotopy Jacobi identity's (−1)^{i(j−1)} prefactor
_UNSHUFFLES_13 = [(0, (1, 2, 3), -1), (1, (0, 2, 3), 1),
                  (2, (0, 1, 3), -1), (3, (0, 1, 2), 1)]


def _eq_bracket_vs_boundary(data: LInftyData, x: Section, v) -> object:
    """l2(x, ∂v) − ∂(x▷v)."""
    return data.l2(x, data.boundary(v)) - data.boundary(data.act(x, v))


def _eq_boundary_action(data: LInftyData, v, w) -> object:
    """(∂v)▷w + (∂w)▷v."""
    return data.act(data.boundary(v), w) + data.act(data.boundary(w), v)


def _eq_jacobi_boundary(data: LInftyData, x, y, z) -> object:
    """l2(x,l2(y,z)) + cyclic − ∂l3(x,y,z)."""
    total = None
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        term = data.l2(a, data.l2(b, c))
        total = term if total is None else total + term
    return total - data.boundary(data.l3(x, y, z))


def _eq_action_jacobi(data: LInftyData, x, y, v) -> object:
    """x▷(y▷v) − y▷(x▷v) − l2(x,y)▷v − l3(x,y,∂v)."""
    return (data.act(x, data.act(y, v)) - data.act(y, data.act(x, v))
            - data.act(data.l2(x, y), v) - data.l3(x, y, data.boundary(v)))


def _eq_higher_coherence(data: LInftyData, *xs: Section) -> object:
    """Σ_(2,2) sgn·l3(l2(·,·),·,·) + Σ_(1,3) sgn·(·)▷l3(·,·,·)."""
    total = None
    for (a, b), (c, d), sign in _UNSHUFFLES_22:
        term = data.l3(data.l2(xs[a], xs[b]), xs[c], xs[d])
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    for k, rest, sign in _UNSHUFFLES_13:
        term = data.act(xs[k], data.l3(*[xs[r] for r in rest]))
        if sign < 0:
            term = -term
        total = total + term
    return total


def verify_linfty(data: LInftyData, seed: int = 0, degree: int = 2,
                  samples: int = 3) -> CheckReport:
    """Check the five defining equations exactly; returns a witness report.

    Equations that are multilinear-alternating are evaluated on increasing
    basis tuples plus random tuples (alternation itself is covered by the
    skewness properties of l2 and l3, checked first).  The maps checked are
    data's own, read through tables that this call owns (see _with_tables).
    """
    spec = data.spec
    rng = random.Random(seed)
    randoms = [rand_section(rng, spec, degree) for _ in range(samples)]
    v0 = data.v0_basis + randoms
    if data.classical:
        rand_v1 = [rand_scalar(rng, spec.nvars, degree) for _ in range(2)]
    else:
        rand_v1 = [rand_combination(rng, spec, data.v1_basis, degree)
                   for _ in range(2)]
    v1 = data.v1_basis + rand_v1
    data = _with_tables(data)
    report = CheckReport(suite="l-infinity")
    report.add("l2-skew", first_failure(((x,) for x in v0), ("x",),
                                        lambda x: data.l2(x, x)))
    report.add("l3-alternating", _check_l3_alternating(data, randoms))
    if not data.classical:
        report.add("values-in-v1", _check_values_in_v1(data, v0, v1, randoms))
    report.add("bracket-vs-boundary", first_failure(
        ((x, v) for x in v0 for v in v1), ("x", "v"),
        partial(_eq_bracket_vs_boundary, data)))
    report.add("boundary-action-symmetry", first_failure(
        itertools.combinations_with_replacement(v1, 2), ("v", "w"),
        partial(_eq_boundary_action, data)))
    triples = list(itertools.combinations(data.v0_basis, 3))
    triples += [tuple(randoms[i % len(randoms)] for i in (t, t + 1, t + 2))
                for t in range(len(randoms))] if randoms else []
    triples += _random_triples(data, randoms)[:1]
    report.add("jacobi-up-to-boundary", first_failure(
        triples, ("x", "y", "z"), partial(_eq_jacobi_boundary, data)))
    report.add("action-jacobi", first_failure(
        ((x, y, v) for x, y in itertools.combinations(v0, 2) for v in v1),
        ("x", "y", "v"), partial(_eq_action_jacobi, data)))
    quads = list(itertools.combinations(data.v0_basis, 4))
    if randoms:
        pool = randoms + data.v0_basis
        quads += [tuple(pool[(t + i) % len(pool)] for i in range(4))
                  for t in range(len(randoms))]
    report.add("higher-coherence", first_failure(
        quads, ("x1", "x2", "x3", "x4"), partial(_eq_higher_coherence, data)))
    return report


def _random_triples(data: LInftyData,
                    randoms: Sequence[Section]) -> list[tuple]:
    """One triple (r, first basis section, last basis section) per random
    section: the triples with a random section that l3-alternating and
    values-in-v1 evaluate after every increasing basis triple."""
    return [(r, data.v0_basis[0], data.v0_basis[-1]) for r in randoms]


def _check_l3_alternating(data: LInftyData,
                          randoms: Sequence[Section]) -> dict | None:
    # each candidate triple (x, y, z) is followed by the pair (x, y), whose
    # defect is l3(x, x, y)
    def defect(x, y, z=None):
        if z is None:
            return data.l3(x, x, y)
        base = data.l3(x, y, z)
        values = (base + data.l3(y, x, z), base + data.l3(x, z, y),
                  base - data.l3(y, z, x))
        return next((v for v in values if not v.is_zero()), None)

    candidates = itertools.chain(itertools.combinations(data.v0_basis, 3),
                                 _random_triples(data, randoms))
    return first_failure(
        (t for x, y, z in candidates for t in ((x, y, z), (x, y))),
        ("x", "y", "z"), defect)


def _check_values_in_v1(data: LInftyData, v0: Sequence[Section],
                        v1: Sequence[Section],
                        randoms: Sequence[Section]) -> dict | None:
    def escaping(value: Section) -> Section | None:
        """The value itself when it leaves ker ρ."""
        in_ker = all(c.is_zero() for c in anchor_apply(data.spec, value))
        return None if in_ker else value

    return first_failure(
        ((v,) for v in v1), ("v",),
        lambda v: None if escaping(v) is None else "V1 element not in ker ρ",
    ) or first_failure(
        ((x, v) for x in v0 for v in v1), ("x", "v"),
        lambda x, v: escaping(data.act(x, v)),
    ) or first_failure(
        itertools.chain(itertools.combinations(data.v0_basis, 3),
                        _random_triples(data, randoms)), ("x", "y", "z"),
        lambda *t: escaping(data.l3(*t)))
