"""Isotropic/Lagrangean/integrable subbundles, Dirac structures, and the
twisted Lie algebroid a Dirac structure inherits.

A Subbundle is a list of generator sections.  Over a polynomial base the
generator matrix must contain an invertible square block in columns whose
entries are rational constants; membership of a section in the R-span is
then decided exactly through that block (graphs of two-forms and coordinate
subbundles all have one).  A Subbundle derives that block once, when it is
built.  General module membership is out of scope.

The Lagrangean test needs a pairing of split signature.  The Gram matrix
may be polynomial: its determinant is a nonzero constant, so its signature
is that of its constant terms (see gram_signature).

The inherited structure on a Dirac subbundle L carries the restricted
bracket and anchor and the restriction of the twist's splitting as an
L-three-form with values in ker ρ ∩ L.  Its closedness is measured by the
connection-based derivative: the usual covariant-derivative formula with the
anchor terms replaced by ∇_ψ v = [ψ, v].
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from courantkit.axioms import CheckReport, _tabled, first_failure, witness
from courantkit.exact import Matrix, ONE, Scalar, ZERO, _eliminate, _scalar_matrix
from courantkit.kerforms import tilde_split, zero_form
from courantkit.rand import rand_combination, rand_scalar
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    _jacobiator,
    anchor_apply,
    bracket,
    pairing,
    rho_apply,
)
from courantkit.twist import base_form

class MembershipError(ValueError):
    """Span membership is undecidable without a constant invertible block."""


@dataclass
class Subbundle:
    """Generator sections spanning a subbundle of the module.  The g
    generators must be independent, and det(M·Mᵀ) ≠ 0 decides it: by
    Cauchy–Binet it is the sum of the squares of the g×g minors of their
    coefficient matrix M, and a sum of squares of real polynomials is zero
    only if each one is."""

    spec: AlgebroidSpec
    generators: list[Section]

    def __post_init__(self):
        for g in self.generators:
            self.spec.validate_section(g, "subbundle generator")
        if not self.generators:
            raise SpecInvariantError("a subbundle needs at least one generator")
        coeffs = [g.coeffs for g in self.generators]
        if Matrix([[sum((a * b for a, b in zip(u, v) if a.terms and b.terms), ZERO)
                    for v in coeffs] for u in coeffs]).det().is_zero():
            raise SpecInvariantError("subbundle generators are dependent")
        # the membership block, derived once: the pivots of [rows | I] reduced
        # to [R | E] are the first constant-column combination with a nonzero
        # minor and E = block⁻¹; _block is (pivots, Eᵀ), or None without one
        g = self.dim
        constant_cols = [c for c in range(self.spec.rank)
                         if all(gen.coeffs[c].is_rational() for gen in self.generators)]
        k = len(constant_cols)
        rows = [[gen.coeffs[c].as_fraction() for c in constant_cols]
                + [Fraction(1) if a == b else Fraction(0) for b in range(g)]
                for a, gen in enumerate(self.generators)]
        pivots = _eliminate(rows, k)
        self._block = None if len(pivots) < g else (
            tuple(constant_cols[p] for p in pivots),
            _scalar_matrix(row[k:] for row in rows).transpose())

    @property
    def dim(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict:
        return {"generators": [g.to_text() for g in self.generators]}


def graph_of_two_form(spec: AlgebroidSpec, b: dict) -> Subbundle:
    """The graph {X + ι_X b} of a base two-form inside a split-type bundle.

    ``b`` maps index pairs in range(nvars) to Scalars or rationals, read as
    a base form: (j, i) stands for −(i, j) and (i, i) for zero.
    """
    n = spec.nvars
    if spec.rank != 2 * n or n == 0:
        raise ValueError("graphs of two-forms need the rank-2n split layout")
    if any(len(key) != 2 for key in b):
        raise ValueError("graph construction needs a two-form")
    if any(not 0 <= k < n for key in b for k in key):
        raise ValueError(f"two-form indices must lie in range({n})")
    rows = [[ONE if c == i else ZERO for c in range(spec.rank)] for i in range(n)]
    # ι_∂ᵢ(dxᵢ∧dxⱼ) = dxⱼ and ι_∂ⱼ(dxᵢ∧dxⱼ) = −dxᵢ, over the keys i < j
    for (i, j), value in base_form({k: ZERO + v for k, v in b.items()}).items():
        rows[i][n + j] = value
        rows[j][n + i] = -value
    return Subbundle(spec, [Section(tuple(row)) for row in rows])


# -- pointwise predicates -------------------------------------------------------


def is_isotropic(spec: AlgebroidSpec, sub: Subbundle) -> bool:
    """⟨L,L⟩ ≡ 0, checked identically on all generator pairs."""
    gens = sub.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            if not pairing(spec, gens[i], gens[j]).is_zero():
                return False
    return True


def gram_signature(gram: Matrix) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric Gram matrix G(x) whose
    determinant is a nonzero constant: the inertia of G(0), the matrix of
    its constant terms, read off p(t) = det(t·I − G(0)) by Descartes' rule.

    Constant inertia: det G(a) ≠ 0 at every a ∈ ℝⁿ, so no eigenvalue of the
    real symmetric G(a), which moves continuously with a, ever crosses 0.
    ℝⁿ is connected, so G(a) has the inertia of G(0) everywhere.

    Exact Descartes: G(0) is real symmetric, so p has only real roots.
    Strip the factor t^m of its zero roots; Descartes' rule bounds the
    positive roots by the sign changes V(p) of its coefficients and the
    negative ones by V(p(−t)).  Two consecutive nonzero coefficients k
    degrees apart add at most min(2, k) to V(p) + V(p(−t)), so the two
    bounds sum to at most n − m, the number of nonzero roots: both are
    equalities.
    """
    t = Scalar.variable(0)
    p = Matrix([[(t if i == j else ZERO) - e.terms.get((), 0)
                 for j, e in enumerate(row)]
                for i, row in enumerate(gram.entries)]).det()
    coeffs = sorted((exp[0] if exp else 0, c) for exp, c in p.terms.items())

    def changes(sign: int) -> int:
        positive = [c * sign ** k > 0 for k, c in coeffs]
        return sum(a != b for a, b in zip(positive, positive[1:]))

    return changes(1), changes(-1)


def is_lagrangean(spec: AlgebroidSpec, sub: Subbundle) -> bool:
    """Isotropic of half rank; demands a pairing of split signature."""
    _require_split(spec)
    return is_isotropic(spec, sub) and 2 * sub.dim == spec.rank


def _require_split(spec: AlgebroidSpec) -> None:
    """Raise unless the Gram matrix has split signature."""
    pos, neg = gram_signature(spec.gram)
    if pos != neg:
        raise SpecInvariantError(
            f"the Lagrangean test needs split signature, got ({pos},{neg})")


# -- span membership --------------------------------------------------------------


def express_in_generators(spec: AlgebroidSpec, sub: Subbundle,
                          sec: Section) -> tuple[tuple[Scalar, ...], Section]:
    """Solve sec = Σ c_a·gen_a through the subbundle's constant block.

    Returns (coefficients, residual); the residual is zero exactly when sec
    lies in the R-span of the generators.
    """
    spec.validate_section(sec)
    if sub._block is None:
        raise MembershipError(
            "no invertible constant-column block: span membership over the "
            "polynomial ring is undecidable for this generator matrix")
    cols, block_inv_t = sub._block
    coeffs = block_inv_t.matvec([sec.coeffs[c] for c in cols])
    recombined = Section.zero(spec.rank)
    for c, gen in zip(coeffs, sub.generators):
        recombined = recombined + gen.scale(c)
    return tuple(coeffs), sec - recombined


Solved = dict[tuple[int, int], tuple[tuple[Scalar, ...], Section]]


def integrability_defect(spec: AlgebroidSpec,
                         sub: Subbundle) -> list[tuple[tuple[int, int], Section]]:
    """Residuals of [lᵢ,lⱼ] outside the span, for every ordered generator pair."""
    return _residuals(_solve_brackets(spec, sub))


def _solve_brackets(spec: AlgebroidSpec, sub: Subbundle) -> Solved:
    """(i, j) -> express_in_generators of [gᵢ, gⱼ], every ordered pair in
    order."""
    gens = sub.generators
    return {(i, j): express_in_generators(spec, sub, bracket(spec, gi, gj))
            for i, gi in enumerate(gens) for j, gj in enumerate(gens)}


def _residuals(solved: Solved) -> list[tuple[tuple[int, int], Section]]:
    return [(pair, residual) for pair, (_, residual) in solved.items()
            if not residual.is_zero()]


def check_dirac(spec: AlgebroidSpec, sub: Subbundle) -> CheckReport:
    """Isotropic + Lagrangean + integrable, with witnesses."""
    return _check_dirac(spec, sub)[0]


def _check_dirac(spec: AlgebroidSpec,
                 sub: Subbundle) -> tuple[CheckReport, Solved]:
    """check_dirac's report and the generator brackets its integrability
    check solved, which _build_induced_htla reads instead of solving again."""
    report = CheckReport(suite="dirac")
    isotropic = is_isotropic(spec, sub)
    report.add("isotropic", None if isotropic else witness(
        {"generators": [g.to_text() for g in sub.generators]},
        "a generator pair has nonzero pairing"))
    _require_split(spec)  # is_lagrangean, on the isotropy just computed
    lagrangean = isotropic and 2 * sub.dim == spec.rank
    report.add("lagrangean", None if lagrangean else witness(
        {"dim": str(sub.dim), "rank": str(spec.rank)},
        "not isotropic of half rank"))
    solved = _solve_brackets(spec, sub)
    defects = _residuals(solved)
    report.add("integrable", witness({"pair": str(defects[0][0])}, defects[0][1])
               if defects else None)
    return report, solved


# -- the inherited twisted Lie algebroid -------------------------------------------


def induced_htla(spec: AlgebroidSpec, sub: Subbundle,
                 seed: int = 0, degree: int = 2) -> tuple[dict, CheckReport]:
    """The twisted Lie algebroid structure a Dirac subbundle inherits.

    Returns (structure data, report).  The data holds the restricted anchor,
    the bracket structure functions over the generators, and the restricted
    three-form values; the report checks, with witnesses:

      twist-values-in-kernel   H̃|L lands in ker ρ ∩ L (a claim under test)
      antisymmetry             the restricted bracket is skew
      jacobi                   Jacobi up to the restricted three-form
      leibniz                  the anchor Leibniz rule along L
      twist-closed             the connection derivative of H̃|L vanishes
    """
    dirac, solved = _check_dirac(spec, sub)
    if not dirac.passed:
        raise SpecInvariantError(
            f"induced structure needs a Dirac subbundle; failing: {dirac.failing()}")
    return _build_induced_htla(spec, sub, solved, seed, degree)


def _build_induced_htla(spec: AlgebroidSpec, sub: Subbundle, solved: Solved,
                        seed: int, degree: int) -> tuple[dict, CheckReport]:
    """induced_htla on a subbundle that has already passed _check_dirac,
    which solved the generator brackets into ``solved``.  Every bracket but
    Leibniz's [x, f·y] is read through one table owned by the call."""
    br = _tabled(partial(bracket, spec))
    rng = random.Random(seed)
    gens = sub.generators
    g = sub.dim
    report = CheckReport(suite="induced-twisted-lie-algebroid")

    # restricted data
    struct = {pair: coeffs for pair, (coeffs, _) in solved.items()}
    h = tilde_split(spec, spec.twist or zero_form(spec, 4))
    twist_vals = {key: h(*(gens[k] for k in key))
                  for key in itertools.combinations(range(g), 3)}
    twist_solved = {key: express_in_generators(spec, sub, value)
                    for key, value in twist_vals.items()}

    def escapes(value: Section, residual: Section) -> str | None:
        in_ker = all(c.is_zero() for c in anchor_apply(spec, value))
        return (None if residual.is_zero() and in_ker
                else "restricted twist value escapes ker ρ ∩ L")

    # the residual rides along unnamed
    report.add("twist-values-in-kernel", first_failure(
        ((str(key), value, twist_solved[key][1]) for key, value in twist_vals.items()),
        ("triple", "value"), lambda _, value, residual: escapes(value, residual)))

    # the label leads each tuple; the sections ride along unnamed
    report.add("antisymmetry", first_failure(
        ((str((i, j)), gens[i], gens[j])
         for i, j in itertools.combinations(range(g), 2)),
        ("pair",), lambda _, x, y: br(x, y) + br(y, x),
    ) or first_failure(
        ((str(i), gens[i]) for i in range(g)),
        ("generator",), lambda _, x: br(x, x)))

    # random L-sections: polynomial combinations of the generators
    randoms = [rand_combination(rng, spec, gens, degree) for _ in range(3)]
    fns = [rand_scalar(rng, spec.nvars, degree) for _ in range(2)]
    triples = list(itertools.combinations(gens, 3))
    triples += [(randoms[0], randoms[1], randoms[2]),
                (randoms[0], gens[0], gens[-1])]
    report.add("jacobi", first_failure(
        triples, ("x", "y", "z"),
        lambda x, y, z: _jacobiator(br, x, y, z) - h(x, y, z)))

    report.add("leibniz", first_failure(
        ((x, f, y) for x in gens for y in gens + randoms[:1] for f in fns),
        ("x", "f", "y"),
        lambda x, f, y: (bracket(spec, x, y.scale(f))
                         - y.scale(rho_apply(spec, x, f))
                         - br(x, y).scale(f))))

    def closedness(quad: tuple[int, ...]) -> Section:
        total = Section.zero(spec.rank)
        qgens = [gens[q] for q in quad]
        for k in range(4):
            rest = [qgens[m] for m in range(4) if m != k]
            value = br(qgens[k], h(*rest))
            total = total + (value if k % 2 == 0 else -value)
        for k, l in itertools.combinations(range(4), 2):
            rest = [qgens[m] for m in range(4) if m != k and m != l]
            value = h(br(qgens[k], qgens[l]), rest[0], rest[1])
            total = total + (value if (k + l) % 2 == 0 else -value)
        return total

    report.add("twist-closed", first_failure(
        ((str(quad), quad) for quad in itertools.combinations(range(g), 4)),
        ("quad",), lambda _, quad: closedness(quad)))

    data = {
        "kind": "h-twisted-lie",
        "ring": ({"type": "point"} if spec.is_point()
                 else {"type": "polynomial", "vars": spec.nvars}),
        "rank": g,
        "anchor": [[c.to_text() for c in anchor_apply(spec, gen)] for gen in gens]
        if not spec.is_point() else None,
        "bracket": {f"{i},{j}": [c.to_text() for c in struct[(i, j)]]
                    for (i, j) in sorted(struct) if any(
                        not s.is_zero() for s in struct[(i, j)])},
        "h3": [{"indices": list(key),
                "value": [c.to_text() for c in twist_solved[key][0]]}
               for key, value in sorted(twist_vals.items())
               if not value.is_zero()],
    }
    return data, report


def search_coordinate_dirac(spec: AlgebroidSpec) -> list[Subbundle]:
    """All spans of basis subsets of size rank/2 that pass check_dirac.

    A subset whose Gram block is identically zero is isotropic of half rank,
    for G(x) and for its constant terms G(0) alike, and a nondegenerate G(0)
    has a half-rank isotropic subspace only in split signature: such a
    subset is Lagrangean without a signature being computed, and Dirac
    exactly when it is integrable.
    """
    if spec.rank % 2:
        return []
    subs = [Subbundle(spec, [Section.basis(i, spec.rank) for i in subset])
            for subset in itertools.combinations(range(spec.rank), spec.rank // 2)
            if all(spec.gram.entries[i][j].is_zero()
                   for i in subset for j in subset)]
    return [sub for sub in subs if not integrability_defect(spec, sub)]
