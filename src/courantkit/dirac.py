"""Isotropic/Lagrangean/integrable subbundles, Dirac structures, and the
twisted Lie algebroid a Dirac structure inherits.

A Subbundle is a list of generator sections.  Over a polynomial base the
generator matrix must contain an invertible square block in columns whose
entries are rational constants; membership of a section in the R-span is
then decided exactly through that block (graphs of two-forms and coordinate
subbundles all have one).  A Subbundle derives that block once, when it is
built.  General module membership is out of scope.

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
from courantkit.exact import Matrix, Scalar, ZERO, _eliminate, _scalar_matrix
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

class MembershipError(ValueError):
    """Span membership is undecidable without a constant invertible block."""


@dataclass
class Subbundle:
    """Generator sections spanning a subbundle of the module."""

    spec: AlgebroidSpec
    generators: list[Section]

    def __post_init__(self):
        for g in self.generators:
            self.spec.validate_section(g, "subbundle generator")
        if not self.generators:
            raise SpecInvariantError("a subbundle needs at least one generator")
        # independent over the fraction field iff some g×g minor is a nonzero
        # polynomial; columns that vanish on every generator are never needed
        cols = [c for c in range(self.spec.rank)
                if any(not g.coeffs[c].is_zero() for g in self.generators)]
        if all(Matrix([[g.coeffs[c] for c in chosen]
                       for g in self.generators]).det().is_zero()
               for chosen in itertools.combinations(cols, self.dim)):
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
    """The graph {X + ι_X b} of a base two-form inside a split-type bundle."""
    n = spec.nvars
    if spec.rank != 2 * n or n == 0:
        raise ValueError("graphs of two-forms need the rank-2n split layout")
    gens = []
    for i in range(n):
        coeffs = [ZERO] * spec.rank
        coeffs[i] = Scalar.rational(1)
        for key, value in b.items():
            if len(key) != 2:
                raise ValueError("graph construction needs a two-form")
            if key[0] == i:
                coeffs[n + key[1]] = coeffs[n + key[1]] + value
            elif key[1] == i:
                coeffs[n + key[0]] = coeffs[n + key[0]] - value
        gens.append(Section(tuple(coeffs)))
    return Subbundle(spec, gens)


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
    """(positive, negative) inertia of a constant symmetric matrix, exact."""
    grid = [row[:] for row in gram.fraction_grid()]
    n = gram.rows
    pos = neg = 0
    for k in range(n):
        if grid[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if grid[j][j] != 0), None)
            if pivot is not None:
                grid[k], grid[pivot] = grid[pivot], grid[k]
                for row in grid:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                mate = next((j for j in range(k + 1, n) if grid[k][j] != 0), None)
                if mate is None:
                    continue
                for c in range(n):
                    grid[k][c] += grid[mate][c]
                for r in range(n):
                    grid[r][k] += grid[r][mate]
        d = grid[k][k]
        if d == 0:
            continue
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(k + 1, n):
            if grid[j][k] != 0:
                f = grid[j][k] / d
                for c in range(n):
                    grid[j][c] -= f * grid[k][c]
                for r in range(n):
                    grid[r][j] -= f * grid[r][k]
    return pos, neg


def is_lagrangean(spec: AlgebroidSpec, sub: Subbundle) -> bool:
    """Isotropic of half rank; demands a split-signature constant pairing."""
    _require_split(spec)
    return is_isotropic(spec, sub) and 2 * sub.dim == spec.rank


def _require_split(spec: AlgebroidSpec) -> None:
    """Raise unless the Gram matrix is constant of split signature."""
    if not spec.gram.is_rational():
        raise SpecInvariantError(
            "the Lagrangean test needs a constant Gram matrix")
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
    """All spans of basis subsets of size rank/2 that pass check_dirac."""
    if not spec.gram.is_rational():
        raise SpecInvariantError("the coordinate search needs a constant Gram matrix")
    if spec.rank % 2:
        return []
    # a basis subset with a zero Gram block is isotropic, and with rank/2
    # elements Lagrangean once the signature is split: it is Dirac exactly
    # when it is integrable
    subs = [Subbundle(spec, [Section.basis(i, spec.rank) for i in subset])
            for subset in itertools.combinations(range(spec.rank), spec.rank // 2)
            if all(spec.gram.entries[i][j].is_zero()
                   for i in subset for j in subset)]
    if subs:
        _require_split(spec)
    return [sub for sub in subs if not integrability_defect(spec, sub)]
