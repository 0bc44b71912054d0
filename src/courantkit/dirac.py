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
anchor terms replaced by ∇_ψ v = [ψ, v].  induced_htla samples nothing:
each of its five rows reads a finite set of generator tuples, possibly
scaled by one variable, that decides it exactly (the sets are listed in its
docstring and proved in _build_induced_htla, _jacobi_triples and
_closed_quads), but leibniz, proved as in the suites.  H̃ on generator
tuples is kerforms.split_table over the generators, and the jacobi row runs
the axiom suites' code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable

from courantkit.axioms import (CheckReport, _anchor_fallback, _Call, _jacobi_defect,
                               decide, first_failure, witness)
from courantkit.exact import Matrix, ONE, Scalar, ZERO, _eliminate
from courantkit.kerforms import split_table, split_value, tilde_split, zero_form
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    anchor_apply,
    bracket,
    pairing,
)
from courantkit.twist import base_form

class MembershipError(ValueError):
    """Span membership is undecidable without a constant invertible block."""


@dataclass
class Subbundle:
    """Generator sections spanning a subbundle of the module.  The g
    generators must be independent: a constant block is a nonzero g×g minor,
    and without one det(M·Mᵀ) ≠ 0 decides it, as by Cauchy–Binet it is the
    sum of the squares of the g×g minors of their coefficient matrix M, and a
    sum of squares of real polynomials is zero only if each one is."""

    spec: AlgebroidSpec
    generators: list[Section]

    def __post_init__(self):
        for g in self.generators:
            self.spec.validate_section(g, "subbundle generator")
        if not self.generators:
            raise SpecInvariantError("a subbundle needs at least one generator")
        # the membership block, derived once: the pivots of [rows | I] reduced
        # to [R | E] are the first constant-column combination with a nonzero
        # minor and E = block⁻¹; _block holds, for each generator a, the
        # (column, entry) pairs of E's column a, or is None without a block
        g = self.dim
        coeffs = [dict(gen.entries) for gen in self.generators]
        polynomial_cols = {c for u in coeffs for c, e in u.items() if not e.is_rational()}
        constant_cols = [c for c in range(self.spec.rank) if c not in polynomial_cols]
        k = len(constant_cols)
        rows = [[u.get(c, ZERO).as_fraction() for c in constant_cols]
                + [Fraction(1) if a == b else Fraction(0) for b in range(g)]
                for a, u in enumerate(coeffs)]
        pivots = _eliminate(rows, k)
        self._block = None if len(pivots) < g else tuple(
            tuple((constant_cols[p], Scalar.rational(row[k + a]))
                  for p, row in zip(pivots, rows) if row[k + a])
            for a in range(g))
        if self._block is None:
            if Matrix([[sum((a * v[c] for c, a in u.items() if c in v), ZERO)
                        for v in coeffs] for u in coeffs]).det().is_zero():
                raise SpecInvariantError("subbundle generators are dependent")

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
    s = dict(sec.entries)
    coeffs = tuple(sum((s[c] * e for c, e in row if c in s), ZERO) for row in sub._block)
    recombined = Section.zero(spec.rank)
    for c, gen in zip(coeffs, sub.generators):
        recombined = recombined + gen.scale(c)
    return coeffs, sec - recombined


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
#
# On a Dirac subbundle L any sections a, b, c have ⟨a,b⟩ = 0 and [a,b] ∈ L,
# so I(a,b,c) = ρ(a)⟨b,c⟩ − ⟨[a,b],c⟩ − ⟨b,[a,c]⟩ = 0.  By the bracket's two
# extension rules N(a,b) = [a,b] + [b,a], which is symmetric, and the anchor
# defect A(a,b) = ρ[a,b] − [ρa,ρb] are then ℚ[x]-bilinear on L:
# N(a,f·b) = f·N(a,b) + ⟨a,b⟩D₀f, A(a,f·b) = f·A(a,b) and A(f·a,b) =
# f·A(a,b) + ⟨a,b⟩ρ(D₀f).  g₁, …, g_k are the generators of L.


def induced_htla(spec: AlgebroidSpec, sub: Subbundle) -> tuple[dict, CheckReport]:
    """The twisted Lie algebroid structure a Dirac subbundle inherits.

    Returns (structure data, report).  The data holds the restricted anchor,
    the bracket structure functions over the generators, and the restricted
    three-form values; the report checks, with witnesses, each row on a
    finite set of generator tuples that decides it (proofs in
    _build_induced_htla, _jacobi_triples and _closed_quads):

      twist-values-in-kernel   H̃|L lands in ker ρ ∩ L: increasing triples
      antisymmetry             the restricted bracket is skew: pairs i < j,
                               then each generator with itself
      jacobi                   Jacobi up to H̃|L: increasing triples, then
                               (a, b, xᵥ·g₁) where A(a,b)xᵥ ≠ 0, and when
                               antisymmetry fails every ordered triple and
                               each with one xᵥ in slot a
      leibniz                  the anchor Leibniz rule along L: proved, as
                               structure.bracket builds it in
      twist-closed             the connection derivative of H̃|L vanishes:
                               increasing quads, then every ordered quad when
                               antisymmetry fails, and (xᵥ·gᵢ, gⱼ, gₖ, gₗ),
                               j < k < l, when twist-values-in-kernel fails
    """
    dirac, solved = _check_dirac(spec, sub)
    if not dirac.passed:
        raise SpecInvariantError(
            f"induced structure needs a Dirac subbundle; failing: {dirac.failing()}")
    return _build_induced_htla(spec, sub, solved)


def _build_induced_htla(spec: AlgebroidSpec, sub: Subbundle,
                        solved: Solved) -> tuple[dict, CheckReport]:
    """induced_htla on a subbundle that has already passed _check_dirac,
    which solved the generator brackets into ``solved``.  Every bracket is
    read through the table of the call's axioms._Call.

    twist-values-in-kernel: H̃ is alternating and ℚ[x]-trilinear and
    ker ρ ∩ L is a submodule, so the nonzero values on increasing generator
    triples decide it.  antisymmetry: N is symmetric and ℚ[x]-bilinear on
    L, so the pairs i < j and the diagonal, where [g,g] is ½·N(g,g), decide
    it.  leibniz is proved by structure.bracket's construction (see its
    docstring).  A row with an empty set is "vacuous", as is
    twist-values-in-kernel without a twist or a generator triple, but
    jacobi over a polynomial base: its set is built by evaluating A on every
    generator pair, which decides the row when no triple is left.
    """
    call = _Call(spec)
    br, gens, g = call.br, sub.generators, sub.dim
    report = CheckReport(suite="induced-twisted-lie-algebroid")

    table = split_table(spec, spec.twist, gens) if spec.twist is not None else {}
    twist_solved = {key: express_in_generators(spec, sub, value)
                    for key, value in table.items()}

    # the residual rides along unnamed
    escaped = first_failure(
        ((str(key), value, twist_solved[key][1]) for key, value in table.items()),
        ("triple", "value"), lambda _, value, residual: (
            None if residual.is_zero() and not any(
                c.terms for c in anchor_apply(spec, value))
            else "restricted twist value escapes ker ρ ∩ L"))
    report.add("twist-values-in-kernel", escaped,
               "decided" if spec.twist is not None and g >= 3 else "vacuous")

    # the label leads each tuple; the sections ride along unnamed
    skew = first_failure(
        ((str((i, j)), gens[i], gens[j])
         for i, j in itertools.combinations(range(g), 2)),
        ("pair",), lambda _, x, y: br(x, y) + br(y, x),
    ) or first_failure(
        ((str(i), gens[i]) for i in range(g)),
        ("generator",), lambda _, x: br(x, x))
    report.add("antisymmetry", skew)

    report.add("jacobi", *decide(
        _jacobi_triples(call, gens, skew is not None), ("x", "y", "z"),
        partial(_jacobi_defect, br, table.get),
        empty="decided" if spec.nvars else "vacuous"))

    report.add("leibniz", None, "proved")

    h = tilde_split(spec, spec.twist or zero_form(spec, 4))

    def closedness(w, x, y, z, key, f) -> Section:
        # H̃ of three generators is the table's, f sitting in slot 0
        quad = (w, x, y, z)
        total = Section.zero(spec.rank)
        for k in range(4):
            value = split_value(table.get, key[:k] + key[k + 1:], f if k else ONE)
            if value is not None:
                value = br(quad[k], value)
                total = total + (value if k % 2 == 0 else -value)
        for k, l in itertools.combinations(range(4), 2):
            rest = [quad[m] for m in range(4) if m != k and m != l]
            value = h(br(quad[k], quad[l]), rest[0], rest[1])
            total = total + (value if (k + l) % 2 == 0 else -value)
        return total

    report.add("twist-closed", *decide(
        _closed_quads(gens, call.xs, skew is not None, escaped is not None),
        ("w", "x", "y", "z"), closedness))

    data = {
        "kind": "h-twisted-lie",
        "ring": ({"type": "point"} if spec.is_point()
                 else {"type": "polynomial", "vars": spec.nvars}),
        "rank": g,
        "anchor": [[c.to_text() for c in anchor_apply(spec, gen)] for gen in gens]
        if not spec.is_point() else None,
        "bracket": {f"{i},{j}": [c.to_text() for c in coeffs]
                    for (i, j), (coeffs, _) in sorted(solved.items())
                    if any(not c.is_zero() for c in coeffs)},
        "h3": [{"indices": list(key), "value": [c.to_text() for c in coeffs]}
               for key, (coeffs, _) in twist_solved.items()],
    }
    return data, report


def _keyed(gens: list[Section], arity: int, increasing: bool) -> Iterable[tuple]:
    """(*sections, key, 1) for each generator index tuple key that strictly
    increases, or for each other one, in index order."""
    for key in itertools.product(range(len(gens)), repeat=arity):
        if all(a < b for a, b in zip(key, key[1:])) == increasing:
            yield (*(gens[k] for k in key), key, ONE)


def _jacobi_triples(call: _Call, gens: list[Section],
                    skew_fails: bool) -> Iterable[tuple]:
    """Lemma B on L.  J = Jac − H̃; with ⟨a,b⟩ = 0 and I = 0 on L, the
    identities of axioms._jacobi_tuples become

      J(a,b,f·c) = f·J − A(a,b)f·c
      J(a,f·b,c) = f·J + A(a,c)f·b
      J(a,b,c) + J(b,a,c) = −[N(a,b),c]

    and together J(f·a,b,c) = f·J − A(b,c)f·a + (ρ(c)f)·N(a,b) −
    ⟨N(a,b),c⟩D₀f.  Also J(a,b,c) + J(a,c,b) = [a,N(b,c)] − N([a,b],c) −
    N([a,c],b).  The set: (1) increasing generator triples; (2) (a, b, xᵥ·g₁)
    for each ordered generator pair with A(a,b)xᵥ ≠ 0; (3) only when
    antisymmetry fails, the other ordered generator triples, then every
    generator triple with one xᵥ in slot a.  Suppose every tuple passes.
    J vanishes on all generator triples: by (3), or, when N ≡ 0 on L, since
    J is then alternating.  So (2) reads −A(a,b)xᵥ·g₁ ≠ 0; it is empty, and
    A ≡ 0 on L.  Slots c and b are then tensorial, and slot a's excess over
    f·J is (ρ(c)f)·N(a,b) − ⟨N(a,b),c⟩D₀f: zero when N ≡ 0, and otherwise
    tensorial in a, b, c and a derivation in f, so (3)'s degree-1 tuples,
    which read it, decide it.  Hence J ≡ 0 on L.

    As in axioms._jacobi_tuples, a tuple (x, y, z, indices, f) carries its
    generator indices and monomial; (2) is axioms._anchor_fallback.
    """
    g = range(len(gens))
    yield from _keyed(gens, 3, True)
    yield from _anchor_fallback(call, gens, ((i, j, ONE) for i in g for j in g))
    if skew_fails:
        yield from _keyed(gens, 3, False)
        for ijk in itertools.product(g, repeat=3):
            a, b, c = (gens[k] for k in ijk)
            for x in call.xs:
                yield a.scale(x), b, c, ijk, x


def _closed_quads(gens: list[Section], xs: list[Scalar], skew_fails: bool,
                  values_escape: bool) -> Iterable[tuple]:
    """C(x₀,…,x₃) = Σₖ (−1)ᵏ[xₖ, H̃(x̂ₖ)] + Σ_{k<l} (−1)^{k+l} H̃([xₖ,xₗ], x̂ₖₗ),
    the hats dropping those slots.  On L the two extension rules give, with
    V = H̃ of the other three sections in order,

      C(…, f·xₖ, …) = f·C + (−1)^{k+1}·F(f; xₖ, V),
      F(f; a, V) = ρ(V)f·a − ⟨a,V⟩D₀f

    (the ρ(xₗ)f·H̃ terms of slot k's brackets cancel those of the pair
    (k, l), and ⟨xₖ,xₗ⟩ = 0).  F is tensorial in a and V, so in all four
    sections, alternating in the three inside V, and a derivation in f; it
    vanishes when H̃|L lands in ker ρ ∩ L, since L is isotropic.  C is
    alternating when N ≡ 0 on L.  The set: (1) increasing generator quads;
    (2) when antisymmetry fails, the other ordered generator quads; (3)
    when twist-values-in-kernel fails, (xᵥ·gᵢ, gⱼ, gₖ, gₗ) for j < k < l.
    If every tuple passes, C vanishes on all generator quads, by (2) or by
    alternation.  F ≡ 0: (3), if read, reads −F(xᵥ; gᵢ, H̃(gⱼ,gₖ,gₗ)).  C
    is then tensorial in every slot, so C ≡ 0 on L.  On fewer than four
    generators a passing antisymmetry and twist-values-in-kernel leave no
    tuple: C is then alternating and tensorial, so zero.  Each quad carries
    its generator indices and the monomial in slot 0 (xᵥ in (3), else 1).
    """
    yield from _keyed(gens, 4, True)
    if skew_fails:
        yield from _keyed(gens, 4, False)
    if values_escape:
        for i, a in enumerate(gens):
            for *rest, key, _ in _keyed(gens, 3, True):
                for x in xs:
                    yield (a.scale(x), *rest, (i, *key), x)


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
