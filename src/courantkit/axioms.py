"""Executable axiom suites with failure witnesses.

Every row but leibniz decides its axiom exactly on a finite set of tuples,
basis tuples first, and samples nothing.  Each checker's docstring states
its set and the identity that makes the set decide the row (Jacobi's in
_jacobi_tuples); (p, q) is the first basis pair with ⟨p,q⟩ ≠ 0.  Lemma A: a
ℚ-multilinear operator of total order ≤ k vanishes iff it vanishes on every
tuple of x^β·eᵢ with Σ|β| ≤ k (by induction on Σ|β|: its value there is β!
times its ∂^β coefficient plus terms already zero).  A row passes only when
its defect is identically zero as a canonical Scalar/Section on its whole
set; a failure carries the full input tuple and the exact defect.  Lemma L:
structure.bracket builds the anchor Leibniz rule into every bracket (proof
in its docstring), so leibniz holds on every structure and evaluates
nothing.  Each row's label says how its verdict was reached: "decided" on
its set, "proved" (leibniz), or "vacuous" when the set held no tuple, as
derivation-bracket's over a point.

Suites (leibniz is proved in each, by Lemma L):
  courant               Jacobi (Leibniz form), Leibniz, symmetric part, invariance
  strongly-anchored     anchor morphism, Leibniz, symmetric part, invariance
  h-twisted             twisted Jacobi, closed twist, Leibniz, symmetric part,
                        invariance (plus twist membership in ker ρ̃)
  courant-dorfman       ring/module variant, incl. [D₀f,φ]=0 and ⟨D₀f,D₀g⟩=0
  almost-courant-dorfman    first three rules only
  sa-courant-dorfman    almost rules + the anchor-compatibility rule
  h-twisted-cd          seven-rule twisted ring/module variant
  lie-rinehart          antisymmetry, cyclic Jacobi, Leibniz, anchor representation

The ring/module (-cd) suites state invariance with ρ(ψ)f read as
⟨ψ, D₀f⟩; every suite reads it through the anchor.  The two agree on
every structure: D₀ is solved through gram⁻¹, so ⟨ψ, D₀f⟩ = ψᵀ·G·G⁻¹·A·∇f
= ρ(ψ)f, and both are zero over a point or without an anchor.

Each check_axioms call makes one _Call, which it owns and drops when it
returns: the basis, x1, …, xn, (p, q), the verdicts of the rows evaluated
so far, a table of bracket(spec, φ, ψ) keyed by the ordered pair (φ, ψ)
and one of rho_apply(spec, ψ, f) keyed by (ψ, f).  Every checker takes the
_Call alone and reads the bracket and ρ through its tables, the Jacobiator
and the anchor-morphism defect included, so each distinct argument tuple,
and each row that Jacobi reads, is evaluated once per call.  dirac's
induced algebroid and linfty.verify_linfty (for S) make their own.  Keys
are the exact ordered arguments, never filled from skewness or any other
property under test.  The decision sets, not the tables, may drop a tuple
whose defect is exactly ± that of an earlier one (a mirror): by formula in
symmetric-part and invariance, and in Jacobi only where the structure
itself is checked to mirror it (see _jacobi_tuples), so the first failing
tuple is never dropped.

The two rows that are tensorial on their basis tuples also keep call-owned
tables keyed by basis indices.  `twisted-jacobi` reads H̃ through
kerforms.split_lookup over the basis, filled on first read: H̃ is the
contraction of the twist by its sections, so it is ℚ[x]-multilinear and
alternating, and H̃(f·eᵢ, eⱼ, eₖ) is f times the sign of the sort times the
increasing entry, or zero on a repeated index.  `invariance` reads the lowered rows G·[eₐ,e_b]: since
the Gram matrix is symmetric (the constructor checks it), ⟨e_b,[eₐ,e_c]⟩ =
⟨[eₐ,e_c],e_b⟩, so both of its pairings are entries of those rows.  Each
entry equals the value it replaces, and the rows are built from the call's
bracket table.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

from courantkit.exact import ONE, Scalar, ZERO
from courantkit.kerforms import (
    KerForm,
    UncertifiedFormError,
    cov_derivative,
    rho_tilde,
    split_lookup,
    split_value,
)
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    _anchor_morphism_defect,
    _combine,
    _jacobiator,
    _tabled,
    bracket,
    d0,
    d0_generator,
    pairing,
    rho_apply,
)


class UnknownSuiteError(ValueError):
    """Requested suite name is not one of the known axiom suites."""


class SuiteNotApplicableError(ValueError):
    """The suite cannot run on this structure (e.g. twisted suite, no twist)."""


# -- reports -----------------------------------------------------------------


def _render(value) -> object:
    if isinstance(value, Section):
        return value.to_text()
    if isinstance(value, Scalar):
        return value.to_text()
    if isinstance(value, KerForm):
        return value.to_entries()
    if isinstance(value, tuple):
        return [_render(v) for v in value]
    return str(value)


def witness(inputs: dict, defect) -> dict:
    return {"inputs": {k: _render(v) for k, v in inputs.items()},
            "defect": _render(defect)}


def _is_zero(defect) -> bool:
    """None passes and a message fails; a tuple is zero componentwise."""
    if defect is None:
        return True
    if isinstance(defect, str):
        return False
    if isinstance(defect, tuple):
        return all(c.is_zero() for c in defect)
    return defect.is_zero()


def first_failure(tuples: Iterable[tuple], names: Sequence[str],
                  defect: Callable) -> dict | None:
    """Witness of the first tuple whose defect is nonzero, or None.

    Tuples are drawn lazily and evaluation stops at the first failure, so a
    check's witness is fixed by the order of its tuples.  ``names`` label the
    leading entries of a tuple in the witness; entries past them reach
    ``defect`` but stay out of the witness.
    """
    for t in tuples:
        value = defect(*t)
        if not _is_zero(value):
            return witness(dict(zip(names, t)), value)
    return None


# a row's witness, or None on a pass, and its label
Verdict = tuple[dict | None, str]
PROVED = (None, "proved")  # a pass from a proof, with nothing evaluated


def decide(tuples: Iterable[tuple], names: Sequence[str], defect: Callable,
           label: str = "decided", empty: str = "vacuous") -> Verdict:
    """first_failure's witness and the row's label: ``empty`` if there is
    no tuple, else ``label``."""
    tuples = iter(tuples)
    first = next(tuples, None)
    if first is None:
        return None, empty
    return first_failure(itertools.chain([first], tuples), names, defect), label


@dataclass
class AxiomCheck:
    """A report row; its label, beside the status, is "proved", "decided",
    "sampled" or "vacuous"."""

    axiom: str
    status: str
    witness: dict | None = None
    label: str = "decided"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    suite: str
    checks: list[AxiomCheck] = field(default_factory=list)

    def add(self, axiom: str, failure: dict | None, label: str = "decided") -> None:
        """Record a check: it passes exactly when there is no witness."""
        self.checks.append(AxiomCheck(
            axiom, "pass" if failure is None else "fail", failure, label))

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failing(self) -> list[str]:
        return [c.axiom for c in self.checks if c.status != "pass"]

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}


# -- the finite sets --------------------------------------------------------------


class _Call:
    """One call's context (see the module docstring).  (p, q) are the
    indices of the first basis pair with ⟨p,q⟩ ≠ 0, p = e1 as the Gram
    matrix is nondegenerate; the tables read the module's bindings of
    bracket and rho_apply."""

    def __init__(self, spec: AlgebroidSpec):
        self.spec = spec
        self.basis = spec.basis_sections()
        self.xs = [Scalar.variable(v) for v in range(spec.nvars)]
        self.p = 0
        self.q = next(j for j, g in enumerate(spec.gram.entries[0]) if not g.is_zero())
        self.br = _tabled(partial(bracket, spec))
        self.rho = _tabled(partial(rho_apply, spec))
        self.verdicts: dict = {}

    def verdict(self, checker: Callable) -> Verdict:
        """checker's witness or None, and its label, evaluated once per call."""
        if checker not in self.verdicts:
            self.verdicts[checker] = checker(self)
        return self.verdicts[checker]

    def pair_keys(self) -> Iterable[tuple[int, int, Scalar]]:
        """(i, j, f) for each pair (f·eᵢ, eⱼ) of pairs()."""
        yield from ((i, j, ONE) for i, j in
                    itertools.product(range(len(self.basis)), repeat=2))
        for x in self.xs:
            yield self.p, self.q, x

    def pairs(self) -> Iterable[tuple[Section, Section]]:
        """The basis pairs, then (xᵥ·p, q) for each variable."""
        for i, j, f in self.pair_keys():
            yield self.basis[i] if f is ONE else self.basis[i].scale(f), self.basis[j]


# -- axiom checkers --------------------------------------------------------------
# Each takes the call's _Call and returns a witness dict on first failure,
# or None, and a label.  call.br(φ, ψ) and call.rho(ψ, f) are the bracket
# and ρ(ψ)f, read through the call's tables; A(φ,ψ) = ρ[φ,ψ] − [ρφ,ρψ] and
# T(f,ψ) = [D₀f,ψ] are the anchor-morphism and derivation-bracket defects.


def _jacobi_tuples(call: _Call) -> Iterable[tuple[Section, Section, Section]]:
    """Lemma B.  On every structure, by the two extension rules and
    ⟨D₀f,ψ⟩ = ρ(ψ)f, with S and I the symmetric-part and invariance defects:

      Jac(a,b,f·c) = f·Jac − A(a,b)f·c
      Jac(a,f·b,c) = f·Jac + A(a,c)f·b − ⟨b,c⟩T(f,a) + ⟨b,c⟩S(a,D₀f)
                     + I(a,b,c)·D₀f
      Jac(a,b,c) + Jac(b,a,c) = −[S(a,b),c] − T(⟨a,b⟩,c)

    and Jac − H̃ obeys them too, H̃ being alternating and tensorial.  The
    set: (1) the basis triples that no earlier one mirrors (see Mirrors);
    (2) (a, b, xᵥ·e1) for each of A's pairs with A(a,b)xᵥ ≠ 0; (3) only
    when S or I fails, each basis triple with one xᵥ in slot b or in slot
    a.  If S = I = 0, invariance at (a, b, D₀f) gives A(a,b)f = ⟨b,T(f,a)⟩,
    so Jac ≡ 0 iff (1) passes and A ≡ 0 (slot c, then b, then a by the
    third identity; conversely the first forces A ≡ 0).
    Once (1) and A's basis pairs pass, T(f,eᵢ) = 0, so slot a gives
    Jac(xᵤp,q,e1) = 0 and (2) reads −A(a,b)xᵥ·e1.  Otherwise, once A ≡ 0,
    the excess of slot b over f·Jac, and that of slot a, which by the third
    identity is (ρ(c)f)S(a,b) − ⟨S(a,b),c⟩D₀f − ⟨a,b⟩T(f,c) less slot b's
    at (b, a, c), are tensorial in a, b, c and derivations in f: (3)
    decides them, and with its slot-a tuples (2) reads −A again.

    Mirrors.  With N(a,b) = [a,b] + [b,a], ℚ-bilinearity alone gives

      (M1) Jac(a,b,c) + Jac(b,a,c) = −[N(a,b),c]
      (M2) Jac(a,b,c) + Jac(a,c,b) = [a,N(b,c)] − N([a,b],c) − N(b,[a,c])

    and Jac − H̃ obeys both, H̃ being alternating.  (1) skips (eₐ,e_b,e_c)
    when a > b and N(eₐ,e_b) = 0, read through call.br, and when b > c, S = I = 0
    and G_bc ∈ ℚ: then N(x,y) = D₀⟨x,y⟩ and I at (eₐ,e_b,e_c) turn (M2) into
    [eₐ,D₀G_bc] − D₀(ρ(eₐ)G_bc) = 0.  Either way the skipped defect is minus
    that at (b,a,c) or (a,c,b), which comes earlier in product order, so the
    first nonzero basis triple is never skipped: (1) fails at the same
    triple with the same defect as the full product, and passes iff every
    basis triple does.  (e,e,e) is never skipped; where both rules hold
    throughout, (1) is the C(r+2,3) triples a ≤ b ≤ c.

    Each tuple carries two entries past the witness names: the basis indices
    (i, j, k) of its slots and the monomial f it holds in one of them (1 in
    (1), the pair's monomial times xᵥ in (2), xᵥ in (3)).
    """
    basis, xs, gram, br = call.basis, call.xs, call.spec.gram.entries, call.br
    lemma_c = not (call.verdict(_ax_symmetric_part)[0]
                   or call.verdict(_ax_invariance)[0])
    r = range(len(basis))
    for i, j in itertools.product(r, repeat=2):
        a, b = basis[i], basis[j]
        if i > j and (br(a, b) + br(b, a)).is_zero():
            continue
        for k in r:
            if not (k < j and lemma_c and gram[j][k].is_rational()):
                yield a, b, basis[k], (i, j, k), ONE
    yield from _anchor_fallback(call, basis, call.pair_keys())
    if not lemma_c:
        for ijk in itertools.product(r, repeat=3):
            a, b, c = (basis[i] for i in ijk)
            for x in xs:
                yield a, b.scale(x), c, ijk, x
                yield a.scale(x), b, c, ijk, x


def _anchor_fallback(call: _Call, sections: list[Section],
                     keys: Iterable[tuple]) -> Iterable[tuple]:
    """Lemma B's step (2), over the basis or the generators of a Dirac L: for
    each key (i, j, f), (f·sᵢ, sⱼ, xᵥ·s₀) wherever A(f·sᵢ, sⱼ)xᵥ ≠ 0, with
    its indices (i, j, 0) and monomial f·xᵥ."""
    xs = call.xs
    for i, j, f in keys:
        a, b = sections[i] if f is ONE else sections[i].scale(f), sections[j]
        for v, component in enumerate(_anchor_morphism_defect(call.spec, call.br, a, b)):
            if component.terms:
                yield (a, b, sections[0].scale(xs[v]), (i, j, 0),
                       xs[v] if f is ONE else f * xs[v])


def _jacobi_defect(br: Callable, lookup: Callable, a: Section, b: Section,
                   c: Section, indices: tuple, f: Scalar) -> Section:
    """Jac − H̃ on the sections of ``indices``, one times f, H̃ read through
    split_value's ``lookup`` over those sections ({}.get when untwisted)."""
    jac = _jacobiator(br, a, b, c)
    value = split_value(lookup, indices, f)
    return jac if value is None else jac - value


def _ax_jacobi(call: _Call, twisted: bool) -> Verdict:
    """Jac, or Jac − H̃ read through split_lookup over the basis, on Jacobi's set."""
    lookup = split_lookup(call.spec, call.spec.twist, call.basis) if twisted else {}.get
    return decide(_jacobi_tuples(call), ("phi", "psi1", "psi2"),
                  partial(_jacobi_defect, call.br, lookup))


def _ax_twist_membership(call: _Call) -> Verdict:
    spec = call.spec
    # ρ̃, computed whole, lists nonzero components only: the first is the witness
    return decide(
        ((spec.twist, f"d/dx{j + 1} ⊗ e{list(rest)}", value)
         for (j, rest), value in rho_tilde(spec, spec.twist).items()),
        ("twist", "component"), lambda twist, component, value: value,
        empty="vacuous" if spec._anchor_rows is None else "decided")


def _ax_twist_closed(call: _Call) -> Verdict:
    twist = call.spec.twist
    try:
        defect = cov_derivative(call.spec, twist)
    except UncertifiedFormError:
        defect = "twist is not in ker ρ̃"
    return decide([(twist,)], ("twist",), lambda twist: defect)


def _proved(call: _Call) -> Verdict:
    """leibniz, by Lemma L."""
    return PROVED


def _ax_symmetric_part(call: _Call) -> Verdict:
    """Lemma C: S(φ,ψ) = [φ,ψ] + [ψ,φ] − D₀⟨φ,ψ⟩ is symmetric, and ℚ[x]-linear
    in ψ by the bracket's two extension rules and D₀(fh) = f·D₀h + h·D₀f.
    [ψ,ψ] − ½D₀⟨ψ,ψ⟩ is ½·S(ψ,ψ), so it needs no pass of its own.  On basis
    pairs ⟨eₐ,e_b⟩ is the Gram entry G_ab, which rides along unnamed.  As G
    is symmetric (the constructor checks it), S(e_b,eₐ) = S(eₐ,e_b) by
    formula, so the pairs a ≤ b in row-major order decide the row and give
    the first failing basis pair."""
    spec, basis, br, gram = call.spec, call.basis, call.br, call.spec.gram.entries
    return decide(
        ((basis[a], basis[b], gram[a][b]) for a, b in
         itertools.combinations_with_replacement(range(len(basis)), 2)),
        ("phi", "psi"),
        lambda phi, psi, g: br(phi, psi) + br(psi, phi) - d0(spec, g))


def _ax_invariance(call: _Call) -> Verdict:
    """Lemma C: the defect is symmetric in ψ₁, ψ₂ and ℚ[x]-linear in ψ₁ by
    the right rule; in φ, the left rule adds four terms that cancel in pairs
    since ⟨D₀f,ψ⟩ = ρ(ψ)f (see the module docstring).  On basis sections it
    is ρ(eₐ)G_bc − L_ab[c] − L_ac[b], with L_ab = G·[eₐ,e_b] the lowered
    bracket: ⟨e_b,[eₐ,e_c]⟩ = ⟨[eₐ,e_c],e_b⟩ as G is symmetric.  L_ab is
    built once per (a, b), on first use.  The formula is symmetric in b, c
    (G_cb = G_bc), so (a,c,b) mirrors (a,b,c) and the triples (a, b ≤ c),
    in product order, decide the row and give its first failing triple."""
    spec, basis, br, gram = call.spec, call.basis, call.br, call.spec.gram.entries
    row = _tabled(lambda a, b: _combine(spec._gram_rows, br(basis[a], basis[b]).entries))
    r = range(len(basis))
    return decide(
        ((basis[a], basis[b], basis[c], a, b, c)
         for a in r for b, c in itertools.combinations_with_replacement(r, 2)),
        ("phi", "psi1", "psi2"),
        lambda phi, psi1, psi2, a, b, c: (call.rho(phi, gram[b][c])
                                          - row(a, b).get(c, ZERO)
                                          - row(a, c).get(b, ZERO)))


def _ax_anchor_morphism(call: _Call) -> Verdict:
    """A(φ,f·ψ) = f·A(φ,ψ) by the right rule, and A(f·φ,ψ) = f·A(φ,ψ) +
    ⟨φ,ψ⟩·ρ(D₀f) by the left rule, where ρ(D₀f) = Σᵥ ∂ᵥf·ρ(D₀xᵥ).  So A ≡ 0
    iff it vanishes on basis pairs and ρ(D₀xᵥ) = 0 for every v, and once the
    basis pairs pass, A(xᵥ·p, q) = ⟨p,q⟩·ρ(D₀xᵥ)."""
    return decide(call.pairs(), ("phi", "psi"),
                  partial(_anchor_morphism_defect, call.spec, call.br))


def _ax_derivation_bracket(call: _Call) -> Verdict:
    """T is a derivation in f: by the left rule [f·D₀h + h·D₀f, ψ] = f·T(h,ψ)
    + h·T(f,ψ), the ρ terms cancelling as ⟨D₀h,ψ⟩ = ρ(ψ)h; T(xᵥ, g·ψ) =
    g·T(xᵥ,ψ) + ρ(D₀xᵥ)g·ψ by the right rule.  So (xᵥ, eᵢ) decide T(xᵥ,·) up
    to ρ(D₀xᵥ), which (xᵥ, xᵤ·p) then read.  D₀xᵥ rides along unnamed."""
    basis, xs = call.basis, call.xs
    gens = [d0_generator(call.spec, v) for v in range(len(xs))]
    return decide(
        ((x, phi, df) for x, df in zip(xs, gens)
         for phi in basis + [basis[call.p].scale(u) for u in xs]),
        ("f", "phi"), lambda f, phi, df: call.br(df, phi))


def _ax_derivation_isotropy(call: _Call) -> Verdict:
    """⟨D₀f, D₀g⟩ = ρ(D₀f)g is a derivation in g, and in f since ρ(D₀f) =
    Σᵥ ∂ᵥf·ρ(D₀xᵥ), so (xᵤ, xᵥ) decide it."""
    spec = call.spec
    return decide(
        itertools.product(call.xs, repeat=2), ("f", "g"),
        lambda f, g: pairing(spec, d0(spec, f), d0(spec, g)))


def _ax_anchor_action(call: _Call, names: tuple[str, ...]) -> Verdict:
    """ρ([a,b])f − ρ(a)ρ(b)f + ρ(b)ρ(a)f, named (φ, ψ, g) by
    anchor-representation.  anchor-compatibility names it (ψ, φ, f): its rule
    ⟨[ψ,φ],D₀f⟩ = ⟨ψ,D₀⟨φ,D₀f⟩⟩ − ⟨φ,D₀⟨ψ,D₀f⟩⟩ is this one, since ⟨χ,D₀h⟩ =
    ρ(χ)h (see the module docstring for the proof).  The defect is the vector
    field A(a,b) applied to f, so A's pairs × (x1, …, xn) decide it."""
    br, rho = call.br, call.rho
    return decide(
        ((a, b, f) for a, b in call.pairs() for f in call.xs), names,
        lambda a, b, f: (rho(br(a, b), f) - rho(a, rho(b, f))
                         + rho(b, rho(a, f))))


def _ax_antisymmetry(call: _Call) -> Verdict:
    """N(φ,ψ) = [φ,ψ] + [ψ,φ] is symmetric, and N(φ,f·ψ) = f·N(φ,ψ) +
    ⟨φ,ψ⟩·D₀f by the two rules.  So N ≡ 0 iff it vanishes on basis pairs
    and D₀xᵥ = 0 for every v, and once the basis pairs pass, N(xᵥ·p, q) =
    ⟨p,q⟩·D₀xᵥ."""
    return decide(
        call.pairs(), ("phi", "psi"),
        lambda phi, psi: call.br(phi, psi) + call.br(psi, phi))


def _degree_two_triples(call: _Call) -> Iterable[tuple[Section, Section, Section]]:
    """Lemma A's set at degree 2: (x^α·eᵢ, x^β·eⱼ, x^γ·eₖ) with |α| + |β| +
    |γ| ≤ 2, by total degree."""
    basis, xs = call.basis, call.xs
    monomials = ([(0, ONE)] + [(1, x) for x in xs]
                 + [(2, u * v) for i, u in enumerate(xs) for v in xs[i:]])
    for total in range(3):
        for fs in itertools.product(monomials, repeat=3):
            if sum(d for d, _ in fs) == total:
                yield from itertools.product(
                    *(basis if f is ONE else [e.scale(f) for e in basis]
                      for _, f in fs))


def _ax_cyclic_jacobi(call: _Call) -> Verdict:
    """Each bracket differentiates once, so the cyclic Jacobiator has total
    order ≤ 2 and Lemma A at degree 2 decides it.  The set opens with the
    basis triples, and on a point base, with no x1, …, xn, it is them."""
    br = call.br
    return decide(
        _degree_two_triples(call), ("psi1", "psi2", "psi3"),
        lambda a, b, c: (br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))))


SUITES: dict[str, list[tuple[str, Callable]]] = {
    "courant": [
        ("jacobi", partial(_ax_jacobi, twisted=False)),
        ("leibniz", _proved),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "strongly-anchored": [
        ("anchor-morphism", _ax_anchor_morphism),
        ("leibniz", _proved),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "h-twisted": [
        ("twist-membership", _ax_twist_membership),
        ("twisted-jacobi", partial(_ax_jacobi, twisted=True)),
        ("twist-closed", _ax_twist_closed),
        ("leibniz", _proved),
        ("symmetric-part", _ax_symmetric_part),
        ("invariance", _ax_invariance),
    ],
    "courant-dorfman": [
        ("leibniz", _proved),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("jacobi", partial(_ax_jacobi, twisted=False)),
        ("derivation-bracket", _ax_derivation_bracket),
        ("derivation-isotropy", _ax_derivation_isotropy),
    ],
    "almost-courant-dorfman": [
        ("leibniz", _proved),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
    ],
    "sa-courant-dorfman": [
        ("leibniz", _proved),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("anchor-compatibility",
         partial(_ax_anchor_action, names=("psi", "phi", "f"))),
    ],
    "h-twisted-cd": [
        ("leibniz", _proved),
        ("invariance", _ax_invariance),
        ("symmetric-part", _ax_symmetric_part),
        ("twisted-jacobi", partial(_ax_jacobi, twisted=True)),
        ("twist-closed", _ax_twist_closed),
        ("derivation-bracket", _ax_derivation_bracket),
        ("derivation-isotropy", _ax_derivation_isotropy),
    ],
    "lie-rinehart": [
        ("antisymmetry", _ax_antisymmetry),
        ("jacobi-cyclic", _ax_cyclic_jacobi),
        ("leibniz", _proved),
        ("anchor-representation",
         partial(_ax_anchor_action, names=("phi", "psi", "g"))),
    ],
}

_NEEDS_TWIST = {"h-twisted", "h-twisted-cd"}


def check_axioms(spec: AlgebroidSpec, suite: str) -> CheckReport:
    """Run one axiom suite, each row on its finite set."""
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    if suite in _NEEDS_TWIST and spec.twist is None:
        raise SuiteNotApplicableError(
            f"suite {suite!r} needs a twist, but the structure declares none")
    call = _Call(spec)
    report = CheckReport(suite=suite)
    for axiom, checker in SUITES[suite]:
        report.add(axiom, *call.verdict(checker))
    return report
