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

The action and l3 are methods that read l2 through self.l2, so the call
tables that verify_linfty puts behind l2 are the ones both of them see.

verify_linfty checks the five defining equations exactly on basis tuples and
seeded random tuples, or proves them from the suites' verdicts (below).  The
twisted packaging reads the pairing only through D and H̃, so its equations
can pass where the axiom suite fails: split4 twisted by e1∧e2∧e3 with Gram
entry (0, 0) set to 2 fails h-twisted's invariance (over a point D = 0) and
passes every equation.  Each call evaluates l2 and l3 through two tables
keyed by the exact ordered argument values, and l2's bracket through the
_Call's bracket table, all of which the call owns and drops when it
returns.

Each call reads the suites' verdicts through one axioms._Call, and first
decides whether l2 is skew: the pairing being symmetric, l2 + l2ᵀ is Lemma
C's symmetric part S, so it reads the suites' verdict on S,
axioms._ax_symmetric_part, which the basis pairs decide.  When S ≡ 0,
the l2 table reads l2(x,y) as −l2(y,x) once (y,x) is in it, and l2-skew and
l3-alternating pass by proof (l3 alternates once l2 is skew).  When S ≢ 0,
nothing is filled from skewness or alternation, which are then among the
properties being checked.

The rows the suites settle.  Write Jac(x,y,z) = [x,[y,z]] − [[x,y],z] −
[y,[x,z]] for the suites' Jacobiator, A(x,y) = ρ[x,y] − [ρx,ρy] for the
anchor-morphism defect, I for the invariance defect, M for l3's metric term
and D = D₀; ⟨Dg,z⟩ = ρ(z)g on every structure.  When S ≡ 0, I ≡ 0 and the
suites' Jacobi row passes (Jac ≡ H̃ twisted, Jac ≡ 0 classically; each row
decides its axiom on all sections), the Jacobi, action and boundary rows
follow (verify_linfty's docstring, row by row) from

  Lemma D.  [x,Df] = D(ρ(x)f).  The Jacobi row forces A ≡ 0 (Lemma B in
  axioms._jacobi_tuples: Jac(a,b,f·c) = f·Jac − A(a,b)f·c, and H̃ is
  tensorial).  Invariance at (x, Df, z) gives ⟨[x,Df],z⟩ = ρ(x)ρ(z)f −
  ρ[x,z]f, which A ≡ 0 turns into ρ(z)ρ(x)f = ⟨D(ρ(x)f),z⟩; the Gram
  matrix is nondegenerate.

and its consequences under S ≡ 0: [Df,y] = D⟨Df,y⟩ − [y,Df] = 0, so the
right rule [Df,g·y] = g·[Df,y] + ρ(Df)g·y gives ρ∘D = 0.  Hence l2(x,Df) =
½D(ρ(x)f) = −l2(Df,x) and ρ∘l2 = [ρ·,ρ·].  higher-coherence follows as
well, twisted once the suites' twist-membership and twist-closed rows pass
too (verify_linfty).  Rows so settled are "proved" and evaluate nothing;
every other row is evaluated on its whole set and is "sampled" ("vacuous"
or "proved" when the set is empty, see verify_linfty).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from courantkit.axioms import (PROVED, CheckReport, _ax_invariance, _ax_jacobi,
                               _ax_symmetric_part, _ax_twist_closed,
                               _ax_twist_membership, _Call, decide,
                               first_failure)
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


@dataclass(frozen=True)
class LInftyData:
    """Test bases of a two-term homotopy algebra; ∂, l2, x▷v and l3 are
    its methods.

    Frozen, so the maps verify_linfty checks are always the packaging's own,
    the only ones its proofs from a skew l2 hold for.  V1 elements are
    Scalars in the classical packaging and ker-ρ Sections in the twisted
    one; the maps accept and return accordingly.  ``split`` is the twisted
    packaging's H̃ = tilde_split(spec, spec.twist), and None in the
    classical one.  verify_linfty's proofs assume both, as build_twisted
    makes them: ``split`` is the H̃ that the suites' twisted Jacobi row
    subtracts, and V1 ⊂ ker ρ.
    """

    spec: AlgebroidSpec
    classical: bool
    v1_basis: tuple
    split: Callable | None = None

    @property
    def v0_basis(self) -> list[Section]:
        return self.spec.basis_sections()

    def boundary(self, v):
        """∂v: V1 → V0, D₀v classically and the inclusion when twisted."""
        return d0(self.spec, v) if self.classical else v

    def l2(self, x: Section, y: Section) -> Section:
        """l2(x, y) = [x,y] − ½D₀⟨x,y⟩: V0 ⊗ V0 → V0."""
        return (self._bracket(x, y)
                - d0(self.spec, pairing(self.spec, x, y)).scale(HALF))

    def _bracket(self, x: Section, y: Section) -> Section:
        return bracket(self.spec, x, y)

    def act(self, x: Section, v):
        """x▷v: V0 ⊗ V1 → V1.  Classically ½⟨x,D₀f⟩ = ½·ρ(x)f: D₀f =
        G⁻¹·A·∇f with G symmetric, so ⟨x,D₀f⟩ = xᵀ·A·∇f.  Twisted, l2(x, v)."""
        if self.classical:
            return HALF * rho_apply(self.spec, x, v)
        return self.l2(x, v)

    def l3(self, x: Section, y: Section, z: Section):
        """l3(x, y, z): Λ³V0 → V1, the metric term M = −⅙·Σ_cyc⟨l2(a,b),c⟩
        classically and D₀M + H̃(x,y,z) when twisted (D₀ is ℚ-linear, so
        D₀M is the cyclic sum of the D₀ terms)."""
        metric = _MINUS_SIXTH * sum((pairing(self.spec, self.l2(a, b), c) for a, b, c
                                     in ((x, y, z), (y, z, x), (z, x, y))), ZERO)
        if self.classical:
            return metric
        return d0(self.spec, metric) + self.split(x, y, z)


def build_classical(spec: AlgebroidSpec) -> LInftyData:
    """Classical packaging with base functions in degree one; rejects
    twisted input."""
    if spec.twist is not None and not spec.twist.is_zero():
        raise SpecInvariantError(
            "the classical packaging needs an untwisted structure")
    v1 = [Scalar.rational(1)] + [Scalar.variable(j) for j in range(spec.nvars)]
    return LInftyData(spec, True, tuple(v1))


def build_twisted(spec: AlgebroidSpec) -> LInftyData:
    """Twisted packaging with V1 the sections of ker ρ."""
    if spec.twist is None:
        raise SpecInvariantError(
            "the twisted packaging needs a structure with a twist "
            "(a zero twist form is fine)")
    if spec.is_point() or spec.anchor is None:
        v1 = spec.basis_sections()
    else:
        v1 = [form.as_section() for form in kerform_basis(spec, 1, max_degree=0)]
    return LInftyData(spec, False, tuple(v1), tilde_split(spec, spec.twist))


# -- the five defining equations ------------------------------------------------
#
# The equations and checks below read a _CallTables made by verify_linfty.


class _CallTables(LInftyData):
    """data's packaging with l2 and l3 read through tables that this object
    owns; verify_linfty makes one per call and drops it when it returns.

    Keys are the ordered arguments.  With ``skew``, the suites' proof
    (axioms._ax_symmetric_part) that l2 + l2ᵀ = S vanishes on all sections,
    a miss on (x, y) is answered by −l2(y, x) when (y, x) is in the table:
    l2(x,y) = S(x,y) − l2(y,x).  Without it nothing is filled from
    skewness or alternation, which are then among the properties checked.
    l2 reads the bracket through call.br, the table the suites' rows filled,
    so no ordered pair is bracketed twice in one call.
    """

    def __init__(self, data: LInftyData, call: _Call, skew: bool):
        super().__init__(data.spec, data.classical, data.v1_basis, data.split)
        # plain dicts, not structure._tabled: a table holding a bound method
        # of self is a reference cycle, alive until the cyclic collector runs
        self._l2_values, self._l3_values, self._skew = {}, {}, skew
        self._br = call.br

    def _bracket(self, x: Section, y: Section) -> Section:
        return self._br(x, y)

    def l2(self, x: Section, y: Section) -> Section:
        table = self._l2_values
        try:
            return table[x, y]
        except KeyError:
            mirror = table.get((y, x)) if self._skew else None
            value = table[x, y] = super().l2(x, y) if mirror is None else -mirror
            return value

    def l3(self, x: Section, y: Section, z: Section):
        table = self._l3_values
        try:
            return table[x, y, z]
        except KeyError:
            value = table[x, y, z] = super().l3(x, y, z)
            return value


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
    data's own, read through tables that this call owns (see _CallTables).

    S = l2 + l2ᵀ is read first from axioms._ax_symmetric_part, which decides
    whether it vanishes on all sections; this function evaluates no S of its
    own.  If it does vanish, l2(x,x) = ½S(x,x) = 0 passes l2-skew, and
    l3-alternating passes because l3 alternates:

    - with T(a,b,c) = ⟨l2(a,b),c⟩, the metric term M = −⅙·(T(x,y,z) +
      T(y,z,x) + T(z,x,y)) sums the same three terms after a rotation of
      (x,y,z), and l2(b,a) = S(a,b) − l2(a,b) gives
      M(x,y,z) + M(y,x,z) = −⅙·(⟨S(x,y),z⟩ + ⟨S(y,z),x⟩ + ⟨S(z,x),y⟩) and
      M(x,x,y) = −⅙·(½⟨S(x,x),y⟩ + ⟨S(x,y),x⟩), both zero;
    - the twisted l3 is D₀M, ℚ-linear in M, plus H̃(x,y,z): tilde_split
      inserts x, y, z into α one after another, each insertion dropping the
      slot at position p with sign (−1)^p (kerforms._insert).  Inserting u
      then w takes slots i < j with sign (−1)^i·(−1)^(j−1) when u takes i,
      and w then u takes them with sign (−1)^j·(−1)^i, so swapping u and w
      negates each term and u = w cancels the terms in pairs.

    If the suites' invariance and Jacobi rows (twisted-jacobi's Jac − H̃ in
    the twisted packaging) pass as well, Lemma D and its consequences (module
    docstring) prove four rows, which then evaluate nothing:

    - jacobi-up-to-boundary.  Rewriting [[x,y],z] and [y,[x,z]] by S,
      Σ_cyc[x,[y,z]] = Jac + D⟨[x,y],z⟩ + [y,D⟨x,z⟩].  Expanding l2 = [·,·]
      − ½D⟨·,·⟩ and l3 by Lemma D gives J = (Jac − H̃) + DΦ (classically
      J = Jac + DΦ), with Φ = P + b − ⅓(P + Q + R) − ⅓(a + b + c), where
      P, Q, R are ⟨[x,y],z⟩, ⟨[y,z],x⟩, ⟨[z,x],y⟩ and a, b, c are
      ρ(x)⟨y,z⟩, ρ(y)⟨z,x⟩, ρ(z)⟨x,y⟩.  Invariance at (x,y,z), with [x,z]
      rewritten by S, reads a = b + P − R, and at (y,z,x) b = c + Q − P, so
      Φ = 0: J = Jac − H̃ (J = Jac), which the Jacobi row shows vanishes.
    - action-jacobi.  Twisted, ∂ is the inclusion and x▷v = l2(x,v), so
      the defect is J(x,y,v) − l2(y,S(v,x)) − S(v,l2(x,y)), l2 being
      additive in each slot: J when S ≡ 0.
      Classically x▷f = ½ρ(x)f and ρ∘l2 = [ρ·,ρ·], so its first three terms
      sum to ¼[ρx,ρy]f − ½[ρx,ρy]f; l2(y,Df) = ½D(ρ(y)f) = −l2(Df,y) gives
      M(x,y,Df) = −⅙·(1 + ½)·[ρx,ρy]f = −¼[ρx,ρy]f, which cancels them.
    - bracket-vs-boundary, classically: l2(x,Df) = ½D(ρ(x)f) = ∂(x▷f).
    - boundary-action-symmetry: classically ½(ρ(Df)g + ρ(Dg)f) = 0, as
      ρ∘D = 0; twisted, l2(v,w) + l2(w,v) = S(v,w) = 0.

    values-in-v1 is proved too when the suites' twist-membership also
    passes: V1 ⊂ ker ρ (LInftyData), ρ(l2(x,v)) = [ρx,ρv] = 0, ρ(DM) = 0,
    and ρ(H̃(x,y,z)) is ± ρ̃(twist) contracted with x∧y∧z, which is zero.

    higher-coherence is proved as well, classically, and twisted when the
    suites' twist-closed row (DH = 0, kerforms.cov_derivative) also passes.
    Write E for its defect at (x₁,…,x₄), Ψ for the classical packaging's
    defect there (l3 = M, x▷f = ½ρ(x)f) on the same structure, x̂ₖ for the
    three sections other than xₖ, in order, εₖ = (−1)ᵏ for the (1,3)
    unshuffle that sets xₖ apart, and H(a,b,c,d) = ⟨H̃(a,b,c),d⟩ (H = 0
    classically), which alternates, so εₖ·H(x̂ₖ,xₖ) = H(x₁,…,x₄).

    - The metric terms.  Twisted, l3 = H̃ + DM and x▷v = l2(x,v), and
      l2(x,Dg) = ½D(ρ(x)g) by Lemma D, so the DM terms of E sum to DΨ.
      Ψ = ¼·Σₖ εₖ⟨Jac(x̂ₖ),xₖ⟩, Roytenberg–Weinstein's classical identity
      when Jac ≡ 0.  Write Alt f for Σ_σ sgn(σ)·f(x_σ(1),…,x_σ(4)) over
      the 24 orderings, U = ⟨l2(x₁,l2(x₂,x₃)),x₄⟩, V =
      ⟨l2(x₁,x₂),l2(x₃,x₄)⟩ and F = ρ(x₁)⟨l2(x₂,x₃),x₄⟩.  As l2 is skew
      and M alternates, Ψ = Alt(2U − V + F)/24, and Σ_cyc l2(a,l2(b,c)) =
      Jac + DM (jacobi-up-to-boundary above) makes ¼·Σₖ εₖ⟨Jac(x̂ₖ),xₖ⟩ =
      Alt(3U − ½F)/24.  Invariance with S ≡ 0 reads ⟨l2(a,b),c⟩ +
      ⟨b,l2(a,c)⟩ = ρ(a)⟨b,c⟩ − ½ρ(b)⟨a,c⟩ − ½ρ(c)⟨a,b⟩; at (x₁, x₄,
      l2(x₂,x₃)) it gives Alt(U + V) = Alt(3F/2), its last term being
      symmetric in x₁ and x₄, and the two sides agree.  So Ψ = 0
      classically and Ψ = H(x₁,…,x₄) when Jac ≡ H̃.
    - The H̃ terms, paired with a fifth section w.  Invariance gives
      ⟨l2(x,v),w⟩ = ρ(x)⟨v,w⟩ − ⟨v,[x,w]⟩ − ½ρ(w)⟨x,v⟩ for v = H̃(x̂ₖ), and
      twist-membership gives H̃(Df,·,·) = 0 (⟨H̃(a,b,c),Df⟩ = ρ(H̃(a,b,c))f),
      so l2 and [·,·] trade places inside H̃.  The terms then sum to
      −(DH)(x₁,…,x₄,w) − ρ(w)·H(x₁,…,x₄), since the four −½ρ(w)⟨xₖ,H̃(x̂ₖ)⟩
      give −2ρ(w)·H(x₁,…,x₄) and DH's own term is +ρ(w)·H(x₁,…,x₄).  DH
      vanishes on all sections once it does on basis wedges: as H kills
      D's image, the left rule's ⟨a,b⟩·Df term drops and DH is ℚ[x]-
      multilinear, as a Lie algebroid's differential is.

    Classically E = Ψ = 0.  Twisted, ⟨E,w⟩ = −(DH)(x₁,…,x₄,w) + ρ(w)·(Ψ −
    H(x₁,…,x₄)) = 0 for every w, and E = 0, the Gram matrix being
    nondegenerate.

    When a verdict that a row's proof reads fails, the row is evaluated on
    its tuples, so a failing report is the evaluation's own.
    """
    spec = data.spec
    call = _Call(spec)
    skew = call.verdict(_ax_symmetric_part)[0] is None
    settled = (skew and call.verdict(_ax_invariance)[0] is None
               and _ax_jacobi(call, twisted=not data.classical)[0] is None)
    member = settled and (data.classical or
                          call.verdict(_ax_twist_membership)[0] is None)
    coherent = member and (data.classical or
                           call.verdict(_ax_twist_closed)[0] is None)
    # the verdicts draw nothing, so the random sections, drawn only when
    # some row is evaluated, are the same as if drawn first
    randoms, rand_v1 = [], []
    if not coherent:
        rng = random.Random(seed)
        randoms = [rand_section(rng, spec, degree) for _ in range(samples)]
        if data.classical:
            rand_v1 = [rand_scalar(rng, spec.nvars, degree) for _ in range(2)]
        else:
            rand_v1 = [rand_combination(rng, spec, data.v1_basis, degree)
                       for _ in range(2)]
    v0 = data.v0_basis + randoms
    v1 = [*data.v1_basis, *rand_v1]
    data = _CallTables(data, call, skew)
    report = CheckReport(suite="l-infinity")
    report.add("l2-skew", *(PROVED if skew else decide(
        ((x,) for x in v0), ("x",), lambda x: data.l2(x, x), "sampled")))
    report.add("l3-alternating", *(PROVED if skew else (
        _check_l3_alternating(data, randoms), "sampled")))
    if not data.classical:
        report.add("values-in-v1", *(
            PROVED if member
            else (_check_values_in_v1(data, v0, v1, randoms), "sampled")))
    # Classically x▷v = ½ρ(x)v and ∂v = D₀v, and a vector field and D₀ kill
    # a rational constant v: x▷v = 0, y▷0 = 0, l2(x,y)▷v = 0, ∂v = 0,
    # l2(x,0) = 0 and l3(x,y,0) = 0 (l2 and the pairing are ℚ-bilinear).
    # So bracket-vs-boundary, boundary-action-symmetry and action-jacobi are
    # zero on each tuple with such a v or w, and read only ``acting``; a set
    # that this empties, as over a point, is proved.
    acting = [v for v in v1 if not v.is_rational()] if data.classical else v1
    # Twisted, ∂ is the inclusion and x▷v = l2(x,v), so l2(x,∂v) − ∂(x▷v)
    # reads one l2 value twice: zero on every structure
    report.add("bracket-vs-boundary", *(
        PROVED if settled or not data.classical else decide(
            ((x, v) for x in v0 for v in acting), ("x", "v"),
            lambda *t: _eq_bracket_vs_boundary(data, *t), "sampled", "proved")))
    report.add("boundary-action-symmetry", *(PROVED if settled else decide(
        itertools.combinations_with_replacement(acting, 2), ("v", "w"),
        lambda *t: _eq_boundary_action(data, *t), "sampled",
        "proved" if data.classical else "vacuous")))
    triples = list(itertools.combinations(data.v0_basis, 3))
    triples += [tuple(randoms[i % len(randoms)] for i in (t, t + 1, t + 2))
                for t in range(len(randoms))] if randoms else []
    triples += _random_triples(data, randoms)[:1]
    report.add("jacobi-up-to-boundary", *(PROVED if settled else decide(
        triples, ("x", "y", "z"), lambda *t: _eq_jacobi_boundary(data, *t),
        "sampled")))
    report.add("action-jacobi", *(PROVED if settled else decide(
        ((x, y, v) for x, y in itertools.combinations(v0, 2) for v in acting),
        ("x", "y", "v"), lambda *t: _eq_action_jacobi(data, *t), "sampled",
        "proved" if data.classical else "vacuous")))
    quads = list(itertools.combinations(data.v0_basis, 4))
    if randoms:
        pool = randoms + data.v0_basis
        quads += [tuple(pool[(t + i) % len(pool)] for i in range(4))
                  for t in range(len(randoms))]
    report.add("higher-coherence", *(PROVED if coherent else decide(
        quads, ("x1", "x2", "x3", "x4"),
        lambda *t: _eq_higher_coherence(data, *t), "sampled")))
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
