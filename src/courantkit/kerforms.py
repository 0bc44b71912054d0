"""Forms in the kernel of the anchor and the exterior covariant derivative.

A KerForm of degree p is an element of Λ^p of the module, stored as Scalar
coefficients on strictly increasing basis wedges e_{i1}∧…∧e_{ip}.  Membership
in Ω^p (the kernel of the alternating anchor extension ρ̃) is certified by a
symbolic check, lazily, and cached.

Forms evaluate through the Gram pairing (multivector convention),
⟨α, ψ1∧…∧ψp⟩ = Σ_I α_I·det(⟨e_{I_a}, ψ_b⟩), in two ways and never as a
determinant (determinants appear only in tests/oracles.py): `_wedge_map`
pairs α with every basis wedge at once, `_insert` with given sections.
`_wedge_map` is Λ^p of a matrix given by its sparse rows: every slot index
a of a wedge becomes Σ_b M[a][b]·e_b.  On the Gram rows it gives ⟨α, e_J⟩
for every J; on the rows of gram⁻¹ it is the back-solve of the Λ-Gram
system, since Λ^p(gram)⁻¹ = Λ^p(gram⁻¹) (Cauchy–Binet); on the rows of the
D₀ generators it is the pullback of base forms, `twist.pullback`.  Both row
sets are the spec's back-solve, whose degree-1 case is ρ* and D₀ (the D₀
rows are gram⁻¹ on the anchor columns).  `_insert` lowers each section's
entries through the Gram rows and removes one slot, the first-column
expansion of the determinant; pair_sections, pair_basis, `contract` and the
splitting α̃ are all this contraction; α̃ is thus ℚ[x]-multilinear and
alternating, and `split_lookup` is its one table, filled on first read (H̃
of the suites' Jacobi row), which `split_table` reads in full (B̃, the twist
images, and H̃ of the induced Jacobi row).  The covariant derivative is
defined by its pairings with all basis wedges,

  ⟨Dα, ψ0∧…∧ψp⟩ = Σᵢ (−1)ⁱ ρ(ψᵢ)⟨α, …ψ̂ᵢ…⟩ + Σ_{i<j} (−1)^{i+j} ⟨α, [ψᵢ,ψⱼ]∧…⟩

evaluated from the nonzero entries of one `_wedge_map` table, pushed
forward instead of pulled for every wedge of degree p+1 (eval_covariant
gives the signs), and solved back through the other.  The bracket enters as
a table of its nonzero values on basis pairs: D reads the structure's
bracket_table, ι_B̃ the table of B̃.

D² is generally nonzero; on twisted structures it equals the degree-2
derivation ins_h built from slotwise insertion of the twist.

Linear algebra on forms has one coordinate map: `_coordinates` gives one
Fraction column per sparse vector and one row per (key, monomial) used, and
`_combination` maps a kernel vector back to a form.  Row order and absent
zero rows do not matter: the reduced row echelon form is unique.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

from courantkit.exact import ONE, Scalar, ZERO, _ZERO, _kernel, wedge_indices
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    _combine,
    _tabled,
)

Wedge = tuple[int, ...]


class UncertifiedFormError(ValueError):
    """An operation required a form certified to lie in ker ρ̃."""


def _sort_wedge(indices: Sequence[int]) -> tuple[Wedge, int]:
    """Sort indices, returning (sorted tuple, sign); sign 0 on duplicates."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _accumulate(acc: dict[Wedge, Scalar], indices: Sequence[int], value: Scalar) -> None:
    if value.is_zero():
        return
    key, sign = _sort_wedge(indices)
    if sign == 0:
        return
    term = value if sign > 0 else -value
    prev = acc.get(key)
    acc[key] = term if prev is None else prev + term


def _form_coeffs(coeffs: dict | None, degree: int, rank: int, nvars: int) -> dict:
    """The nonzero entries of ``coeffs`` in sorted key order, checked against a
    structure of the given rank and number of variables."""
    canonical: dict[Wedge, Scalar] = {}
    for key in sorted(coeffs or {}):
        value = coeffs[key]
        if value.is_zero():
            continue
        if len(key) != degree or any(a >= b for a, b in zip(key, key[1:])):
            raise ValueError(f"wedge indices {key} are not strictly "
                             f"increasing of length {degree}")
        if key and (key[0] < 0 or key[-1] >= rank):
            raise ValueError(f"wedge indices {key} out of range for rank {rank}")
        if value.max_var_index >= nvars:
            raise SpecInvariantError(
                "form coefficient uses more variables than the base ring has")
        canonical[key] = value
    return canonical


class KerForm:
    """Degree-p multivector with coefficients on increasing basis wedges."""

    __slots__ = ("spec", "degree", "coeffs", "_certified")

    def __init__(self, spec: AlgebroidSpec, degree: int,
                 coeffs: dict[Wedge, Scalar] | None = None):
        if degree < 0:
            raise ValueError("form degree must be >= 0")
        self.coeffs = _form_coeffs(coeffs, degree, spec.rank, spec.nvars)
        self.spec = spec
        self.degree = degree
        self._certified: bool | None = None

    # -- membership ------------------------------------------------------

    @property
    def certified(self) -> bool:
        """True iff ρ̃(form) = 0, checked symbolically (cached)."""
        if self._certified is None:
            if self.degree == 0:
                self._certified = True
            else:
                image = rho_tilde(self.spec, self)
                self._certified = not image
        return self._certified

    def require_certified(self, what: str = "form") -> None:
        if not self.certified:
            raise UncertifiedFormError(
                f"{what} of degree {self.degree} is not in ker ρ̃")

    # -- algebra -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, KerForm):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __add__(self, other: "KerForm") -> "KerForm":
        self._check_mate(other)
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            prev = out.get(key)
            out[key] = value if prev is None else prev + value
        return KerForm(self.spec, self.degree, out)

    def __sub__(self, other: "KerForm") -> "KerForm":
        return self + other.scale(Scalar.rational(-1))

    def __neg__(self) -> "KerForm":
        return self.scale(Scalar.rational(-1))

    def scale(self, f: Scalar) -> "KerForm":
        return KerForm(self.spec, self.degree,
                       {k: f * v for k, v in self.coeffs.items()})

    def wedge(self, other: "KerForm") -> "KerForm":
        if other.spec is not self.spec:
            raise ValueError("wedge of forms over different structures")
        out: dict[Wedge, Scalar] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                _accumulate(out, ka + kb, va * vb)
        return KerForm(self.spec, self.degree + other.degree, out)

    def _check_mate(self, other: "KerForm") -> None:
        if other.spec is not self.spec:
            raise ValueError("forms belong to different structures")
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def as_section(self) -> Section:
        """View a degree-1 form as the section with the same coefficients."""
        if self.degree != 1:
            raise ValueError("only degree-1 forms are sections")
        return Section._of(self.spec.rank,
                           tuple([(i, value) for (i,), value in self.coeffs.items()]))

    def as_scalar(self) -> Scalar:
        if self.degree != 0:
            raise ValueError("only degree-0 forms are scalars")
        return self.coeffs.get((), ZERO)

    def to_entries(self) -> list[dict]:
        return [{"indices": list(key), "coeff": value.to_text()}
                for key, value in self.coeffs.items()]

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"KerForm(0; degree {self.degree})"
        body = " + ".join(
            f"({v.to_text()})·e{'∧e'.join(str(i) for i in k)}" if k
            else f"({v.to_text()})"
            for k, v in self.coeffs.items())
        return f"KerForm({body})"


def zero_form(spec: AlgebroidSpec, degree: int) -> KerForm:
    return KerForm(spec, degree, {})


def scalar_form(spec: AlgebroidSpec, value: Scalar) -> KerForm:
    return KerForm(spec, 0, {(): value})


def basis_wedge_form(spec: AlgebroidSpec, indices: Sequence[int]) -> KerForm:
    for i in indices:
        if not 0 <= i < spec.rank:
            raise ValueError(f"wedge index {i} out of range for rank {spec.rank}")
    key, sign = _sort_wedge(indices)
    if sign == 0:
        return zero_form(spec, len(indices))
    return KerForm(spec, len(indices), {key: ONE if sign > 0 else -ONE})


def section_form(spec: AlgebroidSpec, sec: Section) -> KerForm:
    return KerForm(spec, 1, {(i,): c for i, c in sec.entries})


# -- the anchor extension ρ̃ -------------------------------------------------


def rho_tilde(spec: AlgebroidSpec, form: KerForm) -> dict[tuple[int, Wedge], Scalar]:
    """ρ̃(form) ∈ (base vector fields) ⊗ Λ^{p-1}, as a sparse dictionary.

    On decomposables: ψ0∧…∧ψp ↦ Σᵢ (−1)ⁱ ρ(ψᵢ) ⊗ ψ0∧…ψ̂ᵢ…∧ψp.  Keys are
    (base variable index, remaining wedge); only nonzero entries appear.
    """
    if form.degree < 1:
        raise ValueError("ρ̃ is defined on forms of degree >= 1")
    if spec._anchor_rows is None:
        return {}
    out: dict[tuple[int, Wedge], Scalar] = {}
    for key, value in form.coeffs.items():
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            for j, entry in spec._anchor_rows[idx].items():
                term = value * entry
                if pos % 2:
                    term = -term
                slot = (j, rest)
                prev = out.get(slot)
                total = term if prev is None else prev + term
                if total.is_zero():
                    out.pop(slot, None)
                else:
                    out[slot] = total
    return out


def monomials(nvars: int, max_total: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= max_total, in lexicographic order."""
    return [exp for exp in itertools.product(range(max_total + 1), repeat=nvars)
            if sum(exp) <= max_total]


def kerform_basis(spec: AlgebroidSpec, degree: int,
                  max_degree: int | None = None) -> list[KerForm]:
    """Spanning independent set of ker ρ̃ in the given degree.

    Over a point this is all of Λ^p.  Over a polynomial base the module is
    not finitely generated, so a monomial truncation bound is required and
    the kernel is computed over ℚ on (wedge, monomial) coordinates.
    """
    if degree == 0:
        return [scalar_form(spec, ONE)]
    if degree > spec.rank:
        return []
    all_wedges = wedge_indices(spec.rank, degree)
    if spec.is_point() or spec.anchor is None:
        return [basis_wedge_form(spec, I) for I in all_wedges]
    if max_degree is None:
        raise ValueError(
            "a monomial truncation bound is required over a polynomial base")
    domain = [KerForm(spec, degree, {I: Scalar.monomial(m)})
              for I in all_wedges for m in monomials(spec.nvars, max_degree)]
    images = _coordinates([rho_tilde(spec, form) for form in domain])
    return [_combination(vec, domain) for vec in _kernel(images, len(domain))]


def _coordinates(vectors: Sequence[dict]) -> list[list[Fraction]]:
    """Fraction rows of sparse vectors {key: Scalar}: one column per vector,
    one row per (key, monomial) that some vector uses."""
    rows: dict[tuple, list[Fraction]] = {}
    for col, vec in enumerate(vectors):
        for key, value in vec.items():
            for exp, coeff in value.terms.items():
                row = rows.get((key, exp))
                if row is None:
                    row = rows[(key, exp)] = [_ZERO] * len(vectors)
                row[col] = Fraction(coeff)
    return list(rows.values())


def _combination(vec: Sequence[Fraction], forms: Sequence[KerForm]) -> KerForm:
    """Σ vec[k]·forms[k]: the form that a coordinate vector stands for."""
    coeffs: dict[Wedge, Scalar] = {}
    for c, form in zip(vec, forms):
        if c:
            for key, value in form.coeffs.items():
                coeffs[key] = coeffs.get(key, ZERO) + value * c
    return KerForm(forms[0].spec, forms[0].degree, coeffs)


# -- pairings -----------------------------------------------------------------


def _wedge_map(rows: Sequence[dict[int, Scalar]],
               coeffs: dict[Wedge, Scalar]) -> dict[Wedge, Scalar]:
    """Λ^p of a matrix, given by its sparse rows, on a multivector.

    Every slot index a of every wedge becomes Σ_b rows[a][b]·e_b, so the
    coefficient on e_J is Σ_I coeffs[I]·det(M[I, J]); only nonzero
    coefficients are returned, on increasing wedges.
    """
    out: dict[Wedge, Scalar] = {}
    for I, value in coeffs.items():
        for terms in itertools.product(*(rows[a].items() for a in I)):
            key, sign = _sort_wedge([b for b, _ in terms])
            if sign == 0:
                continue
            weight = value if sign > 0 else -value
            for _, entry in terms:
                weight = weight * entry
            prev = out.get(key)
            out[key] = weight if prev is None else prev + weight
    return {key: value for key, value in out.items() if value.terms}


def pair_sections(spec: AlgebroidSpec, form: KerForm,
                  sections: Sequence[Section]) -> Scalar:
    """⟨form, ψ1∧…∧ψp⟩, the full contraction: the sections are validated
    and inserted one slot at a time."""
    if len(sections) != form.degree:
        raise ValueError("wrong number of sections for this degree")
    for sec in sections:
        spec.validate_section(sec)
    return _insert(spec, form.coeffs, [sec.entries for sec in sections]).get((), ZERO)


def pair_basis(spec: AlgebroidSpec, form: KerForm, cols: Sequence[int]) -> Scalar:
    """⟨form, e_{cols}⟩: pair_sections on basis sections, so the columns may
    be unsorted or repeated."""
    return pair_sections(spec, form, [Section.basis(c, spec.rank) for c in cols])


def _insert(spec: AlgebroidSpec, coeffs: dict[Wedge, Scalar],
            vecs: Sequence[Sequence[tuple[int, Scalar]]]) -> dict[Wedge, Scalar]:
    """Insert sections, as entry lists, into the leading slots, the first one
    first: the result pairs with η as ``coeffs`` pairs with vec1∧…∧vec_k∧η.

    Each section is lowered through the sparse Gram rows (the Gram is
    symmetric), ⟨e_a, vec⟩ = Σ_j vec_j·gram[j][a]; every wedge then loses its
    slot a with sign (−1)^pos, the first-column expansion of the pairing
    determinant.
    """
    for vec in vecs:
        lowered = _combine(spec._gram_rows, vec)
        out: dict[Wedge, Scalar] = {}
        for I, value in coeffs.items():
            for pos, a in enumerate(I):
                g = lowered.get(a)
                if g is not None and g.terms:
                    term = value * g if pos % 2 == 0 else -(value * g)
                    key = I[:pos] + I[pos + 1:]
                    prev = out.get(key)
                    out[key] = term if prev is None else prev + term
        coeffs = out
    return coeffs


def contract(spec: AlgebroidSpec, form: KerForm,
             chi: "Section | KerForm") -> KerForm:
    """Partial pairing: the (p−k)-form with ⟨contract(α,χ), η⟩ = ⟨α, χ∧η⟩.

    χ may be a Section (k = 1) or a KerForm of degree k ≤ p; full contraction
    returns the Scalar as a degree-0 form.
    """
    k = 1 if isinstance(chi, Section) else chi.degree
    if k > form.degree:
        raise ValueError(
            f"cannot contract a degree-{form.degree} form by degree {k}")
    if isinstance(chi, Section):
        spec.validate_section(chi)
        return KerForm(spec, form.degree - 1, _insert(spec, form.coeffs, [chi.entries]))
    total: dict[Wedge, Scalar] = {}
    for J, d in chi.coeffs.items():
        for key, value in _insert(spec, form.coeffs, [((j, ONE),) for j in J]).items():
            _accumulate(total, key, d * value)
    return KerForm(spec, form.degree - k, total)


# -- the exterior covariant derivative ----------------------------------------


def solve_wedge_values(spec: AlgebroidSpec, degree: int,
                       values: dict[Wedge, Scalar]) -> KerForm:
    """The degree-p form whose pairings with the basis wedges are ``values``.

    Solves ⟨α, e_J⟩ = values[J] (absent wedges pair to zero) by applying the
    inverse of the Λ-Gram system, Λ^p(gram⁻¹), slotwise on the sparse rows
    of gram⁻¹ that the spec's back-solve holds.
    """
    return KerForm(spec, degree, _wedge_map(spec._back_solve()[0], values))


def eval_covariant(spec: AlgebroidSpec, form: KerForm,
                   brackets: dict[tuple[int, int], Section],
                   use_anchor: bool) -> KerForm:
    """Shared evaluator for D-like degree-+1 operators.

    Computes ⟨Dα, e_J⟩ = Σᵢ (−1)ⁱ ρ(e_{Jᵢ})⟨α, …⟩ (if use_anchor) plus
    Σ_{a<b} (−1)^{a+b} ⟨α, brackets[J_a,J_b]∧…⟩ for every basis wedge J of
    degree p+1 by pushing α's nonzero pairings forward, then solves the
    coefficients back through the Λ-Gram system.  ``brackets`` holds the
    nonzero values on ordered basis pairs, as bracket_table does; only the
    pairs i < j are read.

    The pairings come from one lowered table, indexed by slot: a wedge K
    holding m in slot q gives ⟨α, e_m∧e_rest⟩ = (−1)^q·⟨α, e_K⟩ with
    rest = K minus m.  Each coefficient c_m of [eᵢ,eⱼ], i < j, then adds
    c_m·⟨α, e_m∧e_rest⟩ to the wedge (j, i) + rest for every rest avoiding
    i and j (any other rest repeats an index and sorts to sign 0); sorting
    (j, i) + rest gives the sign (−1)^{a+b}, a < b being the slots of i
    and j.  Each non-constant ⟨α, e_K⟩ adds ρ(e_idx)⟨α, e_K⟩, read off the
    sparse anchor row of idx, to (idx,) + K for every idx outside K, and
    sorting gives (−1)^pos, pos being the slot of idx.
    """
    table = _wedge_map(spec._gram_rows, form.coeffs)
    lowered: dict[int, list[tuple[Wedge, Scalar]]] = {}
    for K, value in table.items():
        for q, m in enumerate(K):
            lowered.setdefault(m, []).append(
                (K[:q] + K[q + 1:], -value if q % 2 else value))
    values: dict[Wedge, Scalar] = {}
    for (i, j), sec in brackets.items():
        if i >= j:
            continue
        for m, c in sec.entries:
            for rest, value in lowered.get(m, ()):
                if i not in rest and j not in rest:
                    _accumulate(values, (j, i) + rest, c * value)
    if use_anchor and spec._anchor_rows is not None:
        for K, value in table.items():
            if not value.is_rational():
                for idx, row in enumerate(spec._anchor_rows):
                    if idx not in K:
                        _accumulate(values, (idx,) + K, sum(
                            (e * value.partial(j) for j, e in row.items()), ZERO))
    return solve_wedge_values(spec, form.degree + 1,
                              {J: v for J, v in values.items() if v.terms})


def cov_derivative(spec: AlgebroidSpec, form: KerForm) -> KerForm:
    """The exterior covariant derivative D: Ω^p(ker ρ) → Ω^{p+1}(ker ρ)."""
    form.require_certified("cov_derivative input")
    return eval_covariant(spec, form, spec.bracket_table, use_anchor=True)


def leibniz_defect(spec: AlgebroidSpec, alpha: KerForm, beta: KerForm) -> KerForm:
    """D(α∧β) − (Dα)∧β − (−1)^{|α|} α∧Dβ; vanishes on valid structures."""
    alpha.require_certified("leibniz_defect left input")
    beta.require_certified("leibniz_defect right input")
    both = cov_derivative(spec, alpha.wedge(beta))
    da_b = cov_derivative(spec, alpha).wedge(beta)
    a_db = alpha.wedge(cov_derivative(spec, beta))
    if alpha.degree % 2:
        return both - da_b + a_db
    return both - da_b - a_db


# -- splitting and insertion ---------------------------------------------------


def tilde_split(spec: AlgebroidSpec, form: KerForm) -> Callable[..., Section]:
    """The canonical splitting α̃, with ⟨α̃(ψ1,…,ψ_{p−1}), χ⟩ = ⟨α, ψ1∧…∧ψ_{p−1}∧χ⟩.

    α̃ is a contraction: the returned map validates its sections and inserts
    them into α one after another.  For degree 1 the map has no arguments
    and returns the form's own section.
    """
    if form.degree < 1:
        raise ValueError("splitting is defined for degree >= 1")
    k = form.degree - 1

    def split(*sections: Section) -> Section:
        if len(sections) != k:
            raise ValueError(f"expected {k} sections, got {len(sections)}")
        for sec in sections:
            spec.validate_section(sec)
        coeffs = _insert(spec, form.coeffs, [sec.entries for sec in sections])
        return KerForm(spec, 1, coeffs).as_section()

    return split


def split_lookup(spec: AlgebroidSpec, form: KerForm,
                 sections: Sequence[Section]) -> Callable[[Wedge], Section]:
    """α̃ on the sections of an increasing index tuple I, applied on the first
    read of I and kept for later reads."""
    split = tilde_split(spec, form)
    return _tabled(lambda key: split(*(sections[k] for k in key)))


def split_table(spec: AlgebroidSpec, form: KerForm,
                sections: Sequence[Section]) -> dict[Wedge, Section]:
    """split_lookup read on each increasing index tuple I of ``sections``, in
    itertools.combinations order: the nonzero values α̃(s_I), keyed by I."""
    lookup = split_lookup(spec, form, sections)
    values = {key: lookup(key) for key in
              itertools.combinations(range(len(sections)), form.degree - 1)}
    return {key: value for key, value in values.items() if not value.is_zero()}


def split_value(lookup: Callable[[Wedge], Section | None], indices: Sequence[int],
                f: Scalar) -> Section | None:
    """α̃ on the sections of ``indices``, one times f, through ``lookup``, a
    split_lookup or a split_table's ``get``: f·σ·lookup(I), σ the sign of
    sorting the indices to I, or None on a repeated index or an absent key."""
    key, sign = _sort_wedge(indices)
    value = lookup(key) if sign else None
    if value is None or (sign > 0 and f is ONE):
        return value
    return value.scale(f if sign > 0 else -f)


def tilde_split_basis(spec: AlgebroidSpec, form: KerForm,
                      indices: Sequence[int]) -> Section:
    """α̃ on the basis sections e_{indices}: the contraction of α by that
    wedge, since ⟨contract(α, e_I), e_j⟩ = ⟨α, e_I∧e_j⟩."""
    p = form.degree
    if len(indices) != p - 1:
        raise ValueError(f"expected {p - 1} indices, got {len(indices)}")
    return contract(spec, form, basis_wedge_form(spec, indices)).as_section()


def d_squared(spec: AlgebroidSpec, form: KerForm) -> KerForm:
    """D² — generally nonzero; equals ins_h on twisted structures."""
    return cov_derivative(spec, cov_derivative(spec, form))


def ins_h(spec: AlgebroidSpec, form: KerForm) -> KerForm:
    """The degree-2 derivation with ins_h(f) = 0 and ins_h(φ) = ⟨twist, φ∧·⟩.

    On a basis wedge each slot is replaced in place by the 3-form obtained
    by contracting the twist with that basis vector; coefficients pass
    through unchanged (an even derivation has no Koszul signs).  The result
    satisfies d_squared(α) = ins_h(α) on twisted structures.
    """
    if spec.twist is None:
        raise SpecInvariantError("ins_h needs a twist on the structure")
    form.require_certified("ins_h input")
    ins1 = [contract(spec, spec.twist, Section.basis(i, spec.rank))
            for i in range(spec.rank)]
    out: dict[Wedge, Scalar] = {}
    for I, value in form.coeffs.items():
        for pos in range(len(I)):
            replacement = ins1[I[pos]]
            for J, w in replacement.coeffs.items():
                _accumulate(out, I[:pos] + J + I[pos + 1:], value * w)
    return KerForm(spec, form.degree + 2, out)
