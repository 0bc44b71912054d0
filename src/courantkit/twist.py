"""Constructors: standard split bundle, point algebras, and twists by 3-forms.

The twist ansatz replaces the bracket by [φ,ψ]_B = [φ,ψ]₀ + B̃(φ,ψ) for a
certified 3-form B.  Its Jacobiator is governed by the curvature 4-form
H = D₀B − B̃² (the second summand read from the table of B̃ on basis pairs
by tensoriality and solved back through the Λ⁴ Gram system; see curvature_H
for the sign), and the twisted structure is admissible exactly when
D_B H = 0 — automatic whenever ker ρ has rank at most 4, since B̃² and the
relevant 5-forms both vanish there.

Base differential forms on ℚ[x1..xn] (used for pullbacks and the exact
twist family) are plain dictionaries {increasing variable tuple: Scalar}.
"""

from __future__ import annotations

import itertools

from courantkit.exact import Matrix, ONE, Scalar, ZERO, wedge_indices
from courantkit.kerforms import (
    KerForm,
    _accumulate,
    eval_covariant,
    cov_derivative,
    solve_wedge_values,
    tilde_split_basis,
    zero_form,
)
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    d0_generator,
    pairing,
)

BaseForm = dict[tuple[int, ...], Scalar]


# -- base differential forms ---------------------------------------------------


def base_form(entries: dict | None = None) -> BaseForm:
    out: BaseForm = {}
    for key, value in (entries or {}).items():
        _accumulate(out, key, value)
    return out


def de_rham(form: BaseForm, nvars: int) -> BaseForm:
    """Exterior derivative of a base form: d(f·dx_I) = Σⱼ ∂ⱼf·dxⱼ∧dx_I."""
    out: BaseForm = {}
    for key, value in form.items():
        for j in range(nvars):
            df = value.partial(j)
            if not df.is_zero():
                _accumulate(out, (j,) + key, df)
    return out


def pullback(spec: AlgebroidSpec, form: BaseForm, degree: int) -> KerForm:
    """Λ^p ρ* applied coefficientwise; lands in ker ρ̃ on valid structures."""
    if spec.is_point() or spec.anchor is None:
        if form:
            raise SpecInvariantError(
                "no nonzero base forms exist over this base")
        return zero_form(spec, degree)
    one_forms = [KerForm(spec, 1,
                         {(i,): c for i, c in enumerate(d0_generator(spec, j).coeffs)})
                 for j in range(spec.nvars)]
    total = zero_form(spec, degree)
    for key, value in form.items():
        if len(key) != degree:
            raise ValueError(f"base form term {key} has degree {len(key)}, "
                             f"expected {degree}")
        term = KerForm(spec, 0, {(): value})
        for j in key:
            term = term.wedge(one_forms[j])
        total = total + term
    return total


def pullback_4form(spec: AlgebroidSpec, h: BaseForm) -> KerForm:
    """Pull a base 4-form back to a twist candidate in Ω⁴(ker ρ)."""
    result = pullback(spec, h, 4)
    result.require_certified("pullback of the base 4-form")
    return result


def pullback_lemma_defect(spec: AlgebroidSpec, omega: BaseForm,
                          degree: int) -> KerForm:
    """D(ρ*ω) − ρ*(dω); zero on valid structures for every base p-form."""
    if degree + 1 > spec.rank:
        raise ValueError("degree + 1 exceeds the rank")
    lhs = cov_derivative(spec, pullback(spec, omega, degree))
    rhs = pullback(spec, de_rham(omega, spec.nvars), degree + 1)
    return lhs - rhs


# -- constructors ----------------------------------------------------------------


def make_standard(n: int) -> AlgebroidSpec:
    """The split bundle over ℚ[x1..xn]: basis ∂_1..∂_n, dx_1..dx_n.

    Pairing ⟨X+ξ, Y+η⟩ = η(X) + ξ(Y); all brackets of the constant basis
    sections vanish, and the extension rules generate the usual bracket
    [X+ξ, Y+η] = [X,Y] + L_X η − ι_Y dξ on polynomial sections.
    """
    if n < 1:
        raise ValueError("make_standard needs n >= 1")
    rank = 2 * n
    gram = Matrix([[ONE if abs(i - j) == n else ZERO for j in range(rank)]
                   for i in range(rank)])
    anchor = Matrix([[ONE if i == j else ZERO for j in range(n)]
                     for i in range(rank)])
    return AlgebroidSpec("polynomial", n, rank, gram, anchor, {})


def make_point(rank: int, gram: Matrix,
               brackets: dict[tuple[int, int], Section]) -> AlgebroidSpec:
    """An untwisted Courant structure-constant algebra over a point.

    Over a point the symmetric part of the bracket must vanish, so the table
    is required to be skew ([eᵢ,eⱼ] = −[eⱼ,eᵢ], [eᵢ,eᵢ] = 0); non-skew
    tables are rejected.  A twisted point algebra comes from twist_bracket.
    """
    table = {key: sec if isinstance(sec, Section) else Section.make(sec)
             for key, sec in brackets.items()}
    for (i, j), sec in table.items():
        if i == j and not sec.is_zero():
            raise SpecInvariantError(f"[e{i},e{i}] must vanish over a point")
        mirror = table.get((j, i), Section.zero(rank))
        if not (sec + mirror).is_zero():
            raise SpecInvariantError(
                f"bracket table is not skew at ({i},{j}) over a point")
    return AlgebroidSpec("point", 0, rank, gram, None, table)


# -- the twist ansatz --------------------------------------------------------------


def btilde_squared_form(spec: AlgebroidSpec, b: KerForm) -> KerForm:
    """The 4-form whose splitting is B̃²(ψ₁,ψ₂,ψ₃) = B̃(B̃(ψ₁,ψ₂),ψ₃) + cycl.

    Values W(a,b,c,d) = ⟨B̃²(e_a,e_b,e_c), e_d⟩ on increasing basis 4-tuples
    are read from the table of B̃ by tensoriality, B̃(Σₘ cₘ·eₘ, e_z) =
    Σₘ cₘ·B̃(eₘ, e_z), and solved back through the Λ⁴ Gram system.
    """
    return _btilde_squared(spec, _split_table(spec, b))


def _btilde_squared(spec: AlgebroidSpec,
                    table: dict[tuple[int, int], Section]) -> KerForm:
    """btilde_squared_form read from a table of B̃ already built."""
    e = spec.basis_sections()
    values = {}
    for J in wedge_indices(spec.rank, 4):
        i, j, k, l = J
        val = ZERO
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            inner = table.get((x, y))
            if inner is None:
                continue
            for m, c in enumerate(inner.coeffs):
                outer = table.get((m, z))
                if outer is not None and c.terms:
                    val = val + c * pairing(spec, outer, e[l])
        if not val.is_zero():
            values[J] = val
    return solve_wedge_values(spec, 4, values)


def curvature_H(spec0: AlgebroidSpec, b: KerForm) -> KerForm:
    """The Jacobiator 4-form of the twisted bracket: H = D₀B − B̃².

    The relative sign is forced by the Jacobiator identity: with the
    outer-first cyclic convention for B̃² the quadratic part of the twisted
    Jacobiator is −B̃² (expand [x,B̃(y,z)] − [B̃(x,y),z] − [y,B̃(x,z)] with
    all brackets replaced by B̃ and use skewness).  B̃² vanishes identically
    when the rank is at most 4, so the sign only matters from rank 5 up.
    """
    b.require_certified("twisting 3-form")
    return cov_derivative(spec0, b) - btilde_squared_form(spec0, b)


def _split_table(spec: AlgebroidSpec, b: KerForm) -> dict[tuple[int, int], Section]:
    """The nonzero values B̃(eᵢ,eⱼ) on ordered basis pairs, in the format of
    AlgebroidSpec.bracket_table; B̃ is skew, so each pair i < j is split once."""
    table: dict[tuple[int, int], Section] = {}
    for i, j in itertools.combinations(range(spec.rank), 2):
        value = tilde_split_basis(spec, b, (i, j))
        if not value.is_zero():
            table[(i, j)], table[(j, i)] = value, -value
    return table


def twist_bracket(spec0: AlgebroidSpec, b: KerForm) -> AlgebroidSpec:
    """New structure with twist H = D₀B − B̃² whose bracket table is spec0's
    with the table of B̃ added entry by entry: [eᵢ,eⱼ]₀ + B̃(eᵢ,eⱼ)."""
    b.require_certified("twisting 3-form")
    if b.degree != 3:
        raise ValueError("the twisting form must have degree 3")
    split = _split_table(spec0, b)
    new_table = dict(spec0.bracket_table)
    for key, value in split.items():
        new_table[key] = new_table[key] + value if key in new_table else value
    # curvature_H, with B̃² read from the same table
    h = cov_derivative(spec0, b) - _btilde_squared(spec0, split)
    return AlgebroidSpec(spec0.ring, spec0.nvars, spec0.rank, spec0.gram,
                         spec0.anchor, new_table, h.coeffs, "h-twisted")


def iota_btilde(spec: AlgebroidSpec, b: KerForm, form: KerForm) -> KerForm:
    """Degree-+1 insertion of B̃ into a form: the bracket-sum of the
    covariant-derivative formula over the table of B̃ on basis pairs, with
    no anchor terms."""
    return eval_covariant(spec, form, _split_table(spec, b), use_anchor=False)


def integrability_defect(spec0: AlgebroidSpec, b: KerForm) -> KerForm:
    """D_B H, the covariant derivative of the curvature in the twisted
    structure; zero iff the twist ansatz yields an admissible structure."""
    twisted = twist_bracket(spec0, b)
    return cov_derivative(twisted, twisted.twist)


def integrability_expansion(spec0: AlgebroidSpec, b: KerForm) -> KerForm:
    """Three-term expansion of D_B H, assembled from the insertion machinery
    independently of the direct evaluation.

    With D_B = D₀ + ι_B̃ on forms, D₀² = 0, and H = D₀B − B̃²:
    D_B H = ι_B̃(D₀B) − D₀(B̃²) − ι_B̃(B̃²), both ι_B̃ (see iota_btilde)
    and B̃² read from one table of B̃.
    """
    table = _split_table(spec0, b)
    b2 = _btilde_squared(spec0, table)
    d0b = cov_derivative(spec0, b)
    return (eval_covariant(spec0, d0b, table, use_anchor=False)
            - cov_derivative(spec0, b2)
            - eval_covariant(spec0, b2, table, use_anchor=False))


def c_twist(n: int, c3: BaseForm) -> AlgebroidSpec:
    """The exact twist family: the standard bundle twisted by B = Λ³ρ*(C).

    The bracket gains ι_Y ι_X C on vector parts and the twist is the pullback
    of dC; for closed C the twist vanishes and the structure stays untwisted.
    """
    if n < 3:
        raise SpecInvariantError("c_twist needs n >= 3 for a base 3-form")
    spec0 = make_standard(n)
    b = pullback(spec0, c3, 3)
    return twist_bracket(spec0, b)
