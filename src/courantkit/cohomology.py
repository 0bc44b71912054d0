"""Naive cochain complexes: cochain bases, differential matrices, Betti numbers.

The degree-p cochains are the ker-ρ̃ forms annihilating the image of the
twist's splitting in any slot (for an untwisted structure: all of Ω^p), with
differential α ↦ Dα.  Over a point the complex is finite-dimensional and
Betti numbers are computed exactly by rational elimination; over a
polynomial base the module is infinite-dimensional, so only membership tests
and truncated bases are offered.

Two readings of "annihilates the twist" exist: the slotwise one (every
contraction by an image section of the splitting vanishes) and the weaker
ins_h(α) = 0.  The slotwise reading defines membership; the weak kernel's
dimension is computed alongside and any disagreement is reported instead of
silently picking one.
"""

from __future__ import annotations

import itertools

from courantkit.exact import Matrix, Scalar, ZERO, kernel_basis, rref, solve_rational, wedge_indices
from courantkit.kerforms import (
    KerForm,
    contract,
    cov_derivative,
    d_squared,
    ins_h,
    kerform_basis,
    tilde_split_basis,
)
from courantkit.structure import AlgebroidSpec, Section, d0_generator


class CochainEscapeError(RuntimeError):
    """D mapped a cochain outside the cochain space (the theorem under test)."""


def twist_image_sections(spec: AlgebroidSpec) -> list[Section]:
    """Generators of the image of the twist's splitting: H̃(eᵢ,eⱼ,eₖ), i<j<k."""
    if spec.twist is None or spec.twist.is_zero():
        return []
    out = []
    for i, j, k in itertools.combinations(range(spec.rank), 3):
        value = tilde_split_basis(spec, spec.twist, (i, j, k))
        if not value.is_zero():
            out.append(value)
    return out


def annihilates_twist(spec: AlgebroidSpec, form: KerForm) -> bool:
    """Slotwise reading: every contraction by an image section vanishes."""
    if form.degree == 0:
        return True
    return all(contract(spec, form, v).is_zero()
               for v in twist_image_sections(spec))


def _form_coordinates(forms: list[KerForm], degree: int, rank: int,
                      monos: list[tuple[int, ...]] | None):
    """Rational coordinates of forms on (wedge, monomial) axes."""
    wedges = wedge_indices(rank, degree)
    if monos is None:
        axes = [(w, ()) for w in wedges]
    else:
        axes = [(w, m) for w in wedges for m in monos]
    index = {a: i for i, a in enumerate(axes)}
    cols = []
    for form in forms:
        vec = [ZERO] * len(axes)
        for key, value in form.coeffs.items():
            for exp, coeff in value.terms.items():
                slot = index.get((key, exp))
                if slot is None:
                    raise ValueError("form exceeds the coordinate truncation")
                vec[slot] = Scalar.rational(coeff)
        cols.append(vec)
    return axes, cols


def _mono_closure(forms: list[KerForm]) -> list[tuple[int, ...]]:
    monos = {()}
    for form in forms:
        for value in form.coeffs.values():
            monos.update(value.terms.keys())
    return sorted(monos)


def cochain_basis(spec: AlgebroidSpec, degree: int,
                  max_degree: int | None = None) -> list[KerForm]:
    """Basis of the degree-p cochains (ker ρ̃ ∩ slotwise twist annihilator).

    Over a point the enumeration is complete; over a polynomial base the
    ambient basis is the monomial-truncated kernel basis, so a truncation
    bound is required.
    """
    ambient = kerform_basis(spec, degree, max_degree)
    if not ambient:
        return []
    victims = twist_image_sections(spec)
    if not victims or degree == 0:
        return ambient
    contracted = [[contract(spec, form, v) for v in victims] for form in ambient]
    all_images = [c for row in contracted for c in row]
    monos = None if spec.is_point() else _mono_closure(all_images)
    rows: list[list[Scalar]] = []
    axes = None
    for v_idx in range(len(victims)):
        images = [contracted[f_idx][v_idx] for f_idx in range(len(ambient))]
        axes, cols = _form_coordinates(images, degree - 1, spec.rank, monos)
        for r in range(len(axes)):
            row = [cols[c][r] for c in range(len(ambient))]
            if any(not e.is_zero() for e in row):
                rows.append(row)
    if not rows:
        return ambient
    combos = kernel_basis(Matrix(rows))
    basis = []
    for combo in combos:
        total = KerForm(spec, degree, {})
        for c, form in zip(combo, ambient):
            if not c.is_zero():
                total = total + form.scale(c)
        basis.append(total)
    return basis


def weak_kernel_dimension(spec: AlgebroidSpec, degree: int,
                          max_degree: int | None = None) -> int:
    """Dimension of {α : ins_h(α) = 0} in the (truncated) ambient basis."""
    ambient = kerform_basis(spec, degree, max_degree)
    if not ambient:
        return 0
    if spec.twist is None or spec.twist.is_zero():
        return len(ambient)
    images = [ins_h(spec, form) for form in ambient]
    monos = None if spec.is_point() else _mono_closure(images)
    axes, cols = _form_coordinates(images, degree + 2, spec.rank, monos)
    rows = [[cols[c][r] for c in range(len(ambient))] for r in range(len(axes))]
    if not rows:
        return len(ambient)
    return len(kernel_basis(Matrix(rows)))


def readings_agree(spec: AlgebroidSpec, degree: int,
                   max_degree: int | None = None) -> bool:
    """Compare the slotwise and ins_h readings of the cochain condition.

    The slotwise space is contained in the weak one, so equality of
    dimensions means the readings coincide on this structure and degree.
    """
    strict = len(cochain_basis(spec, degree, max_degree))
    weak = weak_kernel_dimension(spec, degree, max_degree)
    return strict == weak


def differential_matrix(spec: AlgebroidSpec, degree: int) -> Matrix:
    """Matrix of D: C^p → C^{p+1} in the cochain bases (point structures).

    Raises CochainEscapeError, naming the violating basis form, if D maps
    some cochain outside the cochain space — never silently projects.
    """
    if not spec.is_point():
        raise ValueError("differential matrices are computed over a point")
    return _differential(spec, degree, cochain_basis(spec, degree),
                         cochain_basis(spec, degree + 1))


def _differential(spec: AlgebroidSpec, degree: int, source: list[KerForm],
                  target: list[KerForm]) -> Matrix:
    """differential_matrix on the given bases of C^p and C^{p+1}."""
    if not source:
        return Matrix.zeros(len(target), 0) if target else Matrix.zeros(0, 0)
    target_axes, target_cols = (None, [])
    if target:
        target_axes, target_cols = _form_coordinates(
            target, degree + 1, spec.rank, None)
        target_matrix = Matrix([[target_cols[c][r] for c in range(len(target))]
                                for r in range(len(target_axes))])
    columns = []
    for idx, form in enumerate(source):
        image = cov_derivative(spec, form)
        if not target:
            if not image.is_zero():
                raise CochainEscapeError(
                    f"D maps cochain #{idx} of degree {degree} ({form!r}) "
                    f"outside the (zero) cochain space")
            columns.append([])
            continue
        _, image_cols = _form_coordinates([image], degree + 1, spec.rank, None)
        solution = solve_rational(target_matrix, image_cols[0])
        if solution is None:
            raise CochainEscapeError(
                f"D maps cochain #{idx} of degree {degree} ({form!r}) "
                f"outside the degree-{degree + 1} cochain space")
        columns.append(list(solution))
    if not target:
        return Matrix.zeros(0, 0)
    return Matrix([[columns[c][r] for c in range(len(source))]
                   for r in range(len(target))])


def _point_complex(spec: AlgebroidSpec,
                   p_max: int) -> tuple[list[list[KerForm]], list[Matrix]]:
    """Bases of C⁰..C^{p_max+1} and the matrices of D between them, each
    built once."""
    bases = [cochain_basis(spec, p) for p in range(p_max + 2)]
    mats = [_differential(spec, p, bases[p], bases[p + 1])
            for p in range(p_max + 1)]
    return bases, mats


def _matrix_rank(m: Matrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return rref(m)[1]


def _betti(bases: list[list[KerForm]], mats: list[Matrix]) -> list[int]:
    ranks = [_matrix_rank(m) for m in mats]
    out = []
    for p in range(len(mats)):
        prev_rank = ranks[p - 1] if p > 0 else 0
        out.append(len(bases[p]) - ranks[p] - prev_rank)
    return out


def betti(spec: AlgebroidSpec, p_max: int) -> list[int]:
    """β^p = dim ker(d_p) − rank(d_{p−1}) for p = 0..p_max, exactly."""
    if not spec.is_point():
        raise ValueError("Betti numbers are computed over a point")
    return _betti(*_point_complex(spec, p_max))


def cd_cochain_membership(spec: AlgebroidSpec, form: KerForm) -> bool:
    """Ring/module cochain test: killed by every ι_{D₀xⱼ} and by the twist.

    Generator sufficiency for the ι condition follows from D₀ being a
    derivation.  The form must already be certified in ker ρ̃ (rejected
    upstream otherwise).
    """
    form.require_certified("cochain candidate")
    if form.degree > 0:
        for j in range(spec.nvars):
            gen = d0_generator(spec, j)
            if gen.is_zero():
                continue
            if not contract(spec, form, gen).is_zero():
                return False
    return annihilates_twist(spec, form)


def complex_summary(spec: AlgebroidSpec, p_max: int,
                    max_degree: int | None = None) -> dict:
    """Dims, Betti numbers (point only), d²=0, and reading agreement."""
    if spec.is_point():
        bases, mats = _point_complex(spec, p_max)
        d_squared_zero = True
        for p in range(p_max):
            if mats[p].cols and mats[p + 1].rows:
                prod = mats[p + 1].matmul(mats[p])
                if any(not e.is_zero() for row in prod.entries for e in row):
                    d_squared_zero = False
        return {
            "dims": [len(bases[p]) for p in range(p_max + 1)],
            "betti": _betti(bases, mats),
            "d_squared_zero": d_squared_zero,
            "readings_agree": all(len(bases[p]) == weak_kernel_dimension(spec, p)
                                  for p in range(p_max + 1)),
        }
    if max_degree is None:
        raise ValueError(
            "polynomial bases need a monomial truncation bound "
            "(Betti numbers are point-only; truncated dims are reported)")
    dims = []
    d_squared_zero = True
    agree = True
    for p in range(p_max + 1):
        basis = cochain_basis(spec, p, max_degree)
        dims.append(len(basis))
        for form in basis:
            if not d_squared(spec, form).is_zero():
                d_squared_zero = False
        agree = agree and readings_agree(spec, p, max_degree)
    return {"dims": dims, "betti": None, "d_squared_zero": d_squared_zero,
            "readings_agree": agree}
