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

Cochains, ins_h ranks and D's matrix reduce kerforms' `_coordinates`; as
the reduced row echelon form is unique, row order changes no kernel basis,
rank or solved block, nor the cochain an inconsistent D is reported for.
"""

from __future__ import annotations

from fractions import Fraction

from courantkit.exact import Matrix, _eliminate, _kernel, _scalar_matrix
from courantkit.kerforms import (
    KerForm,
    _combination,
    _coordinates,
    contract,
    cov_derivative,
    d_squared,
    ins_h,
    kerform_basis,
    split_table,
)
from courantkit.structure import AlgebroidSpec, Section


Rows = list[list[Fraction]]


class CochainEscapeError(RuntimeError):
    """D mapped a cochain outside the cochain space (the theorem under test)."""


def twist_image_sections(spec: AlgebroidSpec) -> list[Section]:
    """Generators of the image of the twist's splitting: the nonzero
    H̃(eᵢ,eⱼ,eₖ), i<j<k."""
    return [] if spec.twist is None else list(
        split_table(spec, spec.twist, spec.basis_sections()).values())


def annihilates_twist(spec: AlgebroidSpec, form: KerForm) -> bool:
    """Slotwise reading: every contraction by an image section vanishes."""
    if form.degree == 0:
        return True
    return all(contract(spec, form, v).is_zero()
               for v in twist_image_sections(spec))


def cochain_basis(spec: AlgebroidSpec, degree: int,
                  max_degree: int | None = None) -> list[KerForm]:
    """Basis of the degree-p cochains (ker ρ̃ ∩ slotwise twist annihilator).

    Over a point the enumeration is complete; over a polynomial base the
    ambient basis is the monomial-truncated kernel basis, so a truncation
    bound is required.
    """
    return _cochains(spec, degree, kerform_basis(spec, degree, max_degree),
                     twist_image_sections(spec))


def _cochains(spec: AlgebroidSpec, degree: int, ambient: list[KerForm],
              victims: list[Section]) -> list[KerForm]:
    """cochain_basis inside the given basis of ker ρ̃, for the twist image
    sections ``victims`` (from twist_image_sections)."""
    if not ambient or not victims or degree == 0:
        return ambient
    rows = _coordinates([{(v, key): value for v, victim in enumerate(victims)
                          for key, value in contract(spec, form, victim).coeffs.items()}
                         for form in ambient])
    return [_combination(vec, ambient) for vec in _kernel(rows, len(ambient))]


def weak_kernel_dimension(spec: AlgebroidSpec, degree: int,
                          max_degree: int | None = None) -> int:
    """Dimension of {α : ins_h(α) = 0} in the (truncated) ambient basis."""
    return _weak_dimension(spec, degree, kerform_basis(spec, degree, max_degree))


def _weak_dimension(spec: AlgebroidSpec, degree: int,
                    ambient: list[KerForm]) -> int:
    """weak_kernel_dimension inside the given basis of ker ρ̃."""
    if not ambient or spec.twist is None or spec.twist.is_zero():
        return len(ambient)
    rows = _coordinates([ins_h(spec, form).coeffs for form in ambient])
    return len(ambient) - len(_eliminate(rows, len(ambient)))


def readings_agree(spec: AlgebroidSpec, degree: int,
                   max_degree: int | None = None) -> bool:
    """Compare the slotwise and ins_h readings of the cochain condition.

    The slotwise space is contained in the weak one, so equality of
    dimensions means the readings coincide on this structure and degree.
    """
    ambient = kerform_basis(spec, degree, max_degree)
    return (len(_cochains(spec, degree, ambient, twist_image_sections(spec)))
            == _weak_dimension(spec, degree, ambient))


def differential_matrix(spec: AlgebroidSpec, degree: int) -> Matrix:
    """Matrix of D: C^p → C^{p+1} in the cochain bases (point structures).

    Raises CochainEscapeError, naming the violating basis form, if D maps
    some cochain outside the cochain space — never silently projects.
    """
    if not spec.is_point():
        raise ValueError("differential matrices are computed over a point")
    images = twist_image_sections(spec)
    return _scalar_matrix(_differential(
        spec, degree, _cochains(spec, degree, kerform_basis(spec, degree), images),
        _cochains(spec, degree + 1, kerform_basis(spec, degree + 1), images)))


def _differential(spec: AlgebroidSpec, degree: int, source: list[KerForm],
                  target: list[KerForm]) -> Rows:
    """differential_matrix on the given bases of C^p and C^{p+1}, as
    len(target) Fraction rows: every image is solved against the target
    basis by one reduction of [target | images]."""
    images = [cov_derivative(spec, form) for form in source]
    width = len(target)
    rows = _coordinates([form.coeffs for form in target + images])
    pivots = _eliminate(rows, width)
    space = f"degree-{degree + 1}" if target else "(zero)"
    for idx, form in enumerate(source):
        if any(row[width + idx] for row in rows[len(pivots):]):
            raise CochainEscapeError(f"D maps cochain #{idx} of degree {degree} "
                                     f"({form!r}) outside the {space} cochain space")
    # the target is a basis: every target column is a pivot, row t solves
    # for the coefficient of target t
    return [row[width:] for row in rows[:width]]


def _point_complex(spec: AlgebroidSpec, p_max: int) -> tuple[
        list[list[KerForm]], list[list[KerForm]], list[Rows]]:
    """Bases of ker ρ̃ and of C⁰..C^{p_max+1} in degrees 0..p_max+1, and the
    matrices of D between the latter, each built once."""
    images = twist_image_sections(spec)
    ambients = [kerform_basis(spec, p) for p in range(p_max + 2)]
    bases = [_cochains(spec, p, ambient, images)
             for p, ambient in enumerate(ambients)]
    mats = [_differential(spec, p, bases[p], bases[p + 1])
            for p in range(p_max + 1)]
    return ambients, bases, mats


def _betti(bases: list[list[KerForm]], mats: list[Rows]) -> list[int]:
    ranks = [len(_eliminate([row[:] for row in m], len(bases[p])))
             for p, m in enumerate(mats)]
    out = []
    for p in range(len(mats)):
        prev_rank = ranks[p - 1] if p > 0 else 0
        out.append(len(bases[p]) - ranks[p] - prev_rank)
    return out


def betti(spec: AlgebroidSpec, p_max: int) -> list[int]:
    """β^p = dim ker(d_p) − rank(d_{p−1}) for p = 0..p_max, exactly."""
    if not spec.is_point():
        raise ValueError("Betti numbers are computed over a point")
    _, bases, mats = _point_complex(spec, p_max)
    return _betti(bases, mats)


def _product_nonzero(left: Rows, right: Rows) -> bool:
    """Whether left·right has a nonzero entry; each row of ``right`` is
    reduced to its nonzero entries once, and each row of the product is
    summed over the nonzero entries of the row of ``left``."""
    sparse = [[(j, v) for j, v in enumerate(row) if v] for row in right]
    for row in left:
        acc: dict[int, Fraction] = {}
        for k, x in enumerate(row):
            if x:
                for j, v in sparse[k]:
                    acc[j] = acc.get(j, 0) + x * v
        if any(acc.values()):
            return True
    return False


def cd_cochain_membership(spec: AlgebroidSpec, form: KerForm) -> bool:
    """Ring/module cochain test: killed by every ι_{D₀xⱼ} and by the twist.

    The form must be certified in ker ρ̃, and that is the ι condition:
    ⟨eᵢ, D₀xⱼ⟩ = (gram·gram⁻¹·anchor)ᵢⱼ = anchorᵢⱼ, so ι_{D₀xⱼ}α is the
    ∂ⱼ-component of ρ̃α (and D₀ is a derivation, so the generators suffice).
    """
    form.require_certified("cochain candidate")
    return annihilates_twist(spec, form)


def complex_summary(spec: AlgebroidSpec, p_max: int,
                    max_degree: int | None = None) -> dict:
    """Dims, Betti numbers (point only), d²=0, and reading agreement."""
    if spec.is_point():
        ambients, bases, mats = _point_complex(spec, p_max)
        # d_{p+1}·d_p through the nonzero entries of both factors
        d_squared_zero = not any(_product_nonzero(mats[p + 1], mats[p])
                                 for p in range(p_max))
        return {
            "dims": [len(bases[p]) for p in range(p_max + 1)],
            "betti": _betti(bases, mats),
            "d_squared_zero": d_squared_zero,
            "readings_agree": all(
                len(bases[p]) == _weak_dimension(spec, p, ambients[p])
                for p in range(p_max + 1)),
        }
    if max_degree is None:
        raise ValueError(
            "polynomial bases need a monomial truncation bound "
            "(Betti numbers are point-only; truncated dims are reported)")
    dims = []
    d_squared_zero = True
    agree = True
    images = twist_image_sections(spec)
    for p in range(p_max + 1):
        ambient = kerform_basis(spec, p, max_degree)
        basis = _cochains(spec, p, ambient, images)
        dims.append(len(basis))
        d_squared_zero = d_squared_zero and all(
            d_squared(spec, form).is_zero() for form in basis)
        agree = agree and len(basis) == _weak_dimension(spec, p, ambient)
    return {"dims": dims, "betti": None, "d_squared_zero": d_squared_zero,
            "readings_agree": agree}
