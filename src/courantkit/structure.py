"""Algebroid data model: pairing, anchor, derivations, and the bracket.

An AlgebroidSpec is the single source of truth for one structure: the rank,
the base ring (a point or ℚ[x1..xn]), the Gram matrix of the pairing ⟨.,.⟩,
the anchor matrix, the bracket structure functions on basis sections, and an
optional degree-4 twist form.  Sections are coefficient vectors over the
scalar ring in the module basis e_0..e_{r-1}.

The constructor takes the twist as its coefficients and builds its KerForm
last, so a structure needs no twist or kind assigned after construction.

The bracket on arbitrary sections is generated from the basis table by two
extension rules:

    right:  [φ, f·ψ] = ρ(φ)[f]·ψ + f·[φ,ψ]
    left:   [f·φ, ψ] = f·[φ,ψ] − (ρ(ψ)f)·φ + ⟨φ,ψ⟩·d0(f)

so a finite table determines the bracket on all polynomial sections.  d0 is
the derivation f ↦ ρ*(df), with ρ* defined through the Gram system by
⟨ρ*ξ, ψ⟩ = ξ(ρψ).  ``bracket`` sums the ℚ[x]-bilinear table part first and
then the anchor and d0 terms, which only non-constant coefficients reach;
on two constant sections it is a table lookup.

Pairing convention for split-type structures: ⟨X+ξ, Y+η⟩ = η(X) + ξ(Y),
with no 1/2 factor, so ρ*ξ = ξ on the standard bundle.

The constructor also keeps sparse rows: the nonzero (index, entry) pairs of
every Gram row, anchor row and table entry, built once from its arguments.
pairing, anchor_apply and bracket loop over these rows, so no call tests a
zero matrix entry.  The one back-solve of the Gram system, the sparse rows of
gram⁻¹ and of D₀(xⱼ) = gram⁻¹·(anchor column j), is built on first use: ρ*ξ
and D₀f are its combinations Σⱼ cⱼ·D₀(xⱼ), with cⱼ = ξⱼ and cⱼ = ∂ⱼf, and
Λᵖ of its rows solves the Λ-Gram system and pulls base forms back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from courantkit.exact import Matrix, ONE, Scalar, ZERO


class SpecInvariantError(ValueError):
    """A structure violates one of the AlgebroidSpec invariants."""


KINDS = ("almost", "strongly-anchored", "courant", "h-twisted")


@dataclass(frozen=True)
class Section:
    """Element of the module: a coefficient vector in the e_i basis."""

    coeffs: tuple[Scalar, ...]

    @classmethod
    def make(cls, coeffs: Sequence) -> "Section":
        return cls(tuple(c if isinstance(c, Scalar) else Scalar.rational(c)
                         for c in coeffs))

    @classmethod
    def zero(cls, rank: int) -> "Section":
        return cls((ZERO,) * rank)

    @classmethod
    def basis(cls, index: int, rank: int) -> "Section":
        if not 0 <= index < rank:
            raise ValueError(f"basis index {index} out of range for rank {rank}")
        return cls(tuple(ONE if i == index else ZERO for i in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "Section") -> "Section":
        return Section(tuple([a + b if b.terms else a for a, b in
                              zip(self.coeffs, other.coeffs, strict=True)]))

    def __sub__(self, other: "Section") -> "Section":
        return Section(tuple([a - b if b.terms else a for a, b in
                              zip(self.coeffs, other.coeffs, strict=True)]))

    def __neg__(self) -> "Section":
        return Section(tuple([-a for a in self.coeffs]))

    def scale(self, f: Scalar) -> "Section":
        return Section(tuple([f * a if a.terms else a for a in self.coeffs]))

    def __hash__(self) -> int:
        # the dataclass hash of the coefficients, computed on first use and
        # kept, as Scalar keeps its own
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.coeffs,))
            object.__setattr__(self, "_hash", h)
        return h

    def to_text(self) -> list[str]:
        return [c.to_text() for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Section[{', '.join(self.to_text())}]"


class AlgebroidSpec:
    """Rank, base ring, pairing, anchor, bracket table, and optional twist."""

    def __init__(
        self,
        ring: str,
        nvars: int,
        rank: int,
        gram: Matrix,
        anchor: Matrix | None,
        bracket_table: dict[tuple[int, int], Section],
        twist: dict[tuple[int, ...], Scalar] | None = None,
        kind: str = "courant",
    ):
        """``twist``: the coefficients of the twist 4-form on increasing basis
        4-tuples, as in ``KerForm.coeffs``; None is no twist, {} the zero one."""
        if ring not in ("point", "polynomial"):
            raise SpecInvariantError(f"unknown base ring type {ring!r}")
        if ring == "point" and nvars:
            raise SpecInvariantError("a point base has no variables")
        if rank <= 0:
            raise SpecInvariantError("rank must be a positive integer")
        if kind not in KINDS:
            raise SpecInvariantError(
                f"kind must be one of {KINDS}, got {kind!r}")
        self.ring = ring
        self.nvars = nvars
        self.rank = rank
        self.gram = gram
        self.anchor = anchor
        self.kind = kind
        self._validate_gram()
        self._validate_anchor()
        table: dict[tuple[int, int], Section] = {}
        for (i, j), sec in bracket_table.items():
            if not (0 <= i < rank and 0 <= j < rank):
                raise SpecInvariantError(f"bracket index ({i},{j}) out of range")
            self.validate_section(sec, f"bracket entry ({i},{j})")
            if not sec.is_zero():
                table[(i, j)] = sec
        self.bracket_table = table
        # sparse rows: the nonzero (index, entry) pairs of each Gram and
        # anchor row; row i of the table pairs each j with [eᵢ,eⱼ] ≠ 0 with
        # the sparse row of [eᵢ,eⱼ]
        self._gram_rows = tuple(map(_sparse, gram.entries))
        self._anchor_rows = (None if anchor is None
                             else tuple(map(_sparse, anchor.entries)))
        self._table_rows = tuple(
            tuple((j, _sparse(table[(i, j)].coeffs))
                  for j in range(rank) if (i, j) in table)
            for i in range(rank))
        self._zero_section = Section.zero(rank)
        self._solve: tuple[tuple, tuple] | None = None
        from courantkit.kerforms import KerForm  # kerforms imports this module
        self.twist = None if twist is None else KerForm(self, 4, twist)

    # -- invariants -----------------------------------------------------

    def _validate_gram(self) -> None:
        g = self.gram
        if g.rows != self.rank or g.cols != self.rank:
            raise SpecInvariantError(
                f"gram must be {self.rank}x{self.rank}, got {g.rows}x{g.cols}")
        if not g.is_symmetric():
            raise SpecInvariantError("gram matrix is not symmetric")
        det = g.det()
        if not det.is_rational() or det.is_zero():
            raise SpecInvariantError(
                "gram determinant must be a nonzero rational constant "
                f"(a unit of the base ring), got {det}")
        for row in g.entries:
            for e in row:
                if e.max_var_index >= self.nvars:
                    raise SpecInvariantError(
                        "gram entry uses more variables than the base ring has")

    def _validate_anchor(self) -> None:
        if self.is_point():
            if self.anchor is not None:
                raise SpecInvariantError("a point base admits no anchor matrix")
            return
        if self.anchor is None:
            return  # anchorless polynomial spec: ρ ≡ 0, d0 ≡ 0
        a = self.anchor
        if a.rows != self.rank or a.cols != self.nvars:
            raise SpecInvariantError(
                f"anchor must be {self.rank}x{self.nvars}, got {a.rows}x{a.cols}")
        for row in a.entries:
            for e in row:
                if e.max_var_index >= self.nvars:
                    raise SpecInvariantError(
                        "anchor entry uses more variables than the base ring has")

    def is_point(self) -> bool:
        return self.ring == "point"

    def validate_section(self, sec: Section, what: str = "section") -> bool:
        """Reject a section of the wrong length, or one with a coefficient
        in a variable the base ring lacks (the first such coefficient is
        named); return whether some coefficient is non-constant.

        One pass over the exponent keys: a key carries no trailing zeros,
        so its length is one more than the last variable index it uses.
        """
        coeffs = sec.coeffs
        if len(coeffs) != self.rank:
            raise SpecInvariantError(f"{what} has length {len(coeffs)}, want {self.rank}")
        nvars = self.nvars
        polynomial = False
        for c in coeffs:
            for exp in c.terms:
                if exp:
                    if len(exp) > nvars:
                        raise SpecInvariantError(
                            f"{what} uses variable x{c.max_var_index + 1}, but "
                            f"the base ring has {nvars} variable(s)")
                    polynomial = True
        return polynomial

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebroidSpec):
            return NotImplemented
        twists_equal = (
            (self.twist is None and other.twist is None)
            or (self.twist is None and other.twist.is_zero())
            or (other.twist is None and self.twist.is_zero())
            or (self.twist is not None and other.twist is not None
                and self.twist.coeffs == other.twist.coeffs)
        )
        return (self.ring == other.ring and self.nvars == other.nvars
                and self.rank == other.rank and self.gram == other.gram
                and self.anchor == other.anchor
                and self.bracket_table == other.bracket_table
                and twists_equal)

    def __repr__(self) -> str:
        base = "point" if self.is_point() else f"Q[x1..x{self.nvars}]"
        return (f"AlgebroidSpec(rank={self.rank}, base={base}, kind={self.kind}, "
                f"twist={'yes' if self.twist is not None else 'no'})")

    def _back_solve(self) -> tuple[tuple, tuple]:
        """The sparse rows of gram⁻¹ and of D₀(x₁), …, D₀(xₙ), built on first
        use, the spec's only write after __init__.  gram⁻¹ is symmetric, so
        gram⁻¹·(anchor column j) combines its rows with the column's entries."""
        if self._solve is None:
            inv = tuple(map(_sparse, self.gram.inverse().entries))
            columns = () if self.anchor is None else zip(*self.anchor.entries)
            self._solve = inv, tuple(_sparse(_combine(inv, col, self.rank))
                                     for col in columns)
        return self._solve

    def table_bracket(self, i: int, j: int) -> Section:
        return self.bracket_table.get((i, j), self._zero_section)

    def basis_sections(self) -> list[Section]:
        return [Section.basis(i, self.rank) for i in range(self.rank)]


def _sparse(entries: Sequence[Scalar]) -> tuple[tuple[int, Scalar], ...]:
    return tuple((k, e) for k, e in enumerate(entries) if e.terms)


def _combine(rows: Sequence, coeffs: Sequence[Scalar], size: int) -> tuple[Scalar, ...]:
    """Σⱼ cⱼ·rows[j] over sparse rows, as a vector of length ``size``."""
    out = [ZERO] * size
    for c, row in zip(coeffs, rows):
        if c.terms:
            for k, entry in row:
                out[k] = out[k] + c * entry
    return tuple(out)


# -- pairing and anchor ------------------------------------------------------


def pairing(spec: AlgebroidSpec, phi: Section, psi: Section) -> Scalar:
    """⟨φ,ψ⟩ = φᵀ·gram·ψ; symmetric and R-bilinear."""
    spec.validate_section(phi)
    spec.validate_section(psi)
    total = ZERO
    g = psi.coeffs
    for fi, row in zip(phi.coeffs, spec._gram_rows):
        if fi.terms:
            for j, entry in row:
                if g[j].terms:
                    total = total + fi * entry * g[j]
    return total


def anchor_apply(spec: AlgebroidSpec, psi: Section) -> tuple[Scalar, ...]:
    """ρ(ψ) as a base vector field: n polynomial coefficients on ∂_1..∂_n."""
    spec.validate_section(psi)
    return _anchor_apply(spec, psi)


def _anchor_apply(spec: AlgebroidSpec, psi: Section) -> tuple[Scalar, ...]:
    """anchor_apply on a section the caller has already validated."""
    out = [ZERO] * spec.nvars
    if spec._anchor_rows is not None:
        for ci, row in zip(psi.coeffs, spec._anchor_rows):
            if ci.terms:
                for j, entry in row:
                    out[j] = out[j] + ci * entry
    return tuple(out)


def apply_vector_field(vf: Sequence[Scalar], f: Scalar) -> Scalar:
    """Derivative of f along the base vector field Σ vf_j ∂_j."""
    total = ZERO
    for j, coeff in enumerate(vf):
        if not coeff.is_zero():
            df = f.partial(j)
            if not df.is_zero():
                total = total + coeff * df
    return total


def rho_apply(spec: AlgebroidSpec, psi: Section, f: Scalar) -> Scalar:
    """ρ(ψ)[f], the anchor acting as a derivation on the base ring."""
    if spec.anchor is None:
        return ZERO
    return apply_vector_field(anchor_apply(spec, psi), f)


def rho_star(spec: AlgebroidSpec, xi: Sequence[Scalar]) -> Section:
    """ρ*ξ, defined by ⟨ρ*ξ, ψ⟩ = ξ(ρψ) for all ψ: R-linear, so it is
    Σⱼ ξⱼ·D₀(xⱼ) over the D₀ rows of the spec's back-solve."""
    if spec.is_point() or spec.anchor is None:
        if any(not c.is_zero() for c in xi):
            raise SpecInvariantError(
                "no nonzero one-forms exist over this base; only ξ=0 is allowed")
        return spec._zero_section
    if len(xi) != spec.nvars:
        raise ValueError(f"one-form needs {spec.nvars} coefficients")
    return Section(_combine(spec._back_solve()[1], xi, spec.rank))


def d0(spec: AlgebroidSpec, f: Scalar) -> Section:
    """The derivation D₀: f ↦ ρ*(df) = Σⱼ ∂ⱼf·D₀(xⱼ), combined as in
    rho_star.  Zero over a point, without an anchor and on constants, none
    of which builds the back-solve."""
    if spec.is_point() or spec.anchor is None or f.is_rational():
        return spec._zero_section
    df = [f.partial(j) for j in range(min(spec.nvars, f.max_var_index + 1))]
    return Section(_combine(spec._back_solve()[1], df, spec.rank))


def d0_generator(spec: AlgebroidSpec, j: int) -> Section:
    """D₀(x_{j+1}) = ρ*(dx_{j+1}), row j of the back-solve's D₀ rows; zero
    without an anchor.  j must name a variable, 0 ≤ j < nvars."""
    if not 0 <= j < spec.nvars:
        raise ValueError(f"variable index {j} out of range for "
                         f"{spec.nvars} variable(s)")
    if spec.anchor is None:
        return spec._zero_section
    return rho_star(spec, [ONE if k == j else ZERO for k in range(spec.nvars)])


# -- the bracket -------------------------------------------------------------


def bracket(spec: AlgebroidSpec, phi: Section, psi: Section) -> Section:
    """[φ,ψ], extending the basis table by the Leibniz rules.

    Expanding φ = Σ fᵢeᵢ and ψ = Σ gⱼeⱼ, the terms are summed in this order:

        [φ,ψ] = Σᵢⱼ fᵢgⱼ·[eᵢ,eⱼ]
                + Σⱼ ρ(φ)[gⱼ]·eⱼ − Σᵢ (ρ(ψ)[fᵢ]·eᵢ − ⟨eᵢ,ψ⟩·d0(fᵢ))

    The first sum is the ℚ[x]-bilinear part, read off the table rows.  The
    others vanish on constant coefficients (a vector field and d0 kill
    constants), so they run over the non-constant gⱼ and fᵢ only: ρ(φ) is
    computed only when ψ has a non-constant coefficient, and ρ(ψ) only when
    φ has one.  On two constant sections the bracket is the table's alone.
    """
    phi_polynomial = spec.validate_section(phi)
    psi_polynomial = spec.validate_section(psi)
    f, g = phi.coeffs, psi.coeffs
    out = [ZERO] * spec.rank
    for fi, table_row in zip(f, spec._table_rows):
        if fi.terms:
            for j, entry in table_row:
                gj = g[j]
                if gj.terms:
                    fg = fi * gj
                    for k, ck in entry:
                        out[k] = out[k] + fg * ck
    if spec._anchor_rows is None:
        return Section(tuple(out))
    if psi_polynomial:
        rho_phi = _anchor_apply(spec, phi)
        for j, gj in enumerate(g):
            if not gj.is_rational():
                out[j] = out[j] + apply_vector_field(rho_phi, gj)
    if phi_polynomial:
        rho_psi = _anchor_apply(spec, psi)
        for i, fi in enumerate(f):
            if fi.is_rational():
                continue
            out[i] = out[i] - apply_vector_field(rho_psi, fi)
            gram_pair = ZERO
            for j, entry in spec._gram_rows[i]:
                if g[j].terms:
                    gram_pair = gram_pair + entry * g[j]
            if gram_pair.terms:
                for k, ck in enumerate(d0(spec, fi).coeffs):
                    if ck.terms:
                        out[k] = out[k] + gram_pair * ck
    return Section(tuple(out))


def tangent_bracket(nvars: int, x_field: Sequence[Scalar],
                    y_field: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """[X,Y] of two base vector fields, componentwise X(Y_j) − Y(X_j)."""
    return tuple(
        apply_vector_field(x_field, y_field[j]) - apply_vector_field(y_field, x_field[j])
        for j in range(nvars))


def anchor_morphism_defect(spec: AlgebroidSpec, phi: Section,
                           psi: Section) -> tuple[Scalar, ...]:
    """ρ[φ,ψ] − [ρφ, ρψ]_TM; vanishes on every valid twisted structure."""
    return _anchor_morphism_defect(spec, partial(bracket, spec), phi, psi)


def _anchor_morphism_defect(spec: AlgebroidSpec, br: Callable, phi: Section,
                            psi: Section) -> tuple[Scalar, ...]:
    """anchor_morphism_defect with the bracket read as br(φ, ψ)."""
    lhs = anchor_apply(spec, br(phi, psi))
    rhs = tangent_bracket(spec.nvars, anchor_apply(spec, phi),
                          anchor_apply(spec, psi))
    return tuple(a - b for a, b in zip(lhs, rhs, strict=True))


def jacobiator(spec: AlgebroidSpec, phi: Section, psi1: Section,
               psi2: Section) -> Section:
    """[φ,[ψ₁,ψ₂]] − [[φ,ψ₁],ψ₂] − [ψ₁,[φ,ψ₂]] (zero iff Jacobi holds)."""
    return _jacobiator(partial(bracket, spec), phi, psi1, psi2)


def _jacobiator(br: Callable, phi: Section, psi1: Section,
                psi2: Section) -> Section:
    """jacobiator with the bracket read as br(φ, ψ)."""
    return br(phi, br(psi1, psi2)) - br(br(phi, psi1), psi2) - br(psi1, br(phi, psi2))
