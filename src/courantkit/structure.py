"""Algebroid data model: pairing, anchor, derivations, and the bracket.

An AlgebroidSpec is the single source of truth for one structure: the rank,
the base ring (a point or ℚ[x1..xn]), the Gram matrix of the pairing ⟨.,.⟩,
the anchor matrix, the bracket structure functions on basis sections, and an
optional degree-4 twist form.  A Section holds its rank and its nonzero
coefficients in the module basis e_0..e_{r-1}; nothing but printing reads
its dense coefficient vector.

The constructor takes the twist as its coefficients and builds its KerForm
last, so a structure needs no twist or kind assigned after construction.

The bracket on arbitrary sections is generated from the basis table by two
extension rules:

    right:  [φ, f·ψ] = ρ(φ)[f]·ψ + f·[φ,ψ]
    left:   [f·φ, ψ] = f·[φ,ψ] − (ρ(ψ)f)·φ + ⟨φ,ψ⟩·d0(f)

so a finite table determines the bracket on all polynomial sections.  d0 is
the derivation f ↦ ρ*(df), with ρ* defined through the Gram system by
⟨ρ*ξ, ψ⟩ = ξ(ρψ).

Pairing convention for split-type structures: ⟨X+ξ, Y+η⟩ = η(X) + ξ(Y),
with no 1/2 factor, so ρ*ξ = ξ on the standard bundle.

The constructor also keeps sparse rows, built once from its arguments: the
nonzero entries of each Gram and anchor row as a dict {index: entry}, and
table row i as a dict {j: entries of [eᵢ,eⱼ]}.  pairing, anchor_apply and
bracket walk the entries of their sections and the rows these index, so no
call reads a zero coefficient or matrix entry.  The one back-solve of the
Gram system, the sparse rows of gram⁻¹ and of D₀(xⱼ) = gram⁻¹·(anchor
column j), is built on first use: ρ*ξ and D₀f are its combinations
Σⱼ cⱼ·D₀(xⱼ), with cⱼ = ξⱼ and cⱼ = ∂ⱼf, and Λᵖ of its rows solves the
Λ-Gram system and pulls base forms back.
"""

from __future__ import annotations

from functools import partial
from operator import add, sub
from typing import Callable, Iterable, Sequence

from courantkit.exact import Matrix, ONE, Scalar, ZERO


class SpecInvariantError(ValueError):
    """A structure violates one of the AlgebroidSpec invariants."""


KINDS = ("almost", "strongly-anchored", "courant", "h-twisted")


class Section:
    """Element of the module: the rank and the nonzero (index, Scalar) pairs,
    by increasing index, of a dense vector of Scalars.  The form is canonical,
    so == and hash read the pairs; ``coeffs`` rebuilds the vector on read."""

    __slots__ = ("rank", "entries")

    def __init__(self, coeffs: Sequence[Scalar]):
        self.rank = len(coeffs)
        self.entries = tuple([(i, c) for i, c in enumerate(coeffs) if c.terms])

    @classmethod
    def _of(cls, rank: int, entries: tuple[tuple[int, Scalar], ...]) -> "Section":
        """Wrap entries that are already canonical: nonzero, by index."""
        out = object.__new__(cls)
        out.rank, out.entries = rank, entries
        return out

    @classmethod
    def make(cls, coeffs: Sequence) -> "Section":
        return cls([c if isinstance(c, Scalar) else Scalar.rational(c) for c in coeffs])

    @classmethod
    def zero(cls, rank: int) -> "Section":
        return cls._of(rank, ())

    @classmethod
    def basis(cls, index: int, rank: int) -> "Section":
        if not 0 <= index < rank:
            raise ValueError(f"basis index {index} out of range for rank {rank}")
        return cls._of(rank, ((index, ONE),))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        values = dict(self.entries)
        return tuple([values.get(i, ZERO) for i in range(self.rank)])

    def is_zero(self) -> bool:
        return not self.entries

    def _merge(self, other: "Section", op: Callable) -> "Section":
        """op(self, other) coefficientwise, on the indices other holds."""
        if self.rank != other.rank:
            raise ValueError(f"sections of rank {self.rank} and {other.rank}")
        if not other.entries:
            return self
        merged = dict(self.entries)
        for i, c in other.entries:
            merged[i] = op(merged.get(i, ZERO), c)
        return _section(self.rank, merged)

    def __add__(self, other: "Section") -> "Section":
        return self._merge(other, add)

    def __sub__(self, other: "Section") -> "Section":
        return self._merge(other, sub)

    def __neg__(self) -> "Section":
        return Section._of(self.rank, tuple([(i, -c) for i, c in self.entries]))

    def scale(self, f: Scalar) -> "Section":
        # ℚ[x] has no zero divisors: f·c ≠ 0 for f ≠ 0 and c ≠ 0
        if not f.terms:
            return Section._of(self.rank, ())
        return Section._of(self.rank, tuple([(i, f * c) for i, c in self.entries]))

    def __eq__(self, other) -> bool:
        return (other.__class__ is Section and self.rank == other.rank
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

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
        self.bracket_table, self._table_rows = {}, tuple({} for _ in range(rank))
        for (i, j), sec in bracket_table.items():
            if not (0 <= i < rank and 0 <= j < rank):
                raise SpecInvariantError(f"bracket index ({i},{j}) out of range")
            self.validate_section(sec, f"bracket entry ({i},{j})")
            if not sec.is_zero():
                self.bracket_table[(i, j)] = sec
                self._table_rows[i][j] = sec.entries
        self._gram_rows = tuple(_sparse(enumerate(row)) for row in gram.entries)
        self._anchor_rows = (None if anchor is None else
                             tuple(_sparse(enumerate(row)) for row in anchor.entries))
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
        if sec.rank != self.rank:
            raise SpecInvariantError(f"{what} has length {sec.rank}, want {self.rank}")
        nvars = self.nvars
        polynomial = False
        for _, c in sec.entries:
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
            inv = tuple(_sparse(enumerate(row)) for row in self.gram.inverse().entries)
            columns = () if self.anchor is None else zip(*self.anchor.entries)
            self._solve = inv, tuple(_sparse(_combine(inv, enumerate(col)).items())
                                     for col in columns)
        return self._solve

    def table_bracket(self, i: int, j: int) -> Section:
        return self.bracket_table.get((i, j), Section.zero(self.rank))

    def basis_sections(self) -> list[Section]:
        return [Section.basis(i, self.rank) for i in range(self.rank)]


def _sparse(pairs: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
    return {k: e for k, e in pairs if e.terms}


def _section(rank: int, acc: dict[int, Scalar]) -> Section:
    """The section of rank ``rank`` with the coefficients {index: value}."""
    return Section._of(rank, tuple([(k, acc[k]) for k in sorted(acc) if acc[k].terms]))


def _combine(rows: Sequence[dict], pairs: Iterable[tuple[int, Scalar]]) -> dict[int, Scalar]:
    """Σⱼ cⱼ·rows[j] over sparse rows, for the pairs (j, cⱼ)."""
    out: dict[int, Scalar] = {}
    for j, c in pairs:
        for k, entry in rows[j].items():
            out[k] = out.get(k, ZERO) + c * entry
    return out


def _tabled(fn: Callable) -> Callable:
    """fn behind a table keyed by its exact argument tuple: each distinct
    tuple is evaluated once for as long as the returned map lives."""
    values: dict = {}

    def lookup(*args):
        try:
            return values[args]
        except KeyError:
            value = values[args] = fn(*args)
            return value

    return lookup


# -- pairing and anchor ------------------------------------------------------


def pairing(spec: AlgebroidSpec, phi: Section, psi: Section) -> Scalar:
    """⟨φ,ψ⟩ = φᵀ·gram·ψ; symmetric and R-bilinear."""
    spec.validate_section(phi)
    spec.validate_section(psi)
    total = ZERO
    for i, fi in phi.entries:
        row = spec._gram_rows[i]
        for j, gj in psi.entries:
            entry = row.get(j)
            if entry is not None:
                total = total + fi * entry * gj
    return total


def anchor_apply(spec: AlgebroidSpec, psi: Section) -> tuple[Scalar, ...]:
    """ρ(ψ) as a base vector field: n polynomial coefficients on ∂_1..∂_n."""
    spec.validate_section(psi)
    return _anchor_apply(spec, psi)


def _anchor_apply(spec: AlgebroidSpec, psi: Section) -> tuple[Scalar, ...]:
    """anchor_apply on a section the caller has already validated."""
    if spec._anchor_rows is None:
        return (ZERO,) * spec.nvars
    out = _combine(spec._anchor_rows, psi.entries)
    return tuple([out.get(j, ZERO) for j in range(spec.nvars)])


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
    zero_base = spec.is_point() or spec.anchor is None
    if zero_base and any(c.terms for c in xi):
        raise SpecInvariantError(
            "no nonzero one-forms exist over this base; only ξ=0 is allowed")
    if len(xi) != spec.nvars:
        raise ValueError(f"one-form needs {spec.nvars} coefficients")
    if zero_base:
        return Section.zero(spec.rank)
    return _section(spec.rank, _combine(spec._back_solve()[1], _sparse(enumerate(xi)).items()))


def d0(spec: AlgebroidSpec, f: Scalar) -> Section:
    """The derivation D₀: f ↦ ρ*(df) = Σⱼ ∂ⱼf·D₀(xⱼ), combined as in
    rho_star.  Zero over a point, without an anchor and on constants, none
    of which builds the back-solve."""
    if spec.is_point() or spec.anchor is None or f.is_rational():
        return Section.zero(spec.rank)
    df = _sparse((j, f.partial(j)) for j in range(min(spec.nvars, f.max_var_index + 1)))
    return _section(spec.rank, _combine(spec._back_solve()[1], df.items()))


def d0_generator(spec: AlgebroidSpec, j: int) -> Section:
    """D₀(x_{j+1}) = ρ*(dx_{j+1}), row j of the back-solve's D₀ rows; zero
    without an anchor.  j must name a variable, 0 ≤ j < nvars."""
    if not 0 <= j < spec.nvars:
        raise ValueError(f"variable index {j} out of range for "
                         f"{spec.nvars} variable(s)")
    if spec.anchor is None:
        return Section.zero(spec.rank)
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

    Hence the anchor Leibniz rule [φ, f·ψ] = ρ(φ)f·ψ + f·[φ,ψ] holds exactly
    on every structure; the suites and the induced algebroid report their
    leibniz rows from this proof.  Expand f·ψ = Σⱼ (f·gⱼ)eⱼ: the table sum is
    f times ψ's; the right-rule sum Σⱼ ρ(φ)[f·gⱼ]·eⱼ gains exactly ρ(φ)f·ψ
    over f times ψ's, ρ(φ) being a derivation; the left-rule sum is
    ℚ[x]-linear in ψ, as ρ(ψ) and ⟨eᵢ,ψ⟩ are.  The skipped terms are zero (a
    vector field or d0 on a constant), and without an anchor ρ and d0 vanish.
    """
    phi_polynomial = spec.validate_section(phi)
    psi_polynomial = spec.validate_section(psi)
    out: dict[int, Scalar] = {}
    for i, fi in phi.entries:
        table_row = spec._table_rows[i]
        for j, gj in psi.entries:
            entry = table_row.get(j)
            if entry is not None:
                fg = fi * gj
                for k, ck in entry:
                    out[k] = out.get(k, ZERO) + fg * ck
    if spec._anchor_rows is not None:
        if psi_polynomial:
            rho_phi = _anchor_apply(spec, phi)
            for j, gj in psi.entries:
                if not gj.is_rational():
                    out[j] = out.get(j, ZERO) + apply_vector_field(rho_phi, gj)
        if phi_polynomial:
            rho_psi = _anchor_apply(spec, psi)
            for i, fi in phi.entries:
                if fi.is_rational():
                    continue
                out[i] = out.get(i, ZERO) - apply_vector_field(rho_psi, fi)
                row = spec._gram_rows[i]  # ⟨eᵢ,ψ⟩ over ψ's entries
                gram_pair = sum((row[j] * gj for j, gj in psi.entries if j in row), ZERO)
                if gram_pair.terms:
                    for k, ck in d0(spec, fi).entries:
                        out[k] = out.get(k, ZERO) + gram_pair * ck
    return _section(spec.rank, out)


def anchor_morphism_defect(spec: AlgebroidSpec, phi: Section,
                           psi: Section) -> tuple[Scalar, ...]:
    """ρ[φ,ψ] − [ρφ, ρψ]_TM; vanishes on every valid twisted structure."""
    return _anchor_morphism_defect(spec, partial(bracket, spec), phi, psi)


def _anchor_morphism_defect(spec: AlgebroidSpec, br: Callable, phi: Section,
                            psi: Section) -> tuple[Scalar, ...]:
    """anchor_morphism_defect with the bracket read as br(φ, ψ): componentwise
    ρ[φ,ψ]ⱼ − X(Yⱼ) + Y(Xⱼ), the base vector fields being X = ρφ and Y = ρψ."""
    lhs = anchor_apply(spec, br(phi, psi))
    x, y = anchor_apply(spec, phi), anchor_apply(spec, psi)
    return tuple(c - apply_vector_field(x, y[j]) + apply_vector_field(y, x[j])
                 for j, c in enumerate(lhs))


def jacobiator(spec: AlgebroidSpec, phi: Section, psi1: Section,
               psi2: Section) -> Section:
    """[φ,[ψ₁,ψ₂]] − [[φ,ψ₁],ψ₂] − [ψ₁,[φ,ψ₂]] (zero iff Jacobi holds)."""
    return _jacobiator(partial(bracket, spec), phi, psi1, psi2)


def _jacobiator(br: Callable, phi: Section, psi1: Section,
                psi2: Section) -> Section:
    """jacobiator with the bracket read as br(φ, ψ)."""
    return br(phi, br(psi1, psi2)) - br(br(phi, psi1), psi2) - br(psi1, br(phi, psi2))
