"""Independent oracles used to freeze expected values.

Each oracle is a separate implementation path from the package code it
checks:

  * the Dorfman oracle works on vector-calculus components;
  * the Chevalley–Eilenberg oracle works in dual coordinates with explicit
    Koszul bookkeeping;
  * `det_pairing` pairs a form with sections by one determinant per wedge,
    where the kernel inserts the sections slot by slot and takes none;
  * the subset-insertion oracle evaluates the twist insertion through
    det_pairing and the compound of gram⁻¹ instead of the derivation
    extension;
  * the Gram-solve splitting evaluates α̃ on each call through det_pairing
    instead of slot insertion;
  * the constant block of a subbundle is found by trying column
    combinations until a minor is nonzero instead of by elimination;
  * the independence of subbundle generators is decided by trying every
    g×g minor instead of by one Cauchy–Binet determinant;
  * the dense bracket, pairing and anchor loops read every entry of the
    Gram, anchor and table matrices instead of the spec's nonzero rows;
  * the inertia of a constant symmetric matrix comes from a symmetric
    pivoting elimination instead of Descartes' rule on the characteristic
    polynomial;
  * a frame change builds the moved structure's table through the dense
    bracket and T⁻¹ instead of through the kernel's bracket.
"""

from __future__ import annotations

import itertools

from courantkit.exact import Matrix, Scalar, ZERO, wedge_indices
from courantkit.kerforms import KerForm, tilde_split_basis
from courantkit.structure import AlgebroidSpec, Section, apply_vector_field, d0


class NoConstantBlock(Exception):
    """No g×g minor over the constant columns is nonzero."""


def _vf_apply(field, f: Scalar) -> Scalar:
    total = ZERO
    for j, coeff in enumerate(field):
        if not coeff.is_zero():
            total = total + coeff * f.partial(j)
    return total


def dorfman_standard(n: int, phi: Section, psi: Section) -> Section:
    """[X+ξ, Y+η] = [X,Y] + L_X η − ι_Y dξ, computed componentwise.

    (L_X η)_j = X(η_j) + η_k ∂_j X^k;  (ι_Y dξ)_j = Y^k (∂_k ξ_j − ∂_j ξ_k).
    """
    X, xi = phi.coeffs[:n], phi.coeffs[n:]
    Y, eta = psi.coeffs[:n], psi.coeffs[n:]
    xy = [_vf_apply(X, Y[j]) - _vf_apply(Y, X[j]) for j in range(n)]
    lx_eta = []
    for j in range(n):
        val = _vf_apply(X, eta[j])
        for k in range(n):
            val = val + eta[k] * X[k].partial(j)
        lx_eta.append(val)
    iy_dxi = []
    for j in range(n):
        val = ZERO
        for k in range(n):
            val = val + Y[k] * (xi[j].partial(k) - xi[k].partial(j))
        iy_dxi.append(val)
    return Section(tuple(xy) + tuple(a - b for a, b in zip(lx_eta, iy_dxi)))


def ce_dual_matrix(rank: int, structure, p: int) -> Matrix:
    """Chevalley–Eilenberg differential Λ^p g* → Λ^{p+1} g* in dual coordinates.

    ``structure(i, j)`` returns the coefficient list of [e_i, e_j].  Entry
    M[J][I] is (d ε_I)(e_J) = Σ_{a<b} (−1)^{a+b} ε_I([e_{J_a},e_{J_b}] ∧ rest).
    """
    source = wedge_indices(rank, p)
    target = wedge_indices(rank, p + 1)
    src_pos = {w: c for c, w in enumerate(source)}
    grid = [[ZERO] * len(source) for _ in target]
    for r, J in enumerate(target):
        for a, b in itertools.combinations(range(p + 1), 2):
            coeffs = structure(J[a], J[b]).coeffs
            rest = tuple(J[m] for m in range(p + 1) if m != a and m != b)
            sign_ab = 1 if (a + b) % 2 == 0 else -1
            for k, ck in enumerate(coeffs):
                if ck.is_zero() or k in rest:
                    continue
                merged = (k,) + rest
                idx = sorted(merged)
                swaps = sum(1 for x in rest if x < k)
                sign = sign_ab * (1 if swaps % 2 == 0 else -1)
                col = src_pos.get(tuple(idx))
                if col is None:
                    continue
                grid[r][col] = grid[r][col] + (ck if sign > 0 else -ck)
    return Matrix(grid) if target else Matrix.zeros(0, len(source))


def compound(m: Matrix, rows_deg: int, cols_deg: int | None = None) -> Matrix:
    """Compound matrix of minors det(m[I,J]) over increasing index tuples."""
    cols_deg = rows_deg if cols_deg is None else cols_deg
    rows = wedge_indices(m.rows, rows_deg)
    cols = wedge_indices(m.cols, cols_deg)
    grid = []
    for I in rows:
        grid.append([Matrix([[m.entries[r][c] for c in J] for r in I]).det()
                     for J in cols])
    return Matrix(grid) if rows else Matrix.zeros(0, len(cols))


def det_pairing(spec: AlgebroidSpec, form: KerForm,
                sections: list[Section]) -> Scalar:
    """⟨form, ψ1∧…∧ψp⟩ = Σ_I form_I·det(⟨e_{I_a}, ψ_b⟩), one determinant per
    wedge of the form."""
    if len(sections) != form.degree:
        raise ValueError("wrong number of sections for this degree")
    if form.degree == 0:
        return form.as_scalar()
    gram_cols = [spec.gram.matvec(list(sec.coeffs)) for sec in sections]
    total = ZERO
    for I, value in form.coeffs.items():
        grid = Matrix([[gram_cols[b][a] for b in range(len(sections))] for a in I])
        det = grid.det()
        if not det.is_zero():
            total = total + value * det
    return total


def naive_matrix_from_ce(spec: AlgebroidSpec, p: int) -> Matrix:
    """Transport the dual-coordinate CE matrix to the multivector picture:
    N = G_{p+1}⁻¹ · M_dual · G_p with G_q the Λ-Gram compound."""
    dual = ce_dual_matrix(spec.rank, spec.table_bracket, p)
    g_p = compound(spec.gram, p)
    g_next_inv = compound(spec.gram.inverse(), p + 1)
    if dual.rows == 0:
        return Matrix.zeros(0, g_p.cols)
    return g_next_inv.matmul(dual.matmul(g_p))


def ins_subset_oracle(spec: AlgebroidSpec, form: KerForm) -> KerForm:
    """Antisymmetrised 3-subset insertion of the twist's splitting.

    ⟨ins α, e_J⟩ = Σ_{a<b<c} (−1)^{a+b+c} ⟨α, H̃(e_{J_a},e_{J_b},e_{J_c}) ∧ rest⟩,
    solved back through the Λ-Gram system.
    """
    p = form.degree
    target = wedge_indices(spec.rank, p + 2)
    values = {}
    for J in target:
        val = ZERO
        for a, b, c in itertools.combinations(range(p + 2), 3):
            h_val = tilde_split_basis(spec, spec.twist, (J[a], J[b], J[c]))
            if h_val.is_zero():
                continue
            rest = tuple(J[m] for m in range(p + 2) if m not in (a, b, c))
            term = det_pairing(spec, form, [h_val] + [Section.basis(r, spec.rank)
                                                      for r in rest])
            if term.is_zero():
                continue
            val = val + term if (a + b + c) % 2 == 0 else val - term
        if not val.is_zero():
            values[J] = val
    inv = compound(spec.gram.inverse(), p + 2)
    coeffs = {}
    for r, I in enumerate(target):
        total = ZERO
        for J, val in values.items():
            w = inv.entries[r][target.index(J)]
            if not w.is_zero():
                total = total + w * val
        if not total.is_zero():
            coeffs[I] = total
    return KerForm(spec, p + 2, coeffs)


def gram_solve_split(spec: AlgebroidSpec, form: KerForm):
    """α̃ solved through the Gram system on every call.

    ⟨α̃(ψ1,…,ψ_{p−1}), e_j⟩ = ⟨α, ψ1∧…∧ψ_{p−1}∧e_j⟩ by determinant pairings
    of the given sections, then α̃ = gram⁻¹·w.
    """
    gram_inv = spec.gram_inverse()

    def split(*sections: Section) -> Section:
        w = [det_pairing(spec, form, list(sections) + [Section.basis(j, spec.rank)])
             for j in range(spec.rank)]
        return Section(gram_inv.matvec(w))

    return split


def constant_block_by_minors(sub) -> tuple[tuple[int, ...], Matrix]:
    """The lexicographically first constant-column block of a subbundle's
    generator matrix with a nonzero determinant, and its inverse."""
    constant_cols = [c for c in range(sub.spec.rank)
                     if all(gen.coeffs[c].is_rational() for gen in sub.generators)]
    for cols in itertools.combinations(constant_cols, sub.dim):
        block = Matrix([[gen.coeffs[c] for c in cols] for gen in sub.generators])
        if not block.det().is_zero():
            return cols, block.inverse()
    raise NoConstantBlock


def independent_by_minors(generators) -> bool:
    """Whether some g×g minor of the generator matrix is a nonzero
    polynomial, trying the column combinations one by one."""
    rank = generators[0].rank
    return any(not Matrix([[gen.coeffs[c] for c in cols]
                           for gen in generators]).det().is_zero()
               for cols in itertools.combinations(range(rank), len(generators)))


# -- dense reference loops of the bracket kernel --------------------------------


def dense_pairing(spec: AlgebroidSpec, phi: Section, psi: Section) -> Scalar:
    """φᵀ·gram·ψ over every Gram entry."""
    total = ZERO
    for i, fi in enumerate(phi.coeffs):
        if fi.is_zero():
            continue
        row = spec.gram.entries[i]
        for j, gj in enumerate(psi.coeffs):
            if gj.is_zero() or row[j].is_zero():
                continue
            total = total + fi * row[j] * gj
    return total


def dense_anchor_apply(spec: AlgebroidSpec, psi: Section) -> tuple[Scalar, ...]:
    """ρ(ψ) over every anchor entry."""
    out = [ZERO] * spec.nvars
    if spec.anchor is None:
        return tuple(out)
    for i, ci in enumerate(psi.coeffs):
        if ci.is_zero():
            continue
        row = spec.anchor.entries[i]
        for j in range(spec.nvars):
            if not row[j].is_zero():
                out[j] = out[j] + ci * row[j]
    return tuple(out)


def dense_bracket(spec: AlgebroidSpec, phi: Section, psi: Section) -> Section:
    """[φ,ψ] by the Leibniz expansion over every table and Gram entry."""
    rank = spec.rank
    out = [ZERO] * rank
    point = spec.is_point() or spec.anchor is None
    if not point:
        rho_phi = dense_anchor_apply(spec, phi)
        rho_psi = dense_anchor_apply(spec, psi)
        for j, gj in enumerate(psi.coeffs):
            if not gj.is_rational():
                out[j] = out[j] + apply_vector_field(rho_phi, gj)
        for i, fi in enumerate(phi.coeffs):
            if not fi.is_rational():
                out[i] = out[i] - apply_vector_field(rho_psi, fi)
    for i, fi in enumerate(phi.coeffs):
        if fi.is_zero():
            continue
        for j, gj in enumerate(psi.coeffs):
            if gj.is_zero():
                continue
            entry = spec.bracket_table.get((i, j))
            if entry is not None:
                fg = fi * gj
                for k, ck in enumerate(entry.coeffs):
                    if not ck.is_zero():
                        out[k] = out[k] + fg * ck
        if not point and not fi.is_rational():
            gram_pair = ZERO
            row = spec.gram.entries[i]
            for j, gj in enumerate(psi.coeffs):
                if not gj.is_zero() and not row[j].is_zero():
                    gram_pair = gram_pair + row[j] * gj
            if not gram_pair.is_zero():
                dfi = d0(spec, fi)
                for k, ck in enumerate(dfi.coeffs):
                    if not ck.is_zero():
                        out[k] = out[k] + gram_pair * ck
    return Section(tuple(out))


# -- inertia and frame changes ----------------------------------------------------


def ldl_inertia(gram: Matrix) -> tuple[int, int]:
    """(positive, negative) inertia of a constant symmetric matrix by a
    symmetric elimination: congruence moves that keep the inertia, pivoting
    on a nonzero diagonal entry, or first adding a row and column with a
    nonzero off-diagonal entry to one with a zero diagonal."""
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


def frame_change(spec: AlgebroidSpec, T: Matrix) -> AlgebroidSpec:
    """An untwisted structure in the frame e′ᵢ = Σₖ Tₖᵢ·eₖ, for T whose
    determinant is a nonzero constant: Gram′ = TᵀGT, anchor′ = Tᵀ·anchor
    and [e′ᵢ, e′ⱼ] = T⁻¹·[Teᵢ, Teⱼ]."""
    if spec.twist is not None:
        raise ValueError("frame_change moves untwisted structures only")
    Tt, T_inv = T.transpose(), T.inverse()
    columns = [Section(col) for col in Tt.entries]
    table = {(i, j): Section(T_inv.matvec(dense_bracket(spec, a, b).coeffs))
             for i, a in enumerate(columns) for j, b in enumerate(columns)}
    return AlgebroidSpec(
        spec.ring, spec.nvars, spec.rank, Tt.matmul(spec.gram.matmul(T)),
        None if spec.anchor is None else Tt.matmul(spec.anchor), table,
        kind=spec.kind)
