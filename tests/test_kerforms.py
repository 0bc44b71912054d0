"""Tests for ker-ρ forms, the covariant derivative, splitting, and insertion."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import corrupt_gram, corrupt_twist
from oracles import compound, det_pairing, gram_solve_split, ins_subset_oracle

from courantkit.exact import Matrix, ONE, Scalar, ZERO, wedge_indices
from courantkit.kerforms import (
    KerForm,
    UncertifiedFormError,
    _coordinates,
    basis_wedge_form,
    contract,
    cov_derivative,
    d_squared,
    eval_covariant,
    ins_h,
    kerform_basis,
    leibniz_defect,
    monomials,
    pair_basis,
    pair_sections,
    rho_tilde,
    scalar_form,
    section_form,
    solve_wedge_values,
    split_table,
    split_value,
    tilde_split,
    tilde_split_basis,
    zero_form,
)
from courantkit.rand import rand_scalar, rand_section, rand_wedge_coeffs
from courantkit.structure import Section, SpecInvariantError
from courantkit.twist import base_form, make_point, make_standard, pullback

x = Scalar.variable


class TestRhoTilde:
    def test_point_everything_in_kernel(self, so3):
        form = basis_wedge_form(so3, (0, 1))
        assert rho_tilde(so3, form) == {}
        assert form.certified

    def test_cotangent_wedge_in_kernel(self, std2):
        form = basis_wedge_form(std2, (2, 3))
        assert rho_tilde(std2, form) == {}

    def test_mixed_wedge_image(self, std2):
        # ∂1 ∧ dx1: the single surviving term is ∂1 ⊗ dx1
        form = basis_wedge_form(std2, (0, 2))
        image = rho_tilde(std2, form)
        assert image == {(0, (2,)): ONE}
        assert not form.certified

    def test_degree_zero_rejected(self, std2):
        with pytest.raises(ValueError, match="degree"):
            rho_tilde(std2, zero_form(std2, 0))

    def test_cancelled_component_is_dropped(self, std2):
        # with anchor row 1 equal to row 0, the ∂1 ⊗ e2 terms of e0∧e2 and
        # −e1∧e2 cancel: the sum leaves no entry, not a stored zero
        from courantkit.structure import AlgebroidSpec

        rows = [list(r) for r in std2.anchor.entries]
        rows[1] = list(rows[0])
        spec = AlgebroidSpec("polynomial", 2, 4, std2.gram, Matrix(rows), {})
        alpha = basis_wedge_form(spec, (0, 2)) - basis_wedge_form(spec, (1, 2))
        assert rho_tilde(spec, alpha) == {}
        assert alpha.certified


class TestKerformBasis:
    def test_point_full_exterior_power(self, split4):
        assert len(kerform_basis(split4, 3)) == 4

    def test_above_rank_empty(self, split4):
        assert kerform_basis(split4, 5) == []

    def test_standard_degree_one_truncated(self, std2):
        basis = kerform_basis(std2, 1, max_degree=0)
        keys = sorted(key for form in basis for key in form.coeffs)
        assert keys == [(2,), (3,)]  # dx1, dx2

    def test_truncation_required_over_polynomial(self, std2):
        with pytest.raises(ValueError, match="truncation"):
            kerform_basis(std2, 1)

    def test_members_certified(self, std2):
        for form in kerform_basis(std2, 2, max_degree=1):
            assert form.certified

    @pytest.mark.parametrize("name, degree, truncation", [
        ("ctwist4", 1, 1), ("ctwist4", 2, 1), ("std2", 2, 2)])
    def test_against_sympy_nullity(self, request, name, degree, truncation):
        sympy = pytest.importorskip("sympy")
        spec = request.getfixturevalue(name)
        basis = kerform_basis(spec, degree, max_degree=truncation)
        assert all(rho_tilde(spec, form) == {} for form in basis)
        # the ρ̃ coefficient matrix on the domain x^m·e_I, built here: one
        # row per (vector field index, wedge, monomial) in sorted order
        domain = [KerForm(spec, degree, {I: Scalar.monomial(m)})
                  for I in wedge_indices(spec.rank, degree)
                  for m in monomials(spec.nvars, truncation)]
        images = [rho_tilde(spec, form) for form in domain]
        axes = sorted({(key, exp) for image in images
                       for key, value in image.items() for exp in value.terms})
        rho_matrix = sympy.Matrix(len(axes), len(domain), lambda r, c: sympy.Rational(
            Fraction(images[c].get(axes[r][0], ZERO).terms.get(axes[r][1], 0))))
        assert len(basis) == len(domain) - rho_matrix.rank()
        coords = _coordinates([form.coeffs for form in basis])
        assert sympy.Matrix(coords).rank() == len(basis)

    def test_monomial_order(self):
        # every exponent tuple of total degree <= d, once, in increasing order
        for n, d in itertools.product(range(5), repeat=2):
            monos = monomials(n, d)
            assert len(monos) == math.comb(n + d, n)
            assert monos == sorted(set(monos))
            assert all(len(m) == n and sum(m) <= d for m in monos)


class TestContract:
    def test_full_contraction_identity_gram(self, so3):
        a = basis_wedge_form(so3, (0, 1))
        assert contract(so3, a, a).as_scalar() == ONE

    def test_first_slot_pairing(self, so3):
        a = basis_wedge_form(so3, (0, 1, 2))
        out = contract(so3, a, Section.basis(0, 3))
        assert out == basis_wedge_form(so3, (1, 2))

    def test_contract_by_exact_derivative_vanishes(self, std2):
        from courantkit.structure import d0

        alpha = basis_wedge_form(std2, (2, 3))
        assert alpha.certified
        chi = d0(std2, x(0) * x(1) + x(1))
        assert contract(std2, alpha, chi).is_zero()

    def test_degree_overflow(self, so3):
        a = basis_wedge_form(so3, (0,))
        with pytest.raises(ValueError, match="contract"):
            contract(so3, a, basis_wedge_form(so3, (0, 1)))


class TestCovDerivative:
    def test_so3_degree_one(self, so3):
        # ⟨De1, e2∧e3⟩ = −⟨e1,[e2,e3]⟩ = −1
        de1 = cov_derivative(so3, basis_wedge_form(so3, (0,)))
        assert de1 == basis_wedge_form(so3, (1, 2)).scale(Scalar.rational(-1))

    def test_constant_degree_zero(self, so3):
        f = KerForm(so3, 0, {(): Scalar.rational(7)})
        assert cov_derivative(so3, f).is_zero()

    def test_pullback_commutation(self, std2):
        # D(ρ*ξ) = ρ*(dξ) for ξ = x1 dx2
        from courantkit.twist import de_rham

        xi = base_form({(1,): x(0)})
        lhs = cov_derivative(std2, pullback(std2, xi, 1))
        rhs = pullback(std2, de_rham(xi, 2), 2)
        assert lhs == rhs == basis_wedge_form(std2, (2, 3))

    def test_uncertified_input_rejected(self, std2):
        bad = basis_wedge_form(std2, (0, 2))
        with pytest.raises(UncertifiedFormError):
            cov_derivative(std2, bad)

    def test_closure_into_kernel(self, std2, ctwist4):
        for spec in (std2, ctwist4):
            for form in kerform_basis(spec, 2, max_degree=1):
                assert cov_derivative(spec, form).certified


class TestLeibniz:
    def test_so3_pair(self, so3):
        a = basis_wedge_form(so3, (0,))
        assert leibniz_defect(so3, a, a).is_zero()

    def test_degree_zero_left(self, so3):
        f = KerForm(so3, 0, {(): Scalar.rational(3)})
        b = basis_wedge_form(so3, (1, 2))
        assert leibniz_defect(so3, f, b).is_zero()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_certified_pairs_over_point(self, split4, seed):
        rng = random.Random(seed)
        a = KerForm(split4, 1, rand_wedge_coeffs(rng, split4, 1))
        b = KerForm(split4, 2, rand_wedge_coeffs(rng, split4, 2))
        assert leibniz_defect(split4, a, b).is_zero()

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pairs_twisted(self, ctwist4, seed):
        rng = random.Random(seed)
        basis1 = kerform_basis(ctwist4, 1, max_degree=0)
        a = basis1[seed % len(basis1)]
        b = basis1[(seed + 1) % len(basis1)].wedge(basis1[(seed + 2) % len(basis1)])
        assert leibniz_defect(ctwist4, a, b).is_zero()


class TestTildeSplit:
    def test_worked_example_split_signature(self, split4):
        b = basis_wedge_form(split4, (0, 1, 2))
        assert tilde_split_basis(split4, b, (0, 1)) == Section.basis(2, 4)
        assert tilde_split(split4, b)(
            Section.basis(0, 4), Section.basis(1, 4)) == Section.basis(2, 4)

    def test_degree_one_is_identity(self, split4):
        form = basis_wedge_form(split4, (1,)).scale(Scalar.rational(3))
        assert tilde_split_basis(split4, form, ()) == Section.basis(
            1, 4).scale(Scalar.rational(3))

    def test_ctwist_twist_split(self, ctwist4):
        value = tilde_split_basis(ctwist4, ctwist4.twist, (0, 1, 2))
        assert value == Section.basis(7, 8)  # dx4

    def test_values_in_kernel_on_valid(self, ctwist4):
        from courantkit.structure import anchor_apply

        value = tilde_split_basis(ctwist4, ctwist4.twist, (0, 1, 3))
        assert all(c.is_zero() for c in anchor_apply(ctwist4, value))


class TestTildeSplitTable:
    """The splitting, sections inserted one slot at a time, equals the Gram
    solve on every call, exactly: on every ordered basis tuple (repeats
    included) and on seeded random polynomial tuples."""

    @staticmethod
    def cases(ctwist4, split4):
        def degree_3(spec):
            return (basis_wedge_form(spec, (0, 1, 2))
                    + basis_wedge_form(spec, (1, 2, 3)).scale(Scalar.rational(2))
                    - basis_wedge_form(spec, (0, 1, 3)))

        poly_gram = corrupt_gram(ctwist4, 0, x(0))
        # Gram rows with two nonzeros: each lowered slot mixes two indices
        block = TestWedgeMapAgainstMinors.specs()["point-block"]
        return {"ctwist4": (ctwist4, ctwist4.twist),
                "split4-degree-3": (split4, degree_3(split4)),
                "point-block-degree-3": (block, degree_3(block)),
                "ctwist4-polynomial-gram": (poly_gram, poly_gram.twist),
                "ctwist4-zero-form": (ctwist4, zero_form(ctwist4, 4))}

    @pytest.mark.parametrize("case", ["ctwist4", "split4-degree-3",
                                      "point-block-degree-3",
                                      "ctwist4-polynomial-gram",
                                      "ctwist4-zero-form"])
    def test_matches_gram_solve(self, ctwist4, split4, case):
        spec, form = self.cases(ctwist4, split4)[case]
        k = form.degree - 1
        table, reference = tilde_split(spec, form), gram_solve_split(spec, form)
        basis = spec.basis_sections()
        for idx in itertools.product(range(spec.rank), repeat=k):
            args = [basis[i] for i in idx]
            assert table(*args) == reference(*args), idx
        rng = random.Random(7)
        degree = 2 if spec.nvars else 0
        for _ in range(12):
            args = [rand_section(rng, spec, degree) for _ in range(k)]
            assert table(*args) == reference(*args), args

    def test_wrong_arity_rejected(self, ctwist4):
        with pytest.raises(ValueError, match="expected 3 sections"):
            tilde_split(ctwist4, ctwist4.twist)(Section.basis(0, 8))

    def test_invalid_sections_rejected(self, std2):
        # the split and contract validate sections as bracket and pairing do
        form = basis_wedge_form(std2, (0, 2))
        split = tilde_split(std2, form)
        with pytest.raises(SpecInvariantError, match="uses variable x5"):
            split(Section.make([x(4), 0, 1, 0]))
        with pytest.raises(SpecInvariantError, match="length 5, want 4"):
            split(Section.make([0, 0, 1, 0, 7]))
        with pytest.raises(SpecInvariantError, match="length 3, want 4"):
            contract(std2, form, Section.make([1, 0, 1]))
        with pytest.raises(SpecInvariantError, match="uses variable x5"):
            contract(std2, form, Section.make([x(4), 0, 1, 0]))

    @pytest.mark.parametrize("indices", [(5, 5), (5, 1), (1, -1)])
    def test_basis_indices_out_of_range(self, std2, indices):
        # a repeated index used to give the zero section before any range check
        alpha = basis_wedge_form(std2, (0, 1, 2))
        bad = next(i for i in indices if not 0 <= i < 4)
        message = f"wedge index {bad} out of range for rank 4"
        with pytest.raises(ValueError) as info:
            tilde_split_basis(std2, alpha, indices)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            basis_wedge_form(std2, indices)
        assert str(info.value) == message

    def test_repeated_basis_indices_in_range_vanish(self, std2):
        alpha = basis_wedge_form(std2, (0, 1, 2))
        assert basis_wedge_form(std2, (1, 1)).is_zero()
        assert tilde_split_basis(std2, alpha, (1, 1)).is_zero()


class TestSplitValue:
    """split_table with split_value equals the splitting on every ordered
    triple of its family, repeated indices included, unscaled and with one
    slot scaled by a variable; the table holds the nonzero values on the
    increasing triples only."""

    @staticmethod
    def agrees(spec, sections):
        split = tilde_split(spec, spec.twist)
        table = split_table(spec, spec.twist, sections)
        assert list(table) == [
            key for key in itertools.combinations(range(len(sections)), 3)
            if not split(*(sections[k] for k in key)).is_zero()]
        for ijk in itertools.product(range(len(sections)), repeat=3):
            args = [sections[k] for k in ijk]
            read = split_value(table.get, ijk, ONE)
            assert (read or Section.zero(spec.rank)) == split(*args), ijk
            for v in range(spec.nvars):
                slot = v % 3
                scaled = [a.scale(x(v)) if m == slot else a
                          for m, a in enumerate(args)]
                read = split_value(table.get, ijk, x(v))
                assert (read or Section.zero(spec.rank)) == split(*scaled), (ijk, v)
        return table

    def test_basis_family(self, ctwist4):
        table = self.agrees(ctwist4, ctwist4.basis_sections())
        assert table[(0, 1, 2)] == Section.basis(7, 8)

    def test_basis_family_corrupted_twist(self, ctwist4):
        spec = corrupt_twist(ctwist4, (0, 1, 2, 3), x(0))
        table = self.agrees(spec, spec.basis_sections())
        assert table != split_table(ctwist4, ctwist4.twist,
                                    ctwist4.basis_sections())

    def test_generator_family(self, ctwist4):
        # e1; e2; e3; e8 has one nonzero triple: H̃(e1,e2,e3) = e8
        gens = [Section.basis(i, 8) for i in (0, 1, 2, 7)]
        assert self.agrees(ctwist4, gens) == {(0, 1, 2): Section.basis(7, 8)}


class TestSquareAndInsertion:
    def test_degree_zero_squares_to_zero(self, ctwist4):
        f = KerForm(ctwist4, 0, {(): x(0) * x(3)})
        assert d_squared(ctwist4, f).is_zero()

    def test_untwisted_squares_to_zero(self, std2, so3):
        for spec, deg in ((std2, 1), (so3, 1), (so3, 2)):
            for form in kerform_basis(spec, deg, max_degree=0):
                assert d_squared(spec, form).is_zero()

    def test_degree_one_identity(self, ctwist4):
        for i in range(8):
            form = basis_wedge_form(ctwist4, (i,))
            if form.certified:
                assert d_squared(ctwist4, form) == ins_h(ctwist4, form)

    def test_derivation_rule(self, ctwist4):
        a = basis_wedge_form(ctwist4, (4, 5))
        b = basis_wedge_form(ctwist4, (6,))
        lhs = d_squared(ctwist4, a.wedge(b))
        rhs = d_squared(ctwist4, a).wedge(b) + a.wedge(d_squared(ctwist4, b))
        assert lhs == rhs

    def test_matches_subset_insertion_oracle(self, ctwist4):
        basis1 = kerform_basis(ctwist4, 1, max_degree=0)
        forms = [basis1[0], basis1[0].wedge(basis1[1]),
                 basis1[1].wedge(basis1[2]).wedge(basis1[3])]
        for form in forms:
            assert ins_h(ctwist4, form) == ins_subset_oracle(ctwist4, form)

    def test_all_degrees_identity_on_twisted(self, ctwist4):
        basis1 = kerform_basis(ctwist4, 1, max_degree=0)
        two = basis1[0].wedge(basis1[1])
        three = two.wedge(basis1[2])
        for form in (two, three):
            assert d_squared(ctwist4, form) == ins_h(ctwist4, form)

    def test_commutation_with_d_when_twist_closed(self, ctwist4):
        basis1 = kerform_basis(ctwist4, 1, max_degree=0)
        for form in (basis1[0], basis1[0].wedge(basis1[1])):
            lhs = cov_derivative(ctwist4, ins_h(ctwist4, form))
            rhs = ins_h(ctwist4, cov_derivative(ctwist4, form))
            assert lhs == rhs

    def test_commutation_on_point_twist_with_nonzero_curvature(self):
        # same commutation on a rank-5 point structure whose twist is a
        # genuinely nonzero closed 4-form
        from courantkit.exact import Matrix, ONE
        from courantkit.twist import make_point, twist_bracket

        entries = [[ONE if i == j and i < 3 else
                    (Scalar.rational(-1) if i == j else ZERO)
                    for j in range(5)] for i in range(5)]
        ab5 = make_point(5, Matrix(entries), {})
        rng = random.Random(0)
        b = KerForm(ab5, 3, rand_wedge_coeffs(rng, ab5, 3))
        twisted = twist_bracket(ab5, b)
        assert not twisted.twist.is_zero()
        assert cov_derivative(twisted, twisted.twist).is_zero()
        for i in range(5):
            form = basis_wedge_form(twisted, (i,))
            lhs = cov_derivative(twisted, ins_h(twisted, form))
            rhs = ins_h(twisted, cov_derivative(twisted, form))
            assert lhs == rhs

    def test_ins_needs_twist(self, std2):
        with pytest.raises(Exception, match="twist"):
            ins_h(std2, basis_wedge_form(std2, (2,)))


class TestAdjunction:
    @pytest.mark.parametrize("seed", range(6))
    def test_contract_is_adjoint_to_wedge(self, split4, seed):
        # ⟨contract(α,χ), η⟩ = ⟨α, χ∧η⟩ for random forms, χ of degree 1
        # and 2, on a diagonal Gram, a polynomial Gram (with polynomial
        # coefficients) and a Gram whose rows hold two nonzeros
        rng = random.Random(seed)
        specs = TestWedgeMapAgainstMinors.specs()
        for spec, poly in ((split4, 0), (specs["polynomial-gram"], 1),
                           (specs["point-block"], 0)):
            for k in (1, 2):
                a = KerForm(spec, 3, rand_wedge_coeffs(rng, spec, 3, poly))
                chi = KerForm(spec, k, rand_wedge_coeffs(rng, spec, k, poly))
                eta = KerForm(spec, 3 - k, rand_wedge_coeffs(rng, spec, 3 - k, poly))
                c = contract(spec, a, chi)
                if k == 1:
                    assert contract(spec, a, chi.as_section()) == c
                lhs = sum((v * pair_basis(spec, c, I)
                           for I, v in eta.coeffs.items()), ZERO)
                w = chi.wedge(eta)
                rhs = sum((v * pair_basis(spec, a, I)
                           for I, v in w.coeffs.items()), ZERO)
                assert lhs == rhs, (spec.gram, k)

    def test_derivative_first_sum_via_derivation(self, std2):
        # the ring/module reading routes the first sum through ⟨ψ, D₀·⟩;
        # on an anchored structure it must agree with the anchor reading
        import itertools

        from courantkit.exact import ZERO, wedge_indices
        from courantkit.structure import Section, d0, pairing

        def cd_eval(spec, form):
            p = form.degree
            values = {}
            for J in wedge_indices(spec.rank, p + 1):
                val = ZERO
                for pos, idx in enumerate(J):
                    rest = J[:pos] + J[pos + 1:]
                    inner = pair_basis(spec, form, rest)
                    term = pairing(spec, Section.basis(idx, spec.rank),
                                   d0(spec, inner))
                    val = val + term if pos % 2 == 0 else val - term
                for a, b in itertools.combinations(range(p + 1), 2):
                    sec = spec.table_bracket(J[a], J[b])
                    if sec.is_zero():
                        continue
                    rest = tuple(J[c] for c in range(p + 1) if c not in (a, b))
                    term = det_pairing(spec, form, [sec] + [
                        Section.basis(r, spec.rank) for r in rest])
                    val = val + term if (a + b) % 2 == 0 else val - term
                if not val.is_zero():
                    values[J] = val
            wedges = wedge_indices(spec.rank, p + 1)
            inv = compound(spec.gram.inverse(), p + 1)
            coeffs = {}
            for r, I in enumerate(wedges):
                tot = ZERO
                for J, v in values.items():
                    weight = inv.entries[r][wedges.index(J)]
                    if not weight.is_zero():
                        tot = tot + weight * v
                if not tot.is_zero():
                    coeffs[I] = tot
            return KerForm(spec, p + 1, coeffs)

        for form in (kerform_basis(std2, 1, max_degree=1)
                     + kerform_basis(std2, 2, max_degree=1)):
            assert cd_eval(std2, form) == cov_derivative(std2, form)


class TestWedgeMapAgainstMinors:
    """Pairing with basis wedges and the Λ-Gram back-solve, which run
    slotwise over sparse Gram rows, equal the compound matrices of minors of
    gram and gram⁻¹ in every degree from 0 to the rank."""

    @staticmethod
    def specs():
        # gram⁻¹ of the corrupted std2 is polynomial; the point Gram has a
        # 2×2 block with off-diagonal entries, so rows hold two nonzeros
        block = Matrix([[Scalar.rational(v) for v in row] for row in
                        ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))])
        return {"polynomial-gram": corrupt_gram(make_standard(2), 0, x(0)),
                "point-block": make_point(4, block, {})}

    @pytest.mark.parametrize("name", ["polynomial-gram", "point-block"])
    def test_pairing_and_back_solve(self, name):
        spec = self.specs()[name]
        rng = random.Random(3)
        for p in range(spec.rank + 1):
            wedges = wedge_indices(spec.rank, p)
            gram_p = compound(spec.gram, p)
            inv_p = compound(spec.gram.inverse(), p)
            for r, I in enumerate(wedges):
                form = basis_wedge_form(spec, I)
                for c, J in enumerate(wedges):
                    assert pair_basis(spec, form, J) == gram_p.entries[r][c], (I, J)
            values = rand_wedge_coeffs(rng, spec, p, 1)
            coeffs = {}
            for r, I in enumerate(wedges):
                total = ZERO
                for c, J in enumerate(wedges):
                    if J in values:
                        total = total + inv_p.entries[r][c] * values[J]
                coeffs[I] = total
            assert solve_wedge_values(spec, p, values) == KerForm(spec, p, coeffs)

    def test_cov_derivative_matches_minors(self):
        spec = self.specs()["polynomial-gram"]
        oracle = MinorsCovariant(spec)
        forms = [scalar_form(spec, x(0) * x(1))] + [
            form for p in range(spec.rank)
            for form in kerform_basis(spec, p, max_degree=2)]
        assert {form.degree for form in forms} == {0, 1, 2}
        images = [cov_derivative(spec, form) for form in forms]
        assert sum(not image.is_zero() for image in images) >= 5
        for form, image in zip(forms, images):
            assert image == oracle(form, spec.bracket_table, True), form
        # the same evaluator on uncertified forms, whose pairings reach the
        # polynomial Gram entry
        rng = random.Random(5)
        forms = [KerForm(spec, p, rand_wedge_coeffs(rng, spec, p, 2))
                 for p in range(spec.rank) for _ in range(2)]
        images = [eval_covariant(spec, form, spec.bracket_table, True)
                  for form in forms]
        assert sum(not image.is_zero() for image in images) >= 4
        for form, image in zip(forms, images):
            assert image == oracle(form, spec.bracket_table, True), form

    @pytest.mark.parametrize("name", ["sl3", "so3_plus_so3"])
    def test_every_basis_form_on_point_algebras(self, request, name):
        # sl(3)'s trace form has off-diagonal Gram rows
        spec = request.getfixturevalue(name)
        oracle = MinorsCovariant(spec)
        nonzero = 0
        for p in range(spec.rank + 1):
            for I in wedge_indices(spec.rank, p):
                form = basis_wedge_form(spec, I)
                image = eval_covariant(spec, form, spec.bracket_table, True)
                assert image == oracle(form, spec.bracket_table, True), I
                nonzero += not image.is_zero()
        assert nonzero >= 32

    def test_split_tables_without_anchor(self, so3_plus_so3):
        std4 = make_standard(4)
        rng = random.Random(7)
        cases = [(std4, pullback(std4, base_form({(1, 2, 3): x(0)}), 3)),
                 (so3_plus_so3, KerForm(so3_plus_so3, 3,
                                        rand_wedge_coeffs(rng, so3_plus_so3, 3)))]
        for spec, b in cases:
            table = split_table(spec, b, spec.basis_sections())
            assert table
            oracle = MinorsCovariant(spec)
            forms = [b] + [KerForm(spec, p, rand_wedge_coeffs(rng, spec, p, 1))
                           for p in range(5)]
            images = [eval_covariant(spec, form, table, False) for form in forms]
            assert sum(not image.is_zero() for image in images) >= 4
            for form, image in zip(forms, images):
                assert image == oracle(form, table, False), form

    def test_random_certified_forms_on_ctwist(self, ctwist4):
        # polynomial multiples of certified forms stay certified, and their
        # non-constant pairings reach the anchor term
        oracle = MinorsCovariant(ctwist4)
        rng = random.Random(11)
        anchored = 0
        for p in range(4):
            basis = kerform_basis(ctwist4, p, max_degree=0)
            for _ in range(2):
                form = zero_form(ctwist4, p)
                for b in rng.sample(basis, min(3, len(basis))):
                    form = form + b.scale(rand_scalar(rng, ctwist4.nvars, 2))
                assert form.certified and not form.is_zero()
                image = cov_derivative(ctwist4, form)
                assert image == oracle(form, ctwist4.bracket_table, True), form
                anchored += image != oracle(form, ctwist4.bracket_table, False)
        assert anchored >= 6


class MinorsCovariant:
    """eval_covariant by minors: ⟨α, e_cols⟩ = Σ_I α_I·det(gram[I, cols])
    for every basis wedge of degree p+1 and every slot pair, solved back
    through the compound matrix of gram⁻¹; each compound is built once."""

    def __init__(self, spec):
        self.spec = spec
        self.matrices = {False: spec.gram, True: spec.gram.inverse()}
        self.compounds = {}

    def compound(self, inverse, p):
        if (inverse, p) not in self.compounds:
            self.compounds[inverse, p] = compound(self.matrices[inverse], p)
        return self.compounds[inverse, p]

    def paired(self, form, cols):
        # sign-normalised; a repeated column pairs to zero
        key = tuple(sorted(cols))
        if len(set(key)) < len(key):
            return ZERO
        sign = 1
        for a, b in itertools.combinations(cols, 2):
            sign = -sign if a > b else sign
        wedges = wedge_indices(self.spec.rank, form.degree)
        gram_p = self.compound(False, form.degree)
        col = wedges.index(key)
        total = ZERO
        for I, v in form.coeffs.items():
            total = total + v * gram_p.entries[wedges.index(I)][col]
        return total if sign > 0 else -total

    def __call__(self, form, brackets, use_anchor):
        spec, p = self.spec, form.degree
        anchored = use_anchor and spec.anchor is not None
        values = {}
        for J in wedge_indices(spec.rank, p + 1):
            val = ZERO
            for pos, idx in enumerate(J if anchored else ()):
                inner = self.paired(form, J[:pos] + J[pos + 1:])
                term = ZERO
                for j, coeff in enumerate(spec.anchor.entries[idx]):
                    term = term + coeff * inner.partial(j)
                val = val + term if pos % 2 == 0 else val - term
            for a, b in itertools.combinations(range(p + 1), 2):
                sec = brackets.get((J[a], J[b]), Section.zero(spec.rank))
                rest = tuple(J[c] for c in range(p + 1) if c not in (a, b))
                term = ZERO
                for m, cm in enumerate(sec.coeffs):
                    if not cm.is_zero():
                        term = term + cm * self.paired(form, (m,) + rest)
                val = val + term if (a + b) % 2 == 0 else val - term
            if not val.is_zero():
                values[J] = val
        wedges = wedge_indices(spec.rank, p + 1)
        inv = self.compound(True, p + 1)
        coeffs = {}
        for r, I in enumerate(wedges):
            total = ZERO
            for J, v in values.items():
                total = total + inv.entries[r][wedges.index(J)] * v
            coeffs[I] = total
        return KerForm(spec, p + 1, coeffs)


class TestPairingAgainstDeterminants:
    """pair_sections and pair_basis, which insert the sections slot by slot,
    equal one determinant per wedge (oracles.det_pairing) in every degree
    from 0 to the rank: on random polynomial sections and on unsorted and
    repeated basis columns."""

    @staticmethod
    def specs(ctwist4):
        minors = TestWedgeMapAgainstMinors.specs()
        return {"ctwist4": ctwist4,
                "polynomial-gram": minors["polynomial-gram"],
                "point-block": minors["point-block"]}

    @pytest.mark.parametrize("name", ["ctwist4", "polynomial-gram", "point-block"])
    def test_matches_det_pairing(self, ctwist4, name):
        spec = self.specs(ctwist4)[name]
        rng = random.Random(13)
        poly = 1 if spec.nvars else 0
        basis = spec.basis_sections()
        for p in range(spec.rank + 1):
            form = KerForm(spec, p, rand_wedge_coeffs(rng, spec, p, poly))
            for _ in range(2):
                sections = [rand_section(rng, spec, poly) for _ in range(p)]
                assert pair_sections(spec, form, sections) == \
                    det_pairing(spec, form, sections), (p, sections)
            unsorted = rng.sample(range(spec.rank), p)
            column_sets = [unsorted, unsorted[::-1]]
            if p >= 2:
                column_sets.append(unsorted[:-1] + unsorted[:1])
            for cols in column_sets:
                expected = det_pairing(spec, form, [basis[c] for c in cols])
                assert pair_basis(spec, form, cols) == expected, (p, cols)
            if p >= 2:
                assert pair_basis(spec, form, column_sets[-1]).is_zero()

    def test_basis_column_out_of_range(self, split4):
        with pytest.raises(ValueError) as info:
            pair_basis(split4, basis_wedge_form(split4, (0, 1)), (0, 9))
        assert str(info.value) == "basis index 9 out of range for rank 4"

    def test_wrong_number_of_basis_columns(self, split4):
        with pytest.raises(ValueError) as info:
            pair_basis(split4, basis_wedge_form(split4, (0, 1)), (0,))
        assert str(info.value) == "wrong number of sections for this degree"

    def test_short_section_rejected(self, split4):
        with pytest.raises(SpecInvariantError, match="length 3, want 4"):
            pair_sections(split4, basis_wedge_form(split4, (0, 1)),
                          [Section.basis(0, 4), Section.make([1, 0, 1])])


class TestFormAlgebra:
    def test_wedge_signs(self, split4):
        a = basis_wedge_form(split4, (1,))
        b = basis_wedge_form(split4, (0,))
        assert a.wedge(b) == basis_wedge_form(split4, (0, 1)).scale(
            Scalar.rational(-1))
        assert a.wedge(a).is_zero()

    def test_section_round_trip(self, std2):
        s = Section.make([x(0), ZERO, ONE, ZERO])
        assert section_form(std2, s).as_section() == s

    def test_pair_basis_sign_normalisation(self, split4):
        form = basis_wedge_form(split4, (0, 1))
        assert pair_basis(split4, form, (1, 0)) == Scalar.rational(-1)
        assert pair_basis(split4, form, (1, 1)).is_zero()
