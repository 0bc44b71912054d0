"""Tests for the constructors and the twist-by-B machinery."""

import random
from fractions import Fraction

import pytest

from conftest import corrupt_gram, sec, unipotent
from oracles import det_pairing, dorfman_standard, frame_change, gram_solve_split

from courantkit.axioms import check_axioms
from courantkit.exact import Matrix, ONE, Scalar, ZERO, wedge_indices
from courantkit.kerforms import (
    KerForm,
    basis_wedge_form,
    cov_derivative,
    section_form,
    split_table,
    split_value,
    tilde_split,
    tilde_split_basis,
    zero_form,
)
from courantkit.linfty import build_twisted, verify_linfty
from courantkit.rand import rand_scalar, rand_section, rand_wedge_coeffs
from courantkit.structure import (
    Section,
    SpecInvariantError,
    bracket,
    d0_generator,
    jacobiator,
)
from courantkit.twist import (
    base_form,
    btilde_squared_form,
    c_twist,
    curvature_H,
    de_rham,
    integrability_defect,
    integrability_expansion,
    make_point,
    make_standard,
    pullback,
    pullback_4form,
    pullback_lemma_defect,
    twist_bracket,
)

x = Scalar.variable


class TestMakeStandard:
    def test_rank_and_zero_table(self, std1):
        assert std1.rank == 2
        assert std1.bracket_table == {}

    def test_passes_courant(self, std2):
        assert check_axioms(std2, "courant").passed

    def test_lie_derivative_entry(self, std2):
        value = bracket(std2, Section.basis(0, 4),
                        Section.basis(3, 4).scale(x(0)))
        assert value == Section.basis(3, 4)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            make_standard(0)

    @pytest.mark.parametrize("seed", range(3))
    def test_extension_reproduces_dorfman(self, std2, seed):
        rng = random.Random(seed)
        phi, psi = rand_section(rng, std2, 2), rand_section(rng, std2, 2)
        assert bracket(std2, phi, psi) == dorfman_standard(2, phi, psi)


class TestMakePoint:
    def test_so3_is_quadratic_lie_algebra(self, so3):
        assert check_axioms(so3, "courant").passed

    def test_abelian_table(self, split4):
        assert split4.bracket_table == {}
        assert check_axioms(split4, "courant").passed

    def test_non_skew_rejected(self):
        with pytest.raises(SpecInvariantError, match="skew|vanish"):
            make_point(2, Matrix.identity(2), {(0, 0): sec(0, 1)})
        with pytest.raises(SpecInvariantError, match="skew"):
            make_point(2, Matrix.identity(2), {(0, 1): sec(0, 1)})


class TestTwistBracket:
    def test_zero_twist_reproduces_base(self, std2, split4):
        for spec in (std2, split4):
            twisted = twist_bracket(spec, zero_form(spec, 3))
            assert twisted == spec
            assert twisted.twist is not None and twisted.twist.is_zero()

    def test_split4_worked_example(self, split4):
        b = basis_wedge_form(split4, (0, 1, 2))
        twisted = twist_bracket(split4, b)
        assert twisted.table_bracket(0, 1) == Section.basis(2, 4)
        assert curvature_H(split4, b).is_zero()

    def test_uncertified_b_rejected(self, std2):
        bad = basis_wedge_form(std2, (0, 2, 3))
        with pytest.raises(Exception, match="ker"):
            twist_bracket(std2, bad)

    @pytest.mark.parametrize("seed", range(8))
    def test_rank4_random_b_gives_twisted_structure(self, split4, seed):
        rng = random.Random(seed)
        b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
        twisted = twist_bracket(split4, b)
        assert check_axioms(twisted, "h-twisted").passed
        assert integrability_defect(split4, b).is_zero()

    def test_keeps_the_base_twist(self):
        # the rank-6 split point algebra twisted twice: the second twist must
        # add its curvature to the first one's, not replace it
        split6 = make_point(6, Matrix([[(ONE if i < 3 else Scalar.rational(-1))
                                         if i == j else ZERO for j in range(6)]
                                        for i in range(6)]), {})
        once = twist_bracket(split6, KerForm(split6, 3, {
            (0, 1, 2): ONE, (0, 3, 4): ONE, (1, 3, 5): Scalar.rational(2)}))
        b = KerForm(once, 3, {(0, 4, 5): ONE, (2, 3, 4): Scalar.rational(-3)})
        twice = twist_bracket(once, b)
        assert not once.twist.is_zero() and not curvature_H(once, b).is_zero()
        assert twice.twist.coeffs == (once.twist + curvature_H(once, b)).coeffs
        for suite in ("h-twisted", "h-twisted-cd"):
            report = check_axioms(twice, suite)
            assert report.passed, (suite, report.failing())
        assert verify_linfty(build_twisted(twice), seed=0).passed

    def test_jacobiator_equals_twist_split(self, split4):
        rng = random.Random(3)
        b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
        twisted = twist_bracket(split4, b)
        basis = twisted.basis_sections()
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    lhs = jacobiator(twisted, basis[i], basis[j], basis[k])
                    rhs = tilde_split_basis(twisted, twisted.twist, (i, j, k))
                    assert lhs == rhs


class TestSplitTable:
    """The table of B̃ on basis pairs holds exactly its nonzero values on the
    pairs i < j, and split_value reads B̃ on every ordered pair off it."""

    @staticmethod
    def _agrees(spec, b):
        e = spec.basis_sections()
        table, split = split_table(spec, b, e), tilde_split(spec, b)
        zero_pairs = 0
        for i in range(spec.rank):
            for j in range(spec.rank):
                value, read = split(e[i], e[j]), split_value(table.get, (i, j), ONE)
                if value.is_zero():
                    assert read is None and (i, j) not in table
                    zero_pairs += 1
                else:
                    assert read == value
                    assert ((i, j) in table) == (i < j)
        assert 2 * len(table) + zero_pairs == spec.rank ** 2
        assert table and 2 * len(table) < spec.rank ** 2 - spec.rank
        return table

    def test_ctwist4_b(self):
        spec0 = make_standard(4)
        b = pullback(spec0, base_form({(1, 2, 3): x(0)}), 3)
        table = self._agrees(spec0, b)
        assert table[(1, 2)] == Section.basis(7, 8).scale(x(0))

    def test_random_point_form(self, so3_plus_so3):
        rng = random.Random(11)
        b = KerForm(so3_plus_so3, 3, rand_wedge_coeffs(rng, so3_plus_so3, 3))
        self._agrees(so3_plus_so3, b)

    def test_polynomial_gram(self, std2):
        spec = corrupt_gram(std2, 0, x(0))
        rng = random.Random(4)
        b = KerForm(spec, 3, rand_wedge_coeffs(rng, spec, 3, 1))
        table = self._agrees(spec, b)
        assert any(not c.is_rational() for v in table.values() for c in v.coeffs)


class TestCurvature:
    def test_zero_b(self, split4):
        assert curvature_H(split4, zero_form(split4, 3)).is_zero()

    def test_ctwist_curvature_is_pullback_of_dc(self, std4):
        c3 = base_form({(1, 2, 3): x(0)})
        b = pullback(std4, c3, 3)
        h = curvature_H(std4, b)
        assert h == pullback(std4, de_rham(c3, 4), 4)
        assert btilde_squared_form(std4, b).is_zero()

    def test_expansion_matches_direct(self, so3_plus_so3):
        # rank 6 keeps the degree-5 forms alive; both evaluation paths of
        # D_B H must agree exactly (empirically the defect itself vanishes
        # on every sampled point example — see the operator test below for
        # the non-vacuous identity behind the expansion)
        rng = random.Random(11)
        b = KerForm(so3_plus_so3, 3, rand_wedge_coeffs(rng, so3_plus_so3, 3))
        direct = integrability_defect(so3_plus_so3, b)
        assert direct == integrability_expansion(so3_plus_so3, b)

    def test_twisted_derivative_splits_into_insertion(self, so3_plus_so3):
        # the operator identity D_B = D₀ + ι_B̃ on arbitrary certified forms;
        # this is the engine of the three-term expansion and is nonzero here
        from courantkit.twist import iota_btilde

        rng = random.Random(11)
        b = KerForm(so3_plus_so3, 3, rand_wedge_coeffs(rng, so3_plus_so3, 3))
        twisted = twist_bracket(so3_plus_so3, b)
        for seed in range(3):
            rng2 = random.Random(seed)
            alpha = KerForm(so3_plus_so3, 4,
                            rand_wedge_coeffs(rng2, so3_plus_so3, 4))
            lhs = cov_derivative(twisted, KerForm(twisted, 4, alpha.coeffs))
            rhs = cov_derivative(so3_plus_so3, alpha) + iota_btilde(
                so3_plus_so3, b, alpha)
            assert KerForm(so3_plus_so3, 5, lhs.coeffs) == rhs
            assert not rhs.is_zero()

    def test_rank5_curvature_sign_pinned(self):
        # B̃² vanishes identically up to rank 4, so only rank >= 5 separates
        # H = D₀B − B̃² from the + variant; the Jacobiator identity and the
        # full twisted suite pin the minus
        from courantkit.exact import Matrix, ONE
        from courantkit.kerforms import tilde_split_basis
        from courantkit.twist import btilde_squared_form

        entries = [[ONE if i == j and i < 3 else
                    (Scalar.rational(-1) if i == j else ZERO)
                    for j in range(5)] for i in range(5)]
        ab5 = make_point(5, Matrix(entries), {})
        rng = random.Random(0)
        b = KerForm(ab5, 3, rand_wedge_coeffs(rng, ab5, 3))
        assert not btilde_squared_form(ab5, b).is_zero()
        twisted = twist_bracket(ab5, b)
        assert not twisted.twist.is_zero()
        report = check_axioms(twisted, "h-twisted")
        assert report.passed, report.failing()
        wrong = curvature_H(ab5, b) + btilde_squared_form(
            ab5, b).scale(Scalar.rational(2))
        basis = twisted.basis_sections()
        mismatch = jacobiator(twisted, basis[0], basis[1], basis[2]) - \
            tilde_split_basis(twisted, KerForm(twisted, 4, wrong.coeffs),
                              (0, 1, 2))
        assert not mismatch.is_zero()

    def test_btilde_squared_vanishes_identically_at_rank_four(self, split4):
        rng = random.Random(17)
        for _ in range(6):
            b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
            assert btilde_squared_form(split4, b).is_zero()

    def test_rank_up_to_four_always_integrable(self, split4):
        rng = random.Random(21)
        for _ in range(5):
            b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
            assert integrability_defect(split4, b).is_zero()


class TestBtildeSquaredTable:
    """B̃², read from the table of B̃ on basis pairs, pairs with every basis
    4-wedge as the cyclic sum B̃(B̃(e_a,e_b),e_c) + cycl. assembled from the
    Gram-solve splitting, evaluated on every call."""

    @staticmethod
    def cases():
        def diagonal(rank, negatives):
            return make_point(rank, Matrix(
                [[(Scalar.rational(-1) if i >= rank - negatives else ONE)
                  if i == j else ZERO for j in range(rank)] for i in range(rank)]),
                {})

        def random_b(spec, seed):
            return KerForm(spec, 3, rand_wedge_coeffs(random.Random(seed), spec, 3))

        def random_gram(rank, seed):
            # Uᵀ·diag(±1, ±2)·U, U unipotent with rational entries
            rng = random.Random(seed)
            u = [[Scalar.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  if j > i else (ONE if i == j else ZERO) for j in range(rank)]
                 for i in range(rank)]
            d = [Scalar.rational(rng.choice([1, -1, 2, -2])) for _ in range(rank)]
            return make_point(rank, Matrix([[sum(
                (u[k][i] * d[k] * u[k][j] for k in range(rank)), ZERO)
                for j in range(rank)] for i in range(rank)]), {})

        std4 = make_standard(4)
        ab5, id6, id7 = diagonal(5, 2), diagonal(6, 0), diagonal(7, 0)
        gram6 = random_gram(6, 5)
        poly3 = corrupt_gram(make_standard(3), 0, x(0))
        return {
            "ct4": (std4, pullback(std4, base_form({(1, 2, 3): x(0)}), 3)),
            "ct4b": (std4, pullback(std4, base_form(
                {(0, 1, 2): x(3) * x(3), (1, 2, 3): x(0)}), 3)),
            "ab5": (ab5, random_b(ab5, 0)),
            "identity-6": (id6, random_b(id6, 1)),
            "identity-7": (id7, random_b(id7, 2)),
            "gram-6": (gram6, random_b(gram6, 3)),
            "polynomial-gram": (poly3, KerForm(poly3, 3, rand_wedge_coeffs(
                random.Random(4), poly3, 3, 2))),
        }

    @pytest.mark.parametrize("case", ["ct4", "ct4b", "ab5", "identity-6",
                                      "identity-7", "gram-6",
                                      "polynomial-gram"])
    def test_matches_gram_solve(self, case):
        spec, b = self.cases()[case]
        split, e = gram_solve_split(spec, b), spec.basis_sections()
        inner = {(i, j): split(e[i], e[j])
                 for i in range(spec.rank) for j in range(spec.rank)}
        b2 = btilde_squared_form(spec, b)
        for J in wedge_indices(spec.rank, 4):
            i, j, k, l = J
            cyclic = (split(inner[i, j], e[k]) + split(inner[j, k], e[i])
                      + split(inner[k, i], e[j]))
            expected = sum((cm * g for cm, g in zip(
                cyclic.coeffs, spec.gram.entries[l])), ZERO)
            assert det_pairing(spec, b2, [e[c] for c in J]) == expected, J
        assert b2.is_zero() == case.startswith("ct4")

    def test_inserts_once_per_table_entry(self, monkeypatch):
        # B̃² reads the 28 basis pairs of the rank-8 table; the twisted
        # bracket and the expansion of D_B H build that table once and read
        # both their brackets and B̃² from it
        from courantkit import kerforms

        calls = []
        insert = kerforms._insert

        def counted(*args):
            calls.append(args)
            return insert(*args)

        monkeypatch.setattr(kerforms, "_insert", counted)
        spec0, b = self.cases()["ct4"]
        btilde_squared_form(spec0, b)
        assert len(calls) == 28
        calls.clear()
        twist_bracket(spec0, b)
        assert len(calls) == 28
        calls.clear()
        integrability_expansion(spec0, b)
        assert len(calls) == 28


class TestPullback:
    def test_four_form(self, std4):
        h = base_form({(0, 1, 2, 3): ONE})
        form = pullback_4form(std4, h)
        assert form == basis_wedge_form(std4, (4, 5, 6, 7))
        assert form.certified

    def test_lemma_defect_example(self, std2):
        omega = base_form({(1,): x(0)})
        assert pullback_lemma_defect(std2, omega, 1).is_zero()

    @pytest.mark.parametrize("seed", range(5))
    def test_lemma_defect_random_forms(self, std4, seed):
        rng = random.Random(seed)
        degree = 1 + seed % 3
        entries = {}
        from courantkit.exact import wedge_indices
        from courantkit.rand import rand_scalar

        for key in wedge_indices(4, degree):
            if rng.random() < 0.6:
                entries[key] = rand_scalar(rng, 4, 2)
        omega = base_form(entries)
        assert pullback_lemma_defect(std4, omega, degree).is_zero()

    def test_closed_form_pullback_is_closed(self, std4):
        h = base_form({(0, 1, 2, 3): ONE})  # top form, closed
        assert cov_derivative(std4, pullback_4form(std4, h)).is_zero()

    @pytest.mark.parametrize("name", ["std4", "ct4", "std3-frame",
                                      "std3-polynomial-gram"])
    def test_equals_wedge_of_d0_generators(self, name):
        # ρ*(dx_I) = D₀x_{I1}∧…∧D₀x_{Ip}, built as a wedge of one-forms
        std3 = make_standard(3)
        spec = {
            "std4": lambda: make_standard(4),
            "ct4": lambda: c_twist(4, base_form({(1, 2, 3): x(0)})),
            "std3-frame": lambda: frame_change(std3, unipotent(6, {
                (0, 1): x(1), (2, 4): x(0) * x(2), (1, 5): Scalar.rational(3)})),
            "std3-polynomial-gram": lambda: corrupt_gram(std3, 0, x(0)),
        }[name]()
        rows = [section_form(spec, d0_generator(spec, j))
                for j in range(spec.nvars)]
        rng = random.Random(7)
        nonzero = 0
        for degree in range(min(4, spec.nvars) + 1):
            for _ in range(3):
                form = base_form({key: rand_scalar(rng, spec.nvars, 2)
                                  for key in wedge_indices(spec.nvars, degree)
                                  if rng.random() < 0.6})
                expected = zero_form(spec, degree)
                for key, value in form.items():
                    term = KerForm(spec, 0, {(): value})
                    for j in key:
                        term = term.wedge(rows[j])
                    expected = expected + term
                assert pullback(spec, form, degree) == expected, (degree, form)
                nonzero += not expected.is_zero()
        assert nonzero >= 6

    def test_point_base_rejects_nonzero(self, so3):
        with pytest.raises(SpecInvariantError):
            pullback(so3, base_form({(0,): ONE}), 1)


class TestCTwist:
    def test_bracket_and_twist_values(self, ctwist4):
        assert ctwist4.table_bracket(1, 2) == Section.basis(7, 8).scale(x(0))
        assert ctwist4.twist == basis_wedge_form(ctwist4, (4, 5, 6, 7))
        assert tilde_split_basis(ctwist4, ctwist4.twist, (0, 1, 2)) == \
            Section.basis(7, 8)

    def test_passes_h_twisted(self, ctwist4):
        assert check_axioms(ctwist4, "h-twisted").passed

    def test_jacobiator_worked_example(self, ctwist4):
        basis = ctwist4.basis_sections()
        assert jacobiator(ctwist4, basis[0], basis[1], basis[2]) == \
            Section.basis(7, 8)

    def test_closed_c_gives_untwisted(self):
        spec = c_twist(3, base_form({(0, 1, 2): ONE}))
        assert spec.twist.is_zero()
        assert check_axioms(spec, "courant").passed

    def test_zero_c_is_standard(self):
        assert c_twist(3, base_form({})) == make_standard(3)

    def test_equals_twist_bracket_route(self, std4, ctwist4):
        c3 = base_form({(1, 2, 3): x(0)})
        via_twist = twist_bracket(std4, pullback(std4, c3, 3))
        assert via_twist == ctwist4

    def test_needs_three_variables(self):
        with pytest.raises(ValueError):
            c_twist(2, base_form({}))
