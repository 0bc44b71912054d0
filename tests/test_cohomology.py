"""Tests for the naive cochain complexes, against an independent CE oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corrupt_gram, so3_table
from oracles import matmul, naive_matrix_from_ce
from test_exact import is_canonical_coefficient

from courantkit.cohomology import (
    CochainEscapeError,
    _point_complex,
    _product_nonzero,
    annihilates_twist,
    betti,
    cd_cochain_membership,
    cochain_basis,
    complex_summary,
    differential_matrix,
    readings_agree,
)
from courantkit.exact import Matrix, ONE, Scalar, ZERO
from courantkit.kerforms import (
    KerForm,
    basis_wedge_form,
    contract,
    kerform_basis,
    rho_tilde,
)
from courantkit.rand import rand_wedge_coeffs
from courantkit.structure import d0_generator
from courantkit.twist import base_form, c_twist, make_point, make_standard, twist_bracket

x = Scalar.variable


def _rank5_twisted():
    """Valid rank-5 twisted point structure with nonzero twist (seed 0)."""
    from courantkit.exact import ONE as _ONE

    entries = [[_ONE if i == j and i < 3 else
                (Scalar.rational(-1) if i == j else ZERO)
                for j in range(5)] for i in range(5)]
    ab5 = make_point(5, Matrix(entries), {})
    rng = random.Random(0)
    b = KerForm(ab5, 3, rand_wedge_coeffs(rng, ab5, 3))
    return twist_bracket(ab5, b)


class TestCochainBasis:
    def test_degree_zero_constants(self, so3, std2):
        for spec in (so3, std2):
            basis = cochain_basis(spec, 0)
            assert len(basis) == 1 and basis[0].degree == 0

    def test_untwisted_point_full_wedges(self, so3):
        assert len(cochain_basis(so3, 2)) == 3

    def test_twisted_point_strict_subspace(self, split4, so3_plus_so3):
        # rank-6 point structure with a twist whose splitting is nonzero
        rng = random.Random(5)
        b = KerForm(so3_plus_so3, 3, rand_wedge_coeffs(rng, so3_plus_so3, 3))
        twisted = twist_bracket(so3_plus_so3, b)
        assert not twisted.twist.is_zero()
        full = len(cochain_basis(so3_plus_so3, 2))
        cut = len(cochain_basis(twisted, 2))
        assert cut < full

    def test_rank5_valid_twist_strict_subspace(self):
        # a *valid* rank-5 twisted point structure with nonzero twist: the
        # slotwise cochain spaces are proper subspaces of the exterior powers
        from math import comb

        from courantkit.axioms import check_axioms
        from courantkit.exact import Matrix, ONE

        twisted = _rank5_twisted()
        assert not twisted.twist.is_zero()
        assert check_axioms(twisted, "h-twisted").passed
        dims = [len(cochain_basis(twisted, p)) for p in range(6)]
        assert any(d < comb(5, p) for p, d in enumerate(dims))

    def test_rank5_twist_surfaces_the_reading_discrepancy(self):
        # the two readings of "killed by the twist" genuinely differ on this
        # fixture: the slotwise space is smaller than the insertion kernel,
        # readings_agree reports it, and D-stability fails for the slotwise
        # reading (hard escape error, never a silent projection) while the
        # insertion kernel stays D-stable as the closedness argument demands
        from courantkit.kerforms import cov_derivative, ins_h
        from courantkit.cohomology import weak_kernel_dimension

        twisted = _rank5_twisted()
        assert not readings_agree(twisted, 2)
        assert len(cochain_basis(twisted, 2)) < weak_kernel_dimension(twisted, 2)
        alpha = cochain_basis(twisted, 1)[0]
        image = cov_derivative(twisted, alpha)
        assert ins_h(twisted, alpha).is_zero()
        assert ins_h(twisted, image).is_zero()  # weak reading is stable
        with pytest.raises(CochainEscapeError) as info:
            differential_matrix(twisted, 1)
        assert str(info.value) == (
            "D maps cochain #0 of degree 1 (KerForm((3)·e0 + (-2)·e1 + "
            "(-1)·e3)) outside the (zero) cochain space")

    def test_members_annihilate_twist(self, ctwist4):
        for form in cochain_basis(ctwist4, 2, max_degree=0):
            assert annihilates_twist(ctwist4, form)
            assert form.certified


class TestDifferential:
    def test_so3_degree_zero_matrix_is_zero(self, so3):
        m = differential_matrix(so3, 0)
        assert all(e.is_zero() for row in m.entries for e in row)

    def test_so3_degree_one_column(self, so3):
        m = differential_matrix(so3, 1)
        # d(e1) = −e2∧e3: wedge order (0,1),(0,2),(1,2)
        assert [row[0] for row in m.entries] == [ZERO, ZERO, Scalar.rational(-1)]

    def test_d_squared_zero_matrix_product(self, so3):
        mats = [differential_matrix(so3, p) for p in range(4)]
        for p in range(3):
            if mats[p].cols and mats[p + 1].rows:
                prod = matmul(mats[p + 1], mats[p])
                assert all(e.is_zero() for row in prod.entries for e in row)

    def test_matches_ce_oracle_matrix_by_matrix(self, so3):
        for p in range(3):
            assert differential_matrix(so3, p) == naive_matrix_from_ce(so3, p)

    def test_polynomial_base_rejected(self, std2):
        with pytest.raises(ValueError, match="point"):
            differential_matrix(std2, 1)


class TestBetti:
    def test_so3(self, so3):
        assert betti(so3, 3) == [1, 0, 0, 1]

    def test_abelian_binomials(self, split4):
        assert betti(split4, 4) == [1, 4, 6, 4, 1]

    def test_twisted_abelian_cross_check(self, split4):
        # B = e1∧e2∧e3 gives H = 0 and a nonabelian bracket; the naive
        # matrices must still match the CE oracle on the twisted table
        b = basis_wedge_form(split4, (0, 1, 2))
        twisted = twist_bracket(split4, b)
        assert twisted.twist.is_zero()
        for p in range(4):
            assert differential_matrix(twisted, p) == \
                naive_matrix_from_ce(twisted, p)
        values = betti(twisted, 4)
        assert sum((-1) ** p * v for p, v in enumerate(values)) == \
            sum((-1) ** p * len(cochain_basis(twisted, p)) for p in range(5))

    def test_euler_characteristic(self, so3):
        values = betti(so3, 3)
        dims = [len(cochain_basis(so3, p)) for p in range(4)]
        assert sum((-1) ** p * v for p, v in enumerate(values)) == \
            sum((-1) ** p * d for p, d in enumerate(dims))


class TestEscape:
    def test_no_escape_on_valid_fixtures(self, so3, split4):
        rng = random.Random(9)
        fixtures = [so3, split4]
        for seed in range(3):
            b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
            fixtures.append(twist_bracket(split4, b))
        for spec in fixtures:
            for p in range(spec.rank + 1):
                differential_matrix(spec, p)  # must not raise

    def test_escape_reported_not_projected(self, so3_plus_so3):
        # attach a twist the Jacobiator does not match: the structure is not
        # a valid twisted one (twisted-jacobi fails), the stability theorem's
        # hypothesis breaks, and D must hard-fail instead of projecting
        from conftest import corrupt_twist
        from courantkit.axioms import check_axioms

        bad = corrupt_twist(so3_plus_so3, (0, 1, 3, 4), ONE)
        assert "twisted-jacobi" in check_axioms(bad, "h-twisted").failing()
        assert len(cochain_basis(bad, 1)) == 2
        with pytest.raises(CochainEscapeError) as info:
            for p in range(7):
                differential_matrix(bad, p)
        assert str(info.value) == (
            "D maps cochain #0 of degree 1 (KerForm((1)·e2)) outside the "
            "degree-2 cochain space")

    def test_escape_through_one_coordinate(self, so3):
        # D(e0) = −e1∧e2 on so(3): against the span of e0∧e1 and e0∧e2 the
        # only residual is the last coordinate
        from courantkit.cohomology import _differential

        source = [basis_wedge_form(so3, (i,)) for i in (1, 0)]
        target = [basis_wedge_form(so3, w) for w in ((0, 1), (0, 2))]
        with pytest.raises(CochainEscapeError, match="cochain #1 of degree 1"):
            _differential(so3, 1, source, target)

    def test_escape_names_the_first_escaping_cochain(self, so3_plus_so3):
        # a zero form ahead of the basis stays inside, so the first escape
        # is source cochain #1
        from conftest import corrupt_twist
        from courantkit.cohomology import _differential
        from courantkit.kerforms import zero_form

        bad = corrupt_twist(so3_plus_so3, (0, 1, 3, 4), ONE)
        source = [zero_form(bad, 1)] + cochain_basis(bad, 1)
        with pytest.raises(CochainEscapeError) as info:
            _differential(bad, 1, source, cochain_basis(bad, 2))
        assert str(info.value) == (
            "D maps cochain #1 of degree 1 (KerForm((1)·e2)) outside the "
            "degree-2 cochain space")


class TestReadings:
    def test_agree_on_fixtures(self, so3, split4, ctwist4):
        for spec, degrees, trunc in ((so3, range(4), None),
                                     (split4, range(5), None),
                                     (ctwist4, range(3), 0)):
            for p in degrees:
                assert readings_agree(spec, p, trunc)


class TestCdMembership:
    def test_point_reduces_to_twist_condition(self, so3):
        form = basis_wedge_form(so3, (0, 1))
        assert cd_cochain_membership(so3, form)

    def test_cotangent_wedge_member(self, std2):
        form = basis_wedge_form(std2, (2, 3))
        assert cd_cochain_membership(std2, form)

    def test_uncertified_rejected(self, std2):
        from courantkit.kerforms import UncertifiedFormError

        bad = basis_wedge_form(std2, (0, 3))
        with pytest.raises(UncertifiedFormError):
            cd_cochain_membership(std2, bad)

    @pytest.mark.parametrize("name", ["std3", "ctwist4", "polynomial-gram"])
    def test_d0_contraction_is_rho_tilde(self, name, std3, ctwist4):
        # ⟨eᵢ, D₀xⱼ⟩ = anchorᵢⱼ, so ι_{D₀xⱼ}α is the ∂ⱼ-component of ρ̃α even
        # on uncertified forms: certification is the ι condition
        spec = {"std3": std3, "ctwist4": ctwist4,
                "polynomial-gram": corrupt_gram(std3, 0, Scalar.variable(0))}[name]
        rng = random.Random(9)
        nonzero = 0
        for degree in (1, 2, 3) * 4:
            form = KerForm(spec, degree, rand_wedge_coeffs(rng, spec, degree, 1))
            image = rho_tilde(spec, form)
            nonzero += bool(image)
            for j in range(spec.nvars):
                component = {rest: v for (k, rest), v in image.items() if k == j}
                assert contract(spec, form, d0_generator(spec, j)) == \
                    KerForm(spec, degree - 1, component)
        assert nonzero >= 9

    def test_twisted_condition_bites(self, ctwist4):
        # dx3 ∧ dx4 pairs nontrivially against the twist's image
        member = basis_wedge_form(ctwist4, (4, 5))
        assert cd_cochain_membership(ctwist4, member) == \
            annihilates_twist(ctwist4, member)


class TestSummary:
    def test_point_summary(self, so3):
        doc = complex_summary(so3, 3)
        assert doc == {"dims": [1, 3, 3, 1], "betti": [1, 0, 0, 1],
                       "d_squared_zero": True, "readings_agree": True}

    def test_polynomial_needs_truncation(self, std2):
        with pytest.raises(ValueError, match="truncation"):
            complex_summary(std2, 2)

    def test_polynomial_truncated(self, std2):
        doc = complex_summary(std2, 2, max_degree=1)
        assert doc["betti"] is None
        assert doc["d_squared_zero"] is True
        assert doc["dims"][0] == 1

    def test_polynomial_summary_builds_each_basis_once(self, monkeypatch,
                                                       ctwist4):
        # the cochain basis and the weak reading share one ambient basis of
        # ker ρ̃ per degree
        import courantkit.cohomology as cohomology

        degrees, build = [], cohomology.kerform_basis

        def counting(spec, degree, max_degree=None):
            degrees.append(degree)
            return build(spec, degree, max_degree)

        monkeypatch.setattr(cohomology, "kerform_basis", counting)
        doc = complex_summary(ctwist4, 2, max_degree=0)
        assert doc["readings_agree"] and doc["d_squared_zero"]
        assert degrees == [0, 1, 2]

    def test_twist_images_built_once_per_summary(self, monkeypatch):
        # complex_summary builds the cochain bases of degrees 0..5 on the
        # rank-5 point from one table of the twist's splitting over the
        # basis, C(5, 3) = 10 values, then stops at the degree-1 escape
        import courantkit.cohomology as cohomology

        calls, build = [], cohomology.split_table

        def counting(spec, form, sections):
            calls.append(len(sections))
            return build(spec, form, sections)

        monkeypatch.setattr(cohomology, "split_table", counting)
        with pytest.raises(CochainEscapeError):
            complex_summary(_rank5_twisted(), 4)
        assert calls == [5]
        calls.clear()
        cochain_basis(_rank5_twisted(), 2)
        assert calls == [5]


    def test_summary_builds_each_ambient_basis_once(self, monkeypatch, sl3):
        import courantkit.cohomology as cohomology

        degrees, basis = [], cohomology.kerform_basis

        def counting(spec, degree, *rest):
            degrees.append(degree)
            return basis(spec, degree, *rest)

        monkeypatch.setattr(cohomology, "kerform_basis", counting)
        summary = complex_summary(sl3, 3)
        assert degrees == [0, 1, 2, 3, 4]
        assert summary["readings_agree"] is True

    def test_sl3_complex_sorts_few_wedges(self, monkeypatch, sl3):
        # D pushes each basis cochain through its few nonzero pairings and
        # sorts 1,520 index tuples; without the filter on rest, which no
        # value can show, it sorts 1,874
        import courantkit.kerforms as kerforms

        calls, sort = [], kerforms._sort_wedge

        def counting(indices):
            calls.append(indices)
            return sort(indices)

        monkeypatch.setattr(kerforms, "_sort_wedge", counting)
        _point_complex(sl3, 3)
        assert len(calls) <= 1600


class TestSparseProduct:
    """_product_nonzero, the d² test of complex_summary, agrees with the
    dense product."""

    @staticmethod
    def dense_nonzero(left, right):
        cols = len(right[0]) if right else 0
        return any(sum(row[k] * right[k][j] for k in range(len(right)))
                   for row in left for j in range(cols))

    def test_matches_dense_on_random_sparse(self):
        outcomes = set()
        for seed in range(40):
            rng = random.Random(seed)
            n, k, m = (rng.randint(1, 5) for _ in range(3))

            def sparse(rows, cols):
                return [[Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                         if rng.random() < 0.3 else Fraction(0)
                         for _ in range(cols)] for _ in range(rows)]

            left, right = sparse(n, k), sparse(k, m)
            expected = self.dense_nonzero(left, right)
            assert _product_nonzero(left, right) == expected, seed
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_last_entry_and_cancellation(self):
        # a row [a, b, c] maps to [a − b, a − b, a − c]
        right = [[Fraction(v) for v in row]
                 for row in ((1, 1, 1), (-1, -1, 0), (0, 0, -1))]
        cancels = [[Fraction(v) for v in row] for row in ((1, 1, 1), (2, 2, 2))]
        last = cancels + [[Fraction(1), Fraction(1), Fraction(0)]]
        assert not self.dense_nonzero(cancels, right)
        assert not _product_nonzero(cancels, right)
        assert self.dense_nonzero(last, right) and _product_nonzero(last, right)
        assert not _product_nonzero([], right)
        assert not _product_nonzero(last, [[], [], []])


class TestEliminationRows:
    """The rows cohomology and kerform_basis hand to the exact elimination
    hold Fractions only: a coefficient stored as an int would make the
    elimination's 1/pivot a float."""

    @pytest.fixture()
    def row_counts(self, monkeypatch):
        import courantkit.cohomology as cohomology
        import courantkit.kerforms as kerforms

        counts = []

        def checked(fn):
            def run(rows, width):
                assert all(type(v) is Fraction for row in rows for v in row)
                counts.append(len(rows))
                return fn(rows, width)
            return run

        monkeypatch.setattr(cohomology, "_eliminate", checked(cohomology._eliminate))
        monkeypatch.setattr(cohomology, "_kernel", checked(cohomology._kernel))
        monkeypatch.setattr(kerforms, "_kernel", checked(kerforms._kernel))
        return counts

    def test_point_complex_and_readings(self, so3, row_counts):
        assert complex_summary(so3, 3)["betti"] == [1, 0, 0, 1]
        assert readings_agree(_rank5_twisted(), 2) is False
        assert row_counts

    def test_polynomial_bases(self, ctwist4, std2, row_counts):
        summary = complex_summary(ctwist4, 2, max_degree=1)
        assert summary["dims"] == [1, 20, 30]
        forms = kerform_basis(std2, 2, max_degree=2) + cochain_basis(ctwist4, 2, 1)
        for form in forms:
            assert form.certified
            assert all(is_canonical_coefficient(c) for value in form.coeffs.values()
                       for c in value.terms.values())
        assert row_counts


class TestNoFloatInBases:
    """kerform_basis and cochain_basis keep every coefficient canonical (an
    int, or a Fraction with denominator > 1) on any degree and truncation,
    and every form they return lies in ker ρ̃."""

    SPECS = {"std2": lambda: make_standard(2),
             "ctwist4": lambda: c_twist(4, base_form({(1, 2, 3): x(0)})),
             "so3": lambda: make_point(3, Matrix.identity(3), so3_table()),
             "rank5-twisted": _rank5_twisted}

    @given(st.sampled_from(sorted(SPECS)), st.integers(0, 4), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_bases(self, name, degree, max_degree):
        spec = self.SPECS[name]()
        forms = (kerform_basis(spec, degree, max_degree)
                 + cochain_basis(spec, degree, max_degree))
        for form in forms:
            assert form.certified
            assert all(is_canonical_coefficient(c) for value in form.coeffs.values()
                       for c in value.terms.values())
