"""Tests for the data model, pairing, anchor, derivations, and the bracket."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corrupt_gram
from oracles import dense_anchor_apply, dense_bracket, dense_pairing, dorfman_standard

from courantkit.exact import Matrix, ONE, Scalar, ZERO, HALF
from courantkit.rand import rand_scalar, rand_section
from courantkit.structure import (
    AlgebroidSpec,
    Section,
    SpecInvariantError,
    anchor_apply,
    anchor_morphism_defect,
    bracket,
    d0,
    jacobiator,
    lambda_pairing,
    pairing,
    rho_apply,
    rho_star,
)

x = Scalar.variable


class TestSpecInvariants:
    def test_valid_so3(self, so3):
        assert so3.rank == 3
        assert so3.is_point()

    def test_non_symmetric_gram_rejected(self):
        gram = Matrix([[ONE, ONE], [ZERO, ONE]])
        with pytest.raises(SpecInvariantError, match="symmetric"):
            AlgebroidSpec("point", 0, 2, gram, None, {})

    def test_non_unit_determinant_rejected(self):
        gram = Matrix([[x(0), ZERO], [ZERO, ONE]])
        with pytest.raises(SpecInvariantError, match="determinant"):
            AlgebroidSpec("polynomial", 1, 2, gram, None, {})

    def test_point_sections_must_be_rational(self, so3):
        with pytest.raises(SpecInvariantError, match="variable"):
            bracket(so3, Section.make([x(0), ZERO, ZERO]), Section.basis(0, 3))

    def test_anchor_shape_checked(self):
        gram = Matrix.identity(2)
        with pytest.raises(SpecInvariantError, match="anchor"):
            AlgebroidSpec("polynomial", 1, 2, gram, Matrix.identity(3), {})

    def test_twist_zero_vs_absent_equality(self, std2):
        from courantkit.kerforms import zero_form
        from courantkit.twist import twist_bracket

        twisted = twist_bracket(std2, zero_form(std2, 3))
        assert twisted.twist is not None
        assert twisted == std2


class TestPairing:
    def test_diagonal_read_off(self, split4):
        basis = split4.basis_sections()
        assert pairing(split4, basis[0], basis[0]) == ONE
        assert pairing(split4, basis[0], basis[2]).is_zero()

    def test_standard_convention(self, std2):
        # ⟨∂1 + 0, 0 + dx1⟩ = 1 under ⟨X+ξ,Y+η⟩ = η(X)+ξ(Y)
        assert pairing(std2, Section.basis(0, 4), Section.basis(2, 4)) == ONE

    def test_lambda_pairing_determinant(self, split4):
        basis = split4.basis_sections()
        assert lambda_pairing(split4, basis[:2], basis[:2]) == ONE
        assert lambda_pairing(split4, [basis[0], basis[2]],
                              [basis[0], basis[2]]) == Scalar.rational(-1)
        assert lambda_pairing(split4, basis[:2], basis[2:]).is_zero()

    def test_lambda_pairing_degree_mismatch(self, split4):
        basis = split4.basis_sections()
        with pytest.raises(ValueError, match="degree mismatch"):
            lambda_pairing(split4, basis[:2], basis[:3])


class TestAnchor:
    def test_projection_to_tangent_part(self, std2):
        psi = Section.make([ONE, ZERO, x(1), ZERO])  # ∂1 + x2 dx1
        assert anchor_apply(std2, psi) == (ONE, ZERO)

    def test_cotangent_in_kernel(self, std2):
        assert anchor_apply(std2, Section.basis(3, 4)) == (ZERO, ZERO)

    def test_point_anchor_vanishes(self, so3):
        assert anchor_apply(so3, Section.basis(0, 3)) == ()

    def test_morphism_defect_example(self, std2):
        phi = Section.basis(0, 4)
        psi = Section.make([ZERO, x(0), ZERO, ZERO])
        assert all(c.is_zero() for c in anchor_morphism_defect(std2, phi, psi))

    def test_morphism_defect_point(self, so3):
        basis = so3.basis_sections()
        assert anchor_morphism_defect(so3, basis[0], basis[1]) == ()

    def test_morphism_defect_nonzero_on_corruption(self, std2):
        corrupt = AlgebroidSpec("polynomial", 2, 4, std2.gram, std2.anchor,
                                {(0, 2): Section.basis(1, 4)})
        defect = anchor_morphism_defect(corrupt, Section.basis(0, 4),
                                        Section.basis(2, 4))
        assert any(not c.is_zero() for c in defect)


class TestRhoStarAndD0:
    def test_rho_star_cotangent_identity(self, std2):
        assert rho_star(std2, (ONE, ZERO)) == Section.basis(2, 4)

    def test_rho_star_zero_and_linearity(self, std2):
        assert rho_star(std2, (ZERO, ZERO)).is_zero()
        assert rho_star(std2, (x(1), ZERO)) == Section.basis(2, 4).scale(x(1))

    def test_rho_star_over_point_rejects_nonzero(self, so3):
        with pytest.raises(SpecInvariantError, match="only ξ=0"):
            rho_star(so3, (ONE,))

    def test_d0_product(self, std2):
        value = d0(std2, x(0) * x(1))
        assert value == Section.make([ZERO, ZERO, x(1), x(0)])

    def test_d0_kills_constants(self, so3, std2):
        assert d0(so3, Scalar.rational(5)).is_zero()
        assert d0(std2, ONE).is_zero()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_d0_derivation(self, seed):
        std = None
        rng = random.Random(seed)
        from courantkit.twist import make_standard

        std = make_standard(2)
        f = rand_scalar(rng, 2, 2)
        g = rand_scalar(rng, 2, 2)
        lhs = d0(std, f * g)
        rhs = d0(std, g).scale(f) + d0(std, f).scale(g)
        assert lhs == rhs

    @pytest.mark.parametrize("case", ["ctwist4", "ctwist4-polynomial-gram",
                                      "std1", "std3"])
    def test_d0_matches_rho_star_of_df(self, request, case):
        if case == "ctwist4-polynomial-gram":
            spec = corrupt_gram(request.getfixturevalue("ctwist4"), 0, x(0))
        else:
            spec = request.getfixturevalue(case)
        rng = random.Random(11)
        for _ in range(10):
            f = rand_scalar(rng, spec.nvars, 3)
            df = [f.partial(j) for j in range(spec.nvars)]
            assert d0(spec, f) == rho_star(spec, df), f

    def test_rho_star_images_isotropic(self, std3):
        # ⟨ρ*ξ, ρ*η⟩ = 0 whenever the ring/module rules hold
        rng = random.Random(0)
        for _ in range(5):
            f = rand_scalar(rng, 3, 2)
            g = rand_scalar(rng, 3, 2)
            assert pairing(std3, d0(std3, f), d0(std3, g)).is_zero()


class TestBracket:
    def test_table_lookup(self, so3):
        basis = so3.basis_sections()
        assert bracket(so3, basis[0], basis[1]) == basis[2]

    def test_vector_field_bracket(self, std2):
        phi = Section.basis(0, 4)
        psi = Section.make([ZERO, x(0), ZERO, ZERO])
        assert bracket(std2, phi, psi) == Section.basis(1, 4)

    def test_symmetric_square_is_exact_derivative(self, std2):
        psi = Section.make([ONE, ZERO, x(1), ZERO])
        assert bracket(std2, psi, psi) == Section.basis(3, 4)  # dx2
        assert bracket(std2, psi, psi) == d0(
            std2, pairing(std2, psi, psi)).scale(HALF)

    def test_lie_derivative_of_coefficient(self, std2):
        phi = Section.basis(0, 4)
        psi = Section.make([ZERO, ZERO, ZERO, x(0)])  # x1 dx2
        assert bracket(std2, phi, psi) == Section.basis(3, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dorfman_oracle(self, std3, seed):
        rng = random.Random(seed)
        phi = rand_section(rng, std3, 2)
        psi = rand_section(rng, std3, 2)
        assert bracket(std3, phi, psi) == dorfman_standard(3, phi, psi)

    @pytest.mark.parametrize("seed", range(4))
    def test_left_rule_consistency(self, std2, seed):
        # [f·φ,ψ] from the coefficient expansion equals the left rule
        rng = random.Random(100 + seed)
        f = rand_scalar(rng, 2, 2)
        phi = rand_section(rng, std2, 1)
        psi = rand_section(rng, std2, 1)
        via_expansion = bracket(std2, phi.scale(f), psi)
        via_rule = (bracket(std2, phi, psi).scale(f)
                    - phi.scale(rho_apply(std2, psi, f))
                    + d0(std2, f).scale(pairing(std2, phi, psi)))
        assert via_expansion == via_rule

    def test_jacobiator_zero_on_valid(self, std2):
        rng = random.Random(3)
        secs = [rand_section(rng, std2, 2) for _ in range(3)]
        assert jacobiator(std2, *secs).is_zero()


class TestSparseKernel:
    """The kernel on the spec's nonzero rows against the dense loops."""

    @pytest.fixture(params=["std3", "ctwist4", "std2-polynomial-gram", "so3"])
    def spec(self, request):
        if request.param == "std2-polynomial-gram":
            from courantkit.twist import make_standard

            return corrupt_gram(make_standard(2), 0, x(0))
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_loops(self, spec, seed):
        rng = random.Random(seed)
        for _ in range(4):
            phi = rand_section(rng, spec, 2)
            psi = rand_section(rng, spec, 2)
            assert bracket(spec, phi, psi) == dense_bracket(spec, phi, psi)
            assert pairing(spec, phi, psi) == dense_pairing(spec, phi, psi)
            assert anchor_apply(spec, psi) == dense_anchor_apply(spec, psi)


_KINDS = [("constant", "constant"), ("constant", "polynomial"),
          ("polynomial", "constant"), ("polynomial", "polynomial")]
# a point carries constant sections only
_SPLIT_CASES = ([(name, kinds) for name in ("polynomial-gram", "ctwist4")
                 for kinds in _KINDS] + [("so3", ("constant", "constant"))])


class TestBracketSplit:
    """The bracket sums the table part first and runs its anchor and d0
    terms over non-constant coefficients only; checked against the dense
    loops on every mix of constant and polynomial arguments."""

    @staticmethod
    def section(rng, spec, kind):
        """A random section: all-constant, or with some non-constant
        coefficient."""
        sec = rand_section(rng, spec, 0 if kind == "constant" else 2)
        if kind == "polynomial" and all(c.is_rational() for c in sec.coeffs):
            k = rng.randrange(spec.rank)
            sec = sec + Section.basis(k, spec.rank).scale(x(0))
        return sec

    @pytest.mark.parametrize("name,kinds", _SPLIT_CASES, ids=[
        f"{name}-{left}-{right}" for name, (left, right) in _SPLIT_CASES])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_bracket(self, request, name, kinds, seed):
        if name == "polynomial-gram":
            from courantkit.twist import make_standard

            spec = corrupt_gram(make_standard(2), 0, x(0))
        else:
            spec = request.getfixturevalue(name)
        rng = random.Random(seed)
        for _ in range(6):
            phi, psi = (self.section(rng, spec, kind) for kind in kinds)
            assert spec.validate_section(phi) is (kinds[0] == "polynomial")
            assert spec.validate_section(psi) is (kinds[1] == "polynomial")
            assert bracket(spec, phi, psi) == dense_bracket(spec, phi, psi)

    def test_constant_pair_is_the_table_part(self, ctwist4):
        # on constant sections the anchor and d0 terms vanish
        rng = random.Random(5)
        for _ in range(6):
            phi = self.section(rng, ctwist4, "constant")
            psi = self.section(rng, ctwist4, "constant")
            table = Section.zero(ctwist4.rank)
            for i, fi in enumerate(phi.coeffs):
                for j, gj in enumerate(psi.coeffs):
                    table = table + ctwist4.table_bracket(i, j).scale(fi * gj)
            assert bracket(ctwist4, phi, psi) == table


class TestSectionValidation:
    """bracket, anchor_apply and pairing reject a section that uses a
    variable the base ring lacks, with one message."""

    MESSAGE = "section uses variable x3, but the base ring has 2 variable(s)"

    def test_only_a_later_coefficient_bad(self, std2):
        # the first offending coefficient is named by its highest variable
        bad = Section.make([x(0), ONE, x(3) * x(0) + x(1), x(2)])
        for call in (lambda: std2.validate_section(bad),
                     lambda: bracket(std2, Section.basis(0, 4), bad),
                     lambda: anchor_apply(std2, bad)):
            with pytest.raises(SpecInvariantError) as info:
                call()
            assert str(info.value) == (
                "section uses variable x4, but the base ring has 2 variable(s)")
        with pytest.raises(SpecInvariantError) as info:
            std2.validate_section(bad, "probe")
        assert str(info.value) == (
            "probe uses variable x4, but the base ring has 2 variable(s)")

    def test_point_rejects_any_variable(self, so3):
        with pytest.raises(SpecInvariantError) as info:
            bracket(so3, Section.make([1, 2, 3]), Section.make([1, 0, x(0)]))
        assert str(info.value) == (
            "section uses variable x1, but the base ring has 0 variable(s)")

    def test_length_checked_first(self, std2):
        with pytest.raises(SpecInvariantError) as info:
            std2.validate_section(Section.make([x(5), 0, 0]))
        assert str(info.value) == "section has length 3, want 4"

    def test_out_of_range_variable(self, std2):
        bad = Section.make([x(2), ZERO, ZERO, ZERO])
        good = Section.basis(2, 4)
        calls = [lambda: bracket(std2, bad, good),
                 lambda: bracket(std2, good, bad),
                 lambda: anchor_apply(std2, bad),
                 lambda: pairing(std2, bad, good),
                 lambda: pairing(std2, good, bad)]
        for call in calls:
            with pytest.raises(SpecInvariantError) as info:
                call()
            assert str(info.value) == self.MESSAGE


class TestSectionShape:
    @pytest.mark.parametrize("index", [9, 4, -1])
    def test_basis_index_out_of_range(self, index):
        with pytest.raises(ValueError) as info:
            Section.basis(index, 4)
        assert str(info.value) == f"basis index {index} out of range for rank 4"

    def test_rank_mismatch_is_not_truncated(self):
        short, long = Section.make([1, 2]), Section.make([1, 2, 3])
        for call in (lambda: short + long, lambda: long + short,
                     lambda: short - long, lambda: long - short):
            with pytest.raises(ValueError, match="zip"):
                call()
        assert short + Section.make([3, 4]) == Section.make([4, 6])

    def test_add_sub_match_coefficientwise_and_skip_zero_right(self, monkeypatch, std2):
        rng = random.Random(9)
        pairs = [(rand_section(rng, std2, 1), rand_section(rng, std2, 1))
                 for _ in range(40)]
        for a, b in pairs:
            assert a + b == Section(tuple(p + q for p, q in zip(a.coeffs, b.coeffs)))
            assert a - b == Section(tuple(p - q for p, q in zip(a.coeffs, b.coeffs)))
        # a zero right coefficient leaves the left one as it is, uncomputed
        calls = []
        for name in ("__add__", "__sub__"):
            op = getattr(Scalar, name)
            monkeypatch.setattr(Scalar, name,
                                lambda s, o, op=op: calls.append(o) or op(s, o))
        a, b = Section.make([x(0), 2, 0]), Section.make([0, 1, 0])
        assert a + b == Section.make([x(0), 3, 0])
        assert a - b == Section.make([x(0), 1, 0])
        assert calls == [ONE, ONE]

    def test_scale_matches_coefficientwise_products(self, std2):
        rng = random.Random(8)
        for _ in range(40):
            section = rand_section(rng, std2, 1)
            for f in (rand_scalar(rng, 2, 1), ZERO):
                assert section.scale(f) == Section(
                    tuple(f * a for a in section.coeffs))

    def test_hash_is_kept_after_first_use(self, monkeypatch):
        def make():
            return Section.make([1, x(0) + HALF, 0])

        a, b = make(), make()
        assert a == b and a is not b and hash(a) == hash(b)
        assert repr(a) == "Section[1, x1 + 1/2, 0]"
        assert [f.name for f in dataclasses.fields(Section)] == ["coeffs"]
        calls, scalar_hash = [], Scalar.__hash__
        monkeypatch.setattr(Scalar, "__hash__",
                            lambda s: calls.append(s) or scalar_hash(s))
        c = make()
        first = hash(c)
        assert len(calls) == 3
        assert hash(c) == first == hash(a) and len(calls) == 3
