"""Tests for the two-term homotopy packaging and its verification."""

import random
from fractions import Fraction

import pytest

from courantkit.exact import ONE, Scalar
from courantkit.kerforms import KerForm, zero_form
from courantkit.linfty import (
    _check_l3_alternating,
    _check_values_in_v1,
    build_classical,
    build_twisted,
    verify_linfty,
)
from courantkit.rand import rand_section, rand_wedge_coeffs
from courantkit.structure import Section, SpecInvariantError
from courantkit.twist import twist_bracket

x = Scalar.variable
HALF = Scalar.rational(Fraction(1, 2))


class TestBuildClassical:
    def test_point_boundary_vanishes(self, so3):
        data = build_classical(so3)
        assert data.boundary(ONE).is_zero()
        assert data.act(Section.basis(0, 3), ONE).is_zero()

    def test_so3_l3_value(self, so3):
        # three cyclic terms of 1/6·⟨l2(a,b),c⟩ each contribute 1/6; the
        # global orientation (here −) is the one forced on polynomial bases
        # by the defining equations — over a point either sign verifies
        data = build_classical(so3)
        assert data.l3(*so3.basis_sections()) == -HALF

    def test_standard_boundary(self, std2):
        data = build_classical(std2)
        assert data.boundary(x(0)) == Section.basis(2, 4)

    def test_action_worked_example(self, std2):
        data = build_classical(std2)
        assert data.act(Section.basis(0, 4), x(0)) == HALF

    def test_rejects_twisted(self, ctwist4):
        with pytest.raises(SpecInvariantError, match="untwisted"):
            build_classical(ctwist4)


class TestBuildTwisted:
    def test_needs_twist(self, std2):
        with pytest.raises(SpecInvariantError, match="twist"):
            build_twisted(std2)

    def test_v1_is_kernel_basis(self, ctwist4):
        data = build_twisted(ctwist4)
        assert len(data.v1_basis) == 4
        for v in data.v1_basis:
            from courantkit.structure import anchor_apply

            assert all(c.is_zero() for c in anchor_apply(ctwist4, v))

    def test_l3_contains_twist_value(self, ctwist4):
        data = build_twisted(ctwist4)
        basis = ctwist4.basis_sections()
        assert data.l3(basis[0], basis[1], basis[2]) == Section.basis(7, 8)

    def test_l2_skew_exactly(self, ctwist4):
        data = build_twisted(ctwist4)
        rng = random.Random(0)
        for _ in range(4):
            s = rand_section(rng, ctwist4, 2)
            assert data.l2(s, s).is_zero()


class TestVerify:
    def test_classical_fixtures_pass(self, so3, std1, std2, std3):
        for spec in (so3, std1, std2, std3):
            report = verify_linfty(build_classical(spec), seed=1)
            assert report.passed, report.failing()

    def test_twisted_fixtures_pass(self, ctwist4, split4, std2):
        fixtures = [twist_bracket(std2, zero_form(std2, 3)), ctwist4]
        rng = random.Random(5)
        for _ in range(3):
            b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
            fixtures.append(twist_bracket(split4, b))
        for spec in fixtures:
            report = verify_linfty(build_twisted(spec), seed=2)
            assert report.passed, report.failing()

    def test_zeroed_l3_fails_with_witness(self, ctwist4):
        data = build_twisted(ctwist4)
        data.l3 = lambda a, b, c: Section.zero(8)
        report = verify_linfty(data, seed=1)
        assert "jacobi-up-to-boundary" in report.failing()
        failed = [c for c in report.checks
                  if c.axiom == "jacobi-up-to-boundary"][0]
        assert failed.witness is not None

    def test_alternation_and_membership_see_random_sections(self, ctwist4):
        # rank 8: the basis slices of both checks hold no random section
        data = build_twisted(ctwist4)
        seen = {"l3": [], "act": []}

        def recording(name, fn):
            def wrapper(*args):
                seen[name].append(any(
                    not c.is_rational() for a in args if isinstance(a, Section)
                    for c in a.coeffs))
                return fn(*args)
            return wrapper

        data.l3 = recording("l3", data.l3)
        data.act = recording("act", data.act)
        randoms = [rand_section(random.Random(3), ctwist4, 2)]
        v0 = data.v0_basis + randoms
        assert _check_l3_alternating(data, v0, randoms) is None
        assert any(seen["l3"])
        seen["l3"].clear()
        assert _check_values_in_v1(data, v0, data.v1_basis, randoms) is None
        assert any(seen["act"]) and any(seen["l3"])

    def test_determinism(self, ctwist4):
        a = verify_linfty(build_twisted(ctwist4), seed=7).to_json()
        b = verify_linfty(build_twisted(ctwist4), seed=7).to_json()
        assert a == b

    def test_equations_checked(self, so3):
        report = verify_linfty(build_classical(so3), seed=0)
        axioms = {c.axiom for c in report.checks}
        assert {"bracket-vs-boundary", "boundary-action-symmetry",
                "jacobi-up-to-boundary", "action-jacobi",
                "higher-coherence", "l2-skew", "l3-alternating"} <= axioms
