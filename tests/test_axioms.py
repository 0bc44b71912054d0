"""Tests for the executable axiom suites, including negative controls."""

import pytest

from conftest import corrupt_bracket, corrupt_gram, corrupt_twist, sec

from courantkit.axioms import (
    SUITES,
    SuiteNotApplicableError,
    UnknownSuiteError,
    check_axioms,
    first_failure,
)
from courantkit.exact import ONE, Scalar, ZERO
from courantkit.kerforms import basis_wedge_form, zero_form
from courantkit.structure import Section
from courantkit.twist import twist_bracket

x = Scalar.variable


class TestPositive:
    def test_so3_courant(self, so3):
        report = check_axioms(so3, "courant", seed=1)
        assert report.passed, report.failing()

    @pytest.mark.parametrize("fixture", ["std1", "std2", "std3"])
    def test_standard_courant(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        report = check_axioms(spec, "courant", seed=1)
        assert report.passed, report.failing()

    def test_standard_strongly_anchored(self, std2):
        assert check_axioms(std2, "strongly-anchored", seed=1).passed

    def test_ctwist_h_twisted(self, ctwist4):
        report = check_axioms(ctwist4, "h-twisted", seed=1)
        assert report.passed, report.failing()

    def test_ctwist_courant_fails_jacobi_with_witness(self, ctwist4):
        report = check_axioms(ctwist4, "courant", seed=1)
        assert not report.passed
        failing = {c.axiom: c for c in report.checks if c.status == "fail"}
        assert "jacobi" in failing
        assert failing["jacobi"].witness is not None
        assert "defect" in failing["jacobi"].witness

    def test_courant_dorfman_suites(self, so3, std2):
        for spec in (so3, std2):
            for suite in ("courant-dorfman", "almost-courant-dorfman",
                          "sa-courant-dorfman"):
                report = check_axioms(spec, suite, seed=2)
                assert report.passed, (suite, report.failing())

    def test_h_twisted_cd(self, ctwist4):
        report = check_axioms(ctwist4, "h-twisted-cd", seed=2)
        assert report.passed, report.failing()

    def test_lie_rinehart_on_lie_algebra(self, so3):
        assert check_axioms(so3, "lie-rinehart", seed=1).passed

    def test_lie_rinehart_fails_on_dorfman(self, std2):
        # the bracket is not skew on polynomial sections
        report = check_axioms(std2, "lie-rinehart", seed=1)
        assert "antisymmetry" in report.failing()

    def test_zero_twist_h_suite(self, std2):
        twisted = twist_bracket(std2, zero_form(std2, 3))
        report = check_axioms(twisted, "h-twisted", seed=1)
        assert report.passed, report.failing()

    def test_point_twist_with_nonzero_curvature_cd_suite(self):
        # rank-5 point structure whose twist is genuinely nonzero: the
        # ring/module twisted suite runs with the derivation identically zero
        import random

        from courantkit.exact import Matrix, ONE
        from courantkit.kerforms import KerForm
        from courantkit.rand import rand_wedge_coeffs
        from courantkit.twist import make_point

        entries = [[ONE if i == j and i < 3 else
                    (Scalar.rational(-1) if i == j else Scalar.rational(0))
                    for j in range(5)] for i in range(5)]
        ab5 = make_point(5, Matrix(entries), {})
        rng = random.Random(0)
        b = KerForm(ab5, 3, rand_wedge_coeffs(rng, ab5, 3))
        twisted = twist_bracket(ab5, b)
        assert not twisted.twist.is_zero()
        for suite in ("h-twisted", "h-twisted-cd"):
            report = check_axioms(twisted, suite, seed=3)
            assert report.passed, (suite, report.failing())

    def test_random_sections_are_load_bearing(self, std2):
        # a polynomial anchor corruption is invisible to every basis-tuple
        # check (the zero bracket table hides it) and only surfaces on
        # non-constant sections — randomised or caller-supplied
        from courantkit.exact import Matrix, ZERO
        from courantkit.structure import AlgebroidSpec

        rows = [list(r) for r in std2.anchor.entries]
        rows[0][1] = x(1)
        bad = AlgebroidSpec("polynomial", 2, 4, std2.gram, Matrix(rows), {})
        assert check_axioms(bad, "courant", seed=0, samples=0).passed
        assert "jacobi" in check_axioms(bad, "courant", seed=0,
                                        samples=3).failing()
        revealing = Section.make([x(1), ZERO, ZERO, ZERO])
        report = check_axioms(bad, "courant", sections=[revealing],
                              seed=0, samples=0)
        assert "jacobi" in report.failing()
        # the anchor-morphism axiom sees it on basis pairs directly
        assert "anchor-morphism" in check_axioms(
            bad, "strongly-anchored", seed=0, samples=0).failing()

    def test_anchor_morphism_needs_random_sections(self, std2):
        # where the basis-tuple shortcut stops: with anchor entry (2, 0) set
        # to 1, ρ∘D₀ ≠ 0, so the anchor-morphism defect is not tensorial and
        # is zero on every basis pair but not on random polynomial ones
        from courantkit.exact import Matrix
        from courantkit.structure import AlgebroidSpec

        rows = [list(r) for r in std2.anchor.entries]
        rows[2][0] = ONE
        bad = AlgebroidSpec("polynomial", 2, 4, std2.gram, Matrix(rows), {})
        assert check_axioms(bad, "strongly-anchored", seed=0,
                            samples=0).passed
        for seed in range(4):
            assert check_axioms(bad, "strongly-anchored",
                                seed=seed).failing() == ["anchor-morphism"]
        assert check_axioms(bad, "strongly-anchored", seed=4).passed


class TestLemmaL:
    """leibniz reads basis pairs times (1, x1, …, xn) only; these tests cover
    what that drops and where the finite set stops deciding the rule."""

    FIXTURES = ["so3", "split4", "hyperbolic4", "so3_plus_so3", "sl3", "std1",
                "std2", "std3", "std4", "std2_frame", "ctwist4"]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_dense_leibniz_defect_vanishes(self, request, name):
        # the rule the basis set decides, on random polynomial sections and
        # functions through the dense bracket and anchor
        import random

        from oracles import dense_anchor_apply, dense_bracket

        from courantkit.rand import rand_scalar, rand_section
        from courantkit.structure import apply_vector_field

        spec = request.getfixturevalue(name)
        rng = random.Random(20)
        for _ in range(6):
            phi, psi = rand_section(rng, spec, 2), rand_section(rng, spec, 2)
            f = rand_scalar(rng, spec.nvars, 3)
            rho_phi_f = apply_vector_field(dense_anchor_apply(spec, phi), f)
            defect = (dense_bracket(spec, phi, psi.scale(f))
                      - psi.scale(rho_phi_f)
                      - dense_bracket(spec, phi, psi).scale(f))
            assert defect.is_zero(), (phi, f, psi)

    @staticmethod
    def mutated(monkeypatch, extra):
        """Patch the bracket check_axioms reads to bracket + extra(φ, ψ)."""
        import courantkit.axioms as axioms
        from courantkit.structure import bracket

        monkeypatch.setattr(
            axioms, "bracket",
            lambda spec, phi, psi: bracket(spec, phi, psi) + extra(spec, phi, psi))

    @staticmethod
    def right_rule(spec, phi, psi):
        """Σⱼ ρ(φ)[gⱼ]·eⱼ for ψ = Σⱼ gⱼeⱼ."""
        from oracles import dense_anchor_apply

        from courantkit.structure import apply_vector_field

        rho_phi = dense_anchor_apply(spec, phi)
        return Section(tuple(apply_vector_field(rho_phi, g) for g in psi.coeffs))

    @pytest.mark.parametrize("name,suite", [("ctwist4", "h-twisted"),
                                            ("std2", "courant")])
    def test_dropped_right_rule_fails_on_a_monomial(self, monkeypatch, request,
                                                    name, suite):
        # without the right rule L(e1, x1, e1) = −ρ(e1)x1·e1 = −e1
        spec = request.getfixturevalue(name)
        self.mutated(monkeypatch, lambda *a: -self.right_rule(*a))
        e1 = Section.basis(0, spec.rank).to_text()
        for seed in range(5):
            checks = {c.axiom: c for c in check_axioms(spec, suite,
                                                       seed=seed).checks}
            assert checks["leibniz"].status == "fail"
            assert checks["leibniz"].witness == {
                "inputs": {"phi": e1, "f": "x1", "psi": e1},
                "defect": (-Section.basis(0, spec.rank)).to_text()}

    def test_order_two_term_escapes_the_monomial_set(self, monkeypatch, std2):
        # where Lemma L stops: + Σⱼ ∂₁²gⱼ·eⱼ is second order, vanishes on
        # every f of degree ≤ 1, and shows only on a degree-2 function
        import courantkit.axioms as axioms
        from courantkit.structure import rho_apply

        def second_derivative(spec, phi, psi):
            return Section(tuple(g.partial(0).partial(0) for g in psi.coeffs))

        self.mutated(monkeypatch, second_derivative)
        for seed in range(5):
            checks = {c.axiom: c.status for c in check_axioms(
                std2, "courant", seed=seed).checks}
            assert checks["leibniz"] == "pass"
        e1 = Section.basis(0, 4)
        f = x(0) * x(0)
        defect = (axioms.bracket(std2, e1, e1.scale(f))
                  - e1.scale(rho_apply(std2, e1, f))
                  - axioms.bracket(std2, e1, e1).scale(f))
        assert defect == e1.scale(Scalar.rational(2))


class TestErrors:
    def test_unknown_suite(self, so3):
        with pytest.raises(UnknownSuiteError, match="unknown suite"):
            check_axioms(so3, "no-such-suite")

    def test_twisted_suite_needs_twist(self, std2):
        with pytest.raises(SuiteNotApplicableError, match="twist"):
            check_axioms(std2, "h-twisted")


class TestDeterminism:
    def test_same_seed_same_report(self, ctwist4):
        a = check_axioms(ctwist4, "courant", seed=9).to_json()
        b = check_axioms(ctwist4, "courant", seed=9).to_json()
        assert a == b


class TestNegativeControls:
    """Single-entry corruption flips at least one named axiom."""

    def test_so3_bracket_corruption(self, so3):
        bad = corrupt_bracket(so3, 0, 1, sec(1, 0, 1))
        report = check_axioms(bad, "courant", seed=1)
        assert not report.passed
        assert report.failing()

    def test_so3_gram_corruption(self, so3):
        bad = corrupt_gram(so3, 0, Scalar.rational(2))
        report = check_axioms(bad, "courant", seed=1)
        assert "invariance" in report.failing()

    def test_standard_bracket_corruption(self, std2):
        bad = corrupt_bracket(std2, 0, 2, Section.basis(3, 4))
        report = check_axioms(bad, "courant", seed=1)
        assert "symmetric-part" in report.failing()

    def test_standard_gram_corruption_caught_by_basis_tuples(self, std2):
        # a polynomial diagonal entry keeps symmetry and the unit determinant
        # (so the file gate stays quiet); the tensorial checks fail on the
        # basis tuple (e1, e1) without any random section
        bad = corrupt_gram(std2, 0, x(0))
        e1 = ["1", "0", "0", "0"]
        checks = {c.axiom: c for c in check_axioms(bad, "courant", seed=1,
                                                   samples=0).checks}
        assert [a for a, c in checks.items() if c.status == "fail"] == [
            "symmetric-part", "invariance"]
        assert checks["symmetric-part"].witness["inputs"] == {
            "phi": e1, "psi": e1}
        assert checks["invariance"].witness["inputs"] == {
            "phi": e1, "psi1": e1, "psi2": e1}
        assert "symmetric-part" in check_axioms(bad, "courant",
                                                seed=1).failing()

    def test_standard_constant_gram_bump_stays_valid(self, std2):
        # a constant diagonal bump yields another genuinely valid structure:
        # the extension bracket adapts to the new pairing, so this is NOT a
        # usable negative control (documented, not a vacuous pass)
        good = corrupt_gram(std2, 0, ONE)
        assert check_axioms(good, "courant", seed=1, samples=5).passed

    def test_ctwist_twist_corruption(self, ctwist4):
        bad = corrupt_twist(ctwist4, (4, 5, 6, 7), ONE)
        report = check_axioms(bad, "h-twisted", seed=1)
        assert "twisted-jacobi" in report.failing()

    def test_ctwist_bracket_corruption(self, ctwist4):
        bad = corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
        report = check_axioms(bad, "h-twisted", seed=1)
        assert not report.passed

    def test_witness_carries_inputs_and_defect(self, so3):
        bad = corrupt_bracket(so3, 0, 1, sec(1, 0, 1))
        report = check_axioms(bad, "courant", seed=1)
        failed = [c for c in report.checks if c.status == "fail"][0]
        assert set(failed.witness) == {"inputs", "defect"}


class TestReportJson:
    def test_shape(self, so3):
        doc = check_axioms(so3, "courant", seed=0).to_json()
        assert doc["suite"] == "courant"
        assert doc["passed"] is True
        assert {c["axiom"] for c in doc["checks"]} == {
            "jacobi", "leibniz", "symmetric-part", "invariance"}
        assert all(c["status"] == "pass" and c["witness"] is None
                   for c in doc["checks"])

    def test_all_suites_have_checkers(self):
        assert set(SUITES) == {
            "courant", "strongly-anchored", "h-twisted", "courant-dorfman",
            "almost-courant-dorfman", "sa-courant-dorfman", "h-twisted-cd",
            "lie-rinehart"}


class TestFirstFailure:
    def test_stops_at_first_failure(self):
        calls = []

        def defect(a, b):
            calls.append((a, b))
            return Scalar.rational(a * b)

        def tuples():
            yield 0, 1
            yield 2, 3
            raise AssertionError("drew a tuple past the first failure")

        found = first_failure(tuples(), ("a", "b"), defect)
        assert calls == [(0, 1), (2, 3)]
        assert found == {"inputs": {"a": "2", "b": "3"}, "defect": "6"}

    def test_unnamed_entries_stay_out_of_the_witness(self):
        found = first_failure([("label", ONE)], ("pair",), lambda _, v: v)
        assert found == {"inputs": {"pair": "label"}, "defect": "1"}

    @pytest.mark.parametrize("defect,fails", [
        (None, False), ("a message", True), (ZERO, False), (ONE, True),
        (sec(0, 0), False), (sec(0, 1), True),
        ((ZERO, ZERO), False), ((ZERO, ONE), True)])
    def test_zero_test_per_defect_type(self, defect, fails):
        assert (first_failure([()], (), lambda: defect) is not None) == fails

    def test_zero_test_on_forms(self, split4):
        assert first_failure([()], (), lambda: zero_form(split4, 3)) is None
        assert first_failure(
            [()], (), lambda: basis_wedge_form(split4, (0, 1, 2))) is not None


class TestRhoReadings:
    """Every suite reads ρ(ψ)f through the anchor; the ring/module reading
    ⟨ψ, D₀f⟩ agrees on every structure, so one reading serves all suites."""

    @staticmethod
    def specs(ctwist4, std2, so3):
        from courantkit.structure import AlgebroidSpec
        from courantkit.twist import make_standard

        anchorless = AlgebroidSpec("polynomial", 2, 4, std2.gram, None, {})
        return {"ctwist4": ctwist4,
                "polynomial-gram": corrupt_gram(make_standard(2), 0, x(0)),
                "anchorless": anchorless, "point": so3}

    @pytest.mark.parametrize("name", ["ctwist4", "polynomial-gram",
                                      "anchorless", "point"])
    def test_anchor_equals_pairing_with_d0(self, ctwist4, std2, so3, name):
        import random

        from courantkit.rand import rand_scalar, rand_section
        from courantkit.structure import d0, pairing, rho_apply

        spec = self.specs(ctwist4, std2, so3)[name]
        rng = random.Random(9)
        nonzero = 0
        for _ in range(12):
            psi = rand_section(rng, spec, 2)
            f = rand_scalar(rng, spec.nvars, 3)
            value = rho_apply(spec, psi, f)
            assert value == pairing(spec, psi, d0(spec, f)), (psi, f)
            nonzero += not value.is_zero()
        assert (nonzero > 0) == (name in ("ctwist4", "polynomial-gram"))


class TestCallTables:
    """check_axioms reads the bracket and ρ through tables that each call
    owns; the counts are evaluations of structure.bracket and rho_apply."""

    @staticmethod
    def counting(monkeypatch):
        import courantkit.axioms as axioms
        import courantkit.structure as structure

        counts = {"bracket": 0, "rho_apply": 0}
        for name in counts:
            fn = getattr(structure, name)

            def wrapper(*args, _name=name, _fn=fn):
                counts[_name] += 1
                return _fn(*args)

            for module in (axioms, structure):
                if getattr(module, name) is fn:
                    monkeypatch.setattr(module, name, wrapper)
        return counts

    def test_ct4_h_twisted_evaluates_few_tuples(self, monkeypatch, ctwist4):
        # without the tables the suite makes 4,900 bracket and 832 ρ
        # evaluations; with them 429 and 48
        counts = self.counting(monkeypatch)
        assert check_axioms(ctwist4, "h-twisted", seed=0).passed
        assert counts["bracket"] <= 430 and counts["rho_apply"] <= 50
        # nothing outlives the call: a second call evaluates as much again
        first = dict(counts)
        check_axioms(ctwist4, "h-twisted", seed=0)
        assert counts == {name: 2 * n for name, n in first.items()}
