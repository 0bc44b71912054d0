"""Tests for the executable axiom suites, including negative controls."""

import itertools

import pytest

from conftest import corrupt_anchor, corrupt_bracket, corrupt_gram, corrupt_twist, sec

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
        report = check_axioms(so3, "courant")
        assert report.passed, report.failing()

    @pytest.mark.parametrize("fixture", ["std1", "std2", "std3"])
    def test_standard_courant(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        report = check_axioms(spec, "courant")
        assert report.passed, report.failing()

    def test_standard_strongly_anchored(self, std2):
        assert check_axioms(std2, "strongly-anchored").passed

    def test_ctwist_h_twisted(self, ctwist4):
        report = check_axioms(ctwist4, "h-twisted")
        assert report.passed, report.failing()

    def test_ctwist_courant_fails_jacobi_with_witness(self, ctwist4):
        report = check_axioms(ctwist4, "courant")
        assert not report.passed
        failing = {c.axiom: c for c in report.checks if c.status == "fail"}
        assert "jacobi" in failing
        assert failing["jacobi"].witness is not None
        assert "defect" in failing["jacobi"].witness

    def test_courant_dorfman_suites(self, so3, std2):
        for spec in (so3, std2):
            for suite in ("courant-dorfman", "almost-courant-dorfman",
                          "sa-courant-dorfman"):
                report = check_axioms(spec, suite)
                assert report.passed, (suite, report.failing())

    def test_h_twisted_cd(self, ctwist4):
        report = check_axioms(ctwist4, "h-twisted-cd")
        assert report.passed, report.failing()

    def test_lie_rinehart_on_lie_algebra(self, so3):
        assert check_axioms(so3, "lie-rinehart").passed

    def test_lie_rinehart_fails_on_dorfman(self, std2):
        # the bracket is not skew on polynomial sections
        report = check_axioms(std2, "lie-rinehart")
        assert "antisymmetry" in report.failing()

    def test_zero_twist_h_suite(self, std2):
        twisted = twist_bracket(std2, zero_form(std2, 3))
        report = check_axioms(twisted, "h-twisted")
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
            report = check_axioms(twisted, suite)
            assert report.passed, (suite, report.failing())

    def test_polynomial_anchor_corruption_fails_on_finite_sets(self, std2):
        # ρ(e1) = ∂1 + x2·∂2 is invisible to every tensorial check (the zero
        # bracket table hides it); A(e1, e2) = ρ[e1,e2] − [ρe1, ρe2] = ∂2 ≠ 0
        # on a basis pair, so Jacobi fails on (e1, e2, x2·e1) by
        # Jac(a,b,f·c) = f·Jac − A(a,b)f·c
        bad = corrupt_anchor(std2, 0, 1, x(1))
        e1, e2 = (Section.basis(i, 4).to_text() for i in (0, 1))
        checks = {c.axiom: c for c in check_axioms(bad, "courant").checks}
        assert [a for a, c in checks.items() if c.status == "fail"] == ["jacobi"]
        assert checks["jacobi"].witness == {
            "inputs": {"phi": e1, "psi1": e2, "psi2": ["x2", "0", "0", "0"]},
            "defect": ["-1", "0", "0", "0"]}
        checks = {c.axiom: c for c in check_axioms(bad, "strongly-anchored").checks}
        assert checks["anchor-morphism"].witness == {
            "inputs": {"phi": e1, "psi": e2}, "defect": ["0", "1"]}

    def test_anchor_morphism_fails_on_a_degree_one_pair(self, std2):
        # with anchor entry (2, 0) set to 1, ρ∘D₀ ≠ 0: A is zero on every
        # basis pair, and A(x1·e1, e3) = ⟨e1,e3⟩·ρ(D₀x1) = 2·∂1
        bad = corrupt_anchor(std2, 2, 0, ONE)
        report = check_axioms(bad, "strongly-anchored")
        assert report.failing() == ["anchor-morphism"]
        assert report.checks[0].witness == {
            "inputs": {"phi": ["x1", "0", "0", "0"], "psi": ["0", "0", "1", "0"]},
            "defect": ["2", "0"]}


class TestLemmaL:
    """leibniz evaluates nothing: structure.bracket builds the rule into
    every bracket (the proof is in its docstring), so only a fault in the
    bracket code could break it.  These tests hold that code to the proof:
    it must agree with the dense oracle and obey both extension rules, and
    a fault injected into it must show."""

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
    def bracket_failures(spec, draws: int = 12) -> dict:
        """The first failure of each property of structure.bracket, read at
        call time, so a fault patched into it shows:

          dense   [φ,ψ] equals oracles.dense_bracket
          right   [φ,f·ψ] = f·[φ,ψ] + ρ(φ)f·ψ
          left    [f·φ,ψ] = f·[φ,ψ] − ρ(ψ)f·φ + ⟨φ,ψ⟩·D₀f

        on (eᵢ, xᵥ, eⱼ) and then on seeded random (φ, f, ψ) of degree ≤ 2.
        ρ and the pairing are the dense oracles'."""
        import random

        from oracles import _vf_apply, dense_anchor_apply, dense_bracket, dense_pairing

        import courantkit.structure as structure
        from courantkit.rand import rand_scalar, rand_section

        def br(a, b):
            return structure.bracket(spec, a, b)

        def rho(a, f):
            return _vf_apply(dense_anchor_apply(spec, a), f)

        rng = random.Random(20)
        basis = spec.basis_sections()
        tuples = [(a, x(v), b) for a in basis for v in range(spec.nvars)
                  for b in basis]
        tuples += [(rand_section(rng, spec, 2), rand_scalar(rng, spec.nvars, 2),
                    rand_section(rng, spec, 2)) for _ in range(draws)]
        names = ("phi", "f", "psi")
        found = {
            "dense": first_failure(tuples, names, lambda a, f, b: (
                br(a, b) - dense_bracket(spec, a, b))),
            "right": first_failure(tuples, names, lambda a, f, b: (
                br(a, b.scale(f)) - br(a, b).scale(f) - b.scale(rho(a, f)))),
            "left": first_failure(tuples, names, lambda a, f, b: (
                br(a.scale(f), b) - br(a, b).scale(f) + a.scale(rho(b, f))
                - structure.d0(spec, f).scale(dense_pairing(spec, a, b)))),
        }
        return {rule: w for rule, w in found.items() if w is not None}

    @pytest.mark.parametrize("name", FIXTURES)
    def test_bracket_is_the_dense_oracle_and_obeys_both_rules(self, request,
                                                               name):
        assert self.bracket_failures(request.getfixturevalue(name)) == {}

    @pytest.mark.parametrize("name", ["std2", "ctwist4"])
    def test_every_suite_proves_leibniz(self, request, name):
        spec = request.getfixturevalue(name)
        for suite in SUITES:
            if spec.twist is None and suite in ("h-twisted", "h-twisted-cd"):
                continue
            leibniz = next(c for c in check_axioms(spec, suite).checks
                           if c.axiom == "leibniz")
            assert (leibniz.status, leibniz.label, leibniz.witness) == (
                "pass", "proved", None), suite

    @staticmethod
    def mutated(monkeypatch, extra):
        """Patch structure.bracket, which the property test reads, to
        bracket + extra(φ, ψ)."""
        import courantkit.structure as structure

        bracket = structure.bracket
        monkeypatch.setattr(
            structure, "bracket",
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
        # without the right rule L(e1, x1, e1) = −ρ(e1)x1·e1 = −e1.  The
        # suite's leibniz row stays proved: a fault in the bracket code is
        # the property test's to catch
        spec = request.getfixturevalue(name)
        self.mutated(monkeypatch, lambda *a: -self.right_rule(*a))
        leibniz = next(c for c in check_axioms(spec, suite).checks
                       if c.axiom == "leibniz")
        assert (leibniz.status, leibniz.label) == ("pass", "proved")
        e1 = Section.basis(0, spec.rank).to_text()
        failures = self.bracket_failures(spec)
        assert set(failures) == {"dense", "right"}
        assert failures["right"] == {
            "inputs": {"phi": e1, "f": "x1", "psi": e1},
            "defect": (-Section.basis(0, spec.rank)).to_text()}

    def test_order_two_term_escapes_the_monomial_set(self, monkeypatch, std2):
        # + Σⱼ ∂₁²gⱼ·eⱼ is second order: it vanishes on every f of degree
        # ≤ 1, so the monomial tuples (eᵢ, xᵥ, eⱼ) miss it, and only the
        # random draws of degree 2 show it
        import courantkit.structure as structure
        from courantkit.structure import rho_apply

        def second_derivative(spec, phi, psi):
            return Section(tuple(g.partial(0).partial(0) for g in psi.coeffs))

        self.mutated(monkeypatch, second_derivative)
        failures = self.bracket_failures(std2)
        assert set(failures) == {"dense", "right", "left"}
        for witness in failures.values():
            assert witness["inputs"]["f"] not in ("x1", "x2"), witness
        assert self.bracket_failures(std2, draws=0) == {}
        e1 = Section.basis(0, 4)
        f = x(0) * x(0)
        defect = (structure.bracket(std2, e1, e1.scale(f))
                  - e1.scale(rho_apply(std2, e1, f))
                  - structure.bracket(std2, e1, e1).scale(f))
        assert defect == e1.scale(Scalar.rational(2))


def dense_rows(spec):
    """Each row's defect through the dense oracles, with the kinds of its
    slots for oracles.monomial_tuples: "s" a section, "f" a function."""
    from functools import lru_cache

    from oracles import (
        _vf_apply,
        dense_anchor_apply,
        dense_bracket,
        dense_pairing,
        gram_solve_split,
    )
    from courantkit.structure import d0

    br = lru_cache(maxsize=None)(lambda a, b: dense_bracket(spec, a, b))
    pr = lambda a, b: dense_pairing(spec, a, b)
    rho = lambda a, f: _vf_apply(dense_anchor_apply(spec, a), f)

    def jacobi(a, b, c):
        return br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c))

    def anchor_morphism(a, b):
        ra, rb = dense_anchor_apply(spec, a), dense_anchor_apply(spec, b)
        return tuple(r - _vf_apply(ra, v) + _vf_apply(rb, u) for r, u, v in
                     zip(dense_anchor_apply(spec, br(a, b)), ra, rb))

    def anchor_action(a, b, f):
        return rho(br(a, b), f) - rho(a, rho(b, f)) + rho(b, rho(a, f))

    rows = {
        "jacobi": ("sss", jacobi),
        "leibniz": ("sfs", lambda a, f, b: (br(a, b.scale(f)) - b.scale(rho(a, f))
                                            - br(a, b).scale(f))),
        "symmetric-part": ("ss", lambda a, b: (br(a, b) + br(b, a)
                                               - d0(spec, pr(a, b)))),
        "invariance": ("sss", lambda a, b, c: (rho(a, pr(b, c)) - pr(br(a, b), c)
                                               - pr(b, br(a, c)))),
        "anchor-morphism": ("ss", anchor_morphism),
        "derivation-bracket": ("fs", lambda f, a: br(d0(spec, f), a)),
        "derivation-isotropy": ("ff", lambda f, g: pr(d0(spec, f), d0(spec, g))),
        "anchor-representation": ("ssf", anchor_action),
        "anchor-compatibility": ("ssf", anchor_action),
        "antisymmetry": ("ss", lambda a, b: br(a, b) + br(b, a)),
        "jacobi-cyclic": ("sss", lambda a, b, c: (br(a, br(b, c)) + br(b, br(c, a))
                                                  + br(c, br(a, b)))),
    }
    if spec.twist is not None:
        h = gram_solve_split(spec, spec.twist)
        rows["twisted-jacobi"] = ("sss", lambda a, b, c: jacobi(a, b, c) - h(a, b, c))
    return rows


FINITE_SET_NAMES = [
    "std1", "std2", "std3", "so3", "split4", "std2+rho",
    "std3 anchor (1,2) x1", "std3 anchor (4,1) x3", "std2 gram x1",
    "std2 bracket (1,2) x2*e3", "std2 bracket (3,3) e2",
    "std3 bracket (1,5) x2*e6", "split4 twisted", "std2 zero twist",
    "std2 zero twist, gram x1", "std2 skew [e1,.]"]


class TestFiniteSets:
    """Every row decides its axiom on its finite set: each verdict equals the
    ground truth of Lemma A at degree 2 (every defect here has total order
    ≤ 2), computed through the dense oracles, and the structures that
    seeded random sections let pass fail with a witness of degree ≤ 2."""

    @staticmethod
    def structure(request, name):
        from courantkit.kerforms import basis_wedge_form
        from courantkit.twist import twist_bracket

        std2, std3 = (request.getfixturevalue(n) for n in ("std2", "std3"))
        split4 = request.getfixturevalue("split4")
        zero_twisted = twist_bracket(std2, zero_form(std2, 3))
        return {
            "std2+rho": lambda: corrupt_anchor(std2, 2, 0, ONE),
            "std3 anchor (1,2) x1": lambda: corrupt_anchor(std3, 1, 2, x(0)),
            "std3 anchor (4,1) x3": lambda: corrupt_anchor(std3, 4, 1, x(2)),
            "std2 gram x1": lambda: corrupt_gram(std2, 0, x(0)),
            "std2 bracket (1,2) x2*e3": lambda: corrupt_bracket(
                std2, 0, 1, Section.basis(2, 4).scale(x(1))),
            "std2 bracket (3,3) e2": lambda: corrupt_bracket(
                std2, 2, 2, Section.basis(1, 4)),
            "std3 bracket (1,5) x2*e6": lambda: corrupt_bracket(
                std3, 0, 4, Section.basis(5, 6).scale(x(1))),
            "split4 twisted": lambda: twist_bracket(
                split4, basis_wedge_form(split4, (0, 1, 2))),
            "std2 zero twist": lambda: zero_twisted,
            "std2 zero twist, gram x1": lambda: corrupt_gram(zero_twisted, 0, x(0)),
            "std2 skew [e1,.]": lambda: skew_left_e1(std2),
        }.get(name, lambda: request.getfixturevalue(name))()

    @pytest.mark.parametrize("name", FINITE_SET_NAMES)
    def test_every_row_matches_degree_two_ground_truth(self, request, name):
        from oracles import monomial_tuples

        spec = self.structure(request, name)
        rows, truth = dense_rows(spec), {}
        for suite in SUITES:
            if spec.twist is None and suite in ("h-twisted", "h-twisted-cd"):
                continue
            for check in check_axioms(spec, suite).checks:
                if check.axiom not in rows:
                    continue  # the twist rows read the twist, no tuples
                if check.axiom not in truth:
                    kinds, defect = rows[check.axiom]
                    truth[check.axiom] = first_failure(
                        monomial_tuples(spec, kinds, 2), kinds, defect) is None
                assert (check.status == "pass") == truth[check.axiom], (
                    suite, check.axiom)

    def test_std2_rho_fails_jacobi_on_a_degree_two_triple(self, std2):
        # A(x1·e1, e3) = 2·∂1, so Jac(x1·e1, e3, x1·e1) = −2·e1
        bad = corrupt_anchor(std2, 2, 0, ONE)
        checks = {c.axiom: c for c in check_axioms(bad, "courant").checks}
        assert [a for a, c in checks.items() if c.status == "fail"] == ["jacobi"]
        x1e1 = ["x1", "0", "0", "0"]
        assert checks["jacobi"].witness == {
            "inputs": {"phi": x1e1, "psi1": ["0", "0", "1", "0"], "psi2": x1e1},
            "defect": ["-2", "0", "0", "0"]}

    def test_std2_lie_rinehart_fails_antisymmetry_by_d0(self, std2):
        # [x1·e1, e3] + [e3, x1·e1] = ⟨e1,e3⟩·D₀x1 = e3
        checks = {c.axiom: c for c in check_axioms(std2, "lie-rinehart").checks}
        assert checks["antisymmetry"].witness == {
            "inputs": {"phi": ["x1", "0", "0", "0"], "psi": ["0", "0", "1", "0"]},
            "defect": ["0", "0", "1", "0"]}

    def test_ctwist_polynomial_gram_fails_twisted_jacobi(self, ctwist4):
        # invariance fails on basis tuples, so twisted Jacobi reads the
        # triples with one variable in slot b or a
        bad = corrupt_gram(ctwist4, 0, x(0))
        checks = {c.axiom: c for c in check_axioms(bad, "h-twisted").checks}
        e1 = Section.basis(0, 8)
        assert checks["twisted-jacobi"].witness == {
            "inputs": {"phi": e1.to_text(), "psi1": e1.scale(x(0)).to_text(),
                       "psi2": e1.to_text()},
            "defect": Section.basis(4, 8).to_text()}

    def test_ctwist_fallback_scales_the_twist_by_the_monomial(self, ctwist4):
        # with ⟨e2,e2⟩ = x2 the fallback passes (e1, x1·e2, e3), where Jac =
        # x1·H̃(e1,e2,e3) = x1·e8, and fails first at (x1·e2, e2, e1)
        bad = corrupt_gram(ctwist4, 1, x(1))
        checks = {c.axiom: c for c in check_axioms(bad, "h-twisted").checks}
        e1, e2 = Section.basis(0, 8), Section.basis(1, 8)
        assert checks["twisted-jacobi"].witness == {
            "inputs": {"phi": e2.scale(x(0)).to_text(), "psi1": e2.to_text(),
                       "psi2": e1.to_text()},
            "defect": (-Section.basis(5, 8)).to_text()}


    def test_slot_a_excess_fails_jacobi(self, std2):
        # [e1,·] gains ι_(·)(dx1∧dx2), skew for the pairing: invariance and
        # A hold, S(e1,e1) = 2·e4, and the slot-b excess ⟨b,c⟩S(a,D₀f)
        # vanishes, so only a variable in slot a reaches the failure:
        # Jac(x1·e1, e1, e1) = (ρ(e1)x1)·S(e1,e1)
        bad = skew_left_e1(std2)
        checks = {c.axiom: c for c in check_axioms(bad, "courant").checks}
        assert [a for a, c in checks.items() if c.status == "fail"] == [
            "jacobi", "symmetric-part"]
        e1 = ["1", "0", "0", "0"]
        assert checks["jacobi"].witness == {
            "inputs": {"phi": ["x1", "0", "0", "0"], "psi1": e1, "psi2": e1},
            "defect": ["0", "0", "0", "2"]}

    @pytest.mark.parametrize("name", ["std2 skew [e1,.]", "std2 gram x1",
                                      "std2+rho"])
    def test_slot_a_excess_identity(self, request, name):
        # Jac(f·a,b,c) + Jac(b,f·a,c) − f·(Jac(a,b,c) + Jac(b,a,c))
        #   = (ρ(c)f)S(a,b) − ⟨S(a,b),c⟩D₀f − ⟨a,b⟩T(f,c),
        # through the dense oracles, on structures where S fails
        from oracles import (
            _vf_apply,
            dense_anchor_apply,
            dense_bracket,
            dense_pairing,
            monomial_tuples,
        )
        from courantkit.structure import d0

        spec = self.structure(request, name)
        br = lambda a, b: dense_bracket(spec, a, b)
        jac = lambda a, b, c: br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c))
        for a, b, c, f in monomial_tuples(spec, "sssf", 1):
            if f.is_rational():
                continue
            s_ab = br(a, b) + br(b, a) - d0(spec, dense_pairing(spec, a, b))
            fa = a.scale(f)
            excess = (jac(fa, b, c) + jac(b, fa, c)
                      - (jac(a, b, c) + jac(b, a, c)).scale(f))
            assert excess == (
                s_ab.scale(_vf_apply(dense_anchor_apply(spec, c), f))
                - d0(spec, f).scale(dense_pairing(spec, s_ab, c))
                - br(d0(spec, f), c).scale(dense_pairing(spec, a, b))), (a, b, c, f)

    def test_order_three_term_escapes_the_degree_two_set(self, std1):
        # where Lemma A at degree 2 stops: with [a,b] = a₁′b₂·e1 + a₁′b₁′·e2
        # (′ = ∂/∂x1, aᵢ the i-th coefficient) the cyclic Jacobiator's e1
        # part is 3·a₁′b₁′c₁′ and its e2 part is the cyclic sum of
        # a₁′(b₁′c₂)′: order 3, each term needs three degrees, so no tuple
        # of degree ≤ 2 sees it
        import courantkit.axioms as axioms
        from oracles import monomial_tuples

        def br(a, b):
            da, db = a.coeffs[0].partial(0), b.coeffs[0].partial(0)
            return Section((da * b.coeffs[1], da * db))

        def cyclic(a, b, c):
            return br(a, br(b, c)) + br(b, br(c, a)) + br(c, br(a, b))

        call = axioms._Call(std1)
        assert (call.xs, call.p, call.q) == ([x(0)], 0, 1)
        call.br = br
        assert axioms._ax_cyclic_jacobi(call) == (None, "decided")
        assert first_failure(monomial_tuples(std1, "sss", 2), "abc", cyclic) is None
        # b₁′(c₁′a₂)′ = (2·x1)′ at (e2, x1·e1, x1²·e1)
        assert first_failure(monomial_tuples(std1, "sss", 3), "abc", cyclic) == {
            "inputs": {"a": ["0", "1"], "b": ["x1", "0"], "c": ["x1^2", "0"]},
            "defect": ["0", "2"]}


def skew_left_e1(std2):
    """std2 with [e1,ψ] += ι_ψ(dx1∧dx2) on basis ψ: [e1,e1] = e4, [e1,e2] = −e3."""
    return corrupt_bracket(corrupt_bracket(std2, 0, 0, Section.basis(3, 4)),
                           0, 1, -Section.basis(2, 4))


def btilde_in_frame(std2):
    """std2 with B̃ added to its bracket, ⟨B̃(eᵢ,eⱼ),e_k⟩ = B(eᵢ,eⱼ,e_k) for
    the constant 3-form B = e1∧e2∧e4 (no twist recorded), moved to the frame
    e′₁ = e₁ + x2·e₄, where the Gram entry G′₁₂ is x2."""
    from oracles import frame_change
    from courantkit.exact import Matrix
    from courantkit.structure import AlgebroidSpec

    e = lambda i: Section.basis(i, 4)
    table = {(0, 1): e(1), (1, 0): -e(1), (0, 3): -e(3), (3, 0): e(3),
             (1, 3): e(2), (3, 1): -e(2)}
    plus_b = AlgebroidSpec(std2.ring, std2.nvars, std2.rank, std2.gram,
                           std2.anchor, table)
    frame = Matrix([[x(1) if (k, i) == (3, 0) else ONE if k == i else ZERO
                     for i in range(4)] for k in range(4)])
    return frame_change(plus_b, frame)


class TestMirroredSets:
    """symmetric-part, invariance and Jacobi's step (1) skip each basis tuple
    whose defect is minus or equal to that of an earlier one.  Replayed
    through the dense oracles over every basis tuple in itertools.product
    order, the first failure is the row's witness, inputs and defect; where
    every basis tuple passes, the row's witness is not a basis tuple."""

    ROWS = {"jacobi": ("phi", "psi1", "psi2"),
            "twisted-jacobi": ("phi", "psi1", "psi2"),
            "symmetric-part": ("phi", "psi"),
            "invariance": ("phi", "psi1", "psi2")}

    @staticmethod
    def structure(request, name):
        std2 = request.getfixturevalue("std2")
        return {
            "ct4 gram x1": lambda: corrupt_gram(
                request.getfixturevalue("ctwist4"), 0, x(0)),
            # N(e2,e1) = e2, so (e2,e1,e1) keeps its place before (e1,e2,e1)
            "std2 [e2,e1] = e2": lambda: corrupt_bracket(
                std2, 1, 0, Section.basis(1, 4)),
            # S = I = 0 but G′₁₂ = x2, so (e1,e2,e1) keeps its place
            # before (e1,e1,e2)
            "std2+B in a frame": lambda: btilde_in_frame(std2),
        }.get(name, lambda: TestFiniteSets.structure(request, name))()

    @pytest.mark.parametrize("name", FINITE_SET_NAMES + [
        "ct4 gram x1", "std2 [e2,e1] = e2", "std2+B in a frame"])
    def test_witness_is_the_full_products_first_failure(self, request, name):
        spec = self.structure(request, name)
        rows, basis = dense_rows(spec), spec.basis_sections()
        texts = [e.to_text() for e in basis]
        for suite in ["courant"] + (["h-twisted"] if spec.twist is not None else []):
            for check in check_axioms(spec, suite).checks:
                names = self.ROWS.get(check.axiom)
                if names is None:
                    continue
                reference = first_failure(
                    itertools.product(basis, repeat=len(names)), names,
                    rows[check.axiom][1])
                if reference is not None:
                    assert check.witness == reference, (suite, check.axiom)
                else:
                    assert check.witness is None or any(
                        v not in texts for v in check.witness["inputs"].values()
                    ), (suite, check.axiom)


class TestErrors:
    def test_unknown_suite(self, so3):
        with pytest.raises(UnknownSuiteError, match="unknown suite"):
            check_axioms(so3, "no-such-suite")

    def test_twisted_suite_needs_twist(self, std2):
        with pytest.raises(SuiteNotApplicableError, match="twist"):
            check_axioms(std2, "h-twisted")


class TestDeterminism:
    def test_same_seed_same_report(self, ctwist4):
        # the suites sample nothing, so two calls give one report
        a = check_axioms(ctwist4, "courant").to_json()
        b = check_axioms(ctwist4, "courant").to_json()
        assert a == b


class TestNegativeControls:
    """Single-entry corruption flips at least one named axiom."""

    def test_so3_bracket_corruption(self, so3):
        bad = corrupt_bracket(so3, 0, 1, sec(1, 0, 1))
        report = check_axioms(bad, "courant")
        assert not report.passed
        assert report.failing()

    def test_so3_gram_corruption(self, so3):
        bad = corrupt_gram(so3, 0, Scalar.rational(2))
        report = check_axioms(bad, "courant")
        assert "invariance" in report.failing()

    def test_standard_bracket_corruption(self, std2):
        bad = corrupt_bracket(std2, 0, 2, Section.basis(3, 4))
        report = check_axioms(bad, "courant")
        assert "symmetric-part" in report.failing()

    def test_standard_gram_corruption_caught_by_basis_tuples(self, std2):
        # a polynomial diagonal entry keeps symmetry and the unit determinant
        # (so the file gate stays quiet); the tensorial checks fail on the
        # basis tuple (e1, e1), and with them failing Jacobi reads the triples
        # with one variable in slot b or a, failing on (e1, x1·e1, e1)
        bad = corrupt_gram(std2, 0, x(0))
        e1 = ["1", "0", "0", "0"]
        checks = {c.axiom: c for c in check_axioms(bad, "courant").checks}
        assert [a for a, c in checks.items() if c.status == "fail"] == [
            "jacobi", "symmetric-part", "invariance"]
        assert checks["symmetric-part"].witness["inputs"] == {
            "phi": e1, "psi": e1}
        assert checks["invariance"].witness["inputs"] == {
            "phi": e1, "psi1": e1, "psi2": e1}
        assert checks["jacobi"].witness == {
            "inputs": {"phi": e1, "psi1": ["x1", "0", "0", "0"], "psi2": e1},
            "defect": ["0", "0", "1", "0"]}

    def test_standard_constant_gram_bump_stays_valid(self, std2):
        # a constant diagonal bump yields another genuinely valid structure:
        # the extension bracket adapts to the new pairing, so this is NOT a
        # usable negative control (documented, not a vacuous pass)
        good = corrupt_gram(std2, 0, ONE)
        assert check_axioms(good, "courant").passed

    def test_ctwist_twist_corruption(self, ctwist4):
        bad = corrupt_twist(ctwist4, (4, 5, 6, 7), ONE)
        report = check_axioms(bad, "h-twisted")
        assert "twisted-jacobi" in report.failing()

    def test_ctwist_bracket_corruption(self, ctwist4):
        bad = corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
        report = check_axioms(bad, "h-twisted")
        assert not report.passed

    def test_witness_carries_inputs_and_defect(self, so3):
        bad = corrupt_bracket(so3, 0, 1, sec(1, 0, 1))
        report = check_axioms(bad, "courant")
        failed = [c for c in report.checks if c.status == "fail"][0]
        assert set(failed.witness) == {"inputs", "defect"}


class TestReportJson:
    def test_shape(self, so3):
        doc = check_axioms(so3, "courant").to_json()
        assert doc["suite"] == "courant"
        assert doc["passed"] is True
        assert {c["axiom"] for c in doc["checks"]} == {
            "jacobi", "leibniz", "symmetric-part", "invariance"}
        assert all(c["status"] == "pass" and c["witness"] is None
                   for c in doc["checks"])

    def test_labels(self, so3, ctwist4, split4):
        # decided on a finite set, proved (leibniz), or vacuous where the
        # set is empty: a point has no variable to differentiate, and over
        # a point ρ̃ vanishes
        def labels(spec, suite):
            return {c.axiom: c.label for c in check_axioms(spec, suite).checks}

        assert labels(ctwist4, "h-twisted") == {
            "twist-membership": "decided", "twisted-jacobi": "decided",
            "twist-closed": "decided", "leibniz": "proved",
            "symmetric-part": "decided", "invariance": "decided"}
        point = labels(so3, "courant-dorfman")
        assert point["derivation-bracket"] == point["derivation-isotropy"] == "vacuous"
        assert labels(so3, "lie-rinehart")["anchor-representation"] == "vacuous"
        twisted_point = twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))
        assert labels(twisted_point, "h-twisted")["twist-membership"] == "vacuous"

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
    owns; the counts are evaluations of structure.bracket, rho_apply and
    pairing."""

    @staticmethod
    def counting(monkeypatch):
        import courantkit.axioms as axioms
        import courantkit.structure as structure

        counts = {"bracket": 0, "rho_apply": 0, "pairing": 0}
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
        # without the tables the suite makes 1,620 bracket and 608 ρ
        # evaluations; with them 360 and 48
        counts = self.counting(monkeypatch)
        assert check_axioms(ctwist4, "h-twisted").passed
        assert counts["bracket"] <= 360 and counts["rho_apply"] <= 50
        # nothing outlives the call: a second call evaluates as much again
        first = dict(counts)
        check_axioms(ctwist4, "h-twisted")
        assert counts == {name: 2 * n for name, n in first.items()}

    @staticmethod
    def counting_splits(monkeypatch) -> list:
        """The argument tuples of every application of a map that
        kerforms.tilde_split returns, in order."""
        import courantkit.kerforms as kerforms

        split, applied = kerforms.tilde_split, []

        def counted_split(spec, form):
            h = split(spec, form)

            def apply(*sections):
                applied.append(sections)
                return h(*sections)

            return apply

        monkeypatch.setattr(kerforms, "tilde_split", counted_split)
        return applied

    def test_ct4_h_twisted_splits_each_increasing_triple_once(self, monkeypatch,
                                                              ctwist4):
        # twisted-jacobi reads H̃ on 8³ basis triples from at most C(8,3) = 56
        # applications of the twist map (without the table: 512); the table
        # is kerforms.split_lookup, which reads kerforms' tilde_split
        applied = self.counting_splits(monkeypatch)
        assert check_axioms(ctwist4, "h-twisted").passed
        assert 0 < len(applied) <= 56

    @pytest.mark.parametrize("corruption,count", [("bracket", 1), ("twist", 53)])
    def test_failing_twisted_jacobi_splits_only_the_triples_it_reads(
            self, monkeypatch, ctwist4, corruption, count):
        # the α̃ table is filled on the first read of each increasing triple,
        # so a row that fails early applies H̃ to fewer than C(8,3) = 56
        # triples, each once: [e2,e3] = e8 fails on the first triple that
        # reads H̃, and the twist's e1∧e2∧e3∧e4 coefficient raised by x1
        # fails after 53 of them
        spec = (corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
                if corruption == "bracket"
                else corrupt_twist(ctwist4, (0, 1, 2, 3), Scalar.variable(0)))
        applied = self.counting_splits(monkeypatch)
        assert "twisted-jacobi" in check_axioms(spec, "h-twisted").failing()
        assert len(applied) == len(set(applied)) == count

    @pytest.mark.parametrize("fixture,suite,count", [
        ("ctwist4", "h-twisted", 120), ("std3", "courant", 56)])
    def test_jacobi_skips_mirrored_basis_triples(self, monkeypatch, request,
                                                 fixture, suite, count):
        # S = I = 0, each N(eₐ,e_b) is zero and each Gram entry constant, so
        # Jacobi's step (1) reads the C(r+2,3) triples a ≤ b ≤ c of the r³
        # (512 on ct4, 216 on std3), and step (2) reads none
        import courantkit.axioms as axioms

        jacobiator, calls = axioms._jacobiator, []

        def counted(*args):
            calls.append(args[1:])
            return jacobiator(*args)

        monkeypatch.setattr(axioms, "_jacobiator", counted)
        assert check_axioms(request.getfixturevalue(fixture), suite).passed
        assert len(calls) == len(set(calls)) == count

    def test_invariance_pairs_no_tuple(self, monkeypatch, ctwist4):
        # invariance reads the 8·36 = 288 basis triples (a, b ≤ c); its
        # pairings are Gram entries and lowered bracket rows, and
        # symmetric-part's are Gram entries, so the suite calls no pairing
        counts = self.counting(monkeypatch)
        assert check_axioms(ctwist4, "h-twisted").passed
        assert counts["pairing"] == 0
