"""Acceptance suite: every criterion exact, timed, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All arithmetic is exact, so every comparison is zero-tolerance; the stated
runtime budgets are asserted as part of each criterion.
"""

import random
import time
from contextlib import contextmanager

from conftest import corrupt_bracket, corrupt_gram, corrupt_twist, sec

from oracles import matmul, naive_matrix_from_ce

from courantkit.axioms import check_axioms
from courantkit.cohomology import betti, differential_matrix
from courantkit.dirac import Subbundle, check_dirac, graph_of_two_form, induced_htla
from courantkit.exact import ONE, Scalar, wedge_indices
from courantkit.kerforms import (
    KerForm,
    basis_wedge_form,
    d_squared,
    ins_h,
    kerform_basis,
    zero_form,
)
from courantkit.linfty import build_classical, build_twisted, verify_linfty
from courantkit.rand import rand_scalar, rand_wedge_coeffs
from courantkit.structure import Section, jacobiator
from courantkit.twist import (
    base_form,
    integrability_defect,
    pullback,
    pullback_lemma_defect,
    twist_bracket,
)

x = Scalar.variable


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number}: FAIL — {description} ({elapsed:.2f}s)",
              flush=True)
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number}: PASS — {description} ({elapsed:.2f}s)",
          flush=True)


def _random_b_twists(split4, count: int):
    rng = random.Random(2024)
    out = []
    for _ in range(count):
        b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
        out.append((b, twist_bracket(split4, b)))
    return out


def test_criterion_1_axiom_suites(so3, std1, std2, std3):
    """so(3) and the standard bundles pass the untwisted suite exactly."""
    with criterion(1, "axiom suites as executable definitions", 10.0):
        for name, spec in (("so3", so3), ("standard1", std1),
                           ("standard2", std2), ("standard3", std3)):
            start = time.monotonic()
            report = check_axioms(spec, "courant")
            assert report.passed, (name, report.failing())
            assert time.monotonic() - start < 10.0, name


def test_criterion_2_rank_four_twists(split4):
    """50 seeded random 3-forms all twist the rank-4 split structure."""
    with criterion(2, "every rank-4 twist is admissible (50 seeds)", 10.0):
        twists = _random_b_twists(split4, 50)
        for i, (b, twisted) in enumerate(twists):
            report = check_axioms(twisted, "h-twisted")
            assert report.passed, (i, report.failing())
            assert integrability_defect(split4, b).is_zero(), i


def test_criterion_3_pullback_lemma(std4):
    """D∘ρ* = ρ*∘d on 20 random polynomial base forms (p ≤ 3, deg ≤ 2)."""
    with criterion(3, "pullback lemma on 20 random base forms", 10.0):
        rng = random.Random(7)
        for t in range(20):
            degree = 1 + t % 3
            entries = {}
            for key in wedge_indices(4, degree):
                if rng.random() < 0.6:
                    entries[key] = rand_scalar(rng, 4, 2)
            omega = base_form(entries)
            assert pullback_lemma_defect(std4, omega, degree).is_zero(), t


def test_criterion_4_nontrivial_twisted_fixture(std4, ctwist4):
    """The exact-twist fixture: twisted suite passes, untwisted Jacobi fails."""
    with criterion(4, "nontrivial twisted fixture with exact twist", 10.0):
        c3 = base_form({(1, 2, 3): x(0)})
        expected_twist = pullback(std4, {(0, 1, 2, 3): ONE}, 4)
        assert ctwist4.twist == KerForm(ctwist4, 4, expected_twist.coeffs)
        assert not ctwist4.twist.is_zero()
        assert check_axioms(ctwist4, "h-twisted").passed
        basis = ctwist4.basis_sections()
        assert jacobiator(ctwist4, basis[0], basis[1], basis[2]) == \
            Section.basis(7, 8)
        courant = check_axioms(ctwist4, "courant")
        jac = next(c for c in courant.checks if c.axiom == "jacobi")
        assert jac.status == "fail" and jac.witness is not None


def test_criterion_5_homotopy_packaging(so3, std1, std2, std3, split4, ctwist4):
    """The two-term packaging verifies on every fixture family."""
    with criterion(5, "homotopy packaging as an executable theorem", 10.0):
        untwisted = [so3, std1, std2, std3]
        for spec in untwisted:
            report = verify_linfty(build_classical(spec), seed=0, samples=2)
            assert report.passed, report.failing()
            zero_twisted = twist_bracket(spec, zero_form(spec, 3))
            report = verify_linfty(build_twisted(zero_twisted), seed=0, samples=2)
            assert report.passed, report.failing()
        for i, (_, twisted) in enumerate(_random_b_twists(split4, 50)):
            report = verify_linfty(build_twisted(twisted), seed=i, samples=1)
            assert report.passed, (i, report.failing())
        report = verify_linfty(build_twisted(ctwist4), seed=0, samples=2)
        assert report.passed, report.failing()


def test_criterion_6_square_of_the_derivative(ctwist4):
    """D² vanishes on functions, equals the twist insertion in degree 1,
    and is an even derivation — all exactly."""
    with criterion(6, "square of the covariant derivative", 10.0):
        assert d_squared(ctwist4, KerForm(ctwist4, 0, {(): x(0) * x(1)})).is_zero()
        assert d_squared(ctwist4, KerForm(ctwist4, 0, {(): ONE})).is_zero()
        degree_one = kerform_basis(ctwist4, 1, max_degree=0)
        assert len(degree_one) == 4
        for form in degree_one:
            assert d_squared(ctwist4, form) == ins_h(ctwist4, form)
        for i in range(ctwist4.rank):
            form = basis_wedge_form(ctwist4, (i,))
            if form.certified:
                assert d_squared(ctwist4, form) == ins_h(ctwist4, form)
        rng = random.Random(12)
        pairs = 0
        while pairs < 20:
            da = rng.choice((1, 2))
            db = rng.choice((1, 2))
            alpha = _random_kernel_form(rng, ctwist4, degree_one, da)
            beta = _random_kernel_form(rng, ctwist4, degree_one, db)
            if alpha.is_zero() or beta.is_zero():
                continue
            assert alpha.certified and beta.certified
            lhs = d_squared(ctwist4, alpha.wedge(beta))
            rhs = (d_squared(ctwist4, alpha).wedge(beta)
                   + alpha.wedge(d_squared(ctwist4, beta)))
            assert lhs == rhs
            pairs += 1


def _random_kernel_form(rng, spec, kernel_one_forms, degree):
    total = None
    for _ in range(degree):
        combo = zero_form(spec, 1)
        for form in kernel_one_forms:
            combo = combo + form.scale(rand_scalar(rng, spec.nvars, 1))
        total = combo if total is None else total.wedge(combo)
    return total


def test_criterion_7_naive_complex(so3, split4):
    """d² = 0 exactly, no cochain escapes, Betti matches the CE oracle."""
    with criterion(7, "naive cochain complexes over points", 10.0):
        fixtures = [so3, split4,
                    twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))]
        rng = random.Random(5)
        for _ in range(3):
            b = KerForm(split4, 3, rand_wedge_coeffs(rng, split4, 3))
            fixtures.append(twist_bracket(split4, b))
        for spec in fixtures:
            mats = [differential_matrix(spec, p) for p in range(spec.rank + 1)]
            for p in range(spec.rank):
                if mats[p].cols and mats[p + 1].rows:
                    prod = matmul(mats[p + 1], mats[p])
                    assert all(e.is_zero() for row in prod.entries for e in row)
        assert betti(so3, 3) == [1, 0, 0, 1]
        for p in range(3):
            assert differential_matrix(so3, p) == naive_matrix_from_ce(so3, p)


def test_criterion_8_dirac_structures(std2, std3, ctwist4):
    """Graph Dirac fixtures and the induced twisted Lie algebroid."""
    with criterion(8, "Dirac structures and their induced algebroids", 10.0):
        good = graph_of_two_form(std2, {(0, 1): x(0)})
        report = check_dirac(std2, good)
        assert report.passed, report.failing()
        data, induced = induced_htla(std2, good)
        assert induced.passed, induced.failing()

        bad = graph_of_two_form(std3, {(0, 1): x(2)})
        report = check_dirac(std3, bad)
        integrable = next(c for c in report.checks if c.axiom == "integrable")
        assert integrable.status == "fail"
        assert integrable.witness is not None
        assert integrable.witness["defect"]

        cotangent = Subbundle(ctwist4, [Section.basis(i, 8) for i in range(4, 8)])
        assert check_dirac(ctwist4, cotangent).passed
        data, induced = induced_htla(ctwist4, cotangent)
        closed = next(c for c in induced.checks if c.axiom == "twist-closed")
        assert closed.status == "pass"
        in_kernel = next(c for c in induced.checks
                         if c.axiom == "twist-values-in-kernel")
        assert in_kernel.status == "pass"


def test_criterion_9_negative_controls(so3, std2, split4, ctwist4):
    """Chosen single-entry corruptions flip a named axiom on every fixture."""
    with criterion(9, "negative controls flip named axioms", 10.0):
        flips = []

        def expect_flip(spec, suite, label):
            report = check_axioms(spec, suite)
            assert not report.passed, label
            flips.append((label, report.failing()))

        expect_flip(corrupt_bracket(so3, 0, 1, sec(1, 0, 1)), "courant",
                    "so3 bracket")
        expect_flip(corrupt_gram(so3, 0, Scalar.rational(2)), "courant",
                    "so3 gram")
        expect_flip(corrupt_bracket(std2, 0, 2, Section.basis(3, 4)),
                    "courant", "standard bracket")
        expect_flip(corrupt_gram(std2, 0, x(0)), "courant", "standard gram")
        expect_flip(corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8)),
                    "h-twisted", "ctwist bracket")
        expect_flip(corrupt_gram(ctwist4, 0, x(0)), "h-twisted", "ctwist gram")
        expect_flip(corrupt_twist(ctwist4, (4, 5, 6, 7), ONE), "h-twisted",
                    "ctwist twist")
        b_twisted = twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))
        expect_flip(corrupt_bracket(b_twisted, 0, 1, sec(0, 0, 2, 0)),
                    "h-twisted", "point-twist bracket")
        # slot 3 spans an abelian orthogonal factor here, so its self-pairing
        # is a free parameter; slot 0 participates in the twisted bracket
        expect_flip(corrupt_gram(b_twisted, 0, Scalar.rational(2)),
                    "h-twisted", "point-twist gram")
        expect_flip(corrupt_twist(b_twisted, (0, 1, 2, 3), ONE), "h-twisted",
                    "point-twist twist")
        assert all(failing for _, failing in flips)
