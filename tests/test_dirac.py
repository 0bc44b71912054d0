"""Tests for subbundle checks, Dirac structures, and the induced algebroid."""

import random

import pytest

from conftest import corrupt_bracket, sec

from courantkit.dirac import (
    MembershipError,
    Subbundle,
    check_dirac,
    express_in_generators,
    gram_signature,
    graph_of_two_form,
    induced_htla,
    integrability_defect,
    is_isotropic,
    is_lagrangean,
    search_coordinate_dirac,
)
from courantkit.exact import Matrix, ONE, Scalar, ZERO
from courantkit.kerforms import basis_wedge_form
from courantkit.rand import rand_scalar, rand_section
from courantkit.structure import AlgebroidSpec, Section, SpecInvariantError
from courantkit.twist import make_point, twist_bracket

x = Scalar.variable


class TestSubbundle:
    def test_dependent_generators_rejected(self, std2):
        with pytest.raises(SpecInvariantError, match="dependent"):
            Subbundle(std2, [Section.basis(0, 4),
                             Section.basis(0, 4).scale(Scalar.rational(2))])

    def test_generically_independent_generators_accepted(self, std1):
        # (x1−2)·e1 vanishes at x1 = 2, yet the pair is independent: its
        # 2×2 minor is the nonzero polynomial x1 − 2
        sub = Subbundle(std1, [Section.make([x(0) - 2, ZERO]), Section.basis(1, 2)])
        assert sub.dim == 2

    def test_independence_against_minors(self, std3):
        # Subbundle takes one determinant, det(M·Mᵀ); the oracle tries every
        # g×g minor.  Half the sets repeat a generator times a polynomial
        # (g₂ = f·g₁); random polynomial sections mostly have no constant block
        from oracles import independent_by_minors

        rng = random.Random(23)
        seen = {"dependent": 0, "blockless": 0}
        for _ in range(40):
            gens = [rand_section(rng, std3, 2) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                gens.insert(rng.randrange(1, len(gens) + 1),
                            gens[0].scale(rand_scalar(rng, 3, 2)))
            independent = independent_by_minors(gens)
            try:
                sub = Subbundle(std3, gens)
            except SpecInvariantError as exc:
                assert not independent and "dependent" in str(exc)
                seen["dependent"] += 1
                continue
            assert independent
            seen["blockless"] += sub._block is None
        assert seen["dependent"] >= 10 and seen["blockless"] >= 10, seen

    def test_membership_through_constant_block(self, std2):
        sub = Subbundle(std2, [Section.basis(2, 4), Section.basis(3, 4)])
        target = Section.make([ZERO, ZERO, x(0), x(1) ** 2])
        coeffs, residual = express_in_generators(std2, sub, target)
        assert residual.is_zero()
        assert coeffs == (x(0), x(1) ** 2)

    def test_no_constant_block_is_an_error(self, std2):
        sub = Subbundle(std2, [Section.make([x(0), ONE, ZERO, ZERO])])
        gens = [Section.make([x(0) + 1, x(0), ZERO, ZERO])]
        sub = Subbundle(std2, gens)
        with pytest.raises(MembershipError):
            express_in_generators(std2, sub, Section.basis(0, 4))


class TestGraphOfTwoForm:
    def test_reversed_key_is_the_negated_form(self, std2):
        # x1·dx2∧dx1 = −x1·dx1∧dx2
        assert (graph_of_two_form(std2, {(1, 0): x(0)}).generators
                == graph_of_two_form(std2, {(0, 1): -x(0)}).generators)
        # x1·dx1∧dx2 + x1·dx2∧dx1 = 0
        assert (graph_of_two_form(std2, {(0, 1): x(0), (1, 0): x(0)}).generators
                == [Section.basis(0, 4), Section.basis(1, 4)])

    def test_repeated_index_vanishes(self, std2):
        # dx2∧dx2 = 0: the graph of the zero form is the tangent span
        sub = graph_of_two_form(std2, {(1, 1): x(0)})
        assert sub.generators == [Section.basis(0, 4), Section.basis(1, 4)]

    @pytest.mark.parametrize("key", [(0, -1), (0, 5)])
    def test_index_out_of_range(self, std2, key):
        with pytest.raises(ValueError, match=r"range\(2\)"):
            graph_of_two_form(std2, {key: x(0)})


class TestMembershipValidation:
    def test_foreign_variable(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        with pytest.raises(SpecInvariantError, match="x6"):
            express_in_generators(std2, sub, Section.make([x(5), ZERO, ZERO, ZERO]))

    def test_wrong_length(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        with pytest.raises(SpecInvariantError, match="length 3, want 4"):
            express_in_generators(std2, sub, Section.make([ONE, ZERO, ZERO]))


class TestConstantBlock:
    """The block membership runs through is the first one, in the order of
    column combinations, whose minor is nonzero."""

    @staticmethod
    def _agrees(sub):
        from oracles import NoConstantBlock, constant_block_by_minors

        try:
            cols, inverse = constant_block_by_minors(sub)
        except NoConstantBlock:
            assert sub._block is None
            with pytest.raises(MembershipError, match="no invertible constant-column"):
                express_in_generators(sub.spec, sub, Section.zero(sub.spec.rank))
            return None
        assert sub._block == (cols, inverse.transpose())
        return cols

    def test_dependent_leading_columns(self, std2):
        # columns 0 and 1 are proportional, column 2 is polynomial
        sub = Subbundle(std2, [Section.make([ONE, ONE, x(0), ZERO]),
                               Section.make([Scalar.rational(2),
                                             Scalar.rational(2), ZERO, ONE])])
        assert self._agrees(sub) == (0, 3)

    def test_graph_of_two_form(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0) * x(1)})
        assert self._agrees(sub) == (0, 1)

    def test_random_generator_matrices(self, std3):
        # rank 6: constant entries from a few values, so leading columns are
        # often dependent; one column in three polynomial
        rng = random.Random(17)
        blocks = set()
        for _ in range(60):
            g = rng.randint(1, 4)
            poly_cols = {c for c in range(6) if rng.random() < 0.3}
            rows = []
            for _ in range(g):
                rows.append(Section.make([
                    x(rng.randrange(3)) + rng.choice([0, 1]) if c in poly_cols
                    else Scalar.rational(rng.choice([0, 0, 1, -1, 2]))
                    for c in range(6)]))
            try:
                sub = Subbundle(std3, rows)
            except SpecInvariantError:
                continue
            blocks.add(self._agrees(sub))
        # the sample reaches both outcomes and blocks not led by column 0
        assert None in blocks
        assert any(b and b[0] > 0 for b in blocks)
        assert any(b and b != tuple(range(b[0], b[0] + len(b))) for b in blocks)


class TestOneBlockPerSubbundle:
    def test_check_dirac_runs_no_elimination(self, std2, monkeypatch):
        import courantkit.dirac as dirac

        eliminate, widths = dirac._eliminate, []

        def counting(rows, width):
            widths.append(width)
            return eliminate(rows, width)

        monkeypatch.setattr(dirac, "_eliminate", counting)
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        assert len(widths) == 1
        assert check_dirac(std2, sub).passed
        coeffs, residual = express_in_generators(std2, sub, sub.generators[1])
        assert coeffs == (ZERO, ONE) and residual.is_zero()
        assert len(widths) == 1


class TestSignature:
    def test_split(self, std2, split4):
        assert gram_signature(std2.gram) == (2, 2)
        assert gram_signature(split4.gram) == (2, 2)

    def test_definite(self, so3):
        assert gram_signature(so3.gram) == (3, 0)

    def test_lagrangean_rejects_non_split(self, so3):
        sub = Subbundle(so3, [Section.basis(0, 3)])
        with pytest.raises(SpecInvariantError, match="split"):
            is_lagrangean(so3, sub)

    @pytest.mark.parametrize("fixture", [
        "so3", "split4", "hyperbolic4", "so3_plus_so3", "sl3",
        "std1", "std2", "std3", "std4", "ctwist4"])
    def test_fixture_grams_match_elimination(self, request, fixture):
        from oracles import ldl_inertia

        gram = request.getfixturevalue(fixture).gram
        assert gram_signature(gram) == ldl_inertia(gram)

    def test_polynomial_grams_read_their_constant_terms(self, std2, std4,
                                                         std2_frame):
        from conftest import FRAMES, corrupt_gram
        from oracles import frame_change, ldl_inertia

        specs = [std2_frame, corrupt_gram(std2, 0, x(0)),
                 frame_change(std4, FRAMES["std4"])]
        for spec in specs:
            assert not spec.gram.is_rational()
            constant = Matrix([[Scalar.rational(e.terms.get((), 0)) for e in row]
                               for row in spec.gram.entries])
            assert gram_signature(spec.gram) == ldl_inertia(constant)

    def test_random_rational_matrices_match_elimination(self):
        from fractions import Fraction

        from oracles import ldl_inertia

        rng = random.Random(29)
        outcomes = set()
        for _ in range(240):
            n = rng.randint(1, 6)
            if n > 1 and rng.random() < 0.3:
                # Σ ±vₖvₖᵀ over fewer than n vectors: singular
                vecs = [[rng.randint(-2, 2) for _ in range(n)]
                        for _ in range(rng.randint(1, n - 1))]
                signs = [rng.choice((1, -1)) for _ in vecs]
                grid = [[sum(s * v[i] * v[j] for s, v in zip(signs, vecs))
                         for j in range(n)] for i in range(n)]
            else:
                grid = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        grid[i][j] = grid[j][i] = Fraction(
                            rng.choice((0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
            gram = Matrix(grid)
            pos, neg = gram_signature(gram)
            assert (pos, neg) == ldl_inertia(gram)
            outcomes.add((pos + neg == n, pos == neg))
        # singular and nondegenerate, split and not, all drawn
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestIsotropy:
    def test_cotangent_lagrangean(self, std2):
        sub = Subbundle(std2, [Section.basis(2, 4), Section.basis(3, 4)])
        assert is_isotropic(std2, sub)
        assert is_lagrangean(std2, sub)

    def test_diagonal_not_isotropic(self, std2):
        sub = Subbundle(std2, [sec(1, 0, 1, 0)])  # ⟨ψ,ψ⟩ = 2
        assert not is_isotropic(std2, sub)

    def test_graph_of_two_form_lagrangean(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        assert is_lagrangean(std2, sub)

    def test_basis_independence(self, std2):
        # a unit-determinant change of generators never changes the verdict
        rng = random.Random(4)
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        a, b = sub.generators
        changed = Subbundle(std2, [a + b.scale(Scalar.rational(3)),
                                   b + a.scale(Scalar.rational(-2))
                                   + b.scale(Scalar.rational(-6))])
        assert is_isotropic(std2, changed) == is_isotropic(std2, sub)
        assert check_dirac(std2, changed).passed == check_dirac(std2, sub).passed


class TestIntegrability:
    def test_cotangent_abelian(self, std3):
        sub = Subbundle(std3, [Section.basis(i, 6) for i in (3, 4, 5)])
        assert integrability_defect(std3, sub) == []

    def test_closed_graph_integrable(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0)})  # db = 0
        assert integrability_defect(std2, sub) == []

    def test_non_closed_graph_has_witness(self, std3):
        sub = graph_of_two_form(std3, {(0, 1): x(2)})  # b = x3 dx1∧dx2
        defects = integrability_defect(std3, sub)
        assert defects
        (pair, residual) = defects[0]
        # the residual carries the db-contraction ι∂2 ι∂1 (dx3∧dx1∧dx2) = dx3
        assert residual == Section.basis(5, 6)


class TestCheckDirac:
    def test_isotropy_is_tested_once(self, monkeypatch, std2):
        import courantkit.dirac as dirac

        calls, isotropic = [], dirac.is_isotropic
        monkeypatch.setattr(dirac, "is_isotropic",
                            lambda spec, sub: calls.append(sub) or isotropic(spec, sub))
        good = graph_of_two_form(std2, {(0, 1): x(0)})
        assert check_dirac(std2, good).passed and calls == [good]

    def test_needs_constant_split_gram(self, so3, std2):
        with pytest.raises(SpecInvariantError, match=r"split signature, got \(3,0\)"):
            check_dirac(so3, Subbundle(so3, [Section.basis(0, 3)]))
        # a polynomial Gram matrix is judged, not refused: its constant terms
        # are std2's split Gram matrix
        entries = [list(row) for row in std2.gram.entries]
        entries[0][1] = entries[1][0] = x(0)  # the determinant stays -1
        polynomial = AlgebroidSpec("polynomial", 2, 4, Matrix(entries),
                                   std2.anchor, {})
        report = check_dirac(polynomial, Subbundle(polynomial, [Section.basis(2, 4)]))
        assert report.failing() == ["lagrangean"]
        lagrangean = next(c for c in report.checks if c.axiom == "lagrangean")
        assert lagrangean.witness["inputs"] == {"dim": "1", "rank": "4"}

    def test_positive_and_negative(self, std2, std3):
        good = graph_of_two_form(std2, {(0, 1): x(0)})
        assert check_dirac(std2, good).passed
        bad = graph_of_two_form(std3, {(0, 1): x(2)})
        report = check_dirac(std3, bad)
        assert report.failing() == ["integrable"]
        sub = Subbundle(std2, [sec(1, 0, 1, 0), Section.basis(1, 4)])
        report = check_dirac(std2, sub)
        assert "isotropic" in report.failing()


class TestInduced:
    def test_leibniz_brackets_each_pair_once(self, monkeypatch, std2):
        import courantkit.dirac as dirac

        calls, bracket = [], dirac.bracket

        def counting(spec, a, b):
            calls.append((a, b))
            return bracket(spec, a, b)

        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        _, solved = dirac._check_dirac(std2, sub)
        monkeypatch.setattr(dirac, "bracket", counting)
        dirac._build_induced_htla(std2, sub, solved, 0, 2)
        g = sub.dim
        # the restricted structure reads the g² solved pairs.  Through the
        # call's table: the g² generator pairs (antisymmetry), six pairs for
        # the Jacobi triple of random sections and five for (r₀, g₀, g₋₁),
        # whose [g₀, g₋₁] the table holds, and the g Leibniz pairs of a
        # generator and a random section.  Directly, one [x,f·y] per Leibniz
        # pair (x a generator, y a generator or the random section) and each
        # of the two test functions.  No pair is bracketed twice.
        assert len(calls) == g * g + 6 + 5 + g + g * (g + 1) * 2
        assert len(set(calls)) == len(calls)

    def test_closed_graph_yields_lie_algebroid(self, std2):
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        data, report = induced_htla(std2, sub)
        assert report.passed, report.failing()
        assert data["h3"] == []
        assert data["rank"] == 2

    def test_cotangent_in_twisted(self, ctwist4):
        sub = Subbundle(ctwist4, [Section.basis(i, 8) for i in range(4, 8)])
        data, report = induced_htla(ctwist4, sub)
        assert report.passed, report.failing()
        assert data["bracket"] == {}

    def test_untwisted_reduces_to_lie_algebroid(self, std3):
        sub = Subbundle(std3, [Section.basis(i, 6) for i in (3, 4, 5)])
        data, report = induced_htla(std3, sub)
        assert report.passed
        assert data["h3"] == [] and data["kind"] == "h-twisted-lie"

    def test_rejects_non_dirac(self, std2):
        sub = Subbundle(std2, [sec(1, 0, 1, 0), Section.basis(1, 4)])
        with pytest.raises(SpecInvariantError, match="Dirac"):
            induced_htla(std2, sub)

    def test_negative_control_corrupted_bracket(self, std2):
        # corrupting one table entry flips jacobi (or twist-closed) on a
        # previously passing Dirac fixture
        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        bad = corrupt_bracket(std2, 0, 1, Section.basis(0, 4))
        bad_sub = Subbundle(bad, sub.generators)
        if check_dirac(bad, bad_sub).passed:
            data, report = induced_htla(bad, bad_sub)
            assert not report.passed
            assert set(report.failing()) & {"jacobi", "twist-closed",
                                            "antisymmetry", "leibniz"}
        else:
            assert check_dirac(bad, bad_sub).failing()


class TestNonzeroInheritedForm:
    """Dirac fixtures whose inherited three-form is genuinely nonzero."""

    @staticmethod
    def _hyperbolic(rank, half):
        def entry(i, j):
            if i < 2 * half and j < 2 * half:
                return ONE if abs(i - j) == half else ZERO
            if i >= 2 * half and j >= 2 * half:
                return ONE if abs(i - j) == 1 else ZERO
            return ZERO

        return Matrix([[entry(i, j) for j in range(rank)] for i in range(rank)])

    def test_rank6_coordinate_dirac_with_nonzero_form(self):
        from courantkit.rand import rand_wedge_coeffs
        from courantkit.kerforms import KerForm, tilde_split

        ab6 = make_point(6, self._hyperbolic(6, 3), {})
        rng = random.Random(0)
        b = KerForm(ab6, 3, rand_wedge_coeffs(rng, ab6, 3))
        twisted = twist_bracket(ab6, b)
        sub = Subbundle(twisted, [Section.basis(i, 6) for i in (0, 1, 5)])
        assert check_dirac(twisted, sub).passed
        data, report = induced_htla(twisted, sub)
        assert report.passed, report.failing()
        assert data["h3"], "the inherited three-form should be nonzero here"

    def test_rank8_closedness_checked_non_vacuously(self):
        # dimension-4 Dirac subbundle: the connection-derivative check has an
        # actual 4-tuple to evaluate, with nonzero three-form values in play
        from courantkit.axioms import check_axioms
        from courantkit.rand import rand_wedge_coeffs
        from courantkit.kerforms import KerForm, tilde_split

        ab6 = make_point(6, self._hyperbolic(6, 3), {})
        rng = random.Random(0)
        b6 = KerForm(ab6, 3, rand_wedge_coeffs(rng, ab6, 3))
        ab8 = make_point(8, self._hyperbolic(8, 3), {})
        twisted = twist_bracket(ab8, KerForm(ab8, 3, dict(b6.coeffs)))
        assert check_axioms(twisted, "h-twisted", seed=0, samples=1).passed
        sub = Subbundle(twisted, [Section.basis(i, 8) for i in (0, 1, 5, 6)])
        assert check_dirac(twisted, sub).passed
        split = tilde_split(twisted, twisted.twist)
        assert not split(*sub.generators[:3]).is_zero()
        data, report = induced_htla(twisted, sub)
        assert report.passed, report.failing()
        closed = next(c for c in report.checks if c.axiom == "twist-closed")
        assert closed.status == "pass"


class TestSearch:
    def test_standard_search(self, std2):
        found = search_coordinate_dirac(std2)
        supports = {tuple(i for i, c in enumerate(s.generators[0].coeffs + s.generators[1].coeffs)
                          if not c.is_zero())
                    for s in found}
        gens = [{tuple(sorted(idx for g in s.generators
                              for idx, c in enumerate(g.coeffs) if not c.is_zero()))}
                for s in found]
        subsets = {next(iter(g)) for g in gens}
        assert (2, 3) in subsets  # cotangent span
        assert (0, 1) in subsets  # tangent span
        assert len(found) == 4

    @pytest.mark.parametrize("fixture", ["std2", "std4", "ctwist4", "hyperbolic4"])
    def test_one_signature_per_search(self, monkeypatch, request, fixture):
        import itertools

        import courantkit.dirac as dirac

        spec = request.getfixturevalue(fixture)
        calls, signature = [], dirac.gram_signature

        def counting(gram):
            calls.append(gram)
            return signature(gram)

        monkeypatch.setattr(dirac, "gram_signature", counting)
        found = search_coordinate_dirac(spec)
        # a half-rank zero Gram block already proves the signature split
        assert calls == []
        # the same subbundles as check_dirac on every basis subset of half rank
        expected = []
        for subset in itertools.combinations(range(spec.rank), spec.rank // 2):
            sub = Subbundle(spec, [Section.basis(i, spec.rank) for i in subset])
            if check_dirac(spec, sub).passed:
                expected.append(sub.generators)
        assert [s.generators for s in found] == expected and expected

    def test_pure_diag_split_has_none(self, split4):
        assert search_coordinate_dirac(split4) == []

    def test_twisted_hyperbolic_closure_condition(self, hyperbolic4):
        b = basis_wedge_form(hyperbolic4, (0, 1, 2))
        twisted = twist_bracket(hyperbolic4, b)
        found = search_coordinate_dirac(twisted)
        subsets = {tuple(sorted(idx for g in s.generators
                                for idx, c in enumerate(g.coeffs)
                                if not c.is_zero()))
                   for s in found}
        untwisted_subsets = {
            tuple(sorted(idx for g in s.generators
                         for idx, c in enumerate(g.coeffs) if not c.is_zero()))
            for s in search_coordinate_dirac(hyperbolic4)}
        # the twisted Dirac subsets are the untwisted ones closed under B̃
        from courantkit.structure import bracket as _br

        for subset in untwisted_subsets:
            gens = [Section.basis(i, 4) for i in subset]
            closed = True
            for gi in gens:
                for gj in gens:
                    br = _br(twisted, gi, gj)
                    if any(not br.coeffs[k].is_zero()
                           for k in range(4) if k not in subset):
                        closed = False
            assert (subset in subsets) == closed
        assert subsets <= untwisted_subsets
