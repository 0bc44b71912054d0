"""Tests for subbundle checks, Dirac structures, and the induced algebroid."""

import itertools
import random

import pytest

from conftest import corrupt_bracket, corrupt_twist, sec

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

        rank = sub.spec.rank
        try:
            cols, inverse = constant_block_by_minors(sub)
        except NoConstantBlock:
            with pytest.raises(MembershipError, match="no invertible constant-column"):
                express_in_generators(sub.spec, sub, Section.zero(rank))
            return None
        # eⱼ gets row i of the block inverse when j is the block's i-th
        # column, and zero coefficients off the block's columns
        for j in range(rank):
            coeffs, _ = express_in_generators(sub.spec, sub, Section.basis(j, rank))
            want = inverse.entries[cols.index(j)] if j in cols else (ZERO,) * sub.dim
            assert coeffs == want, j
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
        import courantkit.axioms as axioms
        import courantkit.dirac as dirac

        calls, bracket = [], axioms.bracket

        def counting(spec, a, b):
            calls.append((a, b))
            return bracket(spec, a, b)

        sub = graph_of_two_form(std2, {(0, 1): x(0)})
        _, solved = dirac._check_dirac(std2, sub)
        # the call's table is an axioms._Call's, built on axioms' binding
        monkeypatch.setattr(axioms, "bracket", counting)
        dirac._build_induced_htla(std2, sub, solved)
        g = sub.dim
        # the restricted structure reads the g² solved pairs.  Through the
        # call's table: the g² generator pairs (antisymmetry, whose values
        # also give the anchor defects Jacobi reads; they vanish on this Lie
        # algebroid, and g = 2 leaves no generator triple or quad).  Leibniz
        # is proved by the bracket's construction and brackets nothing, so
        # the g²·n pairs (gᵢ, xᵥ·gⱼ) it read are gone.  No pair is bracketed
        # twice.
        assert len(calls) == g * g
        assert len(set(calls)) == len(calls)

    def test_twisted_subbundle_splits_each_triple_once(self, monkeypatch,
                                                       ctwist4):
        # on span(e1, e2, e3, e8) the table over the generators applies H̃ to
        # the C(4, 3) = 4 increasing triples, and jacobi and twist-closed's
        # first sum read it; only twist-closed's six terms with a bracket in
        # a slot apply H̃ again (without the table: 18 applications)
        import courantkit.dirac as dirac
        import courantkit.kerforms as kerforms

        split, applied = kerforms.tilde_split, []

        def counted_split(spec, form):
            h = split(spec, form)

            def apply(*sections):
                applied.append(sections)
                return h(*sections)

            return apply

        monkeypatch.setattr(kerforms, "tilde_split", counted_split)
        monkeypatch.setattr(dirac, "tilde_split", counted_split)
        sub = Subbundle(ctwist4, [Section.basis(i, 8) for i in (0, 1, 2, 7)])
        data, report = induced_htla(ctwist4, sub)
        assert report.passed, report.failing()
        assert data["h3"] == [{"indices": [0, 1, 2], "value": ["0", "0", "0", "1"]}]
        assert len(applied) <= 10

    def test_labels(self, std2, ctwist4, hyperbolic4):
        # rank 2 and untwisted: no generator triple or quad, so jacobi and
        # twist-closed have empty sets, and there is no H̃ to restrict; but
        # jacobi's set is built by evaluating A on the g² generator pairs,
        # which decides the row over a polynomial base (Lemma B)
        _, report = induced_htla(std2, graph_of_two_form(std2, {(0, 1): x(0)}))
        assert {c.axiom: c.label for c in report.checks} == {
            "twist-values-in-kernel": "vacuous", "antisymmetry": "decided",
            "jacobi": "decided", "leibniz": "proved", "twist-closed": "vacuous"}
        # over a point there is no variable: A is never evaluated
        _, report = induced_htla(hyperbolic4, Subbundle(
            hyperbolic4, [Section.basis(0, 4), Section.basis(1, 4)]))
        assert {c.axiom: c.label for c in report.checks}["jacobi"] == "vacuous"
        sub = Subbundle(ctwist4, [Section.basis(i, 8) for i in (0, 1, 2, 7)])
        _, report = induced_htla(ctwist4, sub)
        assert {c.axiom: c.label for c in report.checks} == {
            "twist-values-in-kernel": "decided", "antisymmetry": "decided",
            "jacobi": "decided", "leibniz": "proved", "twist-closed": "decided"}

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
        assert check_axioms(twisted, "h-twisted").passed
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


def induced_dense_rows(spec, gens):
    """Each induced row's defect on sections of L = span(gens) through the
    dense oracles, with the kinds of its slots for oracles.monomial_tuples
    and the row's order bound.  H̃|L lands in L iff it pairs to zero with
    every generator: L is Lagrangean with a constant invertible block, so
    L^⊥ = L and a section of L^⊥ has polynomial coordinates."""
    from functools import lru_cache

    from oracles import (
        _vf_apply,
        dense_anchor_apply,
        dense_bracket,
        dense_pairing,
        gram_solve_split,
    )

    br = lru_cache(maxsize=None)(lambda a, b: dense_bracket(spec, a, b))
    rho = lambda a, f: _vf_apply(dense_anchor_apply(spec, a), f)
    split = (gram_solve_split(spec, spec.twist) if spec.twist is not None
             else lambda *abc: Section.zero(spec.rank))
    basis_split = lru_cache(maxsize=None)(
        lambda *key: split(*(Section.basis(i, spec.rank) for i in key)))

    def h(*abc):
        # H̃ is ℚ[x]-trilinear: expand over the basis triples, each split once
        total = Section.zero(spec.rank)
        for terms in itertools.product(*([(i, c) for i, c in enumerate(a.coeffs)
                                          if c.terms] for a in abc)):
            value = basis_split(*(i for i, _ in terms))
            if not value.is_zero():
                total = total + value.scale(terms[0][1] * terms[1][1] * terms[2][1])
        return total

    def escapes(a, b, c):
        value = h(a, b, c)
        return (dense_anchor_apply(spec, value)
                + tuple(dense_pairing(spec, value, gen) for gen in gens))

    def jacobi(a, b, c):
        return br(a, br(b, c)) - br(br(a, b), c) - br(b, br(a, c)) - h(a, b, c)

    def closedness(*quad):
        total = Section.zero(spec.rank)
        for k in range(4):
            value = br(quad[k], h(*quad[:k], *quad[k + 1:]))
            total = total + (value if k % 2 == 0 else -value)
        for k, l in itertools.combinations(range(4), 2):
            rest = [quad[m] for m in range(4) if m not in (k, l)]
            value = h(br(quad[k], quad[l]), *rest)
            total = total + (value if (k + l) % 2 == 0 else -value)
        return total

    return {
        "twist-values-in-kernel": ("sss", 0, escapes),
        "antisymmetry": ("ss", 1, lambda a, b: br(a, b) + br(b, a)),
        "jacobi": ("sss", 2, jacobi),
        "leibniz": ("sfs", 1, lambda a, f, b: (br(a, b.scale(f)) - b.scale(rho(a, f))
                                               - br(a, b).scale(f))),
        "twist-closed": ("ssss", 1, closedness),
    }


class TestInducedFiniteSets:
    """Every induced row decides its rule on its finite set: each verdict
    equals Lemma A's ground truth on L at the row's order bound (0 for the
    tensorial H̃|L, 1 for antisymmetry, Leibniz and the connection
    derivative, 2 for Jacobi), over the tuples of x^β·gᵢ through the dense
    oracles."""

    @staticmethod
    def rank8_twisted():
        from courantkit.kerforms import KerForm
        from courantkit.rand import rand_wedge_coeffs

        hyperbolic = TestNonzeroInheritedForm._hyperbolic
        ab6 = make_point(6, hyperbolic(6, 3), {})
        b6 = KerForm(ab6, 3, rand_wedge_coeffs(random.Random(0), ab6, 3))
        ab8 = make_point(8, hyperbolic(8, 3), {})
        return twist_bracket(ab8, KerForm(ab8, 3, dict(b6.coeffs)))

    @classmethod
    def structure(cls, request, name):
        """(spec, generator indices or generators)."""
        std2, std3, ct4 = (request.getfixturevalue(n)
                           for n in ("std2", "std3", "ctwist4"))
        e = Section.basis
        cotangent = range(4, 8)
        build = {
            "std2 graph": lambda: (std2, graph_of_two_form(
                std2, {(0, 1): x(0)}).generators),
            "std3 cotangent": lambda: (std3, range(3, 6)),
            "ct4 cotangent": lambda: (ct4, cotangent),
            "rank-8 twisted point": lambda: (cls.rank8_twisted(), (0, 1, 5, 6)),
            "ct4 twist (1,2,3,4) += x1": lambda: (
                corrupt_twist(ct4, (0, 1, 2, 3), x(0)), cotangent),
            "ct4 twist (1,2,3,4) += 1": lambda: (
                corrupt_twist(ct4, (0, 1, 2, 3), ONE), cotangent),
            "ct4 twist (1,2,3,5) += x1": lambda: (
                corrupt_twist(ct4, (0, 1, 2, 4), x(0)), cotangent),
            "rank-6 skew": lambda: (AlgebroidSpec(
                "point", 0, 6, TestNonzeroInheritedForm._hyperbolic(6, 3), None,
                {(0, 1): e(5, 6), (1, 0): e(1, 6), (5, 5): e(0, 6)}), (0, 1, 5)),
            "std2ab": lambda: (std2ab(std2), (0, 1)),
            "std2 one-sided [e1,e2] = x1*e2": lambda: (corrupt_bracket(
                std2, 0, 1, e(1, 4).scale(x(0))), (0, 1)),
            "rank-8 twisted point, [e1,e2] += e6": lambda: (
                cls.one_sided_rank8(), (0, 1, 5, 6)),
            # only a variable in slot a sees N: Jac(x1·e1, e1, e1) =
            # (ρ(e1)x1)·N(e1,e1) = 2·e4, while A vanishes on span(e1, e4)
            "std2 span(e1, e4), [e1,e1] = e4": lambda: (corrupt_bracket(
                std2, 0, 0, e(3, 4)), (0, 3)),
            # only a repeated triple sees Jacobi fail: Jac(e1,e1,e1) = −e3
            "rank-6 [e1,e1] = e2, [e2,e1] = e3": lambda: (AlgebroidSpec(
                "point", 0, 6, TestNonzeroInheritedForm._hyperbolic(6, 3), None,
                {(0, 0): e(1, 6), (1, 0): e(2, 6)}), (0, 1, 2)),
        }
        spec, gens = build[name]()
        return spec, [g if isinstance(g, Section) else e(g, spec.rank) for g in gens]

    @classmethod
    def one_sided_rank8(cls):
        twisted = cls.rank8_twisted()
        old = twisted.bracket_table.get((0, 1), Section.zero(8))
        return corrupt_bracket(twisted, 0, 1, old + Section.basis(5, 8))

    @pytest.mark.parametrize("name,failing", [
        ("std2 graph", []),
        ("std3 cotangent", []),
        ("ct4 cotangent", []),
        ("rank-8 twisted point", []),
        ("ct4 twist (1,2,3,4) += x1",
         ["twist-values-in-kernel", "jacobi", "twist-closed"]),
        ("ct4 twist (1,2,3,4) += 1",
         ["twist-values-in-kernel", "jacobi", "twist-closed"]),
        ("ct4 twist (1,2,3,5) += x1", ["jacobi"]),
        ("rank-6 skew", ["antisymmetry", "jacobi"]),
        ("std2ab", ["jacobi"]),
        ("std2 one-sided [e1,e2] = x1*e2", ["antisymmetry", "jacobi"]),
        ("rank-8 twisted point, [e1,e2] += e6",
         ["antisymmetry", "jacobi", "twist-closed"]),
        ("std2 span(e1, e4), [e1,e1] = e4", ["antisymmetry", "jacobi"]),
        ("rank-6 [e1,e1] = e2, [e2,e1] = e3", ["antisymmetry", "jacobi"]),
    ])
    def test_every_row_matches_ground_truth(self, request, name, failing):
        from courantkit.axioms import first_failure
        from oracles import monomial_tuples

        spec, gens = self.structure(request, name)
        sub = Subbundle(spec, gens)
        _, report = induced_htla(spec, sub)
        assert report.failing() == failing
        rows = induced_dense_rows(spec, gens)
        for check in report.checks:
            kinds, order, defect = rows[check.axiom]
            truth = first_failure(monomial_tuples(spec, kinds, order, gens),
                                  kinds, defect) is None
            assert (check.status == "pass") == truth, check.axiom

    @pytest.mark.parametrize("name", [
        "ct4 twist (1,2,3,4) += x1", "ct4 twist (1,2,3,4) += 1",
        "ct4 twist (1,2,3,5) += x1", "rank-6 skew", "std2ab",
        "std2 one-sided [e1,e2] = x1*e2",
        "rank-8 twisted point, [e1,e2] += e6",
        "std2 span(e1, e4), [e1,e1] = e4", "rank-6 [e1,e1] = e2, [e2,e1] = e3"])
    def test_witness_defects_match_dense_oracles(self, request, name):
        # the jacobi and twist-closed witnesses replay through the dense
        # oracles: H̃ read off the generators' table, with its sign and the
        # monomial of a scaled slot, is H̃ of the witness's sections
        from courantkit.exact import parse_scalar

        spec, gens = self.structure(request, name)
        _, report = induced_htla(spec, Subbundle(spec, gens))
        rows = induced_dense_rows(spec, gens)
        replayed = 0
        for check in report.checks:
            if check.status == "fail" and check.axiom in ("jacobi", "twist-closed"):
                args = [Section(tuple(parse_scalar(c) for c in coeffs))
                        for coeffs in check.witness["inputs"].values()]
                defect = rows[check.axiom][2](*args)
                assert defect.to_text() == check.witness["defect"], check.axiom
                replayed += 1
        assert replayed

    NAMES = ["std2 graph", "std3 cotangent", "ct4 cotangent",
             "rank-8 twisted point", "ct4 twist (1,2,3,4) += x1",
             "ct4 twist (1,2,3,4) += 1", "ct4 twist (1,2,3,5) += x1",
             "rank-6 skew", "std2ab", "std2 one-sided [e1,e2] = x1*e2",
             "rank-8 twisted point, [e1,e2] += e6",
             "std2 span(e1, e4), [e1,e1] = e4",
             "rank-6 [e1,e1] = e2, [e2,e1] = e3"]

    @pytest.mark.parametrize("name", NAMES)
    def test_jacobi_row_is_the_full_sets(self, request, name):
        # the suites' set builder, read on L, gives the status, label and
        # witness of the full set through the dense oracles
        from courantkit.axioms import first_failure

        spec, gens = self.structure(request, name)
        _, report = induced_htla(spec, Subbundle(spec, gens))
        check = next(c for c in report.checks if c.axiom == "jacobi")
        witness = first_failure(reference_induced_jacobi_tuples(spec, gens),
                                ("x", "y", "z"),
                                induced_dense_rows(spec, gens)["jacobi"][2])
        assert (check.status, check.label, check.witness) == (
            "pass" if witness is None else "fail", "decided", witness)

    @pytest.mark.parametrize("name", NAMES)
    def test_dropped_triples_are_zero_or_mirrored(self, monkeypatch, request,
                                                  name):
        # step (1) holds the tuples with monomial 1, in product order; each
        # generator triple it drops has a zero defect or minus that of its
        # mirror (j,i,k) or (i,k,j), which comes earlier
        import courantkit.axioms as axioms
        import courantkit.dirac as dirac

        spec, gens = self.structure(request, name)
        arguments = []

        def recorded(call, sections, gram, keys, lemma_c, tensor):
            arguments.append((call, sections, gram, list(keys), lemma_c, tensor))
            return axioms._jacobi_tuples(*arguments[-1])

        monkeypatch.setattr(dirac, "_jacobi_tuples", recorded)
        induced_htla(spec, Subbundle(spec, gens))
        kept = [t[3] for t in itertools.takewhile(
            lambda t: t[4] is ONE, axioms._jacobi_tuples(*arguments[0]))]
        assert kept == sorted(set(kept))
        dropped = set(itertools.product(range(len(gens)), repeat=3)) - set(kept)
        jacobi = induced_dense_rows(spec, gens)["jacobi"][2]

        def defect(i, j, k):
            return jacobi(gens[i], gens[j], gens[k])

        for i, j, k in sorted(dropped):
            mirrors = ([(j, i, k)] if i > j else []) + ([(i, k, j)] if k < j else [])
            value = defect(i, j, k)
            assert value.is_zero() or any(
                value == -defect(*m) for m in mirrors), (i, j, k)

    @pytest.mark.parametrize("name,count", [
        ("ct4 cotangent", 4), ("std3 cotangent", 1)])
    def test_passing_jacobi_reads_the_increasing_triples(
            self, monkeypatch, request, name, count):
        # antisymmetry passes, so the set's triples are the C(g,3)
        # increasing ones, each evaluated once
        import courantkit.axioms as axioms

        jacobiator, calls = axioms._jacobiator, []

        def counted(*args):
            calls.append(args[1:])
            return jacobiator(*args)

        monkeypatch.setattr(axioms, "_jacobiator", counted)
        spec, gens = self.structure(request, name)
        _, report = induced_htla(spec, Subbundle(spec, gens))
        assert report.passed, report.failing()
        assert len(calls) == len(set(calls)) == count

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_std2ab_fails_jacobi_at_every_seed(self, std2, tmp_path, capsys, seed):
        # two generators leave no triple; A(e1,e2) = x1·∂2, so (e1, e2, x2·e1)
        # gives −A(e1,e2)x2·e1 = −x1·e1 whatever --seed says
        import json

        from courantkit.cli import main
        from courantkit.fileio import save_spec

        path = str(tmp_path / "std2ab.json")
        save_spec(std2ab(std2), path)
        assert main(["dirac", path, "--subspace", "e1; e2", "--seed", seed]) == 1
        report = json.loads(capsys.readouterr().out)["induced_report"]
        assert [c["axiom"] for c in report["checks"] if c["status"] == "fail"] == [
            "jacobi"]
        jacobi = next(c for c in report["checks"] if c["axiom"] == "jacobi")
        assert jacobi["witness"] == {
            "inputs": {"x": ["1", "0", "0", "0"], "y": ["0", "1", "0", "0"],
                       "z": ["x2", "0", "0", "0"]},
            "defect": ["-x1", "0", "0", "0"]}


def reference_induced_jacobi_tuples(spec, gens):
    """The induced jacobi row's full set: every ordered generator triple in
    product order; then (a, b, xᵥ·g₁) for each ordered generator pair with
    A(a,b)xᵥ ≠ 0; then, when antisymmetry fails on a generator pair, each
    generator triple with one xᵥ in slot b, then in slot a.  A and N are
    read through the dense oracles."""
    from test_axioms import dense_rows

    rows, xs = dense_rows(spec), [x(v) for v in range(spec.nvars)]
    yield from itertools.product(gens, repeat=3)
    pairs = list(itertools.product(gens, repeat=2))
    for a, b in pairs:
        for u, component in zip(xs, rows["anchor-morphism"][1](a, b)):
            if not component.is_zero():
                yield a, b, gens[0].scale(u)
    if any(not rows["antisymmetry"][1](a, b).is_zero() for a, b in pairs):
        for a, b, c in itertools.product(gens, repeat=3):
            for u in xs:
                yield a, b.scale(u), c
                yield a.scale(u), b, c


def std2ab(std2):
    """std2 with [e1,e2] = x1·e2 = −[e2,e1]: the tangent span stays Dirac and
    its bracket skew, but ρ[e1,e2] = x1·∂2 while [∂1,∂2] = 0."""
    e2 = Section.basis(1, 4).scale(x(0))
    return corrupt_bracket(corrupt_bracket(std2, 0, 1, e2), 1, 0, -e2)
