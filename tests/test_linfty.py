"""Tests for the two-term homotopy packaging and its verification."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import corrupt_bracket, corrupt_gram, corrupt_twist, sec

from courantkit import linfty
from courantkit.axioms import (_Call, _ax_invariance, _ax_jacobi,
                               _ax_symmetric_part, _ax_twist_closed,
                               _ax_twist_membership, first_failure)
from courantkit.exact import ONE, Scalar
from courantkit.kerforms import KerForm, basis_wedge_form, zero_form
from courantkit.linfty import (
    LInftyData,
    _check_l3_alternating,
    _check_values_in_v1,
    build_classical,
    build_twisted,
    verify_linfty,
)
from courantkit.rand import rand_section, rand_wedge_coeffs
from courantkit.structure import AlgebroidSpec, Section, SpecInvariantError
from courantkit.twist import base_form, c_twist, twist_bracket

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

    def test_built_data_is_frozen(self, ctwist4, std2):
        for data in (build_twisted(ctwist4), build_classical(std2)):
            for name in ("boundary", "l2", "act", "l3", "spec", "classical",
                         "v0_basis", "v1_basis", "split"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(data, name, None)


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

    def test_zeroed_l3_fails_with_witness(self, monkeypatch, ctwist4):
        # with its twist doubled, ct4 fails the suites' twisted-jacobi, so
        # the Jacobi and action rows evaluate, and a zeroed l3 moves the
        # Jacobi witness (−e8 → e8) and fails action-jacobi; on ct4 those
        # rows are proved, and TestSuitesProveTheRows sees the same fault
        data = build_twisted(doubled_twist(ctwist4))
        before = verify_linfty(data, seed=1)
        monkeypatch.setattr(LInftyData, "l3", lambda self, a, b, c: Section.zero(8))
        report = verify_linfty(data, seed=1)
        assert {"jacobi-up-to-boundary", "action-jacobi"} <= set(report.failing())

        def jacobi(report):
            return next(c for c in report.checks
                        if c.axiom == "jacobi-up-to-boundary")
        assert jacobi(report).label == "sampled"
        assert jacobi(report).witness not in (None, jacobi(before).witness)

    def test_alternation_and_membership_see_random_sections(self, monkeypatch,
                                                            ctwist4):
        # random sections reach both checks beside every basis triple
        data = build_twisted(ctwist4)
        seen = {"l3": [], "act": []}

        def recording(name, fn):
            def wrapper(self, *args):
                seen[name].append(any(
                    not c.is_rational() for a in args if isinstance(a, Section)
                    for c in a.coeffs))
                return fn(self, *args)
            return wrapper

        for name in seen:
            monkeypatch.setattr(LInftyData, name,
                                recording(name, getattr(LInftyData, name)))
        randoms = [rand_section(random.Random(3), ctwist4, 2)]
        v0 = data.v0_basis + randoms
        assert _check_l3_alternating(data, randoms) is None
        assert any(seen["l3"])
        seen["l3"].clear()
        assert _check_values_in_v1(data, v0, data.v1_basis, randoms) is None
        assert any(seen["act"]) and any(seen["l3"])

    def test_alternation_seen_past_the_first_five(self, ctwist4):
        # l3 breaks alternation on basis sections 5, 6, 7 (from 0) only, a
        # triple outside the first five; its extra value lies in ker ρ, so
        # only alternation sees it among the first two checks
        data = build_twisted(ctwist4)
        e, kernel = data.v0_basis, data.v1_basis[0]

        class Broken(LInftyData):
            def l3(self, a, b, c):
                value = super().l3(a, b, c)
                return value + kernel if (a, b, c) == (e[5], e[6], e[7]) else value

        fake = Broken(ctwist4, False, data.v1_basis, data.split)
        rng = random.Random(0)
        randoms = [rand_section(rng, ctwist4, 2) for _ in range(3)]
        witness = _check_l3_alternating(fake, randoms)
        assert witness is not None
        assert _check_values_in_v1(fake, e + randoms, data.v1_basis,
                                   randoms) is None
        assert witness["inputs"] == {
            "x": e[5].to_text(), "y": e[6].to_text(), "z": e[7].to_text()}

    @pytest.mark.parametrize("x_index, v_index", [(6, 0), (0, 3)])
    def test_membership_seen_past_the_slices(self, ctwist4, x_index, v_index):
        # the action leaves ker ρ on one basis pair only: a section outside
        # the first six, or a V1 element outside the first three
        data = build_twisted(ctwist4)
        bad = (data.v0_basis[x_index], data.v1_basis[v_index])

        class Broken(LInftyData):
            def act(self, x, v):
                value = super().act(x, v)
                return value + self.v0_basis[0] if (x, v) == bad else value

        fake = Broken(ctwist4, False, data.v1_basis, data.split)
        rng = random.Random(0)
        randoms = [rand_section(rng, ctwist4, 2) for _ in range(3)]
        witness = _check_values_in_v1(fake, data.v0_basis + randoms,
                                      data.v1_basis, randoms)
        assert witness is not None
        assert witness["inputs"] == {"x": bad[0].to_text(),
                                     "v": bad[1].to_text()}

    @pytest.mark.parametrize("name", ["so3", "std2", "std4", "so3_plus_so3",
                                      "ctwist4", "split4_twisted"])
    def test_every_basis_tuple_reaches_alternation_and_membership(
            self, request, monkeypatch, split4, name):
        if name == "split4_twisted":
            b = KerForm(split4, 3, rand_wedge_coeffs(random.Random(5), split4, 3))
            spec, build = twist_bracket(split4, b), build_twisted
        else:
            spec = request.getfixturevalue(name)
            build = build_twisted if name == "ctwist4" else build_classical
        data = build(spec)
        triples, pairs = [], []
        l3, act = LInftyData.l3, LInftyData.act
        monkeypatch.setattr(LInftyData, "l3", lambda self, *xs:
                            triples.append(xs) or l3(self, *xs))
        monkeypatch.setattr(LInftyData, "act", lambda self, *xv:
                            pairs.append(xv) or act(self, *xv))
        basis = set(itertools.combinations(data.v0_basis, 3))
        randoms = [rand_section(random.Random(1), spec, 2)]
        v0 = data.v0_basis + randoms
        assert _check_l3_alternating(data, randoms) is None
        assert basis <= set(triples)
        if build is build_twisted:
            triples.clear()
            assert _check_values_in_v1(data, v0, data.v1_basis,
                                       randoms) is None
            assert basis <= set(triples)
            assert set(itertools.product(v0, data.v1_basis)) <= set(pairs)

    def test_equations_miss_a_broken_invariance(self, split4):
        # what the module docstring says the equations cannot see: over a
        # point D = 0, and this Gram bump breaks invariance only
        from conftest import corrupt_gram

        from courantkit.axioms import check_axioms
        from courantkit.kerforms import basis_wedge_form

        twisted = twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))
        bad = corrupt_gram(twisted, 0, Scalar.rational(2))
        assert check_axioms(bad, "h-twisted").failing() == ["invariance"]
        for seed in range(5):
            assert verify_linfty(build_twisted(bad), seed=seed).passed, seed

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


TWISTED_ROWS = ("l2-skew", "l3-alternating", "values-in-v1",
                "bracket-vs-boundary", "boundary-action-symmetry",
                "jacobi-up-to-boundary", "action-jacobi", "higher-coherence")


class TestLabels:
    """An evaluated L∞ row is "sampled"; a row that a proof settles, with
    nothing evaluated, is "proved"."""

    @staticmethod
    def labels(data, seed=0):
        return {c.axiom: c.label for c in verify_linfty(data, seed=seed).checks}

    def test_twisted_skew(self, ctwist4):
        # ct4 passes the suites' symmetric-part, invariance, twisted-jacobi,
        # twist-membership and twist-closed rows, which prove every row
        assert self.labels(build_twisted(ctwist4)) == {
            axiom: "proved" for axiom in TWISTED_ROWS}

    def test_failing_jacobi_samples_the_rows(self, ctwist4):
        # ct4 with its twist doubled: l2 is skew, twisted-jacobi fails
        proved = {"l2-skew", "l3-alternating", "bracket-vs-boundary"}
        assert self.labels(build_twisted(doubled_twist(ctwist4))) == {
            axiom: "proved" if axiom in proved else "sampled"
            for axiom in TWISTED_ROWS}

    def test_values_in_v1_reads_twist_membership(self, monkeypatch, ctwist4):
        monkeypatch.setattr(linfty, "_ax_twist_membership",
                            lambda call: ({"forced": "ρ̃(twist) ≠ 0"}, "decided"))
        labels = self.labels(build_twisted(ctwist4))
        assert labels["values-in-v1"] == labels["higher-coherence"] == "sampled"
        assert labels["jacobi-up-to-boundary"] == labels["action-jacobi"] == "proved"

    def test_no_skew_samples_the_skew_rows(self, ctwist4):
        labels = self.labels(build_twisted(corrupt_gram(ctwist4, 0, x(0))))
        assert labels["l2-skew"] == labels["l3-alternating"] == "sampled"
        assert labels["bracket-vs-boundary"] == "proved"

    def test_classical(self, std2, so3, std2_frame, ctwist4):
        rows = ("bracket-vs-boundary", "boundary-action-symmetry",
                "jacobi-up-to-boundary", "action-jacobi", "higher-coherence")
        # the suites' courant rows pass on each, including so(3) over a
        # point, where every V1 element is a constant as well
        for spec in (std2, so3, std2_frame):
            labels = self.labels(build_classical(spec))
            assert [labels[axiom] for axiom in rows] == ["proved"] * 5
        # ct4 without its twist fails the courant jacobi row
        labels = self.labels(build_classical(untwisted(ctwist4)))
        assert [labels[axiom] for axiom in rows] == ["sampled"] * 5

    def test_empty_jacobi_set_is_vacuous(self, std1):
        # std1 with [e1,e2] = e1 = −[e2,e1]: l2 is skew, the suites'
        # invariance and jacobi rows fail, so the row is evaluated on its
        # set; with no random section, rank 2 leaves it no triple
        bad = corrupt_bracket(corrupt_bracket(std1, 0, 1, sec(1, 0)),
                              1, 0, sec(-1, 0))
        call = _Call(bad)
        assert call.verdict(_ax_symmetric_part)[0] is None
        assert call.verdict(_ax_invariance)[0] is not None
        assert _ax_jacobi(call, twisted=False)[0] is not None
        for samples, want in ((0, ("pass", "vacuous")), (3, ("fail", "sampled"))):
            rows = {c.axiom: (c.status, c.label) for c in verify_linfty(
                build_classical(bad), seed=0, samples=samples).checks}
            assert rows["jacobi-up-to-boundary"] == want, samples

    def test_classical_action_jacobi_skips_constants(self, monkeypatch, std4):
        # x▷1 = 0, l2(x,y)▷1 = 0 and ∂1 = 0: the tuples with v = 1 are zero;
        # the suites' verdicts are forced off, or the row would be proved
        _force_full_path(monkeypatch)
        seen = []
        equation = linfty._eq_action_jacobi
        monkeypatch.setattr(linfty, "_eq_action_jacobi", lambda data, x, y, v:
                            seen.append(v) or equation(data, x, y, v))
        assert verify_linfty(build_classical(std4), seed=0).passed
        assert len(seen) == 330 and not any(v.is_rational() for v in seen)

    @pytest.mark.parametrize("name, count", [("_eq_bracket_vs_boundary", 66),
                                             ("_eq_boundary_action", 21)])
    def test_classical_boundary_rows_skip_constants(self, monkeypatch, std4,
                                                    name, count):
        # l2(x,∂1) = l2(x,0) = 0, x▷1 = 0 and ∂1 = 0: the tuples with v = 1
        # (or w = 1) are zero; std4 at seed 0 has 11 of 77 in
        # bracket-vs-boundary and 7 of 28 in boundary-action-symmetry; the
        # suites' verdicts are forced off, or the rows would be proved
        _force_full_path(monkeypatch)
        seen = []
        equation = getattr(linfty, name)
        monkeypatch.setattr(linfty, name, lambda data, *t:
                            seen.append(t) or equation(data, *t))
        assert verify_linfty(build_classical(std4), seed=0).passed
        assert len(seen) == count
        assert not any(isinstance(v, Scalar) and v.is_rational()
                       for t in seen for v in t)

    def test_skipped_constant_tuples_are_zero(self, request, monkeypatch):
        # on every classical case, corrupted ones included, each tuple the
        # classical rows skip is zero: (x, c) and (c, w) for a constant c,
        # with x and w the entries the evaluated tuples show
        for name, (make, _) in sorted(DECIDED_CASES.items()):
            spec = make(request.getfixturevalue)
            if not (name.endswith("(classical)") or spec.twist is None):
                continue
            data, pairs = build_classical(spec), []
            equation = linfty._eq_bracket_vs_boundary
            with monkeypatch.context() as m:
                _force_full_path(m)
                m.setattr(linfty, "_eq_bracket_vs_boundary", lambda d, x, v:
                          pairs.append((x, v)) or equation(d, x, v))
                verify_linfty(data, seed=0)
            xs = set(data.v0_basis) | {x for x, _ in pairs}
            vs = {v for _, v in pairs} | {ONE}
            for c in (ONE, Scalar.rational(Fraction(-3, 2))):
                assert all(linfty._eq_bracket_vs_boundary(data, x, c).is_zero()
                           for x in xs), name
                assert all(linfty._eq_boundary_action(data, c, w).is_zero()
                           for w in vs), name


class TestTables:
    """On ct4 with its twist doubled, where l2 is skew and the suites'
    twisted-jacobi fails, so that the rows are evaluated (on ct4 itself
    every row is proved)."""

    def test_each_map_runs_once_per_ordered_tuple(self, monkeypatch, ctwist4):
        data = build_twisted(doubled_twist(ctwist4))
        pairs, triples = [], []
        l2, l3 = LInftyData.l2, LInftyData.l3
        monkeypatch.setattr(LInftyData, "l2", lambda self, a, b:
                            pairs.append((a, b)) or l2(self, a, b))
        monkeypatch.setattr(LInftyData, "l3", lambda self, *xs:
                            triples.append(xs) or l3(self, *xs))
        verify_linfty(data, seed=0)
        assert pairs and len(pairs) == len(set(pairs))
        assert triples and len(triples) == len(set(triples))

    def test_tables_belong_to_the_call(self, monkeypatch, ctwist4):
        # a second call on the same data evaluates every pair again, and
        # data's fields are the ones left on it afterwards
        data = build_twisted(doubled_twist(ctwist4))
        pairs = []
        l2 = LInftyData.l2
        monkeypatch.setattr(LInftyData, "l2", lambda self, a, b:
                            pairs.append((a, b)) or l2(self, a, b))
        fields = {f.name: getattr(data, f.name)
                  for f in dataclasses.fields(data)}
        verify_linfty(data, seed=0)
        first = list(pairs)
        pairs.clear()
        verify_linfty(data, seed=0)
        assert first and pairs == first
        assert all(getattr(data, name) is value
                   for name, value in fields.items())


def _builder(spec):
    """The packaging the CLI picks: twisted whenever the spec has a twist."""
    return build_twisted if spec.twist is not None else build_classical


def doubled_twist(spec):
    """spec with its twist doubled and its bracket kept (README's ct4t)."""
    return AlgebroidSpec(spec.ring, spec.nvars, spec.rank, spec.gram,
                         spec.anchor, dict(spec.bracket_table),
                         {key: c + c for key, c in spec.twist.coeffs.items()},
                         spec.kind)


def untwisted(spec):
    """spec with its twist dropped and its bracket kept."""
    return AlgebroidSpec(spec.ring, spec.nvars, spec.rank, spec.gram,
                         spec.anchor, dict(spec.bracket_table), None, "courant")


# every verdict that verify_linfty reads from the suites
PREMISES = ("_ax_symmetric_part", "_ax_invariance", "_ax_jacobi",
            "_ax_twist_membership", "_ax_twist_closed")


def _force_full_path(monkeypatch):
    """Make verify_linfty evaluate every row it can, and every distinct
    ordered pair and triple, as it does when l2 is not skew: each verdict it
    reads from the suites (S, invariance, Jacobi, twist membership, closed
    twist) fails."""
    for name in PREMISES:
        monkeypatch.setattr(linfty, name, lambda call, **kwargs: (
            {"forced": "off"}, "decided"))


def _decided_cases():
    """name -> (spec builder, whether l2 + l2ᵀ vanishes): passing
    structures, skew structures that fail other equations, and structures
    whose l2 is not skew.  A name ending in "(classical)" runs the classical
    packaging on a structure whose twist is zero."""
    def ct4b(r):
        return c_twist(4, base_form({(0, 1, 2): x(3) * x(3), (1, 2, 3): x(0)}))

    def tw4(r):
        return twist_bracket(r("split4"), basis_wedge_form(r("split4"), (0, 1, 2)))

    def split4_b(r):
        return corrupt_bracket(tw4(r), 0, 1, sec(0, 0, 2, 0))

    return {
        "ct4": (lambda r: r("ctwist4"), True),
        "ct4b": (ct4b, True),
        "std4": (lambda r: r("std4"), True),
        "std2": (lambda r: r("std2"), True),
        "so3": (lambda r: r("so3"), True),
        "split4 + e1^e2^e3": (tw4, True),
        "ct4 twist (0,1,2,3) + x1":
            (lambda r: corrupt_twist(r("ctwist4"), (0, 1, 2, 3), x(0)), True),
        "ct4 twist (4,5,6,7) + 1":
            (lambda r: corrupt_twist(r("ctwist4"), (4, 5, 6, 7), ONE), True),
        "ct4 gram (4,4) = 2":
            (lambda r: corrupt_gram(r("ctwist4"), 4, Scalar.rational(2)), True),
        "ct4b twist (0,1,2,3) + x2":
            (lambda r: corrupt_twist(ct4b(r), (0, 1, 2, 3), x(1)), True),
        "ct4 gram (0,0) = x1":
            (lambda r: corrupt_gram(r("ctwist4"), 0, x(0)), False),
        "std2 [e2,e1] = e2":
            (lambda r: corrupt_bracket(r("std2"), 1, 0, Section.basis(1, 4)),
             False),
        "std4 [e1,e5] = e8":
            (lambda r: corrupt_bracket(r("std4"), 0, 4, Section.basis(7, 8)),
             False),
        "split4 + e1^e2^e3, [e1,e2] = 2e3 (twisted)": (split4_b, False),
        "split4 + e1^e2^e3, [e1,e2] = 2e3 (classical)": (split4_b, False),
        "std2_frame": (lambda r: r("std2_frame"), True),
    }


DECIDED_CASES = _decided_cases()


# the rows that the suites' S, invariance and Jacobi verdicts prove
SETTLED_ROWS = ("bracket-vs-boundary", "boundary-action-symmetry",
                "jacobi-up-to-boundary", "action-jacobi")


def _decided_case(request, name):
    """DECIDED_CASES[name]'s spec, its packaging's builder, whether l2 is
    skew, and the rows that passing suites' verdicts prove beyond l2-skew
    and l3-alternating: SETTLED_ROWS when S, invariance and Jacobi pass;
    twisted, values-in-v1 when twist-membership passes as well, and
    higher-coherence when twist-closed does too (classically, with
    SETTLED_ROWS)."""
    make, skew = DECIDED_CASES[name]
    spec = make(request.getfixturevalue)
    build = build_classical if name.endswith("(classical)") else _builder(spec)
    call = _Call(spec)
    assert (call.verdict(_ax_symmetric_part)[0] is None) is skew
    settled = skew and not (call.verdict(_ax_invariance)[0] or _ax_jacobi(
        call, twisted=build is build_twisted)[0])
    proved = SETTLED_ROWS if settled else ()
    if settled and build is build_classical:
        proved += ("higher-coherence",)
    elif settled and call.verdict(_ax_twist_membership)[0] is None:
        proved += ("values-in-v1",)
        if call.verdict(_ax_twist_closed)[0] is None:
            proved += ("higher-coherence",)
    return spec, build, skew, proved


class TestDecidedSkew:
    """verify_linfty first decides whether l2 is skew on basis pairs (Lemma
    C); when it is, it passes l2-skew and l3-alternating by proof and reads
    l2 by sign, and when the suites' invariance and Jacobi verdicts pass as
    well, it proves the Jacobi, action and boundary rows.  Every other row
    is evaluated on its whole set.  None of that may move a report."""

    @pytest.mark.parametrize("name", sorted(DECIDED_CASES))
    def test_report_equals_the_full_paths(self, request, monkeypatch, name):
        spec, build, skew, proved = _decided_case(request, name)
        for seed in range(4):
            decided = verify_linfty(build(spec), seed=seed).to_json()
            with monkeypatch.context() as m:
                _force_full_path(m)
                full = verify_linfty(build(spec), seed=seed).to_json()
            # the labels differ only where a passing suites' verdict proves
            # the row: l2-skew and l3-alternating, and the rows it settles
            for d, f in zip(decided["checks"], full["checks"]):
                labels = d.pop("label"), f.pop("label")
                if d["axiom"] in proved:
                    assert labels[0] == "proved", (name, d["axiom"])
                elif skew and d["axiom"] in ("l2-skew", "l3-alternating"):
                    assert labels == ("proved", "sampled"), (name, d["axiom"])
                else:
                    assert labels[0] == labels[1], (name, d["axiom"], labels)
            assert decided == full, (name, seed)

    def test_unsettled_rows_evaluate_the_full_paths_tuples(self, request,
                                                          monkeypatch):
        # a skew l2 whose suites' verdicts do not settle the Jacobi and
        # action rows: each evaluates the tuples that the full path does
        def evaluations(spec, build, seed, full):
            n = {"_eq_jacobi_boundary": 0, "_eq_action_jacobi": 0}
            with monkeypatch.context() as m:
                for key in n:
                    def counting(*args, key=key, fn=getattr(linfty, key)):
                        n[key] += 1
                        return fn(*args)
                    m.setattr(linfty, key, counting)
                if full:
                    _force_full_path(m)
                verify_linfty(build(spec), seed=seed)
            return n

        unsettled = []
        for name in sorted(DECIDED_CASES):
            spec, build, skew, proved = _decided_case(request, name)
            if not skew or proved:
                continue
            unsettled.append(name)
            for seed in range(4):
                assert (evaluations(spec, build, seed, False)
                        == evaluations(spec, build, seed, True)), (name, seed)
        assert unsettled == ["ct4 gram (4,4) = 2", "ct4 twist (0,1,2,3) + x1",
                             "ct4 twist (4,5,6,7) + 1",
                             "ct4b twist (0,1,2,3) + x2"], unsettled

    @staticmethod
    def counts(monkeypatch, spec, build, full=False):
        """Evaluations of l2 and l3, and action-jacobi tuples, of one
        verify_linfty call at seed 0, counted through LInftyData's maps;
        ``full`` forces the full path."""
        n = {"l2": 0, "l3": 0, "action-jacobi": 0}

        def counting(key, fn):
            def wrapper(*args):
                n[key] += 1
                return fn(*args)
            return wrapper

        with monkeypatch.context() as m:
            for key, owner, attr in (("l2", LInftyData, "l2"),
                                     ("l3", LInftyData, "l3"),
                                     ("action-jacobi", linfty,
                                      "_eq_action_jacobi")):
                m.setattr(owner, attr, counting(key, getattr(owner, attr)))
            if full:
                _force_full_path(m)
            verify_linfty(build(spec), seed=0)
        return n

    @pytest.mark.parametrize("name, decided, full", [
        ("ct4", (0, 0, 0), (540, 605, 330)),
        ("ct4b", (0, 0, 0), (587, 635, 330)),
        ("std4", (0, 0, 0), (202, 560, 330)),
    ])
    def test_evaluation_counts(self, request, monkeypatch, name, decided, full):
        # (l2 evaluations, l3 evaluations, action-jacobi tuples) at seed 0;
        # S comes from the suites' symmetric-part row, so l2 fills lazily
        # and, when skew, answers the reverse order by sign.  All three pass
        # every suites' verdict that verify_linfty reads (twisted, the twist
        # membership and closed twist too), so the decided path proves
        # every row and evaluates no l2 or l3.  Forced full, the classical
        # action-jacobi is not the Jacobi defect and skips only its 55
        # tuples with v = 1, where every term is zero; bracket-vs-boundary
        # skips its 11 tuples with v = 1
        spec = DECIDED_CASES[name][0](request.getfixturevalue)
        keys = ("l2", "l3", "action-jacobi")
        for forced, want in ((False, decided), (True, full)):
            n = self.counts(monkeypatch, spec, _builder(spec), forced)
            assert tuple(n[k] for k in keys) == want, forced

    def test_counts_without_skew_equal_the_full_paths(self, monkeypatch,
                                                     ctwist4):
        # S(e1,e1) = −D₀x1 ≠ 0: the decided path stops at the first basis
        # pair, which l2-skew reads anyway
        bad = corrupt_gram(ctwist4, 0, x(0))
        assert (self.counts(monkeypatch, bad, build_twisted)
                == self.counts(monkeypatch, bad, build_twisted, full=True)
                == {"l2": 538, "l3": 599, "action-jacobi": 330})

    def test_skew_l2_passes_l3_alternating_unevaluated(self, monkeypatch,
                                                      ctwist4):
        def unexpected(*args):
            raise AssertionError("l3-alternating was evaluated")

        monkeypatch.setattr(linfty, "_check_l3_alternating", unexpected)
        report = verify_linfty(build_twisted(ctwist4), seed=0)
        assert report.passed
        _force_full_path(monkeypatch)
        with pytest.raises(AssertionError, match="evaluated"):
            verify_linfty(build_twisted(ctwist4), seed=0)

    @pytest.mark.parametrize("name", sorted(DECIDED_CASES))
    def test_symmetric_part_matches_the_dense_oracle(self, request, name):
        # verify_linfty's skew verdict is the suites' symmetric-part row;
        # here S = [a,b] + [b,a] − D₀⟨a,b⟩ goes through oracles.dense_bracket
        # on Lemma A's complete set at degree 1 (S has order ≤ 1), and its
        # first failing basis pair a ≤ b is the row's witness
        from oracles import dense_bracket, dense_pairing, monomial_tuples
        from courantkit.axioms import first_failure
        from courantkit.structure import d0

        spec, skew = DECIDED_CASES[name]
        spec = spec(request.getfixturevalue)

        def s(a, b):
            return (dense_bracket(spec, a, b) + dense_bracket(spec, b, a)
                    - d0(spec, dense_pairing(spec, a, b)))

        failure, label = _ax_symmetric_part(_Call(spec))
        assert label == "decided"
        assert (failure is None) is all(
            s(a, b).is_zero() for a, b in monomial_tuples(spec, "ss", 1))
        assert failure == first_failure(
            itertools.combinations_with_replacement(spec.basis_sections(), 2),
            ("phi", "psi"), s)
        assert (failure is None) is skew


def _identity_cases():
    """name -> spec builder, for structures where the suites' S and
    invariance rows pass and their Jacobi row fails, so that Jac − H̃ (Jac
    when untwisted) is not zero.  The untwisted one runs the classical
    packaging."""
    ct4b = DECIDED_CASES["ct4b"][0]
    return {
        "ct4 twist (4,5,6,7) + x1":
            lambda r: corrupt_twist(r("ctwist4"), (4, 5, 6, 7), x(0)),
        "ct4 twist (0,1,2,3) + 1":
            lambda r: corrupt_twist(r("ctwist4"), (0, 1, 2, 3), ONE),
        "ct4b twist (1,5,6,7) + x3":
            lambda r: corrupt_twist(ct4b(r), (1, 5, 6, 7), x(2)),
        "ct4 untwisted": lambda r: untwisted(r("ctwist4")),
    }


IDENTITY_CASES = _identity_cases()


class TestSuitesProveTheRows:
    """When the suites' S, invariance and Jacobi rows pass, verify_linfty
    reports jacobi-up-to-boundary, action-jacobi and the boundary rows as
    proved and evaluates none of them (higher-coherence: TestCoherence).  The proof (linfty's docstrings)
    rests on the identity J = Jac − H̃ (J = Jac classically) wherever S, I
    and A vanish.  These tests hold the packaging's code to that identity
    on structures where Jac − H̃ ≢ 0, so a fault in l2 or l3, which no
    structure file can cause and the proved rows no longer see, shows."""

    @staticmethod
    def identity(spec, draws: int = 20, seed: int = 11):
        """The first seeded random triple of degree-2 sections where J −
        (Jac − H̃) ≠ 0, or None, and how many triples had Jac − H̃ ≠ 0.  J is
        linfty's Jacobi defect on the packaging's own maps, read at call
        time; Jac goes through oracles.dense_bracket."""
        from functools import partial

        from oracles import dense_bracket

        from courantkit.axioms import first_failure
        from courantkit.structure import _jacobiator

        data = _builder(spec)(spec)
        rng = random.Random(seed)
        triples = [tuple(rand_section(rng, spec, 2) for _ in range(3))
                   for _ in range(draws)]
        expected = []
        for t in triples:
            jac = _jacobiator(partial(dense_bracket, spec), *t)
            expected.append(jac if data.classical else jac - data.split(*t))
        failure = first_failure(
            ((*t, want) for t, want in zip(triples, expected)), ("x", "y", "z"),
            lambda a, b, c, want: linfty._eq_jacobi_boundary(data, a, b, c) - want)
        return failure, sum(not want.is_zero() for want in expected)

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_jacobi_defect_is_the_suites_jacobiator(self, request, name):
        spec = IDENTITY_CASES[name](request.getfixturevalue)
        call = _Call(spec)
        assert call.verdict(_ax_symmetric_part)[0] is None
        assert call.verdict(_ax_invariance)[0] is None
        assert _ax_jacobi(call, twisted=spec.twist is not None)[0] is not None
        failure, nonzero = self.identity(spec)
        assert failure is None
        assert nonzero >= 10, nonzero

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_identity_sees_a_zeroed_l3(self, request, monkeypatch, name):
        # the fault that the proved Jacobi row hides on ct4 (the run-time
        # variant on a doubled twist is TestVerify's)
        spec = IDENTITY_CASES[name](request.getfixturevalue)
        zero = Scalar.rational(0) if spec.twist is None else Section.zero(spec.rank)
        monkeypatch.setattr(LInftyData, "l3", lambda self, a, b, c: zero)
        assert self.identity(spec)[0] is not None

    def test_proved_rows_evaluate_nothing(self, monkeypatch, ctwist4, std4):
        def unexpected(*args):
            raise AssertionError("a proved row was evaluated")

        for name in ("_eq_bracket_vs_boundary", "_eq_boundary_action",
                     "_eq_jacobi_boundary", "_eq_action_jacobi",
                     "_eq_higher_coherence", "_check_values_in_v1"):
            monkeypatch.setattr(linfty, name, unexpected)
        assert verify_linfty(build_twisted(ctwist4), seed=0).passed
        assert verify_linfty(build_classical(std4), seed=0).passed


# the structures on which verify_linfty proves higher-coherence: the
# DECIDED_CASES that pass every premise, and sl(3) over a point
COHERENT_CASES = ("ct4", "ct4b", "so3", "split4 + e1^e2^e3", "std2",
                  "std2_frame", "std4", "sl3")


def _coherent_spec(request, name):
    if name == "sl3":
        return request.getfixturevalue("sl3")
    return DECIDED_CASES[name][0](request.getfixturevalue)


class _DenseBracket(LInftyData):
    """The packaging with its bracket read through oracles.dense_bracket."""

    def _bracket(self, x, y):
        from oracles import dense_bracket

        return dense_bracket(self.spec, x, y)


class TestCoherence:
    """When every suites' verdict that verify_linfty reads passes (S,
    invariance and Jacobi; twisted, also twist-membership and twist-closed),
    it reports higher-coherence as proved and evaluates no quad.  These
    tests hold the packaging's code to the proof (verify_linfty's
    docstring): the defect vanishes on the structures where it is proved,
    a fault in l3 still shows, and each premise gates the row."""

    @staticmethod
    def coherence(spec, dense: bool = False, draws: int = 20, seed: int = 13):
        """The first quad, among every increasing basis quad and ``draws``
        seeded random quads of degree-3 sections, where the higher-coherence
        defect of spec's packaging is not zero, or None.  The maps are
        LInftyData's, read at call time; ``dense`` reads the bracket through
        oracles.dense_bracket."""
        data = _builder(spec)(spec)
        if dense:
            data = _DenseBracket(spec, data.classical, data.v1_basis, data.split)
        rng = random.Random(seed)
        quads = list(itertools.combinations(data.v0_basis, 4))
        quads += [tuple(rand_section(rng, spec, 3) for _ in range(4))
                  for _ in range(draws)]
        return first_failure(quads, ("x1", "x2", "x3", "x4"),
                             lambda *t: linfty._eq_higher_coherence(data, *t))

    def test_the_coherent_cases_are_the_proved_ones(self, request):
        proved = [name for name in sorted(DECIDED_CASES)
                  if "higher-coherence" in _decided_case(request, name)[3]]
        assert proved + ["sl3"] == list(COHERENT_CASES)
        labels = {c.axiom: c.label for c in verify_linfty(
            build_classical(request.getfixturevalue("sl3"))).checks}
        assert set(labels.values()) == {"proved"}, labels

    @pytest.mark.parametrize("dense", [False, True], ids=["own", "dense"])
    @pytest.mark.parametrize("name", COHERENT_CASES)
    def test_defect_vanishes_where_proved(self, request, name, dense):
        assert self.coherence(_coherent_spec(request, name), dense) is None

    @pytest.mark.parametrize("dense", [False, True], ids=["own", "dense"])
    def test_defect_seen_where_jacobi_fails(self, ctwist4, dense):
        # ⟨e5,e5⟩ = 2: the suites' S and invariance rows pass, their
        # twisted Jacobi row fails, and so does the coherence
        bad = corrupt_gram(ctwist4, 4, Scalar.rational(2))
        call = _Call(bad)
        assert call.verdict(_ax_symmetric_part)[0] is None
        assert call.verdict(_ax_invariance)[0] is None
        assert _ax_jacobi(call, twisted=True)[0] is not None
        assert self.coherence(bad, dense) is not None

    @pytest.mark.parametrize("name, fault", [
        ("ct4", "drop H̃"), ("ct4", "double M"), ("ct4", "bracket in M"),
        ("std4", "bracket in M")])
    def test_a_broken_l3_shows(self, request, monkeypatch, name, fault):
        # faults that the proved row hides: verify_linfty still passes.
        # Doubling M classically doubles the whole defect, which is linear
        # in l3 there (x▷f reads no l3), so std4 gets the fault that reads
        # [a,b] for l2(a,b) in M, dropping l2's −½D⟨a,b⟩
        from courantkit.structure import bracket, d0, pairing

        spec = DECIDED_CASES[name][0](request.getfixturevalue)
        l3 = LInftyData.l3

        def broken(self, x, y, z):
            value = l3(self, x, y, z)
            split = Section.zero(spec.rank) if self.classical else self.split(x, y, z)
            if fault == "drop H̃":
                return value - split
            if fault == "double M":
                return value + value - split
            metric = linfty._MINUS_SIXTH * sum(
                (pairing(spec, bracket(spec, a, b), c) for a, b, c
                 in ((x, y, z), (y, z, x), (z, x, y))), Scalar.rational(0))
            return metric if self.classical else d0(spec, metric) + split

        monkeypatch.setattr(LInftyData, "l3", broken)
        assert verify_linfty(_builder(spec)(spec), seed=0).passed
        assert self.coherence(spec) is not None

    @pytest.mark.parametrize("name, premise", [
        *(("ct4", premise) for premise in PREMISES),
        *(("std4", premise) for premise in PREMISES[:3])])
    def test_each_premise_gates_the_row(self, request, monkeypatch, name,
                                        premise):
        # one failing premise: the row is evaluated, and its status and
        # witness are those of the full path
        spec = DECIDED_CASES[name][0](request.getfixturevalue)

        def row(report):
            return next(c for c in report.checks
                        if c.axiom == "higher-coherence").to_json()

        with monkeypatch.context() as m:
            _force_full_path(m)
            full = row(verify_linfty(_builder(spec)(spec), seed=0))
        monkeypatch.setattr(linfty, premise, lambda call, **kwargs: (
            {"forced": "off"}, "decided"))
        assert row(verify_linfty(_builder(spec)(spec), seed=0)) == full
        assert full["label"] == "sampled"

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES) + ["ct4", "std4"])
    def test_quartic_defect_is_the_jacobiators(self, request, name):
        # the proof's Ψ = ¼·Σₖ εₖ⟨Jac(x̂ₖ),xₖ⟩: Ψ is the classical
        # packaging's defect (its maps built directly, as build_classical
        # refuses a twist) on a structure whose S, invariance and
        # anchor-morphism rows pass, Jac goes through oracles.dense_bracket;
        # Jac ≢ 0 on all but std4, where both sides vanish
        from functools import partial

        from oracles import dense_bracket

        from courantkit.structure import _jacobiator, pairing

        if name in IDENTITY_CASES:
            spec = IDENTITY_CASES[name](request.getfixturevalue)
        else:
            spec = DECIDED_CASES[name][0](request.getfixturevalue)
        data = LInftyData(spec, True, ())
        rng = random.Random(17)
        nonzero = 0
        for _ in range(10):
            xs = [rand_section(rng, spec, 2) for _ in range(4)]
            want = Scalar.rational(0)
            for k, rest, sign in linfty._UNSHUFFLES_13:
                term = pairing(spec, _jacobiator(partial(dense_bracket, spec),
                                                 *(xs[r] for r in rest)), xs[k])
                want = want + (term if sign > 0 else -term)
            want = want * Scalar.rational(Fraction(1, 4))
            assert linfty._eq_higher_coherence(data, *xs) == want, xs
            nonzero += not want.is_zero()
        assert nonzero == 0 if name == "std4" else nonzero >= 5, nonzero
