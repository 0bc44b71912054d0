"""Failing reports print exactly what they printed when pinned.

Each pin is the list of failing checks and the SHA-256 of the report's
canonical JSON without its labels (at seed 0 for the homotopy packagings,
which draw random sections; the axiom suites and the induced algebroid draw
none).  Witnesses depend on the order in which a check draws and evaluates
its tuples, so these pins guard that order for every check that has a
failing structure here: all eight suites, both homotopy packagings (every
equation except ``values-in-v1``, which no structure here breaks) and the
induced Dirac algebroid.  The labels say how a verdict was reached, not
what it is; the CLI goldens in test_cli pin them byte for byte, and
assert_pinned checks here that they agree with the statuses.  The digests
are those of the schema-1 reports, which had no labels.

TestWitnessReplay recomputes each failing witness of the axiom-suite pins
through the dense oracles.
"""

import hashlib
import json

import pytest

from conftest import corrupt_bracket, corrupt_twist, sec

from courantkit.axioms import SUITES, check_axioms
from courantkit.cli import main
from courantkit.dirac import Subbundle, induced_htla
from courantkit.exact import Matrix, ONE, Scalar, ZERO, parse_scalar
from courantkit.fileio import save_spec
from courantkit.kerforms import basis_wedge_form
from courantkit.linfty import build_classical, build_twisted, verify_linfty
from courantkit.structure import AlgebroidSpec, Section
from courantkit.twist import twist_bracket

x = Scalar.variable


def digest(report) -> str:
    doc = report.to_json()
    doc["checks"] = [{k: v for k, v in check.items() if k != "label"}
                     for check in doc["checks"]]
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def assert_pinned(report, failing, sha):
    assert (report.failing(), digest(report)) == (failing, sha)
    # a failure is evaluated, so it is decided or sampled, never by proof
    for check in report.checks:
        assert check.label in (("decided", "sampled") if check.status == "fail"
                               else ("proved", "decided", "sampled", "vacuous"))


BRACKET_PINS = {
    "almost-courant-dorfman": (
        ["invariance", "symmetric-part"],
        "fea5dd43f5c8f2d3c77673a2055013377be633b9f7d63f5b3058e73584e5262b"),
    "courant": (
        ["jacobi", "symmetric-part", "invariance"],
        "269e4380c7d82eece341cbfec20a0e855a08144aecf359c359052d3436961666"),
    "courant-dorfman": (
        ["invariance", "symmetric-part", "jacobi"],
        "b354ae04be2c9b9debf677cc88c14acc19b70cb49e39b94cb3d23337e0237cda"),
    "h-twisted": (
        ["twisted-jacobi", "symmetric-part", "invariance"],
        "08d9edaa7a2f495c89f127b684dad953738c6591f56b55cd1049d63c265a8c80"),
    "h-twisted-cd": (
        ["invariance", "symmetric-part", "twisted-jacobi"],
        "1f3aaf96e563c486130b1ac5a5960f063cf19f07c3959f9ed20b152e01bb0368"),
    "lie-rinehart": (
        ["antisymmetry", "jacobi-cyclic"],
        "0ed3c44bfd3be0f6797be2720ea872f86d456751ff753d53673871d6058327a3"),
    "sa-courant-dorfman": (
        ["invariance", "symmetric-part"],
        "e4f4a5920aea298187ae475ffabf60ff6bbdfe4be5480d2d2a1549f525dba6c9"),
    "strongly-anchored": (
        ["symmetric-part", "invariance"],
        "f806226375930c6a9e641a3328c2027f8763260ca14386692957ff43ac1cf894"),
}


UNTWISTED_PINS = [
    ("courant", ["jacobi"],
     "57eb143127bbbbc30380cd8478136d0efcd76ebb43e40aced6582a7380bf57b6"),
    ("lie-rinehart", ["antisymmetry", "jacobi-cyclic"],
     "3551040aca48491f93b86f0dad4ceb99e232db035aa058de6c185718058202a0"),
]

TWIST_PINS = [
    ((4, 5, 6, 7), ONE, "h-twisted", ["twisted-jacobi"],
     "7827fcac7dc4494000a714e54045e749ca36ad121514345c8bc884b40a4c835b"),
    ((4, 5, 6, 7), ONE, "h-twisted-cd", ["twisted-jacobi"],
     "937bbf415395d9420133c1a9bdf1395c2f901cf8b2e9afff2288bef24745dc8f"),
    ((0, 1, 2, 3), x(0), "h-twisted",
     ["twist-membership", "twisted-jacobi", "twist-closed"],
     "18fb1f9842799b1d1b784b6bf77c3d8350d22e8009ad9604d12b19098b64a692"),
    ((0, 1, 2, 3), x(0), "h-twisted-cd", ["twisted-jacobi", "twist-closed"],
     "a64f3def3dc302fb82636bd0485a3fc142a16d79f39770c00b973efcd390f33c"),
]


def suite_pins(ctwist4) -> list[tuple]:
    """(structure, suite) of each axiom-suite pin of TestSuitePins."""
    bad = corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
    return ([(bad, suite) for suite in sorted(BRACKET_PINS)]
            + [(ctwist4, suite) for suite, _, _ in UNTWISTED_PINS]
            + [(corrupt_twist(ctwist4, key, value), suite)
               for key, value, suite, _, _ in TWIST_PINS])


class TestSuitePins:
    def test_every_suite_is_pinned(self):
        assert sorted(BRACKET_PINS) == sorted(SUITES)

    @pytest.mark.parametrize("suite", sorted(BRACKET_PINS))
    def test_corrupted_bracket(self, ctwist4, suite):
        bad = corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
        assert_pinned(check_axioms(bad, suite), *BRACKET_PINS[suite])

    @pytest.mark.parametrize("suite,failing,sha", UNTWISTED_PINS)
    def test_twisted_structure_under_untwisted_suites(self, ctwist4, suite,
                                                     failing, sha):
        assert_pinned(check_axioms(ctwist4, suite), failing, sha)

    @pytest.mark.parametrize("key,value,suite,failing,sha", TWIST_PINS)
    def test_corrupted_twist(self, ctwist4, key, value, suite, failing, sha):
        bad = corrupt_twist(ctwist4, key, value)
        assert_pinned(check_axioms(bad, suite), failing, sha)


class TestLinftyPins:
    @pytest.fixture()
    def split4_b_corrupted(self, split4):
        twisted = twist_bracket(split4, basis_wedge_form(split4, (0, 1, 2)))
        return corrupt_bracket(twisted, 0, 1, sec(0, 0, 2, 0))

    def test_classical_std2(self, std2):
        bad = corrupt_bracket(std2, 0, 2, Section.basis(3, 4))
        assert_pinned(
            verify_linfty(build_classical(bad), seed=0),
            ["l2-skew", "l3-alternating", "bracket-vs-boundary",
             "jacobi-up-to-boundary", "action-jacobi", "higher-coherence"],
            "9565dcc1b9a862a1b85a4e77c075a34c5a8f1744e7e074361221cb2a1d1310f0")

    def test_classical_split4_b(self, split4_b_corrupted):
        assert_pinned(
            verify_linfty(build_classical(split4_b_corrupted), seed=0),
            ["l2-skew", "l3-alternating", "jacobi-up-to-boundary",
             "higher-coherence"],
            "5d24f5a99df3bc50880c6905e8aae235227d0a42aeb9766e6caebfdb0002c966")

    def test_twisted_split4_b(self, split4_b_corrupted):
        assert_pinned(
            verify_linfty(build_twisted(split4_b_corrupted), seed=0),
            ["l2-skew", "boundary-action-symmetry", "jacobi-up-to-boundary",
             "action-jacobi"],
            "688fb55c275797586680e19aa4e31290fe475a584e268b67241212381a1d3e37")


class TestInducedPins:
    def test_twist_values_and_jacobi(self, ctwist4):
        bad = corrupt_twist(ctwist4, (0, 1, 2, 3), x(0))
        sub = Subbundle(bad, [Section.basis(i, 8) for i in range(4, 8)])
        _, report = induced_htla(bad, sub)
        # H̃(e5,e6,e7) = x1·e4 leaves ker ρ, so twist-closed also reads the
        # quads with one variable in the first slot: (x4·e5, e5, e6, e7)
        # gives −ρ(x1·e4)x4·e5 = −x1·e5
        assert_pinned(
            report, ["twist-values-in-kernel", "jacobi", "twist-closed"],
            "8169e5148ed1b88b3838babbc5aa9d9093e10ad716b0c3b894e362c975bd3075")

    def test_antisymmetry(self):
        # the rank-6 hyperbolic pairing of test_dirac's TestNonzeroInheritedForm,
        # with a bracket that is not skew on span(e0, e1, e5)
        gram = Matrix([[ONE if abs(i - j) == 3 else ZERO for j in range(6)]
                       for i in range(6)])
        table = {(0, 1): Section.basis(5, 6), (1, 0): Section.basis(1, 6),
                 (5, 5): Section.basis(0, 6)}
        spec = AlgebroidSpec("point", 0, 6, gram, None, table)
        sub = Subbundle(spec, [Section.basis(i, 6) for i in (0, 1, 5)])
        _, report = induced_htla(spec, sub)
        assert_pinned(
            report, ["antisymmetry", "jacobi"],
            "b9459829bbe22cfc045dcd69c3ff8a46b374eb6e2d1874a03df8add69504bbff")


def _parse(value):
    """A witness input from its JSON text: a Section or a Scalar."""
    if isinstance(value, list):
        return Section(tuple(parse_scalar(c) for c in value))
    return parse_scalar(value)


def _text(defect):
    """A defect as a witness prints it."""
    if isinstance(defect, tuple):
        return [c.to_text() for c in defect]
    return defect.to_text()


class TestWitnessReplay:
    """Each failing witness of the axiom-suite pins, parsed from the
    report's JSON and recomputed through test_axioms.dense_rows, the dense
    oracles' defect of its row, prints the reported defect.

    Not replayed: twist-membership and twist-closed, whose inputs are the
    twist itself and whose defects are a component of ρ̃(twist) and the
    covariant derivative of the twist, rows dense_rows has no oracle for;
    and the L∞ and induced pins, which are not axiom-suite pins (the
    induced witnesses are replayed by test_dirac's TestInducedFiniteSets).
    """

    def test_every_failing_witness_replays(self, ctwist4):
        from test_axioms import dense_rows

        replayed, skipped = 0, set()
        for spec, suite in suite_pins(ctwist4):
            rows = dense_rows(spec)
            doc = json.loads(json.dumps(check_axioms(spec, suite).to_json()))
            for check in doc["checks"]:
                if check["status"] != "fail":
                    continue
                if check["axiom"] not in rows:
                    skipped.add(check["axiom"])
                    continue
                inputs = [_parse(v) for v in check["witness"]["inputs"].values()]
                defect = rows[check["axiom"]][1](*inputs)
                assert _text(defect) == check["witness"]["defect"], (
                    suite, check["axiom"])
                replayed += 1
        assert skipped == {"twist-membership", "twist-closed"}
        assert replayed == 27


class TestOneOrderSkewBreak:
    """[e1, e2] is corrupted and [e2, e1] left alone, so only the ordered
    pairs read separately see the broken skewness; a bracket table filled
    from one order would hide it."""

    WITNESS = {"inputs": {"phi": ["0", "1", "0", "0", "0", "0", "0", "0"],
                          "psi": ["0", "0", "1", "0", "0", "0", "0", "0"]},
               "defect": ["0", "0", "0", "0", "0", "0", "0", "-x1 + 1"]}

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_part_witness(self, ctwist4, tmp_path, capsys, seed):
        # verify samples nothing, so every --seed prints this witness
        bad = corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
        path = str(tmp_path / "bad.json")
        save_spec(bad, path)
        assert main(["verify", path, "--suite", "h-twisted",
                     "--seed", str(seed)]) == 1
        report = json.loads(capsys.readouterr().out)
        check = next(c for c in report["checks"] if c["axiom"] == "symmetric-part")
        assert (check["status"], check["witness"]) == ("fail", self.WITNESS)
