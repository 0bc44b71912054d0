"""End-to-end tests of the command-line front end."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import STD2_FRAME, corrupt_anchor

from courantkit import cli
from courantkit.cli import main
from courantkit.exact import Matrix, ONE, Scalar, ZERO
from courantkit.fileio import load_spec, save_spec
from courantkit.twist import make_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def so3_file(tmp_path, so3):
    path = tmp_path / "so3.json"
    save_spec(so3, str(path))
    return str(path)


@pytest.fixture()
def sl3_file(tmp_path, sl3):
    path = tmp_path / "sl3.json"
    save_spec(sl3, str(path))
    return str(path)


@pytest.fixture()
def so3xso3_file(tmp_path, so3_plus_so3):
    path = tmp_path / "so3xso3.json"
    save_spec(so3_plus_so3, str(path))
    return str(path)


@pytest.fixture()
def std2_file(tmp_path, std2):
    path = tmp_path / "std2.json"
    save_spec(std2, str(path))
    return str(path)


@pytest.fixture()
def std4_file(tmp_path, std4):
    path = tmp_path / "std4.json"
    save_spec(std4, str(path))
    return str(path)


@pytest.fixture()
def split6_file(tmp_path):
    """The abelian point algebra with Gram diag(1, 1, 1, −1, −1, −1)."""
    path = tmp_path / "split6.json"
    save_spec(make_point(6, Matrix([[(ONE if i < 3 else Scalar.rational(-1))
                                     if i == j else ZERO for j in range(6)]
                                    for i in range(6)]), {}), str(path))
    return str(path)


@pytest.fixture()
def ctwist_file(tmp_path, ctwist4):
    path = tmp_path / "ct4.json"
    save_spec(ctwist4, str(path))
    return str(path)


class TestVerify:
    def test_pass_exit_zero(self, capsys, so3_file):
        code, out, _ = run(capsys, "verify", so3_file, "--suite", "courant")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] and doc["schema"] == 2

    def test_axiom_failure_exit_one(self, capsys, ctwist_file):
        code, out, _ = run(capsys, "verify", ctwist_file, "--suite", "courant")
        doc = json.loads(out)
        failing = [c["axiom"] for c in doc["checks"] if c["status"] == "fail"]
        assert code == 1 and failing == ["jacobi"]
        jac = next(c for c in doc["checks"] if c["axiom"] == "jacobi")
        assert jac["witness"]["defect"]

    def test_parse_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        code, out, err = run(capsys, "verify", str(path), "--suite", "courant")
        assert code == 2 and "error" in err

    def test_invariant_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "ring": {"type": "polynomial", "vars": 1}, "rank": 1,
            "gram": [["x1"]], "bracket": {}, "kind": "courant"}))
        code, out, err = run(capsys, "verify", str(path), "--suite", "courant")
        assert code == 2 and "determinant" in err

    def test_determinism(self, capsys, ctwist_file):
        _, out1, _ = run(capsys, "verify", ctwist_file, "--suite", "courant",
                         "--seed", "11")
        _, out2, _ = run(capsys, "verify", ctwist_file, "--suite", "courant",
                         "--seed", "11")
        assert out1 == out2

    def test_stdout_ignores_seed_degree_and_tuples(self, capsys, tmp_path,
                                                   std2, ctwist_file):
        # every row reads a finite set, so the sampling flags change nothing;
        # std2 with anchor entry (2, 0) set to 1 passed both suites at some
        # seeds when the rows sampled
        path = str(tmp_path / "std2rho.json")
        save_spec(corrupt_anchor(std2, 2, 0, ONE), path)
        for argv in ([path, "--suite", "strongly-anchored"],
                     [path, "--suite", "courant"],
                     [ctwist_file, "--suite", "courant"]):
            runs = {run(capsys, "verify", *argv, *flags) for flags in (
                [], ["--seed", "4"], ["--seed", "1", "--degree", "3"],
                ["--tuples", "8", "--degree", "3"])}
            assert len(runs) == 1 and next(iter(runs))[0] == 1, argv

    def test_text_mode(self, capsys, so3_file):
        code, out, _ = run(capsys, "--text", "verify", so3_file,
                           "--suite", "courant")
        assert code == 0 and "passed: True" in out


class TestMake:
    def test_standard_round_trips(self, capsys, tmp_path, std2):
        out_path = tmp_path / "made.json"
        code, _, _ = run(capsys, "make", "standard", "--n", "2",
                         "-o", str(out_path))
        assert code == 0
        assert load_spec(str(out_path)) == std2

    def test_ctwist_then_verify(self, capsys, tmp_path, ctwist4):
        out_path = tmp_path / "ct.json"
        code, _, _ = run(capsys, "make", "ctwist", "--n", "4",
                         "--c", "x1*dx2^dx3^dx4", "-o", str(out_path))
        assert code == 0
        assert load_spec(str(out_path)) == ctwist4
        code, out, _ = run(capsys, "verify", str(out_path),
                           "--suite", "h-twisted")
        assert code == 0

    def test_twist_point_file(self, capsys, tmp_path, split4):
        base = tmp_path / "split4.json"
        save_spec(split4, str(base))
        out_path = tmp_path / "tw.json"
        code, _, _ = run(capsys, "make", "twist", "--base", str(base),
                         "--b", "e1^e2^e3", "-o", str(out_path))
        assert code == 0
        spec = load_spec(str(out_path))
        assert spec.table_bracket(0, 1).coeffs[2] == spec.gram.entries[0][0]
        code, _, _ = run(capsys, "verify", str(out_path), "--suite", "h-twisted")
        assert code == 0

    def test_twist_keeps_the_base_twist(self, capsys, tmp_path):
        # ct4 twisted again by x2·dx1∧dx3∧dx4: its curvature −dx4∧dx5∧dx6∧dx7
        # cancels ct4's twist dx4∧dx5∧dx6∧dx7, so the written twist is zero
        base, out_path = tmp_path / "ct4.json", tmp_path / "t.json"
        code, _, _ = run(capsys, "make", "ctwist", "--n", "4",
                         "--c", "x1*dx2^dx3^dx4", "-o", str(base))
        assert code == 0
        code, _, _ = run(capsys, "make", "twist", "--base", str(base),
                         "--b", "x2*dx1^dx3^dx4", "-o", str(out_path))
        assert code == 0
        twist = load_spec(str(out_path)).twist
        assert twist is not None and twist.is_zero()
        for argv in (["verify", str(out_path), "--suite", "h-twisted"],
                     ["verify", str(out_path), "--suite", "h-twisted-cd"],
                     ["linfty", str(out_path)]):
            code, out, _ = run(capsys, *argv)
            assert code == 0, (argv, out)

    def test_make_to_stdout(self, capsys):
        code, out, _ = run(capsys, "make", "standard", "--n", "1")
        assert code == 0 and json.loads(out)["rank"] == 2


class TestCohomology:
    def test_so3(self, capsys, so3_file):
        code, out, _ = run(capsys, "cohomology", so3_file, "--max-degree", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["betti"] == [1, 0, 0, 1]
        assert doc["d_squared_zero"] is True

    def test_polynomial_needs_truncation(self, capsys, std2_file):
        code, out, err = run(capsys, "cohomology", std2_file,
                             "--max-degree", "2")
        assert code == 2 and "truncation" in err

    def test_cochain_escape_exit_one(self, capsys, tmp_path, so3_plus_so3):
        from conftest import corrupt_twist

        from courantkit.fileio import dumps_canonical

        path = tmp_path / "escape.json"
        save_spec(corrupt_twist(so3_plus_so3, (0, 1, 3, 4), ONE), str(path))
        code, out, err = run(capsys, "cohomology", str(path), "--max-degree", "2")
        expected = {"error": "D maps cochain #0 of degree 1 (KerForm((1)·e2)) "
                             "outside the degree-2 cochain space",
                    "kind": "cochain-escape", "schema": 2}
        assert code == 1 and err == ""
        assert json.loads(out) == expected and out == dumps_canonical(expected)

    def test_polynomial_truncated(self, capsys, std2_file):
        code, out, _ = run(capsys, "cohomology", std2_file, "--max-degree", "2",
                           "--truncate", "1")
        doc = json.loads(out)
        assert code == 0 and doc["betti"] is None


class TestDirac:
    def test_subspace_inline_pass(self, capsys, std2_file):
        code, out, _ = run(capsys, "dirac", std2_file,
                           "--subspace", "e1 + x1*dx2; e2 - x1*dx1")
        doc = json.loads(out)
        assert code == 0
        assert doc["report"]["passed"] and doc["induced"]["kind"] == "h-twisted-lie"

    def test_subspace_checks_dirac_once(self, capsys, monkeypatch, std2_file):
        import courantkit.cli as cli
        import courantkit.dirac as dirac

        calls, check = [], dirac._check_dirac

        def counting(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(cli, "_check_dirac", counting)
        monkeypatch.setattr(dirac, "_check_dirac", counting)
        code, out, _ = run(capsys, "dirac", std2_file,
                           "--subspace", "e1 + x1*dx2; e2 - x1*dx1")
        assert code == 0 and json.loads(out)["induced_report"]["passed"]
        assert len(calls) == 1

    def test_subspace_solves_each_pair_once(self, capsys, monkeypatch,
                                            std2_file):
        import courantkit.dirac as dirac

        calls, solve = [], dirac.express_in_generators

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(dirac, "express_in_generators", counting)
        code, out, _ = run(capsys, "dirac", std2_file, "--subspace",
                           "e1 + x1*dx2; e2 - x1*dx1", "--seed", "0")
        # the integrability check solves the g² = 4 generator brackets and
        # the induced structure reads them; there are no generator triples
        assert len(calls) == 4
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == TestGolden.PINS["dirac-subspace"]

    def test_subspace_failure_exit_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "make", "standard", "--n", "3",
                         "-o", str(tmp_path / "s3.json"))
        code, out, _ = run(capsys, "dirac", str(tmp_path / "s3.json"),
                           "--subspace", "e1 + x3*dx2; e2 - x3*dx1; e3")
        doc = json.loads(out)
        assert code == 1
        checks = {c["axiom"]: c["status"] for c in doc["report"]["checks"]}
        assert checks["integrable"] == "fail"

    def test_search(self, capsys, std2_file):
        code, out, _ = run(capsys, "dirac", std2_file, "--search")
        doc = json.loads(out)
        assert code == 0 and len(doc["search"]) == 4

    def test_non_split_signature_exit_two(self, capsys, so3_file):
        code, out, err = run(capsys, "dirac", so3_file, "--subspace", "e1")
        assert code == 2 and out == ""
        assert "split signature, got (3,0)" in err

    def test_subspace_file(self, capsys, tmp_path, std2_file):
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"generators": ["dx1", "dx2"]}))
        code, out, _ = run(capsys, "dirac", std2_file, "--subspace", str(sub))
        assert code == 0 and json.loads(out)["report"]["passed"]


class TestLinfty:
    def test_twisted_default(self, capsys, ctwist_file):
        code, out, _ = run(capsys, "linfty", ctwist_file)
        doc = json.loads(out)
        assert code == 0 and doc["packaging"] == "twisted" and doc["passed"]

    def test_classical_on_untwisted(self, capsys, std2_file):
        code, out, _ = run(capsys, "linfty", std2_file)
        doc = json.loads(out)
        assert code == 0 and doc["packaging"] == "classical" and doc["passed"]

    def test_force_classical_rejects_twisted(self, capsys, ctwist_file):
        code, out, err = run(capsys, "linfty", ctwist_file, "--classical")
        assert code == 2 and "untwisted" in err


class TestErrorExits:
    """Malformed input exits 2 with a one-line error; a bug exits 3."""

    @pytest.fixture()
    def files(self, tmp_path, std2_file):
        ragged = tmp_path / "ragged.json"
        ragged.write_text(json.dumps({"ring": {"type": "point"}, "rank": 2,
                                      "gram": [["1", "0"], ["0"]]}))
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes('{"kind": "é"}'.encode("latin-1"))
        text = Path(std2_file).read_text()
        doc = json.loads(text)
        doc["bracket"]["00,1"] = ["0", "0", "0", "5"]
        zero_key = tmp_path / "zero_key.json"
        zero_key.write_text(json.dumps(doc))
        repeated = tmp_path / "repeated.json"
        repeated.write_text(text.replace('"rank": 4', '"rank": 4, "rank": 2'))
        return {"<std2>": std2_file, "<ragged>": str(ragged),
                "<latin1>": str(latin1), "<zero-key>": str(zero_key),
                "<repeated>": str(repeated)}

    CASES = {
        "ragged-gram": (["verify", "<ragged>"], "rows differ"),
        "not-utf8": (["verify", "<latin1>"], "UTF-8"),
        "bracket-key-leading-zero": (["verify", "<zero-key>"],
                                     "bracket key '00,1' is not"),
        "repeated-json-key": (["verify", "<repeated>"], "duplicate key 'rank'"),
        "standard-n0": (["make", "standard", "--n", "0"], "--n"),
        "ctwist-n2": (["make", "ctwist", "--n", "2", "--c", "0"], "n >= 3"),
        "ctwist-2form": (["make", "ctwist", "--n", "2", "--c", "dx1^dx2"],
                         "3-form"),
        "ctwist-no-c": (["make", "ctwist", "--n", "4"], "--c"),
        "zero-denominator": (["make", "ctwist", "--n", "4",
                              "--c", "1/0*dx1^dx2^dx3"], "zero denominator"),
        "dirac-no-subspace": (["dirac", "<std2>"], "--subspace"),
        "dirac-generators-not-list": (
            ["dirac", "<std2>", "--subspace", '{"generators": 5}'],
            "generators"),
        "dirac-bad-json": (["dirac", "<std2>", "--subspace", "{]"],
                           "invalid JSON"),
        "cohomology-no-truncate": (["cohomology", "<std2>", "--max-degree", "2"],
                                   "--truncate"),
        "degree-negative": (["verify", "<std2>", "--degree", "-1"], "--degree"),
        "tuples-negative": (["verify", "<std2>", "--tuples", "-3"], "--tuples"),
        "linfty-tuples-negative": (["linfty", "<std2>", "--tuples", "-3"],
                                   "--tuples"),
        "max-degree-negative": (["cohomology", "<std2>", "--max-degree", "-1",
                                 "--truncate", "1"], "--max-degree"),
        "truncate-negative": (["cohomology", "<std2>", "--max-degree", "1",
                               "--truncate", "-1"], "--truncate"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_two(self, capsys, files, name):
        argv, message = self.CASES[name]
        code, out, err = run(capsys, *[files.get(a, a) for a in argv])
        assert code == 2 and out == ""
        assert "error" in err and message in err
        assert "Traceback" not in err

    def test_bad_coefficient_names_position_once(self, capsys):
        code, out, err = run(capsys, "make", "ctwist", "--n", "4", "--c", "é")
        assert code == 2 and out == ""
        assert err == ("error: bad coefficient 'é': bad factor 'é' "
                       "at position 0 in 'é'\n")

    def test_bad_coefficient_names_its_offset(self, capsys):
        code, out, err = run(capsys, "make", "ctwist", "--n", "4",
                             "--c", "x1*é*dx2^dx3^dx4")
        assert code == 2 and out == ""
        assert err == ("error: bad coefficient 'é': bad factor 'é' "
                       "at position 3 in 'x1*é*dx2^dx3^dx4'\n")

    def test_internal_error_exits_three(self, capsys, monkeypatch, std2_file):
        import courantkit.cli as cli

        def broken(*args, **kwargs):
            raise ValueError("an internal defect")

        monkeypatch.setattr(cli, "check_axioms", broken)
        code, out, err = run(capsys, "verify", std2_file)
        assert code == 3 and out == ""
        assert "internal error" in err and "Traceback" in err
        assert "an internal defect" in err

    def test_exact_error_is_an_internal_error(self, capsys, monkeypatch,
                                              std2_file):
        # no input reaches an ExactError, so one that escapes is a bug
        import courantkit.cli as cli
        from courantkit.exact import ExactError

        def broken(*args, **kwargs):
            raise ExactError("matrix is singular")

        monkeypatch.setattr(cli, "check_axioms", broken)
        code, out, err = run(capsys, "verify", std2_file)
        assert code == 3 and out == ""
        assert "internal error" in err and "Traceback" in err
        assert "ExactError: matrix is singular" in err

    def test_rank_mismatch_is_an_internal_error(self, capsys, monkeypatch,
                                                std2_file):
        import courantkit.cli as cli
        from courantkit.structure import Section

        def mismatched(*args, **kwargs):
            return Section.make([1, 2]) + Section.make([1, 2, 3])

        monkeypatch.setattr(cli, "check_axioms", mismatched)
        code, out, err = run(capsys, "verify", std2_file)
        assert code == 3 and out == ""
        assert "internal error" in err and "ValueError" in err


class TestSharedGrammar:
    """main parses every call with the one parser built at import: each call
    prints and returns exactly what a parser built for it alone would."""

    SEQUENCES = {
        "text-then-json": [["--text", "verify", "<std2>"], ["verify", "<std2>"]],
        "seed-placement": [["--seed", "3", "linfty", "<std2>"],
                           ["linfty", "<std2>", "--seed", "3"],
                           ["linfty", "<std2>"]],
        "suite-then-default": [["verify", "<ct4>", "--suite", "h-twisted"],
                               ["verify", "<ct4>"]],
        "bad-suite": [["verify", "<std2>", "--suite", "nosuch"],
                      ["verify", "<std2>"]],
        "bad-degree": [["linfty", "<std2>", "--degree", "two"],
                       ["linfty", "<std2>"]],
        "no-subcommand": [["--seed", "1"], ["verify", "<std2>"]],
        "help": [["--help"], ["verify", "--help"], ["verify", "<std2>"]],
    }

    @pytest.fixture()
    def files(self, std2_file, ctwist_file):
        return {"<std2>": std2_file, "<ct4>": ctwist_file}

    @staticmethod
    def runs(capsys, monkeypatch, calls, fresh):
        """(exit code, stdout, stderr) of each call in turn; ``fresh`` gives
        each call a parser of its own."""
        results = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            results.append(run(capsys, *argv))
        return results

    @pytest.mark.parametrize("order", ["forwards", "reversed"])
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch, files,
                                           name, order):
        calls = [[files.get(a, a) for a in argv] for argv in self.SEQUENCES[name]]
        if order == "reversed":
            calls.reverse()
        shared = self.runs(capsys, monkeypatch, calls, fresh=False)
        assert shared == self.runs(capsys, monkeypatch, calls, fresh=True)

    def test_each_call_parses_into_a_fresh_namespace(self, capsys, monkeypatch,
                                                     files):
        calls = [[files.get(a, a) for a in argv]
                 for name in ("text-then-json", "seed-placement",
                              "suite-then-default")
                 for argv in self.SEQUENCES[name]]
        calls += calls[::-1]
        want = [vars(cli.build_parser().parse_args(argv)) for argv in calls]
        parsed = []
        parse = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            namespace = parse(self, *args, **kwargs)
            parsed.append((namespace, dict(vars(namespace))))
            return namespace

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        for argv in calls:
            main(argv)
        capsys.readouterr()
        assert [values for _, values in parsed] == want
        assert len({id(namespace) for namespace, _ in parsed}) == len(calls)
        assert want[2]["seed"] == want[3]["seed"] == 3 and want[4]["seed"] == 0

    def test_calls_construct_no_parser(self, capsys, monkeypatch, files):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        calls = (self.SEQUENCES["bad-suite"] + self.SEQUENCES["help"]
                 + self.SEQUENCES["seed-placement"]
                 + self.SEQUENCES["suite-then-default"])
        codes = [run(capsys, *[files.get(a, a) for a in argv])[0]
                 for argv in calls]
        assert codes == [2, 0, 0, 0, 0, 0, 0, 0, 0, 1]
        assert built == []

    def test_import_builds_six_parsers(self):
        # the top level and its five subcommands, once per process
        script = ("import argparse\n"
                  "built = []\n"
                  "init = argparse.ArgumentParser.__init__\n"
                  "def counting(self, *args, **kwargs):\n"
                  "    built.append(1)\n"
                  "    init(self, *args, **kwargs)\n"
                  "argparse.ArgumentParser.__init__ = counting\n"
                  "import courantkit.cli\n"
                  "print(len(built))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "6\n", "")

    def test_argparse_exits_are_returned(self, capsys, std2_file):
        code, out, err = run(capsys, "verify", std2_file, "--suite", "nosuch")
        assert code == 2 and out == ""
        assert err.startswith("usage: courantkit verify") and "invalid choice" in err
        code, out, err = run(capsys)
        assert code == 2 and out == "" and "required: command" in err
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: courantkit")
        assert "{verify,make,cohomology,dirac,linfty}" in out


class TestHashSeed:
    """A passing and a failing verify print the same bytes under two hash
    seeds: no report depends on the order of a hashed collection."""

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_verify_stdout(self, tmp_path, ctwist4, corrupt):
        import os
        import pathlib
        import subprocess
        import sys

        from conftest import corrupt_bracket
        from courantkit.structure import Section

        spec = (corrupt_bracket(ctwist4, 1, 2, Section.basis(7, 8))
                if corrupt else ctwist4)
        path = tmp_path / "ct4.json"
        save_spec(spec, str(path))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        runs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
                       PYTHONIOENCODING="utf-8")
            runs.append(subprocess.run(
                [sys.executable, "-c",
                 "import sys; from courantkit.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "verify", str(path), "--suite", "h-twisted", "--seed", "0"],
                env=env, capture_output=True, timeout=120))
        assert [r.returncode for r in runs] == ([1, 1] if corrupt else [0, 0])
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout


class TestGolden:
    """The README commands, a truncated polynomial cohomology and a Dirac
    search print exactly what they printed when pinned.

    Each pin is the SHA-256 of the command's stdout at ``--seed 0``.  A
    refactor that keeps the mathematics must keep these bytes; a deliberate
    change to a report's content or format updates the pins with it.
    """

    PINS = {
        "verify-h-twisted": (0,
            "008117106d48af872ab1ab9ea2a7152873c25355b816b3e6887e1f5403d63e78"),
        "verify-courant": (1,
            "5c0fc3f260c6a63e941a99fe8325754ea62e808e02d15499a4be7842835240de"),
        "linfty": (0,
            "5c905f8a60a8f7452d211a7bc1174343219fd0efd1ae5fbf83d9b2acaae2d220"),
        "dirac-subspace": (0,
            "24dd83b8f71ef839dfa06951da95ca6a2922e086258fffaea985772a7c6673ea"),
        "cohomology": (0,
            "048d9413c3f370eb007f15710925a69f4decbc67038735eb06c049171438c119"),
        "cohomology-truncated": (0,
            "55006a8d68ed6aface7fafc712977c00a619ee22d2dc289d1fe45979aadaa514"),
        "cohomology-sl3": (0,
            "152312d42fe4b2fe28016eb693e87191d91573534349e88d97da80fba7d7cd4e"),
        "cohomology-so3xso3": (0,
            "be748552ac8af14d6611c691b3946de1bc874167ff2eeca5bd46cb9d24eeac32"),
        "dirac-search": (0,
            "1177b1b29ff2e2aab394597b6da0f72d54064e937abe13a0e217140613754e31"),
        "dirac-frame-search": (0,
            "915de8fab96e83c71e026cab8b429c241553c83f13fee9d24a3b4043c0082018"),
        "dirac-frame-subspace": (0,
            "6e1ec034c529a4886ec4978b4625539a3ec5c331eb4f1cc5fc050e7fe04b2e71"),
        "make-ctwist4": (0,
            "97df5bc3479f99afbae47ca2b6355d0f65de012916300ca0bb7e0e830218d7f1"),
        "make-ctwist5": (0,
            "64704e92a3cdd7b7d1ee0a19c7f8421d8c09b540f9aff07ecd32d029a8c9f5de"),
        "make-twist-split6": (0,
            "b9a4a7a49dcf6c14229a652c6215000c404bcaa5766ee98b97e0f66161b176f9"),
    }

    @pytest.fixture()
    def commands(self, ctwist_file, std2_file, std4_file, so3_file, sl3_file,
                 so3xso3_file, split6_file):
        return {
            "verify-h-twisted": ["verify", ctwist_file, "--suite", "h-twisted"],
            "verify-courant": ["verify", ctwist_file, "--suite", "courant"],
            "linfty": ["linfty", ctwist_file],
            "dirac-subspace": ["dirac", std2_file, "--subspace",
                               "e1 + x1*dx2; e2 - x1*dx1"],
            "cohomology": ["cohomology", so3_file, "--max-degree", "3"],
            "cohomology-truncated": ["cohomology", ctwist_file, "--max-degree",
                                     "2", "--truncate", "1"],
            "cohomology-sl3": ["cohomology", sl3_file, "--max-degree", "3"],
            "cohomology-so3xso3": ["cohomology", so3xso3_file, "--max-degree",
                                   "6"],
            "dirac-search": ["dirac", std4_file, "--search"],
            # std2 in a polynomial frame: a Gram matrix with an entry x2
            "dirac-frame-search": ["dirac", str(STD2_FRAME), "--search"],
            "dirac-frame-subspace": ["dirac", str(STD2_FRAME), "--subspace",
                                     "e1; e2"],
            "make-ctwist4": ["make", "ctwist", "--n", "4", "--c",
                             "x1*dx2^dx3^dx4"],
            "make-ctwist5": ["make", "ctwist", "--n", "5", "--c",
                             "x1*x5*dx2^dx3^dx4 + x2^2*dx1^dx3^dx5 - dx1^dx2^dx5"],
            # D₀B = 0 and B̃² = 2·e0∧e1∧e4∧e5 − 2·e0∧e2∧e3∧e5 + e1∧e2∧e3∧e4,
            # so the written twist is −B̃²
            "make-twist-split6": ["make", "twist", "--base", split6_file,
                                  "--b", "e1^e2^e3 + e1^e4^e5 + 2*e2^e4^e6"],
        }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_stdout_pinned(self, capsys, commands, name):
        code, out, _ = run(capsys, *commands[name], "--seed", "0")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert (code, digest) == self.PINS[name]
