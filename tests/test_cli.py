"""End-to-end tests of the command-line front end."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import STD2_FRAME

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
        assert code == 0 and doc["passed"] and doc["schema"] == 1

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
                    "kind": "cochain-escape", "schema": 1}
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
        try:
            code, out, err = run(capsys, *[files.get(a, a) for a in argv])
        except SystemExit as exc:  # argparse rejects the value itself
            code, out, err = exc.code, "", capsys.readouterr().err
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
            "5c1e8c76ec7c7e160f13c0520862c36a1c021da882c2faaa4fe53983740838ed"),
        "verify-courant": (1,
            "a178a29655b70a58b37d80209be9f5fd7e4ea237b9479a237d522ed3e7c991a3"),
        "linfty": (0,
            "3aee430eb7a38f9b49399d2c5c7a0b9eb360380393684ef564e64b538e888551"),
        "dirac-subspace": (0,
            "fa6df628acd18b26d7045afa665ab25b393e790d7d530cc9b3e292af661d413a"),
        "cohomology": (0,
            "dc735092d3a45f8ac0facc812fd95671a97597b69ee8f1407d7cfc411a43e51d"),
        "cohomology-truncated": (0,
            "ec8cdd812cedbebf4f7e7a99c1cc7b806539f8b6bd65d07a6e5f50be59a55e0d"),
        "cohomology-sl3": (0,
            "75de93bbffa4d757f3c79b839e14680f08a5f0616267dc36c8c28b0f61834504"),
        "cohomology-so3xso3": (0,
            "2cb7bb2630c64cd5590184922c020b0a1cfb0148260bf7a5510ffcd0c7a45487"),
        "dirac-search": (0,
            "e2f5690f5423f05ec5de9942449c7b962d5f97af0f28c68f95eddcb9a2e9cb75"),
        "dirac-frame-search": (0,
            "94b577bd1e753dad3c3220ec2bcb78c35c4a5ba0809a7ccf3d841d72c7104d25"),
        "dirac-frame-subspace": (0,
            "ae5959bf5a74d1bad619e3180e48e5d94933eae32612c227199f8ccc2009dad3"),
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
