"""The four workloads: CLI jobs and the values each job's output must show.

A job is a ``courantkit`` command line; ``{stem}`` names a structure file
that ``fixtures.write_all`` wrote.  The benchmark seed is appended to every
job as ``--seed`` and is the only thing that varies between runs, so every
expected value below holds on every seed:

* suites that must pass list their axioms in the order the report gives;
* a rejected structure must exit 1 and fail each pinned axiom with a
  nonzero witness.  Pinned are only the axioms that failed on all of seeds
  0-19 (std2's bracket corruption, for one, fails ``jacobi`` on some seeds
  only);
* cochain dimensions are C(rank, p); the Betti numbers of sl(3) and of
  so(3)⊕so(3) are those of the exterior algebras on classes of degree 3 and
  5, and on two classes of degree 3 (Künneth);
* the coordinate Dirac search on std4 finds all 2⁴ subsets of one of each
  pair ∂ᵢ, dxᵢ; ct4's count of 14 is pinned from the code as it stood when
  the benchmark was written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Callable

COURANT = ("jacobi", "leibniz", "symmetric-part", "invariance")
H_TWISTED = ("twist-membership", "twisted-jacobi", "twist-closed", "leibniz",
             "symmetric-part", "invariance")
H_TWISTED_CD = ("leibniz", "invariance", "symmetric-part", "twisted-jacobi",
                "twist-closed", "derivation-bracket", "derivation-isotropy")
LINFTY_TWISTED = ("l2-skew", "l3-alternating", "values-in-v1",
                  "bracket-vs-boundary", "boundary-action-symmetry",
                  "jacobi-up-to-boundary", "action-jacobi", "higher-coherence")
LINFTY_CLASSICAL = tuple(a for a in LINFTY_TWISTED if a != "values-in-v1")

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    exit_code: int
    check: Check

    def command(self, files: dict[str, str], seed: int) -> list[str]:
        return [a.format(**files) for a in self.argv] + ["--seed", str(seed)]


# -- checks on a parsed report -------------------------------------------------------


def _nonzero(defect) -> bool:
    if isinstance(defect, list):
        return any(_nonzero(d) for d in defect)
    if isinstance(defect, dict):
        return any(_nonzero(d) for d in defect.values())
    return defect not in (None, "", "0")


def _all_pass(report: dict, axioms: tuple[str, ...]) -> list[str]:
    got = tuple(c["axiom"] for c in report["checks"])
    problems = [] if got == axioms else [f"axioms {got} != {axioms}"]
    problems += [f"{c['axiom']} {c['status']}" for c in report["checks"]
                 if c["status"] != "pass"]
    if report["passed"] is not True:
        problems.append("report not passed")
    return problems


def _pinned_failures(report: dict, axioms: tuple[str, ...]) -> list[str]:
    status = {c["axiom"]: c for c in report["checks"]}
    problems = [] if report["passed"] is False else ["report passed"]
    for axiom in axioms:
        check = status.get(axiom)
        if check is None or check["status"] != "fail":
            problems.append(f"{axiom} did not fail")
        elif not (check["witness"] and _nonzero(check["witness"]["defect"])):
            problems.append(f"{axiom} failed without a nonzero witness")
    return problems


def passes(*axioms: str) -> Check:
    return lambda doc: _all_pass(doc, axioms)


def fails(*axioms: str) -> Check:
    return lambda doc: _pinned_failures(doc, axioms)


def dirac_fails(*axioms: str) -> Check:
    return lambda doc: (_pinned_failures(doc["report"], axioms)
                        + ([] if doc["induced"] is None else ["induced emitted"]))


def dirac_induced(doc: dict) -> list[str]:
    problems = _all_pass(doc["report"], ("isotropic", "lagrangean", "integrable"))
    if doc["induced_report"]["passed"] is not True:
        problems.append("induced algebroid failed")
    if doc["induced"]["kind"] != "h-twisted-lie":
        problems.append(f"induced kind {doc['induced']['kind']}")
    return problems


def linfty(packaging: str) -> Check:
    axioms = LINFTY_TWISTED if packaging == "twisted" else LINFTY_CLASSICAL

    def check(doc: dict) -> list[str]:
        problems = _all_pass(doc, axioms)
        if doc["packaging"] != packaging:
            problems.append(f"packaging {doc['packaging']}")
        return problems
    return check


def cohomology(rank: int, betti: list[int]) -> Check:
    dims = [comb(rank, p) for p in range(len(betti))]

    def check(doc: dict) -> list[str]:
        problems = []
        if doc["dims"] != dims:
            problems.append(f"dims {doc['dims']} != {dims}")
        if doc["betti"] != betti:
            problems.append(f"betti {doc['betti']} != {betti}")
        if doc["d_squared_zero"] is not True or doc["readings_agree"] is not True:
            problems.append("d² ≠ 0 or readings disagree")
        return problems
    return check


def search(count: int, half: int) -> Check:
    def check(doc: dict) -> list[str]:
        found = [tuple(map(tuple, s["generators"])) for s in doc["search"]]
        problems = [] if len(found) == count else [f"{len(found)} found, want {count}"]
        if len(set(found)) != len(found) or any(len(g) != half for g in found):
            problems.append("repeated or wrong-sized subbundles")
        return problems
    return check


def check_output(job: Job, exit_code: int, stdout: str) -> list[str]:
    """Every way the job's result differs from what it must be."""
    if exit_code != job.exit_code:
        return [f"exit {exit_code}, want {job.exit_code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    try:
        return job.check(doc)
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc}"]


# -- the workloads ----------------------------------------------------------------

WORKLOADS: dict[str, tuple[Job, ...]] = {
    # every axiom over every tuple of polynomial bases: structure-layer bound
    "verify-accept": (
        Job(("verify", "{ct4}", "--suite", "h-twisted"), 0, passes(*H_TWISTED)),
        Job(("verify", "{ct4b}", "--suite", "h-twisted-cd"), 0,
            passes(*H_TWISTED_CD)),
        Job(("verify", "{std4}", "--suite", "courant"), 0, passes(*COURANT)),
        Job(("verify", "{std3}", "--suite", "courant", "--tuples", "8",
             "--degree", "3"), 0, passes(*COURANT)),
        Job(("dirac", "{std2}", "--subspace", "e1 + x1*dx2; e2 - x1*dx1"), 0,
            dirac_induced),
    ),
    # many short jobs on distinct structures, each stopping at its first
    # failing tuple: per-structure preparation and fixed costs weigh more
    "verify-reject": (
        Job(("verify", "{std2_bracket}", "--suite", "courant"), 1,
            fails("symmetric-part", "invariance")),
        Job(("verify", "{std2_gram}", "--suite", "courant"), 1,
            fails("symmetric-part", "invariance")),
        Job(("verify", "{ct4_bracket}", "--suite", "h-twisted"), 1,
            fails("twisted-jacobi", "symmetric-part", "invariance")),
        Job(("verify", "{ct4_gram}", "--suite", "h-twisted"), 1,
            fails("symmetric-part", "invariance")),
        Job(("verify", "{ct4_twist}", "--suite", "h-twisted"), 1,
            fails("twisted-jacobi")),
        Job(("verify", "{split4b_bracket}", "--suite", "h-twisted"), 1,
            fails("twisted-jacobi", "symmetric-part", "invariance")),
        Job(("verify", "{split4b_gram}", "--suite", "h-twisted"), 1,
            fails("invariance")),
        Job(("verify", "{split4b_twist}", "--suite", "h-twisted"), 1,
            fails("twisted-jacobi")),
        Job(("verify", "{std4_bracket}", "--suite", "courant-dorfman"), 1,
            fails("invariance", "symmetric-part")),
        Job(("verify", "{std4_gram}", "--suite", "courant-dorfman"), 1,
            fails("invariance", "symmetric-part")),
        Job(("verify", "{sl3_bracket}", "--suite", "courant-dorfman"), 1,
            fails("invariance", "symmetric-part", "jacobi")),
        Job(("verify", "{sl3_gram}", "--suite", "courant-dorfman"), 1,
            fails("invariance")),
        Job(("verify", "{ct4b_bracket}", "--suite", "h-twisted-cd"), 1,
            fails("invariance", "symmetric-part", "twisted-jacobi")),
        Job(("verify", "{ct4b_twist}", "--suite", "h-twisted-cd"), 1,
            fails("twisted-jacobi", "twist-closed")),
        # acceptance criterion 4: ct4 is not an untwisted Courant algebroid
        Job(("verify", "{ct4}", "--suite", "courant"), 1, fails("jacobi")),
        Job(("dirac", "{std3}", "--subspace", "e1 + x3*dx2; e2 - x3*dx1; e3"), 1,
            dirac_fails("integrable")),
        Job(("dirac", "{std2}", "--subspace", "e1 + dx1; e2"), 1,
            dirac_fails("isotropic", "lagrangean")),
    ),
    # the twisted packaging calls tilde_split's closure on every tuple;
    # std4's classical packaging never does
    "linfty-twisted": (
        Job(("linfty", "{ct4}"), 0, linfty("twisted")),
        Job(("linfty", "{ct4b}"), 0, linfty("twisted")),
        Job(("linfty", "{std4}"), 0, linfty("classical")),
    ),
    # exact rational linear algebra over a point
    "cohomology-point": (
        Job(("cohomology", "{sl3}", "--max-degree", "3"), 0,
            cohomology(8, [1, 0, 0, 1])),
        Job(("cohomology", "{so3xso3}", "--max-degree", "6"), 0,
            cohomology(6, [1, 0, 0, 2, 0, 0, 1])),
        Job(("dirac", "{std4}", "--search"), 0, search(16, 4)),
        Job(("dirac", "{ct4}", "--search"), 0, search(14, 4)),
    ),
}
