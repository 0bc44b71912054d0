"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark itself (under a minute on two cores): the output
checks must be able to fail, the pins must hold on a seed that did not
derive them, the traced counts must repeat exactly, and the tracer must
leave the package as it found it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

CLI = run.import_package()

import fixtures  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Job, cohomology, fails, search  # noqa: E402

UNSEEN_SEED = 7  # job seeds 700000-700016; the pins were derived from seeds 0-19


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return fixtures.write_all(str(tmp_path_factory.mktemp("structures")))


def _benchmark(*args: str) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, check=True,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_pins_hold_on_an_unseen_seed(files):
    for name, jobs in WORKLOADS.items():
        results, _ = run.run_pass(CLI, jobs, files,
                                  run.pass_seeds(UNSEEN_SEED, 0, len(jobs)))
        assert run.check_pass(jobs, results) == [], name


@pytest.mark.parametrize("job", [
    Job(("cohomology", "{so3xso3}", "--max-degree", "6"), 0,
        cohomology(6, [1, 0, 0, 1, 0, 0, 1])),
    Job(("dirac", "{ct4}", "--search"), 0, search(15, 4)),
    Job(("verify", "{split4b_gram}", "--suite", "h-twisted"), 1, fails("jacobi")),
    Job(("verify", "{ct4}", "--suite", "h-twisted"), 1, fails("twisted-jacobi")),
], ids=["betti", "search-count", "unpinned-axiom", "exit-code"])
def test_one_wrong_expectation_fails_the_job(files, job):
    results, _ = run.run_pass(CLI, (job,), files, [0])
    assert len(run.check_pass((job,), results)) == 1


def _bindings() -> dict[tuple[str, str], int]:
    out = {}
    for module in tracer._package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, f"{attr}.{cattr}")] = id(cvalue)
    return out


def test_tracer_rebinds_every_copy_and_restores_all(files):
    import courantkit.axioms as axioms
    import courantkit.structure as structure

    before = _bindings()
    original = structure.bracket
    t = tracer.Tracer()
    with t.installed():
        assert axioms.bracket is structure.bracket is not original
        assert axioms.bracket.__wrapped__ is original
        run.run_pass(CLI, WORKLOADS["verify-reject"][-2:], files, [0, 0])
    assert _bindings() == before
    assert t.spans and t.counts["exact.Scalar.new"] > 0


def test_traced_runs_repeat_their_counts_exactly():
    """Two traced processes with one seed; string hashing differs between
    them, so an order-dependent count would show."""
    first = _benchmark("--workload", "verify-reject", "--seed", "3", "--trace", "1")
    second = _benchmark("--workload", "verify-reject", "--seed", "3", "--trace", "1")
    for details, result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert details["self_s_sum"] <= details["traced_wall_s"]
        assert set(result["metrics"]) == set(run.PER_LAYER)
    layers = [d["layers"] for d, _ in (first, second)]
    exact = [k for k in layers[0] if not k.endswith("_s") and k != "trace.overhead_ratio"]
    assert exact and all(layers[0][k] == layers[1][k] for k in exact)
    assert layers[0]["structure.bracket.calls"] > 0


def test_timed_run_reports_the_end_to_end_metrics():
    details, result = _benchmark("--workload", "verify-reject", "--seed", "5",
                                 "--seconds", "1", "--trace", "0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 17
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["fail_rate"] == 0 and details["seed"] == 5


def test_benchmark_json_lists_what_the_traced_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])


def test_a_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-accept", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
