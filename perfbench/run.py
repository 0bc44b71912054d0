#!/usr/bin/env python3
"""Benchmark of the courantkit CLI on fixed workloads.

    python3 perfbench/run.py --workload verify-accept --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  One process
and one thread drive ``courantkit.cli.main`` in-process, one job at a time
(a closed loop with a single caller).  The seed reaches the program only
through the ``--seed`` of each job (see ``pass_seeds``); the structures are
the same on every seed.

``--trace 0`` repeats passes over the workload's jobs until ``--seconds``
would be exceeded and reports the end-to-end metrics.  ``--trace 1`` runs
one untraced pass and one traced pass (see tracer.py) and reports the
per-layer metrics.  Every job's output is checked in both modes.

The last line of standard output is the result object; the line before it
holds the details: quartiles and sample counts, per-job times, run
metadata and any output mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from workloads import WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACES = os.path.join(HERE, "traces")
SETUP_SAMPLES = 9
SETUPS_PER_PASS = 2
PROBE_INTERVAL = 0.05
# set-up is reported in seconds at the host speed where reference_chunk
# takes this long; the raw seconds are in the details
REFERENCE_CHUNK_S = 0.002


class SetupError(RuntimeError):
    """The checkout does not hold the package this benchmark measures."""


def import_package():
    """Import courantkit from the checkout's src/, or raise SetupError."""
    if not os.path.isfile(os.path.join(SRC, "courantkit", "__init__.py")):
        raise SetupError(f"no courantkit package under {SRC}")
    sys.path.insert(0, SRC)
    import courantkit.cli as cli

    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "courantkit"):
        raise SetupError(f"courantkit was imported from {where}, not {SRC}")
    return cli


def reference_chunk() -> None:
    """Fixed stdlib-only Fraction and dict work (about 2 ms), no courantkit."""
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(300):
        key = (i % 97, i % 13)
        term = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
        acc[key] = acc.get(key, Fraction(0)) + term


def chunk_seconds() -> float:
    """Median time of five reference chunks: the host's speed right now."""
    samples = []
    for _ in range(5):
        begin = time.perf_counter()
        reference_chunk()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def set_up(directory: str) -> tuple[object, dict[str, str], float, float]:
    """Import the package and write every fixture.

    Returns the seconds that took, scaled to REFERENCE_CHUNK_S by reference
    chunks timed just before and after, and the raw seconds: set-up lasts
    0.15 s, and this host's speed differed by up to 40% between two sets
    of ten runs a few minutes apart.
    """
    before = chunk_seconds()
    begin = time.perf_counter()
    cli = import_package()
    import fixtures

    files = fixtures.write_all(directory)
    seconds = time.perf_counter() - begin
    speed = (before + chunk_seconds()) / 2
    return cli, files, seconds * REFERENCE_CHUNK_S / speed, seconds


class SpeedProbe:
    """Times ``reference_chunk`` every PROBE_INTERVAL seconds of a pass.

    This host's speed drifts by up to 2x within seconds (the same pass took
    3.3 s and 4.2 s back to back), so the host's speed is sampled during
    the pass itself, from a SIGALRM handler on the one benchmark thread.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        reference_chunk()
        self.samples.append(time.perf_counter() - begin)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self._tick(None, None)


def pass_seeds(seed: int, k: int, count: int) -> list[int]:
    """The --seed of each job in pass k: 100000·seed + 100·k + job index.

    A pass's cost depends on the random test sections its seeds draw, and
    structures of equal rank draw equal sections from equal seeds, so a
    shared seed made a whole verify-reject pass cheap or dear together
    (±20% of the median).  Distinct seeds per job and per pass spread that
    over many independent draws.
    """
    return [100000 * seed + 100 * k + i for i in range(count)]


def run_pass(cli, jobs, files, seeds) -> tuple[list, float]:
    """Run each job once; returns [(exit code, stdout, seconds, stderr)] and
    the pass's wall time."""
    results = []
    begin = time.perf_counter()
    for job, seed in zip(jobs, seeds):
        out, err = io.StringIO(), io.StringIO()
        job_begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.command(files, seed))
            except Exception:  # an internal error is a failed job, not a crash
                code = "exception"
                err.write(traceback.format_exc())
        results.append((code, out.getvalue(), time.perf_counter() - job_begin,
                        err.getvalue()))
    return results, time.perf_counter() - begin


def check_pass(jobs, results) -> list[str]:
    """One line per job whose output differs from its pinned values."""
    problems = []
    for k, (job, (code, stdout, _, stderr)) in enumerate(zip(jobs, results)):
        found = check_output(job, code, stdout)
        if found:
            problems.append(f"job {k} {' '.join(job.argv)}: {'; '.join(found)}"
                            + (f" [{stderr.strip()[-300:]}]" if stderr else ""))
    return problems


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def setup_probe(directory: str) -> tuple[float, float]:
    """set_up's two timings in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", directory],
        capture_output=True, text=True, timeout=120, check=True)
    scaled, raw = json.loads(done.stdout.strip().splitlines()[-1])
    return scaled, raw


def timed(cli, jobs, files, seed, seconds, work,
          first_setup: tuple[float, float]) -> tuple[dict, dict, list[str], int]:
    """Passes until the next one would end after ``seconds``.

    A pass's time excludes the probe's own work; its normalised time divides
    that by the mean probe sample, and ``wall_norm`` is the mean over the
    passes.  Set-up is repeated in fresh processes
    before and between passes, so its samples meet the host in several
    states too.
    """
    walls, norms, probes, problems = [], [], [], []
    job_times = [[] for _ in jobs]
    setups = [first_setup]

    def more_setups(count: int) -> None:
        for _ in range(min(count, SETUP_SAMPLES - len(setups))):
            setups.append(setup_probe(os.path.join(work, f"probe{len(setups)}")))

    begin = time.perf_counter()
    more_setups(SETUPS_PER_PASS)
    while True:
        with SpeedProbe() as probe:
            results, wall = run_pass(cli, jobs, files,
                                     pass_seeds(seed, len(walls), len(jobs)))
        problems += check_pass(jobs, results)
        walls.append(wall - sum(probe.samples))
        probes.append(statistics.mean(probe.samples))
        norms.append(walls[-1] / probes[-1])
        for times, result in zip(job_times, results):
            times.append(result[2])
        more_setups(SETUPS_PER_PASS)
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(walls) > seconds:
            break
    more_setups(SETUP_SAMPLES)
    # the mean, not the median: the passes' differences are mostly the cost
    # of their random sections, which the mean of several draws pins down
    # better (the median is kept in the details)
    details = {"wall_norm": {**quartiles(norms), "mean": statistics.mean(norms)},
               "setup_s": quartiles([scaled for scaled, _ in setups]),
               "setup_raw_s": quartiles([raw for _, raw in setups]),
               "wall_s": quartiles(walls), "pass_wall_s": walls,
               "probe_mean_s": probes,
               "job_median_s": [statistics.median(t) for t in job_times]}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"wall_norm": (details["wall_norm"]["mean"], "ratio"),
               "setup_s": (details["setup_s"]["median"], "s"),
               "peak_rss_mb": (peak_kib / 1024, "MB")}
    return metrics, details, problems, len(walls) * len(jobs)


# the per-layer metrics of BENCHMARK.json: every count, and the self times
# that are nonzero on all four workloads (a never-called function's self
# time would read 0.0 on every run); the rest are in the details line
PER_LAYER = (
    "exact.Scalar.new.calls", "exact.Scalar.mul.calls", "exact.Scalar.add.calls",
    "exact.rref.calls", "exact.solve_rational.calls", "exact.det.calls",
    "exact.kernel_basis.calls", "structure.bracket.calls",
    "structure.anchor_apply.calls", "structure.d0.calls",
    "structure.pairing.calls", "structure.jacobiator.calls",
    "kerforms.tilde_split.calls", "kerforms.tilde_split.apply.calls",
    "kerforms.tilde_split_basis.calls", "kerforms.pair_sections.calls",
    "kerforms.cov_derivative.calls", "kerforms.pair_basis.calls",
    "cohomology.cochain_basis.calls", "cohomology.differential_matrix.calls",
    "dirac.check_dirac.calls", "dirac.express_in_generators.calls",
    "structure.bracket.distinct_ratio", "cohomology.cochain_basis.distinct_ratio",
    "cohomology.differential_matrix.distinct_ratio",
    "layer.exact.self_s", "layer.structure.self_s", "layer.kerforms.self_s",
    "layer.suites.self_s", "layer.io.self_s",
    "exact.rref.self_s", "exact.det.self_s", "structure.bracket.self_s",
    "structure.anchor_apply.self_s", "structure.pairing.self_s",
    "fileio.load_spec.self_s", "fileio.dumps_canonical.self_s", "cli.main.self_s",
    "trace.overhead_ratio",
)


def traced(cli, jobs, files, seed, workload) -> tuple[dict, dict, list[str], int]:
    """One untraced and one traced pass; per-layer metrics of the latter."""
    from tracer import Tracer, layer_metrics

    seeds = pass_seeds(seed, 0, len(jobs))
    plain, plain_wall = run_pass(cli, jobs, files, seeds)
    tracer = Tracer()
    results = []
    with tracer.installed():
        begin = time.perf_counter()
        for k, job in enumerate(jobs):
            tracer.job = k
            results += run_pass(cli, (job,), files, seeds[k:k + 1])[0]
        traced_wall = time.perf_counter() - begin
    problems = check_pass(jobs, plain) + check_pass(jobs, results)
    for k, (a, b) in enumerate(zip(plain, results)):
        if a[1] != b[1]:
            problems.append(f"job {k}: traced stdout differs from untraced")
    layers = layer_metrics(tracer.layer_totals())
    self_sum = sum(v for name, (v, _) in layers.items() if name.startswith("layer."))
    if self_sum > traced_wall:
        problems.append(f"self times sum to {self_sum} s > traced wall {traced_wall} s")
    layers["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics = {name: layers[name] for name in PER_LAYER}
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    details = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
               "self_s_sum": self_sum, "spans": len(tracer.spans),
               "spans_file": os.path.relpath(path, ROOT),
               "layers": {name: value for name, (value, _) in layers.items()}}
    return metrics, details, problems, 2 * len(jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="set up into DIR, print the seconds it took, exit")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(set_up(args.setup_only)[2:]))
        return 0

    from_start = os.getloadavg()
    if not args.workload:
        parser.error("--workload is required")
    work = os.path.join(WORK, str(os.getpid()))
    try:
        cli, files, *first_setup = set_up(os.path.join(work, "main"))
        jobs = WORKLOADS[args.workload]
        if args.trace:
            metrics, details, problems, attempted = traced(
                cli, jobs, files, args.seed, args.workload)
        else:
            metrics, details, problems, attempted = timed(
                cli, jobs, files, args.seed, args.seconds, work, tuple(first_setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    failed = min(len(problems), attempted)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(jobs), "fail_rate": failed / attempted, "problems": problems,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_at_start": from_start,
    })
    print(json.dumps({"details": details}))
    result = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
