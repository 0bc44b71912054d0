#!/usr/bin/env python3
"""Every end-to-end metric of every workload, by name and unit, in one table.

    python3 perfbench/report.py                       # seed 0, one run each
    python3 perfbench/report.py --seeds 1,2,3,4,5,6,7,8,9,10 --json out.json

Runs ``run.py`` once per workload and seed with tracing off, then once per
workload with tracing on (first seed).  Each row gives the median over the
runs, the quartiles and, as the spread, (q3 - q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  ``wall_s`` (raw wall
time of a pass) and ``fail_rate`` come from the details line; ``--json``
also writes the traced per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
        cwd=os.path.dirname(HERE))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0,
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0",
                        help="comma-separated seeds, one timed run each")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", metavar="PATH", help="also write the figures here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    out = {}
    print(f"{'workload':17} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'n':>3}  unit")
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units = {"wall_s": "s", "fail_rate": "ratio"}
        for seed in seeds:
            details, result = bench(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            values.setdefault("wall_s", []).append(details["wall_s"]["median"])
            values.setdefault("fail_rate", []).append(details["fail_rate"])
        rows = {name: {**summary(v), "unit": units[name], "values": v}
                for name, v in values.items()}
        for name, row in rows.items():
            print(f"{workload:17} {name:12} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:7.4f} {row['n']:3d}  {row['unit']}",
                  flush=True)
        details, result = bench(workload, seeds[0], args.seconds, 1)
        out[workload] = {"end_to_end": rows, "seeds": seeds,
                         "traced_seed": seeds[0], "per_layer": details["layers"],
                         "traced_correct": result["correct"],
                         "python": details["python"], "nproc": details["nproc"]}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
