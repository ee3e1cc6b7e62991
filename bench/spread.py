#!/usr/bin/env python3
"""Noise floor of the benchmark: run every workload ``--runs`` times, each
time with another seed, and print for each end-to-end metric the median
and the distance between the first and the third quartile as a share of
the median - the figure the driver of ``BENCHMARK.json`` holds against
the metric's bound.  Aim for a third of the bound.  The demoted
all-sample metrics are listed below them, against the bound issue 12
gave them.

    python3 bench/spread.py [--runs 10] [--seconds 15] [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import END_TO_END, ISSUE_BOUNDS, USER_VISIBLE, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    args = parser.parse_args()
    contract = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    table = {}
    worst = 0.0
    for name in names:
        demoted = [m for m in USER_VISIBLE
                   if name in m.on and m.name != "fail_share"]
        values: dict[str, list[float]] = {
            metric.name: [] for metric in END_TO_END + tuple(demoted)}
        speeds: list[float] = []
        for run in range(args.runs):
            seed = args.first_seed + run
            done = subprocess.run(
                contract["command"] + ["--workload", name, "--seed", str(seed),
                                       "--seconds", str(seconds), "--trace", "0"],
                cwd=BENCH_DIR.parent, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{name}: run {run} exited with {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric in END_TO_END:
                values[metric.name].append(result["metrics"][metric.name]["value"])
            document = json.loads(
                (BENCH_DIR / "out" / f"run-{name}-t0-seed{seed}.json").read_text())
            for metric in demoted:
                values[metric.name].append(
                    document["per_layer"][metric.name]["value"])
            speeds.append(document["per_layer"]["bench.speed_factor"]["value"])
        table[name] = {"bench.speed_factor": {"values": speeds}}
        print(f"{name:<13}speed factor of the runs: "
              + " ".join(f"{speed:.2f}" for speed in speeds), flush=True)
        for metric in END_TO_END + tuple(demoted):
            bounded = metric in END_TO_END
            bound = metric.bound if bounded else ISSUE_BOUNDS[metric.name]
            q1, _q2, q3 = statistics.quantiles(values[metric.name], n=4)
            median = statistics.median(values[metric.name])
            spread = (q3 - q1) / median
            table[name][metric.name] = {"median": median, "spread": spread,
                                        "values": values[metric.name]}
            if bounded and metric.name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:<13}{metric.name:<24}{median:>12.4f} {metric.unit:<4}"
                  f" spread {spread:7.2%} of {'bound' if bounded else 'issue'}"
                  f" {bound:.0%} = {spread / bound:5.2f}", flush=True)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(table, indent=1))
    print(f"largest spread / bound (set-up aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
