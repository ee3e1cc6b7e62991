#!/usr/bin/env python3
"""The HEDC benchmark: four workloads, end to end and layer by layer.

Two ways to call it, from the repository root:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what the driver of
    ``BENCHMARK.json`` calls).  The last line of standard output is one
    JSON object with ``correct``, ``attempted``, ``failed`` and
    ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1``.  Exits non-zero when a check failed.

``python3 bench/run.py [--seed N] [--workload NAME] [--quick] [--agree]``
    The whole benchmark: every workload in its own child process, one
    after the other, an untraced window for the end-to-end metrics and a
    traced one for the layers; prints every metric by name with its unit
    and sample count and writes ``bench/out/results-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(REPO_DIR / "src"))

DEFAULT_SEED = 2003
#: Whole-benchmark window lengths (seconds): measured, traced.
FULL_WINDOWS = (20.0, 8.0)
QUICK_WINDOWS = (2.0, 2.0)
CHILD_TIMEOUT_S = 600


def stamp(seed: int, windows: tuple[float, float], quick: bool) -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_DIR, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"      # the driver's checkout is not a repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "seed": seed,
        "window_s": windows[0],
        "traced_window_s": windows[1],
        "quick": quick,
        "flush_policy": "fsync on every commit (the program's default)",
    }


# -- one run in this process ---------------------------------------------------

def run_file(workload: str, seed: int, trace: bool) -> Path:
    return OUT_DIR / f"run-{workload}-t{int(trace)}-seed{seed}.json"


def single_run(args: argparse.Namespace) -> int:
    try:
        import workloads
    except ModuleNotFoundError as exc:
        print(f"the program under test is not importable ({exc}); "
              f"expected it under {REPO_DIR / 'src'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else FULL_WINDOWS[trace]
    document = workloads.run(args.workload, args.seed, seconds, trace,
                             args.quick, OUT_DIR)
    document["seed"] = args.seed
    document["stamp"] = stamp(args.seed, (seconds, seconds), args.quick)
    with open(run_file(args.workload, args.seed, trace), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    for failure in document["failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["per_layer" if trace else "end_to_end"],
    }))
    return 0 if document["correct"] else 1


# -- the whole benchmark -------------------------------------------------------

def child(workload: str, seed: int, seconds: float, trace: bool,
          quick: bool) -> Optional[dict[str, Any]]:
    command = [sys.executable, str(BENCH_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=REPO_DIR, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    path = run_file(workload, seed, trace)
    if not path.exists() or (done.returncode != 0 and not done.stdout.strip()):
        print(f"{workload} (trace {int(trace)}): exit {done.returncode}, no result")
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def print_workload(name: str, plain: dict[str, Any], traced: dict[str, Any]) -> None:
    from metrics import END_TO_END, LAYERS, USER_VISIBLE, USER_VISIBLE_TIMINGS

    print(f"\n== {name}: seed {plain['seed']}, window {plain['window_s']:.1f} s, "
          f"{plain['attempted']} operations, {plain['failed']} failed ==")
    print("end-to-end, bounded (untraced window)")
    for metric in END_TO_END:
        value = plain["end_to_end"][metric.name]["value"]
        print(f"  {metric.name:<24}{value:>12.4f} {metric.unit:<4} bound {metric.bound:.0%}")
    print("end-to-end, every sample of the untraced window (no bound: see README)")
    for metric in USER_VISIBLE:
        value = plain["per_layer"][metric.name]["value"]
        if name not in metric.on:
            continue        # a request class this workload does not send
        line = f"  {metric.name:<24}{value:>12.4f} {metric.unit:<5}"
        cls = USER_VISIBLE_TIMINGS.get(metric.name, (None,))[0]
        if cls is not None:
            summary = plain["classes"][cls]
            line += (f" n={summary['n']:<6} median over five slices "
                     f"{summary['slice_p50_min_ms']:.3f}..{summary['slice_p50_max_ms']:.3f}")
        print(line)
    print("by request class (untraced window)")
    for cls, summary in plain["classes"].items():
        print(f"  {cls:<16} n={summary['n']:<6} p10 {summary['p10_ms']:9.3f}  "
              f"p50 {summary['p50_ms']:9.3f}  p95 {summary['p95_ms']:9.3f} ms"
              f"  at reference speed p10 {summary['norm_p10_ms']:9.3f}  "
              f"p50 {summary['norm_p50_ms']:9.3f} ms")
    print(f"per layer (traced window {traced['window_s']:.1f} s, "
          f"{traced['attempted']} operations in the run)")
    for metric in LAYERS:
        value = traced["per_layer"][metric.name]["value"]
        if value == 0.0 and name not in metric.on:
            continue
        moves = ", ".join(metric.moves) if metric.moves else "tracked only"
        print(f"  {metric.name:<44}{value:>14.4f} {metric.unit:<6}-> {moves}")
    for label, document in (("untraced", plain), ("traced", traced)):
        if document["checks"]:
            print(f"checks ({label}): {json.dumps(document['checks'])}")
    if traced.get("trace_file"):
        print(f"trace: {traced['trace_file']}")


def run_all(seed: int, names: list[str], quick: bool) -> dict[str, Any]:
    windows = QUICK_WINDOWS if quick else FULL_WINDOWS
    results: dict[str, Any] = {"stamp": stamp(seed, windows, quick),
                               "workloads": {}, "correct": True}
    for name in names:
        plain = child(name, seed, windows[0], False, quick)
        traced = child(name, seed, windows[1], True, quick)
        if plain is None or traced is None:
            results["correct"] = False
            continue
        print_workload(name, plain, traced)
        results["workloads"][name] = {"untraced": plain, "traced": traced}
        results["correct"] &= plain["correct"] and traced["correct"]
    return results


def agreement(first: dict[str, Any], second: dict[str, Any]) -> dict[str, Any]:
    """Per workload and end-to-end metric: both values, their relative
    difference, the bound, and whether two runs of one commit agree.  The
    demoted all-sample metrics are listed too, against the bound issue 12
    gave them, so that the noise floor they were demoted for stays on
    record."""
    from metrics import END_TO_END, ISSUE_BOUNDS, USER_VISIBLE

    rows = [(m, "end_to_end", m.bound) for m in END_TO_END] + \
           [(m, "per_layer", ISSUE_BOUNDS[m.name]) for m in USER_VISIBLE]
    table: dict[str, Any] = {}
    print("\n== agreement of two complete runs ==")
    for name in first["workloads"]:
        if name not in second["workloads"]:
            continue
        table[name] = {}
        for metric, group, bound in rows:
            if group == "per_layer" and name not in metric.on:
                continue
            a = first["workloads"][name]["untraced"][group][metric.name]["value"]
            b = second["workloads"][name]["untraced"][group][metric.name]["value"]
            spread = abs(a - b) / min(a, b) if min(a, b) > 0 else abs(a - b)
            verdict = "agree" if spread <= bound else "unresolved"
            table[name][metric.name] = {"first": a, "second": b, "spread": spread,
                                        "bound": bound, "verdict": verdict}
            print(f"  {name:<13}{metric.name:<24}{a:>12.4f}{b:>12.4f} {metric.unit:<5}"
                  f" diff {spread:7.2%}  bound {bound:.1%}  {verdict}")
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows, 1 000 events, tiny observation")
    parser.add_argument("--agree", action="store_true",
                        help="run everything twice and compare the two runs")
    args = parser.parse_args()

    from metrics import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_run(args)

    OUT_DIR.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run_all(args.seed, names, args.quick)
    if args.agree:
        second = run_all(args.seed, names, args.quick)
        results["second_run"] = second["workloads"]
        results["agreement"] = agreement(results, second)
        results["correct"] &= second["correct"]
    path = OUT_DIR / f"results-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nresults: {path}")
    if not results["correct"]:
        print("FAILED: at least one check failed or one workload did not finish")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
