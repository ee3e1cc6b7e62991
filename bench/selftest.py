#!/usr/bin/env python3
"""Self-test of the benchmark: runs ``run.py --quick`` and checks that the
output, the metric dictionary and ``BENCHMARK.json`` agree.

    python3 bench/selftest.py

Exits non-zero on the first group of failed assertions.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from metrics import END_TO_END, PER_LAYER, USER_VISIBLE, WORKLOADS  # noqa: E402
from trace import SPAN_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
SEED = 4242
#: Layers that must do no work where nothing is sharded, replicated or
#: journaled.
COMPOSED_ONLY = ("shard.route", "repl.route", "repl.ship", "metadb.wal")


def check_dictionary(problems: list[str]) -> None:
    contract = json.loads((REPO_DIR / "BENCHMARK.json").read_text())
    if set(contract) != {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(contract)}")
    names = ([w["name"] for w in contract["workloads"]]
             + [m["name"] for m in contract["end_to_end"]]
             + [m["name"] for m in contract["per_layer"]])
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if {w["name"]: w["why"] for w in contract["workloads"]} != WORKLOADS:
        problems.append("workloads differ between BENCHMARK.json and metrics.py")
    for workload in contract["workloads"]:
        if len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"why of {workload['name']} is not one short line")
    expected = [{"name": m.name, "unit": m.unit, "better": m.better,
                 "bound": m.bound} for m in END_TO_END]
    if contract["end_to_end"] != expected:
        problems.append("end_to_end differs between BENCHMARK.json and metrics.py")
    for metric in END_TO_END:
        if not UNIT.match(metric.unit) or metric.better not in ("lower", "higher") \
                or not 0 < metric.bound <= 0.25:
            problems.append(f"end-to-end metric {metric.name}: unit, direction or bound")
    if not any(m.name == "setup_s" and m.unit == "s" and m.better == "lower"
               for m in END_TO_END):
        problems.append("no setup_s metric")
    expected = [{"name": m.name, "unit": m.unit, "better": m.better}
                for m in PER_LAYER]
    if contract["per_layer"] != expected:
        problems.append("per_layer differs between BENCHMARK.json and metrics.py")
    user_visible_names = {m.name for m in END_TO_END + USER_VISIBLE}
    for metric in PER_LAYER:
        if not UNIT.match(metric.unit) or metric.better not in ("lower", "higher"):
            problems.append(f"per-layer metric {metric.name}: unit or direction")
        if not metric.on or not set(metric.on) <= set(WORKLOADS):
            problems.append(f"per-layer metric {metric.name} names no workload")
        if not set(metric.moves) <= user_visible_names:
            problems.append(f"per-layer metric {metric.name} moves an unknown metric")
    for span in SPAN_NAMES:
        for suffix in ("self_ms", "calls"):
            if f"{span}.{suffix}" not in {m.name for m in PER_LAYER}:
                problems.append(f"span {span} has no {suffix} metric")


def check_results(results: dict, problems: list[str]) -> None:
    for name in WORKLOADS:
        documents = results["workloads"].get(name)
        if documents is None:
            problems.append(f"{name}: no result")
            continue
        plain, traced = documents["untraced"], documents["traced"]
        for document in (plain, traced):
            if not document["correct"] or document["failed"]:
                problems.append(f"{name}: {document['failed']} failed operations")
        for metric in END_TO_END:
            entry = plain["end_to_end"].get(metric.name)
            if entry is None or entry["unit"] != metric.unit or not entry["value"] > 0:
                problems.append(f"{name}: end-to-end metric {metric.name}: {entry}")
        for metric in USER_VISIBLE:
            # Every workload that sends the request class reports its timing.
            value = plain["per_layer"][metric.name]["value"]
            if name in metric.on and metric.name != "fail_share" and not value > 0:
                problems.append(f"{name}: user-visible metric {metric.name}: {value}")
        for metric in PER_LAYER:
            entry = traced["per_layer"].get(metric.name)
            if entry is None or entry["unit"] != metric.unit:
                problems.append(f"{name}: per-layer metric {metric.name}: {entry}")
        for metric in PER_LAYER:
            # A layer said to move a metric on this workload must run there;
            # a renamed callable in trace.PATCH_TABLE shows up here.
            if metric.name.endswith(".calls") and name in metric.on \
                    and not traced["per_layer"][metric.name]["value"] > 0:
                problems.append(f"{name}: span {metric.name[:-6]} was never called")
        if name in ("browse_plain", "serve_wire"):
            for span in COMPOSED_ONLY:
                if traced["per_layer"][f"{span}.calls"]["value"] != 0:
                    problems.append(f"{name}: span {span} is not absent")
        check_trace(name, Path(traced["trace_file"]), problems)
        for key in ("commit", "python", "numpy", "nproc", "date", "seed",
                    "window_s", "flush_policy"):
            if key not in plain["stamp"]:
                problems.append(f"{name}: stamp lacks {key}")


def check_trace(name: str, path: Path, problems: list[str]) -> None:
    """Per request: the self times never add up to more than the root
    span's duration.  Over all requests: the layers *below* ``web.handle``
    account for at least nine tenths of its time.  (The root's own self
    time is left out of that sum: with it the self times of a span tree
    add up to the root's duration by construction.)"""
    requests: dict[int, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            requests.setdefault(span["request"], []).append(span)
    checked = 0
    root_ms = below_ms = 0.0
    for spans in requests.values():
        roots = [span for span in spans if span["parent"] == 0]
        if len(roots) != 1 or roots[0]["name"] != "web.handle":
            continue        # a write, or a request cut by the span cap
        duration_ms = (roots[0]["end_s"] - roots[0]["start_s"]) * 1e3
        self_ms = sum(span["self_ms"] for span in spans)
        if self_ms > duration_ms + 1e-6:
            problems.append(f"{name}: self times {self_ms} ms exceed the "
                            f"{duration_ms} ms of their web.handle")
        root_ms += duration_ms
        below_ms += self_ms - roots[0]["self_ms"]
        checked += 1
    if not checked:
        problems.append(f"{name}: no complete request in {path}")
    elif below_ms < 0.9 * root_ms:
        problems.append(f"{name}: the layers below web.handle cover "
                        f"{below_ms / root_ms:.0%} of it")


def main() -> int:
    problems: list[str] = []
    check_dictionary(problems)
    if not problems:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--quick",
             "--seed", str(SEED)], cwd=REPO_DIR)
        if done.returncode != 0:
            problems.append(f"run.py --quick exited with {done.returncode}")
        else:
            results = json.loads(
                (BENCH_DIR / "out" / f"results-seed{SEED}.json").read_text())
            check_results(results, problems)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    if not problems:
        print("selftest ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
