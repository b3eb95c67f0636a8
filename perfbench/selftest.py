#!/usr/bin/env python3
"""Self-test of the campaign benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny input size
(`--scale tiny`, one second, seed 1), untraced and traced, and checks that

  * the result line has exactly the keys correct/attempted/failed/metrics,
    with correct = true;
  * the untraced run prints every end-to-end metric of BENCHMARK.json, and
    the traced run every per-layer metric, each with its unit and nothing
    else;
  * every traced span nests inside its parent, in time;
  * no span's self time (its duration minus the union of its children's
    intervals) is negative.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list, label: str) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correct is {result.get('correct')}")
    metrics = result.get("metrics", {})
    for entry in expected:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"{label}: metric {entry['name']} missing")
        elif got.get("unit") != entry["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {entry['name']} printed as {got}")
    extra = set(metrics) - {e["name"] for e in expected}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def self_time(span: dict, children: list) -> int:
    covered, lo, hi = 0, None, None
    for start, end in sorted(children):
        if hi is None or start > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        covered += hi - lo
    return span["end_ns"] - span["start_ns"] - covered


def check_spans(workload: str) -> list:
    path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-s{SEED}.json")
    with open(path) as f:
        spans = json.load(f)["spans"]
    problems = []
    if not spans:
        return [f"{workload}: no spans recorded"]
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"{workload}: span {s['name']} ends before it starts")
        if s["parent"] == 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"{workload}: span {s['name']} has no recorded parent")
        elif s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            problems.append(f"{workload}: span {s['name']} outside parent {parent['name']}")
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    for s in spans:
        own = self_time(s, children.get(s["id"], []))
        if own < 0 or s["self_ns"] < 0:
            problems.append(f"{workload}: span {s['name']} has negative self time {own}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        problems += check_metrics(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        problems += check_metrics(run(workload, 1), bench["per_layer"], f"{workload} traced")
        problems += check_spans(workload)
        print(f"checked {workload}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
