"""Self-test of the benchmark harness.

Usage (from the root of a checkout):

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json once, untraced and traced, on a
coarse grid (n=199, one pass each) and checks that the last stdout line is
the result object with every end-to-end or per-layer metric named in
BENCHMARK.json, with its unit, and that the outputs were correct. It then
runs the harness in a directory holding only BENCHMARK.json and the bench
files and checks that it fails without printing a result. Takes about two
minutes; it is not part of the package's test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELFTEST_N = 199
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--n", str(SELFTEST_N)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, expected_units, nonzero):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"incorrect output: {proc.stderr.strip()[-500:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected_units))}")
    for name, unit in expected_units.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
        elif nonzero and value == 0:
            problems.append(f"{name}: value is 0")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, units in ((0, end_to_end), (1, per_layer)):
            problems = check_result(run(ROOT, workload, trace), units, nonzero=not trace)
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and not proc.stdout.strip()
    failed |= not bare_ok
    print(f"{'ok  ' if bare_ok else 'FAIL'} without the package: exit code {proc.returncode}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
