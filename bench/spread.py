"""Run the benchmark on several seeds and report the run-to-run spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workloads oracle --seeds 5
    python3 bench/spread.py --seeds 10 --traced --out bench/baseline.json

For each workload it runs ``bench/run.py`` once per seed, sequentially, for
BENCHMARK.json's ``run_seconds`` with tracing off, and for every end-to-end
metric prints the median, the quartiles (``statistics.quantiles(n=4)``), and
the spread: the distance between the quartiles as a share of the median,
next to the metric's bound. For comparison it also prints the spread the
pass time would have in raw wall seconds, without the reference-speed
scaling. With --traced it adds one traced run per
workload and keeps its per-layer metrics. A run that fails or prints no
result stops the script with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    summary = next(json.loads(ln[8:]) for ln in lines if ln.startswith("summary "))
    return env, summary, json.loads(lines[-1])


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload (first seed)")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        results = []
        wall_pass = []
        op_times = {}
        env = None
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            env, run_summary, result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            results.append(result)
            wall_pass.append(statistics.median(run_summary["wall"]["passes_s"]))
            for op, seconds in run_summary["op_median_s"].items():
                op_times.setdefault(op, []).append(seconds)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        stats = {name: describe([r["metrics"][name]["value"] for r in results])
                 for name in bounds}
        wall_stats = describe(wall_pass)
        summary["workloads"][workload] = {
            "env": env,
            "metrics": stats,
            "wall_pass_s": wall_stats,
            "op_median_s": {op: statistics.median(v) for op, v in sorted(op_times.items())},
        }
        if args.traced:
            _, _, traced = run_once(workload, args.first_seed, spec["run_seconds"], trace=1)
            summary["workloads"][workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
        for name, st in stats.items():
            share = st["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {workload:10s} {name:12s} median {st['median']:.4g} "
                  f"q1 {st['q1']:.4g} q3 {st['q3']:.4g} spread {st['spread']:.3f} "
                  f"bound {bounds[name]} ({share:.0%} of bound)", flush=True)
        print(f"  {workload:10s} {'(wall pass)':12s} median {wall_stats['median']:.4g} "
              f"q1 {wall_stats['q1']:.4g} q3 {wall_stats['q3']:.4g} "
              f"spread {wall_stats['spread']:.3f}", flush=True)
    print(f"largest spread, setup_s aside: {worst:.0%} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
