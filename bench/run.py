"""End-to-end benchmark of the bifurcate package.

Usage (from the root of a checkout):

    python3 bench/run.py --workload regimes --seed 1 --seconds 20 --trace 0

The harness imports the package from ``src/`` of the checkout it sits in and
drives it only through the public API and ``bifurcate.cli.main``, in this one
process, as a closed loop: each operation starts when the previous one has
returned. BLAS threads are pinned to 1 and ``BIFURCATE_THREADS`` is removed
from the environment before the package is imported.

Workloads (M=0.2, p_f=3, bump harvest):

* ``regimes`` (n=399): one pass runs the CLI ``diagram`` command at
  a in {5, lambda1, 20, lambda2, lambda2 + delta/2}, writing JSON, CSV and
  SVG. Continuation-heavy, no multistart oracle.
* ``oracle`` (n=399): one pass runs ``verify_structure`` on the
  four-solution window diagram and then the README's 800-start
  ``count_solutions(problem, 40.0, -0.005, 800, seed)``. Multistart-heavy,
  continuation is almost idle.
* ``fine-mesh`` (n=1599): one pass runs the CLI ``diagram`` command at
  lambda2 and lambda2 + delta/2, where O(n) kernels outweigh per-call
  Python overhead.

The seed orders the CLI runs of a pass, is written into their configs, and is
passed to ``verify_structure`` and ``count_solutions``. Every operation's
output is checked; a raise, a nonzero exit code or a failed check counts as a
failed operation.

Every timed call is followed by runs of the workload's fixed reference
kernel in reference.py, about a tenth of the call's time, and its time is
scaled by the kernel's NOMINAL_S over the mean kernel time on both sides
of it: the shared host this runs on changes speed by 20-30 % within
seconds, and the scaling takes most of that out. Reported times are
therefore seconds at the reference speed; the raw wall times are on the
``summary`` line.

Set-up (import, then building the Problem and its modes and tracing the
index-1 curve for delta, plus assembling the window diagram on ``oracle``)
is repeated and its median added to the one-off import time. A run makes at
least two passes, and more while the next one is expected to end within
``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and it carries per-layer
metrics per traced pass (see tracer.py) plus the tracing overhead. Earlier
stdout lines describe the environment and per-operation times; a full record
is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
KERNEL_SHARE = 0.1  # reference kernel time per timed second
MIN_PASSES = 2
M, P_F, HARVEST = 0.2, 3, "bump"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# What the diagram of each regime must contain. Branch point counts are
# deliberately not checked: a legitimate corrector change may move them.
EXPECTED = {
    "below-lambda1": ({"Mstar"}, [], False),
    "at-lambda1": ({"ray", "Mstar"}, ["fold-index0"], False),
    "between-lambda1-lambda2": ({"Mstar", "Msharp"}, ["fold-index0"], False),
    "at-lambda2": ({"Mstar", "Msharp", "Mflat"}, ["fold-index0"], True),
    "above-lambda2": (
        {"Mstar", "Msharp", "Mflat", "Mnatural"},
        ["degenerate-index1", "degenerate-index1", "fold-index0"],
        False,
    ),
}
WORKLOAD_N = {"regimes": 399, "oracle": 399, "fine-mesh": 1599}
# The reference kernel (reference.py) whose speed tracks each workload's.
WORKLOAD_KERNEL = {"regimes": "interpreted", "oracle": "interpreted", "fine-mesh": "lapack"}
README_COUNT = (40.0, -0.005, 800)
README_MORSE = (0, 1, 1, 2)

LAYER_METRICS = (
    # (metric, unit, source): source is ("calls" | "self", span name) or
    # ("counter", tracer counter name)
    ("grid.factor_calls", "count", ("calls", "grid.factor")),
    ("grid.factor_s", "s", ("self", "grid.factor")),
    ("grid.eig_s", "s", ("self", "grid.eig")),
    ("model.nonlinearity_calls", "count", ("calls", "model.nonlinearity")),
    ("model.nonlinearity_s", "s", ("self", "model.nonlinearity")),
    ("solver.residual_calls", "count", ("calls", "solver.residual")),
    ("solver.residual_s", "s", ("self", "solver.residual")),
    ("solver.newton_calls", "count", ("calls", "solver.newton")),
    ("solver.newton_s", "s", ("self", "solver.newton")),
    ("solver.newton_failed", "count", ("counter", "solver.newton.failed")),
    ("solver.newton_iters", "count", ("counter", "solver.newton_iters")),
    ("spectral.spectrum_calls", "count", ("calls", "spectral.spectrum")),
    ("spectral.spectrum_s", "s", ("self", "spectral.spectrum")),
    ("continuation.branch_calls", "count", ("calls", "continuation.branch")),
    ("continuation.branch_s", "s", ("self", "continuation.branch")),
    ("continuation.points", "count", ("counter", "continuation.points")),
    ("continuation.fold_refines", "count", ("calls", "continuation.fold")),
    ("continuation.fold_s", "s", ("self", "continuation.fold")),
    ("continuation.projection_s", "s", ("self", "continuation.projection")),
    ("diagram.assemble_s", "s", ("self", "diagram.assemble")),
    ("diagram.count_calls", "count", ("calls", "diagram.count")),
    ("diagram.count_s", "s", ("self", "diagram.count")),
    ("diagram.starts", "count", ("counter", "diagram.starts")),
    ("diagram.members", "count", ("counter", "diagram.members")),
    ("diagram.verify_s", "s", ("self", "diagram.verify")),
    ("cli.main_s", "s", ("self", "cli.main")),
    ("cli.bytes_written", "bytes", ("counter", "cli.bytes_written")),
)


class Operation:
    """One closed-loop call: `call` is timed, `check` inspects its result
    and returns a list of problems (empty when the output is correct)."""

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


# -- environment ---------------------------------------------------------------


def pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("BIFURCATE_THREADS", None)


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "bifurcate").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload, seed, n):
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "BIFURCATE_THREADS": os.environ.get("BIFURCATE_THREADS"),
        "workload": workload,
        "seed": seed,
        "n": n,
        "machine": platform.machine(),
    }


# -- set-up --------------------------------------------------------------------


def build_context(B, n, with_window_diagram):
    """Everything a pass needs that the package computes: the Problem and
    its modes, delta from the index-1 curve, and optionally the window
    diagram that `verify_structure` replays."""
    problem = B.Problem(B.build_grid(n, 1.0), B.Nonlinearity(M, P_F), B.HarvestSpec(HARVEST))
    phi, psi = problem.modes()
    delta = B.delta_window(problem, B.trace_index1_degenerate_curve(problem))
    ctx = {
        "problem": problem,
        "lam1": phi.eigenvalue,
        "lam2": psi.eigenvalue,
        "delta": delta,
    }
    if with_window_diagram:
        ctx["window"] = B.assemble_diagram(problem, psi.eigenvalue + 0.5 * delta)
    return ctx


class ScaledClock:
    """Times calls in seconds at the reference speed. Each call is followed
    by m runs of the reference kernel, m being about KERNEL_SHARE of the
    call's time and at least one, and the call's wall time is scaled by the
    kernel's NOMINAL_S over the mean time of the m runs just before it and
    the m runs just after it."""

    def __init__(self, reference, kernel, first_runs=3):
        self.kernel = kernel
        self.nominal_s = reference.NOMINAL_S[kernel]
        self.run_kernel = lambda: reference.seconds(kernel)
        # every kernel run, in order
        self.kernel_s = [self.run_kernel() for _ in range(first_runs)]

    def call(self, fn):
        """Returns (result, exception, wall seconds, scaled seconds)."""
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported to the caller as a failed operation
            error = exc
        wall = time.perf_counter() - t0
        m = max(1, round(KERNEL_SHARE * wall / self.nominal_s))
        self.kernel_s.extend(self.run_kernel() for _ in range(m))
        around = statistics.fmean(self.kernel_s[-2 * m:])
        return result, error, wall, wall * self.nominal_s / around


def timed_setup(B, n, with_window_diagram, clock):
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        ctx, error, wall, scaled = clock.call(lambda: build_context(B, n, with_window_diagram))
        if error is not None:
            raise error
        times.append(scaled)
        raw.append(wall)
    return ctx, times, raw


# -- operations ----------------------------------------------------------------


def write_config(path, n, a, seed, outdir):
    path.write_text(
        "schema_version: 1\n"
        f"grid:\n  n_interior: {n}\n"
        f"model:\n  M: {M!r}\n  p_f: {P_F}\n  harvest: {HARVEST}\n"
        f"run:\n  command: diagram\n  a: {float(a)!r}\n  seed: {seed}\n"
        f"output:\n  directory: {outdir}\n"
    )


def check_diagram_doc(doc, regime):
    tags, kinds, has_segment = EXPECTED[regime]
    problems = []
    if doc.get("regime") != regime:
        problems.append(f"regime {doc.get('regime')!r}, expected {regime!r}")
    if doc.get("complete") is not True:
        problems.append("diagram incomplete")
    got_tags = {br["tag"] for br in doc.get("branches", [])}
    if got_tags != tags:
        problems.append(f"branch tags {sorted(got_tags)}, expected {sorted(tags)}")
    got_kinds = sorted(dp["kind"] for dp in doc.get("degenerate_points", []))
    if got_kinds != kinds:
        problems.append(f"degenerate points {got_kinds}, expected {kinds}")
    if (doc.get("segment") is not None) != has_segment:
        problems.append(f"segment present={not has_segment}, expected {has_segment}")
    return problems


def check_artifacts(rc, regime, artifacts, digests, counters):
    problems = [] if rc == 0 else [f"exit code {rc}"]
    counters["cli.bytes_written"] += sum(p.stat().st_size for p in artifacts.values())
    missing = {"diagram.json", "branches.csv", "diagram.svg"} - set(artifacts)
    if missing:
        return problems + [f"missing {sorted(missing)}"]
    raw = artifacts["diagram.json"].read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digests.setdefault(regime, digest) != digest:
        problems.append("diagram.json differs from the first pass")
    # Numbers are not needed for the structural check; dropping them keeps
    # the harness's own memory out of the peak RSS of large diagrams.
    doc = json.loads(raw, parse_float=lambda _: None, parse_int=lambda _: None)
    return problems + check_diagram_doc(doc, regime)


def cli_diagram_ops(B, n, points, seed, workdir, counters):
    """One CLI `diagram` run per (regime, a), in a seed-dependent order."""
    ops = []
    digests = {}
    for regime, a in points:
        outdir = workdir / regime
        outdir.mkdir(parents=True, exist_ok=True)
        config = workdir / f"{regime}.yaml"
        write_config(config, n, a, seed, outdir)
        argv = ["diagram", "--config", str(config), "--out", str(outdir)]

        def call(argv=argv):
            return B.cli.main(argv)

        def check(rc, regime=regime, outdir=outdir):
            artifacts = {p.name: p for p in outdir.iterdir()}
            try:
                return check_artifacts(rc, regime, artifacts, digests, counters)
            finally:
                for path in artifacts.values():
                    path.unlink()

        ops.append(Operation(regime, call, check))
    random.Random(seed).shuffle(ops)
    return ops


def oracle_ops(B, ctx, seed):
    def verify():
        return B.verify_structure(ctx["window"], seed=seed)

    def check_verify(report):
        problems = [f"claim failed: {c.claim}" for c in report.failures()]
        if report.regime != "above-lambda2":
            problems.append(f"regime {report.regime!r}, expected 'above-lambda2'")
        return problems

    def count():
        a, c, starts = README_COUNT
        return B.count_solutions(ctx["problem"], a, c, starts, seed)

    def check_count(found):
        got = (found.count, found.morse_indices())
        want = (len(README_MORSE), README_MORSE)
        return [] if got == want else [f"count/morse {got}, expected {want}"]

    return [Operation("verify", verify, check_verify), Operation("count", count, check_count)]


def make_ops(B, workload, ctx, n, seed, workdir, counters):
    lam1, lam2, delta = ctx["lam1"], ctx["lam2"], ctx["delta"]
    if workload == "regimes":
        points = [
            ("below-lambda1", 5.0),
            ("at-lambda1", lam1),
            ("between-lambda1-lambda2", 20.0),
            ("at-lambda2", lam2),
            ("above-lambda2", lam2 + 0.5 * delta),
        ]
    elif workload == "fine-mesh":
        points = [("at-lambda2", lam2), ("above-lambda2", lam2 + 0.5 * delta)]
    else:
        return oracle_ops(B, ctx, seed)
    return cli_diagram_ops(B, n, points, seed, workdir, counters)


def run_pass(ops, clock, op_times, failures):
    """Run every operation once, back to back, appending one entry to
    `failures` per failed operation. Returns the summed call time, wall and
    scaled; `op_times` gets (wall, scaled) per operation."""
    wall_total = scaled_total = 0.0
    for op in ops:
        result, exc, wall, scaled = clock.call(op.call)
        wall_total += wall
        scaled_total += scaled
        if exc is not None:  # an operation that raises is a failed operation
            failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            continue
        op_times.setdefault(op.label, []).append((wall, scaled))
        try:
            problems = op.check(result)
        except Exception as exc:  # an unreadable output fails the check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{op.label}: " + "; ".join(problems))
    return wall_total, scaled_total


# -- metrics -------------------------------------------------------------------


def layer_metrics(tracer, passes):
    totals = tracer.span_totals()
    merged = tracer.counters
    out = {}
    for metric, unit, (kind, key) in LAYER_METRICS:
        if kind == "calls":
            value = totals.get(key, (0, 0.0, 0.0))[0]
        elif kind == "self":
            value = totals.get(key, (0, 0.0, 0.0))[2]
        else:
            value = merged.get(key, 0)
        out[metric] = {"value": value / passes, "unit": unit}
    newton = totals.get("solver.newton", (0, 0.0, 0.0))[0]
    out["solver.newton_converged_ratio"] = {
        "value": merged.get("solver.newton_ok", 0) / newton if newton else 0.0,
        "unit": "ratio",
    }
    converged = merged.get("diagram.converged_starts", 0)
    out["diagram.useful_ratio"] = {
        "value": merged.get("diagram.members", 0) / converged if converged else 0.0,
        "unit": "ratio",
    }
    return out, totals


def layer_self_seconds(totals, passes):
    by_layer = {}
    for name, (_, _, self_s) in totals.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s / passes
    return by_layer


# -- main ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="bifurcate end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_N))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n", type=int, default=None,
        help="override the workload's grid size (self-test only; not comparable)",
    )
    return parser.parse_args(argv)


def measure(B, args, workload, ctx, n, tracer, clock):
    """The closed loop: passes until --seconds is used up. Returns the scaled
    pass times (untraced, traced), the wall times of untraced passes,
    per-operation (wall, scaled) times of untraced passes, the failed
    operations and the number attempted."""
    workdir = OUT / "work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    counters = {"cli.bytes_written": 0}
    op_times: dict[str, list[tuple[float, float]]] = {}
    failures: list[str] = []
    pass_times = {False: [], True: []}
    wall_times = []
    loop_times = []
    attempted = 0
    try:
        ops = make_ops(B, workload, ctx, n, args.seed, workdir, counters)
        start = time.perf_counter()
        while True:
            # After MIN_PASSES, start another pass only if it should end
            # within --seconds, so a run measures about that long however
            # long a pass takes (checks and kernel runs included).
            if len(loop_times) >= MIN_PASSES:
                expected_end = time.perf_counter() - start + statistics.median(loop_times)
                if expected_end > args.seconds:
                    break
            t0 = time.perf_counter()
            traced = tracer is not None and len(pass_times[False]) > len(pass_times[True])
            if not traced:
                wall, scaled = run_pass(ops, clock, op_times, failures)
                wall_times.append(wall)
                pass_times[False].append(scaled)
            else:
                before = counters["cli.bytes_written"]
                tracer.install()
                try:
                    _, scaled = run_pass(ops, clock, {}, failures)
                finally:
                    tracer.uninstall()
                pass_times[True].append(scaled)
                tracer.counters["cli.bytes_written"] += counters["cli.bytes_written"] - before
            loop_times.append(time.perf_counter() - t0)
            attempted += len(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pass_times, wall_times, op_times, failures, attempted


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bifurcate" / "__init__.py").is_file():
        print(f"error: no bifurcate package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bifurcate as B
    import bifurcate.cli  # noqa: F401  (the harness calls B.cli.main)

    import_s = time.perf_counter() - t0
    if Path(B.__file__).resolve().parent != (SRC / "bifurcate").resolve():
        print(f"error: imported bifurcate from {B.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = args.workload
    n = args.n or WORKLOAD_N[workload]
    env = environment(workload, args.seed, n)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    import reference

    clock = ScaledClock(reference, WORKLOAD_KERNEL[workload])
    # The kernel needs numpy, so the import is scaled by the runs after it.
    import_scaled_s = import_s * clock.nominal_s / statistics.fmean(clock.kernel_s)
    ctx, setup_times, setup_raw = timed_setup(
        B, n, with_window_diagram=(workload == "oracle"), clock=clock
    )
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    pass_times, wall_times, op_times, failures, attempted = measure(
        B, args, workload, ctx, n, tracer, clock
    )
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    summary = {
        "import_s": import_scaled_s,
        "setup_repeats_s": setup_times,
        "passes_s": pass_times[False],
        "traced_passes_s": pass_times[True],
        "op_median_s": {
            k: statistics.median(s for _, s in v) for k, v in sorted(op_times.items())
        },
        "op_samples": {k: len(v) for k, v in sorted(op_times.items())},
        "wall": {
            "import_s": import_s,
            "setup_repeats_s": setup_raw,
            "passes_s": wall_times,
            "op_median_s": {
                k: statistics.median(w for w, _ in v) for k, v in sorted(op_times.items())
            },
        },
        "reference_kernel": clock.kernel,
        "reference_kernel_s": clock.kernel_s,
        "reference_nominal_s": clock.nominal_s,
    }
    if tracer is not None:
        passes = len(pass_times[True])
        metrics, totals = layer_metrics(tracer, passes)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(pass_times[True]) - statistics.median(pass_times[False]),
            "unit": "s",
        }
        summary["layer_self_s"] = layer_self_seconds(totals, passes)
        summary["span_failures"] = tracer.failures()
    else:
        metrics = {
            "setup_s": {
                "value": import_scaled_s + statistics.median(setup_times),
                "unit": "s",
            },
            "pass_s": {"value": statistics.median(pass_times[False]), "unit": "s"},
            "ok_frac": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{stem}.json.gz")
    record = {"env": env, "failures": failures, "metrics": metrics, **summary}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
