"""In-memory span tracer for the benchmark's traced runs.

Each traced layer function is replaced, in every module of the package that
binds it, by a wrapper that records one span (name, start, end, parent) and
the counters named for that layer. Spans live in flat arrays while a pass
runs and are summarised, and optionally written out, when the run ends. Self
time of a span is its duration minus the durations of its direct children.

The wrappers are installed and removed per pass, so untraced passes run the
package's own functions.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from functools import wraps

# Modules whose bindings are patched; a function imported into another module
# by name must be replaced there too, or calls through that module escape.
MODULES = (
    "bifurcate",
    "bifurcate.grid",
    "bifurcate.model",
    "bifurcate.solver",
    "bifurcate.spectral",
    "bifurcate.continuation",
    "bifurcate.diagram",
    "bifurcate.cli",
)


def _n_starts(args, kwargs):
    if len(args) > 3:
        return args[3]
    return kwargs.get("n_starts", 400)


class Tracer:
    """Span recorder plus the per-layer counters derived from call results."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self._open = Counter()
        self.counters = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _wrap(self, span_name, fn, on_result=None):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        start, end, name, parent = self.start, self.end, self.name, self.parent
        stack, open_spans, counters = self._stack, self._open, self.counters
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            open_spans[span_name] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = clock()
                counters[span_name + ".failed"] += 1
                raise
            else:
                end[idx] = clock()
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            finally:
                stack.pop()
                open_spans[span_name] -= 1

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, span_name, on_result=None):
        wrapper = self._wrap(span_name, original, on_result)
        for modname in MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch_method(self, cls, attr, span_name, on_result=None):
        self._patch(cls, attr, self._wrap(span_name, getattr(cls, attr), on_result))

    # -- result hooks -----------------------------------------------------

    def _on_newton(self, args, kwargs, point):
        c = self.counters
        c["solver.newton_ok"] += 1
        c["solver.newton_iters"] += max(len(point.residual_history) - 1, 0)
        if self._open["diagram.count"]:
            c["diagram.converged_starts"] += 1

    def _on_branch(self, args, kwargs, branch):
        self.counters["continuation.points"] += len(branch.points)

    def _on_count(self, args, kwargs, found):
        self.counters["diagram.starts"] += int(_n_starts(args, kwargs))
        self.counters["diagram.members"] += found.count

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layer functions of the imported bifurcate package."""
        import bifurcate.cli as cli
        import bifurcate.continuation as continuation
        import bifurcate.diagram as diagram
        import bifurcate.grid as grid
        import bifurcate.model as model
        import bifurcate.solver as solver
        import bifurcate.spectral as spectral

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch_method(grid.LinearOperatorBanded, "factor", "grid.factor")
        self._patch_function(grid.symmetric_tridiagonal_eigenpairs, "grid.eig")
        self._patch_function(model.eval_nonlinearity, "model.nonlinearity")
        self._patch_method(solver.Problem, "residual_values", "solver.residual")
        self._patch_function(solver.newton_solve, "solver.newton", self._on_newton)
        self._patch_function(solver.time_march, "solver.march")
        self._patch_function(spectral.linearized_spectrum, "spectral.spectrum")
        for fn in (continuation.continue_branch, continuation.continue_czero_branch):
            self._patch_function(fn, "continuation.branch", self._on_branch)
        self._patch_function(continuation.refine_fold, "continuation.fold")
        self._patch_function(continuation.solve_at_projection, "continuation.projection")
        for fn in (
            continuation.build_degenerate_segment,
            continuation.branch_derivative_at_zero,
            continuation.fold_normal_form_checks,
        ):
            self._patch_function(fn, "continuation.other")
        self._patch_function(diagram.assemble_diagram, "diagram.assemble")
        self._patch_function(diagram.count_solutions, "diagram.count", self._on_count)
        self._patch_function(diagram.verify_structure, "diagram.verify")
        self._patch_function(cli.main, "cli.main")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------

    def failures(self):
        """Per span name: calls that raised."""
        return {k[: -len(".failed")]: v for k, v in self.counters.items() if k.endswith(".failed")}

    def span_totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = Counter()
        total = Counter()
        self_s = Counter()
        names = self.names
        for i in range(n):
            key = names[self.name[i]]
            calls[key] += 1
            total[key] += dur[i]
            self_s[key] += dur[i] - child[i]
        return {k: (calls[k], total[k], self_s[k]) for k in calls}

    def write_spans(self, path):
        """Write every span as [name, start, end, parent] rows, gzip JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = [
            [self.names[self.name[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i]]
            for i in range(len(self.start))
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
