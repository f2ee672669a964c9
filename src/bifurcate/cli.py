"""Command line front end: config files in, artifact files out.

One run reads a structured YAML config (four named blocks plus a mandatory
schema version), executes a single command against the toolkit and writes
machine-readable outputs into a directory. Outputs are deterministic: the
same config byte-reproduces every CSV, JSON and .npy artifact.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .grid import DiscreteField, build_grid
from .model import HarvestSpec, Nonlinearity, check_hypotheses
from .solver import (
    Diverged,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    classify_state,
    newton_solve,
)
from .continuation import (
    Branch,
    BranchEvent,
    DegeneratePoint,
    DegenerateSegment,
    StepUnderflow,
    WrongKind,
    chart_coordinate,
    continue_branch,
    continue_czero_branch,
    delta_window,
    trace_fold_curve,
    trace_index1_degenerate_curve,
)
from .diagram import (
    REGIMES,
    AssemblyIncomplete,
    BifurcationDiagram,
    _stable_seed,
    _stopped_at,
    assemble_diagram,
    count_solutions,
    verify_structure,
)

SCHEMA_VERSION = "1"

COMMANDS = (
    "check-hypotheses",
    "continue",
    "fold-curve",
    "dsigma-curve",
    "czero-branch",
    "diagram",
    "verify",
    "count",
)

FORMATS = ("csv", "json", "svg")

# Shorthand labels accepted in run.regime alongside the canonical names.
REGIME_ALIASES = {
    "theorem1": "between-lambda1-lambda2",
    "theorem2": "at-lambda2",
    "theorem3": "above-lambda2",
}

CSV_HEADER = "s,c,t_proj,u_l2,u_max,u_min,mu1,mu2,morse_index,tag"


class ConfigError(ValueError):
    """A config file that cannot be used, with location context attached."""


def _fmt(x) -> str:
    """Decimal with 12 significant digits."""
    return format(float(x), ".12g")


def _at_line(text: str, key: str) -> str:
    """' (line N)' for the first line of text that sets key, or ''."""
    for i, line in enumerate(text.splitlines(), start=1):
        if line.split("#", 1)[0].strip().startswith(f"{key}:"):
            return f" (line {i})"
    return ""


@dataclass(frozen=True)
class RunConfig:
    """Parsed and normalized run description.

    Blocks: grid (discretization), model (nonlinearity and harvest), run
    (command and its parameters), output (directory and formats). All
    defaults are already filled in; `echo` is the normalized form written
    back into every JSON artifact.
    """

    grid: dict
    model: dict
    run: dict
    output: dict

    @property
    def echo(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "grid": dict(self.grid),
            "model": dict(self.model),
            "run": dict(self.run),
            "output": dict(self.output),
        }

    def build_problem(self) -> Problem:
        domain = build_grid(self.grid["n_interior"], self.grid["length"])
        nl = Nonlinearity(self.model["M"], self.model["p_f"])
        hs = HarvestSpec(self.model["harvest"], self.model["scale"])
        return Problem(domain, nl, hs)


_GRID_DEFAULTS = {"n_interior": 399, "length": 1.0}
_MODEL_DEFAULTS = {"M": 0.2, "p_f": 3, "harvest": "bump", "scale": 1.0}
_RUN_DEFAULTS = {
    "a": None,
    "c": None,
    "c_min": -10.0,
    "c_range": None,
    "a_range": None,
    "n_starts": 400,
    "seed": 0,
    "sigma": 1.0,
    "which": "dagger",
    "start": "stable",
    "chart": "phi",
    "direction": 1,
    "regime": None,
}
_OUTPUT_DEFAULTS = {
    "directory": "out",
    "formats": list(FORMATS),
    "svg_axis": "u_max",
}
#: The numeric keys of each block and their types; run.a and run.c may be null.
_NUMERIC_KEYS = {
    "grid": {"n_interior": int, "length": float},
    "model": {"M": float, "p_f": int, "scale": float},
    "run": {"a": float, "c": float, "c_min": float, "sigma": float, "n_starts": int,
            "seed": int, "direction": int},
}


def _merge_block(name: str, raw, defaults: dict, text: str) -> dict:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config block {name!r} must be a mapping")
    out = {k: v for k, v in defaults.items()}
    for key, value in raw.items():
        if key == "command" and name == "run":
            out[key] = value
            continue
        if key not in defaults:
            raise ConfigError(f"unknown key {key!r} in block {name!r}{_at_line(text, key)}")
        out[key] = value
    return out


def _number(value, kind, name: str, source: str, text: str):
    """value converted to kind (int or float); a value of another type,
    booleans included, raises ConfigError naming block.key and its line."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ConfigError(
        f"{source}: {name} must be {what}, got {value!r}{_at_line(text, name.split('.')[1])}"
    )


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ConfigError(
                f"{source}: line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}"
            ) from exc
        raise ConfigError(f"{source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a mapping of blocks")

    version = doc.pop("schema_version", None)
    if version is None:
        raise ConfigError(f"{source}: schema_version is mandatory")
    if str(version) != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: unsupported schema_version {version!r}, "
            f"expected {SCHEMA_VERSION!r}"
        )

    known = {"grid", "model", "run", "output"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{source}: unknown block {key!r}{_at_line(text, key)}")

    grid = _merge_block("grid", doc.get("grid"), _GRID_DEFAULTS, text)
    model = _merge_block("model", doc.get("model"), _MODEL_DEFAULTS, text)
    run = _merge_block("run", doc.get("run"), _RUN_DEFAULTS, text)
    output = _merge_block("output", doc.get("output"), _OUTPUT_DEFAULTS, text)

    for name, block in (("grid", grid), ("model", model), ("run", run)):
        for key, kind in _NUMERIC_KEYS[name].items():
            if block[key] is not None or key not in ("a", "c"):
                block[key] = _number(block[key], kind, f"{name}.{key}", source, text)

    command = run.get("command")
    if command is not None and command not in COMMANDS:
        raise ConfigError(
            f"{source}: unknown run.command {command!r}; "
            f"choose from {', '.join(COMMANDS)}"
        )

    regime = run.get("regime")
    if regime is not None:
        canonical = REGIME_ALIASES.get(regime, regime)
        if canonical not in REGIMES:
            raise ConfigError(f"{source}: unknown run.regime {regime!r}")
        run["regime"] = canonical

    for key in ("c_range", "a_range"):
        rng = run.get(key)
        if rng is not None:
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
                raise ConfigError(
                    f"{source}: run.{key} must be a two-element list"
                )
            run[key] = [_number(v, float, f"run.{key}", source, text) for v in rng]
            if not run[key][0] < run[key][1]:
                raise ConfigError(f"{source}: run.{key} must be increasing")

    if run["direction"] not in (1, -1):
        raise ConfigError(f"{source}: run.direction must be 1 or -1")

    if not isinstance(output["formats"], list):
        raise ConfigError(
            f"{source}: output.formats must be a list{_at_line(text, 'formats')}"
        )
    bad = [f for f in output["formats"] if f not in FORMATS]
    if bad:
        raise ConfigError(f"{source}: unknown output formats {bad}")
    if output["svg_axis"] not in ("u_max", "t_proj"):
        raise ConfigError(
            f"{source}: output.svg_axis must be 'u_max' or 't_proj'"
        )

    return RunConfig(grid, model, run, output)


def load_config(path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


def _require(cfg: RunConfig, key: str):
    value = cfg.run.get(key)
    if value is None:
        raise ConfigError(f"run.{key} is required for this command")
    return value


# ---------------------------------------------------------------------------
# CSV emission


def _branch_rows(branch: Branch, key: str):
    dom = branch.points[0].u.domain
    for i, p in enumerate(branch.points):
        u = p.u.values
        mu = p.spectrum.eigenvalues
        yield ",".join([
            _fmt(branch.arclengths[i]),
            _fmt(getattr(p, key)),
            _fmt(branch.t_proj[i]),
            _fmt(np.sqrt(dom.inner(u, u))),
            _fmt(u.max()),
            _fmt(u.min()),
            _fmt(mu[0]),
            _fmt(mu[1]),
            str(p.morse_index),
            branch.tag,
        ])


def emit_csv(branch: Branch, path) -> None:
    """Write one branch as CSV under the fixed ten-column header."""
    _emit_branches_csv([branch], path)


def _emit_branches_csv(branches, path, key: str = "c") -> None:
    """Branches in one file under the ten-column header; the tag column
    tells them apart. `key` names the second column: the harvest level c,
    or the growth rate a for a sweep at c = 0."""
    if not branches:
        raise ValueError("refusing to emit an empty branch set")
    lines = [CSV_HEADER.replace("s,c,", f"s,{key},", 1)]
    for br in branches:
        if not br.points:
            raise ValueError(f"refusing to emit an empty branch {br.tag!r}")
        lines.extend(_branch_rows(br, key))
    Path(path).write_text("\n".join(lines) + "\n")


def _emit_curve_csv(curve, path) -> None:
    """Degenerate-curve CSV: one row per swept point."""
    if not curve.points:
        raise ValueError("refusing to emit an empty curve")
    dom = curve.points[0].u.domain
    lines = ["param,a,c,u_l2,u_max,u_min,residual_sup,kind"]
    for t, p in zip(curve.parameter, curve.points):
        u = p.u.values
        lines.append(",".join([
            _fmt(t), _fmt(p.a), _fmt(p.c),
            _fmt(np.sqrt(dom.inner(u, u))),
            _fmt(u.max()), _fmt(u.min()),
            _fmt(p.residual_sup), p.kind,
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Artifact files, the diagram payload and the loader

STATES_FILE = "states.npy"


@contextmanager
def _artifact(path, mode: str):
    """Open path for writing; on any failure remove what was written, so no
    truncated artifact is left behind."""
    path = Path(path)
    try:
        with path.open(mode) as fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_json(doc: dict, path) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True) + "\\n"."""
    with _artifact(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_states(rows, n: int, path) -> None:
    """Write rows, float64 vectors of length n, as one (len(rows), n) .npy
    array: the bytes of np.save(path, np.stack(rows)), streamed row by row
    so that no stacked copy is made."""
    header = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
        "fortran_order": False,
        "shape": (len(rows), n),
    }
    with _artifact(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for row in rows:
            fh.write(row.tobytes())


def _jsonable(value):
    """Plain-Python view of a value that may carry numpy scalars or arrays,
    tuples or dicts."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def diagram_payload(diagram: BifurcationDiagram) -> tuple[dict, list]:
    """The diagram as the diagram command writes it: the JSON document and
    the rows of its states.npy.

    Every state vector (point u, degenerate-point u and w, segment psi) is
    a row, and the document holds its row index. A vector shared by several
    entries, such as a fold listed in a branch's events and in
    degenerate_points, is one row; rows are numbered in first-seen order.
    The document names the states file under "states".
    """
    rows, index = [], {}

    def row(field: DiscreteField) -> int:
        key = id(field.values)
        if key not in index:
            index[key] = len(rows)
            rows.append(field.values)
        return index[key]

    def degenerate(dp: DegeneratePoint) -> dict:
        return {
            "a": float(dp.a),
            "c": float(dp.c),
            "u": row(dp.u),
            "w": row(dp.w),
            "morse_index_at_point": int(dp.morse_index_at_point),
            "kind": dp.kind,
            "residual_sup": float(dp.residual_sup),
        }

    branches = [
        {
            "tag": br.tag,
            "chart": br.chart,
            "arclengths": [float(s) for s in br.arclengths],
            "t_proj": [float(t) for t in br.t_proj],
            "events": [
                {
                    "kind": ev.kind,
                    "point_index": int(ev.point_index),
                    "degenerate_point": (
                        None if ev.degenerate_point is None
                        else degenerate(ev.degenerate_point)
                    ),
                }
                for ev in br.events
            ],
            "points": [
                {
                    "u": row(p.u),
                    "a": float(p.a),
                    "c": float(p.c),
                    "residual_norm": float(p.residual_norm),
                    "morse_index": int(p.morse_index),
                    "degenerate": bool(p.degenerate),
                    "tag": p.tag,
                }
                for p in br.points
            ],
        }
        for br in diagram.branches
    ]
    seg = diagram.segment
    doc = {
        "a": float(diagram.a),
        "c_min": float(diagram.c_min),
        "complete": bool(diagram.complete),
        "regime": diagram.regime,
        "states": STATES_FILE,
        "branches": branches,
        "degenerate_points": [degenerate(dp) for dp in diagram.degenerate_points],
        "segment": None if seg is None else {
            "a": float(seg.a),
            "t_min": float(seg.t_min),
            "t_max": float(seg.t_max),
            "psi": row(seg.psi),
            "verified_residual": float(seg.verified_residual),
        },
    }
    return doc, rows


def _report_payload(report) -> dict | None:
    if report is None:
        return None
    return {
        "regime": report.regime,
        "a": float(report.a),
        "passed": bool(report.passed),
        "checks": [
            {
                "claim": chk.claim,
                "measured": _jsonable(chk.measured),
                "relation": chk.relation,
                "bound": _jsonable(chk.bound),
                "note": chk.note,
                "passed": chk.passed,
            }
            for chk in report.checks
        ],
    }


def _load_point(problem, doc, fields, prev: SolutionPoint | None) -> SolutionPoint:
    return classify_state(
        problem, fields[doc["u"]], doc["a"], doc["c"], rnorm=doc["residual_norm"],
        prev=None if prev is None else prev.spectrum,
    )


def _load_degenerate(doc: dict, fields) -> DegeneratePoint:
    return DegeneratePoint(
        doc["a"],
        doc["c"],
        fields[doc["u"]],
        fields[doc["w"]],
        doc["morse_index_at_point"],
        doc["kind"],
        doc["residual_sup"],
    )


def load_diagram(doc: dict, states, problem: Problem | None = None) -> BifurcationDiagram:
    """Rebuild a BifurcationDiagram from its JSON document and the array of
    its states.npy.

    Each row becomes one DiscreteField, shared by every entry that refers
    to it. Each point is reclassified by classify_state from its stored
    state, with the stored residual norm taken as given and the spectrum
    tracked from the branch's previous point. The certified classification
    is a function of that state, and so are each branch's arclengths and
    t_proj, derived again (the stored lists are not read), so the diagram
    round-trips bit for bit and writes the same two files again. A document
    without the "states" key carries its vectors inline, a layout this
    loader refuses.
    """
    if "states" not in doc:
        raise ValueError(
            "diagram document has no 'states' key: its state vectors are "
            f"written inline, not as rows of {STATES_FILE}; rerun the diagram "
            "command to write the current layout"
        )
    if problem is None:
        cfg = RunConfig(
            dict(doc["config_echo"]["grid"]),
            dict(doc["config_echo"]["model"]),
            dict(doc["config_echo"]["run"]),
            dict(doc["config_echo"]["output"]),
        )
        problem = cfg.build_problem()
    states = np.asarray(states)
    n = problem.domain.n_interior
    if states.ndim != 2 or states.shape[1] != n:
        raise ValueError(
            f"states array has shape {states.shape}, expected (rows, {n})"
        )
    fields = [DiscreteField(problem.domain, values) for values in states]
    branches = []
    for b in doc["branches"]:
        points, prev = [], None
        for p in b["points"]:
            prev = _load_point(problem, p, fields, prev)
            points.append(prev)
        events = tuple(
            BranchEvent(
                ev["kind"],
                ev["point_index"],
                None if ev["degenerate_point"] is None
                else _load_degenerate(ev["degenerate_point"], fields),
            )
            for ev in b["events"]
        )
        branches.append(Branch(tuple(points), b["chart"], events, tag=b["tag"]))
    degenerate = tuple(
        _load_degenerate(dp, fields) for dp in doc["degenerate_points"]
    )
    seg = doc["segment"]
    segment = None
    if seg is not None:
        segment = DegenerateSegment(
            seg["a"], seg["t_min"], seg["t_max"], fields[seg["psi"]],
            seg["verified_residual"],
        )
    return BifurcationDiagram(
        problem,
        doc["a"],
        doc["regime"],
        tuple(branches),
        degenerate,
        segment,
        doc["c_min"],
        complete=doc["complete"],
    )


def diagrams_equal(d1: BifurcationDiagram, d2: BifurcationDiagram) -> bool:
    """Field-level equality through the serialized form: equal documents
    and equal rows."""
    doc1, rows1 = diagram_payload(d1)
    doc2, rows2 = diagram_payload(d2)
    return (
        doc1 == doc2
        and len(rows1) == len(rows2)
        and all(map(np.array_equal, rows1, rows2))
    )


# ---------------------------------------------------------------------------
# SVG rendering


_TAG_COLORS = {
    "Mstar": "#1b6ca8",
    "Msharp": "#c2431e",
    "Mflat": "#3a7d44",
    "Mnatural": "#8e4e9e",
    "ray": "#707070",
}
_INDEX_DASH = {0: "none", 1: "8,5", 2: "2,4"}


def _dash_for(index: int) -> str:
    return _INDEX_DASH.get(index, "1,3")


def render_svg(diagram: BifurcationDiagram, path, y_axis: str = "u_max") -> None:
    """Standalone vector plot: c horizontal, a solution measure vertical.

    Line style encodes the Morse index (solid, dashed, dotted); degenerate
    points are circled; the neutral segment appears as a vertical bar at
    c = 0.
    """
    if y_axis not in ("u_max", "t_proj"):
        raise ValueError(f"unknown y axis {y_axis!r}")

    def measure(br: Branch, i: int) -> float:
        if y_axis == "u_max":
            return float(br.points[i].u.values.max())
        return float(br.t_proj[i])

    xs, ys = [], []
    for br in diagram.branches:
        xs.extend(float(p.c) for p in br.points)
        ys.extend(measure(br, i) for i in range(len(br.points)))
    for dp in diagram.degenerate_points:
        xs.append(float(dp.c))
        ys.append(float(dp.u.values.max()) if y_axis == "u_max"
                  else _projection(diagram, dp))
    seg_lo = seg_hi = None
    if diagram.segment is not None:
        seg = diagram.segment
        ts = np.linspace(seg.t_min, seg.t_max, 21)
        if y_axis == "u_max":
            vals = [float((t * seg.psi.values).max()) for t in ts]
        else:
            vals = [float(t) for t in ts]
        seg_lo, seg_hi = min(vals), max(vals)
        xs.append(0.0)
        ys.extend([seg_lo, seg_hi])
    if not xs:
        raise ValueError("nothing to draw")

    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    W, H, ML, MR, MT, MB = 800, 560, 70, 20, 20, 50

    def X(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def Y(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MT - MB)

    def pt(x, y):
        return f"{X(x):.2f},{Y(y):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MT - MB}" '
        'fill="white" stroke="#222222" stroke-width="1"/>',
    ]
    if x0 < 0 < x1:
        parts.append(
            f'<line x1="{X(0):.2f}" y1="{Y(y0):.2f}" x2="{X(0):.2f}" '
            f'y2="{Y(y1):.2f}" stroke="#cccccc" stroke-width="1"/>'
        )
    if y0 < 0 < y1:
        parts.append(
            f'<line x1="{X(x0):.2f}" y1="{Y(0):.2f}" x2="{X(x1):.2f}" '
            f'y2="{Y(0):.2f}" stroke="#cccccc" stroke-width="1"/>'
        )

    if diagram.segment is not None:
        parts.append(
            f'<line x1="{X(0):.2f}" y1="{Y(seg_lo):.2f}" x2="{X(0):.2f}" '
            f'y2="{Y(seg_hi):.2f}" stroke="#444444" stroke-width="5" '
            'stroke-linecap="round" opacity="0.7"/>'
        )

    for br in diagram.branches:
        color = _TAG_COLORS.get(br.tag, "#333333")
        n = len(br.points)
        i = 0
        while i < n - 1:
            j = i
            idx = br.points[i].morse_index
            while j + 1 < n and br.points[j + 1].morse_index == idx:
                j += 1
            j = max(j, i + 1)
            coords = " ".join(
                pt(br.points[k].c, measure(br, k)) for k in range(i, j + 1)
            )
            dash = _dash_for(idx)
            dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"{dash_attr}/>'
            )
            i = j

    for dp in diagram.degenerate_points:
        yv = float(dp.u.values.max()) if y_axis == "u_max" else _projection(
            diagram, dp
        )
        parts.append(
            f'<circle cx="{X(dp.c):.2f}" cy="{Y(yv):.2f}" r="5" fill="white" '
            'stroke="#000000" stroke-width="1.5"/>'
        )

    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        parts.append(
            f'<text x="{X(xv):.2f}" y="{H - MB + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{ML - 8}" y="{Y(yv) + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(ML + W - MR) / 2:.0f}" y="{H - 10}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif">c</text>'
    )
    label = "max u" if y_axis == "u_max" else "t"
    parts.append(
        f'<text x="16" y="{(MT + H - MB) / 2:.0f}" font-size="14" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(MT + H - MB) / 2:.0f})">{label}</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _projection(diagram: BifurcationDiagram, dp: DegeneratePoint) -> float:
    chart = diagram.branches[0].chart if diagram.branches else "phi"
    return chart_coordinate(diagram.problem, chart, dp.u.values)


# ---------------------------------------------------------------------------
# Command handlers


def _doc(cfg: RunConfig, **extra) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "config_echo": cfg.echo}
    doc.update(extra)
    return doc


def _cmd_check_hypotheses(problem, cfg, outdir):
    run = cfg.run
    report = check_hypotheses(
        problem.nonlinearity, problem.harvest_spec, problem.domain,
        a=run["a"],
    )
    for line in report.lines():
        print(line)
    _write_json(_doc(
        cfg,
        satisfied=report.satisfied,
        checks=[
            {
                "label": c.label,
                "passed": bool(c.passed),
                "witness": float(c.witness),
                "description": c.description,
            }
            for c in report.checks
        ],
    ), outdir / "hypotheses.json")
    return 0 if report.satisfied else 2


def _gate(problem, cfg, force) -> None:
    report = check_hypotheses(
        problem.nonlinearity, problem.harvest_spec, problem.domain,
        a=cfg.run["a"],
    )
    if report.satisfied or force:
        return
    for label in report.failures:
        print(f"hypothesis check failed: {label}", file=sys.stderr)
    raise ConfigError(
        "admissibility hypotheses not satisfied (rerun with --force to "
        "proceed anyway)"
    )


def _cmd_continue(problem, cfg, outdir):
    run = cfg.run
    a = float(_require(cfg, "a"))
    window = tuple(run["c_range"]) if run["c_range"] else (run["c_min"], 1e6)
    if run["start"] == "stable":
        start = _stable_seed(problem, a)
    elif run["start"] == "zero":
        start = newton_solve(problem, DiscreteField.zero(problem.domain), a, 0.0)
    else:
        raise ConfigError(f"run.start must be 'stable' or 'zero', got {run['start']!r}")
    branch = continue_branch(
        problem, start, int(run["direction"]), window, chart=run["chart"],
    ).with_tag("trace")
    if "csv" in cfg.output["formats"]:
        emit_csv(branch, outdir / "branch.csv")
    _write_json(_doc(
        cfg,
        command="continue",
        n_points=len(branch.points),
        events=[
            {"kind": ev.kind, "point_index": ev.point_index,
             "c": None if ev.degenerate_point is None
             else float(ev.degenerate_point.c)}
            for ev in branch.events
        ],
    ), outdir / "run.json")
    return 0


def _cmd_fold_curve(problem, cfg, outdir):
    run = cfg.run
    a_range = run["a_range"]
    if not a_range:
        raise ConfigError("run.a_range is required for fold-curve")
    a_lo, a_hi = (float(v) for v in a_range)
    a_seed = float(run["a"]) if run["a"] is not None else a_hi
    start = _stable_seed(problem, a_seed)
    branch = continue_branch(problem, start, +1, (run["c_min"], 1e9), chart=run["chart"])
    folds = branch.fold_points()
    if not folds:
        raise _stopped_at(branch, "no fold found on the seeding branch")
    curve = trace_fold_curve(problem, folds[0], (a_lo, a_hi))
    if "csv" in cfg.output["formats"]:
        _emit_curve_csv(curve, outdir / "fold_curve.csv")
    _write_json(_doc(
        cfg,
        command="fold-curve",
        n_points=len(curve.points),
        c_limits=[float(curve.points[0].c), float(curve.points[-1].c)],
        max_slope_mismatch=(
            float(max(curve.slope_check)) if curve.slope_check else None
        ),
    ), outdir / "run.json")
    return 0


def _cmd_dsigma_curve(problem, cfg, outdir):
    run = cfg.run
    curve = trace_index1_degenerate_curve(problem, sigma=float(run["sigma"]))
    if "csv" in cfg.output["formats"]:
        _emit_curve_csv(curve, outdir / "dsigma_curve.csv")
    _write_json(_doc(
        cfg,
        command="dsigma-curve",
        n_points=len(curve.points),
        delta=float(delta_window(problem, curve)),
    ), outdir / "run.json")
    return 0


def _cmd_czero_branch(problem, cfg, outdir):
    run = cfg.run
    a_range = run["a_range"]
    if not a_range:
        raise ConfigError("run.a_range is required for czero-branch")
    branch = continue_czero_branch(
        problem, run["which"], tuple(float(v) for v in a_range)
    ).with_tag(run["which"])
    if "csv" in cfg.output["formats"]:
        _emit_branches_csv([branch], outdir / "czero_branch.csv", key="a")
    _write_json(_doc(
        cfg,
        command="czero-branch",
        n_points=len(branch.points),
        a_limits=[float(branch.points[0].a), float(branch.points[-1].a)],
    ), outdir / "run.json")
    return 0


def _cmd_diagram(problem, cfg, outdir):
    run = cfg.run
    a = float(_require(cfg, "a"))
    status = 0
    try:
        diagram = assemble_diagram(problem, a, c_min=run["c_min"])
    except AssemblyIncomplete as exc:
        print(f"assembly incomplete: {exc}", file=sys.stderr)
        diagram = exc.partial
        status = 1
    formats = cfg.output["formats"]
    if "json" in formats:
        doc, rows = diagram_payload(diagram)
        _write_states(rows, problem.domain.n_interior, outdir / STATES_FILE)
        _write_json(_doc(cfg, report=None, **doc), outdir / "diagram.json")
    if "csv" in formats and diagram.branches:
        _emit_branches_csv(diagram.branches, outdir / "branches.csv")
    if "svg" in formats and diagram.branches:
        render_svg(diagram, outdir / "diagram.svg", cfg.output["svg_axis"])
    return status


def _cmd_verify(problem, cfg, outdir):
    run = cfg.run
    a = float(_require(cfg, "a"))
    diagram = assemble_diagram(problem, a, c_min=run["c_min"])
    report = verify_structure(diagram, oracle_budget=run["n_starts"], seed=run["seed"])
    regime_ok = run["regime"] is None or run["regime"] == diagram.regime
    _write_json(_doc(
        cfg,
        regime=diagram.regime,
        regime_expected=run["regime"],
        regime_matches=regime_ok,
        report=_report_payload(report),
    ), outdir / "verification_report.json")
    for chk in report.checks:
        status = "pass" if chk.passed else "FAIL"
        note = f" ({chk.note})" if chk.note else ""
        print(f"[{status}] {chk.claim}: {chk.measured} {chk.relation} {chk.bound}{note}")
    if not regime_ok:
        print(f"[FAIL] regime: expected {run['regime']}, "
              f"detected {diagram.regime}")
    return 0 if (report.passed and regime_ok) else 2


def _cmd_count(problem, cfg, outdir):
    run = cfg.run
    a = float(_require(cfg, "a"))
    c = float(_require(cfg, "c"))
    result = count_solutions(problem, a, c, run["n_starts"], run["seed"])
    print(f"count={result.count}")
    dom = problem.domain
    _write_json(_doc(
        cfg,
        command="count",
        a=a,
        c=c,
        count=result.count,
        morse_indices=[int(i) for i in result.morse_indices()],
        members=[
            {
                "morse_index": int(m.morse_index),
                "degenerate": bool(m.degenerate),
                "u_l2": float(np.sqrt(dom.inner(m.u.values, m.u.values))),
                "u_max": float(m.u.values.max()),
                "u_min": float(m.u.values.min()),
                "residual_norm": float(m.residual_norm),
            }
            for m in result
        ],
    ), outdir / "count.json")
    return 0


_HANDLERS = {
    "check-hypotheses": _cmd_check_hypotheses,
    "continue": _cmd_continue,
    "fold-curve": _cmd_fold_curve,
    "dsigma-curve": _cmd_dsigma_curve,
    "czero-branch": _cmd_czero_branch,
    "diagram": _cmd_diagram,
    "verify": _cmd_verify,
    "count": _cmd_count,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifurcate",
        description="Continuation and verification runs for the harvested "
                    "steady-state problem, driven by a YAML config.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the YAML run config")
    parser.add_argument("--force", action="store_true",
                        help="run even if the admissibility hypotheses fail")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides output.directory)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        declared = cfg.run.get("command")
        if declared is not None and declared != args.command:
            raise ConfigError(
                f"config declares run.command {declared!r} but "
                f"{args.command!r} was requested"
            )
        problem = cfg.build_problem()
        outdir = Path(args.out) if args.out else Path(cfg.output["directory"])
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command != "check-hypotheses":
            _gate(problem, cfg, args.force)
        return _HANDLERS[args.command](problem, cfg, outdir)
    except (
        ValueError, OSError, NonConvergence, SingularJacobian, Diverged,
        StepUnderflow, WrongKind, AssemblyIncomplete,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
