"""Pseudo-arclength continuation in the harvest amplitude, minimally extended
systems for degenerate states, and the curves those states sweep when the
growth rate or a projection coordinate varies.

Conventions shared by everything in this module:

- The continuation state is the pair (u, c) at fixed growth rate a, and
  distances between states use the product norm ||du||_L2 + |dc|.
- Working iterates are long double while corrections come from float64
  factorizations, the same convention as newton_solve. A float64 vector of
  moderate amplitude cannot represent a steady state below a ~1e-10 sup-norm
  defect at this stencil scale, so the reported residuals are those of the
  long-double iterate and the stored fields are float64 roundings.
- Every extended system is solved by one Newton loop (_extended_newton):
  the state equation with c free, bordered by an affine row (the arclength
  corrector and the chart projection), by the test function g below (the
  fold system), or by both with a free too (the index-1 family). Each step
  is one bordered tridiagonal solve (grid.solve_bordered) on the symmetric
  Jacobian J: one border, or two for the index-1 family.
- Degenerate points are found from the minimally extended system (Griewank
  & Reddien 1984): the test function g(u, a) solves
  [[J, w0], [w0^T, 0]] [v; g] = [0; 1] for a fixed bordering vector w0 near
  the kernel, vanishes exactly where J is singular, and v is the kernel
  vector there.
- Kernel vectors w are normalized so their square integral matches that of
  the first Laplacian eigenfunction for index-0 kinds and the second for
  index-1 kinds, and their sign follows the corresponding eigenfunction
  convention.
- The fold sweep in a, the index-1 family in t and the zero-harvest sweep
  in a share one natural-parameter march (_march) that grows its step by
  STEP_GROWTH, within the first, smallest and largest step of the sweep's
  *_SWEEP_STEPS constant. The arclength tracer sets its step from the
  branch geometry instead: the curvature estimated from the turn between
  successive secants gives the step whose chord deviates CHORD_TOL from the
  branch, and a step is redone at half length when its own chord deviation
  exceeds 2 CHORD_TOL or its corrector lands far from the predictor (a jump
  to another sheet). max_step is only an optional ceiling.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .grid import (
    DiscreteField,
    exact_mode_longdouble,
    inner_product,
    renormalize_l2,
    solve_bordered,
)
from .model import critical_cap, ramp_curvature, ramp_slope
from .solver import (
    FOLD_MAX_ITER,
    NEWTON_TOL,
    PROJECTION_MAX_ITER,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    _checked_factor,
    classify_state,
    newton_solve,
)

MIN_ARCLENGTH_STEP = 1e-8
STEP_GROWTH = 1.3
#: First, smallest and largest step of the fold sweep in a, the index-1
#: family in t and the zero-harvest sweep in a (_march).
FOLD_SWEEP_STEPS = (0.5, 1e-4, 2.0)
INDEX1_SWEEP_STEPS = (0.05, 1e-5, 0.1)
CZERO_SWEEP_STEPS = (0.25, 1e-6, 1.0)
#: Offset above the threshold M of the first amplitude a zero-harvest seed
#: tries.
CZERO_SEED_OFFSET = 0.05
#: Chart samples of the degenerate segment checked in long double, and the
#: bound their residual must stay below.
SEGMENT_CHECKS = 9
SEGMENT_TOL = 1e-12
#: Chord tolerance of the arclength tracer in the product norm: the step is
#: sized so that the chord between neighbouring branch points deviates from
#: the branch by about this much (the sagitta kappa ds^2 / 8 of a circle of
#: curvature kappa), and a step whose chord deviates by more than twice this
#: is redone at half length.
CHORD_TOL = 2.5e-3
#: Branch-jump guard: a corrector that lands farther from its predictor than
#: this multiple of the expected predictor-corrector distance is taken to
#: have jumped to another sheet, and the step is redone at half length.
JUMP_FACTOR = 8.0
#: Chart offset of the two probes of fold_normal_form_checks.
NORMAL_FORM_OFFSET = 0.02


@dataclass(frozen=True)
class StepCounts:
    """Arclength steps of a trace: the accepted ones, and the rejected ones
    by cause. nonconvergence: the corrector did not converge; collapse: it
    converged back onto the base point; boundary: the solve at the c window
    boundary failed; chord: the chord deviated by more than 2 CHORD_TOL;
    jump: the corrector landed more than JUMP_FACTOR times the expected
    distance from its predictor."""

    accepted: int = 0
    nonconvergence: int = 0
    collapse: int = 0
    boundary: int = 0
    chord: int = 0
    jump: int = 0

    def __add__(self, other: "StepCounts") -> "StepCounts":
        return StepCounts(*(x + y for x, y in zip(astuple(self), astuple(other))))

    def __str__(self) -> str:
        rejected = ", ".join(
            f"{f.name} {getattr(self, f.name)}" for f in fields(self)[1:]
        )
        return f"{self.accepted} accepted, rejected: {rejected}"


class StepUnderflow(RuntimeError):
    """The arclength step was halved below the minimum without the corrector
    converging. Carries the branch traced so far; its last point is the last
    good one, and its steps count the accepted and rejected steps."""

    def __init__(self, msg: str, partial: "Branch"):
        super().__init__(msg)
        self.partial = partial


class WrongKind(RuntimeError):
    """Refinement converged, but onto a different kind of degenerate point
    than the caller asked for. The refined point rides along so callers able
    to handle the other kind can still use it."""

    def __init__(self, expected: str, point: "DegeneratePoint"):
        super().__init__(
            f"expected a {expected} point, refined onto {point.kind} "
            f"at (a={point.a:.6g}, c={point.c:.6g})"
        )
        self.expected = expected
        self.point = point


@dataclass(frozen=True)
class BranchEvent:
    """Something that happened while tracing: kind is one of 'fold',
    'degeneracy', 'index-change' or 'endpoint'. point_index is the position
    in Branch.points of the last point before (or at) the event."""

    kind: str
    point_index: int
    degenerate_point: "DegeneratePoint | None" = None


@dataclass(frozen=True)
class Branch:
    """An ordered run of solution points along one continuation trace.

    t_proj[i] is the chart coordinate of points[i]: the L2 projection of u
    onto the first ('phi') or second ('psi') Laplacian eigenfunction, divided
    by that eigenfunction's square integral. arclengths are cumulative
    product-norm distances along the trace. steps counts the arclength steps
    of the continue_branch traces the branch was cut or stitched from (all
    zero for branches built otherwise); it is not part of any output file.
    """

    points: tuple[SolutionPoint, ...]
    arclengths: tuple[float, ...]
    chart: str
    t_proj: tuple[float, ...]
    events: tuple[BranchEvent, ...] = ()
    tag: str = ""
    steps: StepCounts = StepCounts()

    def __post_init__(self):
        if self.chart not in ("phi", "psi"):
            raise ValueError(f"unknown chart {self.chart!r}")
        if not (
            len(self.points) == len(self.arclengths) == len(self.t_proj)
        ):
            raise ValueError("points, arclengths and t_proj must align")

    def c_values(self) -> np.ndarray:
        return np.array([p.c for p in self.points])

    def a_values(self) -> np.ndarray:
        return np.array([p.a for p in self.points])

    def t_values(self) -> np.ndarray:
        return np.array(self.t_proj)

    def morse_indices(self) -> np.ndarray:
        return np.array([p.morse_index for p in self.points])

    def fold_points(self) -> tuple["DegeneratePoint", ...]:
        return tuple(
            e.degenerate_point
            for e in self.events
            if e.kind == "fold" and e.degenerate_point is not None
        )

    def with_tag(self, tag: str) -> "Branch":
        return replace(self, tag=tag)


@dataclass(frozen=True)
class DegeneratePoint:
    """A state whose linearization has a one-dimensional kernel, with the
    kernel vector attached.

    kind 'fold-index0' means the first eigenvalue vanished (the turn between
    a stable state and an index-1 state); 'degenerate-index1' means the
    second did. residual_sup is the converged extended-precision sup norm
    over the state equation and the kernel equation.
    """

    a: float
    c: float
    u: DiscreteField
    w: DiscreteField
    morse_index_at_point: int
    kind: str
    residual_sup: float


@dataclass(frozen=True)
class DegenerateCurve:
    """Degenerate points swept by one scalar parameter (growth rate for fold
    sweeps, chart coordinate for the index-1 family). slope_check holds, for
    each interior point of a fold sweep, the relative mismatch between the
    secant slope dc/da and the identity int(u w)/int(h w)."""

    points: tuple[DegeneratePoint, ...]
    parameter: tuple[float, ...]
    kind: str
    slope_check: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.points) != len(self.parameter):
            raise ValueError("points and parameter must align")

    def a_values(self) -> np.ndarray:
        return np.array([p.a for p in self.points])

    def c_values(self) -> np.ndarray:
        return np.array([p.c for p in self.points])


@dataclass(frozen=True)
class DegenerateSegment:
    """The exact line of degenerate index-1 states at the second eigenvalue.

    With a at the second eigenvalue and c = 0, every multiple t*psi with t in
    [-M/beta, M] (beta the magnitude of the negative extreme of psi) keeps
    the ramp inactive and solves the steady equation exactly; the whole line
    is degenerate because psi itself spans the kernel. verified_residual is
    the worst extended-precision residual found when the construction checked
    this on a sample of t values.
    """

    a: float
    t_min: float
    t_max: float
    psi: DiscreteField
    verified_residual: float

    def state_at(self, t: float) -> DiscreteField:
        if not self.t_min <= t <= self.t_max:
            raise ValueError(f"t={t} outside [{self.t_min}, {self.t_max}]")
        return DiscreteField(self.psi.domain, t * self.psi.values)


def _chart_pair(problem: Problem, chart: str):
    phi, psi = problem.modes()
    if chart == "phi":
        return phi
    if chart == "psi":
        return psi
    raise ValueError(f"unknown chart {chart!r}; expected 'phi' or 'psi'")


def _linearized_apply(problem: Problem, u: np.ndarray, w: np.ndarray, a) -> np.ndarray:
    """(Delta_h + a - f'(u)) w in the dtype of the inputs, with the Laplacian
    as nested first differences so neighbor cancellation stays exact."""
    w = np.asarray(w)
    one = w.dtype.type
    fp = ramp_slope(problem.nonlinearity, u)
    return problem._nested_laplacian(w) + (one(a) - fp.astype(w.dtype)) * w


def solve_at_projection(
    problem: Problem,
    a: float,
    e,
    t_target: float,
    u0: np.ndarray,
    c0: float,
) -> SolutionPoint:
    """Steady state with c free, pinned by the chart constraint
    <u, e>/<e, e> = t_target.

    Regular across folds whose kernel has a nonzero e-component, which makes
    it the right probe close to degenerate points where fixed-c Newton
    becomes singular.
    """
    dom = problem.domain
    e_vals = e.values if isinstance(e, DiscreteField) else np.asarray(e, dtype=float)
    e_sq = dom.inner(e_vals, e_vals)
    if e_sq == 0.0:
        raise ValueError("chart field is identically zero")
    row = (1.0, dom.spacing * e_vals / e_sq, 0.0, -float(t_target))
    _, u, c, _, rF = _extended_newton(problem, a, u0, c0, PROJECTION_MAX_ITER, row=row)
    return classify_state(
        problem, DiscreteField(problem.domain, u.astype(float)), a, float(c), rnorm=rF,
    )


def _arclength_corrector(problem, a, ub, cb, Tu, Tc, ds, max_iter):
    """One pseudo-arclength corrector: the state on the hyperplane through
    the predictor (ub, cb) + ds (Tu, Tc), orthogonal to (Tu, Tc) in the L2
    inner product plus c times c. A corrector whose residual grows is given
    up at once. Returns the long-double (u, c) and the residual sup norm."""
    row_u = problem.domain.spacing * Tu
    u_pred = ub + ds * Tu
    c_pred = cb + ds * Tc
    row = (1.0, row_u, Tc, -(row_u @ u_pred + Tc * c_pred))
    _, u, c, _, rF = _extended_newton(
        problem, a, u_pred, c_pred, max_iter, row=row, stop_on_growth=True
    )
    return u, c, rF


def continue_branch(
    problem: Problem,
    start: SolutionPoint,
    direction: int,
    c_limits,
    *,
    chart: str = "phi",
    step0: float = 0.02,
    max_step: float | None = None,
    max_corrector: int = 8,
    stop_at_events: bool = True,
    max_points: int = 4000,
) -> Branch:
    """Trace the solution family through start by pseudo-arclength steps.

    The predictor extrapolates along the secant through the last two points
    (for the first step, along the c-derivative of the state), and the
    corrector is a bordered Newton solve on the hyperplane through the
    predictor orthogonal to that direction. direction is the initial sign
    of dc.

    The step follows the branch geometry (Allgower & Georg 1990, ch. 6).
    After each accepted step the curvature kappa is estimated from the turn
    between successive unit secants in the product norm, and the next step
    is sqrt(8 CHORD_TOL / kappa), the length whose chord deviates CHORD_TOL
    from a circle of that curvature, kept within [ds/2, 2 ds] of the step
    just taken and at most max_step when a ceiling is given. A step is
    redone at half length when the corrector fails or collapses onto the
    base point, when its own chord deviation kappa dist^2 / 8 exceeds
    2 CHORD_TOL, or when the corrector lands more than JUMP_FACTOR times the
    expected distance from the predictor (a jump to another sheet). The
    returned branch counts its accepted and rejected steps (Branch.steps).

    Tracing stops at the c window boundary (solved at the boundary value
    exactly, event 'endpoint'), or at the first eigenvalue sign change, where
    the bracketing pair is collapsed by refine_fold and recorded as a 'fold'
    event; set stop_at_events=False to record events and keep going. Morse
    index changes along the returned branch happen only across recorded
    events. Raises StepUnderflow, carrying the partial branch, if the step
    drops below MIN_ARCLENGTH_STEP; its message names the last accepted c,
    t and step and the step counts.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if start.degenerate:
        raise ValueError("continuation must start from a nondegenerate point")
    if start.state.problem is not problem:
        raise ValueError("start point belongs to a different problem")
    c_lo, c_hi = sorted(map(float, c_limits))
    if not c_lo <= start.c <= c_hi:
        raise ValueError("start lies outside the c window")
    ceiling = math.inf if max_step is None else float(max_step)

    dom = problem.domain
    pair = _chart_pair(problem, chart)
    e_vals = pair.eigenfunction.values
    e_sq = dom.inner(e_vals, e_vals)
    a = start.a

    points = [start]
    svals = [0.0]
    tvals = [dom.inner(e_vals, start.u.values) / e_sq]
    events: list[BranchEvent] = []
    counts = dict.fromkeys((f.name for f in fields(StepCounts)), 0)

    fac = _checked_factor(problem, problem.jacobian_operator(start.u.values, a))
    u_c = fac.solve(problem.harvest.values)
    scale = dom.l2_norm(u_c) + 1.0
    Tu = direction * u_c / scale
    Tc = direction / scale

    def partial() -> Branch:
        return Branch(
            tuple(points), tuple(svals), chart, tuple(tvals), tuple(events),
            steps=StepCounts(**counts),
        )

    ds = min(float(step0), ceiling)
    last_ds = None  # the step of the last accepted point
    kappa = 0.0  # curvature from the last secant turn
    d_prev = 0.0  # length of the last chord; 0 while (Tu, Tc) is the start tangent

    def reject(cause, why):
        nonlocal ds
        counts[cause] += 1
        ds *= 0.5
        if ds < MIN_ARCLENGTH_STEP:
            step = "none" if last_ds is None else f"{last_ds:.6g}"
            raise StepUnderflow(
                f"step underflow: {why} (last accepted point {len(points) - 1}: "
                f"c={points[-1].c:.10g}, t={tvals[-1]:.10g}, ds={step}; "
                f"steps {StepCounts(**counts)})",
                partial(),
            )

    while len(points) < max_points:
        base = points[-1]
        ub = base.u.values
        cb = base.c

        c_pred = cb + ds * Tc
        if not c_lo <= c_pred <= c_hi:
            target = c_hi if c_pred > c_hi else c_lo
            frac = (target - cb) / (ds * Tc)
            init = DiscreteField(dom, ub + frac * ds * Tu)
            try:
                end_pt = newton_solve(problem, init, a, target)
            except (NonConvergence, SingularJacobian):
                reject("boundary", f"no solution found at the c={target} boundary")
                continue
            dist = dom.l2_norm(end_pt.u.values - ub) + abs(end_pt.c - cb)
            points.append(end_pt)
            svals.append(svals[-1] + dist)
            tvals.append(dom.inner(e_vals, end_pt.u.values) / e_sq)
            events.append(BranchEvent("endpoint", len(points) - 1))
            counts["accepted"] += 1
            break

        try:
            u_ld, c_ld, rF = _arclength_corrector(
                problem, a, ub, cb, Tu, Tc, ds, max_corrector
            )
        except NonConvergence:
            reject("nonconvergence", f"the corrector did not converge near c={cb:.6g}")
            continue

        u64 = u_ld.astype(float)
        c64 = float(c_ld)
        dist = dom.l2_norm(u64 - ub) + abs(c64 - cb)
        if dist < 1e-13:
            reject("collapse", f"the corrector collapsed onto the point at c={cb:.6g}")
            continue
        off = dom.l2_norm(u64 - (ub + ds * Tu)) + abs(c64 - c_pred)
        expected = max(0.5 * kappa * ds * (ds + d_prev), CHORD_TOL)
        if off > JUMP_FACTOR * expected:
            reject("jump", f"the corrector left the branch near c={cb:.6g}")
            continue
        Tu_new = (u64 - ub) / dist
        Tc_new = (c64 - cb) / dist
        turn = dom.l2_norm(Tu_new - Tu) + abs(Tc_new - Tc)
        kappa_new = 2.0 * turn / (d_prev + dist)
        if kappa_new * dist**2 / 8.0 > 2.0 * CHORD_TOL:
            reject("chord", f"the branch bends too sharply near c={cb:.6g}")
            continue

        new = classify_state(
            problem, DiscreteField(dom, u64), a, c64, rnorm=rF, prev=base.spectrum,
        )
        points.append(new)
        svals.append(svals[-1] + dist)
        tvals.append(dom.inner(e_vals, u64) / e_sq)
        counts["accepted"] += 1
        Tu, Tc, kappa, d_prev, last_ds = Tu_new, Tc_new, kappa_new, dist, ds

        event = _detect_event(problem, base, new)
        if event is not None:
            kind, dp = event
            events.append(BranchEvent(kind, len(points) - 2, dp))
            if stop_at_events:
                break
        proposal = math.sqrt(8.0 * CHORD_TOL / kappa) if kappa > 0 else math.inf
        ds = min(max(proposal, 0.5 * ds), 2.0 * ds, ceiling)

    return partial()


def _flips(prev, new) -> bool:
    mu_p = np.asarray(prev.spectrum.eigenvalues)
    mu_n = np.asarray(new.spectrum.eigenvalues)
    m = min(mu_p.size, mu_n.size)
    return bool(np.any(mu_p[:m] * mu_n[:m] < 0))


def _detect_event(problem, prev, new):
    """The event between neighbouring branch points, as (kind, refined point
    or None), or None.

    A landing within the degeneracy tolerance is a fold when the eigenvalue
    changes sign one step further on: the pair (prev, the state one chord
    past new along the chord) then brackets the fold. At a ray or segment
    edge the eigenvalue stays at zero past the landing, and the event is
    'degeneracy'.
    """
    if new.degenerate:
        dist = problem.domain.l2_norm(new.u.values - prev.u.values) + abs(new.c - prev.c)
        try:
            u_ld, c_ld, rF = _arclength_corrector(
                problem, new.a, new.u.values, new.c,
                (new.u.values - prev.u.values) / dist, (new.c - prev.c) / dist,
                dist, 8,
            )
        except NonConvergence:
            return ("degeneracy", None)
        past = classify_state(
            problem, DiscreteField(problem.domain, u_ld.astype(float)), new.a,
            float(c_ld), rnorm=rF, prev=new.spectrum,
        )
        if past.degenerate or not _flips(prev, past):
            return ("degeneracy", None)
        try:
            return ("fold", refine_fold(problem, prev, past))
        except NonConvergence:
            return ("degeneracy", None)
    if _flips(prev, new):
        try:
            return ("fold", refine_fold(problem, prev, new))
        except NonConvergence:
            return ("index-change", None)
    if new.morse_index != prev.morse_index:
        return ("index-change", None)
    return None


def _test_function(problem, u, a, w0):
    """The minimally extended system's test function at (u, a).

    Solves [[J, w0], [w0^T, 0]] [v; g] = [0; 1] with J = J(u) symmetric, so
    g vanishes exactly where J is singular and v then spans its kernel. The
    float64 solve is refined once against the long-double J(u), which is
    what lets v meet the kernel residual bound. Returns the float64 J and
    its factorization (both shared with the Newton step), v and g in long
    double.
    """
    ld = np.longdouble
    J = problem.jacobian_operator(u.astype(float), float(a))
    fac = J.factor()
    w0_ld = np.asarray(w0, dtype=ld)
    try:
        v, g = solve_bordered(J, w0, w0, 0.0, np.zeros(u.size), 1.0, fac)
        v, g = v.astype(ld), ld(g[0])
        rv = _linearized_apply(problem, u, v, a) + g * w0_ld
        rg = w0_ld @ v - ld(1)
        dv, dg = solve_bordered(J, w0, w0, 0.0, -rv.astype(float), -float(rg), fac)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(
            f"test-function system is singular: {exc}", u.astype(float), np.inf
        )
    return J, fac, v + dv.astype(ld), g + ld(dg[0])


def _kernel_residual(problem, u, a, v, S):
    """Sup norm of J(u) w in long double, w = v scaled to square integral S
    (the bound _package_degenerate re-verifies)."""
    w = v * np.sqrt(np.longdouble(S) / (np.longdouble(problem.domain.spacing) * (v @ v)))
    return float(np.max(np.abs(_linearized_apply(problem, u, w, a))))


def _extended_newton(
    problem, a, u0, c0, max_iter, *, row=None, w0=None, S=None, stop_on_growth=False
):
    """Newton on an extended system (Govaerts 2000, ch. 3): the state
    equation F(u, a, c) = 0 with c free, plus the affine row
    N(u, c) = scale (e . u) + row_c c + offset = 0, given as
    row = (scale, e, row_c, offset), or the test function g(u, a) = 0 of
    _test_function bordered by w0, or both, in which case a is free too.

    Each step is one solve_bordered on J(u), which reuses the factorization
    of J(u) that _test_function made, with the columns dF/da = u (a
    free only) and dF/dc = -h and the rows scale e and g_u = f''(u) v^2
    (J is symmetric and bordered by w0 on both sides), and g_a = -v.v (J
    depends on a through its diagonal). The iterate converges when sup|F|,
    |N| and the kernel residual of v scaled to square integral S
    (_kernel_residual) are all below NEWTON_TOL. The borders keep the step
    regular where J alone is singular, provided they do not annihilate its
    kernel. Returns the long-double (a, u, c), the kernel vector v (None
    without w0) and sup|F|. With stop_on_growth, an iteration whose sup|F|
    grows ends the solve as not converged: the iteration is not contracting
    (Den Heijer & Rheinboldt 1981). A singular step or no convergence raises
    NonConvergence naming the system, with the last float64 iterate.
    """
    ld = np.longdouble
    a_free = row is not None and w0 is not None
    system = (
        "degenerate-family system" if a_free
        else "bordered system" if w0 is None
        else "fold system"
    )
    u = np.asarray(u0, dtype=ld)
    c = ld(c0)
    minus_h = -problem.harvest.values
    if row is not None:
        scale, e, row_c, offset = row
        e_ld = np.asarray(e, dtype=ld)
        row_b = scale * e
    v = None
    rF = res = np.inf
    for _ in range(max_iter):
        F = problem.residual_values(u, a, c)
        r_prev, rF = rF, float(np.max(np.abs(F)))
        checks = [rF]
        if row is not None:
            N = ld(scale) * (e_ld @ u) + ld(row_c) * c + ld(offset)
            checks.append(abs(float(N)))
        if w0 is not None:
            J, fac, v, g = _test_function(problem, u, a, w0)
            checks.append(_kernel_residual(problem, u, a, v, S))
        res = max(checks)  # sup|F| first, so a NaN state gives a NaN res
        if res < NEWTON_TOL:
            return ld(a), u, c, v, rF
        if not np.isfinite(res) or res > 1e8 or (stop_on_growth and rF > r_prev):
            break
        u64 = u.astype(float)
        if w0 is None:
            J, fac = problem.jacobian_operator(u64, float(a)), None
        else:
            v64 = v.astype(float)
            g_u = ramp_curvature(problem.nonlinearity, u64) * v64**2
        if a_free:
            B, C = np.column_stack((u64, minus_h)), np.column_stack((row_b, g_u))
            D, rhs = [[0.0, row_c], [-(v64 @ v64), 0.0]], [-float(N), -float(g)]
        elif w0 is None:
            B, C, D, rhs = minus_h, row_b, row_c, -float(N)
        else:
            B, C, D, rhs = minus_h, g_u, 0.0, -float(g)
        try:
            du, y = solve_bordered(J, B, C, D, -F.astype(float), rhs, fac)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"{system} is singular: {exc}", u64, res)
        if not (np.isfinite(du).all() and np.isfinite(y).all()):
            break
        if a_free:
            a = a + ld(y[0])
        u = u + du.astype(ld)
        c = c + ld(y[-1])
    raise NonConvergence(f"{system} did not converge", u.astype(float), res)


def _package_degenerate(problem, a, u_ld, c_ld, w_ld, expected_kind):
    """Classify a converged extended-system iterate, fix the kernel vector's
    normalization and sign by kind, and re-verify the residual invariants."""
    ld = np.longdouble
    dom = problem.domain
    sp = ld(dom.spacing)
    phi, psi = problem.modes()

    point = classify_state(
        problem, DiscreteField(dom, u_ld.astype(float)), a, float(c_ld), rnorm=0.0,
    )
    if not point.degenerate:
        raise NonConvergence(
            "extended system converged onto a nondegenerate state",
            u_ld.astype(float),
            0.0,
        )
    mu = np.abs(np.asarray(point.spectrum.eigenvalues))
    j = int(np.argmin(mu))
    if j == 0:
        kind = "fold-index0"
        target = inner_product(phi.eigenfunction, phi.eigenfunction)
    elif j == 1:
        kind = "degenerate-index1"
        target = inner_product(psi.eigenfunction, psi.eigenfunction)
    else:
        kind = f"degenerate-index{j}"
        target = inner_product(phi.eigenfunction, phi.eigenfunction)

    w = w_ld * np.sqrt(ld(target) / (sp * (w_ld @ w_ld)))
    if kind == "fold-index0":
        if w[np.argmax(np.abs(w))] < 0:
            w = -w
    else:
        ref = psi.eigenfunction.values if j == 1 else phi.eigenfunction.values
        if float(np.dot(ref, w.astype(float))) < 0:
            w = -w

    F = problem.residual_values(u_ld, a, c_ld)
    G = _linearized_apply(problem, u_ld, w, a)
    res = max(float(np.max(np.abs(F))), float(np.max(np.abs(G))))
    if not res < NEWTON_TOL:
        raise NonConvergence(
            f"degenerate point failed re-verification ({res:.3e})",
            u_ld.astype(float),
            res,
        )
    dp = DegeneratePoint(
        float(a),
        float(c_ld),
        DiscreteField(dom, u_ld.astype(float)),
        DiscreteField(dom, w.astype(float)),
        point.morse_index,
        kind,
        res,
    )
    if expected_kind is not None and kind != expected_kind:
        raise WrongKind(expected_kind, dp)
    return dp


def refine_fold(
    problem: Problem,
    low: SolutionPoint,
    high: SolutionPoint,
    *,
    expected_kind: str | None = None,
) -> DegeneratePoint:
    """Collapse a bracketing pair onto the degenerate point between them.

    The endpoints must share a growth rate and straddle a sign change of some
    linearization eigenvalue. Solves the minimally extended system
    {F(u, c) = 0, g(u) = 0} for (u, c) (Griewank & Reddien 1984), seeded at
    the eigenvalue-weighted interpolation of the bracket; g is bordered by
    the eigenfunction of the endpoint closer to the crossing, and its
    bordered solve also yields the kernel vector. The returned kind
    reflects which eigenvalue actually vanished; pass expected_kind to get a
    WrongKind error (carrying the point) when a different one does.
    """
    if low.a != high.a:
        raise ValueError("bracket endpoints have different growth rates")
    a = low.a
    mu_l = np.asarray(low.spectrum.eigenvalues)
    mu_h = np.asarray(high.spectrum.eigenvalues)
    flips = [
        j for j in range(min(mu_l.size, mu_h.size)) if mu_l[j] * mu_h[j] < 0
    ]
    if not flips:
        raise ValueError("bracket does not straddle an eigenvalue sign change")
    j = flips[0]
    wl, wh = abs(mu_l[j]), abs(mu_h[j])
    frac = wl / (wl + wh) if wl + wh > 0 else 0.5
    u0 = (1.0 - frac) * low.u.values + frac * high.u.values
    c0 = (1.0 - frac) * low.c + frac * high.c
    donor = low if wl <= wh else high
    w0 = donor.spectrum.eigenfunctions[j].values

    dom = problem.domain
    phi = problem.modes()[0]
    S = inner_product(phi.eigenfunction, phi.eigenfunction)
    w0 = w0 * np.sqrt(S / dom.inner(w0, w0))
    _, u_ld, c_ld, w_ld, _ = _extended_newton(problem, a, u0, c0, FOLD_MAX_ITER, w0=w0, S=S)
    return _package_degenerate(problem, a, u_ld, c_ld, w_ld, expected_kind)


def fold_normal_form_checks(problem: Problem, dp: DegeneratePoint) -> dict:
    """Finite-difference cross-check of the quadratic normal form at a
    degenerate point.

    Probes the family at chart offsets +-NORMAL_FORM_OFFSET around the
    point, with the chart pinned by the kernel vector itself (so du/dt = w
    at the point), and returns FD and closed-form values for the eigenvalue
    slope and the c curvature:

        mu'(t*) = int f''(u) w^3 / int w^2
        c''(t*) = -int f''(u) w^3 / int h w

    The vanishing eigenvalue is the first for fold-index0 points and the
    second for index-1 points.
    """
    dom = problem.domain
    w = dp.w.values
    wsq = dom.inner(w, w)
    t_star = dom.inner(dp.u.values, w) / wsq
    j = 0 if dp.kind == "fold-index0" else 1
    offset = NORMAL_FORM_OFFSET
    plus = solve_at_projection(
        problem, dp.a, dp.w, t_star + offset, dp.u.values + offset * w, dp.c
    )
    minus = solve_at_projection(
        problem, dp.a, dp.w, t_star - offset, dp.u.values - offset * w, dp.c
    )
    mu_p = float(plus.spectrum.eigenvalues[j])
    mu_m = float(minus.spectrum.eigenvalues[j])
    fpp = ramp_curvature(problem.nonlinearity, dp.u.values)
    cubic = dom.inner(fpp * w * w, w)
    return {
        "mu_slope_fd": (mu_p - mu_m) / (2.0 * offset),
        "mu_slope_formula": cubic / wsq,
        "c_curvature_fd": (plus.c - 2.0 * dp.c + minus.c) / offset**2,
        "c_curvature_formula": -cubic / dom.inner(problem.harvest.values, w),
        "offset": offset,
    }


def _march(x0, x_stop, carry0, state0, solve, steps, what):
    """Natural-parameter continuation (Allgower & Georg 1990) of x from x0
    to exactly x_stop, yielding (x, result) for each accepted step.

    solve(x, guess) returns (result, carry), the state in result.u. The
    guess predicts every carry component by the secant q + r (q - p)
    through the last two accepted carries; the first step gets carry0 as
    given. steps is (first, smallest, largest step). A solve raising
    NonConvergence, SingularJacobian or WrongKind halves the step, and each
    accept grows it by STEP_GROWTH up to the largest. Below the smallest the
    march raises NonConvergence naming what, the stalled x, the last
    accepted x and the last failure; its last_iterate is the last accepted
    state (state0 before any accept).
    """
    x, carry, state = float(x0), carry0, state0
    x_prev = prev = None
    step, min_step, max_step = steps
    while abs(x_stop - x) > 1e-12:
        x_new = x + math.copysign(min(step, abs(x_stop - x)), x_stop - x)
        if prev is not None and x != x_prev:
            r = (x_new - x) / (x - x_prev)
            guess = tuple(q + r * (q - p) for q, p in zip(carry, prev))
        else:
            guess = carry
        try:
            result, new_carry = solve(x_new, guess)
        except (NonConvergence, SingularJacobian, WrongKind) as exc:
            step *= 0.5
            if step < min_step:
                raise NonConvergence(
                    f"{what} stalled near {x_new:.10g} (last accepted {x:.10g}): {exc}",
                    state,
                    np.nan,
                ) from exc
            continue
        yield x_new, result
        x_prev, x, prev, carry, state = x, x_new, carry, new_carry, result.u.values
        step = min(step * STEP_GROWTH, max_step)


def trace_fold_curve(
    problem: Problem, seed: DegeneratePoint, a_range
) -> DegenerateCurve:
    """Sweep a degenerate point across a window of growth rates.

    Natural-parameter marching (_march, FOLD_SWEEP_STEPS) up and down from
    the seed: at each new a the minimally extended fold system is re-solved
    from a secant predictor in a (the predicted kernel vector borders its
    test function), and both window edges are hit exactly. Each interior
    point gets the identity check dc/da = int(u w)/int(h w) against the
    secant slope, recorded in slope_check as relative mismatches.
    """
    a_lo, a_hi = map(float, a_range)
    if not a_lo < a_hi:
        raise ValueError("empty growth-rate window")
    lam1 = problem.modes()[0].eigenvalue
    if a_lo <= lam1:
        raise ValueError("window must lie above the first eigenvalue")
    if not a_lo <= seed.a <= a_hi:
        raise ValueError("seed growth rate outside the window")
    dom = problem.domain
    S = dom.inner(seed.w.values, seed.w.values)

    def solve_at(a, guess):
        u0, c0, w0 = guess
        _, u_ld, c_ld, w_ld, _ = _extended_newton(problem, a, u0, c0, 16, w0=w0, S=S)
        dp = _package_degenerate(problem, a, u_ld, c_ld, w_ld, seed.kind)
        return dp, (dp.u.values, dp.c, dp.w.values)

    start = (seed.u.values, seed.c, seed.w.values)
    up, down = (
        [dp for _, dp in _march(
            seed.a, a_stop, start, seed.u.values, solve_at,
            FOLD_SWEEP_STEPS, "fold sweep in a",
        )]
        for a_stop in (a_hi, a_lo)
    )
    pts = down[::-1] + [seed] + up
    params = tuple(p.a for p in pts)

    # Identity check dc/da = int(u w)/int(h w) at every point, against a
    # centered secant from two nearby extended solves. The probe spacing is
    # kept small so the secant resolves the curve even where it bends hard.
    checks = []
    min_step = FOLD_SWEEP_STEPS[1]
    probe = max(min_step, 1e-2 * min(np.diff(params).min(), 1.0)) if len(pts) > 1 else min_step
    for p in pts:
        w = p.w.values
        formula = dom.inner(p.u.values, w) / dom.inner(problem.harvest.values, w)
        try:
            sides = []
            for sign in (-1.0, 1.0):
                _, _, c_ld, _, _ = _extended_newton(
                    problem, p.a + sign * probe, p.u.values, p.c, 16, w0=w, S=S
                )
                sides.append(float(c_ld))
            secant = (sides[1] - sides[0]) / (2.0 * probe)
        except NonConvergence:
            continue
        checks.append(abs(secant - formula) / max(abs(formula), 1e-12))
    return DegenerateCurve(tuple(pts), params, seed.kind, tuple(checks))


def trace_index1_degenerate_curve(
    problem: Problem,
    t_range=None,
    *,
    sigma: float = 1.0,
) -> DegenerateCurve:
    """The index-1 degenerate family parametrized by the second-eigenfunction
    projection t, swept across and beyond the exact segment.

    Inside [-M/beta, M] the family is the exact line (a at the second
    eigenvalue, u = t psi, c = 0, kernel psi) and each sample, spaced by the
    first step of INDEX1_SWEEP_STEPS, is solved directly from that seed.
    Outside, the minimally extended system (unknowns u, a, c; equations
    F = 0, the chart row and the test function g = 0) is marched outward
    from both segment ends (_march, INDEX1_SWEEP_STEPS), predicting
    the offset u - t psi, a, c and the bordering kernel vector by secants.
    When t_range is omitted it extends sigma beyond the segment on both
    sides; an explicit range must cover the segment.
    """
    dom = problem.domain
    M = problem.nonlinearity.M
    phi, psi = problem.modes()
    psi_v = psi.eigenfunction.values
    beta = -float(np.min(psi_v))
    if beta <= 0:
        raise ValueError("second eigenfunction has no negative part")
    seg_lo, seg_hi = -M / beta, M
    if t_range is None:
        t_range = (seg_lo - sigma, seg_hi + sigma)
    t_lo, t_hi = map(float, t_range)
    if t_lo > seg_lo or t_hi < seg_hi:
        raise ValueError("t window must cover the degenerate segment")
    S2 = dom.inner(psi_v, psi_v)
    lam2 = psi.eigenvalue
    n = dom.n_interior

    psi_ld = psi_v.astype(np.longdouble)

    def solve_at(t, guess):
        a0, y0, c0, z0 = guess
        t_psi = np.longdouble(t) * psi_ld
        row = (dom.spacing, psi_v, 0.0, -np.longdouble(t) * np.longdouble(S2))
        aa, u_ld, cc, v, _ = _extended_newton(
            problem, a0, t_psi + y0, c0, 16, row=row, w0=z0, S=S2
        )
        dp = _package_degenerate(problem, float(aa), u_ld, cc, v, "degenerate-index1")
        return dp, (float(aa), (u_ld - t_psi).astype(float), float(cc), dp.w.values)

    dt0 = INDEX1_SWEEP_STEPS[0]
    inside_ts = np.linspace(seg_lo, seg_hi, max(2, int(round((seg_hi - seg_lo) / dt0)) + 1))
    if seg_hi == seg_lo:
        inside_ts = np.array([seg_lo])
    on_line = (lam2, np.zeros(n), 0.0, psi_v)
    samples = [(float(t), solve_at(float(t), on_line)[0]) for t in inside_ts]
    for (t_edge, edge), t_stop in ((samples[-1], t_hi), (samples[0], t_lo)):
        samples += _march(
            t_edge, t_stop, on_line, edge.u.values, solve_at,
            INDEX1_SWEEP_STEPS, "index-1 family in t",
        )
    samples.sort(key=lambda pair: pair[0])
    ts = tuple(t for t, _ in samples)
    pts = tuple(dp for _, dp in samples)
    return DegenerateCurve(pts, ts, "degenerate-index1")


def delta_window(problem: Problem, curve: DegenerateCurve) -> float:
    """Growth-rate elevation of a traced index-1 degenerate family above the
    second eigenvalue, measured at its two ends and taking the smaller.

    This is the numerically certified half-width of the window above the
    second eigenvalue in which the four-solution structure is anchored.
    Raises if the curve fails to bend upward on both sides.
    """
    lam2 = problem.modes()[1].eigenvalue
    delta = min(curve.points[0].a, curve.points[-1].a) - lam2
    if delta <= 0:
        raise ValueError(
            f"curve does not rise above the second eigenvalue (delta={delta:.3e})"
        )
    return float(delta)


def _czero_seed(problem, a, e_vals, positive):
    """First point of a zero-harvest family at growth rate a: try the offset
    start (M + CZERO_SEED_OFFSET) e, then a geometric amplitude scan (the Newton basin of
    the eigenfunction start can collapse onto zero when M = 0)."""
    dom = problem.domain
    M = problem.nonlinearity.M
    K = critical_cap(problem.nonlinearity, a)
    amplitudes = [M + CZERO_SEED_OFFSET] + list(np.geomspace(0.05, 2.0 * max(K, 1.0), 10))
    for s in amplitudes:
        try:
            pt = newton_solve(problem, DiscreteField(dom, s * e_vals), a, 0.0)
        except (NonConvergence, SingularJacobian):
            continue
        if dom.l2_norm(pt.u.values) < 1e-6 or pt.degenerate:
            continue
        if dom.inner(pt.u.values, e_vals) <= 0:
            continue
        if positive and float(np.min(pt.u.values)) < -1e-8:
            continue
        return pt
    raise NonConvergence(
        f"no nonzero zero-harvest state found at a={a:.6g}", np.zeros(dom.n_interior), np.nan
    )


def continue_czero_branch(problem: Problem, which: str, a_range) -> Branch:
    """Zero-harvest solution family swept in the growth rate.

    which='dagger' follows the positive family above the first eigenvalue in
    the phi chart; which='ddagger' follows the sign-changing family above the
    second in the psi chart (the side with positive chart coordinate). The
    window must start strictly above the relevant eigenvalue. Points carry
    c = 0 and their own growth rates; arclengths accumulate
    ||du||_L2 + |da|. The sweep marches with CZERO_SWEEP_STEPS (_march).
    """
    phi, psi = problem.modes()
    if which == "dagger":
        pair, chart, positive = phi, "phi", True
    elif which == "ddagger":
        pair, chart, positive = psi, "psi", False
    else:
        raise ValueError(f"unknown family {which!r}; expected 'dagger' or 'ddagger'")
    lam = pair.eigenvalue
    e_vals = pair.eigenfunction.values
    a_lo, a_hi = map(float, a_range)
    if not a_lo < a_hi:
        raise ValueError("empty growth-rate window")
    if a_lo <= lam + 1e-6:
        raise ValueError("window must start strictly above the bifurcation eigenvalue")

    dom = problem.domain
    e_sq = dom.inner(e_vals, e_vals)
    seed = _czero_seed(problem, a_lo, e_vals, positive)

    points = [seed]
    svals = [0.0]
    tvals = [dom.inner(e_vals, seed.u.values) / e_sq]
    events: list[BranchEvent] = []

    def partial() -> Branch:
        return Branch(tuple(points), tuple(svals), chart, tuple(tvals), tuple(events))

    def solve_at(a, guess):
        pt = newton_solve(problem, DiscreteField(dom, guess[0]), a, 0.0)
        if dom.l2_norm(pt.u.values) < 1e-6:
            raise NonConvergence(
                "collapsed onto the zero state", pt.u.values, pt.residual_norm
            )
        return pt, (pt.u.values,)

    try:
        for a, pt in _march(
            a_lo, a_hi, (seed.u.values,), seed.u.values, solve_at,
            CZERO_SWEEP_STEPS, "zero-harvest sweep in a",
        ):
            base = points[-1]
            dist = dom.l2_norm(pt.u.values - base.u.values) + abs(a - base.a)
            points.append(pt)
            svals.append(svals[-1] + dist)
            tvals.append(dom.inner(e_vals, pt.u.values) / e_sq)
            if pt.degenerate:
                events.append(BranchEvent("degeneracy", len(points) - 1))
                break
        else:
            events.append(BranchEvent("endpoint", len(points) - 1))
    except NonConvergence as exc:
        raise StepUnderflow(str(exc), partial()) from exc
    return partial()


def branch_derivative_at_zero(problem: Problem, a: float, chart: str = "phi"):
    """Slope and direction of the small-amplitude harvested branch through
    the zero state.

    Returns (dc_dt, v): the chart-coordinate slope

        dc/dt = (int e^2 / int h e) (a - lambda_e)

    with e the max-normalized chart eigenfunction, and the first-order
    response field v solving (Delta + a) v = h, assembled as the exact
    eigencomponent int(h e_hat)/(a - lambda_e) plus the shifted-Laplacian
    solve on the deflated remainder (e_hat the unit-L2 eigenfunction). In the
    linear regime the steady state is c v to leading order. Raises ValueError
    within 1e-6 of the chart eigenvalue.
    """
    pair = _chart_pair(problem, chart)
    lam = pair.eigenvalue
    if abs(a - lam) < 1e-6:
        raise ValueError(
            f"growth rate {a:.8g} too close to the chart eigenvalue {lam:.8g}"
        )
    e_f = pair.eigenfunction
    e_sq = inner_product(e_f, e_f)
    he = inner_product(problem.harvest, e_f)
    if abs(he) < 1e-12:
        raise ValueError("harvest has no component on the chart mode")
    dc_dt = e_sq / he * (a - lam)

    ehat = renormalize_l2(e_f)
    h_coeff = inner_product(problem.harvest, ehat)
    rhs = problem.harvest.values - h_coeff * ehat.values
    v = h_coeff / (a - lam) * ehat.values + problem.laplacian.shifted(a).factor().solve(rhs)
    return float(dc_dt), DiscreteField(problem.domain, v)


def build_degenerate_segment(problem: Problem) -> DegenerateSegment:
    """Construct and verify the analytic degenerate segment at the second
    eigenvalue.

    The states t*psi for t in [-M/beta, M] keep the ramp inactive, so with
    the exact long-double sine samples of psi and the closed-form discrete
    eigenvalue they satisfy the steady equation to rounding. Verification
    evaluates the long-double residual at SEGMENT_CHECKS values of t and
    requires the worst case below SEGMENT_TOL, raising NonConvergence with the worst state
    otherwise; the returned segment stores the float64 eigenfunction for
    downstream use.
    """
    ld = np.longdouble
    dom = problem.domain
    nl = problem.nonlinearity
    psi_pair = problem.modes()[1]
    psi64 = psi_pair.eigenfunction
    beta = -float(np.min(psi64.values))
    if beta <= 0:
        raise ValueError("second eigenfunction has no negative part")
    t_lo, t_hi = -nl.M / beta, nl.M

    lam2_ld, psi_ld = exact_mode_longdouble(dom, 2)
    if float(np.dot(psi_ld.astype(float), psi64.values)) < 0:
        psi_ld = -psi_ld

    ts = np.linspace(t_lo, t_hi, SEGMENT_CHECKS) if t_hi > t_lo else np.array([t_lo])
    states = [ld(t) * psi_ld for t in ts]
    sups = [
        float(np.max(np.abs(problem.residual_values(u, lam2_ld, ld(0)))))
        for u in states
    ]
    k = int(np.argmax(sups))
    worst = sups[k]
    if not worst < SEGMENT_TOL:
        raise NonConvergence(
            f"segment states fail extended-precision verification "
            f"({worst:.3e} >= {SEGMENT_TOL:.3e})",
            states[k].astype(float),
            worst,
        )
    return DegenerateSegment(
        float(psi_pair.eigenvalue), float(t_lo), float(t_hi), psi64, worst
    )
