"""Pseudo-arclength continuation in the harvest amplitude, minimally extended
systems for degenerate states, and the curves those states sweep when the
growth rate or a projection coordinate varies.

Conventions shared by everything in this module:

- The continuation state is the pair (u, c) at fixed growth rate a, and
  distances between states use the product norm ||du||_L2 + |dc| (plus
  |da| along the zero-harvest sweep, where a varies). A Branch stores only
  its points and derives its chart coordinates and arclengths from them.
- Iterates climb newton_solve's precision ladder (solver.Ladder): a
  float64 vector of moderate amplitude cannot represent a steady state
  below a ~1e-10 sup-norm defect at this stencil scale, so an iterate is a
  float64 field above solver.FLOAT64_PHASE_TOL and a float64 Pair
  hi + lo from there on, while every correction comes from a float64
  solve (_extended_newton). The reported residuals are those of the Pair
  and the stored fields its hi.
- Every extended system is solved by one Newton loop (_extended_newton):
  the state equation with c free, bordered by an affine row (the arclength
  corrector and the chart projection), by the test function g below (the
  fold system), or by both with a free too (the index-1 family). Each step
  is one bordered tridiagonal solve (grid.solve_bordered) on the symmetric
  Jacobian J: one border, or two for the index-1 family, unrefined (the
  next step corrects its error).
- Degenerate points are found from the minimally extended system (Griewank
  & Reddien 1984): the test function g(u, a) solves
  [[J, w0], [w0^T, 0]] [v; g] = [0; 1] for a fixed bordering vector w0 near
  the kernel, vanishes exactly where J is singular, and v is the kernel
  vector there. _fold_system alone solves this fold system at fixed a.
- closed_form_states alone builds and certifies the exact degenerate states:
  the ray t phi at lambda1 and the segment t psi at lambda2, at c = 0.
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

import itertools
import math
from dataclasses import astuple, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .grid import (
    DiscreteField,
    Pair,
    exact_mode,
    inner_product,
    pair_scale,
    renormalize_l2,
    solve_bordered,
    two_sum,
)
from .model import critical_cap, ramp_curvature, ramp_slope
from .solver import (
    FOLD_MAX_ITER,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    PROJECTION_MAX_ITER,
    Ladder,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    _checked_solve,
    _newton_rows,
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
#: Chart samples of the degenerate segment checked as Pairs, and the bound
#: their residual must stay below.
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
#: Newton iterations of one arclength corrector.
MAX_CORRECTOR = 8


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

    t_proj and arclengths are derived from the points, once per branch, on
    first use: t_proj[i] is the chart coordinate of points[i]
    (chart_coordinate: the L2 projection of u onto the first ('phi') or
    second ('psi') Laplacian eigenfunction, divided by that eigenfunction's
    square integral), and arclengths[i] the cumulative product-norm chord
    ||du||_L2 + |da| + |dc| from points[0]. steps counts the arclength
    steps of the continue_branch traces the branch was stitched from; of
    the pieces a trace is cut into, the first carries its counts and the
    others none, so a diagram's branches count each step once (all zero for
    branches built otherwise). It is not part of any output file.
    """

    points: tuple[SolutionPoint, ...]
    chart: str
    events: tuple[BranchEvent, ...] = ()
    tag: str = ""
    steps: StepCounts = StepCounts()

    def __post_init__(self):
        if self.chart not in ("phi", "psi"):
            raise ValueError(f"unknown chart {self.chart!r}")

    @cached_property
    def t_proj(self) -> tuple[float, ...]:
        return tuple(chart_coordinate(p.problem, self.chart, p.u.values) for p in self.points)

    @cached_property
    def arclengths(self) -> tuple[float, ...]:
        chords = (
            p.problem.domain.l2_norm(p.u.values - q.u.values) + abs(p.a - q.a) + abs(p.c - q.c)
            for q, p in zip(self.points, self.points[1:])
        )
        return tuple(itertools.accumulate(chords, initial=0.0)) if self.points else ()

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


def chart_coordinate(problem: Problem, chart: str, u: np.ndarray) -> float:
    """<u, e>/<e, e> for the state values u, e the first ('phi') or second
    ('psi') Laplacian eigenfunction."""
    e = _chart_pair(problem, chart).eigenfunction.values
    dom = problem.domain
    return dom.inner(e, u) / dom.inner(e, e)


def _linearized_apply(problem: Problem, u: np.ndarray, w, a: float) -> np.ndarray:
    """J(u) w = (Delta_h + a - f'(u)) w in float64 at the float64 u and a,
    with the Laplacian as nested first differences so neighbour
    cancellation stays exact. A Pair w is applied part by part, J w.hi +
    J w.lo, so the digits that w.hi's rounding drops count too. At a Pair
    state the caller passes the hi of the state and of a: J at the Pair
    differs by (a.lo - f''(hi) lo) w, below 1e-14 |w|, far under the
    NEWTON_TOL these products are held to."""
    d = a - ramp_slope(problem.nonlinearity, u)
    if isinstance(w, Pair):
        return (
            (problem._nested_laplacian(w.hi) + d * w.hi)
            + (problem._nested_laplacian(w.lo) + d * w.lo)
        )
    return problem._nested_laplacian(w) + d * w


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
    return classify_state(problem, DiscreteField(problem.domain, u.hi), a, float(c.hi), rnorm=rF)


def _arclength_corrector(problem, a, ub, cb, Tu, Tc, ds, max_iter):
    """One pseudo-arclength corrector: the state on the hyperplane through
    the predictor (ub, cb) + ds (Tu, Tc), orthogonal to (Tu, Tc) in the L2
    inner product plus c times c. A corrector whose residual grows is given
    up at once. The float64 predictor starts _extended_newton's float64
    stage. Returns the Pairs u and c and the Pair's residual sup norm; a
    NonConvergence that ends in the float64 stage carries a float64
    norm."""
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
    stop_at_events: bool = True,
    max_points: int = 4000,
) -> Branch:
    """Trace the solution family through start by pseudo-arclength steps.

    The predictor extrapolates along the secant through the last two points
    (for the first step, along the c-derivative of the state), and the
    corrector is a bordered Newton solve, at most MAX_CORRECTOR iterations,
    on the hyperplane through the predictor orthogonal to that direction.
    direction is the initial sign of dc.

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
    if start.problem is not problem:
        raise ValueError("start point belongs to a different problem")
    c_lo, c_hi = sorted(map(float, c_limits))
    if not c_lo <= start.c <= c_hi:
        raise ValueError("start lies outside the c window")
    _chart_pair(problem, chart)  # an unknown chart fails before tracing
    ceiling = math.inf if max_step is None else float(max_step)

    dom = problem.domain
    a = start.a

    points = [start]
    events: list[BranchEvent] = []
    counts = dict.fromkeys((f.name for f in fields(StepCounts)), 0)

    u_c = _checked_solve(
        problem, problem.jacobian_operator(start.u.values, a), problem.harvest.values
    )
    scale = dom.l2_norm(u_c) + 1.0
    Tu = direction * u_c / scale
    Tc = direction / scale

    def partial() -> Branch:
        return Branch(tuple(points), chart, tuple(events), steps=StepCounts(**counts))

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
            branch = partial()
            raise StepUnderflow(
                f"step underflow: {why} (last accepted point {len(points) - 1}: "
                f"c={points[-1].c:.10g}, t={branch.t_proj[-1]:.10g}, ds={step}; "
                f"steps {branch.steps})",
                branch,
            )

    while len(points) < max_points:
        base = points[-1]
        older = points[-2].spectrum if len(points) > 1 else None
        ub = base.u.values
        cb = base.c

        c_pred = cb + ds * Tc
        if not c_lo <= c_pred <= c_hi:
            target = c_hi if c_pred > c_hi else c_lo
            frac = (target - cb) / (ds * Tc)
            init = DiscreteField(dom, ub + frac * ds * Tu)
            try:
                end_pt = newton_solve(
                    problem, init, a, target, prev=_secant_guesses(older, base.spectrum)
                )
            except (NonConvergence, SingularJacobian):
                reject("boundary", f"no solution found at the c={target} boundary")
                continue
            points.append(end_pt)
            events.append(BranchEvent("endpoint", len(points) - 1))
            counts["accepted"] += 1
            break

        try:
            u, c, rF = _arclength_corrector(problem, a, ub, cb, Tu, Tc, ds, MAX_CORRECTOR)
        except NonConvergence:
            reject("nonconvergence", f"the corrector did not converge near c={cb:.6g}")
            continue

        u64 = u.hi
        c64 = float(c.hi)
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
            problem, DiscreteField._wrap(dom, u64), a, c64, rnorm=rF,
            prev=_secant_guesses(older, base.spectrum),
        )
        points.append(new)
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


def _facing(spectrum, refs) -> tuple[np.ndarray, ...]:
    """The values of spectrum's eigenfunctions, each turned to face its
    counterpart in refs (as they are where refs is None), so that a secant
    through successive spectra never meets a sign flip."""
    vs = [f.values for f in spectrum.eigenfunctions]
    if refs is None:
        return tuple(vs)
    return tuple(v if v @ g >= 0 else -v for v, g in zip(vs, refs))


def _secant_guesses(older, base) -> tuple[np.ndarray, ...]:
    """Guesses for the eigenvectors of the state one chord past base: the
    secant 2 v - w through base's eigenfunctions v and older's w (turned to
    face v), or base's own v where older is None."""
    vs = _facing(base, None)
    if older is None:
        return vs
    return tuple(2.0 * v - w for v, w in zip(vs, _facing(older, vs)))


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
            u, c, rF = _arclength_corrector(
                problem, new.a, new.u.values, new.c,
                (new.u.values - prev.u.values) / dist, (new.c - prev.c) / dist,
                dist, MAX_CORRECTOR,
            )
        except NonConvergence:
            return ("degeneracy", None)
        past = classify_state(
            problem, DiscreteField(problem.domain, u.hi), new.a, float(c.hi), rnorm=rF,
            prev=_secant_guesses(prev.spectrum, new.spectrum),
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


def _test_function(problem, J, u, a, w0):
    """The minimally extended system's test function at the float64 (u, a),
    a Pair state's hi, with J = J(u) symmetric.

    Solves [[J, w0], [w0^T, 0]] [v; g] = [0; 1], so g vanishes exactly where
    J is singular and v then spans its kernel. The float64 solve is refined
    once against the nested-difference J(u) v (_linearized_apply), which is
    what lets v meet the kernel residual bound; v is returned as the Pair
    of the solve and its refinement, g as a float. A singular bordered
    system raises LinAlgError.
    """
    v, g = solve_bordered(J, w0, w0, 0.0, np.zeros(u.size), 1.0)
    g = g[0]
    rv = _linearized_apply(problem, u, v, a) + g * w0
    dv, dg = solve_bordered(J, w0, w0, 0.0, -rv, 1.0 - w0 @ v)
    return two_sum(v, dv), g + dg[0]


def _kernel_residual(problem, u, a, v, S):
    """Sup norm of J(u) w at the float64 (u, a), w the Pair v scaled to
    square integral S (the bound _package_degenerate re-verifies). The
    scale multiplies the sup norm, with its one rounding, instead of both
    parts of v."""
    scale = np.sqrt(S / (problem.domain.spacing * (v.hi @ v.hi)))
    return float(scale * np.max(np.abs(_linearized_apply(problem, u, v, a))))


def _extended_newton(
    problem, a, u0, c0, max_iter, *, row=None, w0=None, S=None, stop_on_growth=False
):
    """Newton on an extended system (Govaerts 2000, ch. 3): the state
    equation F(u, a, c) = 0 with c free, plus the affine row
    N(u, c) = scale (e . u) + row_c c + offset = 0, given as
    row = (scale, e, row_c, offset), or the test function g(u, a) = 0 of
    _test_function bordered by w0, or both, in which case a is free too.

    Each step is one solve_bordered on J(u) (with w0, the J that
    _test_function uses too), with the columns dF/da = u (a free only) and
    dF/dc = -h and the rows scale e and g_u = f''(u) v^2
    (J is symmetric and bordered by w0 on both sides), and g_a = -v.v (J
    depends on a through its diagonal). The iterate converges when sup|F|,
    |N| and the kernel residual of v scaled to square integral S
    (_kernel_residual) are all below NEWTON_TOL. The borders keep the step
    regular where J alone is singular, provided they do not annihilate its
    kernel. Returns the Pairs a, u and c, the kernel vector v as a Pair
    (None without w0) and sup|F|. With stop_on_growth, an iteration whose
    sup|F| grows ends the solve as not converged: the iteration is not
    contracting (Den Heijer & Rheinboldt 1981). A singular step or no
    convergence raises NonConvergence naming the system, with the last
    iterate measured (its float64 field, hi in the pair stage), its
    residual and the sup|F| of every iterate (residual_history). max_iter
    counts measured iterates, so no step is taken after the last one: its
    result would go unmeasured.

    Precision: the float64 and pair stages of solver.Ladder, the ladder a
    solver._newton_pool row climbs from unpaired to paired, both taking the
    same unrefined float64 step from J(hi), which is built once per iterate
    and serves the residual, the test function and the step.
    The float64 u0 starts the float64 stage, whose iterate, residual and
    sup norm are float64. The first iterate whose float64 sup|F| is at or
    below FLOAT64_PHASE_TOL is promoted to a Pair and measured again there:
    a start exactly, with lo = 0, and an iterate that a float64 step made
    as that step's unrounded sum, so that the rounding of the float64
    iterate (a sup|F| of about 4e-9 at n = 1599) costs no extra step. From
    then on the iterate is a Pair and every step a Pair update. c, and a
    when free, are Pairs from the start, but the float64 stage measures at
    their hi only. The row N is evaluated on the hi parts in float64, whose
    rounding (about 1e-16 of its terms) lies far below NEWTON_TOL.
    Convergence is declared only on a Pair, against NEWTON_TOL, and the
    history holds the promoted iterate's Pair sup|F|, not the float64 one.
    A NonConvergence that ends in the float64 stage carries the float64
    residual of its last iterate.
    """
    a_free = row is not None and w0 is not None
    system = (
        "degenerate-family system" if a_free
        else "bordered system" if w0 is None
        else "fold system"
    )
    ladder = Ladder(problem)
    u, lo = np.asarray(u0, dtype=float), None  # lo is None in the float64 stage
    a, c = Pair(float(a), 0.0), Pair(float(c0), 0.0)
    minus_h = -problem.harvest.values
    if row is not None:
        scale, e, row_c, offset = row
        row_b = scale * e
    v = None
    step = None  # the last float64-stage step: iterate and du
    rF = res = np.inf
    history = []
    for it in range(max_iter):
        J = problem.jacobian_operator(u, a.hi)
        F = problem.residual_values(u, a.hi, c.hi)
        r_prev, rF = rF, float(np.abs(F).max())
        if lo is None and ladder.hands_over(rF):
            u, lo = (u, np.zeros_like(u)) if step is None else ladder.promote(*step)
        if lo is not None:
            F = ladder.residual(F, J.diag, lo, u, a.lo, c.lo)
            rF = float(np.abs(F).max())
        history.append(rF)
        checks = [rF]
        if row is not None:
            N = scale * (e @ u) + row_c * c.hi + offset
            checks.append(abs(float(N)))
        if w0 is not None:
            try:
                v, g = _test_function(problem, J, u, a.hi, w0)
            except np.linalg.LinAlgError as exc:
                raise NonConvergence(
                    f"test-function system is singular: {exc}", u.copy(), np.inf, history,
                )
            checks.append(_kernel_residual(problem, u, a.hi, v, S))
        res = max(checks)  # sup|F| first, so a NaN state gives a NaN res
        if lo is not None and res < NEWTON_TOL:
            return a, Pair(u, lo), c, v, rF
        if (
            it == max_iter - 1 or not np.isfinite(res) or res > 1e8
            or (stop_on_growth and rF > r_prev)
        ):
            break
        if w0 is not None:
            g_u = ramp_curvature(problem.nonlinearity, u) * v.hi**2
        if a_free:
            B, C = np.column_stack((u, minus_h)), np.column_stack((row_b, g_u))
            D, rhs = [[0.0, row_c], [-(v.hi @ v.hi), 0.0]], [-float(N), -float(g)]
        elif w0 is None:
            B, C, D, rhs = minus_h, row_b, row_c, -float(N)
        else:
            B, C, D, rhs = minus_h, g_u, 0.0, -float(g)
        try:
            du, y = solve_bordered(J, B, C, D, -F, rhs)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"{system} is singular: {exc}", u.copy(), res, history)
        if not (np.isfinite(du).all() and np.isfinite(y).all()):
            break
        if a_free:
            a = ladder.update(a, y[0])
        c = ladder.update(c, y[-1])
        if lo is None:
            step = (u, du)
            u = u + du
        else:
            u, lo = ladder.update(Pair(u, lo), du)
    raise NonConvergence(f"{system} did not converge", u.copy(), res, history)


def _package_degenerate(problem, a, u, c, w, expected_kind, prev=None):
    """Classify a converged extended-system iterate, the Pairs a, u, c and
    w, fix the kernel vector's normalization and sign by kind, and
    re-verify the residual invariants on the Pairs. Returns the
    DegeneratePoint, which stores the hi parts, and the state's spectrum;
    prev, a nearby state's spectrum or guesses for its eigenvectors, is
    handed to classify_state."""
    dom = problem.domain
    phi, psi = problem.modes()

    point = classify_state(
        problem, DiscreteField(dom, u.hi), float(a.hi), float(c.hi), rnorm=0.0, prev=prev,
    )
    if not point.degenerate:
        raise NonConvergence(
            "extended system converged onto a nondegenerate state", u.hi.copy(), 0.0,
        )
    mu = np.abs(np.asarray(point.spectrum.eigenvalues))
    # a vanishing eigenvalue beyond the computed ones is the (index+1)-th
    j = int(np.argmin(mu)) if mu.min() < point.spectrum.tol else point.morse_index
    if j == 0:
        kind = "fold-index0"
        target = inner_product(phi.eigenfunction, phi.eigenfunction)
    elif j == 1:
        kind = "degenerate-index1"
        target = inner_product(psi.eigenfunction, psi.eigenfunction)
    else:
        kind = f"degenerate-index{j}"
        target = inner_product(phi.eigenfunction, phi.eigenfunction)

    w64 = w.hi * np.sqrt(target / (dom.spacing * (w.hi @ w.hi)))
    if kind == "fold-index0":
        if w64[np.argmax(np.abs(w64))] < 0:
            w64 = -w64
    else:
        ref = psi.eigenfunction.values if j == 1 else phi.eigenfunction.values
        if float(np.dot(ref, w64)) < 0:
            w64 = -w64

    F = Ladder(problem).evaluate(u, a, c)
    res = max(float(np.max(np.abs(F))), _kernel_residual(problem, u.hi, a.hi, w, target))
    if not res < NEWTON_TOL:
        raise NonConvergence(
            f"degenerate point failed re-verification ({res:.3e})", u.hi.copy(), res,
        )
    dp = DegeneratePoint(
        float(a.hi),
        float(c.hi),
        DiscreteField(dom, u.hi),
        DiscreteField(dom, w64),
        point.morse_index,
        kind,
        res,
    )
    if expected_kind is not None and kind != expected_kind:
        raise WrongKind(expected_kind, dp)
    return dp, point.spectrum


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
    bordered solve also yields the kernel vector. That endpoint's spectrum
    seeds the point's classification (linearized_spectrum). The returned kind
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

    u, c, w = _fold_system(problem, a, u0, c0, w0)
    return _package_degenerate(
        problem, Pair(a, 0.0), u, c, w, expected_kind, prev=donor.spectrum
    )[0]


def _fold_system(problem, a, u0, c0, w0):
    """The fold system {F(u, c) = 0, g(u) = 0} at fixed a from (u0, c0), g
    bordered by w0 scaled to the first mode's square integral, at most
    FOLD_MAX_ITER iterations. Returns the Pairs u, c and kernel v."""
    phi = problem.modes()[0].eigenfunction
    S = inner_product(phi, phi)
    w0 = w0 * np.sqrt(S / problem.domain.inner(w0, w0))
    _, u, c, v, _ = _extended_newton(problem, a, u0, c0, FOLD_MAX_ITER, w0=w0, S=S)
    return u, c, v


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
    through the last two accepted carries, or repeats q where p is None;
    the first step gets carry0 as given. steps is (first, smallest,
    largest step). A solve raising NonConvergence, SingularJacobian or
    WrongKind halves the step, and each accept grows it by STEP_GROWTH up
    to the largest. Below the smallest the march raises NonConvergence
    naming what, the stalled x, the last accepted x and the last failure;
    its last_iterate is the last accepted state (state0 before any accept).
    """
    x, carry, state = float(x0), carry0, state0
    x_prev = prev = None
    step, min_step, max_step = steps
    while abs(x_stop - x) > 1e-12:
        x_new = x + math.copysign(min(step, abs(x_stop - x)), x_stop - x)
        if prev is not None and x != x_prev:
            r = (x_new - x) / (x - x_prev)
            guess = tuple(q if p is None else q + r * (q - p) for q, p in zip(carry, prev))
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
    the seed: at each new a the fold system (_fold_system) is re-solved
    from a secant predictor in a (the predicted kernel vector borders its
    test function, and the predicted eigenvectors seed each point's
    spectrum), and both window edges are hit exactly. The seed is
    classified once, and both directions track from its eigenvectors. Each
    interior point gets the identity check dc/da = int(u w)/int(h w) against
    the secant slope, recorded in slope_check as relative mismatches.
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

    def solve_at(a, guess):
        u0, c0, w0, *vecs = guess
        u, c, w = _fold_system(problem, a, u0, c0, w0)
        dp, spectrum = _package_degenerate(problem, Pair(a, 0.0), u, c, w, seed.kind, vecs)
        return dp, (dp.u.values, dp.c, dp.w.values, *_facing(spectrum, vecs))

    seeded = classify_state(problem, seed.u, seed.a, seed.c, rnorm=seed.residual_sup)
    start = (seed.u.values, seed.c, seed.w.values, *_facing(seeded.spectrum, None))
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
            lo, hi = (
                float(_fold_system(problem, p.a + sign * probe, p.u.values, p.c, w)[1].hi)
                for sign in (-1.0, 1.0)
            )
            secant = (hi - lo) / (2.0 * probe)
        except NonConvergence:
            continue
        checks.append(abs(secant - formula) / max(abs(formula), 1e-12))
    return DegenerateCurve(tuple(pts), params, seed.kind, tuple(checks))


def trace_index1_degenerate_curve(
    problem: Problem,
    *,
    sigma: float = 1.0,
) -> DegenerateCurve:
    """The index-1 degenerate family parametrized by the second-eigenfunction
    projection t, swept across and beyond the exact segment.

    Inside [-M/beta, M] the family is the exact line (a at the second
    eigenvalue, u = t psi, c = 0, kernel psi): each sample, spaced by the
    first step of INDEX1_SWEEP_STEPS, is the closed-form state of
    closed_form_states with kernel psi, packaged with no solve.
    Outside, the minimally extended system (unknowns u, a, c; equations
    F = 0, the chart row and the test function g = 0) is marched outward
    from both segment ends (_march, INDEX1_SWEEP_STEPS), predicting
    the offset u - t psi, a, c and the bordering kernel vector by secants.
    Each sample's spectrum is tracked (linearized_spectrum): inside, from
    the eigenvectors of the sample below it in t, the first sample alone
    paying a full eigensolve; outside, from the march's secant prediction
    of them.
    The sweep extends sigma >= 0 beyond the segment on both sides.
    """
    dom = problem.domain
    psi = problem.modes()[1]
    psi_v = psi.eigenfunction.values
    seg_lo, seg_hi = _segment_ends(problem)
    if sigma < 0:
        raise ValueError("t window must cover the degenerate segment")
    t_lo, t_hi = seg_lo - float(sigma), seg_hi + float(sigma)
    S2 = dom.inner(psi_v, psi_v)
    lam2 = psi.eigenvalue

    def solve_at(t, guess):
        a0, y0, c0, z0, *vecs = guess
        t_psi = t * psi_v
        row = (dom.spacing, psi_v, 0.0, -t * S2)
        aa, u, cc, v, _ = _extended_newton(
            problem, a0, t_psi + y0, c0, FOLD_MAX_ITER, row=row, w0=z0, S=S2
        )
        dp, spectrum = _package_degenerate(problem, aa, u, cc, v, "degenerate-index1", vecs)
        carry = (float(aa.hi), u.hi - t_psi, float(cc.hi), dp.w.values)
        return dp, carry + _facing(spectrum, vecs)

    dt0 = INDEX1_SWEEP_STEPS[0]
    inside_ts = np.linspace(seg_lo, seg_hi, max(2, int(round((seg_hi - seg_lo) / dt0)) + 1))
    if seg_hi == seg_lo:
        inside_ts = np.array([seg_lo])
    mode, states, _ = closed_form_states(problem, 2, inside_ts, NEWTON_TOL, "segment states")
    samples = []
    vecs = first_vecs = None
    for t, u in zip(inside_ts, states):
        dp, spectrum = _package_degenerate(
            problem, Pair(lam2, 0.0), u, Pair(0.0, 0.0), mode, "degenerate-index1", vecs
        )
        samples.append((float(t), dp))
        vecs = _facing(spectrum, vecs)
        first_vecs = first_vecs or vecs
    on_line = (lam2, np.zeros(dom.n_interior), 0.0, psi_v)
    ends = ((samples[-1], t_hi, vecs), (samples[0], t_lo, first_vecs))
    for (t_edge, edge), t_stop, edge_vecs in ends:
        samples += _march(
            t_edge, t_stop, on_line + edge_vecs, edge.u.values, solve_at,
            INDEX1_SWEEP_STEPS, "index-1 family in t",
        )
    samples.sort(key=lambda pair: pair[0])
    ts = tuple(t for t, _ in samples)
    pts = tuple(dp for _, dp in samples)
    return DegenerateCurve(pts, ts, "degenerate-index1")


def delta_window(problem: Problem, curve: DegenerateCurve) -> float:
    """Growth-rate elevation of a traced index-1 degenerate family above the
    second eigenvalue, measured at its two ends and taking the smaller.

    delta is a sampled quantity, not a property of the curve alone: the
    smaller a above lambda2 at the two ends of the index-1 sweep. The sweep
    of trace_index1_degenerate_curve extends sigma (default 1) in the chart
    coordinate t past the segment ends, so delta depends on sigma. It is not
    a certified half-width of the four-solution window. Raises if the curve
    fails to bend upward on both sides.
    """
    lam2 = problem.modes()[1].eigenvalue
    delta = min(curve.points[0].a, curve.points[-1].a) - lam2
    if delta <= 0:
        raise ValueError(
            f"curve does not rise above the second eigenvalue (delta={delta:.3e})"
        )
    return float(delta)


def lower_index1_fold(problem: Problem, curve: DegenerateCurve, a: float) -> float | None:
    """c of the lowest crossing of growth rate a by a traced index-1
    family on its c < 0 side, the fold between Msharp and Mnatural at a, or
    None where the family does not reach a there. The fold system at a is
    seeded at the interpolation, in a, of the two samples that bracket a;
    where it does not converge, the interpolated c is returned."""
    lowest = None
    for p, q in zip(curve.points, curve.points[1:]):
        if not (p.c < 0 and q.c < 0 and p.a != q.a and min(p.a, q.a) <= a <= max(p.a, q.a)):
            continue
        frac = (a - p.a) / (q.a - p.a)
        u0 = (1.0 - frac) * p.u.values + frac * q.u.values
        c = (1.0 - frac) * p.c + frac * q.c
        w0 = (1.0 - frac) * p.w.values + frac * q.w.values
        try:
            c = float(_fold_system(problem, a, u0, c, w0)[1].hi)
        except NonConvergence:
            pass
        if lowest is None or c < lowest:
            lowest = c
    return lowest


def _czero_seed(problem, a, e_vals, positive):
    """First point of a zero-harvest family at growth rate a: try the offset
    start (M + CZERO_SEED_OFFSET) e, then a geometric amplitude scan (the Newton basin of
    the eigenfunction start can collapse onto zero when M = 0). Each start
    is solved by solver._newton_rows, and only a state that passes the norm,
    chart-sign and positivity checks is classified."""
    dom = problem.domain
    M = problem.nonlinearity.M
    K = critical_cap(problem.nonlinearity, a)
    amplitudes = [M + CZERO_SEED_OFFSET] + list(np.geomspace(0.05, 2.0 * max(K, 1.0), 10))
    for s in amplitudes:
        (end,) = _newton_rows(problem, [s * e_vals], a, 0.0, NEWTON_MAX_ITER)
        if isinstance(end, Exception):
            continue
        u, rnorm, history = end
        if dom.l2_norm(u) < 1e-6 or dom.inner(u, e_vals) <= 0:
            continue
        if positive and float(np.min(u)) < -1e-8:
            continue
        pt = classify_state(
            problem, DiscreteField(dom, u), a, 0.0, residual_history=history, rnorm=rnorm
        )
        if not pt.degenerate:
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
    c = 0 and their own growth rates, so the branch's arclengths accumulate
    ||du||_L2 + |da|. The sweep marches with CZERO_SWEEP_STEPS (_march),
    tracking each spectrum from the eigenvectors the march predicts.
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
    seed = _czero_seed(problem, a_lo, e_vals, positive)

    points = [seed]
    events: list[BranchEvent] = []

    def partial() -> Branch:
        return Branch(tuple(points), chart, tuple(events))

    def solve_at(a, guess):
        u0, *vecs = guess
        pt = newton_solve(problem, DiscreteField(dom, u0), a, 0.0, prev=vecs)
        if dom.l2_norm(pt.u.values) < 1e-6:
            raise NonConvergence(
                "collapsed onto the zero state", pt.u.values, pt.residual_norm
            )
        return pt, (pt.u.values, *_facing(pt.spectrum, vecs))

    start = (seed.u.values, *_facing(seed.spectrum, None))
    try:
        for _, pt in _march(
            a_lo, a_hi, start, seed.u.values, solve_at,
            CZERO_SWEEP_STEPS, "zero-harvest sweep in a",
        ):
            points.append(pt)
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
    v = h_coeff / (a - lam) * ehat.values + problem.laplacian.shifted(a).solve(rhs)
    return float(dc_dt), DiscreteField(problem.domain, v)


def build_degenerate_segment(problem: Problem) -> DegenerateSegment:
    """Construct and verify the analytic degenerate segment at the second
    eigenvalue.

    The states t*psi for t in [-M/beta, M] keep the ramp inactive, so in
    closed form they satisfy the steady equation to rounding. Their residual
    must lie below SEGMENT_TOL at SEGMENT_CHECKS values of t
    (closed_form_states); the segment stores the float64 eigenfunction.
    """
    psi_pair = problem.modes()[1]
    t_lo, t_hi = _segment_ends(problem)
    ts = np.linspace(t_lo, t_hi, SEGMENT_CHECKS) if t_hi > t_lo else np.array([t_lo])
    _, _, sups = closed_form_states(problem, 2, ts, SEGMENT_TOL, "segment states")
    return DegenerateSegment(
        float(psi_pair.eigenvalue), float(t_lo), float(t_hi), psi_pair.eigenfunction,
        max(sups),
    )


def _segment_ends(problem: Problem) -> tuple[float, float]:
    """The chart ends -M/beta and M of the degenerate segment, beta the
    magnitude of the negative extreme of the float64 psi."""
    beta = -float(np.min(problem.modes()[1].eigenfunction.values))
    if beta <= 0:
        raise ValueError("second eigenfunction has no negative part")
    return -problem.nonlinearity.M / beta, problem.nonlinearity.M


def closed_form_states(problem: Problem, k: int, ts, bound: float, what: str):
    """The exact states t e_k, t in ts, at (a, c) = (lambda_k, 0): the ray
    (k = 1) or the segment (k = 2). e_k and lambda_k are the closed form as
    Pairs (grid.exact_mode), e_k signed like problem.modes()[k - 1], and
    each state t e_k is the Pair of Dekker's product of t and e_k
    (grid.pair_scale). Returns (e_k, the states, each one's Pair residual
    sup norm at the Pair lambda_k), e_k and the states as Pairs; raises
    NonConvergence naming what, with the worst state's hi, unless every
    residual lies below bound."""
    lam, mode = exact_mode(problem.domain, k)
    if float(np.dot(mode.hi, problem.modes()[k - 1].eigenfunction.values)) < 0:
        mode = Pair(-mode.hi, -mode.lo)
    states = [pair_scale(t, mode) for t in ts]
    ladder = Ladder(problem)
    sups = [float(np.max(np.abs(ladder.evaluate(u, lam, Pair(0.0, 0.0))))) for u in states]
    j = int(np.argmax(sups))
    if not sups[j] < bound:
        raise NonConvergence(
            f"{what} fail extended-precision verification at t={ts[j]:.6g} "
            f"({sups[j]:.3e} >= {bound:.3e})",
            states[j].hi, sups[j],
        )
    return mode, states, sups
