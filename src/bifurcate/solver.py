"""Steady-state residual/Jacobian, damped Newton, and an IMEX time
integrator used as an independent stability oracle.

The steady equation on the grid is

    Delta_h u + a u - f(u) - c h = 0,   u = 0 on the boundary,

with f the ramp nonlinearity and h the harvest profile. Everything here is a
pure function of its arguments; concurrent solves are safe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DiscreteDomain,
    DiscreteField,
    LinearOperatorBanded,
    _gtsv,
    _tridiagonal_apply,
    assemble_laplacian,
    laplacian_eigenpairs,
    sturm_count,
)
from .model import (
    HarvestSpec,
    Nonlinearity,
    critical_cap,
    ramp_curvature,
    ramp_slope,
    ramp_values,
)
from .spectral import K_EIGS, SpectrumSlice, linearized_spectrum

#: Residual sup norm below which a state counts as steady. Every downstream
#: bound (fold re-verification, ray certification, the oracle) is tied to it.
NEWTON_TOL = 1e-10
#: Iteration caps of the Newton solves: newton_solve, each multistart start
#: of the counting oracle, the c-free chart solve (solve_at_projection) and
#: the fold system (refine_fold).
NEWTON_MAX_ITER = 50
COUNT_MAX_ITER = 30
PROJECTION_MAX_ITER = 12
FOLD_MAX_ITER = 16
ARMIJO_MIN_STEP = 2.0**-20
#: Residual sup norm above which a Newton row (see _newton_rows) or an
#: extended system started from a float64 state
#: (continuation._extended_newton) iterates in float64; from the first
#: iterate at or below it, in long double. Both stages step by the same
#: float64 solve.
FLOAT64_PHASE_TOL = 1e-6
PIVOT_RTOL = 1e-13


class NonConvergence(RuntimeError):
    """Newton ran out of iterations or stalled below the minimum step.

    residual_history holds the residual sup norm of each iterate, the start
    first, when a Newton loop (_newton_rows, or the extended systems'
    continuation._extended_newton) raised it; it is empty otherwise.
    """

    def __init__(self, msg: str, last_iterate: np.ndarray, residual_norm: float,
                 residual_history=()):
        super().__init__(msg)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.residual_history = tuple(residual_history)


class SingularJacobian(RuntimeError):
    """The Jacobian factorization produced a negligible pivot.

    This is the solver-level signal of a degenerate point; callers wanting
    the point itself should switch to an extended system (continuation
    module) or build it analytically and classify it directly.
    """

    def __init__(self, min_pivot: float, threshold: float):
        super().__init__(
            f"Jacobian numerically singular (pivot {min_pivot:.3e} "
            f"< {threshold:.3e})"
        )
        self.min_pivot = min_pivot
        self.threshold = threshold


class Diverged(RuntimeError):
    """Time integration left the physically meaningful ball."""

    def __init__(self, time: float, norm: float, bound: float):
        super().__init__(
            f"time march diverged at t={time:.4g} (sup norm {norm:.3e} > {bound:.3e})"
        )
        self.time = time
        self.norm = norm


@dataclass(frozen=True)
class Problem:
    """Grid plus model data; the shared context every state refers to."""

    domain: DiscreteDomain
    nonlinearity: Nonlinearity
    harvest_spec: HarvestSpec = HarvestSpec("bump")
    harvest: DiscreteField = field(init=False)
    laplacian: LinearOperatorBanded = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "harvest", self.harvest_spec.build(self.domain))
        object.__setattr__(self, "laplacian", assemble_laplacian(self.domain))
        object.__setattr__(self, "_harvest_ld", self.harvest.values.astype(np.longdouble))

    def residual_values(self, u: np.ndarray, a: float, c: float) -> np.ndarray:
        # The input dtype (float64 or long double) is preserved, and rows of
        # a (..., n) stack are evaluated independently, each exactly as it
        # would be on its own. The terms are summed in place, in the order
        # ((Delta_h u + a u) - f) - c h.
        u = np.asarray(u)
        one = u.dtype.type
        f = ramp_values(self.nonlinearity, u)
        h = self._harvest_ld if one is np.longdouble else self.harvest.values
        out = self._nested_laplacian(u)
        out += one(a) * u
        out -= f
        out -= one(c) * h.astype(u.dtype, copy=False)
        return out

    def _nested_laplacian(self, v: np.ndarray) -> np.ndarray:
        """Delta_h v along the last axis in the dtype of v.

        Evaluated as nested first differences rather than through the
        expanded stencil: neighbor subtractions of a smooth field are exact
        in floating point, which keeps the evaluation noise near 1e-13
        instead of the ~1e-9 the 1/h^2-scaled products would give. These
        are the operations of np.diff(n=2) on v padded with its zero
        boundary values, without its and np.concatenate's Python layers.
        """
        one = v.dtype.type
        padded = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,), dtype=v.dtype)
        padded[..., 1:-1] = v
        d1 = np.subtract(padded[..., 1:], padded[..., :-1])
        out = np.subtract(d1[..., 1:], d1[..., :-1])
        out /= one(self.domain.spacing) ** 2
        return out

    def jacobian_operator(self, u: np.ndarray, a: float) -> LinearOperatorBanded:
        return self.laplacian.add_diagonal(a - ramp_slope(self.nonlinearity, u))

    def modes(self):
        """First two Laplacian eigenpairs, phi and psi, from the closed form
        with the harvest sign convention (grid.laplacian_eigenpairs), built
        once per problem and cached."""
        cached = getattr(self, "_modes", None)
        if cached is None:
            cached = tuple(laplacian_eigenpairs(self.domain, 2, harvest=self.harvest))
            object.__setattr__(self, "_modes", cached)
        return cached


@dataclass(frozen=True)
class SolutionPoint:
    """A converged (or analytically exact) steady state (u, a, c) of a
    problem with its spectrum attached. The Morse index, degeneracy flag
    and tag are read from the spectrum, the one record of the
    classification."""

    problem: Problem
    u: DiscreteField
    a: float
    c: float
    residual_norm: float
    spectrum: SpectrumSlice
    residual_history: tuple[float, ...] = ()

    @property
    def morse_index(self) -> int:
        return self.spectrum.index

    @property
    def degenerate(self) -> bool:
        return self.spectrum.degenerate

    @property
    def tag(self) -> str:
        if self.degenerate:
            return f"degenerate-{self.morse_index}"
        if self.morse_index == 0:
            return "stable"
        return f"index-{self.morse_index}"


def _pivot_threshold(problem: Problem, norm_inf):
    """Pivot magnitude below which a Jacobian of sup norm norm_inf (a float
    or an array of them) counts as numerically singular."""
    return PIVOT_RTOL * problem.domain.n_interior * norm_inf


def _checked_solve(problem: Problem, op: LinearOperatorBanded, rhs: np.ndarray):
    """x with op x = rhs, by one gtsv call, unless op is numerically
    singular: its smallest pivot |U_ii| (0.0 at an exact zero, where gtsv
    stops) below _pivot_threshold raises SingularJacobian."""
    x, d, info = _gtsv(op.diag, op.off, rhs)
    threshold = _pivot_threshold(problem, op.norm_inf())
    pivot = 0.0 if info else float(np.min(np.abs(d)))
    if info or pivot < threshold:
        raise SingularJacobian(pivot, threshold)
    return x


def classify_state(
    problem: Problem,
    u: DiscreteField,
    a: float,
    c: float,
    *,
    residual_history: tuple[float, ...] = (),
    rnorm: float | None = None,
    prev: SpectrumSlice | Sequence[np.ndarray] | None = None,
) -> SolutionPoint:
    """Wrap an already-steady field as a SolutionPoint.

    Attaches the spectrum, which carries the Morse classification, but runs
    no Newton iteration, so it also accepts degenerate states (where
    newton_solve would raise SingularJacobian). ValueError is raised for a
    non-finite a or c, and by linearized_spectrum for a field on another
    grid. With rnorm omitted the residual sup norm is measured, and
    ValueError is raised unless it is below NEWTON_TOL. A caller that
    converged the state by its own criteria (a Newton or extended system
    solve, a certified exact state, a stored diagram) passes that residual
    as rnorm, and it is taken as given. prev, the spectrum of the previous
    point of a branch or guesses for the K_EIGS eigenvectors, lets
    linearized_spectrum track the eigenpairs from it instead of solving
    afresh.
    """
    if not (np.isfinite(a) and np.isfinite(c)):
        raise ValueError(f"non-finite parameters a={a}, c={c}")
    if rnorm is None:
        rnorm = float(np.max(np.abs(problem.residual_values(u.values, a, c))))
        if not rnorm < NEWTON_TOL:
            raise ValueError(
                f"field is not a steady state: residual sup norm {rnorm:.3e} "
                f">= {NEWTON_TOL:.3e}"
            )
    spectrum = linearized_spectrum(problem, u, a, K_EIGS, prev)
    return SolutionPoint(problem, u, a, c, rnorm, spectrum, residual_history)


def newton_ball(problem: Problem, point: SolutionPoint, capture: float):
    """Radius rho of a certified Newton ball about a steady state u*, or a
    string saying why it has none.

    Norms are Euclidean on R^n. The local Newton theory (Ortega & Rheinboldt,
    Iterative Solution of Nonlinear Equations in Several Variables, 1970,
    12.6; Dennis & Schnabel 1983, Thm 5.2.1) needs three numbers:

    - beta >= ||J(u*)^-1||_2 = 1 / min |mu| over the whole spectrum of the
      symmetric J. From the k = 2 spectrum, each mu_j loses the residual
      norm of its eigenfunction plus rounding, and a Sturm count must find
      no eigenvalue within the smallest of the results, less the count's
      own backward error (grid.sturm_count); beta is one over what is left.
      A state whose eigenvalue nearest zero is not among the two gets no
      ball.
    - L(rho) = f''(max u* + rho) = p (p - 1) (max u* + rho - M)+^(p - 2),
      which bounds ||J(x) - J(y)||_2 <= L ||x - y||_inf <= L ||x - y||_2 on
      the ball of radius rho, since J depends on u only through the
      diagonal f'(u) and f'' is nondecreasing for p >= 2.
    - eta = beta ||F(u*)||_2, with the residual of the float64 field u*
      evaluated in long double.

    rho solves beta L(rho) rho = 1/2; the left side is nondecreasing in rho
    and 0 at rho = 0 (L(0) itself is 0 for the zero state at M = 0), so it
    is found by doubling and bisection. A ball needs rho >= 4 eta. Then,
    for x within rho / 2 of u*: J(x) is invertible with ||J(x)^-1|| <=
    4 beta / 3, and the full Newton point x - J(x)^-1 F(x) lies within
    rho / 12 + 4 eta / 3 <= 5 rho / 12 of u*; B(u*, rho) holds at most one
    zero (two zeros z, z' would give ||z - z'|| <= beta L rho ||z - z'||),
    and the Kantorovich condition beta L eta <= 1/8 puts one next to u*.
    A point of the half ball whose residual has 2-norm r lies within
    (8/7) beta (r + ||F(u*)||_2) of u*. No ball is given where that bound
    at r = sqrt(n) NEWTON_TOL, plus the float64 rounding of such a point,
    exceeds capture: the largest distance at which the caller still takes
    a converged iterate for u* itself.

    Degenerate states (an eigenvalue within the degeneracy tolerance: the
    lambda1 ray, the lambda2 segment, states next to a fold) get no ball.
    """
    if point.degenerate:
        return "degenerate"
    nl = problem.nonlinearity
    if nl.p_f < 2:
        return "f' is not Lipschitz (ramp power below 2)"
    u = point.u.values
    n = u.size
    J = problem.jacobian_operator(u, point.a)
    diag, off = -J.diag, -J.off
    eps = np.finfo(float).eps
    eps_a = eps * J.norm_inf()
    gap = min(
        abs(mu) - np.linalg.norm(_tridiagonal_apply(diag, off, v) - mu * v) / np.linalg.norm(v)
        for mu, v in zip(point.spectrum.eigenvalues,
                         (f.values for f in point.spectrum.eigenfunctions))
    ) - np.sqrt(n) * eps_a
    if not gap > 1e3 * eps_a or sturm_count(diag, off, -gap, gap) != 0:
        return "smallest eigenvalue magnitude not certified"
    beta = 1.0 / (gap - 1e3 * eps_a)
    f0 = float(np.linalg.norm(
        problem.residual_values(u.astype(np.longdouble), point.a, point.c)
    ))
    top = float(np.max(u))

    def contraction(rho):
        return beta * float(ramp_curvature(nl, top + rho)) * rho

    hi = 1.0
    while contraction(hi) <= 0.5:
        hi *= 2.0
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if contraction(mid) <= 0.5:
            lo = mid
        else:
            hi = mid
    rho = lo
    if not rho >= 4.0 * beta * f0:
        return "residual too large for a ball"
    reach = (8.0 / 7.0) * beta * (np.sqrt(n) * NEWTON_TOL + f0)
    reach += np.sqrt(n) * eps * (float(np.max(np.abs(u))) + rho)
    if not reach <= capture:
        return "capture distance above the caller's"
    return rho


def _ball_index(u: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Index of the first ball (centers[k], radii[k] / 2) that holds each row
    of u, else -1. The squared distances come from one product u centers^T;
    each is taken as inside only when it stays inside after adding a bound
    on its rounding, (n + 2) eps (|u| + |c|)^2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 3.1)."""
    usq = np.einsum("ij,ij->i", u, u)
    csq = np.einsum("ij,ij->i", centers, centers)
    d2 = usq[:, None] - 2.0 * (u @ centers.T) + csq
    slack = (u.shape[1] + 2) * np.finfo(float).eps * (
        np.sqrt(usq)[:, None] + np.sqrt(csq)
    ) ** 2
    inside = d2 + slack < (0.5 * radii) ** 2
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def _newton_rows(problem: Problem, starts, a: float, c: float, max_iter: int,
                 balls=None):
    """Damped Newton from each of a stack of start fields at fixed (a, c).

    Line search: safeguarded quadratic backtracking on the residual sup
    norm (Dennis & Schnabel, Numerical Methods for Unconstrained
    Optimization and Nonlinear Equations, 1983, A6.3.1). A trial at step s
    is accepted when its norm is finite and at most (1 - 1e-4 s) times the
    current norm f0. After a rejected trial with norm ft, the quadratic
    through f0, the Newton slope -f0 and ft has its minimum at f0 / 2q, with
    q = (ft - f0 + s f0) / s^2; the next step is that minimum clipped to
    [0.1 s, 0.5 s] (0.1 s when ft is not finite). A row whose next step
    would fall below ARMIJO_MIN_STEP has stalled; no shorter step is ever
    tried. The ramp kink at u = M is what makes the damping necessary. Each
    Jacobian is factored and pivot-checked before convergence is declared,
    so a start that lands exactly on a degenerate point ends in
    SingularJacobian; the iterate of the last allowed step is tested like
    any other.

    Precision: two stages of one loop (_newton_stage), both solving their
    corrections through the float64 factorization at the float64 iterate.
    A start whose residual norm is above FLOAT64_PHASE_TOL begins in the
    float64 stage, which holds its iterate, residual and step in float64. A
    trial whose float64 norm is at or below the switch is measured again in
    long double, on the exact long-double promotion of the float64 trial,
    and the Armijo test decides on that norm; once such a trial is accepted
    the row leaves for the long-double stage with its promoted iterate,
    long-double residual, history and iteration count. A start already at
    or below the switch begins there. The split is forced by the stencil: a
    float64 vector of amplitude ~4 cannot represent the steady state to
    better than a (4 / h^2) ulp(|u|) / 2 sup-norm defect, about 2e-10 at
    n = 399 and 4e-9 at n = 1599, far below the switch but at or above
    NEWTON_TOL, so a pure float64 iteration stalls right at the tolerance.
    The convergence test, and the residual and history entries at or below
    the switch, are long double; a NonConvergence that ends in the float64
    stage carries a float64 norm. COUNT_MAX_ITER and NEWTON_MAX_ITER count
    the iterations of both stages.

    All rows of a stage share each residual evaluation over the (rows, n)
    stack and one gtsv call over the block-diagonal stack of their float64
    Jacobians (_block_solve), which yields each block's correction and
    pivots at once; the zero seam couplings keep every block's pivots and
    solution those of the block alone, and each row has its own step length
    and iteration count, so each row ends exactly as it does alone.

    Early exit: balls = (centers, radii) holds zeros u* as a (k, n) float64
    stack and their newton_ball radii rho. After each step of the float64
    stage, a row whose iterate lies within rho / 2 of a center (_ball_index,
    which keeps a margin for the rounding of the distance) ends there,
    before any hand-off to the long-double stage. Soundness: from the half
    ball the full Newton point lies within 5 rho / 12 of u*, and a damped
    step is a convex combination of the iterate and that point, so the row
    cannot leave the half ball; computed steps miss the exact ones by
    orders of magnitude less than the rho / 12 to spare. The ball holds one
    zero, so the row would have ended on u*, within newton_ball's capture
    distance, or failed: a caller that keeps zeros farther apart than that
    keeps the same set either way.

    Returns one entry per start, in start order: (float64 iterate, residual
    norm, residual history) for a start that converged, the index of the
    ball for a start that exited there, else the SingularJacobian or
    NonConvergence that ended it; a NonConvergence carries the row's
    residual history.
    """
    ld = np.longdouble
    u = np.array(starts, dtype=float)
    r = problem.residual_values(u, a, c)
    rnorm = _row_norms(r)
    out: list = [None] * len(u)
    near = rnorm <= FLOAT64_PHASE_TOL
    u_near = u[near].astype(ld)
    r_near = problem.residual_values(u_near, a, c)
    handed = [
        (i, v, rv, x, [x], 0) for i, v, rv, x in
        zip(np.flatnonzero(near), u_near, r_near, _row_norms(r_near).tolist())
    ]
    rows = [(i, u[i], r[i], x, [x], 0) for i, x in zip(np.flatnonzero(~near),
                                                        rnorm[~near].tolist())]
    # each stage stacks its rows into arrays of its own; dropping these names
    # lets the stacked copies be the only ones alive
    del u, r, u_near, r_near
    handed += _newton_stage(problem, a, c, max_iter, out, rows, balls)
    handed.sort(key=lambda row: row[0])
    _newton_stage(problem, a, c, max_iter, out, handed)
    return out


def _stack_norms_inf(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Infinity norm of each of a stack of symmetric tridiagonal matrices,
    the rows of diag, that share the uniform off-diagonal off of
    assemble_laplacian: np.max(grid._row_abs_sums(diag, off), axis=1) bit
    for bit, from one maximum over |diag| per row. With every |off| equal
    to o, an interior row sums to (|d_i| + o) + o and the end rows to
    |d_0| + o and |d_n-1| + o; rounding is monotone, so the largest interior
    sum is the one of the largest interior |d_i|. NaN and inf pass through
    as they do in the row sums."""
    ad = np.abs(diag)
    o = abs(float(off[0]))
    norms = ad[:, 1:-1].max(axis=1)
    norms += o
    norms += o
    np.maximum(norms, ad[:, 0] + o, out=norms)
    np.maximum(norms, ad[:, -1] + o, out=norms)
    return norms


def _block_solve(diag: np.ndarray, seams: np.ndarray, rhs: np.ndarray):
    """Solve each block of a block-diagonal stack of symmetric tridiagonal
    systems, the rows of diag and rhs, by gtsv calls on the stack. seams is
    the stack's off-diagonal pattern (each block's couplings, then a zero
    seam), at least as long as the stack needs.

    Returns the (k, n) solutions and the smallest pivot magnitude of each
    block. An exactly zero pivot stops gtsv in block (info - 1) // n; that
    block gets pivot 0.0 and the stack is solved again without it, so a
    stack without one costs one call. The solutions are None when a block
    was dropped: its row was never solved.
    """
    k, n = diag.shape
    pivots = np.zeros(k)
    live = np.arange(k)
    d_live, b_live = diag, rhs
    while live.size:
        x, d, info = _gtsv(d_live.ravel(), seams[:d_live.size - 1], b_live.ravel())
        if not info:
            pivots[live] = np.abs(d).reshape(live.size, n).min(axis=1)
            break
        live = np.delete(live, (info - 1) // n)
        d_live, b_live = diag[live], rhs[live]
    return (x.reshape(k, n) if live.size == k else None), pivots


def _row_norms(r: np.ndarray) -> np.ndarray:
    """Sup norm of each row of r, as float64."""
    return np.max(np.abs(r), axis=1).astype(float, copy=False)


def _newton_stage(problem: Problem, a: float, c: float, max_iter: int, out, entries,
                  balls=None):
    """The loop of _newton_rows over one stage, in the dtype of its iterates:
    float64 or long double. Only the float64 stage is given balls.

    entries lists the stage's rows in start order, each as (start index,
    iterate, residual, residual norm, history, iterations taken); the list
    is emptied once the rows are stacked, so that only the stacked copies
    stay alive. Each row that ends here gets its entry in out. The float64
    stage returns the rows it hands to the long-double stage, in the same
    form; the long-double stage hands none on.
    """
    if not entries:
        return []
    index, u, r, rnorm, history, iters = zip(*entries)
    entries.clear()
    rows, u, r = np.array(index), np.stack(u), np.stack(r)
    rnorm, history, iters = np.array(rnorm), list(history), np.array(iters)
    ld = np.longdouble
    wide = u.dtype == ld
    lap = problem.laplacian
    # off-diagonal of a block-diagonal stack of k Jacobians: its first
    # k n - 1 entries, each block's couplings followed by a zero seam
    seams = np.tile(np.append(lap.off, 0.0), len(rows))
    handed = []

    while rows.size:
        u64 = u.astype(float) if wide else u
        diag = lap.diag + (a - ramp_slope(problem.nonlinearity, u64))
        # the Jacobians share the Laplacian's uniform off-diagonal
        threshold = _pivot_threshold(problem, _stack_norms_inf(diag, lap.off))
        rhs = (-r).astype(float, copy=False)
        delta, pivots = _block_solve(diag, seams, rhs)
        sound = pivots >= threshold
        converged = rnorm < NEWTON_TOL
        out_of_steps = iters == max_iter
        leaving = ~sound | converged | out_of_steps
        if leaving.any():
            for i in np.flatnonzero(leaving):
                if out_of_steps[i] and not converged[i]:
                    out[rows[i]] = NonConvergence(
                        f"no convergence in {max_iter} iterations "
                        f"(residual {rnorm[i]:.3e})",
                        u64[i],
                        float(rnorm[i]),
                        history[i],
                    )
                elif sound[i]:
                    out[rows[i]] = (u64[i], float(rnorm[i]), tuple(history[i]))
                else:
                    out[rows[i]] = SingularJacobian(float(pivots[i]), float(threshold[i]))
            go = np.flatnonzero(~leaving)
            rows, u, r, rnorm, iters = rows[go], u[go], r[go], rnorm[go], iters[go]
            history = [history[i] for i in go]
            if not go.size:
                break
            if sound.all():
                delta = delta[go]
            else:
                # an unsound block's solution can overflow and feed
                # 0 * inf = NaN through its seams into its neighbours, and an
                # exactly singular one was never solved: solve again without
                delta = _block_solve(diag[go], seams, rhs[go])[0]
        delta = delta.astype(u.dtype, copy=False)

        step = np.ones(len(rows))
        searching = np.arange(len(rows))
        switch = {}
        first = True
        while searching.size:
            s, f0 = step[searching], rnorm[searching]
            if first:
                # every row's trial at step 1, where 1 * delta is delta
                u_trial = u + delta
            else:
                u_trial = u[searching] + s.astype(u.dtype)[:, None] * delta[searching]
            r_trial = problem.residual_values(u_trial, a, c)
            f_trial = _row_norms(r_trial)
            near = [] if wide else np.flatnonzero(f_trial <= FLOAT64_PHASE_TOL)
            if len(near):
                promoted = u_trial[near].astype(ld)
                r_promoted = problem.residual_values(promoted, a, c)
                f_trial[near] = _row_norms(r_promoted)
            accept = np.isfinite(f_trial) & (f_trial <= (1.0 - 1e-4 * s) * f0)
            for j, k in enumerate(near):
                if accept[k]:
                    switch[searching[k]] = (promoted[j], r_promoted[j])
            if first and accept.all():
                u, r, rnorm = u_trial, r_trial, f_trial
                break
            first = False
            moved = searching[accept]
            u[moved], r[moved], rnorm[moved] = (
                u_trial[accept], r_trial[accept], f_trial[accept]
            )
            s, f0, f_trial = s[~accept], f0[~accept], f_trial[~accept]
            searching = searching[~accept]
            # fmax turns the NaN of a non-finite trial into the lower bound
            q = (f_trial - f0 + s * f0) / s**2
            step[searching] = np.minimum(np.fmax(f0 / (2.0 * q), 0.1 * s), 0.5 * s)
            searching = searching[step[searching] >= ARMIJO_MIN_STEP]
        iters += 1
        for h, x in zip(history, rnorm.tolist()):
            h.append(x)
        stalled = step < ARMIJO_MIN_STEP
        for i in np.flatnonzero(stalled):
            out[rows[i]] = NonConvergence(
                f"line search stalled at residual {rnorm[i]:.3e}",
                u[i].astype(float),
                float(rnorm[i]),
                history[i],
            )
        keep = ~stalled
        if balls is not None:
            ball = _ball_index(u, *balls)
            for i in np.flatnonzero(keep & (ball >= 0)):
                out[rows[i]] = int(ball[i])
            keep &= ball < 0
        for i, (v, rv) in switch.items():
            if keep[i]:
                handed.append((rows[i], v, rv, rnorm[i], history[i], iters[i]))
        keep[list(switch)] = False
        if not keep.all():
            rows, u, r, rnorm, iters = rows[keep], u[keep], r[keep], rnorm[keep], iters[keep]
            history = [h for h, k in zip(history, keep) if k]

    return handed


def newton_solve(
    problem: Problem, init: DiscreteField, a: float, c: float,
    prev: SpectrumSlice | Sequence[np.ndarray] | None = None,
) -> SolutionPoint:
    """Damped Newton from init at fixed (a, c), at most NEWTON_MAX_ITER
    iterations: the one-start case of _newton_rows. Raises the
    SingularJacobian or NonConvergence that ended it; the reported
    residual_norm is the converged residual of the long-double iterate, the
    stored field its float64 rounding. prev, the spectrum of a nearby state
    or guesses for the eigenvectors, is handed to classify_state."""
    (end,) = _newton_rows(problem, [init.values], a, c, NEWTON_MAX_ITER)
    if isinstance(end, Exception):
        raise end
    u64, rnorm, history = end
    return classify_state(
        problem, DiscreteField(problem.domain, u64), a, c,
        residual_history=history, rnorm=rnorm, prev=prev,
    )


def time_march(
    problem: Problem,
    u0: DiscreteField,
    a: float,
    c: float,
    dt: float = 1e-3,
    T: float = 1.0,
) -> DiscreteField:
    """Integrate u_t = Delta u + a u - f(u) - c h from u0 to time T.

    First-order IMEX: the stiff linear part Delta + a I is implicit (one
    tridiagonal factorization reused every step), the ramp and harvest terms
    are explicit. Raises Diverged when the iterate's sup norm passes ten
    times the cap K_a, the signal that the trajectory is escaping to
    -infinity rather than settling on a steady state.
    """
    if not (dt > 0 and T > 0):
        raise ValueError("need dt > 0 and T > 0")
    dom = problem.domain
    if a > 0:
        bound = 10.0 * max(critical_cap(problem.nonlinearity, a), 1.0)
    else:
        bound = 10.0 * max(1.0, abs(a))
    lap = problem.laplacian
    stepper = LinearOperatorBanded(
        dom, 1.0 - dt * (lap.diag + a), -dt * lap.off
    ).factor()
    u = u0.values.copy()
    n_steps = max(1, int(round(T / dt)))
    ch = c * problem.harvest.values
    for k in range(1, n_steps + 1):
        f = ramp_values(problem.nonlinearity, u)
        u = stepper.solve(u + dt * (-f - ch))
        norm = float(np.max(np.abs(u)))
        if not np.isfinite(norm) or norm > bound:
            raise Diverged(k * dt, norm, bound)
    return DiscreteField(dom, u)
