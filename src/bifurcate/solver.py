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
from typing import Any, NamedTuple

import numpy as np

from .grid import (
    DiscreteDomain,
    DiscreteField,
    LinearOperatorBanded,
    _gtsv,
    _gtsv_in_place,
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
#: Residual sup norm above which a Newton row (see _newton_pool) or an
#: extended system (continuation._extended_newton) iterates on a float64
#: field; from the first iterate at or below it, on a Pair (Ladder): the row
#: is paired. Unpaired and paired iterates step by the same float64 solve.
FLOAT64_PHASE_TOL = 1e-6
PIVOT_RTOL = 1e-13


class NonConvergence(RuntimeError):
    """Newton ran out of iterations or stalled below the minimum step.

    residual_history holds the residual sup norm of each iterate, the start
    first, when a Newton loop (_newton_pool, or the extended systems'
    continuation._extended_newton) raised it; it is empty otherwise.
    residual_norm is a Pair's sup norm when the iterate ended paired, and a
    float64 one otherwise.
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

    def residual_values(self, u: np.ndarray, a: float, c: float, out=None,
                        work=None) -> np.ndarray:
        """F(u) at (a, c) in float64; the residual of a Pair is
        Ladder.residual's, which starts from this one at its hi.

        Rows of a (..., n) stack are evaluated independently, each exactly
        as it would be on its own. The terms are summed in place, in the
        order ((Delta_h u + a u) - f) - c h. The result is written into out,
        a float64 array of u's shape, and work, a float64 array of shape
        (2, m) with m at least (n + 2) times the rows of u, is the scratch,
        its leading entries viewed as contiguous arrays; each is allocated
        when omitted, so a caller that passes both allocates no array of
        u's size. The bits do not depend on which are passed.
        """
        u = np.asarray(u, dtype=float)
        scratch = excess = None
        if work is not None:
            scratch, excess = work[1, :u.size].reshape(u.shape), work[0, :u.size].reshape(u.shape)
        out = self._nested_laplacian(u, out, work)
        out += np.multiply(float(a), u, out=scratch)
        out -= ramp_values(self.nonlinearity, u, out=scratch, work=excess)
        out -= float(c) * self.harvest.values
        return out

    def _nested_laplacian(self, v: np.ndarray, out=None, work=None) -> np.ndarray:
        """Delta_h v along the last axis in float64, into out when given,
        with the work of residual_values as scratch when given.

        Evaluated as nested first differences rather than through the
        expanded stencil: neighbor subtractions of a smooth field are exact
        in floating point, which keeps the evaluation noise near 1e-13
        instead of the ~1e-9 the 1/h^2-scaled products would give. These
        are the operations of np.diff(n=2) on v padded with its zero
        boundary values, without its and np.concatenate's Python layers.
        """
        n = v.shape[-1]
        if work is None:
            padded, d1 = np.zeros(v.shape[:-1] + (n + 2,)), None
        else:
            rows = v.size // n
            padded = work[1, :rows * (n + 2)].reshape(*v.shape[:-1], n + 2)
            padded[..., ::n + 1] = 0.0
            d1 = work[0, :rows * (n + 1)].reshape(*v.shape[:-1], n + 1)
        padded[..., 1:-1] = v
        d1 = np.subtract(padded[..., 1:], padded[..., :-1], out=d1)
        out = np.subtract(d1[..., 1:], d1[..., :-1], out=out)
        out /= np.float64(self.domain.spacing) ** 2
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


class Pair(NamedTuple):
    """A value carried as the unevaluated float64 sum hi + lo (Dekker, A
    floating-point technique for extending the available precision, Numer.
    Math. 18, 1971): hi is the float64 nearest the sum and lo the rest, so
    the pair holds about twice float64's digits. hi and lo are two floats
    or two arrays of one shape."""

    hi: Any
    lo: Any


def two_sum(x, y) -> Pair:
    """x + y exactly, as fl(x + y) and its rounding error (Knuth, The Art of
    Computer Programming 2, 4.2.2, Theorem B): six float64 operations and no
    branch, for floats and arrays alike."""
    s = x + y
    z = s - x
    return Pair(s, (x - (s - z)) + (y - z))


class Ladder:
    """The precision ladder that every Newton loop of the package climbs,
    _NewtonPool's rows and continuation._extended_newton alike.

    A float64 vector of amplitude ~4 cannot represent a steady state to
    better than a (4 / h^2) ulp(|u|) / 2 sup-norm defect, about 2e-10 at
    n = 399 and 4e-9 at n = 1599: far below the switch FLOAT64_PHASE_TOL,
    but at or above NEWTON_TOL, so a pure float64 iteration stalls right at
    the tolerance. So an iterate is a float64 field while its residual sup
    norm is above the switch (hands_over), and from the first iterate at or
    below it a Pair u = hi + lo, which carries the digits hi loses. Four
    operations make the ladder:

    - hands_over: the test against the switch.
    - promote: the hand-over's Pair. An iterate u = fl(u_from + du) that a
      float64 step made is promoted as two_sum(u_from, du), the step's
      unrounded sum, so its rounding costs no extra step; its hi is u bit
      for bit. An iterate no step made is its own hi, with lo = 0.
    - residual: F(hi + lo) = F(hi) + J(hi) lo + a_lo hi - c_lo h, where a
      and c are Pairs, F(hi) is the float64 residual_values and J(hi) the
      float64 Jacobian the Newton step builds at hi. The nested-difference
      F(hi) is accurate to about 1e-13, and the linear term puts back what
      hi's rounding moved; the dropped term, f''(hi) lo^2 / 2, is about
      1e-31.
    - update: the Pair u + du of a float64 correction du.

    evaluate measures a Pair state from scratch, for a certificate outside
    a loop.
    """

    def __init__(self, problem: Problem):
        self.problem = problem

    @staticmethod
    def hands_over(norm):
        return norm <= FLOAT64_PHASE_TOL

    @staticmethod
    def promote(u_from, du) -> Pair:
        return two_sum(u_from, du)

    def residual(self, F: np.ndarray, diag: np.ndarray, lo: np.ndarray, hi=None,
                 a_lo: float = 0.0, c_lo: float = 0.0) -> np.ndarray:
        """F(hi + lo) into F, which holds F(hi) at (a.hi, c.hi); diag is
        J(hi)'s diagonal (rows of a stack share the Laplacian's
        off-diagonal), and hi is needed only with a nonzero a_lo."""
        F += _tridiagonal_apply(diag, self.problem.laplacian.off, lo)
        if a_lo:
            F += a_lo * hi
        if c_lo:
            F -= c_lo * self.problem.harvest.values
        return F

    def evaluate(self, u: Pair, a: Pair, c: Pair) -> np.ndarray:
        """F(u.hi + u.lo) at (a.hi + a.lo, c.hi + c.lo), J(hi) built here."""
        F = self.problem.residual_values(u.hi, a.hi, c.hi)
        diag = self.problem.jacobian_operator(u.hi, a.hi).diag
        return self.residual(F, diag, u.lo, u.hi, a.lo, c.lo)

    @staticmethod
    def update(u: Pair, du) -> Pair:
        """u + du as a Pair: two_sum of hi and du, whose error joins lo, and
        two_sum again so that hi is the float64 nearest the sum. It is
        exact when the one rounded operation, the error plus lo, is: both
        lie within an ulp of the sum, so what it can lose is below that ulp
        times 2^-53."""
        s, e = two_sum(u.hi, du)
        return two_sum(s, e + u.lo)


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
    - eta = beta ||F(u*)||_2, with the residual of the float64 field u*:
      the Pair residual (Ladder) of u* with lo = 0, which is its float64
      residual_values.

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
    f0 = float(np.linalg.norm(problem.residual_values(u, point.a, point.c)))
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


def _newton_pool(problem: Problem, starts, a: float, c: float, max_iter: int,
                 width: int, balls=()):
    """Damped Newton from each of a stream of start fields at fixed (a, c),
    width rows at a time: a generator of (start index, ending, end) as rows
    end, in the order they end. starts yields the fields in start order, or
    None for a start not ready yet; the pool then takes no start until its
    next round, and raises RuntimeError if no row is live to wait on.

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

    Precision: the Ladder, every row solving its correction through the
    float64 factorization at its float64 iterate, hi in a paired row. A
    start whose residual norm is above FLOAT64_PHASE_TOL begins unpaired,
    its iterate, residual and step held in float64. A trial whose float64
    norm is at or below the switch is measured again as a Pair, promoted
    from the iterate and the step that made it (Ladder.promote), and the
    Armijo test decides on that norm; once such a trial is accepted the
    row is paired, and from then on steps by Ladder.update and is measured
    by Ladder.residual. A start already at or below the switch is admitted
    paired with lo = 0, where its Pair residual is its float64 one. The
    convergence test, and the residual and history entries at or below the
    switch, are the Pair's; a NonConvergence that ends on an unpaired row
    carries a float64 norm. max_iter counts every iteration of a row.

    The pool: at most width rows are live, in buffers allocated once per
    call that every round writes in place (_NewtonPool). A round makes one
    gtsv call over the block-diagonal stack of every live row's float64
    Jacobian, which yields each block's correction and pivots at once; the
    zero seam couplings keep every block's pivots and solution those of
    the block alone. The rows then share each residual evaluation of the
    line search, and each row has its own step length and iteration count,
    so each row ends exactly as it does alone, whatever the width and
    whatever rows share its rounds. The pool takes the starts in order,
    width at first and then one into each slot freed by a row that ends,
    at the end of each round, as long as they are ready.

    Early exit: balls is a list of (center, radius) pairs, a zero u* as a
    float64 field and its newton_ball radius rho, that the caller may
    extend between two ends. After each step of a row that was unpaired
    when the step began, the row ends if its iterate lies within rho / 2 of
    a center (_ball_index, which keeps a margin for the rounding of the
    distance), whether or not that step paired it. Soundness: from the half
    ball the full Newton point lies within 5 rho / 12 of u*, and a damped
    step is a convex combination of the iterate and that point, so the row
    cannot leave the half ball; computed steps miss the exact ones by
    orders of magnitude less than the rho / 12 to spare. The ball holds one
    zero, so the row would have ended on u*, within newton_ball's capture
    distance, or failed: a caller that keeps zeros farther apart than that
    keeps the same set either way.

    Each row ends once: "converged" with the end (float64 iterate, hi in a
    paired row, residual norm, residual history), "ball-exit" with the
    index of the ball in balls, and "stalled", "out-of-iterations" or
    "singular-jacobian" with the NonConvergence or SingularJacobian that
    ended it; a NonConvergence carries the row's residual history.
    """
    return _NewtonPool(problem, a, c, max_iter, width).run(iter(starts), balls)


def _newton_rows(problem: Problem, starts, a: float, c: float, max_iter: int):
    """_newton_pool with every start in one pool and no balls: one end per
    start, in start order."""
    out: list = [None] * len(starts)
    for i, _, end in _newton_pool(problem, starts, a, c, max_iter, max(1, len(starts))):
        out[i] = end
    return out


class _NewtonPool:
    """The buffers and rounds of one _newton_pool call. The live rows are
    packed into the first k rows of buffers of the pool's width that every
    round writes in place: float64 iterates u (a paired row's hi),
    residuals r, the trial pair of the line search (u_trial, r_trial), the
    corrections delta, and the work of Problem.residual_values, whose two
    rows also serve as scratch between residual evaluations (view). Per
    row: its start index, whether it is paired, a paired row's lo, its
    residual norm, residual history and iterations taken. The row buffers
    are one allocation, whose pages are touched only as rows are used; a
    paired row's lo is an array of its own, since the few paired rows sit
    in any slot and a lo buffer would be touched at every one of them. The
    shared gtsv call of a round works in buffers free at that point: the
    Jacobian diagonals in the residual work's first row, the two
    off-diagonal copies in the trial pair and the right-hand sides in
    delta."""

    def __init__(self, problem: Problem, a: float, c: float, max_iter: int, width: int):
        n = problem.domain.n_interior
        self.problem, self.a, self.c, self.max_iter, self.width = problem, a, c, max_iter, width
        self.ladder = Ladder(problem)
        self.u, self.r, self.u_trial, self.r_trial, self.delta = np.empty((5, width, n))
        self.work = np.empty((2, width * (n + 2)))
        self.index, self.iters = np.zeros((2, width), dtype=np.intp)
        self.rnorm = np.zeros(width)
        self.paired = np.zeros(width, dtype=bool)
        self.lo: list = [None] * width
        self.history: list = [None] * width
        self.k = 0
        self.admitted, self.exhausted = 0, False
        self.n_balls, self.balls = 0, None

    def run(self, starts, balls):
        """The rounds: admit, solve, step, until no row is live and no start
        is left."""
        self.admit(starts)
        while self.k:
            yield from self.solve()
            yield from self.step(balls)
            self.admit(starts)
        if not self.exhausted:
            raise RuntimeError("the next start is not ready and no row is live")

    def view(self, row: int, m: int) -> np.ndarray:
        """A contiguous (m, n) view of one row of the residual work."""
        n = self.u.shape[1]
        return self.work[row, :m * n].reshape(m, n)

    def residual(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.problem.residual_values(u, self.a, self.c, out=out, work=self.work)

    def jacobian_diagonal(self, u: np.ndarray, out=None) -> np.ndarray:
        """The diagonal of the float64 Jacobian at each row of u."""
        diag = ramp_slope(self.problem.nonlinearity, u, out=out)
        np.subtract(self.a, diag, out=diag)
        diag += self.problem.laplacian.diag
        return diag

    def admit(self, starts):
        """Fill the free slots with the next starts, in start order, up to
        the first that is not ready. A start whose residual norm is at or
        below FLOAT64_PHASE_TOL is admitted paired, with lo = 0."""
        first = self.k
        for _ in range(self.width - self.k):
            try:
                u0 = next(starts)
            except StopIteration:
                self.exhausted = True
                break
            if u0 is None:
                break
            self.u[self.k], self.index[self.k] = u0, self.admitted
            self.admitted += 1
            self.k += 1
        if first == self.k:
            return
        rows = slice(first, self.k)
        x = _row_norms(self.residual(self.u[rows], self.r[rows]), self.view(0, self.k - first))
        self.rnorm[rows], self.iters[rows] = x, 0
        self.history[rows] = [[v] for v in x.tolist()]
        self.paired[rows] = self.ladder.hands_over(x)
        self.lo[rows] = [np.zeros(self.u.shape[1]) if p else None for p in self.paired[rows]]

    def system(self):
        """Write the float64 Jacobian diagonal and -F of every live row into
        the residual work's first row and delta, and return those two
        views."""
        k = self.k
        diag = self.jacobian_diagonal(self.u[:k], out=self.view(0, k))
        return diag, np.negative(self.r[:k], out=self.delta[:k])

    def solve_stack(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve the block-diagonal stack of the rows of diag and rhs by one
        gtsv call in place, rhs becoming the corrections, and return each
        block's smallest pivot magnitude. An exactly zero pivot stops gtsv;
        the pivots then come from _block_solve on rebuilt operands, and the
        corrections are left unfinished."""
        k, n = diag.shape
        off = self.problem.laplacian.off
        lower, upper = self.u_trial[:k], self.r_trial[:k]
        for seams in (lower, upper):
            seams[:, :-1] = off
            seams[:, -1] = 0.0
        _, d, info = _gtsv_in_place(diag.reshape(-1), lower.reshape(-1)[:-1],
                                    upper.reshape(-1)[:-1], rhs.reshape(-1))
        if info:
            diag, rhs = self.system()
            return _block_solve(diag, np.tile(np.append(off, 0.0), k), rhs)[1]
        return np.abs(d, out=d).reshape(k, n).min(axis=1)

    def solve(self):
        """The corrections of every live row; yields the rows that end
        before stepping (converged, out of iterations or singular) and
        drops them."""
        diag, rhs = self.system()
        # the Jacobians share the Laplacian's uniform off-diagonal
        norms = _stack_norms_inf(diag, self.problem.laplacian.off, self.view(1, self.k))
        threshold = _pivot_threshold(self.problem, norms)
        pivots = self.solve_stack(diag, rhs)
        sound = pivots >= threshold
        rnorm = self.rnorm[:self.k]
        converged = rnorm < NEWTON_TOL
        out_of_steps = self.iters[:self.k] == self.max_iter
        leaving = (~sound | converged | out_of_steps).nonzero()[0]
        for i in leaving:
            u64 = self.u[i].copy()
            if out_of_steps[i] and not converged[i]:
                end = "out-of-iterations", NonConvergence(
                    f"no convergence in {self.max_iter} iterations "
                    f"(residual {rnorm[i]:.3e})",
                    u64, float(rnorm[i]), self.history[i],
                )
            elif sound[i]:
                end = "converged", (u64, float(rnorm[i]), tuple(self.history[i]))
            else:
                end = "singular-jacobian", SingularJacobian(float(pivots[i]),
                                                            float(threshold[i]))
            yield (int(self.index[i]), *end)
        self.drop(leaving)
        if not sound.all() and self.k:
            # an unsound block's solution can overflow and feed 0 * inf =
            # NaN through its seams into its neighbours, and an exactly
            # singular one stops gtsv: solve again without them
            self.solve_stack(*self.system())

    def step(self, balls=()):
        """One damped step of every live row along its correction; pairs
        the rows whose accepted trial is at or below the switch and yields
        the rows that stall or exit in a ball."""
        k, ladder = self.k, self.ladder
        rnorm, delta, paired = self.rnorm[:k], self.delta[:k], self.paired[:k]
        unpaired = ~paired
        step = np.ones(k)
        searching = np.arange(k)
        first = True
        while searching.size:
            m = searching.size
            s, f0 = step[searching], rnorm[searching]
            u, r = self.u[:k], self.r[:k]
            u_trial, r_trial = self.u_trial[:m], self.r_trial[:m]
            if first:
                # every row's trial at step 1, where 1 * delta is delta
                np.add(u, delta, out=u_trial)
            else:
                np.take(u, searching, axis=0, out=u_trial, mode="clip")
                # the work is free until the residual evaluation
                scaled = np.take(delta, searching, axis=0, out=self.view(1, m), mode="clip")
                scaled *= s[:, None]
                u_trial += scaled
            # the trials measured as Pairs, by position, and their lo
            pairs = paired[searching]
            at = pairs.nonzero()[0]
            if at.size:
                rows = searching[at]
                pair = Pair(u[rows], np.stack([self.lo[i] for i in rows]))
                u_trial[at], lo = ladder.update(pair, delta[rows] * s[at, None])
            self.residual(u_trial, r_trial)
            f_trial = _row_norms(r_trial, self.view(0, m))
            handing = ~pairs & ladder.hands_over(f_trial)
            if handing.any():
                rows = searching[handing]
                # its hi is the float64 trial, bit for bit
                promoted = ladder.promote(u[rows], delta[rows] * s[handing, None]).lo
                lo = np.concatenate((lo, promoted)) if at.size else promoted
                at = np.concatenate((at, handing.nonzero()[0]))
            if at.size:
                diag = self.jacobian_diagonal(u_trial[at], out=self.view(1, at.size))
                r_pair = ladder.residual(r_trial[at], diag, lo)
                r_trial[at], f_trial[at] = r_pair, _row_norms(r_pair)
            accept = np.isfinite(f_trial) & (f_trial <= (1.0 - 1e-4 * s) * f0)
            if at.size:
                kept = accept[at]
                for i, lo_i in zip(searching[at[kept]], lo[kept]):
                    self.lo[i] = lo_i
                paired[searching[handing & accept]] = True
            rejected = ~accept
            if first and 2 * accept.sum() > m:
                # the trials become the iterates; the fewer rejected rows
                # are copied back
                self.u, self.u_trial = self.u_trial, self.u
                self.r, self.r_trial = self.r_trial, self.r
                if rejected.any():
                    u_trial[rejected], r_trial[rejected] = u[rejected], r[rejected]
            elif accept.any():
                u[searching[accept]], r[searching[accept]] = u_trial[accept], r_trial[accept]
            rnorm[searching[accept]] = f_trial[accept]
            if not rejected.any():
                break
            first = False
            s, f0, f_trial = s[rejected], f0[rejected], f_trial[rejected]
            searching = searching[rejected]
            # fmax turns the NaN of a non-finite trial into the lower bound
            q = (f_trial - f0 + s * f0) / s**2
            step[searching] = np.minimum(np.fmax(f0 / (2.0 * q), 0.1 * s), 0.5 * s)
            searching = searching[step[searching] >= ARMIJO_MIN_STEP]
        self.iters[:k] += 1
        for h, x in zip(self.history[:k], rnorm.tolist()):
            h.append(x)
        gone = step < ARMIJO_MIN_STEP
        for i in gone.nonzero()[0]:
            yield (int(self.index[i]), "stalled", NonConvergence(
                f"line search stalled at residual {rnorm[i]:.3e}",
                self.u[i].copy(), float(rnorm[i]), self.history[i],
            ))
        if balls and unpaired.any():
            rows = unpaired.nonzero()[0]
            # rows paired before this step are left out of the product; the
            # trial buffer is free until the next round
            u = self.u[:k] if rows.size == k else np.take(
                self.u, rows, axis=0, out=self.u_trial[:rows.size])
            ball = _ball_index(u, *self.ball_arrays(balls))
            exits = ~gone[rows] & (ball >= 0)
            for i, b in zip(rows[exits], ball[exits]):
                yield (int(self.index[i]), "ball-exit", int(b))
            gone[rows[exits]] = True
        self.drop(gone.nonzero()[0])

    def drop(self, gone):
        """Remove the rows at positions gone (ascending, below k): the last
        rows move into the holes."""
        if not len(gone):
            return
        k = self.k - len(gone)
        holes = [i for i in gone if i < k]
        movers = sorted(set(range(k, self.k)).difference(gone))
        for i, j in zip(holes, movers):
            self.u[i], self.r[i], self.delta[i] = self.u[j], self.r[j], self.delta[j]
            self.index[i], self.rnorm[i], self.iters[i] = self.index[j], self.rnorm[j], self.iters[j]
            self.paired[i], self.lo[i] = self.paired[j], self.lo[j]
            self.history[i] = self.history[j]
        self.k = k

    def ball_arrays(self, balls):
        """(centers, radii) of balls as a (k, n) stack and an array, built
        again only when balls has grown."""
        if len(balls) != self.n_balls:
            centers, radii = zip(*balls)
            self.n_balls, self.balls = len(balls), (np.stack(centers), np.array(radii))
        return self.balls


def _stack_norms_inf(diag: np.ndarray, off: np.ndarray, scratch=None) -> np.ndarray:
    """Infinity norm of each of a stack of symmetric tridiagonal matrices,
    the rows of diag, that share the uniform off-diagonal off of
    assemble_laplacian: np.max(grid._row_abs_sums(diag, off), axis=1) bit
    for bit, from one maximum over |diag| per row, which is written into
    scratch (diag's shape) when given. With every |off| equal to o, an
    interior row sums to (|d_i| + o) + o and the end rows to |d_0| + o and
    |d_n-1| + o; rounding is monotone, so the largest interior sum is the
    one of the largest interior |d_i|. NaN and inf pass through as they do
    in the row sums."""
    ad = np.abs(diag, out=scratch)
    o = abs(float(off[0]))
    norms = ad[:, 1:-1].max(axis=1)
    norms += o
    norms += o
    np.maximum(norms, ad[:, 0] + o, out=norms)
    np.maximum(norms, ad[:, -1] + o, out=norms)
    return norms


def _block_solve(diag: np.ndarray, seams: np.ndarray, rhs: np.ndarray):
    """Solve each block of a block-diagonal stack of symmetric tridiagonal
    systems, the rows of diag and rhs, by gtsv calls on copies of the
    stack. seams is the stack's off-diagonal pattern (each block's
    couplings, then a zero seam), at least as long as the stack needs.

    Returns the (k, n) solutions and the smallest pivot magnitude of each
    block. An exactly zero pivot stops gtsv in block (info - 1) // n; that
    block gets pivot 0.0 and the stack is solved again without it. The
    solutions are None when a block was dropped: its row was never solved.
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


def _row_norms(r: np.ndarray, scratch=None) -> np.ndarray:
    """Sup norm of each row of r, as float64; |r| is written into scratch
    (r's shape and dtype) when given."""
    return np.max(np.abs(r, out=scratch), axis=1).astype(float, copy=False)


def newton_solve(
    problem: Problem, init: DiscreteField, a: float, c: float,
    prev: SpectrumSlice | Sequence[np.ndarray] | None = None,
) -> SolutionPoint:
    """Damped Newton from init at fixed (a, c), at most NEWTON_MAX_ITER
    iterations: the one-start case of _newton_rows. Raises the
    SingularJacobian or NonConvergence that ended it; the reported
    residual_norm is the converged residual of the Pair iterate, the stored
    field its hi. prev, the spectrum of a nearby state
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
