"""Steady-state residual/Jacobian, damped Newton, truncated energy, and an
IMEX time integrator used as an independent stability oracle.

The steady equation on the grid is

    Delta_h u + a u - f(u) - c h = 0,   u = 0 on the boundary,

with f the ramp nonlinearity and h the harvest profile. Everything here is a
pure function of its arguments; concurrent solves are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    DiscreteDomain,
    DiscreteField,
    LinearOperatorBanded,
    assemble_laplacian,
)
from .model import (
    HarvestSpec,
    Nonlinearity,
    critical_cap,
    eval_nonlinearity,
    ramp_values,
)

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
ARMIJO_MIN_STEP = 2.0**-20
PIVOT_RTOL = 1e-13


def degeneracy_tolerance(a: float) -> float:
    """Threshold below which an eigenvalue of the linearization counts as
    zero. Scales with the growth rate so the notion is uniform across
    regimes; shared by solver, spectral and continuation."""
    return 1e-6 * max(1.0, abs(a))


class NonConvergence(RuntimeError):
    """Newton ran out of iterations or stalled below the minimum step."""

    def __init__(self, msg: str, last_iterate: np.ndarray, residual_norm: float):
        super().__init__(msg)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm


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

    def residual_values(self, u: np.ndarray, a: float, c: float) -> np.ndarray:
        # The input dtype (float64 or long double) is preserved, and rows of
        # a (..., n) stack are evaluated independently, each exactly as it
        # would be on its own.
        u = np.asarray(u)
        one = u.dtype.type
        f = ramp_values(self.nonlinearity, u)
        return (
            self._nested_laplacian(u) + one(a) * u - f
            - one(c) * self.harvest.values.astype(u.dtype)
        )

    def _nested_laplacian(self, v: np.ndarray) -> np.ndarray:
        """Delta_h v along the last axis in the dtype of v.

        Evaluated as nested first differences rather than through the
        expanded stencil: neighbor subtractions of a smooth field are exact
        in floating point, which keeps the evaluation noise near 1e-13
        instead of the ~1e-9 the 1/h^2-scaled products would give.
        """
        one = v.dtype.type
        z = np.zeros(v.shape[:-1] + (1,), dtype=v.dtype)
        padded = np.concatenate((z, v, z), axis=-1)
        return np.diff(padded, n=2, axis=-1) / one(self.domain.spacing) ** 2

    def jacobian_operator(self, u: np.ndarray, a: float) -> LinearOperatorBanded:
        fp = eval_nonlinearity(self.nonlinearity, u)[1]
        return self.laplacian.add_diagonal(a - fp)

    def state(self, u: DiscreteField, a: float, c: float) -> "ProblemState":
        return ProblemState(self, u, a, c)

    def modes(self):
        """First two Laplacian eigenpairs with the harvest sign convention,
        computed once per problem and cached."""
        cached = getattr(self, "_modes", None)
        if cached is None:
            from .grid import laplacian_eigenpairs

            cached = tuple(laplacian_eigenpairs(self.domain, 2, harvest=self.harvest))
            object.__setattr__(self, "_modes", cached)
        return cached


@dataclass(frozen=True)
class ProblemState:
    """A candidate triple (u, a, c) on a problem."""

    problem: Problem
    u: DiscreteField
    a: float
    c: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.c)):
            raise ValueError(f"non-finite parameters a={self.a}, c={self.c}")
        if self.u.domain != self.problem.domain:
            raise ValueError("state field lives on a different grid than the problem")


@dataclass(frozen=True)
class SolutionPoint:
    """A converged (or analytically exact) steady state with its
    classification attached."""

    state: ProblemState
    residual_norm: float
    morse_index: int
    spectrum: "SpectrumSlice"  # noqa: F821 (spectral imports this module)
    degenerate: bool
    tag: str
    residual_history: tuple[float, ...] = ()

    @property
    def u(self) -> DiscreteField:
        return self.state.u

    @property
    def a(self) -> float:
        return self.state.a

    @property
    def c(self) -> float:
        return self.state.c


def _classification_tag(index: int, degenerate: bool) -> str:
    if degenerate:
        return f"degenerate-{index}"
    if index == 0:
        return "stable"
    return f"index-{index}"


def jacobian(state: ProblemState) -> LinearOperatorBanded:
    """Linearization Delta_h + a I - diag(f'(u)) at the state."""
    return state.problem.jacobian_operator(state.u.values, state.a)


def _checked_factor(problem: Problem, op: LinearOperatorBanded):
    fac = op.factor()
    threshold = PIVOT_RTOL * problem.domain.n_interior * op.norm_inf()
    if fac.exactly_singular or fac.min_pivot < threshold:
        raise SingularJacobian(fac.min_pivot, threshold)
    return fac


def classify_state(
    problem: Problem,
    u: DiscreteField,
    a: float,
    c: float,
    *,
    tol: float = NEWTON_TOL,
    k_eigs: int = 3,
    residual_history: tuple[float, ...] = (),
    rnorm: float | None = None,
    prev: "SpectrumSlice | None" = None,  # noqa: F821
) -> SolutionPoint:
    """Wrap an already-steady field as a SolutionPoint.

    Attaches the spectrum and its Morse classification but runs no Newton
    iteration, so it also accepts degenerate states (where newton_solve
    would raise SingularJacobian). With rnorm omitted the residual sup norm
    is measured, and ValueError is raised unless it is below tol. A caller
    that converged the state by its own criteria (a Newton or extended
    system solve, a certified exact state, a stored diagram) passes that
    residual as rnorm, and it is taken as given. prev, the spectrum of the
    previous point of a branch, lets linearized_spectrum track the
    eigenpairs from it instead of solving afresh.
    """
    from .spectral import linearized_spectrum, morse_index

    state = problem.state(u, a, c)
    if rnorm is None:
        rnorm = float(np.max(np.abs(problem.residual_values(u.values, a, c))))
        if not rnorm < tol:
            raise ValueError(
                f"field is not a steady state: residual sup norm {rnorm:.3e} "
                f">= {tol:.3e}"
            )
    spectrum = linearized_spectrum(state, k_eigs, prev)
    index, degenerate = morse_index(spectrum)
    return SolutionPoint(
        state,
        rnorm,
        index,
        spectrum,
        degenerate,
        _classification_tag(index, degenerate),
        residual_history,
    )


def newton_solve(
    problem: Problem,
    init: DiscreteField,
    a: float,
    c: float,
    *,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
    k_eigs: int = 3,
) -> SolutionPoint:
    """Damped Newton from init at fixed (a, c).

    Backtracking halves the step until the residual sup norm decreases
    (factor-1/2 Armijo, floor 2^-20); the ramp kink at u = M is what makes
    the damping necessary. The Jacobian is factored and pivot-checked before
    convergence is declared, so landing exactly on a degenerate point raises
    SingularJacobian rather than returning silently.

    The working iterate is kept in long double while corrections are solved
    through the float64 factorization. This matters: a float64 vector of
    amplitude ~4 cannot represent the steady state to better than a ~1e-10
    sup-norm defect at this stencil scale, so a pure float64 iteration can
    stall right at the default tolerance. The reported residual_norm is the
    converged residual of the working iterate; the stored field is its
    float64 rounding.
    """
    ld = np.longdouble
    u = init.values.astype(ld)
    r = problem.residual_values(u, a, c)
    rnorm = float(np.max(np.abs(r)))
    history = [rnorm]

    for _ in range(max_iter):
        u64 = u.astype(float)
        fac = _checked_factor(problem, problem.jacobian_operator(u64, a))
        if rnorm < tol:
            return classify_state(
                problem, DiscreteField(problem.domain, u64), a, c, k_eigs=k_eigs,
                residual_history=tuple(history), rnorm=rnorm,
            )
        delta = fac.solve((-r).astype(float)).astype(ld)
        step = 1.0
        while True:
            u_trial = u + ld(step) * delta
            r_trial = problem.residual_values(u_trial, a, c)
            rnorm_trial = float(np.max(np.abs(r_trial)))
            if np.isfinite(rnorm_trial) and rnorm_trial <= (1.0 - 1e-4 * step) * rnorm:
                break
            step *= 0.5
            if step < ARMIJO_MIN_STEP:
                raise NonConvergence(
                    f"line search stalled at residual {rnorm:.3e}",
                    u.astype(float),
                    rnorm,
                )
        u, r, rnorm = u_trial, r_trial, rnorm_trial
        history.append(rnorm)

    raise NonConvergence(
        f"no convergence in {max_iter} iterations (residual {rnorm:.3e})",
        u.astype(float),
        rnorm,
    )


def _truncated_antiderivative(nl: Nonlinearity, u: np.ndarray, K: float) -> np.ndarray:
    """F_K(u): antiderivative of f truncated to linear growth above K."""
    p = nl.p_f
    rK = max(K - nl.M, 0.0)
    fK = rK**p
    fpK = p * rK ** (p - 1)
    below = np.minimum(u, K)
    F = np.maximum(below - nl.M, 0.0) ** (p + 1) / (p + 1)
    over = np.maximum(u - K, 0.0)
    return F + fK * over + 0.5 * fpK * over**2


def energy_functional(
    problem: Problem, u: DiscreteField, a: float, c: float, K: float
) -> float:
    """Truncated energy I_K(u).

    One-half the Dirichlet energy minus the quadratic growth term, plus the
    antiderivative of the linearly-truncated ramp, plus the harvest work
    term. The gradient part uses forward differences over all n+1 cells, so
    the zero boundary values contribute; this makes I_K exactly compatible
    with the discrete Laplacian (its gradient is minus the residual below
    the truncation level).
    """
    if not K > 0:
        raise ValueError(f"truncation level must be positive, got {K}")
    dom = problem.domain
    h = dom.spacing
    v = u.values
    diffs = np.diff(np.concatenate(([0.0], v, [0.0])))
    dirichlet = float(np.sum(diffs**2)) / h
    quad = dom.inner(v, v)
    FK = _truncated_antiderivative(problem.nonlinearity, v, K)
    return (
        0.5 * (dirichlet - a * quad)
        + dom.integrate(FK)
        + c * dom.inner(problem.harvest.values, v)
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
        f = eval_nonlinearity(problem.nonlinearity, u)[0]
        u = stepper.solve(u + dt * (-f - ch))
        norm = float(np.max(np.abs(u)))
        if not np.isfinite(norm) or norm > bound:
            raise Diverged(k * dt, norm, bound)
    return DiscreteField(dom, u)
