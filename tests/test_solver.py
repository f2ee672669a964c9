import numpy as np
import pytest

from bifurcate.grid import (
    PI_LONGDOUBLE,
    DiscreteField,
    build_grid,
    dirichlet_eigenvalue_exact,
    laplacian_eigenpairs,
)
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap
from bifurcate.solver import (
    Diverged,
    NonConvergence,
    Problem,
    SingularJacobian,
    classify_state,
    jacobian,
    newton_solve,
    time_march,
)

A_REF = 20.0


@pytest.fixture(scope="module")
def problem(domain):
    return Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def modes(domain, problem):
    pairs = laplacian_eigenpairs(domain, 2, harvest=problem.harvest)
    return pairs


@pytest.fixture(scope="module")
def u_plus(problem, modes):
    """The positive stable state at a = 20, c = 0."""
    phi = modes[0].eigenfunction
    return newton_solve(problem, DiscreteField(problem.domain, 3 * phi.values), A_REF, 0.0)


def test_residual_zero_state(problem, domain):
    zero = DiscreteField.zero(domain).values
    assert np.all(problem.residual_values(zero, 37.0, 0.0) == 0.0)


def test_residual_pure_harvest(problem, domain):
    zero = DiscreteField.zero(domain).values
    assert np.allclose(
        problem.residual_values(zero, A_REF, 1.0), -problem.harvest.values, atol=0
    )


def test_residual_on_first_eigenray(problem, domain, modes):
    # u = t*phi at a = lambda1 with t <= M keeps f inactive, so the state is
    # steady in exact arithmetic; verify at the float64 level and then, for
    # the sharp claim, with long-double sine samples
    lam1 = modes[0].eigenvalue
    t = 0.2
    u64 = t * modes[0].eigenfunction.values
    r64 = np.max(np.abs(problem.residual_values(u64, lam1, 0.0)))
    assert r64 < 1e-9
    ld = np.longdouble
    x = (ld(domain.length) / ld(domain.n_interior + 1)) * np.arange(
        1, domain.n_interior + 1, dtype=ld
    )
    phi_ld = np.sin(PI_LONGDOUBLE * x)
    r_ld = problem.residual_values(ld(t) * phi_ld, lam1, 0.0)
    assert r_ld.dtype == ld
    assert np.max(np.abs(r_ld)) < 1e-12


def test_residual_preserves_long_double(problem, domain):
    v = np.full(domain.n_interior, 0.1, dtype=np.longdouble)
    out = problem.residual_values(v, 10.0, 0.0)
    assert out.dtype == np.longdouble


def test_jacobian_at_zero(problem, domain):
    state = problem.state(DiscreteField.zero(domain), A_REF, 0.0)
    J = jacobian(state)
    assert np.allclose(J.diag, problem.laplacian.diag + A_REF, atol=0)
    assert np.array_equal(J.off, problem.laplacian.off)


def test_jacobian_constant_state(problem, domain):
    state = problem.state(DiscreteField(domain, np.ones(domain.n_interior)), A_REF, 0.0)
    J = jacobian(state)
    fprime = 3 * 0.8**2
    assert np.allclose(J.diag, problem.laplacian.diag + A_REF - fprime, rtol=1e-15)


def test_jacobian_directional_derivative(problem, domain, modes):
    # finite-difference check away from the ramp kink
    phi = modes[0].eigenfunction.values
    u = 1.0 + 2.0 * phi
    rng = np.random.default_rng(11)
    v = np.sin(np.pi * domain.nodes) * rng.uniform(0.5, 1.5)
    eps = 1e-6
    fd = (
        problem.residual_values(u + eps * v, A_REF, 0.0)
        - problem.residual_values(u, A_REF, 0.0)
    ) / eps
    Jv = problem.jacobian_operator(u, A_REF).apply(v)
    assert np.max(np.abs(fd - Jv)) < 1e-3


def test_newton_zero_solution(problem, domain):
    pt = newton_solve(problem, DiscreteField.zero(domain), A_REF, 0.0)
    assert np.max(np.abs(pt.u.values)) < 1e-12
    assert pt.morse_index == 1
    assert pt.tag == "index-1"
    assert not pt.degenerate


def test_newton_positive_stable_state(problem, u_plus):
    K = critical_cap(problem.nonlinearity, A_REF)
    assert u_plus.tag == "stable"
    assert u_plus.morse_index == 0
    assert u_plus.residual_norm < 1e-10
    assert np.min(u_plus.u.values) > 0.0
    assert np.max(u_plus.u.values) <= K + 1e-8
    assert np.max(u_plus.u.values) == pytest.approx(3.9258274303496, abs=1e-8)


def test_newton_quadratic_convergence(u_plus):
    hist = u_plus.residual_history
    small = [
        (hist[i], hist[i + 1]) for i in range(len(hist) - 1) if hist[i] < 1e-2
    ]
    assert small, "history never entered the quadratic regime"
    for r_k, r_next in small:
        assert r_next <= 0.5 * r_k**2


def test_newton_singular_at_eigenvalue(problem, domain):
    lam1 = dirichlet_eigenvalue_exact(domain, 1)
    with pytest.raises(SingularJacobian):
        newton_solve(problem, DiscreteField.zero(domain), lam1, 0.0)


def test_newton_nonconvergence_paths(problem, domain, modes):
    phi = modes[0].eigenfunction.values
    with pytest.raises(NonConvergence):
        newton_solve(
            problem, DiscreteField(domain, 3 * phi), A_REF, 0.0, max_iter=2
        )
    # far beyond the fold there is nothing to converge to
    with pytest.raises(NonConvergence):
        newton_solve(problem, DiscreteField.zero(domain), A_REF, 1e3)


def test_newton_deterministic(problem, domain, modes):
    phi = modes[0].eigenfunction.values
    a1 = newton_solve(problem, DiscreteField(domain, 3 * phi), A_REF, 0.0)
    a2 = newton_solve(problem, DiscreteField(domain, 3 * phi), A_REF, 0.0)
    assert np.array_equal(a1.u.values, a2.u.values)
    assert a1.residual_norm == a2.residual_norm


def test_classify_state_accepts_degenerate_segment(problem, domain, modes):
    lam2 = modes[1].eigenvalue
    psi = modes[1].eigenfunction.values
    pt = classify_state(problem, DiscreteField(domain, 0.2 * psi), lam2, 0.0)
    assert pt.degenerate
    assert pt.morse_index == 1
    assert pt.tag == "degenerate-1"


def test_classify_state_rejects_nonsteady(problem, domain, modes):
    phi = modes[0].eigenfunction
    with pytest.raises(ValueError):
        classify_state(problem, phi, A_REF, 0.0)


def test_classify_state_takes_a_given_residual(problem, domain, modes, u_plus):
    # no residual check when the caller vouches for rnorm
    phi = modes[0].eigenfunction
    pt = classify_state(problem, phi, A_REF, 0.0, rnorm=0.5)
    assert pt.residual_norm == 0.5
    # Newton's points are classified on the same path
    again = classify_state(
        problem, u_plus.u, A_REF, 0.0, rnorm=u_plus.residual_norm,
        residual_history=u_plus.residual_history,
    )
    for attr in ("residual_norm", "residual_history", "morse_index", "degenerate", "tag"):
        assert getattr(again, attr) == getattr(u_plus, attr)
    assert np.array_equal(again.spectrum.eigenvalues, u_plus.spectrum.eigenvalues)


def test_state_validation(problem, domain):
    with pytest.raises(ValueError):
        problem.state(DiscreteField.zero(domain), np.inf, 0.0)
    other = build_grid(11, 1.0)
    with pytest.raises(ValueError):
        problem.state(DiscreteField.zero(other), 10.0, 0.0)


def test_march_decay_below_first_eigenvalue(problem, domain):
    rng = np.random.default_rng(3)
    u0 = DiscreteField(domain, 0.01 * rng.standard_normal(domain.n_interior))
    out = time_march(problem, u0, 5.0, 0.0, dt=1e-3, T=10.0)
    assert domain.l2_norm(out.values) < 1e-6


def test_march_agrees_with_newton(problem, domain, modes, u_plus):
    phi = modes[0].eigenfunction.values
    out = time_march(problem, DiscreteField(domain, 3 * phi), A_REF, 0.0, dt=1e-3, T=5.0)
    assert domain.l2_norm(out.values - u_plus.u.values) < 1e-5


def test_march_returns_after_perturbation(problem, domain, u_plus):
    rng = np.random.default_rng(5)
    u0 = DiscreteField(
        domain, u_plus.u.values + 0.01 * rng.standard_normal(domain.n_interior)
    )
    out = time_march(problem, u0, A_REF, 0.0, dt=1e-3, T=5.0)
    assert domain.l2_norm(out.values - u_plus.u.values) < 1e-5


def test_march_leaves_unstable_zero_along_first_mode(problem, domain, modes):
    phi = modes[0].eigenfunction
    phi_sq = domain.inner(phi.values, phi.values)
    u = DiscreteField(domain, 0.01 * phi.values)
    projections = [domain.inner(u.values, phi.values) / phi_sq]
    for _ in range(5):
        u = time_march(problem, u, A_REF, 0.0, dt=1e-3, T=0.1)
        projections.append(domain.inner(u.values, phi.values) / phi_sq)
    assert all(b > a for a, b in zip(projections, projections[1:]))


def test_march_divergence_detected(problem, domain, modes):
    phi = modes[0].eigenfunction.values
    with pytest.raises(Diverged) as err:
        time_march(problem, DiscreteField(domain, -5.0 * phi), A_REF, 0.0, dt=1e-3, T=3.0)
    assert 0 < err.value.time < 3.0


def test_march_validation(problem, domain):
    u0 = DiscreteField.zero(domain)
    with pytest.raises(ValueError):
        time_march(problem, u0, A_REF, 0.0, dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        time_march(problem, u0, A_REF, 0.0, dt=1e-3, T=-1.0)


def test_stable_states_satisfy_positivity_criterion(problem, u_plus):
    # stable implies nonnegative with interior max above the threshold, and
    # such states in turn have a positive bottom eigenvalue
    M = problem.nonlinearity.M
    assert np.min(u_plus.u.values) >= -1e-10
    assert np.max(u_plus.u.values) > M
    assert u_plus.spectrum.mu1 > 0


def test_max_principle_bound_for_nonnegative_harvest(problem, u_plus):
    K = critical_cap(problem.nonlinearity, A_REF)
    for c in (0.0, 0.1, 0.3):
        pt = newton_solve(problem, u_plus.u, A_REF, c)
        assert np.max(pt.u.values) <= K + 1e-8


def test_superharmonic_near_zero_harvest(problem, u_plus):
    for c in (0.005, -0.005):
        pt = newton_solve(problem, u_plus.u, A_REF, c)
        assert pt.tag == "stable"
        f = np.maximum(pt.u.values - problem.nonlinearity.M, 0.0) ** 3
        surplus = A_REF * pt.u.values - f - c * problem.harvest.values
        assert np.min(surplus) > -1e-10
