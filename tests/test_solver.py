import hashlib
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcate.grid import (
    PI_LONGDOUBLE,
    DiscreteField,
    _row_abs_sums,
    assemble_laplacian,
    build_grid,
    exact_mode_longdouble,
    laplacian_eigenpairs,
)
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap
from bifurcate import continuation
from bifurcate.diagram import count_solutions
from bifurcate.solver import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    PROJECTION_MAX_ITER,
    Diverged,
    Ladder,
    NonConvergence,
    Pair,
    Problem,
    SingularJacobian,
    SolutionPoint,
    _newton_rows,
    _stack_norms_inf,
    classify_state,
    newton_solve,
    time_march,
)
from bifurcate.spectral import linearized_spectrum

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


def test_residual_on_first_eigenray(
    problem, domain, modes, split, pair_residual, longdouble_residual
):
    # u = t*phi at a = lambda1 with t <= M keeps f inactive, so the state is
    # steady in exact arithmetic; verify at the float64 level and then, for
    # the sharp claim, on long-double sine samples split into a Pair, whose
    # residual the long-double one matches
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
    r_pair = pair_residual(problem, split(ld(t) * phi_ld), lam1)
    assert r_pair < 1e-12
    r_ld = longdouble_residual(problem, ld(t) * phi_ld, lam1, 0.0)
    assert abs(r_pair - float(np.max(np.abs(r_ld)))) <= 1e-13


def test_residual_is_float64(problem, domain):
    """A long-double field is evaluated as its float64 rounding."""
    v = np.full(domain.n_interior, 0.1, dtype=np.longdouble) + np.longdouble(2.0) ** -60
    out = problem.residual_values(v, 10.0, 0.0)
    assert out.dtype == np.float64
    assert np.array_equal(out, problem.residual_values(v.astype(float), 10.0, 0.0))


def _same_bits(x, y):
    """Equal dtype, shape, values and signs of zero."""
    return (
        x.dtype == y.dtype and x.shape == y.shape
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=200),
    rows=st.sampled_from([(), (1,), (4,), (2, 3)]),
    M=st.floats(min_value=0.0, max_value=1.0),
    p_f=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    signed_zeros=st.booleans(),
)
def test_residual_is_the_nested_difference_formula_bit_for_bit(
    nested_difference_residual, n, rows, M, p_f, seed, signed_zeros
):
    """The residual built in place from the padded field's differences gives
    the bits of the np.diff formula, for one field and for stacks of them,
    signed zeros at the boundary included; so does its evaluation into a
    caller's out and a larger work holding stale values."""
    problem = Problem(build_grid(n, 1.0), Nonlinearity(M, p_f), HarvestSpec("bump"))
    rng = np.random.default_rng(seed)
    x = problem.domain.nodes
    u = 10.0 ** rng.uniform(-3, 1) * (np.sin(np.pi * x) + 1e-3 * rng.standard_normal(rows + (n,)))
    if signed_zeros:
        u[..., 0], u[..., -1] = -0.0, 0.0
    a, c = rng.uniform(-5.0, 60.0), rng.uniform(-10.0, 600.0)
    want = nested_difference_residual(problem, u, a, c)
    assert _same_bits(problem.residual_values(u, a, c), want)
    out = np.full_like(u, np.nan)
    work = np.full((2, (u.size // n + 3) * (n + 2)), np.inf, dtype=u.dtype)
    assert problem.residual_values(u, a, c, out=out, work=work) is out
    assert _same_bits(out, want)


def test_jacobian_at_zero(problem, domain):
    J = problem.jacobian_operator(np.zeros(domain.n_interior), A_REF)
    assert np.allclose(J.diag, problem.laplacian.diag + A_REF, atol=0)
    assert np.array_equal(J.off, problem.laplacian.off)


def test_jacobian_constant_state(problem, domain):
    J = problem.jacobian_operator(np.ones(domain.n_interior), A_REF)
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


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    rows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    special=st.sampled_from([None, np.inf, -np.inf, np.nan]),
)
def test_stack_norms_are_the_row_sum_maxima_bit_for_bit(n, rows, seed, special):
    """The one-pass infinity norms of a stack of Jacobians equal the maxima
    of their absolute row sums bit for bit, rows holding inf or NaN (in the
    interior or at either end) included."""
    rng = np.random.default_rng(seed)
    off = assemble_laplacian(build_grid(n, float(rng.uniform(0.1, 10.0)))).off
    diag = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 8, (rows, 1))
    diag[rng.random(diag.shape) < 0.1] = 0.0
    if special is not None:
        for row in diag:
            if rng.random() < 0.5:
                row[rng.choice([0, n - 1, int(rng.integers(n))])] = special
    got = _stack_norms_inf(diag, off)
    want = np.max(_row_abs_sums(diag, off), axis=1)
    assert got.tobytes() == want.tobytes()


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


def _sha16(values):
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def test_newton_singular_at_eigenvalue(problem, domain):
    lam1 = float(exact_mode_longdouble(domain, 1)[0])
    with pytest.raises(SingularJacobian) as info:
        newton_solve(problem, DiscreteField.zero(domain), lam1, 0.0)
    assert str(info.value) == "Jacobian numerically singular (pivot 7.199e-07 < 2.554e-05)"
    assert info.value.min_pivot == 7.198623279691674e-07
    assert info.value.threshold == 2.5535606204808677e-05


def test_newton_nonconvergence_paths(problem, domain, modes):
    """Both NonConvergence endings, pinned to the values the quadratic
    backtracking of _newton_rows gives with float64 iterates above
    FLOAT64_PHASE_TOL: the message, residual and float64 last iterate (sup
    norm and a sha256 prefix of its bytes)."""
    # an iteration cap of 2 stops the climb from 3 phi short of the state
    phi = modes[0].eigenfunction.values
    (end,) = _newton_rows(problem, [3 * phi], A_REF, 0.0, 2)
    assert isinstance(end, NonConvergence)
    assert str(end) == "no convergence in 2 iterations (residual 7.126e+00)"
    assert end.residual_norm == 7.125871277269013
    last = end.last_iterate
    assert (last.dtype, last.shape) == (np.float64, (399,))
    assert float(np.max(np.abs(last))) == 4.185293742554277
    assert _sha16(last) == "d36520119520f7da"
    # the start's residual, then one per iteration
    assert len(end.residual_history) == 3
    assert end.residual_history[-1] == end.residual_norm
    # far beyond the fold there is nothing to converge to
    with pytest.raises(NonConvergence) as info:
        newton_solve(problem, DiscreteField.zero(domain), A_REF, 1e3)
    assert str(info.value) == "line search stalled at residual 1.250e+02"
    assert info.value.residual_norm == 125.01431512475153
    last = info.value.last_iterate
    assert (last.dtype, last.shape) == (np.float64, (399,))
    assert float(np.max(np.abs(last))) == 2.5328466816961708
    assert _sha16(last) == "7802381668742ef5"
    history = info.value.residual_history
    assert len(history) >= 2 and history[-1] == info.value.residual_norm


def test_last_allowed_step_is_tested(problem, modes):
    """A start that reaches the tolerance on its last allowed step is
    converged, with the entry a larger cap gives it; one step fewer leaves it
    out of iterations above the tolerance."""
    phi = modes[0].eigenfunction.values
    (want,) = _newton_rows(problem, [3 * phi], A_REF, 0.0, NEWTON_MAX_ITER)
    steps = len(want[2]) - 1
    (got,) = _newton_rows(problem, [3 * phi], A_REF, 0.0, steps)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    (short,) = _newton_rows(problem, [3 * phi], A_REF, 0.0, steps - 1)
    assert isinstance(short, NonConvergence)
    assert str(short).startswith(f"no convergence in {steps - 1} iterations")
    assert short.residual_norm == want[2][-2] >= NEWTON_TOL
    assert short.residual_history == want[2][:-1]


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
    with pytest.raises(ValueError, match="non-finite parameters"):
        classify_state(problem, DiscreteField.zero(domain), np.inf, 0.0, rnorm=0.0)
    other = build_grid(11, 1.0)
    with pytest.raises(ValueError, match="different grid"):
        linearized_spectrum(problem, DiscreteField.zero(other), 10.0)
    with pytest.raises(ValueError, match="different grid"):
        classify_state(problem, DiscreteField.zero(other), 10.0, 0.0, rnorm=0.0)


def test_classification_is_read_from_the_spectrum(u_plus):
    """A point stores no index, flag or tag: replacing its spectrum's index
    and flag moves all three together."""
    assert [f.name for f in fields(SolutionPoint)] == [
        "problem", "u", "a", "c", "residual_norm", "spectrum", "residual_history"
    ]
    assert (u_plus.morse_index, u_plus.degenerate, u_plus.tag) == (0, False, "stable")
    for index, degenerate, tag in [
        (1, False, "index-1"), (2, False, "index-2"), (0, True, "degenerate-0"),
        (1, True, "degenerate-1"),
    ]:
        forged = replace(
            u_plus, spectrum=replace(u_plus.spectrum, index=index, degenerate=degenerate)
        )
        assert (forged.morse_index, forged.degenerate, forged.tag) == (index, degenerate, tag)
        assert forged.spectrum.eigenvalues == u_plus.spectrum.eigenvalues


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


class TestPairArithmetic:
    """The float64 Pair of solver.Ladder, against exact rationals and against
    the long-double residual."""

    @staticmethod
    def exact(*xs):
        return sum(map(Fraction, xs), Fraction(0))

    def test_promotion_is_exact(self):
        """The promotion of a float64 step is its unrounded sum: hi is the
        float64 iterate the step made, bit for bit, hi + lo equals
        u_from + du exactly, and |lo| is at most half an ulp of hi."""
        rng = np.random.default_rng(3)
        u_from = rng.uniform(-4.0, 4.0, 400)
        du = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-17.0, -1.0, 400)
        hi, lo = Ladder.promote(u_from, du)
        np.testing.assert_array_equal(hi, u_from + du)
        assert all(self.exact(h, l) == self.exact(x, d) for h, l, x, d in zip(hi, lo, u_from, du))
        assert np.all(np.abs(lo) <= 0.5 * np.spacing(np.abs(hi)))
        assert lo.any()
        # scalars, as c and a are carried
        c = Ladder.promote(569.17, 3.3e-9)
        assert self.exact(*c) == self.exact(569.17, 3.3e-9) and isinstance(c, Pair)

    def test_update_is_exact_on_the_ladders_steps(self, monkeypatch):
        """Every Pair update that the README count's Newton rows and the a = 20
        fold refinement make at n = 99, their iterates' and their c's, is
        exact: hi + lo gains du exactly, and hi stays the float64 nearest
        the sum."""
        updates = []
        real = Ladder.update

        def recorded(u, du):
            out = real(u, du)
            updates.append((u, du, out))
            return out

        monkeypatch.setattr(Ladder, "update", staticmethod(recorded))
        problem = Problem(build_grid(99, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        assert len(count_solutions(problem, 40.0, -0.005, 50, 0).members) == 4
        branch = continuation.continue_branch(
            problem, continuation._czero_seed(
                problem, 20.0, problem.modes()[0].eigenfunction.values, True
            ), +1, (-10.0, 1e6)
        )
        assert branch.fold_points()
        arrays = [(u, du, out) for u, du, out in updates if np.ndim(du)]
        scalars = [(u, du, out) for u, du, out in updates if not np.ndim(du)]
        assert len(arrays) > 20 and len(scalars) > 50
        for u, du, out in arrays + scalars:
            his, los, dus = (np.ravel(x) for x in (u.hi, u.lo, du))
            new_hi, new_lo = np.ravel(out.hi), np.ravel(out.lo)
            assert all(
                self.exact(h, l) == self.exact(x, y, d)
                for h, l, x, y, d in zip(new_hi, new_lo, his, los, dus)
            )
            assert np.all(np.abs(new_lo) <= 0.5 * np.spacing(np.abs(new_hi)))

    def test_update_error_is_below_the_second_word(self):
        """Where the one rounded operation of an update, the error of hi + du
        plus lo, does round, the Pair misses the exact sum by less than
        ulp(hi) 2^-53."""
        rng = np.random.default_rng(5)
        hi = rng.uniform(0.5, 4.0, 400)
        lo = rng.uniform(-0.5, 0.5, 400) * np.spacing(hi)
        du = rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.uniform(-20.0, -8.0, 400)
        new = Ladder.update(Pair(hi, lo), du)
        misses = [
            abs(self.exact(h, l) - self.exact(x, y, d)) / Fraction(float(np.spacing(x)))
            for h, l, x, y, d in zip(new.hi, new.lo, hi, lo, du)
        ]
        assert max(misses) < Fraction(1, 2**53)
        assert any(misses)

    @pytest.mark.parametrize("n", [99, 399, 1599])
    def test_pair_residual_matches_long_double_on_branch_states(
        self, n, split, longdouble_residual
    ):
        """On converged branch states, three chart solves across the stable
        branch at a = 20 through c = 1, the Pair residual agrees with the
        long-double residual of the same state node by node to 1e-13. The
        converged Pair is first rounded to the long-double state nearest it,
        which its split represents exactly, so both evaluate one state."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        dom = problem.domain
        phi = problem.modes()[0].eigenfunction.values
        cap = critical_cap(problem.nonlinearity, 20.0)
        pt = newton_solve(problem, DiscreteField(dom, cap * phi), 20.0, 1.0)
        e_sq = dom.inner(phi, phi)
        t0 = dom.inner(pt.u.values, phi) / e_sq
        ld = np.longdouble
        for scale in (0.9, 1.0, 1.1):
            row = (1.0, dom.spacing * phi / e_sq, 0.0, -scale * t0)
            _, u, c, _, rF = continuation._extended_newton(
                problem, 20.0, scale * pt.u.values, pt.c, PROJECTION_MAX_ITER, row=row
            )
            assert rF < NEWTON_TOL
            x, cx = ld(u.hi) + ld(u.lo), ld(c.hi) + ld(c.lo)
            F = Ladder(problem).evaluate(split(x), Pair(20.0, 0.0), split(cx))
            reference = longdouble_residual(problem, x, 20.0, cx)
            assert float(np.max(np.abs(F - reference))) <= 1e-13
