"""Arclength tracing, degenerate-point refinement, swept degenerate curves,
zero-harvest families and the small-amplitude branch formulas.

Reference values were pinned down by routes independent of the code under
test where one exists: the fold amplitude at a = 20 is cross-checked against
a golden-section extremum search over chart-pinned solves, the normal-form
formulas against centered finite differences, and the small-amplitude slopes
against closed forms in pi. The remaining constants are frozen regression
values from converged runs of this module.
"""

import dataclasses

import numpy as np
import pytest

from bifurcate.grid import DiscreteField, build_grid, exact_mode_longdouble, inner_product
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap, eval_nonlinearity
from bifurcate.solver import NEWTON_TOL, NonConvergence, Problem, classify_state, newton_solve
from bifurcate import continuation
from bifurcate.continuation import (
    Branch,
    DegenerateCurve,
    StepCounts,
    StepUnderflow,
    WrongKind,
    branch_derivative_at_zero,
    build_degenerate_segment,
    continue_branch,
    continue_czero_branch,
    delta_window,
    fold_normal_form_checks,
    refine_fold,
    solve_at_projection,
    trace_fold_curve,
    trace_index1_degenerate_curve,
)

# Fold of the stable/index-1 pair at a = 20, confirmed by the extremum oracle
# in test_fold_extremum_oracle_agrees.
C_FOLD_20 = 128.207253840662
FOLD_20_UMAX = 2.39027070824013
FOLD_20_TPROJ = 2.37508676952368

# Fold sweep endpoints over [lam1 + 0.5, 30].
FOLD_SWEEP_C_LO = 2.08162511787
FOLD_SWEEP_C_HI = 334.218982296

# Index-1 degenerate family traced one unit of chart coordinate past the
# segment on both sides (M = 0.2).
DELTA_WINDOW = 0.962759859621

# Structure at a = lam2 + DELTA_WINDOW / 2.
C_NATURAL_FOLD_POS = 6.349357946
C_NATURAL_FOLD_NEG = -6.769673633
C_FOLD_WINDOW = 568.6707341

# Fold of the stable pair exactly at the second eigenvalue.
C_FOLD_AT_LAM2 = 556.9477816

# Chart coordinate of the positive zero-harvest state at lam1 + 0.3 with
# M = 0 (found by the amplitude scan rather than the offset start).
M0_SEED_TPROJ = 0.632854

U_DAG_20_MAX = 3.9258274303496


@pytest.fixture(scope="module")
def problem(domain):
    return Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def modes(problem):
    return problem.modes()


@pytest.fixture(scope="module")
def stable20(problem, modes):
    phi = modes[0]
    init = DiscreteField(
        problem.domain, critical_cap(problem.nonlinearity, 20.0) * phi.eigenfunction.values
    )
    return newton_solve(problem, init, 20.0, 0.0)


@pytest.fixture(scope="module")
def branch20(problem, stable20):
    return continue_branch(
        problem, stable20, +1, (-10.0, 1e6), chart="phi", max_step=2.0
    )


@pytest.fixture(scope="module")
def fold20(branch20):
    folds = branch20.fold_points()
    assert len(folds) == 1
    return folds[0]


@pytest.fixture(scope="module")
def fold_sweep(problem, modes, fold20):
    lam1 = modes[0].eigenvalue
    return trace_fold_curve(problem, fold20, (lam1 + 0.5, 30.0))


@pytest.fixture(scope="module")
def sigma_curve(problem):
    return trace_index1_degenerate_curve(problem, sigma=1.0)


@pytest.fixture(scope="module")
def window_pieces(problem, modes, sigma_curve):
    """The four zero-harvest states and the branch pieces through them at
    a = lam2 + delta/2, the anchored four-solution regime."""
    dom = problem.domain
    phi, psi = modes
    a_ref = psi.eigenvalue + 0.5 * delta_window(problem, sigma_curve)
    psv = psi.eigenfunction.values
    zero = newton_solve(problem, DiscreteField.zero(dom), a_ref, 0.0)
    top = newton_solve(
        problem,
        DiscreteField(dom, critical_cap(problem.nonlinearity, a_ref) * phi.eigenfunction.values),
        a_ref,
        0.0,
    )
    plus = newton_solve(problem, DiscreteField(dom, psv), a_ref, 0.0)
    minus = newton_solve(problem, DiscreteField(dom, -psv), a_ref, 0.0)

    def trace(pt, d, **kw):
        kw.setdefault("chart", "psi")
        kw.setdefault("step0", 0.05)
        kw.setdefault("max_step", 1.0)
        return continue_branch(problem, pt, d, (-30.0, 1e6), **kw)

    return {
        "a_ref": a_ref,
        "zero": zero,
        "top": top,
        "plus": plus,
        "minus": minus,
        "natural_up": trace(zero, +1, max_step=0.1),
        "natural_down": trace(zero, -1, max_step=0.1),
        "sharp_up": trace(plus, +1),
        "sharp_down": trace(plus, -1, max_step=0.1),
        "flat_up": trace(minus, +1, max_step=0.1),
        "top_up": trace(top, +1),
    }


def _assert_index_changes_only_at_events(branch: Branch):
    event_sites = {e.point_index for e in branch.events}
    idx = branch.morse_indices()
    for i in range(len(idx) - 1):
        if idx[i] != idx[i + 1]:
            assert i in event_sites, f"silent index change after point {i}"


def _assert_kernel_conventions(problem, modes, dp):
    """Residual bound, normalization and sign of a degenerate point's kernel
    vector: square integral of the first (index-0) or second (index-1)
    eigenfunction; positive peak for folds, positive pairing with the second
    eigenfunction for index-1 points."""
    dom = problem.domain
    assert dp.residual_sup < NEWTON_TOL
    w = dp.w.values
    ref = modes[0 if dp.kind == "fold-index0" else 1].eigenfunction
    assert dom.inner(w, w) == pytest.approx(inner_product(ref, ref), rel=1e-9)
    if dp.kind == "fold-index0":
        assert w[np.argmax(np.abs(w))] > 0
    else:
        assert np.dot(ref.values, w) > 0


class TestBranchTracing:
    def test_stable_branch_runs_to_fold(self, branch20, stable20):
        kinds = [e.kind for e in branch20.events]
        assert kinds == ["fold"]
        s = np.array(branch20.arclengths)
        assert np.all(np.diff(s) > 0)
        # product-norm spacing stays within the step cap (modest slack for
        # corrector pullback)
        assert np.max(np.diff(s)) < 2.0 * 1.5
        idx = branch20.morse_indices()
        assert idx[0] == 0 and idx[-1] == 1
        _assert_index_changes_only_at_events(branch20)
        assert branch20.points[0] is stable20

    def test_fold_at_twenty_frozen_values(self, problem, fold20):
        dom = problem.domain
        assert fold20.kind == "fold-index0"
        assert fold20.morse_index_at_point == 0
        assert fold20.c == pytest.approx(C_FOLD_20, rel=1e-9)
        assert fold20.u.values.max() == pytest.approx(FOLD_20_UMAX, rel=1e-9)
        assert fold20.residual_sup < 1e-10
        assert np.all(fold20.w.values > 0)
        assert dom.inner(fold20.w.values, fold20.w.values) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_fold_projection_coordinate(self, problem, modes, fold20):
        phi = modes[0].eigenfunction
        t = inner_product(fold20.u, phi) / inner_product(phi, phi)
        assert t == pytest.approx(FOLD_20_TPROJ, rel=1e-9)

    def test_fold_matches_from_both_sides(self, problem, fold20):
        zero = newton_solve(problem, DiscreteField.zero(problem.domain), 20.0, 0.0)
        assert zero.morse_index == 1
        other = continue_branch(
            problem, zero, +1, (-10.0, 1e6), chart="psi", max_step=2.0
        )
        dp = other.fold_points()[0]
        assert abs(dp.c - fold20.c) < 1e-8
        assert np.max(np.abs(dp.u.values - fold20.u.values)) < 1e-8

    def test_fold_extremum_oracle_agrees(self, problem, modes, fold20):
        # Independent route: maximize c over the chart coordinate with
        # golden-section search on chart-pinned solves.
        phi = modes[0].eigenfunction
        u_seed, c_seed = fold20.u.values, fold20.c

        def c_of(t):
            pt = solve_at_projection(problem, 20.0, phi, t, u_seed, c_seed)
            return pt.c

        g = (np.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 2.1, 2.7
        t1, t2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = c_of(t1), c_of(t2)
        for _ in range(30):
            if f1 < f2:
                lo, t1, f1 = t1, t2, f2
                t2 = lo + g * (hi - lo)
                f2 = c_of(t2)
            else:
                hi, t2, f2 = t2, t1, f1
                t1 = hi - g * (hi - lo)
                f1 = c_of(t1)
        assert c_of(0.5 * (lo + hi)) == pytest.approx(fold20.c, abs=1e-8)

    def test_window_edge_gets_endpoint_event(self, problem, stable20):
        br = continue_branch(
            problem, stable20, -1, (-10.0, 10.0), chart="phi", max_step=1.0
        )
        assert br.events[-1].kind == "endpoint"
        assert br.points[-1].c == -10.0
        assert all(p.morse_index == 0 for p in br.points)

    def test_start_validation(self, problem, modes, stable20):
        psi = modes[1].eigenfunction
        seg_state = DiscreteField(problem.domain, 0.1 * psi.values)
        degen = classify_state(problem, seg_state, modes[1].eigenvalue, 0.0)
        assert degen.degenerate
        with pytest.raises(ValueError):
            continue_branch(problem, degen, +1, (-1.0, 1.0))
        with pytest.raises(ValueError):
            continue_branch(problem, stable20, 0, (-1.0, 1.0))
        with pytest.raises(ValueError):
            continue_branch(problem, stable20, +1, (-1.0, 1.0), chart="theta")
        with pytest.raises(ValueError):
            continue_branch(problem, stable20, +1, (1.0, 2.0))

    def test_step_underflow_carries_partial_branch(self, problem, stable20):
        with pytest.raises(StepUnderflow) as err:
            continue_branch(
                problem, stable20, +1, (-10.0, 1e6), max_corrector=1, step0=0.01
            )
        partial = err.value.partial
        assert isinstance(partial, Branch)
        assert partial.points[-1] is stable20
        # one corrector iteration never converges here, so step0 = 0.01 is
        # halved 20 times to below MIN_ARCLENGTH_STEP, each time for that cause
        assert partial.steps == StepCounts(nonconvergence=20)
        assert str(err.value) == (
            f"step underflow: the corrector did not converge near "
            f"c={stable20.c:.6g} (last accepted point 0: c={stable20.c:.10g}, "
            f"t={partial.t_proj[0]:.10g}, ds=none; steps 0 accepted, rejected: "
            "nonconvergence 20, collapse 0, boundary 0, chord 0, jump 0)"
        )

    def test_step_underflow_names_the_last_accepted_step(
        self, problem, stable20, monkeypatch
    ):
        corrector = continuation._arclength_corrector
        calls = []

        def fails_after_three(*args):
            calls.append(args[6])
            if len(calls) > 3:
                raise NonConvergence("forced", None, np.inf)
            return corrector(*args)

        monkeypatch.setattr(continuation, "_arclength_corrector", fails_after_three)
        with pytest.raises(StepUnderflow) as err:
            continue_branch(problem, stable20, +1, (-10.0, 1e6), step0=0.05)
        partial = err.value.partial
        assert partial.steps.accepted == 3
        assert partial.steps.nonconvergence == len(calls) - 3
        last = partial.points[-1]
        assert (
            f"(last accepted point 3: c={last.c:.10g}, t={partial.t_proj[-1]:.10g}, "
            f"ds={calls[2]:.6g}; steps {partial.steps})"
        ) in str(err.value)

    def test_steps_are_counted(self, branch20):
        steps = branch20.steps
        assert steps.accepted == len(branch20.points) - 1
        assert steps.collapse == steps.boundary == steps.jump == 0


class TestStepController:
    def test_max_step_caps_every_step(self, problem, stable20):
        """The corrector solves on the hyperplane through the predictor,
        orthogonal to the previous unit secant, so each step is the next
        chord's projection onto that secant; an explicit max_step caps it."""
        dom = problem.domain
        capped = continue_branch(problem, stable20, +1, (-10.0, 1e6), max_step=0.5)
        free = continue_branch(problem, stable20, +1, (-10.0, 1e6))
        assert len(capped.points) > 2 * len(free.points)
        pts = capped.points
        steps = []
        for p, q, r in zip(pts, pts[1:], pts[2:]):
            du, dc = q.u.values - p.u.values, q.c - p.c
            dist = dom.l2_norm(du) + abs(dc)
            Tu, Tc = du / dist, dc / dist
            eu, ec = r.u.values - q.u.values, r.c - q.c
            steps.append((dom.inner(Tu, eu) + Tc * ec) / (dom.inner(Tu, Tu) + Tc * Tc))
        assert max(steps) <= 0.5 + 1e-8
        assert max(steps) > 0.45
        assert capped.fold_points()[0].c == pytest.approx(
            free.fold_points()[0].c, abs=1e-9
        )

    def test_a_corrector_that_leaves_the_branch_is_redone(
        self, problem, modes, stable20, fold20, monkeypatch
    ):
        """A corrector that lands far from its predictor, as on another
        sheet, is rejected as a jump and the step redone at half length."""
        corrector = continuation._arclength_corrector
        off_branch = 0.1 * modes[1].eigenfunction.values
        steps = []

        def jumps_once(*args):
            u, c, rF = corrector(*args)
            steps.append(args[6])
            if len(steps) == 3:
                u = u + off_branch
            return u, c, rF

        monkeypatch.setattr(continuation, "_arclength_corrector", jumps_once)
        br = continue_branch(problem, stable20, +1, (-10.0, 1e6))
        assert br.steps.jump == 1
        assert steps[3] == 0.5 * steps[2]
        assert abs(br.fold_points()[0].c - fold20.c) < 1e-9

    def test_landing_on_a_fold_refines_it(self, problem, branch20, fold20):
        """A corrector step can land within the degeneracy tolerance of a
        fold. The eigenvalue changes sign one step further on, so the event
        is the refined fold, not a degeneracy."""
        prev = branch20.points[branch20.events[-1].point_index]
        landed = classify_state(
            problem, fold20.u, fold20.a, fold20.c, rnorm=fold20.residual_sup,
            prev=prev.spectrum,
        )
        assert landed.degenerate
        kind, dp = continuation._detect_event(problem, prev, landed)
        assert kind == "fold"
        assert dp.kind == "fold-index0"
        assert abs(dp.c - fold20.c) < 1e-9


class TestDegeneratePoints:
    def test_wrong_kind_carries_point(self, problem, window_pieces):
        br = window_pieces["natural_up"]
        k = br.events[0].point_index
        low, high = br.points[k], br.points[k + 1]
        with pytest.raises(WrongKind) as err:
            refine_fold(problem, low, high, expected_kind="fold-index0")
        assert err.value.point.kind == "degenerate-index1"
        assert err.value.point.morse_index_at_point == 1
        _assert_kernel_conventions(problem, problem.modes(), err.value.point)

    def test_refined_fold_conventions(self, problem, modes, fold20, window_pieces):
        folds = [fold20] + [
            dp for br in window_pieces.values() if isinstance(br, Branch)
            for dp in br.fold_points()
        ]
        assert {dp.kind for dp in folds} == {"fold-index0", "degenerate-index1"}
        for dp in folds:
            _assert_kernel_conventions(problem, modes, dp)

    def test_bracket_validation(self, problem, branch20, stable20):
        with pytest.raises(ValueError):
            refine_fold(problem, branch20.points[0], branch20.points[1])
        other_a = newton_solve(problem, stable20.u, 20.5, 0.0)
        with pytest.raises(ValueError):
            refine_fold(problem, stable20, other_a)

    def test_normal_form_against_finite_differences(self, problem, fold20):
        chk = fold_normal_form_checks(problem, fold20)
        assert chk["mu_slope_fd"] == pytest.approx(
            chk["mu_slope_formula"], rel=0.05
        )
        assert chk["c_curvature_fd"] == pytest.approx(
            chk["c_curvature_formula"], rel=0.05
        )
        # regression values for the formulas themselves
        assert chk["mu_slope_formula"] == pytest.approx(9.06981, rel=1e-3)
        assert chk["c_curvature_formula"] == pytest.approx(-68.918, rel=1e-3)

    def test_harvest_pairing_identity_at_fold(self, problem, fold20):
        # int (f'(u) u - f(u)) w = c int h w at an index-0 degenerate point
        dom = problem.domain
        f, fp, _ = eval_nonlinearity(problem.nonlinearity, fold20.u.values)
        lhs = dom.inner(fp * fold20.u.values - f, fold20.w.values)
        rhs = fold20.c * dom.inner(problem.harvest.values, fold20.w.values)
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestFoldSweep:
    def test_covers_window_with_growing_amplitude(self, problem, modes, fold_sweep):
        lam1 = modes[0].eigenvalue
        a = fold_sweep.a_values()
        c = fold_sweep.c_values()
        assert a[0] == pytest.approx(lam1 + 0.5, abs=1e-12)
        assert a[-1] == pytest.approx(30.0, abs=1e-12)
        assert np.all(np.diff(a) > 0)
        assert np.all(np.diff(c) > 0)
        assert c[0] == pytest.approx(FOLD_SWEEP_C_LO, rel=1e-6)
        assert c[-1] == pytest.approx(FOLD_SWEEP_C_HI, rel=1e-6)
        assert {p.kind for p in fold_sweep.points} == {"fold-index0"}
        assert max(p.residual_sup for p in fold_sweep.points) < 1e-10
        for p in fold_sweep.points:
            _assert_kernel_conventions(problem, modes, p)

    def test_slope_identity_along_sweep(self, fold_sweep):
        assert len(fold_sweep.slope_check) >= len(fold_sweep.points) - 2
        assert max(fold_sweep.slope_check) < 0.05

    def test_window_validation(self, problem, modes, fold20):
        lam1 = modes[0].eigenvalue
        with pytest.raises(ValueError):
            trace_fold_curve(problem, fold20, (lam1 - 1.0, 30.0))
        with pytest.raises(ValueError):
            trace_fold_curve(problem, fold20, (21.0, 30.0))


class TestMarchStall:
    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("family", ["fold", "index1", "czero"])
    def test_stall_names_family_parameter_and_cause(
        self, problem, modes, fold20, monkeypatch, family, k
    ):
        """The sweep's solve fails for good once the march has accepted k
        steps: the step halves below its minimum and the stall is reported
        with the family, where it stalled, the last accepted parameter, the
        last failure and the last accepted state."""
        lam1 = modes[0].eigenvalue
        M = problem.nonlinearity.M
        psi = modes[1].eigenfunction.values
        S2 = np.longdouble(problem.domain.inner(psi, psi))
        name, x_of, x0, state_of, sweep, what, min_step = {
            "fold": (
                "_extended_newton", lambda args, kw: args[1], fold20.a,
                lambda out: out[1].astype(float),
                lambda: trace_fold_curve(problem, fold20, (lam1 + 0.5, 30.0)),
                "fold sweep in a", 1e-4,
            ),
            "index1": (
                # the chart row's offset -t <psi, psi> gives t back exactly
                "_extended_newton", lambda args, kw: float(-kw["row"][3] / S2), M,
                lambda out: out[1].astype(float),
                lambda: trace_index1_degenerate_curve(problem),
                "index-1 family in t", 1e-5,
            ),
            "czero": (
                "newton_solve", lambda args, kw: args[2], lam1 + 0.3,
                lambda out: out.u.values,
                lambda: continue_czero_branch(problem, "dagger", (lam1 + 0.3, 20.0)),
                "zero-harvest sweep in a", 1e-6,
            ),
        }[family]
        real = getattr(continuation, name)
        # the march starts at x0 and steps upward first; solves at or below
        # x0 (the segment samples, the zero-harvest seed) pass through
        seen = {"accepts": 0, "x": x0, "state": fold20.u.values}

        def failing(*args, **kwargs):
            x = x_of(args, kwargs)
            if x > x0 and seen["accepts"] == k:
                raise NonConvergence("injected failure", None, np.inf)
            out = real(*args, **kwargs)
            if x > x0:
                seen["accepts"] += 1
                seen["x"] = x
            seen["state"] = state_of(out)
            return out

        monkeypatch.setattr(continuation, name, failing)
        with pytest.raises((NonConvergence, StepUnderflow)) as err:
            sweep()
        exc = err.value
        if family == "czero":
            assert isinstance(exc, StepUnderflow)
            assert len(exc.partial.points) == 1 + k
            np.testing.assert_array_equal(exc.partial.points[-1].u.values, seen["state"])
            exc = exc.__cause__
        assert type(exc) is NonConvergence
        msg = str(exc)
        assert msg.startswith(f"{what} stalled near ")
        assert msg.endswith(f" (last accepted {seen['x']:.10g}): injected failure")
        stalled = float(msg.split("stalled near ")[1].split()[0])
        assert 0 < stalled - seen["x"] < 2 * min_step
        np.testing.assert_array_equal(exc.last_iterate, seen["state"])


class TestExtendedNewton:
    """The one Newton loop behind the arclength corrector, the chart
    projection, the fold system and the index-1 family."""

    @pytest.mark.parametrize("system", ["bordered", "fold", "degenerate-family"])
    def test_singular_step_is_a_nonconvergence(
        self, problem, modes, fold20, monkeypatch, system
    ):
        """A LinAlgError from a step's bordered solve comes out as a
        NonConvergence that names the system and carries the float64
        iterate the step was taken from."""
        dom = problem.domain
        phi, psi = (m.eigenfunction.values for m in modes)
        h = problem.harvest.values
        ld = np.longdouble
        S1, S2 = dom.inner(phi, phi), dom.inner(psi, psi)
        t, lam2 = problem.nonlinearity.M + 0.5, modes[1].eigenvalue
        u0, run = {
            "bordered": (
                fold20.u.values + 0.01 * phi,
                lambda u0: solve_at_projection(
                    problem, fold20.a, modes[0].eigenfunction, 2.0, u0, fold20.c
                ),
            ),
            "fold": (
                fold20.u.values + 0.01 * phi,
                lambda u0: continuation._extended_newton(
                    problem, fold20.a, u0, fold20.c, 16, w0=fold20.w.values, S=S1
                ),
            ),
            "degenerate-family": (
                t * psi + 0.01 * phi,
                lambda u0: continuation._extended_newton(
                    problem, lam2 + 0.05, u0, 0.0, 16,
                    row=(dom.spacing, psi, 0.0, -ld(t) * ld(S2)), w0=psi, S=S2,
                ),
            ),
        }[system]
        real = continuation.solve_bordered
        steps = []

        def singular_step(op, B, *rest):
            # every step has the column dF/dc = -h; the test function's
            # solves are bordered by w0 and pass through
            if np.array_equal(np.asarray(B).reshape(h.size, -1)[:, -1], -h):
                steps.append(B)
                raise np.linalg.LinAlgError("Singular matrix")
            return real(op, B, *rest)

        monkeypatch.setattr(continuation, "solve_bordered", singular_step)
        with pytest.raises(NonConvergence) as err:
            run(u0)
        assert len(steps) == 1
        assert str(err.value) == f"{system} system is singular: Singular matrix"
        assert err.value.last_iterate.dtype == np.float64
        np.testing.assert_array_equal(err.value.last_iterate, u0)

    def test_growing_corrector_gives_up_where_projection_iterates_on(
        self, problem, modes, branch20, monkeypatch
    ):
        """A first step that overshoots tenfold makes sup|F| grow. The
        arclength corrector gives up at that iterate after one bordered
        solve; solve_at_projection, from the same start, keeps iterating
        past the growth and converges."""
        real_solve, real_residual = continuation.solve_bordered, Problem.residual_values
        steps, sups = [], []

        def overshoot(*args):
            x, y = real_solve(*args)
            steps.append(x)
            return (10.0 * x, 10.0 * y) if len(steps) == 1 else (x, y)

        def recorded(self, u, a, c):
            F = real_residual(self, u, a, c)
            sups.append(float(np.max(np.abs(F))))
            return F

        monkeypatch.setattr(continuation, "solve_bordered", overshoot)
        monkeypatch.setattr(Problem, "residual_values", recorded)
        dom = problem.domain
        p, q = branch20.points[1], branch20.points[2]
        dist = dom.l2_norm(q.u.values - p.u.values) + abs(q.c - p.c)
        Tu, Tc = (q.u.values - p.u.values) / dist, (q.c - p.c) / dist
        ds = 0.5 * dist
        u_pred, c_pred = p.u.values + ds * Tu, p.c + ds * Tc

        with pytest.raises(NonConvergence) as err:
            continuation._arclength_corrector(problem, p.a, p.u.values, p.c, Tu, Tc, ds, 8)
        assert len(steps) == 1
        assert len(sups) == 2 and NEWTON_TOL < sups[0] < sups[1]
        assert str(err.value) == "bordered system did not converge"
        assert err.value.residual_norm == sups[1]
        grown = u_pred.astype(np.longdouble) + (10.0 * steps[0]).astype(np.longdouble)
        np.testing.assert_array_equal(err.value.last_iterate, grown.astype(float))

        steps.clear()
        sups.clear()
        phi = modes[0].eigenfunction
        t_pred = dom.inner(phi.values, u_pred) / dom.inner(phi.values, phi.values)
        pt = solve_at_projection(problem, p.a, phi, t_pred, u_pred, c_pred)
        assert NEWTON_TOL < sups[0] < sups[1]
        assert len(steps) >= 2
        assert pt.residual_norm < NEWTON_TOL


class TestDegenerateFamily:
    def test_exact_on_segment(self, problem, modes, sigma_curve):
        lam2 = modes[1].eigenvalue
        psi = modes[1].eigenfunction.values
        M = problem.nonlinearity.M
        beta = -float(np.min(psi))
        ts = np.array(sigma_curve.parameter)
        on = (ts >= -M / beta - 1e-12) & (ts <= M + 1e-12)
        assert on.sum() >= 5
        for t, p in zip(ts[on], np.array(sigma_curve.points, dtype=object)[on]):
            assert abs(p.a - lam2) < 1e-10
            assert abs(p.c) < 1e-10
            assert np.max(np.abs(p.u.values - t * psi)) < 1e-8
            assert np.max(np.abs(p.w.values - psi)) < 1e-8

    def test_rises_off_segment_on_both_sides(self, problem, modes, sigma_curve):
        lam2 = modes[1].eigenvalue
        ts = np.array(sigma_curve.parameter)
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == pytest.approx(-1.2) and ts[-1] == pytest.approx(1.2)
        a = sigma_curve.a_values()
        assert a[0] - lam2 > 0.5 and a[-1] - lam2 > 0.5
        assert delta_window(problem, sigma_curve) == pytest.approx(
            DELTA_WINDOW, rel=1e-6
        )
        assert sigma_curve.c_values().min() > -30.0
        assert {p.kind for p in sigma_curve.points} == {"degenerate-index1"}
        assert all(p.morse_index_at_point == 1 for p in sigma_curve.points)
        assert max(p.residual_sup for p in sigma_curve.points) < 1e-10
        for p in sigma_curve.points:
            _assert_kernel_conventions(problem, modes, p)

    def test_window_must_cover_segment(self, problem):
        with pytest.raises(ValueError):
            trace_index1_degenerate_curve(problem, t_range=(-0.1, 0.3))

    def test_delta_window_rejects_sunken_curve(self, problem, modes, sigma_curve):
        lam2 = modes[1].eigenvalue
        bad_pt = dataclasses.replace(sigma_curve.points[0], a=lam2 - 1.0)
        bad = DegenerateCurve(
            (bad_pt,) + sigma_curve.points[1:],
            sigma_curve.parameter,
            sigma_curve.kind,
        )
        with pytest.raises(ValueError):
            delta_window(problem, bad)


class TestFourSolutionWindow:
    def test_zero_harvest_states_have_expected_indices(self, window_pieces):
        assert window_pieces["zero"].morse_index == 2
        assert window_pieces["top"].morse_index == 0
        assert window_pieces["plus"].morse_index == 1
        assert window_pieces["minus"].morse_index == 1

    def test_seven_piece_connectivity(self, window_pieces):
        nat_up = window_pieces["natural_up"].fold_points()[0]
        nat_down = window_pieces["natural_down"].fold_points()[0]
        assert nat_up.kind == "degenerate-index1"
        assert nat_down.kind == "degenerate-index1"
        assert nat_up.c == pytest.approx(C_NATURAL_FOLD_POS, rel=1e-6)
        assert nat_down.c == pytest.approx(C_NATURAL_FOLD_NEG, rel=1e-6)

        # the index-1 piece through the +psi state shares its lower end with
        # the natural piece and its upper end with the stable piece
        sharp_down = window_pieces["sharp_down"].fold_points()[0]
        assert sharp_down.c == pytest.approx(nat_down.c, abs=1e-8)
        assert np.max(np.abs(sharp_down.u.values - nat_down.u.values)) < 1e-8

        sharp_up = window_pieces["sharp_up"].fold_points()[0]
        top_up = window_pieces["top_up"].fold_points()[0]
        assert sharp_up.kind == "fold-index0"
        assert sharp_up.c == pytest.approx(C_FOLD_WINDOW, rel=1e-6)
        assert abs(sharp_up.c - top_up.c) < 1e-8
        assert np.max(np.abs(sharp_up.u.values - top_up.u.values)) < 1e-8

        flat_up = window_pieces["flat_up"].fold_points()[0]
        assert flat_up.c == pytest.approx(nat_up.c, abs=1e-8)

    def test_eigenvalue_flux_identity_along_natural_piece(
        self, problem, window_pieces
    ):
        # -mu2 int (du/ds) w = (dc/ds) int h w with secants between
        # neighbours and the eigendata averaged at the midpoint (the stored
        # mu is for minus the linearization, hence the leading sign)
        dom = problem.domain
        br = window_pieces["natural_up"]
        stop = br.events[0].point_index
        pts = br.points[: stop + 1]
        checked = 0
        for p, q in zip(pts, pts[1:]):
            du = q.u.values - p.u.values
            dc = q.c - p.c
            wp = p.spectrum.eigenfunctions[1].values
            wq = q.spectrum.eigenfunctions[1].values
            if dom.inner(wp, wq) < 0:
                wq = -wq
            w = 0.5 * (wp + wq)
            mu2 = 0.5 * (p.spectrum.eigenvalues[1] + q.spectrum.eigenvalues[1])
            lhs = -mu2 * dom.inner(du, w)
            rhs = dc * dom.inner(problem.harvest.values, w)
            if abs(lhs) < 1e-4 or abs(rhs) < 1e-4:
                continue
            assert lhs == pytest.approx(rhs, rel=0.05)
            checked += 1
        assert checked >= 5

    def test_orientation_tells_index_near_segment(self, window_pieces):
        # graph-over-t portions: dc/dt < 0 on the index-2 piece, > 0 on the
        # index-1 pieces, with the harvest-negative sign convention for psi
        def signs(branch, upto_event=True):
            stop = branch.events[0].point_index if upto_event else len(branch.points)
            t = branch.t_values()[: stop + 1]
            c = branch.c_values()[: stop + 1]
            keep = np.abs(np.diff(t)) > 1e-9
            return np.sign(np.diff(c)[keep] / np.diff(t)[keep])

        assert np.all(signs(window_pieces["natural_up"]) == -1)
        assert np.all(signs(window_pieces["natural_down"]) == -1)
        assert np.all(signs(window_pieces["sharp_down"]) == 1)
        assert np.all(signs(window_pieces["flat_up"]) == 1)


class TestAtSecondEigenvalue:
    def test_segment_construction(self, problem, modes):
        seg = build_degenerate_segment(problem)
        lam2 = modes[1].eigenvalue
        assert seg.a == pytest.approx(lam2, abs=1e-12)
        assert seg.t_min == pytest.approx(-0.2, abs=1e-12)
        assert seg.t_max == pytest.approx(0.2, abs=1e-12)
        assert seg.verified_residual < 1e-12
        mid = classify_state(problem, seg.state_at(0.07), seg.a, 0.0)
        assert mid.degenerate and mid.morse_index == 1
        with pytest.raises(ValueError):
            seg.state_at(0.3)

    @pytest.mark.parametrize("n", [49, 99, 399, 1599])
    def test_segment_certified_by_the_newton_residual(self, n):
        """The stored residual is the worst long-double residual_values sup
        over the sampled segment states."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        seg = build_degenerate_segment(problem)
        lam2_ld, psi_ld = exact_mode_longdouble(problem.domain, 2)
        sups = [
            float(np.max(np.abs(problem.residual_values(
                np.longdouble(t) * psi_ld, lam2_ld, np.longdouble(0)
            ))))
            for t in np.linspace(seg.t_min, seg.t_max, 9)
        ]
        assert seg.verified_residual == max(sups) < 1e-12

    def test_segment_failure_is_nonconvergence(self):
        """At n = 2399 the exact states miss the 1e-12 bound at rounding
        level (1.015e-12). The failure carries the worst sampled state, a
        multiple of psi inside the segment, and its residual."""
        problem = Problem(build_grid(2399, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        with pytest.raises(NonConvergence, match="segment states") as err:
            build_degenerate_segment(problem)
        assert 1e-12 <= err.value.residual_norm < 2e-12
        dom = problem.domain
        psi = problem.modes()[1].eigenfunction.values
        u = err.value.last_iterate
        t = dom.inner(u, psi) / dom.inner(psi, psi)
        assert 0.2 / psi.min() - 1e-9 <= t <= 0.2 + 1e-9
        assert np.max(np.abs(u - t * psi)) < 1e-9

    def test_branch_from_segment_edge(self, problem, modes):
        psi = modes[1].eigenfunction
        lam2 = modes[1].eigenvalue
        seg = build_degenerate_segment(problem)
        start = solve_at_projection(
            problem,
            lam2,
            psi,
            seg.t_max + 0.05,
            (seg.t_max + 0.05) * psi.values,
            0.0,
        )
        assert not start.degenerate and start.morse_index == 1

        back = continue_branch(
            problem, start, -1, (-30.0, 1e6), chart="psi", step0=0.02, max_step=0.5
        )
        assert back.events[-1].kind == "degeneracy"
        last = back.points[-1]
        assert abs(last.c) < 1e-8
        assert seg.t_min - 1e-3 <= back.t_proj[-1] <= seg.t_max + 1e-3

        out = continue_branch(
            problem, start, +1, (-30.0, 1e6), chart="psi", max_step=1.0
        )
        dp = out.fold_points()[0]
        assert dp.kind == "fold-index0"
        assert dp.c == pytest.approx(C_FOLD_AT_LAM2, rel=1e-6)


class TestZeroHarvestFamilies:
    def test_positive_family_sweep(self, problem, modes):
        lam1 = modes[0].eigenvalue
        br = continue_czero_branch(problem, "dagger", (lam1 + 0.3, 20.0))
        assert br.chart == "phi"
        assert br.events[-1].kind == "endpoint"
        assert br.points[-1].a == 20.0
        assert np.all(np.diff(br.t_values()) > 0)
        assert all(p.morse_index == 0 for p in br.points)
        assert all(p.c == 0.0 for p in br.points)
        assert all(p.u.values.min() > 0 for p in br.points)
        for prev, nxt in zip(br.points, br.points[1:]):
            assert np.all(nxt.u.values >= prev.u.values - 1e-12)
        # endpoint agrees with an independent fixed-parameter solve
        direct = newton_solve(
            problem,
            br.points[-2].u,
            20.0,
            0.0,
        )
        assert direct.u.values.max() == pytest.approx(U_DAG_20_MAX, abs=1e-8)
        assert np.max(np.abs(br.points[-1].u.values - direct.u.values)) < 1e-8

    def test_positive_family_projection_identity(self, problem, modes):
        # (a - lam1) int u phi = int f(u) phi along the family
        lam1 = modes[0].eigenvalue
        phi = modes[0].eigenfunction.values
        dom = problem.domain
        br = continue_czero_branch(problem, "dagger", (lam1 + 0.3, 20.0))
        for p in br.points:
            lhs = (p.a - lam1) * dom.inner(p.u.values, phi)
            rhs = dom.inner(
                eval_nonlinearity(problem.nonlinearity, p.u.values)[0], phi
            )
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_sign_changing_family_sweep(self, problem, modes):
        lam2 = modes[1].eigenvalue
        br = continue_czero_branch(problem, "ddagger", (lam2 + 0.3, 45.0))
        assert br.chart == "psi"
        assert np.all(np.diff(br.t_values()) > 0)
        assert all(p.morse_index == 1 for p in br.points)
        assert all(
            p.u.values.min() < 0 < p.u.values.max() for p in br.points
        )

    def test_amplitude_scan_seed_when_offset_start_collapses(self, domain):
        prob0 = Problem(domain, Nonlinearity(0.0, 3), HarvestSpec("bump"))
        lam1 = prob0.modes()[0].eigenvalue
        br = continue_czero_branch(prob0, "dagger", (lam1 + 0.3, 12.0))
        assert br.t_proj[0] == pytest.approx(M0_SEED_TPROJ, rel=1e-3)
        assert all(p.u.values.min() > -1e-10 for p in br.points)

    def test_window_validation(self, problem, modes):
        lam1 = modes[0].eigenvalue
        with pytest.raises(ValueError):
            continue_czero_branch(problem, "dagger", (lam1 - 0.5, 20.0))
        with pytest.raises(ValueError):
            continue_czero_branch(problem, "middle", (lam1 + 0.5, 20.0))


class TestSmallAmplitudeFormulas:
    def test_first_chart_slope_is_quarter_pi_cubed(self, problem, modes):
        lam1 = modes[0].eigenvalue
        slope, _ = branch_derivative_at_zero(problem, lam1 + 1.0, "phi")
        assert slope == pytest.approx(np.pi**3 / 4.0, rel=1e-8)

    def test_second_chart_slopes_are_antisymmetric(self, problem, modes):
        lam2 = modes[1].eigenvalue
        up, _ = branch_derivative_at_zero(problem, lam2 + 0.5, "psi")
        down, _ = branch_derivative_at_zero(problem, lam2 - 0.5, "psi")
        assert up == pytest.approx(-np.pi**3 / 3.0, rel=1e-8)
        assert down == pytest.approx(np.pi**3 / 3.0, rel=1e-8)

    def test_response_field_solves_shifted_problem(self, problem, modes):
        lam1 = modes[0].eigenvalue
        _, v = branch_derivative_at_zero(problem, lam1 + 1.0, "phi")
        direct = problem.laplacian.shifted(lam1 + 1.0).factor().solve(
            problem.harvest.values
        )
        assert np.max(np.abs(v.values - direct)) < 1e-8

    def test_eigenvalue_proximity_rejected(self, problem, modes):
        with pytest.raises(ValueError):
            branch_derivative_at_zero(problem, modes[0].eigenvalue + 1e-9, "phi")

    def test_linear_regime_closed_form(self, problem):
        # below the first eigenvalue and with the ramp inactive the steady
        # state is exactly c times the response field
        _, v = branch_derivative_at_zero(problem, 5.0, "phi")
        for c in (0.5, -0.5):
            u_lin = c * v.values
            assert u_lin.max() <= problem.nonlinearity.M
            pt = newton_solve(
                problem, DiscreteField.zero(problem.domain), 5.0, c
            )
            assert np.max(np.abs(pt.u.values - u_lin)) < 1e-8


class TestJoinedBranchAtZeroThreshold:
    def test_trace_passes_through_origin(self, domain):
        # with M = 0 the segment is the single point at the origin and the
        # two index-1 pieces join there; an arclength trace crosses without
        # a fold because the vanishing eigenvalue does not change sign
        prob0 = Problem(domain, Nonlinearity(0.0, 3), HarvestSpec("bump"))
        psi = prob0.modes()[1]
        start = solve_at_projection(
            prob0, psi.eigenvalue, psi.eigenfunction, 0.25,
            0.25 * psi.eigenfunction.values, 0.0,
        )
        br = continue_branch(
            prob0, start, -1, (-50.0, 1e6), chart="psi",
            step0=0.05, max_step=0.5, stop_at_events=False, max_points=200,
        )
        t = br.t_values()
        assert t[0] > 0 > t[-1]
        assert not any(e.kind == "fold" for e in br.events)
        near = np.argmin(np.abs(t))
        assert abs(br.c_values()[near]) < 0.05
