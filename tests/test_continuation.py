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
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bifurcate.grid import DiscreteField, build_grid, exact_mode_longdouble, inner_product
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap, eval_nonlinearity
from bifurcate.solver import (
    FLOAT64_PHASE_TOL,
    NEWTON_TOL,
    Ladder,
    NonConvergence,
    Pair,
    Problem,
    classify_state,
    newton_solve,
)
from bifurcate import continuation
from bifurcate import spectral as spectral_mod
from bifurcate.continuation import (
    Branch,
    DegenerateCurve,
    StepCounts,
    StepUnderflow,
    WrongKind,
    branch_derivative_at_zero,
    build_degenerate_segment,
    closed_form_states,
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

    def test_step_underflow_carries_partial_branch(self, problem, stable20, monkeypatch):
        monkeypatch.setattr(continuation, "MAX_CORRECTOR", 1)
        with pytest.raises(StepUnderflow) as err:
            continue_branch(problem, stable20, +1, (-10.0, 1e6), step0=0.01)
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
                u = Pair(u.hi + off_branch, u.lo)
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

    def test_vanishing_eigenvalue_past_the_computed_pairs(self, problem, domain, split):
        # at the discrete lambda3 the zero state's vanishing eigenvalue is the
        # third, which the two computed pairs do not hold; its index names it
        lam3, mode3 = exact_mode_longdouble(domain, 3)
        zero = np.zeros(domain.n_interior)
        dp, _ = continuation._package_degenerate(
            problem, split(lam3), Pair(zero, zero), Pair(0.0, 0.0), split(mode3), None
        )
        assert (dp.kind, dp.morse_index_at_point) == ("degenerate-index2", 2)

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


def _spectra_spent(monkeypatch, trace):
    """trace()'s result, with the full eigensolves, certified tracks and
    refused tracks its classifications made."""
    counts = Counter()
    real_eig = spectral_mod.symmetric_tridiagonal_eigenpairs
    real_track = spectral_mod.track_tridiagonal_eigenpairs

    def eig(*args):
        counts["eigensolve"] += 1
        return real_eig(*args)

    def track(*args):
        pairs = real_track(*args)
        counts["refused" if pairs is None else "tracked"] += 1
        return pairs

    with monkeypatch.context() as mp:
        mp.setattr(spectral_mod, "symmetric_tridiagonal_eigenpairs", eig)
        mp.setattr(spectral_mod, "track_tridiagonal_eigenpairs", track)
        return trace(), counts


def _samples(curve):
    return [(p.a, p.c, p.kind, p.morse_index_at_point) for p in curve.points]


class TestDegenerateCurveSpectra:
    """The fold sweep, the index-1 family and the zero-harvest sweep track
    each sample's spectrum from the eigenvectors their march predicts: a
    full eigensolve only where a seed is classified, and the same samples,
    kinds and indices as a full eigensolve at every sample."""

    def test_index1_family_pays_one_eigensolve(self, problem, sigma_curve, monkeypatch):
        curve, counts = _spectra_spent(
            monkeypatch, lambda: trace_index1_degenerate_curve(problem, sigma=1.0)
        )
        assert counts == Counter(eigensolve=1, tracked=len(curve.points) - 1)
        assert _samples(curve) == _samples(sigma_curve)
        monkeypatch.setattr(spectral_mod, "track_tridiagonal_eigenpairs", lambda *a: None)
        full = trace_index1_degenerate_curve(problem, sigma=1.0)
        assert _samples(full) == _samples(curve)
        assert delta_window(problem, full) == delta_window(problem, curve)

    def test_sweeps_classify_their_seeds_once(
        self, problem, modes, fold20, fold_sweep, monkeypatch
    ):
        """The fold sweep over a in [lambda1 + 0.5, 30] from the a = 20 fold
        classifies its seed once and tracks both directions from it. The
        zero-harvest 'dagger' sweep over [lambda1 + 0.5, 60] makes one full
        eigensolve: its seed search classifies only the state it keeps, and
        the march tracks every later sample from that one."""
        lam1 = modes[0].eigenvalue
        window = (lam1 + 0.5, 30.0)
        curve, counts = _spectra_spent(
            monkeypatch, lambda: trace_fold_curve(problem, fold20, window)
        )
        assert counts["eigensolve"] == 1 and counts["refused"] == 0
        assert counts["tracked"] >= len(curve.points) - 1
        assert _samples(curve) == _samples(fold_sweep)

        seeded = Counter()
        real_seed = continuation._czero_seed

        def seed(*args):
            out, spent = _spectra_spent(monkeypatch, lambda: real_seed(*args))
            seeded.update(spent)
            return out

        monkeypatch.setattr(continuation, "_czero_seed", seed)
        branch, counts = _spectra_spent(
            monkeypatch, lambda: continue_czero_branch(problem, "dagger", (lam1 + 0.5, 60.0))
        )
        assert len(branch.points) == 54
        assert counts["eigensolve"] == seeded["eigensolve"] == 1
        assert counts["refused"] == 0 and counts["tracked"] >= len(branch.points) - 1

        monkeypatch.setattr(spectral_mod, "track_tridiagonal_eigenpairs", lambda *a: None)
        assert _samples(trace_fold_curve(problem, fold20, window)) == _samples(curve)
        full = continue_czero_branch(problem, "dagger", (lam1 + 0.5, 60.0))
        assert [(p.a, p.morse_index, p.degenerate) for p in full.points] == [
            (p.a, p.morse_index, p.degenerate) for p in branch.points
        ]


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
        S2 = problem.domain.inner(psi, psi)
        name, x_of, x0, state_of, sweep, what, min_step = {
            "fold": (
                "_extended_newton", lambda args, kw: args[1], fold20.a,
                lambda out: out[1].hi,
                lambda: trace_fold_curve(problem, fold20, (lam1 + 0.5, 30.0)),
                "fold sweep in a", 1e-4,
            ),
            "index1": (
                # the chart row's offset -t <psi, psi> gives t back to an
                # ulp, far below the digits the message prints
                "_extended_newton", lambda args, kw: -kw["row"][3] / S2, M,
                lambda out: out[1].hi,
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
        # x0 pass through. The index-1 march starts from the segment's edge
        # sample, the closed-form state M psi, which no solve makes, and the
        # zero-harvest march from its seed, which the seed search solves
        # without newton_solve.
        if family == "index1":
            psi_ld = exact_mode_longdouble(problem.domain, 2)[1]
            psi_ld = psi_ld if psi_ld.astype(float) @ psi > 0 else -psi_ld
            start = (np.longdouble(M) * psi_ld).astype(float)
        elif family == "czero":
            phi = modes[0].eigenfunction.values
            start = continuation._czero_seed(problem, x0, phi, True).u.values
        else:
            start = fold20.u.values
        seen = {"accepts": 0, "x": x0, "state": start}

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
        iterate the step was taken from. Every start here is a float64 state
        above FLOAT64_PHASE_TOL, so each system, the fold and index-1 family
        systems too, measures it and steps from it in the float64 stage."""
        dom = problem.domain
        phi, psi = (m.eigenfunction.values for m in modes)
        h = problem.harvest.values
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
                    row=(dom.spacing, psi, 0.0, -t * S2), w0=psi, S=S2,
                ),
            ),
        }[system]
        real = continuation.solve_bordered
        steps = []

        def singular_step(op, B, *rest):
            # every step has the column dF/dc = -h; the test function's
            # solves are bordered by w0 and pass through
            if np.array_equal(np.asarray(B).reshape(h.size, -1)[:, -1], -h):
                steps.append(rest)
                raise np.linalg.LinAlgError("Singular matrix")
            return real(op, B, *rest)

        monkeypatch.setattr(continuation, "solve_bordered", singular_step)
        with pytest.raises(NonConvergence) as err:
            run(u0)
        assert len(steps) == 1
        assert str(err.value) == f"{system} system is singular: Singular matrix"
        assert err.value.last_iterate.dtype == np.float64
        np.testing.assert_array_equal(err.value.last_iterate, u0)
        # the start's float64 sup|F|, measured before the one step
        (r0,) = err.value.residual_history
        sup0 = float(np.max(np.abs(problem.residual_values(u0, *{
            "bordered": (fold20.a, fold20.c), "fold": (fold20.a, fold20.c),
            "degenerate-family": (lam2 + 0.05, 0.0)}[system]))))
        assert r0 == sup0 > FLOAT64_PHASE_TOL

    def test_growing_corrector_gives_up_where_projection_iterates_on(
        self, problem, modes, branch20, monkeypatch
    ):
        """A first step that overshoots tenfold makes sup|F| grow. The
        arclength corrector gives up at that iterate after one bordered
        solve; solve_at_projection, from the same start, keeps iterating
        past the growth and converges. The predictor's float64 sup|F| is at
        or below FLOAT64_PHASE_TOL, so both solves promote it at once and
        measure and step on the Pair from there."""
        real_solve = continuation.solve_bordered
        steps = []

        def overshoot(*args, **kw):
            x, y = real_solve(*args, **kw)
            steps.append(x)
            return (10.0 * x, 10.0 * y) if len(steps) == 1 else (x, y)

        monkeypatch.setattr(continuation, "solve_bordered", overshoot)
        measured, _ = self.spied(monkeypatch)
        dom = problem.domain
        p, q = branch20.points[1], branch20.points[2]
        dist = dom.l2_norm(q.u.values - p.u.values) + abs(q.c - p.c)
        Tu, Tc = (q.u.values - p.u.values) / dist, (q.c - p.c) / dist
        ds = 0.5 * dist
        u_pred, c_pred = p.u.values + ds * Tu, p.c + ds * Tc

        with pytest.raises(NonConvergence) as err:
            continuation._arclength_corrector(problem, p.a, p.u.values, p.c, Tu, Tc, ds, 8)
        assert len(steps) == 1
        sups = [sup for _, _, sup, _, _ in measured]
        assert [lo is not None for _, lo, _, _, _ in measured] == [True, True]
        assert measured[0][3] <= FLOAT64_PHASE_TOL and NEWTON_TOL < sups[0] < sups[1]
        assert str(err.value) == "bordered system did not converge"
        assert err.value.residual_norm == sups[1]
        assert err.value.residual_history == tuple(sups)
        # the Pair update of the exact start by the grown step: its hi is the
        # float64 sum
        np.testing.assert_array_equal(err.value.last_iterate, u_pred + 10.0 * steps[0])

        steps.clear()
        measured.clear()
        phi = modes[0].eigenfunction
        t_pred = dom.inner(phi.values, u_pred) / dom.inner(phi.values, phi.values)
        pt = solve_at_projection(problem, p.a, phi, t_pred, u_pred, c_pred)
        assert all(lo is not None for _, lo, _, _, _ in measured)
        assert NEWTON_TOL < measured[0][2] < measured[1][2]
        assert len(steps) >= 2
        assert pt.residual_norm < NEWTON_TOL

    @pytest.fixture(scope="class")
    def tilted99(self):
        """The stable state at a = 20, c = 1 on n = 99, and a unit direction
        half along phi and half along c, far from the branch tangent: its
        predictors at ds = 0.3 start well above FLOAT64_PHASE_TOL."""
        problem = Problem(build_grid(99, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        dom = problem.domain
        phi = problem.modes()[0].eigenfunction.values
        cap = critical_cap(problem.nonlinearity, 20.0)
        u = newton_solve(problem, DiscreteField(dom, cap * phi), 20.0, 1.0).u.values
        return problem, u, phi / (np.sqrt(2.0) * dom.l2_norm(phi)), 1.0 / np.sqrt(2.0)

    @staticmethod
    def spied(monkeypatch, solves=None):
        """Record each measured iterate as [hi, lo, sup|F|, float64 sup|F|,
        c]: residual_values gives its float64 residual, and Ladder.residual,
        once it corrects that to the Pair's, lo and the Pair's sup|F| (lo
        None and the float64 sup|F| in the float64 stage). For each bordered
        step, record whether the iterate it steps from (the last one
        measured) is a Pair, and append its du to solves when given."""
        measured, stages = [], []
        real_residual, real_pair = Problem.residual_values, Ladder.residual
        real_solve = continuation.solve_bordered

        def residual(self, u, a, c, **buffers):
            F = real_residual(self, u, a, c, **buffers)
            sup = float(np.max(np.abs(F)))
            measured.append([u.copy(), None, sup, sup, c])
            return F

        def pair(self, F, diag, lo, *args):
            out = real_pair(self, F, diag, lo, *args)
            measured[-1][1:3] = [lo.copy(), float(np.max(np.abs(out)))]
            return out

        def solve(*args):
            stages.append(measured[-1][1] is not None)
            du, y = real_solve(*args)
            if solves is not None:
                solves.append(du)
            return du, y

        monkeypatch.setattr(Problem, "residual_values", residual)
        monkeypatch.setattr(Ladder, "residual", pair)
        monkeypatch.setattr(continuation, "solve_bordered", solve)
        return measured, stages

    def test_float64_stage_hands_over_at_the_switch(self, tilted99, monkeypatch):
        """From a float64 predictor above FLOAT64_PHASE_TOL the corrector
        steps from float64 iterates up to the first iterate whose float64
        sup|F| is at or below the switch. That iterate is promoted to a
        Pair: its hi is the float64 iterate and hi + lo is the last float64
        step's unrounded sum, exactly; it is measured again as a Pair, every
        later iterate and step is a Pair's, and convergence is declared on
        a Pair sup|F| below NEWTON_TOL."""
        problem, u, Tu, Tc = tilted99
        solves = []
        measured, stages = self.spied(monkeypatch, solves)
        u_pair, c_pair, rF = continuation._arclength_corrector(
            problem, 20.0, u, 1.0, Tu, Tc, 0.3, 8
        )
        pair = [lo is not None for _, lo, _, _, _ in measured]
        k = pair.index(True)
        assert k >= 1 and not any(pair[:k]) and all(pair[k:])
        assert min(sup64 for *_, sup64, _ in measured[:k]) > FLOAT64_PHASE_TOL
        assert measured[k][3] <= FLOAT64_PHASE_TOL
        u_from, du = measured[k - 1][0], solves[k - 1]
        hi, lo = measured[k][0], measured[k][1]
        np.testing.assert_array_equal(hi, u_from + du)
        assert all(
            Fraction(x) + Fraction(y) == Fraction(p) + Fraction(q)
            for x, y, p, q in zip(hi, lo, u_from, du)
        )
        assert lo.any()
        assert stages == [False] * k + [True] * (len(measured) - k - 1)
        assert all(sup >= NEWTON_TOL for _, _, sup, _, _ in measured[k:-1])
        assert measured[-1][2] == rF < NEWTON_TOL
        assert isinstance(u_pair, Pair) and isinstance(c_pair, Pair)

    def test_start_at_the_switch_takes_no_float64_step(self, problem, branch20, monkeypatch):
        """A predictor whose float64 sup|F| is already at or below
        FLOAT64_PHASE_TOL is promoted exactly, as itself with lo = 0, whose
        Pair sup|F| is its float64 one, and takes only Pair steps. A
        corrector that runs out of iterations there reports the Pair sup|F|
        of its last iterate."""
        dom = problem.domain
        p, q = branch20.points[1], branch20.points[2]
        dist = dom.l2_norm(q.u.values - p.u.values) + abs(q.c - p.c)
        Tu, Tc = (q.u.values - p.u.values) / dist, (q.c - p.c) / dist
        args = (problem, p.a, p.u.values, p.c, Tu, Tc, 0.5 * dist)
        measured, stages = self.spied(monkeypatch)
        with pytest.raises(NonConvergence) as err:
            continuation._arclength_corrector(*args, 1)
        ((u0, lo0, sup0, sup64, _),) = measured
        np.testing.assert_array_equal(u0, p.u.values + 0.5 * dist * Tu)
        assert lo0 is not None and not lo0.any()
        assert NEWTON_TOL < sup0 == sup64 <= FLOAT64_PHASE_TOL
        assert err.value.residual_history == (err.value.residual_norm,) == (sup0,)
        assert stages == []

        measured.clear()
        _, _, rF = continuation._arclength_corrector(*args, 8)
        assert all(lo is not None for _, lo, _, _, _ in measured)
        assert stages == [True] * (len(measured) - 1)
        assert rF == measured[-1][2] < NEWTON_TOL

    def test_pair_start_stays_on_the_pair(self, tilted99, monkeypatch):
        """The same chart projection from the float64 predictor runs a
        float64 stage; from the float64 field that stage handed over, at or
        below the switch, a projection is on the Pair from its first
        measurement, measures and steps on the Pair only, and converges
        there too."""
        problem, u, Tu, Tc = tilted99
        dom = problem.domain
        phi = problem.modes()[0].eigenfunction
        u_pred, c_pred = u + 0.3 * Tu, 1.0 + 0.3 * Tc
        t = dom.inner(phi.values, u_pred) / dom.inner(phi.values, phi.values)
        measured, stages = self.spied(monkeypatch)
        solve_at_projection(problem, 20.0, phi, t, u_pred, c_pred)
        assert measured[0][1] is None and False in stages
        handed, _, _, _, c_handed = next(m for m in measured if m[1] is not None)
        measured.clear()
        stages.clear()
        pt = solve_at_projection(problem, 20.0, phi, t, handed, c_handed)
        assert all(lo is not None for _, lo, _, _, _ in measured) and all(stages)
        assert len(stages) == len(measured) - 1
        assert pt.residual_norm == measured[-1][2] < NEWTON_TOL

    def test_fold_system_follows_the_stage_rule(self, problem, modes, fold20, monkeypatch):
        """The fold system takes the stages of the affine-row systems: from a
        float64 start above FLOAT64_PHASE_TOL it measures and steps in
        float64, then on the Pair only, and converges there onto the
        refined fold; from the field it handed over it stays on the Pair."""
        dom = problem.domain
        phi = modes[0].eigenfunction.values
        S1 = dom.inner(phi, phi)
        u0 = fold20.u.values + 0.01 * phi
        measured, stages = self.spied(monkeypatch)
        _, u, c, _, rF = continuation._extended_newton(
            problem, fold20.a, u0, fold20.c, 16, w0=fold20.w.values, S=S1
        )
        pair = [lo is not None for _, lo, _, _, _ in measured]
        k = pair.index(True)
        assert k >= 1 and not any(pair[:k]) and all(pair[k:])
        assert measured[0][3] > FLOAT64_PHASE_TOL >= measured[k][3]
        assert False in stages and stages == sorted(stages)
        assert rF == measured[-1][2] < NEWTON_TOL and isinstance(u, Pair)
        assert abs(c.hi - fold20.c) < 1e-9

        handed, c_handed = measured[k][0], measured[k][4]
        measured.clear()
        stages.clear()
        continuation._extended_newton(
            problem, fold20.a, handed, c_handed, 16, w0=fold20.w.values, S=S1,
        )
        assert all(lo is not None for _, lo, _, _, _ in measured) and all(stages)

    def test_exhausted_corrector_reports_the_iterate_it_returns(self, tilted99, monkeypatch):
        """A corrector that runs out of iterations raises with one iterate:
        residual_norm, the last residual_history entry and last_iterate all
        describe the last iterate measured, and no step is taken after it.
        With one iteration that iterate is the predictor (tilted99). Its
        sup|F| is above FLOAT64_PHASE_TOL, so it is measured in the float64
        stage, on the float64 predictor."""
        problem, u, Tu, Tc = tilted99
        _, steps = self.spied(monkeypatch)
        with pytest.raises(NonConvergence) as err:
            continuation._arclength_corrector(problem, 20.0, u, 1.0, Tu, Tc, 0.3, 1)
        assert steps == []
        last = err.value.last_iterate
        np.testing.assert_array_equal(last, u + 0.3 * Tu)
        sup = float(np.max(np.abs(problem.residual_values(last, 20.0, 1.0 + 0.3 * Tc))))
        assert err.value.residual_history == (err.value.residual_norm,)
        assert err.value.residual_norm == sup > FLOAT64_PHASE_TOL

        with pytest.raises(NonConvergence) as err:
            continuation._arclength_corrector(problem, 20.0, u, 1.0, Tu, Tc, 0.3, 3)
        # three iterates, all above the switch: two float64-stage steps
        assert steps == [False, False]
        history = err.value.residual_history
        assert len(history) == 3 and history[-1] == err.value.residual_norm
        assert FLOAT64_PHASE_TOL < history[2] < history[1] < history[0]


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

    def test_on_segment_samples_are_the_closed_form_states(self, problem, modes, monkeypatch):
        """Each on-segment sample is the closed-form state t psi_ld at
        (lambda2, c = 0), its Pair's hi bit for bit, and no extended system
        is solved for it: _extended_newton runs only for the march's
        samples, each at a chart coordinate off the segment."""
        lam2 = modes[1].eigenvalue
        psi = modes[1].eigenfunction.values
        S2 = problem.domain.inner(psi, psi)
        psi_ld = exact_mode_longdouble(problem.domain, 2)[1]
        psi_ld = psi_ld if psi_ld.astype(float) @ psi > 0 else -psi_ld
        seg = build_degenerate_segment(problem)
        solved = []
        real = continuation._extended_newton

        def spied(*args, **kwargs):
            # the chart row's offset -t <psi, psi> gives t back to an ulp
            solved.append(-kwargs["row"][3] / S2)
            return real(*args, **kwargs)

        monkeypatch.setattr(continuation, "_extended_newton", spied)
        curve = trace_index1_degenerate_curve(problem)
        on = [
            (t, p) for t, p in zip(curve.parameter, curve.points)
            if seg.t_min <= t <= seg.t_max
        ]
        assert len(on) == 9 and on[0][0] == seg.t_min and on[-1][0] == seg.t_max
        for t, p in on:
            assert p.a == lam2 and p.c == 0.0
            np.testing.assert_array_equal(
                p.u.values, (np.longdouble(t) * psi_ld).astype(float)
            )
        assert len(solved) >= len(curve.points) - len(on)
        assert all(t < seg.t_min or t > seg.t_max for t in solved)

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


class TestClosedFormStates:
    @pytest.mark.parametrize("n", [399, 1599, 2399])
    @pytest.mark.parametrize("k", [1, 2])
    def test_pair_residual_matches_long_double(
        self, n, k, split, pair_residual, longdouble_residual
    ):
        """On the lambda1 ray (k = 1) and the lambda2 segment (k = 2), each
        closed-form state t e_k split into a Pair, with lambda_k a Pair, has
        the sup|F| of its long-double residual to 1e-13, and
        closed_form_states reports exactly those Pair sups. Node by node the
        two differ most where e_k changes sign: there the float64 first
        differences of hi round (about 1.2e-13 at n = 2399), which the sup,
        taken near the extremes of e_k, does not see."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        lam, mode = exact_mode_longdouble(problem.domain, k)
        ts = np.linspace(-0.2, 0.2, 5)
        e_k, states, sups = closed_form_states(problem, k, ts, 1.0, "states")
        ld = np.longdouble
        sign = 1 if float(np.dot(mode.astype(float), e_k.hi)) > 0 else -1
        np.testing.assert_array_equal(e_k.hi, sign * split(mode).hi)
        for t, u, sup in zip(ts, states, sups):
            x = ld(t) * mode
            np.testing.assert_array_equal(u.hi, split(sign * x).hi)
            np.testing.assert_array_equal(u.lo, split(sign * x).lo)
            assert sup == pair_residual(problem, u, split(lam))
            reference = float(np.max(np.abs(longdouble_residual(problem, x, lam, 0.0))))
            assert abs(sup - reference) <= 1e-13


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
    def test_segment_certified_by_the_newton_residual(
        self, n, split, pair_residual, longdouble_residual
    ):
        """The stored residual is the worst Pair residual sup over the
        sampled segment states, each the closed-form state split into a
        Pair; the long-double residual of the same states agrees to 1e-13."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        seg = build_degenerate_segment(problem)
        lam2_ld, psi_ld = exact_mode_longdouble(problem.domain, 2)
        ts = np.linspace(seg.t_min, seg.t_max, 9)
        sups = [pair_residual(problem, split(np.longdouble(t) * psi_ld), split(lam2_ld))
                for t in ts]
        assert seg.verified_residual == max(sups) < 1e-12
        for t, sup in zip(ts, sups):
            r_ld = longdouble_residual(problem, np.longdouble(t) * psi_ld, lam2_ld, 0.0)
            assert abs(sup - float(np.max(np.abs(r_ld)))) <= 1e-13

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
