"""Multistart solution counts, whole-diagram assembly per regime, structural
verification reports and the dynamic stability cross-check.

Fold locations reused here were pinned in test_continuation by independent
oracles (extremum search, finite differences); the zero-threshold fold at
a = 20 is confirmed below by the count flip across it. Diagram shapes are
asserted against the piece decompositions the assembly claims to realize,
with the oracle-based verifier replayed on every regime.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from bifurcate.grid import (
    DiscreteField,
    build_grid,
    exact_mode_longdouble,
    laplacian_eigenpairs,
)
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap
import bifurcate.diagram as diagram_mod
import bifurcate.spectral as spectral_mod
from bifurcate.solver import (
    COUNT_MAX_ITER,
    FLOAT64_PHASE_TOL,
    NEWTON_TOL,
    NonConvergence,
    Problem,
    SingularJacobian,
    _newton_rows,
    classify_state,
    newton_solve,
)
from bifurcate.continuation import (
    CHORD_TOL,
    _extended_newton,
    delta_window,
    trace_index1_degenerate_curve,
)
from bifurcate.diagram import (
    REGIMES,
    AssemblyIncomplete,
    BifurcationDiagram,
    ClaimCheck,
    SolutionSet,
    VerificationReport,
    assemble_diagram,
    count_solutions,
    diagram_solutions_at,
    stability_crosscheck,
    verify_structure,
)

# Fold of the stable/index-1 pair at a = 20 with the canonical threshold,
# confirmed by the extremum oracle in test_continuation.
C_FOLD_20 = 128.207253840662

# Same fold with the threshold at zero; the count flip 2/1/0 across this
# value in TestCountSolutions is its independent confirmation.
C_FOLD_20_M0 = 110.714875466

# Terminal folds of the sharp sheet exactly at the second eigenvalue.
C_FOLD_AT_LAM2 = 556.9477816224
C_FOLD_AT_LAM2_M0 = 513.0745650576

# The half-width of the four-solution window above the second eigenvalue
# and the three fold levels of the seven-piece structure at its midpoint.
DELTA_WINDOW = 0.962759859621
C_NATURAL_FOLD_NEG = -6.769673633
C_NATURAL_FOLD_POS = 6.349357946
C_FOLD_WINDOW = 568.670734113


@pytest.fixture(scope="module")
def domain():
    return build_grid(399, 1.0)


@pytest.fixture(scope="module")
def eigs(domain):
    return tuple(p.eigenvalue for p in laplacian_eigenpairs(domain, 2))


@pytest.fixture(scope="module")
def problem(domain):
    return Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def problem99():
    return Problem(build_grid(99, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def problem0(domain):
    return Problem(domain, Nonlinearity(0.0, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def diagram20(problem):
    return assemble_diagram(problem, 20.0)


@pytest.fixture(scope="module")
def diagram20_m0(problem0):
    return assemble_diagram(problem0, 20.0)


@pytest.fixture(scope="module")
def diagram_below(problem):
    return assemble_diagram(problem, 5.0)


@pytest.fixture(scope="module")
def diagram_lam1(problem, eigs):
    return assemble_diagram(problem, eigs[0])


@pytest.fixture(scope="module")
def diagram_lam2(problem, eigs):
    return assemble_diagram(problem, eigs[1])


@pytest.fixture(scope="module")
def diagram_lam2_m0(problem0, eigs):
    return assemble_diagram(problem0, eigs[1])


@pytest.fixture(scope="module")
def diagram_window(problem, eigs):
    return assemble_diagram(problem, eigs[1] + 0.5 * DELTA_WINDOW)


@pytest.fixture(scope="module")
def diagram_window99(problem99):
    delta = delta_window(problem99, trace_index1_degenerate_curve(problem99))
    return assemble_diagram(problem99, problem99.modes()[1].eigenvalue + 0.5 * delta)


@pytest.fixture(scope="module")
def stable20(problem):
    amp = critical_cap(problem.nonlinearity, 20.0)
    phi = problem.modes()[0].eigenfunction
    return newton_solve(
        problem, DiscreteField(problem.domain, amp * phi.values), 20.0, 0.0
    )


class TestCountSolutions:
    def test_two_solutions_each_side_of_zero(self, problem0):
        for c in (-5.0, -1.0, 0.0):
            got = count_solutions(problem0, 20.0, c, n_starts=60, seed=0)
            assert got.count == 2
            assert got.morse_indices() == (0, 1)

    def test_zero_state_collapses_to_one_member(self, problem0):
        """Every start that lands on the trivial state must deduplicate into
        a single member even though relative distance is meaningless at zero
        norm."""
        got = count_solutions(problem0, 20.0, 0.0, n_starts=60, seed=0)
        norms = sorted(float(np.max(np.abs(m.u.values))) for m in got)
        assert len(norms) == 2
        assert norms[0] < 1e-8
        assert norms[1] > 1.0

    def test_no_solutions_beyond_fold(self, problem0):
        got = count_solutions(problem0, 20.0, C_FOLD_20_M0 + 0.5, n_starts=60, seed=0)
        assert got.count == 0
        assert len(got) == 0

    def test_count_flips_across_fold(self, problem0):
        lo = count_solutions(problem0, 20.0, C_FOLD_20_M0 - 0.1, n_starts=60, seed=0)
        at = count_solutions(problem0, 20.0, C_FOLD_20_M0 - 1e-7, n_starts=60, seed=0)
        hi = count_solutions(problem0, 20.0, C_FOLD_20_M0 + 0.1, n_starts=60, seed=0)
        assert (lo.count, at.count, hi.count) == (2, 1, 0)

    def test_four_solutions_in_window(self, problem, eigs):
        a = eigs[1] + 0.5 * DELTA_WINDOW
        c = 0.2 * C_NATURAL_FOLD_NEG
        got = count_solutions(problem, a, c, n_starts=200, seed=0)
        assert got.count == 4
        assert got.morse_indices() == (0, 1, 1, 2)

    def test_members_sorted_and_classified(self, problem0):
        got = count_solutions(problem0, 20.0, -1.0, n_starts=60, seed=0)
        norms = [float(np.sqrt(problem0.domain.inner(m.u.values, m.u.values)))
                 for m in got]
        assert norms == sorted(norms)
        for m in got:
            assert m.residual_norm < 1e-8

    def test_requires_minimum_starts(self, problem0):
        with pytest.raises(ValueError):
            count_solutions(problem0, 20.0, 0.0, n_starts=10, seed=0)

    def test_set_rejects_members_below_threshold(self, problem0):
        pt = newton_solve(problem0, DiscreteField.zero(problem0.domain), 20.0, -1.0)
        with pytest.raises(ValueError):
            SolutionSet((pt, pt), 20.0, -1.0, 60, 1e-4, (1.0, 1.0), 0)


def _seeds(problem, a, n_starts, seed):
    """The start fields of count_solutions as one list, in start order."""
    return [u for chunk in diagram_mod._multistart_seeds(problem, a, n_starts, seed)
            for u in chunk]


def _per_start_count(problem, a, c, n_starts, seed):
    """count_solutions with every start solved in a stack of one: the same
    seeds, dedup and member order. Also tallies how each start ended."""
    dom = problem.domain
    kept, outcomes = [], Counter()
    for u0 in _seeds(problem, a, n_starts, seed):
        (end,) = _newton_rows(problem, [u0], a, c, COUNT_MAX_ITER)
        outcomes[_ending(end)] += 1
        if isinstance(end, Exception):
            continue
        u64, rnorm, history = end
        u = DiscreteField(dom, u64)
        if all(diagram_mod._rel_distance(u, m[0]) > diagram_mod.DEDUP_REL
               for m in kept):
            kept.append((u, rnorm, history))
    members = [
        classify_state(problem, u, a, c, residual_history=history, rnorm=rnorm)
        for u, rnorm, history in kept
    ]
    members.sort(key=lambda p: (
        np.sqrt(dom.inner(p.u.values, p.u.values)),
        float(p.u.values.max()),
        p.morse_index,
    ))
    return members, outcomes


def _ending(end):
    """How a _newton_rows entry ended; "last step" is a start that reached
    the tolerance on the last of COUNT_MAX_ITER allowed steps."""
    if isinstance(end, SingularJacobian):
        return "singular"
    if isinstance(end, NonConvergence):
        return "stalled" if "stalled" in str(end) else "iterations"
    return "last step" if len(end[2]) == COUNT_MAX_ITER + 1 else "converged"


def _assert_same_end(got, want):
    """Two _newton_rows entries end alike: the same iterate, residual and
    history, or the same exception type, message and fields."""
    assert type(got) is type(want)
    if isinstance(want, SingularJacobian):
        assert str(got) == str(want)
        assert (got.min_pivot, got.threshold) == (want.min_pivot, want.threshold)
    elif isinstance(want, NonConvergence):
        assert str(got) == str(want)
        assert np.array_equal(got.last_iterate, want.last_iterate)
        assert got.residual_norm == want.residual_norm
    else:
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]


def _assert_ends_as_alone(problem, starts, a, c, max_iter):
    """Each start's entry in one stacked _newton_rows call is the entry it
    gets alone; returns the stacked entries."""
    stacked = _newton_rows(problem, starts, a, c, max_iter)
    assert len(stacked) == len(starts)
    for start, got in zip(starts, stacked):
        (want,) = _newton_rows(problem, [start], a, c, max_iter)
        _assert_same_end(got, want)
    return stacked


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.u.values, w.u.values)
        assert g.residual_norm == w.residual_norm
        assert g.residual_history == w.residual_history
        assert g.spectrum.eigenvalues == w.spectrum.eigenvalues
        assert (g.morse_index, g.degenerate, g.tag) == (w.morse_index, w.degenerate, w.tag)


def _oracle_level(problem, level):
    """(a, c) of a level whose starts do not all converge, and how they
    fail: next to the index-1 crossing in the window some line searches
    stall; at the second eigenvalue with c = 0 the starts below the
    threshold meet a singular Jacobian and others converge linearly next to
    the degenerate segment, some only on the last allowed step."""
    lam2 = problem.modes()[1].eigenvalue
    if level == "stalls":
        return lam2 + 0.5 * DELTA_WINDOW, 287.35, ("stalled",)
    return lam2, 0.0, ("singular", "last step")


class TestBatchedOracle:
    """count_solutions solves its starts in stacked chunks; every member
    must match one newton_solve per start bit for bit."""

    @pytest.mark.parametrize("fixture", ["problem99", "problem"])
    @pytest.mark.parametrize("level", ["stalls", "degenerate"])
    def test_matches_per_start_newton(self, fixture, level, request):
        problem = request.getfixturevalue(fixture)
        a, c, failures = _oracle_level(problem, level)
        want, outcomes = _per_start_count(problem, a, c, 100, 0)
        assert all(outcomes[kind] >= 1 for kind in failures)
        _assert_bit_identical(count_solutions(problem, a, c, 100, 0).members, want)

    def test_exactly_singular_row_kept_out_of_the_solve(self):
        """On three nodes of spacing 1 at a = 2, a start below the threshold
        has the Jacobian tridiag(1, 0, 1), whose last pivot is exactly zero.
        Solved in one stacked call, its inf would reach the row above it as
        0 * inf = NaN through the zero seam; that row must end as it does
        alone, whether it converges, stalls (c = 50, beyond the fold) or
        runs out of iterations (a cap of 2), and the singular row must end
        in the SingularJacobian it gets alone."""
        problem = Problem(build_grid(3, 4.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        good, flat = 2.0 * np.ones(3), np.zeros(3)
        with pytest.raises(SingularJacobian):
            newton_solve(problem, DiscreteField(problem.domain, flat), 2.0, 1.0)
        want = newton_solve(problem, DiscreteField(problem.domain, good), 2.0, 1.0)
        rows = _newton_rows(problem, [good, flat], 2.0, 1.0, COUNT_MAX_ITER)
        assert _ending(rows[1]) == "singular"
        u64, rnorm, history = rows[0]
        assert np.array_equal(u64, want.u.values)
        assert (rnorm, history) == (want.residual_norm, want.residual_history)

        endings = {
            (c, cap): [_ending(end) for end in
                       _assert_ends_as_alone(problem, [good, flat], 2.0, c, cap)]
            for c in (1.0, 50.0) for cap in (COUNT_MAX_ITER, 2)
        }
        assert endings[1.0, COUNT_MAX_ITER] == ["converged", "singular"]
        assert endings[50.0, COUNT_MAX_ITER] == ["stalled", "singular"]
        assert endings[1.0, 2] == ["iterations", "singular"]

    def test_degenerate_start_dropped_alone(self, problem, monkeypatch):
        """A start on the degenerate segment at a = lambda2, c = 0 is
        dropped like the SingularJacobian it raises on its own, and the rows
        solved alongside it end exactly as they do without it. Every row,
        whether it converges, meets a singular Jacobian or converges only on
        the last allowed step, gets the entry it gets alone."""
        lam2 = problem.modes()[1].eigenvalue
        on_segment = 0.1 * problem.modes()[1].eigenfunction.values
        with pytest.raises(SingularJacobian):
            newton_solve(problem, DiscreteField(problem.domain, on_segment), lam2, 0.0)

        seeds = _seeds(problem, lam2, 60, 0)
        alone = _newton_rows(problem, seeds[:8], lam2, 0.0, COUNT_MAX_ITER)
        mixed = seeds[:4] + [on_segment] + seeds[4:8]
        stacked = _assert_ends_as_alone(problem, mixed, lam2, 0.0, COUNT_MAX_ITER)
        endings = [_ending(end) for end in stacked]
        assert endings[4] == "singular"
        assert endings.count("converged") >= 3
        assert {"singular", "last step"} <= set(endings[:4] + endings[5:])
        for got, want in zip(stacked[:4] + stacked[5:], alone):
            _assert_same_end(got, want)

        starts = _seeds(problem, lam2, 60, 0)
        starts = (starts[:5] + [on_segment] + starts[5:])[:-1]

        def with_segment_start(problem, a, n_starts, seed):
            for lo in range(0, n_starts, diagram_mod._CHUNK):
                yield np.array(starts[lo:lo + diagram_mod._CHUNK])

        monkeypatch.setattr(diagram_mod, "_multistart_seeds", with_segment_start)
        want, outcomes = _per_start_count(problem, lam2, 0.0, 60, 0)
        assert outcomes["singular"] >= 2
        _assert_bit_identical(count_solutions(problem, lam2, 0.0, 60, 0).members, want)

    def test_precision_stages_mixed_in_one_stack(self, problem):
        """One stack at a = lambda2, c = -1 holds rows on every path through
        the two precision stages of _newton_rows: a member perturbed by 1e-8
        starts in the long-double stage, most starts are handed to it
        part-way, some stall in the float64 stage, and the start on the
        degenerate segment of test_degenerate_start_dropped_alone meets a
        singular Jacobian (c does not enter the Jacobian). Each row gets the
        entry it gets alone."""
        lam2 = problem.modes()[1].eigenvalue
        psi = problem.modes()[1].eigenfunction.values
        c = -1.0
        seeds = _seeds(problem, lam2, 16, 0)
        member = next(end[0] for end in _newton_rows(problem, seeds, lam2, c, COUNT_MAX_ITER)
                      if not isinstance(end, Exception))
        near = member + 1e-8 * psi / np.max(np.abs(psi))
        assert np.max(np.abs(problem.residual_values(near, lam2, c))) <= FLOAT64_PHASE_TOL
        mixed = seeds[:8] + [near] + seeds[8:] + [0.1 * psi]
        stacked = _assert_ends_as_alone(problem, mixed, lam2, c, COUNT_MAX_ITER)
        endings = [_ending(end) for end in stacked]
        assert endings[8] == "converged"
        assert all(x <= FLOAT64_PHASE_TOL for x in stacked[8][2])
        assert endings[-1] == "singular"
        assert endings.count("stalled") >= 2
        # handed off part-way: long-double steps follow the first history
        # entry at or below the switch
        handoffs = [
            [x <= FLOAT64_PHASE_TOL for x in end[2]].index(True)
            for end in stacked if not isinstance(end, Exception)
        ]
        lengths = [len(end[2]) for end in stacked if not isinstance(end, Exception)]
        assert sum(0 < k < m - 1 for k, m in zip(handoffs, lengths)) >= 5

    def test_classifies_only_survivors(self, problem, eigs, monkeypatch):
        spectra = []
        original = spectral_mod.linearized_spectrum

        def counting(state, k=3, prev=None):
            spectra.append(state)
            return original(state, k, prev)

        monkeypatch.setattr(spectral_mod, "linearized_spectrum", counting)
        a = eigs[1] + 0.5 * DELTA_WINDOW
        got = count_solutions(problem, a, 0.2 * C_NATURAL_FOLD_NEG, n_starts=200, seed=0)
        assert got.count == 4
        assert len(spectra) == got.count

    @pytest.mark.parametrize("level", ["stalls", "degenerate"])
    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_members_invariant_under_chunking(self, problem, monkeypatch, level, chunk):
        a, c, _ = _oracle_level(problem, level)
        want = count_solutions(problem, a, c, 60, 0)
        monkeypatch.setattr(diagram_mod, "_CHUNK", chunk)
        _assert_bit_identical(count_solutions(problem, a, c, 60, 0).members, want.members)


def _without_balls(monkeypatch):
    """Make count_solutions give no member a ball, so no start exits early."""
    monkeypatch.setattr(diagram_mod, "newton_ball", lambda *args: "disabled")


class TestNewtonBalls:
    """Each member kept by count_solutions carries a certified Newton ball
    (solver.newton_ball) or the reason it has none, and starts of later
    chunks that enter a ball stop there. The members must not change."""

    @pytest.mark.parametrize("window", ["diagram_window99", "diagram_window"])
    def test_window_levels_match_the_reference(self, window, request, monkeypatch):
        """At every level verify_structure counts in the window (the four
        samples and c = 0), the members are bit-identical to those of one
        start at a time and to those of a count with no balls; every
        member has a ball there, and some starts exit in one."""
        diag = request.getfixturevalue(window)
        problem = diag.problem
        levels = [*diagram_mod._count_samples(diag), 0.0]
        got = {c: count_solutions(problem, diag.a, c, 100, 0) for c in levels}
        for c in levels:
            want, _ = _per_start_count(problem, diag.a, c, 100, 0)
            _assert_bit_identical(got[c].members, want)
            assert len(got[c].radii) == got[c].count
            assert all(r > 0 for r in got[c].radii)
        assert sum(s.exited for s in got.values()) > 100
        _without_balls(monkeypatch)
        for c in levels:
            plain = count_solutions(problem, diag.a, c, 100, 0)
            _assert_bit_identical(got[c].members, plain.members)
            assert plain.exited == 0

    def test_degenerate_level_matches_the_reference(self, problem, monkeypatch):
        """At the second eigenvalue with c = 0 the segment's landings get no
        ball, with the reason, and the members are those of one start at a
        time and of a count with no balls."""
        a, c, _ = _oracle_level(problem, "degenerate")
        got = count_solutions(problem, a, c, 100, 0)
        want, _ = _per_start_count(problem, a, c, 100, 0)
        _assert_bit_identical(got.members, want)
        for m, r in zip(got.members, got.radii):
            assert (r == "degenerate") == m.degenerate
            assert m.degenerate or r > 0
        assert any(m.degenerate for m in got.members)
        _without_balls(monkeypatch)
        _assert_bit_identical(count_solutions(problem, a, c, 100, 0).members, got.members)

    @pytest.mark.parametrize("chunk", [1, 32, 400])
    def test_members_invariant_under_chunking(self, problem, eigs, monkeypatch, chunk):
        a, c = eigs[1] + 0.5 * DELTA_WINDOW, 0.2 * C_NATURAL_FOLD_NEG
        want = count_solutions(problem, a, c, 400, 0)
        monkeypatch.setattr(diagram_mod, "_CHUNK", chunk)
        got = count_solutions(problem, a, c, 400, 0)
        _assert_bit_identical(got.members, want.members)
        assert got.radii == want.radii
        # one chunk has no earlier chunk, so no balls
        assert (got.exited == 0) == (chunk == 400)

    def test_damped_newton_inside_a_ball_ends_on_its_member(self):
        """From random points of a member's ball, including its rim, the
        damped Newton with no balls ends on that member, within DEDUP_REL,
        or fails; never on another state."""
        problem = Problem(build_grid(49, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        lam2 = problem.modes()[1].eigenvalue
        got = count_solutions(problem, lam2 + 0.4, -1.0, 100, 0)
        assert got.count == 4
        rng = np.random.default_rng(1)
        for m, radius in zip(got.members, got.radii):
            direction = rng.standard_normal((40, 49))
            direction /= np.linalg.norm(direction, axis=1)[:, None]
            scale = radius * np.append(rng.uniform(0.0, 1.0, 36), [1.0] * 4)
            starts = m.u.values + scale[:, None] * direction
            ends = _newton_rows(problem, starts, got.a, got.c, COUNT_MAX_ITER)
            converged = [end for end in ends if not isinstance(end, Exception)]
            assert len(converged) >= 30
            for u64, _, _ in converged:
                dist = diagram_mod._rel_distance(DiscreteField(problem.domain, u64), m.u)
                assert dist <= diagram_mod.DEDUP_REL

    def test_radius_of_the_zero_state_without_threshold(self):
        """With M = 0, p_f = 4 and a below lambda1, the zero state solves
        c = 0 exactly and L(rho) = 12 rho^2 vanishes at rho = 0; beta L rho
        = 1/2 then gives rho = (24 beta)^(-1/3) with beta = 1 / (lambda1 - a),
        the smallest eigenvalue of the linearization."""
        problem = Problem(build_grid(49, 1.0), Nonlinearity(0.0, 4), HarvestSpec("bump"))
        got = count_solutions(problem, 2.0, 0.0, 50, 0)
        assert got.count == 1
        (zero,), (radius,) = got.members, got.radii
        assert not zero.u.values.any()
        beta = 1.0 / zero.spectrum.mu1
        assert radius == pytest.approx((24.0 * beta) ** (-1.0 / 3.0), rel=1e-6)


class TestDampedNewton:
    """The line search and the float64 and long-double stages of
    _newton_rows, the damped Newton behind newton_solve and count_solutions."""

    def test_stalled_start_spends_few_residual_rows(self, problem, eigs, monkeypatch):
        """Above the top fold of the window nothing converges: the starts
        stall, most at the fold's residual minimum (sup norm about 0.105).
        Halving would take 20 cuts from a full step to ARMIJO_MIN_STEP, about
        98 residual rows per start here; quadratic backtracking cuts by up to
        a factor of 10 and spends about 28."""
        rows = []
        original = Problem.residual_values

        def counting(self, u, a, c):
            rows.append(len(u))
            return original(self, u, a, c)

        monkeypatch.setattr(Problem, "residual_values", counting)
        a = eigs[1] + 0.5 * DELTA_WINDOW
        seeds = _seeds(problem, a, 100, 0)
        ends = _newton_rows(problem, seeds, a, C_FOLD_WINDOW + 0.5, COUNT_MAX_ITER)
        assert {_ending(end) for end in ends} == {"stalled"}
        assert np.median([end.residual_norm for end in ends]) == pytest.approx(0.105, abs=0.005)
        assert sum(rows) / len(seeds) < 40

    @pytest.mark.parametrize("level", ["stalls", "degenerate"])
    def test_no_nonconvergence_below_the_tolerance(self, problem, level):
        """The iterate of the last allowed step is tested like any other: at
        the second eigenvalue with c = 0, starts that converge linearly next
        to the degenerate segment reach the tolerance only on that step, and
        they end converged. No start is reported as not converged with a
        residual below NEWTON_TOL."""
        a, c, _ = _oracle_level(problem, level)
        seeds = _seeds(problem, a, 400, 0)
        ends = [end for lo in range(0, len(seeds), 32)
                for end in _newton_rows(problem, seeds[lo:lo + 32], a, c, COUNT_MAX_ITER)]
        failed = [end for end in ends if isinstance(end, NonConvergence)]
        assert all(end.residual_norm >= NEWTON_TOL for end in failed)
        if level == "degenerate":
            assert Counter(map(_ending, ends))["last step"] >= 10

    def test_handoff_on_the_last_allowed_step(self, problem):
        """A row handed to the long-double stage on its last allowed step is
        tested there before its iterations run out, as in
        test_last_allowed_step_is_tested. At the README level, start 12
        converges on the step that hands it off and start 3 one step later;
        with a cap at that step, start 12 keeps the entry a larger cap gives
        it and start 3 ends out of iterations at the long-double residual
        of its handoff, converging with one more step allowed."""
        seeds = _seeds(problem, 40.0, 16, 0)
        late, direct = seeds[3], seeds[12]
        want = [_newton_rows(problem, [u0], 40.0, -0.005, COUNT_MAX_ITER)[0]
                for u0 in (late, direct)]
        step = len(want[1][2]) - 1
        assert want[1][2][-2] > FLOAT64_PHASE_TOL
        assert len(want[0][2]) == step + 2
        assert want[0][2][step - 1] > FLOAT64_PHASE_TOL >= want[0][2][step] >= NEWTON_TOL
        short, got = _assert_ends_as_alone(problem, [late, direct], 40.0, -0.005, step)
        _assert_same_end(got, want[1])
        assert isinstance(short, NonConvergence)
        assert str(short).startswith(f"no convergence in {step} iterations")
        assert short.residual_norm == want[0][2][step]
        (got,) = _newton_rows(problem, [late], 40.0, -0.005, step + 1)
        _assert_same_end(got, want[0])

    @pytest.mark.parametrize("n", [99, 399, 1599])
    def test_float64_residual_is_exact_enough(self, n):
        """At the converged members of the README count, the float64 and the
        long-double residual of the same field differ by less than
        NEWTON_TOL / 10, so the float64 stage's test of a trial against the
        switch FLOAT64_PHASE_TOL is not misled. The float64 stage iterates on
        float64 fields, which sit up to half an ulp from the long-double
        field they stand for; that rounding moves the residual by at most
        about (4 / h^2) ulp(|u|) / 2, which stays a hundred times below the
        switch, so float64 iterates can reach it."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        a, c = 40.0, -0.005
        members = count_solutions(problem, a, c, 50, 0).members
        assert len(members) == 4
        rng = np.random.default_rng(0)
        for m in members:
            u = m.u.values
            f64 = problem.residual_values(u, a, c)
            gap = np.max(np.abs(f64 - problem.residual_values(u.astype(np.longdouble), a, c)))
            assert gap < NEWTON_TOL / 10
            # a long-double field whose float64 rounding is u
            v = u.astype(np.longdouble) + (
                rng.uniform(-0.49, 0.49, n) * np.spacing(u)
            ).astype(np.longdouble)
            assert np.array_equal(v.astype(float), u)
            gap = np.max(np.abs(f64 - problem.residual_values(v, a, c)))
            assert gap < FLOAT64_PHASE_TOL / 100

    def test_reported_residuals_are_long_double(self, problem, monkeypatch):
        """Residuals above FLOAT64_PHASE_TOL are evaluated in float64, and
        every converged entry's residual, like every history entry at or
        below the switch, is the sup norm of a long-double evaluation."""
        norms = {np.dtype(float): set(), np.dtype(np.longdouble): set()}
        original = Problem.residual_values

        def recording(self, u, a, c):
            r = original(self, u, a, c)
            norms[r.dtype].update(np.max(np.abs(r), axis=-1).astype(float).ravel().tolist())
            return r

        monkeypatch.setattr(Problem, "residual_values", recording)
        seeds = _seeds(problem, 40.0, 100, 0)
        ends = _newton_rows(problem, seeds, 40.0, -0.005, COUNT_MAX_ITER)
        converged = [end for end in ends if not isinstance(end, Exception)]
        assert len(converged) >= 50
        f64, ld = norms[np.dtype(float)], norms[np.dtype(np.longdouble)]
        for u64, rnorm, history in converged:
            assert rnorm < NEWTON_TOL
            assert rnorm in ld
            assert all(x in ld for x in history if x <= FLOAT64_PHASE_TOL)
            assert all(x in f64 for x in history if x > FLOAT64_PHASE_TOL)


class TestAssembly:
    def test_regime_labels_are_the_documented_five(self):
        assert REGIMES == (
            "below-lambda1",
            "at-lambda1",
            "between-lambda1-lambda2",
            "at-lambda2",
            "above-lambda2",
        )

    def test_between_two_pieces_joined_at_fold(self, diagram20):
        assert diagram20.regime == "between-lambda1-lambda2"
        assert diagram20.complete
        assert diagram20.segment is None
        assert set(diagram20.tags()) == {"Mstar", "Msharp"}
        assert len(diagram20.degenerate_points) == 1
        dp = diagram20.degenerate_points[0]
        assert dp.c == pytest.approx(C_FOLD_20, rel=1e-9)
        assert dp.kind == "fold-index0"

    def test_between_zero_threshold_fold(self, diagram20_m0):
        dp = diagram20_m0.degenerate_points[0]
        assert dp.c == pytest.approx(C_FOLD_20_M0, rel=1e-9)

    def test_branches_reach_the_c_floor(self, diagram20):
        for tag in ("Mstar", "Msharp"):
            br = diagram20.branch(tag)
            assert br.points[0].c == pytest.approx(-10.0, abs=1e-6)

    def test_stable_branch_monotone_decreasing_in_c(self, diagram20):
        br = diagram20.branch("Mstar")
        pts = br.points
        for p, q in zip(pts, pts[1:]):
            if q.c - p.c > 1e-12:
                assert np.all(q.u.values <= p.u.values + 1e-10)

    def test_at_lambda2_segment_and_sheets(self, diagram_lam2):
        assert diagram_lam2.regime == "at-lambda2"
        assert set(diagram_lam2.tags()) == {"Mflat", "Msharp", "Mstar"}
        seg = diagram_lam2.segment
        assert seg is not None
        assert seg.t_min == pytest.approx(-0.2, abs=1e-12)
        assert seg.t_max == pytest.approx(0.2, abs=1e-12)
        cs = sorted(dp.c for dp in diagram_lam2.degenerate_points)
        assert cs[-1] == pytest.approx(C_FOLD_AT_LAM2, rel=1e-9)

    def test_at_lambda2_zero_threshold(self, diagram_lam2_m0):
        seg = diagram_lam2_m0.segment
        assert seg.t_min == seg.t_max == 0.0
        cs = sorted(dp.c for dp in diagram_lam2_m0.degenerate_points)
        assert cs[-1] == pytest.approx(C_FOLD_AT_LAM2_M0, rel=1e-9)
        # the two sheets meet at the origin: one ends where the other begins
        sharp = diagram_lam2_m0.branch("Msharp")
        flat = diagram_lam2_m0.branch("Mflat")
        assert abs(sharp.t_values()[0]) < 0.1
        assert abs(flat.t_values()[-1]) < 0.1

    def test_window_seven_piece_structure(self, diagram_window):
        assert diagram_window.regime == "above-lambda2"
        assert set(diagram_window.tags()) == {"Mflat", "Mnatural", "Msharp", "Mstar"}
        cs = sorted(dp.c for dp in diagram_window.degenerate_points)
        assert len(cs) == 3
        assert cs[0] == pytest.approx(C_NATURAL_FOLD_NEG, rel=1e-6)
        assert cs[1] == pytest.approx(C_NATURAL_FOLD_POS, rel=1e-6)
        assert cs[2] == pytest.approx(C_FOLD_WINDOW, rel=1e-6)

    def test_at_lambda1_ray_and_crescent(self, diagram_lam1):
        assert diagram_lam1.regime == "at-lambda1"
        assert set(diagram_lam1.tags()) == {"ray", "Mstar"}
        ray = diagram_lam1.branch("ray")
        assert len(ray.points) == 41
        assert set(ray.morse_indices()) == {0}
        assert ray.t_values()[0] == pytest.approx(-0.2, abs=1e-12)
        assert ray.t_values()[-1] == pytest.approx(0.2, abs=1e-12)
        assert all(abs(p.c) < 1e-12 for p in ray.points)
        # each ray state is certified by the residual Newton converges on,
        # evaluated in long double on the closed-form mode
        problem = diagram_lam1.problem
        lam1_ld, phi_ld = exact_mode_longdouble(problem.domain, 1)
        for t, p in zip(ray.t_values(), ray.points):
            r = problem.residual_values(np.longdouble(t) * phi_ld, lam1_ld, 0.0)
            assert p.residual_norm == float(np.max(np.abs(r))) < 1e-12
        assert len(diagram_lam1.degenerate_points) == 1
        assert abs(diagram_lam1.degenerate_points[0].c) < 1e-9

    def test_at_lambda1_on_a_fine_grid(self):
        """At n = 1599 multiples of the float64 first eigenvector miss the
        steady-state tolerance; the ray is certified in long double instead
        and the diagram completes."""
        problem = Problem(build_grid(1599, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        diag = assemble_diagram(problem, problem.modes()[0].eigenvalue)
        assert diag.complete and diag.regime == "at-lambda1"
        assert set(diag.tags()) == {"ray", "Mstar"}
        ray = diag.branch("ray")
        assert len(ray.points) == 41
        assert all(p.degenerate and p.morse_index == 0 for p in ray.points)
        assert max(p.residual_norm for p in ray.points) < NEWTON_TOL
        assert abs(diag.degenerate_points[0].c) < 1e-9

    def test_below_single_stable_sweep(self, diagram_below):
        assert diagram_below.regime == "below-lambda1"
        assert set(diagram_below.tags()) == {"Mstar"}
        assert diagram_below.segment is None
        assert diagram_below.degenerate_points == ()
        br = diagram_below.branch("Mstar")
        assert br.points[0].c == pytest.approx(-10.0, abs=1e-6)
        assert br.points[-1].c == pytest.approx(10.0, abs=1e-6)

    def test_branch_lookup_by_unknown_tag(self, diagram20):
        with pytest.raises(KeyError):
            diagram20.branch("Mnatural")

    def test_rejects_nonpositive_growth_rate(self, problem):
        with pytest.raises(ValueError):
            assemble_diagram(problem, 0.0)

    def test_rejects_nonnegative_c_floor(self, problem):
        with pytest.raises(ValueError):
            assemble_diagram(problem, 20.0, c_min=1.0)

    def test_truncated_run_carries_partial_diagram(self, problem):
        with pytest.raises(AssemblyIncomplete) as err:
            assemble_diagram(problem, 20.0, max_points=5)
        partial = err.value.partial
        assert isinstance(partial, BifurcationDiagram)
        assert not partial.complete

    def test_above_the_window_is_incomplete_not_a_bare_error(
        self, problem, eigs, monkeypatch
    ):
        # well past lambda2 + delta the middle piece runs to the c window
        # edge instead of folding; the builder must report that as a typed
        # failure with the partial diagram
        with pytest.raises(AssemblyIncomplete, match="ends with 'endpoint'") as err:
            assemble_diagram(problem, eigs[1] + 3.0)
        assert isinstance(err.value.__cause__, NonConvergence)
        partial = err.value.partial
        assert partial.regime == "above-lambda2"
        assert not partial.complete
        # the middle piece was traced before the failure: one trace folds,
        # the other runs to the c window edge, and both stay in the partial
        assert partial.tags() == ("Mnatural",)
        nat = partial.branch("Mnatural")
        assert [ev.kind for ev in nat.events] == ["fold", "endpoint"]
        # the cause names the branch and carries the state its trace stopped at
        cause = err.value.__cause__
        assert str(cause).startswith("Mnatural: ")
        np.testing.assert_array_equal(cause.last_iterate, nat.points[-1].u.values)
        assert cause.residual_norm == nat.points[-1].residual_norm
        assert len(partial.degenerate_points) == 1
        assert partial.degenerate_points[0] is nat.events[0].degenerate_point
        # the message says how far past the window the growth rate lies
        assert "(a - lambda2 = 3, delta = 0.96276: a lies past lambda2 + delta)" in str(
            err.value
        )
        # and says so when the window half-width cannot be traced either
        def stalled(problem):
            raise NonConvergence("index-1 family in t stalled", None, np.nan)

        monkeypatch.setattr(diagram_mod, "trace_index1_degenerate_curve", stalled)
        with pytest.raises(AssemblyIncomplete, match="ends with 'endpoint'") as err:
            assemble_diagram(problem, eigs[1] + 3.0)
        assert str(err.value).endswith(
            "(a - lambda2 = 3; the window half-width delta failed: "
            "index-1 family in t stalled)"
        )

    @pytest.mark.parametrize("relabel, hits", [("endpoint", 2), ("index-change", 0)])
    def test_ambiguous_trace_ends_name_every_trace(
        self, problem, monkeypatch, relabel, hits
    ):
        # relabel the first fold-ending trace at a = 20: the stable pair then
        # ends with two 'endpoint' traces, or with none ending in 'fold'
        original = diagram_mod.continue_branch
        relabelled = []

        def continue_branch(*args, **kwargs):
            br = original(*args, **kwargs)
            if not relabelled and br.events and br.events[-1].kind == "fold":
                last = dataclasses.replace(br.events[-1], kind=relabel)
                br = dataclasses.replace(br, events=br.events[:-1] + (last,))
                relabelled.append(br)
            return br

        monkeypatch.setattr(diagram_mod, "continue_branch", continue_branch)
        with pytest.raises(AssemblyIncomplete) as err:
            assemble_diagram(problem, 20.0)
        cause = err.value.__cause__
        assert isinstance(cause, NonConvergence)
        wanted = "endpoint" if hits == 2 else "fold"
        fold_c = relabelled[0].points[-1].c
        assert (
            f"expected exactly one trace ending with {wanted!r}, got {hits} "
            f"(traces end with {relabel!r} at c={fold_c:.6g}, 'endpoint' at c=-10)"
        ) in str(err.value)
        # the nearest trace is the relabelled one: the first of two hits,
        # or the longer of two misses
        last = relabelled[0].points[-1]
        assert np.array_equal(cause.last_iterate, last.u.values)
        assert cause.residual_norm == last.residual_norm < NEWTON_TOL

    def test_at_lambda2_segment_failure_is_incomplete_not_a_bare_error(self):
        """At n = 2399 the exact segment states miss the 1e-12 bound at
        rounding level (1.015e-12); assembly reports the failed
        certification as a typed failure with the partial diagram."""
        problem = Problem(build_grid(2399, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        with pytest.raises(AssemblyIncomplete, match="segment states") as err:
            assemble_diagram(problem, problem.modes()[1].eigenvalue)
        assert isinstance(err.value.__cause__, NonConvergence)
        partial = err.value.partial
        assert partial.regime == "at-lambda2" and not partial.complete
        assert partial.branches == () and partial.segment is None

    def test_diagram_validates_regime_label(self, problem):
        with pytest.raises(ValueError):
            BifurcationDiagram(problem, 20.0, "sideways", (), (), None, -10.0)


class TestDiagramSolutionsAt:
    def test_matches_oracle_membership(self, diagram20, problem):
        predicted = diagram_solutions_at(diagram20, -1.0)
        assert len(predicted) == 2
        assert sorted(p.morse_index for p in predicted) == [0, 1]
        for p in predicted:
            assert p.residual_norm < 1e-8

    def test_empty_beyond_the_fold(self, diagram20):
        assert diagram_solutions_at(diagram20, C_FOLD_20 + 1.0) == []


class TestVerifyStructure:
    @pytest.mark.parametrize("fixture", [
        "diagram_below",
        "diagram_lam1",
        "diagram20",
        "diagram20_m0",
        "diagram_lam2",
        "diagram_lam2_m0",
        "diagram_window",
    ])
    def test_all_regimes_pass(self, fixture, request):
        diag = request.getfixturevalue(fixture)
        report = verify_structure(diag, oracle_budget=60, seed=0)
        assert report.regime == diag.regime
        assert report.failures() == ()
        assert report.passed

    def test_between_report_claims(self, diagram20):
        report = verify_structure(diagram20, oracle_budget=60, seed=0)
        ids = [chk.claim for chk in report.checks]
        assert any(i.startswith("normal-form") for i in ids)
        assert any(i.startswith("count@") for i in ids)
        assert "stable-monotone-in-c" in ids
        assert "static-stability-criterion" in ids

    def test_at_lambda2_report_claims(self, diagram_lam2):
        report = verify_structure(diagram_lam2, oracle_budget=60, seed=0)
        ids = [chk.claim for chk in report.checks]
        assert "segment-second-eigenvalue-zero" in ids
        assert "czero-dichotomy" in ids

    def test_at_lambda2_on_a_fine_grid_records_the_segment_claim(self):
        """At n = 1599 the float64 rounding of a segment state misses
        NEWTON_TOL; the segment claim takes the long-double residual of the
        exact state, so the report comes back with the claim recorded,
        whatever its verdict, and nothing is raised."""
        problem = Problem(build_grid(1599, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        diag = assemble_diagram(problem, problem.modes()[1].eigenvalue)
        seg = diag.segment
        rounded = seg.state_at(seg.t_max).values
        assert np.max(np.abs(problem.residual_values(rounded, diag.a, 0.0))) >= NEWTON_TOL
        report = verify_structure(diag, oracle_budget=60, seed=0)
        ids = [chk.claim for chk in report.checks]
        assert ids.count("segment-second-eigenvalue-zero") == 1

    def test_zero_threshold_cusp_claim(self, diagram_lam2_m0):
        report = verify_structure(diagram_lam2_m0, oracle_budget=60, seed=0)
        cusp = [chk for chk in report.checks if chk.claim == "cusp-flat-at-origin"]
        assert len(cusp) == 1
        assert cusp[0].passed
        assert cusp[0].measured < 0.3

    def test_window_report_claims(self, diagram_window, monkeypatch):
        calls = []
        real = diagram_mod.count_solutions

        def counted(problem, a, c, n_starts, seed):
            calls.append((c, n_starts, seed))
            return real(problem, a, c, n_starts, seed)

        monkeypatch.setattr(diagram_mod, "count_solutions", counted)
        report = verify_structure(diagram_window, oracle_budget=60, seed=0)
        # each level is solved once: the four count samples and c = 0
        assert len(calls) == 5 and len(set(calls)) == 5
        ids = [chk.claim for chk in report.checks]
        assert "middle-sheet-slope-negative" in ids
        slope = next(c for c in report.checks
                     if c.claim == "middle-sheet-slope-negative")
        assert slope.measured < 0.0
        measured = {chk.claim: chk.measured for chk in report.checks}
        three = [i for i in ids if i.startswith("at-least-three@")]
        assert len(three) == 2
        for claim in three:
            level = claim.split("@", 1)[1]
            assert measured[claim] == measured[f"count@{level}"]

    def test_failed_polish_keeps_the_expected_count(self, diagram20, monkeypatch):
        """A crossing whose Newton polish fails still counts toward the
        expected states, so the count claim holds while the equivalence
        claim, which has one refined state fewer, fails."""
        real = diagram_mod._refined_crossing
        failed = []

        def flaky(problem, branch, i, c):
            if c == -1.0 and not failed:
                failed.append(branch.tag)
                raise NonConvergence("forced polish failure", None, np.inf)
            return real(problem, branch, i, c)

        monkeypatch.setattr(diagram_mod, "_refined_crossing", flaky)
        report = verify_structure(diagram20, oracle_budget=60, seed=0)
        assert failed
        checks = {chk.claim: chk for chk in report.checks}
        count = checks["count@c=-1"]
        assert count.expected == 2 and count.measured == 2 and count.passed
        assert not checks["oracle-equivalence@c=-1"].passed

    def test_report_failure_listing(self):
        bad = ClaimCheck("made-up", 1, 2, "exact", False)
        good = ClaimCheck("fine", 1, 1, "exact", True)
        report = VerificationReport("below-lambda1", 5.0, (good, bad))
        assert not report.passed
        assert report.failures() == (bad,)


class TestCoarseWindow:
    """The window diagram at n = 99, midway between its upper natural fold
    and its terminal fold (c = 287.354, the third count sample)."""

    @staticmethod
    def level(diagram):
        folds = sorted(dp.c for dp in diagram.degenerate_points)
        return 0.5 * (folds[1] + folds[2])

    def test_oracle_and_refined_crossings_find_two_states(self, diagram_window99):
        c = self.level(diagram_window99)
        got = count_solutions(diagram_window99.problem, diagram_window99.a, c, 400, 0)
        assert got.morse_indices() == (0, 1)
        refined = diagram_solutions_at(diagram_window99, c)
        assert sorted(p.morse_index for p in refined) == [0, 1]

    def test_flat_sheet_stops_at_its_fold(self, diagram_window99, diagram_window):
        """Mflat ends at the upper natural fold at n = 99 as at n = 399.
        Near c = 6.15 a corrector step can converge onto the index-1 sheet
        that Msharp covers (a chord 1.84 long for a step of 0.25) with no
        eigenvalue changing sign; unless the jump and chord checks redo
        that step, the trace follows the sheet to the terminal fold."""
        flat99 = diagram_window99.branch("Mflat")
        assert flat99.events[-1].kind == "fold"
        assert len(flat99.points) <= 2 * len(diagram_window.branch("Mflat").points)
        fold = flat99.events[-1].degenerate_point
        natural = [dp.c for dp in diagram_window99.branch("Mnatural").fold_points()]
        assert fold.kind == "degenerate-index1"
        assert min(abs(fold.c - c) for c in natural) < 1e-9

    def test_verify_passes(self, diagram_window99):
        """Guards the count claim at this level, which Msharp and Mstar
        cross once each: the claim must expect the two distinct refined
        states the oracle finds, and the whole report must pass."""
        report = verify_structure(diagram_window99, seed=0)
        count = next(chk for chk in report.checks
                     if chk.claim == f"count@c={self.level(diagram_window99):.6g}")
        assert count.expected == 2
        assert report.failures() == ()


class TestChordTolerance:
    """The piecewise-linear branches that the CSV and SVG draw stay close to
    the solution set. For each chord between neighbouring branch points, the
    state on the hyperplane through the chord's midpoint, orthogonal to it,
    lies within 4 CHORD_TOL of that midpoint in the product norm. The step
    controller sizes chords to a deviation of CHORD_TOL and redoes those it
    estimates above 2 CHORD_TOL; the remaining factor 2 covers curvature
    that grows along a chord, as it does approaching a fold."""

    @pytest.mark.parametrize("fixture", [
        "diagram_below", "diagram_lam1", "diagram20", "diagram_lam2", "diagram_window",
    ])
    def test_chord_midpoints_lie_within_the_tolerance(self, fixture, request):
        bound = 4.0 * CHORD_TOL
        assert bound <= 1e-2
        diag = request.getfixturevalue(fixture)
        problem = diag.problem
        dom = problem.domain
        worst = 0.0
        for br in diag.branches:
            if br.tag == "ray":
                continue
            for p, q in zip(br.points, br.points[1:]):
                du, dc = q.u.values - p.u.values, q.c - p.c
                um, cm = 0.5 * (p.u.values + q.u.values), 0.5 * (p.c + q.c)
                row = dom.spacing * du
                _, u, c, _, _ = _extended_newton(
                    problem, diag.a, um, cm, 8,
                    row=(1.0, row, dc, -(row @ um + dc * cm)),
                )
                dev = dom.l2_norm(u.astype(float) - um) + abs(float(c) - cm)
                worst = max(worst, dev)
        assert worst <= bound


class TestStabilityCrosscheck:
    def test_stable_state_attracts(self, stable20):
        assert stability_crosscheck(stable20) == "pass"

    def test_unstable_zero_state_repels(self, problem):
        zero = newton_solve(problem, DiscreteField.zero(problem.domain), 20.0, 0.0)
        assert stability_crosscheck(zero) == "pass"

    def test_index_two_interior_state_repels(self, diagram_window):
        nat = diagram_window.branch("Mnatural")
        mid = nat.points[len(nat.points) // 2]
        assert mid.morse_index == 2
        assert stability_crosscheck(mid) == "pass"

    def test_degenerate_segment_state(self, problem, eigs):
        psi = problem.modes()[1].eigenfunction
        pt = classify_state(
            problem, DiscreteField(problem.domain, 0.1 * psi.values), eigs[1], 0.0
        )
        assert pt.degenerate
        assert stability_crosscheck(pt) == "pass"

    def test_trivial_state_below_first_eigenvalue(self, problem):
        triv = newton_solve(problem, DiscreteField.zero(problem.domain), 5.0, 0.0)
        assert stability_crosscheck(triv) == "pass"

    def test_detects_a_misclassified_point(self, stable20):
        """A stable state relabeled as index 1 must flunk the dynamic test:
        the kick decays instead of growing."""
        forged = dataclasses.replace(stable20, morse_index=1)
        assert stability_crosscheck(forged) == "fail"
