"""Multistart solution counts, whole-diagram assembly per regime, structural
verification reports and the dynamic stability cross-check.

Fold locations reused here were pinned in test_continuation by independent
oracles (extremum search, finite differences); the zero-threshold fold at
a = 20 is confirmed below by the count flip across it. Diagram shapes are
asserted against the piece decompositions the assembly claims to realize,
with the oracle-based verifier replayed on every regime.
"""

import ast
import dataclasses
import inspect
import itertools
import re
import threading
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
import bifurcate.continuation as continuation_mod
import bifurcate.diagram as diagram_mod
import bifurcate.grid as grid_mod
import bifurcate.solver as solver_mod
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
    StepCounts,
    StepUnderflow,
    _extended_newton,
    chart_coordinate,
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
            SolutionSet((pt, pt), 20.0, -1.0, 60, 1e-4, (1.0, 1.0),
                        dict.fromkeys(diagram_mod.OUTCOMES, 0))


def _seeds(problem, a, n_starts, seed):
    """The start fields of count_solutions as one list, in start order."""
    return list(diagram_mod._multistart_seeds(problem, a, n_starts, seed))


def _stack_rows(monkeypatch, problem, rows):
    """Make count_solutions pool its starts rows at a time."""
    monkeypatch.setattr(diagram_mod, "_STACK_ELEMENTS", rows * problem.domain.n_interior)


def _start_endings(monkeypatch):
    """Record, start by start, how each row of count_solutions' pool ends
    (solver._newton_pool); returns the list that each count's dict of start
    index to ending is appended to."""
    counts, real_pool = [], diagram_mod._newton_pool

    def pool(*args, **kwargs):
        endings = {}
        counts.append(endings)
        for i, ending, end in real_pool(*args, **kwargs):
            endings[i] = ending
            yield i, ending, end

    monkeypatch.setattr(diagram_mod, "_newton_pool", pool)
    return counts


def _assert_same_but_exits(got, want):
    """Two records of _start_endings for the same starts: every start that
    exits in a ball in neither ends the same way in both."""
    assert sorted(got) == sorted(want) == list(range(len(want)))
    for i, ending in want.items():
        if "ball-exit" not in (ending, got[i]):
            assert got[i] == ending, i


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
    """count_solutions solves its starts in stacks; every member must match
    one newton_solve per start bit for bit."""

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
        # the first random start on the segment
        starts = (starts[:5] + [on_segment] + starts[5:])[:-1]
        monkeypatch.setattr(diagram_mod, "_multistart_seeds", lambda *args, **kwargs: iter(starts))
        want, outcomes = _per_start_count(problem, lam2, 0.0, 60, 0)
        assert outcomes["singular"] >= 2
        _assert_bit_identical(count_solutions(problem, lam2, 0.0, 60, 0).members, want)

    def test_precision_stages_mixed_in_one_stack(self, problem):
        """One stack at a = lambda2, c = -1 holds rows on every path up the
        precision ladder of _newton_rows: a member perturbed by 1e-8 is
        admitted as a paired row, most starts become paired part-way, some
        stall unpaired, and the start on the degenerate segment of
        test_degenerate_start_dropped_alone meets a singular Jacobian (c
        does not enter the Jacobian). Each row gets the entry it gets
        alone."""
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
        # handed off part-way: Pair steps follow the first history entry at
        # or below the switch
        handoffs = [
            [x <= FLOAT64_PHASE_TOL for x in end[2]].index(True)
            for end in stacked if not isinstance(end, Exception)
        ]
        lengths = [len(end[2]) for end in stacked if not isinstance(end, Exception)]
        assert sum(0 < k < m - 1 for k, m in zip(handoffs, lengths)) >= 5

    def test_pool_raises_when_a_start_is_never_ready(self, problem99):
        """A stream whose next start is not ready while no row is live would
        wait forever: the pool raises instead of ending with starts left."""
        starts = itertools.chain([np.zeros(problem99.domain.n_interior)], itertools.repeat(None))
        pool = solver_mod._newton_pool(problem99, starts, 20.0, 0.0, COUNT_MAX_ITER, 4)
        with pytest.raises(RuntimeError, match="not ready"):
            list(pool)

    def test_classifies_only_survivors(self, problem, eigs, monkeypatch):
        spectra = []
        original = solver_mod.linearized_spectrum

        def counting(problem, u, a, k=3, prev=None):
            spectra.append(u)
            return original(problem, u, a, k, prev)

        monkeypatch.setattr(solver_mod, "linearized_spectrum", counting)
        a = eigs[1] + 0.5 * DELTA_WINDOW
        got = count_solutions(problem, a, 0.2 * C_NATURAL_FOLD_NEG, n_starts=200, seed=0)
        assert got.count == 4
        assert len(spectra) == got.count

    @pytest.mark.parametrize("level", ["stalls", "degenerate"])
    @pytest.mark.parametrize("rows", [1, 7, 60])
    def test_members_invariant_under_chunking(self, problem, monkeypatch, level, rows):
        """A pool of one row, of seven, and of all 60 starts gives the
        members, radii and histories of the default width bit for bit, and
        every start that exits in a ball at neither width ends the same way
        at both."""
        a, c, _ = _oracle_level(problem, level)
        endings = _start_endings(monkeypatch)
        want = count_solutions(problem, a, c, 60, 0)
        _stack_rows(monkeypatch, problem, rows)
        got = count_solutions(problem, a, c, 60, 0)
        _assert_bit_identical(got.members, want.members)
        assert got.radii == want.radii
        _assert_same_but_exits(*endings)

    @pytest.mark.parametrize("fixture", ["problem99", "problem"])
    def test_seeding_stack_then_budgeted_width(self, fixture, request, monkeypatch):
        """_multistart_seeds yields the five fixed starts and then the random
        ones, one field at a time, and count_solutions' pool of
        _STACK_ELEMENTS // n rows (257 at n = 99, 64 at n = 399, one row for
        a budget below one) admits them in start order. The fixed starts
        seed the balls: the random starts wait until all five have ended.
        From then on every round starts with a full pool while starts
        remain, each slot freed by a row that ends taking the next start."""
        problem = request.getfixturevalue(fixture)
        a = problem.modes()[1].eigenvalue + 0.5 * DELTA_WINDOW
        seeds = _seeds(problem, a, 400, 0)
        n = problem.domain.n_interior
        assert len(seeds) == 400 and all(u.shape == (n,) for u in seeds)
        span = 2.0 * critical_cap(problem.nonlinearity, a)
        phi, psi = (p.eigenfunction.values for p in problem.modes())
        fixed = np.array([np.zeros(n), span * phi, -span * phi, span * psi, -span * psi])
        assert np.array(seeds[:5]).tobytes() == fixed.tobytes()
        real_pool, real_seeds = diagram_mod._newton_pool, diagram_mod._multistart_seeds
        real_norms = solver_mod._stack_norms_inf
        for budget, width in ((diagram_mod._STACK_ELEMENTS, {99: 257, 399: 64}[n]), (1, 1)):
            monkeypatch.setattr(diagram_mod, "_STACK_ELEMENTS", budget)
            events, widths = [], []

            def seeds_logged(*args, **kwargs):
                taken = 0
                for u in real_seeds(*args, **kwargs):
                    if u is not None:
                        events.append(("take", taken))
                        taken += 1
                    yield u

            def pool(problem, starts, a, c, max_iter, width, balls):
                widths.append(width)
                for end in real_pool(problem, starts, a, c, max_iter, width, balls):
                    events.append(("end", end[0]))
                    yield end

            def norms(*args):
                # one call per round, before its solve
                events.append(("round", None))
                return real_norms(*args)

            monkeypatch.setattr(diagram_mod, "_multistart_seeds", seeds_logged)
            monkeypatch.setattr(diagram_mod, "_newton_pool", pool)
            monkeypatch.setattr(solver_mod, "_stack_norms_inf", norms)
            got = count_solutions(problem, a, 0.2 * C_NATURAL_FOLD_NEG, 400, 0)
            assert widths == [width] and got.count == 4
            taken = [i for kind, i in events if kind == "take"]
            assert taken == list(range(400))
            assert sorted(i for kind, i in events if kind == "end") == taken
            live = took = fixed_ended = 0
            for kind, i in events:
                if kind == "take":
                    assert i < 5 or fixed_ended == 5
                    live, took = live + 1, took + 1
                elif kind == "end":
                    live, fixed_ended = live - 1, fixed_ended + (i < 5)
                elif fixed_ended == 5:
                    assert live == width or took == 400
                assert live <= width
            first = min(width, 5)
            assert events[:first + 1] == [("take", i) for i in range(first)] + [("round", None)]


def _without_balls(monkeypatch):
    """Make count_solutions give no member a ball, so no start exits early."""
    monkeypatch.setattr(diagram_mod, "newton_ball", lambda *args: "disabled")


class TestNewtonBalls:
    """Each member kept by count_solutions carries a certified Newton ball
    (solver.newton_ball) or the reason it has none, and starts of later
    stacks that enter a ball stop there. The members must not change."""

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

    @pytest.mark.parametrize("rows", [1, 32, 400])
    def test_members_invariant_under_chunking(self, problem, eigs, monkeypatch, rows):
        """A pool of one row, of 32, and of all 400 starts gives the members,
        radii and histories of the default width, and every start that
        exits in a ball at neither width ends the same way at both. Each
        member's ball goes live once every earlier start has ended, so
        starts exit at every width, all starts in one pool included; with
        no balls none does, and the members are the same again."""
        a, c = eigs[1] + 0.5 * DELTA_WINDOW, 0.2 * C_NATURAL_FOLD_NEG
        endings = _start_endings(monkeypatch)
        want = count_solutions(problem, a, c, 400, 0)
        _stack_rows(monkeypatch, problem, rows)
        got = count_solutions(problem, a, c, 400, 0)
        _assert_bit_identical(got.members, want.members)
        assert got.radii == want.radii
        assert got.exited > 0
        _assert_same_but_exits(*endings)
        if rows == 1:
            # alone in the pool, each start meets the balls of every member
            # kept before it: the most exits of any width
            assert got.exited >= want.exited
        _without_balls(monkeypatch)
        plain = count_solutions(problem, a, c, 400, 0)
        _assert_bit_identical(plain.members, want.members)
        assert plain.exited == 0
        _assert_same_but_exits(endings[-1], endings[0])

    # Outcomes, in OUTCOMES order, at each level verify_structure counts in
    # the n = 399 window (the four samples, then c = 0) with seed 9, and of
    # the README count with seed 9, as recorded.
    WINDOW_OUTCOMES = (
        (4, 1, 395, 0, 0, 0),
        (4, 1, 395, 0, 0, 0),
        (2, 2, 394, 1, 1, 0),
        (0, 0, 0, 396, 4, 0),
        (4, 0, 396, 0, 0, 0),
    )
    README_OUTCOMES = (4, 1, 795, 0, 0, 0)

    def test_outcomes_account_for_every_start(self, diagram_window):
        """At every level verify_structure counts in the n = 399 window (the
        four samples and c = 0), the outcomes count every start once and
        exited is their ball-exit count. A member is one start's outcome,
        so the members count themselves; the no-state level has no member,
        no duplicate and no exit, and every other level exits most starts.
        Each level's outcomes, ball exits included, and the README count's
        are the recorded ones: a change to when a row ends shows here."""
        levels = [*diagram_mod._count_samples(diagram_window), 0.0]
        readme = count_solutions(diagram_window.problem, 40.0, -0.005, 800, 9)
        assert tuple(readme.outcomes.values()) == self.README_OUTCOMES
        for c, want in zip(levels, self.WINDOW_OUTCOMES, strict=True):
            got = count_solutions(diagram_window.problem, diagram_window.a, c, 400, 9)
            assert tuple(got.outcomes.values()) == want, c
            assert tuple(got.outcomes) == diagram_mod.OUTCOMES
            assert sum(got.outcomes.values()) == got.n_starts == 400
            assert got.exited == got.outcomes["ball-exit"]
            assert got.outcomes["member"] == got.count
            if got.count:
                assert got.exited > 200
            else:
                assert got.outcomes["duplicate"] == got.exited == 0
                assert got.outcomes["stalled"] > 300

    def test_concurrent_counts_match_sequential(self, problem, eigs):
        """Two threads that count at the same time, at two levels, return
        the SolutionSets of the two counts run one after the other, bit for
        bit: each count owns its pool."""
        a = eigs[1] + 0.5 * DELTA_WINDOW
        levels = (0.2 * C_NATURAL_FOLD_NEG, 287.35)
        want = [count_solutions(problem, a, c, 200, 3) for c in levels]
        got = [None, None]
        barrier = threading.Barrier(2)

        def count(k):
            barrier.wait(timeout=60)
            got[k] = count_solutions(problem, a, levels[k], 200, 3)

        threads = [threading.Thread(target=count, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        for g, w in zip(got, want):
            _assert_bit_identical(g.members, w.members)
            assert (g.radii, g.outcomes) == (w.radii, w.outcomes)

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
    """The line search and the unpaired and paired rows of _newton_rows,
    the damped Newton behind newton_solve and count_solutions."""

    def test_stalled_start_spends_few_residual_rows(self, problem, eigs, monkeypatch):
        """Above the top fold of the window nothing converges: the starts
        stall, most at the fold's residual minimum (sup norm about 0.105).
        Halving would take 20 cuts from a full step to ARMIJO_MIN_STEP, about
        98 residual rows per start here; quadratic backtracking cuts by up to
        a factor of 10 and spends about 28."""
        rows = []
        original = Problem.residual_values

        def counting(self, u, a, c, **buffers):
            rows.append(len(u))
            return original(self, u, a, c, **buffers)

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
        """A row paired on its last allowed step is tested as a paired row
        before its iterations run out, as in
        test_last_allowed_step_is_tested. At the README level, start 15
        converges on the step that hands it off and start 8 one step later;
        with a cap at that step, start 15 keeps the entry a larger cap gives
        it and start 8 ends out of iterations at the Pair residual of its
        handoff, converging with one more step allowed."""
        seeds = _seeds(problem, 40.0, 16, 0)
        late, direct = seeds[8], seeds[15]
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
    def test_float64_residual_is_exact_enough(self, n, longdouble_residual):
        """At the converged members of the README count, the float64 and the
        long-double residual of the same field differ by less than
        NEWTON_TOL / 10, so an unpaired row's test of a trial against the
        switch FLOAT64_PHASE_TOL is not misled. An unpaired row iterates on
        float64 fields, which sit up to half an ulp from the exact field
        they stand for; that rounding moves the residual by at most about
        (4 / h^2) ulp(|u|) / 2, which stays a hundred times below the
        switch, so float64 iterates can reach it."""
        problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        a, c = 40.0, -0.005
        members = count_solutions(problem, a, c, 50, 0).members
        assert len(members) == 4
        rng = np.random.default_rng(0)
        for m in members:
            u = m.u.values
            f64 = problem.residual_values(u, a, c)
            gap = np.max(np.abs(f64 - longdouble_residual(problem, u, a, c)))
            assert gap < NEWTON_TOL / 10
            # a long-double field whose float64 rounding is u
            v = u.astype(np.longdouble) + (
                rng.uniform(-0.49, 0.49, n) * np.spacing(u)
            ).astype(np.longdouble)
            assert np.array_equal(v.astype(float), u)
            gap = np.max(np.abs(f64 - longdouble_residual(problem, v, a, c)))
            assert gap < FLOAT64_PHASE_TOL / 100

    def test_reported_residuals_are_pair_residuals(self, problem, monkeypatch):
        """Residuals above FLOAT64_PHASE_TOL are evaluated in float64, and
        every converged entry's residual, like every history entry at or
        below the switch, is the sup norm of a Pair residual (the float64
        residual at hi corrected by Ladder.residual)."""
        f64, pair = set(), set()
        real_residual, real_pair = Problem.residual_values, solver_mod.Ladder.residual

        def recording(self, u, a, c, **buffers):
            r = real_residual(self, u, a, c, **buffers)
            f64.update(np.max(np.abs(r), axis=-1).ravel().tolist())
            return r

        def corrected(self, F, *args):
            r = real_pair(self, F, *args)
            pair.update(np.max(np.abs(r), axis=-1).ravel().tolist())
            return r

        monkeypatch.setattr(Problem, "residual_values", recording)
        monkeypatch.setattr(solver_mod.Ladder, "residual", corrected)
        seeds = _seeds(problem, 40.0, 100, 0)
        ends = _newton_rows(problem, seeds, 40.0, -0.005, COUNT_MAX_ITER)
        converged = [end for end in ends if not isinstance(end, Exception)]
        assert len(converged) >= 50
        for u64, rnorm, history in converged:
            assert rnorm < NEWTON_TOL
            assert rnorm in pair
            assert all(x in pair for x in history if x <= FLOAT64_PHASE_TOL)
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

    def test_at_lambda1_ray_and_crescent(
        self, diagram_lam1, split, pair_residual, longdouble_residual
    ):
        assert diagram_lam1.regime == "at-lambda1"
        assert set(diagram_lam1.tags()) == {"ray", "Mstar"}
        ray = diagram_lam1.branch("ray")
        assert len(ray.points) == 41
        assert set(ray.morse_indices()) == {0}
        assert ray.t_values()[0] == pytest.approx(-0.2, abs=1e-12)
        assert ray.t_values()[-1] == pytest.approx(0.2, abs=1e-12)
        assert all(abs(p.c) < 1e-12 for p in ray.points)
        # each ray state is certified by the residual Newton converges on,
        # the Pair residual of the closed-form state t phi at the ray's own
        # parameters (its t_proj, derived from the float64 states, may miss
        # them by an ulp), which the long-double residual of the same state
        # matches; the stored field is the Pair's hi
        problem = diagram_lam1.problem
        M = problem.nonlinearity.M
        lam1_ld, phi_ld = exact_mode_longdouble(problem.domain, 1)
        for t, p in zip(np.linspace(-M, M, 41), ray.points):
            u = split(np.longdouble(t) * phi_ld)
            assert p.residual_norm == pair_residual(problem, u, split(lam1_ld)) < 1e-12
            r_ld = longdouble_residual(problem, np.longdouble(t) * phi_ld, lam1_ld, 0.0)
            assert abs(p.residual_norm - float(np.max(np.abs(r_ld)))) <= 1e-13
            np.testing.assert_array_equal(p.u.values, u.hi)
        assert len(diagram_lam1.degenerate_points) == 1
        assert abs(diagram_lam1.degenerate_points[0].c) < 1e-9

    def test_at_lambda1_on_a_fine_grid(self):
        """At n = 1599 multiples of the float64 first eigenvector miss the
        steady-state tolerance; the ray is certified as Pairs of the
        closed-form states instead and the diagram completes."""
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
        # well past lambda2 + delta the curve from the stable seed passes the
        # stable sheet's fold and then runs to the c window edge without the
        # two index-1 folds; the builder must report that as a typed failure
        # with the partial diagram
        traces = []
        original = diagram_mod.continue_branch

        def continue_branch(*args, **kwargs):
            traces.append(original(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(diagram_mod, "continue_branch", continue_branch)
        with pytest.raises(AssemblyIncomplete, match="the trace saw fold at c=630.639, "
                           "endpoint at c=-10") as err:
            assemble_diagram(problem, eigs[1] + 3.0)
        assert isinstance(err.value.__cause__, NonConvergence)
        partial = err.value.partial
        assert partial.regime == "above-lambda2"
        assert not partial.complete
        # the stable sheet up to its fold was finished before the failure and
        # stays in the partial diagram, with its fold
        assert partial.tags() == ("Mstar",)
        star = partial.branch("Mstar")
        assert [ev.kind for ev in star.events] == ["endpoint", "fold"]
        assert partial.degenerate_points == (star.events[-1].degenerate_point,)
        # the cause names the trace and carries the state it stopped at
        cause = err.value.__cause__
        assert str(cause).startswith(
            "Mstar|Msharp|Mnatural|Mflat: expected the events fold, fold, fold, endpoint; "
        )
        through = traces[-1]
        np.testing.assert_array_equal(cause.last_iterate, through.points[-1].u.values)
        assert cause.residual_norm == through.points[-1].residual_norm
        # the message says how far past the window the growth rate lies
        assert "(a - lambda2 = 3, delta = 0.96276: a lies past lambda2 + delta)" in str(
            err.value
        )
        # and says so when the window half-width cannot be traced either
        def stalled(problem):
            raise NonConvergence("index-1 family in t stalled", None, np.nan)

        monkeypatch.setattr(diagram_mod, "trace_index1_degenerate_curve", stalled)
        with pytest.raises(AssemblyIncomplete, match="the trace saw fold") as err:
            assemble_diagram(problem, eigs[1] + 3.0)
        assert str(err.value).endswith(
            "(a - lambda2 = 3; the window half-width delta failed: "
            "index-1 family in t stalled)"
        )

    @pytest.mark.parametrize("M, p_f, fold_c", [(0.25, 5, -10.2104), (0.5, 4, -10.6737)])
    def test_window_short_of_its_lower_fold_names_the_fold(self, M, p_f, fold_c):
        # on these steeper ramps the lower index-1 fold at lambda2 + delta/2
        # lies just below the default c_min = -10: the failure names that
        # fold's c, not the window half-width, and a c_min below it
        # assembles the four sheets and three folds
        problem = Problem(build_grid(49, 1.0), Nonlinearity(M, p_f), HarvestSpec("bump"))
        delta = delta_window(problem, trace_index1_degenerate_curve(problem))
        a = problem.modes()[1].eigenvalue + 0.5 * delta
        with pytest.raises(AssemblyIncomplete) as err:
            assemble_diagram(problem, a)
        message = str(err.value)
        assert "lambda2 + delta" not in message
        assert message.endswith(
            "(the trace reached c_min = -10 before the lower index-1 fold, which the "
            f"index-1 family puts at c = {fold_c} at this a; a c_min below it "
            "reaches that fold)"
        )
        diag = assemble_diagram(problem, a, c_min=fold_c - 0.1)
        assert diag.complete
        assert diag.tags() == ("Mstar", "Msharp", "Mnatural", "Mflat")
        folds = [dp.c for dp in diag.degenerate_points]
        assert len(folds) == 3 and folds[0] == pytest.approx(fold_c, abs=1e-4)

    @pytest.mark.parametrize("relabel, hits", [("endpoint", 2), ("index-change", 0)])
    def test_ambiguous_trace_ends_name_every_trace(
        self, problem, eigs, monkeypatch, relabel, hits
    ):
        # relabel the trace that lands on the ray at lambda1: the pair from
        # the ray's edge then ends with two 'endpoint' traces, or with none
        # ending in 'degeneracy'
        original = diagram_mod.continue_branch
        relabelled, traces = [], []

        def continue_branch(*args, **kwargs):
            br = original(*args, **kwargs)
            if not relabelled and br.events and br.events[-1].kind == "degeneracy":
                last = dataclasses.replace(br.events[-1], kind=relabel)
                br = dataclasses.replace(br, events=br.events[:-1] + (last,))
                relabelled.append(br)
            traces.append(br)
            return br

        monkeypatch.setattr(diagram_mod, "continue_branch", continue_branch)
        with pytest.raises(AssemblyIncomplete) as err:
            assemble_diagram(problem, eigs[0])
        cause = err.value.__cause__
        assert isinstance(cause, NonConvergence)
        wanted = "endpoint" if hits == 2 else "degeneracy"
        ray_c = relabelled[0].points[-1].c
        assert (
            f"expected exactly one trace ending with {wanted!r}, got {hits} "
            f"(traces end with {relabel!r} at c={ray_c:.6g}, 'endpoint' at c=-10)"
        ) in str(err.value)
        # the nearest trace is the first of two hits (the relabelled one),
        # or the longer of two misses
        nearest = relabelled[0] if hits else max(traces, key=lambda br: len(br.points))
        last = nearest.points[-1]
        assert np.array_equal(cause.last_iterate, last.u.values)
        assert cause.residual_norm == last.residual_norm < NEWTON_TOL

    def test_unexpected_events_name_the_trace(self, problem, monkeypatch):
        # relabel the fold the curve at a = 20 passes: the trace through it
        # then sees no fold, so nothing is finished and the failure names the
        # trace, the events it saw and its last state
        original = diagram_mod.continue_branch
        relabelled = []

        def continue_branch(*args, **kwargs):
            br = original(*args, **kwargs)
            if any(ev.kind == "fold" for ev in br.events):
                br = dataclasses.replace(br, events=tuple(
                    dataclasses.replace(ev, kind="index-change", degenerate_point=None)
                    if ev.kind == "fold" else ev
                    for ev in br.events
                ))
                relabelled.append(br)
            return br

        monkeypatch.setattr(diagram_mod, "continue_branch", continue_branch)
        with pytest.raises(AssemblyIncomplete) as err:
            assemble_diagram(problem, 20.0)
        [through] = relabelled
        change = through.points[through.events[0].point_index].c
        assert str(err.value) == (
            "between-lambda1-lambda2 assembly stopped early: Mstar|Msharp: expected "
            "the events fold, endpoint; the trace saw "
            f"index-change at c={change:.6g}, endpoint at c=-10"
        )
        cause = err.value.__cause__
        assert isinstance(cause, NonConvergence)
        last = through.points[-1]
        assert np.array_equal(cause.last_iterate, last.u.values)
        assert cause.residual_norm == last.residual_norm < NEWTON_TOL
        partial = err.value.partial
        assert partial.branches == () and partial.degenerate_points == ()

    def test_step_underflow_keeps_the_finished_sheets(self, problem, diagram20, monkeypatch):
        # the trace through the fold at a = 20 stops short four points past
        # it: the stable sheet up to the fold is finished and stays in the
        # partial diagram with its fold, the index-1 sheet does not
        original = diagram_mod.continue_branch

        def stops_past_the_fold(*args, **kwargs):
            br = original(*args, **kwargs)
            if kwargs.get("stop_at_events", True):
                return br
            k = br.events[0].point_index + 5
            raise StepUnderflow("step underflow: forced", dataclasses.replace(
                br, points=br.points[:k], events=br.events[:1],
            ))

        monkeypatch.setattr(diagram_mod, "continue_branch", stops_past_the_fold)
        with pytest.raises(AssemblyIncomplete, match="step underflow: forced") as err:
            assemble_diagram(problem, 20.0)
        assert isinstance(err.value.__cause__, StepUnderflow)
        partial = err.value.partial
        assert partial.tags() == ("Mstar",)
        star = partial.branch("Mstar")
        assert [ev.kind for ev in star.events] == ["endpoint", "fold"]
        np.testing.assert_array_equal(star.c_values(), diagram20.branch("Mstar").c_values())
        assert partial.degenerate_points == (star.events[-1].degenerate_point,)

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


class TestOnePassAssembly:
    """Each curve of a diagram is traced once, through its folds: every fold
    is refined once, the diagram's degenerate points are its branches'
    fold events, and the branches count each arclength step once."""

    @pytest.mark.parametrize("fixture, a, refines", [
        ("problem", 5.0, 0),
        ("problem", "lambda1", 0),
        ("problem", 20.0, 1),
        ("problem0", 20.0, 1),
        ("problem", "lambda2", 1),
        ("problem0", "lambda2", 1),
        ("problem", "window", 3),
    ])
    def test_folds_refined_once_and_steps_counted_once(
        self, fixture, a, refines, eigs, request, monkeypatch
    ):
        problem = request.getfixturevalue(fixture)
        a = {
            "lambda1": eigs[0], "lambda2": eigs[1], "window": eigs[1] + 0.5 * DELTA_WINDOW,
        }.get(a, a)
        traced, refined = [], []
        trace, refine = diagram_mod.continue_branch, continuation_mod.refine_fold

        def counted_trace(*args, **kwargs):
            traced.append(trace(*args, **kwargs))
            return traced[-1]

        def counted_refine(*args, **kwargs):
            refined.append(refine(*args, **kwargs))
            return refined[-1]

        monkeypatch.setattr(diagram_mod, "continue_branch", counted_trace)
        monkeypatch.setattr(continuation_mod, "refine_fold", counted_refine)
        diag = assemble_diagram(problem, a)
        assert len(refined) == refines
        total = sum((br.steps for br in traced), StepCounts())
        assert sum((br.steps for br in diag.branches), StepCounts()) == total

    @pytest.mark.parametrize("fixture", [
        "diagram_below", "diagram20", "diagram20_m0", "diagram_lam2", "diagram_lam2_m0",
        "diagram_window", "diagram_window99",
    ])
    def test_degenerate_points_are_the_fold_events(self, fixture, request):
        diag = request.getfixturevalue(fixture)
        events = {id(dp) for br in diag.branches for dp in br.fold_points()}
        points = [id(dp) for dp in diag.degenerate_points]
        assert len(set(points)) == len(points) and set(points) == events

    @pytest.mark.parametrize("fixture", ["diagram_lam1", "diagram_lam2", "diagram_window"])
    def test_arclengths_and_chart_coordinates_are_those_of_the_states(self, fixture, request):
        """Every branch's arclengths are the running sum from 0 of its
        product-norm chords ||du||_L2 + |da| + |dc|, and its t_proj the
        chart coordinates of its states, bit for bit, however the branch
        was cut, reversed or stitched (the ray included)."""
        diag = request.getfixturevalue(fixture)
        dom = diag.problem.domain
        for br in diag.branches:
            chords = [
                dom.l2_norm(p.u.values - q.u.values) + abs(p.a - q.a) + abs(p.c - q.c)
                for q, p in zip(br.points, br.points[1:])
            ]
            assert br.arclengths == tuple(itertools.accumulate(chords, initial=0.0))
            assert br.t_proj == tuple(
                chart_coordinate(diag.problem, br.chart, p.u.values) for p in br.points
            )

    def test_high_threshold_window_on_a_coarse_grid(self):
        """At n = 99 with M = 0.5 the window diagram assembles in one pass
        from the stable seed and verifies; traced sheet by sheet from
        separate seeds, the trace from -psi ran to the upper natural fold
        instead of the c window edge."""
        problem = Problem(build_grid(99, 1.0), Nonlinearity(0.5, 3), HarvestSpec("bump"))
        delta = delta_window(problem, trace_index1_degenerate_curve(problem))
        diag = assemble_diagram(problem, problem.modes()[1].eigenvalue + 0.5 * delta)
        assert diag.complete
        assert diag.tags() == ("Mstar", "Msharp", "Mnatural", "Mflat")
        assert [dp.kind for dp in diag.degenerate_points] == [
            "degenerate-index1", "degenerate-index1", "fold-index0"
        ]
        report = verify_structure(diag, seed=0)
        assert report.failures() == ()


class TestDiagramSolutionsAt:
    def test_matches_oracle_membership(self, diagram20, problem):
        predicted = diagram_solutions_at(diagram20, -1.0)
        assert len(predicted) == 2
        assert sorted(p.morse_index for p in predicted) == [0, 1]
        for p in predicted:
            assert p.residual_norm < 1e-8

    def test_empty_beyond_the_fold(self, diagram20):
        assert diagram_solutions_at(diagram20, C_FOLD_20 + 1.0) == []


REGIME_FIXTURES = (
    "diagram_below",
    "diagram_lam1",
    "diagram20",
    "diagram20_m0",
    "diagram_lam2",
    "diagram_lam2_m0",
    "diagram_window",
)


@pytest.fixture(scope="module")
def regime_reports(request):
    """verify_structure (60 starts, seed 0) of each regime fixture, made once."""
    return {
        name: verify_structure(request.getfixturevalue(name), oracle_budget=60, seed=0)
        for name in REGIME_FIXTURES
    }


#: Each claim family verify_structure emits: its relation and the diagram
#: constant that bounds it, or None where the bound is read off the diagram
#: (the node count, a sheet's dominant index, a level's expected count).
CLAIM_BOUNDS = {
    "connectivity": ("==", None),
    "index-changes-at-events": ("==", "NO_EXCEPTIONS"),
    "dominant-index": ("==", None),
    "normal-form": ("<", "NORMAL_FORM_RTOL"),
    "index0-degenerate-c-nonnegative": (">=", "FOLD_C_FLOOR"),
    "junction-match": ("<", "MATCH_TOL"),
    "count": ("==", None),
    "oracle-equivalence": ("<", "MATCH_TOL"),
    "stable-monotone-in-c": (">", "STABLE_SHEET_FLOOR"),
    "stable-superharmonic-small-c": (">", "STABLE_SHEET_FLOOR"),
    "static-stability-criterion": ("==", "NO_EXCEPTIONS"),
    "segment-second-eigenvalue-zero": ("<=", "SEGMENT_MU2_TOL"),
    "czero-dichotomy": ("==", "NO_EXCEPTIONS"),
    "cusp-flat-at-origin": ("<", "CUSP_RATIO"),
    "at-least-three": (">=", "WINDOW_MIN_COUNT"),
    "middle-sheet-slope-negative": ("<", "MIDDLE_SLOPE_CEILING"),
}
#: diagram.py's block of claim constants: the bounds above and the
#: normal-form claim's relative floor.
CLAIM_CONSTANTS = {name for _, name in CLAIM_BOUNDS.values() if name} | {"NORMAL_FORM_FLOOR"}


class TestVerifyStructure:
    @pytest.mark.parametrize("fixture", REGIME_FIXTURES)
    def test_all_regimes_pass(self, fixture, request, regime_reports):
        report = regime_reports[fixture]
        assert report.regime == request.getfixturevalue(fixture).regime
        assert report.failures() == ()
        assert report.passed

    def test_every_claim_takes_its_bound_from_the_constants(self, regime_reports):
        """Over the regime fixtures every claim family is emitted, with its
        relation and, where the bound is a constant, the named constant of
        diagram.py; no ClaimCheck site there writes a bound as a literal,
        and every constant of the block is read."""
        families = set()
        for report in regime_reports.values():
            for chk in report.checks:
                family = re.split(r"[@\[]", chk.claim)[0]
                relation, name = CLAIM_BOUNDS[family]
                assert chk.relation == relation, chk
                if name is not None:
                    assert chk.bound == getattr(diagram_mod, name), chk
                families.add(family)
        assert families == set(CLAIM_BOUNDS)
        tree = ast.parse(inspect.getsource(diagram_mod))
        sites = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "ClaimCheck"]
        assert len(sites) == 17
        for call in sites:
            bound = call.args[3]
            assert not any(isinstance(n, ast.Constant) for n in ast.walk(bound)), \
                ast.unparse(call)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert CLAIM_CONSTANTS <= read

    def test_verdict_is_measured_relation_bound(self):
        verdicts = {
            "==": [False, True, False], "<": [True, False, False],
            "<=": [True, True, False], ">": [False, False, True],
            ">=": [False, True, True],
        }
        for relation, want in verdicts.items():
            assert [ClaimCheck("x", m, relation, 1.0).passed
                    for m in (0.5, 1.0, 2.0)] == want
            assert not ClaimCheck("x", np.nan, relation, 1.0).passed
        with pytest.raises(ValueError, match="unknown relation"):
            ClaimCheck("x", 1.0, "!=", 1.0)

    def test_between_report_claims(self, regime_reports):
        report = regime_reports["diagram20"]
        ids = [chk.claim for chk in report.checks]
        assert any(i.startswith("normal-form") for i in ids)
        assert any(i.startswith("count@") for i in ids)
        assert "stable-monotone-in-c" in ids
        assert "static-stability-criterion" in ids

    def test_at_lambda2_report_claims(self, regime_reports):
        report = regime_reports["diagram_lam2"]
        ids = [chk.claim for chk in report.checks]
        assert "segment-second-eigenvalue-zero" in ids
        assert "czero-dichotomy" in ids

    def test_at_lambda2_on_a_fine_grid_records_the_segment_claim(self):
        """At n = 1599 the float64 rounding of a segment state misses
        NEWTON_TOL; the segment claim takes the Pair residual of the exact
        state, so the report comes back with the claim recorded,
        whatever its verdict, and nothing is raised."""
        problem = Problem(build_grid(1599, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        diag = assemble_diagram(problem, problem.modes()[1].eigenvalue)
        seg = diag.segment
        rounded = seg.state_at(seg.t_max).values
        assert np.max(np.abs(problem.residual_values(rounded, diag.a, 0.0))) >= NEWTON_TOL
        report = verify_structure(diag, oracle_budget=60, seed=0)
        ids = [chk.claim for chk in report.checks]
        assert ids.count("segment-second-eigenvalue-zero") == 1

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="at n = 1599 the lambda1 junction's normal-form claim measures 316.54 "
        "against its bound 0.05: on the ray both formulas are 0 and the FD "
        "c-curvature divides rounding noise in c by 4e-4 (ROADMAP item 1)",
    )
    def test_at_lambda1_verifies_at_n1599(self):
        """verify_structure(seed=1) at lambda1 on n = 1599 fails the junction's
        normal-form claim alone; any other failing claim is an error, not
        this marker's failure."""
        problem = Problem(build_grid(1599, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        report = verify_structure(assemble_diagram(problem, problem.modes()[0].eigenvalue), seed=1)
        failed = [(c.claim, round(c.measured, 2)) for c in report.checks if not c.passed]
        others = [claim for claim, _ in failed if not claim.startswith("normal-form@")]
        if others:
            raise RuntimeError(f"claims other than the junction's normal form fail: {others}")
        assert failed == []

    def test_at_lambda2_segment_claim_passes_at_n799(self):
        """The raw |mu2| = 1.058e-10 at n = 799 is the rounding e of J's
        uniform diagonal; less e it is below 1e-13."""
        problem = Problem(build_grid(799, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
        diag = assemble_diagram(problem, problem.modes()[1].eigenvalue)
        report = verify_structure(diag, oracle_budget=60, seed=0)
        [claim] = [c for c in report.checks if c.claim == "segment-second-eigenvalue-zero"]
        assert claim.passed, (claim.measured, claim.note)
        assert claim.measured < 1e-13

    def test_zero_threshold_cusp_claim(self, regime_reports):
        report = regime_reports["diagram_lam2_m0"]
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
        assert count.bound == 2 and count.measured == 2 and count.passed
        assert not checks["oracle-equivalence@c=-1"].passed

    def test_zero_threshold_window_pairs_junctions_by_fold(self):
        """At M = 0 just inside the window the two index-1 degenerate points
        sit at c = -0.44 and 0.43, within 1 of each other, and Mnatural
        carries both. Each junction claim pairs the two sheets that meet at
        one refined fold, never two folds nor the two ends of one sheet, and
        the report verifies."""
        problem = Problem(build_grid(49, 1.0), Nonlinearity(0.0, 3), HarvestSpec("bump"))
        delta = delta_window(problem, trace_index1_degenerate_curve(problem))
        diag = assemble_diagram(problem, problem.modes()[1].eigenvalue + 0.1 * delta)
        sharp, flat = sorted(dp.c for dp in diag.degenerate_points
                             if dp.kind == "degenerate-index1")
        assert -0.5 < sharp < 0.0 < flat < 0.5
        report = verify_structure(diag, seed=0)
        junctions = [chk for chk in report.checks if chk.claim.startswith("junction-match")]
        assert [chk.claim for chk in junctions] == [
            "junction-match[Mstar~Msharp]",
            "junction-match[Msharp~Mnatural]",
            "junction-match[Mnatural~Mflat]",
        ]
        assert all(chk.measured == 0.0 for chk in junctions)
        assert report.failures() == ()

    def test_report_failure_listing(self):
        bad = ClaimCheck("made-up", 2, "==", 1)
        good = ClaimCheck("fine", 1, "==", 1)
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
        """Mflat ends at the upper natural fold at n = 99 as at n = 399: the
        curve from the stable seed passes p_flat at the end of Mnatural and
        runs down Mflat to the c window edge, and the two sheets share that
        one refined fold. Near c = 6.15 a corrector step can converge onto
        the index-1 sheet that Msharp covers (a chord 1.84 long for a step
        of 0.25) with no eigenvalue changing sign; unless the jump and chord
        checks redo that step, the trace follows the wrong sheet."""
        flat99 = diagram_window99.branch("Mflat")
        assert [ev.kind for ev in flat99.events] == ["endpoint", "fold"]
        assert len(flat99.points) <= 2 * len(diagram_window.branch("Mflat").points)
        fold = flat99.events[-1].degenerate_point
        natural = diagram_window99.branch("Mnatural").fold_points()
        assert fold.kind == "degenerate-index1"
        assert fold is max(natural, key=lambda dp: dp.c) and fold.c > 0

    def test_verify_passes(self, diagram_window99):
        """Guards the count claim at this level, which Msharp and Mstar
        cross once each: the claim must expect the two distinct refined
        states the oracle finds, and the whole report must pass."""
        report = verify_structure(diagram_window99, seed=0)
        count = next(chk for chk in report.checks
                     if chk.claim == f"count@c={self.level(diagram_window99):.6g}")
        assert count.bound == 2
        assert report.failures() == ()


class TestKernelCallCounts:
    """Guards the cost of the hot paths at n = 99. During the window
    assembly, every single-border bordered solve (each step of the
    arclength corrector, the chart projection and the fold system, and each
    of the fold test function's two solves) costs one gtsv call, in the
    float64 stage and in the pair stage alike, and no gttrf, gttrs,
    A v product or np.linalg.solve call; where J is deflated, one more gtsv
    call and one np.linalg.solve for the 2 x 2 Schur complement.
    Tracked spectra take no np.linalg.norm and one gtsv per Rayleigh-quotient
    step, for two vectors of at most TRACK_MAX_ITER steps each, and each
    tracked point's classification takes one Sturm count. No track is
    refused, the start point's is the assembly's one full eigensolve, and
    guesses extrapolated along the branch need fewer Rayleigh-quotient steps
    per tracked point than the previous point's own eigenvectors. In a
    count, each Newton iteration of a stack costs one gtsv and no gttrf or
    gttrs."""

    @staticmethod
    def counted(calls, name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    def test_single_border_solve_and_tracked_spectra(self, diagram_window99, monkeypatch):
        calls = Counter()

        def counted(name, real):
            return self.counted(calls, name, real)

        monkeypatch.setattr(grid_mod, "_dgttrf", counted("gttrf", grid_mod._dgttrf))
        monkeypatch.setattr(grid_mod, "_dgttrs", counted("gttrs", grid_mod._dgttrs))
        monkeypatch.setattr(grid_mod, "_dgtsv", counted("gtsv", grid_mod._dgtsv))
        monkeypatch.setattr(
            grid_mod, "_tridiagonal_apply", counted("apply", grid_mod._tridiagonal_apply)
        )
        monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        costs = Counter()
        real_bordered = continuation_mod.solve_bordered
        real_residual, real_pair = Problem.residual_values, solver_mod.Ladder.residual
        wide = []

        def residual(self, u, a, c, **buffers):
            wide.append(False)
            return real_residual(self, u, a, c, **buffers)

        def pair(self, *args):
            wide[-1] = True
            return real_pair(self, *args)

        def bordered(op, B, C, D, f, g):
            before = calls.copy()
            out = real_bordered(op, B, C, D, f, g)
            if np.ndim(B) == 1:
                spent = calls - before
                lu = spent["gttrf"] + spent["gttrs"]
                costs[(wide[-1], spent["gtsv"], lu, spent["apply"], spent["solve"])] += 1
            return out

        norms = []
        steps = Counter()
        real_track = spectral_mod.track_tridiagonal_eigenpairs

        def track(diag, off, guesses, floor):
            before = calls.copy()
            out = real_track(diag, off, guesses, floor)
            spent = calls - before
            norms.append(spent["norm"])
            if out is None:
                calls["refused"] += 1
            else:
                # A v once per guess and once per step; the energy-form
                # Rayleigh quotient applies no A
                rayleigh_steps = spent["apply"] - len(guesses)
                steps[(len(guesses), rayleigh_steps, spent["gtsv"],
                       spent["gttrf"] + spent["gttrs"])] += 1
            return out

        def steps_per_tracked_point():
            return sum(k * v for (_, k, _, _), v in steps.items()) / sum(steps.values())

        monkeypatch.setattr(grid_mod, "sturm_count", counted("sturm", grid_mod.sturm_count))
        monkeypatch.setattr(
            spectral_mod, "sturm_count", counted("sturm", spectral_mod.sturm_count)
        )
        sturm_per_point = Counter()
        real_spectrum = solver_mod.linearized_spectrum

        def spectrum(problem, u, a, k, prev=None):
            before = calls.copy()
            out = real_spectrum(problem, u, a, k, prev)
            if prev is not None:
                sturm_per_point[(calls - before)["sturm"]] += 1
            return out

        monkeypatch.setattr(Problem, "residual_values", residual)
        monkeypatch.setattr(solver_mod.Ladder, "residual", pair)
        monkeypatch.setattr(continuation_mod, "solve_bordered", bordered)
        monkeypatch.setattr(spectral_mod, "track_tridiagonal_eigenpairs", track)
        monkeypatch.setattr(solver_mod, "linearized_spectrum", spectrum)
        monkeypatch.setattr(spectral_mod, "symmetric_tridiagonal_eigenpairs", counted(
            "eigensolve", spectral_mod.symmetric_tridiagonal_eigenpairs))
        diag = assemble_diagram(diagram_window99.problem, diagram_window99.a)
        assert sum(len(br.points) for br in diag.branches) == sum(
            len(br.points) for br in diagram_window99.branches
        )
        # a deflated solve's 2 x 2 Schur complement goes to np.linalg.solve
        assert all(
            gtsv in (1, 2) and solve == gtsv - 1 and not lu and not apply
            for _, gtsv, lu, apply, solve in costs
        )
        assert costs[(False, 1, 0, 0, 0)] > 100 and costs[(True, 1, 0, 0, 0)] > 100
        assert len(norms) > 100 and not any(norms)
        assert sum(steps.values()) > 100
        assert sum(k * v for (_, k, _, _), v in steps.items()) > 100
        assert all(
            pairs == 2 and gtsv == k <= 2 * grid_mod.TRACK_MAX_ITER and not lu
            for pairs, k, gtsv, lu in steps
        )
        # one Sturm count per tracked point, made by the tracker itself
        assert sum(sturm_per_point.values()) >= sum(steps.values())
        assert set(sturm_per_point) == {1}
        # every point past the start, refined folds included, is tracked
        assert calls["refused"] == 0 and calls["eigensolve"] == 1
        extrapolated = steps_per_tracked_point()
        steps.clear()
        real_guesses = continuation_mod._secant_guesses
        monkeypatch.setattr(
            continuation_mod, "_secant_guesses", lambda older, base: real_guesses(None, base)
        )
        assemble_diagram(diagram_window99.problem, diagram_window99.a)
        assert extrapolated < steps_per_tracked_point()

    def test_correctors_measure_pairs_only_below_the_switch(
        self, diagram_window99, monkeypatch
    ):
        """Each arclength corrector of the window assembly starts from a
        float64 predictor. It measures each iterate's float64 residual, and
        corrects it to the Pair's (Ladder.residual) only from the first
        iterate whose float64 sup|F| is at or below FLOAT64_PHASE_TOL, which
        it promotes to a Pair, and at every iterate after that. A converged
        corrector ends on a Pair sup|F| below NEWTON_TOL after at most three
        Pair residuals, where a corrector that measured every iterate as a
        Pair would make one per iterate."""
        real_corrector = continuation_mod._arclength_corrector
        real_residual, real_pair = Problem.residual_values, solver_mod.Ladder.residual
        measured = None
        ends = []

        def residual(self, u, a, c, **buffers):
            F = real_residual(self, u, a, c, **buffers)
            if measured is not None:
                sup = float(np.max(np.abs(F)))
                measured.append([False, sup, sup])
            return F

        def pair(self, *args):
            out = real_pair(self, *args)
            if measured is not None:
                measured[-1][0::2] = [True, float(np.max(np.abs(out)))]
            return out

        def corrector(*args):
            nonlocal measured
            measured = []
            try:
                out = real_corrector(*args)
            except NonConvergence:
                ends.append((None, measured))
                raise
            else:
                ends.append((out[2], measured))
                return out
            finally:
                measured = None

        monkeypatch.setattr(Problem, "residual_values", residual)
        monkeypatch.setattr(solver_mod.Ladder, "residual", pair)
        monkeypatch.setattr(continuation_mod, "_arclength_corrector", corrector)
        assemble_diagram(diagram_window99.problem, diagram_window99.a)
        per_converged = Counter()
        for rF, seq in ends:
            is_pair = [x for x, _, _ in seq]
            k = is_pair.index(True) if True in is_pair else len(seq)
            assert not any(is_pair[:k]) and all(is_pair[k:])
            assert all(sup64 > FLOAT64_PHASE_TOL for _, sup64, _ in seq[:k])
            if k < len(seq):
                assert seq[k][1] <= FLOAT64_PHASE_TOL
            if rF is not None:
                assert is_pair[-1] and seq[-1][2] == rF < NEWTON_TOL
                per_converged[len(seq) - k] += 1
        assert sum(per_converged.values()) > 100
        assert max(per_converged) <= 3

    def test_tracks_above_lambda3_need_no_eigensolve(self, problem, monkeypatch):
        """At a = 95, above the third eigenvalue, the zero state's third
        eigenvalue lies below the degeneracy tolerance, so the tracker's
        count up to tol finds more than two. Its second count, at the tracked
        pairs' own shift, certifies them, and the two classifying counts give
        the index and flag: the branch through the zero state makes its one
        full eigensolve at its start point, and four Sturm counts per tracked
        point. Every index and flag is that of np.linalg.eigvalsh on the
        dense matrix."""
        calls = Counter()
        monkeypatch.setattr(spectral_mod, "symmetric_tridiagonal_eigenpairs", self.counted(
            calls, "eigensolve", spectral_mod.symmetric_tridiagonal_eigenpairs))
        monkeypatch.setattr(
            grid_mod, "sturm_count", self.counted(calls, "sturm", grid_mod.sturm_count)
        )
        monkeypatch.setattr(
            spectral_mod, "sturm_count", self.counted(calls, "sturm", spectral_mod.sturm_count)
        )
        start = newton_solve(problem, DiscreteField.zero(problem.domain), 95.0, 0.0)
        assert calls["eigensolve"] == 1
        before = calls.copy()
        branch = continuation_mod.continue_branch(
            problem, start, 1, (-100.0, 100.0), max_points=13
        )
        assert len(branch.points) == 13
        spent = calls - before
        assert spent == Counter(sturm=4 * 12)
        for p in branch.points:
            J = problem.jacobian_operator(p.u.values, p.a)
            dense = np.diag(-J.diag) + np.diag(-J.off, 1) + np.diag(-J.off, -1)
            lam = np.linalg.eigvalsh(dense)
            tol = p.spectrum.tol
            # the third eigenvalue reaches tol: the tracker's first count fails
            assert lam[2] < tol
            assert (p.morse_index, p.degenerate) == (
                int(np.sum(lam < -tol)), bool(np.any(np.abs(lam) < tol))
            )

    @pytest.mark.parametrize("direction", [1, -1])
    def test_branch_to_a_c_limit_solves_only_its_start(self, problem, monkeypatch, direction):
        """A branch from the stable state at a = 20 traced to its c limit
        makes its only full eigensolve at its start point: the end point,
        solved at the limit by newton_solve, tracks the last accepted
        point's pairs like every corrector step. Its classification is that
        of the full eigensolve."""
        calls = Counter()
        monkeypatch.setattr(spectral_mod, "symmetric_tridiagonal_eigenpairs", self.counted(
            calls, "eigensolve", spectral_mod.symmetric_tridiagonal_eigenpairs))
        amp = critical_cap(problem.nonlinearity, 20.0)
        phi = problem.modes()[0].eigenfunction
        start = newton_solve(problem, DiscreteField(problem.domain, amp * phi.values), 20.0, 0.0)
        assert calls["eigensolve"] == 1
        branch = continuation_mod.continue_branch(problem, start, direction, (-50.0, 50.0))
        assert [ev.kind for ev in branch.events] == ["endpoint"]
        end = branch.points[-1]
        assert end.c == 50.0 * direction
        assert calls["eigensolve"] == 1
        full = classify_state(problem, end.u, end.a, end.c, rnorm=end.residual_norm)
        assert calls["eigensolve"] == 2
        assert (end.morse_index, end.degenerate, end.tag) == (
            full.morse_index, full.degenerate, full.tag
        )
        assert np.allclose(end.spectrum.eigenvalues, full.spectrum.eigenvalues,
                           rtol=1e-10, atol=1e-10)

    def test_each_newton_iteration_of_a_count_makes_one_gtsv_call(
        self, diagram_window99, monkeypatch
    ):
        """Over one count, the pooled Newton's rounds (one infinity-norm
        bound each) meet no singular Jacobian, and each makes exactly one
        gtsv call, over every live row, paired or not, and no gttrf or gttrs
        call."""
        calls = Counter()
        per_iteration = []
        real_gtsv = grid_mod._dgtsv
        real_norms = solver_mod._stack_norms_inf
        real_pool = diagram_mod._newton_pool
        ends = Counter()

        def gtsv(*args, **kwargs):
            per_iteration[-1] += 1
            return real_gtsv(*args, **kwargs)

        def norms(*args):
            per_iteration.append(0)
            return real_norms(*args)

        def pool(*args, **kwargs):
            for end in real_pool(*args, **kwargs):
                ends[end[1]] += 1
                yield end

        monkeypatch.setattr(grid_mod, "_dgtsv", gtsv)
        monkeypatch.setattr(grid_mod, "_dgttrf", self.counted(calls, "gttrf", grid_mod._dgttrf))
        monkeypatch.setattr(grid_mod, "_dgttrs", self.counted(calls, "gttrs", grid_mod._dgttrs))
        monkeypatch.setattr(solver_mod, "_stack_norms_inf", norms)
        monkeypatch.setattr(diagram_mod, "_newton_pool", pool)
        found = count_solutions(diagram_window99.problem, diagram_window99.a, 0.0, 100, 0)
        assert found.count == 4
        assert "singular-jacobian" not in ends and ends["converged"] + ends["ball-exit"] == 100
        # all 100 starts fit one pool at n = 99, so there are as many rounds
        # as the longest-lived row needs: one per Jacobian it factors
        assert len(per_iteration) >= max(len(m.residual_history) for m in found.members)
        assert set(per_iteration) == {1}
        assert not calls


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
                dev = dom.l2_norm(u.hi - um) + abs(c.hi - cm)
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
        forged = dataclasses.replace(
            stable20, spectrum=dataclasses.replace(stable20.spectrum, index=1)
        )
        assert stability_crosscheck(forged) == "fail"
