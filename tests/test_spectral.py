from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifurcate import grid as grid_mod
from bifurcate import spectral as spectral_mod
from bifurcate.diagram import assemble_diagram
from bifurcate.grid import (
    DiscreteField,
    build_grid,
    exact_mode_longdouble,
    inner_product,
    laplacian_eigenpairs,
    track_tridiagonal_eigenpairs,
)
from bifurcate.model import HarvestSpec, Nonlinearity
from bifurcate.solver import Problem, classify_state, newton_solve
from bifurcate.spectral import (
    SpectrumSlice,
    classified_eigenpairs,
    degeneracy_tolerance,
    linearized_spectrum,
)


@pytest.fixture(scope="module")
def problem(domain):
    return Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def psi(domain, problem):
    return laplacian_eigenpairs(domain, 2, harvest=problem.harvest)[1]


def zero_state(problem, a):
    """The (problem, u, a) arguments of linearized_spectrum at u = 0."""
    return problem, DiscreteField.zero(problem.domain), a


def state_of(point):
    """The (problem, u, a) arguments of linearized_spectrum at a point."""
    return point.problem, point.u, point.a


def morse_index(spec):
    return spec.index, spec.degenerate


def test_spectrum_at_zero_is_shifted_laplacian(problem, domain):
    spec = linearized_spectrum(*zero_state(problem, 20.0), 3)
    for k, mu in enumerate(spec.eigenvalues, start=1):
        assert mu == pytest.approx(
            float(exact_mode_longdouble(domain, k)[0]) - 20.0, abs=1e-10
        )
    assert spec.mu1 == pytest.approx(-10.13, abs=1e-2)
    assert spec.mu2 == pytest.approx(19.48, abs=1e-2)


def test_spectrum_ascending(problem):
    spec = linearized_spectrum(*zero_state(problem, 20.0), 3)
    assert list(spec.eigenvalues) == sorted(spec.eigenvalues)


@pytest.mark.parametrize("t", [0.2, -0.2, 0.07])
def test_segment_states_have_vanishing_second_eigenvalue(problem, domain, psi, t):
    # u = t*psi with t in [-M/beta, M] stays below the ramp threshold, so the
    # linearization is exactly the shifted Laplacian and mu2 = 0
    lam2 = psi.eigenvalue
    u = DiscreteField(domain, t * psi.eigenfunction.values)
    spec = linearized_spectrum(problem, u, lam2, 3)
    assert abs(spec.mu2) < 1e-10
    index, degenerate = morse_index(spec)
    assert (index, degenerate) == (1, True)


def test_rayleigh_quotient_consistency(problem, domain, psi):
    phi_field = laplacian_eigenpairs(domain, 1)[0].eigenfunction
    start = DiscreteField(domain, 3 * phi_field.values)
    pt = newton_solve(problem, start, 20.0, 0.0)
    J = pt.problem.jacobian_operator(pt.u.values, pt.a)
    for mu, w in zip(pt.spectrum.eigenvalues, pt.spectrum.eigenfunctions):
        quotient = -domain.inner(J.apply(w.values), w.values) / domain.inner(
            w.values, w.values
        )
        assert quotient == pytest.approx(mu, abs=1e-9)


def test_energy_form_quotient_on_a_nonuniform_band():
    """The energy form is an identity for every symmetric tridiagonal
    matrix, not only for a linearization's uniform off-diagonal: on a random
    band with a varying off-diagonal it matches exact arithmetic to
    rounding."""
    rng = np.random.default_rng(7)
    n = 60
    diag = rng.uniform(-50.0, 50.0, n)
    off = rng.uniform(-20.0, 20.0, n - 1)
    _assert_quotients_exact(diag, off, [rng.standard_normal(n) for _ in range(3)])


def test_frozen_spectrum_of_positive_state(problem, domain):
    phi = laplacian_eigenpairs(domain, 1)[0].eigenfunction
    pt = newton_solve(problem, DiscreteField(domain, 3 * phi.values), 20.0, 0.0)
    assert pt.spectrum.eigenvalues[0] == pytest.approx(21.090965532743, abs=1e-6)
    assert pt.spectrum.eigenvalues[1] == pytest.approx(41.350663666442, abs=1e-6)


@pytest.mark.parametrize(
    "a, expected",
    [(5.0, (0, False)), (20.0, (1, False)), (45.0, (2, False))],
)
def test_morse_index_of_zero_state(problem, a, expected):
    spec = linearized_spectrum(*zero_state(problem, a), 3)
    assert morse_index(spec) == expected


def test_morse_index_beyond_the_computed_pairs(problem):
    # above lambda3 both computed eigenvalues are negative, and the Sturm
    # counts find the third negative one
    spec = linearized_spectrum(*zero_state(problem, 100.0), 2)
    assert spec.mu2 < -spec.tol
    assert morse_index(spec) == (3, False)
    assert morse_index(linearized_spectrum(*zero_state(problem, 100.0), 5)) == (3, False)


def test_zero_state_at_lambda3_is_degenerate_with_index_two(problem, domain):
    # at the discrete lambda3 the vanishing eigenvalue is the third, which
    # is not computed
    lam3 = float(exact_mode_longdouble(domain, 3)[0])
    spec = linearized_spectrum(*zero_state(problem, lam3), 2)
    assert max(spec.eigenvalues) < -spec.tol
    assert morse_index(spec) == (2, True)
    assert morse_index(linearized_spectrum(*zero_state(problem, lam3), 3)) == (2, True)


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from([1.0, 1e2, 1e4]),
    tol=st.sampled_from([1e-6, 2e-5, 1e-4]),
    j=st.integers(min_value=0, max_value=3),
    place=st.floats(min_value=-3.0, max_value=3.0).filter(lambda x: abs(abs(x) - 1.0) > 0.05),
    tracked=st.booleans(),
)
@example(n=10, seed=1, scale=1.0, tol=1e-6, j=2, place=0.5, tracked=True)
@example(n=10, seed=1, scale=1.0, tol=1e-6, j=2, place=0.5, tracked=False)
@example(n=10, seed=2, scale=1e2, tol=2e-5, j=2, place=-2.0, tracked=True)
@example(n=10, seed=3, scale=1.0, tol=1e-4, j=1, place=0.0, tracked=True)
@example(n=10, seed=4, scale=1e4, tol=1e-6, j=3, place=0.3, tracked=False)
def test_two_pairs_and_a_count_classify_like_the_dense_spectrum(
    n, seed, scale, tol, j, place, tracked
):
    """The index and degeneracy flag from the two lowest eigenpairs plus
    Sturm counts equal those of np.linalg.eigvalsh on the dense matrix. The
    (j+1)-th eigenvalue is shifted to place * tol, so it lies within tol of
    zero for |place| < 1, and for j >= 2 a third eigenvalue lies below
    -tol or within tol of zero. The pairs come from the full eigensolve or
    are tracked from exact eigenvectors."""
    rng = np.random.default_rng(seed)
    diag = scale * rng.standard_normal(n)
    off = scale * rng.standard_normal(n - 1)
    j = min(j, n - 1)
    diag -= np.linalg.eigvalsh(_tridiagonal(diag, off))[j] - place * tol
    lam, vecs = np.linalg.eigh(_tridiagonal(diag, off))
    want = (int(np.sum(lam < -tol)), bool(np.any(np.abs(lam) < tol)))
    guesses = [vecs[:, 0], vecs[:, 1]] if tracked else None
    vals, _, index, degenerate = classified_eigenpairs(diag, off, 2, tol, guesses)
    assert (index, degenerate) == want
    assert np.allclose(vals, lam[:2], rtol=0.0, atol=1e-9 * scale)


def test_spectrum_requires_two_eigenvalues(problem):
    with pytest.raises(ValueError):
        linearized_spectrum(*zero_state(problem, 20.0), 1)


def test_eigenfunction_normalization_targets(problem, domain, psi):
    phi = laplacian_eigenpairs(domain, 1)[0].eigenfunction
    phi_sq = inner_product(phi, phi)
    psi_sq = inner_product(psi.eigenfunction, psi.eigenfunction)
    spec = linearized_spectrum(*zero_state(problem, 20.0), 3)
    w1, w2, w3 = spec.eigenfunctions
    assert inner_product(w1, w1) == pytest.approx(phi_sq, abs=1e-12)
    assert inner_product(w2, w2) == pytest.approx(psi_sq, abs=1e-12)
    assert inner_product(w3, w3) == pytest.approx(phi_sq, abs=1e-12)


def test_first_eigenfunction_positive(problem, domain):
    spec = linearized_spectrum(*zero_state(problem, 20.0), 2)
    assert np.min(spec.eigenfunctions[0].values) > 0
    phi = laplacian_eigenpairs(domain, 1)[0].eigenfunction
    pt = newton_solve(problem, DiscreteField(domain, 3 * phi.values), 20.0, 0.0)
    assert np.min(pt.spectrum.eigenfunctions[0].values) > 0


def test_degeneracy_tolerance_shared(problem):
    spec = linearized_spectrum(*zero_state(problem, 20.0), 2)
    assert spec.tol == degeneracy_tolerance(20.0)
    assert degeneracy_tolerance(20.0) == pytest.approx(2e-5, rel=1e-12)
    assert degeneracy_tolerance(0.5) == pytest.approx(1e-6, rel=1e-12)


# ---------------------------------------------------------------------------
# Spectra tracked from the previous branch point

#: Largest eigenvalue gap, relative to max(1, |mu|), allowed between a
#: tracked spectrum and the full eigensolve of the same state.
TRACKED_GAP = 1e-10

#: Half-width of the four-solution window per mesh (index-1 family trace).
DELTA = {399: 0.962759859621, 1599: 0.9627627317253058}

BENCH_DIAGRAMS = [(399, r) for r in (
    "below-lambda1", "at-lambda1", "between-lambda1-lambda2", "at-lambda2", "window",
)] + [(1599, "at-lambda2"), (1599, "window")]


def _bench_problem(n):
    return Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))


def _growth_rate(problem, regime):
    phi, psi = problem.modes()
    return {
        "below-lambda1": 5.0,
        "at-lambda1": phi.eigenvalue,
        "between-lambda1-lambda2": 20.0,
        "at-lambda2": psi.eigenvalue,
        "window": psi.eigenvalue + 0.5 * DELTA[problem.domain.n_interior],
    }[regime]


def _assert_same_spectrum(got, want):
    assert got.eigenvalues == want.eigenvalues
    for f, g in zip(got.eigenfunctions, want.eigenfunctions):
        assert np.array_equal(f.values, g.values)


def _assert_quotients_exact(diag, off, vecs):
    """Each Rayleigh quotient of grid._rayleigh_quotients lies within 1e-13
    of v^T A v / v^T v for the symmetric tridiagonal A = (diag, off),
    computed in exact rational arithmetic on the float64 numbers as
    stored."""
    d, e = [Fraction(float(x)) for x in diag], [Fraction(float(x)) for x in off]
    for mu, v in zip(grid_mod._rayleigh_quotients(diag, off, vecs), vecs):
        w = [Fraction(float(x)) for x in v]
        num = sum(di * wi * wi for di, wi in zip(d, w))
        num += 2 * sum(ei * wi * wj for ei, wi, wj in zip(e, w, w[1:]))
        assert abs(Fraction(float(mu)) - num / sum(wi * wi for wi in w)) <= Fraction(1e-13)


def _gap(got, want):
    return max(
        abs(x - y) / max(1.0, abs(y)) for x, y in zip(got.eigenvalues, want.eigenvalues)
    )


@pytest.fixture(scope="module")
def bench_diagrams():
    """Diagrams of the benchmark configurations, assembled once on demand,
    with the number of tracked spectra certified and refused during each."""
    built = {}

    def get(n, regime):
        if (n, regime) not in built:
            outcome = {"certified": 0, "refused": 0}

            def spy(*args):
                pairs = track_tridiagonal_eigenpairs(*args)
                outcome["refused" if pairs is None else "certified"] += 1
                return pairs

            problem = _bench_problem(n)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral_mod, "track_tridiagonal_eigenpairs", spy)
                diagram = assemble_diagram(problem, _growth_rate(problem, regime))
            built[n, regime] = diagram, outcome
        return built[n, regime]

    return get


class TestTrackedSpectrum:
    @pytest.mark.parametrize("n, regime", BENCH_DIAGRAMS)
    def test_matches_full_eigensolve_at_every_point(self, bench_diagrams, n, regime):
        diagram, outcome = bench_diagrams(n, regime)
        # every accepted corrector step was tracked and certified; a refusal
        # would still be correct (full eigensolve), only slower
        assert outcome["certified"] > 0 and outcome["refused"] == 0
        problem = diagram.problem
        for br in diagram.branches:
            for p in br.points:
                full = classify_state(problem, p.u, p.a, p.c, rnorm=p.residual_norm)
                assert (p.morse_index, p.degenerate, p.tag) == (
                    full.morse_index, full.degenerate, full.tag
                )
                assert _gap(p.spectrum, full.spectrum) < TRACKED_GAP

    def test_ray_states_share_one_exact_spectrum(self, bench_diagrams):
        """f' vanishes on the lambda1 ray, so one eigensolve classifies all
        its states, and that classification is each state's own, bit for
        bit."""
        diagram, _ = bench_diagrams(399, "at-lambda1")
        ray = next(br for br in diagram.branches if br.tag == "ray")
        assert len(ray.points) == 41
        assert len({id(p.spectrum) for p in ray.points}) == 1
        for p in ray.points:
            full = classify_state(diagram.problem, p.u, p.a, p.c, rnorm=p.residual_norm)
            assert (p.morse_index, p.degenerate, p.tag) == (
                full.morse_index, full.degenerate, full.tag
            )
            _assert_same_spectrum(p.spectrum, full.spectrum)

    @pytest.mark.parametrize("regime", ["at-lambda2", "window"])
    def test_degenerate_points_match_full_eigensolve(
        self, bench_diagrams, monkeypatch, regime
    ):
        tracked, _ = bench_diagrams(399, regime)
        # every certificate refused: the full eigensolve at every point
        monkeypatch.setattr(spectral_mod, "track_tridiagonal_eigenpairs", lambda *a: None)
        problem = _bench_problem(399)
        full = assemble_diagram(problem, _growth_rate(problem, regime))
        got = [(dp.kind, dp.c) for dp in tracked.degenerate_points]
        want = [(dp.kind, dp.c) for dp in full.degenerate_points]
        assert [k for k, _ in got] == [k for k, _ in want] and got
        for (_, c1), (_, c2) in zip(got, want):
            assert abs(c1 - c2) <= 1e-9
        for b1, b2 in zip(tracked.branches, full.branches):
            assert b1.tag == b2.tag
            assert [(ev.kind, ev.point_index) for ev in b1.events] == [
                (ev.kind, ev.point_index) for ev in b2.events
            ]
            for ev1, ev2 in zip(b1.events, b2.events):
                if ev1.degenerate_point is not None:
                    assert abs(ev1.degenerate_point.c - ev2.degenerate_point.c) <= 1e-9

    @pytest.mark.parametrize("regime", ["at-lambda2", "window"])
    def test_energy_form_quotient_matches_exact_arithmetic(self, bench_diagrams, regime):
        """The float64 energy-form Rayleigh quotient of a branch eigenvector
        at n = 399 lies within 1e-13 of the exact quotient of the stored
        matrix, at every tenth point of each branch and at both points that
        bracket each fold."""
        diagram, _ = bench_diagrams(399, regime)
        points, brackets = [], 0
        for br in diagram.branches:
            picked = set(range(0, len(br.points), 10))
            for ev in br.events:
                if ev.kind == "fold":
                    low, high = br.points[ev.point_index: ev.point_index + 2]
                    mu_l, mu_h = low.spectrum.eigenvalues, high.spectrum.eigenvalues
                    assert any(x * y < 0 for x, y in zip(mu_l, mu_h))
                    picked |= {ev.point_index, ev.point_index + 1}
                    brackets += 1
            points += [br.points[i] for i in sorted(picked)]
        assert brackets >= 2
        for p in points:
            J = p.problem.jacobian_operator(p.u.values, p.a)
            _assert_quotients_exact(-J.diag, -J.off, [f.values for f in p.spectrum.eigenfunctions])

    def test_swapped_eigenpairs_fall_back_bit_for_bit(self, problem, domain):
        phi = laplacian_eigenpairs(domain, 1)[0].eigenfunction
        pt = newton_solve(problem, DiscreteField(domain, 3 * phi.values), 20.0, 0.0)
        spec = pt.spectrum
        assert spec.k == 2
        order = (1, 0)
        swapped = SpectrumSlice(
            tuple(spec.eigenvalues[j] for j in order),
            tuple(spec.eigenfunctions[j] for j in order),
            spec.tol,
            spec.index,
            spec.degenerate,
        )
        J = pt.problem.jacobian_operator(pt.u.values, pt.a)
        guesses = [f.values for f in swapped.eigenfunctions]
        assert track_tridiagonal_eigenpairs(-J.diag, -J.off, guesses, spec.tol) is None
        _assert_same_spectrum(
            linearized_spectrum(*state_of(pt), 2, swapped), linearized_spectrum(*state_of(pt), 2)
        )
        # the unswapped slice certifies and agrees
        again = linearized_spectrum(*state_of(pt), 2, spec)
        assert _gap(again, spec) < TRACKED_GAP
        assert morse_index(again) == morse_index(spec)

    def test_skipped_eigenvalue_falls_back_bit_for_bit(self, problem, domain):
        # guesses for the second and third eigenpairs: the Sturm count finds
        # three eigenvalues below the second tracked one
        phi = laplacian_eigenpairs(domain, 1)[0].eigenfunction
        pt = newton_solve(problem, DiscreteField(domain, 3 * phi.values), 20.0, 0.0)
        wide = linearized_spectrum(*state_of(pt), 3)
        shifted = SpectrumSlice(
            wide.eigenvalues[1:], wide.eigenfunctions[1:], wide.tol,
            wide.index, wide.degenerate,
        )
        J = pt.problem.jacobian_operator(pt.u.values, pt.a)
        guesses = [f.values for f in shifted.eigenfunctions]
        assert track_tridiagonal_eigenpairs(-J.diag, -J.off, guesses, wide.tol) is None
        _assert_same_spectrum(
            linearized_spectrum(*state_of(pt), 2, shifted), linearized_spectrum(*state_of(pt), 2)
        )

    def test_prev_on_another_grid_falls_back(self, problem):
        coarse = _bench_problem(99)
        prev = linearized_spectrum(*zero_state(coarse, 20.0), 3)
        state = zero_state(problem, 20.0)
        _assert_same_spectrum(
            linearized_spectrum(*state, 3, prev), linearized_spectrum(*state, 3)
        )

    def test_prev_from_another_branch_is_certified_or_refused(self, bench_diagrams):
        # Rayleigh-quotient iteration from another branch's eigenpairs may
        # still land on the right ones; then the certificate holds and the
        # values agree. Where it does not, the result is the full eigensolve.
        diagram, _ = bench_diagrams(399, "window")
        target = diagram.branch("Mstar").points[0]
        full = linearized_spectrum(*state_of(target), 2)
        J = target.problem.jacobian_operator(target.u.values, target.a)
        refused = 0
        for p in diagram.branch("Msharp").points[::10]:
            guesses = [f.values for f in p.spectrum.eigenfunctions]
            got = linearized_spectrum(*state_of(target), 2, p.spectrum)
            if track_tridiagonal_eigenpairs(-J.diag, -J.off, guesses, full.tol) is None:
                refused += 1
                _assert_same_spectrum(got, full)
            else:
                assert morse_index(got) == morse_index(full)
                assert _gap(got, full) < TRACKED_GAP
        assert refused > 0
