import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcate.grid import (
    DiscreteDomain,
    DiscreteField,
    DomainMismatch,
    LinearOperatorBanded,
    TridiagonalFactor,
    assemble_laplacian,
    build_grid,
    inner_product,
    l2_norm,
    exact_mode_longdouble,
    laplacian_eigenpairs,
    renormalize_l2,
    solve_bordered,
    symmetric_tridiagonal_eigenpairs,
)
from bifurcate import grid as grid_mod
from bifurcate.diagram import _multistart_seeds
from bifurcate.model import HarvestSpec, Nonlinearity, check_hypotheses
from bifurcate.solver import Problem

# Reference values. The sine integrals against x(1-x)^2 have closed forms;
# the trapezoid error for both happens to be O(h^4) because the integrands'
# derivatives vanish at the endpoints, so the discrete sums sit within ~1e-11
# of the exact numbers at n = 399.
TWO_OVER_PI3 = 2.0 / np.pi**3          # 0.06450306886639899
THREE_OVER_4PI3 = 3.0 / (4 * np.pi**3)  # 0.02418865082489962


def test_build_grid_layout(domain):
    assert domain.n_interior == 399
    assert domain.spacing == pytest.approx(1.0 / 400, abs=0)
    assert domain.nodes[0] == pytest.approx(domain.spacing, abs=0)
    assert domain.nodes[-1] == pytest.approx(1.0 - domain.spacing, rel=1e-15)
    assert domain.nodes.shape == (399,)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid(2, 1.0)
    with pytest.raises(ValueError):
        build_grid(10, 0.0)
    with pytest.raises(ValueError):
        build_grid(10, -1.0)


def test_domain_immutable(domain):
    with pytest.raises(AttributeError):
        domain.spacing = 0.1
    with pytest.raises(ValueError):
        domain.nodes[0] = 99.0


def test_field_validation(domain):
    with pytest.raises(ValueError):
        DiscreteField(domain, np.zeros(5))
    bad = np.zeros(domain.n_interior)
    bad[7] = np.nan
    with pytest.raises(ValueError):
        DiscreteField(domain, bad)
    f = DiscreteField.from_callable(domain, np.sin)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_laplacian_stencil_small():
    # n = 3 on (0, 1): h = 1/4, so the rows are 16, -32, 16 over h^2 scaling
    op = assemble_laplacian(build_grid(3, 1.0))
    assert np.array_equal(op.diag, [-32.0, -32.0, -32.0])
    assert np.array_equal(op.off, [16.0, 16.0])


def test_laplacian_apply_matches_dense():
    dom = build_grid(50, 1.0)
    op = assemble_laplacian(dom)
    dense = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(50)
    assert np.allclose(op.apply(v), dense @ v, rtol=0, atol=1e-12)


def test_quadrature_sine_identities(domain, harvest_field):
    x = domain.nodes
    phi = np.sin(np.pi * x)
    # spacing * sum(sin^2) telescopes exactly to 1/2 on the uniform grid
    assert domain.inner(phi, phi) == pytest.approx(0.5, abs=1e-14)
    assert domain.inner(harvest_field.values, phi) == pytest.approx(
        TWO_OVER_PI3, abs=1e-10
    )
    assert domain.inner(harvest_field.values, np.sin(2 * np.pi * x)) == pytest.approx(
        THREE_OVER_4PI3, abs=1e-10
    )


def test_inner_product_field_wrapper(domain, harvest_field):
    phi = DiscreteField.from_callable(domain, lambda x: np.sin(np.pi * x))
    assert inner_product(harvest_field, phi) == pytest.approx(
        TWO_OVER_PI3, abs=1e-10
    )
    other = DiscreteField.zero(build_grid(11, 1.0))
    with pytest.raises(DomainMismatch):
        inner_product(phi, other)


def _laplacian_band_eigenpairs(domain, k):
    """The k smallest eigenpairs of the -Laplacian band by the numerical
    eigensolver: the independent reference for the closed form."""
    h2 = domain.spacing**2
    n = domain.n_interior
    return symmetric_tridiagonal_eigenpairs(
        np.full(n, 2.0 / h2), np.full(n - 1, -1.0 / h2), k
    )


def test_eigenvalues_match_closed_form():
    for n in (49, 399, 1599):
        domain = build_grid(n, 1.0)
        x = domain.nodes
        harvest = DiscreteField(domain, x * (1 - x) ** 2)
        pairs = laplacian_eigenpairs(domain, 3, harvest=harvest)
        vals, _ = _laplacian_band_eigenpairs(domain, 3)
        for pair, lam in zip(pairs, vals):
            assert pair.eigenvalue == pytest.approx(lam, abs=1e-10)


def test_eigenvalue_second_order_consistency(domain):
    # discrete eigenvalues undershoot (k pi)^2 by (k pi h)^2/12 to leading order
    h = domain.spacing
    for k in (1, 2, 3):
        lam = float(exact_mode_longdouble(domain, k)[0])
        continuum = (k * np.pi) ** 2
        rel = (continuum - lam) / continuum
        predicted = (k * np.pi * h) ** 2 / 12.0
        assert rel == pytest.approx(predicted, rel=1e-2)


def test_frozen_eigenvalues(domain):
    lam = [float(exact_mode_longdouble(domain, k)[0]) for k in (1, 2, 3)]
    assert lam[0] == pytest.approx(9.869553667292095, abs=1e-9)
    assert lam[1] == pytest.approx(39.477605868608435, abs=1e-9)
    assert lam[2] == pytest.approx(88.82233023982288, abs=1e-9)


def test_eigenfunctions_are_sine_samples(domain, harvest_field):
    pairs = laplacian_eigenpairs(domain, 3, harvest=harvest_field)
    x = domain.nodes
    signs = {1: 1.0, 2: -1.0, 3: 1.0}  # psi is flipped to make <h, psi> < 0
    for k, pair in enumerate(pairs, start=1):
        s = signs[k] * np.sin(k * np.pi * x)
        expected = s / np.max(s)
        assert np.max(np.abs(pair.eigenfunction.values - expected)) < 1e-10


def test_eigenfunction_normalization_and_signs(domain, harvest_field):
    pairs = laplacian_eigenpairs(domain, 3, harvest=harvest_field)
    phi, psi = pairs[0], pairs[1]
    assert np.max(phi.eigenfunction.values) == pytest.approx(1.0, abs=0)
    assert np.min(phi.eigenfunction.values) > 0.0
    assert np.max(psi.eigenfunction.values) == pytest.approx(1.0, abs=0)
    assert inner_product(harvest_field, psi.eigenfunction) < 0
    assert not psi.sign_ambiguous
    # beta = -min psi: the negative lobe peaks at the grid node x = 1/4
    beta = -np.min(psi.eigenfunction.values)
    assert beta == pytest.approx(1.0, abs=1e-6)
    assert beta == pytest.approx(1.0, abs=1e-9)


def test_harvest_weighted_integrals_of_eigenfunctions(domain, harvest_field):
    pairs = laplacian_eigenpairs(domain, 2, harvest=harvest_field)
    assert inner_product(harvest_field, pairs[0].eigenfunction) == pytest.approx(
        TWO_OVER_PI3, abs=1e-10
    )
    assert inner_product(harvest_field, pairs[1].eigenfunction) == pytest.approx(
        -THREE_OVER_4PI3, abs=1e-10
    )


def test_eigenfunction_orthogonality(domain, harvest_field):
    pairs = laplacian_eigenpairs(domain, 3, harvest=harvest_field)
    for i in range(3):
        for j in range(i + 1, 3):
            ip = inner_product(pairs[i].eigenfunction, pairs[j].eigenfunction)
            assert abs(ip) < 1e-10


def test_sign_ambiguity_flagged_for_orthogonal_harvest(domain):
    # a pure first-mode harvest is orthogonal to psi, so no sign preference
    flat = DiscreteField.from_callable(domain, lambda x: np.sin(np.pi * x))
    pairs = laplacian_eigenpairs(domain, 2, harvest=flat)
    assert pairs[1].sign_ambiguous
    pairs_default = laplacian_eigenpairs(domain, 2)
    assert not pairs_default[1].sign_ambiguous
    assert pairs_default[1].eigenfunction.values[0] > 0


def test_eigenpair_count_validation(domain):
    with pytest.raises(ValueError):
        laplacian_eigenpairs(domain, 0)
    with pytest.raises(ValueError):
        laplacian_eigenpairs(domain, domain.n_interior + 1)


def test_renormalize_l2(domain, harvest_field):
    pairs = laplacian_eigenpairs(domain, 1)
    unit = renormalize_l2(pairs[0].eigenfunction)
    assert l2_norm(unit) == pytest.approx(1.0, abs=1e-13)
    scaled = renormalize_l2(harvest_field, target=3.5)
    assert l2_norm(scaled) == pytest.approx(3.5, rel=1e-13)
    with pytest.raises(ValueError):
        renormalize_l2(DiscreteField.zero(domain))


def test_factor_solve_roundtrip(domain):
    op = assemble_laplacian(domain).shifted(20.0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal(domain.n_interior)
    x = op.factor().solve(b)
    assert np.max(np.abs(op.apply(x) - b)) < 1e-9 * np.max(np.abs(b))


def test_factor_pivot_reveals_singular_shift(domain):
    lap = assemble_laplacian(domain)
    lam1 = float(exact_mode_longdouble(domain, 1)[0])
    healthy = lap.shifted(20.0).factor().min_pivot
    singular = lap.shifted(lam1).factor().min_pivot
    assert healthy > 1e4
    assert singular < 1e-4


def test_block_pivots_of_a_stack_match_each_block_alone(domain):
    """Blocks stacked with zero couplings at the seams keep the pivots they
    have when factored alone, an exactly singular block included."""
    n = domain.n_interior
    lap = assemble_laplacian(domain)
    rng = np.random.default_rng(11)
    diags = np.stack([
        lap.diag + 20.0,
        rng.uniform(-2.0, 2.0, n) * lap.off[0],
        np.zeros(n),  # tridiag(o, 0, o) of odd size: singular
        rng.uniform(-2.0, 2.0, n) * lap.off[0],
    ])
    seams = np.tile(np.append(lap.off, 0.0), len(diags))[:-1]
    stacked = TridiagonalFactor(diags.ravel(), seams)
    alone = [TridiagonalFactor(d, lap.off) for d in diags]
    assert alone[2].exactly_singular
    assert stacked.block_min_pivots(len(diags)).tolist() == [f.min_pivot for f in alone]


def _dense_bordered(op, B, C, D):
    n = op.diag.size
    J = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    B = B.reshape(n, -1)
    C = C.reshape(n, -1)
    return np.block([[J, B], [C.T, np.reshape(D, (B.shape[1],) * 2)]])


def _check_bordered(op, B, C, D, seed):
    """solve_bordered against a dense solve of the same assembled matrix,
    to within a small multiple of eps * cond of the bordered matrix."""
    n = op.diag.size
    k = B.reshape(n, -1).shape[1]
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n)
    g = rng.standard_normal(k)
    A = _dense_bordered(op, B, C, D)
    ref = np.linalg.solve(A, np.concatenate((f, g)))
    x, y = solve_bordered(op, B, C, D, f, g)
    assert x.shape == (n,) and y.shape == (k,)
    bound = 100 * np.finfo(float).eps * np.linalg.cond(A) * np.max(np.abs(ref))
    assert np.max(np.abs(np.concatenate((x, y)) - ref)) < bound


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [99, 399])
def test_bordered_solve_regular(n, k):
    op = assemble_laplacian(build_grid(n, 1.0)).shifted(20.0)
    rng = np.random.default_rng(n + k)
    B, C = rng.standard_normal((2, n, k))
    _check_bordered(op, B, C, rng.standard_normal((k, k)), seed=k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [99, 399])
def test_bordered_solve_at_polished_first_eigenvalue(n, k):
    """J = Laplacian + lambda1 is singular to working precision (tiny
    pivot); the bordered matrix is regular through the harvest-like border,
    and D = 0 as in the fold systems."""
    dom = build_grid(n, 1.0)
    pair = laplacian_eigenpairs(dom, 1)[0]
    op = assemble_laplacian(dom).shifted(pair.eigenvalue)
    assert op.factor().min_pivot < 1e-6 * op.norm_inf()
    x = dom.nodes
    B = np.column_stack((x * (1 - x) ** 2, np.cos(3 * x)))[:, :k]
    C = np.column_stack((pair.eigenfunction.values, x))[:, :k]
    _check_bordered(op, B, C, np.zeros((k, k)), seed=3 * k)


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_with_exact_zero_pivot(k):
    """gttrf meets an exact zero pivot (the leading 2x2 block of J is
    [[1, 1], [1, 1]] and the rest is decoupled from it), yet the border
    reaches the null vector (1, -1, 0, ...) and the bordered matrix is
    regular."""
    n = 9
    diag = np.array([1.0, 1.0] + [2.0] * (n - 2))
    off = np.array([1.0, 0.0] + [-1.0] * (n - 3))
    op = LinearOperatorBanded(build_grid(n, 1.0), diag, off)
    assert op.factor().exactly_singular
    rng = np.random.default_rng(5)
    B = rng.standard_normal((n, k))
    C = rng.standard_normal((n, k))
    _check_bordered(op, B, C, np.zeros((k, k)), seed=k)


def test_exact_modes_match_closed_form():
    """The first two modes are the float64 rounding of the long-double
    closed form, sign-adjusted, bit for bit, and the eigensolver's vectors
    agree with them."""
    for n in (49, 399, 1599):
        domain = build_grid(n, 1.0)
        x = domain.nodes
        harvest = DiscreteField(domain, x * (1 - x) ** 2)
        _, vecs = _laplacian_band_eigenpairs(domain, 2)
        for k, pair in enumerate(laplacian_eigenpairs(domain, 2, harvest=harvest), start=1):
            lam, mode = exact_mode_longdouble(domain, k)
            assert mode.dtype == np.longdouble
            assert float(np.max(np.abs(mode))) == 1.0 and mode[0] > 0
            assert pair.eigenvalue == float(lam)
            values = pair.eigenfunction.values
            assert np.array_equal(values, np.sign(values[0]) * mode.astype(float))
            ref = vecs[k - 1] / vecs[k - 1][np.argmax(np.abs(vecs[k - 1]))]
            assert np.max(np.abs(mode.astype(float) - np.sign(ref[0]) * ref)) < 1e-9


def test_laplacian_modes_need_no_eigensolver(monkeypatch):
    """The Laplacian's modes come from the closed form: with the numerical
    eigensolver unavailable, everything built on them still runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve of the Laplacian")

    monkeypatch.setattr(grid_mod, "symmetric_tridiagonal_eigenpairs", refuse)
    domain = build_grid(99, 1.0)
    problem = Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))
    phi, psi = problem.modes()
    assert phi.eigenvalue < psi.eigenvalue
    assert check_hypotheses(problem.nonlinearity, problem.harvest_spec, domain).satisfied
    assert sum(len(chunk) for chunk in _multistart_seeds(problem, 20.0, 12, 0)) == 12


def test_shifted_changes_diag_only(domain):
    lap = assemble_laplacian(domain)
    sh = lap.shifted(5.0)
    assert np.allclose(sh.diag - lap.diag, 5.0, atol=0)
    assert np.array_equal(sh.off, lap.off)


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=12,
        max_size=12,
    ),
    alpha=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_quadrature_bilinear_and_symmetric(data, alpha):
    dom = build_grid(4, 1.0)
    u = np.array(data[:4])
    v = np.array(data[4:8])
    w = np.array(data[8:])
    assert dom.inner(u, v) == pytest.approx(dom.inner(v, u), abs=1e-12)
    lhs = dom.inner(alpha * u + v, w)
    rhs = alpha * dom.inner(u, w) + dom.inner(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=3, max_value=60),
)
def test_laplacian_self_adjoint(seed, n):
    dom = build_grid(n, 1.0)
    op = assemble_laplacian(dom)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    lhs = dom.inner(op.apply(u), v)
    rhs = dom.inner(u, op.apply(v))
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) < 1e-8 * scale
