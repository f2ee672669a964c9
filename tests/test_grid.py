import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bifurcate.solver import (
    PIVOT_RTOL,
    Problem,
    SingularJacobian,
    _block_solve,
    _checked_solve,
)

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


def test_wrapped_field_is_the_constructed_field_without_a_copy(domain):
    values = np.sin(domain.nodes)
    wrapped = DiscreteField._wrap(domain, values)
    assert wrapped == DiscreteField(domain, values)
    assert wrapped.values is values
    with pytest.raises(ValueError):
        values[0] = 1.0


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


@pytest.mark.parametrize("n, k", [
    (n, k) for n in (2, 3, 49, 399, 1599) for k in (1, 2, 3) if k <= n
])
def test_eigenpairs_bit_identical_to_scipy_eigh_tridiagonal(n, k):
    """The direct dstebz/dstein calls give the vectors of
    scipy.linalg.eigh_tridiagonal(select='i'), bit for bit, and so the same
    values; the band is a linearization's, -Laplacian plus a
    varying diagonal."""
    from scipy.linalg import eigh_tridiagonal

    h2 = (1.0 / (n + 1)) ** 2
    rng = np.random.default_rng(n + k)
    diag = 2.0 / h2 + 30.0 * rng.standard_normal(n)
    off = np.full(n - 1, -1.0 / h2)
    vals, vecs = symmetric_tridiagonal_eigenpairs(diag, off, k)
    _, ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    ref = [ref[:, j] for j in range(k)]
    assert len(vecs) == k
    assert all(np.array_equal(v, r) for v, r in zip(vecs, ref))
    assert np.array_equal(vals, grid_mod._rayleigh_quotients(diag, off, ref))


def test_eigenpairs_of_a_1x1_matrix():
    vals, vecs = symmetric_tridiagonal_eigenpairs(np.array([2.5]), np.zeros(0), 1)
    assert vals.tolist() == [2.5]
    assert [v.tolist() for v in vecs] == [[1.0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigenpairs_reject_non_finite_input(bad):
    diag, off = np.full(5, 2.0), np.full(4, -1.0)
    with pytest.raises(ValueError):
        symmetric_tridiagonal_eigenpairs(np.where(np.arange(5) == 2, bad, diag), off, 2)
    with pytest.raises(ValueError):
        symmetric_tridiagonal_eigenpairs(diag, np.where(np.arange(4) == 1, bad, off), 2)


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


def test_factor_leaves_its_bands_unchanged(domain):
    """dgttrf factors copies of writable bands too, so callers may share
    them with the factorization."""
    op = assemble_laplacian(domain).add_diagonal(np.linspace(0.0, 50.0, domain.n_interior))
    diag, off = op.diag.copy(), op.off.copy()
    TridiagonalFactor(diag, off).solve(np.ones(domain.n_interior))
    assert np.array_equal(diag, op.diag) and np.array_equal(off, op.off)


def _gtsv_pivot(op):
    """The smallest |U_ii| of op's LU as gtsv leaves it, 0.0 at an exact zero
    pivot (where gtsv stops)."""
    _, d, info = grid_mod._gtsv(op.diag, op.off, np.ones(op.diag.size))
    return 0.0 if info else float(np.min(np.abs(d)))


def test_operator_solve_roundtrip_and_exact_zero_pivot(domain):
    """LinearOperatorBanded.solve is one gtsv call, on one or several
    right-hand columns; an exactly zero pivot, where gtsv leaves x
    unfinished, raises LinAlgError."""
    op = assemble_laplacian(domain).shifted(20.0)
    rng = np.random.default_rng(7)
    b = rng.standard_normal((domain.n_interior, 2))
    x = op.solve(b)
    assert x.tobytes() == np.column_stack([op.factor().solve(col) for col in b.T]).tobytes()
    n = 9
    singular = LinearOperatorBanded(
        build_grid(n, 1.0), [1.0, 1.0] + [2.0] * (n - 2), [1.0, 0.0] + [-1.0] * (n - 3)
    )
    with pytest.raises(np.linalg.LinAlgError, match="exactly zero pivot in row 2"):
        singular.solve(np.ones(n))


def test_factor_pivot_reveals_singular_shift(domain):
    """The smallest pivot of the LU that gtsv computes is large for a
    regular shift of the Laplacian and tiny at its first eigenvalue."""
    lap = assemble_laplacian(domain)
    lam1 = float(exact_mode_longdouble(domain, 1)[0])
    assert _gtsv_pivot(lap.shifted(20.0)) > 1e4
    assert _gtsv_pivot(lap.shifted(lam1)) < 1e-4


def test_block_pivots_of_a_stack_match_each_block_alone(domain):
    """Blocks stacked with zero couplings at the seams keep the pivots and
    solutions they have when factored alone. gtsv stops in an exactly
    singular middle block, and info names that block; the block solve gives
    it pivot 0.0 and solves the other blocks again without it."""
    n = domain.n_interior
    lap = assemble_laplacian(domain)
    rng = np.random.default_rng(11)
    diags = np.stack([
        lap.diag + 20.0,
        rng.uniform(-2.0, 2.0, n) * lap.off[0],
        np.zeros(n),  # tridiag(o, 0, o) of odd size: singular
        rng.uniform(-2.0, 2.0, n) * lap.off[0],
    ])
    rhs = rng.standard_normal(diags.shape)
    seams = np.tile(np.append(lap.off, 0.0), len(diags))
    alone = [grid_mod._gtsv(d, lap.off, r) for d, r in zip(diags, rhs)]
    pivots_alone = [0.0 if info else float(np.min(np.abs(d))) for _, d, info in alone]
    assert alone[2][2] > 0 and pivots_alone[2] == 0.0
    _, _, info = grid_mod._gtsv(diags.ravel(), seams[:-1], rhs.ravel())
    assert info > 0 and (info - 1) // n == 2
    x, pivots = _block_solve(diags, seams, rhs)
    assert x is None
    assert pivots.tolist() == pivots_alone
    regular = [0, 1, 3]
    x, pivots = _block_solve(diags[regular], seams, rhs[regular])
    assert pivots.tolist() == [pivots_alone[j] for j in regular]
    for row, j in zip(x, regular):
        assert row.tobytes() == alone[j][0].tobytes()


def test_gtsv_in_place_works_in_its_operands(domain):
    """The in-place gtsv of a block-diagonal stack gives _gtsv's solution and
    U diagonal bit for bit, in the caller's rhs and diag arrays."""
    n = domain.n_interior
    lap = assemble_laplacian(domain)
    rng = np.random.default_rng(5)
    diags = lap.diag + rng.uniform(0.0, 60.0, (3, n))
    rhs = rng.standard_normal((3, n))
    seams = np.tile(np.append(lap.off, 0.0), 3)[:-1]
    x, d, info = grid_mod._gtsv(diags.ravel(), seams, rhs.ravel())
    diag_buf, rhs_buf = diags.ravel().copy(), rhs.ravel().copy()
    got_x, got_d, got_info = grid_mod._gtsv_in_place(diag_buf, seams.copy(), seams.copy(),
                                                     rhs_buf)
    assert info == got_info == 0
    assert np.shares_memory(got_x, rhs_buf) and np.shares_memory(got_d, diag_buf)
    assert rhs_buf.tobytes() == x.tobytes() and diag_buf.tobytes() == d.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=60),
    blocks=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["random", "interchanges", "signed zeros", "exactly singular"]),
)
def test_gtsv_is_gttrf_then_gttrs_bit_for_bit(n, blocks, seed, kind):
    """One gtsv call gives the bits of gttrf then gttrs,
    signed zeros included: the solution and U's diagonal, on single systems
    (blocks = 1) and block stacks with zero seams. Diagonals far below the
    couplings, or zero, force row interchanges. info > 0 exactly when gttrf
    finds the matrix exactly singular."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    diag = rng.standard_normal((blocks, n))
    rhs = rng.standard_normal((blocks, n))
    if kind == "interchanges":
        diag *= 1e-3
    elif kind == "signed zeros":
        diag[rng.random(diag.shape) < 0.3] = 0.0
        diag[rng.random(diag.shape) < 0.3] = -0.0
        rhs[rng.random(rhs.shape) < 0.5] = 0.0
        rhs[rng.random(rhs.shape) < 0.3] = -0.0
    elif kind == "exactly singular":
        # the leading 2 x 2 block [[1, 1], [1, 1]] of one block, decoupled
        # from the rows below it
        off[:2] = 1.0, 0.0
        diag[rng.integers(blocks), :2] = 1.0
    seams = np.tile(np.append(off, 0.0), blocks)[:-1]
    dl, d_ref, du, du2, ipiv, info_ref = grid_mod._dgttrf(seams, diag.ravel(), seams)
    x, d, info = grid_mod._gtsv(diag.ravel(), seams, rhs.ravel())
    assert (info > 0) == (info_ref > 0)
    if kind == "exactly singular":
        assert info > 0
    if not info:
        x_ref, _ = grid_mod._dgttrs(dl, d_ref, du, du2, ipiv, rhs.ravel())
        assert x.tobytes() == x_ref.tobytes()
        assert d.tobytes() == d_ref.tobytes()


def test_gtsv_leaves_its_inputs_unchanged(domain):
    """dgtsv solves on copies of its bands and right-hand side, so callers
    may keep using them."""
    op = assemble_laplacian(domain).add_diagonal(np.linspace(0.0, 50.0, domain.n_interior))
    diag, off = op.diag.copy(), op.off.copy()
    rhs = np.linspace(-1.0, 1.0, domain.n_interior)
    kept = rhs.copy()
    x, _, info = grid_mod._gtsv(diag, off, rhs)
    assert info == 0 and not np.shares_memory(x, rhs)
    assert np.array_equal(diag, op.diag) and np.array_equal(off, op.off)
    assert np.array_equal(rhs, kept)


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
    D = rng.standard_normal((k, k))
    _check_bordered(op, B, C, D, seed=k)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [99, 399])
def test_bordered_solve_at_polished_first_eigenvalue(n, k):
    """J = Laplacian + lambda1 is singular to working precision (tiny
    pivot); the bordered matrix is regular through the harvest-like border,
    and D = 0 as in the fold systems."""
    dom = build_grid(n, 1.0)
    pair = laplacian_eigenpairs(dom, 1)[0]
    op = assemble_laplacian(dom).shifted(pair.eigenvalue)
    assert _gtsv_pivot(op) < 1e-6 * op.norm_inf()
    x = dom.nodes
    B = np.column_stack((x * (1 - x) ** 2, np.cos(3 * x)))[:, :k]
    C = np.column_stack((pair.eigenfunction.values, x))[:, :k]
    _check_bordered(op, B, C, np.zeros((k, k)), seed=3 * k)


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_solve_with_exact_zero_pivot(k):
    """gtsv meets an exact zero pivot (the leading 2x2 block of J is
    [[1, 1], [1, 1]] and the rest is decoupled from it), yet the border
    reaches the null vector (1, -1, 0, ...) and the bordered matrix is
    regular."""
    n = 9
    diag = np.array([1.0, 1.0] + [2.0] * (n - 2))
    off = np.array([1.0, 0.0] + [-1.0] * (n - 3))
    op = LinearOperatorBanded(build_grid(n, 1.0), diag, off)
    assert _gtsv_pivot(op) == 0.0
    rng = np.random.default_rng(5)
    B = rng.standard_normal((n, k))
    C = rng.standard_normal((n, k))
    _check_bordered(op, B, C, np.zeros((k, k)), seed=k)


def _bordered_schur_reference(op, B, C, D, f, g):
    """solve_bordered with every Schur complement solved by np.linalg.solve,
    as it was written before a single border's 1 x 1 complement was divided
    by directly."""
    n = op.diag.size
    f = np.asarray(f, dtype=float)
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = np.asarray(C, dtype=float).reshape(n, -1)
    k = B.shape[1]
    D = np.asarray(D, dtype=float).reshape(k, k)
    g = np.asarray(g, dtype=float).reshape(k)
    scale = op.norm_inf()
    cols = np.empty((n, k + 1), order="F")
    cols[:, 0] = f
    cols[:, 1:] = B
    Z, _, info = grid_mod._gtsv(op.diag, op.off, cols)
    if info:
        Z = op.shifted(1e-10 * scale).solve(cols)
    growth = np.max(np.abs(Z), axis=0) / np.maximum(
        np.max(np.abs(cols), axis=0), np.finfo(float).tiny
    )
    if info or not scale * np.max(growth) < grid_mod.BORDERED_COND_LIMIT:
        e_j = np.zeros(n)
        e_j[int(np.argmax(np.abs(Z[:, np.argmax(growth)])))] = 1.0
        C = np.column_stack((C, e_j))
        D = np.block([[D, np.zeros((k, 1))], [np.zeros((1, k)), -np.ones((1, 1))]])
        g = np.append(g, 0.0)
        Z = op.add_diagonal(scale * e_j).solve(np.column_stack((cols, -scale * e_j)))
    ZB = Z[:, 1:]
    y = np.linalg.solve(D - C.T.dot(ZB), g - C.T.dot(Z[:, 0]))
    return Z[:, 0] - ZB.dot(y), y[:k]


def _single_border_operator(case, n):
    """J regular, J singular to working precision (the solve deflates it),
    or J with an exactly zero gtsv pivot."""
    dom = build_grid(n, 1.0)
    if case == "regular":
        return assemble_laplacian(dom).shifted(20.0)
    if case == "deflated":
        return assemble_laplacian(dom).shifted(laplacian_eigenpairs(dom, 1)[0].eigenvalue)
    diag = np.array([1.0, 1.0] + [2.0] * (n - 2))
    off = np.array([1.0, 0.0] + [-1.0] * (n - 3))
    return LinearOperatorBanded(dom, diag, off)


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(["regular", "deflated", "exactly singular"]),
    n=st.integers(min_value=5, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    two_d=st.booleans(),
    zero_d=st.booleans(),
)
def test_single_border_solve_is_the_schur_solve_bit_for_bit(case, n, seed, two_d, zero_d):
    """Dividing by the 1 x 1 Schur complement gives the bits that
    np.linalg.solve gave, x and y alike, whether J is regular, deflated or
    exactly singular, with the border given as (n,) or (n, 1)."""
    op = _single_border_operator(case, n)
    rng = np.random.default_rng(seed)
    B, C, f = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, 1))
    D = 0.0 if zero_d else rng.standard_normal()
    g = rng.standard_normal()
    if two_d:
        B, C, D, g = B[:, None], C[:, None], [[D]], [g]
    x, y = solve_bordered(op, B, C, D, f, g)
    x_ref, y_ref = _bordered_schur_reference(op, B, C, D, f, g)
    assert x.tobytes() == x_ref.tobytes()
    assert y.shape == y_ref.shape == (1,) and y.tobytes() == y_ref.tobytes()


def test_single_border_with_zero_schur_complement_raises():
    """A bordered matrix whose 1 x 1 Schur complement is exactly 0 raises
    the LinAlgError np.linalg.solve raised for it."""
    op = _single_border_operator("regular", 9)
    zero = np.zeros(9)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _bordered_schur_reference(op, zero, zero, 0.0, np.ones(9), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        solve_bordered(op, zero, zero, 0.0, np.ones(9), 1.0)


@pytest.mark.parametrize("case, failing, calls", [
    ("regular", None, 1),
    ("deflated", None, 2),
    ("exactly singular", None, 3),
    ("deflated", 2, 2),
    ("exactly singular", 2, 2),
    ("exactly singular", 3, 3),
])
def test_bordered_solve_gtsv_calls_and_their_failures(case, failing, calls, monkeypatch):
    """One gtsv call solves a regular J, one more the deflated J, and an
    exactly singular J takes one on J + 1e-10 s I before those. A shifted or
    deflated J that gtsv still finds exactly singular (info > 0 on that
    call, reported here by a patched gtsv) raises LinAlgError, since gtsv
    leaves its x unfinished."""
    op = _single_border_operator(case, 9)
    rng = np.random.default_rng(4)
    B, C, f = rng.standard_normal((3, 9))
    real, made = grid_mod._gtsv, []

    def gtsv(diag, off, rhs):
        x, d, info = real(diag, off, rhs)
        made.append(info)
        return (x, d, 1) if len(made) == failing else (x, d, info)

    monkeypatch.setattr(grid_mod, "_gtsv", gtsv)
    if failing is None:
        x, y = solve_bordered(op, B, C, 0.0, f, 1.0)
        assert np.isfinite(x).all() and np.isfinite(y).all()
    else:
        with pytest.raises(np.linalg.LinAlgError, match="exactly zero pivot"):
            solve_bordered(op, B, C, 0.0, f, 1.0)
    assert len(made) == calls
    assert made[0] == (case == "exactly singular") * 2
    assert not any(made[1:])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["random", "near singular", "exactly singular"]),
)
@example(n=9, seed=0, kind="exactly singular")
def test_factor_pivot_keeps_its_meaning(n, seed, kind):
    """The factorization pivot taken from gtsv's U diagonal is the smallest
    |U_ii| that gttrf leaves, and gtsv's info > 0, pivot 0.0, means gttrf
    reported an exactly zero pivot. solver._checked_solve raises SingularJacobian with
    that pivot below its threshold (SingularJacobian(0.0, threshold) at an
    exact zero), and returns gtsv's x otherwise."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    diag = rng.standard_normal(n)
    if kind == "near singular":
        diag = np.full(n, 2.0)
        off = np.full(n - 1, -1.0)
        diag -= float(np.linalg.eigvalsh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[0])
    elif kind == "exactly singular":
        diag[:2], off[0] = 1.0, 1.0
        if n > 2:
            off[1] = 0.0
    _, d_ref, _, _, _, info_ref = grid_mod._dgttrf(off, diag, off)
    x, d, info = grid_mod._gtsv(diag, off, np.ones(n))
    assert (info > 0) == (info_ref > 0)
    pivot = 0.0 if info else float(np.min(np.abs(d)))
    assert pivot == (0.0 if info_ref else float(np.min(np.abs(d_ref))))
    if kind == "exactly singular":
        assert info > 0
    problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
    op = LinearOperatorBanded(problem.domain, diag, off)
    threshold = PIVOT_RTOL * n * op.norm_inf()
    if info or pivot < threshold:
        with pytest.raises(SingularJacobian) as err:
            _checked_solve(problem, op, np.ones(n))
        assert (err.value.min_pivot, err.value.threshold) == (pivot, threshold)
    else:
        assert _checked_solve(problem, op, np.ones(n)).tobytes() == x.tobytes()


def _track_reference(diag, off, guesses):
    """grid.track_tridiagonal_eigenpairs with its vector norms taken by
    np.linalg.norm, as it was written before they became sqrt(v . v)."""
    n, k = diag.size, len(guesses)
    eps_a = np.finfo(float).eps * float(
        np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0)
    )
    rtol = np.sqrt(n) * eps_a

    def quotient_and_residual(v):
        av = grid_mod._tridiagonal_apply(diag, off, v)
        sigma = float(v @ av)
        return sigma, np.linalg.norm(av - sigma * v)

    vecs = []
    for g in guesses:
        v = g / np.linalg.norm(g)
        sigma, res = quotient_and_residual(v)
        for _ in range(grid_mod.TRACK_MAX_ITER):
            if res <= rtol:
                break
            x, _, info = grid_mod._gtsv(diag - sigma, off, v)
            if info:
                return None
            norm = np.linalg.norm(x)
            if not np.isfinite(norm) or norm == 0.0:
                return None
            v = x / norm
            sigma, res = quotient_and_residual(v)
        if not res <= rtol:
            return None
        vecs.append(v)
    mu = grid_mod._rayleigh_quotients(diag, off, vecs)
    rho = rtol + 4.0 * eps_a
    if any(hi - lo <= 2.0 * rho for lo, hi in zip(mu[:-1], mu[1:])):
        return None
    lower = float(np.min(diag)) - 2.0 * float(np.max(np.abs(off), initial=0.0)) - 1.0
    shift = float(mu[-1]) + rho + 1e3 * eps_a
    if grid_mod.sturm_count(diag, off, lower, shift) != k:
        return None
    return mu, vecs


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=10, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.floats(min_value=1e-8, max_value=1.0),
    order=st.sampled_from(["ascending", "swapped"]),
)
def test_tracked_eigenpairs_unchanged(n, seed, size, order):
    """Tracking the three lowest eigenpairs of a perturbed linearization
    from the unperturbed eigenvectors gives the bits the np.linalg.norm
    formulation gave, None included (swapped guesses are refused)."""
    dom = build_grid(n, 1.0)
    lap = assemble_laplacian(dom)
    rng = np.random.default_rng(seed)
    x = dom.nodes
    base = 20.0 - 30.0 * np.sin(np.pi * x) ** 2
    diag0 = -(lap.diag + base)
    _, guesses = symmetric_tridiagonal_eigenpairs(diag0, -lap.off, 3)
    if order == "swapped":
        guesses = [guesses[1], guesses[0], guesses[2]]
    diag = diag0 + size * rng.standard_normal(n) * np.max(np.abs(base))
    got = grid_mod.track_tridiagonal_eigenpairs(diag, -lap.off, guesses, -np.inf)
    want = _track_reference(diag, -lap.off, guesses)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].tobytes() == want[0].tobytes()
        assert [v.tobytes() for v in got[1]] == [v.tobytes() for v in want[1]]


@pytest.mark.parametrize("gap_over_tol", [0.5, 2.0])
def test_tracked_eigenpairs_floor_clears_the_untracked_spectrum(gap_over_tol):
    """With a floor, the tracker says whether every eigenvalue past the
    tracked ones lies above it: the shifted discrete Laplacian's third
    eigenvalue placed at gap_over_tol * tol leaves the two lowest pairs
    certified, bit for bit as without a floor, by the second count at their
    own shift below 1, and clears the floor above."""
    dom = build_grid(99, 1.0)
    lap = assemble_laplacian(dom)
    tol = 1e-4
    lam3 = float(exact_mode_longdouble(dom, 3)[0])
    diag = -lap.diag - (lam3 - gap_over_tol * tol)
    guesses = [exact_mode_longdouble(dom, k)[1].astype(float) for k in (1, 2)]
    plain = grid_mod.track_tridiagonal_eigenpairs(diag, -lap.off, guesses, -np.inf)
    floored = grid_mod.track_tridiagonal_eigenpairs(diag, -lap.off, guesses, tol)
    assert plain is not None and np.all(plain[0] < -tol) and plain[2]
    assert floored[2] == (gap_over_tol > 1.0)
    assert floored[0].tobytes() == plain[0].tobytes()
    assert [v.tobytes() for v in floored[1]] == [v.tobytes() for v in plain[1]]


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
    assert len(list(_multistart_seeds(problem, 20.0, 12, 0))) == 12


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
