"""Interval discretization: uniform grid, Dirichlet Laplacian, quadrature,
Laplacian eigenpairs and symmetric tridiagonal eigensolvers.

Everything downstream (Newton solves, spectra, continuation) works on the
interior nodes of a uniform grid over (0, length) with homogeneous Dirichlet
boundary values. Boundary nodes are never stored; the stencils and the
quadrature rule account for the implicit zeros.

The Laplacian's eigenpairs come from their closed form
(exact_mode_longdouble), never from an eigensolve; the eigensolvers serve
the linearizations of the spectral module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import dstebz


#: pi to long-double precision; np.pi widened from float64 carries a phase
#: error that is visible when verifying eigenvector identities beyond 1e-12.
PI_LONGDOUBLE = np.longdouble("3.141592653589793238462643383279502884")


class DomainMismatch(ValueError):
    """Raised when two fields from different discretizations are combined."""


class DiscreteDomain:
    """Uniform grid of interior nodes on (0, length).

    spacing = length / (n_interior + 1); nodes are k*spacing for
    k = 1 .. n_interior. Instances are immutable and safe to share.
    """

    __slots__ = ("length", "n_interior", "spacing", "nodes")

    def __init__(self, n_interior: int, length: float):
        if n_interior < 3:
            raise ValueError(f"need at least 3 interior nodes, got {n_interior}")
        if not (length > 0):
            raise ValueError(f"domain length must be positive, got {length}")
        object.__setattr__(self, "n_interior", int(n_interior))
        object.__setattr__(self, "length", float(length))
        spacing = float(length) / (n_interior + 1)
        object.__setattr__(self, "spacing", spacing)
        nodes = spacing * np.arange(1, n_interior + 1, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDomain is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteDomain)
            and self.n_interior == other.n_interior
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n_interior, self.length))

    def __repr__(self):
        return f"DiscreteDomain(n_interior={self.n_interior}, length={self.length})"

    # quadrature on raw value arrays (the hot path; DiscreteField wraps these)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.spacing * float(np.dot(u, v))

    def l2_norm(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.spacing) * np.linalg.norm(values))


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values on the interior of a domain (boundary values are 0)."""

    domain: DiscreteDomain
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.domain.n_interior,):
            raise ValueError(
                f"field has {values.shape} values, domain has "
                f"{self.domain.n_interior} interior nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, domain: DiscreteDomain, fn) -> "DiscreteField":
        return cls(domain, fn(domain.nodes))

    @classmethod
    def zero(cls, domain: DiscreteDomain) -> "DiscreteField":
        return cls(domain, np.zeros(domain.n_interior))

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteField)
            and self.domain == other.domain
            and np.array_equal(self.values, other.values)
        )


class TridiagonalFactor:
    """LU factorization (with partial pivoting) of a tridiagonal matrix.

    Wraps LAPACK gttrf/gttrs. Exposes the magnitude of the smallest diagonal
    entry of U, which is how near-singularity is detected downstream.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        n = diag.size
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (diag,))
        dl, d, du, du2, ipiv, info = gttrf(off.copy(), diag.copy(), off.copy())
        if info < 0:
            raise ValueError(f"gttrf: illegal argument {-info}")
        self._gttrs = gttrs
        self._parts = (dl, d, du, du2, ipiv)
        self.exactly_singular = info > 0
        self.min_pivot = 0.0 if info > 0 else float(np.min(np.abs(d)))
        self.n = n

    def block_min_pivots(self, blocks: int) -> np.ndarray:
        """Smallest pivot magnitude within each of `blocks` equal diagonal
        blocks, exact zeros included as 0.

        Meant for a block-diagonal matrix (zero couplings at the seams):
        pivoting then never crosses a seam, so each block's pivots are those
        of factoring the block on its own.
        """
        return np.min(np.abs(self._parts[1]).reshape(blocks, -1), axis=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        dl, d, du, du2, ipiv = self._parts
        x, info = self._gttrs(dl, d, du, du2, ipiv, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrs failed with info={info}")
        return x


@dataclass(frozen=True)
class LinearOperatorBanded:
    """Symmetric tridiagonal operator on the interior nodes of a domain."""

    domain: DiscreteDomain
    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        n = self.domain.n_interior
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.off, dtype=float)
        if diag.shape != (n,) or off.shape != (n - 1,):
            raise ValueError("band shapes inconsistent with domain")
        diag = diag.copy()
        off = off.copy()
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "off", off)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return _tridiagonal_apply(self.diag, self.off, values)

    def apply_field(self, f: DiscreteField) -> DiscreteField:
        if f.domain != self.domain:
            raise DomainMismatch("field and operator live on different grids")
        return DiscreteField(self.domain, self.apply(f.values))

    def shifted(self, sigma: float) -> "LinearOperatorBanded":
        """Operator plus sigma times the identity."""
        return LinearOperatorBanded(self.domain, self.diag + sigma, self.off)

    def add_diagonal(self, extra: np.ndarray) -> "LinearOperatorBanded":
        return LinearOperatorBanded(self.domain, self.diag + extra, self.off)

    def factor(self) -> TridiagonalFactor:
        return TridiagonalFactor(self.diag, self.off)

    def norm_inf(self) -> float:
        return float(np.max(_row_abs_sums(self.diag, self.off)))


def _tridiagonal_apply(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diag, off) times v, in the dtype the
    operands promote to."""
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _row_abs_sums(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Absolute row sums of the symmetric tridiagonal matrix (diag, off),
    row by row along the last axis of diag: a stack of diagonals shares the
    one off-diagonal. Their maximum is the matrix's infinity norm."""
    rows = np.abs(diag)
    off = np.abs(off)
    rows[..., 1:] += off
    rows[..., :-1] += off
    return rows


#: Largest condition estimate of J (norm of J times the growth of J^{-1} over
#: a right-hand column) for which plain block elimination is trusted: its
#: cancellation costs about eps times this much accuracy, which one step of
#: refinement then squares away. Above it J is deflated first.
BORDERED_COND_LIMIT = 1e8


def solve_bordered(op: LinearOperatorBanded, B, C, D, f, g, fac=None):
    """Solve [[J, B], [C^T, D]] [x; y] = [f; g] for the symmetric tridiagonal
    J of op and k <= 2 dense borders, in O(n).

    B and C are (n, k) (a 1-D array counts as k = 1), D is (k, k) and g has
    k entries; returns x (n,) and y (k,). fac, op.factor() made once by a
    caller that solves several systems on the same J, saves refactoring it;
    without it J is factored here. J is eliminated by blocks (Chan 1984): one multi-column gttrs for f and B, the k x k
    Schur complement, then one step of iterative refinement against the
    full bordered matrix. Where J is exactly singular or too close to it for
    elimination to keep its accuracy (BORDERED_COND_LIMIT), its near-null
    direction is deflated first (Govaerts 2000, ch. 3): J + s e_j e_j^T,
    with j the node where the inverse-iteration vector of J peaks and
    s = ||J||_inf, is regular, and the shift comes back as one extra border
    that pins the extra unknown to x_j. The bordered matrix itself must be
    regular: an exactly singular Schur complement raises LinAlgError, and a
    numerically singular one gives non-finite or meaningless output.
    """
    n = op.diag.size
    f = np.asarray(f, dtype=float)
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = np.asarray(C, dtype=float).reshape(n, -1)
    k = B.shape[1]
    D = np.asarray(D, dtype=float).reshape(k, k)
    g = np.asarray(g, dtype=float).reshape(k)
    scale = op.norm_inf()
    if fac is None:
        fac = op.factor()
    cols = np.empty((n, k + 1), order="F")  # gttrs's layout, and fast column maxima
    cols[:, 0] = f
    cols[:, 1:] = B
    if fac.exactly_singular:
        # only the direction of the near-null vector is needed from this
        Z = op.shifted(1e-10 * scale).factor().solve(cols)
    else:
        Z = fac.solve(cols)
    growth = np.max(np.abs(Z), axis=0) / np.maximum(
        np.max(np.abs(cols), axis=0), np.finfo(float).tiny
    )
    gx = g
    if fac.exactly_singular or not scale * np.max(growth) < BORDERED_COND_LIMIT:
        e_j = np.zeros(n)
        e_j[int(np.argmax(np.abs(Z[:, np.argmax(growth)])))] = 1.0
        fac = op.add_diagonal(scale * e_j).factor()
        B = np.column_stack((B, -scale * e_j))
        C = np.column_stack((C, e_j))
        D = np.block([[D, np.zeros((k, 1))], [np.zeros((1, k)), -np.ones((1, 1))]])
        gx = np.append(g, 0.0)
        Z = fac.solve(np.column_stack((cols, -scale * e_j)))
    ZB = Z[:, 1:]
    S = D - C.T.dot(ZB)
    y = np.linalg.solve(S, gx - C.T.dot(Z[:, 0]))
    x = Z[:, 0] - ZB.dot(y)
    # (ndarray.dot costs a fraction of the call overhead of @ on these small
    # products.) One refinement step against the original bordered matrix;
    # in the deflated case the extra unknown's row gets a zero residual,
    # which makes the correction solve the original system exactly.
    rf = f - op.apply(x) - B[:, :k].dot(y[:k])
    rg = g - C[:, :k].T.dot(x) - D[:k, :k].dot(y[:k])
    zr = fac.solve(rf)
    dy = np.linalg.solve(S, np.append(rg, np.zeros(y.size - k)) - C.T.dot(zr))
    return x + zr - ZB.dot(dy), (y + dy)[:k]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and max-normalized eigenfunction of -Laplacian (or of a
    linearization, see the spectral module)."""

    eigenvalue: float
    eigenfunction: DiscreteField
    sign_ambiguous: bool = False


def build_grid(n_interior: int, length: float) -> DiscreteDomain:
    """Uniform grid with n_interior interior nodes on (0, length)."""
    return DiscreteDomain(n_interior, length)


def assemble_laplacian(domain: DiscreteDomain) -> LinearOperatorBanded:
    """Second-order central-difference Dirichlet Laplacian (negative definite)."""
    h2 = domain.spacing**2
    n = domain.n_interior
    return LinearOperatorBanded(
        domain, np.full(n, -2.0 / h2), np.full(n - 1, 1.0 / h2)
    )


def inner_product(f1: DiscreteField, f2: DiscreteField) -> float:
    """Quadrature of f1*f2 over the domain (spacing-weighted interior sum)."""
    if f1.domain != f2.domain:
        raise DomainMismatch("fields live on different grids")
    return f1.domain.inner(f1.values, f2.values)


def l2_norm(f: DiscreteField) -> float:
    return f.domain.l2_norm(f.values)


def renormalize_l2(f: DiscreteField, target: float = 1.0) -> DiscreteField:
    """Scale a field so its quadrature L2 norm equals target.

    Eigenfunctions are returned max-normalized; several derivative formulas
    instead assume unit L2 norm, so the conversion has to be explicit at the
    call site.
    """
    norm = l2_norm(f)
    if norm == 0.0:
        raise ValueError("cannot renormalize the zero field")
    return DiscreteField(f.domain, f.values * (target / norm))


def exact_mode_longdouble(domain: DiscreteDomain, k: int):
    """Closed-form k-th eigenpair of the discrete -Laplacian in long double.

    Returns (4/h^2) sin^2(k pi h / (2L)) and the samples of sin(k pi x / L)
    scaled to unit sup norm (positive first node). Exact to long-double
    rounding, so multiples of it certify as steady states far below what a
    float64 eigenvector can.
    """
    ld = np.longdouble
    L = ld(domain.length)
    h = L / ld(domain.n_interior + 1)
    x = np.arange(1, domain.n_interior + 1, dtype=ld) * h
    raw = np.sin(k * PI_LONGDOUBLE * x / L)
    lam = (ld(4) / h**2) * np.sin(k * PI_LONGDOUBLE * h / (2 * L)) ** 2
    return lam, raw / np.max(np.abs(raw))


def _rayleigh_quotients(diag: np.ndarray, off: np.ndarray, vecs) -> np.ndarray:
    """Rayleigh quotient of each vector in vecs, accumulated in long double.

    LAPACK's bisection eigenvalues are only accurate to ~eps*||A|| which at the
    1/h^2 operator scale is ~6e-11; the long-double Rayleigh quotient of the
    returned vector recovers ~1e-13.
    """
    d = diag.astype(np.longdouble)
    e = off.astype(np.longdouble)
    out = []
    for vec in vecs:
        v = vec.astype(np.longdouble)
        av = _tridiagonal_apply(d, e, v)
        out.append(float((v @ av) / (v @ v)))
    return np.array(out)


def symmetric_tridiagonal_eigenpairs(
    diag: np.ndarray, off: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of a symmetric tridiagonal matrix.

    Bisection for the eigenvalues, inverse iteration for the eigenvectors,
    then a long-double Rayleigh polish per eigenvalue. Vectors come back
    euclidean-orthonormal, as a list of 1-D arrays in ascending eigenvalue
    order.
    """
    n = diag.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    vecs = [vecs[:, j] for j in range(k)]
    return _rayleigh_quotients(diag, off, vecs), vecs


#: Rayleigh-quotient iteration steps allowed per tracked eigenpair.
TRACK_MAX_ITER = 4


def track_tridiagonal_eigenpairs(
    diag: np.ndarray, off: np.ndarray, guesses
) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """The k smallest eigenpairs of a symmetric tridiagonal matrix A, tracked
    from guesses of their eigenvectors, or None when they cannot be
    certified.

    Each of the k guesses (1-D arrays, meant for the k smallest eigenvalues
    in ascending order) runs Rayleigh-quotient iteration on gttrf/gttrs
    until its float64 residual ||A v - sigma v|| (v of unit length) is at
    most sqrt(n) eps ||A||_inf, then gets the long-double Rayleigh polish of
    symmetric_tridiagonal_eigenpairs. Certificate (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4 and 10): that residual bound plus the
    rounding of A v gives each polished value mu_j an interval of
    half-width rho that holds an eigenvalue; the intervals must ascend in
    the order of the guesses without overlap, and a Sturm count (LAPACK
    stebz, range 'V') must find exactly k eigenvalues up to a shift just
    above the k-th interval. The values are then the k smallest
    eigenvalues, in order. Returns the polished values and unit vectors
    (sign arbitrary) as symmetric_tridiagonal_eigenpairs does; that is the
    fallback on None.

    The work stays in 1-D temporaries. Batching the k vectors into 2-D
    temporaries left about 15 times as many freed 12.8 kB holes among a
    growing n=1599 branch's arrays, and small allocations that outlive the
    branch then pinned its freed memory in the heap.
    """
    n, k = diag.size, len(guesses)
    eps_a = np.finfo(float).eps * float(
        np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0)
    )
    rtol = np.sqrt(n) * eps_a

    def quotient_and_residual(v):
        av = _tridiagonal_apply(diag, off, v)
        sigma = float(v @ av)
        return sigma, np.linalg.norm(av - sigma * v)

    vecs = []
    for g in guesses:
        v = g / np.linalg.norm(g)
        sigma, res = quotient_and_residual(v)
        for _ in range(TRACK_MAX_ITER):
            if res <= rtol:
                break
            fac = TridiagonalFactor(diag - sigma, off)
            if fac.exactly_singular:
                return None
            x = fac.solve(v)
            norm = np.linalg.norm(x)
            if not np.isfinite(norm) or norm == 0.0:
                return None
            v = x / norm
            sigma, res = quotient_and_residual(v)
        if not res <= rtol:
            return None
        vecs.append(v)
    mu = _rayleigh_quotients(diag, off, vecs)
    rho = rtol + 4.0 * eps_a
    if any(hi - lo <= 2.0 * rho for lo, hi in zip(mu[:-1], mu[1:])):
        return None
    # stebz's count is exact for a matrix within a small multiple of
    # eps ||A|| of A; the shift clears the k-th interval by far more
    lower = float(np.min(diag)) - 2.0 * float(np.max(np.abs(off), initial=0.0)) - 1.0
    shift = float(mu[-1]) + rho + 1e3 * eps_a
    if sturm_count(diag, off, lower, shift) != k:
        return None
    return mu, vecs


def sturm_count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix (diag, off)
    in (lo, hi], by Sturm sequences (LAPACK stebz). The count is exact for a
    matrix within a small multiple of eps ||A||_inf of A, so a caller that
    needs it for A itself keeps its bounds that far (1e3 eps ||A||_inf
    suffices) from what it certifies."""
    return int(dstebz(diag, off, 1, lo, hi, 0, 0, np.inf, b"E")[0])


def laplacian_eigenpairs(
    domain: DiscreteDomain, k: int, harvest: DiscreteField | None = None
) -> list[EigenPair]:
    """k smallest eigenpairs of -Laplacian, max-normalized: the closed form
    of exact_mode_longdouble rounded to float64, with no eigensolve.

    Sign conventions: the first eigenfunction is positive. When a harvest
    field is supplied, the second eigenfunction's sign is fixed so that its
    harvest-weighted integral is negative (the orientation every
    second-eigenvalue formula downstream assumes); if that integral vanishes
    the pair is flagged sign_ambiguous instead. Higher modes, and the second
    without a harvest, get a positive first node.
    """
    n = domain.n_interior
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    pairs: list[EigenPair] = []
    for j in range(1, k + 1):
        lam, mode = exact_mode_longdouble(domain, j)
        v = mode.astype(float)  # positive first node, so mode 1 is positive
        ambiguous = False
        if j == 2 and harvest is not None:
            weighted = domain.inner(harvest.values, v)
            if abs(weighted) <= 1e-12 * domain.l2_norm(v) * max(
                1.0, domain.l2_norm(harvest.values)
            ):
                ambiguous = True
            elif weighted > 0:
                v = -v
        v /= np.max(v)
        pairs.append(EigenPair(float(lam), DiscreteField(domain, v), ambiguous))
    return pairs
