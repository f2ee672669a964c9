"""Interval discretization: uniform grid, Dirichlet Laplacian, quadrature,
Laplacian eigenpairs and symmetric tridiagonal eigensolvers.

Everything downstream (Newton solves, spectra, continuation) works on the
interior nodes of a uniform grid over (0, length) with homogeneous Dirichlet
boundary values. Boundary nodes are never stored; the stencils and the
quadrature rule account for the implicit zeros.

The Laplacian's eigenpairs come from their closed form
(exact_mode_longdouble), never from an eigensolve; the eigensolvers serve
the linearizations of the spectral module.

The five LAPACK routines used here (dgtsv, dgttrf, dgttrs, dstebz, dstein)
are bound from scipy's compiled LAPACK extension, scipy.linalg._flapack,
loaded on its own (_load_flapack) rather than through scipy.linalg, whose
Python layer would more than double the package's import time and loaded
modules. Every tridiagonal system is solved by one dgtsv call (_gtsv,
LinearOperatorBanded.solve), bordered ones included (solve_bordered), except
solver.time_march's, whose one matrix serves thousands of solves and is
factored once by dgttrf and solved by dgttrs (TridiagonalFactor).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np


def _load_flapack():
    """scipy.linalg._flapack without importing scipy or scipy.linalg.

    Reuses the module if it is already imported; otherwise loads the
    extension file found under scipy's package directory and leaves it out
    of sys.modules. CPython caches a single-phase extension module by name
    and file, so the routines bound here are the very objects
    scipy.linalg.lapack exposes, whichever of the two is imported first.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(module)
                # loading a single-phase extension registers it; a submodule
                # in sys.modules without its parent packages is a state that
                # scipy's own later import should not meet
                sys.modules.pop(name, None)
                return module
    raise ImportError(
        "scipy's LAPACK extension scipy/linalg/_flapack was not found; "
        "bifurcate needs scipy installed"
    )


_flapack = _load_flapack()
_dgtsv, _dgttrf, _dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs
_dstebz, _dstein = _flapack.dstebz, _flapack.dstein
del _flapack


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
        # sqrt(v . v) is what np.linalg.norm computes for a 1-D array
        return float(np.sqrt(self.spacing) * np.sqrt(values.dot(values)))


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
    def _wrap(cls, domain: DiscreteDomain, values: np.ndarray) -> "DiscreteField":
        """A field around values, n finite float64 values that the caller
        has just built and keeps no writable use of: frozen in place, not
        checked and copied again. Any other array goes through the
        constructor."""
        values.setflags(write=False)
        field = object.__new__(cls)
        object.__setattr__(field, "domain", domain)
        object.__setattr__(field, "values", values)
        return field

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

    Wraps LAPACK dgttrf/dgttrs, for a matrix that one factorization serves
    in many solves (solver.time_march); a system solved once goes through
    _gtsv, which gives the same bits in one call. An exactly singular
    matrix is not refused: gttrs divides by its zero pivot, and time_march
    reports the non-finite iterate as Diverged.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        # dgttrf factors copies of its inputs (no overwrite_* flag is set)
        dl, d, du, du2, ipiv, info = _dgttrf(off, diag, off)
        if info < 0:
            raise ValueError(f"gttrf: illegal argument {-info}")
        self._parts = (dl, d, du, du2, ipiv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        dl, d, du, du2, ipiv = self._parts
        x, info = _dgttrs(dl, d, du, du2, ipiv, rhs)
        if info != 0:
            raise np.linalg.LinAlgError(f"gttrs failed with info={info}")
        return x


def _gtsv(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray):
    """Solve the symmetric tridiagonal system (diag, off) x = rhs once, by
    LAPACK dgtsv. Returns x, the diagonal of U and info.

    dgtsv runs gttrf's elimination, with the same row-interchange test, and
    gttrs's substitutions in one call, so x and U's diagonal are
    TridiagonalFactor(diag, off)'s bit for bit. Its inputs are copied (no
    overwrite_* flag is set). It stops at the first exactly zero pivot:
    info > 0 is its 1-based row, the row of gttrf's first zero on U's
    diagonal, and x and U's diagonal are then unfinished.
    """
    _, d, _, x, info = _dgtsv(off, diag, off, rhs)
    if info < 0:
        raise ValueError(f"gtsv: illegal argument {-info}")
    return x, d, info


def _gtsv_in_place(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray):
    """_gtsv on operands it may overwrite, with every overwrite flag set:
    lower and upper are two distinct arrays holding the off-diagonal. On
    contiguous float64 operands dgtsv works in them, and the returned x and
    U diagonal are rhs and diag; the bits are _gtsv's."""
    _, d, _, x, info = _dgtsv(lower, diag, upper, rhs, overwrite_dl=1, overwrite_d=1,
                              overwrite_du=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"gtsv: illegal argument {-info}")
    return x, d, info


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

    def shifted(self, sigma: float) -> "LinearOperatorBanded":
        """Operator plus sigma times the identity."""
        return self.add_diagonal(sigma)

    def add_diagonal(self, extra) -> "LinearOperatorBanded":
        """Operator plus diag(extra), extra a scalar or n values. A float64
        sum of the right shape is new and this operator's off-diagonal is
        frozen already, so both are kept as they are, not checked and copied
        again; any other sum goes through the constructor."""
        diag = self.diag + extra
        if diag.dtype != np.float64 or diag.shape != self.diag.shape:
            return LinearOperatorBanded(self.domain, diag, self.off)
        diag.setflags(write=False)
        op = object.__new__(LinearOperatorBanded)
        object.__setattr__(op, "domain", self.domain)
        object.__setattr__(op, "diag", diag)
        object.__setattr__(op, "off", self.off)
        return op

    def factor(self) -> TridiagonalFactor:
        return TridiagonalFactor(self.diag, self.off)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with op x = rhs (rhs (n,) or (n, m)), by one gtsv call. An
        exactly zero pivot leaves x unfinished, so it raises LinAlgError."""
        x, _, info = _gtsv(self.diag, self.off, rhs)
        if info:
            raise np.linalg.LinAlgError(f"gtsv: exactly zero pivot in row {info}")
        return x

    def norm_inf(self) -> float:
        return float(_row_abs_sums(self.diag, self.off).max())


def _tridiagonal_apply(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix (diag, off) times v, or each matrix
    of a stack, the rows of diag, times the matching row of v, all sharing
    the one off-diagonal."""
    out = diag * v
    out[..., :-1] += off * v[..., 1:]
    out[..., 1:] += off * v[..., :-1]
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
#: cancellation costs about eps times this much accuracy, a step error of
#: about 1e8 eps that the callers absorb (the Newton loop of
#: continuation._extended_newton by its next step, _test_function by its
#: refinement). Above it J is deflated first.
BORDERED_COND_LIMIT = 1e8
_TINY = np.finfo(float).tiny


def solve_bordered(op: LinearOperatorBanded, B, C, D, f, g):
    """Solve [[J, B], [C^T, D]] [x; y] = [f; g] for the symmetric tridiagonal
    J of op and k <= 2 dense borders, in O(n).

    B and C are (n, k) (a 1-D array counts as k = 1), D is (k, k) and g has
    k entries; returns x (n,) and y (k,). J is eliminated by blocks (Chan
    1984): one gtsv call on the (n, k + 1) block [f, B], then the k x k
    Schur complement, whose 1 x 1 case is divided by (_schur_solve), which
    is what LAPACK's gesv computes for it. Where J is exactly singular or
    too close to it for elimination to keep its accuracy
    (BORDERED_COND_LIMIT), its near-null direction is deflated first
    (Govaerts 2000, ch. 3): J + s e_j e_j^T, with j the node where the
    inverse-iteration vector of J peaks and s = ||J||_inf, is regular, and
    the shift comes back as one extra border that pins the extra unknown to
    x_j. That costs one more gtsv call, and an exactly singular J one more
    before it, on J + 1e-10 s I, for the near-null direction. Either
    shifted matrix still exactly singular raises LinAlgError, and so does
    an exactly singular Schur complement; a numerically singular bordered
    matrix gives non-finite or meaningless output.
    """
    n = op.diag.size
    B = np.asarray(B, dtype=float).reshape(n, -1)
    C = np.asarray(C, dtype=float).reshape(n, -1)
    k = B.shape[1]
    D = np.asarray(D, dtype=float).reshape(k, k)
    g = np.asarray(g, dtype=float).reshape(k)
    scale = op.norm_inf()
    cols = np.empty((n, k + 1), order="F")  # gtsv's layout, and fast column maxima
    cols[:, 0] = f
    cols[:, 1:] = B
    Z, _, singular = _gtsv(op.diag, op.off, cols)
    if singular:
        # only the direction of the near-null vector is needed from this
        Z = op.shifted(1e-10 * scale).solve(cols)
    growth = np.abs(Z).max(axis=0) / np.maximum(np.abs(cols).max(axis=0), _TINY)
    if singular or not scale * growth.max() < BORDERED_COND_LIMIT:
        e_j = np.zeros(n)
        e_j[int(np.argmax(np.abs(Z[:, np.argmax(growth)])))] = 1.0
        C = np.column_stack((C, e_j))
        D = np.block([[D, np.zeros((k, 1))], [np.zeros((1, k)), -np.ones((1, 1))]])
        g = np.append(g, 0.0)
        Z = op.add_diagonal(scale * e_j).solve(np.column_stack((cols, -scale * e_j)))
    # ndarray.dot costs a fraction of the call overhead of @ on these small
    # products
    ZB = Z[:, 1:]
    y = _schur_solve(D - C.T.dot(ZB), g - C.T.dot(Z[:, 0]))
    return Z[:, 0] - ZB.dot(y), y[:k]


def _schur_solve(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(S, b) for a Schur complement S. A 1 x 1 S is divided
    by directly: gesv's LU of it is S itself, so its solve is the one
    division b / S, and an exactly zero S raises the LinAlgError gesv
    reports. The division is on Python floats, which give gesv's IEEE
    results (inf on overflow, nan from inf / inf) without numpy's
    floating-point warnings."""
    if S.shape[0] != 1:
        return np.linalg.solve(S, b)
    s = float(S[0, 0])
    if s == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array([float(b[0]) / s])


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
    """Rayleigh quotient of each vector in vecs, in float64 energy form.

    v^T A v = sum_i (d_i + (e_{i-1} + e_i)) v_i^2 - sum_i e_i (v_{i+1} - v_i)^2,
    with e_{-1} = e_{n-1} = 0. LAPACK's bisection eigenvalues are only
    accurate to ~eps ||A||, about 1e-10 at the 1/h^2 scale of n = 399, and
    v^T (A v) summed in float64 cancels 1/h^2-sized terms (errors to 3e-12
    there); the energy form cancels none. Where the off-diagonal is
    uniform, as in every linearization, e_{i-1} + e_i is exactly 2 e and
    its sum with d_i is exact (Sterbenz) in every inner row, so each row sum
    carries the size of the potential, not of 1/h^2. On branch
    eigenvectors at n = 399 the quotient lies within 3.3e-14 of the exact
    quotient of the stored matrix.
    """
    rows = diag.copy()
    if off.size:
        pairs = off.copy()
        pairs[1:] += off[:-1]
        rows[:-1] += pairs
        rows[-1] += off[-1]
    out = []
    for v in vecs:
        dv = v[1:] - v[:-1]
        out.append(float((rows @ (v * v) - off @ (dv * dv)) / (v @ v)))
    return np.array(out)


def _check_info(info: int, routine: str) -> None:
    """Raise on a LAPACK info code as scipy.linalg's eigensolvers do."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} did not converge (LAPACK info={info})")


def symmetric_tridiagonal_eigenpairs(
    diag: np.ndarray, off: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs of a symmetric tridiagonal matrix.

    Bisection for the eigenvalues (LAPACK dstebz, by index, in blocks),
    inverse iteration for the eigenvectors (dstein), then each eigenvalue
    is the vector's float64 energy-form Rayleigh quotient
    (_rayleigh_quotients): the calls and checks of
    scipy.linalg.eigh_tridiagonal(select="i"), with its ValueError on
    non-finite input. Vectors come back euclidean-orthonormal, as a list of
    1-D arrays in ascending eigenvalue order.
    """
    n = diag.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    diag, off = np.asarray_chkfinite(diag), np.asarray_chkfinite(off)
    if n == 1:
        vecs = np.ones((1, 1))  # the wrappers reject an empty off-diagonal
    else:
        m, w, iblock, isplit, info = _dstebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "B")
        _check_info(info, "stebz")
        w = w[:m]
        vecs, info = _dstein(diag, off, w, iblock, isplit)
        _check_info(info, "stein")
        vecs = vecs[:, np.argsort(w)]  # block order to ascending order
    vecs = [vecs[:, j] for j in range(k)]
    return _rayleigh_quotients(diag, off, vecs), vecs


#: Rayleigh-quotient iteration steps allowed per tracked eigenpair.
TRACK_MAX_ITER = 4


def track_tridiagonal_eigenpairs(
    diag: np.ndarray, off: np.ndarray, guesses, floor: float
) -> tuple[np.ndarray, list[np.ndarray], bool] | None:
    """The k smallest eigenpairs of a symmetric tridiagonal matrix A, tracked
    from guesses of their eigenvectors, or None when they cannot be
    certified.

    Each of the k guesses (1-D arrays, meant for the k smallest eigenvalues
    in ascending order) runs Rayleigh-quotient iteration, one gtsv call
    (_gtsv) per step, until its float64 residual ||A v - sigma v|| (v of
    unit length) is at most sqrt(n) eps ||A||_inf, and its value mu_j is
    then its energy-form Rayleigh quotient, as in
    symmetric_tridiagonal_eigenpairs.
    Certificate (Parlett, The Symmetric Eigenvalue Problem, ch. 4 and 10):
    that residual bound plus the rounding of A v and of mu_j gives each
    value mu_j an interval of half-width rho that holds an eigenvalue; the
    intervals must ascend in the order of the guesses without overlap, and
    a Sturm count (LAPACK stebz, range 'V') must find exactly k eigenvalues
    up to a shift just above both the k-th interval and floor. The values
    are then the k smallest eigenvalues, in order, and every other
    eigenvalue lies above floor. When that count finds more than k because
    floor lies above the k-th interval, a second count up to a shift just
    above the k-th interval alone can still certify the k values, with
    some other eigenvalue at or below floor. Returns the values
    and unit vectors (sign arbitrary) as symmetric_tridiagonal_eigenpairs
    does, that being the fallback on None, and whether every other
    eigenvalue lies above floor.

    The work stays in 1-D temporaries. Batching the k vectors into 2-D
    temporaries left about 15 times as many freed 12.8 kB holes among a
    growing n=1599 branch's arrays, and small allocations that outlive the
    branch then pinned its freed memory in the heap.
    """
    n, k = diag.size, len(guesses)
    lower, eps_a = sturm_bounds(diag, off)
    rtol = np.sqrt(n) * eps_a

    def norm(v):
        # what np.linalg.norm computes for a 1-D array, without its checks
        return math.sqrt(v.dot(v))

    def quotient_and_residual(v):
        av = _tridiagonal_apply(diag, off, v)
        sigma = float(v @ av)
        return sigma, norm(av - sigma * v)

    vecs = []
    for g in guesses:
        v = g / norm(g)
        sigma, res = quotient_and_residual(v)
        for _ in range(TRACK_MAX_ITER):
            if res <= rtol:
                break
            x, _, info = _gtsv(diag - sigma, off, v)
            if info:
                return None
            size = norm(x)
            if not math.isfinite(size) or size == 0.0:
                return None
            v = x / size
            sigma, res = quotient_and_residual(v)
        if not res <= rtol:
            return None
        vecs.append(v)
    mu = _rayleigh_quotients(diag, off, vecs)
    rho = rtol + 4.0 * eps_a
    if any(hi - lo <= 2.0 * rho for lo, hi in zip(mu[:-1], mu[1:])):
        return None
    # stebz's count is exact for a matrix within a small multiple of
    # eps ||A|| of A; the shift clears the k-th interval and floor by far more
    own = float(mu[-1]) + rho
    count = sturm_count(diag, off, lower, max(own, floor) + 1e3 * eps_a)
    if count == k:
        return mu, vecs, True
    if floor > own and sturm_count(diag, off, lower, own + 1e3 * eps_a) == k:
        return mu, vecs, False
    return None


def sturm_bounds(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """(lower, eps_a) of the symmetric tridiagonal matrix A = (diag, off): a
    number below its whole spectrum (the Gershgorin bound, less one), and
    eps ||A||_inf, the scale of sturm_count's backward error."""
    off_max = float(np.abs(off).max(initial=0.0))
    eps_a = np.finfo(float).eps * (float(np.abs(diag).max()) + 2.0 * off_max)
    return float(diag.min()) - 2.0 * off_max - 1.0, eps_a


def sturm_count(diag: np.ndarray, off: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix (diag, off)
    in (lo, hi], by Sturm sequences (LAPACK stebz). The count is exact for a
    matrix within a small multiple of eps ||A||_inf of A, so a caller that
    needs it for A itself keeps its bounds that far (1e3 eps ||A||_inf
    suffices) from what it certifies."""
    return int(_dstebz(diag, off, 1, lo, hi, 0, 0, np.inf, b"E")[0])


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
