"""Spectrum of the linearized operator at a state, and Morse index.

The linearization of the steady equation at u is the symmetric operator
-(Delta_h + a I - diag(f'(u))); its lowest eigenvalues decide stability,
Morse index, and degeneracy everywhere else in the package. Two eigenpairs
and Sturm counts (Sylvester's law of inertia) classify a state.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import (
    DiscreteField,
    inner_product,
    sturm_bounds,
    sturm_count,
    symmetric_tridiagonal_eigenpairs,
    track_tridiagonal_eigenpairs,
)

#: Eigenpairs of the linearization computed per state: mu1 and mu2, which
#: the diagram reports. One Sturm count certifies that no other eigenvalue
#: reaches the degeneracy tolerance, so the Morse index and degeneracy flag
#: follow from these two; f' >= 0 puts every state's third eigenvalue at or
#: above lambda3 - a, so that holds below lambda3. Where one does reach it,
#: two more counts classify the state exactly (classified_eigenpairs).
K_EIGS = 2


def degeneracy_tolerance(a: float) -> float:
    """Threshold below which an eigenvalue of the linearization counts as
    zero. Scales with the growth rate so the notion is uniform across
    regimes; other modules read it as SpectrumSlice.tol."""
    return 1e-6 * max(1.0, abs(a))


@dataclass(frozen=True)
class SpectrumSlice:
    """The k lowest eigenpairs of the linearization, ascending, with the
    Morse index and degeneracy flag of the whole spectrum.

    The pairs come from a full eigensolve or, along a branch, are tracked
    from the previous points' slices and certified by a Sturm count
    (linearized_spectrum); both give the same conventions. index counts the
    eigenvalues below -tol and degenerate says whether one lies within tol
    of zero, over the whole spectrum, not only the k computed ones.
    Eigenfunctions carry the quadrature L2 normalization of the ambient
    Laplacian eigenfunctions: the first matches the squared norm of the
    (max-normalized) ground mode, the second that of the second mode, and
    further ones reuse the first target. The first eigenfunction is
    sign-fixed positive; higher ones get their largest-magnitude entry made
    positive, and callers that track orientation along a curve re-align
    against the previous point themselves.
    """

    eigenvalues: tuple[float, ...]
    eigenfunctions: tuple[DiscreteField, ...]
    tol: float
    index: int
    degenerate: bool

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def mu1(self) -> float:
        return self.eigenvalues[0]

    @property
    def mu2(self) -> float:
        return self.eigenvalues[1]


def classified_eigenpairs(diag, off, k: int, tol: float, guesses):
    """(values, unit vectors, index, degenerate) of the symmetric tridiagonal
    matrix A = (diag, off): its k lowest eigenpairs, ascending, the number
    of its eigenvalues below -tol, and whether one lies in (-tol, tol).

    With guesses (vectors meant for the k lowest eigenpairs) the pairs are
    tracked and certified by Sturm counts (grid.track_tridiagonal_eigenpairs):
    one up to a shift above both mu_k and tol, which also shows that every
    other eigenvalue lies above tol, or, where that one finds more, a second
    up to a shift just above mu_k. With guesses None, or when neither count
    certifies the pairs, the full eigensolve gives the k lowest pairs, and
    one Sturm count up to tol checks the others where mu_k < tol. When no
    other eigenvalue reaches tol, the index and flag read the k values
    alone; otherwise two Sturm counts, in (lower, -tol] and (-tol, tol],
    give them exactly.
    """
    pairs = None
    if guesses is not None:
        pairs = track_tridiagonal_eigenpairs(diag, off, guesses, tol)
    if pairs is not None:
        vals, vecs, clear = pairs
    else:
        vals, vecs = symmetric_tridiagonal_eigenpairs(diag, off, k)
        clear = vals[-1] >= tol
    if not clear:
        lower, eps_a = sturm_bounds(diag, off)
        # a track that is not clear has counted more than k up to tol already
        clear = pairs is None and sturm_count(diag, off, lower, tol + 1e3 * eps_a) == k
    if clear:
        return vals, vecs, int(np.sum(vals < -tol)), bool(np.any(np.abs(vals) < tol))
    index = sturm_count(diag, off, lower, -tol)
    return vals, vecs, index, sturm_count(diag, off, -tol, tol) > 0


def linearized_spectrum(
    problem, u: DiscreteField, a: float, k: int = K_EIGS,
    prev: SpectrumSlice | Sequence[np.ndarray] | None = None,
) -> SpectrumSlice:
    """k lowest eigenpairs of -(Delta_h + a I - diag(f'(u))) at the field u
    of the problem (a solver.Problem), with its Morse index and degeneracy
    flag (classified_eigenpairs). Raises ValueError when u lives on another
    grid than the problem.

    With prev, the spectrum of a nearby state on the same grid (the previous
    point of a branch) or k guesses for the eigenvectors (arrays on this
    grid, ascending, as a secant through earlier spectra predicts them),
    the k eigenpairs are tracked from its eigenfunctions, or from the
    guesses, by Rayleigh-quotient iteration and accepted only when
    certified: residual intervals disjoint and ascending, and a Sturm count
    placing exactly k eigenvalues below a shift just above the k-th and
    above the degeneracy tolerance (grid.track_tridiagonal_eigenpairs).
    Start points (prev=None) and points whose certificate fails get the
    full eigensolve: bisection plus inverse iteration on the tridiagonal
    band. Either way each eigenvalue is its vector's float64 energy-form
    Rayleigh quotient (grid._rayleigh_quotients). The residual
    ||A v - mu v||_2 of a tracked pair, v of unit length, is held to the
    tracker's stopping bound sqrt(n) eps ||A||_inf, which grows as n^2.5:
    2.8e-9 at n = 399 and 9.1e-8 at n = 1599 on the unit interval, where
    branch pairs come within 1 % of it. On the returned eigenfunctions,
    which are not of unit length, that is a sup-norm residual of up to
    4e-9 and 2.2e-7.
    """
    if k < 2:
        raise ValueError(
            f"need at least two eigenvalues (index and degeneracy), got k={k}"
        )
    dom = problem.domain
    if u.domain != dom:
        raise ValueError("state field lives on a different grid than the problem")
    J = problem.jacobian_operator(u.values, a)
    tol = degeneracy_tolerance(a)
    guesses = None
    if isinstance(prev, SpectrumSlice):
        if prev.k == k and prev.eigenfunctions[0].domain == dom:
            guesses = [f.values for f in prev.eigenfunctions]
    elif prev is not None and len(prev) == k:
        guesses = prev
    vals, vecs, index, degenerate = classified_eigenpairs(-J.diag, -J.off, k, tol, guesses)
    phi, psi = (p.eigenfunction for p in problem.modes())
    phi_sq, psi_sq = inner_product(phi, phi), inner_product(psi, psi)
    fields = []
    for j in range(k):
        v = vecs[j].copy()
        peak = np.argmax(np.abs(v))
        if v[peak] < 0:
            v = -v
        target_sq = psi_sq if j == 1 else phi_sq
        v *= math.sqrt(target_sq) / (math.sqrt(dom.spacing) * math.sqrt(v.dot(v)))
        fields.append(DiscreteField._wrap(dom, v))
    return SpectrumSlice(
        tuple(float(x) for x in vals),
        tuple(fields),
        tol,
        index,
        degenerate,
    )
