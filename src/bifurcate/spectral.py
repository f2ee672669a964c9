"""Spectrum of the linearized operator at a state, and Morse index.

The linearization of the steady equation at u is the symmetric operator
-(Delta_h + a I - diag(f'(u))); its lowest eigenvalues decide stability,
Morse index, and degeneracy everywhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    DiscreteField,
    inner_product,
    symmetric_tridiagonal_eigenpairs,
    track_tridiagonal_eigenpairs,
)
from .solver import ProblemState, degeneracy_tolerance, jacobian


class InsufficientSpectrum(ValueError):
    """k eigenvalues were not enough to certify the Morse index."""


@dataclass(frozen=True)
class SpectrumSlice:
    """The k lowest eigenpairs of the linearization, ascending.

    The pairs come from a full eigensolve or, along a branch, are tracked
    from the previous point's slice and certified by a Sturm count
    (linearized_spectrum); both give the same conventions. Eigenfunctions
    carry the quadrature L2 normalization of the ambient Laplacian
    eigenfunctions: the first matches the squared norm of the
    (max-normalized) ground mode, the second that of the second mode, and
    further ones reuse the first target. The first eigenfunction is
    sign-fixed positive; higher ones get their largest-magnitude entry made
    positive, and callers that track orientation along a curve re-align
    against the previous point themselves.
    """

    eigenvalues: tuple[float, ...]
    eigenfunctions: tuple[DiscreteField, ...]
    a: float
    tol: float

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    @property
    def mu1(self) -> float:
        return self.eigenvalues[0]

    @property
    def mu2(self) -> float:
        return self.eigenvalues[1]


def linearized_spectrum(
    state: ProblemState, k: int = 3, prev: SpectrumSlice | None = None
) -> SpectrumSlice:
    """k lowest eigenpairs of -(Delta_h + a I - diag(f'(u))) at the state.

    With prev, the spectrum of a nearby state on the same grid (the previous
    point of a branch), its k eigenpairs are tracked by Rayleigh-quotient
    iteration and accepted only when certified: residual intervals disjoint
    and ascending, and a Sturm count placing exactly k eigenvalues below a
    shift just above the k-th (grid.track_tridiagonal_eigenpairs). Start
    points (prev=None) and points whose certificate fails get the full
    eigensolve: bisection plus inverse iteration on the tridiagonal band.
    Either way each eigenvalue is polished in long double, and the residual
    of every returned pair is comfortably below 1e-10.
    """
    if k < 2:
        raise ValueError(
            f"need at least two eigenvalues (index and degeneracy), got k={k}"
        )
    dom = state.problem.domain
    J = jacobian(state)
    pairs = None
    if prev is not None and prev.k == k and prev.eigenfunctions[0].domain == dom:
        guesses = [f.values for f in prev.eigenfunctions]
        pairs = track_tridiagonal_eigenpairs(-J.diag, -J.off, guesses)
    if pairs is None:
        pairs = symmetric_tridiagonal_eigenpairs(-J.diag, -J.off, k)
    vals, vecs = pairs
    phi, psi = (p.eigenfunction for p in state.problem.modes())
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
        state.a,
        degeneracy_tolerance(state.a),
    )


def morse_index(spectrum: SpectrumSlice) -> tuple[int, bool]:
    """(number of negative eigenvalues, degenerate flag) of a spectrum slice.

    Eigenvalues within the degeneracy tolerance of zero are counted as zero
    and set the flag. Raises InsufficientSpectrum when every computed
    eigenvalue is negative, since the true index could then exceed k - 1.
    """
    mu = np.array(spectrum.eigenvalues)
    tol = spectrum.tol
    negatives = int(np.sum(mu < -tol))
    if negatives == spectrum.k:
        raise InsufficientSpectrum(
            f"all {spectrum.k} computed eigenvalues are negative; "
            "recompute with larger k to certify the index"
        )
    return negatives, bool(np.any(np.abs(mu) < tol))
