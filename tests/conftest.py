import numpy as np
import pytest

from bifurcate.grid import DiscreteField, build_grid


@pytest.fixture(scope="session")
def domain():
    """The production grid: 399 interior nodes on (0, 1)."""
    return build_grid(399, 1.0)


@pytest.fixture(scope="session")
def coarse_domain():
    return build_grid(49, 1.0)


@pytest.fixture(scope="session")
def harvest_field(domain):
    """Interior-peaked harvest profile x(1-x)^2."""
    x = domain.nodes
    return DiscreteField(domain, x * (1.0 - x) ** 2)


def _nested_difference_residual(problem, u, a, c):
    """Problem.residual_values as first written, in the dtype of u: np.diff
    of the zero-padded field for Delta_h u, and f by repeated
    multiplication from a copy of (u - M)+."""
    u = np.asarray(u)
    one = u.dtype.type
    nl = problem.nonlinearity
    r = np.maximum(u - one(nl.M), one(0.0))
    f = r.copy()
    for _ in range(nl.p_f - 1):
        f *= r
    z = np.zeros(u.shape[:-1] + (1,), dtype=u.dtype)
    lap = np.diff(np.concatenate((z, u, z), axis=-1), n=2, axis=-1)
    lap = lap / one(problem.domain.spacing) ** 2
    return lap + one(a) * u - f - one(c) * problem.harvest.values.astype(u.dtype)


def _longdouble_residual(problem, u, a, c):
    """F(u) at (a, c) with every operation in long double, u, a and c
    widened exactly: the reference that the float64 Pair residual
    (solver.Ladder) is held to."""
    ld = np.longdouble
    return _nested_difference_residual(problem, np.asarray(u, dtype=ld), ld(a), ld(c))


def _split(x):
    """The Pair of a long-double array or scalar: its float64 rounding and
    the exact rest."""
    from bifurcate.solver import Pair

    hi = np.asarray(x).astype(float)
    lo = (np.asarray(x) - hi).astype(float)
    return Pair(hi, lo) if hi.ndim else Pair(float(hi), float(lo))


def _pair_residual(problem, u, a, c=0.0):
    """Sup norm of the Ladder residual of the Pair u at the Pair (or float)
    growth rate a and the float c."""
    from bifurcate.solver import Ladder, Pair

    a = a if isinstance(a, Pair) else Pair(float(a), 0.0)
    return float(np.max(np.abs(Ladder(problem).evaluate(u, a, Pair(float(c), 0.0)))))


@pytest.fixture(scope="session")
def nested_difference_residual():
    return _nested_difference_residual


@pytest.fixture(scope="session")
def longdouble_residual():
    return _longdouble_residual


@pytest.fixture(scope="session")
def split():
    return _split


@pytest.fixture(scope="session")
def pair_residual():
    return _pair_residual
