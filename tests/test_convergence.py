"""Mesh convergence of the computed invariants.

The second-order stencil makes every invariant converge as O(h^2): halving
h divides the change between successive meshes by four. The meshes
n = 99, 199, 399, 799 halve h = 1/(n + 1) three times; n = 49 is left out
because delta is not yet in its asymptotic range there (the first ratio
including it is about -112).
"""

import numpy as np
import pytest

from bifurcate.grid import DiscreteField, build_grid
from bifurcate.model import HarvestSpec, Nonlinearity, critical_cap
from bifurcate.solver import Problem, newton_solve
from bifurcate.continuation import (
    continue_branch,
    delta_window,
    trace_index1_degenerate_curve,
)

MESHES = (99, 199, 399, 799)


def invariants(n):
    """lambda1, lambda2, the fold level c* of the stable sheet at a = 20,
    and the half-width delta of the four-solution window."""
    problem = Problem(build_grid(n, 1.0), Nonlinearity(0.2, 3), HarvestSpec("bump"))
    phi, psi = problem.modes()
    amp = critical_cap(problem.nonlinearity, 20.0)
    stable = newton_solve(
        problem, DiscreteField(problem.domain, amp * phi.eigenfunction.values), 20.0, 0.0
    )
    branch = continue_branch(
        problem, stable, +1, (-10.0, 1e6), chart="phi", max_step=2.0
    )
    (fold,) = branch.fold_points()
    delta = delta_window(problem, trace_index1_degenerate_curve(problem))
    return {
        "lambda1": phi.eigenvalue,
        "lambda2": psi.eigenvalue,
        "c_star": fold.c,
        "delta": delta,
    }


@pytest.fixture(scope="module")
def table():
    return [invariants(n) for n in MESHES]


@pytest.mark.parametrize("name", ["lambda1", "lambda2", "c_star", "delta"])
def test_second_order_convergence(table, name):
    steps = np.diff([row[name] for row in table])
    ratios = steps[:-1] / steps[1:]
    assert ratios == pytest.approx([4.0, 4.0], abs=0.1)
