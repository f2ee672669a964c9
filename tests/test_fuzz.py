"""Fuzzed assembly: on coarse grids and across the model and regime
parameters, assemble_diagram either produces a diagram that passes
verify_structure or raises AssemblyIncomplete, and nothing else.

Steep ramps next to a degenerate edge are pinned below. There the
vanishing eigenvalue grows only like |t - edge|^(p_f - 1), so states well
outside the ray or segment already classify as degenerate. The trace
toward the edge starts outside them and its first step lands as far
inside the edge; up to p_f = 7 at n = 49 the diagrams verify. From a start
doubled far off the edge (p_f = 9 at lambda1, p_f = 8 at lambda2) that
step is halved, the trace stops at the first state that classifies as
degenerate, short of the edge, and verification fails: strict xfails.

Two steep-ramp windows are pinned too, at n = 49, 99 and 199. At
lambda2 + delta/2 their lower index-1 fold lies below the default c_min, so
assembly stops at c_min with AssemblyIncomplete (strict xfails); with
c_min = -40 they verify.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcate.continuation import delta_window, trace_index1_degenerate_curve
from bifurcate.diagram import AssemblyIncomplete, assemble_diagram, verify_structure
from bifurcate.grid import build_grid
from bifurcate.model import HarvestSpec, Nonlinearity
from bifurcate.solver import Problem

#: Multistart budget of the fuzzed verifications.
BUDGET = 100


def _diagram(n, M, p_f, a, *c_min):
    """assemble_diagram at a, which may name lambda1, lambda2 or the window's
    midpoint lambda2 + delta/2."""
    problem = Problem(build_grid(n, 1.0), Nonlinearity(M, p_f), HarvestSpec("bump"))
    phi, psi = problem.modes()
    if a == "window":
        a = psi.eigenvalue + 0.5 * delta_window(problem, trace_index1_degenerate_curve(problem))
    a = {"lambda1": phi.eigenvalue, "lambda2": psi.eigenvalue}.get(a, a)
    return assemble_diagram(problem, a, *c_min)


def _verifies(diagram):
    report = verify_structure(diagram, BUDGET, 0)
    failed = [(c.claim, c.measured, c.relation, c.bound, c.note) for c in report.failures()]
    assert report.passed, failed


def _assembles_or_fails_cleanly(n, M, p_f, a, c_min):
    try:
        diagram = _diagram(n, M, p_f, a, c_min)
    except AssemblyIncomplete:
        return
    _verifies(diagram)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([49, 99, 149, 199]),
    M=st.floats(0.0, 0.5),
    p_f=st.integers(3, 5),
    a=st.one_of(st.floats(2.0, 45.0), st.sampled_from(["lambda1", "lambda2"])),
    c_min=st.floats(-20.0, -1.0),
)
def test_assembly_verifies_or_is_incomplete(n, M, p_f, a, c_min):
    _assembles_or_fails_cleanly(n, M, p_f, a, c_min)


def test_steep_ramp_at_lambda2_starts_off_the_segment():
    # with p_f = 5 the state EDGE_OFFSET past the segment's end still classifies
    # as degenerate; the start moves out until it does not
    _assembles_or_fails_cleanly(99, 0.3, 5, "lambda2", -10.0)


@pytest.mark.parametrize(
    "p_f, a", [(5, "lambda1"), (7, "lambda1"), (6, "lambda2"), (7, "lambda2")]
)
def test_steep_ramp_next_to_degenerate_edge(p_f, a):
    _assembles_or_fails_cleanly(49, 0.3, p_f, a, -10.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="trace stops short of the degenerate edge"
)
@pytest.mark.parametrize("p_f, a", [(9, "lambda1"), (8, "lambda2")])
def test_steeper_ramp_next_to_degenerate_edge(p_f, a):
    # lambda1: the junction lands at t = 0.3095, outside the ray's end at
    # M = 0.3, with its normal form 22 times off; lambda2: the Mflat and
    # Msharp ends miss the segment (connectivity)
    _assembles_or_fails_cleanly(49, 0.3, p_f, a, -10.0)


#: Steep ramps whose window midpoint lambda2 + delta/2 has its lower index-1
#: fold below the default c_min = -10: at c = -10.21 and -10.67 at n = 49,
#: -10.12 and -10.58 at n = 99 and 199.
STEEP_WINDOWS = [(0.25, 5), (0.5, 4)]
#: Grids of the steep windows.
STEEP_WINDOW_GRIDS = [49, 99, 199]


@pytest.mark.xfail(
    strict=True, raises=AssemblyIncomplete,
    reason="the default c_min = -10 stops assembly above the lower index-1 fold",
)
@pytest.mark.parametrize("M, p_f", STEEP_WINDOWS)
@pytest.mark.parametrize("n", STEEP_WINDOW_GRIDS)
def test_steep_window_reaches_its_lower_index1_fold(n, M, p_f):
    _verifies(_diagram(n, M, p_f, "window"))


@pytest.mark.parametrize("M, p_f", STEEP_WINDOWS)
@pytest.mark.parametrize("n", STEEP_WINDOW_GRIDS)
def test_steep_window_verifies_with_c_min_below_that_fold(n, M, p_f):
    _verifies(_diagram(n, M, p_f, "window", -40.0))
