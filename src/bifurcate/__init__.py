"""Continuation and verification toolkit for steady states of the harvested
diffusive logistic equation on an interval."""

__version__ = "0.1.0"

import platform as _platform

import numpy as _np

# Every Newton iterate and residual certificate is float64 or a float64 Pair
# (solver.Ladder). One thing still needs numpy's long double to be x87
# extended precision (63 explicit mantissa bits) or wider: the closed-form
# Laplacian modes of grid.exact_mode_longdouble, which the lambda1 ray and
# the lambda2 segment are built from and certified on. Where it is float64
# those modes carry only float64's digits, and the segment's certificate
# fails from n = 99 on, the ray's at n = 1599. So the import is refused.
if _np.finfo(_np.longdouble).nmant < 63:
    raise ImportError(
        f"bifurcate needs numpy's long double to carry at least 63 mantissa "
        f"bits (x87 extended precision) for the closed-form modes of "
        f"grid.exact_mode_longdouble; on {_platform.system()} "
        f"{_platform.machine()} it carries {_np.finfo(_np.longdouble).nmant}"
    )

from .grid import (
    DiscreteDomain,
    DiscreteField,
    EigenPair,
    LinearOperatorBanded,
    assemble_laplacian,
    build_grid,
    inner_product,
    laplacian_eigenpairs,
)
from .model import (
    HARVEST_PROFILES,
    HarvestSpec,
    HypothesisCheck,
    HypothesisReport,
    ModelError,
    Nonlinearity,
    check_hypotheses,
    critical_cap,
    eval_nonlinearity,
)
from .solver import (
    NEWTON_TOL,
    Diverged,
    NonConvergence,
    Problem,
    SingularJacobian,
    SolutionPoint,
    classify_state,
    newton_solve,
    time_march,
)
from .spectral import (
    SpectrumSlice,
    degeneracy_tolerance,
    linearized_spectrum,
)
from .continuation import (
    Branch,
    BranchEvent,
    DegenerateCurve,
    DegeneratePoint,
    DegenerateSegment,
    StepCounts,
    StepUnderflow,
    WrongKind,
    branch_derivative_at_zero,
    build_degenerate_segment,
    chart_coordinate,
    continue_branch,
    continue_czero_branch,
    delta_window,
    fold_normal_form_checks,
    refine_fold,
    solve_at_projection,
    trace_fold_curve,
    trace_index1_degenerate_curve,
)
from .diagram import (
    REGIMES,
    AssemblyIncomplete,
    BifurcationDiagram,
    ClaimCheck,
    SolutionSet,
    VerificationReport,
    assemble_diagram,
    count_solutions,
    diagram_solutions_at,
    stability_crosscheck,
    verify_structure,
)
from .cli import (
    ConfigError,
    RunConfig,
    diagram_payload,
    diagrams_equal,
    emit_csv,
    load_config,
    load_diagram,
    parse_config,
    render_svg,
)
from . import cli

__all__ = [
    "DiscreteDomain",
    "DiscreteField",
    "EigenPair",
    "LinearOperatorBanded",
    "assemble_laplacian",
    "build_grid",
    "inner_product",
    "laplacian_eigenpairs",
    "HARVEST_PROFILES",
    "HarvestSpec",
    "HypothesisCheck",
    "HypothesisReport",
    "ModelError",
    "Nonlinearity",
    "check_hypotheses",
    "critical_cap",
    "eval_nonlinearity",
    "NEWTON_TOL",
    "Diverged",
    "NonConvergence",
    "Problem",
    "SingularJacobian",
    "SolutionPoint",
    "classify_state",
    "newton_solve",
    "time_march",
    "SpectrumSlice",
    "degeneracy_tolerance",
    "linearized_spectrum",
    "Branch",
    "BranchEvent",
    "DegenerateCurve",
    "DegeneratePoint",
    "DegenerateSegment",
    "StepCounts",
    "StepUnderflow",
    "WrongKind",
    "branch_derivative_at_zero",
    "build_degenerate_segment",
    "chart_coordinate",
    "continue_branch",
    "continue_czero_branch",
    "delta_window",
    "fold_normal_form_checks",
    "refine_fold",
    "solve_at_projection",
    "trace_fold_curve",
    "trace_index1_degenerate_curve",
    "REGIMES",
    "AssemblyIncomplete",
    "BifurcationDiagram",
    "ClaimCheck",
    "SolutionSet",
    "VerificationReport",
    "assemble_diagram",
    "count_solutions",
    "diagram_solutions_at",
    "stability_crosscheck",
    "verify_structure",
    "ConfigError",
    "RunConfig",
    "cli",
    "diagram_payload",
    "diagrams_equal",
    "emit_csv",
    "load_config",
    "load_diagram",
    "parse_config",
    "render_svg",
    "__version__",
]
