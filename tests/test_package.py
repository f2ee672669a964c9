import inspect

import bifurcate

# Settings fixed as module constants (solver.NEWTON_TOL, solver.K_EIGS, the
# sweeps' *_SWEEP_STEPS, ...) that no public callable may take again.
FIXED_SETTINGS = {
    "tol", "k_eigs", "min_step", "dt0", "min_dt", "max_dt", "eps_seed", "eps_t",
    "n_check", "max_iter", "span", "dedup", "match_tol", "offset", "amplitude",
    "growth", "decay", "float64_phase_tol",
}
# The arclength tracer's first step and ceiling stay options of it alone.
TRACER_ONLY = {"max_step", "step0"}


def test_public_names_resolve():
    assert [name for name in bifurcate.__all__ if not hasattr(bifurcate, name)] == []


def test_fixed_settings_are_not_options():
    """No public function takes a fixed setting, and no public class takes
    one with a default (a required field such as SpectrumSlice.tol is data
    that the computation produced, not an option)."""
    offenders = []
    for name in bifurcate.__all__:
        obj = getattr(bifurcate, name)
        if not callable(obj):
            continue
        try:
            params = {
                p.name
                for p in inspect.signature(obj).parameters.values()
                if not inspect.isclass(obj) or p.default is not p.empty
            }
        except (TypeError, ValueError):
            continue
        banned = FIXED_SETTINGS | (set() if name == "continue_branch" else TRACER_ONLY)
        offenders += [f"{name}({p})" for p in sorted(params & banned)]
    assert offenders == []
