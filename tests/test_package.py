import inspect
import subprocess
import sys
from pathlib import Path

import bifurcate

ROOT = Path(__file__).resolve().parents[1]

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


def test_failing_hypothesis_test_is_a_plain_failure(tmp_path):
    """Under the suite's warning filters, a hypothesis test that fails is
    reported as one failed test, not as an internal error that ends the
    run before the remaining tests."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(max_examples=5, database=None)\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n"
        "def test_after():\n"
        "    pass\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_falsified.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
