import ast
import inspect
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import bifurcate

ROOT = Path(__file__).resolve().parents[1]

# Settings fixed as module constants (solver.NEWTON_TOL, spectral.K_EIGS, the
# sweeps' *_SWEEP_STEPS, ...) that no public callable may take again.
FIXED_SETTINGS = {
    "tol", "k_eigs", "min_step", "dt0", "min_dt", "max_dt", "eps_seed", "eps_t",
    "n_check", "max_iter", "span", "dedup", "match_tol", "offset", "amplitude",
    "growth", "decay", "float64_phase_tol", "max_corrector",
}
# The arclength tracer's first step and ceiling stay options of it alone.
TRACER_ONLY = {"max_step", "step0"}


def test_public_names_resolve():
    assert [name for name in bifurcate.__all__ if not hasattr(bifurcate, name)] == []


#: The package's modules in dependency order: each imports from earlier ones only.
LAYERS = ("grid", "model", "spectral", "solver", "continuation", "diagram", "cli")


def _package_imports(tree):
    """(node, module name) of every relative import, the package's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            yield from ((node, name) for name in names)


def test_imports_run_one_way():
    """Every package import sits at module top and reaches an earlier layer
    only, so spectral imports nothing from solver."""
    src = ROOT / "src" / "bifurcate"
    backward, nested = [], []
    for rank, layer in enumerate(LAYERS):
        tree = ast.parse((src / f"{layer}.py").read_text())
        top = {id(node) for node in tree.body}
        for node, name in _package_imports(tree):
            if id(node) not in top:
                nested.append(f"{layer}:{node.lineno}")
            if name not in LAYERS[:rank]:
                backward.append(f"{layer} -> {name}")
    assert backward == [] and nested == []


def test_diagram_reaches_continuation_through_public_names():
    """diagram takes the closed-form ray and segment states and the fold
    system from continuation's public functions: it imports no
    underscore-prefixed name from continuation, and neither the long-double
    mode nor the fold system's iteration cap from anywhere."""
    tree = ast.parse((ROOT / "src" / "bifurcate" / "diagram.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [n for m, n in imported if m == "continuation" and n.startswith("_")] == []
    assert {"exact_mode_longdouble", "FOLD_MAX_ITER"}.isdisjoint(n for _, n in imported)


def _top_level_label(tree, line):
    """The name of the top-level def, class or assigned constant of tree
    that spans line, or 'guard' for a top-level if."""
    for stmt in tree.body:
        if stmt.lineno <= line <= stmt.end_lineno:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                return stmt.name
            if isinstance(stmt, ast.Assign):
                return stmt.targets[0].id
            if isinstance(stmt, ast.If):
                return "guard"
            return f"line {line}"
    return f"line {line}"


def test_long_double_is_confined_to_the_closed_form_modes():
    """Every Newton iterate and residual certificate is float64 or a float64
    Pair: numpy's long double type is named (longdouble as a word, so not
    inside the name exact_mode_longdouble) only in grid's closed-form modes,
    exact_mode_longdouble and PI_LONGDOUBLE, and in the import guard that
    refuses a platform whose long double could not carry them."""
    found = set()
    for path in sorted((ROOT / "src" / "bifurcate").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        for number, line in enumerate(text.splitlines(), start=1):
            if re.search(r"\blongdouble\b", line):
                found.add((path.stem, _top_level_label(tree, number)))
    assert found == {
        ("grid", "exact_mode_longdouble"), ("grid", "PI_LONGDOUBLE"), ("__init__", "guard"),
    }


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


# Subpackages and stdlib modules the package never calls. Importing
# scipy.optimize pulls in the first six, with the _qhull, _decimal and
# _special_ufuncs libraries; scipy.linalg's Python layer pulls in
# numpy.f2py and numpy.testing (its array-API shim clones numpy). The
# package binds its LAPACK routines from the compiled scipy/linalg/_flapack
# extension alone.
UNUSED_MODULES = (
    "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special",
    "scipy.fft", "decimal", "scipy.linalg", "numpy.f2py", "numpy.testing",
    "numpy.ma",
)


def test_import_and_diagram_run_load_no_unused_modules(tmp_path):
    """A fresh interpreter that imports the package, runs the CLI diagram
    command and verifies the n = 99 window diagram at lambda2 + delta/2
    with 100 starts, which runs the multistart oracle's pool, loads none of
    UNUSED_MODULES or their submodules."""
    config = tmp_path / "run.yaml"
    config.write_text(
        "schema_version: 1\ngrid:\n  n_interior: 49\n"
        "run:\n  command: diagram\n  a: 20.0\n"
        f"output:\n  directory: {tmp_path / 'out'}\n"
    )
    script = (
        "import sys\n"
        "import bifurcate, bifurcate.cli\n"
        f"rc = bifurcate.cli.main(['diagram', '--config', {str(config)!r}])\n"
        "p = bifurcate.Problem(bifurcate.build_grid(99, 1.0), bifurcate.Nonlinearity(0.2, 3),\n"
        "                      bifurcate.HarvestSpec('bump'))\n"
        "delta = bifurcate.delta_window(p, bifurcate.trace_index1_degenerate_curve(p))\n"
        "d = bifurcate.assemble_diagram(p, p.modes()[1].eigenvalue + 0.5 * delta)\n"
        "assert not bifurcate.verify_structure(d, 100, 0).failures()\n"
        f"unused = {UNUSED_MODULES!r}\n"
        "print(rc, [u for u in unused "
        "if any(m == u or m.startswith(u + '.') for m in sys.modules)])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 []\n"
    assert (tmp_path / "out" / "diagram.json").exists()


def test_import_refuses_a_long_double_without_extended_precision(tmp_path):
    """Where np.longdouble is float64 (52 mantissa bits against x87's 63)
    the package's counts come out wrong without an error, so importing it
    raises ImportError naming the platform and the mantissa bits."""
    script = "import numpy as np\nnp.longdouble = np.float64\nimport bifurcate\n"
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode != 0
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: bifurcate needs numpy's long double")
    assert platform.system() in last and last.endswith("it carries 52")


def test_readme_count_needs_no_long_double(monkeypatch):
    """The multistart oracle climbs the float64 ladder alone: with the
    closed-form modes built in float64, as they would be where numpy's long
    double is float64, the README count (n = 399, 800 starts) still finds
    its four states with Morse indices (0, 1, 1, 2)."""
    import numpy as np

    from bifurcate import grid
    from bifurcate.diagram import count_solutions

    built = []

    def float64_mode(domain, k):
        built.append(k)
        h = domain.length / (domain.n_interior + 1)
        raw = np.sin(k * np.pi * domain.nodes / domain.length)
        lam = (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * domain.length)) ** 2
        return lam, raw / np.max(np.abs(raw))

    monkeypatch.setattr(grid, "exact_mode_longdouble", float64_mode)
    problem = bifurcate.Problem(
        bifurcate.build_grid(399, 1.0), bifurcate.Nonlinearity(0.2, 3),
        bifurcate.HarvestSpec("bump"),
    )
    problem.modes()
    assert built == [1, 2]
    members = count_solutions(problem, 40.0, -0.005, 800, 9).members
    assert sorted(m.morse_index for m in members) == [0, 1, 1, 2]


def _run_in_import_order(work: Path, scipy_first: bool) -> list[str]:
    """In a fresh interpreter under work/, import scipy.linalg before or
    after the package, then run CLI diagram at n = 49 and a 100-start CLI
    count; returns whether grid's LAPACK routines are scipy.linalg.lapack's,
    then the exit codes and the sha256 of the two JSON artifacts."""
    for command, run in (
        ("diagram", "  a: 20.0\n"),
        ("count", "  a: 40.0\n  c: -0.005\n  n_starts: 100\n  seed: 0\n"),
    ):
        (work / f"{command}.yaml").write_text(
            "schema_version: 1\ngrid:\n  n_interior: 49\n"
            f"run:\n  command: {command}\n{run}"
            f"output:\n  directory: {command}\n"
        )
    imports = ["import scipy.linalg.lapack", "import bifurcate, bifurcate.cli"]
    script = "\n".join([
        "import hashlib, sys",
        *(imports[::-1] if scipy_first else imports),
        "from bifurcate import grid",
        "same = all(getattr(grid, '_' + name) is getattr(scipy.linalg.lapack, name)",
        "           for name in ('dgtsv', 'dgttrf', 'dgttrs', 'dstebz', 'dstein'))",
        "rcs = [bifurcate.cli.main([cmd, '--config', cmd + '.yaml'])",
        "       for cmd in ('diagram', 'count')]",
        "digests = [hashlib.sha256(open(path, 'rb').read()).hexdigest()",
        "           for path in ('diagram/diagram.json', 'count/count.json')]",
        "print(same, *rcs, *digests)",
    ])
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=work, capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()[-5:]


def test_lapack_routines_and_results_are_the_same_in_either_import_order(tmp_path):
    """Whether scipy.linalg is imported before or after the package, grid's
    LAPACK routines are the very objects scipy.linalg.lapack exposes, and an
    n = 49 diagram and a 100-start count write the same bytes."""
    runs = []
    for scipy_first in (False, True):
        work = tmp_path / f"scipy_first={scipy_first}"
        work.mkdir()
        runs.append(_run_in_import_order(work, scipy_first))
    package_first, scipy_first = runs
    assert package_first[:3] == scipy_first[:3] == ["True", "0", "0"]
    assert package_first == scipy_first


def test_bench_tracer_wraps_names_that_exist_and_restores_them(monkeypatch):
    """bench/tracer.py patches the package by name. Its install() must find
    every layer it wraps (a method it names raises AttributeError if gone;
    a function it wraps must be bound in at least one module, or its span
    would silently record nothing), and uninstall() must put back every
    binding it replaced. The file is loaded read-only, with no bytecode
    written next to it."""
    import importlib.util

    import bifurcate.cli  # noqa: F401 (install() patches every package module)

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)

    owners = [sys.modules[name] for name in tracer_mod.MODULES]
    owners += [bifurcate.grid.LinearOperatorBanded, bifurcate.solver.Problem]
    before = [dict(vars(owner)) for owner in owners]

    tracer = tracer_mod.Tracer()
    real_wrap, wrappers = tracer._wrap, []

    def wrap(*args, **kwargs):
        wrappers.append(real_wrap(*args, **kwargs))
        return wrappers[-1]

    tracer._wrap = wrap
    tracer.install()
    try:
        installed = {id(getattr(owner, attr)) for owner, attr, _ in tracer._patches}
        assert len(wrappers) > 10
        assert [w.__wrapped__.__qualname__ for w in wrappers if id(w) not in installed] == []
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, saved in zip(owners, before):
        assert [k for k, v in saved.items() if vars(owner).get(k) is not v] == []
