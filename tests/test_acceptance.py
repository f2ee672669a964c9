"""Acceptance gate: the ten structural and quantitative properties the
package promises, each as one test with one printed pass/fail line.

Every expected value is anchored independently of the code under test:
closed-form integrals evaluated by hand (pi^3/4, pi^3/3, the 5 pi^2 gap),
a raw banded solve for the linear regime, extended-precision residuals
built from literal constants, finite-difference secants for slopes and
curvatures, and brute-force multistart counts for solution multiplicity.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bifurcate.grid import DiscreteField, build_grid, laplacian_eigenpairs
from bifurcate.model import HarvestSpec, Nonlinearity
from bifurcate.solver import Problem, classify_state, newton_solve
from bifurcate.continuation import (
    branch_derivative_at_zero,
    continue_branch,
    delta_window,
    fold_normal_form_checks,
    solve_at_projection,
    trace_fold_curve,
    trace_index1_degenerate_curve,
)
from bifurcate.diagram import (
    assemble_diagram,
    count_solutions,
    stability_crosscheck,
)


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}  {label}{tail}", flush=True)
    assert ok, f"criterion {num} failed: {label}{tail}"


@pytest.fixture(scope="module")
def domain():
    return build_grid(399, 1.0)


@pytest.fixture(scope="module")
def problem(domain):
    return Problem(domain, Nonlinearity(0.2, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def problem0(domain):
    return Problem(domain, Nonlinearity(0.0, 3), HarvestSpec("bump"))


@pytest.fixture(scope="module")
def lams(domain):
    return tuple(p.eigenvalue for p in laplacian_eigenpairs(domain, 3))


@pytest.fixture(scope="module")
def diagram20(problem):
    return assemble_diagram(problem, 20.0)


@pytest.fixture(scope="module")
def diagram20_m0(problem0):
    return assemble_diagram(problem0, 20.0)


@pytest.fixture(scope="module")
def diagram_lam2(problem):
    return assemble_diagram(problem, problem.modes()[1].eigenvalue)


@pytest.fixture(scope="module")
def window(problem):
    """Growth rate half a certified window above the second eigenvalue,
    with its assembled diagram."""
    lam2 = problem.modes()[1].eigenvalue
    delta = delta_window(problem, trace_index1_degenerate_curve(problem))
    a_win = lam2 + 0.5 * delta
    return a_win, assemble_diagram(problem, a_win)


@pytest.fixture(scope="module")
def counts_two_solution(problem0, diagram20_m0):
    """Multistart enumerations at the sampled harvest levels of the
    two-solution regime (a = 20, threshold 0)."""
    c_star = diagram20_m0.degenerate_points[0].c
    levels = (-5.0, -1.0, 0.0, 0.5 * c_star)
    sets = {c: count_solutions(problem0, 20.0, c, 400, 0) for c in levels}
    return c_star, sets


@pytest.fixture(scope="module")
def counts_window(problem, window):
    """800-start enumerations at +-20% of the sharp junction level inside
    the four-solution window."""
    a_win, diag = window
    sharp = diag.branch("Msharp")

    def dist(dp):
        return min(
            float(np.max(np.abs(p.u.values - dp.u.values)))
            for p in sharp.points
        )

    cands = sorted(
        (d for d in diag.degenerate_points if d.kind != "fold-index0"),
        key=dist,
    )
    assert dist(cands[0]) < 0.05 and dist(cands[1]) > 0.5
    c_sharp = cands[0].c
    sets = {
        c: count_solutions(problem, a_win, c, 800, 0)
        for c in (0.2 * abs(c_sharp), -0.2 * abs(c_sharp))
    }
    return c_sharp, sets


@pytest.fixture(scope="module")
def segment_states(problem):
    """The five sampled multiples of the second eigenfunction on the
    degenerate segment, classified."""
    lam2 = problem.modes()[1].eigenvalue
    psi = problem.modes()[1].eigenfunction
    return tuple(
        classify_state(
            problem, DiscreteField(problem.domain, t * psi.values), lam2, 0.0
        )
        for t in (-0.2, -0.1, 0.0, 0.1, 0.2)
    )


def test_criterion_01_eigenvalue_anchors(lams):
    pi2 = np.pi**2
    r1 = abs(lams[0] - pi2) / pi2
    r2 = abs(lams[1] - 4.0 * pi2) / (4.0 * pi2)
    gap = lams[2] - lams[1]
    # the approximate 5 pi^2 gap doubles as the simplicity certificate
    r3 = abs(gap - 5.0 * pi2) / (5.0 * pi2)
    ok = r1 < 1e-4 and r2 < 1e-4 and r3 < 1e-3 and gap > 1.0
    report(1, "eigenvalue anchors pi^2, 4 pi^2 and the 5 pi^2 gap", ok,
           f"rel {r1:.1e}, {r2:.1e}, gap rel {r3:.1e}")


def test_criterion_02_two_solution_regime(problem0, diagram20_m0,
                                          counts_two_solution):
    c_star, sets = counts_two_solution
    checks = []
    for c, s in sets.items():
        checks.append(s.count == 2 and s.morse_indices() == (0, 1))
    beyond = count_solutions(problem0, 20.0, c_star + 0.5, 400, 0)
    checks.append(beyond.count == 0)

    dps = diagram20_m0.degenerate_points
    checks.append(len(dps) == 1 and dps[0].kind == "fold-index0")
    checks.append(dps[0].residual_sup < 1e-10)
    # both sheets run from the harvest floor up to the single fold
    for tag in ("Mstar", "Msharp"):
        br = diagram20_m0.branch(tag)
        checks.append(br.points[0].c == pytest.approx(diagram20_m0.c_min))
        gap = float(np.max(np.abs(br.points[-1].u.values - dps[0].u.values)))
        checks.append(gap < 0.05)
    report(2, "two solutions below the fold, none above, connected", all(checks),
           f"counts {[s.count for s in sets.values()]}, "
           f"fold residual {dps[0].residual_sup:.1e}")


def test_criterion_03_fold_normal_form(problem, problem0, diagram20,
                                       diagram20_m0):
    worst = 0.0
    for prob, diag in ((problem, diagram20), (problem0, diagram20_m0)):
        nf = fold_normal_form_checks(prob, diag.degenerate_points[0])
        worst = max(
            worst,
            abs(nf["mu_slope_fd"] - nf["mu_slope_formula"])
            / abs(nf["mu_slope_formula"]),
            abs(nf["c_curvature_fd"] - nf["c_curvature_formula"])
            / abs(nf["c_curvature_formula"]),
        )
    report(3, "fold eigenvalue slope and c curvature match formulas", worst < 0.05,
           f"worst rel {worst:.1e}")


def test_criterion_04_chart_slopes(problem, lams):
    cases = (
        ("phi", lams[0] + 1.0, np.pi**3 / 4.0),
        ("psi", lams[1] + 0.5, -np.pi**3 / 3.0),
        ("psi", lams[1] - 0.5, np.pi**3 / 3.0),
    )
    checks, details = [], []
    for chart, a, target in cases:
        formula, _ = branch_derivative_at_zero(problem, a, chart)
        zero = classify_state(
            problem, DiscreteField.zero(problem.domain), a, 0.0
        )
        br = continue_branch(
            problem, zero, +1, (-60.0, 60.0), chart=chart, max_points=8,
            stop_at_events=False,
        )
        fd = (br.points[2].c - br.points[1].c) / (br.t_proj[2] - br.t_proj[1])
        checks.append(np.sign(formula) == np.sign(target))
        checks.append(abs(formula - target) / abs(target) < 1e-3)
        checks.append(abs(fd - formula) / abs(formula) < 0.01)
        details.append(f"{chart}@{a:.2f}: {formula:+.4f}")
    report(4, "trivial-state chart slopes pi^3/4 and -+pi^3/3", all(checks),
           "; ".join(details))


def test_criterion_05_degenerate_segment_regime(problem, diagram_lam2,
                                                segment_states, split, pair_residual):
    dom = problem.domain
    ld = np.longdouble
    pi_ld = ld("3.14159265358979323846264338327950288")
    n1 = ld(dom.n_interior + 1)
    x = np.arange(1, dom.n_interior + 1, dtype=ld) / n1
    psi_ld = -np.sin(2 * pi_ld * x)
    lam2_ld = ld(4) * n1**2 * np.sin(pi_ld / n1) ** 2

    worst_res, worst_mu2 = 0.0, 0.0
    for t, point in zip((-0.2, -0.1, 0.0, 0.1, 0.2), segment_states):
        r = pair_residual(problem, split(ld(t) * psi_ld), split(lam2_ld))
        worst_res = max(worst_res, r)
        worst_mu2 = max(worst_mu2, abs(float(point.spectrum.eigenvalues[1])))

    checks = [worst_res < 1e-12, worst_mu2 < 1e-10]
    checks.append(diagram_lam2.segment is not None)
    checks.append(diagram_lam2.segment.verified_residual < 1e-12)

    # five pieces: three sheets, the fold and the segment, with the flat and
    # sharp sheets terminating on opposite sides of the segment
    checks.append(set(diagram_lam2.tags()) == {"Mstar", "Msharp", "Mflat"})
    checks.append(len(diagram_lam2.degenerate_points) == 1)
    checks.append(diagram_lam2.degenerate_points[0].kind == "fold-index0")
    seg = diagram_lam2.segment
    psi = problem.modes()[1].eigenfunction
    t_ends = {}
    for tag in ("Mflat", "Msharp"):
        # whichever endpoint carries no harvest is the segment junction
        pts = diagram_lam2.branch(tag).points
        end = min((pts[0], pts[-1]), key=lambda p: abs(p.c))
        t_end = dom.inner(end.u.values, psi.values) / dom.inner(
            psi.values, psi.values
        )
        checks.append(abs(end.c) < 1e-9)
        checks.append(seg.t_min - 1e-3 <= t_end <= seg.t_max + 1e-3)
        checks.append(float(np.max(np.abs(end.u.values - t_end * psi.values))) < 1e-6)
        t_ends[tag] = t_end
    checks.append(t_ends["Mflat"] * t_ends["Msharp"] < 0)
    report(5, "exact degenerate segment and five-piece decomposition",
           all(checks),
           f"residual {worst_res:.1e}, |mu2| {worst_mu2:.1e}")


def test_criterion_06_four_solution_window(problem, window, counts_window):
    a_win, diag = window
    c_sharp, sets = counts_window
    checks = []
    for c, s in sets.items():
        checks.append(s.count == 4 and s.morse_indices() == (0, 1, 1, 2))

    slope, _ = branch_derivative_at_zero(problem, a_win, "psi")
    psi = problem.modes()[1].eigenfunction
    plus = solve_at_projection(problem, a_win, psi, 0.04, 0.04 * psi.values, 0.0)
    minus = solve_at_projection(problem, a_win, psi, -0.04, -0.04 * psi.values, 0.0)
    fd = (plus.c - minus.c) / 0.08
    checks.append(slope < 0.0 and fd < 0.0)
    checks.append(abs(fd - slope) / abs(slope) < 0.01)

    checks.append(set(diag.tags()) == {"Mstar", "Msharp", "Mnatural", "Mflat"})
    kinds = sorted(d.kind for d in diag.degenerate_points)
    checks.append(kinds == ["degenerate-index1", "degenerate-index1",
                            "fold-index0"])
    worst_ref = max(d.residual_sup for d in diag.degenerate_points)
    checks.append(worst_ref < 1e-10)
    report(6, "four solutions in the window, falling middle sheet, seven pieces",
           all(checks),
           f"counts {[s.count for s in sets.values()]}, slope {slope:+.3f}, "
           f"junction residual {worst_ref:.1e}")


def test_criterion_07_fold_level_trend(problem, diagram20):
    samples = (12.0, 20.0, 30.0, 45.0, 60.0)
    folds = {20.0: diagram20.degenerate_points[0]}
    seed = folds[20.0]
    for a in (12.0, 30.0, 45.0, 60.0):
        lo, hi = (a, seed.a) if a < seed.a else (seed.a, a)
        curve = trace_fold_curve(problem, seed, (lo, hi))
        end = curve.points[0] if a < seed.a else curve.points[-1]
        assert end.a == a
        folds[a] = end
        if a > 20.0:
            seed = end

    cs = [folds[a].c for a in samples]
    checks = [all(np.diff(cs) > 0.0), cs[-1] > 3.0 * cs[0]]

    dom = problem.domain
    h_vals = problem.harvest.values
    worst = 0.0
    for a in samples:
        dp = folds[a]
        mini = trace_fold_curve(problem, dp, (a - 0.25, a + 0.25))
        fd = (mini.points[-1].c - mini.points[0].c) / 0.5
        ident = dom.inner(dp.u.values, dp.w.values) / dom.inner(
            h_vals, dp.w.values
        )
        worst = max(worst, abs(fd - ident) / abs(ident))
    checks.append(worst < 0.05)
    report(7, "fold level strictly increasing in a with the slope identity",
           all(checks),
           f"c_* {cs[0]:.2f}..{cs[-1]:.2f}, worst slope rel {worst:.1e}")


def test_criterion_08_stability_agreement(problem, problem0, window,
                                          counts_two_solution, counts_window,
                                          segment_states):
    a_win, _ = window
    special = []
    for s in counts_two_solution[1].values():
        special.extend(s)
    special.extend(segment_states)
    for s in counts_window[1].values():
        special.extend(s)

    verdicts = [stability_crosscheck(p) for p in special]
    agree = verdicts.count("pass")

    # stability of a harvest-free state is equivalent to nonnegativity with
    # maximum beyond the ramp threshold
    lam2 = problem.modes()[1].eigenvalue
    mismatches = 0
    n_czero = 0
    for prob, a in ((problem0, 20.0), (problem, lam2), (problem, a_win)):
        for p in count_solutions(prob, a, 0.0, 400, 0):
            n_czero += 1
            static = (
                p.u.values.min() > -1e-10
                and p.u.values.max() > prob.nonlinearity.M
            )
            dynamic = p.spectrum.eigenvalues[0] > 0.0
            mismatches += int(static != dynamic)

    ok = agree == len(special) and mismatches == 0
    report(8, "dynamics agree with Morse classification and the static rule",
           ok,
           f"{agree}/{len(special)} marches pass, "
           f"{mismatches}/{n_czero} static mismatches")


def test_criterion_09_linear_regime_closed_form(problem):
    dom = problem.domain
    a, n, h = 5.0, dom.n_interior, dom.spacing
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0 / h**2
    ab[1, :] = -2.0 / h**2 + a
    ab[2, :-1] = 1.0 / h**2
    v = solve_banded((1, 1), ab, problem.harvest.values)

    # the response field is nonpositive below the principal eigenvalue, so
    # negative c keeps the state in (0, M] and positive c keeps it negative;
    # either way the ramp is inactive and c v solves the equation exactly
    scale = 0.5 * problem.nonlinearity.M / float(np.max(np.abs(v)))
    worst = 0.0
    for c in (-scale, scale):
        pt = newton_solve(problem, DiscreteField.zero(dom), a, c)
        assert float(np.max(pt.u.values)) <= problem.nonlinearity.M
        worst = max(worst, float(np.max(np.abs(pt.u.values - c * v))))
    report(9, "small-harvest states match the banded-solve closed form",
           worst < 1e-8, f"Linf {worst:.1e}")


def test_criterion_10_monotone_harvest_response(problem, diagram20):
    star = diagram20.branch("Mstar")
    pts = [p for p in star.points if p.morse_index == 0]
    order = np.argsort([p.c for p in pts])
    worst_drop = np.inf
    for k in range(len(order) - 1):
        lo, hi = pts[order[k]], pts[order[k + 1]]
        worst_drop = min(worst_drop, float(np.min(lo.u.values - hi.u.values)))

    M = problem.nonlinearity.M
    h2 = problem.domain.spacing ** 2
    worst_field = np.inf
    seed = None
    for c in (-0.01, -0.005, 0.0, 0.005, 0.01):
        init = seed if seed is not None else DiscreteField(
            problem.domain, np.full(problem.domain.n_interior, 3.0)
        )
        pt = newton_solve(problem, init, 20.0, c)
        seed = pt.u
        u = pt.u.values
        f = np.clip(u - M, 0.0, None) ** 3
        field = 20.0 * u - f - c * problem.harvest.values
        neg_lap = -np.diff(np.concatenate(([0.0], u, [0.0])), n=2) / h2
        worst_field = min(
            worst_field, float(field.min()), float(neg_lap.min())
        )

    ok = worst_drop > 0.0 and worst_field > -1e-10
    report(10, "stable states decrease nodewise in c and stay superharmonic",
           ok,
           f"min drop {worst_drop:.1e}, min field {worst_field:.3f}")
