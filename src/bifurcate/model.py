"""Problem data: the ramp nonlinearity family, harvest profiles, and a
hypothesis checker run before any continuation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .grid import DiscreteDomain, DiscreteField, dirichlet_eigenvalue_exact, laplacian_eigenpairs

HARVEST_PROFILES = ("bump", "constant", "sine")


class ModelError(ValueError):
    """Structural problem with the model data (e.g. no positive cap root)."""


@dataclass(frozen=True)
class Nonlinearity:
    """Ramp competition term f(u) = ((u - M)+)^p_f.

    M >= 0 is the threshold below which f vanishes identically; p_f >= 3 keeps
    f twice continuously differentiable across the threshold. Pass
    validate=False to build a non-admissible instance on purpose (the
    hypothesis checker needs to be able to describe what is wrong with one).
    """

    M: float
    p_f: int
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 0 or not np.isfinite(self.M):
            raise ValueError(f"threshold M must be finite and >= 0, got {self.M}")
        if int(self.p_f) != self.p_f:
            raise ValueError(f"ramp power must be an integer, got {self.p_f}")
        object.__setattr__(self, "p_f", int(self.p_f))
        if self.validate and self.p_f < 3:
            raise ValueError(
                f"ramp power {self.p_f} gives a discontinuous second "
                "derivative at the threshold; need p_f >= 3"
            )
        if self.p_f < 1:
            raise ValueError(f"ramp power must be >= 1, got {self.p_f}")

    @property
    def smooth(self) -> bool:
        return self.p_f >= 3


def _excess(nl: Nonlinearity, u) -> np.ndarray:
    """(u - M)+ elementwise; long double stays long double, the rest is
    evaluated in float64."""
    arr = np.asarray(u)
    if arr.dtype != np.longdouble:
        arr = arr.astype(float)
    one = arr.dtype.type
    return np.maximum(arr - one(nl.M), one(0.0))


def ramp_values(nl: Nonlinearity, u) -> np.ndarray:
    """f alone, ((u - M)+)^p_f, for array u of any shape.

    The residual needs no derivatives; this is the f of eval_nonlinearity
    without computing f' and f'' alongside it. The integer power is taken
    by repeated multiplication: the generic power routine (powl for long
    double) costs several times as much, and at p_f = 3 the two agreed bit
    for bit on every long-double sample tested.
    """
    r = _excess(nl, u)
    f = r.copy()
    for _ in range(nl.p_f - 1):
        f *= r
    return f


def _slope(r: np.ndarray, p: int) -> np.ndarray:
    return p * r ** (p - 1)


def ramp_slope(nl: Nonlinearity, u) -> np.ndarray:
    """f' alone, p_f ((u - M)+)^(p_f - 1), for array u of any shape: all the
    linearization needs, without computing f and f'' alongside it."""
    return _slope(_excess(nl, u), nl.p_f)


def _curvature(r: np.ndarray, p: int) -> np.ndarray:
    # zero below p = 2, where the power formula would give 0 * inf at r = 0
    return p * (p - 1) * r ** (p - 2) if p >= 2 else np.zeros_like(r)


def ramp_curvature(nl: Nonlinearity, u) -> np.ndarray:
    """f'' alone, p_f (p_f - 1) ((u - M)+)^(p_f - 2), for array u of any
    shape: what the extended systems' test-function derivative needs."""
    return _curvature(_excess(nl, u), nl.p_f)


def eval_nonlinearity(nl: Nonlinearity, u):
    """f, f', f'' of the ramp at u (scalar or array, evaluated elementwise).

    Long-double input is evaluated in long double (the Newton working
    precision); everything else goes through float64.
    """
    r = _excess(nl, u)
    p = nl.p_f
    f = r**p
    fp = _slope(r, p)
    fpp = _curvature(r, p)
    if np.isscalar(u):
        return float(f), float(fp), float(fpp)
    return f, fp, fpp


@dataclass(frozen=True)
class HarvestSpec:
    """Named harvest profile with a positive scale factor.

    Profiles on (0, length): "bump" is x(1-x)^2 (scaled to unit length),
    "constant" is 1, "sine" is the first Dirichlet eigenfunction shape
    sin(pi x / length). "constant" and "sine" are negative fixtures: both
    are symmetric about the midpoint, so they are orthogonal to the second
    eigenfunction and fail hypothesis (c). Every CLI command but
    check-hypotheses refuses them unless run with --force.
    """

    profile: str = "bump"
    scale: float = 1.0

    def __post_init__(self):
        if self.profile not in HARVEST_PROFILES:
            raise ValueError(
                f"unknown harvest profile {self.profile!r}; "
                f"choose one of {HARVEST_PROFILES}"
            )
        if not (self.scale > 0) or not np.isfinite(self.scale):
            raise ValueError(f"harvest scale must be positive, got {self.scale}")

    def build(self, domain: DiscreteDomain) -> DiscreteField:
        s = domain.nodes / domain.length
        if self.profile == "bump":
            vals = s * (1.0 - s) ** 2
        elif self.profile == "constant":
            vals = np.ones_like(s)
        else:
            vals = np.sin(np.pi * s)
        return DiscreteField(domain, self.scale * vals)


def critical_cap(nl: Nonlinearity, a: float) -> float:
    """Positive root K of a*K = f(K), i.e. the cap on steady states.

    Closed form for M = 0 (K = a^(1/(p-1))); otherwise bracketing plus a
    Newton polish, landing the residual a*K - f(K) below 1e-12.
    """
    if not (a > 0):
        raise ValueError(f"growth rate must be positive, got {a}")
    p = nl.p_f
    if nl.M == 0.0:
        if p == 1:
            raise ModelError("a*K = K has no isolated positive root")
        return float(a ** (1.0 / (p - 1)))

    def g(k):
        return a * k - (k - nl.M) ** p

    # g(M) = a*M > 0 and g decreases like -K^p for large K
    hi = nl.M + max(1.0, a) ** (1.0 / (p - 1)) + nl.M
    for _ in range(200):
        if g(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ModelError("no positive cap root found; f fails superlinearity")
    k = brentq(g, nl.M, hi, xtol=1e-14, rtol=8.9e-16)
    for _ in range(3):
        slope = a - p * (k - nl.M) ** (p - 1)
        if slope == 0.0:
            break
        k -= g(k) / slope
    return float(k)


@dataclass(frozen=True)
class HypothesisCheck:
    label: str
    passed: bool
    witness: float
    description: str


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the admissibility checks on (f, h, grid).

    Labels follow the usual lettering for this problem class: (i)-(iv) are
    the structure and growth conditions on f, (a)/(b)/(b')/(c) the harvest
    conditions, (alpha) the simplicity of the second eigenvalue. (b'') is
    the weaker positivity alternative and is reported but not required.
    """

    checks: tuple[HypothesisCheck, ...]
    sample_span: float

    _REQUIRED = ("i", "ii", "iii", "iv", "a", "b", "b_prime", "c", "alpha")

    def __getitem__(self, label: str) -> HypothesisCheck:
        for chk in self.checks:
            if chk.label == label:
                return chk
        raise KeyError(label)

    @property
    def satisfied(self) -> bool:
        return all(self[label].passed for label in self._REQUIRED)

    @property
    def failures(self) -> list[str]:
        return [c.label for c in self.checks if not c.passed]

    @property
    def witnesses(self) -> dict[str, float]:
        return {c.label: c.witness for c in self.checks}

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            out.append(f"({c.label:8s}) {status}  witness={c.witness: .6e}  {c.description}")
        return out


def check_hypotheses(
    nl: Nonlinearity,
    hs: HarvestSpec,
    domain: DiscreteDomain,
    a: float | None = None,
) -> HypothesisReport:
    """Verify the admissibility hypotheses numerically and report witnesses.

    The u-sample window for the pointwise f checks spans [-2K, 2K] where K is
    the cap at the supplied growth rate a; when a is omitted the second
    Dirichlet eigenvalue of the grid is used, which is the regime the rest of
    the toolkit revolves around.
    """
    if a is None:
        a = dirichlet_eigenvalue_exact(domain, 2)
    cap = critical_cap(nl, a)
    span = 2.0 * max(cap, nl.M + 1.0)
    u = np.linspace(-span, span, 2001)
    f, fp, fpp = eval_nonlinearity(nl, u)

    checks = []

    # (i) C^2 regularity of the ramp: needs p_f >= 3 so f'' is continuous
    checks.append(
        HypothesisCheck(
            "i",
            nl.smooth,
            float(nl.p_f),
            "f twice continuously differentiable (ramp power >= 3)",
        )
    )

    # (ii) f vanishes up to the threshold and is positive beyond it
    below = u <= nl.M
    above = u > nl.M
    max_below = float(np.max(np.abs(f[below]))) if below.any() else 0.0
    min_above = float(np.min(f[above])) if above.any() else np.inf
    checks.append(
        HypothesisCheck(
            "ii",
            max_below == 0.0 and min_above > 0.0,
            min_above,
            "f = 0 for u <= M and f > 0 for u > M (sampled)",
        )
    )

    # (iii) convexity
    min_fpp = float(np.min(fpp))
    checks.append(
        HypothesisCheck("iii", min_fpp >= 0.0, min_fpp, "f'' >= 0 (sampled)")
    )

    # (iv) superlinear growth, finite-sample proxy at u = 1e3
    f_big = eval_nonlinearity(nl, 1e3)[0]
    ratio = f_big / 1e3
    checks.append(
        HypothesisCheck(
            "iv", ratio > 1e3, ratio, "f(u)/u large at u = 1e3 (superlinearity proxy)"
        )
    )

    h = hs.build(domain)
    hv = h.values
    checks.append(
        HypothesisCheck(
            "a",
            bool(np.all(np.isfinite(hv)) and np.max(np.abs(hv)) > 0),
            float(np.max(np.abs(hv))),
            "harvest profile bounded and not identically zero",
        )
    )
    min_h = float(np.min(hv))
    checks.append(
        HypothesisCheck("b", min_h >= 0.0, min_h, "h >= 0 at all nodes")
    )
    checks.append(
        HypothesisCheck(
            "b_prime", min_h > 0.0, min_h, "h > 0 at all interior nodes"
        )
    )

    pairs = laplacian_eigenpairs(domain, 3, harvest=h)
    phi, psi = pairs[0].eigenfunction, pairs[1].eigenfunction
    h_phi = domain.inner(hv, phi.values)
    checks.append(
        HypothesisCheck(
            "b_dprime",
            h_phi > 0.0,
            h_phi,
            "weaker alternative: harvest-weighted first eigenfunction integral positive",
        )
    )
    h_psi = domain.inner(hv, psi.values)
    checks.append(
        HypothesisCheck(
            "c",
            abs(h_psi) > 1e-8,
            h_psi,
            "harvest not orthogonal to the second eigenfunction",
        )
    )
    gap = pairs[2].eigenvalue - pairs[1].eigenvalue
    checks.append(
        HypothesisCheck(
            "alpha", gap > 1e-6, gap, "second eigenvalue simple (gap to the third)"
        )
    )

    return HypothesisReport(tuple(checks), span)
