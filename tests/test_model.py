import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifurcate.grid import build_grid
from bifurcate.model import (
    HarvestSpec,
    ModelError,
    Nonlinearity,
    check_hypotheses,
    critical_cap,
    eval_nonlinearity,
    ramp_curvature,
    ramp_values,
)

CANONICAL = Nonlinearity(M=0.2, p_f=3)


@pytest.mark.parametrize(
    "nl, u, expected",
    [
        (CANONICAL, 0.1, (0.0, 0.0, 0.0)),
        (CANONICAL, 2.2, (8.0, 12.0, 12.0)),
        (Nonlinearity(M=0.0, p_f=3), -1.0, (0.0, 0.0, 0.0)),
    ],
)
def test_ramp_pointwise_values(nl, u, expected):
    assert eval_nonlinearity(nl, u) == pytest.approx(expected, abs=1e-14)


def test_ramp_vectorized():
    u = np.array([-3.0, 0.2, 1.2])
    f, fp, fpp = eval_nonlinearity(CANONICAL, u)
    assert np.allclose(f, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(fp, [0.0, 0.0, 3.0], atol=1e-14)
    assert np.allclose(fpp, [0.0, 0.0, 6.0], atol=1e-14)


def _long_double_samples():
    rng = np.random.default_rng(17)
    return rng.uniform(-1.0, 6.0, (64, 399)).astype(np.longdouble)


def test_ramp_values_bit_identical_to_power_at_cubic():
    """Repeated multiplication gives np.power's long-double result bit for
    bit at the default p_f = 3."""
    nl = Nonlinearity(M=0.2, p_f=3)
    u = _long_double_samples()
    r = np.maximum(u - np.longdouble(0.2), np.longdouble(0.0))
    out = ramp_values(nl, u)
    assert out.dtype == np.longdouble
    assert np.array_equal(out, np.power(r, 3))


@pytest.mark.parametrize("p", [4, 5, 6])
def test_ramp_values_within_a_few_ulps_of_power(p):
    """Higher powers round once per multiplication, so they may differ from
    np.power in the last bits, but by no more than p ulps."""
    nl = Nonlinearity(M=0.2, p_f=p)
    u = _long_double_samples()
    r = np.maximum(u - np.longdouble(0.2), np.longdouble(0.0))
    ref = np.power(r, p)
    out = ramp_values(nl, u)
    assert np.all(np.abs(out - ref) <= p * np.spacing(ref))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_ramp_curvature_bit_identical_to_eval_nonlinearity(p, dtype):
    """f'' alone equals eval_nonlinearity's f'' bit for bit, which is the
    power formula from p_f = 2 on and zero below, where the formula would
    give 0 * inf at the threshold."""
    nl = Nonlinearity(M=0.2, p_f=p, validate=False)
    u = _long_double_samples().astype(dtype)
    u[:, 0] = 0.2  # exactly at the threshold
    out = ramp_curvature(nl, u)
    assert out.dtype == dtype
    assert np.array_equal(out, eval_nonlinearity(nl, u)[2])
    r = np.maximum(u - dtype(0.2), dtype(0.0))
    expected = p * (p - 1) * r ** (p - 2) if p >= 2 else np.zeros_like(r)
    assert np.array_equal(out, expected)


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        Nonlinearity(M=-0.1, p_f=3)
    with pytest.raises(ValueError):
        Nonlinearity(M=0.2, p_f=2)
    with pytest.raises(ValueError):
        Nonlinearity(M=0.2, p_f=3.5)
    # escape hatch so the checker can describe a bad power
    rough = Nonlinearity(M=0.2, p_f=2, validate=False)
    assert not rough.smooth


def test_critical_cap_closed_forms():
    assert critical_cap(Nonlinearity(M=0.0, p_f=3), 20.0) == pytest.approx(
        np.sqrt(20.0), abs=1e-13
    )
    assert critical_cap(Nonlinearity(M=0.0, p_f=3), np.pi**2) == pytest.approx(
        np.pi, abs=1e-13
    )


def test_critical_cap_canonical():
    k = critical_cap(CANONICAL, 20.0)
    # root of 20K = (K - 0.2)^3, cross-checked at 30 digits
    assert k == pytest.approx(4.768968282689069, abs=1e-12)
    assert k > np.sqrt(20.0)
    assert abs(20.0 * k - eval_nonlinearity(CANONICAL, k)[0]) <= 1e-12


def test_critical_cap_second_family():
    nl = Nonlinearity(M=0.5, p_f=4)
    k = critical_cap(nl, 10.0)
    assert k == pytest.approx(2.8004110540084635, abs=1e-12)


def test_critical_cap_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        critical_cap(CANONICAL, 0.0)
    with pytest.raises(ValueError):
        critical_cap(CANONICAL, -3.0)


def test_critical_cap_flags_missing_root():
    lin = Nonlinearity(M=0.0, p_f=1, validate=False)
    with pytest.raises(ModelError):
        critical_cap(lin, 2.0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=2.0),
    p=st.integers(min_value=3, max_value=7),
    a=st.floats(min_value=1e-2, max_value=1e3),
)
def test_critical_cap_residual_property(m, p, a):
    nl = Nonlinearity(M=m, p_f=p)
    k = critical_cap(nl, a)
    assert k > 0
    residual = a * k - eval_nonlinearity(nl, k)[0]
    assert abs(residual) <= 1e-12 * max(1.0, a * k)


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=2.0),
    p=st.integers(min_value=3, max_value=7),
    u1=st.floats(min_value=-5.0, max_value=8.0),
    u2=st.floats(min_value=-5.0, max_value=8.0),
)
def test_ramp_derivative_monotone(m, p, u1, u2):
    lo, hi = sorted((u1, u2))
    nl = Nonlinearity(M=m, p_f=p)
    assert eval_nonlinearity(nl, lo)[1] <= eval_nonlinearity(nl, hi)[1] + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=2.0),
    p=st.integers(min_value=3, max_value=7),
    u=st.floats(min_value=0.0, max_value=10.0),
)
def test_ramp_superposition_inequality(m, p, u):
    # f'(u) u - f(u) >= 0 for u >= 0: the convexity surplus the stability
    # arguments lean on
    nl = Nonlinearity(M=m, p_f=p)
    f, fp, _ = eval_nonlinearity(nl, u)
    assert fp * u - f >= -1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=2.0),
    p=st.integers(min_value=3, max_value=7),
    u1=st.floats(min_value=1e-3, max_value=10.0),
    du=st.floats(min_value=1e-3, max_value=5.0),
)
def test_ramp_ratio_increasing_above_threshold(m, p, u1, du):
    nl = Nonlinearity(M=m, p_f=p)
    lo = m + u1
    hi = lo + du
    r_lo = eval_nonlinearity(nl, lo)[0] / lo
    r_hi = eval_nonlinearity(nl, hi)[0] / hi
    assert r_hi >= r_lo - 1e-12


def test_harvest_profiles(domain):
    x = domain.nodes
    bump = HarvestSpec("bump").build(domain)
    assert np.allclose(bump.values, x * (1 - x) ** 2, atol=0)
    const = HarvestSpec("constant", scale=2.5).build(domain)
    assert np.all(const.values == 2.5)
    sine = HarvestSpec("sine").build(domain)
    assert np.allclose(sine.values, np.sin(np.pi * x), atol=1e-15)


def test_harvest_profile_respects_domain_length():
    dom = build_grid(19, 2.0)
    bump = HarvestSpec("bump").build(dom)
    s = dom.nodes / 2.0
    assert np.allclose(bump.values, s * (1 - s) ** 2, atol=1e-15)


def test_harvest_validation():
    with pytest.raises(ValueError):
        HarvestSpec("parabola")
    with pytest.raises(ValueError):
        HarvestSpec("bump", scale=0.0)
    with pytest.raises(ValueError):
        HarvestSpec("bump", scale=-1.0)


def test_check_hypotheses_canonical(domain):
    report = check_hypotheses(CANONICAL, HarvestSpec("bump"), domain)
    assert report.satisfied
    assert report.failures == []
    w = report.witnesses
    assert w["c"] == pytest.approx(-3.0 / (4 * np.pi**3), abs=1e-10)
    assert w["b_dprime"] == pytest.approx(2.0 / np.pi**3, abs=1e-10)
    assert w["alpha"] == pytest.approx(
        88.82233023982288 - 39.477605868608435, rel=1e-10
    )
    assert report["b_dprime"].passed  # advisory check also true here


def test_check_hypotheses_sine_harvest_fails_c(domain):
    report = check_hypotheses(CANONICAL, HarvestSpec("sine"), domain)
    assert not report.satisfied
    assert report.failures == ["c"]
    assert abs(report.witnesses["c"]) <= 1e-8


def test_check_hypotheses_constant_harvest(domain):
    # h = 1 is positive but integrates the full-period second mode to zero,
    # so it trips the same non-orthogonality check as the sine profile
    report = check_hypotheses(CANONICAL, HarvestSpec("constant"), domain)
    assert report["b"].passed and report["b_prime"].passed
    assert report.failures == ["c"]


def test_check_hypotheses_rough_power(domain):
    rough = Nonlinearity(M=0.2, p_f=2, validate=False)
    report = check_hypotheses(rough, HarvestSpec("bump"), domain)
    assert not report.satisfied
    assert "i" in report.failures


def test_report_lines_and_lookup(domain):
    report = check_hypotheses(CANONICAL, HarvestSpec("bump"), domain)
    assert len(report.lines()) == len(report.checks)
    assert any("pass" in line for line in report.lines())
    with pytest.raises(KeyError):
        report["zeta"]
