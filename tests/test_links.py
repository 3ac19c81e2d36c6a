"""Element flow laws: values, derivatives, conductances, quadrature checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import airnet as an
from airnet.links import DP_LIN_DEFAULT
from helpers import oracle_opening_quadrature

# Independent ideal-gas oracle: 101325 Pa, M = 0.028966 kg/mol, R = 8.314.
IDEAL_GAS = lambda t: 101325.0 * 0.028966 / (8.314 * t)


# ---------------------------------------------------------------------------
# air density


def test_air_density_by_construction():
    assert an.air_density(353.05) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("temp, expected", [(300.0, 1.17683), (273.15, 1.29251)])
def test_air_density_matches_ideal_gas(temp, expected):
    value = an.air_density(temp)
    assert value == pytest.approx(expected, abs=5e-6)
    assert value == pytest.approx(IDEAL_GAS(temp), rel=2e-4)


def test_air_density_domain_error():
    with pytest.raises(ValueError):
        an.air_density(0.0)
    with pytest.raises(ValueError):
        an.air_density(-10.0)


# ---------------------------------------------------------------------------
# cracks


def test_crack_flow_values():
    assert an.crack_flow(1.0, 0.65, 1.0) == pytest.approx(1.0)
    assert an.crack_flow(0.01, 0.5, 4.0) == pytest.approx(0.02)
    assert an.crack_flow(0.01, 0.5, -4.0) == pytest.approx(-0.02)
    assert an.crack_flow(1.0, 0.65, 0.0) == 0.0


def test_crack_derivative_values():
    assert an.crack_derivative(0.01, 0.5, 4.0) == pytest.approx(0.0025)
    assert an.crack_derivative(1.0, 0.65, 0.0) == pytest.approx(DP_LIN_DEFAULT ** (-0.35))


def test_crack_conductance_values():
    g = an.crack_conductance(0.01, 0.5, 4.0)
    assert g == pytest.approx(0.005)
    assert g * 4.0 == pytest.approx(an.crack_flow(0.01, 0.5, 4.0))
    assert an.crack_conductance(1.0, 1.0, 17.3) == pytest.approx(1.0)
    assert an.crack_conductance(1.0, 1.0, 0.0) == pytest.approx(1.0)
    assert an.crack_conductance(1.0, 0.65, 0.0) == pytest.approx(DP_LIN_DEFAULT ** (-0.35))


@given(
    k=st.floats(1e-4, 1.0),
    n=st.floats(0.5, 1.0),
    dp=st.floats(-100.0, 100.0),
)
def test_crack_flow_is_odd(k, n, dp):
    assert an.crack_flow(k, n, -dp) == pytest.approx(-an.crack_flow(k, n, dp), rel=1e-12)


@given(
    k=st.floats(1e-4, 1.0),
    n=st.floats(0.5, 1.0),
    dp_low=st.floats(-50.0, 50.0),
    bump=st.floats(1e-6, 10.0),
)
def test_crack_flow_is_monotone(k, n, dp_low, bump):
    assert an.crack_flow(k, n, dp_low + bump) > an.crack_flow(k, n, dp_low)


@given(k=st.floats(1e-4, 1.0), n=st.floats(0.5, 1.0))
def test_crack_flow_continuous_at_breakpoint(k, n):
    eps = 1e-12
    at = an.crack_flow(k, n, DP_LIN_DEFAULT)
    assert an.crack_flow(k, n, DP_LIN_DEFAULT - eps) == pytest.approx(at, rel=1e-6)
    assert an.crack_flow(k, n, DP_LIN_DEFAULT + eps) == pytest.approx(at, rel=1e-6)


@given(
    k=st.floats(1e-4, 1.0),
    n=st.floats(0.5, 1.0),
    dp=st.floats(-80.0, 80.0),
)
def test_crack_conductance_identity(k, n, dp):
    # G * dp reproduces the flow exactly, in both regions.
    assert an.crack_conductance(k, n, dp) * dp == pytest.approx(
        an.crack_flow(k, n, dp), rel=1e-12, abs=1e-15
    )


def test_crack_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        k = 10 ** rng.uniform(-3, 0)
        n = rng.uniform(0.5, 1.0)
        dp = rng.uniform(-60, 60)
        if abs(abs(dp) - DP_LIN_DEFAULT) < 2 * DP_LIN_DEFAULT:  # skip breakpoints
            continue
        h = max(1e-7, 1e-7 * abs(dp))
        if abs(dp) > DP_LIN_DEFAULT and abs(dp) - h < DP_LIN_DEFAULT:
            continue
        fd = (an.crack_flow(k, n, dp + h) - an.crack_flow(k, n, dp - h)) / (2 * h)
        assert an.crack_derivative(k, n, dp) == pytest.approx(fd, rel=1e-5)
        assert an.crack_derivative(k, n, dp) > 0
        checked += 1


@pytest.mark.parametrize("law", [an.crack_flow, an.crack_derivative, an.crack_conductance])
def test_crack_laws_on_arrays_match_the_float_form_exactly(law):
    rng = np.random.default_rng(9)
    k = 10 ** rng.uniform(-3, 0, 400)
    n = rng.uniform(0.5, 1.0, 400)
    dp = rng.uniform(-60, 60, 400) * rng.choice([1.0, 1e-5, 0.0], 400)
    for dp_lin in (DP_LIN_DEFAULT, 0.3):
        values = law(k, n, dp, dp_lin)
        expected = [law(*args, dp_lin) for args in zip(k.tolist(), n.tolist(), dp.tolist())]
        assert values.tolist() == expected
        # one exponent for every crack
        assert law(k, 0.65, dp, dp_lin).tolist() == [
            law(a, 0.65, b, dp_lin) for a, b in zip(k.tolist(), dp.tolist())
        ]


# ---------------------------------------------------------------------------
# large openings


def test_opening_no_driving_force():
    tw = an.large_opening_flow(1.0, 1.0, 0.6, 1.2, 1.2, 0.0)
    assert tw.flow_forward == 0.0
    assert tw.flow_reverse == 0.0
    assert tw.neutral_height is None


def test_opening_equal_density_orifice():
    tw = an.large_opening_flow(1.0, 1.0, 0.6, 1.2, 1.2, 1.0)
    assert tw.flow_forward == pytest.approx(0.6 * math.sqrt(2.4), rel=1e-9)  # 0.92952
    assert tw.flow_forward == pytest.approx(0.92952, abs=1e-5)
    assert tw.flow_reverse == 0.0


def test_opening_components_nonnegative_and_neutral_in_range():
    rng = np.random.default_rng(11)
    for _ in range(300):
        w, h = rng.uniform(0.4, 2.5), rng.uniform(0.5, 2.5)
        cd = rng.uniform(0.3, 1.0)
        rho_f, rho_t = 353.05 / rng.uniform(250, 350), 353.05 / rng.uniform(250, 350)
        tw = an.large_opening_flow(w, h, cd, rho_f, rho_t, rng.uniform(-8, 8))
        assert tw.flow_forward >= 0.0
        assert tw.flow_reverse >= 0.0
        if tw.neutral_height is not None:
            assert 0.0 <= tw.neutral_height <= h


def test_opening_matches_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(400):
        w, h = rng.uniform(0.4, 2.5), rng.uniform(0.5, 2.5)
        cd = rng.uniform(0.3, 1.0)
        rho_f, rho_t = 353.05 / rng.uniform(250, 350), 353.05 / rng.uniform(250, 350)
        dp = float(rng.uniform(0.01, 8.0) * rng.choice([-1.0, 1.0]))
        tw = an.large_opening_flow(w, h, cd, rho_f, rho_t, dp)
        fwd, rev = oracle_opening_quadrature(w, h, cd, rho_f, rho_t, dp)
        scale = max(abs(fwd), abs(rev), 1e-12)
        assert abs(tw.flow_forward - fwd) / scale < 1e-4
        assert abs(tw.flow_reverse - rev) / scale < 1e-4


def test_opening_net_monotone_in_dp():
    rng = np.random.default_rng(3)
    for _ in range(100):
        rho_f, rho_t = 353.05 / rng.uniform(260, 340), 353.05 / rng.uniform(260, 340)
        dps = np.sort(rng.uniform(-6, 6, size=8))
        nets = [an.large_opening_flow(1.2, 2.0, 0.6, rho_f, rho_t, d).net for d in dps]
        assert all(b >= a - 1e-12 for a, b in zip(nets, nets[1:]))


def balanced_components(width, height, cd, temp_from, temp_to):
    """Find dp_bottom with zero net flow; return the equal components."""
    rho_f, rho_t = an.air_density(temp_from), an.air_density(temp_to)

    def net(dp):
        return an.large_opening_flow(width, height, cd, rho_f, rho_t, dp).net

    lo, hi = -50.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if net(mid) > 0:
            hi = mid
        else:
            lo = mid
    tw = an.large_opening_flow(width, height, cd, rho_f, rho_t, 0.5 * (lo + hi))
    return tw


def test_opening_balanced_stack_coefficient():
    # Balanced two-way exchange at mean 300 K: flow = coeff * W * H^1.5 * sqrt(dT),
    # with coeff about 0.0434 from the closed form (within 20% of 0.04).
    tw = balanced_components(1.0, 1.0, 0.6, 350.0, 250.0)
    coeff = tw.flow_forward / (1.0 * 1.0 * math.sqrt(100.0))
    assert coeff == pytest.approx(0.0434, rel=0.01)
    assert abs(coeff / 0.04 - 1.0) < 0.20
    assert tw.flow_forward == pytest.approx(tw.flow_reverse, abs=1e-9)
    assert tw.neutral_height == pytest.approx(0.472, abs=5e-3)


def test_opening_derivative_equal_density_value():
    # d/d(dp) of cd*W*H*sqrt(2 rho dp) at dp = 4.
    d = an.large_opening_derivative(1.0, 1.0, 0.6, 1.2, 1.2, 4.0)
    assert d == pytest.approx(0.6 * math.sqrt(2 * 1.2) / (2 * math.sqrt(4.0)), rel=1e-9)
    assert d == pytest.approx(0.23238, abs=1e-5)


def test_opening_derivative_floor_is_finite():
    k_eq = 0.6 * 1.0 * 1.0 * math.sqrt(2 * 1.2)
    d = an.large_opening_derivative(1.0, 1.0, 0.6, 1.2, 1.2, 0.0)
    assert d == pytest.approx(k_eq * DP_LIN_DEFAULT ** (-0.5))
    assert math.isfinite(d)


def test_opening_derivative_matches_finite_difference():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 300:
        w, h = rng.uniform(0.4, 2.5), rng.uniform(0.5, 2.5)
        cd = rng.uniform(0.3, 1.0)
        rho_f, rho_t = 353.05 / rng.uniform(250, 350), 353.05 / rng.uniform(250, 350)
        dp = float(rng.uniform(-8, 8))
        gradient = an.GRAVITY * (rho_f - rho_t)
        p_bot, p_top = dp, dp - gradient * h
        # keep clear of floored edges and the linearization band
        if min(abs(p_bot), abs(p_top)) < 5 * DP_LIN_DEFAULT:
            continue
        dp_mid = dp - 0.5 * gradient * h
        if abs(dp_mid) < 5 * DP_LIN_DEFAULT:
            continue
        step = 1e-6 * max(1.0, abs(dp))
        up = an.large_opening_flow(w, h, cd, rho_f, rho_t, dp + step).net
        down = an.large_opening_flow(w, h, cd, rho_f, rho_t, dp - step).net
        fd = (up - down) / (2 * step)
        analytic = an.large_opening_derivative(w, h, cd, rho_f, rho_t, dp)
        assert analytic == pytest.approx(fd, rel=1e-5)
        assert analytic > 0
        checked += 1
