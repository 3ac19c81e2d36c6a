"""Element flow laws: values, derivatives, conductances, quadrature checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import airnet as an
from airnet.links import DP_LIN_DEFAULT
from helpers import oracle_opening_quadrature, reference_large_opening_derivative

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


def crack_star(k, n) -> an.Network:
    """Crack i joins an outdoor node to zone i at both nodes' reference
    height; with no wind its dp is exactly -p[i], and it is the only term of
    zone i's balance and of its diagonal matrix entries."""
    zones = tuple(an.Zone(f"z{i}", 293.15, 0.0, 0.0) for i in range(len(k)))
    out = an.ExternalNode("out", 0.0, (0.5,) * 8)
    links = tuple(
        an.Link(f"c{i}", "out", f"z{i}", 0.0, an.Crack(k=a, n=b))
        for i, (a, b) in enumerate(zip(k, n))
    )
    return an.Network(zones=zones, external_nodes=(out,), links=links)


@pytest.mark.parametrize("law", [an.crack_flow, an.crack_derivative, an.crack_conductance])
def test_crack_laws_on_arrays_match_the_float_form_exactly(law):
    # The compiled network evaluates every crack at once, in arrays; each
    # value the residual, the Jacobian, the Picard system and the link flows
    # read has the bits of the float law.
    rng = np.random.default_rng(9)
    size = 400
    k = (10 ** rng.uniform(-3, 0, size)).tolist()
    n = rng.uniform(0.5, 1.0, size).tolist()
    net = crack_star(k, n)
    bc = an.BoundaryState(0.0, 0.0, 283.15)
    for dp_lin in (DP_LIN_DEFAULT, 0.3):
        # -0.0 reaches a crack as 0.0: 0.0 - p gives no negative zero.
        edges = [0.0, -0.0, dp_lin, -dp_lin]
        edges += [math.nextafter(dp_lin, 0.0), math.nextafter(dp_lin, math.inf)]
        edges += [math.nextafter(-dp_lin, 0.0), math.nextafter(-dp_lin, -math.inf)]
        dp = rng.uniform(-60, 60, size) * rng.choice([1.0, 1e-5, 0.0], size)
        dp[: len(edges)] = edges
        p = 0.0 - dp
        dp = (0.0 - p).tolist()
        assembled = {
            an.crack_flow: [
                an.residual(net, p, bc, dp_lin),
                [flow.net for flow in an.link_flows(net, p, bc, dp_lin).values()],
            ],
            an.crack_derivative: [-np.diag(an.jacobian(net, p, bc, dp_lin))],
            an.crack_conductance: [-np.diag(an.picard_system(net, p, bc, dp_lin).matrix)],
        }
        expected = [law(*args, dp_lin) for args in zip(k, n, dp)]
        for values in assembled[law]:
            assert np.asarray(values).tolist() == expected


@pytest.mark.parametrize("outdoor_dt", [0.0, 1e-3])
def test_opening_mid_height_conductance_matches_the_float_form_at_the_band_edges(outdoor_dt):
    # Picard takes each opening as one orifice at its mid-height, a member of
    # the crack pass; its conductance has the bits of crack_conductance at
    # k = cd*W*H*sqrt(2*rho_mean) and n = 1/2, on both sides of each band edge.
    # For each edge i, a door joins zone a_i to zone b_i, of equal density,
    # and one joins zone c_i to a facade; for each nonzero edge, one joins
    # zone d_i to zone e_i, 1 mK warmer, a law opening whose k `boundary`
    # sets, as it does the facade doors'.  Every reference height is a door's
    # mid-height and there is no wind, so each mid-height dp is exactly p[a_i],
    # p[c_i] or p[d_i].  A density difference puts the neutral plane at the
    # mid-height when dp is 0 there, where Picard refuses the door, and just
    # off it elsewhere, as the edges are far above 1 mK's stack pressure.  An
    # outdoor temperature 1 mK off the zones' makes the facade doors' mean
    # density depend on the outdoor air, so only the nonzero edges are taken.
    rng = np.random.default_rng(19)
    zone_t = 293.15
    bc = an.BoundaryState(0.0, 0.0, zone_t + outdoor_dt)
    rho_out = an.air_density(bc.outdoor_temp_k)
    for dp_lin in (DP_LIN_DEFAULT, 0.3):
        edges = [dp_lin, -dp_lin]
        edges += [math.nextafter(dp_lin, 0.0), math.nextafter(dp_lin, math.inf)]
        edges += [math.nextafter(-dp_lin, 0.0), math.nextafter(-dp_lin, -math.inf)]
        if not outdoor_dt:
            edges += [0.0, -0.0]
        m = len(edges)
        width, height = rng.uniform(0.3, 2.0, m).tolist(), rng.uniform(0.2, 2.5, m).tolist()
        cd, pair_t = rng.uniform(0.5, 0.8, m).tolist(), rng.uniform(250.0, 310.0, m).tolist()
        zones, facades, links = [], [], []
        for i in range(m):
            mid, door = 0.5 * height[i], an.LargeOpening(width[i], height[i], cd=cd[i])
            zones += [an.Zone(f"a{i}", pair_t[i], mid), an.Zone(f"b{i}", pair_t[i], mid)]
            zones.append(an.Zone(f"c{i}", zone_t, mid))
            facades.append(an.ExternalNode(f"out{i}", mid, (0.5,) * 8))
            links += [an.Link(f"ab{i}", f"a{i}", f"b{i}", 0.0, door)]
            links += [an.Link(f"co{i}", f"c{i}", f"out{i}", 0.0, door)]
        warmer = [i for i, dp_mid in enumerate(edges) if dp_mid]
        for i in warmer:
            mid, door = 0.5 * height[i], an.LargeOpening(width[i], height[i], cd=cd[i])
            zones += [an.Zone(f"d{i}", pair_t[i], mid), an.Zone(f"e{i}", pair_t[i] + 1e-3, mid)]
            links += [an.Link(f"de{i}", f"d{i}", f"e{i}", 0.0, door)]
        net = an.Network(zones=tuple(zones), external_nodes=tuple(facades), links=tuple(links))
        p = np.zeros(len(zones))
        p[0 : 3 * m : 3], p[2 : 3 * m : 3] = edges, edges  # zones a_i and c_i
        p[3 * m :: 2] = [edges[i] for i in warmer]  # zones d_i
        conductances = -np.diag(an.picard_system(net, p, bc, dp_lin).matrix)
        for i, dp_mid in enumerate(edges):
            k = cd[i] * width[i] * height[i]
            rho = an.air_density(pair_t[i])
            pair = an.crack_conductance(k * math.sqrt(2.0 * (0.5 * (rho + rho))), 0.5, dp_mid, dp_lin)
            rho_mean = 0.5 * (an.air_density(zone_t) + rho_out)
            facade = an.crack_conductance(k * math.sqrt(2.0 * rho_mean), 0.5, dp_mid, dp_lin)
            expected = [pair, pair, facade]  # zones a_i, b_i, c_i
            assert conductances[3 * i : 3 * i + 3].tolist() == expected
        for j, i in enumerate(warmer):
            k = cd[i] * width[i] * height[i]
            rho_mean = 0.5 * (an.air_density(pair_t[i]) + an.air_density(pair_t[i] + 1e-3))
            warm = an.crack_conductance(k * math.sqrt(2.0 * rho_mean), 0.5, edges[i], dp_lin)
            assert conductances[3 * m + 2 * j : 3 * m + 2 * j + 2].tolist() == [warm, warm]


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


def opening_branch(width, height, cd, rho_from, rho_to, dp, dp_lin):
    """Which branch of the opening law a state takes, and whether a stratified
    state has an edge pressure below dp_lin."""
    gradient = an.GRAVITY * (rho_from - rho_to)
    dp_mid = dp - 0.5 * gradient * height
    if math.isnan(dp):
        return "nan", False
    if gradient == 0.0:
        return ("dp_mid zero" if dp_mid == 0.0 else "equal densities"), False
    if abs(gradient) * height <= 1e-6 * abs(dp_mid):
        return "stratification band", False
    p_top = dp - gradient * height
    small_edge = min(abs(dp), abs(p_top)) < dp_lin
    if 0.0 < dp / gradient < height:
        return ("two-way, p_bot > 0" if dp > 0.0 else "two-way, p_bot < 0"), small_edge
    return ("one-way forward" if dp >= 0.0 and p_top >= 0.0 else "one-way reverse"), small_edge


@pytest.mark.parametrize("dp_lin", [DP_LIN_DEFAULT, 0.05])
def test_opening_derivative_is_the_reference_bit_for_bit(dp_lin):
    # The law returns its derivative with its flows; that value must be the
    # separately written derivative's, bit for bit, on every branch.
    rng = np.random.default_rng(97)
    seen = set()
    for _ in range(400):
        w, h, cd = rng.uniform(0.3, 2.5), rng.uniform(0.4, 2.6), rng.uniform(0.25, 1.0)
        rho_f, rho_t = (353.05 / rng.uniform(250.0, 350.0, 2)).tolist()
        gradient = an.GRAVITY * (rho_f - rho_t)
        sign = float(rng.choice([-1.0, 1.0]))
        states = [
            (rho_f, rho_f, sign * rng.uniform(0.0, 8.0)),
            (rho_f, rho_f, sign * 0.0),
            (rho_f, rho_f * (1.0 + rng.uniform(-1e-9, 1e-9)), sign * rng.uniform(1.0, 8.0)),
            (rho_f, rho_t, rng.uniform(0.02, 0.98) * h * gradient),
            (rho_t, rho_f, -rng.uniform(0.02, 0.98) * h * gradient),
            (rho_f, rho_t, rng.choice([-1.0, 2.0]) * rng.uniform(0.05, 3.0) * h * gradient),
            (rho_f, rho_t, rng.uniform(-1.0, 1.0) * dp_lin),
            (rho_f, rho_t, gradient * h + rng.uniform(-1.0, 1.0) * dp_lin),
            (rho_f, rho_t, math.nan),
        ]
        for rho_a, rho_b, dp in states:
            args = (w, h, cd, rho_a, rho_b, float(dp), dp_lin)
            branch, small_edge = opening_branch(*args)
            seen.add(branch)
            if small_edge:
                seen.add("edge below dp_lin")
            derivative = an.large_opening_flow(*args).derivative
            assert derivative.hex() == reference_large_opening_derivative(*args).hex()
            assert math.isnan(derivative) == (branch == "nan")
    assert seen == {
        "equal densities",
        "dp_mid zero",
        "stratification band",
        "two-way, p_bot > 0",
        "two-way, p_bot < 0",
        "one-way forward",
        "one-way reverse",
        "edge below dp_lin",
        "nan",
    }
