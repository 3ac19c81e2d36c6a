"""System assembly: boundary pressures, stack terms, residual, Jacobian, Picard."""

import math

import numpy as np
import pytest

import airnet as an
from helpers import oracle_link_dp, oracle_residual, random_boundary, random_crack_network

G = 9.81


def uniform_cp_node(node_id, cp_value, ref=0.0):
    return an.ExternalNode(node_id, ref, (cp_value,) * 8)


def single_zone_two_cracks(k=0.01, n=0.65, temp=282.44):
    """Zone between a cp=0.64 facade and a cp=0 facade, all heights equal."""
    return an.Network(
        zones=(an.Zone("room", temp, 0.0),),
        external_nodes=(uniform_cp_node("hi", 0.64), uniform_cp_node("lo", 0.0)),
        links=(
            an.Link("in", "hi", "room", 0.0, an.Crack(k, n)),
            an.Link("out", "room", "lo", 0.0, an.Crack(k, n)),
        ),
    )


# ---------------------------------------------------------------------------
# boundary pressure


def test_boundary_pressure_zero_wind():
    node = uniform_cp_node("n", 0.8)
    assert an.boundary_pressure(node, an.BoundaryState(0.0, 123.0, 290.0)) == 0.0


def test_boundary_pressure_uniform_cp():
    node = uniform_cp_node("n", 0.8)
    bc = an.BoundaryState(5.0, 77.0, 293.15)
    expected = 0.5 * (353.05 / 293.15) * 0.8 * 25.0
    value = an.boundary_pressure(node, bc)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(12.0433, abs=1e-3)


def test_boundary_pressure_sector_interpolation_midpoint():
    cp = (0.4, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    node = an.ExternalNode("n", 0.0, cp)
    bc = an.BoundaryState(5.0, 22.5, 293.15)  # halfway between sectors 0 and 1
    rho = 353.05 / 293.15
    assert an.boundary_pressure(node, bc) == pytest.approx(0.5 * rho * 0.6 * 25.0, rel=1e-12)


def test_boundary_pressure_direction_wraps():
    cp = (0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8)
    node = an.ExternalNode("n", 0.0, cp)
    bc = an.BoundaryState(5.0, 337.5, 293.15)  # halfway between sectors 7 and 0
    rho = 353.05 / 293.15
    assert an.boundary_pressure(node, bc) == pytest.approx(0.5 * rho * 0.6 * 25.0, rel=1e-12)


def test_boundary_state_normalizes_direction():
    assert an.BoundaryState(1.0, 405.0, 290.0).wind_direction_deg == pytest.approx(45.0)
    with pytest.raises(ValueError):
        an.BoundaryState(-1.0, 0.0, 290.0)


@pytest.mark.parametrize(
    "fields", [(math.nan, 0.0, 290.0), (1.0, math.inf, 290.0), (1.0, 0.0, math.nan)]
)
def test_boundary_state_rejects_non_finite(fields):
    # `nan < 0` is False, so a NaN wind speed used to pass the range check.
    with pytest.raises(ValueError):
        an.BoundaryState(*fields)


# ---------------------------------------------------------------------------
# link pressure differences

# A crack with k = 1 and n = 1 carries flow == dp exactly, so link_flows reads
# the pressure difference across it at its elevation.


def test_link_dp_stack_terms_cancel():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("b", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.0),),
        links=(
            an.Link("ab", "a", "b", 7.0, an.Crack(1.0, 1.0)),
            an.Link("ao", "out", "a", 0.0, an.Crack(0.01, 0.6)),
        ),
    )
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    dp = an.link_flows(net, np.array([5.0, 0.0]), bc)["ab"].flow
    assert dp == pytest.approx(5.0, rel=1e-12)


def test_link_dp_buoyancy_only():
    net = an.Network(
        zones=(an.Zone("warm", 300.0, 0.0), an.Zone("cold", 250.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.0),),
        links=(
            an.Link("wc", "warm", "cold", 2.0, an.Crack(1.0, 1.0)),
            an.Link("wo", "out", "warm", 0.0, an.Crack(0.01, 0.6)),
        ),
    )
    bc = an.BoundaryState(0.0, 0.0, 290.0)
    dp = an.link_flows(net, np.array([3.0, 3.0]), bc)["wc"].flow
    expected = -G * 2.0 * (353.05 / 300.0 - 353.05 / 250.0)
    assert dp == pytest.approx(expected, rel=1e-12)
    assert dp == pytest.approx(4.618, abs=2e-3)


def test_link_dp_at_reference_heights_is_plain_difference():
    rng = np.random.default_rng(2)
    net = an.Network(
        zones=(an.Zone("a", 299.0, 1.3), an.Zone("b", 277.0, 1.3)),
        external_nodes=(uniform_cp_node("out", 0.0, ref=1.3),),
        links=(
            an.Link("ab", "a", "b", 1.3, an.Crack(1.0, 1.0)),
            an.Link("ao", "out", "a", 1.3, an.Crack(0.01, 0.6)),
        ),
    )
    bc = an.BoundaryState(0.0, 0.0, 280.0)
    p = rng.uniform(-5, 5, 2)
    assert an.link_flows(net, p, bc)["ab"].flow == pytest.approx(p[0] - p[1], rel=1e-12)


# ---------------------------------------------------------------------------
# residual


def test_residual_symmetric_zone_is_zero():
    net = single_zone_two_cracks()
    bc = an.BoundaryState(5.0, 0.0, 282.44)  # facade pressures 10 and 0
    assert an.residual(net, np.array([5.0]), bc)[0] == pytest.approx(0.0, abs=1e-12)


def test_residual_fan_only_network_independent_of_p():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0),),
        external_nodes=(uniform_cp_node("out", 0.3),),
        links=(an.Link("f", "out", "a", 0.0, an.Fan(0.05)),),
    )
    bc = an.BoundaryState(3.0, 10.0, 290.0)
    r1 = an.residual(net, np.array([0.0]), bc)
    r2 = an.residual(net, np.array([123.0]), bc)
    assert r1[0] == pytest.approx(0.05)
    assert r1[0] == r2[0]


def test_residual_includes_mech_flow():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0, mech_flow_kg_s=-0.02),),
        external_nodes=(uniform_cp_node("out", 0.0),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.65)),),
    )
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    # At p = 0 the crack carries nothing, so the balance is just the extract.
    assert an.residual(net, np.array([0.0]), bc)[0] == pytest.approx(-0.02)


def test_residual_matches_independent_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        p = rng.uniform(-15, 15, len(net.zones))
        ours = an.residual(net, p, bc)
        oracle = oracle_residual(net, p, bc)
        assert np.allclose(ours, oracle, rtol=1e-9, atol=1e-12)


def test_internal_links_conserve_mass():
    # Total residual equals boundary-crossing flows plus mechanical flows:
    # zone-to-zone links cancel in the sum.
    rng = np.random.default_rng(29)
    for _ in range(20):
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        p = rng.uniform(-10, 10, len(net.zones))
        flows = an.link_flows(net, p, bc)
        zone_ids = {z.id for z in net.zones}
        boundary_total = 0.0
        for link in net.links:
            into_zone = link.to_node in zone_ids
            from_zone = link.from_node in zone_ids
            if into_zone and not from_zone:
                boundary_total += flows[link.id].flow
            elif from_zone and not into_zone:
                boundary_total -= flows[link.id].flow
        mech_total = sum(z.mech_flow_kg_s for z in net.zones)
        assert an.residual(net, p, bc).sum() == pytest.approx(
            boundary_total + mech_total, abs=1e-12
        )


# ---------------------------------------------------------------------------
# Jacobian


def test_jacobian_linear_cracks_single_zone():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0),),
        external_nodes=(uniform_cp_node("hi", 0.5), uniform_cp_node("lo", 0.0)),
        links=(
            an.Link("c1", "hi", "a", 0.0, an.Crack(0.03, 1.0)),
            an.Link("c2", "a", "lo", 0.0, an.Crack(0.07, 1.0)),
        ),
    )
    bc = an.BoundaryState(4.0, 0.0, 293.0)
    jac = an.jacobian(net, np.array([1.0]), bc)
    assert jac[0, 0] == pytest.approx(-(0.03 + 0.07), rel=1e-12)


def test_jacobian_two_zone_internal_link_rows_sum_to_zero():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("b", 290.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.0),),
        links=(an.Link("ab", "a", "b", 1.0, an.Crack(0.02, 0.7)),),
    )
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    jac = an.jacobian(net, np.array([3.0, -1.0]), bc)
    assert np.allclose(jac.sum(axis=1), 0.0, atol=1e-15)
    assert jac[0, 0] < 0 and jac[1, 1] < 0
    assert jac[0, 1] == pytest.approx(-jac[0, 0])


def test_jacobian_diagonal_negative_fan_contributes_zero():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    bc = an.BoundaryState(4.0, 45.0, 297.0)
    p = np.linspace(-2, 2, len(net.zones))
    jac = an.jacobian(net, p, bc)
    assert np.all(np.diag(jac) < 0)
    fan_only = an.Network(
        zones=net.zones,
        external_nodes=net.external_nodes,
        links=tuple(l for l in net.links if isinstance(l.model, an.Fan)),
    )
    assert np.allclose(an.jacobian(fan_only, p, bc), 0.0)


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 60:
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        p = rng.uniform(-20, 20, len(net.zones))
        if any(abs(oracle_link_dp(net, l, p, bc)[0]) < 5e-3 for l in net.links):
            continue
        jac = an.jacobian(net, p, bc)
        step = 1e-5
        for j in range(len(p)):
            offset = np.zeros_like(p)
            offset[j] = step
            fd = (an.residual(net, p + offset, bc) - an.residual(net, p - offset, bc)) / (2 * step)
            scale = np.maximum(np.abs(fd), 1e-8)
            assert np.all(np.abs(jac[:, j] - fd) / scale < 1e-5)
        checked += 1


# ---------------------------------------------------------------------------
# Picard system


def test_picard_system_linear_network_solves_in_one_step():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("b", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("hi", 0.64), uniform_cp_node("lo", 0.0)),
        links=(
            an.Link("c1", "hi", "a", 0.0, an.Crack(1.0, 1.0)),
            an.Link("c2", "a", "b", 0.0, an.Crack(1.0, 1.0)),
            an.Link("c3", "b", "lo", 0.0, an.Crack(1.0, 1.0)),
        ),
    )
    bc = an.BoundaryState(5.0, 0.0, 282.44)  # hi facade at 10 Pa
    p0 = np.zeros(2)
    system = an.picard_system(net, p0, bc)
    jac = an.jacobian(net, p0, bc)
    assert np.allclose(system.matrix, jac, rtol=1e-12)  # n = 1: same pattern
    report = an.lu_solve(system.matrix, system.rhs)
    assert np.allclose(report.solution, [20.0 / 3.0, 10.0 / 3.0], rtol=1e-12)
    assert np.allclose(an.residual(net, report.solution, bc), 0.0, atol=1e-12)


def test_picard_system_single_zone_fixed_point():
    net = single_zone_two_cracks(k=0.01, n=0.5)
    bc = an.BoundaryState(5.0, 0.0, 282.44)
    p = np.array([5.0])
    system = an.picard_system(net, p, bc)
    conductance = 0.01 * 5.0 ** (-0.5)
    assert system.matrix[0, 0] == pytest.approx(-2 * conductance, rel=1e-9)
    report = an.lu_solve(system.matrix, system.rhs)
    assert report.solution[0] == pytest.approx(5.0, rel=1e-9)


def test_picard_system_isolated_zone_singular_row():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.3),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    bc = an.BoundaryState(2.0, 0.0, 290.0)
    system = an.picard_system(net, np.zeros(2), bc)
    assert np.allclose(system.matrix[1], 0.0)
    assert an.lu_solve(system.matrix, system.rhs).singular


def test_picard_system_reciprocal_flow_raises():
    net = an.load_network(an.bundled_example_path("iea_door"))
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    with pytest.raises(an.ReciprocalFlowError) as err:
        an.picard_system(net, np.zeros(2), bc)
    assert err.value.link_id == "door"


def test_picard_fixed_point_matches_newton_root():
    # Substituting the Newton solution into the Picard system and solving
    # once must not move the pressures (crack-only networks).
    rng = np.random.default_rng(211)
    for _ in range(15):
        net = random_crack_network(rng, int(rng.integers(2, 5)))
        bc = random_boundary(rng)
        cfg = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)
        solution = an.solve(net, bc, None, "WM", cfg).pressures
        system = an.picard_system(net, solution, bc)
        report = an.lu_solve(system.matrix, system.rhs)
        assert not report.singular
        assert np.max(np.abs(report.solution - solution)) < 1e-6
