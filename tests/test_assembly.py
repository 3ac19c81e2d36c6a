"""System assembly: boundary pressures, stack terms, residual, Jacobian, Picard."""

import copy
import dataclasses
import itertools
import math
import pickle
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import airnet as an
from airnet.assembly import ReciprocalFlowError, picard_system
from airnet.linalg import lu_solve
from airnet.scenario import boundary_from_record
from helpers import (
    hex_fields,
    loop_assembly,
    many_openings_network,
    matches_the_loop,
    oracle_link_dp,
    oracle_residual,
    random_boundary,
    random_crack_network,
    random_open_building,
)

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


def wind_pressure(node, bc):
    """The package's wind pressure at node, read as the residual of one zone
    at 0 Pa fed by a k = 1, n = 1 crack from the node, all at the node's
    reference height: that crack's flow is the node's pressure, to the bit."""
    ref = node.ref_height_m
    net = an.Network(
        zones=(an.Zone("room", 293.15, ref),),
        external_nodes=(node,),
        links=(an.Link("c", node.id, "room", ref, an.Crack(1.0, 1.0)),),
    )
    return float(an.residual(net, np.zeros(1), bc)[0])


def test_boundary_pressure_zero_wind():
    node = uniform_cp_node("n", 0.8)
    assert wind_pressure(node, an.BoundaryState(0.0, 123.0, 290.0)) == 0.0


def test_boundary_pressure_uniform_cp():
    node = uniform_cp_node("n", 0.8)
    bc = an.BoundaryState(5.0, 77.0, 293.15)
    expected = 0.5 * (353.05 / 293.15) * 0.8 * 25.0
    value = wind_pressure(node, bc)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(12.0433, abs=1e-3)


def test_boundary_pressure_sector_interpolation_midpoint():
    cp = (0.4, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    node = an.ExternalNode("n", 0.0, cp)
    bc = an.BoundaryState(5.0, 22.5, 293.15)  # halfway between sectors 0 and 1
    rho = 353.05 / 293.15
    assert wind_pressure(node, bc) == pytest.approx(0.5 * rho * 0.6 * 25.0, rel=1e-12)


def test_boundary_pressure_direction_wraps():
    cp = (0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8)
    node = an.ExternalNode("n", 0.0, cp)
    bc = an.BoundaryState(5.0, 337.5, 293.15)  # halfway between sectors 7 and 0
    rho = 353.05 / 293.15
    assert wind_pressure(node, bc) == pytest.approx(0.5 * rho * 0.6 * 25.0, rel=1e-12)


def test_boundary_state_normalizes_direction():
    assert an.BoundaryState(1.0, 405.0, 290.0).wind_direction_deg == pytest.approx(45.0)
    # -1e-20 % 360.0 rounds to 360.0, outside [0, 360).
    assert an.BoundaryState(3.0, -1e-20, 290.0).wind_direction_deg == 0.0
    with pytest.raises(ValueError):
        an.BoundaryState(-1.0, 0.0, 290.0)


@pytest.mark.parametrize(
    "fields", [(math.nan, 0.0, 290.0), (1.0, math.inf, 290.0), (1.0, 0.0, math.nan)]
)
def test_boundary_state_rejects_non_finite(fields):
    # `nan < 0` is False, so a NaN wind speed used to pass the range check.
    with pytest.raises(ValueError):
        an.BoundaryState(*fields)


@pytest.mark.parametrize("value", [True, False, np.True_, "1", None], ids=repr)
@pytest.mark.parametrize("index", [0, 1, 2], ids=["wind_speed", "wind_direction_deg", "outdoor_temp_k"])
def test_boundary_state_refuses_a_field_that_is_not_a_number(index, value):
    # True is the number 1 to Python: BoundaryState(True, 0, 300) was solved
    # as a 1 m/s wind.
    fields = [1.0, 0.0, 290.0]
    fields[index] = value
    name = ("wind_speed", "wind_direction_deg", "outdoor_temp_k")[index]
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {re.escape(repr(value))}$"):
        an.BoundaryState(*fields)


def test_boundary_state_reports_its_first_bad_field():
    # Each field is checked in turn, so a negative wind speed is reported
    # before a non-finite direction.
    with pytest.raises(ValueError, match=r"^wind speed must be >= 0, got -1\.0$"):
        an.BoundaryState(-1.0, math.nan, 290.0)
    with pytest.raises(ValueError, match="^non-finite wind_direction_deg: nan$"):
        an.BoundaryState(1.0, math.nan, -1.0)
    with pytest.raises(ValueError, match=r"^outdoor temperature must be > 0 K, got -1\.0$"):
        an.BoundaryState(1.0, 0.0, -1.0)
    assert an.BoundaryState(np.float64(2.0), np.int64(90), 290).wind_speed == 2.0


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
    dp = an.link_flows(net, np.array([5.0, 0.0]), bc)["ab"].net
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
    dp = an.link_flows(net, np.array([3.0, 3.0]), bc)["wc"].net
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
    assert an.link_flows(net, p, bc)["ab"].net == pytest.approx(p[0] - p[1], rel=1e-12)


def test_a_zero_flow_is_split_into_two_positive_zeros():
    # At rest no link carries flow, and no record has a -0.0 component: not a
    # crack's, an orifice's, nor a fan's of +0.0 or -0.0 kg/s.
    net = an.Network(
        zones=(an.Zone("a", 293.15, 0.0), an.Zone("b", 293.15, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.5),),
        links=(
            an.Link("crack", "out", "a", 0.0, an.Crack(0.01, 0.65)),
            an.Link("door", "a", "b", 0.0, an.LargeOpening(0.8, 2.0)),
            an.Link("fan", "out", "b", 1.0, an.Fan(0.0)),
            an.Link("negative_fan", "b", "out", 1.0, an.Fan(-0.0)),
        ),
    )
    bc = an.BoundaryState(0.0, 0.0, 293.15)
    flows = an.link_flows(net, np.zeros(2), bc)
    assert list(flows) == ["crack", "door", "fan", "negative_fan"]
    for flow in flows.values():
        assert [math.copysign(1.0, v) for v in flow[:2]] == [1.0, 1.0], flow


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
                boundary_total += flows[link.id].net
            elif from_zone and not into_zone:
                boundary_total -= flows[link.id].net
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


def picard_step(net, p, bc):
    """The undamped Picard update at p, -A(p)^-1 F(p), or None where the
    secant matrix is singular."""
    report = lu_solve(picard_system(net, p, bc), an.residual(net, p, bc))
    return None if report.singular else -report.solution


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
    matrix = picard_system(net, p0, bc)
    jac = an.jacobian(net, p0, bc)
    assert np.allclose(matrix, jac, rtol=1e-12)  # n = 1: same pattern
    solution = p0 + picard_step(net, p0, bc)
    assert np.allclose(solution, [20.0 / 3.0, 10.0 / 3.0], rtol=1e-12)
    assert np.allclose(an.residual(net, solution, bc), 0.0, atol=1e-12)


def test_picard_system_single_zone_fixed_point():
    net = single_zone_two_cracks(k=0.01, n=0.5)
    bc = an.BoundaryState(5.0, 0.0, 282.44)
    p = np.array([5.0])
    matrix = picard_system(net, p, bc)
    conductance = 0.01 * 5.0 ** (-0.5)
    assert matrix[0, 0] == pytest.approx(-2 * conductance, rel=1e-9)
    assert (p + picard_step(net, p, bc))[0] == pytest.approx(5.0, rel=1e-9)


def test_picard_system_isolated_zone_singular_row():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.3),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    bc = an.BoundaryState(2.0, 0.0, 290.0)
    matrix = picard_system(net, np.zeros(2), bc)
    assert np.allclose(matrix[1], 0.0)
    assert picard_step(net, np.zeros(2), bc) is None


def test_picard_system_reciprocal_flow_raises():
    net = an.load_network(an.bundled_example_path("iea_door"))
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    with pytest.raises(ReciprocalFlowError) as err:
        picard_system(net, np.zeros(2), bc)
    assert err.value.link_id == "door"
    assert str(err.value) == "link 'door' carries reciprocal (two-way) flow"


def test_reciprocal_flow_error_survives_pickle_and_copy():
    # BaseException would re-create it from its message, taken for a link id.
    err = ReciprocalFlowError("door")
    err.step = 17  # a caller's own attribute rides along
    for again in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
        assert type(again) is ReciprocalFlowError
        assert again.link_id == "door"
        assert str(again) == str(err) and again.args == err.args
        assert again.step == 17


def test_picard_fixed_point_matches_newton_root():
    # One Picard step from a Newton root must not move the pressures: the
    # step is taken from the residual, so this holds on crack-only networks
    # and on open buildings wherever no opening carries two-way flow.
    rng = np.random.default_rng(211)
    cfg = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)
    for _ in range(15):
        net = random_crack_network(rng, int(rng.integers(2, 5)))
        bc = random_boundary(rng)
        solution = an.solve(net, bc, None, "WM", cfg).pressures
        assert np.max(np.abs(picard_step(net, solution, bc))) < 1e-6
    checked = 0
    for i in range(40):
        net = random_open_building(np.random.default_rng(i)).net
        boundaries = np.random.default_rng(5)
        for _ in range(5):
            bc = random_boundary(boundaries)
            solution = an.solve(net, bc, None, "WM", cfg).pressures
            try:
                step = picard_step(net, solution, bc)
            except ReciprocalFlowError:
                continue
            assert np.max(np.abs(step)) <= 1e-9, (i, bc)
            checked += 1
    assert checked >= 1  # 3 of the 200 roots: two of building 12, one of 30


# ---------------------------------------------------------------------------
# mixed networks and the compiled form


def mixed_network(with_door=True):
    """Cracks, a stratified door, a fan and a mechanical extract, with links
    both into and out of zones at the facade, and types interleaved in link
    order."""
    links = [
        an.Link("na", "n", "a", 0.4, an.Crack(0.008, 0.65)),
        an.Link("door", "a", "b", 0.0, an.LargeOpening(0.9, 2.1)),
        an.Link("bs", "b", "s", 2.0, an.Crack(0.005, 0.6)),
        an.Link("fan", "s", "c", 3.5, an.Fan(0.003)),
        an.Link("bc", "b", "c", 2.6, an.Crack(0.004, 0.7)),
        an.Link("cn", "c", "n", 5.0, an.Crack(0.006, 0.55)),
        an.Link("ac", "a", "c", 2.8, an.Crack(0.002, 0.8)),
    ]
    if not with_door:
        links = [l for l in links if l.id != "door"]
    net = an.Network(
        zones=(
            an.Zone("a", 296.0, 1.2, mech_flow_kg_s=-0.004),
            an.Zone("b", 288.0, 1.2),
            an.Zone("c", 292.0, 4.0),
        ),
        external_nodes=(
            an.ExternalNode("n", 0.5, (0.6, 0.4, -0.2, -0.5, -0.6, -0.5, -0.2, 0.4)),
            an.ExternalNode("s", 3.0, (-0.5, -0.2, 0.4, 0.6, 0.4, -0.2, -0.5, -0.6)),
        ),
        links=tuple(links),
    )
    assert an.validate(net) == []
    return net


def facade_windows_network():
    """Two zones at 297 K and 301 K with a window from the facade into one and
    a window from the other out to the facade, a door between them, a crack
    and a fan.  A window's law arguments and Picard orifice k take the
    outdoor density, so they change with the weather, unlike the door's."""
    links = [
        an.Link("win_in", "n", "a", 0.9, an.LargeOpening(0.8, 1.0)),
        an.Link("door", "a", "b", 0.0, an.LargeOpening(0.9, 2.1)),
        an.Link("crack", "a", "s", 1.5, an.Crack(0.005, 0.65)),
        an.Link("win_out", "b", "s", 1.2, an.LargeOpening(0.6, 0.5, cd=0.65)),
        an.Link("fan", "n", "b", 2.5, an.Fan(0.002)),
    ]
    net = an.Network(
        zones=(an.Zone("a", 297.0, 0.0), an.Zone("b", 301.0, 0.5)),
        external_nodes=(
            an.ExternalNode("n", 0.5, (0.6, 0.4, -0.2, -0.5, -0.6, -0.5, -0.2, 0.4)),
            an.ExternalNode("s", 3.0, (-0.5, -0.2, 0.4, 0.6, 0.4, -0.2, -0.5, -0.6)),
        ),
        links=tuple(links),
    )
    assert an.validate(net) == []
    return net


def door_edges(net, p, bc):
    """Pressure difference at the bottom and top edge of the door."""
    door = next(l for l in net.links if l.id == "door")
    dp, rho_from, rho_to = oracle_link_dp(net, door, p, bc)
    return dp, dp - G * (rho_from - rho_to) * door.model.height_m


def test_mixed_network_residual_matches_independent_oracle():
    net = mixed_network()
    rng = np.random.default_rng(5)
    two_way = 0
    for _ in range(30):
        bc = random_boundary(rng)
        p = rng.uniform(-8, 8, len(net.zones))
        ours = an.residual(net, p, bc)
        assert np.allclose(ours, oracle_residual(net, p, bc), rtol=1e-7, atol=1e-12)
        bottom, top = door_edges(net, p, bc)
        two_way += bottom * top < 0
    assert two_way > 0  # the two-way branch of the door law was exercised


def test_mixed_network_jacobian_matches_finite_difference():
    net = mixed_network()
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 30:
        bc = random_boundary(rng)
        p = rng.uniform(-8, 8, len(net.zones))
        # keep clear of linearization bands and floored opening edges
        if any(abs(oracle_link_dp(net, l, p, bc)[0]) < 5e-3 for l in net.links):
            continue
        if min(abs(edge) for edge in door_edges(net, p, bc)) < 5e-3:
            continue
        jac = an.jacobian(net, p, bc)
        step = 1e-6
        for j in range(len(p)):
            offset = np.zeros_like(p)
            offset[j] = step
            fd = (an.residual(net, p + offset, bc) - an.residual(net, p - offset, bc)) / (2 * step)
            scale = np.maximum(np.abs(fd), 1e-8)
            assert np.all(np.abs(jac[:, j] - fd) / scale < 1e-5)
        checked += 1


def test_mixed_network_picard_fixed_point_matches_newton_root():
    # Without the door the network is cracks, a fan and a mechanical flow,
    # whose constant terms the residual carries: a Newton root is a fixed
    # point.
    net = mixed_network(with_door=False)
    rng = np.random.default_rng(7)
    cfg = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)
    for _ in range(10):
        bc = random_boundary(rng)
        solution = an.solve(net, bc, None, "WM", cfg).pressures
        assert np.max(np.abs(picard_step(net, solution, bc))) < 1e-6


def assembled(net, p, bc):
    """Every assembly output at one state, as bytes, for exact comparison."""
    out = [an.residual(net, p, bc).tobytes(), an.jacobian(net, p, bc).tobytes()]
    try:
        out.append(picard_system(net, p, bc).tobytes())
    except ReciprocalFlowError as err:
        out.append(err.link_id)
    out.append(list(an.link_flows(net, p, bc).values()))
    return out


def evaluated(assemble, net, p, bc, dp_lin=an.DP_LIN_DEFAULT):
    """One assembly output at one state, comparable bit for bit."""
    try:
        out = assemble(net, p, bc, dp_lin)
    except ReciprocalFlowError as err:
        return err.link_id
    if isinstance(out, dict):
        return list(out.items())
    return out.tobytes()


def test_compiled_form_is_reused_without_going_stale():
    # One network object alternates between two boundaries, and two networks
    # are solved in turn; every answer equals the one a freshly built
    # network gives, bit for bit.
    builders = [
        mixed_network,
        facade_windows_network,
        lambda: an.load_network(an.bundled_example_path("dwelling5")),
    ]
    shared = [build() for build in builders]
    boundaries = [an.BoundaryState(4.0, 80.0, 280.0), an.BoundaryState(1.5, 250.0, 300.0)]
    rng = np.random.default_rng(8)
    for _ in range(3):
        for bc in boundaries:
            for net, build in zip(shared, builders):
                fresh = build()
                p = rng.uniform(-5, 5, len(net.zones))
                assert assembled(net, p, bc) == assembled(fresh, p, bc)
                # an equal but distinct boundary object gives the same answers
                copy = an.BoundaryState(bc.wind_speed, bc.wind_direction_deg, bc.outdoor_temp_k)
                assert assembled(net, p, copy) == assembled(fresh, p, bc)
                for strategy in an.STRATEGIES:
                    ours = an.solve(net, bc, None, strategy)
                    theirs = an.solve(fresh, bc, None, strategy)
                    assert ours.pressures.tobytes() == theirs.pressures.tobytes()
                    assert an.link_flows(net, ours.pressures, bc) == an.link_flows(
                        fresh, theirs.pressures, bc
                    )
                    assert ours.newton_iters == theirs.newton_iters
    # The links are kept evaluated at the last point asked about, and a call
    # at another point evaluates them afresh: p changed in place, another
    # dp_lin, an equal but distinct boundary.
    for net, build in zip(shared, builders):
        for bc in boundaries:
            copy = an.BoundaryState(bc.wind_speed, bc.wind_direction_deg, bc.outdoor_temp_k)
            for scale in (1.0, 1e-4):
                for assemble in (an.jacobian, picard_system, an.link_flows):
                    p = rng.uniform(-5, 5, len(net.zones)) * scale
                    an.residual(net, p, bc)
                    p[0] += scale
                    ours = evaluated(assemble, net, p, bc)
                    assert ours == evaluated(assemble, build(), p, bc)
                    an.residual(net, p, bc)
                    ours = evaluated(assemble, net, p, bc, 0.5)
                    assert ours == evaluated(assemble, build(), p, bc, 0.5)
                    an.residual(net, p, bc)
                    ours = evaluated(assemble, net, p, copy)
                    assert ours == evaluated(assemble, build(), p, copy)
    # The point is keyed by the pressures as float64: int64 [1, 0, ...] has
    # the bytes of float64 [5e-324, 0, ...] but is another point.
    for net, build in zip(shared, builders):
        tiny = np.zeros(len(net.zones))
        tiny[0] = 5e-324
        ones = np.zeros(len(net.zones), dtype=np.int64)
        ones[0] = 1
        assert ones.tobytes() == tiny.tobytes()
        for assemble in (an.residual, an.jacobian, picard_system, an.link_flows):
            an.residual(net, tiny, boundaries[0])
            ours = evaluated(assemble, net, ones, boundaries[0])
            assert ours == evaluated(assemble, build(), ones.astype(float), boundaries[0])


def solved(net, bc, strategy):
    out = an.solve(net, bc, None, strategy)
    return out.pressures.tobytes(), out.newton_iters, out.picard_iters_used


def day_of_jobs(step_minutes):
    """Every strategy at each step of one generated day."""
    return [
        (boundary_from_record(rec), strategy)
        for rec in an.generate_weather(days=1, step_minutes=step_minutes, seed=3)
        for strategy in an.STRATEGIES
    ]


def solved_in_threads(shared, jobs, count=6):
    """Each of `count` threads solves every job on the shared network, each
    starting at another job, with a thread switch about every microsecond."""
    threaded = [[None] * len(jobs) for _ in range(count)]

    def work(t):
        for i in range(len(jobs)):
            j = (i + 7 * t) % len(jobs)
            threaded[t][j] = solved(shared, *jobs[j])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    return threaded


def test_solves_share_one_network_across_threads():
    # Threads that share a network also share its compiled form, whose kept
    # boundary and point each get replaced whole; every solve equals a serial
    # solve on a network of its own, bit for bit.
    text = an.bundled_example_path("dwelling5").read_text()
    jobs = day_of_jobs(30)
    serial_net = an.parse_network(text)
    serial = [solved(serial_net, bc, strategy) for bc, strategy in jobs]
    threaded = solved_in_threads(an.parse_network(text), jobs)
    mismatches = sum(ours != theirs for row in threaded for ours, theirs in zip(row, serial))
    assert mismatches == 0


def test_facade_windows_keep_their_weather_across_threads():
    # A window's densities and Picard orifice k come with each boundary;
    # no thread may see another thread's weather in them.
    jobs = day_of_jobs(120)
    serial_net = facade_windows_network()
    serial = [solved(serial_net, bc, strategy) for bc, strategy in jobs]
    threaded = solved_in_threads(facade_windows_network(), jobs)
    assert all(row == serial for row in threaded)


def test_pressure_vector_must_have_one_entry_per_zone():
    net = mixed_network()
    bc = an.BoundaryState(2.0, 0.0, 290.0)
    for p in (np.zeros(2), np.zeros(4)):
        for assemble in (an.residual, an.jacobian, picard_system, an.link_flows):
            with pytest.raises(ValueError, match=f"^{len(p)} pressures given for 3 zones$"):
                assemble(net, p, bc)


@pytest.mark.parametrize(
    "p", [np.zeros((3, 1)), np.zeros((1, 3)), 0.0], ids=["column", "row", "scalar"]
)
def test_pressures_of_another_shape_are_refused_by_their_shape(p):
    net = mixed_network()
    bc = an.BoundaryState(2.0, 0.0, 290.0)
    message = "^" + re.escape(f"pressures of shape {np.shape(p)} given for 3 zones") + "$"
    with pytest.raises(ValueError, match=message):
        an.residual(net, p, bc)
    for strategy in an.STRATEGIES:
        with pytest.raises(ValueError, match=message):
            an.solve(net, bc, p, strategy)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3)], ids=["column", "row"])
def test_pressures_of_another_shape_are_refused_at_the_kept_point(shape):
    # The kept point is keyed by the pressures' bytes, which a column or row
    # of the same entries shares; the shape is refused all the same.
    net = mixed_network()
    bc = an.BoundaryState(2.0, 0.0, 290.0)
    p = np.array([1.0, -2.0, 0.5])
    message = "^" + re.escape(f"pressures of shape {shape} given for 3 zones") + "$"
    for assemble in (an.residual, an.jacobian, picard_system, an.link_flows):
        an.residual(net, p, bc)
        with pytest.raises(ValueError, match=message):
            assemble(net, p.reshape(shape), bc)


@pytest.mark.parametrize("dp_lin", [1e-3, 0.5])
def test_array_assembly_matches_the_link_loop_bit_for_bit(dp_lin):
    rng = np.random.default_rng(13)
    nets = [mixed_network(), mixed_network(with_door=False), many_openings_network()]
    nets.append(facade_windows_network())
    nets += [an.load_network(an.bundled_example_path(name)) for name in an.bundled_examples()]
    nets += [random_crack_network(rng) for _ in range(8)]
    reciprocal = 0
    for net in nets:
        for _ in range(6):
            bc = random_boundary(rng)
            p = rng.uniform(-10, 10, len(net.zones)) * rng.choice([1.0, 1e-4])
            reciprocal += matches_the_loop(net, p, bc, dp_lin)
    assert reciprocal > 0


def test_arrays_returned_at_a_point_are_the_callers_own():
    # A point keeps the row values the residual gathers and the slopes'
    # factors the Jacobian gathers from.  What the caller changes in place,
    # in any call's result, changes nothing a later call at the same point
    # returns, in any call order: a residual, a Jacobian and the link flows,
    # each at a miss and at a hit.
    rng = np.random.default_rng(17)
    nets = [mixed_network(), many_openings_network(), facade_windows_network()]
    nets.append(an.load_network(an.bundled_example_path("dwelling5")))
    spoilt = an.TwoWayFlow(math.nan, math.nan, math.nan, math.nan)
    for net in nets:
        bc = random_boundary(rng)
        p = rng.uniform(-10, 10, len(net.zones))
        loop = loop_assembly(net, p, bc)
        want_flows = {link_id: hex_fields(flow) for link_id, flow in loop.flows.items()}
        for order in itertools.permutations((an.jacobian, an.residual, an.link_flows)):
            at = dataclasses.replace(bc)  # a point of its own
            for assemble in order + order[::-1] + order:
                out = assemble(net, p, at)
                if assemble is an.link_flows:
                    assert {k: hex_fields(flow) for k, flow in out.items()} == want_flows
                    out.update(dict.fromkeys(out, spoilt))
                    continue
                want = loop.jacobian if assemble is an.jacobian else loop.residual
                assert out.tobytes() == want.tobytes()
                out.fill(math.nan)


# Each crack's max(|dp|, dp_lin) ** (n - 1) and ** n come from np.float_power,
# which must round as the float laws' C-library pow does: dp_lin's default and
# smallest value, draws up to 1e300, and the non-finite values.
POWER_BASES = np.concatenate((
    [1e-3, 5e-324, 1.0, 1e300, math.inf, math.nan],
    10.0 ** np.random.default_rng(5).uniform(-323.0, 300.0, 20000),
))


def assert_float_power_is_math_pow(n: float) -> None:
    exponents = np.array([[n - 1.0], [n]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = np.float_power(POWER_BASES, exponents)
    bases = POWER_BASES.tolist()
    theirs = np.array([[math.pow(b, e) for b in bases] for e in (n - 1.0, n)])
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("n", [0.5, 0.65, 1.0])
def test_float_power_is_the_c_library_pow(n):
    assert_float_power_is_math_pow(n)


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(n=st.floats(0.5, 1.0))
def test_float_power_is_the_c_library_pow_for_any_exponent(n):
    assert_float_power_is_math_pow(n)


def door_network(temp_b: float) -> an.Network:
    """Zone a at 296 K and zone b at temp_b, both referenced at the floor and
    joined by a door there, so the door's dp is exactly p_a - p_b; a crack
    joins each zone to the facade."""
    cp = (0.6, 0.4, -0.2, -0.5, -0.6, -0.5, -0.2, 0.4)
    net = an.Network(
        zones=(an.Zone("a", 296.0, 0.0), an.Zone("b", temp_b, 0.0)),
        external_nodes=(an.ExternalNode("n", 0.5, cp), an.ExternalNode("s", 3.0, cp[::-1])),
        links=(
            an.Link("na", "n", "a", 0.6, an.Crack(0.008, 0.65)),
            an.Link("door", "a", "b", 0.0, an.LargeOpening(0.9, 2.1)),
            an.Link("bs", "b", "s", 2.0, an.Crack(0.005, 0.6)),
        ),
    )
    assert an.validate(net) == []
    return net


# The door between zones of one temperature, and between zones one ulp apart,
# whose densities differ, so that its law sees a density difference.
DOOR_TEMPERATURES = {"equal": 296.0, "one ulp apart": math.nextafter(296.0, math.inf)}


@pytest.mark.parametrize("temps", DOOR_TEMPERATURES)
def test_only_an_opening_between_equal_densities_is_taken_as_a_crack(monkeypatch, temps):
    net = door_network(DOOR_TEMPERATURES[temps])
    equal = temps == "equal"
    rho_a, rho_b = (an.air_density(z.temperature_k) for z in net.zones)
    assert (rho_a == rho_b) == equal
    calls = []

    def law(*args):
        calls.append(args)
        return an.large_opening_flow(*args)

    monkeypatch.setattr(an.assembly, "large_opening_flow", law)
    bc = an.BoundaryState(3.0, 30.0, 283.0)
    p = np.array([0.5, -0.25])
    an.residual(net, p, bc)
    an.jacobian(net, p, bc)
    flows = an.link_flows(net, p, bc)
    assert len(calls) == (0 if equal else 1)
    # Flows on request are the law's for every opening, read from the point:
    # the equal-density door's from the crack pass, the other's from the
    # residual's call.
    assert flows["door"] == an.large_opening_flow(0.9, 2.1, 0.6, rho_a, rho_b, 0.75)


@pytest.mark.parametrize("dp_lin", [1e-3, 0.5])
@pytest.mark.parametrize("temps", DOOR_TEMPERATURES)
def test_door_between_equal_densities_matches_the_link_loop_at_its_edges(temps, dp_lin):
    # At zero, at both sides of the linear band's edges and at the extremes
    # of the door's dp, the crack pass gives what the opening law gives.
    net = door_network(DOOR_TEMPERATURES[temps])
    bc = an.BoundaryState(3.0, 30.0, 283.0)
    edges = [dp_lin, math.nextafter(dp_lin, 0.0), math.nextafter(dp_lin, math.inf)]
    for dp in [0.0] + [sign * x for x in edges + [1e-300, 1e300] for sign in (1.0, -1.0)]:
        p = np.array([dp, 0.0])
        assert p[0] - p[1] == dp
        matches_the_loop(net, p, bc, dp_lin)


@pytest.mark.parametrize(
    "direction",
    [45.0 * k for k in range(9)]
    + [math.nextafter(edge, side) for edge in (45.0, 360.0) for side in (0.0, 720.0)],
)
def test_boundary_terms_match_the_link_loop_at_sector_edges(direction):
    # Where int(direction / 45) changes, the wind pressure of every external
    # node must still be the one the loop's scalar formula gives it.
    rng = np.random.default_rng(31)
    nets = [mixed_network(), many_openings_network(), facade_windows_network()]
    nets.append(an.load_network(an.bundled_example_path("dwelling5")))
    for net in nets:
        bc = an.BoundaryState(5.0, direction, 287.0)
        p = rng.uniform(-10, 10, len(net.zones))
        loop = loop_assembly(net, p, bc)
        assert an.residual(net, p, bc).tobytes() == loop.residual.tobytes()
        picard = loop.picard if isinstance(loop.picard, str) else loop.picard[0].tobytes()
        assert evaluated(picard_system, net, p, bc) == picard
        assert an.link_flows(net, p, bc) == loop.flows
