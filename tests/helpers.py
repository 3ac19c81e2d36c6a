"""Shared test utilities: independent oracles and random network generation.

The oracles here deliberately re-derive everything from scratch (ideal-gas
density, hand-rolled stack pressures, numerical quadrature for openings) so
they can cross-check the library without sharing its code paths.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad

import airnet as an
from airnet.assembly import ReciprocalFlowError, picard_system
from airnet.links import crack_conductance, crack_derivative, crack_flow

G = 9.81
RHO_NUM = 353.05
DP_LIN = 1e-3


def oracle_density(temp_k: float) -> float:
    return RHO_NUM / temp_k


def oracle_cp(table, direction_deg: float) -> float:
    """Sector interpolation re-done with np.interp over wrapped centers."""
    xs = np.arange(0.0, 361.0, 45.0)
    ys = np.array(list(table) + [table[0]])
    return float(np.interp(direction_deg % 360.0, xs, ys))


def scalar_wind_pressure(node: an.ExternalNode, bc: an.BoundaryState) -> float:
    """Wind pressure at an external node, 0.5 * rho_out * Cp(dir) * v**2, one
    float operation at a time: Cp linearly interpolated between the two
    adjacent 45-degree sector centres.  The package computes every facade
    end's at once with the same operations, so the loop oracle, which calls
    this for each node, must match it bit for bit."""
    rho_out = an.air_density(bc.outdoor_temp_k)
    sector = bc.wind_direction_deg / 45.0
    base = int(sector) % 8
    frac = sector - int(sector)
    cp = node.cp[base] * (1.0 - frac) + node.cp[(base + 1) % 8] * frac
    return 0.5 * rho_out * cp * bc.wind_speed**2


def oracle_node_pressure(net: an.Network, bc: an.BoundaryState, node_id: str, z: float, p):
    """(pressure at elevation z, density) for either kind of node."""
    for i, zone in enumerate(net.zones):
        if zone.id == node_id:
            rho = oracle_density(zone.temperature_k)
            return p[i] - rho * G * (z - zone.ref_height_m), rho
    for node in net.external_nodes:
        if node.id == node_id:
            rho = oracle_density(bc.outdoor_temp_k)
            wind = 0.5 * rho * oracle_cp(node.cp, bc.wind_direction_deg) * bc.wind_speed**2
            return wind - rho * G * (z - node.ref_height_m), rho
    raise KeyError(node_id)


def oracle_opening_quadrature(width, height, cd, rho_from, rho_to, dp_bottom):
    """Forward/reverse opening flow by adaptive quadrature of the orifice law."""
    gradient = G * (rho_from - rho_to)

    def local_dp(z):
        return dp_bottom - gradient * z

    def forward(z):
        v = local_dp(z)
        return cd * width * math.sqrt(2.0 * rho_from * v) if v > 0 else 0.0

    def reverse(z):
        v = local_dp(z)
        return cd * width * math.sqrt(-2.0 * rho_to * v) if v < 0 else 0.0

    points = None
    if gradient != 0.0:
        z_neutral = dp_bottom / gradient
        if 0.0 < z_neutral < height:
            points = [z_neutral]
    fwd = quad(forward, 0.0, height, points=points, limit=200)[0]
    rev = quad(reverse, 0.0, height, points=points, limit=200)[0]
    return fwd, rev


def oracle_link_dp(net: an.Network, link: an.Link, p, bc: an.BoundaryState):
    """(pressure difference from minus to at the link elevation, rho_from, rho_to)."""
    p_from, rho_from = oracle_node_pressure(net, bc, link.from_node, link.elevation_m, p)
    p_to, rho_to = oracle_node_pressure(net, bc, link.to_node, link.elevation_m, p)
    return p_from - p_to, rho_from, rho_to


def oracle_link_flow(net: an.Network, link: an.Link, p, bc: an.BoundaryState) -> float:
    """Signed link flow recomputed from the documented model definitions."""
    dp, rho_from, rho_to = oracle_link_dp(net, link, p, bc)
    model = link.model
    if isinstance(model, an.Crack):
        if abs(dp) < DP_LIN:
            return model.k * DP_LIN ** (model.n - 1.0) * dp
        return math.copysign(model.k * abs(dp) ** model.n, dp)
    if isinstance(model, an.Fan):
        return model.flow_kg_s
    gradient = G * (rho_from - rho_to)
    dp_mid = dp - 0.5 * gradient * model.height_m
    if gradient == 0.0 or abs(gradient) * model.height_m <= 1e-6 * abs(dp_mid):
        # Documented degenerate form: equivalent orifice, linearized like a crack.
        rho_up = rho_from if dp_mid > 0 else rho_to
        k_eq = model.cd * model.width_m * model.height_m * math.sqrt(2.0 * rho_up)
        if abs(dp_mid) < DP_LIN:
            return k_eq * DP_LIN ** (-0.5) * dp_mid
        return math.copysign(k_eq * math.sqrt(abs(dp_mid)), dp_mid)
    fwd, rev = oracle_opening_quadrature(
        model.width_m, model.height_m, model.cd, rho_from, rho_to, dp
    )
    return fwd - rev


def oracle_residual(net: an.Network, p, bc: an.BoundaryState) -> np.ndarray:
    """Per-zone mass balance recomputed naively (quadrature for openings)."""
    out = []
    for zone in net.zones:
        total = zone.mech_flow_kg_s
        for link in net.links:
            if link.to_node == zone.id:
                total += oracle_link_flow(net, link, p, bc)
            elif link.from_node == zone.id:
                total -= oracle_link_flow(net, link, p, bc)
        out.append(total)
    return np.array(out)


def random_crack_network(rng: np.random.Generator, n_zones: int | None = None) -> an.Network:
    """Random reachable crack-only network with 2 external nodes."""
    n = int(n_zones if n_zones is not None else rng.integers(2, 7))
    zones = tuple(
        an.Zone(f"z{i}", float(rng.uniform(288, 303)), float(i * 2.7 + 1.35), 0.0)
        for i in range(n)
    )
    externals = tuple(
        an.ExternalNode(
            f"e{j}", float(rng.uniform(0, 3)), tuple(np.round(rng.uniform(-1, 1, 8), 3).tolist())
        )
        for j in range(2)
    )
    node_ids = [e.id for e in externals] + [z.id for z in zones]
    links: list[an.Link] = []

    def add(a: str, b: str) -> None:
        links.append(
            an.Link(
                f"L{len(links)}",
                a,
                b,
                float(rng.uniform(0, 8)),
                an.Crack(k=float(10 ** rng.uniform(-2.5, -1.3)), n=float(rng.uniform(0.5, 1.0))),
            )
        )

    add("e0", "z0")
    for i in range(1, n):
        add(str(rng.choice(node_ids[: 2 + i])), f"z{i}")
    for _ in range(n):
        a, b = rng.choice(node_ids, 2, replace=False)
        add(str(a), str(b))
    net = an.Network(zones=zones, external_nodes=externals, links=tuple(links))
    assert an.validate(net) == []
    return net


def many_openings_network():
    """Four large openings at different elevations and heights, the first
    listed before any crack and a fan between two of them.  Zones a, b and c
    share a temperature and differ in reference height, so the openings among
    them are orifices, never two-way, and the Picard system is built unless
    the one to d, the only one whose law sees a density difference, is
    two-way."""
    links = [
        an.Link("ab", "a", "b", 0.0, an.LargeOpening(0.9, 2.1)),
        an.Link("na", "n", "a", 0.6, an.Crack(0.008, 0.65)),
        an.Link("bc", "b", "c", 1.1, an.LargeOpening(0.6, 0.7, cd=0.65)),
        an.Link("fan", "s", "c", 1.5, an.Fan(0.004)),
        an.Link("ca", "c", "a", 2.4, an.LargeOpening(1.2, 0.4)),
        an.Link("cd", "c", "d", 0.5, an.LargeOpening(0.8, 2.0)),
        an.Link("bs", "b", "s", 2.0, an.Crack(0.005, 0.6)),
        an.Link("dn", "d", "n", 5.2, an.Crack(0.006, 0.55)),
        an.Link("ds", "d", "s", 4.1, an.Crack(0.004, 0.7)),
    ]
    net = an.Network(
        zones=(
            an.Zone("a", 293.0, 0.0),
            an.Zone("b", 293.0, 1.2),
            an.Zone("c", 293.0, 0.5, mech_flow_kg_s=-0.003),
            an.Zone("d", 303.0, 0.5),
        ),
        external_nodes=(
            an.ExternalNode("n", 0.5, (0.6, 0.4, -0.2, -0.5, -0.6, -0.5, -0.2, 0.4)),
            an.ExternalNode("s", 3.0, (-0.5, -0.2, 0.4, 0.6, 0.4, -0.2, -0.5, -0.6)),
        ),
        links=tuple(links),
    )
    assert an.validate(net) == []
    return net


class OpenBuilding(NamedTuple):
    net: an.Network
    bc: an.BoundaryState
    p: np.ndarray  # zone pressures that put a neutral plane inside each zone's first door


def random_open_building(rng: np.random.Generator) -> OpenBuilding:
    """A random building with doors, and a point at which they carry two-way flow.

    Two to five zones take their temperatures from three seeded values, so
    some doors join zones of equal density.  Each zone hangs on a door to a
    facade or to an earlier zone, and its pressure is set so that the door's
    neutral plane lies inside it whenever the two densities differ.  Every
    zone also has a facade crack; a few cracks and doors join random pairs,
    and one building in three has a fan.
    """
    n = int(rng.integers(2, 6))
    temps = np.round(rng.uniform(285.0, 305.0, 3), 2).tolist()
    zones = tuple(
        an.Zone(
            f"z{i}",
            float(rng.choice(temps)),
            round(float(rng.uniform(0.0, 6.0)), 2),
            float(rng.choice([0.0, 0.0, round(float(rng.uniform(-0.02, 0.02)), 4)])),
        )
        for i in range(n)
    )
    externals = tuple(
        an.ExternalNode(f"e{j}", 0.0, tuple(np.round(rng.uniform(-1, 1, 8), 3).tolist()))
        for j in range(2)
    )
    facades = [e.id for e in externals]
    bc = random_boundary(rng)
    rho_out = an.air_density(bc.outdoor_temp_k)
    # (density, reference height, pressure there) of each node placed so far
    known = {e.id: (rho_out, e.ref_height_m, scalar_wind_pressure(e, bc)) for e in externals}
    p = np.zeros(n)
    links: list[an.Link] = []

    def add(a: str, b: str, z: float, model) -> None:
        links.append(an.Link(f"L{len(links)}", a, b, z, model))

    def door(a: str, b: str, z: float) -> float:
        """Add a door from a to b at elevation z; its height."""
        height = round(float(rng.uniform(0.5, 2.5)), 2)
        add(a, b, z, an.LargeOpening(round(float(rng.uniform(0.5, 1.5)), 2), height))
        return height

    def crack(a: str, b: str) -> None:
        k, exponent = float(10 ** rng.uniform(-2.5, -1.5)), float(rng.uniform(0.5, 1.0))
        add(a, b, round(float(rng.uniform(0.0, 8.0)), 2), an.Crack(k, exponent))

    for i, zone in enumerate(zones):
        parent = str(rng.choice(facades + [z.id for z in zones[:i]]))
        z = round(float(rng.uniform(0.0, 6.0)), 2)
        height = door(parent, zone.id, z)
        rho_from, ref_from, base_from = known[parent]
        rho = an.air_density(zone.temperature_k)
        gradient = an.GRAVITY * (rho_from - rho)
        # dp at the bottom edge is gradient * (neutral height above it).
        if gradient:
            dp_bottom = gradient * rng.uniform(0.1, 0.9) * height
        else:
            dp_bottom = rng.uniform(-2.0, 2.0)
        from_z = base_from - rho_from * an.GRAVITY * (z - ref_from)
        p[i] = from_z - dp_bottom + rho * an.GRAVITY * (z - zone.ref_height_m)
        known[zone.id] = (rho, zone.ref_height_m, p[i])
        crack(str(rng.choice(facades)), zone.id)
    ids = facades + [z.id for z in zones]
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(ids, 2, replace=False).tolist()
        if rng.random() < 0.5:
            door(a, b, round(float(rng.uniform(0.0, 6.0)), 2))
        else:
            crack(a, b)
    if rng.random() < 1 / 3:
        a, b = rng.choice(ids, 2, replace=False).tolist()
        add(a, b, 1.0, an.Fan(round(float(rng.uniform(-0.02, 0.02)), 4)))
    net = an.Network(zones=zones, external_nodes=externals, links=tuple(links))
    assert an.validate(net) == []
    return OpenBuilding(net, bc, p)


def random_boundary(rng: np.random.Generator) -> an.BoundaryState:
    return an.BoundaryState(
        wind_speed=float(rng.uniform(0, 8)),
        wind_direction_deg=float(rng.uniform(0, 360)),
        outdoor_temp_k=float(rng.uniform(285, 305)),
    )


def reference_large_opening_derivative(width, height, cd, rho_from, rho_to, dp_bottom, dp_lin=DP_LIN):
    """d(net opening flow)/d(dp_bottom) as first written, a second copy of the
    opening law's branches (equivalent orifice, two-way, one-way) with edge
    pressure magnitudes floored at dp_lin; the package returns the derivative
    with the flows and must give these values bit for bit."""
    gradient = G * (rho_from - rho_to)
    dp_mid = dp_bottom - 0.5 * gradient * height

    if gradient == 0.0 or abs(gradient) * height <= 1e-6 * abs(dp_mid):
        if dp_mid > 0:
            rho_up = rho_from
        elif dp_mid < 0:
            rho_up = rho_to
        else:
            rho_up = 0.5 * (rho_from + rho_to)
        k_eq = cd * width * height * math.sqrt(2.0 * rho_up)
        # The crack law's slope at exponent 1/2, linearized below dp_lin.
        if abs(dp_mid) < dp_lin:
            return k_eq * dp_lin ** (0.5 - 1.0)
        return 0.5 * k_eq * abs(dp_mid) ** (0.5 - 1.0)

    p_bot = dp_bottom
    p_top = dp_bottom - gradient * height
    z_neutral = dp_bottom / gradient
    unit = cd * width

    if 0.0 < z_neutral < height:
        span_bot = z_neutral
        span_top = height - z_neutral
        rho_bot, rho_top = (rho_from, rho_to) if p_bot > 0.0 else (rho_to, rho_from)
        d_bot = unit * math.sqrt(2.0 * rho_bot) * span_bot / math.sqrt(max(abs(p_bot), dp_lin))
        d_top = unit * math.sqrt(2.0 * rho_top) * span_top / math.sqrt(max(abs(p_top), dp_lin))
        return d_bot + d_top

    rho_up = rho_from if (p_bot >= 0.0 and p_top >= 0.0) else rho_to
    denom = math.sqrt(max(abs(p_bot), dp_lin)) + math.sqrt(max(abs(p_top), dp_lin))
    return unit * math.sqrt(2.0 * rho_up) * height / denom


def split_by_sign(flow: float) -> an.TwoWayFlow:
    """A crack's or a fan's record: its flow split by sign, with no -0.0."""
    return an.TwoWayFlow(flow if flow > 0 else 0.0, -flow if flow < 0 else 0.0)


class LoopAssembly(NamedTuple):
    residual: np.ndarray
    jacobian: np.ndarray
    picard: tuple[np.ndarray, np.ndarray] | str  # (matrix, rhs), or a reciprocal link id
    flows: dict[str, an.TwoWayFlow]


def loop_assembly(net: an.Network, p, bc: an.BoundaryState, dp_lin: float = DP_LIN) -> LoopAssembly:
    """Residual, Jacobian, Picard system and link flows from one loop over the
    links in link order, each sum taking its `from` term before its `to`
    term, with the package's scalar flow laws.  The package assembles the same
    terms in array form and must reproduce these arrays bit for bit; the
    Picard system is the paper's matrix @ x = rhs, of which the package
    builds the matrix alone and takes its step from the residual."""
    nodes = {
        z.id: (i, an.air_density(z.temperature_k), z.ref_height_m, 0.0)
        for i, z in enumerate(net.zones)
    }
    rho_out = an.air_density(bc.outdoor_temp_k)
    for node in net.external_nodes:
        nodes[node.id] = (None, rho_out, node.ref_height_m, scalar_wind_pressure(node, bc))

    def end(node, z):
        """(offset, pressure) of a node at elevation z."""
        column, rho, ref, wind = node
        offset = wind - rho * an.GRAVITY * (z - ref)
        return offset, offset + (p[column] if column is not None else 0.0)

    n = len(net.zones)
    f = np.array([z.mech_flow_kg_s for z in net.zones], dtype=float)
    jac = np.zeros((n, n))
    matrix = np.zeros((n, n))
    rhs = -f
    reciprocal = None
    flows = {}
    for link in net.links:
        node_f, node_t = nodes[link.from_node], nodes[link.to_node]
        (col_f, rho_f, _, _), (col_t, rho_t, _, _) = node_f, node_t
        dp = end(node_f, link.elevation_m)[1] - end(node_t, link.elevation_m)[1]
        model = link.model
        if isinstance(model, an.Fan):
            flow = split_by_sign(model.flow_kg_s)
            d = 0.0
        elif isinstance(model, an.Crack):
            flow = split_by_sign(crack_flow(model.k, model.n, dp, dp_lin))
            d = crack_derivative(model.k, model.n, dp, dp_lin)
            z, k, exponent = link.elevation_m, model.k, model.n
        else:
            args = (model.width_m, model.height_m, model.cd, rho_f, rho_t, dp, dp_lin)
            flow = an.large_opening_flow(*args)
            d = reference_large_opening_derivative(*args)
            if flow.bidirectional and reciprocal is None:
                reciprocal = link.id
            z = link.elevation_m + 0.5 * model.height_m
            rho_mean = 0.5 * (rho_f + rho_t)
            k = model.cd * model.width_m * model.height_m * math.sqrt(2.0 * rho_mean)
            exponent = 0.5
        flows[link.id] = flow

        for row, sign in ((col_f, -1.0), (col_t, 1.0)):
            if row is not None:
                f[row] += sign * flow.net
        entries = ((col_f, col_f, -1.0), (col_f, col_t, 1.0), (col_t, col_t, -1.0), (col_t, col_f, 1.0))
        for row, col, sign in entries:
            if row is not None and col is not None:
                jac[row, col] += sign * d

        if isinstance(model, an.Fan):
            for row, sign in ((col_f, 1.0), (col_t, -1.0)):
                if row is not None:
                    rhs[row] += sign * model.flow_kg_s
            continue
        off_f, p_f = end(node_f, z)
        off_t, p_t = end(node_t, z)
        conductance = crack_conductance(k, exponent, p_f - p_t, dp_lin)
        const = conductance * (off_f - off_t)
        for row, sign in ((col_f, -1.0), (col_t, 1.0)):
            if row is None:
                continue
            if col_f is not None:
                matrix[row, col_f] += sign * conductance
            if col_t is not None:
                matrix[row, col_t] -= sign * conductance
            rhs[row] -= sign * const
    picard = reciprocal if reciprocal is not None else (matrix, rhs)
    return LoopAssembly(f, jac, picard, flows)


def reference_walton_relaxation(correction: np.ndarray, correction_prev) -> np.ndarray:
    """Walton's per-node relaxation factors as first written, with the secant
    from a masked np.divide and the bounds 0.1 and 1.0; the package takes the
    secant another way and must give these factors bit for bit."""
    omega = np.ones(correction.shape)
    if correction_prev is None:
        return omega
    opposing = correction * correction_prev < 0.0
    if not opposing.any():
        return omega
    denom = correction - correction_prev
    secant = np.divide(correction, denom, out=np.ones(correction.shape), where=denom != 0.0)
    return np.where(opposing, np.minimum(np.maximum(secant, 0.1), 1.0), 1.0)


def hex_fields(flow: an.TwoWayFlow) -> list:
    """The net flow and every field of a TwoWayFlow, floats as float.hex."""
    return [None if v is None else float(v).hex() for v in (flow.net, *flow)]


def matches_the_loop(net, p, bc, dp_lin) -> bool:
    """Assert that the array assembly gives the link loop's residual,
    Jacobian, Picard matrix and link flows bit for bit; True when the loop
    found a reciprocal opening and the Picard system was refused for it.

    The residual and the Jacobian are asked for in both orders, each at a
    point of its own: residual first, as Newton asks at each iterate, and
    Jacobian first, where the Jacobian evaluates the links itself."""
    loop = loop_assembly(net, p, bc, dp_lin)
    residual, jacobian = loop.residual.tobytes(), loop.jacobian.tobytes()
    assert an.residual(net, p, bc, dp_lin).tobytes() == residual
    assert an.jacobian(net, p, bc, dp_lin).tobytes() == jacobian
    again = dataclasses.replace(bc)
    assert an.jacobian(net, p, again, dp_lin).tobytes() == jacobian
    assert an.residual(net, p, again, dp_lin).tobytes() == residual
    if isinstance(loop.picard, str):
        with pytest.raises(ReciprocalFlowError) as err:
            picard_system(net, p, bc, dp_lin)
        assert err.value.link_id == loop.picard
    else:
        assert picard_system(net, p, bc, dp_lin).tobytes() == loop.picard[0].tobytes()
    flows = an.link_flows(net, p, bc, dp_lin)
    assert list(flows) == [link.id for link in net.links]
    for link_id, flow in flows.items():
        # Every field, an opening's derivative too, and the sign of a zero.
        two_way = loop.flows[link_id]
        assert hex_fields(flow) == hex_fields(two_way), link_id
    return isinstance(loop.picard, str)
