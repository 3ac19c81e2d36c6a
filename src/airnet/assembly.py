"""Assembly of the nonlinear mass-balance system from a network and weather.

Given a pressure vector p (one entry per zone, in network order) and a
boundary state, this module produces:

* the residual f(p): net mass inflow per zone, including mechanical
  ventilation, which is zero at the solution;
* the Jacobian J(p) = df/dp for Newton steps;
* the linear fixed-point system A(p) x = B(p) with conductances frozen at
  the current iterate, used by the Picard initializer.

Stack pressures use a constant density per node column between the node's
reference height and the link elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .links import (
    DP_LIN_DEFAULT,
    GRAVITY,
    TwoWayFlow,
    air_density,
    crack_conductance,
    crack_derivative,
    crack_flow,
    large_opening_derivative,
    large_opening_flow,
)
from .network import Crack, ExternalNode, Fan, LargeOpening, Link, Network

__all__ = [
    "BoundaryState",
    "LinearSystem",
    "LinkFlow",
    "ReciprocalFlowError",
    "boundary_pressure",
    "link_flows",
    "residual",
    "jacobian",
    "picard_system",
]


class ReciprocalFlowError(RuntimeError):
    """A large opening is currently bidirectional; the fixed-point
    linearization cannot represent it."""

    def __init__(self, link_id: str):
        self.link_id = link_id
        super().__init__(f"link '{link_id}' carries reciprocal (two-way) flow")


@dataclass(frozen=True)
class BoundaryState:
    """Exterior conditions at one instant.

    Wind direction is in degrees from north, normalized to [0, 360).
    """

    wind_speed: float
    wind_direction_deg: float
    outdoor_temp_k: float

    def __post_init__(self):
        for name in ("wind_speed", "wind_direction_deg", "outdoor_temp_k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.wind_speed < 0:
            raise ValueError(f"wind speed must be >= 0, got {self.wind_speed}")
        if self.outdoor_temp_k <= 0:
            raise ValueError(f"outdoor temperature must be > 0 K, got {self.outdoor_temp_k}")
        object.__setattr__(self, "wind_direction_deg", self.wind_direction_deg % 360.0)


@dataclass(frozen=True)
class LinearSystem:
    """Dense zone-balance system: matrix @ p = rhs (Pa -> kg/s)."""

    matrix: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class LinkFlow:
    """Resolved flow through one link at a given state.

    `flow` is the signed net (positive from -> to); the directional
    components are both populated, and differ from the trivial split only
    for bidirectional large openings.
    """

    link_id: str
    flow: float
    flow_forward: float
    flow_reverse: float
    neutral_height: float | None = None


def boundary_pressure(node: ExternalNode, bc: BoundaryState) -> float:
    """Wind pressure at an external node, 0.5 * rho_out * Cp(dir) * v**2.

    Cp is linearly interpolated between the two adjacent 45-degree sector
    centers of the node's table.
    """
    rho_out = air_density(bc.outdoor_temp_k)
    sector = bc.wind_direction_deg / 45.0
    base = int(sector) % 8
    frac = sector - int(sector)
    cp = node.cp[base] * (1.0 - frac) + node.cp[(base + 1) % 8] * frac
    return 0.5 * rho_out * cp * bc.wind_speed**2


# ---------------------------------------------------------------------------
# the link pass

# Each node resolves once per call to (zone column or None, density, reference
# height, wind pressure).  Its pressure at elevation z is the constant offset
# wind - rho * g * (z - ref), plus p[column] for a zone (whose wind term is 0).
_Node = tuple[int | None, float, float, float]


def _node_table(net: Network, bc: BoundaryState) -> dict[str, _Node]:
    table: dict[str, _Node] = {
        z.id: (i, air_density(z.temperature_k), z.ref_height_m, 0.0)
        for i, z in enumerate(net.zones)
    }
    rho_out = air_density(bc.outdoor_temp_k)
    for node in net.external_nodes:
        table[node.id] = (None, rho_out, node.ref_height_m, boundary_pressure(node, bc))
    return table


def _endpoint(node: _Node, z: float, p: np.ndarray) -> tuple[float, float]:
    """(constant offset, pressure) of a node at elevation z."""
    column, rho, ref, wind = node
    offset = wind - rho * GRAVITY * (z - ref)
    return offset, offset + (p[column] if column is not None else 0.0)


def _link_pass(net: Network, p: np.ndarray, nodes: dict[str, _Node]):
    """Yield (link, col_f, col_t, dp, rho_f, rho_t) for every link.

    dp is the pressure difference (from minus to) at the link elevation; for a
    large opening that is its bottom edge, the dp_bottom of the opening law.
    """
    for link in net.links:
        node_f, node_t = nodes[link.from_node], nodes[link.to_node]
        _, p_f = _endpoint(node_f, link.elevation_m, p)
        _, p_t = _endpoint(node_t, link.elevation_m, p)
        yield link, node_f[0], node_t[0], p_f - p_t, node_f[1], node_t[1]


def _model_flow(link: Link, dp: float, rho_f: float, rho_t: float, dp_lin: float) -> TwoWayFlow:
    model = link.model
    if isinstance(model, Crack):
        flow = crack_flow(model.k, model.n, dp, dp_lin)
        return TwoWayFlow(max(flow, 0.0), max(-flow, 0.0), None)
    if isinstance(model, LargeOpening):
        return large_opening_flow(
            model.width_m, model.height_m, model.cd, rho_f, rho_t, dp, dp_lin
        )
    return TwoWayFlow(max(model.flow_kg_s, 0.0), max(-model.flow_kg_s, 0.0), None)


def _model_derivative(link: Link, dp: float, rho_f: float, rho_t: float, dp_lin: float) -> float:
    model = link.model
    if isinstance(model, Crack):
        return crack_derivative(model.k, model.n, dp, dp_lin)
    if isinstance(model, LargeOpening):
        return large_opening_derivative(
            model.width_m, model.height_m, model.cd, rho_f, rho_t, dp, dp_lin
        )
    return 0.0


# ---------------------------------------------------------------------------
# residual, Jacobian, fixed-point system


def residual(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Net mass inflow per zone (kg/s), in network zone order."""
    f = np.array([z.mech_flow_kg_s for z in net.zones], dtype=float)
    for link, col_f, col_t, dp, rho_f, rho_t in _link_pass(net, p, _node_table(net, bc)):
        flow = _model_flow(link, dp, rho_f, rho_t, dp_lin).net
        if col_f is not None:
            f[col_f] -= flow
        if col_t is not None:
            f[col_t] += flow
    return f


def jacobian(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Derivative of the residual with respect to the zone pressures."""
    n = len(net.zones)
    jac = np.zeros((n, n))
    for link, col_f, col_t, dp, rho_f, rho_t in _link_pass(net, p, _node_table(net, bc)):
        d = _model_derivative(link, dp, rho_f, rho_t, dp_lin)
        if d == 0.0:
            continue
        if col_f is not None:
            jac[col_f, col_f] -= d
            if col_t is not None:
                jac[col_f, col_t] += d
        if col_t is not None:
            jac[col_t, col_t] -= d
            if col_f is not None:
                jac[col_t, col_f] += d
    return jac


def link_flows(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> dict[str, LinkFlow]:
    """Per-link resolved flows at the given pressures."""
    out: dict[str, LinkFlow] = {}
    for link, _, _, dp, rho_f, rho_t in _link_pass(net, p, _node_table(net, bc)):
        two_way = _model_flow(link, dp, rho_f, rho_t, dp_lin)
        out[link.id] = LinkFlow(
            link_id=link.id,
            flow=two_way.net,
            flow_forward=two_way.flow_forward,
            flow_reverse=two_way.flow_reverse,
            neutral_height=two_way.neutral_height,
        )
    return out


def picard_system(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> LinearSystem:
    """Zone-balance system with conductances frozen at the current iterate.

    Cracks contribute their secant conductance; a large opening is collapsed
    to a single equivalent orifice at its mid-height (K = cd*W*H*sqrt(2*rho_mean),
    exponent 1/2).  All pressure-proportional terms go to the matrix and all
    constant terms (wind pressures, stack offsets, fans, mechanical flows) to
    the right-hand side, so a fixed point of the map is a root of the
    residual for crack-only networks.

    Raises ReciprocalFlowError when any large opening currently carries
    two-way flow: the single-conductance picture cannot represent it.
    """
    nodes = _node_table(net, bc)
    n = len(net.zones)
    matrix = np.zeros((n, n))
    rhs = np.array([-z.mech_flow_kg_s for z in net.zones], dtype=float)

    for link, col_f, col_t, dp, rho_f, rho_t in _link_pass(net, p, nodes):
        model = link.model
        if isinstance(model, Fan):
            # Constant flow out of `from` and into `to`; as a constant it is
            # negated onto the right-hand side with the row sign.
            if col_f is not None:
                rhs[col_f] += model.flow_kg_s
            if col_t is not None:
                rhs[col_t] -= model.flow_kg_s
            continue

        if isinstance(model, LargeOpening):
            current = large_opening_flow(
                model.width_m, model.height_m, model.cd, rho_f, rho_t, dp, dp_lin
            )
            if current.bidirectional:
                raise ReciprocalFlowError(link.id)
            z = link.elevation_m + 0.5 * model.height_m
            rho_mean = 0.5 * (rho_f + rho_t)
            k = model.cd * model.width_m * model.height_m * np.sqrt(2.0 * rho_mean)
            exponent = 0.5
        else:
            z, k, exponent = link.elevation_m, model.k, model.n
        off_f, p_f = _endpoint(nodes[link.from_node], z, p)
        off_t, p_t = _endpoint(nodes[link.to_node], z, p)
        conductance = crack_conductance(k, exponent, p_f - p_t, dp_lin)

        # Row contribution for flow G * ((p_f + off_f) - (p_t + off_t)), with
        # sign +1 into the `to` zone, -1 out of the `from` zone.
        const = conductance * (off_f - off_t)
        for row, sign in ((col_f, -1.0), (col_t, +1.0)):
            if row is None:
                continue
            if col_f is not None:
                matrix[row, col_f] += sign * conductance
            if col_t is not None:
                matrix[row, col_t] -= sign * conductance
            rhs[row] -= sign * const
    return LinearSystem(matrix=matrix, rhs=rhs)
