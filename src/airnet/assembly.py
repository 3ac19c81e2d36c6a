"""Assembly of the nonlinear mass-balance system from a network and weather.

Given a pressure vector p (one entry per zone, in network order) and a
boundary state, this module produces:

* the residual f(p): net mass inflow per zone, including mechanical
  ventilation, which is zero at the solution;
* the Jacobian J(p) = df/dp for Newton steps;
* the linear fixed-point system A(p) x = B(p) with conductances frozen at
  the current iterate, used by the Picard initializer;
* the flow through each link, for callers that report flows.

Stack pressures use a constant density per node column between the node's
reference height and the link elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .links import (
    DP_LIN_DEFAULT,
    GRAVITY,
    TwoWayFlow,
    air_density,
    crack_conductance,
    # Unused here, as the compiled network evaluates its cracks in arrays; kept
    # because perfbench/tracing.py wraps both in this module.
    crack_derivative,
    crack_flow,
    large_opening_derivative,
    large_opening_flow,
)
from .network import Crack, ExternalNode, Fan, LargeOpening, Network

__all__ = [
    "BoundaryState",
    "LinearSystem",
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
# the compiled network

# Node i < n is zone i; node n + j is external node j.  A link end's pressure
# at elevation z is the offset wind - rho * g * (z - ref), plus p[column] for a
# zone end; an external end's column is the padding column n, which holds 0.0.
_PADDING = np.zeros(1)

# Signs of a coupled link's value v in its matrix entries (f,f), (f,t), (t,f),
# (t,t), and in the balances of its from and to zones.
_ENTRY_SIGNS = (-1.0, 1.0, 1.0, -1.0)
_ROW_SIGNS = (-1.0, 1.0)


class _Boundary(NamedTuple):
    """The boundary-dependent terms of a compiled network's coupled links."""

    bc: BoundaryState
    off_f: np.ndarray  # end offsets at each link's elevation
    off_t: np.ndarray
    opening_args: list[tuple]  # (width, height, cd, rho_from, rho_to) per opening
    mid_off_f: np.ndarray  # each opening's end offsets at its mid-height
    mid_off_t: np.ndarray
    mid_doff: np.ndarray  # end offsets' difference where the Picard system takes dp
    mid_k: list[float]  # each opening's Picard flow coefficient


class _Point(NamedTuple):
    """The coupled links of a compiled network evaluated at one pressure
    vector, boundary and dp_lin."""

    boundary: _Boundary
    dp_lin: float
    key: bytes  # the padded pressure vector
    pz_f: np.ndarray  # pressure of each link's from and to zone, 0.0 outside
    pz_t: np.ndarray
    dp: np.ndarray  # from minus to, at each link's elevation
    crack_flows: np.ndarray
    crack_lin: np.ndarray  # |dp| < dp_lin
    crack_g: np.ndarray  # max(|dp|, dp_lin) ** (n - 1)
    crack_kg: np.ndarray  # k * crack_g: the flow per Pa in the linear band
    opening_inputs: list[tuple]  # opening law arguments before dp_lin
    opening_flows: list[TwoWayFlow]


class _CompiledNetwork:
    """Index and parameter arrays of one network.

    Links sit in slots grouped by type: cracks, then large openings, then
    fans, each group in link order.  Cracks and openings couple their two end
    pressures; fans do not.  Every zone balance and matrix entry is one
    np.bincount whose terms are gathered back into link order, `from` end
    before `to` end, so each sum is added up in the same order, with the same
    rounding, as a loop over the links would give it.
    """

    def __init__(self, net: Network):
        n = len(net.zones)
        self.n = n
        self.externals = net.external_nodes
        self.zone_rho = np.array([air_density(z.temperature_k) for z in net.zones])
        self.node_ref = np.array(
            [z.ref_height_m for z in net.zones] + [e.ref_height_m for e in net.external_nodes]
        )
        self.mech = np.array([z.mech_flow_kg_s for z in net.zones], dtype=float)
        self.neg_mech = -self.mech

        def of_type(kind) -> list[int]:
            return [i for i, link in enumerate(net.links) if isinstance(link.model, kind)]

        cracks, openings, fans = of_type(Crack), of_type(LargeOpening), of_type(Fan)
        slotted = [net.links[i] for i in cracks + openings + fans]
        self.ids = [link.id for link in net.links]
        self.n_cracks = len(cracks)
        coupled = len(cracks) + len(openings)

        node = {z.id: i for i, z in enumerate(net.zones)}
        node.update({e.id: n + j for j, e in enumerate(net.external_nodes)})
        node_f = np.array([node[link.from_node] for link in slotted], dtype=np.intp)
        node_t = np.array([node[link.to_node] for link in slotted], dtype=np.intp)
        col_f, col_t = np.minimum(node_f, n), np.minimum(node_t, n)
        self.node_f, self.node_t = node_f[:coupled], node_t[:coupled]
        self.col_f, self.col_t = col_f[:coupled], col_t[:coupled]
        self.elevation = np.array([link.elevation_m for link in slotted[:coupled]], dtype=float)

        models = [link.model for link in slotted]
        self.crack_k = np.array([m.k for m in models[: len(cracks)]], dtype=float)
        self.crack_n = np.array([m.n for m in models[: len(cracks)]], dtype=float)
        self.crack_nk = self.crack_n * self.crack_k
        # One pass of the C library's pow, as the float laws call it, gives
        # max(|dp|, dp_lin) ** (n - 1) and then ** n for every crack; np.power
        # may round differently in the last bit.
        self.crack_exponents = (self.crack_n - 1.0).tolist() + self.crack_n.tolist()
        self.opening_ids = [link.id for link in slotted[len(cracks) : coupled]]
        self.opening_params = [(m.width_m, m.height_m, m.cd) for m in models[len(cracks) : coupled]]
        self.fan_flow = np.array([m.flow_kg_s for m in models[coupled:]], dtype=float)
        self.neg_fan_flow = -self.fan_flow

        # Picard takes an opening as one orifice at its mid-height.
        self.mid_z = self.elevation + np.array(
            [0.0] * len(cracks) + [0.5 * h for _, h, _ in self.opening_params]
        )
        self.opening_cwh = np.array([cd * w * h for w, h, cd in self.opening_params], dtype=float)

        # Zone balances: the n base values, then each link's from and to terms
        # in link order, each gathered from n + the link's slot.
        slot_of = np.empty(len(slotted), dtype=np.intp)
        slot_of[cracks + openings + fans] = np.arange(len(slotted))
        self.slot_of = slot_of.tolist()
        self.row_index = np.concatenate(
            (np.arange(n), np.column_stack((col_f[slot_of], col_t[slot_of])).ravel())
        )
        self.row_gather = np.concatenate((np.arange(n), np.repeat(n + slot_of, 2)))
        self.row_sign = np.concatenate((np.ones(n), np.tile(_ROW_SIGNS, len(slotted))))

        # Matrix entries of each coupled link, in link order, in the flattened
        # n x n matrix; an entry with an external end goes to the spare slot n * n.
        coupled_slots = slot_of[slot_of < coupled]
        f, t = col_f[coupled_slots], col_t[coupled_slots]
        rows = np.column_stack((f, f, t, t)).ravel()
        cols = np.column_stack((f, t, f, t)).ravel()
        self.entry_index = np.where((rows < n) & (cols < n), rows * n + cols, n * n)
        self.entry_gather = np.repeat(coupled_slots, 4)
        self.entry_sign = np.tile(_ENTRY_SIGNS, coupled)
        self._last: _Boundary | None = None
        self._point: _Point | None = None

    def boundary(self, bc: BoundaryState) -> _Boundary:
        """Boundary terms for bc, kept until a call brings another bc."""
        last = self._last
        if last is not None and last.bc is bc:
            return last
        rho_out = air_density(bc.outdoor_temp_k)
        wind = np.concatenate(
            (np.zeros(self.n), [boundary_pressure(e, bc) for e in self.externals])
        )
        rho = np.concatenate((self.zone_rho, np.full(len(self.externals), rho_out)))
        rho_f, rho_t = rho[self.node_f], rho[self.node_t]

        def offset(node, rho_end, z):
            return wind[node] - rho_end * GRAVITY * (z - self.node_ref[node])

        nc = self.n_cracks
        rho_mean = 0.5 * (rho_f[nc:] + rho_t[nc:])
        mid_off_f = offset(self.node_f, rho_f, self.mid_z)
        mid_off_t = offset(self.node_t, rho_t, self.mid_z)
        last = self._last = _Boundary(
            bc=bc,
            off_f=offset(self.node_f, rho_f, self.elevation),
            off_t=offset(self.node_t, rho_t, self.elevation),
            opening_args=[
                (*params, rho_from, rho_to)
                for params, rho_from, rho_to in zip(
                    self.opening_params, rho_f[nc:].tolist(), rho_t[nc:].tolist()
                )
            ],
            mid_off_f=mid_off_f[nc:],
            mid_off_t=mid_off_t[nc:],
            mid_doff=mid_off_f - mid_off_t,
            mid_k=(self.opening_cwh * np.sqrt(2.0 * rho_mean)).tolist(),
        )
        return last

    def rows(self, base, *values) -> np.ndarray:
        """base per zone, minus each link's value in its from zone and plus it
        in its to zone; `values` hold the link values in slot order."""
        terms = np.concatenate((base, *values)).take(self.row_gather) * self.row_sign
        return np.bincount(self.row_index, terms, minlength=self.n + 1)[: self.n]

    def matrix(self, *values) -> np.ndarray:
        """n x n matrix coupling the ends of each coupled link with its value v:
        -v on both diagonal entries, +v on both off-diagonal ones."""
        n = self.n
        terms = np.concatenate(values).take(self.entry_gather) * self.entry_sign
        return np.bincount(self.entry_index, terms, minlength=n * n + 1)[: n * n].reshape(n, n)

    def point(self, p, bc: BoundaryState, dp_lin: float) -> _Point:
        """The links evaluated at p, kept until a call brings another point.

        A point is replaced whole, never changed, so threads that share the
        network each read a consistent one; it is keyed by the pressures'
        bytes, so a vector changed in place is evaluated afresh.
        """
        pz = np.concatenate((p, _PADDING))
        key = pz.tobytes()
        last = self._point
        if (
            last is not None
            and last.key == key
            and last.boundary.bc is bc
            and last.dp_lin == dp_lin
        ):
            return last
        if len(pz) != self.n + 1:
            raise ValueError(f"{len(pz) - 1} pressures given for {self.n} zones")
        b = self.boundary(bc)
        pz_f, pz_t = pz.take(self.col_f), pz.take(self.col_t)
        dp = (b.off_f + pz_f) - (b.off_t + pz_t)
        nc = self.n_cracks
        # Each crack once, with the float laws' rounding: in the linear band
        # flow (k*g)*dp, slope k*g, conductance k*g; outside it flow
        # copysign(k*h, dp), slope (n*k)*g, conductance k*g.
        crack_dp = dp[:nc]
        mag = np.abs(crack_dp)
        lin = mag < dp_lin
        base = np.maximum(mag, dp_lin).tolist()
        powers = np.fromiter(map(pow, base * 2, self.crack_exponents), float, 2 * nc)
        g, h = powers[:nc], powers[nc:]
        kg = self.crack_k * g
        inputs = [
            (*args, dp_bottom) for args, dp_bottom in zip(b.opening_args, dp[nc:].tolist())
        ]
        last = self._point = _Point(
            boundary=b,
            dp_lin=dp_lin,
            key=key,
            pz_f=pz_f,
            pz_t=pz_t,
            dp=dp,
            crack_flows=np.where(lin, kg * crack_dp, np.copysign(self.crack_k * h, crack_dp)),
            crack_lin=lin,
            crack_g=g,
            crack_kg=kg,
            opening_inputs=inputs,
            opening_flows=[large_opening_flow(*args, dp_lin) for args in inputs],
        )
        return last


def _compiled(net: Network) -> _CompiledNetwork:
    """The network's compiled form, built on first use and kept on the
    instance: a Network is immutable, so it never goes stale."""
    try:
        return net.__dict__["_compiled"]
    except KeyError:
        compiled = net.__dict__["_compiled"] = _CompiledNetwork(net)
        return compiled


# ---------------------------------------------------------------------------
# residual, Jacobian, fixed-point system


def residual(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Net mass inflow per zone (kg/s), in network zone order."""
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    openings = [two_way.net for two_way in at.opening_flows]
    return c.rows(c.mech, at.crack_flows, openings, c.fan_flow)


def jacobian(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Derivative of the residual with respect to the zone pressures."""
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    cracks = np.where(at.crack_lin, at.crack_kg, c.crack_nk * at.crack_g)
    openings = [large_opening_derivative(*args, dp_lin) for args in at.opening_inputs]
    return c.matrix(cracks, openings)


def link_flows(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> dict[str, TwoWayFlow]:
    """Per-link flows at the given pressures, in link order.

    The signed flow (positive from -> to) is `TwoWayFlow.net`; the two
    directional components differ from the trivial split only for
    bidirectional large openings.
    """
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)

    def one_way(flows: np.ndarray) -> list[TwoWayFlow]:
        return [TwoWayFlow(max(flow, 0.0), max(-flow, 0.0), None) for flow in flows.tolist()]

    slotted = one_way(at.crack_flows) + at.opening_flows + one_way(c.fan_flow)
    return {link_id: slotted[slot] for link_id, slot in zip(c.ids, c.slot_of)}


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
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    for link_id, two_way in zip(c.opening_ids, at.opening_flows):
        if two_way.bidirectional:
            raise ReciprocalFlowError(link_id)
    b = at.boundary
    # A crack's mid-height is its elevation, where the point took its dp.
    nc = c.n_cracks
    mid_dp = (b.mid_off_f + at.pz_f[nc:]) - (b.mid_off_t + at.pz_t[nc:])
    openings = [
        crack_conductance(k, 0.5, dp, dp_lin) for k, dp in zip(b.mid_k, mid_dp.tolist())
    ]
    conductance = np.concatenate((at.crack_kg, openings))
    # A coupled link's flow is G * ((p_f + off_f) - (p_t + off_t)); its constant
    # part G * (off_f - off_t), like a fan's flow, moves to the right-hand side
    # with the opposite sign.
    return LinearSystem(
        matrix=c.matrix(conductance),
        rhs=c.rows(c.neg_mech, -(conductance * b.mid_doff), c.neg_fan_flow),
    )
