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
    # Unused here, as the compiled network evaluates its cracks in arrays and
    # each opening's flow carries its derivative; kept because
    # perfbench/tracing.py wraps all three in this module.
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

    def __reduce__(self):
        # BaseException would re-create the error from `args`, the message.
        return type(self), (self.link_id,), self.__dict__


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
        # A tiny negative direction reduces to 360.0, which is north too.
        direction = self.wind_direction_deg % 360.0
        object.__setattr__(self, "wind_direction_deg", 0.0 if direction == 360.0 else direction)


class LinearSystem(NamedTuple):
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
    """The boundary-dependent terms of a compiled network's coupled links,
    with the offset of every link end in the compiled network's layout."""

    bc: BoundaryState
    ends: np.ndarray
    picard_coef: np.ndarray  # the factor of each Picard term (see _CompiledNetwork)
    opening_args: list[tuple]  # (width, height, cd, rho_from, rho_to) per opening
    mid_k: list[float]  # each opening's Picard flow coefficient cd*W*H*sqrt(2*rho_mean)


class _Point(NamedTuple):
    """The coupled links of a compiled network evaluated at one pressure
    vector, boundary and dp_lin, with the pressure at every link end (its
    offset plus its zone's pressure) in the compiled network's layout."""

    boundary: _Boundary
    dp_lin: float
    key: bytes  # the pressures as float64
    ends: np.ndarray
    crack_flows: np.ndarray
    crack_lin: np.ndarray  # |dp| < dp_lin
    crack_g: np.ndarray  # max(|dp|, dp_lin) ** (n - 1)
    crack_kg: np.ndarray  # k * crack_g: the flow per Pa in the linear band
    opening_flows: list[TwoWayFlow]  # each with its derivative


class _CompiledNetwork:
    """Index and parameter arrays of one network.

    Links sit in slots grouped by type: cracks, then large openings, then
    fans, each group in link order.  Cracks and openings couple their two end
    pressures; fans do not.  Every zone balance and matrix entry is one
    np.bincount whose terms are gathered back into link order, `from` end
    before `to` end, so each sum is added up in the same order, with the same
    rounding, as a loop over the links would give it; the Picard matrix and
    right-hand side share one np.bincount.

    The ends of the coupled links sit in one array: the from ends at each
    link's elevation, then the to ends there, then the from and then the to
    ends at each opening's mid-height, where Picard takes it as one orifice.
    `boundary` computes what the weather sets: the offsets of the ends at
    external nodes, every opening's law arguments and Picard coefficient
    (an end at an external node takes the outdoor density), and the Picard
    rhs terms.
    """

    def __init__(self, net: Network):
        n = len(net.zones)
        self.n = n
        self.externals = net.external_nodes
        zone_rho = np.array([air_density(z.temperature_k) for z in net.zones])
        self.mech = np.array([z.mech_flow_kg_s for z in net.zones], dtype=float)

        def of_type(kind) -> list[int]:
            return [i for i, link in enumerate(net.links) if isinstance(link.model, kind)]

        cracks, openings, fans = of_type(Crack), of_type(LargeOpening), of_type(Fan)
        slotted = [net.links[i] for i in cracks + openings + fans]
        self.ids = [link.id for link in net.links]
        nc, coupled = len(cracks), len(cracks) + len(openings)
        self.n_cracks = nc

        node = {z.id: i for i, z in enumerate(net.zones)}
        node.update({e.id: n + j for j, e in enumerate(net.external_nodes)})
        node_f = np.array([node[link.from_node] for link in slotted], dtype=np.intp)
        node_t = np.array([node[link.to_node] for link in slotted], dtype=np.intp)
        col_f, col_t = np.minimum(node_f, n), np.minimum(node_t, n)

        models = [link.model for link in slotted]
        self.crack_k = np.array([m.k for m in models[: len(cracks)]], dtype=float)
        self.crack_n = np.array([m.n for m in models[: len(cracks)]], dtype=float)
        self.crack_nk = self.crack_n * self.crack_k
        self.crack_kk = np.tile(self.crack_k, 2)  # one k per crack power below
        # One pass of the C library's pow, as the float laws call it, gives
        # max(|dp|, dp_lin) ** (n - 1) and then ** n for every crack; np.power
        # may round differently in the last bit.
        self.crack_exponents = (self.crack_n - 1.0).tolist() + self.crack_n.tolist()
        self.opening_ids = [link.id for link in slotted[len(cracks) : coupled]]
        self.fan_flow = np.array([m.flow_kg_s for m in models[coupled:]], dtype=float)

        # Each opening's (width, height, cd, rho_from, rho_to); an external
        # end's density (None) is the outdoor air's, which `boundary` sets.
        rho = zone_rho.tolist() + [None] * len(net.external_nodes)
        self.openings = [
            (m.width_m, m.height_m, m.cd, rho[f], rho[t])
            for m, f, t in zip(models[nc:coupled], node_f[nc:], node_t[nc:])
        ]

        # Every link end (see the class docstring): its column and z - ref, and
        # its offset; a zone end's is 0 - rho * g * (z - ref) for good, and an
        # external end's is set by `boundary` from its node's wind.
        elevation = np.array([link.elevation_m for link in slotted[:coupled]], dtype=float)
        mid_z = elevation[nc:] + np.array([0.5 * h for _, h, *_ in self.openings])
        open_ends = np.concatenate((node_f[nc:coupled], node_t[nc:coupled]))
        end_node = np.concatenate((node_f[:coupled], node_t[:coupled], open_ends))
        node_ref = np.array([z.ref_height_m for z in (*net.zones, *net.external_nodes)])
        end_dz = np.concatenate((elevation, elevation, mid_z, mid_z)) - node_ref[end_node]
        self.end_col = np.minimum(end_node, n)
        self.ends = 0.0 - np.append(zone_rho * GRAVITY, 0.0).take(self.end_col) * end_dz
        facade = self.facade_ends = end_node >= n
        self.facade_node, self.facade_dz = end_node[facade] - n, end_dz[facade]
        self.at_f, self.at_t = slice(0, coupled), slice(coupled, 2 * coupled)
        self.mid_f, self.mid_t = slice(2 * coupled, 3 * coupled - nc), slice(3 * coupled - nc, None)

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
        # n x n matrix; an entry with an external end goes to the spare slot n * n + n.
        coupled_slots = slot_of[slot_of < coupled]
        f, t = col_f[coupled_slots], col_t[coupled_slots]
        rows = np.column_stack((f, f, t, t)).ravel()
        cols = np.column_stack((f, t, f, t)).ravel()
        self.entry_index = np.where((rows < n) & (cols < n), rows * n + cols, n * n + n)
        self.entry_gather = np.repeat(coupled_slots, 4)
        self.entry_sign = np.tile(_ENTRY_SIGNS, coupled)

        # The Picard system in one np.bincount: the n * n matrix bins, then n
        # rhs bins, then the spare, over the values (-mech per zone, -flow per
        # fan, conductance G per coupled link), each term times its coefficient:
        # the entry sign, or the row sign and, for G, the to minus from offset,
        # as a coupled link's constant flow G * (off_f - off_t) moves to the rhs.
        nf = len(fans)
        self.neg_mech_fans = -np.concatenate((self.mech, self.fan_flow))
        link_value = np.where(slot_of < coupled, n + nf + slot_of, n + slot_of - coupled)
        self.picard_index = np.concatenate((self.entry_index, n * n + self.row_index))
        self.picard_gather = np.concatenate(
            (n + nf + self.entry_gather, np.arange(n), np.repeat(link_value, 2))
        )
        self.picard_sign = np.concatenate((self.entry_sign, self.row_sign))
        # G's rhs terms, after its 4 * coupled matrix terms, take the offsets
        # where Picard takes dp: a crack's elevation, an opening's mid-height.
        self.picard_rhs = np.flatnonzero(self.picard_gather >= n + nf)[4 * coupled :]
        s = self.picard_gather[self.picard_rhs] - (n + nf)
        self.rhs_f = np.where(s < nc, s, s + 2 * coupled - nc)
        self.rhs_t = self.rhs_f + np.where(s < nc, coupled, coupled - nc)
        self._point: _Point | None = None

    def boundary(self, bc: BoundaryState) -> _Boundary:
        """The boundary terms for bc."""
        rho_out = air_density(bc.outdoor_temp_k)
        wind = np.array([boundary_pressure(e, bc) for e in self.externals])
        ends = self.ends.copy()
        ends[self.facade_ends] = wind.take(self.facade_node) - (rho_out * GRAVITY) * self.facade_dz
        coef = self.picard_sign.copy()
        coef[self.picard_rhs] *= ends.take(self.rhs_t) - ends.take(self.rhs_f)
        args = [
            (w, h, cd, rho_out if rf is None else rf, rho_out if rt is None else rt)
            for w, h, cd, rf, rt in self.openings
        ]
        mid_k = [cd * w * h * math.sqrt(2.0 * (0.5 * (rf + rt))) for w, h, cd, rf, rt in args]
        return _Boundary(bc=bc, ends=ends, picard_coef=coef, opening_args=args, mid_k=mid_k)

    def rows(self, *values) -> np.ndarray:
        """The mechanical flow per zone, minus each link's value in its from
        zone and plus it in its to zone; `values` hold the link values in slot
        order."""
        terms = np.concatenate((self.mech, *values)).take(self.row_gather) * self.row_sign
        return np.bincount(self.row_index, terms, minlength=self.n + 1)[: self.n]

    def matrix(self, *values) -> np.ndarray:
        """n x n matrix coupling the ends of each coupled link with its value v:
        -v on both diagonal entries, +v on both off-diagonal ones."""
        n = self.n
        terms = np.concatenate(values).take(self.entry_gather) * self.entry_sign
        return np.bincount(self.entry_index, terms, minlength=n * n + n + 1)[: n * n].reshape(n, n)

    def point(self, p, bc: BoundaryState, dp_lin: float) -> _Point:
        """The links evaluated at p, kept until a call brings another point;
        a new point under the same bc object reuses its boundary terms.

        A point is replaced whole, never changed, so threads that share the
        network each read a consistent one; it is keyed by the pressures'
        float64 bytes, so a vector changed in place is evaluated afresh.
        """
        pressures = np.asarray(p, dtype=float)
        key = pressures.tobytes()
        last = self._point
        same_bc = last is not None and last.boundary.bc is bc
        if same_bc and last.key == key and last.dp_lin == dp_lin:
            return last
        if pressures.shape != (self.n,):
            shape = pressures.shape
            given = f"{shape[0]} pressures" if len(shape) == 1 else f"pressures of shape {shape}"
            raise ValueError(f"{given} given for {self.n} zones")
        pz = np.concatenate((pressures, _PADDING))
        b = last.boundary if same_bc else self.boundary(bc)
        ends = b.ends + pz.take(self.end_col)
        dp = ends[self.at_f] - ends[self.at_t]
        nc = self.n_cracks
        # Each crack once, with the float laws' rounding: in the linear band
        # flow (k*g)*dp, slope k*g, conductance k*g; outside it flow
        # copysign(k*h, dp), slope (n*k)*g, conductance k*g.
        crack_dp = dp[:nc]
        mag = np.abs(crack_dp)
        lin = mag < dp_lin
        base = np.maximum(mag, dp_lin).tolist()
        powers = np.fromiter(map(pow, base * 2, self.crack_exponents), float, 2 * nc)
        g = powers[:nc]
        kgh = self.crack_kk * powers  # k*g, then k*h
        kg, kh = kgh[:nc], kgh[nc:]
        last = self._point = _Point(
            boundary=b,
            dp_lin=dp_lin,
            key=key,
            ends=ends,
            crack_flows=np.where(lin, kg * crack_dp, np.copysign(kh, crack_dp)),
            crack_lin=lin,
            crack_g=g,
            crack_kg=kg,
            opening_flows=[
                large_opening_flow(*args, dp_bottom, dp_lin)
                for args, dp_bottom in zip(b.opening_args, dp[nc:].tolist())
            ],
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
    return c.rows(at.crack_flows, openings, c.fan_flow)


def jacobian(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Derivative of the residual with respect to the zone pressures."""
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    cracks = np.where(at.crack_lin, at.crack_kg, c.crack_nk * at.crack_g)
    openings = [two_way.derivative for two_way in at.opening_flows]
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
    mid_dp = at.ends[c.mid_f] - at.ends[c.mid_t]
    openings = [
        crack_conductance(k, 0.5, dp, dp_lin) for k, dp in zip(b.mid_k, mid_dp.tolist())
    ]
    values = np.concatenate((c.neg_mech_fans, at.crack_kg, openings))
    n = c.n
    summed = np.bincount(c.picard_index, values.take(c.picard_gather) * b.picard_coef)
    return LinearSystem(matrix=summed[: n * n].reshape(n, n), rhs=summed[n * n : n * n + n])
