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

The cracks, and the large openings between zones of exactly equal density,
whose law is then the crack law with exponent 1/2, are evaluated in one
array pass; every other large opening takes one call of its law per point.
The links are evaluated once per point, and `residual`, `jacobian`,
`picard_system` and `link_flows` each take only what they return from it.
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
                raise ValueError(f"non-finite {name}: {getattr(self, name)}")
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


def _orifice_k(width: float, height: float, cd: float, rho: float) -> float:
    """The flow coefficient cd * W * H * sqrt(2 * rho) of an opening taken as
    one orifice, in the order the opening law computes it."""
    return cd * width * height * math.sqrt(2.0 * rho)


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
    opening_args: list[tuple]  # (width, height, cd, rho_from, rho_to) per non-orifice opening
    mid_k: list[float]  # each opening's Picard flow coefficient cd*W*H*sqrt(2*rho_mean)


class _Point(NamedTuple):
    """The coupled links of a compiled network evaluated at one pressure
    vector, boundary and dp_lin, with the pressure at every link end (its
    offset plus its zone's pressure) in the compiled network's layout."""

    boundary: _Boundary
    dp_lin: float
    key: bytes  # the pressures as float64
    ends: np.ndarray
    values: np.ndarray  # the row values the residual gathers: mech, fans, each coupled link's flow
    crack_lin: np.ndarray  # |dp| < dp_lin
    crack_g: np.ndarray  # max(|dp|, dp_lin) ** (n - 1)
    crack_kg: np.ndarray  # k * crack_g: the flow per Pa in the linear band
    opening_flows: list[TwoWayFlow]  # each non-orifice opening's, with its derivative


class _CompiledNetwork:
    """Index and parameter arrays of one network.

    Links sit in slots grouped by type: cracks, then orifices, then the other
    large openings, then fans, each group in link order.  An orifice is a
    large opening between two zones of exactly equal density: there the
    law's gradient is 0.0 and its dp_mid is dp_bottom - 0.0, which is
    dp_bottom, as a zone-to-zone dp is never -0.0, so the law is the crack
    law at k = cd*W*H*sqrt(2*rho), n = 1/2, and the crack pass evaluates the
    orifice with the law's bits.  Cracks and openings couple their two end
    pressures; fans do not.  The residual, the Jacobian and the Picard system
    are each summed by one np.bincount over a layout of their own, whose
    terms are gathered back into link order, `from` end before `to` end, so
    each sum is added up in the same order, with the same rounding, as a
    loop over the links would give it; a term at an external end is in no
    layout.  A point keeps the row values the residual gathers, the
    mechanical flows, the fan flows and each coupled link's flow, in one
    vector copied from `row_values` and filled in by the crack pass and the
    opening laws.  The Jacobian gathers from the slopes alone, with the
    opening laws' derivatives appended when the network has such openings.

    The ends of the coupled links sit in one array: the from ends at each
    link's elevation, then the to ends there, then the from and then the to
    ends at each opening's mid-height, where Picard takes it as one orifice;
    an orifice's Picard term, too, is at its mid-height.  `boundary`
    computes what the weather sets: the offsets of the ends at external
    nodes, the law arguments of every opening but the orifices and every
    opening's Picard coefficient (an end at an external node takes the
    outdoor density), and the Picard rhs terms.
    """

    def __init__(self, net: Network):
        n = len(net.zones)
        self.n = n
        self.externals = net.external_nodes
        zone_rho = np.array([air_density(z.temperature_k) for z in net.zones])
        self.mech = np.array([z.mech_flow_kg_s for z in net.zones], dtype=float)

        def of_type(kind) -> list[int]:
            return [i for i, link in enumerate(net.links) if isinstance(link.model, kind)]

        node = {z.id: i for i, z in enumerate(net.zones)}
        node.update({e.id: n + j for j, e in enumerate(net.external_nodes)})
        # An external end's density (None) is the outdoor air's, which
        # `boundary` sets.
        rho = zone_rho.tolist() + [None] * len(net.external_nodes)

        def orifice(i: int) -> bool:
            """Whether link i joins two zones of exactly equal density."""
            link = net.links[i]
            rho_f = rho[node[link.from_node]]
            return rho_f is not None and rho_f == rho[node[link.to_node]]

        cracks, large, fans = of_type(Crack), of_type(LargeOpening), of_type(Fan)
        orifices = [i for i in large if orifice(i)]
        openings = [i for i in large if not orifice(i)]
        order = cracks + orifices + openings + fans
        slotted = [net.links[i] for i in order]
        self.ids = [link.id for link in net.links]
        nk, nc = len(cracks), len(cracks) + len(orifices)
        coupled = nc + len(openings)
        self.n_cracks, self.n_orifices = nk, len(orifices)
        self.n_pow = nc  # the links of the crack pass: the cracks, then the orifices

        node_f = np.array([node[link.from_node] for link in slotted], dtype=np.intp)
        node_t = np.array([node[link.to_node] for link in slotted], dtype=np.intp)
        col_f, col_t = np.minimum(node_f, n), np.minimum(node_t, n)

        models = [link.model for link in slotted]
        # Each opening's (width, height, cd, rho_from, rho_to), orifices first.
        self.openings = [
            (m.width_m, m.height_m, m.cd, rho[f], rho[t])
            for m, f, t in zip(models[nk:coupled], node_f[nk:], node_t[nk:])
        ]
        # An orifice's k is the law's cd * W * H * sqrt(2 * rho), in its order.
        orifice_k = [_orifice_k(w, h, cd, rho_f) for w, h, cd, rho_f, _ in self.openings[: nc - nk]]
        self.crack_k = np.array([m.k for m in models[:nk]] + orifice_k, dtype=float)
        self.crack_n = np.array([m.n for m in models[:nk]] + [0.5] * (nc - nk), dtype=float)
        self.crack_nk = self.crack_n * self.crack_k
        # The exponents n - 1, then n, of each crack, flat: a broadcast is slower.
        self.crack_exponents = np.concatenate((self.crack_n - 1.0, self.crack_n))
        self.crack_kk = np.tile(self.crack_k, 2)
        self.opening_ids = [link.id for link in slotted[nc:coupled]]
        self.fan_flow = np.array([m.flow_kg_s for m in models[coupled:]], dtype=float)

        # Every link end (see the class docstring): its column and z - ref, and
        # its offset; a zone end's is 0 - rho * g * (z - ref) for good, and an
        # external end's is set by `boundary` from its node's wind.
        elevation = np.array([link.elevation_m for link in slotted[:coupled]], dtype=float)
        mid_z = elevation[nk:] + np.array([0.5 * h for _, h, *_ in self.openings])
        open_ends = np.concatenate((node_f[nk:coupled], node_t[nk:coupled]))
        end_node = np.concatenate((node_f[:coupled], node_t[:coupled], open_ends))
        node_ref = np.array([z.ref_height_m for z in (*net.zones, *net.external_nodes)])
        end_dz = np.concatenate((elevation, elevation, mid_z, mid_z)) - node_ref[end_node]
        self.end_col = np.minimum(end_node, n)
        self.ends = 0.0 - np.append(zone_rho * GRAVITY, 0.0).take(self.end_col) * end_dz
        facade = self.facade_ends = end_node >= n
        self.facade_node, self.facade_dz = end_node[facade] - n, end_dz[facade]
        self.at_f, self.at_t = slice(0, coupled), slice(coupled, 2 * coupled)
        self.mid_f, self.mid_t = slice(2 * coupled, 3 * coupled - nk), slice(3 * coupled - nk, None)

        # The residual's terms are the n mechanical flows, then each link's
        # from and to terms in link order, and its bins are the zones.  The
        # Jacobian's terms are each coupled link's (f,f), (f,t), (t,f), (t,t)
        # entries in link order, gathered from the slopes by slot, and entry
        # (r, c) is bin r * n + c.  A term at an external end is in neither:
        # np.bincount adds each bin's terms in input order, so leaving out
        # another bin's terms changes no sum.
        slot_of = np.empty(len(slotted), dtype=np.intp)
        slot_of[order] = np.arange(len(slotted))
        self.slot_of = slot_of.tolist()
        nf = len(fans)
        mech_fans = np.concatenate((self.mech, self.fan_flow))
        # A point's row values: these, then each coupled link's flow.
        self.row_values = np.concatenate((mech_fans, np.zeros(coupled)))
        self.crack_values = slice(n + nf, n + nf + nc)
        self.opening_values = slice(n + nf + nc, n + nf + coupled)
        row_value = np.where(slot_of < coupled, n + nf + slot_of, n + slot_of - coupled)
        link_bins = np.column_stack((col_f[slot_of], col_t[slot_of])).ravel()
        row_bin = np.concatenate((np.arange(n), link_bins))
        in_zone = row_bin < n
        self.row_index = row_bin[in_zone]
        self.row_gather = np.concatenate((np.arange(n), np.repeat(row_value, 2)))[in_zone]
        self.row_sign = np.concatenate((np.ones(n), np.tile(_ROW_SIGNS, len(slotted))))[in_zone]
        coupled_slots = slot_of[slot_of < coupled]
        f, t = col_f[coupled_slots], col_t[coupled_slots]
        rows = np.column_stack((f, f, t, t)).ravel()
        cols = np.column_stack((f, t, f, t)).ravel()
        in_zones = (rows < n) & (cols < n)
        self.entry_index = (rows * n + cols)[in_zones]
        self.entry_gather = np.repeat(coupled_slots, 4)[in_zones]
        self.entry_sign = np.tile(_ENTRY_SIGNS, coupled)[in_zones]

        # The Picard system scatters the rhs over the residual's layout and the
        # matrix over the Jacobian's, from bin n on, in one np.bincount.  Its
        # values are -mech per zone, -flow per fan and G per coupled link; G's
        # row terms take the to minus from offset where Picard takes dp (a
        # crack's elevation, an opening's mid-height), as G * (off_f - off_t)
        # is constant.
        self.neg_mech_fans = -mech_fans
        self.picard_index = np.concatenate((self.row_index, n + self.entry_index))
        self.picard_gather = np.concatenate((self.row_gather, n + nf + self.entry_gather))
        self.picard_sign = np.concatenate((self.row_sign, self.entry_sign))
        self.picard_rhs = np.flatnonzero(self.row_gather >= n + nf)
        s = self.row_gather[self.picard_rhs] - (n + nf)
        self.rhs_f = np.where(s < nk, s, s + 2 * coupled - nk)
        self.rhs_t = self.rhs_f + np.where(s < nk, coupled, coupled - nk)
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
        mid_k = [_orifice_k(w, h, cd, 0.5 * (rf + rt)) for w, h, cd, rf, rt in args]
        opening_args = args[self.n_orifices :]
        return _Boundary(bc=bc, ends=ends, picard_coef=coef, opening_args=opening_args, mid_k=mid_k)

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
        # Equal bytes in one dimension are n entries; other shapes reach the check.
        if same_bc and last.key == key and last.dp_lin == dp_lin and pressures.ndim == 1:
            return last
        if pressures.shape != (self.n,):
            shape = pressures.shape
            given = f"{shape[0]} pressures" if len(shape) == 1 else f"pressures of shape {shape}"
            raise ValueError(f"{given} given for {self.n} zones")
        pz = np.concatenate((pressures, _PADDING))
        b = last.boundary if same_bc else self.boundary(bc)
        ends = b.ends + pz.take(self.end_col)
        dp = ends[self.at_f] - ends[self.at_t]
        nc = self.n_pow
        # Each crack once, with the float laws' rounding: in the linear band
        # flow (k*g)*dp, slope k*g, conductance k*g; outside it flow
        # copysign(k*h, dp), slope (n*k)*g, conductance k*g.
        crack_dp = dp[:nc]
        mag = np.abs(crack_dp)
        lin = mag < dp_lin
        # g = max(|dp|, dp_lin) ** (n - 1), then h = ... ** n: np.float_power
        # calls the C library's pow per element, as the float laws do.
        base = np.maximum(mag, dp_lin)
        powers = np.float_power(np.concatenate((base, base)), self.crack_exponents)
        kgh = self.crack_kk * powers  # k*g, then k*h
        kg, kh = kgh[:nc], kgh[nc:]
        values = self.row_values.copy()
        flows = values[self.crack_values]
        np.copysign(kh, crack_dp, out=flows)
        np.multiply(kg, crack_dp, out=flows, where=lin)
        opening_flows = []
        if b.opening_args:
            opening_flows = [
                large_opening_flow(*args, dp_bottom, dp_lin)
                for args, dp_bottom in zip(b.opening_args, dp[nc:].tolist())
            ]
            values[self.opening_values] = [two_way.net for two_way in opening_flows]
        last = self._point = _Point(
            boundary=b,
            dp_lin=dp_lin,
            key=key,
            ends=ends,
            values=values,
            crack_lin=lin,
            crack_g=powers[:nc],
            crack_kg=kg,
            opening_flows=opening_flows,
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
    terms = c.point(p, bc, dp_lin).values.take(c.row_gather) * c.row_sign
    return np.bincount(c.row_index, terms, minlength=c.n)


def jacobian(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """Derivative of the residual with respect to the zone pressures."""
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    slopes = c.crack_nk * at.crack_g
    np.copyto(slopes, at.crack_kg, where=at.crack_lin)
    if at.opening_flows:
        slopes = np.concatenate((slopes, [two_way.derivative for two_way in at.opening_flows]))
    n = c.n
    terms = slopes.take(c.entry_gather) * c.entry_sign
    return np.bincount(c.entry_index, terms, minlength=n * n).reshape(n, n)


def link_flows(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> dict[str, TwoWayFlow]:
    """Per-link flows at the given pressures, in link order, read from the
    point the residual and the Jacobian use: no link law runs again.

    The signed flow (positive from -> to) is `TwoWayFlow.net`; the two
    directional components differ from the trivial split only for
    bidirectional large openings.  Every large opening's record carries its
    derivative, as `large_opening_flow` returns it.
    """
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)

    def one_way(flows: list[float]) -> list[TwoWayFlow]:
        return [TwoWayFlow(max(flow, 0.0), max(-flow, 0.0), None) for flow in flows]

    nk = c.n_cracks
    flows = at.values[c.crack_values].tolist()
    # An orifice's record is the one its law returns: the crack pass's flow
    # split by sign, with no -0.0, and the slope `jacobian` takes for it.
    slopes = np.where(at.crack_lin, at.crack_kg, c.crack_nk * at.crack_g)[nk:].tolist()
    orifices = [
        TwoWayFlow(flow if flow > 0 else 0.0, -flow if flow < 0 else 0.0, None, slope)
        for flow, slope in zip(flows[nk:], slopes)
    ]
    slotted = one_way(flows[:nk]) + orifices + at.opening_flows + one_way(c.fan_flow.tolist())
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
    values = np.concatenate((c.neg_mech_fans, at.crack_kg[: c.n_cracks], openings))
    n = c.n
    terms = values.take(c.picard_gather) * b.picard_coef
    summed = np.bincount(c.picard_index, terms, minlength=n + n * n)
    return LinearSystem(matrix=summed[n:].reshape(n, n), rhs=summed[:n])
