"""Assembly of the nonlinear mass-balance system from a network and weather.

Given a pressure vector p (one entry per zone, in network order) and a
boundary state, this module produces:

* the residual f(p): net mass inflow per zone, including mechanical
  ventilation, which is zero at the solution;
* the Jacobian J(p) = df/dp for Newton steps;
* the secant matrix A(p), the Jacobian's pattern with conductances frozen
  at the current iterate, from which the Picard initializer steps by
  -A^-1 f(p);
* the flow through each link, for callers that report flows.

Stack pressures use a constant density per node column between the node's
reference height and the link elevation.

The cracks, the large openings between zones of exactly equal density,
whose law is then the crack law with exponent 1/2, and every large opening
at its mid-height, where the Picard system takes it as one orifice of
exponent 1/2, are evaluated in one array pass; every other large opening
takes one call of its law per point.  The links are evaluated once per
point, and `residual`, `jacobian`, `picard_system` and `link_flows` each
take only what they return from it: no scalar law runs but the opening law.
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
    # Unused here, as the compiled network evaluates its cracks and each
    # opening's Picard orifice in arrays and each opening's flow carries its
    # derivative; kept because perfbench/tracing.py wraps all four in this
    # module.
    crack_conductance,
    crack_derivative,
    crack_flow,
    large_opening_derivative,
    large_opening_flow,
)
from .network import _NON_FINITE, Crack, Fan, LargeOpening, Network
from .network import _checked, _field_violations, _positive

__all__ = [
    "BoundaryState",
    "link_flows",
    "residual",
    "jacobian",
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

    wind_speed: float = _checked(_NON_FINITE, (lambda v: v >= 0, "wind speed must be >= 0, got {}"))
    wind_direction_deg: float = _checked(_NON_FINITE)
    outdoor_temp_k: float = _checked(_NON_FINITE, (_positive, "outdoor temperature must be > 0 K, got {}"))

    def __post_init__(self):
        for violation in _field_violations(self):
            raise ValueError(violation)  # the first
        # A tiny negative direction reduces to 360.0, which is north too.
        direction = self.wind_direction_deg % 360.0
        object.__setattr__(self, "wind_direction_deg", 0.0 if direction == 360.0 else direction)


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
    with the offset of every member end in the compiled network's layout."""

    bc: BoundaryState
    ends: np.ndarray
    crack_kk: np.ndarray  # each member's k, twice, the law openings' mid-height k set
    crack_nk: np.ndarray  # n * k of each member
    opening_args: list[tuple]  # (width, height, cd, rho_from, rho_to) per law opening


class _Point(NamedTuple):
    """The coupled links of a compiled network evaluated at one pressure
    vector, boundary and dp_lin.  The crack arrays hold one entry per member
    of the crack pass."""

    boundary: _Boundary
    dp_lin: float
    key: bytes  # the pressures as float64
    values: np.ndarray  # the row values the residual gathers: mech, fans, each member's flow
    crack_lin: np.ndarray  # |dp| < dp_lin
    crack_g: np.ndarray  # max(|dp|, dp_lin) ** (n - 1)
    crack_kg: np.ndarray  # k * crack_g: the flow per Pa in the linear band, the Picard conductance
    opening_flows: list[TwoWayFlow]  # each law opening's, with its derivative


class _CompiledNetwork:
    """Index and parameter arrays of one network.

    Links sit in slots grouped by type: cracks, then orifices, then the other
    large openings (the law openings), then fans, each group in link order.
    An orifice is a large opening between two zones of exactly equal density:
    there the law's gradient is 0.0 and its dp_mid is dp_bottom - 0.0, which
    is dp_bottom, as a zone-to-zone dp is never -0.0, so the law is the crack
    law at k = cd*W*H*sqrt(2*rho), n = 1/2, and the crack pass evaluates the
    orifice with the law's bits.  Cracks and openings couple their two end
    pressures; fans do not.

    The coupled links are evaluated as members, laid out as the cracks, the
    orifices, every opening at its mid-height, then the law openings; the
    first three groups make up the crack pass.  A mid-height member is the
    one orifice Picard takes an opening for, k = cd*W*H*sqrt(2*rho_mean) and
    n = 1/2, so its k * max(|dp|, dp_lin) ** (n - 1) has the bits of
    `crack_conductance`.  An orifice's mid-height k is its k, compiled; a law
    opening's is set by `boundary` from the arguments of its law.  The ends
    of the members sit in one array, every member's from end and then every
    member's to end, so one subtraction gives every dp.

    The residual and the Jacobian are each summed by one np.bincount over a
    layout of its own, whose terms are gathered back into link order, `from`
    end before `to` end, so each sum is added up in the same order, with the
    same rounding, as a loop over the links would give it; a term at an
    external end is in no layout.  A point keeps the row values the residual
    gathers, the mechanical flows, the fan flows and each member's flow, in
    one vector copied from `row_values` and filled in by the crack pass and
    the opening laws.  The Jacobian gathers from the slopes alone, with the
    opening laws' derivatives appended when the network has law openings.
    The Picard matrix takes the Jacobian's layout and gathers from the crack
    pass's k * g: a crack's at its elevation, an opening's at its
    mid-height.  `boundary` computes what the weather sets: the offsets of
    the ends at external nodes, from one array expression over each end's
    cp row, and the law openings' arguments (an end at an external node
    takes the outdoor density) and, from them, their mid-height k.
    """

    def __init__(self, net: Network):
        n = len(net.zones)
        self.n = n
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
        # The members of the crack pass: the cracks, the orifices, then every
        # opening at its mid-height; after them come the law openings.
        npow = self.n_pow = nc + coupled - nk
        self.n_members = npow + len(openings)

        node_f = np.array([node[link.from_node] for link in slotted], dtype=np.intp)
        node_t = np.array([node[link.to_node] for link in slotted], dtype=np.intp)
        col_f, col_t = np.minimum(node_f, n), np.minimum(node_t, n)

        models = [link.model for link in slotted]
        # Each opening's (width, height, cd, rho_from, rho_to), orifices first.
        sizes = [
            (m.width_m, m.height_m, m.cd, rho[f], rho[t])
            for m, f, t in zip(models[nk:coupled], node_f[nk:], node_t[nk:])
        ]
        self.law_openings = sizes[nc - nk :]
        # An orifice's k is the law's cd * W * H * sqrt(2 * rho), in its order,
        # at its elevation and at its mid-height, as its mean density is rho.
        orifice_k = [_orifice_k(w, h, cd, rho_f) for w, h, cd, rho_f, _ in sizes[: nc - nk]]
        self.crack_k = np.array([m.k for m in models[:nk]] + orifice_k * 2, dtype=float)
        self.crack_n = np.array([m.n for m in models[:nk]] + [0.5] * (npow - nk), dtype=float)
        # The exponents n - 1, then n, of each member, flat: a broadcast is slower.
        self.crack_exponents = np.concatenate((self.crack_n - 1.0, self.crack_n))
        # Each compiled member's k, twice, and n * k; `boundary` appends the
        # law openings' mid-height k.
        self.crack_kk = np.tile(self.crack_k, 2)
        self.crack_nk = self.crack_n[: len(self.crack_k)] * self.crack_k
        self.opening_ids = [link.id for link in slotted[nc:coupled]]
        self.fan_flow = np.array([m.flow_kg_s for m in models[coupled:]], dtype=float)

        # Every member's from and to end (see the class docstring): its column
        # and z - ref, and its offset; a zone end's is 0 - rho * g * (z - ref)
        # for good, and an external end's is set by `boundary` from its node's
        # wind.  A coupled slot's member at its elevation, whose flow and slope
        # the residual and the Jacobian take, and its Picard member, at a
        # crack's elevation or an opening's mid-height, index the members.
        at_elevation = np.concatenate((np.arange(nc), npow + np.arange(coupled - nc)))
        picard_member = np.concatenate((np.arange(nk), nc + np.arange(coupled - nk)))
        member_slot = np.concatenate((np.arange(nc), np.arange(nk, coupled), np.arange(nc, coupled)))
        elevation = np.array([link.elevation_m for link in slotted[:coupled]], dtype=float)
        mid_z = elevation[nk:] + np.array([0.5 * h for _, h, *_ in sizes])
        member_z = np.concatenate((elevation[:nc], mid_z, elevation[nc:]))
        end_node = np.concatenate((node_f[member_slot], node_t[member_slot]))
        node_ref = np.array([z.ref_height_m for z in (*net.zones, *net.external_nodes)])
        end_dz = np.tile(member_z, 2) - node_ref[end_node]
        self.end_col = np.minimum(end_node, n)
        self.ends = 0.0 - np.append(zone_rho * GRAVITY, 0.0).take(self.end_col) * end_dz
        facade = self.facade_ends = end_node >= n
        cp = np.array([e.cp for e in net.external_nodes], dtype=float).reshape(-1, 8)
        self.facade_dz, self.facade_cp = end_dz[facade], cp[end_node[facade] - n]

        # The residual's terms are the n mechanical flows, then each link's
        # from and to terms in link order, and its bins are the zones.  The
        # Jacobian's terms are each coupled link's (f,f), (f,t), (t,f), (t,t)
        # entries in link order, gathered from the members' slopes, and entry
        # (r, c) is bin r * n + c.  A term at an external end is in neither:
        # np.bincount adds each bin's terms in input order, so leaving out
        # another bin's terms changes no sum.
        slot_of = np.empty(len(slotted), dtype=np.intp)
        slot_of[order] = np.arange(len(slotted))
        self.slot_of = slot_of.tolist()
        nf = len(fans)
        # A point's row values: the mechanical flows, the fan flows, then each
        # member's flow.
        self.row_values = np.concatenate((self.mech, self.fan_flow, np.zeros(self.n_members)))
        self.crack_values = slice(n + nf, n + nf + npow)
        self.opening_values = slice(n + nf + npow, None)
        link_bins = np.column_stack((col_f[slot_of], col_t[slot_of])).ravel()
        row_bin = np.concatenate((np.arange(n), link_bins))
        in_zone = row_bin < n
        self.row_index = row_bin[in_zone]
        of_slot = np.concatenate((n + nf + at_elevation, n + np.arange(nf)))
        self.row_gather = np.concatenate((np.arange(n), np.repeat(of_slot[slot_of], 2)))[in_zone]
        self.row_sign = np.concatenate((np.ones(n), np.tile(_ROW_SIGNS, len(slotted))))[in_zone]
        coupled_slots = slot_of[slot_of < coupled]
        f, t = col_f[coupled_slots], col_t[coupled_slots]
        rows = np.column_stack((f, f, t, t)).ravel()
        cols = np.column_stack((f, t, f, t)).ravel()
        in_zones = (rows < n) & (cols < n)
        self.entry_index = (rows * n + cols)[in_zones]
        entry_slot = np.repeat(coupled_slots, 4)[in_zones]
        self.entry_gather = at_elevation[entry_slot]
        self.entry_sign = np.tile(_ENTRY_SIGNS, coupled)[in_zones]
        # The Picard matrix takes the Jacobian's layout, each entry gathered
        # from the k * g of its link's Picard member.
        self.picard_gather = picard_member[entry_slot]
        self._point: _Point | None = None

    def boundary(self, bc: BoundaryState) -> _Boundary:
        """The boundary terms for bc."""
        rho_out = air_density(bc.outdoor_temp_k)
        # Every facade end's wind pressure 0.5 * rho_out * Cp(dir) * v**2, Cp linear
        # between 45-degree sector centres, each operation as the scalar formula's.
        sector = bc.wind_direction_deg / 45.0
        base = int(sector) % 8
        frac = sector - int(sector)
        cp = self.facade_cp
        cp_dir = cp[:, base] * (1.0 - frac) + cp[:, (base + 1) % 8] * frac
        wind = 0.5 * rho_out * cp_dir * bc.wind_speed**2
        ends = self.ends.copy()
        ends[self.facade_ends] = wind - (rho_out * GRAVITY) * self.facade_dz
        args = [
            (w, h, cd, rho_out if rf is None else rf, rho_out if rt is None else rt)
            for w, h, cd, rf, rt in self.law_openings
        ]
        crack_kk, crack_nk = self.crack_kk, self.crack_nk
        if args:
            mid_k = [_orifice_k(w, h, cd, 0.5 * (rf + rt)) for w, h, cd, rf, rt in args]
            k = np.append(self.crack_k, mid_k)
            crack_kk, crack_nk = np.concatenate((k, k)), self.crack_n * k
        return _Boundary(bc, ends, crack_kk, crack_nk, args)

    def slopes(self, at: _Point) -> np.ndarray:
        """Each crack-pass member's slope at a point."""
        slopes = at.boundary.crack_nk * at.crack_g
        np.copyto(slopes, at.crack_kg, where=at.crack_lin)
        return slopes

    def matrix(self, values: np.ndarray, gather: np.ndarray) -> np.ndarray:
        """The n x n matrix over the Jacobian's layout whose coupled links
        take the values at `gather`: their slopes, or their Picard k * g."""
        n = self.n
        terms = values.take(gather) * self.entry_sign
        return np.bincount(self.entry_index, terms, minlength=n * n).reshape(n, n)

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
        m = self.n_members
        dp = ends[:m] - ends[m:]
        npow = self.n_pow
        # Each member once, with the float laws' rounding: in the linear band
        # flow (k*g)*dp, slope k*g, conductance k*g; outside it flow
        # copysign(k*h, dp), slope (n*k)*g, conductance k*g.
        crack_dp = dp[:npow]
        mag = np.abs(crack_dp)
        lin = mag < dp_lin
        # g = max(|dp|, dp_lin) ** (n - 1), then h = ... ** n: np.float_power
        # calls the C library's pow per element, as the float laws do.
        base = np.maximum(mag, dp_lin)
        powers = np.float_power(np.concatenate((base, base)), self.crack_exponents)
        kgh = b.crack_kk * powers  # k*g, then k*h
        kg, kh = kgh[:npow], kgh[npow:]
        values = self.row_values.copy()
        flows = values[self.crack_values]
        np.copysign(kh, crack_dp, out=flows)
        np.multiply(kg, crack_dp, out=flows, where=lin)
        opening_flows = []
        if b.opening_args:
            opening_flows = [
                large_opening_flow(*args, dp_bottom, dp_lin)
                for args, dp_bottom in zip(b.opening_args, dp[npow:].tolist())
            ]
            values[self.opening_values] = [two_way.net for two_way in opening_flows]
        last = self._point = _Point(b, dp_lin, key, values, lin, powers[:npow], kg, opening_flows)
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
    slopes = c.slopes(at)
    if at.opening_flows:
        slopes = np.concatenate((slopes, [two_way.derivative for two_way in at.opening_flows]))
    return c.matrix(slopes, c.entry_gather)


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
    slopes = c.slopes(at)
    nk, nc = c.n_cracks, c.n_cracks + c.n_orifices

    def split(flow: float, derivative: float | None = None) -> TwoWayFlow:
        """The flow split by sign, with no -0.0."""
        return TwoWayFlow(flow if flow > 0 else 0.0, -flow if flow < 0 else 0.0, None, derivative)

    # An orifice's record is the one its law returns, with the slope
    # `jacobian` takes for it.
    flows = at.values[c.crack_values][:nc].tolist()
    crack_pass = list(map(split, flows, [None] * nk + slopes[nk:nc].tolist()))
    slotted = crack_pass + at.opening_flows + list(map(split, c.fan_flow.tolist()))
    return {link_id: slotted[slot] for link_id, slot in zip(c.ids, c.slot_of)}


def picard_system(
    net: Network, p: np.ndarray, bc: BoundaryState, dp_lin: float = DP_LIN_DEFAULT
) -> np.ndarray:
    """The secant matrix A(p): the Jacobian's pattern with each coupled
    link's slope replaced by its conductance frozen at the current iterate.

    A crack contributes its secant conductance k * max(|dp|, dp_lin)**(n-1);
    a large opening is collapsed to a single equivalent orifice at its
    mid-height (K = cd*W*H*sqrt(2*rho_mean), exponent 1/2), a member of the
    crack pass.  The constant terms (wind pressures, stack offsets, fans,
    mechanical flows) have no right-hand side of their own: Picard steps by
    -A^-1 F(p) from the residual F, which sums them.  Where every large
    opening joins zones of equal density, A(p) @ p - F(p) is the right-hand
    side b(p) of the paper's linear system A x = b, so that step leads to
    its solution; and a fixed point of the step is a root of the residual
    whatever A holds.

    Raises ReciprocalFlowError when any large opening currently carries
    two-way flow: the single-conductance picture cannot represent it.
    """
    c = _compiled(net)
    at = c.point(p, bc, dp_lin)
    if at.opening_flows:
        for link_id, two_way in zip(c.opening_ids, at.opening_flows):
            if two_way.bidirectional:
                raise ReciprocalFlowError(link_id)
    return c.matrix(at.crack_kg, c.picard_gather)
