"""Flow laws for the network link types.

Each element provides its mass flow, the analytic derivative of that flow
with respect to the driving pressure difference (for the Newton Jacobian),
and, for cracks, a linearized conductance G such that flow = G * dP (for the
fixed-point initializer).  The laws take floats.  `assembly` evaluates all
the cracks of a network at once, in arrays, from the same C-library `pow`
and the same products, so each array element has the bits of the float law.

Sign convention: dP > 0 drives flow from the link's `from` side to its `to`
side, and the returned flows are positive in that direction.

Units: pressures in Pa, mass flows in kg/s, densities in kg/m3, lengths in m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "GRAVITY",
    "DP_LIN_DEFAULT",
    "TwoWayFlow",
    "air_density",
    "crack_flow",
    "crack_derivative",
    "crack_conductance",
    "large_opening_flow",
    "large_opening_derivative",
]

GRAVITY = 9.81  # m/s2

# Ideal gas at a fixed 101325 Pa reference: rho = 353.05 / T.
_DENSITY_NUMERATOR = 353.05  # kg*K/m3

# Below this |dP| the power law is replaced by a secant line through
# (dp_lin, flow(dp_lin)); for n < 1 the true derivative diverges at dP = 0
# and would wreck the Newton iteration.
DP_LIN_DEFAULT = 1e-3  # Pa

# When the hydrostatic pressure variation over an opening's height is this
# small relative to the mean pressure difference, the opening behaves as a
# plain orifice; the branch also avoids catastrophic cancellation in the
# closed-form segment integrals.
_STRATIFICATION_EPS = 1e-6


def air_density(temperature_k: float) -> float:
    """Dry-air density at 101325 Pa, kg/m3."""
    if temperature_k <= 0:
        raise ValueError(f"temperature must be > 0 K, got {temperature_k}")
    return _DENSITY_NUMERATOR / temperature_k


@dataclass(frozen=True)
class TwoWayFlow:
    """Directional mass-flow components through one opening.

    `flow_forward` runs from the link's `from` side to its `to` side,
    `flow_reverse` the other way; both are >= 0.  `neutral_height` is the
    elevation above the opening's bottom edge where the local pressure
    difference crosses zero, when that elevation falls within the opening.
    """

    flow_forward: float
    flow_reverse: float
    neutral_height: float | None = None

    @property
    def net(self) -> float:
        return self.flow_forward - self.flow_reverse

    @property
    def bidirectional(self) -> bool:
        return self.flow_forward > 0.0 and self.flow_reverse > 0.0


# ---------------------------------------------------------------------------
# cracks (power-law small openings)


def crack_flow(k: float, n: float, dp: float, dp_lin: float = DP_LIN_DEFAULT) -> float:
    """Signed power-law flow k * |dP|**n, linearized below dp_lin.

    Odd in dP; continuous at the linearization breakpoint.
    """
    mag = abs(dp)
    if mag < dp_lin:
        return k * dp_lin ** (n - 1.0) * dp
    return math.copysign(k * mag**n, dp)


def crack_derivative(k: float, n: float, dp: float, dp_lin: float = DP_LIN_DEFAULT) -> float:
    """Exact derivative of crack_flow with respect to dP; always > 0."""
    mag = abs(dp)
    if mag < dp_lin:
        return k * dp_lin ** (n - 1.0)
    return n * k * mag ** (n - 1.0)


def crack_conductance(k: float, n: float, dp: float, dp_lin: float = DP_LIN_DEFAULT) -> float:
    """Linearized conductance G = k * max(|dP|, dp_lin)**(n-1).

    Satisfies G * dP == crack_flow(dP) for every dP (exactly, including the
    linearized region), which is what makes the fixed-point system consistent
    with the residual for crack-only networks.
    """
    return k * max(abs(dp), dp_lin) ** (n - 1.0)


# ---------------------------------------------------------------------------
# large openings (doors, windows)


def large_opening_flow(
    width: float,
    height: float,
    cd: float,
    rho_from: float,
    rho_to: float,
    dp_bottom: float,
    dp_lin: float = DP_LIN_DEFAULT,
) -> TwoWayFlow:
    """Integrate the orifice law over the opening height, in closed form.

    The pressure difference varies hydrostatically over the opening,
    dP(z) = dp_bottom - g * (rho_from - rho_to) * z for z in [0, height],
    with constant per-side densities.  Each one-signed segment of dP
    contributes (2/3) * cd * W * sqrt(2 rho_upwind) * |dP_edge|^(3/2) / (g |drho|);
    when the densities match, the opening reduces to a plain orifice
    cd * W * H * sqrt(2 rho |dP|), linearized below dp_lin exactly like a
    crack so flow and derivative stay consistent for the Newton iteration.
    Upwind density follows the local flow direction.  Degenerate inputs
    produce zero flows rather than errors.
    """
    gradient = GRAVITY * (rho_from - rho_to)  # -d(dP)/dz
    dp_mid = dp_bottom - 0.5 * gradient * height

    if gradient == 0.0 or abs(gradient) * height <= _STRATIFICATION_EPS * abs(dp_mid):
        if dp_mid == 0.0:
            return TwoWayFlow(0.0, 0.0, None)
        rho_up = rho_from if dp_mid > 0 else rho_to
        k_eq = cd * width * height * math.sqrt(2.0 * rho_up)
        flow = crack_flow(k_eq, 0.5, dp_mid, dp_lin)
        if flow > 0:
            return TwoWayFlow(flow, 0.0, None)
        return TwoWayFlow(0.0, -flow, None)

    p_bot = dp_bottom
    p_top = dp_bottom - gradient * height
    z_neutral = dp_bottom / gradient
    coeff = 2.0 * cd * width / (3.0 * abs(gradient))

    def segment(p_a: float, p_b: float, rho: float) -> float:
        return coeff * math.sqrt(2.0 * rho) * abs(abs(p_a) ** 1.5 - abs(p_b) ** 1.5)

    if 0.0 < z_neutral < height:
        # Neutral plane inside the opening: simultaneous two-way flow.
        if p_bot > 0.0:
            forward = segment(p_bot, 0.0, rho_from)
            reverse = segment(0.0, p_top, rho_to)
        else:
            forward = segment(0.0, p_top, rho_from)
            reverse = segment(p_bot, 0.0, rho_to)
        return TwoWayFlow(forward, reverse, z_neutral)

    neutral = z_neutral if 0.0 <= z_neutral <= height else None
    if p_bot >= 0.0 and p_top >= 0.0:
        return TwoWayFlow(segment(p_bot, p_top, rho_from), 0.0, neutral)
    return TwoWayFlow(0.0, segment(p_bot, p_top, rho_to), neutral)


def large_opening_derivative(
    width: float,
    height: float,
    cd: float,
    rho_from: float,
    rho_to: float,
    dp_bottom: float,
    dp_lin: float = DP_LIN_DEFAULT,
) -> float:
    """Derivative of the net opening flow with respect to dp_bottom.

    Differentiates the closed-form segments exactly; edge pressure
    magnitudes are floored at dp_lin so the result stays positive and
    bounded where the true derivative would blow up (zero-dP edges).
    """
    gradient = GRAVITY * (rho_from - rho_to)
    dp_mid = dp_bottom - 0.5 * gradient * height

    if gradient == 0.0 or abs(gradient) * height <= _STRATIFICATION_EPS * abs(dp_mid):
        if dp_mid > 0:
            rho_up = rho_from
        elif dp_mid < 0:
            rho_up = rho_to
        else:
            rho_up = 0.5 * (rho_from + rho_to)
        k_eq = cd * width * height * math.sqrt(2.0 * rho_up)
        return crack_derivative(k_eq, 0.5, dp_mid, dp_lin)

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
