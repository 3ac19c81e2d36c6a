"""Flow laws for the network link types.

Each element provides its mass flow, the analytic derivative of that flow
with respect to the driving pressure difference (for the Newton Jacobian),
and, for cracks, a linearized conductance G such that flow = G * dP (for the
fixed-point initializer).  A large opening's law returns its derivative with
its flows, from the same branch, so one call per opening and point serves
the residual and the Jacobian.  The laws take floats.  `assembly` evaluates
all the cracks of a network at once, in arrays: one `np.float_power` call
runs the C library's `pow`, which the float laws call, element by element
(`np.power` may take a SIMD pow that rounds otherwise), and the same
products follow, so each array element has the bits of the float law.
With them it evaluates each large opening between zones of
exactly equal density: there `large_opening_flow` always takes its
unstratified branch, which is the crack law at exponent 1/2 with
k = cd*W*H*sqrt(2*rho).

Sign convention: dP > 0 drives flow from the link's `from` side to its `to`
side, and the returned flows are positive in that direction.

Units: pressures in Pa, mass flows in kg/s, densities in kg/m3, lengths in m.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "GRAVITY",
    "DP_LIN_DEFAULT",
    "TwoWayFlow",
    "air_density",
    "large_opening_flow",
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


class TwoWayFlow(NamedTuple):
    """Directional mass-flow components through one opening.

    `flow_forward` runs from the link's `from` side to its `to` side,
    `flow_reverse` the other way; both are >= 0.  `neutral_height` is the
    elevation above the opening's bottom edge where the local pressure
    difference crosses zero, when that elevation falls within the opening.
    `derivative` is d(net)/d(dp_bottom) for a large opening, None for a
    crack or a fan.  A named tuple, the cheapest record to build: every
    residual builds one per opening.
    """

    flow_forward: float
    flow_reverse: float
    neutral_height: float | None = None
    derivative: float | None = None

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

    The result's `derivative` is d(net)/d(dp_bottom), from the closed-form
    segments differentiated exactly, with edge pressure magnitudes floored
    at dp_lin so it stays positive and bounded where the true derivative
    would blow up (zero-dP edges).
    """
    gradient = GRAVITY * (rho_from - rho_to)  # -d(dP)/dz
    dp_mid = dp_bottom - 0.5 * gradient * height

    if gradient == 0.0 or abs(gradient) * height <= _STRATIFICATION_EPS * abs(dp_mid):
        if dp_mid > 0:
            rho_up = rho_from
        elif dp_mid < 0:
            rho_up = rho_to
        else:
            rho_up = 0.5 * (rho_from + rho_to)
        k_eq = cd * width * height * math.sqrt(2.0 * rho_up)
        derivative = crack_derivative(k_eq, 0.5, dp_mid, dp_lin)
        if dp_mid == 0.0:
            return TwoWayFlow(0.0, 0.0, None, derivative)
        flow = crack_flow(k_eq, 0.5, dp_mid, dp_lin)
        if flow > 0:
            return TwoWayFlow(flow, 0.0, None, derivative)
        return TwoWayFlow(0.0, -flow, None, derivative)

    p_bot = dp_bottom
    p_top = dp_bottom - gradient * height
    z_neutral = dp_bottom / gradient
    coeff = 2.0 * cd * width / (3.0 * abs(gradient))
    unit = cd * width

    def segment(p_a: float, p_b: float, rho: float) -> float:
        return coeff * math.sqrt(2.0 * rho) * abs(abs(p_a) ** 1.5 - abs(p_b) ** 1.5)

    def edge(p_edge: float) -> float:
        return math.sqrt(max(abs(p_edge), dp_lin))

    if 0.0 < z_neutral < height:
        # Neutral plane inside the opening: simultaneous two-way flow.
        rho_bot, rho_top = (rho_from, rho_to) if p_bot > 0.0 else (rho_to, rho_from)
        bottom, top = segment(p_bot, 0.0, rho_bot), segment(0.0, p_top, rho_top)
        forward, reverse = (bottom, top) if p_bot > 0.0 else (top, bottom)
        d_bot = unit * math.sqrt(2.0 * rho_bot) * z_neutral / edge(p_bot)
        d_top = unit * math.sqrt(2.0 * rho_top) * (height - z_neutral) / edge(p_top)
        return TwoWayFlow(forward, reverse, z_neutral, d_bot + d_top)

    neutral = z_neutral if 0.0 <= z_neutral <= height else None
    positive = p_bot >= 0.0 and p_top >= 0.0
    rho_up = rho_from if positive else rho_to
    flow = segment(p_bot, p_top, rho_up)
    derivative = unit * math.sqrt(2.0 * rho_up) * height / (edge(p_bot) + edge(p_top))
    if positive:
        return TwoWayFlow(flow, 0.0, neutral, derivative)
    return TwoWayFlow(0.0, flow, neutral, derivative)


def large_opening_derivative(
    width: float,
    height: float,
    cd: float,
    rho_from: float,
    rho_to: float,
    dp_bottom: float,
    dp_lin: float = DP_LIN_DEFAULT,
) -> float:
    """d(net flow)/d(dp_bottom): `large_opening_flow(...).derivative`."""
    return large_opening_flow(width, height, cd, rho_from, rho_to, dp_bottom, dp_lin).derivative
