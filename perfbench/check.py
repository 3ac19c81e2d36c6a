"""Answer checks that do not trust the package under test.

The mass balance of every converged step is recomputed here from the
network document and the weather row, with this module's own flow laws:
power-law cracks linearised below DP_LIN, large openings integrated in
closed form over their height (a plain orifice, linearised like a crack,
when the density difference is negligible), and fixed-flow fans.  None of
it goes through ``airnet.assembly``, and the solver's own ``max_residual``
is never read: a NaN boundary can make every strategy report convergence.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

GRAVITY = 9.81
DENSITY_NUMERATOR = 353.05  # rho = 353.05 / T at 101325 Pa
TOLERANCE = 1e-3  # kg/s, the solver's default mass-balance tolerance
DP_LIN = 1e-3  # Pa
STRATIFICATION_EPS = 1e-6
# Recomputing the balance in another order of operations moves it by a few
# units in the last place; this share of the tolerance absorbs that.
ROUNDING_SLACK = 1e-6


class AnswerCheck:
    """Recomputes per-zone mass balances for one network document."""

    def __init__(self, doc: dict):
        zones = doc["zones"]
        externals = doc["external_nodes"]
        col = {z["id"]: i for i, z in enumerate(zones)}
        ext = {e["id"]: j for j, e in enumerate(externals)}
        self.n = len(zones)
        self.zone_rho = np.array([DENSITY_NUMERATOR / z["temperature_k"] for z in zones])
        self.zone_ref = np.array([z["ref_height_m"] for z in zones])
        self.mech = np.array([z.get("mech_flow_kg_s", 0.0) for z in zones])
        self.ext_ref = np.array([e["ref_height_m"] for e in externals])
        self.ext_cp = np.array([e["cp"] for e in externals], dtype=float)

        links = doc["links"]
        self.z = np.array([link["elevation_m"] for link in links], dtype=float)
        # Each endpoint is a zone column (>= 0) or an external index (ext, col = -1).
        self.col = np.array([[col.get(link[k], -1) for k in ("from", "to")] for link in links])
        self.ext = np.array([[ext.get(link[k], -1) for k in ("from", "to")] for link in links])
        kinds = [link["model"]["type"] for link in links]
        self.cracks = np.array([i for i, k in enumerate(kinds) if k == "crack"], dtype=int)
        self.crack_k = np.array([links[i]["model"]["k"] for i in self.cracks])
        self.crack_n = np.array([links[i]["model"]["n"] for i in self.cracks])
        self.openings = [
            (i, links[i]["model"]["width_m"], links[i]["model"]["height_m"],
             links[i]["model"].get("cd", 0.6))
            for i, k in enumerate(kinds) if k == "large_opening"
        ]
        self.fans = [(i, links[i]["model"]["flow_kg_s"]) for i, k in enumerate(kinds) if k == "fan"]

    def residual(self, p: np.ndarray, wind_speed: float, wind_dir_deg: float,
                 temp_out_c: float) -> np.ndarray:
        """Net mass inflow per zone (kg/s) at zone pressures p."""
        rho_out = DENSITY_NUMERATOR / (temp_out_c + 273.15)
        sector = (wind_dir_deg % 360.0) / 45.0
        base = int(sector) % 8
        frac = sector - int(sector)
        cp = self.ext_cp[:, base] * (1.0 - frac) + self.ext_cp[:, (base + 1) % 8] * frac
        wind = 0.5 * rho_out * cp * wind_speed**2

        # Pressure and density on each side of every link, at its elevation.
        side_p = np.empty((len(self.z), 2))
        side_rho = np.empty((len(self.z), 2))
        for k in (0, 1):
            col, ext = self.col[:, k], self.ext[:, k]
            is_zone = col >= 0
            c, e = np.where(is_zone, col, 0), np.where(is_zone, 0, ext)
            rho = np.where(is_zone, self.zone_rho[c], rho_out)
            ref = np.where(is_zone, self.zone_ref[c], self.ext_ref[e])
            level = np.where(is_zone, p[c], wind[e])
            side_p[:, k] = level - rho * GRAVITY * (self.z - ref)
            side_rho[:, k] = rho
        dp = side_p[:, 0] - side_p[:, 1]

        flow = np.zeros(len(self.z))
        d = dp[self.cracks]
        mag = np.abs(d)
        flow[self.cracks] = np.where(
            mag < DP_LIN,
            self.crack_k * DP_LIN ** (self.crack_n - 1.0) * d,
            np.sign(d) * self.crack_k * mag**self.crack_n,
        )
        for i, width, height, cd in self.openings:
            flow[i] = opening_net_flow(width, height, cd, side_rho[i, 0], side_rho[i, 1], dp[i])
        for i, fan_flow in self.fans:
            flow[i] = fan_flow

        f = self.mech.copy()
        for k, sign in ((0, -1.0), (1, 1.0)):
            col = self.col[:, k]
            inside = col >= 0
            np.add.at(f, col[inside], sign * flow[inside])
        return f

    def converged_ok(self, p, wind_speed: float, wind_dir_deg: float, temp_out_c: float) -> bool:
        """True when p is finite and balances every zone within the tolerance."""
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n,) or not np.all(np.isfinite(p)):
            return False
        f = self.residual(p, wind_speed, wind_dir_deg, temp_out_c)
        worst = float(np.max(np.abs(f)))
        return math.isfinite(worst) and worst <= TOLERANCE * (1.0 + ROUNDING_SLACK)


def opening_net_flow(width, height, cd, rho_from, rho_to, dp_bottom) -> float:
    """Net flow (from -> to) of the orifice law integrated over the height.

    The local difference is dP(z) = dp_bottom - g (rho_from - rho_to) z; a
    strip carries cd W sqrt(2 rho_upwind |dP(z)|) dz.
    """
    gradient = GRAVITY * (rho_from - rho_to)
    dp_mid = dp_bottom - 0.5 * gradient * height
    if gradient == 0.0 or abs(gradient) * height <= STRATIFICATION_EPS * abs(dp_mid):
        rho_up = rho_from if dp_mid > 0 else rho_to
        k_eq = cd * width * height * math.sqrt(2.0 * rho_up)
        if abs(dp_mid) < DP_LIN:
            return k_eq * dp_mid / math.sqrt(DP_LIN)
        return math.copysign(k_eq * math.sqrt(abs(dp_mid)), dp_mid)

    def strip(z0: float, z1: float) -> float:
        """Signed flow of a segment where dP does not change sign."""
        a, b = dp_bottom - gradient * z0, dp_bottom - gradient * z1
        mid = 0.5 * (a + b)
        rho = rho_from if mid > 0 else rho_to
        mass = 2.0 * cd * width * math.sqrt(2.0 * rho) / (3.0 * abs(gradient))
        return math.copysign(mass * abs(abs(a) ** 1.5 - abs(b) ** 1.5), mid)

    z_neutral = dp_bottom / gradient
    if 0.0 < z_neutral < height:
        return strip(0.0, z_neutral) + strip(z_neutral, height)
    return strip(0.0, height)


def counts_digest(counts) -> str:
    """Short digest of a sequence of per-step (newton, picard) counts."""
    text = ";".join(f"{n},{p}" for n, p in counts)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
