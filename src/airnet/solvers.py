"""The four solution strategies for the zone pressure system.

* NR  -- Newton-Raphson with a fixed under-relaxation coefficient (0.1);
* WM  -- Newton with Walton-style adaptive relaxation: full steps, damped
         per node when successive corrections oscillate in sign;
* PNR / PWM -- the same two, preceded by a fixed budget of Picard
         (fixed-point) iterations used as an initializer.

Convergence is declared when the largest per-zone mass-balance residual
drops to the configured tolerance (kg/s).  All iteration counters are
reported so callers can account the Picard budget either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import (
    BoundaryState,
    ReciprocalFlowError,
    jacobian,
    link_flows,
    picard_system,
    residual,
)
from .linalg import lu_solve
from .network import Network

__all__ = [
    "STRATEGIES",
    "SolverConfig",
    "SolveOutcome",
    "PicardResult",
    "NonConvergenceError",
    "SingularJacobianError",
    "solve",
    "picard_init",
    "walton_relaxation",
    # Unused here; kept because perfbench/tracing.py wraps it in this module.
    "link_flows",
]

STRATEGIES = ("NR", "WM", "PNR", "PWM")

ABORT_SINGULAR = "singular"
ABORT_RECIPROCAL = "reciprocal-flow"


class NonConvergenceError(RuntimeError):
    """Newton iteration exhausted its budget; carries the last iterate."""

    def __init__(self, strategy: str, iterations: int, pressures: np.ndarray, max_residual: float):
        self.strategy = strategy
        self.iterations = iterations
        self.pressures = pressures
        self.max_residual = max_residual
        super().__init__(
            f"{strategy}: no convergence after {iterations} iterations "
            f"(max residual {max_residual:.3e} kg/s)"
        )


class SingularJacobianError(RuntimeError):
    """The Newton linear system is singular at the current iterate."""

    def __init__(self, iteration: int, pressures: np.ndarray, pivot_ratio: float):
        self.iteration = iteration
        self.pressures = pressures
        self.pivot_ratio = pivot_ratio
        super().__init__(
            f"singular Jacobian at Newton iteration {iteration} (pivot ratio {pivot_ratio:.3e})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration knobs shared by all strategies.

    tolerance        -- per-zone mass-balance criterion, kg/s
    max_newton_iters -- Newton budget (each linear solve counts as one)
    fixed_relax      -- under-relaxation coefficient for the NR strategy
    picard_iters     -- fixed-point initializer budget
    accel            -- fixed-point damping: p_next = accel*p + (1-accel)*p_star
    trunc_dp_max     -- per-component cap on a single fixed-point update, Pa
    dp_lin           -- |dP| below which element laws are linearized, Pa
    relax_clamp      -- bounds for the adaptive (Walton-style) relaxation
    """

    tolerance: float = 1e-3
    max_newton_iters: int = 500
    fixed_relax: float = 0.1
    picard_iters: int = 10
    accel: float = 0.5
    trunc_dp_max: float = 60.0
    dp_lin: float = 1e-3
    relax_clamp: tuple[float, float] = (0.1, 1.0)

    def __post_init__(self):
        for name in ("tolerance", "trunc_dp_max", "dp_lin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if not 0 < self.fixed_relax <= 1:
            raise ValueError("fixed_relax must be in (0, 1]")
        if not 0 < self.accel < 1:
            raise ValueError("accel must be in (0, 1)")
        if not self.trunc_dp_max > 0:
            raise ValueError("trunc_dp_max must be > 0")
        if not self.dp_lin > 0:
            raise ValueError("dp_lin must be > 0")
        if self.max_newton_iters < 1 or self.picard_iters < 0:
            raise ValueError("iteration budgets must be positive")
        lo, hi = self.relax_clamp
        if not 0 < lo <= hi <= 1:
            raise ValueError("relax_clamp must satisfy 0 < lo <= hi <= 1")


@dataclass(frozen=True)
class SolveOutcome:
    """Converged pressures plus iteration accounting for one solve.

    Link flows are not part of it; `link_flows(net, pressures, bc, dp_lin)`
    derives them on request.
    """

    strategy: str
    pressures: np.ndarray
    newton_iters: int
    picard_iters_used: int
    converged_in_picard: bool
    picard_aborted: str | None
    max_residual: float


class PicardResult(NamedTuple):
    pressures: np.ndarray
    iters_used: int
    converged: bool
    aborted: str | None  # None | "singular" | "reciprocal-flow"
    residual: np.ndarray  # at `pressures`


def _converged(f: np.ndarray, cfg: SolverConfig) -> bool:
    # Written so that a NaN residual counts as not converged.
    return float(np.abs(f).max()) <= cfg.tolerance


def walton_relaxation(
    correction: np.ndarray,
    correction_prev: np.ndarray | None,
    clamp: tuple[float, float] = (0.1, 1.0),
) -> np.ndarray:
    """Per-node adaptive relaxation factors.

    Full steps (1.0) everywhere, except where the new correction opposes the
    previous one in sign; there the secant factor c / (c - c_prev) damps the
    oscillation, clamped to the given bounds.  A pure +c/-c flip-flop yields
    exactly 0.5.
    """
    omega = np.ones_like(correction)
    if correction_prev is None:
        return omega
    opposing = correction * correction_prev < 0.0
    if not np.any(opposing):
        return omega
    denom = correction - correction_prev
    secant = np.divide(correction, denom, out=np.ones_like(correction), where=denom != 0.0)
    lo, hi = clamp
    return np.where(opposing, np.clip(secant, lo, hi), 1.0)


def _newton(
    net: Network,
    bc: BoundaryState,
    p0: np.ndarray,
    f0: np.ndarray,
    cfg: SolverConfig,
    relax_mode: str,
    strategy_label: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton iteration from p0, whose residual is f0.

    Returns (pressures, their residual, linear solves used).
    """
    p = np.array(p0, dtype=float)
    f = f0
    correction_prev: np.ndarray | None = None
    iters = 0
    while not _converged(f, cfg):
        if iters >= cfg.max_newton_iters:
            raise NonConvergenceError(strategy_label, iters, p, float(np.max(np.abs(f))))
        jac = jacobian(net, p, bc, cfg.dp_lin)
        report = lu_solve(jac, -f)
        if report.singular:
            raise SingularJacobianError(iters, p, report.pivot_ratio)
        correction = report.solution
        if relax_mode == "fixed":
            p = p + cfg.fixed_relax * correction
        else:
            omega = walton_relaxation(correction, correction_prev, cfg.relax_clamp)
            p = p + omega * correction
        correction_prev = correction
        iters += 1
        f = residual(net, p, bc, cfg.dp_lin)
    return p, f, iters


def picard_init(
    net: Network, bc: BoundaryState, p0: np.ndarray, cfg: SolverConfig
) -> PicardResult:
    """Run the damped fixed-point initializer from p0.

    Each iteration freezes the element conductances at the current
    pressures, solves the resulting linear system for p_star, and applies
    p_next = accel * p + (1 - accel) * p_star with every component change
    truncated to +-trunc_dp_max.  Returns early as converged when the
    residual meets the tolerance (checked on entry and after every update),
    or aborted when the frozen matrix is singular or a large opening is in
    reciprocal flow; the last accepted iterate and its residual are kept
    either way.
    """
    p = np.array(p0, dtype=float)
    f = residual(net, p, bc, cfg.dp_lin)
    if _converged(f, cfg):
        return PicardResult(p, 0, True, None, f)
    for k in range(cfg.picard_iters):
        try:
            system = picard_system(net, p, bc, cfg.dp_lin)
        except ReciprocalFlowError:
            return PicardResult(p, k, False, ABORT_RECIPROCAL, f)
        report = lu_solve(system.matrix, system.rhs)
        if report.singular:
            return PicardResult(p, k, False, ABORT_SINGULAR, f)
        step = (1.0 - cfg.accel) * (report.solution - p)
        np.clip(step, -cfg.trunc_dp_max, cfg.trunc_dp_max, out=step)
        p = p + step
        f = residual(net, p, bc, cfg.dp_lin)
        if _converged(f, cfg):
            return PicardResult(p, k + 1, True, None, f)
    return PicardResult(p, cfg.picard_iters, False, None, f)


def solve(
    net: Network,
    bc: BoundaryState,
    p0: np.ndarray | None,
    strategy: str,
    cfg: SolverConfig | None = None,
) -> SolveOutcome:
    """Solve the zone pressure system with one of NR, WM, PNR, PWM.

    The network is assumed valid (see network.validate).  PNR and PWM run
    the Picard initializer first and hand its last iterate to the Newton
    stage unless it already converged.  Raises NonConvergenceError or
    SingularJacobianError from the Newton stage.
    """
    cfg = cfg or SolverConfig()
    name = strategy.upper()
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")
    p = np.zeros(len(net.zones)) if p0 is None else np.asarray(p0, dtype=float)

    picard_used = 0
    converged_in_picard = False
    aborted = None
    if name in ("PNR", "PWM"):
        pic = picard_init(net, bc, p, cfg)
        picard_used = pic.iters_used
        converged_in_picard = pic.converged
        aborted = pic.aborted
        p, f = pic.pressures, pic.residual
    else:
        f = residual(net, p, bc, cfg.dp_lin)

    # From a start Picard has converged, this takes no iteration.
    mode = "fixed" if name in ("NR", "PNR") else "walton"
    p, f, newton_iters = _newton(net, bc, p, f, cfg, mode, name)

    return SolveOutcome(
        strategy=name,
        pressures=p,
        newton_iters=newton_iters,
        picard_iters_used=picard_used,
        converged_in_picard=converged_in_picard,
        picard_aborted=aborted,
        max_residual=float(np.max(np.abs(f))),
    )
