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
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import (
    BoundaryState,
    ReciprocalFlowError,
    jacobian,
    link_flows,  # unused here; kept because perfbench/tracing.py wraps it in this module
    picard_system,
    residual,
)
from .linalg import lu_solve, max_abs
from .links import DP_LIN_DEFAULT
from .network import Network

__all__ = [
    "STRATEGIES",
    "SolverConfig",
    "SolveOutcome",
    "PicardResult",
    "SolveError",
    "NonConvergenceError",
    "SingularJacobianError",
    "solve",
    "picard_init",
    "walton_relaxation",
]

STRATEGIES = ("NR", "WM", "PNR", "PWM")

# Lower bound of the Walton relaxation factor where corrections oscillate.
OMEGA_MIN = 0.1

ABORT_SINGULAR = "singular"
ABORT_RECIPROCAL = "reciprocal-flow"


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
    """

    tolerance: float = 1e-3
    max_newton_iters: int = 500
    fixed_relax: float = 0.1
    picard_iters: int = 10
    accel: float = 0.5
    trunc_dp_max: float = 60.0
    dp_lin: float = DP_LIN_DEFAULT

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
        for name, least in (("max_newton_iters", 1), ("picard_iters", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SolveOutcome:
    """The pressures one solve reached, plus its iteration accounting.

    `solve` returns it on convergence; a failed solve raises a SolveError
    carrying it, with the last iterate and its max |residual|.  Link flows
    are not part of it; `link_flows(net, pressures, bc, dp_lin)` derives
    them on request.
    """

    strategy: str
    pressures: np.ndarray
    newton_iters: int
    picard_iters_used: int
    converged_in_picard: bool
    picard_aborted: str | None
    max_residual: float


class SolveError(RuntimeError):
    """A solve that stopped without converging; `outcome` is what it reached."""

    reason: str  # the TimestepRecord.failed value for this kind of failure

    def __init__(self, message: str, outcome: SolveOutcome):
        super().__init__(message)
        self.outcome = outcome

    def __reduce__(self):
        # BaseException would re-create the error from `args`, the message alone.
        return type(self), (self.args[0], self.outcome), self.__dict__


class NonConvergenceError(SolveError):
    """Newton iteration exhausted its budget."""

    reason = "non-convergence"


class SingularJacobianError(SolveError):
    """The Newton linear system is singular at the last iterate."""

    reason = "singular-jacobian"


class PicardResult(NamedTuple):
    pressures: np.ndarray
    iters_used: int
    converged: bool
    aborted: str | None  # None | "singular" | "reciprocal-flow"
    residual: np.ndarray  # at `pressures`


def _converged(f: np.ndarray, cfg: SolverConfig) -> bool:
    # tol >= max |x|: max_abs is NaN when any x is, which fails the test
    # (Python's max() would pass over a NaN that is not first), and tol is
    # made a float because int.__ge__(float) returns NotImplemented, which
    # is truthy.
    return float(cfg.tolerance) >= max_abs(f)


def walton_relaxation(correction: np.ndarray, correction_prev: np.ndarray | None) -> np.ndarray:
    """Per-node adaptive relaxation factors.

    Full steps (1.0) everywhere, except where the new correction opposes the
    previous one in sign; there the secant factor c / (c - c_prev) damps the
    oscillation, clamped below at OMEGA_MIN.  A pure +c/-c flip-flop
    yields exactly 0.5.
    """
    omega = np.ones(len(correction))
    if correction_prev is None:
        return omega
    opposing = correction * correction_prev < 0.0
    if not np.count_nonzero(opposing):
        return omega
    # Where the corrections oppose, c - c_prev adds two nonzero magnitudes: it is
    # never 0 and, as rounding is monotone, |fl(c - c_prev)| >= |c|, so the secant
    # is at most 1.0.  Elsewhere omega stays 1.0, which the clamp keeps.
    np.divide(correction, correction - correction_prev, out=omega, where=opposing)
    return np.maximum(omega, OMEGA_MIN, out=omega)


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
        step = np.subtract(report.solution, p, out=report.solution)
        step *= 1.0 - cfg.accel
        np.minimum(np.maximum(step, -cfg.trunc_dp_max, out=step), cfg.trunc_dp_max, out=step)
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
    the Picard initializer first and hand its last iterate to the damped
    Newton stage unless it already converged.  Returns the converged
    SolveOutcome; when Newton exhausts its budget or meets a singular
    Jacobian, raises NonConvergenceError or SingularJacobianError carrying
    the SolveOutcome it reached, Picard accounting included.
    """
    cfg = cfg or SolverConfig()
    name = strategy.upper()
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")
    p = np.zeros(len(net.zones)) if p0 is None else np.array(p0, dtype=float)

    picard_used, converged_in_picard, aborted = 0, False, None
    if name in ("PNR", "PWM"):
        p, picard_used, converged_in_picard, aborted, f = picard_init(net, bc, p, cfg)
    else:
        f = residual(net, p, bc, cfg.dp_lin)

    # Newton; from a start Picard has converged, this takes no iteration.
    walton = name in ("WM", "PWM")
    correction_prev = None
    iters = 0
    failure = None  # (SolveError subclass, message) once Newton gives up
    while not _converged(f, cfg):
        if iters >= cfg.max_newton_iters:
            failure = NonConvergenceError, (
                f"{name}: no convergence after {iters} iterations "
                f"(max residual {max_abs(f):.3e} kg/s)"
            )
            break
        report = lu_solve(jacobian(net, p, bc, cfg.dp_lin), -f)
        if report.singular:
            failure = SingularJacobianError, (
                f"singular Jacobian at Newton iteration {iters} "
                f"(pivot ratio {report.pivot_ratio:.3e})"
            )
            break
        correction = report.solution
        if walton:
            p = p + walton_relaxation(correction, correction_prev) * correction
        else:
            p = p + cfg.fixed_relax * correction
        correction_prev = correction
        iters += 1
        f = residual(net, p, bc, cfg.dp_lin)

    outcome = SolveOutcome(
        strategy=name,
        pressures=p,
        newton_iters=iters,
        picard_iters_used=picard_used,
        converged_in_picard=converged_in_picard,
        picard_aborted=aborted,
        max_residual=max_abs(f),
    )
    if failure is not None:
        error, message = failure
        raise error(message, outcome)
    return outcome
