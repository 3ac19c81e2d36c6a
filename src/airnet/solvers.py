"""The four solution strategies for the zone pressure system.

* NR  -- Newton-Raphson with a fixed under-relaxation coefficient (0.1);
* WM  -- Newton with Walton-style adaptive relaxation: full steps, damped
         per node when successive corrections oscillate in sign;
* PNR / PWM -- the same two, preceded by a fixed budget of Picard
         (fixed-point) iterations used as an initializer.

Both stages run one loop, `_iterate`: at each iterate p it solves
M(p) x = F(p), F the residual, and steps p <- p - step(x).  Picard takes the
secant matrix and a damped, truncated step; Newton the Jacobian and a fixed
or Walton-relaxed step.  Convergence is declared when the largest per-zone
mass-balance residual drops to the configured tolerance (kg/s).  All
iteration counters are reported so callers can account the Picard budget
either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import BoundaryState, ReciprocalFlowError, jacobian, picard_system, residual
from .assembly import link_flows  # unused; kept because perfbench/tracing.py wraps it here
from .linalg import SolveReport, lu_solve, max_abs
from .links import DP_LIN_DEFAULT
from .network import _POSITIVE, Network, _checked, _field_violations

__all__ = [
    "STRATEGIES",
    "SolverConfig",
    "SolveOutcome",
    "SolveError",
    "NonConvergenceError",
    "SingularJacobianError",
    "solve",
]

STRATEGIES = ("NR", "WM", "PNR", "PWM")

# Lower bound of the Walton relaxation factor where corrections oscillate.
OMEGA_MIN = 0.1


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration knobs shared by all strategies.

    tolerance        -- per-zone mass-balance criterion, kg/s
    max_newton_iters -- Newton budget (each linear solve counts as one)
    fixed_relax      -- under-relaxation coefficient for the NR strategy
    picard_iters     -- fixed-point initializer budget
    accel            -- fixed-point damping: p_next = p - (1-accel) * A^-1 F(p),
                        which is accel*p + (1-accel)*p_star
    trunc_dp_max     -- per-component cap on a single fixed-point update, Pa
    dp_lin           -- |dP| below which element laws are linearized, Pa

    Each field declares its range with `network._checked`, as network records
    do; a ValueError names the first field out of range or not of its type.
    """

    tolerance: float = _checked(_POSITIVE, default=1e-3)
    max_newton_iters: int = _checked((lambda n: n >= 1, "{name} must be >= 1, got {}"), default=500)
    fixed_relax: float = _checked((lambda r: 0 < r <= 1, "fixed_relax must be in (0, 1]"), default=0.1)
    picard_iters: int = _checked((lambda n: n >= 0, "{name} must be >= 0, got {}"), default=10)
    accel: float = _checked((lambda a: 0 < a < 1, "accel must be in (0, 1)"), default=0.5)
    trunc_dp_max: float = _checked(_POSITIVE, default=60.0)
    dp_lin: float = _checked(_POSITIVE, default=DP_LIN_DEFAULT)

    def __post_init__(self):
        for violation in _field_violations(self):
            raise ValueError(violation)  # the first


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


def _start(net: Network, bc: BoundaryState, p0, cfg: SolverConfig) -> PicardResult:
    """p0 as a new float array and its residual: the Picard result of no
    update, which NR and WM report.  A start with a NaN or infinite pressure
    is refused, as no iterate can come of it."""
    p = np.array(p0, dtype=float)
    if not math.isfinite(max_abs(p)):
        raise ValueError("p0 must be finite, got a NaN or infinite pressure")
    return PicardResult(p, 0, False, None, residual(net, p, bc, cfg.dp_lin))


def _picard_step(x: np.ndarray, x_prev: np.ndarray | None, cfg: SolverConfig) -> np.ndarray:
    """(1 - accel) * x, each component truncated to +-trunc_dp_max."""
    step = x * (1.0 - cfg.accel)
    return np.minimum(np.maximum(step, -cfg.trunc_dp_max, out=step), cfg.trunc_dp_max, out=step)


def _fixed_step(x: np.ndarray, x_prev: np.ndarray | None, cfg: SolverConfig) -> np.ndarray:
    return cfg.fixed_relax * x


def _walton_step(x: np.ndarray, x_prev: np.ndarray | None, cfg: SolverConfig) -> np.ndarray:
    # The first update's factors are all 1.0, and 1.0 * x is x.
    return x if x_prev is None else walton_relaxation(x, x_prev) * x


def _iterate(net, bc, p, f, cfg, budget, system, step):
    """From p and its residual f, update p <- p - step(x, x_prev, cfg), x
    solving system(net, p, bc, dp_lin) @ x = f and x_prev the last x, and
    take the residual f at the new p.  Returns (p, f, updates, stop), where
    stop is None once f meets the tolerance, "budget" when `budget` updates
    are spent, the SolveReport of a singular matrix, or "reciprocal-flow"
    when `picard_system` refuses p.
    """
    x_prev = None
    for updates in range(budget + 1):
        if _converged(f, cfg):
            return p, f, updates, None
        if updates == budget:
            return p, f, updates, "budget"
        try:
            report = lu_solve(system(net, p, bc, cfg.dp_lin), f)
        except ReciprocalFlowError:
            return p, f, updates, "reciprocal-flow"
        if report.singular:
            return p, f, updates, report
        p = p - step(report.solution, x_prev, cfg)
        x_prev = report.solution
        f = residual(net, p, bc, cfg.dp_lin)


def picard_init(net: Network, bc: BoundaryState, p0: np.ndarray, cfg: SolverConfig) -> PicardResult:
    """Run the damped fixed-point initializer from p0.

    Each update freezes the element conductances at p in the secant matrix
    A (see `picard_system`) and steps p <- p - (1 - accel) * A^-1 F(p), F the
    residual, each component truncated to +-trunc_dp_max.  As A p - b = F(p),
    that is accel * p + (1 - accel) * p_star, p_star solving the paper's
    linear system A x = b.  Stops converged when F meets the tolerance (on
    entry and after every update), or aborted when A is singular or a large
    opening is in reciprocal flow, keeping the last iterate and its residual.
    A p0 with a NaN or infinite entry raises ValueError.
    """
    p, *_, f = _start(net, bc, p0, cfg)
    p, f, used, stop = _iterate(net, bc, p, f, cfg, cfg.picard_iters, picard_system, _picard_step)
    if isinstance(stop, SolveReport):
        stop = "singular"
    return PicardResult(p, used, stop is None, None if stop == "budget" else stop, f)


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
    the SolveOutcome it reached, Picard accounting included.  A p0 with a
    NaN or infinite entry raises ValueError, as does a strategy that is not
    one of STRATEGIES (in any case), a non-string included.
    """
    cfg = cfg or SolverConfig()
    name = strategy.upper() if isinstance(strategy, str) else strategy
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")
    p0 = np.zeros(len(net.zones)) if p0 is None else p0
    picard = picard_init(net, bc, p0, cfg) if name in ("PNR", "PWM") else _start(net, bc, p0, cfg)

    p, f, iters, stop = picard.pressures, picard.residual, 0, None
    if not picard.converged:  # Newton, from the start or Picard's last iterate
        step = _walton_step if name in ("WM", "PWM") else _fixed_step
        p, f, iters, stop = _iterate(net, bc, p, f, cfg, cfg.max_newton_iters, jacobian, step)
    outcome = SolveOutcome(
        name, p, iters, picard.iters_used, picard.converged, picard.aborted, max_abs(f)
    )
    if stop == "budget":
        raise NonConvergenceError(
            f"{name}: no convergence after {iters} iterations "
            f"(max residual {outcome.max_residual:.3e} kg/s)",
            outcome,
        )
    if stop is not None:
        raise SingularJacobianError(
            f"singular Jacobian at Newton iteration {iters} (pivot ratio {stop.pivot_ratio:.3e})",
            outcome,
        )
    return outcome
