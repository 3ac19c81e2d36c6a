"""A fixed calibration loop that tracks the speed of a shared host.

On a host whose cores are shared with other tenants, the same code runs up
to about 1.6x slower for minutes at a time, so timings from runs minutes
apart differ by more than any change worth detecting.  The loop below does
the kind of work a solver step does (per-link Python arithmetic on small
objects, small numpy arrays, a 5x5 scipy LU solve) but calls nothing from
the package under test, so a change to the package cannot change its time.
Timed next to the steps, it gives the speed of the host at that moment.
On a 2-vCPU Xeon, in 10-second windows over 150 s, a 40-step dwelling5 WM
series took 34.5-40.7 ms while its ratio to one loop stayed within
30.1-32.7.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# The loop's median time on the reference host (a 2-vCPU Intel Xeon in a
# quiet phase).  Times scaled by REFERENCE_MS / measured read as wall time
# on that host.
REFERENCE_MS = 1.0
REPEATS = 5


class _Node:
    __slots__ = ("level", "rho", "height")

    def __init__(self, level: float, rho: float, height: float):
        self.level, self.rho, self.height = level, rho, height


_NODES = [_Node(0.1 * i, 1.2 - 0.001 * i, 0.5 * i) for i in range(16)]
_MATRIX = np.eye(5) * 4.0 + np.arange(25.0).reshape(5, 5) / 25.0


def _flow(a: _Node, b: _Node, z: float) -> float:
    dp = (a.level - a.rho * 9.81 * (z - a.height)) - (b.level - b.rho * 9.81 * (z - b.height))
    return math.copysign(0.01 * abs(dp) ** 0.65, dp) if abs(dp) > 1e-3 else 0.01 * dp


def _loop(rounds: int = 20) -> float:
    acc = 0.0
    for r in range(rounds):
        f = np.zeros(len(_NODES))
        for i in range(len(_NODES) - 1):
            q = _flow(_NODES[i], _NODES[i + 1], 0.3 * r)
            f[i] -= q
            f[i + 1] += q
        acc += float(np.max(np.abs(f)))
        lu, piv = scipy.linalg.lu_factor(_MATRIX)
        acc += float(scipy.linalg.lu_solve((lu, piv), f[:5])[0])
    return acc


def sample(times: list[float], repeats: int = REPEATS) -> None:
    """Run the loop `repeats` times, appending each time in ms to `times`."""
    for _ in range(repeats):
        start = perf_counter()
        _loop()
        times.append((perf_counter() - start) * 1e3)


def scale(times: list[float]) -> float:
    """Factor that brings times measured next to `times` to reference speed."""
    return REFERENCE_MS / statistics.median(times)
