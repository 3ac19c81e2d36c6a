"""Dense linear solve with explicit singularity detection, and the max |x|
that scales its pivot test and the solvers' convergence test.

`max_abs` takes LAPACK dlange('M', ...) up to LANGE_MAX_SIZE entries: one
wrapper call, about 0.3 us plus 4.7 ns an entry, where numpy's abs and max
take about 1.9 us in two calls plus 0.5 ns an entry.  Timed (timeit, best of
9 x 20000, BLAS on one thread, 2 vCPUs of a shared Xeon) on 16 x 16 to
21 x 21 matrices and vectors of 256 to 484 entries, dlange was faster
through 324 entries (1.47 against 1.92 us at 16 x 16, 1.79 against 1.93 us
at 18 x 18, 1.80 against 1.96 us at 320) and numpy from 361 on (1.97
against 1.87 us); the two lines cross near 345.  On a 5 x 5 matrix dlange
takes 0.45 us, numpy 2.0 us; on a 320 x 320 Jacobian dlange takes 615 us,
numpy 64 us.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs, dlange

__all__ = ["SolveReport", "lu_solve"]

# A pivot smaller than this fraction of the largest initial entry flags the
# matrix as singular; cheap and deterministic, which is all the fixed-point
# abort logic needs.
PIVOT_THRESHOLD = 1e-12

# The most entries max_abs hands to dlange: the measured crossover with
# numpy's abs and max (see the module docstring).
LANGE_MAX_SIZE = 340


class SolveReport(NamedTuple):
    solution: np.ndarray | None
    singular: bool
    pivot_ratio: float  # smallest |pivot| / largest initial |entry|


def max_abs(a: np.ndarray) -> float:
    """The largest |x| over a 1-D or 2-D float64 array: NaN when any entry is
    NaN, 0.0 when it is empty, and otherwise np.abs(a).max() bit for bit.

    dlange('M') keeps the first NaN it meets, as it tests each entry with
    DISNAN (LAPACK 3.2 on); the views it gets, `a[:, None]` and `a.T`, are
    Fortran-ordered when `a` is C-ordered, so the wrapper copies nothing.
    """
    if a.size > LANGE_MAX_SIZE:
        return float(np.abs(a).max())
    return dlange("M", a[:, None] if a.ndim == 1 else a.T)


def lu_solve(matrix, rhs) -> SolveReport:
    """Solve matrix @ x = rhs by LU with partial pivoting (LAPACK dgetrf and
    dgetrs, the routines behind scipy.linalg.lu_factor and lu_solve).

    Returns a report instead of raising: `singular` is set when any pivot
    magnitude falls below PIVOT_THRESHOLD times the largest initial entry
    or is NaN (or the matrix is all zeros or not finite), and then no
    solution is present.  The largest initial entry comes from `max_abs`,
    LAPACK dlange on a matrix of up to 18 x 18.  A non-finite rhs gives a non-finite
    solution.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")

    scale = max_abs(a)
    if scale == 0.0 or not math.isfinite(scale):
        return SolveReport(None, True, 0.0)

    # An exactly-zero pivot (info > 0) is caught by the pivot check below.
    lu, piv, _ = dgetrf(a)
    pivots = [abs(d) for d in lu.diagonal().tolist()]
    # min() passes over a NaN unless it comes first; a sum of magnitudes is
    # NaN exactly when one of them is, and a NaN pivot gives a NaN ratio,
    # which reports the matrix singular.
    ratio = (math.nan if math.isnan(sum(pivots)) else min(pivots)) / scale
    if not ratio >= PIVOT_THRESHOLD:
        return SolveReport(None, True, ratio)
    x, _ = dgetrs(lu, piv, b)
    return SolveReport(x, False, ratio)
