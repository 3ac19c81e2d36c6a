"""Dense linear solve with explicit singularity detection."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

__all__ = ["SolveReport", "lu_solve", "PIVOT_THRESHOLD"]

# A pivot smaller than this fraction of the largest initial entry flags the
# matrix as singular; cheap and deterministic, which is all the fixed-point
# abort logic needs.
PIVOT_THRESHOLD = 1e-12


class SolveReport(NamedTuple):
    solution: np.ndarray | None
    singular: bool
    pivot_ratio: float  # smallest |pivot| / largest initial |entry|


def lu_solve(matrix, rhs) -> SolveReport:
    """Solve matrix @ x = rhs by LU with partial pivoting (LAPACK dgetrf and
    dgetrs, the routines behind scipy.linalg.lu_factor and lu_solve).

    Returns a report instead of raising: `singular` is set when any pivot
    magnitude falls below PIVOT_THRESHOLD times the largest initial entry
    (or the matrix is all zeros or not finite), and then no solution is
    present.  A non-finite rhs gives a non-finite solution.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")

    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return SolveReport(None, True, 0.0)

    # An exactly-zero pivot (info > 0) is caught by the pivot check below.
    lu, piv, _ = dgetrf(a)
    pivots = [abs(d) for d in lu.diagonal().tolist()]
    # min() passes over a NaN unless it comes first; a sum of magnitudes is
    # NaN exactly when one of them is, and a NaN pivot gives a NaN ratio.
    ratio = (math.nan if math.isnan(sum(pivots)) else min(pivots)) / scale
    if ratio < PIVOT_THRESHOLD:
        return SolveReport(None, True, ratio)
    x, _ = dgetrs(lu, piv, b)
    return SolveReport(x, False, ratio)
