"""Dense LU solve and its singularity reporting."""

import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airnet import linalg
from airnet.linalg import LANGE_MAX_SIZE, lu_solve, max_abs


def test_identity():
    b = np.array([3.0, -1.0, 7.0])
    report = lu_solve(np.eye(3), b)
    assert not report.singular
    assert np.allclose(report.solution, b)


def test_zero_row_is_singular():
    a = np.array([[1.0, 2.0], [0.0, 0.0]])
    report = lu_solve(a, np.array([1.0, 1.0]))
    assert report.singular
    assert report.solution is None
    assert report.pivot_ratio < 1e-12


def test_all_zero_matrix_is_singular():
    report = lu_solve(np.zeros((3, 3)), np.zeros(3))
    assert (report.solution, report.singular, report.pivot_ratio) == (None, True, 0.0)


def test_random_multiply_back():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (5, 5)) + 5 * np.eye(5)
    x_true = rng.uniform(-10, 10, 5)
    report = lu_solve(a, a @ x_true)
    assert not report.singular
    assert np.allclose(report.solution, x_true, rtol=1e-9)


def test_residual_bound_on_many_random_systems():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        a = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        b = rng.uniform(-1, 1, n)
        report = lu_solve(a, b)
        assert not report.singular
        x = report.solution
        bound = 1e-9 * (
            np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
        )
        assert np.linalg.norm(a @ x - b, np.inf) <= bound


def test_row_permutation_invariance():
    rng = np.random.default_rng(12)
    a = rng.uniform(-1, 1, (6, 6)) + 6 * np.eye(6)
    b = rng.uniform(-1, 1, 6)
    x = lu_solve(a, b).solution
    perm = rng.permutation(6)
    x_perm = lu_solve(a[perm], b[perm]).solution
    assert np.allclose(x, x_perm, rtol=1e-12)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lu_solve(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        lu_solve(np.zeros((2, 3)), np.zeros(2))


def test_near_singular_pivot_ratio_reported():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    report = lu_solve(a, np.array([1.0, 1.0]))
    assert report.singular
    assert 0.0 < report.pivot_ratio < 1e-12


@pytest.mark.parametrize("n", [1, 5, 64, 200, 320])
def test_solution_has_the_bits_of_scipy_lu_factor_and_lu_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.uniform(-1, 1, (n, n)) + np.diag(rng.uniform(0.5, 2.0, n))
        b = rng.uniform(-1, 1, n)
        report = lu_solve(a, b)
        assert not report.singular
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), b)
        assert report.solution.tobytes() == expected.tobytes()


def test_the_wrappers_are_scipy_linalg_lapacks_own():
    assert linalg.dgetrf is scipy.linalg.lapack.dgetrf
    assert linalg.dgetrs is scipy.linalg.lapack.dgetrs
    assert linalg.dlange is scipy.linalg.lapack.dlange


def test_a_missing_lapack_extension_is_an_import_error_naming_its_folder(monkeypatch):
    monkeypatch.setattr(linalg, "EXTENSION_SUFFIXES", [".missing"])
    folder = str(Path(scipy.__file__).parent / "linalg")
    with pytest.raises(ImportError, match=f"not found in {re.escape(folder)}$"):
        linalg._load_flapack()


def test_import_airnet_imports_no_part_of_scipy_linalg():
    # A fresh interpreter, as this module imports scipy.linalg itself: the
    # wrappers' extension is loaded from its file and left out of
    # sys.modules, so scipy.linalg's package init never runs.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import airnet; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    src = str(Path(linalg.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 2.0], [2.0, 4.0]],  # a zero pivot
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, np.inf]],
        [[-np.inf, 1.0], [1.0, 1.0]],
    ],
)
def test_singular_and_non_finite_matrices_report_no_solution(matrix):
    report = lu_solve(np.array(matrix), np.ones(2))
    assert (report.solution, report.singular, report.pivot_ratio) == (None, True, 0.0)


def test_a_nan_pivot_gives_a_nan_ratio():
    # Finite entries whose elimination overflows: the pivots are 1, -inf and
    # NaN (inf less a zero multiplier times inf).  The NaN pivot is last,
    # where min() alone would pass over it; it reports the matrix singular.
    a = np.array([[1.0, 1e308, -1e308], [1.0, -1e308, 1e308], [1.0, 1e308, 1e308]])
    report = lu_solve(a, np.ones(3))
    assert math.isnan(report.pivot_ratio)
    assert report.singular
    assert report.solution is None


# max_abs is the max |x| of the pivot and convergence tests: LAPACK dlange
# up to LANGE_MAX_SIZE entries, numpy's abs and max past it.  Either way it
# must be np.abs(a).max() bit for bit, over the whole float64 line, in any
# memory layout; NaN wherever a NaN sits; and 0.0 for no entries.
ENTRIES = st.floats(allow_nan=False, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308]
)


@st.composite
def laid_out(draw) -> np.ndarray:
    """A 1-D or 2-D float64 array on either side of LANGE_MAX_SIZE, as drawn
    (C order), in Fortran order, transposed, or as a strided view."""
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 2 * LANGE_MAX_SIZE)),)
    else:
        shape = (draw(st.integers(0, 24)), draw(st.integers(0, 24)))
    a = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
    layout = draw(st.sampled_from(["C", "F", "T", "strided"]))
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "T":
        return a.T
    if layout == "strided":
        return a[::2] if a.ndim == 1 else a[1::2, ::3]
    return a


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(a=laid_out())
def test_max_abs_is_numpys_abs_max(a):
    ours = max_abs(a)
    assert type(ours) is float
    want = np.abs(a).max() if a.size else np.float64(0.0)
    assert np.float64(ours).tobytes() == want.tobytes()


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(a=laid_out(), data=st.data())
def test_max_abs_is_nan_wherever_a_nan_sits(a, data):
    if not a.size:
        return
    at = data.draw(st.integers(0, a.size - 1))
    a[np.unravel_index(at, a.shape)] = math.nan
    assert math.isnan(max_abs(a))


@pytest.mark.parametrize("shape", [(0,), (0, 0), (0, 3), (3, 0)])
def test_max_abs_of_no_entries_is_zero(shape):
    assert np.float64(max_abs(np.zeros(shape))).tobytes() == np.float64(0.0).tobytes()
