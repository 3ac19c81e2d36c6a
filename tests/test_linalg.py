"""Dense LU solve and its singularity reporting."""

import math

import numpy as np
import pytest
import scipy.linalg

from airnet.linalg import lu_solve


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
    # where min() alone would pass over it; the solve goes on, as before.
    a = np.array([[1.0, 1e308, -1e308], [1.0, -1e308, 1e308], [1.0, 1e308, 1e308]])
    report = lu_solve(a, np.ones(3))
    assert math.isnan(report.pivot_ratio)
    assert not report.singular
    assert np.isnan(report.solution).all()
