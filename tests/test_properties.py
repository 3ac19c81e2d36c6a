"""Properties over random crack networks and boundaries.

Each strategy must either raise NonConvergenceError / SingularJacobianError,
or return finite pressures whose residual, recomputed by the independent
oracle, meets the tolerance.  When all four strategies converge, they agree
within the cross-strategy bound of the acceptance suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import airnet as an
from helpers import oracle_residual, random_boundary, random_crack_network

CFG = an.SolverConfig()


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(seed=st.integers(0, 2**32 - 1), warm=st.booleans())
@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_solve_returns_a_checked_solution_or_raises(strategy, seed, warm):
    rng = np.random.default_rng(seed)
    net = random_crack_network(rng)
    bc = random_boundary(rng)
    p0 = rng.uniform(-20.0, 20.0, len(net.zones)) if warm else None
    try:
        out = an.solve(net, bc, p0, strategy, CFG)
    except (an.NonConvergenceError, an.SingularJacobianError):
        return
    assert np.all(np.isfinite(out.pressures))
    assert np.max(np.abs(oracle_residual(net, out.pressures, bc))) <= CFG.tolerance + 1e-12


# The solver settings and agreement bound of the acceptance suite's
# cross-strategy check (criterion 3).
TIGHT = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(seed=st.integers(0, 2**32 - 1), warm=st.booleans())
def test_strategies_that_all_converge_agree(seed, warm):
    rng = np.random.default_rng(seed)
    net = random_crack_network(rng)
    bc = random_boundary(rng)
    p0 = rng.uniform(-20.0, 20.0, len(net.zones)) if warm else None
    try:
        solutions = [an.solve(net, bc, p0, s, TIGHT).pressures for s in an.STRATEGIES]
    except (an.NonConvergenceError, an.SingularJacobianError):
        return
    for a in solutions:
        for b in solutions:
            assert np.all(np.abs(a - b) <= np.maximum(1e-6, 1e-9 * np.abs(a)))
