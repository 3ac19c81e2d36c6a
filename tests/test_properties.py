"""Property: a solve either raises a typed error or returns a true solution.

Over random crack networks and boundaries, each strategy must either raise
NonConvergenceError / SingularJacobianError, or return finite pressures whose
residual, recomputed by the independent oracle, meets the tolerance.
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
