"""Properties over random crack networks and boundaries, over random open
buildings, and of the Walton relaxation factors over random corrections.

Each strategy must either raise NonConvergenceError / SingularJacobianError,
or return finite pressures whose residual, recomputed by the independent
oracle, meets the tolerance, on crack networks and on open buildings.  A
raised SolveError carries the iterate it reached and that iterate's
residual.  When all four strategies converge, they agree within the
cross-strategy bound of the acceptance suite.  On an open building the
compiled assembly equals the link loop bit for bit, and the link flows
balance each zone's residual.  A numeric field of a record, a boundary or a
solver configuration that holds a bool, a string or None is reported or
refused by name.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import airnet as an
from airnet.solvers import walton_relaxation
from helpers import (
    loop_assembly,
    matches_the_loop,
    oracle_residual,
    random_boundary,
    random_crack_network,
    random_open_building,
    reference_walton_relaxation,
)

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


REASONS = {an.NonConvergenceError: "non-convergence", an.SingularJacobianError: "singular-jacobian"}


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    warm=st.booleans(),
    budget=st.integers(1, 4),
    poison=st.booleans(),
)
@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_solve_error_carries_the_iterate_it_reached(strategy, seed, warm, budget, poison):
    rng = np.random.default_rng(seed)
    net = random_crack_network(rng)
    if poison:  # a NaN reference height makes the residual NaN
        zones = (dataclasses.replace(net.zones[0], ref_height_m=math.nan),) + net.zones[1:]
        net = dataclasses.replace(net, zones=zones)
    bc = random_boundary(rng)
    p0 = rng.uniform(-20.0, 20.0, len(net.zones)) if warm else None
    cfg = an.SolverConfig(max_newton_iters=budget)
    try:
        an.solve(net, bc, p0, strategy, cfg)
    except an.SolveError as err:
        error, out = err, err.outcome
    else:
        return
    assert error.reason == REASONS[type(error)]
    assert out.strategy == strategy
    assert out.pressures.shape == (len(net.zones),)
    fresh = float(np.max(np.abs(an.residual(net, out.pressures, bc, cfg.dp_lin))))
    assert out.max_residual == fresh or (math.isnan(out.max_residual) and math.isnan(fresh))


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


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_solve_on_an_open_building_returns_a_checked_solution_or_raises(strategy, seed):
    # Doors with two-way flow, equal-density doors and facade doors, solved
    # from zero pressures and from the building's own point.
    net, bc, p = random_open_building(np.random.default_rng(seed))
    for p0 in (np.zeros(len(p)), p):
        try:
            out = an.solve(net, bc, p0, strategy, CFG)
        except an.SolveError:
            continue
        assert np.all(np.isfinite(out.pressures))
        residual = loop_assembly(net, out.pressures, bc, CFG.dp_lin).residual
        assert np.max(np.abs(residual)) <= CFG.tolerance


def zone_balance(net: an.Network, flows: dict) -> tuple[np.ndarray, np.ndarray]:
    """Each zone's mechanical flow plus the net flows of its links, fans
    among them, summed in link order; and the sum of the terms' magnitudes."""
    zone = {z.id: i for i, z in enumerate(net.zones)}
    total = np.array([z.mech_flow_kg_s for z in net.zones])
    size = np.abs(total)
    for link in net.links:
        flow = flows[link.id].net
        for node, sign in ((link.from_node, -1.0), (link.to_node, 1.0)):
            if node in zone:
                total[zone[node]] += sign * flow
                size[zone[node]] += abs(flow)
    return total, size


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(seed=st.integers(0, 2**32 - 1), dp_lin=st.sampled_from([1e-3, 0.5]))
def test_open_building_assembly_matches_the_link_loop(seed, dp_lin):
    # Doors with neutral planes inside them, doors to facades (whose outer
    # ends no scatter sums) and equal-density doors, at the building's own
    # point, at a point away from it and at zero pressures.
    rng = np.random.default_rng(seed)
    net, bc, p = random_open_building(rng)
    for at in (p, p + rng.uniform(-10.0, 10.0, len(p)), np.zeros(len(p))):
        matches_the_loop(net, at, bc, dp_lin)
        balance, size = zone_balance(net, an.link_flows(net, at, bc, dp_lin))
        residual = an.residual(net, at, bc, dp_lin)
        assert np.all(np.abs(balance - residual) <= 4 * np.finfo(float).eps * size)


# Corrections with zeros of both signs, the smallest subnormals (whose
# products underflow to zero) and arbitrary finite values.
CORRECTIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324]),
    st.floats(-1e100, 1e100),
)
# How each node's previous correction relates to its new one.
RELATIONS = ("fresh", "equal", "flip", "flip_scaled", "zero")


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(
    correction=st.lists(CORRECTIONS, min_size=1, max_size=8),
    relations=st.lists(st.sampled_from(RELATIONS), min_size=8, max_size=8),
    fresh=st.lists(CORRECTIONS, min_size=8, max_size=8),
    scale=st.floats(1e-3, 1e3),
    first=st.booleans(),
)
def test_walton_relaxation_matches_the_masked_divide(correction, relations, fresh, scale, first):
    c = np.array(correction)
    prev = None if first else np.array([
        {"fresh": fresh[i], "equal": x, "flip": -x, "flip_scaled": -scale * x, "zero": 0.0}[r]
        for i, (r, x) in enumerate(zip(relations, correction))
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero, even where unused
        omega = walton_relaxation(c, prev)
    assert omega.tobytes() == reference_walton_relaxation(c, prev).tobytes()


# Values that are not numbers; True and np.True_ would pass a range check as 1.
NOT_NUMBERS = st.sampled_from([True, False, np.True_, "1", None])
DWELLING = an.load_network(an.bundled_example_path("dwelling5"))
# (group, index, whether the link's model) of each record of dwelling5: its
# zones, external nodes, links and their cracks, opening and fans.
RECORDS = [
    (group, i, in_model)
    for group in ("zones", "external_nodes", "links")
    for i in range(len(getattr(DWELLING, group)))
    for in_model in ((False, True) if group == "links" else (False,))
]
OWNERS = {"zones": "zone", "external_nodes": "external node", "links": "link"}


def _numeric_fields(record) -> list[str]:
    return [f.name for f in dataclasses.fields(record) if f.type in ("float", "int", "tuple[float, ...]")]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(data=st.data(), bad=NOT_NUMBERS)
def test_validate_reports_a_value_that_is_not_a_number_once_by_name(data, bad):
    group, index, in_model = data.draw(st.sampled_from(RECORDS))
    records = list(getattr(DWELLING, group))
    record = records[index].model if in_model else records[index]
    name = data.draw(st.sampled_from(_numeric_fields(record)))
    value = bad
    if name == "cp":
        i = data.draw(st.integers(0, 7))
        value = record.cp[:i] + (bad,) + record.cp[i + 1:]
    changed = dataclasses.replace(record, **{name: value})
    records[index] = dataclasses.replace(records[index], model=changed) if in_model else changed
    violations = an.validate(dataclasses.replace(DWELLING, **{group: tuple(records)}))
    assert len(violations) == 1, violations
    assert violations[0].startswith(f"{OWNERS[group]} '{records[index].id}': {name} must be a ")


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(data=st.data(), bad=NOT_NUMBERS)
@pytest.mark.parametrize(
    "valid", [an.BoundaryState(3.0, 90.0, 290.0), an.SolverConfig()], ids=["BoundaryState", "SolverConfig"]
)
def test_boundary_and_solver_config_refuse_a_value_that_is_not_a_number(valid, data, bad):
    name = data.draw(st.sampled_from(_numeric_fields(valid)))
    with pytest.raises(ValueError, match=f"^{name} must be an? (number|integer), got "):
        dataclasses.replace(valid, **{name: bad})
