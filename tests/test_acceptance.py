"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the expensive 480-step comparison is computed once and shared.
"""

import math

import numpy as np
import pytest

import airnet as an
from airnet.solvers import picard_init
from helpers import (
    oracle_link_dp,
    oracle_opening_quadrature,
    oracle_residual,
    random_boundary,
    random_crack_network,
)

SEED = 42
FIXTURES = ("two_crack", "threestorey", "iea_door", "dwelling5", "dwelling5_cracks")


def report(number, label, passed=True):
    print(f"ACCEPTANCE {number} [{label}]: {'PASS' if passed else 'FAIL'}")
    assert passed


def iea_variant(delta_t):
    """Two-zone large-opening fixture with zone temperatures 300 -+ dT/2."""
    base = an.load_network(an.bundled_example_path("iea_door"))
    zones = tuple(
        an.Zone(z.id, 300.0 + (delta_t / 2.0 if z.id == "hot" else -delta_t / 2.0),
                z.ref_height_m, z.mech_flow_kg_s)
        for z in base.zones
    )
    return an.Network(zones=zones, external_nodes=base.external_nodes, links=base.links)


@pytest.fixture(scope="module")
def comparison_run():
    """All four strategies over the bundled dwelling and 10-day synthetic weather."""
    weather = an.generate_weather(days=10, step_minutes=30, seed=SEED)
    assert len(weather) == 480
    net = an.load_network(an.bundled_example_path("dwelling5"))
    records = {
        strategy: an.run_simulation(net, weather, strategy, an.SolverConfig())
        for strategy in an.STRATEGIES
    }
    return net, weather, records


def test_criterion_1_large_opening_analytical_check():
    # Each directional component within +-20% of 0.04 * W * H^1.5 * sqrt(dT),
    # solved through the full network path (near-zero net flow by design).
    for delta_t in (100.0, 50.0, 10.0):
        net = iea_variant(delta_t)
        bc = an.BoundaryState(0.0, 0.0, 293.15)
        out = an.solve(net, bc, None, "WM", an.SolverConfig())
        door = an.link_flows(net, out.pressures, bc)["door"]
        target = 0.04 * 1.0 * 1.0 * math.sqrt(delta_t)
        assert abs(door.net) < 0.02 * target  # net-zero configuration
        for component in (door.flow_forward, door.flow_reverse):
            assert abs(component / target - 1.0) <= 0.20, (delta_t, component, target)
    report(1, "large-opening analytical check at dT in {10, 50, 100} K")


def test_criterion_2_convergence_residual_independent_recheck(comparison_run):
    from airnet.scenario import boundary_from_record

    checked = 0
    for name in FIXTURES:
        net = an.load_network(an.bundled_example_path(name))
        bc = an.BoundaryState(4.0, 135.0, 296.15)
        for strategy in an.STRATEGIES:
            out = an.solve(net, bc, None, strategy, an.SolverConfig())
            assert out.max_residual <= 1e-3
            independent = np.max(np.abs(oracle_residual(net, out.pressures, bc)))
            assert independent <= 1e-3, (name, strategy, independent)
            checked += 1
    # spot-check timesteps of the comparison run with the independent oracle
    net, weather, records = comparison_run
    for strategy in an.STRATEGIES:
        for index in (0, 120, 313, 479):
            rec = records[strategy][index]
            assert rec.failed is None
            bc = boundary_from_record(weather[index])
            independent = np.max(np.abs(oracle_residual(net, np.array(rec.pressures), bc)))
            assert independent <= 1e-3, (strategy, index, independent)
            checked += 1
    report(2, f"residual <= 1e-3 kg/s under independent recomputation ({checked} solves)")


def test_criterion_3_cross_strategy_agreement():
    cfg = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)

    def assert_agreement(net, bc, context):
        solutions = [an.solve(net, bc, None, s, cfg).pressures for s in an.STRATEGIES]
        for a in solutions:
            for b in solutions:
                gap = np.abs(a - b)
                allowed = np.maximum(1e-6, 1e-9 * np.abs(a))
                assert np.all(gap <= allowed), (context, gap.max())

    for name in FIXTURES:
        net = an.load_network(an.bundled_example_path(name))
        assert_agreement(net, an.BoundaryState(3.0, 200.0, 295.15), name)
    rng = np.random.default_rng(SEED)
    for i in range(50):
        net = random_crack_network(rng)
        assert_agreement(net, random_boundary(rng), f"random-{i}")
    report(3, "NR/WM/PNR/PWM agree within max(1e-6 Pa, 1e-9 rel) on fixtures + 50 random nets")


def test_criterion_4_iteration_count_ordering(comparison_run):
    _, _, records = comparison_run
    summaries = {s: an.summarize(records[s])[s] for s in an.STRATEGIES}
    mean = {s: summaries[s].mean_newton_iters for s in an.STRATEGIES}
    assert mean["PNR"] < mean["NR"], mean
    assert mean["PWM"] <= mean["WM"], mean
    assert mean["WM"] < mean["NR"], mean
    ratio = mean["NR"] / max(mean["PNR"], 1e-9)
    assert ratio >= 2.0, mean
    report(
        4,
        "mean Newton iterations NR={NR} PNR={PNR} WM={WM} PWM={PWM}, NR/PNR={r:.1f}x".format(
            r=ratio, **mean
        ),
    )


def test_criterion_5_picard_short_circuit(comparison_run):
    _, weather, records = comparison_run
    fraction_door = np.mean([r.converged_in_picard for r in records["PNR"]])
    assert fraction_door > 0.0

    crack_net = an.load_network(an.bundled_example_path("dwelling5_cracks"))
    crack_records = an.run_simulation(crack_net, weather, "PNR", an.SolverConfig())
    fraction_cracks = np.mean([r.converged_in_picard for r in crack_records])
    assert fraction_cracks >= 0.5, fraction_cracks
    report(
        5,
        f"Picard finishes {100 * fraction_door:.1f}% of steps (door fixture), "
        f"{100 * fraction_cracks:.1f}% (crack-only, >= 50% required)",
    )


def test_criterion_6_jacobian_matches_finite_differences():
    rng = np.random.default_rng(SEED)
    states = 0
    worst = 0.0
    while states < 200:
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        p = rng.uniform(-20, 20, len(net.zones))
        if any(abs(oracle_link_dp(net, link, p, bc)[0]) < 5e-3 for link in net.links):
            continue  # keep clear of linearization breakpoints
        jac = an.jacobian(net, p, bc)
        step = 1e-5
        for j in range(len(p)):
            offset = np.zeros_like(p)
            offset[j] = step
            column = (an.residual(net, p + offset, bc) - an.residual(net, p - offset, bc)) / (
                2 * step
            )
            scale = np.maximum(np.abs(column), 1e-8)
            worst = max(worst, float(np.max(np.abs(jac[:, j] - column) / scale)))
        states += 1
    assert worst < 1e-5, worst
    report(6, f"analytic Jacobian vs central differences at 200 states (worst rel {worst:.1e})")


def test_criterion_7_picard_mechanics():
    # (a) hand-stepped damped update on a linear 2-zone chain: p_k = p*(1-a^k)
    chain = an.Network(
        zones=(an.Zone("a", 282.44, 0.0), an.Zone("b", 282.44, 0.0)),
        external_nodes=(
            an.ExternalNode("hi", 0.0, (0.64,) * 8),
            an.ExternalNode("lo", 0.0, (0.0,) * 8),
        ),
        links=(
            an.Link("c1", "hi", "a", 0.0, an.Crack(1.0, 1.0)),
            an.Link("c2", "a", "b", 0.0, an.Crack(1.0, 1.0)),
            an.Link("c3", "b", "lo", 0.0, an.Crack(1.0, 1.0)),
        ),
    )
    bc = an.BoundaryState(5.0, 0.0, 282.44)  # facade at 10 Pa
    p_star = np.array([20.0 / 3.0, 10.0 / 3.0])
    for k in (1, 2, 3):
        cfg = an.SolverConfig(tolerance=1e-15, picard_iters=k)
        result = picard_init(chain, bc, np.zeros(2), cfg)
        assert np.allclose(result.pressures, p_star * (1 - 0.5**k), atol=1e-9)

    # (b) truncation: storm boundary (facade at 200 Pa), every update <= 60 Pa
    storm = an.BoundaryState(math.sqrt(500.0), 0.0, 282.44)
    previous = np.zeros(2)
    for k in range(1, 7):
        cfg = an.SolverConfig(tolerance=1e-15, picard_iters=k)
        result = picard_init(chain, storm, np.zeros(2), cfg)
        assert np.all(np.abs(result.pressures - previous) <= 60.0 + 1e-9)
        previous = result.pressures

    # (c) reciprocal-flow abort still converges through both Newton stages
    door_net = an.load_network(an.bundled_example_path("iea_door"))
    door_bc = an.BoundaryState(0.0, 0.0, 293.15)
    for strategy in ("PNR", "PWM"):
        out = an.solve(door_net, door_bc, None, strategy, an.SolverConfig())
        assert out.picard_aborted == "reciprocal-flow"
        assert out.max_residual <= 1e-3

    # (d) singular system abort: Picard stops, keeps its pressures, and the
    # Newton stage reports the same singularity (the system is genuinely
    # underdetermined, so converging on it would be wrong).
    orphan = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(an.ExternalNode("out", 0.0, (0.5,) * 8),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    orphan_bc = an.BoundaryState(5.0, 0.0, 290.0)
    result = picard_init(orphan, orphan_bc, np.zeros(2), an.SolverConfig())
    assert result.aborted == "singular"
    with pytest.raises(an.SingularJacobianError):
        an.solve(orphan, orphan_bc, None, "PNR", an.SolverConfig())
    report(7, "Picard update rule, 60 Pa truncation, singular/reciprocal aborts + handoff")


def test_criterion_8_pwm_zero_failures(comparison_run):
    _, _, records = comparison_run
    failures = [r for r in records["PWM"] if r.failed is not None]
    assert len(records["PWM"]) == 480
    assert not failures
    report(8, "PWM completes all 480 timesteps with zero non-convergence events")


def test_criterion_9_opening_closed_form_vs_quadrature():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        width = rng.uniform(0.3, 2.5)
        height = rng.uniform(0.4, 2.6)
        cd = rng.uniform(0.25, 1.0)
        rho_from = 353.05 / rng.uniform(250.0, 350.0)
        rho_to = 353.05 / rng.uniform(250.0, 350.0)
        dp = float(rng.uniform(0.01, 9.0) * rng.choice([-1.0, 1.0]))
        ours = an.large_opening_flow(width, height, cd, rho_from, rho_to, dp)
        fwd, rev = oracle_opening_quadrature(width, height, cd, rho_from, rho_to, dp)
        scale = max(abs(fwd), abs(rev), 1e-12)
        worst = max(
            worst,
            abs(ours.flow_forward - fwd) / scale,
            abs(ours.flow_reverse - rev) / scale,
            abs(ours.net - (fwd - rev)) / scale,
        )
    assert worst < 1e-4, worst
    report(9, f"closed-form opening flow vs adaptive quadrature, 1000 points (worst rel {worst:.1e})")
