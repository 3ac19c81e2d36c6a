"""Solver strategies: Newton variants, Picard initialization, composition."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

import airnet as an
from airnet import assembly, solvers
from airnet.scenario import boundary_from_record
from airnet.solvers import walton_relaxation
from helpers import loop_assembly, many_openings_network, random_boundary, random_crack_network

# facade at 10 Pa with v = 5: 0.5 * 1.25 * 0.64 * 25 = 10 (rho exact at 282.44 K)
BC10 = an.BoundaryState(5.0, 0.0, 282.44)


def uniform_cp_node(node_id, cp_value, ref=0.0):
    return an.ExternalNode(node_id, ref, (cp_value,) * 8)


def symmetric_zone(k=0.01, n=0.65):
    return an.Network(
        zones=(an.Zone("room", 282.44, 0.0),),
        external_nodes=(uniform_cp_node("hi", 0.64), uniform_cp_node("lo", 0.0)),
        links=(
            an.Link("in", "hi", "room", 0.0, an.Crack(k, n)),
            an.Link("out", "room", "lo", 0.0, an.Crack(k, n)),
        ),
    )


def linear_chain(k=1.0):
    """hi(10 Pa) --k-- a --k-- b --k-- lo(0 Pa); exact solution (20/3, 10/3)."""
    return an.Network(
        zones=(an.Zone("a", 282.44, 0.0), an.Zone("b", 282.44, 0.0)),
        external_nodes=(uniform_cp_node("hi", 0.64), uniform_cp_node("lo", 0.0)),
        links=(
            an.Link("c1", "hi", "a", 0.0, an.Crack(k, 1.0)),
            an.Link("c2", "a", "b", 0.0, an.Crack(k, 1.0)),
            an.Link("c3", "b", "lo", 0.0, an.Crack(k, 1.0)),
        ),
    )


# ---------------------------------------------------------------------------
# Newton


def test_symmetric_zone_settles_at_midpoint():
    cfg = an.SolverConfig(tolerance=1e-10, max_newton_iters=2000)
    out = an.solve(symmetric_zone(), BC10, None, "NR", cfg)
    assert out.pressures[0] == pytest.approx(5.0, abs=1e-6)
    assert out.max_residual <= 1e-10


def test_walton_converges_in_one_iteration_on_linear_network():
    out = an.solve(linear_chain(), BC10, None, "WM", an.SolverConfig())
    assert out.newton_iters == 1
    assert np.allclose(out.pressures, [20.0 / 3.0, 10.0 / 3.0], atol=1e-9)


def test_fixed_and_walton_agree_but_fixed_needs_more_iterations():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    bc = an.BoundaryState(4.0, 120.0, 297.15)
    cfg = an.SolverConfig(tolerance=1e-10, max_newton_iters=3000)
    fixed = an.solve(net, bc, None, "NR", cfg)
    walton = an.solve(net, bc, None, "WM", cfg)
    assert np.max(np.abs(fixed.pressures - walton.pressures)) < 1e-6
    assert fixed.newton_iters > walton.newton_iters
    assert fixed.strategy == "NR" and walton.strategy == "WM"


def test_newton_counts_zero_iterations_from_converged_start(monkeypatch):
    # A start whose residual passes asks for no Jacobian and no linear solve.
    net = symmetric_zone()
    cfg = an.SolverConfig()
    first = an.solve(net, BC10, None, "WM", cfg)
    calls = []

    def counted(name):
        original = getattr(solvers, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("jacobian", "lu_solve"):
        monkeypatch.setattr(solvers, name, counted(name))
    again = an.solve(net, BC10, first.pressures, "WM", cfg)
    assert again.newton_iters == 0
    assert calls == []


def test_non_convergence_carries_diagnostics():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    bc = an.BoundaryState(6.0, 30.0, 295.15)
    with pytest.raises(an.NonConvergenceError) as err:
        an.solve(net, bc, None, "NR", an.SolverConfig(max_newton_iters=2))
    assert err.value.outcome.newton_iters == 2
    assert err.value.outcome.pressures.shape == (5,)
    assert err.value.outcome.max_residual > 1e-3


def test_singular_jacobian_raised_for_isolated_zone():
    net = an.Network(  # built directly: validation would reject it
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.5),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    bc = an.BoundaryState(5.0, 0.0, 290.0)
    with pytest.raises(an.SingularJacobianError):
        an.solve(net, bc, None, "NR", an.SolverConfig())


@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_nan_residual_is_not_convergence(strategy):
    crack = an.Crack(0.01, 0.65)
    room = (an.Link("in", "hi", "room", 0.0, crack), an.Link("out", "room", "lo", 0.0, crack))
    alone = an.Network(  # built directly: a NaN reference height makes the residual NaN
        zones=(an.Zone("room", 282.44, math.nan),),
        external_nodes=(uniform_cp_node("hi", 0.64), uniform_cp_node("lo", 0.0)),
        links=room,
    )
    # "calm" sits between two cracks to the same facade, so its residual is
    # exactly 0 at the start; Python's max() over [0.0, nan] would give 0.0.
    nan_last = an.Network(
        zones=(an.Zone("calm", 282.44, 0.0), an.Zone("room", 282.44, math.nan)),
        external_nodes=alone.external_nodes,
        links=(
            an.Link("c1", "lo", "calm", 0.0, crack),
            an.Link("c2", "calm", "lo", 0.0, crack),
            *room,
        ),
    )
    start = an.residual(nan_last, np.zeros(2), BC10)
    assert start[0] == 0.0 and math.isnan(start[1])
    for net in (alone, nan_last):
        with pytest.raises((an.NonConvergenceError, an.SingularJacobianError)):
            an.solve(net, BC10, None, strategy, an.SolverConfig())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_a_non_finite_start_is_refused(strategy, value):
    # No iterate can come of a NaN or infinite start, so it is refused before
    # any linear solve rather than reported as a singular matrix.
    net = an.load_network(an.bundled_example_path("dwelling5"))
    p0 = np.zeros(len(net.zones))
    p0[2] = value
    with pytest.raises(ValueError, match="^p0 must be finite"):
        an.solve(net, BC10, p0, strategy, an.SolverConfig())
    with pytest.raises(ValueError, match="^p0 must be finite"):
        an.picard_init(net, BC10, p0, an.SolverConfig())


@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_integer_tolerance_counts_as_its_float(strategy):
    # int.__ge__(float) returns NotImplemented, which is truthy; a test built
    # on it would call any start converged.
    net = an.load_network(an.bundled_example_path("dwelling5"))
    bc = an.BoundaryState(6.0, 30.0, 275.15)
    p0 = [1000.0, -1000.0, 1000.0, -1000.0, 1000.0]  # max |residual| about 2 kg/s
    ours = an.solve(net, bc, p0, strategy, an.SolverConfig(tolerance=1))
    theirs = an.solve(net, bc, p0, strategy, an.SolverConfig(tolerance=1.0))
    assert ours.newton_iters == theirs.newton_iters > 0
    assert ours.picard_iters_used == theirs.picard_iters_used
    assert ours.pressures.tobytes() == theirs.pressures.tobytes()
    assert ours.max_residual <= 1.0


@pytest.mark.parametrize("n", [5, 320])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_nan_anywhere_fails_the_convergence_test(n, where):
    # A residual of crack320's size, and dwelling5's: all but one entry well
    # inside the tolerance, and a NaN first, in the middle or last.
    f = np.full(n, 1e-6)
    assert solvers._converged(f, an.SolverConfig(tolerance=1e-3))
    f[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = math.nan
    assert not solvers._converged(f, an.SolverConfig(tolerance=1e-3))


@pytest.mark.parametrize("n", [5, 320])
def test_a_residual_at_the_tolerance_passes_the_convergence_test(n):
    cfg = an.SolverConfig(tolerance=1e-3)
    f = np.linspace(-5e-4, 5e-4, n)
    f[n // 3] = -1e-3
    assert solvers._converged(f, cfg)
    f[n // 3] = np.nextafter(-1e-3, -1.0)
    assert not solvers._converged(f, cfg)


def test_solve_errors_survive_pickle_and_copy():
    # BaseException re-creates an error from its args, which hold the message only.
    dwelling = an.load_network(an.bundled_example_path("dwelling5"))
    island = an.Network(  # built directly: validation would reject it
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.5),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    cases = [
        (dwelling, an.BoundaryState(6.0, 30.0, 295.15), an.SolverConfig(max_newton_iters=2)),
        (island, an.BoundaryState(5.0, 0.0, 290.0), an.SolverConfig()),
    ]
    kinds = set()
    for net, bc, cfg in cases:
        with pytest.raises(an.SolveError) as caught:
            an.solve(net, bc, None, "PNR", cfg)
        err = caught.value
        err.step = 17  # a caller's own attribute rides along
        kinds.add(type(err))
        for again in (pickle.loads(pickle.dumps(err)), copy.copy(err), copy.deepcopy(err)):
            assert type(again) is type(err)
            assert str(again) == str(err) and again.args == err.args
            assert again.reason == err.reason
            assert again.step == 17
            out, theirs = again.outcome, err.outcome
            assert out.pressures.tobytes() == theirs.pressures.tobytes()
            assert dataclasses.replace(out, pressures=None) == dataclasses.replace(
                theirs, pressures=None
            )
    assert kinds == {an.NonConvergenceError, an.SingularJacobianError}


def test_invalid_strategy():
    with pytest.raises(ValueError):
        an.solve(symmetric_zone(), BC10, None, "XX", an.SolverConfig())


# ---------------------------------------------------------------------------
# Walton relaxation formula


def test_walton_relaxation_flip_flop_halves():
    omega = walton_relaxation(np.array([-2.0]), np.array([2.0]))
    assert omega[0] == pytest.approx(0.5)


def test_walton_relaxation_same_sign_full_step():
    omega = walton_relaxation(np.array([1.0, -3.0]), np.array([0.5, -1.0]))
    assert np.allclose(omega, 1.0)


def test_walton_relaxation_clamped():
    # Tiny reversal after a huge correction: secant would go to ~0.
    omega = walton_relaxation(np.array([-1e-6]), np.array([10.0]))
    assert omega[0] == pytest.approx(0.1)


def test_walton_relaxation_first_iteration_full_step():
    omega = walton_relaxation(np.array([4.0, -4.0]), None)
    assert np.allclose(omega, 1.0)


# ---------------------------------------------------------------------------
# Picard initializer


def assert_residual_is_its_own(net, bc, result):
    """The residual a Picard result carries is the one at its pressures, bit
    for bit: the linear solve takes it as its right-hand side and must leave
    it as it was."""
    assert result.residual.tobytes() == an.residual(net, result.pressures, bc).tobytes()


@pytest.mark.parametrize("name", ["random", "dwelling5", "dwelling5_cracks", "two_crack", "threestorey"])
def test_picard_step_is_the_papers_linear_system(name):
    # The paper's Picard system A x = b, with b summed from every constant
    # term by the loop oracle, meets the residual in A(p) p - b(p) = F(p) on
    # networks with no law opening; so the step taken from the residual,
    # -(1 - accel) A^-1 F, is the paper's (1 - accel) (A^-1 b - p).
    rng = np.random.default_rng(sum(map(ord, name)))
    cfg = an.SolverConfig(picard_iters=1, tolerance=1e-300)
    for _ in range(20):
        net = random_crack_network(rng) if name == "random" else an.load_network(an.bundled_example_path(name))
        bc = random_boundary(rng)
        p = rng.uniform(-20, 20, len(net.zones))
        matrix, rhs = loop_assembly(net, p, bc).picard
        secant = an.picard_system(net, p, bc)
        f = an.residual(net, p, bc)
        terms = np.abs(secant) @ np.abs(p) + np.abs(rhs) + np.abs(f)
        assert np.all(np.abs(secant @ p - rhs - f) <= 1e-12 * terms)
        result = an.picard_init(net, bc, p, cfg)
        assert result.iters_used == 1 and result.aborted is None
        paper = (1.0 - cfg.accel) * (an.lu_solve(matrix, rhs).solution - p)
        expected = p + np.clip(paper, -cfg.trunc_dp_max, cfg.trunc_dp_max)
        assert np.max(np.abs(result.pressures - expected)) <= 1e-9


def test_picard_trace_matches_hand_computed_geometric_sequence():
    # Linear network: p* = (20/3, 10/3); with damping 0.5 the iterates are
    # p_k = p* (1 - 0.5^k).  Tiny tolerance keeps the loop from exiting early.
    net = linear_chain()
    cfg_base = dict(tolerance=1e-15, max_newton_iters=10)
    p_star = np.array([20.0 / 3.0, 10.0 / 3.0])
    for k in (1, 2, 3, 5):
        cfg = an.SolverConfig(picard_iters=k, **cfg_base)
        result = an.picard_init(net, BC10, np.zeros(2), cfg)
        assert result.iters_used == k
        assert result.aborted is None
        assert np.allclose(result.pressures, p_star * (1 - 0.5**k), atol=1e-9)
        assert_residual_is_its_own(net, BC10, result)


def test_picard_converges_on_linear_network():
    # realistic crack size so the halving residual fits the 10-iteration budget
    net = linear_chain(k=0.01)
    result = an.picard_init(net, BC10, np.zeros(2), an.SolverConfig())
    assert result.converged
    assert result.aborted is None
    assert result.iters_used <= 10
    assert_residual_is_its_own(net, BC10, result)


def test_picard_entry_check_short_circuits():
    net = linear_chain(k=0.01)
    solution = np.array([20.0 / 3.0, 10.0 / 3.0])
    result = an.picard_init(net, BC10, solution, an.SolverConfig())
    assert result.converged
    assert result.iters_used == 0


def test_picard_truncates_each_update_to_dp_max():
    # Storm wind: facade at 0.4 * v^2 = 200 Pa, so the first undamped update
    # would move zone a by ~66.7 Pa; the cap holds every step to 60 Pa.
    net = linear_chain()
    bc = an.BoundaryState(math.sqrt(500.0), 0.0, 282.44)
    cfg_base = dict(tolerance=1e-15, max_newton_iters=10)
    previous = np.zeros(2)
    for k in range(1, 6):
        result = an.picard_init(net, bc, np.zeros(2), an.SolverConfig(picard_iters=k, **cfg_base))
        step = np.abs(result.pressures - previous)
        assert np.all(step <= 60.0 + 1e-9)
        previous = result.pressures
    # first update: a clamps to exactly 60, b is free at 200/6
    first = an.picard_init(net, bc, np.zeros(2), an.SolverConfig(picard_iters=1, **cfg_base))
    assert first.pressures[0] == pytest.approx(60.0, rel=1e-9)
    assert first.pressures[1] == pytest.approx(200.0 / 6.0, rel=1e-6)


def test_picard_aborts_singular_and_keeps_pressures():
    net = an.Network(
        zones=(an.Zone("a", 293.0, 0.0), an.Zone("island", 293.0, 0.0)),
        external_nodes=(uniform_cp_node("out", 0.5),),
        links=(an.Link("c", "out", "a", 0.0, an.Crack(0.01, 0.6)),),
    )
    bc = an.BoundaryState(5.0, 0.0, 290.0)
    p0 = np.array([1.0, 2.0])
    result = an.picard_init(net, bc, p0, an.SolverConfig())
    assert result.aborted == "singular"
    assert not result.converged
    assert result.iters_used == 0
    assert np.array_equal(result.pressures, p0)
    assert_residual_is_its_own(net, bc, result)


def test_picard_aborts_on_reciprocal_flow():
    net = an.load_network(an.bundled_example_path("iea_door"))
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    result = an.picard_init(net, bc, np.zeros(2), an.SolverConfig())
    assert result.aborted == "reciprocal-flow"
    assert result.iters_used == 0
    assert_residual_is_its_own(net, bc, result)


# ---------------------------------------------------------------------------
# composed strategies


def test_pnr_converges_in_picard_on_linear_network():
    out = an.solve(linear_chain(k=0.01), BC10, None, "PNR", an.SolverConfig())
    assert out.converged_in_picard
    assert out.newton_iters == 0
    assert out.picard_iters_used >= 1
    assert out.max_residual <= 1e-3


def test_picard_abort_hands_off_to_newton():
    net = an.load_network(an.bundled_example_path("iea_door"))
    bc = an.BoundaryState(0.0, 0.0, 293.0)
    for strategy in ("PNR", "PWM"):
        out = an.solve(net, bc, None, strategy, an.SolverConfig())
        assert out.picard_aborted == "reciprocal-flow"
        assert not out.converged_in_picard
        assert out.newton_iters > 0
        assert out.max_residual <= 1e-3


def test_outcome_residual_matches_fresh_recomputation():
    rng = np.random.default_rng(61)
    for _ in range(10):
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        for strategy in an.STRATEGIES:
            out = an.solve(net, bc, None, strategy, an.SolverConfig())
            fresh = float(np.max(np.abs(an.residual(net, out.pressures, bc))))
            assert out.max_residual == pytest.approx(fresh, rel=1e-12, abs=1e-15)
            assert out.max_residual <= 1e-3


@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_one_residual_per_iterate(monkeypatch, strategy):
    # The start, every Picard update and every Newton step each get exactly
    # one residual evaluation, each Newton step one Jacobian, and a solve
    # evaluates no link flows.
    calls = {"residual": 0, "jacobian": 0, "link_flows": 0}

    def counted(name):
        original = getattr(solvers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(solvers, name, counted(name))
    net = an.load_network(an.bundled_example_path("dwelling5"))
    p = None
    for rec in an.generate_weather(days=1, step_minutes=30, seed=42):
        calls.update(dict.fromkeys(calls, 0))
        out = an.solve(net, boundary_from_record(rec), p, strategy, an.SolverConfig())
        assert calls["residual"] == 1 + out.picard_iters_used + out.newton_iters
        assert calls["jacobian"] == out.newton_iters
        assert calls["link_flows"] == 0
        p = out.pressures


def equal_density_openings(net: an.Network) -> int:
    """How many large openings join two zones of exactly equal air density."""
    rho = {z.id: an.air_density(z.temperature_k) for z in net.zones}
    return sum(
        isinstance(link.model, an.LargeOpening)
        and link.from_node in rho
        and rho[link.from_node] == rho.get(link.to_node)
        for link in net.links
    )


@pytest.mark.parametrize("strategy", an.STRATEGIES)
def test_links_evaluated_once_per_iterate(monkeypatch, strategy):
    # Each distinct iterate (pressures and boundary) evaluates every coupled
    # link once, in its first call: one power pass, max(|dp|, dp_lin) ** (n - 1)
    # and ** n over every crack, every opening between zones of equal density,
    # which is a crack of exponent 1/2, and every opening at its mid-height,
    # where Picard takes it as one orifice, and one law call per other
    # opening.  A second call at the iterate evaluates nothing, the Picard
    # system included: no scalar law but the opening law ever runs.  Each
    # call that returns makes one np.bincount.  A Newton iterate asks for its
    # residual and then, only when a linear solve follows, its Jacobian, so a
    # solve makes one Jacobian per Newton iteration and none at the iterate
    # whose residual passes.  Nothing calls a crack law, crack_conductance or
    # the separate derivative law.  On dwelling5 the law is never called;
    # many_openings_network keeps the law path covered.
    names = ["power pass", "opening", "opening derivative", "crack law", "conductance", "bincount"]
    calls = dict.fromkeys(names, 0)
    powers = []  # how many powers each power pass computed
    log = []  # (function, boundary, pressures, refused, the calls it made) per call

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def logged(name):
        original = getattr(solvers, name)

        def wrapper(net, p, bc, dp_lin):
            before = dict(calls)
            refused = True
            try:
                out = original(net, p, bc, dp_lin)
                refused = False
                return out
            except an.ReciprocalFlowError:
                assert name == "picard_system"
                raise
            finally:
                made = {k: calls[k] - before[k] for k in calls}
                log.append((name, bc, np.asarray(p, dtype=float).tobytes(), refused, made))

        return wrapper

    def float_power(*args):
        out = original_float_power(*args)
        calls["power pass"] += 1
        powers.append(out.size)
        return out

    original_float_power = np.float_power
    monkeypatch.setattr(np, "float_power", float_power)
    monkeypatch.setattr(np, "bincount", counted("bincount", np.bincount))
    monkeypatch.setattr(assembly, "large_opening_flow", counted("opening", assembly.large_opening_flow))
    monkeypatch.setattr(
        assembly,
        "large_opening_derivative",
        counted("opening derivative", assembly.large_opening_derivative),
    )
    for name in ("crack_flow", "crack_derivative"):
        monkeypatch.setattr(assembly, name, counted("crack law", getattr(assembly, name)))
    monkeypatch.setattr(assembly, "crack_conductance", counted("conductance", assembly.crack_conductance))
    for name in ("residual", "jacobian", "picard_system"):
        monkeypatch.setattr(solvers, name, logged(name))
    dwelling = an.load_network(an.bundled_example_path("dwelling5"))
    for net, kinds in [(dwelling, (1, 0)), (many_openings_network(), (3, 1))]:
        openings = sum(isinstance(link.model, an.LargeOpening) for link in net.links)
        cracks = sum(isinstance(link.model, an.Crack) for link in net.links)
        orifices = equal_density_openings(net)
        assert (orifices, openings - orifices) == kinds
        log.clear()
        powers.clear()
        p = None
        solves = []  # (boundary, Newton iterations) per solve
        for rec in an.generate_weather(days=1, step_minutes=30, seed=42):
            bc = boundary_from_record(rec)
            out = an.solve(net, bc, p, strategy, an.SolverConfig())
            solves.append((bc, out.newton_iters))
            p = out.pressures
        iterates = []  # the calls at each distinct iterate, in order
        for call in log:
            last = iterates[-1][-1] if iterates else None
            if last is None or call[1] is not last[1] or call[2] != last[2]:
                iterates.append([])
            iterates[-1].append(call)
        for calls_here in iterates:
            first, *later = [made for *_, made in calls_here]
            assert (first["power pass"], first["opening"]) == (1, openings - orifices)
            assert all(made["power pass"] == made["opening"] == 0 for made in later)
            for name, _, _, refused, made in calls_here:
                assert made["opening derivative"] == made["crack law"] == 0
                assert made["conductance"] == 0
                assert made["bincount"] == (0 if refused else 1)
            order = [name for name, *_ in calls_here]
            if "jacobian" in order:
                # Picard may have stopped at the iterate it hands to Newton.
                newton = [name for name in order if name != "picard_system"]
                assert newton == ["residual", "jacobian"]
                assert order[-1] == "jacobian"
        for bc, newton_iters in solves:
            here = [[name for name, *_ in its] for its in iterates if its[0][1] is bc]
            assert sum(order.count("jacobian") for order in here) == newton_iters
            assert "jacobian" not in here[-1]
        assert set(powers) == {2 * (cracks + orifices + openings)}
        assert sum(newton_iters for _, newton_iters in solves) > 0
        picard = any(name == "picard_system" for name, *_ in log)
        assert picard == (strategy in ("PNR", "PWM"))


@pytest.mark.parametrize("newton, picard", [("NR", "PNR"), ("WM", "PWM")])
def test_a_zero_picard_budget_adds_nothing_to_newton(newton, picard):
    # With no Picard update to take, PNR and PWM are NR and WM bit for bit
    # over the warm-started dwelling5 day: the Picard stage adds nothing but
    # its own updates.
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, seed=42)
    cfg = an.SolverConfig(picard_iters=0)
    alone = an.run_simulation(net, weather, newton, cfg)
    after = an.run_simulation(net, weather, picard, cfg)
    assert len(after) == len(alone) == 48
    for ours, theirs in zip(after, alone):
        assert ours.picard_iters == 0
        assert np.array(ours.pressures).tobytes() == np.array(theirs.pressures).tobytes()
        assert (ours.newton_iters, ours.max_residual) == (theirs.newton_iters, theirs.max_residual)
        assert ours.failed is theirs.failed is None
    assert sum(rec.newton_iters for rec in alone) > 0


def test_picard_alone_solves_majority_of_cold_starts_on_crack_fixture():
    # Sampled boundary conditions from the synthetic series, all from p0 = 0:
    # the initializer should finish within its 10-iteration budget most of
    # the time on the crack-only dwelling.
    net = an.load_network(an.bundled_example_path("dwelling5_cracks"))
    weather = an.generate_weather(days=10, step_minutes=30, seed=42)
    converged = 0
    sampled = weather[::10]
    for rec in sampled:
        bc = boundary_from_record(rec)
        result = an.picard_init(net, bc, np.zeros(len(net.zones)), an.SolverConfig())
        converged += result.converged
    assert converged > len(sampled) / 2


def test_picard_initialization_dominates_on_random_networks():
    # Cold starts on 100 random crack networks: the initializer must cut the
    # Newton work by at least half on average and in the median.
    rng = np.random.default_rng(77)
    nr_iters, pnr_iters = [], []
    for _ in range(100):
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        cfg = an.SolverConfig()
        nr_iters.append(an.solve(net, bc, None, "NR", cfg).newton_iters)
        pnr_iters.append(an.solve(net, bc, None, "PNR", cfg).newton_iters)
    assert np.median(pnr_iters) < np.median(nr_iters)
    assert np.mean(nr_iters) / max(np.mean(pnr_iters), 1e-9) >= 2.0


def test_strategies_agree_on_random_networks():
    rng = np.random.default_rng(71)
    cfg = an.SolverConfig(tolerance=1e-11, max_newton_iters=4000)
    for _ in range(10):
        net = random_crack_network(rng)
        bc = random_boundary(rng)
        solutions = [an.solve(net, bc, None, s, cfg).pressures for s in an.STRATEGIES]
        for a in solutions:
            for b in solutions:
                assert np.max(np.abs(a - b)) <= np.maximum(1e-6, 1e-9 * np.abs(a)).max()


def test_outcome_link_flows_cover_every_link():
    net = an.load_network(an.bundled_example_path("dwelling5"))
    bc = an.BoundaryState(3.0, 200.0, 298.15)
    out = an.solve(net, bc, None, "WM", an.SolverConfig())
    flows = an.link_flows(net, out.pressures, bc)
    assert set(flows) == {l.id for l in net.links}
    fan = flows["sf_b3"]
    assert fan.net == pytest.approx(0.004)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        an.SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        an.SolverConfig(fixed_relax=1.5)
    with pytest.raises(ValueError):
        an.SolverConfig(accel=1.0)
    with pytest.raises(ValueError):
        an.SolverConfig(trunc_dp_max=-1.0)
    # Under a NaN budget `iters >= max_newton_iters` is never true, so a solve
    # that cannot converge would loop forever; a fractional one breaks range().
    for field in ("max_newton_iters", "picard_iters"):
        for value in (math.nan, math.inf, 2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match=field):
                an.SolverConfig(**{field: value})
    with pytest.raises(ValueError, match="max_newton_iters must be >= 1"):
        an.SolverConfig(max_newton_iters=0)
    with pytest.raises(ValueError, match="picard_iters must be >= 0"):
        an.SolverConfig(picard_iters=-1)
    assert an.SolverConfig(picard_iters=0).picard_iters == 0
    cfg = an.SolverConfig(max_newton_iters=np.int64(7), picard_iters=np.int32(2))
    assert (cfg.max_newton_iters, cfg.picard_iters) == (7, 2)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["tolerance", "trunc_dp_max", "dp_lin"])
def test_solver_config_rejects_non_finite(field, value):
    # `inf > 0` is True, so an infinite tolerance used to pass and declare any
    # start converged after 0 iterations.
    with pytest.raises(ValueError, match=field):
        an.SolverConfig(**{field: value})
