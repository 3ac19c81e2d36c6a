"""The package's public names: each module's __all__, re-exported."""

import inspect

import airnet as an
from airnet import assembly, linalg, links, network, scenario, solvers

MODULES = (assembly, linalg, links, network, scenario, solvers)

PUBLIC = {
    "BoundaryState", "Crack", "DP_LIN_DEFAULT", "ExternalNode", "Fan", "GRAVITY",
    "LargeOpening", "Link", "Network", "NetworkFormatError", "NetworkValidationError",
    "NonConvergenceError", "STRATEGIES", "SingularJacobianError", "SolveError", "SolveOutcome",
    "SolverConfig", "StrategySummary", "TimestepRecord", "TwoWayFlow", "WeatherFormatError",
    "WeatherRecord", "Zone", "air_density", "bundled_example_path", "bundled_examples",
    "generate_weather", "jacobian", "large_opening_flow", "link_flows", "load_network",
    "parse_network", "parse_weather", "residual", "run_simulation", "solve", "summarize",
    "validate",
}


def test_the_package_exports_the_union_of_the_modules_all():
    exported = {
        name for name in dir(an) if not name.startswith("_") and not inspect.ismodule(getattr(an, name))
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)) == 38  # each name in one module
    assert exported == set(declared) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(an, name) is getattr(module, name)


def test_names_left_out_of_all_stay_module_attributes():
    # The command line, the tests and the benchmark harness (its tracer too)
    # read these from their modules.
    for module, name in [
        (linalg, "max_abs"),
        (linalg, "lu_solve"),
        (scenario, "csv_text"),
        (scenario, "boundary_from_record"),
        (scenario, "write_timestep_csv"),
        (solvers, "link_flows"),
        (solvers, "picard_system"),
        (solvers, "lu_solve"),
        (solvers, "picard_init"),
        (solvers, "walton_relaxation"),
        (assembly, "picard_system"),
        (assembly, "ReciprocalFlowError"),
        *((module, law) for module in (assembly, links) for law in (
            "crack_flow", "crack_derivative", "crack_conductance", "large_opening_derivative",
        )),
    ]:
        assert hasattr(module, name)
        assert name not in module.__all__
