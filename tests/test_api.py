"""The package's public names: each module's __all__, re-exported."""

import inspect

import airnet as an
from airnet import assembly, linalg, links, network, scenario, solvers

MODULES = (assembly, linalg, links, network, scenario, solvers)

PUBLIC = {
    "BoundaryState", "Crack", "DP_LIN_DEFAULT", "ExternalNode", "Fan", "GRAVITY",
    "LargeOpening", "Link", "LinkModel", "Network", "NetworkFormatError",
    "NetworkValidationError", "NonConvergenceError", "PicardResult", "ReciprocalFlowError",
    "STRATEGIES", "SingularJacobianError", "SolveError", "SolveOutcome", "SolveReport",
    "SolverConfig", "StrategySummary", "TimestepRecord", "TwoWayFlow", "WeatherFormatError",
    "WeatherRecord", "Zone", "air_density", "bundled_example_path",
    "bundled_examples", "crack_conductance", "crack_derivative", "crack_flow",
    "generate_weather", "jacobian", "large_opening_derivative", "large_opening_flow",
    "link_flows", "load_network", "lu_solve", "parse_network", "parse_weather", "picard_init",
    "picard_system", "residual", "run_simulation", "solve", "summarize", "validate",
    "walton_relaxation",
}


def test_the_package_exports_the_union_of_the_modules_all():
    exported = {
        name for name in dir(an) if not name.startswith("_") and not inspect.ismodule(getattr(an, name))
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)) == 50  # each name in one module
    assert exported == set(declared) == PUBLIC
    for module in MODULES:
        for name in module.__all__:
            assert getattr(an, name) is getattr(module, name)


def test_names_left_out_of_all_stay_module_attributes():
    # The command line and the benchmark harness read these from their modules.
    for module, name in [
        (linalg, "max_abs"),
        (scenario, "csv_text"),
        (scenario, "boundary_from_record"),
        (scenario, "write_timestep_csv"),
        (solvers, "link_flows"),
    ]:
        assert hasattr(module, name)
        assert name not in module.__all__
