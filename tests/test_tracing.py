"""The benchmark tracer (perfbench/tracing.py) can wrap the package.

The tracer replaces public functions where their callers look them up, so a
renamed or removed name there breaks `perfbench/run.py --trace 1`; this test
catches that in the main suite.
"""

import importlib.util
import sys
from pathlib import Path

import airnet as an

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def hooked():
    return (an.scenario.solve, an.solvers.residual, an.solvers.link_flows, an.assembly.crack_flow)


def test_tracer_installs_and_removes_its_wrappers():
    tracer = load_tracing().Tracer()
    originals = hooked()
    net = an.load_network(an.bundled_example_path("dwelling5"))
    weather = an.generate_weather(days=1, step_minutes=120, seed=1)
    with tracer.installed(an):
        assert an.solvers.link_flows is not originals[2]
        tracer.strategy = "WM"
        records = an.run_simulation(net, weather, "WM")
    assert hooked() == originals
    assert tracer.steps["WM"] == len(records) == len(weather)
    metrics = tracer.metrics(["WM"])
    assert metrics["assembly.residual.calls_per_step.wm"] >= 1.0
    # A solve evaluates no link flows.
    assert metrics["assembly.link_flows.us_per_call"] == 0.0
