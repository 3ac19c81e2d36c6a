"""Multizone building airflow-network solver.

Computes zone reference pressures and inter-zone mass flows by solving the
nonlinear per-zone mass-balance system, with four interchangeable
strategies: fixed-relaxation Newton (NR), Walton-style adaptive relaxation
(WM), and both preceded by a damped fixed-point initializer (PNR, PWM).
"""

from .assembly import (
    BoundaryState,
    LinearSystem,
    ReciprocalFlowError,
    boundary_pressure,
    jacobian,
    link_flows,
    picard_system,
    residual,
)
from .linalg import SolveReport, lu_solve
from .links import (
    DP_LIN_DEFAULT,
    GRAVITY,
    TwoWayFlow,
    air_density,
    crack_conductance,
    crack_derivative,
    crack_flow,
    large_opening_derivative,
    large_opening_flow,
)
from .network import (
    Crack,
    ExternalNode,
    Fan,
    LargeOpening,
    Link,
    LinkModel,
    Network,
    NetworkFormatError,
    NetworkValidationError,
    Zone,
    bundled_example_path,
    bundled_examples,
    load_network,
    parse_network,
    serialize_network,
    validate,
)
from .scenario import (
    StrategySummary,
    TimestepRecord,
    WeatherFormatError,
    WeatherRecord,
    generate_weather,
    parse_weather,
    run_simulation,
    summarize,
)
from .solvers import (
    STRATEGIES,
    NonConvergenceError,
    PicardResult,
    SingularJacobianError,
    SolveOutcome,
    SolverConfig,
    picard_init,
    solve,
    walton_relaxation,
)

__version__ = "0.1.0"
