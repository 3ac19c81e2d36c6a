"""Multizone building airflow-network solver.

Computes zone reference pressures and inter-zone mass flows by solving the
nonlinear per-zone mass-balance system, with four interchangeable
strategies: fixed-relaxation Newton (NR), Walton-style adaptive relaxation
(WM), and both preceded by a damped fixed-point initializer (PNR, PWM).
"""

# Each module's __all__ is its share of the package's public names.
from .assembly import *
from .links import *
from .network import *
from .scenario import *
from .solvers import *

__version__ = "0.1.0"
