"""Pseudospectral solver for the rotational Gross-Pitaevskii equation.

The working frame is the co-rotating one, where the angular-momentum term
disappears and the trap becomes a time-dependent quadratic potential.  Time
stepping composes exponentials of node-sampled Hamiltonians (orders 2, 4, 6,
plus a four-exponential modified sixth-order scheme); each exponential is
realized by a kinetic/potential splitting with exact unitary sub-flows.
"""

from .config import RunConfig, parse_config
from .integrators import (DivergenceError, EvolveResult, METHODS, evolve,
                          make_stepper, method_order, pairs_per_step)
from .model import (Trap, TrapOnGrid, gaussian_state, modified_potential,
                    nonlinearity, vortex_state)
from .oracle import classical_transform_check, dense_reference, observed_order
from .spectral import Field, Grid, kinetic_flow, read_field, write_field
from .splitting import SPLITTINGS, apply_splitting, potential_flow

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "parse_config",
    "DivergenceError", "EvolveResult", "METHODS", "evolve", "make_stepper",
    "method_order", "pairs_per_step",
    "Trap", "TrapOnGrid", "gaussian_state", "modified_potential",
    "nonlinearity", "vortex_state",
    "classical_transform_check", "dense_reference", "observed_order",
    "Field", "Grid", "kinetic_flow", "read_field", "write_field",
    "SPLITTINGS", "apply_splitting", "potential_flow",
    "__version__",
]
