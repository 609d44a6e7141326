"""Contraction analysis of risk-sensitive Riccati iterations.

Library layout:

- `cone`: geometry of the positive definite cone (matrix functions,
  affine-invariant and Thompson distances, contraction bounds).
- `statespace`: model container, block (downsampled) matrices, the
  risk-dependent Gramians and the thresholds theta_N / tau_N.
- `riccati`: risk-neutral and risk-sensitive Riccati maps, trajectories,
  fixed points and breakdown search.
- `bounds`: observer-gain design, Lyapunov bound Sigma_rho, risk bound
  beta_rho and the (G, rho) search maximizing it.
- `sim`: seeded Gauss-Markov simulation and filter/observer execution.
- `cli`: command-line front end (`rsriccati`).
"""

from .bounds import (
    AdmissibilityReport,
    ObserverBound,
    best_rho_for_gain,
    bound_search,
    check_initial_condition,
    default_gain_grid,
    default_rho_grid,
    observer_bound,
    place_observer_gain,
)
from .cone import (
    SpectralDecomposition,
    contraction_bound,
    is_spd,
    riemann_distance,
    spd_sqrt,
    spectral,
    symmetrize,
    thompson_distance,
)
from .errors import (
    ConeExitError,
    DomainError,
    IterationLimitError,
    NumericalError,
    UsageError,
)
from .riccati import (
    AreReport,
    BreakdownResult,
    FixedPointResult,
    RiccatiStep,
    block_riccati_map,
    breakdown_search,
    fixed_point,
    fixed_point_sweep,
    iterate_trajectory,
    rs_gain,
    rs_riccati_map,
    verify_are,
)
from .sim import FilterRun, SimulationRun, run_filter, run_observer, simulate
from .statespace import (
    BlockMap,
    StateSpaceModel,
    Thresholds,
    block_map,
    is_observable,
    is_reachable,
    load_model,
    tau_N,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AreReport",
    "BlockMap",
    "BreakdownResult",
    "ConeExitError",
    "DomainError",
    "FilterRun",
    "FixedPointResult",
    "IterationLimitError",
    "NumericalError",
    "ObserverBound",
    "RiccatiStep",
    "SimulationRun",
    "SpectralDecomposition",
    "StateSpaceModel",
    "Thresholds",
    "UsageError",
    "best_rho_for_gain",
    "block_map",
    "block_riccati_map",
    "bound_search",
    "breakdown_search",
    "check_initial_condition",
    "contraction_bound",
    "default_gain_grid",
    "default_rho_grid",
    "fixed_point",
    "fixed_point_sweep",
    "is_observable",
    "is_reachable",
    "is_spd",
    "iterate_trajectory",
    "load_model",
    "observer_bound",
    "place_observer_gain",
    "riemann_distance",
    "rs_gain",
    "rs_riccati_map",
    "run_filter",
    "run_observer",
    "simulate",
    "spd_sqrt",
    "spectral",
    "symmetrize",
    "tau_N",
    "thompson_distance",
    "verify_are",
]
