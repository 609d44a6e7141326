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
    beta_rho,
    bound_search,
    check_initial_condition,
    default_gain_grid,
    default_rho_grid,
    lyapunov_sigma,
    observer_bound,
    place_observer_gain,
    spectral_radius,
)
from .cone import (
    SpectralDecomposition,
    contraction_bound,
    is_spd,
    loewner_leq,
    riemann_distance,
    spd_inv,
    spd_log,
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
    initial_variance,
    iterate_trajectory,
    rs_gain,
    rs_riccati_gain_form,
    rs_riccati_map,
    verify_are,
)
from .sim import FilterRun, SimulationRun, run_filter, run_observer, simulate
from .statespace import (
    BlockModel,
    StateSpaceModel,
    Thresholds,
    build_block_model,
    impulse_toeplitz,
    is_observable,
    is_reachable,
    load_model,
    observability_matrix,
    reachability_matrix,
    tau_N,
    theta_N,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "AreReport",
    "BlockModel",
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
    "beta_rho",
    "block_riccati_map",
    "bound_search",
    "breakdown_search",
    "build_block_model",
    "check_initial_condition",
    "contraction_bound",
    "default_gain_grid",
    "default_rho_grid",
    "fixed_point",
    "fixed_point_sweep",
    "impulse_toeplitz",
    "initial_variance",
    "is_observable",
    "is_reachable",
    "is_spd",
    "iterate_trajectory",
    "load_model",
    "loewner_leq",
    "lyapunov_sigma",
    "observability_matrix",
    "observer_bound",
    "place_observer_gain",
    "reachability_matrix",
    "riemann_distance",
    "rs_gain",
    "rs_riccati_gain_form",
    "rs_riccati_map",
    "run_filter",
    "run_observer",
    "simulate",
    "spd_inv",
    "spd_log",
    "spd_sqrt",
    "spectral",
    "spectral_radius",
    "symmetrize",
    "tau_N",
    "theta_N",
    "thompson_distance",
    "verify_are",
]
