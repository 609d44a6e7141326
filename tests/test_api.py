"""The public API as one explicit list, so any change to it shows up as a test diff."""

import ast
from pathlib import Path

import rsriccati
from rsriccati import cli

PUBLIC_API = [
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


def test_public_api_is_the_listed_names():
    assert len(PUBLIC_API) == 59
    assert sorted(rsriccati.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    missing = [name for name in rsriccati.__all__ if not hasattr(rsriccati, name)]
    assert missing == []


def test_cli_reads_no_private_library_name():
    # the CLI reports what the library computes; it does not reach into its modules
    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {"statespace", "riccati", "bounds"}
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    aliases = {a.asname or a.name for node in imports for a in node.names if a.name in modules}
    assert aliases == {"ssp", "ric", "bnd"}
    private = [node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in aliases and node.attr.startswith("_")]
    private += [a.name for node in imports if (node.module or "").split(".")[-1] in modules
                for a in node.names if a.name.startswith("_")]
    assert private == []
