"""The public API as one explicit list, so any change to it shows up as a test diff."""

import ast
import re
from pathlib import Path

import rsriccati
from rsriccati import cli

PUBLIC_API = [
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


def test_public_api_is_the_listed_names():
    assert len(PUBLIC_API) == 47
    assert sorted(rsriccati.__all__) == PUBLIC_API


# public functions and classes that library modules define but the package
# does not export, so a leftover public helper shows up as a test diff
UNEXPORTED = {"cone.relative_log_spectrum", "cone.require_spd", "errors.check_finite",
              "riccati.doubled_fixed_points"}


def test_unexported_public_definitions():
    package = Path(rsriccati.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        if path.stem in ("__init__", "cli"):  # the package and its front end
            continue
        found |= {f"{path.stem}.{node.name}" for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in rsriccati.__all__}
    assert found == UNEXPORTED


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


# each module's relative imports, so a new dependency between layers shows up as a test diff
LAYERS = {
    "errors": set(),
    "cone": {"errors"},
    "statespace": {"cone", "errors"},
    "bounds": {"cone", "errors", "statespace"},
    "riccati": {"cone", "errors", "statespace"},
    "sim": {"cone", "errors", "riccati", "statespace"},
    "cli": {"bounds", "cone", "errors", "riccati", "statespace"},
    "__init__": {"bounds", "cone", "errors", "riccati", "sim", "statespace"},
}


def test_module_layering():
    package = Path(rsriccati.__file__).parent
    found = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        relative = [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level]
        # "from .cone import x" names cone; "from . import bounds as bnd" names bounds
        found[path.stem] = {name for node in relative
                            for name in ([node.module] if node.module else
                                         [a.name for a in node.names])}
    assert found == LAYERS


def test_every_private_name_is_used_in_the_library():
    # a private helper that only tests call is dead code: fold it away or move it to the tests
    package = Path(rsriccati.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = set()
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined |= {f"{stem}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {a.name for a in node.names}
    assert len(defined) > 20
    assert sorted(d for d in defined if d.split(".", 1)[1] not in used) == []


def test_readme_example_runs():
    # the README's library example uses only names that exist and still runs
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
