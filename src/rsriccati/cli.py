"""Command-line front end.

Subcommands: analyze, trajectory, fixed-point, breakdown, bound-search,
paper-example. All numerics live in the library modules; this layer
parses flags, routes results to stdout / CSV / JSON and maps failures
to exit codes:

    0  success (for `analyze`: both convergence conditions hold)
    2  input error (missing file, bad JSON, bad flags)
    3  domain or condition failure
    4  numerical failure (iteration cap, solver breakdown)

CSV output uses '.' as decimal separator and 17 significant digits,
independent of locale.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import riccati as ric
from . import statespace as ssp
from .cone import contraction_bound, spectral
from .errors import DomainError, IterationLimitError, NumericalError, UsageError, check_finite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

# The worked example: unstable A, weakly observable single output,
# identity process-noise input and risk penalty.
EXAMPLE_MODEL = {
    "A": [[0.1, 1.0], [0.0, 1.2]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "C": [[1.0, -1.0]],
    "D": [[1.0, 0.0], [0.0, 1.0]],
}
# Points in each of the worked example's two theta sweeps.
SWEEP_POINTS = 200

P0_HELP = ("initial variance: 'identity' (trace(B B^T)/n times I), 'sigma' (the Lyapunov "
           "bound Sigma_2 of the zero-pole gain) or a JSON matrix file; default %(default)s")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _dump_json(payload, stream=None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    print(text, file=stream or sys.stdout)


def _write_out(path: str, write, newline=None) -> None:
    try:
        with open(path, "w", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc}") from exc


def _load_model_file(path: str) -> ssp.StateSpaceModel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read model file {path!r}: {exc}") from exc
    return ssp.load_model(text)


def _initial_variance_arg(model: ssp.StateSpaceModel, spec: str) -> np.ndarray:
    if spec == "identity":
        return float(np.trace(model.B @ model.B.T)) / model.n * np.eye(model.n)
    if spec == "sigma":
        G = bnd.place_observer_gain(model, [0.0] * model.n)
        return bnd.observer_bound(model, G, 2.0).Sigma_rho
    try:
        doc = json.loads(Path(spec).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read initial-variance file {spec!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"initial-variance file {spec!r} is not valid JSON") from exc
    try:
        P0 = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"initial-variance file {spec!r} is not a numeric matrix") from exc
    if P0.shape != (model.n, model.n):
        raise UsageError(
            f"initial variance must be {model.n}x{model.n}, got {P0.shape}"
        )
    return P0


def _grid_numbers(spec: str, parts: list[str], kinds) -> list:
    try:
        return [kind(text) for kind, text in zip(kinds, parts)]
    except ValueError as exc:
        raise UsageError(f"bad number in grid spec {spec!r}: {exc}") from exc


def _parse_grid(spec: str) -> np.ndarray:
    """Parse "lo:hi:count" as a uniform grid or "a,b,c" as explicit values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid spec must be lo:hi:count, got {spec!r}")
        lo, hi, count = _grid_numbers(spec, parts, (float, float, int))
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        return np.linspace(lo, hi, count)
    values = spec.split(",")
    return np.asarray(_grid_numbers(spec, values, [float] * len(values)), dtype=float)


# ---------------------------------------------------------------------------
# analyze


def _analysis_payload(model: ssp.StateSpaceModel, N: int, theta: float) -> dict:
    check_finite("theta", theta, nonnegative=True)
    thresholds = ssp.tau_N(model, N)
    payload = {
        "model": {
            "n": model.n, "m": model.m, "p": model.p, "q": model.q,
            "reachable": ssp.is_reachable(model),
            "observable": ssp.is_observable(model),
        },
        "block_length": N,
        "theta": theta,
        "theta_N": thresholds.theta_N,
        "tau_N": thresholds.tau_N,
        "tau_is_capped": thresholds.tau_is_capped,
    }
    payload["contraction_coefficient"] = None
    if theta < thresholds.tau_N:  # exactly where Omega_N(theta) is positive definite
        try:
            block = ssp.build_block_model(model, N, theta)
            payload["contraction_coefficient"] = contraction_bound(
                block.alpha, block.Omega, block.W
            )
        except DomainError:
            pass
    try:
        G0 = bnd.place_observer_gain(model, [0.0] * model.n)
        best = bnd.best_rho_for_gain(model, G0)
        payload["bound"] = {
            "G": best.G,
            "rho": best.rho,
            "spectral_radius_F": best.spectral_radius_F,
            "Sigma_rho": best.Sigma_rho,
            "beta_rho": best.beta_rho,
            "lambda_min_Sigma_rho": spectral(best.Sigma_rho).eigenvalues[-1],
        }
        beta = best.beta_rho
    except (UsageError, DomainError):
        payload["bound"] = None
        beta = None
    payload["conditions"] = {
        "theta_below_tau_N": bool(theta < thresholds.tau_N),
        "theta_below_beta_rho": (
            bool(theta <= beta) if beta is not None else theta == 0.0
        ),
    }
    payload["conditions_hold"] = all(payload["conditions"].values())
    return payload


def _cmd_analyze(args) -> int:
    model = _load_model_file(args.model)
    N = args.block_n if args.block_n is not None else model.n
    payload = _analysis_payload(model, N, args.theta)
    if args.json:
        _dump_json(payload)
    else:
        m = payload["model"]
        print(f"model: n={m['n']} m={m['m']} p={m['p']} q={m['q']} "
              f"reachable={m['reachable']} observable={m['observable']}")
        print(f"block length N={payload['block_length']}: "
              f"theta_N={payload['theta_N']:.6e} tau_N={payload['tau_N']:.6e}"
              + (" (capped)" if payload["tau_is_capped"] else ""))
        if payload["contraction_coefficient"] is not None:
            print(f"contraction coefficient at theta={payload['theta']:.6e}: "
                  f"{payload['contraction_coefficient']:.6f}")
        if payload["bound"] is not None:
            b = payload["bound"]
            print(f"bound: G={np.asarray(b['G']).ravel()} rho={b['rho']:.4f} "
                  f"beta_rho={b['beta_rho']:.6e}")
        c = payload["conditions"]
        print(f"theta < tau_N:      {c['theta_below_tau_N']}")
        print(f"theta <= beta_rho:  {c['theta_below_beta_rho']}")
    return EXIT_OK if payload["conditions_hold"] else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# trajectory


def _write_trajectory_csv(steps, n: int, stream) -> None:
    cols = (["t", "status"]
            + [f"lambda_P_{i+1}" for i in range(n)]
            + [f"lambda_V_{i+1}" for i in range(n)])
    stream.write(",".join(cols) + "\n")
    for step in steps:
        row = [str(step.t), step.status]
        row += [_fmt(v) for v in step.lambda_P]
        if step.status == "ok" and step.lambda_V is not None:
            row += [_fmt(v) for v in step.lambda_V]
        else:
            row += [""] * n
        stream.write(",".join(row) + "\n")


def _cmd_trajectory(args) -> int:
    model = _load_model_file(args.model)
    P0 = _initial_variance_arg(model, args.p0)
    steps = ric.iterate_trajectory(model, args.theta, P0, args.steps)
    if args.out:
        _write_out(args.out, lambda fh: _write_trajectory_csv(steps, model.n, fh), newline="")
    else:
        _write_trajectory_csv(steps, model.n, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixed-point / breakdown / bound-search


def _fixed_point_payload(result: ric.FixedPointResult) -> dict:
    return {
        "P_star": result.P_star,
        "eigenvalues_P_star": result.lambda_P,
        "iterations": result.iterations,
        "final_step_distance": result.final_step_distance,
        "K": result.K,
        "R_nu": result.R_nu,
        "closed_loop_eigenvalues": [
            abs(v) for v in result.closed_loop_eigenvalues
        ],
        "closed_loop_spectral_radius": result.closed_loop_spectral_radius,
        "are_residual": result.are_residual,
    }


def _cmd_fixed_point(args) -> int:
    model = _load_model_file(args.model)
    P0 = _initial_variance_arg(model, args.p0)
    result = ric.fixed_point(model, args.theta, P0, tol=args.tol,
                             max_iter=args.max_iter)
    payload = _fixed_point_payload(result)
    if args.out:
        _write_out(args.out, lambda fh: _dump_json(payload, fh))
    elif args.json:
        _dump_json(payload)
    else:
        print(f"fixed point after {result.iterations} iterations "
              f"(final step distance {result.final_step_distance:.3e})")
        print(f"eigenvalues: {payload['eigenvalues_P_star']}")
        print(f"closed-loop eigenvalue moduli: "
              f"{np.round(payload['closed_loop_eigenvalues'], 6)} "
              f"(spectral radius {result.closed_loop_spectral_radius:.6f})")
        print(f"ARE residual: {result.are_residual:.3e}")
    return EXIT_OK


def _cmd_breakdown(args) -> int:
    model = _load_model_file(args.model)
    P0 = _initial_variance_arg(model, args.p0)
    result = ric.breakdown_search(model, args.lo, args.hi, P0, tol=args.tol)
    payload = {
        "theta": result.theta,
        "bracket": list(result.bracket),
        "p0": args.p0,
        "found": result.found,
        "evaluations": result.evaluations,
    }
    if args.json:
        _dump_json(payload)
    elif result.found:
        print(f"breakdown theta = {result.theta:.6e} in "
              f"[{result.bracket[0]:.6e}, {result.bracket[1]:.6e}] "
              f"(p0 {args.p0}, {result.evaluations} evaluations)")
    else:
        print(f"no breakdown in range: theta = {result.theta:.6e} still "
              f"solvable (p0 {args.p0})")
    return EXIT_OK


def _cmd_bound_search(args) -> int:
    model = _load_model_file(args.model)
    rho_grid = _parse_grid(args.rho_grid) if args.rho_grid else None
    gain_grid = None
    if args.gain_grid:
        parts = args.gain_grid.split(":")
        if len(parts) != 2:
            raise UsageError(
                f"gain grid spec must be span:points, got {args.gain_grid!r}"
            )
        span, points = _grid_numbers(args.gain_grid, parts, (float, int))
        gain_grid = bnd.default_gain_grid(model, points=points, span=span)
    best = bnd.bound_search(model, rho_grid=rho_grid, gain_grid=gain_grid,
                            refine=not args.no_refine)
    if args.json:
        _dump_json({
            "G": best.G,
            "rho": best.rho,
            "spectral_radius_F": best.spectral_radius_F,
            "Sigma_rho": best.Sigma_rho,
            "beta_rho": best.beta_rho,
        })
    else:
        print(f"beta_rho maximized at G = {best.G.ravel()}, rho = {best.rho:.6f}")
        print(f"beta_rho = {best.beta_rho:.6e}  "
              f"spectral radius of A-GC: {best.spectral_radius_F:.6f}")
        print(f"lambda_min(Sigma_rho) = "
              f"{spectral(best.Sigma_rho).eigenvalues[-1]:.6e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# paper-example


def _relerr(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _cmd_paper_example(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {out_dir} is not writable: {exc}") from exc

    model = ssp.load_model(json.dumps(EXAMPLE_MODEL))
    (out_dir / "model.json").write_text(
        json.dumps(EXAMPLE_MODEL, indent=2, sort_keys=True) + "\n"
    )
    summary: dict = {}

    def record(name: str, value, passed: bool) -> None:
        summary[name] = value
        summary[f"{name}_pass"] = bool(passed)

    # Gramian sweep over theta in [0, 2e-3].
    thetas = np.linspace(0.0, 2e-3, SWEEP_POINTS)
    lam_O, lam_W = (np.linalg.eigvalsh(X)[:, 0] for X in ssp.gramian_sweep(model, 2, thetas))
    with open(out_dir / "gramian_sweep.csv", "w", newline="") as fh:
        fh.write("theta,lambda_min_Omega,lambda_min_W\n")
        for row in zip(thetas, lam_O, lam_W):
            fh.write(",".join(_fmt(x) for x in row) + "\n")

    w0, w2 = lam_W[0], lam_W[-1]  # linspace puts both ends exactly
    record("lambda_min_W_at_0", w0, _relerr(w0, 1.002828) < 1e-4)
    record("lambda_min_W_at_2e-3", w2, _relerr(w2, 1.02831) < 1e-4)
    summary["lambda_min_W_at_2e-3_note"] = (
        "computed value sits 2.5% below the published 1.02831; the digits "
        "match 1.002831 exactly, consistent with a dropped zero in the "
        "published figure and with the observed increase rate of W"
    )

    # Core eigenvalue behind the theta_2 threshold, its reciprocal by
    # definition; the published text says this eigenvalue is 1 but then
    # reports theta_2 = 2 instead of the reciprocal.
    thr = ssp.tau_N(model, 2)
    th2 = thr.theta_N
    lam1 = 1.0 / th2
    record("theta_2_core_eigenvalue", lam1, _relerr(lam1, 1.0) < 1e-10)
    record("theta_2", th2, _relerr(th2, 1.0) < 1e-10)
    summary["theta_2_note"] = (
        "threshold = reciprocal of the core eigenvalue (= 1.0 here); the "
        "published value 2 does not follow from the defining formula, whose "
        "reciprocal reading is the one consistent with the large-N limit"
    )

    record("tau_2", thr.tau_N, _relerr(thr.tau_N, 0.715e-3) < 0.02)

    G = bnd.place_observer_gain(model, [0.0, 0.0])
    record("G_nilpotent", G, float(np.max(np.abs(G.ravel() - [-13.1, -14.4]))) < 1e-6)
    bound2 = bnd.observer_bound(model, G, 2.0)
    Sigma2, beta2 = bound2.Sigma_rho, bound2.beta_rho
    ref_sigma = 1e3 * np.array([[1.4622, 1.5954], [1.5954, 1.7431]])
    record("Sigma_2", Sigma2, float(np.max(np.abs(Sigma2 - ref_sigma) / ref_sigma)) < 5e-4)
    lam1_sigma = spectral(Sigma2).eigenvalues[0]
    record("lambda_1_Sigma_2", lam1_sigma, _relerr(lam1_sigma, 3.2042e3) < 5e-4)
    record("beta_2", beta2, _relerr(beta2, 2.3407e-4) < 1e-3)

    # Trajectory from Sigma_2 at theta = beta_2 (12 recorded steps).
    steps = ric.iterate_trajectory(model, beta2, Sigma2, 11)
    with open(out_dir / "trajectory.csv", "w", newline="") as fh:
        _write_trajectory_csv(steps, model.n, fh)
    lam_P = np.array([s.lambda_P for s in steps])
    lam_V = np.array([s.lambda_V for s in steps])
    monotone = (np.all(np.diff(lam_P, axis=0) <= 1e-10)
                and np.all(np.diff(lam_V, axis=0) <= 1e-10))
    positive = bool(lam_P.min() > 0.0 and lam_V.min() > 0.0)
    record("trajectory_monotone_positive",
           {"monotone": bool(monotone), "positive": positive,
            "steps": len(steps)},
           bool(monotone and positive and len(steps) == 12))

    # Fixed point at theta = beta_2.
    fp = ric.fixed_point(model, beta2, Sigma2)
    eig_fp = fp.lambda_P
    cl = np.sort(np.abs(fp.closed_loop_eigenvalues))
    record("fixed_point_eigenvalues", eig_fp,
           _relerr(eig_fp[0], 332.4) < 5e-3 and _relerr(eig_fp[1], 1.003) < 5e-3)
    record("closed_loop_eigenvalues", cl,
           _relerr(cl[0], 0.034) < 0.02 and _relerr(cl[1], 0.776) < 0.02)

    # Fixed-point sweep for the breakdown onset (theta in [0, 0.95e-3]).
    fp_sweep = np.linspace(0.0, 0.95e-3, SWEEP_POINTS)
    with open(out_dir / "fixed_point_sweep.csv", "w", newline="") as fh:
        cols = (["theta"]
                + [f"lambda_P_{i+1}" for i in range(model.n)]
                + [f"lambda_V_{i+1}" for i in range(model.n)])
        fh.write(",".join(cols) + "\n")
        # the results are dropped once written, before the searches below
        for th, res in zip(fp_sweep, ric.fixed_point_sweep(model, fp_sweep, np.eye(model.n))):
            fh.write(",".join([_fmt(th)] + [_fmt(v) for v in res.lambda_P]
                              + [_fmt(v) for v in res.lambda_V]) + "\n")

    bres = ric.breakdown_search(model, theta_lo=beta2, theta_hi=2e-3,
                                P0=Sigma2, tol=1e-6)
    record("breakdown_theta",  # "policy" names the Sigma_2 start in saved summaries
           {"theta": bres.theta, "bracket": list(bres.bracket),
            "policy": "sigma-bound"},
           bool(bres.found and 0.95e-3 < bres.bracket[0]
                and bres.bracket[1] < 1.05e-3))

    best = bnd.bound_search(model)
    record("bound_search",
           {"G": best.G, "rho": best.rho, "beta_rho": best.beta_rho},
           bool(best.beta_rho >= 0.95 * 0.4824e-3 and 1.1 <= best.rho <= 1.5))

    thr40 = ssp.tau_N(model, 40)
    record("tau_40", thr40.tau_N, _relerr(thr40.tau_N, 1.33e-3) < 0.05)
    record("theta_40", thr40.theta_N, _relerr(thr40.theta_N, 1.33e-3) < 0.05)

    summary["all_pass"] = all(
        v for k, v in summary.items() if k.endswith("_pass")
    )
    with open(out_dir / "summary.json", "w") as fh:
        _dump_json(summary, fh)
    print(f"wrote {out_dir}/model.json, gramian_sweep.csv, trajectory.csv, "
          f"fixed_point_sweep.csv, summary.json")
    print(f"all_pass: {summary['all_pass']}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsriccati",
        description="Convergence analysis of risk-sensitive Riccati iterations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="thresholds, bounds and convergence conditions")
    p.add_argument("model", help="path to a model JSON file")
    p.add_argument("--block-n", type=int, default=None,
                   help="block length N (default: state dimension)")
    p.add_argument("--theta", type=float, default=0.0,
                   help="risk-sensitivity parameter to check")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("trajectory", help="iterate the Riccati map and emit CSV")
    p.add_argument("model")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--p0", default="identity", help=P0_HELP)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("fixed-point", help="solve the Riccati equation by iteration")
    p.add_argument("model")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--p0", default="identity", help=P0_HELP)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--out", default=None, help="JSON output path (default stdout)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_fixed_point)

    p = sub.add_parser("breakdown", help="bisect for the largest solvable theta")
    p.add_argument("model")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--p0", default="sigma", help=P0_HELP)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("bound-search", help="maximize the risk bound over (G, rho)")
    p.add_argument("model")
    p.add_argument("--rho-grid", default=None,
                   help="'lo:hi:count' or comma-separated values")
    p.add_argument("--gain-grid", default=None,
                   help="'span:points' per gain coordinate")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the Hooke-Jeeves pattern-search polish")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_bound_search)

    p = sub.add_parser("paper-example",
                       help="reproduce the worked two-state example end to end")
    p.add_argument("--out-dir", default="paper_example_out")
    p.set_defaults(func=_cmd_paper_example)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # into a fresh namespace
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the input-error code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except IterationLimitError as exc:
        print(f"iteration limit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
