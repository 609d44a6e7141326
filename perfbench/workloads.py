"""The benchmark's workloads: seeded inputs, jobs and per-job correctness checks.

Every workload is a closed loop with one client: `run(job)` returns when
the job is done and the next one starts after it. The library receives
only matrices and files generated here from the workload seed; the
reference values a job is checked against come from `oracles` (plain
numpy restatements of the defining formulas) or, for the fixed worked
example, from `reference/paper_example.json`, recorded from the library
by `record_reference.py`.

`check(job, out)` returns a list of problems; an empty list means the
job's output is correct. Tolerances follow the library's own contracts:
relative 1e-6 for tau_N (the bisection's `tol`), relative 1e-9 for
values derived from a converged fixed point, the library's residual
contract for Lyapunov solutions, and acceptance thresholds for search
results, which a better search may legitimately move.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
PAPER_REFERENCE = HERE / "reference" / "paper_example.json"

P_STAR_RTOL = 1e-9
TAU_RTOL = 1e-6

# The library's default rho grid for `best_rho_for_gain`, restated so the
# reference bound does not come from the code under test.
RHO_GRID = np.linspace(1.05, 3.0, 40)

# Conditioning limits for generated models. Both the library and the
# oracles lose about eps * cond in relative accuracy, so on worse-posed
# models a 1e-6 comparison would test conditioning, not the library:
# the reachability and observability matrices stay below
# MATRIX_COND_MAX, and Omega_N(0), whose smallest eigenvalue's sign
# places tau_N, below GRAMIAN_COND_MAX.
MATRIX_COND_MAX = 1e6
GRAMIAN_COND_MAX = 1e8

# The library rejects a Lyapunov solution whose residual exceeds 1e-10 of
# its norm. For a high-gain nilpotent A - GC the system I - rho^2 F(x)F
# reaches condition 1e13 and no dense solve meets that reliably, so
# model-scan keeps only models whose reference solves meet it with a
# tenfold margin at every grid rho. Each run prints how many it redrew.
LYAPUNOV_ATTAINABLE_RTOL = 1e-11

# The library accepts a Lyapunov solution whose residual is below 1e-10
# of its norm; recomputing that residual here from the printed matrices
# adds roundoff of the same order, hence the factor 10.
LYAPUNOV_RTOL = 1e-9


def _rel_err(value, reference) -> float:
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.max(np.abs(reference)) if reference.size else 0.0
    return float(np.max(np.abs(value - reference)) / scale) if scale > 0 else float(
        np.max(np.abs(value))
    )


def _well_conditioned(M) -> bool:
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] > sv[0] / MATRIX_COND_MAX


def random_model(rng, n, m, radius):
    """Random model with D = I, spectral radius `radius`, reachable and observable.

    C is a single output. `radius` is a (lo, hi) range the spectral
    radius of A is drawn from.
    """
    while True:
        A = rng.standard_normal((n, n))
        A *= rng.uniform(*radius) / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((1, n))
        pw = [np.linalg.matrix_power(A, k) for k in range(n)]
        if _well_conditioned(np.hstack([P @ B for P in pw])) and _well_conditioned(
            np.vstack([C @ P for P in pw])
        ):
            return {"A": A, "B": B, "C": C, "D": np.eye(n)}


def _job_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, count)]


# ---------------------------------------------------------------------------
# paper-example


def read_paper_outputs(out_dir: Path) -> dict:
    """Parse everything `paper-example` writes into one comparable document."""
    doc = {"summary": json.loads((out_dir / "summary.json").read_text()),
           "model": json.loads((out_dir / "model.json").read_text()), "csv": {}}
    for name in ("gramian_sweep.csv", "trajectory.csv", "fixed_point_sweep.csv"):
        lines = (out_dir / name).read_text().splitlines()
        doc["csv"][name] = {"header": lines[0].split(","),
                            "rows": [line.split(",") for line in lines[1:]]}
    return doc


def _compare_csv(name, got, ref, per_column) -> list[str]:
    if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
        return [f"{name}: header or row count differs from the reference"]
    problems = []
    cols = list(zip(*ref["rows"]))
    for j, col in enumerate(cols):
        got_col = [row[j] for row in got["rows"]]
        try:
            r = np.array([float(c) if c else np.nan for c in col])
            g = np.array([float(c) if c else np.nan for c in got_col])
        except ValueError:
            if list(got_col) != list(col):
                problems.append(f"{name}: column {ref['header'][j]} differs")
            continue
        if not np.array_equal(np.isnan(r), np.isnan(g)):
            problems.append(f"{name}: column {ref['header'][j]} has other empty cells")
            continue
        ok = ~np.isnan(r)
        # Columns that cross zero are compared against the column's scale.
        scale = np.max(np.abs(r[ok])) if per_column else np.abs(r[ok])
        if np.any(np.abs(g[ok] - r[ok]) > P_STAR_RTOL * scale):
            problems.append(f"{name}: column {ref['header'][j]} off by more than "
                            f"{P_STAR_RTOL:g} relative")
    return problems


def check_paper_outputs(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["model"] != ref["model"]:
        problems.append("model.json differs from the reference")
    problems += _compare_csv("gramian_sweep.csv", got["csv"]["gramian_sweep.csv"],
                             ref["csv"]["gramian_sweep.csv"], per_column=True)
    for name in ("trajectory.csv", "fixed_point_sweep.csv"):
        problems += _compare_csv(name, got["csv"][name], ref["csv"][name],
                                 per_column=False)

    s, r = got["summary"], ref["summary"]
    if set(s) != set(r):
        problems.append(f"summary keys differ: {sorted(set(s) ^ set(r))}")
        return problems
    for key, want in r.items():
        have = s[key]
        if key.endswith("_pass") or key.endswith("_note") or key in (
            "all_pass", "trajectory_monotone_positive"
        ):
            if have != want:
                problems.append(f"summary {key}: {have!r} != reference {want!r}")
        elif key in ("tau_2", "tau_40"):
            if _rel_err(have, want) > TAU_RTOL:
                problems.append(f"summary {key}: {have!r} vs reference {want!r}")
        elif key == "breakdown_theta":
            lo, hi = have["bracket"]
            if not (have["policy"] == "sigma-bound" and 0.95e-3 < lo <= have["theta"]
                    <= hi < 1.05e-3):
                problems.append(f"breakdown bracket {have['bracket']} outside "
                                f"(0.95e-3, 1.05e-3)")
        elif key == "bound_search":
            if not (have["beta_rho"] >= 0.95 * 0.4824e-3 and 1.1 <= have["rho"] <= 1.5
                    and np.shape(have["G"]) == (2, 1)):
                problems.append(f"bound search beta={have['beta_rho']!r} "
                                f"rho={have['rho']!r} misses its acceptance thresholds")
        elif _rel_err(have, want) > P_STAR_RTOL:
            problems.append(f"summary {key}: {have!r} vs reference {want!r}")
    return problems


class PaperExample:
    """Repeated full `rsriccati paper-example` with default sweeps and searches."""

    name = "paper-example"

    def __init__(self, rs, seed: int, work_dir: Path):
        # The worked example is fixed; the seed only names the run.
        self.cli = rs.cli
        self.work_dir = work_dir
        self.reference = json.loads(PAPER_REFERENCE.read_text())
        self.jobs = [0]
        self.count = 0

    def run(self, job):
        self.count += 1
        out_dir = self.work_dir / f"paper-{self.count}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["paper-example", "--out-dir", str(out_dir)])
        return code, out_dir

    def check(self, job, out) -> list[str]:
        code, out_dir = out
        try:
            if code != self.reference["exit_code"]:
                return [f"exit code {code}, expected {self.reference['exit_code']}"]
            return check_paper_outputs(read_paper_outputs(out_dir), self.reference)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# filter-stream

# The stable two-state model of the innovation-whiteness property test.
TWO_STATE = {"A": np.array([[0.6, 0.2], [0.1, 0.5]]), "B": np.eye(2),
             "C": np.array([[1.0, 0.5]]), "D": np.eye(2)}


@dataclass
class StreamModel:
    model: object          # rsriccati.StateSpaceModel
    P0: np.ndarray         # reference risk-neutral fixed point, the filters' start
    K0: np.ndarray         # reference Kalman gain at P0, the observer's gain
    theta: float           # certified positive risk parameter
    P_theta: np.ndarray    # reference fixed point at theta


class FilterStream:
    """Seeded simulation, two filter runs (theta = 0 and certified theta > 0), one observer run."""

    name = "filter-stream"
    T = 2000

    def __init__(self, rs, seed: int, work_dir: Path):
        self.sim = rs.sim
        rng = np.random.default_rng([seed, 0])
        two = self._stream_model(rs, TWO_STATE)
        while True:
            four = self._stream_model(rs, random_model(rng, 4, 2, (0.5, 0.9)))
            if four is not None:
                break
        if two is None:
            raise RuntimeError("the two-state model is not certified at theta > 0")
        # Two streams of the small model and one of the larger: the
        # per-job median falls inside one model's class.
        self.models = [two, two, four]
        self.jobs = list(zip(range(3), _job_seeds(seed, 3)))

    @staticmethod
    def _stream_model(rs, mats):
        A, B, C, D = (mats[k] for k in "ABCD")
        model = rs.StateSpaceModel(A=A, B=B, C=C, D=D)
        P0 = oracles.riccati_fixed_point(A, B, C, D)
        bound = rs.best_rho_for_gain(model, rs.place_observer_gain(model, [0.0] * model.n))
        theta = 0.5 * bound.beta_rho
        if not rs.check_initial_condition(model, theta, P0, bound).admissible:
            return None
        return StreamModel(model, P0, oracles.kalman_gain(A, C, P0), theta,
                           oracles.riccati_fixed_point(A, B, C, D, theta))

    def run(self, job):
        k, seed = job
        sm = self.models[k]
        x0 = np.zeros(sm.model.n)
        run = self.sim.simulate(sm.model, self.T, seed=seed, P0=sm.P0)
        f0 = self.sim.run_filter(sm.model, 0.0, sm.P0, x0, run.observations)
        f1 = self.sim.run_filter(sm.model, sm.theta, sm.P0, x0, run.observations)
        ob = self.sim.run_observer(sm.model, sm.K0, x0, run.observations)
        return run, f0, f1, ob

    def check(self, job, out) -> list[str]:
        k, seed = job
        sm = self.models[k]
        A, B, C = sm.model.A, sm.model.B, sm.model.C
        run, f0, f1, ob = out
        T = self.T
        problems = []
        _, u, v = oracles.noise_draws(seed, T, sm.model.n, sm.model.m, sm.model.p)
        if not (np.array_equal(run.process_noise, u) and np.array_equal(run.measurement_noise, v)):
            problems.append("simulate: noise draws break the seeding contract")
        x = run.states
        if (_rel_err(x[1:], x[:-1] @ A.T + u @ B.T) > P_STAR_RTOL
                or _rel_err(run.observations, x[:-1] @ C.T + v) > P_STAR_RTOL):
            problems.append("simulate: states or observations break the model recursion")

        nu_ref = oracles.filter_innovations(A, C, sm.K0, np.zeros(sm.model.n), run.observations)
        for label, f in (("filter theta=0", f0), ("filter theta>0", f1)):
            if f.violation_step is not None or len(f.innovations) != T:
                problems.append(f"{label}: stopped at step {f.violation_step}")
                return problems
        if _rel_err(f0.P_sequence[-1], sm.P0) > P_STAR_RTOL:
            problems.append("filter theta=0: variance left the fixed point")
        if _rel_err(f0.innovations, nu_ref) > P_STAR_RTOL:
            problems.append("filter theta=0: innovations differ from the reference")
        if _rel_err(f1.P_sequence[-1], sm.P_theta) > P_STAR_RTOL:
            problems.append("filter theta>0: variance did not reach the reference fixed point")
        if _rel_err(ob.innovations, nu_ref) > P_STAR_RTOL:
            problems.append("observer at the Kalman gain: innovations differ from the reference")

        # Whiteness at theta = 0: |rho_1| < 3/sqrt(T). The statistic is a
        # sample of a white sequence, so a correct filter exceeds the
        # bound on about 0.3% of seeds; the verdict must then agree with
        # the reference innovations on the same draws.
        rho1 = oracles.lag1_autocorrelation(f0.innovations)
        rho1_ref = oracles.lag1_autocorrelation(nu_ref)
        limit = 3.0 / math.sqrt(T)
        if abs(rho1 - rho1_ref) > P_STAR_RTOL or (abs(rho1) < limit) != (abs(rho1_ref) < limit):
            problems.append(f"filter theta=0: lag-1 autocorrelation {rho1:.3e} "
                            f"(reference {rho1_ref:.3e}, limit {limit:.3e})")
        return problems

    def steps_per_pass(self) -> int:
        """Filtered observation steps in one pass (two filters per job)."""
        return 2 * self.T * len(self.jobs)


# ---------------------------------------------------------------------------
# model-scan

# Models per state dimension; each model runs at N = n and N = 4n. The
# two largest dimensions carry more models, so the per-job median and
# 90th percentile fall inside a size class rather than between two.
SCAN_MODELS = {2: 4, 3: 4, 4: 4, 6: 6, 8: 6}


class ModelScan:
    """`rsriccati analyze --json` over seeded random single-output models."""

    name = "model-scan"

    def __init__(self, rs, seed: int, work_dir: Path):
        self.cli = rs.cli
        rng = np.random.default_rng([seed, 2])
        self.jobs = []
        redrawn_gramian = redrawn_lyapunov = 0
        for n, count in SCAN_MODELS.items():
            for i in range(count):
                while True:
                    mats = random_model(rng, n, 2, (0.5, 1.2))
                    ABCD = [mats[k] for k in "ABCD"]
                    refs = {N: oracles.thresholds(*ABCD, N) for N in (n, 4 * n)}
                    if max(r[3] for r in refs.values()) > GRAMIAN_COND_MAX:
                        redrawn_gramian += 1
                        continue
                    bound = oracles.zero_pole_bound(*ABCD, RHO_GRID)
                    if bound is not None and bound[2] > LYAPUNOV_ATTAINABLE_RTOL:
                        redrawn_lyapunov += 1
                        continue
                    break
                path = work_dir / f"model-n{n}-{i}.json"
                path.write_text(json.dumps({k: v.tolist() for k, v in mats.items()}))
                for N, (theta_N, tau, capped, _) in refs.items():
                    self.jobs.append(self._job(len(self.jobs), path, mats, N, theta_N,
                                               tau, capped, bound))
        self.notes = [f"redrawn models: {redrawn_gramian} with cond(Omega_N(0)) > "
                      f"{GRAMIAN_COND_MAX:g}, {redrawn_lyapunov} with a Lyapunov residual "
                      f"above {LYAPUNOV_ATTAINABLE_RTOL:g}"]

    @staticmethod
    def _job(index, path, mats, N, theta_N, tau, capped, bound):
        # Risk parameters far from both thresholds: 0, well inside, well outside.
        beta = bound[0] if bound else math.inf
        outside = 2.0 * (tau if bound is None else max(tau, beta))
        theta = (0.0, 0.5 * min(tau, beta), outside)[index % 3]
        argv = ["analyze", str(path), "--block-n", str(N), "--json"]
        if index % 3:
            argv += ["--theta", repr(float(theta))]
        holds = theta < tau and (theta <= beta if bound else theta == 0.0)
        return {"argv": argv, "model": mats, "theta": theta, "theta_N": theta_N, "tau_N": tau,
                "capped": capped, "bound": bound, "holds": holds}

    def run(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(job["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, job, out) -> list[str]:
        code, text, err = out
        want_code = 0 if job["holds"] else 3
        if code != want_code:
            return [f"{' '.join(job['argv'][2:])}: exit code {code}, expected {want_code}: "
                    f"{err.strip()}"]
        got = json.loads(text)
        problems = []
        theta_N = math.inf if got["theta_N"] == "inf" else got["theta_N"]
        if not (theta_N == job["theta_N"] or _rel_err(theta_N, job["theta_N"]) <= P_STAR_RTOL):
            problems.append(f"theta_N {theta_N!r} vs reference {job['theta_N']!r}")
        if _rel_err(got["tau_N"], job["tau_N"]) > TAU_RTOL:
            problems.append(f"tau_N {got['tau_N']!r} vs reference {job['tau_N']!r}")
        cap = job["theta_N"] if math.isfinite(job["theta_N"]) else None
        near_cap = cap is not None and abs(job["tau_N"] - cap) <= 2e-5 * cap
        if got["tau_is_capped"] != job["capped"] and not near_cap:
            problems.append(f"tau_is_capped {got['tau_is_capped']} vs reference {job['capped']}")
        if (got["bound"] is None) != (job["bound"] is None):
            problems.append(f"bound {got['bound']!r} vs reference {job['bound']!r}")
        elif job["bound"] is not None:
            problems += self._check_bound(job, got["bound"])
        if got["conditions_hold"] != job["holds"]:
            problems.append(f"conditions_hold {got['conditions_hold']} vs {job['holds']}")
        coeff = got["contraction_coefficient"]
        if job["theta"] < job["tau_N"]:
            if coeff is None or not 0.0 <= coeff < 1.0:
                problems.append(f"contraction coefficient {coeff!r} not in [0, 1)")
        elif coeff is not None:
            problems.append(f"contraction coefficient {coeff!r} reported beyond tau_N")
        return problems


    def _check_bound(self, job, bound) -> list[str]:
        """The reported (G, rho, Sigma_rho, beta_rho) against the reference and each other.

        beta_rho is compared with the independent reference at the tau_N
        tolerance: on these models the nilpotent closed loop A - GC has
        large entries, and two correct Lyapunov solvers agree only to
        about 1e-8. Sigma_rho is held to the library's residual contract.
        """
        A, B, C, D = (np.asarray(job["model"][k]) for k in "ABCD")
        G = np.asarray(bound["G"])
        Sigma = np.asarray(bound["Sigma_rho"])
        rho, beta = bound["rho"], bound["beta_rho"]
        F = A - G @ C
        residual = np.linalg.norm(Sigma - rho**2 * F @ Sigma @ F.T - B @ B.T - G @ G.T)
        problems = []
        if _rel_err(rho, job["bound"][1]) > 1e-12:
            problems.append(f"bound rho {rho!r} vs reference {job['bound'][1]!r}")
        if _rel_err(beta, job["bound"][0]) > TAU_RTOL:
            problems.append(f"beta_rho {beta!r} vs reference {job['bound'][0]!r}")
        if residual > LYAPUNOV_RTOL * max(1.0, np.linalg.norm(Sigma)):
            problems.append(f"Sigma_rho misses its Lyapunov equation by {residual:.3e}")
        lam_1 = np.linalg.eigvalsh(D @ Sigma @ D.T)[-1]
        if _rel_err(beta, (rho**2 - 1.0) / (rho**2 * lam_1)) > P_STAR_RTOL:
            problems.append("beta_rho does not follow from the reported Sigma_rho")
        return problems


WORKLOADS = {w.name: w for w in (PaperExample, FilterStream, ModelScan)}
