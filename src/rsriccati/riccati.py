"""Risk-neutral and risk-sensitive Riccati maps, trajectories and fixed points.

The one-step error-variance update of the risk-sensitive filter is

    P  ->  A [P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T,

which reduces to the Kalman update at theta = 0. Equivalent gain and
observer forms are provided for cross-checking. The filter itself only
exists while the validity matrix V = (P^-1 - theta D^T D)^-1 stays
positive definite; `iterate_trajectory` reports per-step validity
in-band, while `fixed_point` demands it of the converged point (losing
it there is the breakdown event the search in `breakdown_search`
brackets). Fixed points are found by straight iteration of the map
(the convergence theory is a contraction argument for exactly this
iteration, measured in the affine-invariant metric, so the iteration
count carries meaning and no subspace ARE solver is used).

Every inversion goes through the positivity gate `cone.require_spd`:
leaving the cone is a semantic event, never papered over. Each step
factorizes its iterate once and maps it through the shared `_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import lyapunov_sigma, place_observer_gain
from .cone import relative_log_spectrum, require_spd, spectral, symmetrize
from .errors import ConeExitError, DomainError, IterationLimitError, UsageError, check_finite
from .statespace import BlockModel, StateSpaceModel, theta_N


def _validity(model: StateSpaceModel, theta: float, P_inv: np.ndarray):
    """Factor of V^-1 = P^-1 - theta D^T D, gated."""
    V_inv = P_inv - theta * (model.D.T @ model.D)
    return require_spd(V_inv, "validity violated: P^-1 - theta D^T D")


def _step(model: StateSpaceModel, theta: float, P_inv: np.ndarray) -> np.ndarray:
    """The risk-sensitive update from P^-1: the one place the map is evaluated."""
    inner = P_inv + model.C.T @ model.C - theta * (model.D.T @ model.D)
    middle = require_spd(inner, "map leaves the cone: P^-1 + C^T C - theta D^T D").inverse()
    return symmetrize(model.A @ middle @ model.A.T + model.B @ model.B.T, rtol=np.inf)


def _kalman_form(model: StateSpaceModel, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, R_nu) = (A V C^T R_nu^-1, C V C^T + I)."""
    R_nu = symmetrize(model.C @ V @ model.C.T + np.eye(model.p), rtol=np.inf)
    return model.A @ V @ model.C.T @ np.linalg.inv(R_nu), R_nu


def _gain(model: StateSpaceModel, theta: float, P_inv: np.ndarray):
    """(K, R_nu, V) from P^-1: the Kalman form at the validity matrix V."""
    V = _validity(model, theta, P_inv).inverse()
    return (*_kalman_form(model, V), V)


def riccati_map(model: StateSpaceModel, P) -> np.ndarray:
    """One-step Kalman error-variance update A[P^-1 + C^T C]^-1 A^T + B B^T."""
    return rs_riccati_map(model, 0.0, P)


def kalman_gain(model: StateSpaceModel, P) -> tuple[np.ndarray, np.ndarray]:
    """Kalman gain and innovation variance (K, R_nu) at error variance P."""
    return _kalman_form(model, symmetrize(P))


def rs_riccati_map(model: StateSpaceModel, theta: float, P) -> np.ndarray:
    """Risk-sensitive update A[P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T.

    Raises ConeExitError when the bracketed matrix is not positive
    definite (the map leaves the cone).
    """
    check_finite("theta", theta, nonnegative=True)
    P_inv = require_spd(P, "riccati map argument P not positive definite").inverse()
    return _step(model, theta, P_inv)


def rs_gain(
    model: StateSpaceModel, theta: float, P
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Risk-sensitive filter gain, innovation variance and validity matrix.

    V = (P^-1 - theta D^T D)^-1 must be positive definite for the filter
    to exist; otherwise a "validity violated" ConeExitError is raised.
    """
    check_finite("theta", theta, nonnegative=True)
    P_inv = require_spd(P, "gain argument P not positive definite").inverse()
    return _gain(model, theta, P_inv)


def rs_riccati_gain_form(model: StateSpaceModel, theta: float, P) -> np.ndarray:
    """Gain form (A-KC) V (A-KC)^T + B B^T + K K^T of the risk-sensitive update."""
    K, _, V = rs_gain(model, theta, P)
    F = model.A - K @ model.C
    return symmetrize(
        F @ V @ F.T + model.B @ model.B.T + K @ K.T, rtol=np.inf
    )


def rs_riccati_observer_form(model: StateSpaceModel, theta: float, P, G) -> np.ndarray:
    """Observer form of the update with an arbitrary preliminary gain G.

    For every n x p gain G the value equals the plain risk-sensitive
    update: the correction term subtracts exactly the mismatch between
    G and the optimal gain.
    """
    G = np.asarray(G, dtype=float)
    _, R_nu, V = rs_gain(model, theta, P)
    F = model.A - G @ model.C
    mismatch = F @ V @ model.C.T - G
    value = (
        F @ V @ F.T + G @ G.T + model.B @ model.B.T
        - mismatch @ np.linalg.solve(R_nu, mismatch.T)
    )
    return symmetrize(value, rtol=np.inf)


def block_riccati_map(block: BlockModel, P) -> np.ndarray:
    """Block update alpha [P^-1 + Omega]^-1 alpha^T + W.

    Coincides with the N-fold composition of the one-step map at the
    same risk parameter.
    """
    P_inv = require_spd(P, "block map argument P not positive definite").inverse()
    middle = require_spd(P_inv + block.Omega, "block map leaves the cone: P^-1 + Omega").inverse()
    return symmetrize(block.alpha @ middle @ block.alpha.T + block.W, rtol=np.inf)


@dataclass(frozen=True)
class RiccatiStep:
    """One recorded point of a Riccati trajectory.

    status is "ok", "v_violation" (the validity matrix lost positive
    definiteness) or "cone_exit" (the iterate itself is no longer
    positive definite). lambda_V is None when V does not exist.
    """

    t: int
    P: np.ndarray
    status: str
    lambda_P: np.ndarray
    lambda_V: Optional[np.ndarray]

    @property
    def v_positive_definite(self) -> bool:
        return self.status == "ok"


def iterate_trajectory(
    model: StateSpaceModel, theta: float, P0, T: int
) -> list[RiccatiStep]:
    """Iterate the risk-sensitive update for T steps, recording each iterate.

    Violations are data, not exceptions: the trajectory stops early
    after recording a step whose status flags the event.
    """
    check_finite("theta", theta, nonnegative=True)
    if T < 0:
        raise DomainError(f"horizon T must be >= 0, got {T}")
    P = symmetrize(P0)
    steps = []
    for t in range(T + 1):
        try:
            P_dec = require_spd(P, "trajectory iterate not positive definite")
        except ConeExitError:
            return steps + [RiccatiStep(t, P, "cone_exit", spectral(P).eigenvalues, None)]
        P_inv = P_dec.inverse()
        try:
            lam_V = 1.0 / _validity(model, theta, P_inv).eigenvalues[::-1]
        except ConeExitError:
            return steps + [RiccatiStep(t, P, "v_violation", P_dec.eigenvalues, None)]
        steps.append(RiccatiStep(t, P, "ok", P_dec.eigenvalues, lam_V))
        if t < T:
            P = _step(model, theta, P_inv)
    return steps


@dataclass(frozen=True)
class FixedPointResult:
    """Converged solution of the risk-sensitive Riccati equation.

    Carries the fixed point, the filter gain and innovation variance at
    it, the spectrum data of the closed loop A - KC, and the Frobenius
    residual of the algebraic equation the fixed point must satisfy.
    """

    P_star: np.ndarray
    iterations: int
    final_step_distance: float
    K: np.ndarray
    R_nu: np.ndarray
    closed_loop_eigenvalues: np.ndarray
    closed_loop_spectral_radius: float
    are_residual: float


@dataclass(frozen=True)
class AreReport:
    """Residual report of the risk-sensitive algebraic Riccati equation."""

    residual: float
    relative_residual: float
    closed_loop_eigenvalues: np.ndarray
    closed_loop_spectral_radius: float


def verify_are(model: StateSpaceModel, theta: float, P) -> AreReport:
    """Frobenius residual of P = (A-KC) V (A-KC)^T + B B^T + K K^T at P."""
    P = symmetrize(P)
    rhs = rs_riccati_gain_form(model, theta, P)
    residual = float(np.linalg.norm(P - rhs))
    K, _, _ = rs_gain(model, theta, P)
    eigs = np.linalg.eigvals(model.A - K @ model.C)
    eigs = eigs[np.argsort(-np.abs(eigs))]
    return AreReport(
        residual=residual,
        relative_residual=residual / (1.0 + float(np.linalg.norm(P))),
        closed_loop_eigenvalues=eigs,
        closed_loop_spectral_radius=float(np.max(np.abs(eigs))),
    )


def fixed_point(
    model: StateSpaceModel,
    theta: float = 0.0,
    P0=None,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> FixedPointResult:
    """Fixed point of the risk-sensitive update by straight iteration.

    Iterates from P0 (default: identity) until the affine-invariant
    distance between consecutive iterates drops below tol. Every
    iterate must stay inside the cone for the map to be applied again;
    the validity matrix is checked AT the converged point, where losing
    positive definiteness is the breakdown event. (Whether transient
    iterates keep the validity matrix positive is a property of the
    chosen start, reported in-band by `iterate_trajectory`; it does not
    decide existence of the fixed point.) Cone exit or an invalid
    fixed point raise ConeExitError carrying the last valid iterate;
    hitting max_iter raises IterationLimitError.
    """
    check_finite("theta", theta, nonnegative=True)
    P = symmetrize(P0) if P0 is not None else np.eye(model.n)
    P_dec = require_spd(P, "fixed-point start P0 not positive definite")
    last_distance = math.inf
    for it in range(1, max_iter + 1):
        try:
            P_next = _step(model, theta, P_dec.inverse())
            next_dec = require_spd(P_next, "iterate left the cone")
        except ConeExitError as exc:
            raise ConeExitError(
                f"risk-sensitive iteration broke down at step {it} (theta={theta:.6e}): {exc}",
                lambda_min=exc.lambda_min, step=it, last_valid=P,
            ) from exc
        last_distance = float(np.linalg.norm(relative_log_spectrum(next_dec, P)))
        P, P_dec = P_next, next_dec
        if last_distance < tol:
            try:
                K, R_nu, _ = _gain(model, theta, P_dec.inverse())
            except ConeExitError as exc:
                raise ConeExitError(
                    f"fixed point reached at theta={theta:.6e} but its "
                    f"validity matrix is not positive definite",
                    lambda_min=exc.lambda_min, step=it, last_valid=P,
                ) from exc
            report = verify_are(model, theta, P)
            return FixedPointResult(
                P_star=P,
                iterations=it,
                final_step_distance=last_distance,
                K=K,
                R_nu=R_nu,
                closed_loop_eigenvalues=report.closed_loop_eigenvalues,
                closed_loop_spectral_radius=report.closed_loop_spectral_radius,
                are_residual=report.residual,
            )
    raise IterationLimitError(
        f"no fixed point within {max_iter} iterations at theta={theta:.6e}: "
        f"last step distance {last_distance:.3e}",
        iterations=max_iter,
        last_distance=last_distance,
    )


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of the bisection for the largest solvable risk parameter.

    found is False when the whole bracket was solvable (no breakdown in
    range); theta then reports the upper end of the range.
    """

    theta: float
    bracket: tuple[float, float]
    policy: str
    found: bool
    evaluations: int


def initial_variance(model: StateSpaceModel, policy: str) -> np.ndarray:
    """Named initial-variance policies for trajectory and breakdown runs.

    "identity-scaled" is trace(B B^T)/n times the identity;
    "sigma-bound" is the Lyapunov bound built from the all-zero pole
    placement gain at contraction margin rho = 2 (the worked-example
    construction; requires a single measurement output).
    """
    if policy == "identity-scaled":
        scale = float(np.trace(model.B @ model.B.T)) / model.n
        return scale * np.eye(model.n)
    if policy == "sigma-bound":
        G = place_observer_gain(model, [0.0] * model.n)
        return lyapunov_sigma(model, G, 2.0)
    raise DomainError(
        f"unknown initial-variance policy {policy!r}; "
        f"expected 'identity-scaled' or 'sigma-bound'"
    )


def breakdown_search(
    model: StateSpaceModel,
    theta_lo: float,
    theta_hi: Optional[float] = None,
    policy: str = "sigma-bound",
    tol: float = 1e-6,
    max_iter: int = 10000,
) -> BreakdownResult:
    """Bisect for the largest risk parameter with a valid stable fixed point.

    The predicate at each theta is: the fixed-point iteration from the
    policy's initial variance stays inside the cone, converges, and the
    fixed point keeps the validity matrix positive definite (the
    quantity whose divergence marks breakdown). Non-convergence within
    max_iter counts as failure, which is conservative near breakdown
    where the contraction constant approaches one. theta_hi defaults to
    theta_N at block length n; bisection stops at width tol or adjacent floats.
    """
    if theta_hi is None:
        theta_hi = theta_N(model, model.n)
        if math.isinf(theta_hi):
            theta_hi = 1e3 * theta_lo
    for theta in (theta_lo, theta_hi):
        check_finite("theta", theta, nonnegative=True)
    if not tol >= 0.0:
        raise UsageError(f"bisection tol must be >= 0, got {tol}")
    if not theta_hi > theta_lo:
        raise UsageError(
            f"need theta_lo < theta_hi, got [{theta_lo}, {theta_hi}]"
        )
    P0 = initial_variance(model, policy)

    def solvable(theta: float) -> bool:
        try:
            fixed_point(model, theta, P0, max_iter=max_iter)
        except (ConeExitError, IterationLimitError):
            return False
        return True

    evaluations = 2
    if not solvable(theta_lo):
        raise UsageError(
            f"theta_lo={theta_lo:.6e} is already unsolvable under "
            f"policy {policy!r}; pick a smaller lower end"
        )
    if solvable(theta_hi):
        return BreakdownResult(
            theta=theta_hi,
            bracket=(theta_lo, theta_hi),
            policy=policy,
            found=False,
            evaluations=evaluations,
        )
    lo, hi = theta_lo, theta_hi
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        evaluations += 1
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    return BreakdownResult(
        theta=0.5 * (lo + hi),
        bracket=(lo, hi),
        policy=policy,
        found=True,
        evaluations=evaluations,
    )
