"""Risk-neutral and risk-sensitive Riccati maps, trajectories and fixed points.

The one-step error-variance update of the risk-sensitive filter is

    P  ->  A [P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T,

which reduces to the Kalman update at theta = 0. Its equivalent gain
form gives the algebraic residual that `verify_are` and `fixed_point`
report. The filter itself only exists while the validity matrix
V = (P^-1 - theta D^T D)^-1 stays positive definite; `iterate_trajectory`
reports per-step validity in-band, while `fixed_point` demands it of the
converged point (losing it there is the breakdown event the search in
`breakdown_search` brackets). Fixed points are found by straight
iteration of the map (the convergence theory is a contraction argument
for exactly this iteration, measured in the affine-invariant metric, so
the iteration count carries meaning and no subspace ARE solver is used).

`fixed_point_sweep` runs that iteration for a list of theta as one
stacked kernel, and `fixed_point` is the kernel at batch size one. Each
theta stops at its own step, so its result and its iteration count (the
canonical one) are the same at any batch size; it carries the spectra
of P* and V that the kernel's and the finish's factorizations gave.

Every inversion goes through the positivity gate `cone.require_spd`, or
its stacked form: leaving the cone is a semantic event, never papered
over. A caller's P or P0 whose inverse overflows raises NumericalError
at entry. The map is evaluated only in the stacked `_map_step`, which also
gates P_next and so hands the next step its factorization; the kernel,
`rs_riccati_map` and the loop behind `iterate_trajectory` and
`sim.run_filter` all step through it. That loop stops factorizing once
its state repeats bitwise (P_{t+1}, its eigenvalues and eigenvectors
equal to P_t's): the map contracts, so a trajectory near its fixed point
reaches that repeat within a few steps, and every later step would
recompute the same bits. The shortcut is exact; no tolerance decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import SpectralDecomposition, _require_spd_stack, _sym, require_spd, spectral, symmetrize
from .errors import (
    ConeExitError,
    DomainError,
    IterationLimitError,
    NumericalError,
    UsageError,
    check_finite,
)
from .statespace import BlockModel, StateSpaceModel


def _finite_inverse(dec: SpectralDecomposition, name: str) -> np.ndarray:
    """A caller's gated matrix inverted from its decomposition; NumericalError if that overflows.

    The relative gate admits P = diag(1e-310, 1e-300), whose inverse is not
    finite: that is a numerical failure, not a verdict on any later gate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        P_inv = dec.inverse()
    if not np.isfinite(P_inv).all():
        raise NumericalError(
            f"{name} inverse overflows double precision: smallest eigenvalue "
            f"{dec.eigenvalues[-1]:.6e}"
        )
    return P_inv


def _inverse(P, name: str) -> np.ndarray:
    """P^-1 of a caller's matrix through the positivity gate (see `_finite_inverse`)."""
    return _finite_inverse(require_spd(P, f"{name} not positive definite"), name)


def _validity(model: StateSpaceModel, theta: float, P_inv: np.ndarray):
    """Factor of V^-1 = P^-1 - theta D^T D, gated."""
    V_inv = P_inv - theta * (model.D.T @ model.D)
    lam, U, errors = _require_spd_stack(V_inv[None], "validity violated: P^-1 - theta D^T D")
    if errors:
        raise errors[0]
    return SpectralDecomposition(lam[0], U[0])


def _map_step(model: StateSpaceModel, thetas: np.ndarray, P_inv: np.ndarray):
    """The risk-sensitive update of a stack: the one place the map is evaluated.

    Gates P^-1 + C^T C - theta D^T D, forms P_next and gates it. Returns P_next,
    its decomposition and the error of each entry that failed a gate, keyed by
    index. An entry whose inner matrix failed was never formed: its P_next is NaN.
    """
    inner = P_inv + model.C.T @ model.C - thetas[:, None, None] * (model.D.T @ model.D)
    lam, U, errors = _require_spd_stack(inner, "map leaves the cone: P^-1 + C^T C - theta D^T D")
    if errors:
        lam[list(errors)] = np.nan  # never divide by an eigenvalue that failed the gate
    P_next = model.A @ ((U / lam[:, None, :]) @ U.swapaxes(1, 2)) @ model.A.T + model.B @ model.B.T
    P_next = _sym(P_next)
    lam, U, left = _require_spd_stack(P_next, "iterate left the cone")
    return P_next, lam, U, {**left, **errors}


def _kalman_form(model: StateSpaceModel, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, R_nu) = (A V C^T R_nu^-1, C V C^T + I)."""
    R_nu = _sym(model.C @ V @ model.C.T + np.eye(model.p))
    return model.A @ V @ model.C.T @ np.linalg.inv(R_nu), R_nu


def rs_riccati_map(model: StateSpaceModel, theta: float, P) -> np.ndarray:
    """Risk-sensitive update A[P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T.

    Raises ConeExitError when the bracketed matrix is not positive
    definite (the map leaves the cone).
    """
    check_finite("theta", theta, nonnegative=True)
    P_inv = _inverse(P, "riccati map argument P")
    P_next, _, _, errors = _map_step(model, np.array([theta], dtype=float), P_inv[None])
    if np.isnan(P_next).all():  # the inner matrix failed its gate
        raise errors[0]
    return P_next[0]


def rs_gain(
    model: StateSpaceModel, theta: float, P
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Risk-sensitive filter gain, innovation variance and validity matrix.

    V = (P^-1 - theta D^T D)^-1 must be positive definite for the filter
    to exist; otherwise a "validity violated" ConeExitError is raised.
    """
    check_finite("theta", theta, nonnegative=True)
    V = _validity(model, theta, _inverse(P, "gain argument P")).inverse()
    return (*_kalman_form(model, V), V)


def _gain_form(model: StateSpaceModel, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gain form (A-KC) V (A-KC)^T + B B^T + K K^T of the risk-sensitive update."""
    F = model.A - K @ model.C
    return _sym(F @ V @ F.T + model.B @ model.B.T + K @ K.T)


def block_riccati_map(block: BlockModel, P) -> np.ndarray:
    """Block update alpha [P^-1 + Omega]^-1 alpha^T + W.

    Coincides with the N-fold composition of the one-step map at the
    same risk parameter.
    """
    P_inv = _inverse(P, "block map argument P")
    middle = require_spd(P_inv + block.Omega, "block map leaves the cone: P^-1 + Omega").inverse()
    return _sym(block.alpha @ middle @ block.alpha.T + block.W)


@dataclass(frozen=True)
class RiccatiStep:
    """One recorded point of a Riccati trajectory.

    status is "ok", "v_violation" (the validity matrix lost positive
    definiteness) or "cone_exit" (the iterate is not positive definite,
    or NaN where the map could not form it). lambda_V is None when V does not exist.
    """

    t: int
    P: np.ndarray
    status: str
    lambda_P: np.ndarray
    lambda_V: Optional[np.ndarray]

    @property
    def v_positive_definite(self) -> bool:
        return self.status == "ok"


def _trajectory(model: StateSpaceModel, theta: float, P0, T: int):
    """The one trajectory loop: yields (record, V's decomposition or None) for t = 0..T.

    It ends after the first record that is not "ok". The map's gate on
    P_{t+1} supplies the next iterate's decomposition. When P_{t+1}, its
    eigenvalues and its eigenvectors equal P_t's bitwise, the loop state has
    repeated, so every later step would recompute the same bits: the
    remaining records are yielded without factorizing again, each with its
    own copies of P, lambda_P and lambda_V, and all with the same V_dec
    object. This is exact, not a tolerance; only period 1 is checked.
    """
    P = symmetrize(P0)
    lam, U, errors = _require_spd_stack(P[None], "trajectory iterate not positive definite")
    if not errors:
        _finite_inverse(SpectralDecomposition(lam[0], U[0]), "trajectory start P0")
    thetas = np.array([theta], dtype=float)
    for t in range(T + 1):
        if errors:
            yield RiccatiStep(t, P, "cone_exit", lam[0], None), None
            return
        P_inv = (U[0] / lam[0]) @ U[0].T
        try:
            V_dec = _validity(model, theta, P_inv)
        except ConeExitError:
            yield RiccatiStep(t, P, "v_violation", lam[0], None), None
            return
        lam_V = 1.0 / V_dec.eigenvalues[::-1]
        yield RiccatiStep(t, P, "ok", lam[0], lam_V), V_dec
        if t < T:
            P_next, lam_next, U_next, errors = _map_step(model, thetas, P_inv[None])
            if (np.array_equal(P_next[0], P) and np.array_equal(lam_next, lam)
                    and np.array_equal(U_next, U)):
                for s in range(t + 1, T + 1):
                    yield RiccatiStep(s, P.copy(), "ok", lam[0].copy(), lam_V.copy()), V_dec
                return
            # a view of P_next would keep one more array alive per record
            P, lam, U = P_next[0].copy(), lam_next, U_next


def iterate_trajectory(
    model: StateSpaceModel, theta: float, P0, T: int
) -> list[RiccatiStep]:
    """Iterate the risk-sensitive update for T steps, recording each iterate.

    Violations are data, not exceptions: the trajectory stops early
    after recording a step whose status flags the event. A map that
    leaves the cone ends it with a "cone_exit" record whose P and
    lambda_P are NaN, because that iterate was never formed. Once the
    iterate repeats bitwise, the remaining records are copies of the last
    one (with their own t), produced without factorizing again; they are
    the same bits a step-by-step iteration gives.
    """
    check_finite("theta", theta, nonnegative=True)
    if T < 0:
        raise DomainError(f"horizon T must be >= 0, got {T}")
    return [step for step, _ in _trajectory(model, theta, P0, T)]


@dataclass(frozen=True)
class FixedPointResult:
    """Converged solution of the risk-sensitive Riccati equation.

    Carries the fixed point, the filter gain and innovation variance at
    it, the spectrum data of the closed loop A - KC, and the Frobenius
    residual of the algebraic equation the fixed point must satisfy.
    lambda_P and lambda_V are the spectra of P* and of the validity matrix
    V at P*, as on `RiccatiStep`, from factorizations already made.
    """

    P_star: np.ndarray
    iterations: int
    final_step_distance: float
    K: np.ndarray
    R_nu: np.ndarray
    closed_loop_eigenvalues: np.ndarray
    closed_loop_spectral_radius: float
    are_residual: float
    lambda_P: np.ndarray
    lambda_V: np.ndarray


@dataclass(frozen=True)
class AreReport:
    """Residual report of the risk-sensitive algebraic Riccati equation."""

    residual: float
    relative_residual: float
    closed_loop_eigenvalues: np.ndarray
    closed_loop_spectral_radius: float


def _are_report(model: StateSpaceModel, theta: float, P: np.ndarray, P_inv: np.ndarray):
    """(K, R_nu, V's decomposition, AreReport) at P from P^-1: one validity gate, one gain."""
    V_dec = _validity(model, theta, P_inv)
    V = V_dec.inverse()
    K, R_nu = _kalman_form(model, V)
    residual = float(np.linalg.norm(P - _gain_form(model, K, V)))
    eigs = np.linalg.eigvals(model.A - K @ model.C)
    eigs = eigs[np.argsort(-np.abs(eigs))]
    return K, R_nu, V_dec, AreReport(
        residual=residual,
        relative_residual=residual / (1.0 + float(np.linalg.norm(P))),
        closed_loop_eigenvalues=eigs,
        closed_loop_spectral_radius=float(np.max(np.abs(eigs))),
    )


def verify_are(model: StateSpaceModel, theta: float, P) -> AreReport:
    """Frobenius residual of P = (A-KC) V (A-KC)^T + B B^T + K K^T at P."""
    P = symmetrize(P)
    check_finite("theta", theta, nonnegative=True)
    return _are_report(model, theta, P, _inverse(P, "gain argument P"))[3]


def _iterate_stack(model: StateSpaceModel, thetas: np.ndarray, P0, tol: float,
                   max_iter: int) -> list:
    """The straight iteration for every theta at once, from one start P0.

    Raises only when P0 (default: identity) fails the gate or its inverse
    overflows. Each step runs the map's two stacked gates (`_map_step`) and a
    third on the whitened P_next^-1/2 P P_next^-1/2, whose log spectrum gives
    the step distance. A theta stops at its own step once that distance is
    below tol. Returns, per theta, (iterations, distance, P, decomposition of
    P) or the error `fixed_point` raises for it; the finish is left to the
    caller.
    """
    b, n = len(thetas), model.n
    P0 = symmetrize(P0) if P0 is not None else np.eye(n)
    P0_dec = require_spd(P0, "fixed-point start P0 not positive definite")
    _finite_inverse(P0_dec, "fixed-point start P0")
    out = [None] * b
    live = np.arange(b)  # input index of each running entry
    P = np.broadcast_to(P0, (b, n, n))
    lam = np.broadcast_to(P0_dec.eigenvalues, (b, n))
    U = np.broadcast_to(P0_dec.eigenvectors, (b, n, n))
    distance = np.full(b, math.inf)

    def stop(errors, arrays, broke_down=True):
        """Record the entries that failed a gate; return every array without them."""
        for i, exc in errors.items():
            if broke_down and isinstance(exc, ConeExitError):
                err = ConeExitError(
                    f"risk-sensitive iteration broke down at step {it} "
                    f"(theta={thetas[live[i]]:.6e}): {exc}",
                    lambda_min=exc.lambda_min, step=it, last_valid=P[i],
                )
                err.__cause__, exc = exc, err
            out[live[i]] = exc
        keep = np.setdiff1d(np.arange(len(live)), list(errors))
        return [a[keep] for a in arrays]

    for it in range(1, max_iter + 1):
        if not live.size:
            break
        P_inv = (U / lam[:, None, :]) @ U.swapaxes(1, 2)
        P_next, lam, U, errors = _map_step(model, thetas[live], P_inv)
        if errors:
            live, P, P_next, lam, U = stop(errors, [live, P, P_next, lam, U])
        whiten = (U / np.sqrt(lam)[:, None, :]) @ U.swapaxes(1, 2)
        lam_w, _, errors = _require_spd_stack(
            whiten @ P @ whiten,
            "distance argument Q must be positive definite: P^-1/2 Q P^-1/2")
        if errors:
            live, P_next, lam, U, lam_w = stop(errors, [live, P_next, lam, U, lam_w], False)
        log_w = np.log(lam_w)[:, None, :]  # ||log lam_w||, summed as np.linalg.norm sums a vector
        distance = np.sqrt(log_w @ log_w.swapaxes(1, 2))[:, 0, 0]
        P = P_next
        done = distance < tol
        for i in np.flatnonzero(done).tolist():
            out[live[i]] = (it, float(distance[i]), P[i], SpectralDecomposition(lam[i], U[i]))
        if done.any():
            live, P, lam, U, distance = (a[~done] for a in (live, P, lam, U, distance))
    for i, j in enumerate(live.tolist()):
        out[j] = IterationLimitError(
            f"no fixed point within {max_iter} iterations at theta={thetas[j]:.6e}: "
            f"last step distance {distance[i]:.3e}",
            iterations=max_iter,
            last_distance=float(distance[i]),
        )
    return out


def _finish(model: StateSpaceModel, theta: float, it: int, distance: float,
            P: np.ndarray, P_dec) -> FixedPointResult:
    """Validity gate, gain, ARE report and spectra at a converged iterate."""
    try:
        K, R_nu, V_dec, report = _are_report(model, theta, P, P_dec.inverse())
    except ConeExitError as exc:
        raise ConeExitError(
            f"fixed point reached at theta={theta:.6e} but its "
            f"validity matrix is not positive definite",
            lambda_min=exc.lambda_min, step=it, last_valid=P,
        ) from exc
    return FixedPointResult(
        P_star=P,
        iterations=it,
        final_step_distance=distance,
        K=K,
        R_nu=R_nu,
        closed_loop_eigenvalues=report.closed_loop_eigenvalues,
        closed_loop_spectral_radius=report.closed_loop_spectral_radius,
        are_residual=report.residual,
        lambda_P=P_dec.eigenvalues,
        lambda_V=1.0 / V_dec.eigenvalues[::-1],
    )


def fixed_point_sweep(
    model: StateSpaceModel,
    thetas,
    P0=None,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> list[FixedPointResult]:
    """`fixed_point` at every theta of a list, as one stacked iteration.

    Every theta iterates from the same P0 and stops at its own step, so
    its result, iteration count included, does not depend on the other
    thetas. A NaN or negative theta anywhere raises DomainError before
    any iteration; otherwise the error of the first theta (in input
    order) that fails is raised, exactly as `fixed_point` raises it.
    """
    thetas = list(thetas)
    for theta in thetas:
        check_finite("theta", theta, nonnegative=True)
    thetas = np.array(thetas, dtype=float)
    results = []
    for theta, outcome in zip(thetas, _iterate_stack(model, thetas, P0, tol, max_iter)):
        if isinstance(outcome, Exception):
            raise outcome
        results.append(_finish(model, float(theta), *outcome))
    return results


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
    hitting max_iter raises IterationLimitError. This is
    `fixed_point_sweep` at batch size one.
    """
    return fixed_point_sweep(model, [theta], P0, tol, max_iter)[0]


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of the bisection for the largest solvable risk parameter.

    found is False when the whole bracket was solvable (no breakdown in
    range); theta then reports the upper end of the range. evaluations
    counts the `fixed_point` probes, the two ends included.
    """

    theta: float
    bracket: tuple[float, float]
    found: bool
    evaluations: int


def breakdown_search(
    model: StateSpaceModel,
    theta_lo: float,
    theta_hi: Optional[float] = None,
    P0=None,
    tol: float = 1e-6,
) -> BreakdownResult:
    """Bisect for the largest risk parameter with a valid stable fixed point.

    The predicate at each theta is: the fixed-point iteration from P0
    (default: identity, as in `fixed_point`) stays inside the cone,
    converges, and the fixed point keeps the validity matrix positive
    definite (the quantity whose divergence marks breakdown).
    Non-convergence within `fixed_point`'s default iteration limit counts
    as failure, which is conservative near breakdown where the
    contraction constant approaches one. P0 is gated once, before any
    probe: one that is not positive definite raises ConeExitError, one
    whose inverse overflows NumericalError, rather than reading as an
    unsolvable theta_lo. Bisection stops at width tol or adjacent floats.
    theta_hi defaults to 1/lam_1(D P*(0) D^T), P*(0) the risk-neutral fixed
    point from P0 (that solve raises its own errors; it is not a probe).
    No theta from there on is solvable: the map grows with theta and is
    monotone in P, so P*(theta) >= P*(0), and V at P*(theta) is positive
    definite only when theta * lam_1(D P*(theta) D^T) < 1.
    """
    check_finite("theta", theta_lo, nonnegative=True)
    if not tol >= 0.0:
        raise UsageError(f"bisection tol must be >= 0, got {tol}")
    P0 = symmetrize(P0) if P0 is not None else np.eye(model.n)
    _inverse(P0, "breakdown start P0")
    if theta_hi is None:
        P_star = fixed_point(model, 0.0, P0).P_star
        theta_hi = 1.0 / spectral(_sym(model.D @ P_star @ model.D.T)).eigenvalues[0]
    check_finite("theta", theta_hi, nonnegative=True)
    if not theta_hi > theta_lo:
        raise UsageError(
            f"need theta_lo < theta_hi, got [{theta_lo}, {theta_hi}]"
        )

    def solvable(theta: float) -> bool:
        try:
            fixed_point(model, theta, P0)
        except (ConeExitError, IterationLimitError):
            return False
        return True

    evaluations = 2
    if not solvable(theta_lo):
        raise UsageError(
            f"theta_lo={theta_lo:.6e} is already unsolvable from this P0; "
            f"pick a smaller lower end"
        )
    if solvable(theta_hi):
        return BreakdownResult(
            theta=theta_hi,
            bracket=(theta_lo, theta_hi),
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
        found=True,
        evaluations=evaluations,
    )
