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

Every Riccati iteration in the library steps through one loop,
`_iterate`, over a stack of theta from one gated start.
`fixed_point_sweep` is the loop plus one stacked finish (`_solve_stack`),
from a start gated once per public call (`_inverse` hands back P0, its
decomposition and P0^-1): a theta that stops keeps its P_t, the P_t^-1
its last inner matrix was formed from and P_t's eigenvalues, and one
stacked pass finishes every converged theta (validity gate at P*, gain,
ARE residual, closed-loop spectrum) from them. `fixed_point` is the sweep
at batch size one, and `verify_are` the finish. Each theta stops at its
own step, so its result and its iteration count (the canonical one) are
the same at any batch size. `doubled_fixed_points` reads P*(theta) for a
whole stack of theta from the doubled one-step map instead, in a few n x n
compositions and with no invertible A: paper-example's fixed-point sweep
comes from it. `breakdown_search` solves its ends and the bisection path
that map's verdicts predict in one stacked call, then walks the real
verdicts as a plain bisection. The prediction only groups the probes; the
iteration decides every verdict.
`iterate_trajectory` and `sim.run_filter` run the loop at
batch one with tol = 0 and max_iter = T, tracing each step.

Every inversion goes through the positivity gate `cone.require_spd`, or
its stacked form: leaving the cone is a semantic event, never papered
over. A caller's P or P0 whose inverse overflows raises NumericalError
at entry. The map's formula is written once: `_map_inner` forms the inner
matrix P^-1 + C^T C - theta D^T D, and `_map_next` forms P_next from the
inner matrix's gated decomposition and gates it, which hands the next step
its factorization (`_map_step` is the two in sequence). The loop and
`rs_riccati_map` step through them, with C^T C, theta D^T D and B B^T
formed once per loop. A step makes two stacked eigensolve calls:
`_gate_step` gates the inner matrix together with the whitened
P_t^-1/2 P_{t-1} P_t^-1/2 that gives the step distance d_t, then P_next is
gated. A step distance is a measurement, never a verdict: only the inner
matrix and P_next decide a cone exit, and a whitened entry that fails the
gate only means that step has no distance (NaN, which neither stops nor
stalls the loop).

The loop never gates the validity matrix. Each caller gates
V^-1 = P^-1 - theta D^T D once, after the loop, over the points it kept,
in one stacked call (`_validity`): the finish at each P*, the trajectory
at every traced step (its first failure is the "v_violation" record), and
`rs_gain` at its one P.

The loop stops a theta at the roundoff floor (`_stalled`): a step whose
distance d_k is at least d_{k-1} and below c * eps * cond(P_k) has stopped
contracting and only wanders at roundoff. It stops there as at d_k < tol,
and drops the error its next inner matrix may have had in the same call.
A traced run also ends where its state repeats bitwise (P_{t+1}, its
eigenvalues and eigenvectors equal to P_t's). The repeat is exact: every
later step would recompute the same bits. `iterate_trajectory` and
`sim.run_filter` fill the remaining records with copies of the last one,
within the floor of what a step-by-step iteration gives after a stall.
"""

from __future__ import annotations

import math
import numbers
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
from .statespace import BlockMap, StateSpaceModel, _compose, block_map


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


def _caller_matrix(P, n: int, name: str) -> np.ndarray:
    """A caller's P or P0, symmetrized; UsageError unless it is n x n."""
    P = symmetrize(P)
    if P.shape != (n, n):
        raise UsageError(f"{name} must have shape ({n}, {n}), got {P.shape}")
    return P


def _inverse(P, n: int, name: str, gate: Optional[str] = None):
    """A caller's n x n P gated once: (P symmetrized, its decomposition, P^-1).

    A wrong shape names `name`; the gate and an overflowing inverse name `gate` (default: name).
    """
    P, gate = _caller_matrix(P, n, name), gate or name
    dec = require_spd(P, f"{gate} not positive definite")
    return P, dec, _finite_inverse(dec, gate)


# c * eps in the roundoff floor of the step distance, c * eps * cond(P), with
# c = 16 (see `_stalled`).
_FLOOR = 16.0 * np.finfo(float).eps


def _gate_step(X: np.ndarray, P_prev, lam: np.ndarray, U: np.ndarray, what: str):
    """Gate a stack X together with the whitened steps P_prev -> P, in one eigensolve call.

    (lam, U) is the stack P's decomposition; the log spectrum of the whitened
    P^-1/2 P_prev P^-1/2 is the step distance. Returns X's eigenvalues,
    eigenvectors and errors (keyed by index, as `_require_spd_stack` gives
    them) and the step distances, one per entry of P. A distance is a
    measurement, never a verdict: it is NaN where there is no P_prev or its
    whitened entry failed the gate, so it neither stops nor stalls a loop.
    """
    if P_prev is None:
        return (*_require_spd_stack(X, what), np.full(len(lam), np.nan))
    b = len(X)
    whiten = (U / np.sqrt(lam)[:, None, :]) @ U.swapaxes(1, 2)
    lam_g, U_g, errors = _require_spd_stack(np.concatenate([X, whiten @ P_prev @ whiten]), what)
    lam_w = lam_g[b:]
    if errors:
        lam_w[[i - b for i in errors if i >= b]] = np.nan  # no log of a failed spectrum
        errors = {i: exc for i, exc in errors.items() if i < b}
    return lam_g[:b], U_g[:b], errors, _frobenius(np.log(lam_w))


def _stalled(distance, previous, lam: np.ndarray):
    """Whether a step has stalled at its roundoff floor, for one step or a stack.

    True when d_k >= d_{k-1} and d_k < c * eps * cond(P_k), where lam holds
    P_k's eigenvalues (decreasing). The map contracts, so the step distance
    falls geometrically until it reaches about eps * cond(P_k); from there
    roundoff only moves it about (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002). Of c in {4, 16, 64, 256}, 16 is the
    smallest with which the fixed-point kernel stopped in all of 20 seeded
    congruences x -> Tx of the worked example at cond(T) = 1e2 and 1e3, at
    theta = 0 and 5e-4 (c = 4 missed 3 of those 80 runs). NaN compares
    false, so a step never stalls on it.
    """
    return (distance >= previous) & (distance * lam[..., -1] < _FLOOR * lam[..., 0])


_VALIDITY_GATE = "validity violated: P^-1 - theta D^T D"


def _validity(model: StateSpaceModel, thetas: np.ndarray, P_inv: np.ndarray):
    """V^-1 = P^-1 - theta D^T D gated over a stack P^-1 (thetas: one per entry, or one)."""
    return _require_spd_stack(P_inv - thetas[:, None, None] * (model.D.T @ model.D),
                              _VALIDITY_GATE)


def _map_products(model: StateSpaceModel, thetas: np.ndarray):
    """The map's constant terms: C^T C, theta D^T D for each theta, and B B^T."""
    return (model.C.T @ model.C, thetas[:, None, None] * (model.D.T @ model.D),
            model.B @ model.B.T)


def _map_inner(P_inv: np.ndarray, CtC: np.ndarray, thDtD: np.ndarray) -> np.ndarray:
    """The matrix the map inverts, P^-1 + C^T C - theta D^T D."""
    return P_inv + CtC - thDtD


def _map_next(model: StateSpaceModel, BBt: np.ndarray, lam: np.ndarray, U: np.ndarray,
              errors: dict):
    """P_next = A inner^-1 A^T + B B^T from the inner matrix's gated decomposition (lam, U).

    Gates P_next. Returns P_next, its decomposition and the error of each
    entry that failed a gate, keyed by index. An entry whose inner matrix
    failed (a key of `errors`) is never formed: its P_next is NaN.
    """
    if errors:
        lam[list(errors)] = np.nan  # never divide by an eigenvalue that failed the gate
    P_next = _sym(model.A @ ((U / lam[:, None, :]) @ U.swapaxes(1, 2)) @ model.A.T + BBt)
    lam, U, left = _require_spd_stack(P_next, "iterate left the cone")
    return P_next, lam, U, {**left, **errors}


_INNER_GATE = "map leaves the cone: P^-1 + C^T C - theta D^T D"


def _map_step(model: StateSpaceModel, thetas: np.ndarray, P_inv: np.ndarray):
    """The risk-sensitive update of a stack: `_map_inner` gated, then `_map_next`."""
    CtC, thDtD, BBt = _map_products(model, thetas)
    lam, U, errors = _require_spd_stack(_map_inner(P_inv, CtC, thDtD), _INNER_GATE)
    return _map_next(model, BBt, lam, U, errors)


def _kalman_form(model: StateSpaceModel, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, R_nu) = (A V C^T R_nu^-1, C V C^T + I), for one V or a stack."""
    R_nu = _sym(model.C @ V @ model.C.T + np.eye(model.p))
    return model.A @ V @ model.C.T @ np.linalg.inv(R_nu), R_nu


def rs_riccati_map(model: StateSpaceModel, theta: float, P) -> np.ndarray:
    """Risk-sensitive update A[P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T.

    Raises ConeExitError when the bracketed matrix is not positive
    definite (the map leaves the cone).
    """
    check_finite("theta", theta, nonnegative=True)
    _, _, P_inv = _inverse(P, model.n, "riccati map argument P")
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
    P_inv = _inverse(P, model.n, "gain argument P")[2]
    lam, U, errors = _validity(model, np.array([theta], dtype=float), P_inv[None])
    if errors:
        raise errors[0]
    V = SpectralDecomposition(lam[0], U[0]).inverse()
    return (*_kalman_form(model, V), V)


def _gain_form(model: StateSpaceModel, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gain form (A-KC) V (A-KC)^T + B B^T + K K^T of the risk-sensitive update (or a stack)."""
    F = model.A - K @ model.C
    return _sym(F @ V @ F.swapaxes(-1, -2) + model.B @ model.B.T + K @ K.swapaxes(-1, -2))


def block_riccati_map(block: BlockMap, P) -> np.ndarray:
    """Block update alpha [P^-1 + Omega]^-1 alpha^T + W of `block_map`'s triple.

    Coincides with the N-fold composition of the one-step map at the
    same risk parameter. It reads only block.alpha, block.Omega and
    block.W, at one theta.
    """
    _, _, P_inv = _inverse(P, len(block.alpha), "block map argument P")
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
    """(records, lam, U): the one loop at batch one to its last record, and V's decompositions.

    P0 is gated in-band (a start that fails is the "cone_exit" record at
    t = 0). The loop (`_iterate`) then runs from it with tol = 0, which no
    distance is below, and max_iter = T, tracing each P_t; it ends where it
    settles (a stall or an exact repeat), where the map leaves the cone, or
    at T. V^-1 = P_t^-1 - theta D^T D is gated at every traced step in one
    stacked call (`_validity`): the first V that fails gives the
    "v_violation" record at its step, and the records end there. Otherwise
    a map exit gives the "cone_exit" record at t + 1 (P NaN where the map
    could not form it), from one `_map_step` on the last P_t^-1, which
    reproduces the loop's bits. So a last record that is "ok" with t < T
    marks a settled loop, and records t + 1..T would each repeat it. lam and
    U are the eigenvalues and eigenvectors of V^-1 at each "ok" record.
    """
    P = _caller_matrix(P0, model.n, "P0")
    lam, U, errors = _require_spd_stack(P[None], "trajectory iterate not positive definite")
    if errors:
        return [RiccatiStep(0, P, "cone_exit", lam[0], None)], lam[:0], U[:0]
    dec, thetas, trace = SpectralDecomposition(lam[0], U[0]), np.array([theta], dtype=float), []
    start = (P, dec, _finite_inverse(dec, "trajectory start P0"))
    (end,), _ = _iterate(model, thetas, start, 0.0, T, trace)  # end: the run's error or None
    P, lam_P, P_inv = (np.array(a) for a in zip(*trace))
    lam, U, failed = _validity(model, thetas, P_inv)
    k = min(failed, default=len(trace))  # the records before k are "ok"
    steps = [RiccatiStep(t, P[t], "ok", lam_P[t], lam_V)
             for t, lam_V in enumerate(1.0 / lam[:k, ::-1])]
    if failed:
        if not isinstance(failed[k], ConeExitError):
            raise failed[k]
        steps.append(RiccatiStep(k, P[k], "v_violation", lam_P[k], None))
    elif end is not None and not isinstance(end, IterationLimitError):  # the map left the cone
        P_next, lam_next, _, _ = _map_step(model, thetas, P_inv[-1:])
        steps.append(RiccatiStep(k, P_next[0], "cone_exit", lam_next[0], None))
    return steps, lam[:k], U[:k]


def iterate_trajectory(
    model: StateSpaceModel, theta: float, P0, T: int
) -> list[RiccatiStep]:
    """Iterate the risk-sensitive update for T steps, recording each iterate.

    Violations are data, not exceptions: the trajectory stops early
    after recording a step whose status flags the event. V is gated after
    the iteration, at every step in one stacked call, so a run whose V
    fails iterates on until it settles, leaves the cone or reaches T, and
    its records end at the first failing step. A map that
    leaves the cone ends it with a "cone_exit" record whose P and
    lambda_P are NaN, because that iterate was never formed. Once the
    iterate repeats bitwise, or its step distance stalls at the roundoff
    floor c * eps * cond(P) (see the module docstring), the loop ends at
    that record and the remaining ones are appended as its copies: each
    with its own t and its own copies of P, lambda_P and lambda_V, produced
    without factorizing again. They are the same bits a step-by-step
    iteration gives until the stall rule fires, and within that floor after.
    """
    check_finite("theta", theta, nonnegative=True)
    if T < 0:
        raise DomainError(f"horizon T must be >= 0, got {T}")
    steps = _trajectory(model, theta, P0, T)[0]
    last = steps[-1]
    if last.status == "ok":  # settled at last.t, or ran to T (no copies)
        steps += [RiccatiStep(s, last.P.copy(), "ok", last.lambda_P.copy(), last.lambda_V.copy())
                  for s in range(last.t + 1, T + 1)]
    return steps


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


def _frobenius(X: np.ndarray) -> np.ndarray:
    """Norm of each entry of a stack, summed as np.linalg.norm sums one entry."""
    x = X.reshape(len(X), 1, math.prod(X.shape[1:]))
    return np.sqrt(x @ x.swapaxes(1, 2))[:, 0, 0]


def _are_stack(model: StateSpaceModel, thetas: np.ndarray, P: np.ndarray, P_inv: np.ndarray):
    """Validity gate, gain and ARE residual at every point of a stack P (with its P^-1).

    V^-1 = P^-1 - theta D^T D is gated for the whole stack in one eigensolve
    (`_validity`); K, R_nu, the residual and eig(A - KC) are then formed
    once over the entries that passed. Returns (ok, K, R_nu, lambda_V,
    residual, eigs, errors): the indices that passed, in order, with their stacked results
    (eigs is a list, each entry as eigvals gives one matrix, by decreasing
    modulus), and the gate's ConeExitError for each entry that failed,
    keyed by index. An entry's numbers do not depend on the others.
    """
    lam, U, errors = _validity(model, thetas, P_inv)
    ok = np.setdiff1d(np.arange(len(P)), list(errors))
    lam, U, P = lam[ok], U[ok], P[ok]
    V = (U / lam[:, None, :]) @ U.swapaxes(1, 2)
    K, R_nu = _kalman_form(model, V)
    residual = _frobenius(P - _gain_form(model, K, V))
    eigs = np.linalg.eigvals(model.A - K @ model.C)
    eigs = np.take_along_axis(eigs, np.argsort(-np.abs(eigs), axis=1), axis=1)
    eigs = [e if e.imag.any() else e.real for e in eigs]
    return ok.tolist(), K, R_nu, 1.0 / lam[:, ::-1], residual, eigs, errors


def verify_are(model: StateSpaceModel, theta: float, P) -> AreReport:
    """Frobenius residual of P = (A-KC) V (A-KC)^T + B B^T + K K^T at P.

    The kernel's finish at batch size one; relative_residual is over 1 + ||P||_F.
    """
    check_finite("theta", theta, nonnegative=True)
    P, _, P_inv = _inverse(P, model.n, "gain argument P")
    _, _, _, _, residual, eigs, errors = _are_stack(
        model, np.array([theta], dtype=float), P[None], P_inv[None])
    if errors:
        raise errors[0]
    return AreReport(
        residual=float(residual[0]),
        relative_residual=float(residual[0] / (1.0 + _frobenius(P[None])[0])),
        closed_loop_eigenvalues=eigs[0],
        closed_loop_spectral_radius=float(np.max(np.abs(eigs[0]))),
    )


def _iterate(model: StateSpaceModel, thetas: np.ndarray, start: tuple, tol: float,
             max_iter: int, trace: Optional[list] = None):
    """The one Riccati loop: the straight iteration for every theta at once, never gating V.

    start is (P0, its decomposition, P0^-1), gated by the caller; each later
    P_t^-1 comes from the decomposition `_map_next` gave. Per step,
    `_gate_step` gates the inner matrix of each P_t with the whitened step
    from P_{t-1}, whose distance d_t is read first, then `_map_next` forms
    and gates P_{t+1}. A theta stops at P_t once d_t < tol or d_t has
    stalled (`_stalled`); its step-(t+1) inner matrix's error is dropped.
    Returns (out, stops): per theta None or its error (the map's exit at
    step t + 1, a cone exit wrapped as the breakdown there, or the
    iteration limit), and per step where thetas stopped the arrays (index,
    iterations, distance, P_t, P_t^-1, lambda_P). A `trace` list (batch
    one) receives (P_t, lambda_P, P_t^-1) at each step; a traced run also
    ends, with no stop and no error, where P_{t+1}, its eigenvalues and its
    eigenvectors repeat P_t's bitwise.
    """
    b = len(thetas)
    out = [None] * b
    live = np.arange(b)  # input index of each running entry
    P0, P0_dec, P0_inv = start
    P, lam, U, P_inv = (np.broadcast_to(a, (b, *a.shape)) for a in (P0, *P0_dec, P0_inv))
    P_prev, distance = None, np.full(b, math.nan)
    CtC, thDtD, BBt = _map_products(model, thetas)
    stops = []  # per step where thetas stop: index, iterations, distance, P, P^-1, lambda_P
    for it in range(1, max_iter + 2):
        if not live.size:  # no theta left to step: the last ones left the cone
            break
        if trace is not None:
            trace.append((P[0], lam[0], P_inv[0]))
        lam_in, U_in, errors, step = _gate_step(
            _map_inner(P_inv, CtC, thDtD[live]), P_prev, lam, U, _INNER_GATE)
        previous, distance = distance, step
        done = (distance < tol) | _stalled(distance, previous, lam)
        if done.any():
            stops.append((live[done], np.full(done.sum(), it - 1), distance[done], P[done],
                          P_inv[done], lam[done]))
            errors = {j: errors[i] for j, i in enumerate(np.flatnonzero(~done)) if i in errors}
            live, P, lam_in, U_in, distance = (a[~done] for a in (live, P, lam_in, U_in, distance))
        if it > max_iter or not live.size:
            break
        P_next, lam_next, U_next, errors = _map_next(model, BBt, lam_in, U_in, errors)
        if trace is not None and all(map(np.array_equal, (P_next, lam_next, U_next), (P, lam, U))):
            return out, stops
        P_prev, P, lam, U = P, P_next, lam_next, U_next
        for i, exc in errors.items():
            if isinstance(exc, ConeExitError):
                err = ConeExitError(
                    f"risk-sensitive iteration broke down at step {it} "
                    f"(theta={thetas[live[i]]:.6e}): {exc}",
                    lambda_min=exc.lambda_min, step=it, last_valid=P_prev[i],
                )
                err.__cause__, exc = exc, err
            out[live[i]] = exc
        if errors:
            keep = np.setdiff1d(np.arange(len(live)), list(errors))
            live, P_prev, P, lam, U, distance = (a[keep] for a in (live, P_prev, P, lam, U, distance))
        P_inv = (U / lam[:, None, :]) @ U.swapaxes(1, 2)
    for i, j in enumerate(live.tolist()):
        out[j] = IterationLimitError(
            f"no fixed point within {max_iter} iterations at theta={thetas[j]:.6e}: "
            f"last step distance {distance[i]:.3e}",
            iterations=max_iter,
            last_distance=float(distance[i]),
        )
    return out, stops


def _solve_stack(model: StateSpaceModel, thetas: np.ndarray, start: tuple, tol: float,
                 max_iter: int) -> list:
    """Per theta: its FixedPointResult, or the error `fixed_point` raises for it.

    `_iterate` from a start `_inverse` gated, then one `_are_stack` call on
    the points where thetas stopped. One whose V at P* fails the gate gets
    the breakdown error, carrying the gate's as its cause.
    """
    out, stops = _iterate(model, thetas, start, tol, max_iter)
    if not stops:
        return out
    index, iterations, distance, P, P_inv, lam = (np.concatenate(a) for a in zip(*stops))
    ok, K, R_nu, lam_V, residual, eigs, errors = _are_stack(model, thetas[index], P, P_inv)
    for k, exc in errors.items():
        i = index[k]
        out[i] = ConeExitError(
            f"fixed point reached at theta={thetas[i]:.6e} but its "
            f"validity matrix is not positive definite",
            lambda_min=exc.lambda_min, step=int(iterations[k]), last_valid=P[k],
        )
        out[i].__cause__ = exc
    for j, k in enumerate(ok):
        out[index[k]] = FixedPointResult(
            P_star=P[k],
            iterations=int(iterations[k]),
            final_step_distance=float(distance[k]),
            K=K[j],
            R_nu=R_nu[j],
            closed_loop_eigenvalues=eigs[j],
            closed_loop_spectral_radius=float(np.max(np.abs(eigs[j]))),
            are_residual=float(residual[j]),
            lambda_P=lam[k],
            lambda_V=lam_V[j],
        )
    return out


# `fixed_point`'s default tol and max_iter, which `breakdown_search`'s probes share.
_TOL = 1e-12
_MAX_ITER = 10000


def fixed_point_sweep(
    model: StateSpaceModel,
    thetas,
    P0=None,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> list[FixedPointResult]:
    """`fixed_point` at every theta of a list, as one stacked iteration and one stacked finish.

    Every theta iterates from the same P0 and stops at its own step, so
    its result, iteration count included, does not depend on the other
    thetas. The finish gates V at every converged P* in one eigensolve and
    forms the gains, ARE residuals and closed-loop spectra once over the
    stack, from the arrays the iteration kept at each theta's stop. A tol
    that is not >= 0 or a max_iter that is not an integer >= 1 raises
    UsageError, and a NaN or negative theta anywhere DomainError, before
    any iteration. P0 is gated next, once: one that is not positive
    definite raises ConeExitError, one whose inverse overflows
    NumericalError. Otherwise the error of the first theta (in input
    order) that fails, in the iteration or at P*, is raised, exactly as
    `fixed_point` raises it.
    """
    if not tol >= 0.0:
        raise UsageError(f"fixed-point tol must be >= 0, got {tol}")
    if not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise UsageError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    thetas = list(thetas)
    for theta in thetas:
        check_finite("theta", theta, nonnegative=True)
    start = _inverse(np.eye(model.n) if P0 is None else P0, model.n, "P0", "fixed-point start P0")
    results = _solve_stack(model, np.array(thetas, dtype=float), start, tol, max_iter)
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results


def fixed_point(
    model: StateSpaceModel,
    theta: float = 0.0,
    P0=None,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> FixedPointResult:
    """Fixed point of the risk-sensitive update by straight iteration.

    Iterates from P0 (default: identity) until the affine-invariant
    distance between consecutive iterates drops below tol, or stops
    falling at its roundoff floor c * eps * cond(P) (see the module
    docstring), which a tol below that floor could never meet. Every
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


# Bisection levels whose midpoints `breakdown_search` solves in one stacked call
# once the prediction has no verdict for the walk's next midpoint.
_SPECULATIVE_LEVELS = 3
# Bisection levels whose midpoints `breakdown_search` predicts in one
# `doubled_fixed_points` call. A call costs about nine doublings whatever its
# stack size, so fewer, larger calls are cheaper: paper-example's 11 levels take
# 3 calls at 4 levels each, which measured faster than 3 or 5 levels per call.
_PREDICTED_LEVELS = 4

# Doublings after which `doubled_fixed_points` gives up on a sum, as `bounds._smith` does.
_DOUBLINGS = 64


def doubled_fixed_points(model: StateSpaceModel, thetas):
    """P*(theta) for a 1-D stack of theta from the doubled one-step map, with a verdict per theta.

    W of the 2^k-fold map (`statespace._compose` on the one-step triple
    (A, C^T C - theta D^T D, B B^T)) is the straight iterate P_{2^k} from
    P_0 = 0, so squaring the triple k times takes 2^k steps at once
    (Anderson & Moore, *Optimal Filtering*, 1979; Lin & Xu, SIAM J. Matrix
    Anal. Appl. 28, 2006). It needs no invertible A. Each theta stops at
    the first doubling that changes no bit of its W, and leaves the stack
    where its I + W Omega fails the gate, so its result does not depend on
    the other thetas; one still changing after _DOUBLINGS doublings has no
    sum. A theta is solvable when every gate passed, the sum settled, P*
    passes the stacked positivity gate and V^-1 = P*^-1 - theta D^T D
    passes `_validity`. A NaN or negative theta raises DomainError, and a
    one-step triple that overflows NumericalError, as in `block_map`.

    Returns (P, lambda_P, lambda_V, solvable, Omega), stacked over thetas:
    P* and the spectra of P* and of V at P* (decreasing, as on
    `FixedPointResult`), NaN where a theta is not solvable, and the settled
    Omega, NaN where the sum did not settle. P0^-1 + Omega_N is the N-fold
    map's inner matrix at a start P0, so the settled Omega tells whether
    the long-run map can be applied at P0; `breakdown_search` reads it.
    Nothing else here sees the iterates of a given start. The package does
    not export it; paper-example writes its fixed-point sweep from it.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    W, Omega = np.full((2, len(thetas), model.n, model.n), np.nan)  # each theta's, once settled
    live, step = np.arange(len(thetas)), block_map(model, 1, thetas)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, _DOUBLINGS + 1):
            composed, passed, _, _ = _compose(2**k, step, step)
            done = passed & (composed.W == step.W).all(axis=(1, 2))
            if not (keep := passed & ~done).all():  # a theta leaves: settled or past a pole
                W[live[done]], Omega[live[done]] = composed.W[done], composed.Omega[done]
                live, composed = live[keep], BlockMap(*(X[keep] for X in composed))
            if not live.size:
                break
            step = composed
        solvable = ~np.isnan(W[:, 0, 0])  # a settled W is finite
        index = np.flatnonzero(solvable)
        lam, U, errors = _require_spd_stack(W[index], "fixed point not positive definite")
        lam_v, _, invalid = _validity(model, thetas[index], (U / lam[:, None, :]) @ U.swapaxes(1, 2))
        lam_P, lam_V = np.full((2, *W.shape[:2]), np.nan)
        lam_P[index], lam_V[index] = lam, 1.0 / lam_v[:, ::-1]
    solvable[index[list({*errors, *invalid})]] = False
    lam_P[~solvable], lam_V[~solvable] = np.nan, np.nan
    return np.where(solvable[:, None, None], _sym(W), np.nan), lam_P, lam_V, solvable, _sym(Omega)


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of the bisection for the largest solvable risk parameter.

    found is False when the whole bracket was solvable (no breakdown in
    range); theta then reports the upper end of the range. evaluations
    counts the points the bisection decided on: the two ends and one
    midpoint per level walked. Midpoints solved ahead of the walk but
    never reached are not counted.
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
    unsolvable theta_lo. Every probe, the default end's solve included,
    iterates from that gated start without gating it again. Bisection
    stops at width tol or adjacent floats.
    theta_hi defaults to 1/lam_1(D P*(0) D^T), P*(0) the risk-neutral fixed
    point from P0 (that solve raises its own errors). No theta from there
    on is solvable: the map grows with theta and is monotone in P, so
    P*(theta) >= P*(0), and V at P*(theta) is positive definite only when
    theta * lam_1(D P*(theta) D^T) < 1. So that end counts as a failed
    probe without being solved, and a theta_lo of 0 reads the solve just made.

    The probes are `fixed_point_sweep`'s kernel, `_solve_stack`, each run
    to its own stop. `_stalled` ends most of those near breakdown, but near
    a closing eigenvalue gap of the map, where P* exists and the rate nears
    1, a probe can run all max_iter steps (21 did in one measured search at
    tol = 1e-9). `doubled_fixed_points` predicts each verdict, any A
    included: unsolvable where the doubled map finds no valid P*, or where
    the start fails one stacked gate, on its first inner matrix
    P0^-1 + C^T C - theta D^T D or on P0^-1 + Omega with the doubled map's
    settled Omega (the inner matrix of the long-run map at P0: a start past
    it leaves the cone within a few steps). The bisection walked on the
    predictions, _PREDICTED_LEVELS levels per call, gives the midpoints
    that are solved with the two ends in one call (after the theta = 0
    solve of the default end). The bisection then walks the real verdicts
    with the usual test. Where its next midpoint has none, after a
    misprediction, each further call solves the midpoints of the next
    _SPECULATIVE_LEVELS levels below the current bracket. A theta's
    outcome does not depend on its batch, so every midpoint, the bracket
    and `evaluations` are those of a one-probe-at-a-time bisection. A
    start whose iterates leave the cone where both gates pass only costs
    a misprediction. An error other than breakdown or the iteration limit
    is raised when the walk reaches its theta.
    """
    check_finite("theta", theta_lo, nonnegative=True)
    if not tol >= 0.0:
        raise UsageError(f"bisection tol must be >= 0, got {tol}")
    start = _inverse(np.eye(model.n) if P0 is None else P0, model.n, "P0", "breakdown start P0")

    def solve(thetas: list) -> list:
        return _solve_stack(model, np.array(thetas, dtype=float), start, _TOL, _MAX_ITER)

    verdicts = {}  # theta -> solvable, or the error to raise when the walk reads it
    if theta_hi is None:
        (at_zero,) = solve([0.0])
        if isinstance(at_zero, Exception):
            raise at_zero
        theta_hi = 1.0 / spectral(_sym(model.D @ at_zero.P_star @ model.D.T)).eigenvalues[0]
        verdicts = {theta_hi: False, 0.0: True}  # by the argument above; the solve just made
    check_finite("theta", theta_hi, nonnegative=True)
    if not theta_hi > theta_lo:
        raise UsageError(f"need theta_lo < theta_hi, got [{theta_lo}, {theta_hi}]")

    def solvable(known: dict, theta: float) -> bool:
        """known[theta], raised where it is an error."""
        if isinstance(known[theta], Exception):
            raise known[theta]
        return known[theta]

    def midpoint(lo: float, hi: float) -> Optional[float]:
        """The bisection's next theta in (lo, hi); None at width tol or adjacent floats."""
        mid = 0.5 * (lo + hi)
        return mid if hi - lo > tol and lo < mid < hi else None

    def levels(lo: float, hi: float, depth: int) -> list:
        """The midpoints of the next depth levels below (lo, hi), as the walk forms them."""
        mids, brackets = [], [(lo, hi)]
        for _ in range(depth):
            below = []
            for a, b in brackets:
                if (m := midpoint(a, b)) is not None:
                    mids.append(m)
                    below += [(a, m), (m, b)]
            brackets = below
        return mids

    def walk(known: dict, fill, depth: int) -> tuple:
        """The bisection on the verdicts in known: its last (lo, hi) and the midpoints it read.

        Where known has no verdict for the next midpoint, fill(levels(lo, hi,
        depth)) adds those of the next depth levels.
        """
        lo, hi, mids = theta_lo, theta_hi, []
        while (mid := midpoint(lo, hi)) is not None:
            if mid not in known:
                fill(levels(lo, hi, depth))
            mids.append(mid)
            lo, hi = (mid, hi) if solvable(known, mid) else (lo, mid)
        return lo, hi, mids

    predicted = {}  # theta -> the doubled map's verdict

    def predict(thetas: list) -> None:
        """The doubled map's verdicts, unsolvable also where P0 fails the first or the long-run gate.

        The gate is one stacked call on P0^-1 + C^T C - theta D^T D for every
        theta, then P0^-1 + Omega for each (Omega is 0 where there is no P*).
        """
        stack = np.array(thetas, dtype=float)
        _, _, _, verdict, Omega = doubled_fixed_points(model, stack)
        CtC, thDtD, _ = _map_products(model, stack)
        inner = start[2] + np.concatenate([CtC - thDtD, np.where(verdict[:, None, None], Omega, 0.0)])
        verdict[[i % len(thetas) for i in _require_spd_stack(inner, _INNER_GATE)[2]]] = False
        predicted.update(zip(thetas, verdict.tolist()))

    def probe(thetas: list) -> None:
        """Solve the thetas that have no verdict yet in one stacked call."""
        thetas = [t for t in thetas if t not in verdicts]
        for theta, outcome in zip(thetas, solve(thetas) if thetas else []):
            if isinstance(outcome, (ConeExitError, IterationLimitError)):
                verdicts[theta] = False
            else:
                verdicts[theta] = outcome if isinstance(outcome, Exception) else True

    predict([theta_hi, *levels(theta_lo, theta_hi, _PREDICTED_LEVELS)])
    path = [] if predicted[theta_hi] else walk(predicted, predict, _PREDICTED_LEVELS)[2]
    probe([theta_lo, theta_hi, *path])  # no path unless a breakdown is predicted in range
    if not solvable(verdicts, theta_lo):
        raise UsageError(f"theta_lo={theta_lo:.6e} is already unsolvable from this P0; "
                         f"pick a smaller lower end")
    if solvable(verdicts, theta_hi):
        return BreakdownResult(theta_hi, (theta_lo, theta_hi), found=False, evaluations=2)
    lo, hi, mids = walk(verdicts, probe, _SPECULATIVE_LEVELS)
    return BreakdownResult(0.5 * (lo + hi), (lo, hi), found=True, evaluations=2 + len(mids))
