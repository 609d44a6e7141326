"""Synthetic Gauss-Markov data and filter execution.

Reproducibility contract: all randomness comes from numpy's PCG64
generator seeded through SeedSequence(seed).spawn(3), one substream per
noise source in the fixed order (initial state, process noise,
measurement noise). Replaying a seed reproduces runs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cone import spd_sqrt
from .errors import DomainError, NumericalError, UsageError, check_finite
from .riccati import _kalman_form, _trajectory
from .statespace import StateSpaceModel


@dataclass(frozen=True)
class SimulationRun:
    """One simulated trajectory with every noise draw recorded.

    states holds x_0..x_T (shape (T+1, n)); observations y_0..y_{T-1}
    (shape (T, p)); process_noise and measurement_noise the u_t and v_t
    draws that generated them.
    """

    seed: int
    T: int
    states: np.ndarray
    observations: np.ndarray
    process_noise: np.ndarray
    measurement_noise: np.ndarray


def simulate(
    model: StateSpaceModel,
    T: int,
    seed: int,
    x0_mean=None,
    P0=None,
) -> SimulationRun:
    """Simulate x_{t+1} = A x_t + B u_t, y_t = C x_t + v_t for T steps.

    x_0 is drawn from N(x0_mean, P0) by coloring a standard normal draw
    with the symmetric square root of P0; u_t and v_t are independent
    standard normal. Every B u_t is formed in one stacked call before the
    loop and every C x_t + v_t in one after it, so the loop carries only
    x_{t+1} = A x_t + (B u_t); each row is the same gemv, and so the same
    bits, as the per-step product. An unstable A whose states, or their
    observations, overflow double precision raises NumericalError naming
    the first such step.
    """
    if T < 1:
        raise DomainError(f"horizon T must be >= 1, got {T}")
    n, m, p = model.n, model.m, model.p
    x0_mean = np.zeros(n) if x0_mean is None else _state_vector("x0_mean", x0_mean, n)
    root = spd_sqrt(np.eye(n) if P0 is None else P0)

    ss_x0, ss_u, ss_v = np.random.SeedSequence(seed).spawn(3)
    gen_x0 = np.random.Generator(np.random.PCG64(ss_x0))
    gen_u = np.random.Generator(np.random.PCG64(ss_u))
    gen_v = np.random.Generator(np.random.PCG64(ss_v))

    u = gen_u.standard_normal((T, m))
    v = gen_v.standard_normal((T, p))
    z0 = gen_x0.standard_normal(n)

    # a stacked (T, m, 1) product is one gemv per row, the bits of B @ u[t]
    Bu = (model.B @ u[:, :, None])[..., 0]
    states = np.empty((T + 1, n))
    states[0] = x = x0_mean + root @ z0
    A = model.A
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            # ndarray.dot is the gemv of A @ x, the same bits, at less cost per call
            states[t + 1] = x = A.dot(x) + Bu[t]
        observations = (model.C @ states[:T, :, None])[..., 0] + v
    _finite_rows("simulated state", states)
    _finite_rows("simulated observation", observations)
    return SimulationRun(
        seed=seed,
        T=T,
        states=states,
        observations=observations,
        process_noise=u,
        measurement_noise=v,
    )


@dataclass(frozen=True)
class FilterRun:
    """Output of a filter or observer pass over an observation record.

    estimates holds the predicted state estimates (one more row than
    observations); innovations the one-step prediction errors y_t -
    C x_hat_t. P_sequence carries the Riccati iterates for gain-based
    filters (empty for the fixed-gain observer). violation_step flags
    the first step whose `RiccatiStep` status is not "ok" (the run stops
    there); rmse is per-component against the supplied truth, when given.
    """

    estimates: np.ndarray
    innovations: np.ndarray
    P_sequence: list[np.ndarray]
    rmse: Optional[np.ndarray]
    violation_step: Optional[int]


def _rmse(estimates: np.ndarray, truth) -> Optional[np.ndarray]:
    if truth is None:
        return None
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 2 or truth.shape[1] != estimates.shape[1]:
        raise UsageError(f"truth must have shape (T + 1, {estimates.shape[1]}), got {truth.shape}")
    rows = min(len(estimates), len(truth))
    err = estimates[:rows] - truth[:rows]
    return np.sqrt(np.mean(err**2, axis=0))


def _finite_rows(what: str, X: np.ndarray) -> np.ndarray:
    """X, or NumericalError naming its first non-finite row (a step).

    X is filled under np.errstate from finite inputs, so a non-finite row
    can only come from a recursion that overflowed; this one check after
    the loop reports it.
    """
    if not np.isfinite(X).all():
        t = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise NumericalError(f"{what} is not finite at step {t}: "
                             f"the recursion overflows double precision")
    return X


def _state_vector(name: str, x, n: int) -> np.ndarray:
    """A caller's length-n state vector (any shape with n entries), finite."""
    x = np.asarray(x, dtype=float)
    if x.size != n:
        raise UsageError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite, got {x.ravel()}")
    return x.ravel()


def _observation_record(model: StateSpaceModel, observations) -> np.ndarray:
    """A caller's observations as a nonempty, finite (T, p) array."""
    observations = np.asarray(observations, dtype=float)
    if observations.ndim != 2 or observations.shape[1] != model.p:
        raise UsageError(
            f"observations must have shape (T, {model.p}), one row per step, "
            f"got {observations.shape}"
        )
    if observations.shape[0] == 0:
        raise DomainError("observations must be nonempty")
    bad = np.flatnonzero(~np.isfinite(observations).all(axis=1))
    if bad.size:
        raise DomainError(f"observations must be finite; row {bad[0]} is {observations[bad[0]]}")
    return observations


def _estimate(model: StateSpaceModel, gains: list, index: list, x0_hat,
              observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_hat_{t+1} = A x_hat_t + gains[index[t]] (y_t - C x_hat_t) for t < len(index).

    The one estimate recursion of every filter and observer: gains is a
    list of (n, p) gains, index a list of positions in it. The loop carries
    x_hat and the innovation nu_t = y_t - C x_hat_t in locals and writes
    each into its row. Returns the estimates (len(index) + 1 rows) and the
    innovations (len(index) rows); NumericalError, naming the first step,
    when an unstable recursion overflows double precision.
    """
    T = len(index)
    estimates = np.empty((T + 1, model.n))
    estimates[0] = x = x0_hat
    innovations = np.empty((T, model.p))
    A, C = model.A, model.C
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (y, k) in enumerate(zip(observations, index)):
            # ndarray.dot is the gemv of M @ x, the same bits, at less cost per call
            innovations[t] = nu = y - C.dot(x)
            estimates[t + 1] = x = A.dot(x) + gains[k].dot(nu)
    return _finite_rows("state estimate", estimates), innovations


def run_filter(
    model: StateSpaceModel,
    theta: float,
    P0,
    x0_hat,
    observations,
    truth=None,
) -> FilterRun:
    """Predicted-form filter with per-step risk-sensitive gains.

    theta = 0 is the Kalman filter. observations has shape (T, p) and
    must be finite; x0_hat has n entries. P_sequence and violation_step
    are the iterates and the final status of `iterate_trajectory` over T
    steps, from the same records. On a violation the run aborts in-band:
    estimates computed so far are returned with violation_step set. The
    gains do not depend on the observations, so they come from the stacked
    V decomposition `riccati._trajectory` hands back with its records, one
    per "ok" step before T: the loop ends where its state repeats bitwise
    or its step distance stalls at the roundoff floor. Without a violation,
    the rest of P_sequence is filled with copies of the last P and the rest
    of the gain index with its row. Every gain is formed in one stacked
    call; the estimate recursion then runs. Every output is the same bits
    as a per-step gain would give until the stall rule fires, and within
    the floor c * eps * cond(P) after.
    """
    check_finite("theta", theta, nonnegative=True)
    observations = _observation_record(model, observations)
    x0_hat = _state_vector("x0_hat", x0_hat, model.n)
    T = len(observations)
    steps, lam, U = _trajectory(model, theta, P0, T)
    P_sequence = [step.P for step in steps]
    violation = None if steps[-1].status == "ok" else steps[-1].t
    lam, U = lam[:T], U[:T]  # the V decomposition of each step before T
    index = list(range(len(lam)))  # step -> its decomposition's row
    if violation is None:  # settled or at T: every later step repeats the last
        P_sequence += [P_sequence[-1].copy() for _ in range(len(P_sequence), T + 1)]
        index += [index[-1]] * (T - len(index))
    K, _ = _kalman_form(model, (U / lam[:, None, :]) @ U.swapaxes(1, 2))
    estimates, innovations = _estimate(model, list(K), index, x0_hat, observations)
    return FilterRun(
        estimates=estimates,
        innovations=innovations,
        P_sequence=P_sequence,
        rmse=_rmse(estimates, truth),
        violation_step=violation,
    )


def run_observer(
    model: StateSpaceModel,
    G,
    x0_hat,
    observations,
    truth=None,
) -> FilterRun:
    """Fixed-gain suboptimal observer x_hat_{t+1} = A x_hat_t + G (y_t - C x_hat_t).

    observations has shape (T, p) and must be finite; x0_hat has n entries.
    """
    G = np.asarray(G, dtype=float)
    if G.size != model.n * model.p:
        raise UsageError(f"G must have shape ({model.n}, {model.p}), got {G.shape}")
    G = G.reshape(model.n, model.p)
    observations = _observation_record(model, observations)
    x0_hat = _state_vector("x0_hat", x0_hat, model.n)
    estimates, innovations = _estimate(model, [G], [0] * len(observations), x0_hat, observations)
    return FilterRun(
        estimates=estimates,
        innovations=innovations,
        P_sequence=[],
        rmse=_rmse(estimates, truth),
        violation_step=None,
    )
