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
from .errors import DomainError, check_finite
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
    zero_noise: bool = False,
) -> SimulationRun:
    """Simulate x_{t+1} = A x_t + B u_t, y_t = C x_t + v_t for T steps.

    x_0 is drawn from N(x0_mean, P0) by coloring a standard normal draw
    with the symmetric square root of P0; u_t and v_t are independent
    standard normal. `zero_noise` zeroes every draw (test hook for
    deterministic propagation).
    """
    if T < 1:
        raise DomainError(f"horizon T must be >= 1, got {T}")
    n, m, p = model.n, model.m, model.p
    x0_mean = np.zeros(n) if x0_mean is None else np.asarray(x0_mean, dtype=float).ravel()
    root = spd_sqrt(np.eye(n) if P0 is None else P0)

    ss_x0, ss_u, ss_v = np.random.SeedSequence(seed).spawn(3)
    gen_x0 = np.random.Generator(np.random.PCG64(ss_x0))
    gen_u = np.random.Generator(np.random.PCG64(ss_u))
    gen_v = np.random.Generator(np.random.PCG64(ss_v))

    u = gen_u.standard_normal((T, m))
    v = gen_v.standard_normal((T, p))
    z0 = gen_x0.standard_normal(n)
    if zero_noise:
        u = np.zeros_like(u)
        v = np.zeros_like(v)
        z0 = np.zeros_like(z0)

    states = np.empty((T + 1, n))
    states[0] = x0_mean + root @ z0
    observations = np.empty((T, p))
    for t in range(T):
        observations[t] = model.C @ states[t] + v[t]
        states[t + 1] = model.A @ states[t] + model.B @ u[t]
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
    rows = min(len(estimates), len(truth))
    err = estimates[:rows] - truth[:rows]
    return np.sqrt(np.mean(err**2, axis=0))


def run_filter(
    model: StateSpaceModel,
    theta: float,
    P0,
    x0_hat,
    observations,
    truth=None,
) -> FilterRun:
    """Predicted-form filter with per-step risk-sensitive gains.

    theta = 0 is the Kalman filter. P_sequence and violation_step are the
    iterates and the final status of `iterate_trajectory` over T steps,
    computed by the same loop. On a violation the run aborts in-band:
    estimates computed so far are returned with violation_step set.
    Once the loop's state repeats bitwise (see `riccati._trajectory`) it
    hands back the same V decomposition, and the gain is formed again only
    when that decomposition changes; every output is the same bits as a
    per-step gain would give. The estimate recursion runs every step.
    """
    check_finite("theta", theta, nonnegative=True)
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    if observations.shape[0] == 0:
        raise DomainError("observations must be nonempty")
    T = observations.shape[0]
    estimates = np.empty((T + 1, model.n))
    estimates[0] = np.asarray(x0_hat, dtype=float).ravel()
    innovations = np.empty((T, model.p))
    P_sequence = []
    violation = gain_dec = None
    for step, V_dec in _trajectory(model, theta, P0, T):
        t = step.t
        P_sequence.append(step.P)
        if V_dec is None:
            violation = t
        elif t < T:
            if V_dec is not gain_dec:
                K, _ = _kalman_form(model, V_dec.inverse())
                gain_dec = V_dec
            innovations[t] = observations[t] - model.C @ estimates[t]
            estimates[t + 1] = model.A @ estimates[t] + K @ innovations[t]
    steps = T if violation is None else violation
    return FilterRun(
        estimates=estimates[: steps + 1],
        innovations=innovations[:steps],
        P_sequence=P_sequence,
        rmse=_rmse(estimates[: steps + 1], truth),
        violation_step=violation,
    )


def run_observer(
    model: StateSpaceModel,
    G,
    x0_hat,
    observations,
    truth=None,
) -> FilterRun:
    """Fixed-gain suboptimal observer x_hat_{t+1} = A x_hat_t + G (y_t - C x_hat_t)."""
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    observations = np.atleast_2d(np.asarray(observations, dtype=float))
    if observations.shape[0] == 0:
        raise DomainError("observations must be nonempty")
    T = observations.shape[0]
    estimates = np.empty((T + 1, model.n))
    estimates[0] = np.asarray(x0_hat, dtype=float).ravel()
    innovations = np.empty((T, model.p))
    for t in range(T):
        innovations[t] = observations[t] - model.C @ estimates[t]
        estimates[t + 1] = model.A @ estimates[t] + G @ innovations[t]
    return FilterRun(
        estimates=estimates,
        innovations=innovations,
        P_sequence=[],
        rmse=_rmse(estimates, truth),
        violation_step=None,
    )
