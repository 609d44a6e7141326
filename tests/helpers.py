"""Shared models, random-instance generators and plain-numpy oracles for the tests."""

import numpy as np

from rsriccati import DomainError, StateSpaceModel, is_observable, is_reachable, rs_gain, spectral
from rsriccati.cone import require_spd

# From P0 = I at theta = 1 - 1e-6, V^-1 = P0^-1 - theta I = 1e-6 I passes the
# gate, but the map's inner matrix diag(1e14, 1e-6) fails it: P_1 is never formed.
MAP_EXIT_JSON = '{"A": [[0.5,0.1],[0,0.5]], "B": [[1,0],[0,1]], "C": [[1e7,0]], "D": [[1,0],[0,1]]}'
MAP_EXIT_THETA = 1.0 - 1e-6


def random_spd(rng, n, lo=0.5, hi=2.0):
    """Random SPD matrix with eigenvalues log-uniform in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    return (Q * lam) @ Q.T


def random_nnd(rng, n, scale=1.0):
    """Random nonnegative definite matrix (possibly singular)."""
    M = rng.standard_normal((n, n - 1) if n > 1 else (1, 1))
    return scale * (M @ M.T)


def random_model(rng, n=2, m=2, p=1, radius=0.9):
    """Random reachable and observable model with D = I and |eig(A)| <= radius."""
    while True:
        A = rng.standard_normal((n, n))
        r = np.max(np.abs(np.linalg.eigvals(A)))
        if r > 0:
            A *= radius / r
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        model = StateSpaceModel(A=A, B=B, C=C, D=np.eye(n))
        if is_reachable(model) and is_observable(model):
            return model


def safe_theta(model, P, fraction=0.25):
    """A risk parameter keeping P^-1 - theta D^T D comfortably positive."""
    lam_min_Pinv = 1.0 / np.max(np.linalg.eigvalsh(P))
    lam_max_DtD = np.max(np.linalg.eigvalsh(model.D.T @ model.D))
    return fraction * lam_min_Pinv / lam_max_DtD


def fixed_point_oracle(model, theta, P0, tol=1e-12, max_iter=100_000):
    """P* by plain straight iteration: np.linalg.inv, no positivity gate.

    Stops once an iterate moves by at most tol relative to its norm.
    """
    A, B, C, D = model.A, model.B, model.C, model.D
    P = np.asarray(P0, dtype=float)
    for _ in range(max_iter):
        P_next = A @ np.linalg.inv(np.linalg.inv(P) + C.T @ C - theta * D.T @ D) @ A.T + B @ B.T
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P) <= tol * np.linalg.norm(P_next):
            return P_next
        P = P_next
    raise AssertionError(f"oracle did not converge within {max_iter} iterations at theta={theta}")


def kalman_gain_oracle(model, P):
    """(K, R_nu) = (A P C^T R_nu^-1, C P C^T + I) by plain numpy."""
    R_nu = model.C @ P @ model.C.T + np.eye(model.p)
    return model.A @ P @ model.C.T @ np.linalg.inv(R_nu), R_nu


def stacked_noise_gram(block):
    """Dense Gram matrix K of the stacked noise at block.theta > 0.

    [[I + H H^T, H L^T], [L H^T, -I/theta + L L^T]]; `build_block_model`
    never forms it, and it has no finite value at theta = 0.
    """
    H, L = block.H, block.L
    return np.block([
        [np.eye(H.shape[0]) + H @ H.T, H @ L.T],
        [L @ H.T, -np.eye(L.shape[0]) / block.theta + L @ L.T],
    ])


def ldu_factors(block):
    """Block LDU factors of `stacked_noise_gram(block)`: lower @ diag @ upper == K.

    The diagonal carries I + H H^T and the Schur complement
    S = -I/theta + L (I + H^T H)^-1 L^T of the measurement block.
    """
    H, L = block.H, block.L
    Np, Nq = H.shape[0], L.shape[0]
    phi = np.eye(Np) + H @ H.T
    X = L @ H.T @ np.linalg.inv(phi)
    S = -np.eye(Nq) / block.theta + L @ np.linalg.inv(np.eye(H.shape[1]) + H.T @ H) @ L.T
    lower = np.block([[np.eye(Np), np.zeros((Np, Nq))], [X, np.eye(Nq)]])
    diag = np.block([[phi, np.zeros((Np, Nq))], [np.zeros((Nq, Np)), S]])
    upper = np.block([[np.eye(Np), X.T], [np.zeros((Nq, Np)), np.eye(Nq)]])
    return lower, diag, upper


def rs_riccati_observer_form(model, theta, P, G):
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
    return 0.5 * (value + value.T)


def translation_coefficient(P, Q, S):
    """Non-expansiveness factor alpha/(alpha+beta) of P -> P + S on sampled arguments.

    alpha is the larger of the top eigenvalues of P and Q, beta the
    smallest eigenvalue of the nonnegative definite translation S.
    """
    lam_p = require_spd(P, "translation argument P must be positive definite").eigenvalues
    lam_q = require_spd(Q, "translation argument Q must be positive definite").eigenvalues
    lam_s = spectral(S).eigenvalues
    if lam_s[-1] < -1e-12:
        raise DomainError(
            f"translation S must be nonnegative definite: smallest eigenvalue "
            f"{lam_s[-1]:.6e}"
        )
    alpha = max(lam_p[0], lam_q[0])
    beta = max(lam_s[-1], 0.0)
    return alpha / (alpha + beta)
