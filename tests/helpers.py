"""Shared models and random-instance generators for the sampling-based tests."""

import numpy as np

from rsriccati import StateSpaceModel, is_observable, is_reachable

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
