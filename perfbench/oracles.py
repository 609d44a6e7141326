"""Reference values computed without the library under test.

Each oracle restates one defining formula in plain numpy, so a job's
output can be checked against a value the library did not produce:

- `riccati_fixed_point`: straight iteration of
  P -> A [P^-1 + C^T C - theta D^T D]^-1 A^T + B B^T with dense inverses.
- `filter_innovations`: the fixed-gain predicted-form recursion.
- `noise_draws`: the simulator's documented seeding contract
  (SeedSequence(seed).spawn(3): initial state, process, measurement).
- `thresholds`: theta_N = 1 / lam_1(L (I + H^T H)^-1 L^T) and tau_N as
  the smallest generalized eigenvalue theta in (0, theta_N) of the
  pencil that makes Omega_N(theta) = Omega_0 - theta J^T (I - theta M)^-1 J
  singular (a closed form in place of the library's bisection).
- `zero_pole_bound`: Ackermann's zero-pole observer gain, the Lyapunov
  bound by a Kronecker solve and the best beta_rho over a rho grid.
"""

from __future__ import annotations

import math

import numpy as np


def _sym(X):
    return 0.5 * (X + X.T)


def riccati_fixed_point(A, B, C, D, theta=0.0, max_iter=100_000):
    """Fixed point of the risk-sensitive map, iterated until it stops moving."""
    n = A.shape[0]
    BBt = B @ B.T
    inner = C.T @ C - theta * (D.T @ D)
    P = np.eye(n)
    for _ in range(max_iter):
        P_next = _sym(A @ np.linalg.inv(np.linalg.inv(P) + inner) @ A.T + BBt)
        if np.linalg.norm(P_next - P) <= 1e-15 * np.linalg.norm(P_next):
            return P_next
        P = P_next
    raise RuntimeError("reference fixed-point iteration did not settle")


def kalman_gain(A, C, P):
    """Predicted-form Kalman gain A P C^T (C P C^T + I)^-1 at variance P."""
    R = C @ P @ C.T + np.eye(C.shape[0])
    return A @ P @ C.T @ np.linalg.inv(R)


def filter_innovations(A, C, G, x0_hat, observations):
    """Innovations of x_{t+1} = A x_t + G (y_t - C x_t)."""
    x = np.asarray(x0_hat, dtype=float).copy()
    out = np.empty_like(observations)
    for t, y in enumerate(observations):
        out[t] = y - C @ x
        x = A @ x + G @ out[t]
    return out


def lag1_autocorrelation(nu):
    nu = np.asarray(nu, dtype=float).ravel()
    return float(np.dot(nu[:-1], nu[1:]) / np.dot(nu, nu))


def noise_draws(seed, T, n, m, p):
    """(z0, u, v) exactly as the simulator's seeding contract draws them."""
    ss_x0, ss_u, ss_v = np.random.SeedSequence(seed).spawn(3)
    u = np.random.Generator(np.random.PCG64(ss_u)).standard_normal((T, m))
    v = np.random.Generator(np.random.PCG64(ss_v)).standard_normal((T, p))
    z0 = np.random.Generator(np.random.PCG64(ss_x0)).standard_normal(n)
    return z0, u, v


def _block_matrices(A, B, C, D, N):
    """Stacked observability matrices and impulse Toeplitz maps, newest sample on top."""
    m = B.shape[1]
    pw = [np.eye(A.shape[0])]
    for _ in range(N):
        pw.append(pw[-1] @ A)
    offsets = range(N - 1, -1, -1)

    def toeplitz(out):
        rows = out.shape[0]
        T = np.zeros((N * rows, N * m))
        for i in range(N):
            for j in range(i + 1, N):
                T[i * rows:(i + 1) * rows, j * m:(j + 1) * m] = out @ pw[j - i - 1] @ B
        return T

    O = np.vstack([C @ pw[t] for t in offsets])
    O_R = np.vstack([D @ pw[t] for t in offsets])
    return O, O_R, toeplitz(C), toeplitz(D)


def thresholds(A, B, C, D, N):
    """(theta_N, tau_N, capped, cond) at block length N, mirroring the library's cap rule.

    cond is the condition number of Omega_N(0), which bounds how well
    any floating-point sign test on lam_min(Omega_N(theta)) can place tau_N.
    """
    O, O_R, H, L = _block_matrices(A, B, C, D, N)
    phi = np.eye(H.shape[0]) + H @ H.T
    psi = np.eye(H.shape[1]) + H.T @ H
    M = _sym(L @ np.linalg.solve(psi, L.T))
    mu = np.linalg.eigvalsh(M)[-1]
    theta_N = math.inf if mu < 1e-14 else 1.0 / mu
    Omega0 = _sym(O.T @ np.linalg.solve(phi, O))
    J = O_R - L @ H.T @ np.linalg.solve(phi, O)
    n, k = Omega0.shape[0], J.shape[0]
    # Omega_N(theta) x = 0 with w = (I - theta M)^-1 J x is the pencil
    # [[Omega0, 0], [-J, I]] z = theta [[0, J^T], [0, M]] z.
    lhs = np.block([[Omega0, np.zeros((n, k))], [-J, np.eye(k)]])
    rhs = np.block([[np.zeros((n, n)), J.T], [np.zeros((k, n)), M]])
    inv_theta = np.linalg.eigvals(np.linalg.solve(lhs, rhs))
    real = inv_theta[np.abs(inv_theta.imag) <= 1e-8 * np.abs(inv_theta)].real
    real = real[real > (mu * (1.0 + 1e-12) if math.isfinite(theta_N) else 0.0)]
    lam = np.linalg.eigvalsh(Omega0)
    cond = lam[-1] / lam[0]
    cap = theta_N if math.isfinite(theta_N) else 1e3 / lam[-1]
    if real.size == 0:
        return theta_N, cap, True, cond
    tau = 1.0 / real.max()
    return theta_N, tau, bool(tau >= (1.0 - 1e-5) * cap), cond


def zero_pole_gain(A, C):
    """Single-output gain placing every eigenvalue of A - GC at zero (Ackermann)."""
    n = A.shape[0]
    obs = np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    return (np.linalg.matrix_power(A, n) @ np.linalg.solve(obs, e_n)).reshape(n, 1)


def lyapunov(F, Q, rho):
    """Sigma = rho^2 F Sigma F^T + Q by one Kronecker-form solve."""
    n = F.shape[0]
    x = np.linalg.solve(np.eye(n * n) - rho**2 * np.kron(F, F), Q.ravel())
    return _sym(x.reshape(n, n))


def zero_pole_bound(A, B, C, D, rho_grid):
    """(beta, rho, residual) maximizing beta_rho over the grid at the zero-pole gain.

    residual is the largest Lyapunov residual of the grid's solves,
    relative to max(1, ||Sigma||). None when no rho in the grid is feasible.
    """
    G = zero_pole_gain(A, C)
    F = A - G @ C
    r = float(np.max(np.abs(np.linalg.eigvals(F))))
    Q = B @ B.T + G @ G.T
    best, worst = None, 0.0
    for rho in rho_grid:
        if rho <= 1.0 or rho * r >= 1.0:
            continue
        Sigma = lyapunov(F, Q, rho)
        residual = np.linalg.norm(Sigma - rho**2 * F @ Sigma @ F.T - Q)
        worst = max(worst, float(residual / max(1.0, np.linalg.norm(Sigma))))
        beta = (rho**2 - 1.0) / (rho**2 * np.linalg.eigvalsh(D @ Sigma @ D.T)[-1])
        if best is None or beta > best[0]:
            best = (float(beta), float(rho))
    return None if best is None else (*best, worst)
