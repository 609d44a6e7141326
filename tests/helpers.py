"""Shared models, random-instance generators and plain-numpy oracles for the tests."""

import math
from typing import NamedTuple

import numpy as np

from rsriccati import (
    ConeExitError,
    DomainError,
    IterationLimitError,
    RiccatiStep,
    SpectralDecomposition,
    StateSpaceModel,
    UsageError,
    fixed_point,
    is_observable,
    is_reachable,
    rs_gain,
    spectral,
)
from rsriccati.cone import _require_spd_stack, _sym, require_spd, symmetrize
from rsriccati.riccati import _gain_form, _kalman_form, _map_products, _map_step, _validity
from rsriccati.statespace import _theta_free

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


def congruent(model, T):
    """The model in the state coordinates x -> T x."""
    T_inv = np.linalg.inv(T)
    return StateSpaceModel(A=T @ model.A @ T_inv, B=T @ model.B, C=model.C @ T_inv,
                           D=model.D @ T_inv)


def transforms(n=2, conds=(1.0, 1e2, 1e3)):
    """20 seeded n x n T per cond(T) in conds, then 1e-6 I and 1e6 I."""
    out = []
    for cond in conds:
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            out.append(Q1 @ np.diag(np.geomspace(cond, 1.0, n)) @ Q2)
    return out + [1e-6 * np.eye(n), 1e6 * np.eye(n)]


def loewner_leq(P, Q, tol: float = 1e-10) -> bool:
    """Loewner order check P <= Q: smallest eigenvalue of Q - P >= -tol."""
    P = symmetrize(P)
    Q = symmetrize(Q)
    if P.shape != Q.shape:
        raise UsageError(f"dimension mismatch: {P.shape[0]} vs {Q.shape[0]}")
    return bool(spectral(Q - P).eigenvalues[-1] >= -tol)


def spd_inv(P) -> np.ndarray:
    """Inverse of an SPD matrix through its gated eigendecomposition."""
    return require_spd(P, "spd_inv input must be positive definite").inverse()


def safe_theta(model, P, fraction=0.25):
    """A risk parameter keeping P^-1 - theta D^T D comfortably positive."""
    lam_min_Pinv = 1.0 / np.max(np.linalg.eigvalsh(P))
    lam_max_DtD = np.max(np.linalg.eigvalsh(model.D.T @ model.D))
    return fraction * lam_min_Pinv / lam_max_DtD


def spectral_radius(F):
    """Largest eigenvalue modulus of a (not necessarily symmetric) matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def spd_log(P):
    """Matrix logarithm of an SPD matrix (symmetric, not necessarily definite)."""
    lam, U = require_spd(P, "spd_log input must be positive definite")
    return (U * np.log(lam)) @ U.T


def series_sigma(F, Q, rho):
    """sum_k rho^2k F^k Q F^kT, summed until a term is below 1e-16 of the total.

    The Lyapunov solution Sigma = rho^2 F Sigma F^T + Q whenever rho F is
    stable, and exact when F is nilpotent.
    """
    term, total = Q.copy(), Q.copy()
    while np.linalg.norm(term) > 1e-16 * np.linalg.norm(total):
        term = rho**2 * (F @ term @ F.T)
        total += term
    return total


def mp_sigma(model, G, rho):
    """Sigma = rho^2 F Sigma F^T + BB^T + GG^T, F = A - GC, in 50-digit arithmetic.

    Solved as the Kronecker system (I - rho^2 F (x) F) vec Sigma = vec Q from
    the double inputs taken exactly, then rounded to double.
    """
    import mpmath

    with mpmath.workdps(50):
        A, B, C, G = (mpmath.matrix(np.asarray(X, dtype=float).tolist())
                      for X in (model.A, model.B, model.C, G))
        F, Q, n = A - G * C, B * B.T + G * G.T, model.n
        r2 = mpmath.mpf(float(rho)) ** 2
        M = mpmath.matrix(n * n, n * n)
        for i, j, k, l in np.ndindex(n, n, n, n):
            M[i * n + j, k * n + l] = (i == k and j == l) - r2 * F[i, k] * F[j, l]
        x = mpmath.lu_solve(M, mpmath.matrix([Q[i, j] for i, j in np.ndindex(n, n)]))
        return np.array([float(v) for v in x]).reshape(n, n)


def mp_fixed_point(model, theta, P, dps=40):
    """P* = A (P*^-1 + S)^-1 A^T + B B^T, S = C^T C - theta D^T D, to `dps` digits.

    Newton's method from P, the double inputs taken exactly: each step
    solves the Stein equation X - F X F^T = f(P), F = A (I + P S)^-1 the
    map's derivative at P, as one Kronecker system, until the step is below
    10^-(dps - 5) of P. It converges to the fixed point near P. Needs mpmath.
    """
    import mpmath

    with mpmath.workdps(dps):
        A, B, C, D, P = (mpmath.matrix(np.asarray(X, dtype=float).tolist())
                         for X in (model.A, model.B, model.C, model.D, P))
        n, S = model.n, C.T * C - mpmath.mpf(float(theta)) * (D.T * D)
        for _ in range(20):
            F = A * mpmath.inverse(mpmath.eye(n) + P * S)
            f = F * P * A.T + B * B.T - P  # A (P^-1 + S)^-1 A^T = A (I + P S)^-1 P A^T
            M = mpmath.matrix(n * n, n * n)
            for i, j, k, l in np.ndindex(n, n, n, n):
                M[i * n + j, k * n + l] = (i == k and j == l) - F[i, k] * F[j, l]
            x = mpmath.lu_solve(M, mpmath.matrix([f[i, j] for i, j in np.ndindex(n, n)]))
            P += mpmath.matrix([[x[i * n + j] for j in range(n)] for i in range(n)])
            if mpmath.mnorm(x, 1) <= mpmath.mpf(10) ** (5 - dps) * mpmath.mnorm(P, 1):
                return np.array(((P + P.T) / 2).tolist(), dtype=float)
    raise AssertionError(f"Newton's method did not settle at theta={theta}")


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


def _closed_form(model: StateSpaceModel, theta: float):
    """(P*(theta), solvable) from the map's 2n x 2n matrix, or None when A is singular.

    With S = C^T C - theta D^T D and P = U V^-1 the map is [U; V] -> M [U; V],
    M = [[A + B B^T A^-T S, B B^T A^-T], [A^-T S, A^-T]] (Anderson & Moore,
    *Optimal Filtering*, 1979), so the straight iteration is subspace
    iteration on M and P* = U V^-1 comes from its n eigenvectors of largest
    modulus. solvable predicts the fixed-point verdict at theta: P* is real
    and positive definite, the gap |lambda_n| > |lambda_n+1| is open and
    V at P* is valid, theta lambda_1(D P* D^T) < 1. It never sees the
    iterates of a given start. numpy has no QZ, so a singular A gets None.
    """
    try:
        Ait = np.linalg.inv(model.A).T
    except np.linalg.LinAlgError:
        return None
    CtC, thDtD, BBt = _map_products(model, np.array([theta], dtype=float))
    n, S, G = model.n, CtC - thDtD[0], BBt @ Ait
    with np.errstate(all="ignore"):
        try:
            lam, X = np.linalg.eig(np.block([[model.A + G @ S, G], [Ait @ S, Ait]]))
            order = np.argsort(-np.abs(lam))
            P = np.linalg.solve(X[n:, order[:n]].T, X[:n, order[:n]].T).T  # U V^-1
            P_real = _sym(P.real)
            return P_real, bool(
                np.abs(P.imag).max() <= 1e-8 * np.abs(P_real).max()
                and abs(lam[order[n - 1]]) > abs(lam[order[n]])
                and np.linalg.eigvalsh(P_real)[0] > 0.0
                and theta * np.linalg.eigvalsh(model.D @ P_real @ model.D.T)[-1] < 1.0)
        except np.linalg.LinAlgError:
            return None, False


def sequential_bisection(model, theta_lo, theta_hi, P0, tol):
    """(bracket, evaluations) of a plain bisection with one `fixed_point` probe per point.

    Both ends count as evaluations; theta_lo must be solvable and theta_hi not.
    """
    def solvable(theta):
        try:
            fixed_point(model, theta, P0)
        except (ConeExitError, IterationLimitError):
            return False
        return True

    assert solvable(theta_lo) and not solvable(theta_hi)
    lo, hi, evaluations = theta_lo, theta_hi, 2
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        evaluations += 1
        lo, hi = (mid, hi) if solvable(mid) else (lo, mid)
    return (lo, hi), evaluations


def kalman_gain_oracle(model, P):
    """(K, R_nu) = (A P C^T R_nu^-1, C P C^T + I) by plain numpy."""
    R_nu = model.C @ P @ model.C.T + np.eye(model.p)
    return model.A @ P @ model.C.T @ np.linalg.inv(R_nu), R_nu


class BlockModel(NamedTuple):
    """Every N-block matrix of a model at one theta, by the Nq-sized route.

    R, O, O_R are the block reachability and observability stacks (of C
    and D), H and L the impulse Toeplitz maps to C and D, with block (i, j)
    out A^{j-i-1} B for j > i, and J the penalty innovation map. Q is the
    whitened block input covariance (I + H^T H - theta L^T L)^-1, Omega and
    W the theta-dependent observability and reachability Gramians, alpha
    the closed-loop block transition matrix and G_R = -theta Q L^T the block
    gain on the penalty output, which vanishes at theta = 0.
    """

    N: int
    theta: float
    R: np.ndarray
    O: np.ndarray
    O_R: np.ndarray
    H: np.ndarray
    L: np.ndarray
    Q: np.ndarray
    J: np.ndarray
    Omega: np.ndarray
    W: np.ndarray
    alpha: np.ndarray
    G_R: np.ndarray


def build_block_model(model, N, theta=0.0):
    """The dense oracle: every N-block matrix through Nq-sized products.

    The theta-free blocks come from the library's `_theta_free`, which
    `tau_N` reads. R, A^N and the theta half are plain numpy: Q's gate is
    theta < theta_N, Omega = O^T phi^-1 O - theta J^T J
    - theta^2 (L^T J)^T Q (L^T J) with phi = I + H H^T, W = R Q R^T, and
    alpha = A^N - R (H^T phi^-1 O + G_R J). It loses relative accuracy as
    r(A)^N grows; `block_map` does not.
    """
    free = _theta_free(model, N)
    pw = [np.eye(model.n)]
    for _ in range(N):
        pw.append(pw[-1] @ model.A)
    R = np.hstack([P @ model.B for P in pw[:N]])
    lam, U = require_spd(free.psi - theta * (free.L.T @ free.L),
                         f"Q_N^theta not positive definite at theta={theta:.6e} "
                         f"(requires theta < theta_N)")
    Q = (U / lam) @ U.T
    LtJ = free.L.T @ free.J
    Omega = (free.O.T @ free.phi_inv @ free.O - theta * (free.J.T @ free.J)
             - theta**2 * (LtJ.T @ Q @ LtJ))
    W = R @ Q @ R.T
    G_R = -theta * Q @ free.L.T
    alpha = pw[N] - R @ (free.H.T @ free.phi_inv @ free.O + G_R @ free.J)
    return BlockModel(N, theta, R, free.O, free.O_R, free.H, free.L, Q, free.J,
                      0.5 * (Omega + Omega.T), 0.5 * (W + W.T), alpha, G_R)


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


def dense_gramians(block):
    """(Omega, W) by the dense route through `stacked_noise_gram(block)` = K.

    Omega = S^T K^-1 S with S = [O; O_R], and W = R (I - G^T K^-1 G) R^T with
    G = [H; L], which is R Q R^T by Woodbury. At theta = 0 only the measurement
    block I + H H^T of K remains, with S = O and G = H.
    """
    if block.theta > 0.0:
        K = stacked_noise_gram(block)
        S, G = np.vstack([block.O, block.O_R]), np.vstack([block.H, block.L])
    else:
        K, S, G = np.eye(block.H.shape[0]) + block.H @ block.H.T, block.O, block.H
    W = block.R @ (np.eye(G.shape[1]) - G.T @ np.linalg.solve(K, G)) @ block.R.T
    return S.T @ np.linalg.solve(K, S), W


def mp_block_gains(model, N, theta):
    """(G_R, alpha) in 50-digit arithmetic, from A, B, C, D by the Schur-complement formulas.

    G_R = psi^-1 L^T S^-1 with psi = I + H^T H and S = -I/theta + L psi^-1 L^T, and
    alpha = A^N - R (G O + G_R O_R) with G = (I - G_R L) H^T (I + H H^T)^-1; theta > 0.
    """
    import mpmath

    def inv(X):
        return np.array(mpmath.inverse(mpmath.matrix(X.tolist())).tolist(), dtype=object)

    def eye(k):
        return np.array(mpmath.eye(k).tolist(), dtype=object)

    with mpmath.workdps(50):
        A, B, C, D = (np.array([[mpmath.mpf(x) for x in row] for row in X], dtype=object)
                      for X in (model.A, model.B, model.C, model.D))
        pw = [eye(model.n)]
        for _ in range(N):
            pw.append(pw[-1] @ A)

        def toeplitz(out):
            zero = 0 * (out @ B)
            return np.block([[out @ pw[j - i - 1] @ B if j > i else zero for j in range(N)]
                             for i in range(N)])

        R = np.hstack([P @ B for P in pw[:N]])
        O, O_R = (np.vstack([X @ P for P in reversed(pw[:N])]) for X in (C, D))
        H, L = toeplitz(C), toeplitz(D)
        psi_inv = inv(eye(H.shape[1]) + H.T @ H)
        S = L @ psi_inv @ L.T - eye(L.shape[0]) / mpmath.mpf(theta)
        G_R = psi_inv @ L.T @ inv(S)
        G = (eye(H.shape[1]) - G_R @ L) @ H.T @ inv(eye(H.shape[0]) + H @ H.T)
        alpha = pw[N] - R @ (G @ O + G_R @ O_R)
        return G_R.astype(float), alpha.astype(float)


def mp_block_map(model, N, theta, dps=60):
    """(alpha, Omega, W, coefficient) of the N-fold map in `dps`-digit arithmetic.

    The one-step triple (A, C^T C - theta D^T D, B B^T) composed with itself
    one step at a time, N - 1 times, with X = I + W Omega_1 inverted at each
    step; the coefficient is b/(1 + b) with b = lam_1(K^-1 alpha Omega^-1
    alpha^T K^-T) for W = K K^T. Needs mpmath; theta < theta_N.
    """
    import mpmath

    with mpmath.workdps(dps):
        A, B, C, D = (mpmath.matrix(X.tolist()) for X in (model.A, model.B, model.C, model.D))
        Omega_1, W_1 = C.T * C - mpmath.mpf(theta) * (D.T * D), B * B.T
        alpha, Omega, W = A, Omega_1, W_1
        for _ in range(N - 1):
            X_inv = mpmath.inverse(mpmath.eye(model.n) + W * Omega_1)
            alpha, Omega, W = (A * X_inv * alpha, Omega + alpha.T * Omega_1 * X_inv * alpha,
                               W_1 + A * X_inv * W * A.T)
        K_inv = mpmath.inverse(mpmath.cholesky((W + W.T) / 2))
        M = K_inv * alpha * mpmath.inverse((Omega + Omega.T) / 2) * alpha.T * K_inv.T
        b = max(mpmath.eigsy((M + M.T) / 2, eigvals_only=True))
        return (*(np.array(X.tolist(), dtype=float) for X in (alpha, Omega, W)),
                float(b / (1 + b)))


def dense_thresholds(model, N):
    """(theta_N, tau_N, tau_is_capped) by the dense route, through Nq x Nq matrices.

    theta_N = 1/lam_1(M), M = L (I + H^T H)^-1 L^T, and tau_N = 1/lam_1(M + Y Y^T)
    capped at theta_N, with Y Y^T = J Omega_N(0)^-1 J^T from the QR factor of
    (I + H H^T)^{-1/2} O; +inf where an eigenvalue is not positive.
    """
    block = build_block_model(model, N)
    H, L, O, J = block.H, block.L, block.O, block.J
    phi = np.eye(H.shape[0]) + H @ H.T
    M = symmetrize(L @ np.linalg.solve(np.eye(H.shape[1]) + H.T @ H, L.T))
    R = np.linalg.qr(np.linalg.solve(np.linalg.cholesky(phi), O), mode="r")
    Y = np.linalg.solve(R.T, J.T).T
    theta, tau = (1.0 / lam if lam > 0.0 else math.inf
                  for lam in (spectral(M).eigenvalues[0], spectral(M + Y @ Y.T).eigenvalues[0]))
    return theta, min(tau, theta), bool(tau >= theta)


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


def rs_riccati_gain_form(model, theta, P):
    """Gain form (A-KC) V (A-KC)^T + B B^T + K K^T of the risk-sensitive update."""
    K, _, V = rs_gain(model, theta, P)
    return _gain_form(model, K, V)


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


def reference_filter(model, theta, P0, x0_hat, observations):
    """`run_filter` and `iterate_trajectory` without the repeat shortcut.

    Every step gates its own V^-1 through `_validity` and calls `_map_step`,
    and forms its gain from its own V, however often the state repeats. Returns (records, estimates,
    innovations, violation_step) shaped as `iterate_trajectory` over
    len(observations) steps and `run_filter` return them.
    """
    T = len(observations)
    estimates = np.empty((T + 1, model.n))
    estimates[0] = np.asarray(x0_hat, dtype=float).ravel()
    innovations = np.empty((T, model.p))
    records = []
    P = symmetrize(P0)
    lam, U, errors = _require_spd_stack(P[None], "trajectory iterate not positive definite")
    for t in range(T + 1):
        if errors:
            records.append(RiccatiStep(t, P, "cone_exit", lam[0], None))
            return records, estimates[: t + 1], innovations[:t], t
        P_inv = (U[0] / lam[0]) @ U[0].T
        lam_V, U_V, failed = _validity(model, np.array([theta], dtype=float), P_inv[None])
        if failed:
            if not isinstance(failed[0], ConeExitError):
                raise failed[0]
            records.append(RiccatiStep(t, P, "v_violation", lam[0], None))
            return records, estimates[: t + 1], innovations[:t], t
        V_dec = SpectralDecomposition(lam_V[0], U_V[0])
        records.append(RiccatiStep(t, P, "ok", lam[0], 1.0 / V_dec.eigenvalues[::-1]))
        if t < T:
            K, _ = _kalman_form(model, V_dec.inverse())
            innovations[t] = observations[t] - model.C @ estimates[t]
            estimates[t + 1] = model.A @ estimates[t] + K @ innovations[t]
            P_next, lam, U, errors = _map_step(model, np.array([theta]), P_inv[None])
            P = P_next[0].copy()
    return records, estimates, innovations, None


def first_repeat(records):
    """First t with records[t + 1].P bitwise equal to records[t].P, or None."""
    return next((t for t, (a, b) in enumerate(zip(records, records[1:]))
                 if np.array_equal(a.P, b.P)), None)
