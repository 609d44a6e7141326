"""State-space model container and the N-block (downsampled) machinery.

A model x_{t+1} = A x_t + B u_t, y_t = C x_t + v_t (unit noise
covariances) carries an extra penalty output D used by the
risk-sensitive estimation problem. Downsampling by a block length N
yields stacked reachability/observability matrices, block Toeplitz
impulse-response maps, and the risk-dependent Gramians Omega_N(theta)
and W_N(theta) whose positivity controls contraction of the N-fold
Riccati map. The thresholds computed here:

  theta_N  -- largest risk parameter keeping the whitened block input
              covariance positive definite,
  tau_N    -- first risk parameter at which the observability Gramian
              Omega_N(theta) becomes singular, in closed form (one
              eigensolve; see tau_N).

Both read lam_1 from the smaller Gram of an Nq-row square-root factor,
F = L chol(I + H^T H)^-T or [F, Y]; neither forms an Nq x Nq matrix.

The theta-free block matrices (R, O, O_R, H, L, J and the Grams
I + H H^T, I + H^T H) come from one private builder, shared by
`build_block_model`, `gramian_sweep`, `tau_N` and `theta_N`. The theta
half reads only Q = (I + H^T H - theta L^T L)^-1, whose gate is the one
test of theta < theta_N, through products of size Nm or smaller. A block
matrix that overflows double precision raises NumericalError before any
positivity gate reads it.

Stacking convention: block vectors put the NEWEST sample on top, and
the stacked observability matrix runs from C A^{N-1} on its top block
row down to C at the bottom. Every stack and Toeplitz map of one build
reads the same list of powers of A, so they cannot drift apart.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cone import _cone_exit, _require_spd_stack, _sym, require_spd, spectral
from .errors import ConeExitError, NumericalError, UsageError, check_finite

# Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class StateSpaceModel:
    """Constant-coefficient Gauss-Markov model with a risk penalty output.

    A: n x n dynamics, B: n x m process-noise input, C: p x n
    measurement output, D: q x n penalty output (full row rank, q <= n).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "D"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise UsageError(f"field {name!r} must be a 2-D matrix")
            if not np.all(np.isfinite(arr)):
                raise UsageError(f"field {name!r} contains non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise UsageError(f"field 'A' must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise UsageError(
                f"field 'B' must have {n} rows to match A, got {self.B.shape}"
            )
        if self.C.shape[1] != n:
            raise UsageError(
                f"field 'C' must have {n} columns to match A, got {self.C.shape}"
            )
        if self.D.shape[1] != n:
            raise UsageError(
                f"field 'D' must have {n} columns to match A, got {self.D.shape}"
            )
        if self.D.shape[0] > n:
            raise UsageError(
                f"field 'D' must have at most {n} rows, got {self.D.shape[0]}"
            )
        sv = np.linalg.svd(self.D, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise UsageError(
                f"field 'D' must have full row rank: singular values span "
                f"[{sv[-1]:.3e}, {sv[0]:.3e}]"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def q(self) -> int:
        return self.D.shape[0]


def load_model(text) -> StateSpaceModel:
    """Build a validated model from a JSON document (string or parsed dict).

    Keys "A", "B", "C" are required row-major arrays of arrays; "D" is
    optional and defaults to the identity.
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"model document is not valid JSON: {exc}") from exc
    else:
        doc = text
    if not isinstance(doc, dict):
        raise UsageError("model document must be a JSON object")
    for key in ("A", "B", "C"):
        if key not in doc:
            raise UsageError(f"model document is missing required field {key!r}")
    mats = {}
    for key in ("A", "B", "C", "D"):
        if key not in doc:
            continue
        try:
            mats[key] = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"field {key!r} is not a numeric matrix") from exc
    if "D" not in mats:
        mats["D"] = np.eye(np.asarray(mats["A"]).shape[0])
    return StateSpaceModel(A=mats["A"], B=mats["B"], C=mats["C"], D=mats["D"])


def _powers(A: np.ndarray, N: int) -> list[np.ndarray]:
    """[I, A, ..., A^{N-1}]; the one place that rejects a block length below 1."""
    if N < 1:
        raise UsageError(f"block length N must be >= 1, got {N}")
    out = [np.eye(A.shape[0])]
    for _ in range(N - 1):
        out.append(out[-1] @ A)
    return out


def _toeplitz(pw: list[np.ndarray], out: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Impulse Toeplitz map of one output matrix, from pw = _powers(A, N).

    It holds out A^{d-1} B on its delay-d block diagonal, blocks (i, i + d),
    d >= 1, and zero on and below the diagonal.
    """
    N = len(pw)
    T = np.zeros((N, out.shape[0], N, B.shape[1]))  # block (i, j) is T[i, :, j]
    for d in range(1, N):
        i = np.arange(N - d)
        T[i, :, i + d] = out @ pw[d - 1] @ B
    return T.reshape(N * out.shape[0], N * B.shape[1])


def _rank(M: np.ndarray) -> int:
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_RTOL * sv[0]))


def is_reachable(model: StateSpaceModel) -> bool:
    return _rank(np.hstack([P @ model.B for P in _powers(model.A, model.n)])) == model.n


def is_observable(model: StateSpaceModel) -> bool:
    return _rank(np.vstack([model.C @ P for P in _powers(model.A, model.n)])) == model.n


@dataclass(frozen=True)
class BlockModel:
    """All N-block, theta-dependent derived matrices of a model.

    R, O, O_R are the block reachability and observability stacks (of C
    and D), H and L the impulse Toeplitz maps to C and D, with block (i, j)
    out A^{j-i-1} B for j > i; J the penalty innovation map. These do not
    depend on theta, and this is their one public source. Q is the
    whitened block input covariance (I + H^T H - theta L^T L)^-1, Omega / W
    the theta-dependent observability and reachability Gramians, alpha the
    closed-loop block transition matrix and G_R = -theta Q L^T the block
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


# The theta-free N-block matrices; phi = I + H H^T is the
# measurement-block Gram, psi = I + H^T H and A_N = A^N.
_ThetaFree = namedtuple("_ThetaFree", "R O O_R H L phi psi phi_inv J A_N")


def _finite(N: int, name: str, X: np.ndarray) -> np.ndarray:
    """X, or NumericalError when this block matrix overflowed double precision.

    The model itself is finite, so a non-finite block matrix can only come
    from overflow; no gate may read it as a verdict on the model.
    """
    if not np.isfinite(X).all():
        raise NumericalError(
            f"block matrix {name} is not finite at block length N={N}: "
            f"the model overflows double precision"
        )
    return X


def _factor(N: int, name: str, factor, X: np.ndarray) -> np.ndarray:
    """factor(X) of the Gram X = name, I + H H^T or I + H^T H; NumericalError if it fails.

    Both Grams are at least I, so a failed inverse or Cholesky factor can
    only mean that rounding lost the identity in them: the entries of H
    grow like r(A)^N on an unstable model.
    """
    try:
        return factor(X)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"block matrix {name} cannot be factored at block length N={N}: "
            f"its identity is lost to rounding in double precision ({exc})"
        ) from exc


def _theta_free(model: StateSpaceModel, N: int) -> _ThetaFree:
    """The theta-free block matrices.

    I + H H^T and I + H^T H must be finite (an overflow in H shows on their
    diagonals); the other blocks reach the gates only through products that
    their readers check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pw = _powers(model.A, N)
        R = np.hstack([P @ model.B for P in pw])
        O = np.vstack([model.C @ P for P in reversed(pw)])
        O_R = np.vstack([model.D @ P for P in reversed(pw)])
        H, L = _toeplitz(pw, model.C, model.B), _toeplitz(pw, model.D, model.B)
        phi = _finite(N, "I + H H^T", np.eye(N * model.p) + H @ H.T)
        psi = _finite(N, "I + H^T H", np.eye(N * model.m) + H.T @ H)
        phi_inv = _sym(_factor(N, "I + H H^T", np.linalg.inv, phi))
        X = L @ H.T @ phi_inv           # lower LDU coupling block
        J = O_R - X @ O
        A_N = pw[-1] @ model.A
    return _ThetaFree(R, O, O_R, H, L, phi, psi, phi_inv, J, A_N)


def _penalty_root(N: int, free: _ThetaFree) -> np.ndarray:
    """F = L chol(psi)^-T, Nq x Nm, so that F F^T = M = L psi^-1 L^T; psi = I + H^T H >= I."""
    return np.linalg.solve(_factor(N, "I + H^T H", np.linalg.cholesky, free.psi), free.L.T).T


def _threshold(N: int, name: str, X: np.ndarray) -> float:
    """1/lam_1(X X^T = name) from the smaller, finite Gram of X; +inf unless lam_1 > 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _finite(N, name, X.T @ X if X.shape[0] > X.shape[1] else X @ X.T)
    lam_1 = spectral(gram).eigenvalues[0]
    return 1.0 / lam_1 if lam_1 > 0.0 else math.inf


def theta_N(model: StateSpaceModel, N: int) -> float:
    """Positivity threshold of the whitened block input covariance.

    The reciprocal of the largest eigenvalue of
    M = L (I + H^T H)^{-1} L^T = F F^T, read from the smaller Gram of F
    (size min(Nq, Nm)); +inf when that eigenvalue vanishes (no
    feedthrough from the process noise to the penalty output).
    """
    return _threshold(N, "L (I + H^T H)^-1 L^T", _penalty_root(N, _theta_free(model, N)))


def _theta_half(N: int, free: _ThetaFree, thetas: np.ndarray):
    """Stacks Q, Omega and W over a 1-D array of theta, from one stacked gate.

    The first theta, in input order, whose psi - theta L^T L fails raises
    `require_spd`'s error. By push-through the inverse Schur complement of
    the stacked-noise Gram is S^-1 = -theta (I + theta L Q L^T), so
    Omega = O^T phi^-1 O - theta J^T J - theta^2 (L^T J)^T Q (L^T J).
    """
    k = thetas[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        LtL = _finite(N, "L^T L", free.L.T @ free.L)
        lam, U, errors = _require_spd_stack(free.psi - k * LtL, "Q_N^theta")
        if errors:
            i = min(errors)
            if isinstance(errors[i], ConeExitError):
                raise _cone_exit(f"Q_N^theta not positive definite at theta={thetas[i]:.6e} "
                                 f"(requires theta < theta_N)", lam[i].min(), lam[i].max())
            raise errors[i]
        Q = (U / lam[:, None, :]) @ U.swapaxes(1, 2)
        LtJ = free.L.T @ free.J
        Omega = _finite(N, "Omega_N(theta)", _sym(
            free.O.T @ free.phi_inv @ free.O - k * (free.J.T @ free.J) - k**2 * (LtJ.T @ Q @ LtJ)))
        W = _finite(N, "W_N(theta)", _sym(free.R @ Q @ free.R.T))
    return Q, Omega, W


def build_block_model(model: StateSpaceModel, N: int, theta: float = 0.0) -> BlockModel:
    """Assemble every N-block matrix at risk parameter theta.

    The theta half reads only Q = (I + H^T H - theta L^T L)^-1, whose
    positivity gate is exactly theta < theta_N; no Schur complement of the
    stacked-noise Gram is formed. The gain on the penalty output is
    G_R = -theta Q L^T, and alpha = A^N - R (H^T phi^-1 O + G_R J).
    """
    check_finite("theta", theta, nonnegative=True)
    free = _theta_free(model, N)
    R, O, O_R, H, L, _, _, phi_inv, J, A_N = free
    Q, Omega, W = (X[0] for X in _theta_half(N, free, np.array([theta])))
    with np.errstate(over="ignore", invalid="ignore"):
        G_R = -theta * Q @ L.T
        alpha = _finite(N, "alpha_N(theta)", A_N - R @ (H.T @ phi_inv @ O + G_R @ J))
    return BlockModel(N=N, theta=theta, R=R, O=O, O_R=O_R, H=H, L=L, Q=Q, J=J,
                      Omega=Omega, W=W, alpha=alpha, G_R=G_R)


def gramian_sweep(model: StateSpaceModel, N: int, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(Omega, W): Omega_N(theta) and W_N(theta) stacked over a 1-D array of theta.

    Both have shape (len(thetas), n, n) and equal `build_block_model`'s
    Gramians at each theta, from one theta-free build and one stacked
    positivity gate. Each theta must be finite and >= 0; the first theta,
    in input order, at or above theta_N raises the builder's DomainError.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise UsageError(f"thetas must be a 1-D array, got shape {thetas.shape}")
    for theta in thetas.tolist():
        check_finite("theta", theta, nonnegative=True)
    return _theta_half(N, _theta_free(model, N), thetas)[1:]


@dataclass(frozen=True)
class Thresholds:
    """A-priori risk-parameter thresholds at block length N.

    tau_N <= theta_N always; tau_is_capped records that tau_N reached
    theta_N, so tau_N reports theta_N rather than a singularity of Omega_N.
    tau_N is infinite only when no risk parameter makes Omega_N singular.
    """

    N: int
    theta_N: float
    tau_N: float
    tau_is_capped: bool


def tau_N(model: StateSpaceModel, N: int) -> Thresholds:
    """First risk parameter at which Omega_N(theta) becomes singular.

    For theta < theta_N, Omega_N(theta) = Omega_N(0) - J^T (I/theta - M)^{-1} J
    with M = L (I + H^T H)^{-1} L^T, so by a Schur complement it is
    positive definite exactly when 1/theta > lam_1(M + J Omega_N(0)^{-1} J^T).
    That matrix is X X^T, X = [F, Y] with M = F F^T as in theta_N and
    Y Y^T = J Omega_N(0)^{-1} J^T, so lam_1 comes from the smaller Gram of
    X, of size min(Nq, Nm + n). tau_N is its reciprocal (+inf when it
    vanishes), taken no larger than theta_N, which it can pass only by
    roundoff. M and Y Y^T do not change under x -> T x, so neither does
    tau_N. Omega_N(0) must pass the positivity gate: the pair (C, A) must
    be observable.
    """
    free = _theta_free(model, N)
    F = _penalty_root(N, free)
    th_N = _threshold(N, "L (I + H^T H)^-1 L^T", F)
    with np.errstate(over="ignore", invalid="ignore"):
        omega0 = _finite(N, "Omega_N(0)", _sym(free.O.T @ free.phi_inv @ free.O))
    require_spd(omega0, f"pair (C, A) not observable at block length N={N}: "
                        f"Omega_N(0) is singular")
    # Y Y^T = J Omega_N(0)^{-1} J^T with Y = J R^{-1}, where Z = QR and
    # Omega_N(0) = Z^T Z for Z = phi^{-1/2} O, phi = I + H H^T. Working on Z
    # loses eps * sqrt(cond(Omega_N(0))), not eps * cond(Omega_N(0)).
    root = _factor(N, "I + H H^T", np.linalg.cholesky, free.phi)
    R = np.linalg.qr(np.linalg.solve(root, free.O), mode="r")
    Y = np.linalg.solve(R.T, free.J.T).T
    tau = _threshold(N, "M + J Omega_N(0)^-1 J^T", np.hstack([F, Y]))
    return Thresholds(N=N, theta_N=th_N, tau_N=min(tau, th_N), tau_is_capped=bool(tau >= th_N))
