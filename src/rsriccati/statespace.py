"""State-space model container and the N-block (downsampled) machinery.

A model x_{t+1} = A x_t + B u_t, y_t = C x_t + v_t (unit noise
covariances) carries an extra penalty output D used by the
risk-sensitive estimation problem. Downsampling by a block length N
yields the N-fold Riccati map P -> alpha (P^-1 + Omega)^-1 alpha^T + W,
whose risk-dependent Gramians Omega_N(theta) and W_N(theta) control its
contraction.

`block_map` gives that triple (alpha, Omega, W) at one theta or stacked
over an array of theta, by doubling the one-step map from n x n
products. It forms no block matrix, so it keeps its accuracy where
r(A)^N grows; `analyze` reads its contraction coefficient from it and
`paper-example` its Gramian sweep. Its composition (`_compose`) reports
the gate per stack entry, so `riccati.doubled_fixed_points` squares the
same triple until it settles. The thresholds `tau_N` returns:

  theta_N  -- largest risk parameter keeping the whitened block input
              covariance positive definite,
  tau_N    -- first risk parameter at which the observability Gramian
              Omega_N(theta) becomes singular, in closed form (one
              eigensolve; see tau_N).

Both read lam_1 from the smaller Gram of an Nq-row square-root factor,
F = L chol(I + H^T H)^-T or [F, Y]; neither forms an Nq x Nq matrix.
The theta-free block matrices they read (the observability stacks O,
O_R of C and D, the impulse Toeplitz maps H, L, the penalty innovation
map J and the Grams I + H H^T, I + H^T H) come from one private
builder. A block matrix that overflows double precision raises
NumericalError before any positivity gate reads it.

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
from typing import NamedTuple

import numpy as np

from .cone import _cone_exit, _positive, _sym, require_spd, spectral
from .errors import NumericalError, UsageError, check_finite

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


# The theta-free N-block matrices; phi = I + H H^T is the
# measurement-block Gram and psi = I + H^T H.
_ThetaFree = namedtuple("_ThetaFree", "O O_R H L phi psi phi_inv J")


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
    """factor(X) of X = name, I + H H^T, I + H^T H or I + W Omega; NumericalError if it fails.

    Both Grams are at least I, so a failed inverse or Cholesky factor can
    only mean that rounding lost the identity in them: the entries of H
    grow like r(A)^N on an unstable model. `block_map` inverts its finite
    I + W Omega only once its eigenvalues passed the positivity rule.
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
        O = np.vstack([model.C @ P for P in reversed(pw)])
        O_R = np.vstack([model.D @ P for P in reversed(pw)])
        H, L = _toeplitz(pw, model.C, model.B), _toeplitz(pw, model.D, model.B)
        phi = _finite(N, "I + H H^T", np.eye(N * model.p) + H @ H.T)
        psi = _finite(N, "I + H^T H", np.eye(N * model.m) + H.T @ H)
        phi_inv = _sym(_factor(N, "I + H H^T", np.linalg.inv, phi))
        X = L @ H.T @ phi_inv           # lower LDU coupling block
        J = O_R - X @ O
    return _ThetaFree(O, O_R, H, L, phi, psi, phi_inv, J)


def _penalty_root(N: int, free: _ThetaFree) -> np.ndarray:
    """F = L chol(psi)^-T, Nq x Nm, so that F F^T = M = L psi^-1 L^T; psi = I + H^T H >= I."""
    return np.linalg.solve(_factor(N, "I + H^T H", np.linalg.cholesky, free.psi), free.L.T).T


def _threshold(N: int, name: str, X: np.ndarray) -> float:
    """1/lam_1(X X^T = name) from the smaller, finite Gram of X; +inf unless lam_1 > 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _finite(N, name, X.T @ X if X.shape[0] > X.shape[1] else X @ X.T)
    lam_1 = spectral(gram).eigenvalues[0]
    return 1.0 / lam_1 if lam_1 > 0.0 else math.inf


class BlockMap(NamedTuple):
    """The N-fold map P -> alpha (P^-1 + Omega)^-1 alpha^T + W as its triple (or stacks of it)."""

    alpha: np.ndarray
    Omega: np.ndarray
    W: np.ndarray


def _compose(N: int, first: BlockMap, then: BlockMap):
    """The map `then` after `first`, stacked, through X = I + W_1 Omega_2, and X's gate per entry.

    X has the eigenvalues of I + W_1^1/2 Omega_2 W_1^1/2, so they are
    real. Returns the composed triple, whether each entry's X passed the
    positivity rule, and X's smallest and largest eigenvalues per entry;
    the smallest is NaN where X is not finite, which fails the rule. An
    entry whose X fails has reached theta_k of the composed length k: its
    composed Omega has passed a pole and is no certificate, even where it
    is positive definite again. Such an entry is composed through X = I,
    so it never makes the stacked eigensolve or inverse fail for the
    others, and its caller must drop it or raise (`block_map` raises).
    """
    (a1, O1, W1), (a2, O2, W2) = first, then
    X = np.eye(a1.shape[-1]) + W1 @ O2

    def only(keep: np.ndarray) -> np.ndarray:  # X where keep holds, I elsewhere
        return X if keep.all() else np.where(keep[:, None, None], X, np.eye(a1.shape[-1]))

    finite = np.isfinite(X).all(axis=(-2, -1))
    lam = _factor(N, "I + W Omega", np.linalg.eigvals, only(finite)).real
    lo, hi = np.where(finite, lam.min(axis=-1), np.nan), lam.max(axis=-1)
    passed = _positive(lo, hi)
    X_inv = _factor(N, "I + W Omega", np.linalg.inv, only(passed))
    Y = X_inv @ a1
    return (BlockMap(a2 @ Y, O1 + a1.swapaxes(-1, -2) @ O2 @ Y,
                     W2 + a2 @ X_inv @ W1 @ a2.swapaxes(-1, -2)), passed, lo, hi)


def block_map(model: StateSpaceModel, N: int, theta=0.0) -> BlockMap:
    """The N-fold map's (alpha, Omega, W) by doubling, from n x n products only.

    theta is a number or a 1-D array; with an array each of alpha, Omega
    and W is stacked over it, with shape (len(theta), n, n). Every theta
    must be finite and >= 0, checked before any composition. The one-step
    map (A, C^T C - theta D^T D, B B^T) is squared and composed on the
    binary digits of N, about 2 log2(N) compositions, each gated as in
    `_compose`: a theta at or past theta_N raises ConeExitError naming
    it, the first in input order among the entries of the first
    composition that fails. No Nq-sized matrix is formed, so the triple
    keeps its accuracy where r(A)^N grows. A triple that overflows double
    precision raises NumericalError.
    """
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim > 1:
        raise UsageError(f"theta must be a number or a 1-D array, got shape {thetas.shape}")
    stack = thetas.reshape(-1)
    for value in stack.tolist():
        check_finite("theta", value, nonnegative=True)
    if N < 1:
        raise UsageError(f"block length N must be >= 1, got {N}")

    def gated(first: BlockMap, then: BlockMap) -> BlockMap:
        out, passed, lo, hi = _compose(N, first, then)
        _finite(N, "I + W Omega", lo)  # NaN exactly where X was not finite
        if not passed.all():
            i = passed.argmin()
            raise _cone_exit(f"block map I + W Omega not positive at block length N={N}, "
                             f"theta={stack[i]:.6e} (requires theta < theta_N)", lo[i], hi[i])
        return out

    step = BlockMap(np.repeat(model.A[None], len(stack), axis=0),
                    model.C.T @ model.C - stack[:, None, None] * (model.D.T @ model.D),
                    np.repeat((model.B @ model.B.T)[None], len(stack), axis=0))
    out, bits = None, N
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if bits & 1:
                out = step if out is None else gated(out, step)
            bits >>= 1
            if not bits:
                break
            step = gated(step, step)
        out = BlockMap(_finite(N, "alpha_N(theta)", out.alpha),
                       _finite(N, "Omega_N(theta)", _sym(out.Omega)),
                       _finite(N, "W_N(theta)", _sym(out.W)))
    return out if thetas.ndim else BlockMap(*(X[0] for X in out))


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
    That matrix is X X^T, X = [F, Y] with M = F F^T (theta_N = 1/lam_1(M)) and
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
