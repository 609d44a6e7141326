"""Geometry of the cone of symmetric positive definite matrices.

Everything here runs through a single eigendecomposition backend:
matrix square roots and inverses, the affine-invariant (Riemann) and
Thompson distances, and the contraction coefficient bound for
Riccati-type maps P -> M [P^-1 + Omega]^-1 M^T + W.
Dimensions are small (n up to a few tens), so there is no reason to use
anything fancier than dense symmetric eigensolvers. `require_spd` is the
one positive-definiteness decision: relative to scale and failed by NaN.
Its stacked form `_require_spd_stack` applies the same rule to a stack
of matrices for the fixed-point kernel and the block build. `symmetrize`
checks a caller's matrix for asymmetry; matrices the library forms
itself are symmetric by construction; `_sym` folds away their roundoff.

All functions are pure; none mutate their arguments.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConeExitError, NumericalError, UsageError

# Positive definite means lam_min > SPD_RTOL * |lam_max|, whatever the scale.
SPD_RTOL = 1e-12

# Relative asymmetry above which an input is considered a caller bug
# rather than roundoff.
ASYM_RTOL = 1e-8


def _sym(X: np.ndarray) -> np.ndarray:
    """(X + X^T)/2 over the last two axes, for matrices symmetric by construction."""
    return 0.5 * (X + X.swapaxes(-1, -2))


def symmetrize(X) -> np.ndarray:
    """Return (X + X^T)/2 of a caller's square matrix, rejecting genuinely asymmetric input.

    Roundoff-level asymmetry is silently folded away; relative asymmetry
    above ASYM_RTOL (Frobenius, measured on X scaled exactly by the power
    of two above max|X|, so no finite X overflows) raises UsageError. A
    finite X is averaged as X/2 + X^T/2, which cannot overflow and is the
    same bits as (X + X^T)/2 wherever no half is subnormal. Matrices the
    library forms itself skip this check and go through `_sym`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {X.shape}")
    top = np.abs(X).max(initial=0.0)  # NaN or inf exactly when an entry is
    if not np.isfinite(top):
        # a NaN or inf entry: nothing to measure, and an inf fails every gate as NaN does
        return _sym(np.where(np.isinf(X), np.nan, X))
    # scaled by the power of two above max|X|: exact, so the same ratio, and no overflow
    X_s = np.ldexp(X, -math.frexp(top)[1])
    scale = np.linalg.norm(X_s)
    if scale > 0.0:
        asym = np.linalg.norm(X_s - X_s.T) / scale
        if asym > ASYM_RTOL:
            raise UsageError(
                f"matrix is not symmetric: relative asymmetry {asym:.3e} "
                f"exceeds {ASYM_RTOL:.1e}"
            )
    return 0.5 * X + 0.5 * X.T  # halves first: no finite X overflows


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (decreasing) and matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray   # shape (n,), sorted decreasing
    eigenvectors: np.ndarray  # shape (n, n), column i pairs with eigenvalue i

    def reconstruct(self) -> np.ndarray:
        U, lam = self.eigenvectors, self.eigenvalues
        return (U * lam) @ U.T

    def inverse(self) -> np.ndarray:
        return (self.eigenvectors / self.eigenvalues) @ self.eigenvectors.T


def spectral(P) -> SpectralDecomposition:
    """Eigendecomposition P = U diag(lam) U^T with eigenvalues sorted decreasing."""
    P = symmetrize(P)
    try:
        lam, U = np.linalg.eigh(P)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigensolver failed on a {P.shape[0]}x{P.shape[0]} "
            f"matrix with Frobenius norm {np.linalg.norm(P):.3e}"
        ) from exc
    order = np.argsort(lam)[::-1]
    return SpectralDecomposition(lam[order], U[:, order])


def _positive(lam_min, lam_max):
    """The positivity rule lam_min > SPD_RTOL * |lam_max|, on scalars or stacks; NaN fails."""
    return lam_min > SPD_RTOL * abs(lam_max)


def _cone_exit(what: str, lam_min, lam_max) -> ConeExitError:
    return ConeExitError(
        f"{what}: smallest eigenvalue {lam_min:.6e} <= {SPD_RTOL:.0e} x largest {lam_max:.6e}",
        lambda_min=float(lam_min),
    )


def require_spd(P, what: str) -> SpectralDecomposition:
    """P's decomposition, or ConeExitError unless lam_min > SPD_RTOL * |lam_max|."""
    dec = spectral(P)
    lam_min, lam_max = dec.eigenvalues[-1], dec.eigenvalues[0]  # NaN sorts first
    if not _positive(lam_min, lam_max):
        raise _cone_exit(what, lam_min, lam_max)
    return dec


def _require_spd_stack(X: np.ndarray, what: str):
    """`require_spd` over a stack X of shape (b, n, n), without raising.

    Returns (lam, U, errors): the eigenvalues (decreasing) and eigenvectors of
    each symmetrized entry, and the error `require_spd` would raise for each
    entry that fails, keyed by its index. A stacked solve that fails is redone
    one entry at a time, so only the failing entry gets `spectral`'s error.
    """
    X = _sym(X)
    errors = {}
    try:
        lam, U = np.linalg.eigh(X)
        lam, U = lam[:, ::-1], U[:, :, ::-1]
    except np.linalg.LinAlgError:
        lam, U = np.full(X.shape[:2], np.nan), np.full(X.shape, np.nan)
        for i, X_i in enumerate(X):
            try:
                lam[i], U[i] = spectral(X_i)
            except NumericalError as exc:
                errors[i] = exc
    lam_min, lam_max = lam.min(axis=1), lam.max(axis=1)  # NaN-propagating
    for i in (~_positive(lam_min, lam_max)).nonzero()[0].tolist():
        errors.setdefault(i, _cone_exit(what, lam_min[i], lam_max[i]))
    return lam, U, errors


def spd_sqrt(P) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix."""
    lam, U = require_spd(P, "spd_sqrt input must be positive definite")
    return (U * np.sqrt(lam)) @ U.T


def _whiten(P, Q, what: str) -> np.ndarray:
    """P^-1/2 Q P^-1/2 for a positive definite P (gated with `what`) and any symmetric Q."""
    lam_p, U = require_spd(P, what)
    Q = symmetrize(Q)
    if Q.shape != U.shape:
        raise UsageError(f"dimension mismatch: {U.shape[0]} vs {Q.shape[0]}")
    P_inv_sqrt = (U / np.sqrt(lam_p)) @ U.T
    return _sym(P_inv_sqrt @ Q @ P_inv_sqrt)


def relative_log_spectrum(P, Q) -> np.ndarray:
    """log of the eigenvalues of P^-1 Q via P^-1/2 Q P^-1/2."""
    middle = _whiten(P, Q, "distance argument P must be positive definite")
    what = "distance argument Q must be positive definite: P^-1/2 Q P^-1/2"
    return np.log(require_spd(middle, what).eigenvalues)


def riemann_distance(P, Q) -> float:
    """Affine-invariant distance ||log(P^-1/2 Q P^-1/2)||_F between SPD matrices."""
    return float(np.linalg.norm(relative_log_spectrum(P, Q)))


def thompson_distance(P, Q) -> float:
    """Thompson (spectral) metric: largest |log eigenvalue| of P^-1 Q."""
    log_s = relative_log_spectrum(P, Q)
    # max over both orderings of the arguments; the spectra are reciprocal,
    # so this is the largest magnitude of the log spectrum.
    return float(max(log_s[0], -log_s[-1]))


def contraction_bound(M, Omega, W) -> float:
    """Contraction coefficient bound for P -> M [P^-1 + Omega]^-1 M^T + W.

    Returns b / (1 + b), with b = lam_1(W^-1/2 M Omega^-1 M^T W^-1/2), which
    is < 1 whenever Omega and W are positive definite. This is Bougerol's
    translation lemma in the coordinates where W = I; the congruence by
    W^-1/2 is an isometry of the metric, so the bound does not depend on
    the state coordinates.
    """
    lam_o, U_o = require_spd(Omega, "contraction_bound Omega must be positive definite")
    lam_w, U_w = require_spd(W, "contraction_bound W must be positive definite")
    X = (U_w / np.sqrt(lam_w)) @ U_w.T @ np.asarray(M, dtype=float) @ (U_o / np.sqrt(lam_o))
    b = max(spectral(_sym(X @ X.T)).eigenvalues[0], 0.0)
    return b / (1.0 + b)


def is_spd(P) -> bool:
    """True iff (symmetrized) P passes the `require_spd` gate."""
    try:
        return bool(require_spd(P, "is_spd argument"))  # a decomposition is truthy
    except ConeExitError:
        return False
