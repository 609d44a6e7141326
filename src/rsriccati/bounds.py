"""Observer-based positivity bounds for the risk-sensitive iteration.

A preliminary observer gain G with stable closed loop F = A - GC and a
margin rho in (1, 1/spectral_radius(F)) yield the algebraic Lyapunov
solution

    Sigma_rho = rho^2 F Sigma_rho F^T + B B^T + G G^T,

an upper bound on admissible initial variances, and the risk bound

    beta_rho = (rho^2 - 1) / (rho^2 * lam_1(D Sigma_rho D^T)).

Starting the Riccati iteration at any 0 < P0 <= Sigma_rho with
theta <= beta_rho keeps the whole trajectory below Sigma_rho and the
validity matrix positive definite. The pair (G, rho) is free; the grid
search here maximizes beta_rho over it, since moving all observer poles
to zero is a good first guess but not always the maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import is_spd, loewner_leq, spectral, symmetrize
from .errors import DomainError, NumericalError, UsageError, check_finite
from .statespace import StateSpaceModel, is_reachable, observability_matrix

# Coordinate-descent step below which the bound search stops refining.
REFINE_STEP_TOL = 1e-6


def spectral_radius(F) -> float:
    """Largest eigenvalue modulus of a (not necessarily symmetric) matrix."""
    F = np.asarray(F, dtype=float)
    try:
        eigs = np.linalg.eigvals(F)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on a {F.shape[0]}x{F.shape[0]} matrix"
        ) from exc
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def place_observer_gain(model: StateSpaceModel, desired_poles) -> np.ndarray:
    """Observer gain G placing the eigenvalues of A - GC (single output only).

    Ackermann's formula on the dual system: G = phi(A) O^-1 e_n with
    phi the desired characteristic polynomial and O the (top-to-bottom)
    observability matrix of (C, A). Complex poles must come in
    conjugate pairs. Multi-output placement is out of proportion here;
    use the bound search grids instead.
    """
    if model.p != 1:
        raise UsageError(
            f"pole placement supports a single output (p=1), got p={model.p}; "
            f"use bound_search over gain grids for multi-output models"
        )
    poles = np.atleast_1d(np.asarray(desired_poles))
    if poles.shape != (model.n,):
        raise UsageError(
            f"need exactly n={model.n} desired poles, got {poles.shape}"
        )
    coeffs = np.poly(poles)  # real exactly when the poles pair up under conjugation
    if np.iscomplexobj(coeffs):
        raise UsageError(f"complex poles must come in conjugate pairs, got {poles}")
    # top-to-bottom stack [C; CA; ...; C A^{n-1}] (the transposed dual
    # reachability matrix), unlike the newest-first block convention
    obs = np.flipud(observability_matrix(model, model.n, "C"))
    sv = np.linalg.svd(obs, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise DomainError(
            f"pair (C, A) is not observable: observability matrix singular "
            f"values span [{sv[-1]:.3e}, {sv[0]:.3e}]"
        )
    phi = np.zeros_like(model.A)
    for c in coeffs:
        phi = phi @ model.A + c * np.eye(model.n)
    e_n = np.zeros((model.n, 1))
    e_n[-1, 0] = 1.0
    return phi @ np.linalg.solve(obs, e_n)


def _sym_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            basis.append(E)
    return basis


def _vech(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    return np.concatenate([M[i, i:] for i in range(n)])


def lyapunov_sigma(model: StateSpaceModel, G, rho: float) -> np.ndarray:
    """Unique solution of Sigma = rho^2 F Sigma F^T + B B^T + G G^T, F = A - GC.

    Solved exactly as a dense linear system over the n(n+1)/2 symmetric
    unknowns (the dimensions here never justify anything iterative).
    Positive definiteness of the solution follows from reachability of
    (A, B).
    """
    check_finite("rho", rho)
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    F = model.A - G @ model.C
    r = spectral_radius(F)
    if rho * r >= 1.0:
        raise DomainError(
            f"rho * spectral_radius(A - GC) = {rho * r:.6f} >= 1; "
            f"the Lyapunov bound requires rho < 1/r = {1.0 / r if r > 0 else np.inf:.6f}"
        )
    rhs = model.B @ model.B.T + G @ G.T
    n = model.n
    basis = _sym_basis(n)
    cols = [_vech(E - rho**2 * (F @ E @ F.T)) for E in basis]
    A_lin = np.column_stack(cols)
    try:
        x = np.linalg.solve(A_lin, _vech(rhs))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular Lyapunov system at rho={rho}, spectral radius {r:.6f}"
        ) from exc
    Sigma = sum(xi * E for xi, E in zip(x, basis))
    Sigma = symmetrize(Sigma, rtol=np.inf)
    residual = np.linalg.norm(Sigma - rho**2 * (F @ Sigma @ F.T) - rhs)
    if residual > 1e-10 * max(1.0, np.linalg.norm(Sigma)):
        raise NumericalError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance at rho={rho}"
        )
    return Sigma


def beta_rho(model: StateSpaceModel, G, rho: float) -> float:
    """Risk bound (rho^2 - 1)/(rho^2 lam_1(D Sigma_rho D^T)); positive for rho > 1."""
    if rho <= 1.0:
        raise DomainError(f"the risk bound needs rho > 1, got rho={rho}")
    Sigma = lyapunov_sigma(model, G, rho)
    lam_1 = spectral(model.D @ Sigma @ model.D.T).eigenvalues[0]
    return (rho**2 - 1.0) / (rho**2 * lam_1)


@dataclass(frozen=True)
class ObserverBound:
    """A (G, rho) pair with its Lyapunov solution and risk bound."""

    G: np.ndarray
    rho: float
    spectral_radius_F: float
    Sigma_rho: np.ndarray
    beta_rho: float


def observer_bound(model: StateSpaceModel, G, rho: float) -> ObserverBound:
    """Assemble the full bound record for one candidate pair."""
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    if rho <= 1.0:
        raise DomainError(f"the risk bound needs rho > 1, got rho={rho}")
    Sigma = lyapunov_sigma(model, G, rho)
    lam_1 = spectral(model.D @ Sigma @ model.D.T).eigenvalues[0]
    return ObserverBound(
        G=G,
        rho=rho,
        spectral_radius_F=spectral_radius(model.A - G @ model.C),
        Sigma_rho=Sigma,
        beta_rho=(rho**2 - 1.0) / (rho**2 * lam_1),
    )


def default_rho_grid() -> np.ndarray:
    return np.linspace(1.05, 3.0, 40)


def default_gain_grid(model: StateSpaceModel, points: int = 41, span: float = 3.0) -> list[np.ndarray]:
    """Per-coordinate gain grids spanning +-span times the zero-pole gain.

    Falls back to +-10 ||A|| per coordinate when single-output
    placement is unavailable.
    """
    k = model.n * model.p
    try:
        g0 = place_observer_gain(model, [0.0] * model.n).ravel()
        half = span * np.maximum(np.abs(g0), 1.0)
    except UsageError:
        half = 10.0 * np.linalg.norm(model.A) * np.ones(k)
    return [np.linspace(-h, h, points) for h in half]


def _beta_or_none(model: StateSpaceModel, g_flat: np.ndarray, rho: float):
    G = g_flat.reshape(model.n, model.p)
    F = model.A - G @ model.C
    if rho * spectral_radius(F) >= 1.0 or rho <= 1.0:
        return None
    try:
        return beta_rho(model, G, rho)
    except (DomainError, NumericalError):
        return None


def best_rho_for_gain(
    model: StateSpaceModel, G, rho_grid: Optional[Sequence[float]] = None
) -> ObserverBound:
    """Maximize beta_rho over rho for a fixed gain (1-D scan of the rho grid)."""
    rhos = np.asarray(rho_grid if rho_grid is not None else default_rho_grid(), dtype=float)
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    r = spectral_radius(model.A - G @ model.C)
    best = None
    for rho in rhos:
        if rho <= 1.0 or rho * r >= 1.0:
            continue
        beta = beta_rho(model, G, rho)
        if best is None or beta > best[0]:
            best = (beta, float(rho))
    if best is None:
        raise DomainError(
            f"no rho in the grid satisfies 1 < rho < 1/spectral_radius = "
            f"{1.0 / r if r > 0 else np.inf:.4f}"
        )
    return observer_bound(model, G, best[1])


def bound_search(
    model: StateSpaceModel,
    rho_grid: Optional[Sequence[float]] = None,
    gain_grid: Optional[Sequence[np.ndarray]] = None,
    refine: bool = True,
) -> ObserverBound:
    """Maximize beta_rho over a (G, rho) grid, then polish by coordinate descent.

    Candidates violating rho * spectral_radius(A - GC) < 1 are
    infeasible. Ties within 1e-12 go to the lexicographically smallest
    (rho, G entries), so the search is deterministic. The optional
    refinement walks each coordinate with step halving down to 1e-6.
    """
    if not is_reachable(model):
        raise DomainError("the Lyapunov bound requires a reachable pair (A, B)")
    rhos = np.asarray(rho_grid if rho_grid is not None else default_rho_grid(), dtype=float)
    grids = list(gain_grid) if gain_grid is not None else default_gain_grid(model)
    k = model.n * model.p
    if len(grids) != k:
        raise UsageError(
            f"need one gain grid per gain entry ({k}), got {len(grids)}"
        )
    if rhos.size == 0 or any(np.asarray(g).size == 0 for g in grids):
        raise UsageError("grids must be nonempty")

    mesh = np.meshgrid(*[np.asarray(g, dtype=float) for g in grids], indexing="ij")
    gain_candidates = np.stack([m.ravel() for m in mesh], axis=1)

    best_beta = -np.inf
    best_key = None
    best = None
    counts = {"radius": 0, "evaluated": 0}
    for g_flat in gain_candidates:
        F = model.A - g_flat.reshape(model.n, model.p) @ model.C
        r = spectral_radius(F)
        for rho in rhos:
            if rho <= 1.0 or rho * r >= 1.0:
                counts["radius"] += 1
                continue
            counts["evaluated"] += 1
            try:
                beta = beta_rho(model, g_flat.reshape(model.n, model.p), rho)
            except (DomainError, NumericalError):
                continue
            key = (float(rho), *map(float, g_flat))
            if beta > best_beta + 1e-12 or (
                abs(beta - best_beta) <= 1e-12 and (best_key is None or key < best_key)
            ):
                best_beta = beta
                best_key = key
                best = (g_flat.copy(), float(rho))
    if best is None:
        raise DomainError(
            f"no feasible (G, rho) candidate: {counts['radius']} grid points "
            f"failed rho * spectral_radius < 1 and all "
            f"{counts['evaluated']} remaining evaluations failed"
        )

    g_best, rho_best = best
    if refine:
        steps = np.array(
            [float(np.ptp(g)) / max(len(g) - 1, 1) or 1.0 for g in grids]
            + [float(np.ptp(rhos)) / max(rhos.size - 1, 1) or 0.05]
        )
        x = np.concatenate([g_best, [rho_best]])
        fx = best_beta
        while np.max(steps) > REFINE_STEP_TOL:
            improved = False
            for i in range(k + 1):
                for sign in (1.0, -1.0):
                    trial = x.copy()
                    trial[i] += sign * steps[i]
                    beta = _beta_or_none(model, trial[:k], trial[k])
                    if beta is not None and beta > fx:
                        x, fx = trial, beta
                        improved = True
            if not improved:
                steps *= 0.5
        g_best, rho_best = x[:k], float(x[k])

    return observer_bound(model, g_best.reshape(model.n, model.p), rho_best)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Whether (P0, theta) is certified to keep the validity matrix positive.

    Certification holds when 0 < P0 <= Sigma_rho and theta <= beta_rho:
    the whole Riccati trajectory then stays below Sigma_rho.
    """

    p0_positive: bool
    p0_below_sigma: bool
    theta_below_beta: bool

    @property
    def admissible(self) -> bool:
        return self.p0_positive and self.p0_below_sigma and self.theta_below_beta


def check_initial_condition(
    model: StateSpaceModel, theta: float, P0, bound: ObserverBound
) -> AdmissibilityReport:
    """Check the trajectory-positivity preconditions against an ObserverBound."""
    return AdmissibilityReport(
        p0_positive=is_spd(P0),
        p0_below_sigma=loewner_leq(P0, bound.Sigma_rho, tol=1e-9),
        theta_below_beta=bool(theta <= bound.beta_rho),
    )
