"""Observer-based positivity bounds for the risk-sensitive iteration.

A preliminary observer gain G with stable closed loop F = A - GC and a
margin rho in (1, 1/spectral_radius(F)) yield the algebraic Lyapunov
solution

    Sigma_rho = rho^2 F Sigma_rho F^T + B B^T + G G^T,

an upper bound on admissible initial variances, and the risk bound

    beta_rho = (rho^2 - 1) / (rho^2 * lam_1(D Sigma_rho D^T)).

Starting the Riccati iteration at any 0 < P0 <= Sigma_rho with
theta <= beta_rho keeps the whole trajectory below Sigma_rho and the
validity matrix positive definite. The pair (G, rho) is free; a grid pass
and a pattern-search polish maximize beta_rho over it, since moving all
observer poles to zero is a good first guess but not always the maximizer.

Every Sigma_rho and beta_rho comes from one stacked kernel, `_beta_batch`:
`observer_bound` runs it for one pair, `best_rho_for_gain` over a rho grid
and `bound_search` over (G, rho) grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import _whiten, is_spd, spectral
from .errors import DomainError, NumericalError, UsageError, check_finite
from .statespace import RANK_RTOL, StateSpaceModel, _powers, is_reachable

# Pattern-search step below which the bound search stops refining.
REFINE_STEP_TOL = 1e-6
# Pattern-search rounds after which it stops anyway: where beta_rho's
# supremum lies at rho -> infinity the steps never shrink.
REFINE_MAX_ROUNDS = 2000
# Entries of the Kronecker stacks one grid chunk may build (n^4 per candidate).
_STACK_ENTRIES = 1 << 17
# Multiples of each axis step that one pattern-search round evaluates.
_POLISH_SCALES = (1.0, 2.0, 4.0, 8.0)


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
    obs = np.vstack([model.C @ P for P in _powers(model.A, model.n)])
    sv = np.linalg.svd(obs, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
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


def _solve_each(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve in which a singular system gives NaN instead of failing its stack."""
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.full(rhs.shape, np.nan)
        return np.concatenate([_solve_each(M[i:i + 1], rhs[i:i + 1]) for i in range(len(M))])


def _beta_batch(model: StateSpaceModel, G: np.ndarray, rho: np.ndarray):
    """Stacked Sigma_rho and beta_rho for every candidate pair (G[i], rho[i, j]).

    G has shape (b, n, p) and rho shape (b, m). Each Lyapunov equation is
    solved in Kronecker form, (I - rho^2 F (x) F) vec Sigma = vec(BB^T + GG^T),
    and must meet the residual contract
    ||Sigma - rho^2 F Sigma F^T - BB^T - GG^T|| <= 1e-10 max(1, ||Sigma||).
    Returns (beta, Sigma, radius, residual) with shapes (b, m), (b, m, n, n),
    (b,) and (b, m); radius is spectral_radius(A - G[i] C), and a
    non-finite F raises NumericalError for the whole stack. beta is NaN (no
    value) where rho <= 1, rho * radius >= 1 or the solve fails. Sigma is
    NaN where the solve fails, residual where it is singular or not run.
    """
    n = model.n
    F = model.A - G @ model.C
    try:
        radius = np.abs(np.linalg.eigvals(F)).max(axis=-1, initial=0.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {n}x{n} matrix") from exc
    beta, residual = np.full(rho.shape, np.nan), np.full(rho.shape, np.nan)
    Sigma = np.full(rho.shape + (n, n), np.nan)
    i, j = np.nonzero(rho * radius[:, None] < 1.0)
    Fi, r2 = F[i], rho[i, j, None, None] ** 2
    Q = model.B @ model.B.T + G[i] @ G[i].swapaxes(1, 2)
    M = np.einsum("bik,bjl->bijkl", Fi, Fi).reshape(-1, n * n, n * n)
    M *= -r2
    M += np.eye(n * n)  # I - rho^2 F (x) F, in place: one n^4 stack in memory
    X = _solve_each(M, Q.reshape(-1, n * n, 1)).reshape(-1, n, n)
    S = 0.5 * (X + X.swapaxes(1, 2))
    res = np.linalg.norm(S - r2 * (Fi @ S @ Fi.swapaxes(1, 2)) - Q, axis=(1, 2))
    residual[i, j] = res
    ok = res <= 1e-10 * np.maximum(1.0, np.linalg.norm(S, axis=(1, 2)))
    i, j, S = i[ok], j[ok], S[ok]
    Sigma[i, j] = S
    lam_1 = np.linalg.eigvalsh(model.D @ S @ model.D.T)[:, -1]
    rho_ok = rho[i, j]
    beta[i, j] = np.where(rho_ok > 1.0, (rho_ok**2 - 1.0) / (rho_ok**2 * lam_1), np.nan)
    return beta, Sigma, radius, residual


@dataclass(frozen=True)
class ObserverBound:
    """A (G, rho) pair with its Lyapunov solution and risk bound."""

    G: np.ndarray
    rho: float
    spectral_radius_F: float
    Sigma_rho: np.ndarray
    beta_rho: float


def observer_bound(model: StateSpaceModel, G, rho: float) -> ObserverBound:
    """Sigma_rho and beta_rho for one pair (G, rho): the stacked kernel at batch size one.

    Sigma_rho is the unique solution of Sigma = rho^2 F Sigma F^T + BB^T + GG^T,
    F = A - GC, solved as the dense n^2 x n^2 Kronecker system and held to a
    residual of 1e-10 max(1, ||Sigma||); reachability of (A, B) makes it
    positive definite. Raises DomainError unless rho is finite, rho > 1 and
    rho * spectral_radius(F) < 1, and NumericalError when the system is
    singular or the solution misses its residual contract.
    """
    check_finite("rho", rho)
    if rho <= 1.0:
        raise DomainError(f"the risk bound needs rho > 1, got rho={rho}")
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    beta, Sigma, (r,), residual = _beta_batch(model, G[None], np.array([[rho]], dtype=float))
    if rho * r >= 1.0:
        raise DomainError(
            f"rho * spectral_radius(A - GC) = {rho * r:.6f} >= 1; "
            f"the Lyapunov bound requires rho < 1/r = {1.0 / r if r > 0 else np.inf:.6f}"
        )
    if np.isnan(residual[0, 0]):
        raise NumericalError(f"singular Lyapunov system at rho={rho}, spectral radius {r:.6f}")
    if np.isnan(Sigma[0, 0, 0, 0]):
        raise NumericalError(f"Lyapunov residual {residual[0, 0]:.3e} exceeds tolerance "
                             f"at rho={rho}")
    return ObserverBound(G=G, rho=rho, spectral_radius_F=r, Sigma_rho=Sigma[0, 0],
                         beta_rho=float(beta[0, 0]))


def _grid(name: str, values) -> np.ndarray:
    """A grid as a flat float array; UsageError unless nonempty and finite."""
    grid = np.asarray(values, dtype=float).ravel()
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise UsageError(f"the {name} must be nonempty and finite, got {grid}")
    return grid


def default_rho_grid() -> np.ndarray:
    return np.linspace(1.05, 3.0, 40)


def default_gain_grid(model: StateSpaceModel, points: int = 41, span: float = 3.0) -> list[np.ndarray]:
    """Per-coordinate gain grids spanning +-span times the zero-pole gain.

    Falls back to +-10 ||A|| per coordinate when single-output
    placement is unavailable.
    """
    if points < 1 or not np.isfinite(span):
        raise UsageError(f"gain grids need points >= 1 and a finite span, got {points}, {span}")
    k = model.n * model.p
    try:
        g0 = place_observer_gain(model, [0.0] * model.n).ravel()
        half = span * np.maximum(np.abs(g0), 1.0)
    except UsageError:
        half = 10.0 * np.linalg.norm(model.A) * np.ones(k)
    return [np.linspace(-h, h, points) for h in half]


def best_rho_for_gain(
    model: StateSpaceModel, G, rho_grid: Optional[Sequence[float]] = None
) -> ObserverBound:
    """Maximize beta_rho over rho for a fixed gain (one stacked scan of the rho grid).

    The first maximizer in grid order wins; a feasible rho whose solve
    fails raises its error, as observer_bound would.
    """
    rhos = _grid("rho grid", rho_grid if rho_grid is not None else default_rho_grid())
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    (beta,), (Sigma,), (r,), _ = _beta_batch(model, G[None], rhos[None])
    failed = (rhos > 1.0) & (rhos * r < 1.0) & np.isnan(beta)
    if failed.any():
        observer_bound(model, G, rhos[np.argmax(failed)])
    if np.all(np.isnan(beta)):
        raise DomainError(
            f"no rho in the grid satisfies 1 < rho < 1/spectral_radius = "
            f"{1.0 / r if r > 0 else np.inf:.4f}"
        )
    j = int(np.nanargmax(beta))
    return ObserverBound(G=G, rho=float(rhos[j]), spectral_radius_F=float(r),
                         Sigma_rho=Sigma[j], beta_rho=float(beta[j]))


def _pick(beta: np.ndarray, points: np.ndarray):
    """(point, beta) of the best beta; within 1e-12, the lexicographically smallest point."""
    near = np.flatnonzero(beta >= np.nanmax(beta) - 1e-12)
    j = near[np.lexsort(points[near].T[::-1])[0]]
    return points[j], beta[j]


def bound_search(
    model: StateSpaceModel,
    rho_grid: Optional[Sequence[float]] = None,
    gain_grid: Optional[Sequence[np.ndarray]] = None,
    refine: bool = True,
) -> ObserverBound:
    """Maximize beta_rho over a (G, rho) grid, then polish by Hooke-Jeeves pattern search.

    Candidates violating rho * spectral_radius(A - GC) < 1 are
    infeasible. Ties within 1e-12 go to the lexicographically smallest
    (rho, G entries), so the search is deterministic. The grid is
    evaluated in stacked chunks of bounded size. Each round of the optional
    refinement evaluates, in one stacked call, the base point and its
    8(k+1) axis neighbours base +- s h_i e_i for every step h_i of
    (rho, G) and every scale s in _POLISH_SCALES (1, 2, 4, 8). It moves to
    the best strict improvement, then tries the pattern move
    x + (x - x_prev); when no neighbour improves it halves every step,
    down to REFINE_STEP_TOL, for at most REFINE_MAX_ROUNDS rounds
    (Hooke & Jeeves, J. ACM 8, 1961). The stencil is a positive spanning
    set at every scale, so this is still a pattern search (Torczon, SIAM
    J. Optim. 7, 1997); the larger scales cover in one round what took
    several single-step rounds.
    """
    if not is_reachable(model):
        raise DomainError("the Lyapunov bound requires a reachable pair (A, B)")
    rhos = _grid("rho grid", rho_grid if rho_grid is not None else default_rho_grid())
    grids = list(gain_grid) if gain_grid is not None else default_gain_grid(model)
    n, p, k = model.n, model.p, model.n * model.p
    if len(grids) != k:
        raise UsageError(
            f"need one gain grid per gain entry ({k}), got {len(grids)}"
        )
    grids = [_grid(f"gain grid {i}", g) for i, g in enumerate(grids)]

    # Grid pass: keep only the candidates within the tie window of the best so far.
    shape = tuple(g.size for g in grids)
    total, chunk = int(np.prod(shape)), max(1, _STACK_ENTRIES // (rhos.size * n**4))
    points, betas, feasible = np.empty((0, k + 1)), np.empty(0), 0
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        gains = np.column_stack([g[i] for g, i in zip(grids, idx)])
        beta, _, radius, _ = _beta_batch(model, gains.reshape(-1, n, p),
                                         np.broadcast_to(rhos, (len(gains), rhos.size)))
        feasible += np.count_nonzero((rhos > 1.0) & (rhos * radius[:, None] < 1.0))
        gi, rj = np.nonzero(~np.isnan(beta))
        points = np.vstack([points, np.column_stack([rhos[rj], gains[gi]])])
        betas = np.concatenate([betas, beta[gi, rj]])
        near = betas >= np.max(betas, initial=-np.inf) - 1e-12
        points, betas = points[near], betas[near]
    if betas.size == 0:
        raise DomainError(
            f"no feasible (G, rho) candidate: {rhos.size * total - feasible} grid "
            f"points failed rho * spectral_radius < 1 and all "
            f"{feasible} remaining evaluations failed"
        )
    x, fx = _pick(betas, points)

    if refine:
        steps = np.array(
            [float(np.ptp(rhos)) / max(rhos.size - 1, 1) or 0.05]
            + [float(np.ptp(g)) / max(g.size - 1, 1) or 1.0 for g in grids]
        )
        prev = None
        for _ in range(REFINE_MAX_ROUNDS):
            if np.max(steps) <= REFINE_STEP_TOL:
                break
            base = x if prev is None else x + (x - prev)
            axis = np.vstack([s * np.diag(steps) for s in _POLISH_SCALES])
            trial = base + np.vstack([0.0 * steps, axis, -axis])
            beta = _beta_batch(model, trial[:, 1:].reshape(-1, n, p), trial[:, :1])[0][:, 0]
            if np.any(beta > fx):
                prev, (x, fx) = x, _pick(np.where(beta > fx, beta, np.nan), trial)
            elif prev is not None:
                prev = None
            else:
                steps *= 0.5

    return observer_bound(model, x[1:].reshape(n, p), float(x[0]))

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
    """Check the trajectory-positivity preconditions against an ObserverBound.

    Every symmetric P0 is ordered on lam_1(Sigma_rho^-1/2 P0 Sigma_rho^-1/2) <= 1 + 1e-9,
    which no change of state coordinates x -> T x moves, at any scale of T.
    Sigma_rho must pass the positivity gate (it is positive definite when
    (A, [B G]) is reachable), or ConeExitError is raised.
    """
    middle = _whiten(bound.Sigma_rho, P0, "Sigma_rho must be positive definite")
    return AdmissibilityReport(
        p0_positive=is_spd(P0),
        p0_below_sigma=bool(spectral(middle).eigenvalues[0] <= 1.0 + 1e-9),
        theta_below_beta=bool(theta <= bound.beta_rho),
    )
