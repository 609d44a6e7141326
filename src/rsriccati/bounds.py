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
and `bound_search` over (G, rho) grids. The kernel sums the series
Sigma_rho = sum_k (rho F)^k Q (rho F)^kT by squared Smith doubling: a sum
of positive semidefinite terms, with no linear solve and n^2 entries per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cone import _sym, _whiten, is_spd, spectral
from .errors import DomainError, NumericalError, UsageError, check_finite
from .statespace import RANK_RTOL, StateSpaceModel, _powers, is_reachable

# Pattern-search step below which the bound search stops refining.
REFINE_STEP_TOL = 1e-6
# Pattern-search rounds after which it stops anyway: where beta_rho's
# supremum lies at rho -> infinity the steps never shrink.
REFINE_MAX_ROUNDS = 2000
# Entries of the Sigma stacks one grid chunk may hold (n^2 per candidate).
_STACK_ENTRIES = 1 << 15
# Relative residual every Lyapunov sum may keep, and the least relative
# gain in beta_rho that a polish round counts as an improvement.
_LYAP_RTOL = 1e-10
# The rounding floor's share of the residual contract, c eps with c = 256,
# a multiple of eps rho^2 ||F||_2^2: on the worked example moved by 20
# seeded T with cond(T) = 1e3 the worst residual was 100 such floors.
_SMITH_FLOOR = 256 * np.finfo(float).eps
# Doubling cap of the squared Smith sum. A feasible candidate has
# fl(rho r(F)) <= 1 - 2^-53, the largest double below 1, where the term
# (rho F)^(2^k) Q (rho F)^(2^k)T falls below eps of the sum only after 58
# doublings (the 59th changes no bit); 64 leaves room for the transient
# growth of a non-normal F.
_SMITH_DOUBLINGS = 64
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


def _smith(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Smith sum Sigma = sum_k A^k Q A^kT over a stack, and where it diverged.

    Each doubling adds A S A^T to S and squares A, so after k doublings S
    holds the first 2^k terms (Smith, SIAM J. Appl. Math. 16, 1968). Every
    term is positive semidefinite: no linear solve, nothing singular. The
    whole stack steps until a doubling changes no bit of any entry; an
    entry still changing at the cap, or not finite, has no sum (NaN). Such
    an entry diverged when A^(2^64) is not below norm 1 either: since
    ||A^m|| >= r(A)^m, the spectral radius of A as rounded is then 1 or
    above, or closer to 1 than eps, whatever its computed eigenvalues say.
    Run it under np.errstate: a sum that overflows is NaN, not a warning.
    """
    S = Q
    for _ in range(_SMITH_DOUBLINGS):
        S, S_prev = S + A @ S @ A.swapaxes(1, 2), S
        if (S == S_prev).all():
            break
        A = A @ A
    settled = ((S == S_prev) & np.isfinite(S)).all(axis=(1, 2))
    diverged = ~settled & ~(np.linalg.norm(A, axis=(1, 2)) < 1.0)
    return np.where(settled[:, None, None], _sym(S), np.nan), diverged


def _beta_batch(model: StateSpaceModel, G: np.ndarray, rho: np.ndarray):
    """Stacked Sigma_rho and beta_rho for every candidate pair (G[i], rho[i, j]).

    G has shape (b, n, p) and rho shape (b, m). A candidate is feasible when
    rho > 1, rho * spectral_radius(A - G[i] C) < 1 and its sum by `_smith`,
    from A = rho F and Q = BB^T + GG^T, does not diverge: where rho * r(F)
    lies within rounding of 1, the rounded rho F decides. A feasible
    candidate's sum must settle and meet the residual contract
    ||Sigma - rho^2 F Sigma F^T - Q|| <= tol max(1, ||Sigma||) with
    tol = max(1e-10, 256 eps rho^2 ||F||_2^2): the flat term, or a multiple
    of the residual that rounding the exact Sigma alone leaves.
    Returns (beta, Sigma, radius, errors) with shapes (b, m), (b, m, n, n)
    and (b,), and a dict; radius is spectral_radius(A - G[i] C), and a
    non-finite F raises NumericalError for the whole stack. beta and Sigma
    are NaN (no value) where the candidate is infeasible or its sum
    failed. errors maps (i, j) to the NumericalError of each feasible
    candidate whose sum did not settle to finite values or missed the
    contract; it is empty when every sum met it.
    """
    n = model.n
    F = model.A - G @ model.C
    try:
        radius = np.abs(np.linalg.eigvals(F)).max(axis=-1, initial=0.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on a {n}x{n} matrix") from exc
    beta, Sigma = np.full(rho.shape, np.nan), np.full(rho.shape + (n, n), np.nan)
    i, j = np.nonzero((rho > 1.0) & (rho * radius[:, None] < 1.0))
    Fi, r = F[i], rho[i, j, None, None]
    Q = model.B @ model.B.T + G[i] @ G[i].swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        S, diverged = _smith(r * Fi, Q)
        res = np.linalg.norm(S - r**2 * (Fi @ S @ Fi.swapaxes(1, 2)) - Q, axis=(1, 2))
        scale = np.maximum(1.0, np.linalg.norm(S, axis=(1, 2)))
        ok = res <= _LYAP_RTOL * scale
        # Rounding Sigma alone leaves a residual near eps rho^2 ||F||_2^2 ||Sigma||.
        # Its SVDs run only for the few sums the flat term rejects: taking
        # max(1e-10, floor) for every candidate made the worked example's
        # bound_search 22 -> 27 ms (min of 15 runs on one Intel Xeon core).
        if not ok.all():
            floor = _SMITH_FLOOR * (r[~ok, 0, 0] * np.linalg.norm(Fi[~ok], 2, axis=(1, 2))) ** 2
            ok[~ok] = res[~ok] <= floor * scale[~ok]
    fail = ~ok & ~diverged  # a sum without a value has a NaN residual
    errors = {
        (a, b): NumericalError(
            f"Lyapunov sum did not settle at rho={rho[a, b]}, spectral radius {radius[a]:.6f}"
            if np.isnan(e) else f"Lyapunov residual {e:.3e} exceeds tolerance at rho={rho[a, b]}")
        for a, b, e in zip(i[fail].tolist(), j[fail].tolist(), res[fail])
    }
    i, j, S, r2 = i[ok], j[ok], S[ok], r[ok, 0, 0] ** 2
    Sigma[i, j] = S
    beta[i, j] = (r2 - 1.0) / (r2 * np.linalg.eigvalsh(model.D @ S @ model.D.T)[:, -1])
    return beta, Sigma, radius, errors


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
    F = A - GC, summed by squared Smith doubling and held to the residual
    contract of `_beta_batch`; reachability of (A, B) makes it positive
    definite. Raises DomainError unless rho is finite, rho > 1 and the pair
    is feasible in the kernel's sense (rho * spectral_radius(F) < 1, and a
    sum that does not diverge), and the kernel's NumericalError when the
    sum does not settle to finite values or misses its residual contract.
    """
    check_finite("rho", rho)
    if rho <= 1.0:
        raise DomainError(f"the risk bound needs rho > 1, got rho={rho}")
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    beta, Sigma, (r,), errors = _beta_batch(model, G[None], np.array([[rho]], dtype=float))
    if errors:
        raise errors[0, 0]
    if np.isnan(beta[0, 0]):  # infeasible
        raise DomainError(
            f"rho * spectral_radius(A - GC) = {rho * r:.6f} >= 1; "
            f"the Lyapunov bound requires rho < 1/r = {1.0 / r if r > 0 else np.inf:.6f}"
        )
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

    The first maximizer in grid order wins. If any feasible rho's solve
    failed, the first such rho in grid order raises the error the kernel
    built for it, the one observer_bound raises; no rho is solved twice.
    """
    rhos = _grid("rho grid", rho_grid if rho_grid is not None else default_rho_grid())
    G = np.asarray(G, dtype=float).reshape(model.n, model.p)
    (beta,), (Sigma,), (r,), errors = _beta_batch(model, G[None], rhos[None])
    if errors:
        raise errors[min(errors)]
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
    total, chunk = int(np.prod(shape)), max(1, _STACK_ENTRIES // (rhos.size * n**2))
    points, betas, feasible = np.empty((0, k + 1)), np.empty(0), 0
    for start in range(0, total, chunk):
        idx = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        gains = np.column_stack([g[i] for g, i in zip(grids, idx)])
        beta, _, _, errors = _beta_batch(model, gains.reshape(-1, n, p),
                                         np.broadcast_to(rhos, (len(gains), rhos.size)))
        gi, rj = np.nonzero(~np.isnan(beta))
        feasible += gi.size + len(errors)
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
            if (better := beta > fx * (1.0 + _LYAP_RTOL)).any():
                prev, (x, fx) = x, _pick(np.where(better, beta, np.nan), trial)
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
