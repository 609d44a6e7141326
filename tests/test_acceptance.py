"""End-to-end acceptance suite for the worked two-state example.

Every check prints one [PASS]/[FAIL] line (visible with `pytest -s`)
and asserts its stated tolerance. Two checks reproduce published
reference values that do not follow from the defining formulas and are
expected to fail; their docstrings carry the arithmetic:

  * test_criterion_03b_published_w_endpoint
  * test_criterion_04b_step_distance_within_six_iterations
"""

import time

import numpy as np
from helpers import (
    build_block_model,
    loewner_leq,
    random_model,
    random_spd,
    rs_riccati_gain_form,
    rs_riccati_observer_form,
    safe_theta,
    spectral_radius,
)

from rsriccati import (
    block_map,
    block_riccati_map,
    bound_search,
    breakdown_search,
    contraction_bound,
    fixed_point,
    iterate_trajectory,
    observer_bound,
    riemann_distance,
    rs_gain,
    rs_riccati_map,
    spectral,
    tau_N,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def relerr(value, reference) -> float:
    return abs(value - reference) / abs(reference)


# ---------------------------------------------------------------------------


def test_criterion_01_lyapunov_bound_reproduction(example_model, example_bound):
    """Sigma_2 entries within 0.05% and its top eigenvalue within 0.05%."""
    _, Sigma2, _ = example_bound
    ref = 1e3 * np.array([[1.4622, 1.5954], [1.5954, 1.7431]])
    entry_err = float(np.max(np.abs(Sigma2 - ref) / ref))
    lam1 = spectral(Sigma2).eigenvalues[0]
    lam_err = relerr(lam1, 3.2042e3)
    ok = entry_err < 5e-4 and lam_err < 5e-4
    report("criterion 1 (Sigma_2)",
           ok, f"max entry error {entry_err:.2e}, lam_1 error {lam_err:.2e}")
    assert entry_err < 5e-4
    assert lam_err < 5e-4


def test_criterion_02_risk_bound_value(example_bound):
    """beta_2 = 2.3407e-4 within 0.1%."""
    _, _, beta2 = example_bound
    err = relerr(beta2, 2.3407e-4)
    report("criterion 2 (beta_2)", err < 1e-3, f"beta_2 = {beta2:.6e}, error {err:.2e}")
    assert err < 1e-3


def test_criterion_03a_tau_and_risk_neutral_w(example_model):
    """tau_2 = 0.715e-3 within 2%; lam_min(W) at theta=0 within 0.01%."""
    thr = tau_N(example_model, 2)
    tau_err = relerr(thr.tau_N, 0.715e-3)
    w0 = spectral(block_map(example_model, 2, 0.0).W).eigenvalues[-1]
    w0_err = relerr(w0, 1.002828)
    ok = tau_err < 0.02 and w0_err < 1e-4
    report("criterion 3a (tau_2, W endpoint at 0)",
           ok, f"tau_2 = {thr.tau_N:.6e} (err {tau_err:.2e}), "
               f"lam_min W(0) = {w0:.7f} (err {w0_err:.2e})")
    assert tau_err < 0.02
    assert w0_err < 1e-4


def test_criterion_03b_published_w_endpoint(example_model):
    """lam_min(W) at theta=2e-3 against the published endpoint 1.02831.

    Expected to FAIL: exact arithmetic for this model gives
    W(theta) = I + A inv([[2-t, -1], [-1, 2-t]]) A^T, whose smallest
    eigenvalue at t = 2e-3 is 1.0028310 (a first-order perturbation at
    the bottom eigenvector predicts the same +2.8e-6 increment over
    1.002828). The published figure of 1.02831 is those digits with one
    zero dropped, and a 2.5% jump would contradict the accompanying
    observation that the increase rate is very small. Kept red rather
    than silently corrected; the true value is asserted in
    tests/test_statespace.py.
    """
    w2 = spectral(block_map(example_model, 2, 2e-3).W).eigenvalues[-1]
    err = relerr(w2, 1.02831)
    report("criterion 3b (published W endpoint at 2e-3)",
           err < 1e-4, f"computed {w2:.7f}, published 1.02831, error {err:.2e}")
    assert err < 1e-4, (
        f"computed lam_min(W) = {w2:.7f} at theta=2e-3; the published "
        f"endpoint 1.02831 appears to drop a zero (1.002831)"
    )


def test_criterion_04a_fixed_point_spectra(example_model, example_bound):
    """Fixed-point eigenvalues within 0.5%, closed-loop within 2%."""
    _, Sigma2, beta2 = example_bound
    res = fixed_point(example_model, beta2, Sigma2)
    eig = spectral(res.P_star).eigenvalues
    cl = np.sort(np.abs(res.closed_loop_eigenvalues))
    errs = (relerr(eig[0], 332.4), relerr(eig[1], 1.003),
            relerr(cl[0], 0.034), relerr(cl[1], 0.776))
    ok = errs[0] < 5e-3 and errs[1] < 5e-3 and errs[2] < 0.02 and errs[3] < 0.02
    report("criterion 4a (fixed-point and closed-loop spectra)",
           ok, f"P* eig {eig[0]:.1f}/{eig[1]:.4f}, closed loop "
               f"{cl[0]:.4f}/{cl[1]:.4f}")
    assert errs[0] < 5e-3 and errs[1] < 5e-3
    assert errs[2] < 0.02 and errs[3] < 0.02


def test_criterion_04b_step_distance_within_six_iterations(example_model, example_bound):
    """Affine-invariant step distance below 1e-3 within 6 iterations.

    Expected to FAIL: from P0 = Sigma_2 at theta = beta_2 the measured
    step distances start at d_1 = 1.163 and shrink with asymptotic
    ratio 0.7295 per iteration (the theoretical local rate is the
    squared closed-loop spectral radius 0.776^2 = 0.62, which the same
    reference pins). The first crossing of 1e-3 is at iteration 19; six
    iterations would need a per-step ratio near 0.24, inconsistent with
    the closed-loop spectrum asserted in criterion 4a. The qualitative
    claim behind this check is about eigenvalue plots on a 0..3200
    scale flattening after a few steps, which criterion 5 covers.
    """
    _, Sigma2, beta2 = example_bound
    P = Sigma2.copy()
    crossed_at = None
    for it in range(1, 26):
        P_next = rs_riccati_map(example_model, beta2, P)
        d = riemann_distance(P_next, P)
        P = P_next
        if d < 1e-3:
            crossed_at = it
            break
    ok = crossed_at is not None and crossed_at <= 6
    report("criterion 4b (step distance < 1e-3 within 6 iterations)",
           ok, f"first crossing at iteration {crossed_at}")
    assert ok, (
        f"step distance first fell below 1e-3 at iteration {crossed_at}; "
        f"6 is unreachable at contraction ratio ~0.73 from d_1 = 1.16"
    )


def test_criterion_05_trajectory_monotonicity(example_model, example_bound):
    """P_t and V_t eigenvalues positive and nonincreasing for t = 0..11."""
    _, Sigma2, beta2 = example_bound
    steps = iterate_trajectory(example_model, beta2, Sigma2, 11)
    lam_P = np.array([s.lambda_P for s in steps])
    lam_V = np.array([s.lambda_V for s in steps])
    ok = (len(steps) == 12
          and all(s.status == "ok" for s in steps)
          and lam_P.min() > 0 and lam_V.min() > 0
          and np.all(np.diff(lam_P, axis=0) <= 1e-10)
          and np.all(np.diff(lam_V, axis=0) <= 1e-10))
    report("criterion 5 (trajectory monotonicity)",
           ok, f"{len(steps)} steps, lam_P range "
               f"[{lam_P.min():.4f}, {lam_P.max():.1f}]")
    assert ok


def test_criterion_06_breakdown_bracket(example_model, example_bound):
    """Breakdown bracket inside (0.95e-3, 1.05e-3) from the Sigma_2
    start, in under 60 s."""
    _, Sigma2, beta2 = example_bound
    t0 = time.monotonic()
    res = breakdown_search(example_model, theta_lo=beta2, theta_hi=2e-3,
                           P0=Sigma2, tol=1e-6)
    elapsed = time.monotonic() - t0
    ok = (res.found and 0.95e-3 < res.bracket[0]
          and res.bracket[1] < 1.05e-3 and elapsed < 60.0)
    report("criterion 6 (breakdown bracket)",
           ok, f"bracket ({res.bracket[0]:.6e}, {res.bracket[1]:.6e}), "
               f"{elapsed:.1f}s")
    assert res.found
    assert 0.95e-3 < res.bracket[0] and res.bracket[1] < 1.05e-3
    assert elapsed < 60.0


def test_criterion_07_bound_search(example_model):
    """Default-grid search reaches 95% of the best published bound with
    rho in [1.1, 1.5], in under 120 s."""
    t0 = time.monotonic()
    best = bound_search(example_model)
    elapsed = time.monotonic() - t0
    ok = (best.beta_rho >= 0.95 * 0.4824e-3
          and 1.1 <= best.rho <= 1.5 and elapsed < 120.0)
    report("criterion 7 (bound search)",
           ok, f"beta* = {best.beta_rho:.6e} at rho = {best.rho:.4f}, "
               f"G = {best.G.ravel()}, {elapsed:.1f}s")
    assert best.beta_rho >= 0.95 * 0.4824e-3
    assert 1.1 <= best.rho <= 1.5
    assert elapsed < 120.0


def test_criterion_08_large_block_limit(example_model):
    """tau_N and theta_N within 5% of 1.33e-3 at N = 40."""
    thr = tau_N(example_model, 40)
    tau_err = relerr(thr.tau_N, 1.33e-3)
    theta_err = relerr(thr.theta_N, 1.33e-3)
    ok = tau_err < 0.05 and theta_err < 0.05
    report("criterion 8 (large-N limit)",
           ok, f"tau_40 = {thr.tau_N:.6e}, theta_40 = {thr.theta_N:.6e}")
    assert tau_err < 0.05
    assert theta_err < 0.05


# ---------------------------------------------------------------------------
# criterion 9: property suites


def test_criterion_09a_metric_invariances():
    """Inversion and congruence invariance of the distance at 1e-8."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        P = random_spd(rng, 3, 0.2, 5.0)
        Q = random_spd(rng, 3, 0.2, 5.0)
        M = rng.standard_normal((3, 3))
        while abs(np.linalg.det(M)) < 1e-3:
            M = rng.standard_normal((3, 3))
        d = riemann_distance(P, Q)
        worst = max(worst, abs(d - riemann_distance(np.linalg.inv(P), np.linalg.inv(Q))))
        worst = max(worst, abs(d - riemann_distance(M @ P @ M.T, M @ Q @ M.T)))
    report("criterion 9a (metric invariances)", worst < 1e-8,
           f"worst deviation {worst:.2e} over 50 pairs")
    assert worst < 1e-8


def test_criterion_09b_contraction_bound_domination():
    """Contraction bound dominates sampled ratios on 500 pairs."""
    rng = np.random.default_rng(103)
    checked = 0
    for _ in range(25):
        M = rng.standard_normal((3, 3))
        Omega = random_spd(rng, 3, 0.3, 3.0)
        W = random_spd(rng, 3, 0.3, 3.0)
        bound = contraction_bound(M, Omega, W)

        def f(P):
            return M @ np.linalg.inv(np.linalg.inv(P) + Omega) @ M.T + W

        for _ in range(20):
            P = random_spd(rng, 3, 0.1, 10.0)
            Q = random_spd(rng, 3, 0.1, 10.0)
            assert riemann_distance(f(P), f(Q)) <= bound * riemann_distance(P, Q) + 1e-9
            checked += 1
    report("criterion 9b (contraction bound domination)", True,
           f"{checked} sampled pairs dominated")
    assert checked == 500


def test_criterion_09c_map_form_equivalences():
    """Plain, gain and observer forms agree at 1e-9 on 100 samples."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        P = random_spd(rng, 2, 0.3, 3.0)
        # risk-neutral gain form
        rn = rs_riccati_map(model, 0.0, P)
        K = rs_gain(model, 0.0, P)[0]
        F = model.A - K @ model.C
        rn_gain = F @ P @ F.T + model.B @ model.B.T + K @ K.T
        worst = max(worst, np.linalg.norm(rn - rn_gain) / (1 + np.linalg.norm(rn)))
        # risk-sensitive forms, including the observer form for random gains
        theta = safe_theta(model, P)
        rs = rs_riccati_map(model, theta, P)
        scale = 1 + np.linalg.norm(rs)
        worst = max(worst, np.linalg.norm(rs - rs_riccati_gain_form(model, theta, P)) / scale)
        G = rng.standard_normal((2, 1))
        obs = rs_riccati_observer_form(model, theta, P, G)
        worst = max(worst, np.linalg.norm(rs - obs) / scale)
    report("criterion 9c (map form equivalences)", worst < 1e-9,
           f"worst relative deviation {worst:.2e} over 100 samples")
    assert worst < 1e-9


def test_criterion_09d_block_map_is_composition():
    """Block update equals the N-fold one-step composition, N in 1..3."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for N in (1, 2, 3):
        for _ in range(8):
            model = random_model(rng)
            P = random_spd(rng, 2, 0.3, 3.0)
            # at N = 1 no noise reaches the penalty within the block (L = 0), so
            # theta_N is infinite; tau_N, which reports it, needs N p >= n
            theta_cap = np.inf if N == 1 else tau_N(model, N).theta_N
            theta = min(safe_theta(model, P), 0.5 * theta_cap)
            block = block_map(model, N, theta)
            composed = P
            for _ in range(N):
                composed = rs_riccati_map(model, theta, composed)
            got = block_riccati_map(block, P)
            worst = max(worst, np.linalg.norm(got - composed) / (1 + np.linalg.norm(composed)))
    report("criterion 9d (block map composition)", worst < 1e-9,
           f"worst relative deviation {worst:.2e}")
    assert worst < 1e-9


def test_criterion_09e_gramian_monotonicity(example_model):
    """Loewner monotonicity of the two Gramians on a 20-point grid."""
    grid = np.linspace(0.0, 0.95 * tau_N(example_model, 2).theta_N, 20)
    blocks = [block_map(example_model, 2, t) for t in grid]
    ok = True
    for b1, b2 in zip(blocks, blocks[1:]):
        ok = ok and loewner_leq(b2.Omega, b1.Omega, tol=1e-10)
        ok = ok and loewner_leq(b1.W, b2.W, tol=1e-10)
    report("criterion 9e (Gramian monotonicity)", ok, "20-point grid")
    assert ok


def test_criterion_09f_map_monotonicity():
    """Order preservation of the update on 100 ordered pairs."""
    rng = np.random.default_rng(113)
    for _ in range(100):
        model = random_model(rng)
        P2 = random_spd(rng, 2, 0.5, 2.0)
        bump = rng.standard_normal((2, 2))
        P1 = P2 + 0.4 * (bump @ bump.T)
        theta = safe_theta(model, P1)
        assert loewner_leq(
            rs_riccati_map(model, theta, P2),
            rs_riccati_map(model, theta, P1),
            tol=1e-10,
        )
    report("criterion 9f (map monotonicity)", True, "100 ordered pairs")


def test_criterion_09g_lyapunov_direct_vs_series():
    """Dense-solve and truncated-series routes agree at 1e-9."""
    rng = np.random.default_rng(127)
    worst = 0.0
    cases = 0
    while cases < 10:
        model = random_model(rng)
        G = 0.3 * rng.standard_normal((2, 1))
        rho = rng.uniform(1.01, 1.3)
        F = model.A - G @ model.C
        if rho * spectral_radius(F) >= 0.9:
            continue
        cases += 1
        Sigma = observer_bound(model, G, rho).Sigma_rho
        term = model.B @ model.B.T + G @ G.T
        total = term.copy()
        while np.linalg.norm(term) > 1e-15 * np.linalg.norm(total):
            term = rho**2 * (F @ term @ F.T)
            total += term
        worst = max(worst, np.linalg.norm(Sigma - total) / np.linalg.norm(total))
    report("criterion 9g (Lyapunov direct vs series)", worst < 1e-9,
           f"worst relative deviation {worst:.2e} over 10 cases")
    assert worst < 1e-9


def test_criterion_09h_fixed_point_start_independence(example_model, example_bound):
    """Ten starts below Sigma_2 reach the same fixed point within 1e-8."""
    _, Sigma2, beta2 = example_bound
    rng = np.random.default_rng(131)
    root = np.linalg.cholesky(Sigma2)
    reference = fixed_point(example_model, beta2, Sigma2).P_star
    worst = 0.0
    for _ in range(10):
        W = random_spd(rng, 2, 0.05, 0.9)
        W /= max(1.0, np.max(np.linalg.eigvalsh(W)) / 0.95)
        P0 = root @ W @ root.T
        res = fixed_point(example_model, beta2, P0)
        worst = max(worst, riemann_distance(res.P_star, reference))
    report("criterion 9h (fixed-point start independence)", worst < 1e-8,
           f"worst distance {worst:.2e} over 10 starts")
    assert worst < 1e-8


# ---------------------------------------------------------------------------


def test_criterion_10_threshold_cross_check(example_model):
    """Dense-eigenvalue oracle for the core matrix behind theta_2.

    The top eigenvalue computes to exactly 1. The implemented threshold
    is its reciprocal, 1.0, per the defining formula; the worked
    example's text instead prints 2, which neither follows from the
    formula nor matches the large-N limit (criterion 8, where both
    thresholds meet at 1.33e-3 under the reciprocal reading). This
    check passes when the computation agrees with the documented
    reciprocal resolution, not with the printed 2.
    """
    block = build_block_model(example_model, 2)
    H, L = block.H, block.L
    core = L @ np.linalg.inv(np.eye(4) + H.T @ H) @ L.T
    lam1 = float(np.max(np.linalg.eigvalsh(core)))
    th2 = tau_N(example_model, 2).theta_N
    ok = abs(lam1 - 1.0) < 1e-10 and abs(th2 - 1.0 / lam1) < 1e-12
    report("criterion 10 (threshold cross-check)",
           ok, f"core eigenvalue {lam1:.12f}, threshold {th2:.12f} "
               f"(reciprocal reading; printed value 2 not reproduced)")
    assert abs(lam1 - 1.0) < 1e-10
    assert abs(th2 - 1.0 / lam1) < 1e-12
