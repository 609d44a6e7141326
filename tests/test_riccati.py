import sys

import numpy as np
import pytest
from helpers import (
    MAP_EXIT_JSON,
    MAP_EXIT_THETA,
    _closed_form,
    build_block_model,
    congruent,
    fixed_point_oracle,
    kalman_gain_oracle,
    loewner_leq,
    mp_fixed_point,
    random_model,
    random_spd,
    rs_riccati_gain_form,
    rs_riccati_observer_form,
    safe_theta,
    sequential_bisection,
    transforms,
)

from rsriccati import (
    BreakdownResult,
    ConeExitError,
    DomainError,
    IterationLimitError,
    NumericalError,
    StateSpaceModel,
    UsageError,
    block_map,
    block_riccati_map,
    breakdown_search,
    contraction_bound,
    fixed_point,
    fixed_point_sweep,
    iterate_trajectory,
    load_model,
    riemann_distance,
    rs_gain,
    rs_riccati_map,
    run_filter,
    spectral,
    tau_N,
    verify_are,
)
from rsriccati import riccati
from rsriccati.cli import main
from rsriccati.riccati import _inverse, _solve_stack

SCALAR = '{"A": [[%s]], "B": [[1]], "C": [[1]], "D": [[1]]}'
# A nilpotent, so singular: the closed form of the map has no P* for it, the doubled map has
NILPOTENT = '{"A": [[0,1],[0,0]], "B": [[1,0],[0,1]], "C": [[1,0]], "D": [[1,0],[0,1]]}'


# ---------------------------------------------------------------------------
# map forms


def test_riccati_map_zero_dynamics():
    model = load_model('{"A": [[0,0],[0,0]], "B": [[1,0],[0,2]], "C": [[1,1]]}')
    P = random_spd(np.random.default_rng(1), 2)
    assert np.allclose(rs_riccati_map(model, 0.0, P), model.B @ model.B.T)


def test_riccati_map_scalar():
    model = load_model(SCALAR % "1")
    assert abs(rs_riccati_map(model, 0.0, np.eye(1))[0, 0] - 1.5) < 1e-15


def test_riccati_map_rejects_indefinite():
    model = load_model(SCALAR % "1")
    with pytest.raises(DomainError):
        rs_riccati_map(model, 0.0, -np.eye(1))


def test_kalman_gain_trivial():
    model = load_model('{"A": [[1,0],[0,1]], "B": [[1,0],[0,1]], "C": [[0,0]]}')
    K, R_nu = rs_gain(model, 0.0, np.eye(2))[:2]
    assert np.array_equal(K, np.zeros((2, 1)))
    assert np.array_equal(R_nu, np.eye(1))
    scalar = load_model(SCALAR % "1")
    K, R_nu = rs_gain(scalar, 0.0, np.eye(1))[:2]
    assert abs(R_nu[0, 0] - 2.0) < 1e-15
    assert abs(K[0, 0] - 0.5) < 1e-15


def test_gain_form_matches_map_risk_neutral():
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = random_model(rng)
        P = random_spd(rng, 2)
        lhs = rs_riccati_map(model, 0.0, P)
        K = rs_gain(model, 0.0, P)[0]
        F = model.A - K @ model.C
        rhs = F @ P @ F.T + model.B @ model.B.T + K @ K.T
        assert np.linalg.norm(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(lhs))


def test_rs_map_scalar_no_dynamics():
    model = load_model('{"A": [[0]], "B": [[1]], "C": [[1]], "D": [[1]]}')
    for theta in (0.0, 0.3, 0.9):
        assert abs(rs_riccati_map(model, theta, np.eye(1))[0, 0] - 1.0) < 1e-15


def test_rs_map_cone_exit_carries_lambda():
    model = load_model(SCALAR % "1")
    with pytest.raises(ConeExitError, match="leaves the cone") as exc:
        rs_riccati_map(model, 3.0, np.eye(1))  # 1 + 1 - 3 < 0
    assert exc.value.lambda_min < 0


def test_rs_map_rejects_nan_argument():
    model = load_model(SCALAR % "1")
    with pytest.raises(ConeExitError, match="not positive definite"):
        rs_riccati_map(model, 0.0, np.full((1, 1), np.nan))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, -1.0])
def test_risk_parameter_domain_at_entry(example_model, theta):
    P = np.eye(2)
    calls = [
        lambda: rs_riccati_map(example_model, theta, P),
        lambda: rs_gain(example_model, theta, P),
        lambda: fixed_point(example_model, theta, P),
        lambda: iterate_trajectory(example_model, theta, P, 3),
        lambda: breakdown_search(example_model, theta, 2e-3),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="theta must be finite and >= 0"):
            call()


def test_rs_map_first_lemma4_step(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    P1 = rs_riccati_map(example_model, beta2, Sigma2)
    assert loewner_leq(P1, Sigma2, tol=1e-9)


def test_rs_gain_reduces_at_zero():
    rng = np.random.default_rng(7)
    model = random_model(rng)
    P = random_spd(rng, 2)
    K0, R0 = kalman_gain_oracle(model, P)
    K, R_nu, V = rs_gain(model, 0.0, P)
    assert np.allclose(K, K0, atol=1e-12)
    assert np.allclose(R_nu, R0, atol=1e-12)
    assert np.allclose(V, P, atol=1e-12)


def test_rs_gain_scalar_validity_matrix():
    model = load_model(SCALAR % "1")
    _, _, V = rs_gain(model, 0.5, np.eye(1))
    assert abs(V[0, 0] - 2.0) < 1e-14


@pytest.mark.parametrize("update", [
    rs_gain, rs_riccati_map, verify_are, fixed_point,
    pytest.param(lambda m, th, P: fixed_point_sweep(m, [th], P), id="fixed_point_sweep"),
    pytest.param(lambda m, th, P: iterate_trajectory(m, th, P, 3), id="iterate_trajectory"),
    pytest.param(lambda m, th, P: run_filter(m, th, P, np.zeros(2), np.zeros((3, 1))),
                 id="run_filter"),
])
def test_overflowing_inverse_is_a_numerical_failure(example_model, update):
    # P passes the relative gate (1e-310 > 1e-12 x 1e-300), but P^-1 is not
    # finite: neither a validity violation nor a cone exit, and no warning
    P = np.diag([1e-310, 1e-300])
    with pytest.raises(NumericalError, match="inverse overflows"):
        update(example_model, 0.1, P)


def test_rs_gain_validity_violation():
    model = load_model(SCALAR % "1")
    with pytest.raises(ConeExitError, match="validity violated"):
        rs_gain(model, 2.0, np.eye(1))


def test_gain_form_matches_rs_map_sampled():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = random_model(rng)
        P = random_spd(rng, 2)
        theta = safe_theta(model, P)
        lhs = rs_riccati_map(model, theta, P)
        rhs = rs_riccati_gain_form(model, theta, P)
        assert np.linalg.norm(lhs - rhs) < 1e-10 * (1 + np.linalg.norm(lhs))


def test_gain_form_scalar_hand_case():
    model = load_model(SCALAR % "1")
    a = rs_riccati_map(model, 0.1, np.eye(1))
    b = rs_riccati_gain_form(model, 0.1, np.eye(1))
    assert abs(a[0, 0] - b[0, 0]) < 1e-12


def test_observer_form_equals_map_for_any_gain(example_model):
    rng = np.random.default_rng(13)
    P = random_spd(rng, 2, 0.5, 3.0)
    theta = safe_theta(example_model, P)
    target = rs_riccati_map(example_model, theta, P)
    for _ in range(10):
        G = rng.standard_normal((2, 1))
        val = rs_riccati_observer_form(example_model, theta, P, G)
        assert np.linalg.norm(val - target) < 1e-9 * (1 + np.linalg.norm(target))
    # zero gain and the optimal gain are special cases of the same identity
    zero = rs_riccati_observer_form(example_model, theta, P, np.zeros((2, 1)))
    assert np.linalg.norm(zero - target) < 1e-9 * (1 + np.linalg.norm(target))
    K, _, V = rs_gain(example_model, theta, P)
    at_opt = rs_riccati_observer_form(example_model, theta, P, K)
    assert np.linalg.norm(at_opt - target) < 1e-9 * (1 + np.linalg.norm(target))
    # at the optimal gain the correction bracket itself vanishes
    F = example_model.A - K @ example_model.C
    mismatch = F @ V @ example_model.C.T - K
    assert np.linalg.norm(mismatch) < 1e-9


# ---------------------------------------------------------------------------
# block map composition


def test_block_map_single_step_is_plain_map():
    rng = np.random.default_rng(17)
    model = random_model(rng)
    block = block_map(model, 1, 0.0)
    P = random_spd(rng, 2)
    assert np.allclose(block_riccati_map(block, P), rs_riccati_map(model, 0.0, P), atol=1e-12)


def test_block_map_is_composition_risk_neutral():
    rng = np.random.default_rng(19)
    for _ in range(5):
        model = random_model(rng)
        block = block_map(model, 3, 0.0)
        P = random_spd(rng, 2)
        composed = P
        for _ in range(3):
            composed = rs_riccati_map(model, 0.0, composed)
        got = block_riccati_map(block, P)
        assert np.linalg.norm(got - composed) < 1e-9 * (1 + np.linalg.norm(composed))


def test_block_map_is_composition_risk_sensitive(example_model):
    rng = np.random.default_rng(23)
    theta = 3e-4  # below tau_2
    block = block_map(example_model, 2, theta)
    for _ in range(10):
        P = random_spd(rng, 2, 0.5, 5.0)
        composed = rs_riccati_map(example_model, theta, rs_riccati_map(example_model, theta, P))
        got = block_riccati_map(block, P)
        assert np.linalg.norm(got - composed) < 1e-9 * (1 + np.linalg.norm(composed))


def test_block_map_triple_is_the_n_fold_composition():
    # worst measured deviation 2.5e-13 relative
    rng = np.random.default_rng(3200)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            model = random_model(rng, n, m=2, p=1, radius=rng.uniform(0.5, 1.2))
            P = random_spd(rng, n, 0.3, 3.0)
            risk_neutral = [P]
            for _ in range(13):
                risk_neutral.append(rs_riccati_map(model, 0.0, risk_neutral[-1]))
            theta = min(0.5 * tau_N(model, 16).theta_N,
                        min(safe_theta(model, X, 0.1) for X in risk_neutral))
            for N in (1, 2, 5, 8, 13):
                composed = P
                for _ in range(N):
                    composed = rs_riccati_map(model, theta, composed)
                got = block_riccati_map(block_map(model, N, theta), P)
                assert np.linalg.norm(got - composed) <= 1e-11 * np.linalg.norm(composed)


def test_block_contraction_witness(example_model):
    rng = np.random.default_rng(29)
    theta = 3e-4
    block = block_map(example_model, 2, theta)
    bound = contraction_bound(*block)
    assert 0.0 <= bound < 1.0
    for _ in range(20):
        P = random_spd(rng, 2, 0.2, 5.0)
        Q = random_spd(rng, 2, 0.2, 5.0)
        lhs = riemann_distance(block_riccati_map(block, P), block_riccati_map(block, Q))
        assert lhs <= bound * riemann_distance(P, Q) + 1e-9


# ---------------------------------------------------------------------------
# monotonicity


def test_map_monotonicity_lemma():
    rng = np.random.default_rng(31)
    for _ in range(25):
        model = random_model(rng)
        P2 = random_spd(rng, 2, 0.5, 2.0)
        bump = rng.standard_normal((2, 2))
        P1 = P2 + 0.5 * (bump @ bump.T)
        theta = safe_theta(model, P1)
        r1 = rs_riccati_map(model, theta, P1)
        r2 = rs_riccati_map(model, theta, P2)
        assert loewner_leq(r2, r1, tol=1e-10)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_constant_at_fixed_point():
    model = load_model(SCALAR % "1")
    p_star = (1.0 + np.sqrt(5.0)) / 2.0
    steps = iterate_trajectory(model, 0.0, np.array([[p_star]]), 5)
    assert len(steps) == 6
    assert all(s.status == "ok" for s in steps)
    for s in steps:
        assert abs(s.P[0, 0] - p_star) < 1e-12


def test_trajectory_records_eigen_data(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    steps = iterate_trajectory(example_model, beta2, Sigma2, 11)
    assert [s.t for s in steps] == list(range(12))
    for s in steps:
        assert s.status == "ok"
        assert s.lambda_P[0] >= s.lambda_P[1] > 0
        assert s.lambda_V is not None and s.lambda_V[-1] > 0
        assert np.allclose(s.lambda_P, spectral(s.P).eigenvalues)


def test_trajectory_flags_violation_above_breakdown(example_model):
    steps = iterate_trajectory(example_model, 2e-3, np.eye(2), 200)
    assert steps[-1].status == "v_violation"
    assert steps[-1].lambda_V is None or steps[-1].lambda_V[-1] <= 0
    assert len(steps) < 201  # stopped early
    assert all(s.status == "ok" for s in steps[:-1])


def test_trajectory_reports_map_cone_exit_in_band():
    steps = iterate_trajectory(load_model(MAP_EXIT_JSON), MAP_EXIT_THETA, np.eye(2), 5)
    assert [(s.t, s.status) for s in steps] == [(0, "ok"), (1, "cone_exit")]
    assert np.isnan(steps[1].P).all() and np.isnan(steps[1].lambda_P).all()
    assert steps[1].lambda_V is None


def test_trajectory_and_are_report_reproduce_the_fixed_point_bitwise(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    rng = np.random.default_rng(43)
    model = random_model(rng, n=4, m=4, p=2)
    P0 = random_spd(rng, 4)
    theta = safe_theta(model, fixed_point(model, 0.0, P0).P_star, 0.1)
    for model, theta, P0 in [(example_model, beta2, Sigma2), (model, theta, P0)]:
        fp = fixed_point(model, theta, P0)
        steps = iterate_trajectory(model, theta, P0, fp.iterations)
        assert steps[-1].status == "ok"
        assert np.array_equal(steps[-1].P, fp.P_star)
        assert verify_are(model, theta, fp.P_star).residual == fp.are_residual


def test_trajectory_eigenvalues_follow_partial_order(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    steps = iterate_trajectory(example_model, beta2, Sigma2, 11)
    lam = np.array([s.lambda_P for s in steps])
    assert np.all(np.diff(lam, axis=0) <= 1e-10)


def test_trajectory_rejects_negative_horizon(example_model):
    with pytest.raises(DomainError):
        iterate_trajectory(example_model, 0.0, np.eye(2), -1)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_scalar_golden_ratio():
    # p = p/(1+p) + 1 has the closed-form root (1+sqrt(5))/2
    model = load_model(SCALAR % "1")
    res = fixed_point(model, 0.0, np.eye(1))
    assert abs(res.P_star[0, 0] - 1.6180339887498949) < 1e-10
    assert res.closed_loop_spectral_radius < 1.0
    assert res.are_residual <= 1e-8 * (1 + np.linalg.norm(res.P_star))


@pytest.mark.parametrize("theta", np.linspace(0.0, 0.55, 12))
def test_fixed_point_scalar_whittle_root(theta):
    # Whittle (1990): for n = 1, P* is the positive root of
    # s P^2 + (1 - a^2 - b^2 s) P - b^2 = 0 with s = c^2 - theta d^2
    a, b, c, d = 0.9, 1.0, 1.0, 1.0
    model = load_model(SCALAR % a)
    s = c**2 - theta * d**2
    beta = 1.0 - a**2 - b**2 * s  # negative on this grid: no cancellation below
    root = (-beta + np.sqrt(beta**2 + 4.0 * s * b**2)) / (2.0 * s)
    res = fixed_point(model, theta)
    assert abs(res.P_star[0, 0] - root) <= 1e-12 * root


def test_fixed_point_immediate_for_zero_dynamics():
    model = load_model('{"A": [[0,0],[0,0]], "B": [[1,0],[0,1]], "C": [[1,1]]}')
    res = fixed_point(model, 0.0, 3.0 * np.eye(2))
    assert np.allclose(res.P_star, np.eye(2), atol=1e-12)
    assert res.iterations <= 2


def test_fixed_point_independent_of_start(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    rng = np.random.default_rng(37)
    reference = fixed_point(example_model, beta2, Sigma2).P_star
    for _ in range(10):
        # random starts below the Lyapunov bound
        scale = rng.uniform(0.05, 1.0)
        P0 = scale * Sigma2 + random_spd(rng, 2, 0.1, 1.0)
        P0 = P0 * (0.9 / np.max(np.linalg.eigvalsh(P0)) * np.max(np.linalg.eigvalsh(Sigma2)))
        if not loewner_leq(P0, Sigma2):
            P0 = 0.5 * Sigma2
        res = fixed_point(example_model, beta2, P0)
        assert riemann_distance(res.P_star, reference) < 1e-8


def test_fixed_point_theta_monotone(example_model):
    thetas = np.linspace(0.0, 0.9e-3, 7)
    fps = [fixed_point(example_model, t, np.eye(2)).P_star for t in thetas]
    for P1, P2 in zip(fps, fps[1:]):
        assert loewner_leq(P1, P2, tol=1e-8)


def test_fixed_point_iteration_limit():
    model = load_model(SCALAR % "1")
    with pytest.raises(IterationLimitError) as exc:
        fixed_point(model, 0.0, np.eye(1), tol=1e-12, max_iter=3)
    assert exc.value.last_distance > 0


@pytest.mark.parametrize("solve", [
    pytest.param(lambda m, **kw: fixed_point(m, 0.0, **kw), id="fixed_point"),
    pytest.param(lambda m, **kw: fixed_point_sweep(m, [0.0, 1e-4], **kw), id="fixed_point_sweep"),
])
@pytest.mark.parametrize("kwargs", [
    {"tol": np.nan}, {"tol": -1.0}, {"max_iter": -3}, {"max_iter": 0}, {"max_iter": 2.5},
], ids=["tol=nan", "tol=-1", "max_iter=-3", "max_iter=0", "max_iter=2.5"])
def test_fixed_point_rejects_a_bad_tol_or_max_iter_before_any_solve(
        monkeypatch, example_model, solve, kwargs):
    def no_solve(*args):
        raise AssertionError("solved before checking its arguments")

    monkeypatch.setattr(riccati, "_solve_stack", no_solve)
    with pytest.raises(UsageError):
        solve(example_model, **kwargs)


def test_fixed_point_rejects_nan_start():
    model = load_model(SCALAR % "1")
    with pytest.raises(DomainError, match="not positive definite"):
        fixed_point(model, 0.0, np.full((1, 1), np.nan))


def test_fixed_point_converges_at_large_scale():
    # P* is about 1e16 I; the whitened step spectrum is 2e-16 I at step 1
    model = load_model('{"A": [[1e8,0],[0,1e8]], "B": [[1,0],[0,1]], "C": [[1,0],[0,1]]}')
    res = fixed_point(model, 0.0)
    assert np.allclose(res.P_star, 1e16 * np.eye(2), rtol=1e-12)
    assert res.are_residual <= 1e-8 * np.linalg.norm(res.P_star)


def test_fixed_point_converges_at_small_scale():
    # scalar closed form per axis: p = a^2 p / (1 + p) + b^2 with p ~ 1e-14
    model = load_model(
        '{"A": [[0.5,0],[0,0.5]], "B": [[1e-7,0],[0,1e-7]], "C": [[1,0],[0,1]]}'
    )
    res = fixed_point(model, 0.0)
    b2 = 1e-14
    c = 0.75 - b2  # positive root of p^2 + c p - b^2 = 0, without cancellation
    p_star = 2.0 * b2 / (c + np.sqrt(c * c + 4.0 * b2))
    assert np.allclose(res.P_star, p_star * np.eye(2), rtol=1e-8, atol=0.0)


def test_fixed_point_breakdown_above_threshold(example_model):
    # well above the breakdown value the iteration cannot deliver a
    # valid fixed point
    with pytest.raises((ConeExitError, IterationLimitError)):
        fixed_point(example_model, 1.5e-3, np.eye(2))


@pytest.mark.parametrize("theta", [1.31e-3, 1.32e-3])
def test_fixed_point_stops_at_the_roundoff_floor_near_breakdown(example_model, theta):
    # just above breakdown the step distance stalls at 6e-12 and 1.5e-11,
    # above tol = 1e-12; without the stall rule both ran all 10,000 iterations
    with pytest.raises(ConeExitError, match="validity matrix is not positive definite") as info:
        fixed_point(example_model, theta, np.eye(2), max_iter=1000)
    assert info.value.step <= 1000


def test_fixed_point_sweep_iteration_total_on_the_paper_grid(example_model):
    results = fixed_point_sweep(example_model, np.linspace(0.0, 0.95e-3, 200), np.eye(2))
    assert sum(r.iterations for r in results) == 20006
    # so on this grid tol, not the roundoff floor, ends every theta
    assert max(r.final_step_distance for r in results) < 1e-12


@pytest.mark.parametrize("theta, iterations", [(0.0, 97), (5e-4, 100)])
def test_fixed_point_kernel_makes_two_eigensolve_calls_per_step(
        monkeypatch, example_model, theta, iterations):
    # per step: the inner matrix with the previous step's whitening, then
    # P_next; besides those, the start's gate, the last distance and the finish
    calls = []
    eigh = np.linalg.eigh

    def counted(X):
        calls.append(np.shape(X))
        return eigh(X)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = fixed_point(example_model, theta)
    assert res.iterations == iterations
    assert len(calls) <= 2 * iterations + 4


def test_an_ill_conditioned_start_converges_where_its_whitened_step_fails_the_gate():
    # From P0 = diag(1e-8, 1) the first whitened step has a spectrum spread
    # beyond the gate's 1e12. That step has no distance, but the iteration
    # goes on: the distance measures contraction, it decides no cone exit.
    model = StateSpaceModel(A=np.array([[0.5, 0.2], [0.0, 0.3]]), B=1e-3 * np.eye(2),
                            C=np.array([[1.0, 0.0]]), D=np.eye(2))
    P0 = np.diag([1e-8, 1.0])
    reference = fixed_point(model, 0.0).P_star
    assert riemann_distance(fixed_point(model, 0.0, P0).P_star, reference) < 1e-12
    assert iterate_trajectory(model, 0.0, P0, 50)[-1].status == "ok"
    assert breakdown_search(model, 0.0, None, P0).found


# P* in the coordinates x -> T x is within CONGRUENCE_K * eps * cond(P*) of
# T P* T^T, relative in the Frobenius norm. Measured: at most 51, at
# cond(T) = 1e3 and theta = 5e-4; at most 12 under T = c I.
CONGRUENCE_K = 100


def test_fixed_point_moves_by_congruence_under_a_change_of_coordinates(example_model):
    thetas = [0.0, 5e-4]  # 5e-4 is below breakdown, at about 1.307e-3
    P_star = [r.P_star for r in fixed_point_sweep(example_model, thetas, np.eye(2))]
    eps = np.finfo(float).eps
    for T in transforms():
        # from the image of the identity; the floor, not tol, ends 72 of these 124 runs
        results = fixed_point_sweep(congruent(example_model, T), thetas, T @ T.T)
        for got, P in zip(results, P_star):
            want = T @ P @ T.T
            cond = got.lambda_P[0] / got.lambda_P[-1]
            err = np.linalg.norm(got.P_star - want) / np.linalg.norm(want)
            assert err <= CONGRUENCE_K * eps * cond


def _block_bound(model, N, theta):
    block = build_block_model(model, N, theta)
    return contraction_bound(block.alpha, block.Omega, block.W)


@pytest.mark.parametrize("theta", [0.0, 2.3e-4])
def test_contraction_bound_does_not_depend_on_the_state_coordinates(example_model, theta):
    # the bound is read in W-whitened coordinates, so x -> T x moves it only by
    # roundoff: at most 1.3e-10 relative here
    want = _block_bound(example_model, 2, theta)
    for T in transforms(conds=(1e2, 1e3)):
        assert abs(_block_bound(congruent(example_model, T), 2, theta) - want) <= 1e-9 * want


# Forming a model in coordinates x -> T x rounds it by about eps * cond(T)^2
# relative, which can move the bound by more than 1e-9: it moved by up to
# 5.8e3 * eps * cond(T)^2 (1.3e-6 at cond(T) = 1e3) over 75 seeded cases.
INVARIANCE_K = 1e4


@pytest.mark.parametrize("seed", [None, 0, 1, 2])  # None: the worked example at N = 8
def test_contraction_bound_moves_by_roundoff_only_on_random_models(example_model, seed):
    if seed is None:
        cases = [(example_model, 8, 0.0)]
    else:
        model = random_model(np.random.default_rng(seed), n=3, m=2, p=1)
        cases = [(model, N, theta) for N in (3, 6)
                 for theta in (0.0, 0.5 * tau_N(model, N).tau_N)]
    eps = np.finfo(float).eps
    for model, N, theta in cases:
        want = _block_bound(model, N, theta)
        for T in transforms(model.n, conds=(1e2, 1e3)):
            s = np.linalg.svd(T, compute_uv=False)
            got = _block_bound(congruent(model, T), N, theta)
            assert abs(got - want) <= INVARIANCE_K * eps * (s[0] / s[-1]) ** 2 * want


@pytest.mark.parametrize("entry", [
    lambda m, P: iterate_trajectory(m, 0.0, P, 5),
    lambda m, P: run_filter(m, 0.0, P, np.zeros(2), np.zeros((5, 1))),
    lambda m, P: fixed_point(m, 0.0, P),
    lambda m, P: fixed_point_sweep(m, [0.0, 1e-4], P),
    lambda m, P: breakdown_search(m, 0.0, P0=P),
    lambda m, P: rs_riccati_map(m, 0.0, P),
    lambda m, P: rs_gain(m, 0.0, P),
    lambda m, P: verify_are(m, 0.0, P),
    lambda m, P: block_riccati_map(block_map(m, 2, 0.0), P),
], ids=["iterate_trajectory", "run_filter", "fixed_point", "fixed_point_sweep",
        "breakdown_search", "rs_riccati_map", "rs_gain", "verify_are", "block_riccati_map"])
def test_a_matrix_of_the_wrong_size_is_a_usage_error(example_model, entry):
    with pytest.raises(UsageError, match=r"P0? must have shape \(2, 2\), got \(3, 3\)"):
        entry(example_model, np.eye(3))


def test_verify_are_at_and_off_the_fixed_point(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    res = fixed_point(example_model, beta2, Sigma2)
    report = verify_are(example_model, beta2, res.P_star)
    assert report.residual < 1e-8
    assert report.closed_loop_spectral_radius < 1.0
    off = verify_are(example_model, beta2, Sigma2)
    assert off.residual > 1.0


def test_verify_are_rejects_a_point_whose_validity_matrix_fails(example_model):
    # D = I, so V^-1 = P^-1 - theta D^T D is zero at theta = 1, P = I
    with pytest.raises(ConeExitError, match="validity violated"):
        verify_are(example_model, 1.0, np.eye(2))


def test_verify_are_risk_neutral_reduction():
    rng = np.random.default_rng(41)
    model = random_model(rng)
    P = random_spd(rng, 2)
    K = rs_gain(model, 0.0, P)[0]
    F = model.A - K @ model.C
    manual = np.linalg.norm(P - (F @ P @ F.T + model.B @ model.B.T + K @ K.T))
    assert abs(verify_are(model, 0.0, P).residual - manual) < 1e-12


# ---------------------------------------------------------------------------
# fixed-point sweep


def assert_same_result(got, want):
    assert np.array_equal(got.P_star, want.P_star)
    assert got.iterations == want.iterations
    assert got.final_step_distance == want.final_step_distance
    assert np.array_equal(got.K, want.K)
    assert np.array_equal(got.R_nu, want.R_nu)
    assert np.array_equal(got.closed_loop_eigenvalues, want.closed_loop_eigenvalues)
    assert got.closed_loop_spectral_radius == want.closed_loop_spectral_radius
    assert got.are_residual == want.are_residual
    assert np.array_equal(got.lambda_P, want.lambda_P)
    assert np.array_equal(got.lambda_V, want.lambda_V)


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    for field in ("lambda_min", "step", "iterations", "last_distance"):
        assert repr(getattr(got, field, None)) == repr(getattr(want, field, None))
    assert np.array_equal(getattr(got, "last_valid", None), getattr(want, "last_valid", None))


def raised(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except Exception as exc:
        return exc
    raise AssertionError("no error raised")


def check_sweep(model, thetas, P0):
    results = fixed_point_sweep(model, thetas, P0)
    assert len(results) == len(thetas)
    for theta, got in zip(thetas, results):
        assert_same_result(got, fixed_point(model, theta, P0))
        # the spectra a reader would otherwise compute again, to the bit
        assert np.array_equal(got.lambda_P, spectral(got.P_star).eigenvalues)
        record = iterate_trajectory(model, theta, got.P_star, 0)[0]
        assert np.array_equal(got.lambda_P, record.lambda_P)
        assert np.array_equal(got.lambda_V, record.lambda_V)
        # the stacked finish against the one-point path, to the bit
        K, R_nu, _ = rs_gain(model, theta, got.P_star)
        assert np.array_equal(got.K, K) and np.array_equal(got.R_nu, R_nu)
        residual = np.linalg.norm(got.P_star - rs_riccati_gain_form(model, theta, got.P_star))
        assert got.are_residual == residual
        eigs = np.linalg.eigvals(model.A - K @ model.C)
        eigs = eigs[np.argsort(-np.abs(eigs))]
        assert got.closed_loop_eigenvalues.dtype == eigs.dtype
        assert np.array_equal(got.closed_loop_eigenvalues, eigs)
        want = fixed_point_oracle(model, theta, P0)
        assert np.linalg.norm(got.P_star - want) <= 1e-10 * np.linalg.norm(want)
    return results


def test_fixed_point_sweep_on_paper_grid(example_model):
    check_sweep(example_model, np.linspace(0.0, 0.95e-3, 200), np.eye(2))


def test_fixed_point_sweep_on_random_model():
    rng = np.random.default_rng(0)
    model = random_model(rng, n=4, m=4, p=2)
    P0 = random_spd(rng, 4)
    theta_max = safe_theta(model, fixed_point(model, 0.0, P0).P_star, 0.5)
    check_sweep(model, rng.uniform(0.0, theta_max, 50), P0)


def test_fixed_point_sweep_mixes_real_and_complex_closed_loop_spectra():
    # eig(A - KC) turns complex part way along this grid; each theta keeps
    # the dtype that eigvals gives its matrix alone (checked in check_sweep)
    model = random_model(np.random.default_rng(0), n=2, m=2, p=1)
    theta_max = safe_theta(model, fixed_point(model, 0.0, np.eye(2)).P_star, 0.9)
    results = check_sweep(model, np.linspace(0.0, theta_max, 20), np.eye(2))
    assert {r.closed_loop_eigenvalues.dtype.kind for r in results} == {"f", "c"}


def test_fixed_point_sweep_matches_the_closed_form_on_the_paper_grid(example_model):
    # P* = U V^-1 from the map's 2n x 2n matrix shares no code with the iteration
    thetas = np.linspace(0.0, 0.95e-3, 200)
    for theta, res in zip(thetas, fixed_point_sweep(example_model, thetas, np.eye(2))):
        P_star, solvable = _closed_form(example_model, theta)
        assert solvable and riemann_distance(res.P_star, P_star) < 1e-10


def test_fixed_point_matches_the_closed_form_on_random_models():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 8
        model = random_model(rng, n=n, m=n, p=1 + seed % 2, radius=(0.5, 0.9, 1.1, 1.3)[seed % 4])
        P_star, solvable = _closed_form(model, 0.0)
        assert solvable and riemann_distance(fixed_point(model, 0.0).P_star, P_star) < 1e-10


def singular_models():
    """The nilpotent model, and seeded random models whose A has a zero column."""
    models = [load_model(NILPOTENT)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 3
        A = rng.standard_normal((n, n))
        A[:, 0] = 0.0
        models.append(StateSpaceModel(A=A, B=rng.standard_normal((n, n)),
                                      C=rng.standard_normal((1, n)), D=np.eye(n)))
    return models


def test_fixed_point_on_a_singular_A_matches_the_discrete_are():
    # numpy has no QZ, so the closed form has no P* here; scipy's solver has,
    # and so has the doubled map, which inverts only I + W Omega
    linalg = pytest.importorskip("scipy.linalg")
    for model in singular_models():
        assert _closed_form(model, 0.0) is None
        P_star = linalg.solve_discrete_are(model.A.T, model.C.T, model.B @ model.B.T,
                                           np.eye(model.p))
        assert riemann_distance(fixed_point(model, 0.0).P_star, P_star) < 1e-10
        P, _, _, solvable, _ = riccati.doubled_fixed_points(model, [0.0])
        assert solvable[0] and riemann_distance(P[0], P_star) < 1e-10


# ---------------------------------------------------------------------------
# doubled_fixed_points: P*(theta) from the doubled one-step map


def same_bits(X, Y) -> bool:
    return X.shape == Y.shape and np.array_equal(X, Y, equal_nan=True)


@pytest.mark.parametrize("case", ["example", 0, 1, 2])
def test_doubled_fixed_points_stack_is_the_per_theta_calls_bitwise(example_model, case):
    # each theta stops at its own doubling and leaves the stack where its gate
    # fails, so a stack that mixes settled, invalid and pole-crossed thetas
    # gives every theta the bits of its own call
    if case == "example":
        model, thetas = example_model, [0.0, 5e-4, 9.7e-4, 9.8e-4, 1.2e-3, 1.5e-3, 1e300]
    else:
        model = random_model(np.random.default_rng(case), n=1 + case, m=2, p=1, radius=1.1)
        top = safe_theta(model, fixed_point(model, 0.0).P_star, 1.0)
        thetas = list(np.linspace(0.0, 3.0 * top, 9))
    stacked = riccati.doubled_fixed_points(model, thetas)
    assert not stacked[3].all() and stacked[3].any()
    for i, theta in enumerate(thetas):
        for X, Y in zip(stacked, riccati.doubled_fixed_points(model, [theta])):
            assert same_bits(X[i:i + 1], Y)


def test_doubled_fixed_points_on_the_paper_grid_match_40_digits(example_model):
    # Newton's method to 40 digits from the straight iteration's P*, which
    # stops at tol = 1e-12 and is up to 3.1e-12 off; the doubled P* settles
    # at its last bit (measured: at most 1.7e-13 off)
    pytest.importorskip("mpmath")
    thetas = np.linspace(0.0, 0.95e-3, 200)
    P, lam_P, lam_V, solvable, _ = riccati.doubled_fixed_points(example_model, thetas)
    assert solvable.all()
    for theta, P_k, res in zip(thetas, P, fixed_point_sweep(example_model, thetas, np.eye(2))):
        ref = mp_fixed_point(example_model, theta, res.P_star)
        assert np.linalg.norm(P_k - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.allclose(lam_P, np.linalg.eigvalsh(P)[:, ::-1], rtol=1e-14, atol=0.0)
    V = np.linalg.inv(np.linalg.inv(P) - thetas[:, None, None] * np.eye(2))
    assert np.allclose(lam_V, np.linalg.eigvalsh(V)[:, ::-1], rtol=1e-12, atol=0.0)


def unit_circle_model():
    """The third draw of seeded random models whose map's eigenvalues reach the unit circle.

    From theta = 0.40 on, all four eigenvalues of its 2n x 2n map matrix
    have modulus 1.0000, and the closed form reads a P* that is no fixed point.
    """
    rng = np.random.default_rng(7)
    for _ in range(3):
        model = random_model(rng, n=int(rng.integers(1, 4)), m=2, p=1,
                             radius=float(rng.uniform(0.5, 1.2)))
    return model


def test_doubled_fixed_points_read_the_unit_circle_as_the_iteration_does():
    model = unit_circle_model()
    thetas = [0.3, 0.39, 0.40, 0.45]
    solvable = riccati.doubled_fixed_points(model, thetas)[3]
    assert solvable.tolist() == [True, True, False, False]
    for theta, want in zip(thetas, solvable):
        if want:
            fixed_point(model, theta)
        else:
            with pytest.raises(ConeExitError):
                fixed_point(model, theta)
        assert _closed_form(model, theta)[1]  # solvable throughout: wrong from 0.40 on


def test_doubled_fixed_points_give_a_verdict_past_theta_inf_without_raising(example_model):
    # 1.5e-3 is past theta_N for large N (1.3335e-3), where block_map raises;
    # the unstable state that C cannot see makes W overflow: no sum, no error
    thetas = [1e-4, 1.5e-3, 5e-4]
    P, lam_P, lam_V, solvable, _ = riccati.doubled_fixed_points(example_model, thetas)
    assert solvable.tolist() == [True, False, True]
    assert np.isnan(P[1]).all() and np.isnan(lam_P[1]).all() and np.isnan(lam_V[1]).all()
    with pytest.raises(ConeExitError, match="theta=1.500000e-03"):
        block_map(example_model, 32, thetas)
    hidden = StateSpaceModel(A=np.diag([2.0, 0.5]), B=np.eye(2), C=np.array([[0.0, 1.0]]),
                             D=np.eye(2))
    assert riccati.doubled_fixed_points(hidden, [0.0, 0.1])[3].tolist() == [False, False]
    with pytest.raises(DomainError, match="theta must be finite and >= 0"):
        riccati.doubled_fixed_points(example_model, [0.0, np.nan])


def test_fixed_point_sweep_raises_the_first_breakdown(example_model):
    thetas = np.linspace(0.0, 1.5e-3, 40)
    want = None
    for theta in thetas:
        try:
            fixed_point(example_model, theta, np.eye(2))
        except ConeExitError as exc:
            want = exc
            break
    assert want is not None and want.step is not None
    assert_same_error(raised(fixed_point_sweep, example_model, thetas, np.eye(2)), want)


def test_fixed_point_sweep_iteration_limit(example_model):
    got = raised(fixed_point_sweep, example_model, [1e-4, 2e-4], np.eye(2), max_iter=3)
    assert isinstance(got, IterationLimitError) and got.iterations == 3
    assert_same_error(got, raised(fixed_point, example_model, 1e-4, np.eye(2), max_iter=3))


@pytest.mark.parametrize("bad", [np.nan, -1e-4])
def test_fixed_point_sweep_checks_every_theta_before_iterating(example_model, bad):
    # 1.5e-3 breaks down during the iteration; the bad theta is reported first
    with pytest.raises(DomainError, match="theta must be finite") as info:
        fixed_point_sweep(example_model, [1.5e-3, 0.0, bad], np.eye(2))
    assert not isinstance(info.value, ConeExitError)


def test_fixed_point_sweep_rejects_nan_start_before_step_one(example_model):
    with pytest.raises(ConeExitError, match="P0 not positive definite") as info:
        fixed_point_sweep(example_model, [0.0, 1e-4], np.full((2, 2), np.nan))
    assert info.value.step is None


def test_fixed_point_sweep_empty(example_model):
    assert fixed_point_sweep(example_model, []) == []


def test_fixed_point_sweep_finishes_in_one_stacked_call(monkeypatch, example_model):
    # one eig(A - KC) for the whole sweep, not one per theta
    calls = []
    eigvals = np.linalg.eigvals

    def counted(X):
        calls.append(np.shape(X))
        return eigvals(X)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    results = fixed_point_sweep(example_model, np.linspace(0.0, 0.95e-3, 50), np.eye(2))
    assert len(results) == 50 and calls == [(50, 2, 2)]


# D^T D = 4 I, so theta = 1e308 overflows the inner matrix to inf and its spectrum to NaN.
OVERFLOW_JSON = '{"A": [[0.1,1],[0,1.2]], "B": [[1,0],[0,1]], "C": [[1,-1]], "D": [[2,0],[0,2]]}'


def check_only_entry_one_fails(model, thetas, error_type):
    outcomes = _solve_stack(model, np.array(thetas), _inverse(np.eye(2), 2, "P0"), 1e-12, 10000)
    assert isinstance(outcomes[1], error_type)
    assert_same_error(outcomes[1], raised(fixed_point, model, thetas[1], np.eye(2)))
    for theta, got in zip(thetas[::2], outcomes[::2]):
        want = fixed_point(model, theta, np.eye(2))
        assert got.iterations == want.iterations
        assert got.final_step_distance == want.final_step_distance
        assert np.array_equal(got.P_star, want.P_star)
    assert_same_error(raised(fixed_point_sweep, model, thetas, np.eye(2)), outcomes[1])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fixed_point_stack_fails_only_the_nan_entry():
    check_only_entry_one_fails(load_model(OVERFLOW_JSON), [0.0, 1e308, 2e-4], ConeExitError)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_fixed_point_stack_fails_only_the_entry_whose_eigensolve_fails(monkeypatch):
    eigh = np.linalg.eigh

    def eigh_failing_on_non_finite(X):
        if not np.isfinite(X).all():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(X)

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_non_finite)
    check_only_entry_one_fails(load_model(OVERFLOW_JSON), [0.0, 1e308, 2e-4], NumericalError)


# ---------------------------------------------------------------------------
# breakdown search


def test_breakdown_scalar_matches_sweep_oracle():
    model = load_model(SCALAR % "0.9")
    lo, hi = 0.1, 0.9

    def solvable(theta):
        try:
            fixed_point(model, theta, np.eye(1))
            return True
        except (ConeExitError, IterationLimitError):
            return False

    grid = np.linspace(lo, hi, 81)
    flags = [solvable(t) for t in grid]
    last_ok = grid[max(i for i, f in enumerate(flags) if f)]
    res = breakdown_search(model, lo, hi, tol=1e-4)
    assert res.found
    spacing = grid[1] - grid[0]
    assert abs(res.theta - last_ok) <= spacing + 1e-4
    # scalar validity saturation: 1/p = theta at p = a^2/c^2 + b^2; the
    # bisection's own bracket must hold it
    assert res.bracket[0] < 1.0 / (0.9**2 + 1.0) < res.bracket[1]


def test_breakdown_flags_no_breakdown_in_range():
    model = load_model(SCALAR % "0.5")
    res = breakdown_search(model, 0.1, 0.5, tol=1e-4)
    assert not res.found
    assert res.theta == 0.5


def test_breakdown_terminates_at_zero_tol():
    # with tol = 0 the bisection runs until lo and hi are adjacent floats
    model = load_model(SCALAR % "0.9")
    res = breakdown_search(model, 0.1, 0.9, tol=0.0)
    lo, hi = res.bracket
    assert res.found
    assert lo < hi and np.nextafter(lo, np.inf) >= hi
    assert abs(res.theta - 1.0 / (0.9**2 + 1.0)) < 1e-12


@pytest.mark.parametrize("tol", [-1e-6, np.nan])
def test_breakdown_rejects_bad_tol(tol):
    model = load_model(SCALAR % "0.9")
    with pytest.raises(UsageError, match="tol"):
        breakdown_search(model, 0.1, 0.9, tol=tol)


def test_breakdown_rejects_unsolvable_lower_end(example_model):
    with pytest.raises(UsageError):
        breakdown_search(example_model, 1.8e-3, 2e-3)


def test_breakdown_rejects_bad_bracket(example_model):
    with pytest.raises(UsageError):
        breakdown_search(example_model, 1e-3, 1e-4)


def test_breakdown_default_upper_end_is_never_solvable(example_model):
    # theta_hi defaults to 1/lam_1(D P*(0) D^T): P*(theta) >= P*(0), so V at
    # P*(theta) is invalid from there on
    whittle = load_model(SCALAR % "0.9")
    # scalar P*(0) is the positive root of P^2 - a^2 P - 1 = 0 (Whittle 1990)
    p0_star = (0.81 + np.sqrt(0.81**2 + 4.0)) / 2.0
    for model, expected in ((whittle, 1.0 / p0_star), (example_model, 3.64e-3)):
        P_star = fixed_point(model, 0.0).P_star
        end = 1.0 / np.max(np.linalg.eigvalsh(model.D @ P_star @ model.D.T))
        assert abs(end - expected) <= 1e-3 * expected
        with pytest.raises(ConeExitError):
            fixed_point(model, end)
        default, explicit = breakdown_search(model, 0.0), breakdown_search(model, 0.0, end)
        assert default.found and default.evaluations == explicit.evaluations
        assert np.allclose(default.bracket, explicit.bracket, rtol=1e-12, atol=0.0)
    res = breakdown_search(whittle, 0.0, tol=1e-9)
    assert res.found and res.bracket[0] < 1.0 / (0.9**2 + 1.0) < res.bracket[1]
    # no noise reaches the penalized state, so P*(0) is singular: the default
    # end's own solve reports that, rather than an end guessed from theta_lo
    unreachable = StateSpaceModel(A=np.diag([0.5, 0.3]), B=np.array([[0.0], [1.0]]),
                                  C=100.0 * np.eye(2), D=np.array([[1.0, 0.0]]))
    with pytest.raises(ConeExitError, match="theta=0.000000e\\+00"):
        breakdown_search(unreachable, 0.0)


def counted_kernel(monkeypatch):
    """Record each `_solve_stack` call's thetas and outcomes."""
    calls = []

    def counted(model, thetas, *args):
        out = _solve_stack(model, thetas, *args)
        calls.append((list(thetas), out))
        return out

    monkeypatch.setattr(riccati, "_solve_stack", counted)
    return calls


@pytest.mark.parametrize("case, max_calls", [("sigma", 5), ("identity", 5), ("whittle", 19)])
def test_breakdown_matches_sequential_bisection_in_fewer_calls(
        monkeypatch, example_model, example_bound, case, max_calls):
    # the speculative levels only decide which probes share a stacked call:
    # bracket and evaluations are a one-probe-at-a-time bisection's, to the bit
    _, Sigma2, beta2 = example_bound
    model, lo, hi, P0, tol = {
        "sigma": (example_model, beta2, 2e-3, Sigma2, 1e-6),
        "identity": (example_model, beta2, 2e-3, np.eye(2), 1e-6),
        "whittle": (load_model(SCALAR % "0.9"), 0.1, 0.9, np.eye(1), 0.0),
    }[case]
    bracket, evaluations = sequential_bisection(model, lo, hi, P0, tol)
    calls = counted_kernel(monkeypatch)
    got = breakdown_search(model, lo, hi, P0, tol)
    assert got.found and got.bracket == bracket and got.evaluations == evaluations
    # the ends and the doubled map's predicted path in one call. Whittle at
    # tol = 0 mispredicts near breakdown; from there each call solves the
    # next _SPECULATIVE_LEVELS levels, as every call after the ends did
    # without the prediction (max_calls in all)
    assert len(calls) == {"sigma": 1, "identity": 1, "whittle": 4}[case] < max_calls


def default_end(model, P0):
    """breakdown_search's default upper end from P0, 1/lam_1(D P*(0) D^T)."""
    P_star = fixed_point(model, 0.0, P0).P_star
    return 1.0 / spectral(model.D @ P_star @ model.D.T).eigenvalues[0]


def test_breakdown_probes_near_the_top_end_as_a_validity_breakdown(monkeypatch, example_model):
    # From the identity with the default end, the probes above the breakdown
    # the walk brackets converge to a P* whose V fails, the nearest one at
    # the bracket's top end. Each ends as the validity breakdown at P* (near
    # step 105), so every probe runs to its own stop and none to the
    # iteration limit.
    end = default_end(example_model, np.eye(2))
    bracket, evaluations = sequential_bisection(example_model, 0.0, end, np.eye(2), 1e-6)
    calls = counted_kernel(monkeypatch)
    got = breakdown_search(example_model, 0.0)
    assert got.bracket == bracket and got.evaluations == evaluations
    probes = {t: o for thetas, out in calls for t, o in zip(thetas, out)}
    validity = {t: o for t, o in probes.items() if t >= bracket[1] and isinstance(o, ConeExitError)
                and "validity matrix is not positive definite" in str(o)}
    assert bracket[1] in validity and all(o.step < 1000 for o in validity.values())
    assert None not in probes.values()
    assert not any(isinstance(o, IterationLimitError) for o in probes.values())


@pytest.mark.parametrize("case", [*range(8), "singular"])
def test_breakdown_is_the_sequential_bisection_bitwise(monkeypatch, case):
    # the prediction only decides which thetas share a stacked call. On
    # seeded models (from seed 0's start the iterates leave the cone far
    # below the doubled map's breakdown, at steps 1-4, which the start's
    # gate against Omega predicts; seed 1 has a probe at the iteration
    # limit) and on a singular A, which the doubled map covers, the result
    # is a one-probe-at-a-time bisection's, to the bit, in one stacked call
    if case == "singular":
        model, P0 = load_model(NILPOTENT), np.eye(2)
    else:
        rng = np.random.default_rng(case)
        n = 1 + case % 4
        model = random_model(rng, n=n, m=n, p=1, radius=(0.5, 0.9, 1.1, 1.3)[case // 2])
        P0 = random_spd(rng, n)
    end = default_end(model, P0)
    bracket, evaluations = sequential_bisection(model, 0.0, end, P0, 1e-6 * end)
    calls = counted_kernel(monkeypatch)
    got = breakdown_search(model, 0.0, end, P0, 1e-6 * end)
    assert got == BreakdownResult(0.5 * (bracket[0] + bracket[1]), bracket, True, evaluations)
    assert len(calls) == 1  # the walk stayed on the predicted path


def test_breakdown_predicts_a_start_whose_first_step_leaves_the_cone(monkeypatch):
    # from this large start the first inner matrix P0^-1 + C^T C - theta D^T D
    # fails above theta = 0.0378, where the doubled map still finds a valid
    # P* and P0^-1 + Omega passes: only the first-step gate predicts those
    # probes (without it the search took 7 calls)
    rng = np.random.default_rng(20)
    model = random_model(rng, n=2, m=2, p=1, radius=float(rng.uniform(0.5, 1.2)))
    P0 = random_spd(rng, 2, 0.1, 100.0)
    bracket, evaluations = sequential_bisection(model, 0.0, 3.0, P0, 1e-6)
    calls = counted_kernel(monkeypatch)
    got = breakdown_search(model, 0.0, 3.0, P0, 1e-6)
    assert got.bracket == bracket and got.evaluations == evaluations
    assert len(calls) == 1
    with pytest.raises(ConeExitError) as exc:
        fixed_point(model, bracket[1], P0)
    assert exc.value.step == 1


def test_the_paper_search_is_one_stacked_call(monkeypatch, tmp_path, example_model, example_bound):
    # paper-example's search solves its ends and the doubled map's predicted
    # path in one call; a default end needs P*(0) first, so there it is two
    calls, searches = counted_kernel(monkeypatch), []
    search = riccati.breakdown_search

    def counted_search(*args, **kwargs):
        first = len(calls)
        result = search(*args, **kwargs)
        searches.append(len(calls) - first)
        return result

    monkeypatch.setattr(riccati, "breakdown_search", counted_search)
    assert main(["paper-example", "--out-dir", str(tmp_path)]) == 0
    for P0 in (np.eye(2), example_bound[1]):
        counted_search(example_model, 0.0, None, P0)
    assert searches == [1, 2, 2]


@pytest.mark.parametrize("P0, error, match", [
    (-np.eye(1), ConeExitError, "breakdown start P0 not positive definite"),
    (np.array([[np.nan]]), ConeExitError, "breakdown start P0 not positive definite"),
    (np.array([[1e-310]]), NumericalError, "breakdown start P0 inverse overflows"),
])
def test_breakdown_gates_P0_before_any_probe(monkeypatch, P0, error, match):
    # a bad start is its own error, not an "unsolvable theta_lo"
    def no_probe(*args, **kwargs):
        raise AssertionError("breakdown_search probed with an ungated P0")

    monkeypatch.setattr("rsriccati.riccati.fixed_point", no_probe)
    monkeypatch.setattr("rsriccati.riccati._solve_stack", no_probe)
    with pytest.raises(error, match=match):
        breakdown_search(load_model(SCALAR % "0.9"), 0.1, 0.9, P0)


@pytest.mark.parametrize("solve", [
    pytest.param(lambda m, P0: breakdown_search(m, 0.0, 2e-3, P0), id="breakdown_search"),
    pytest.param(lambda m, P0: breakdown_search(m, 0.0, None, P0), id="breakdown_search-default-end"),
    pytest.param(lambda m, P0: fixed_point_sweep(m, np.linspace(0.0, 0.9e-3, 9), P0),
                 id="fixed_point_sweep"),
    pytest.param(lambda m, P0: fixed_point(m, 0.5e-3, P0), id="fixed_point"),
])
def test_a_start_is_gated_once_per_public_call(monkeypatch, example_model, solve):
    # every stacked call takes the start the public call gated: no probe eigensolves P0 again
    gated = []
    require_spd = riccati.require_spd

    def counted(P, what):
        gated.append(np.array(P))
        return require_spd(P, what)

    monkeypatch.setattr(riccati, "require_spd", counted)
    P0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    solve(example_model, P0)
    assert len(gated) == 1 and np.array_equal(gated[0], P0)


@pytest.mark.parametrize("entry", [
    pytest.param(lambda m: fixed_point(m, 1e-4), id="fixed_point"),
    pytest.param(lambda m: fixed_point_sweep(m, [0.0, 1e-4]), id="fixed_point_sweep"),
    pytest.param(lambda m: breakdown_search(m, 0.0), id="breakdown_search"),
    pytest.param(lambda m: iterate_trajectory(m, 1e-4, np.eye(2), 20), id="iterate_trajectory"),
    pytest.param(lambda m: run_filter(m, 1e-4, np.eye(2), np.zeros(2), np.zeros((20, 1))),
                 id="run_filter"),
])
def test_every_riccati_iteration_steps_through_the_one_loop(monkeypatch, example_model, entry):
    # each public iteration reaches `_iterate`, and only `_iterate` gates a step
    loops, steps = [], []
    iterate, gate_step = riccati._iterate, riccati._gate_step

    def counted_loop(*args, **kwargs):
        loops.append(len(args[1]))
        return iterate(*args, **kwargs)

    def counted_step(*args):
        steps.append(sys._getframe(1).f_code.co_name)
        return gate_step(*args)

    monkeypatch.setattr(riccati, "_iterate", counted_loop)
    monkeypatch.setattr(riccati, "_gate_step", counted_step)
    entry(example_model)
    assert loops and steps and set(steps) == {"_iterate"}
