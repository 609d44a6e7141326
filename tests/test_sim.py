import numpy as np
import pytest
from helpers import (
    MAP_EXIT_JSON,
    MAP_EXIT_THETA,
    first_repeat,
    random_model,
    reference_filter,
    safe_theta,
    series_sigma,
)

from rsriccati import (
    DomainError,
    StateSpaceModel,
    build_block_model,
    fixed_point,
    iterate_trajectory,
    load_model,
    place_observer_gain,
    run_filter,
    run_observer,
    simulate,
)


def test_seed_replay_is_bit_identical(example_model):
    a = simulate(example_model, 50, seed=123)
    b = simulate(example_model, 50, seed=123)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.process_noise, b.process_noise)
    c = simulate(example_model, 50, seed=124)
    assert not np.array_equal(a.states, c.states)


def test_states_satisfy_recursion_exactly(example_model):
    centred = simulate(example_model, 100, seed=7)
    shifted = simulate(example_model, 100, seed=7, x0_mean=[1.0, -2.0])
    # the same initial draw, moved by the mean
    assert np.array_equal(shifted.states[0], np.array([1.0, -2.0]) + centred.states[0])
    for run in (centred, shifted):
        for t in range(run.T):
            lhs = run.states[t + 1]
            rhs = example_model.A @ run.states[t] + example_model.B @ run.process_noise[t]
            assert np.linalg.norm(lhs - rhs) < 1e-12
            obs = example_model.C @ run.states[t] + run.measurement_noise[t]
            assert np.linalg.norm(run.observations[t] - obs) < 1e-12


def test_simulate_rejects_indefinite_p0(example_model):
    with pytest.raises(DomainError):
        simulate(example_model, 10, seed=0, P0=np.diag([1.0, -1.0]))


def test_process_noise_sample_covariance():
    model = StateSpaceModel(
        A=0.5 * np.eye(2), B=np.eye(2), C=np.array([[1.0, 0.0]]), D=np.eye(2)
    )
    run = simulate(model, 100_000, seed=99)
    cov = run.process_noise.T @ run.process_noise / run.T
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


# ---------------------------------------------------------------------------
# filters


def test_filter_tracks_observations_when_model_is_informative():
    # full observation, huge initial variance, tiny process noise: the
    # filter should beat the raw measurements
    model = StateSpaceModel(
        A=0.7 * np.eye(2), B=0.01 * np.eye(2), C=np.eye(2), D=np.eye(2)
    )
    run = simulate(model, 4000, seed=31)
    out = run_filter(model, 0.0, 1e4 * np.eye(2), np.zeros(2),
                     run.observations, truth=run.states)
    obs_err = np.sqrt(np.mean((run.observations - run.states[:-1]) ** 2, axis=0))
    assert np.all(out.rmse < obs_err)


def test_filter_variance_sequence_matches_trajectory(example_model):
    run = simulate(example_model, 30, seed=5)
    out = run_filter(example_model, 0.0, np.eye(2), np.zeros(2), run.observations)
    steps = iterate_trajectory(example_model, 0.0, np.eye(2), 30)
    assert len(out.P_sequence) == len(steps)
    for P, step in zip(out.P_sequence, steps):
        assert np.array_equal(P, step.P)


def test_filter_continuity_in_theta():
    # stable dynamics so a theta perturbation is not amplified by
    # exponential state growth
    model = StateSpaceModel(
        A=np.array([[0.6, 0.2], [0.1, 0.5]]), B=np.eye(2),
        C=np.array([[1.0, 0.5]]), D=np.eye(2),
    )
    run = simulate(model, 200, seed=17)
    base = run_filter(model, 0.0, np.eye(2), np.zeros(2), run.observations)
    perturbed = run_filter(model, 1e-10, np.eye(2), np.zeros(2),
                           run.observations)
    diff = np.max(np.abs(base.estimates - perturbed.estimates))
    assert diff < 1e-6


def test_filter_innovations_definition(example_model):
    run = simulate(example_model, 50, seed=3)
    out = run_filter(example_model, 0.0, np.eye(2), np.zeros(2), run.observations)
    for t in range(50):
        nu = run.observations[t] - example_model.C @ out.estimates[t]
        assert np.array_equal(out.innovations[t], nu)


def test_filter_flags_validity_violation(example_model):
    run = simulate(example_model, 60, seed=11)
    out = run_filter(example_model, 2e-3, np.eye(2), np.zeros(2), run.observations)
    steps = iterate_trajectory(example_model, 2e-3, np.eye(2), 60)
    assert out.violation_step == steps[-1].t
    assert len(out.P_sequence) == len(steps)
    assert len(out.estimates) == out.violation_step + 1


def test_filter_flags_a_violation_at_the_last_step(example_model):
    # the last iterate is checked like every other: P_sequence and
    # violation_step are those of iterate_trajectory over the same horizon
    T = iterate_trajectory(example_model, 2e-3, np.eye(2), 60)[-1].t
    run = simulate(example_model, T, seed=11)
    out = run_filter(example_model, 2e-3, np.eye(2), np.zeros(2), run.observations)
    assert out.violation_step == T
    assert len(out.innovations) == T and len(out.P_sequence) == T + 1


def test_filter_reports_map_cone_exit_in_band():
    model = load_model(MAP_EXIT_JSON)
    out = run_filter(model, MAP_EXIT_THETA, np.eye(2), np.zeros(2), np.zeros((5, 1)))
    assert out.violation_step == 1
    assert len(out.estimates) == 2 and len(out.innovations) == 1
    assert len(out.P_sequence) == 2 and np.isnan(out.P_sequence[1]).all()


def test_filter_rejects_empty_observations(example_model):
    with pytest.raises(DomainError):
        run_filter(example_model, 0.0, np.eye(2), np.zeros(2), np.zeros((0, 1)))


@pytest.mark.parametrize("theta", [np.nan, -1.0])
def test_filter_rejects_bad_theta(example_model, theta):
    # a NaN or negative risk parameter is an input error, not an in-band violation
    with pytest.raises(DomainError, match="theta must be finite and >= 0"):
        run_filter(example_model, theta, np.eye(2), np.zeros(2), np.zeros((3, 1)))


def test_innovation_whiteness_at_fixed_point():
    # at the risk-neutral fixed point the innovations are white; the
    # lag-1 sample autocorrelation over 1e5 steps stays within 3/sqrt(T)
    # (stable dynamics keep the simulated states representable)
    model = StateSpaceModel(
        A=np.array([[0.6, 0.2], [0.1, 0.5]]), B=np.eye(2),
        C=np.array([[1.0, 0.5]]), D=np.eye(2),
    )
    P_star = fixed_point(model, 0.0, np.eye(2)).P_star
    T = 100_000
    run = simulate(model, T, seed=2024, P0=P_star)
    out = run_filter(model, 0.0, P_star, np.zeros(2), run.observations)
    nu = out.innovations.ravel()
    rho1 = np.dot(nu[:-1], nu[1:]) / np.dot(nu, nu)
    assert abs(rho1) < 3.0 / np.sqrt(T)


# ---------------------------------------------------------------------------
# the exact repeat shortcut of the trajectory loop

TWO_STATE = StateSpaceModel(
    A=np.array([[0.6, 0.2], [0.1, 0.5]]), B=np.eye(2),
    C=np.array([[1.0, 0.5]]), D=np.eye(2),
)


@pytest.fixture(scope="module")
def shortcut_cases(example_model):
    n4 = random_model(np.random.default_rng(0), n=4, m=2, p=1)
    n4_theta = safe_theta(n4, fixed_point(n4, 0.0).P_star)
    return {
        # (model, theta, P0, T, repeats within T)
        "two-state theta=0": (TWO_STATE, 0.0, np.eye(2), 300, True),
        "two-state theta>0": (TWO_STATE, 0.02, np.eye(2), 300, True),
        "two-state theta=0 from P*": (TWO_STATE, 0.0, fixed_point(TWO_STATE).P_star, 300, True),
        "worked example theta=0": (example_model, 0.0, np.eye(2), 300, True),
        "n=4 theta=0": (n4, 0.0, np.eye(4), 400, False),
        "n=4 theta>0": (n4, n4_theta, np.eye(4), 400, False),
        "v_violation": (example_model, 2e-3, np.eye(2), 60, False),
        "cone_exit": (load_model(MAP_EXIT_JSON), MAP_EXIT_THETA, np.eye(2), 5, False),
    }


@pytest.mark.parametrize("case", [
    "two-state theta=0", "two-state theta>0", "two-state theta=0 from P*",
    "worked example theta=0", "n=4 theta=0", "n=4 theta>0", "v_violation", "cone_exit",
])
def test_filter_and_trajectory_match_the_always_factorizing_loop(shortcut_cases, case):
    model, theta, P0, T, repeats = shortcut_cases[case]
    observations = simulate(model, T, seed=4).observations
    records, estimates, innovations, violation = reference_filter(
        model, theta, P0, np.zeros(model.n), observations)
    # the case exercises what it names: a bitwise period-1 repeat, or none within T
    assert (first_repeat(records) is not None) == repeats
    out = run_filter(model, theta, P0, np.zeros(model.n), observations)
    steps = iterate_trajectory(model, theta, P0, T)
    assert out.violation_step == violation
    assert np.array_equal(out.estimates, estimates)
    assert np.array_equal(out.innovations, innovations)
    assert len(out.P_sequence) == len(steps) == len(records)
    for P, step, want in zip(out.P_sequence, steps, records):
        assert (step.t, step.status) == (want.t, want.status)
        assert np.array_equal(P, want.P, equal_nan=True)
        assert np.array_equal(step.P, want.P, equal_nan=True)
        assert np.array_equal(step.lambda_P, want.lambda_P, equal_nan=True)
        assert (step.lambda_V is None) == (want.lambda_V is None)
        if want.lambda_V is not None:
            assert np.array_equal(step.lambda_V, want.lambda_V)


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_no_factorization_after_the_state_repeats(monkeypatch, theta):
    T = 2000
    observations = simulate(TWO_STATE, T, seed=4).observations
    r = first_repeat(reference_filter(TWO_STATE, theta, np.eye(2), np.zeros(2), observations)[0])
    assert r is not None and r < 100
    calls = []

    def counting(name):
        solve = getattr(np.linalg, name)

        def wrapper(X):
            calls.append(name)
            return solve(X)
        return wrapper

    for name in ("eigh", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    steps = iterate_trajectory(TWO_STATE, theta, np.eye(2), T)
    # the start, then V's gate and the map's two gates on steps 0..r; none after
    assert calls == ["eigh"] * (1 + 3 * (r + 1))
    calls.clear()
    run_filter(TWO_STATE, theta, np.eye(2), np.zeros(2), observations)
    # and one gain (one inverse of R_nu) per step up to r
    assert calls.count("eigh") == 1 + 3 * (r + 1) and calls.count("inv") == r + 1
    # the repeated records are still distinct arrays
    last, before = steps[-1], steps[-2]
    for a, b in ((last.P, before.P), (last.lambda_P, before.lambda_P),
                 (last.lambda_V, before.lambda_V)):
        assert not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# observers


def test_observer_zero_gain_is_open_loop(example_model):
    run = simulate(example_model, 20, seed=8)
    out = run_observer(example_model, np.zeros((2, 1)), np.ones(2), run.observations)
    xt = np.ones(2)
    for t in range(1, 21):
        xt = example_model.A @ xt
        assert np.allclose(out.estimates[t], xt, atol=1e-12)


def test_observer_error_variance_bounded_by_lyapunov(example_model):
    # nilpotent gain, rho = 1: the Lyapunov solution is the stationary
    # error variance of the observer, finite despite the unstable
    # dynamics. The states themselves grow like 1.2^t, so the error is
    # sampled over an ensemble of short runs (the nilpotent closed loop
    # makes it stationary after two steps) instead of one long run.
    G = place_observer_gain(example_model, [0.0, 0.0])
    F = example_model.A - G @ example_model.C
    Sigma1 = series_sigma(F, example_model.B @ example_model.B.T + G @ G.T, 1.0)
    errors = []
    for seed in range(3000):
        run = simulate(example_model, 8, seed=seed,
                       x0_mean=np.zeros(2), P0=np.eye(2))
        out = run_observer(example_model, G, np.zeros(2), run.observations)
        err = run.states[8] - out.estimates[8]
        assert np.all(np.isfinite(err))
        errors.append(err)
    sample_trace = float(np.mean(np.sum(np.asarray(errors) ** 2, axis=1)))
    assert sample_trace < 1.1 * np.trace(Sigma1)
    assert sample_trace > 0.5 * np.trace(Sigma1)


def test_observer_memoryless_error_for_deadbeat_scalar():
    # G = A/C zeroes the error dynamics: the error at t+1 depends only
    # on the time-t noises, so autocorrelation vanishes from lag 2 on
    model = load_model('{"A": [[0.9]], "B": [[1]], "C": [[1]]}')
    T = 40_000
    run = simulate(model, T, seed=55, x0_mean=np.zeros(1))
    out = run_observer(model, np.array([[0.9]]), np.zeros(1), run.observations)
    err = (run.states[: T + 1] - out.estimates).ravel()[1:]
    for lag in (2, 3):
        rho = np.dot(err[:-lag], err[lag:]) / np.dot(err, err)
        assert abs(rho) < 3.0 / np.sqrt(T)


# ---------------------------------------------------------------------------
# block consistency


def test_block_observation_stack_decomposition(example_model):
    N = 4
    run = simulate(example_model, N, seed=13)
    y_stack = np.concatenate(run.observations[::-1])
    u_stack = np.concatenate(run.process_noise[::-1])
    v_stack = np.concatenate(run.measurement_noise[::-1])
    block = build_block_model(example_model, N)
    O, H = block.O, block.H
    recon = O @ run.states[0] + v_stack + H @ u_stack
    assert np.linalg.norm(y_stack - recon) < 1e-12
