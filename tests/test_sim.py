import numpy as np
import pytest
from helpers import (
    MAP_EXIT_JSON,
    MAP_EXIT_THETA,
    build_block_model,
    first_repeat,
    random_model,
    reference_filter,
    safe_theta,
    series_sigma,
)

from rsriccati import (
    DomainError,
    NumericalError,
    StateSpaceModel,
    UsageError,
    fixed_point,
    iterate_trajectory,
    load_model,
    place_observer_gain,
    run_filter,
    run_observer,
    simulate,
)
from rsriccati import riccati, sim


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


@pytest.mark.parametrize("which", ["worked example", "n=4 m=2"])
def test_simulated_records_are_the_per_step_products_bitwise(example_model, which):
    # the worked example's states grow like 1.2^t; the seeded model is stable
    model = (example_model if which == "worked example"
             else random_model(np.random.default_rng(5), n=4, m=2, p=2))
    run = simulate(model, 300, seed=9, x0_mean=np.arange(model.n, dtype=float))
    for t in range(run.T):
        assert np.array_equal(run.states[t + 1],
                              model.A @ run.states[t] + model.B @ run.process_noise[t])
        assert np.array_equal(run.observations[t],
                              model.C @ run.states[t] + run.measurement_noise[t])


def test_simulate_rejects_indefinite_p0(example_model):
    with pytest.raises(DomainError):
        simulate(example_model, 10, seed=0, P0=np.diag([1.0, -1.0]))


def test_simulate_rejects_a_horizon_below_one(example_model):
    with pytest.raises(DomainError, match="horizon T must be >= 1, got 0"):
        simulate(example_model, 0, seed=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_recursion_is_a_numerical_error(example_model):
    # the worked example's A has spectral radius 1.2: 1.2^t passes 1e308 near t = 3,900
    with pytest.raises(NumericalError, match="simulated state is not finite at step 3913"):
        simulate(example_model, 5000, seed=1)
    # every state is finite, but C = [10, 10] takes y_3897 past 1e308
    loud = StateSpaceModel(A=example_model.A, B=example_model.B, C=np.array([[10.0, 10.0]]),
                           D=example_model.D)
    with pytest.raises(NumericalError, match="simulated observation is not finite at step 3897"):
        simulate(loud, 3905, seed=1)
    # the gain [10, 10] leaves A - GC unstable
    observations = simulate(example_model, 2000, seed=1).observations
    with pytest.raises(NumericalError, match="state estimate is not finite at step 1216"):
        run_observer(example_model, [[10.0], [10.0]], np.zeros(2), observations)


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


STREAMS = {
    "run_filter": lambda model, x0, y, truth=None: run_filter(
        model, 0.0, np.eye(model.n), x0, y, truth),
    "run_observer": lambda model, x0, y, truth=None: run_observer(
        model, np.zeros((model.n, model.p)), x0, y, truth),
}


SHAPE = r"observations must have shape \(T, 1\), one row per step, got "
BAD_STREAM_INPUTS = {
    # (x0_hat, observations, truth, error, message)
    # a length-T vector at p = 1 is not read as one observation of width T
    "1-D observations": (np.zeros(2), np.zeros(20), None, UsageError, SHAPE + r"\(20,\)"),
    "observations too wide": (np.zeros(2), np.zeros((20, 2)), None, UsageError,
                              SHAPE + r"\(20, 2\)"),
    "x0_hat too long": (np.zeros(3), np.zeros((20, 1)), None, UsageError,
                        r"x0_hat must have shape \(2,\), got \(3,\)"),
    "NaN x0_hat": (np.array([0.0, np.nan]), np.zeros((20, 1)), None, DomainError,
                   "x0_hat must be finite"),
    "truth too wide": (np.zeros(2), np.zeros((20, 1)), np.zeros((21, 3)), UsageError,
                       r"truth must have shape \(T \+ 1, 2\), got \(21, 3\)"),
}


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("case", list(BAD_STREAM_INPUTS))
def test_stream_rejects_a_malformed_input(example_model, stream, case):
    x0, y, truth, error, message = BAD_STREAM_INPUTS[case]
    with pytest.raises(error, match=message):
        STREAMS[stream](example_model, x0, y, truth)


@pytest.mark.parametrize("stream", list(STREAMS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_stream_rejects_non_finite_observations(example_model, stream, value):
    # one bad observation would otherwise reach every later estimate
    y = simulate(example_model, 20, seed=1).observations
    y[7, 0] = value
    with pytest.raises(DomainError, match="observations must be finite; row 7"):
        STREAMS[stream](example_model, np.zeros(2), y)


def test_observer_rejects_a_gain_of_the_wrong_shape(example_model):
    with pytest.raises(UsageError, match=r"G must have shape \(2, 1\), got \(3,\)"):
        run_observer(example_model, np.zeros(3), np.zeros(2), np.zeros((20, 1)))


@pytest.mark.parametrize("x0_mean, error, message", [
    (np.zeros(3), UsageError, r"x0_mean must have shape \(2,\), got \(3,\)"),
    (np.array([0.0, np.inf]), DomainError, "x0_mean must be finite"),
])
def test_simulate_rejects_a_bad_initial_mean(example_model, x0_mean, error, message):
    with pytest.raises(error, match=message):
        simulate(example_model, 10, seed=0, x0_mean=x0_mean)


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
# the trajectory loop's two shortcuts: the exact repeat and the stall rule

TWO_STATE = StateSpaceModel(
    A=np.array([[0.6, 0.2], [0.1, 0.5]]), B=np.eye(2),
    C=np.array([[1.0, 0.5]]), D=np.eye(2),
)

# After the stall rule fires, records, estimates and innovations stay within
# STALL_K * eps * cond(P) of the always-factorizing loop's, relative to their
# largest entry. Measured: at most 1.1 for P, 1.9 for lambda_V and 0.4 for
# the estimates and innovations.
STALL_K = 16


@pytest.fixture(scope="module")
def shortcut_cases(example_model):
    n4 = random_model(np.random.default_rng(0), n=4, m=2, p=1)
    n4_theta = safe_theta(n4, fixed_point(n4, 0.0).P_star)
    return {
        # (model, theta, P0, T, the shortcut that fires first: "repeat", "stall" or None)
        "two-state theta=0": (TWO_STATE, 0.0, np.eye(2), 300, "repeat"),
        "two-state theta>0": (TWO_STATE, 0.02, np.eye(2), 300, "repeat"),
        "two-state theta=0 from P*": (TWO_STATE, 0.0, fixed_point(TWO_STATE).P_star, 300,
                                      "repeat"),
        # the stall rule fires at step 106, two steps before the exact repeat
        "worked example theta=0": (example_model, 0.0, np.eye(2), 300, "stall"),
        # these iterates wander at roundoff and never repeat bitwise
        "n=4 theta=0": (n4, 0.0, np.eye(4), 400, "stall"),
        "n=4 theta>0": (n4, n4_theta, np.eye(4), 400, "stall"),
        # the length of a filter-stream workload run, where one stacked call forms 2,000 gains
        "n=4 theta=0 T=2000": (n4, 0.0, np.eye(4), 2000, "stall"),
        "n=4 theta>0 T=2000": (n4, n4_theta, np.eye(4), 2000, "stall"),
        "v_violation": (example_model, 2e-3, np.eye(2), 60, None),
        "cone_exit": (load_model(MAP_EXIT_JSON), MAP_EXIT_THETA, np.eye(2), 5, None),
        # V fails at step 18 while the iteration itself goes on and settles
        "v_violation then settles": (example_model, 1.2e-3, np.eye(2), 300, None),
        "cone_exit at t=0": (example_model, 0.0, -np.eye(2), 20, None),
        "v_violation at t=0": (example_model, 10.0, np.eye(2), 20, None),
    }


def assert_close(got, want, scale, k=STALL_K):
    """got within k * eps * scale of want, relative to want's largest entry."""
    err = np.max(np.abs(got - want), initial=0.0)
    assert err <= k * np.finfo(float).eps * scale * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("case", [
    "two-state theta=0", "two-state theta>0", "two-state theta=0 from P*",
    "worked example theta=0", "n=4 theta=0", "n=4 theta>0", "n=4 theta=0 T=2000",
    "n=4 theta>0 T=2000", "v_violation", "cone_exit", "v_violation then settles",
    "cone_exit at t=0", "v_violation at t=0",
])
def test_filter_and_trajectory_match_the_always_factorizing_loop(shortcut_cases, case):
    model, theta, P0, T, first = shortcut_cases[case]
    observations = simulate(model, T, seed=4).observations
    records, estimates, innovations, violation = reference_filter(
        model, theta, P0, np.zeros(model.n), observations)
    out = run_filter(model, theta, P0, np.zeros(model.n), observations)
    steps = iterate_trajectory(model, theta, P0, T)
    # the case exercises what it names: the step s from which the records
    # are copies, and whether the reference repeats bitwise there first
    s, repeat = first_repeat(steps), first_repeat(records)
    assert first == ("repeat" if s is not None and s == repeat else
                     "stall" if s is not None else None)
    if first == "stall":
        assert repeat is None or s < repeat
        if model.n == 4:
            assert s < 100
    assert out.violation_step == violation
    assert len(out.P_sequence) == len(steps) == len(records)
    exact = len(steps) if first != "stall" else s + 1  # records that keep their bits
    for P, step, want in zip(out.P_sequence, steps, records):
        assert (step.t, step.status) == (want.t, want.status)
        assert (step.lambda_V is None) == (want.lambda_V is None)
        pairs = [(P, want.P), (step.P, want.P), (step.lambda_P, want.lambda_P)]
        if want.lambda_V is not None:
            pairs.append((step.lambda_V, want.lambda_V))
        for got, ref in pairs:
            if step.t < exact:
                assert np.array_equal(got, ref, equal_nan=True)
            else:
                assert_close(got, ref, want.lambda_P[0] / want.lambda_P[-1])
    if first != "stall":
        assert np.array_equal(out.estimates, estimates)
        assert np.array_equal(out.innovations, innovations)
    else:
        # the estimate at t uses the gains of steps before t
        assert np.array_equal(out.estimates[: s + 1], estimates[: s + 1])
        cond = records[-1].lambda_P[0] / records[-1].lambda_P[-1]
        assert_close(out.estimates, estimates, cond)
        assert_close(out.innovations, innovations, cond)


def _count_factorizations(monkeypatch):
    """Record every np.linalg eigh and inv call made from now on, by name."""
    calls = []

    def counting(name):
        solve = getattr(np.linalg, name)

        def wrapper(X):
            calls.append(name)
            return solve(X)
        return wrapper

    for name in ("eigh", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.mark.parametrize("theta", [0.0, 0.02])
def test_no_factorization_after_the_state_repeats(monkeypatch, theta):
    T = 2000
    observations = simulate(TWO_STATE, T, seed=4).observations
    r = first_repeat(reference_filter(TWO_STATE, theta, np.eye(2), np.zeros(2), observations)[0])
    assert r is not None and r < 100
    calls = _count_factorizations(monkeypatch)
    steps = iterate_trajectory(TWO_STATE, theta, np.eye(2), T)
    # the start, then the gate of the map's inner matrix (with the whitened
    # step) and the gate of P_next on steps 0..r, then one stacked V gate over
    # steps 0..r; none after. At theta = 0.02 the stall rule ends step r
    # before its P_next is formed; at theta = 0 the loop forms P_{r+1} and
    # ends at the exact repeat.
    want = 1 + 2 * (r + 1) + {0.0: 1, 0.02: 0}[theta]
    assert calls == ["eigh"] * want
    calls.clear()
    run_filter(TWO_STATE, theta, np.eye(2), np.zeros(2), observations)
    # and every gain from one inverse of the stacked R_nu
    assert calls.count("eigh") == want and calls.count("inv") == 1
    # the repeated records are still distinct arrays
    last, before = steps[-1], steps[-2]
    for a, b in ((last.P, before.P), (last.lambda_P, before.lambda_P),
                 (last.lambda_V, before.lambda_V)):
        assert not np.shares_memory(a, b)


def test_two_eigensolve_calls_per_step_without_a_repeat(monkeypatch, shortcut_cases):
    model, theta, P0, T, _ = shortcut_cases["n=4 theta>0"]
    observations = simulate(model, T, seed=4).observations
    calls = _count_factorizations(monkeypatch)
    steps = iterate_trajectory(model, theta, P0, T)
    s = first_repeat(steps)  # the records from step s on are copies of record s
    assert s is not None and s < T
    # the start, then two calls on each of steps 0..s - 1 (the step distance
    # is a second entry of the first call's stack), one on step s, where the
    # stall rule ends the loop before P_{s+1} is formed, and one stacked V
    # gate over steps 0..s; none after
    assert calls == ["eigh"] * (1 + 2 * (s + 1))
    calls.clear()
    run_filter(model, theta, P0, np.zeros(model.n), observations)
    assert calls == ["eigh"] * (1 + 2 * (s + 1)) + ["inv"]


@pytest.mark.parametrize("case", ["two-state theta>0", "n=4 theta=0 T=2000",
                                  "n=4 theta>0 T=2000"])
def test_filter_builds_no_record_past_the_settle_step(monkeypatch, shortcut_cases, case):
    model, theta, P0, _, _ = shortcut_cases[case]
    T = 2000
    observations = simulate(model, T, seed=4).observations
    steps = iterate_trajectory(model, theta, P0, T)
    s = first_repeat(steps)  # the records from step s + 1 on are copies of record s
    assert s is not None and s < 100
    built = []

    def counting(*args):
        built.append(args[0])
        return riccati_step(*args)

    riccati_step = riccati.RiccatiStep
    monkeypatch.setattr(riccati, "RiccatiStep", counting)
    out = run_filter(model, theta, P0, np.zeros(model.n), observations)
    # records 0..s: the loop ends at the settle step
    assert built == list(range(s + 1))
    assert len(out.P_sequence) == T + 1 and out.violation_step is None
    for P, step in zip(out.P_sequence, steps):
        assert np.array_equal(P, step.P)
    # the tail's variances are distinct arrays: mutating one leaves the next unchanged
    tail = out.P_sequence[s:]
    for a, b in zip(tail, tail[1:]):
        assert not np.shares_memory(a, b)
    tail[-2][0, 0] += 1.0
    assert np.array_equal(tail[-1], steps[-1].P)


def test_filter_with_a_violation_at_step_zero_forms_no_gain(monkeypatch, example_model):
    observations = simulate(example_model, 20, seed=2).observations
    stacks = []

    def recording(model, V):
        stacks.append(V.shape)
        return kalman_form(model, V)

    kalman_form = sim._kalman_form
    monkeypatch.setattr(sim, "_kalman_form", recording)
    out = run_filter(example_model, 10.0, np.eye(2), np.zeros(2), observations)
    assert stacks == [(0, 2, 2)]
    steps = iterate_trajectory(example_model, 10.0, np.eye(2), 20)
    assert [step.status for step in steps] == ["v_violation"]
    assert out.violation_step == 0
    assert out.innovations.shape == (0, 1) and out.estimates.shape == (1, 2)
    assert len(out.P_sequence) == 1 and np.array_equal(out.P_sequence[0], steps[0].P)


# ---------------------------------------------------------------------------
# observers


def test_observer_zero_gain_is_open_loop(example_model):
    run = simulate(example_model, 20, seed=8)
    out = run_observer(example_model, np.zeros((2, 1)), np.ones(2), run.observations)
    xt = np.ones(2)
    for t in range(1, 21):
        xt = example_model.A @ xt
        assert np.allclose(out.estimates[t], xt, atol=1e-12)


def test_observer_is_the_plain_fixed_gain_recursion_bitwise(example_model):
    G = place_observer_gain(example_model, [0.3, -0.2])
    x0 = np.array([0.5, -1.0])
    y = simulate(example_model, 200, seed=21).observations
    out = run_observer(example_model, G, x0, y)
    x = x0
    for t in range(200):
        nu = y[t] - example_model.C @ x
        assert np.array_equal(out.innovations[t], nu)
        x = example_model.A @ x + G @ nu
        assert np.array_equal(out.estimates[t + 1], x)


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
