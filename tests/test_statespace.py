import json
import math

import numpy as np
import pytest
from helpers import (
    build_block_model,
    dense_gramians,
    dense_thresholds,
    ldu_factors,
    loewner_leq,
    mp_block_gains,
    mp_block_map,
    random_model,
    stacked_noise_gram,
)

from rsriccati import (
    ConeExitError,
    DomainError,
    NumericalError,
    StateSpaceModel,
    UsageError,
    block_map,
    contraction_bound,
    is_observable,
    is_reachable,
    load_model,
    spectral,
    tau_N,
)
from rsriccati import statespace


# ---------------------------------------------------------------------------
# model loading and validation


def test_load_example_document(example_model):
    assert (example_model.n, example_model.m, example_model.p, example_model.q) == (2, 2, 1, 2)
    assert np.array_equal(example_model.D, np.eye(2))  # default


def test_load_missing_d_defaults_to_identity():
    model = load_model('{"A": [[0.5]], "B": [[1]], "C": [[1]]}')
    assert np.array_equal(model.D, np.eye(1))


def test_load_rejects_wrong_c_columns():
    with pytest.raises(UsageError, match="'C'"):
        load_model('{"A": [[0.5, 0],[0, 0.5]], "B": [[1],[1]], "C": [[1]]}')


def test_load_rejects_missing_field():
    with pytest.raises(UsageError, match="'B'"):
        load_model('{"A": [[1]], "C": [[1]]}')


def test_load_rejects_bad_json():
    with pytest.raises(UsageError, match="JSON"):
        load_model("{not json")


def test_load_rejects_rank_deficient_d():
    doc = {"A": [[1, 0], [0, 1]], "B": [[1], [1]], "C": [[1, 0]],
           "D": [[1, 0], [2, 0]]}
    with pytest.raises(UsageError, match="'D'"):
        load_model(json.dumps(doc))


def test_model_rejects_nonfinite():
    with pytest.raises(UsageError, match="'A'"):
        StateSpaceModel(A=np.array([[np.nan]]), B=np.eye(1), C=np.eye(1), D=np.eye(1))


@pytest.mark.parametrize("fields, message", [
    (dict(A=np.zeros(2)), "field 'A' must be a 2-D matrix"),
    (dict(A=np.zeros((2, 3))), r"field 'A' must be square, got \(2, 3\)"),
    (dict(B=np.eye(3)), r"field 'B' must have 2 rows to match A, got \(3, 3\)"),
    (dict(D=np.eye(3)[:2]), r"field 'D' must have 2 columns to match A, got \(2, 3\)"),
    (dict(D=np.ones((3, 2))), "field 'D' must have at most 2 rows, got 3"),
], ids=["one_dimensional", "non_square_A", "B_rows", "D_columns", "D_rows"])
def test_model_rejects_mismatched_shapes(fields, message):
    with pytest.raises(UsageError, match=message):
        StateSpaceModel(**{**dict(A=np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2)), **fields})


@pytest.mark.parametrize("document, message", [
    ("[1, 2]", "model document must be a JSON object"),
    ('{"A": [["x"]], "B": [[1]], "C": [[1]]}', "field 'A' is not a numeric matrix"),
], ids=["json_array", "non_numeric_field"])
def test_load_rejects_a_malformed_document(document, message):
    with pytest.raises(UsageError, match=message):
        load_model(document)


def test_load_accepts_a_parsed_document():
    doc = {"A": [[0.5, 0.0], [0.0, 0.3]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]}
    model, parsed = load_model(doc), load_model(json.dumps(doc))
    for name in ("A", "B", "C", "D"):
        assert np.array_equal(getattr(model, name), getattr(parsed, name))
    assert np.array_equal(model.D, np.eye(2))


# ---------------------------------------------------------------------------
# block matrices


def test_reachability_matrix_basics(example_model):
    assert np.array_equal(build_block_model(example_model, 1).R, example_model.B)
    model = load_model('{"A": [[1,0],[0,1]], "B": [[1],[2]], "C": [[1,0]]}')
    R3 = build_block_model(model, 3).R
    assert np.array_equal(R3, np.hstack([model.B] * 3))


def test_observability_matrix_example(example_model):
    assert np.array_equal(build_block_model(example_model, 1).O, example_model.C)
    O2 = build_block_model(example_model, 2).O
    # newest on top: first block row is C A, computed by hand
    assert np.allclose(O2, np.array([[0.1, -0.2], [1.0, -1.0]]))


def test_impulse_toeplitz_single_block_is_zero(example_model):
    assert np.array_equal(build_block_model(example_model, 1).H, np.zeros((1, 2)))


def test_impulse_toeplitz_example_n2(example_model):
    H2 = build_block_model(example_model, 2).H
    expected = np.zeros((2, 4))
    expected[0, 2:] = [1.0, -1.0]  # C B in the (1, 2) block
    assert np.allclose(H2, expected)


def test_impulse_toeplitz_zero_b():
    model = load_model('{"A": [[1,1],[0,1]], "B": [[0],[0]], "C": [[1,0]]}')
    assert np.array_equal(build_block_model(model, 3).H, np.zeros((3, 3)))


def test_impulse_toeplitz_block_layout():
    # block row i of a stack is out A^{N-1-i} (newest on top); Toeplitz
    # block (i, j) is out A^{j-i-1} B above the diagonal and zero elsewhere
    rng = np.random.default_rng(5)
    model = random_model(rng, n=3, m=2, p=2)
    for N in (1, 4):
        block_model = build_block_model(model, N)
        pw = [np.linalg.matrix_power(model.A, k) for k in range(N)]
        for out, O, T in ((model.C, block_model.O, block_model.H),
                          (model.D, block_model.O_R, block_model.L)):
            rows = out.shape[0]
            assert O.shape == (N * rows, 3) and T.shape == (N * rows, N * 2)
            for i in range(N):
                assert np.allclose(O[i * rows:(i + 1) * rows], out @ pw[N - 1 - i])
                for j in range(N):
                    block = T[i * rows:(i + 1) * rows, j * 2:(j + 1) * 2]
                    if j > i:
                        assert np.allclose(block, out @ pw[j - i - 1] @ model.B)
                    else:
                        assert np.array_equal(block, np.zeros((rows, 2)))


def test_block_length_below_one_is_a_usage_error(example_model):
    for build in (build_block_model, tau_N):
        with pytest.raises(UsageError, match="block length N must be >= 1, got 0"):
            build(example_model, 0)


def test_reachability_observability_flags(example_model):
    assert is_reachable(example_model)
    assert is_observable(example_model)
    model = load_model('{"A": [[1,0],[0,1]], "B": [[1],[0]], "C": [[1,1]]}')
    assert not is_reachable(model)
    model = StateSpaceModel(A=np.eye(2), B=np.eye(2), C=np.zeros((1, 2)), D=np.eye(2))
    assert not is_observable(model)


# ---------------------------------------------------------------------------
# downsampling consistency


def test_downsampled_dynamics_match_stepwise_simulation():
    rng = np.random.default_rng(9)
    model = random_model(rng, n=3, m=2, p=2)
    N = 4
    x = rng.standard_normal(3)
    u = rng.standard_normal((N, 2))
    v = rng.standard_normal((N, 2))
    ys = []
    xt = x.copy()
    for t in range(N):
        ys.append(model.C @ xt + v[t])
        xt = model.A @ xt + model.B @ u[t]
    # newest sample on top in every stacked vector
    u_stack = np.concatenate(u[::-1])
    v_stack = np.concatenate(v[::-1])
    y_stack = np.concatenate(ys[::-1])
    block = build_block_model(model, N)
    R, O, H = block.R, block.O, block.H
    A_N = np.linalg.matrix_power(model.A, N)
    assert np.linalg.norm(xt - (A_N @ x + R @ u_stack)) < 1e-12
    assert np.linalg.norm(y_stack - (O @ x + v_stack + H @ u_stack)) < 1e-12


# ---------------------------------------------------------------------------
# theta_N


def test_theta_infinite_when_no_penalty_feedthrough():
    # D A^{t-1} B vanishes identically: diagonal A, penalty on the
    # first state, noise entering the second only
    model = StateSpaceModel(
        A=np.diag([0.5, 0.3]), B=np.array([[0.0], [1.0]]),
        C=np.eye(2), D=np.array([[1.0, 0.0]]),
    )
    assert math.isinf(tau_N(model, 3).theta_N)


def test_theta_scalar_hand_value():
    # single entries H_1 = L_1 = 1; bottom entry of (I + H^T H)^-1 is
    # 1/2, so the largest eigenvalue is 1/2 and the threshold is 2
    model = load_model('{"A": [[0]], "B": [[1]], "C": [[1]], "D": [[1]]}')
    assert abs(tau_N(model, 2).theta_N - 2.0) < 1e-12


def test_theta_example_follows_defining_formula(example_model):
    # dense-eigenvalue oracle for the core matrix; its top eigenvalue
    # is exactly 1 for this model, so the reciprocal reading gives 1.0
    # (the published example text asserts 2 instead, which does not
    # follow from the formula and is inconsistent with the large-N
    # limit where tau_N and theta_N must meet)
    block = build_block_model(example_model, 2)
    H, L = block.H, block.L
    core = L @ np.linalg.inv(np.eye(4) + H.T @ H) @ L.T
    lam_1 = np.max(np.linalg.eigvalsh(core))
    assert abs(lam_1 - 1.0) < 1e-12
    assert abs(tau_N(example_model, 2).theta_N - 1.0 / lam_1) < 1e-12


@pytest.mark.parametrize("c", [1e-8, 1e-7, 1e-6, 1.0, 1e3])
def test_theta_scales_with_the_penalty_output(example_model, c):
    # theta enters only as theta D^T D, so D -> c D gives theta_N -> theta_N / c^2;
    # only an exactly vanishing eigenvalue reads as infinite
    m = example_model
    scaled = StateSpaceModel(A=m.A, B=m.B, C=m.C, D=c * np.eye(2))
    assert abs(tau_N(scaled, 2).theta_N * c**2 - 1.0) < 1e-14
    assert all(math.isinf(tau_N(_strong_output_model(), N).theta_N) for N in (1, 2, 3, 5))


# ---------------------------------------------------------------------------
# block model


def test_block_model_risk_neutral_gramians(example_model):
    block = build_block_model(example_model, 2, 0.0)
    H, O, R = block.H, block.O, block.R
    omega_direct = O.T @ np.linalg.inv(np.eye(2) + H @ H.T) @ O
    w_direct = R @ np.linalg.inv(np.eye(4) + H.T @ H) @ R.T
    assert np.allclose(block.Omega, omega_direct, rtol=1e-10)
    assert np.allclose(block.W, w_direct, rtol=1e-10)
    assert np.allclose(block.G_R, np.zeros_like(block.G_R))


def test_block_model_trivial_identity_case():
    model = load_model('{"A": [[0,0],[0,0]], "B": [[1,0],[0,1]], "C": [[1,0],[0,1]]}')
    block = build_block_model(model, 1, 0.0)
    assert np.allclose(block.Omega, np.eye(2))
    assert np.allclose(block.W, np.eye(2))
    assert np.allclose(block.alpha, np.zeros((2, 2)))


def test_block_model_w_minimum_eigenvalues(example_model):
    # lam_min(W) at theta = 0, and at theta = 2e-3 against the closed
    # form W = I + A inv([[2-t, -1], [-1, 2-t]]) A^T specific to this
    # model's structure
    lam0 = spectral(block_map(example_model, 2, 0.0).W).eigenvalues[-1]
    assert abs(lam0 - 1.002828) < 1e-4 * 1.002828
    for t in (0.0, 2e-3):
        Y = np.linalg.inv(np.array([[2.0 - t, -1.0], [-1.0, 2.0 - t]]))
        W_closed = np.eye(2) + example_model.A @ Y @ example_model.A.T
        lam = spectral(block_map(example_model, 2, t).W).eigenvalues[-1]
        assert abs(lam - np.min(np.linalg.eigvalsh(W_closed))) < 1e-12


def test_block_model_q_closed_form(example_model):
    theta = 5e-4
    block = build_block_model(example_model, 2, theta)
    H, L = block.H, block.L
    q_inner = np.eye(4) + H.T @ H - theta * (L.T @ L)
    assert np.allclose(block.Q @ q_inner, np.eye(4), atol=1e-10)


def test_block_model_two_route_gramian(example_model):
    theta = 4e-4
    block = build_block_model(example_model, 2, theta)
    stacked = np.vstack([block.O, block.O_R])
    direct = stacked.T @ np.linalg.solve(stacked_noise_gram(block), stacked)
    assert np.linalg.norm(block.Omega - direct) < 1e-9 * np.linalg.norm(block.Omega)


def test_block_model_ldu_reconstruction(example_model):
    theta = 4e-4
    block = build_block_model(example_model, 2, theta)
    lower, diag, upper = ldu_factors(block)
    K_rebuilt = lower @ diag @ upper
    K = stacked_noise_gram(block)
    assert np.linalg.norm(K_rebuilt - K) < 1e-10 * np.linalg.norm(K)


def test_block_model_rejects_theta_at_threshold(example_model):
    th = tau_N(example_model, 2).theta_N
    with pytest.raises(DomainError, match="not positive definite"):
        build_block_model(example_model, 2, th * 1.01)


def test_schur_complement_sign_tracks_threshold(example_model):
    th = tau_N(example_model, 2).theta_N
    block = build_block_model(example_model, 2)
    H, L = block.H, block.L
    psi_inv = np.linalg.inv(np.eye(4) + H.T @ H)
    for theta, expect_negative in ((0.5 * th, True), (1.5 * th, False)):
        S = -np.eye(4) / theta + L @ psi_inv @ L.T
        lam_max = np.max(np.linalg.eigvalsh(S))
        assert (lam_max < 0) == expect_negative


def test_block_model_schur_matches_direct(example_model):
    theta = 3e-4
    block = build_block_model(example_model, 2, theta)
    H, L = block.H, block.L
    psi_inv = np.linalg.inv(np.eye(4) + H.T @ H)
    S_direct = -np.eye(4) / theta + L @ psi_inv @ L.T
    # G_R = psi^-1 L^T S^-1, so G_R S = psi^-1 L^T pins the Schur complement
    assert np.allclose(block.G_R @ S_direct, psi_inv @ L.T, atol=1e-12)


def test_gramian_monotonicity_in_theta(example_model):
    # observability Gramian decreases, reachability Gramian does not
    thetas = np.linspace(0.0, 0.9 * tau_N(example_model, 2).theta_N, 8)
    blocks = [build_block_model(example_model, 2, t) for t in thetas]
    for b1, b2 in zip(blocks, blocks[1:]):
        assert loewner_leq(b2.Omega, b1.Omega, tol=1e-10)
        assert loewner_leq(b1.W, b2.W, tol=1e-10)


def test_gramian_strictly_below_risk_neutral(example_model):
    base = build_block_model(example_model, 2, 0.0).Omega
    for t in (1e-4, 5e-4):
        omega = build_block_model(example_model, 2, t).Omega
        assert np.max(np.linalg.eigvalsh(omega - base)) < 0.0


def test_block_alpha_reduces_to_risk_neutral(example_model):
    b0 = build_block_model(example_model, 2, 0.0)
    H, O, R = b0.H, b0.O, b0.R
    G_rn = H.T @ np.linalg.inv(np.eye(2) + H @ H.T)
    alpha_rn = np.linalg.matrix_power(example_model.A, 2) - R @ G_rn @ O
    assert np.allclose(b0.alpha, alpha_rn, atol=1e-12)


def _relerr(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


# The paper's 200-theta grid at N = 2, and seeded random models at theta in
# {0, 0.1, 0.5, 0.9} tau_N.
SWEEP_CASES = ["paper-grid"] + [(n, N) for n in (2, 3, 4, 6, 8) for N in (n, 4 * n)]


@pytest.mark.parametrize("case", SWEEP_CASES, ids=str)
def test_gramian_sweep_matches_the_dense_route_and_the_builder(example_model, case):
    # the sweep is block_map stacked over theta: 3.0e-15 off the dense route
    # and 1.5e-14 off the Nq-sized builder at most (measured)
    if case == "paper-grid":
        model, N, thetas = example_model, 2, np.linspace(0.0, 2e-3, 200)
    else:
        n, N = case
        model = random_model(np.random.default_rng(100 * n + N), n=n, m=max(1, n // 2), p=1)
        thetas = np.array([0.0, 0.1, 0.5, 0.9]) * tau_N(model, N).tau_N
    Omega, W = block_map(model, N, thetas)[1:]
    assert Omega.shape == W.shape == (len(thetas), model.n, model.n)
    for theta, got in zip(thetas.tolist(), zip(Omega, W)):
        block = build_block_model(model, N, theta)
        for got_X, dense_X, built_X in zip(got, dense_gramians(block), (block.Omega, block.W)):
            assert _relerr(got_X, dense_X) < 1e-9
            assert _relerr(got_X, built_X) < 1e-12


@pytest.mark.parametrize("where", [0, 3, 7])
def test_gramian_sweep_raises_the_builders_error_at_the_first_bad_theta(example_model, where):
    # the stacked sweep raises the scalar call's error for the first bad theta
    th = tau_N(example_model, 2).theta_N
    thetas = np.linspace(0.0, 0.5 * th, 8)
    thetas[where] = 1.01 * th
    thetas[where + 1:] = 1.02 * th  # a later failing theta does not win
    with pytest.raises(ConeExitError) as one:
        block_map(example_model, 2, 1.01 * th)
    with pytest.raises(ConeExitError) as swept:
        block_map(example_model, 2, thetas)
    assert str(swept.value) == str(one.value)
    assert swept.value.lambda_min == one.value.lambda_min
    assert str(swept.value).startswith(
        f"block map I + W Omega not positive at block length N=2, theta={1.01 * th:.6e} "
        f"(requires theta < theta_N)")


def test_gramian_sweep_checks_every_theta_and_builds_once(example_model, monkeypatch):
    composed = []
    real = statespace._compose
    monkeypatch.setattr(statespace, "_compose",
                        lambda *args: composed.append(args) or real(*args))
    for bad in (math.nan, -1e-4):
        with pytest.raises(DomainError, match="theta must be finite and >= 0"):
            block_map(example_model, 2, [0.0, 1e-4, bad])
    with pytest.raises(UsageError, match="1-D"):
        block_map(example_model, 2, [[0.0, 1e-4]])
    assert composed == []  # nothing is composed before every theta passed
    block_map(example_model, 2, np.linspace(0.0, 2e-3, 200))
    assert len(composed) == 1  # N = 2 is one stacked squaring


# The worked example and seeded random models with n <= 3, at theta = 0.9 tau_N.
MP_CASES = [("example", 2), ("example", 8), (1, 1), (1, 4), (3, 3), (3, 12)]


@pytest.mark.parametrize("case", MP_CASES, ids=str)
def test_block_gains_match_50_digit_arithmetic(example_model, case):
    pytest.importorskip("mpmath")
    name, N = case
    model = example_model if name == "example" else random_model(
        np.random.default_rng(40 + name), n=name, m=max(1, name - 1), p=1)
    theta = 0.9 * tau_N(model, N).tau_N
    block = build_block_model(model, N, theta)
    G_R, alpha = mp_block_gains(model, N, theta)
    assert np.linalg.norm(block.G_R - G_R) <= 1e-12 * np.linalg.norm(G_R)
    assert np.linalg.norm(block.alpha - alpha) <= 1e-9 * np.linalg.norm(alpha)


# ---------------------------------------------------------------------------
# block_map: the N-fold map's triple by doubling


def _relative(X, ref):
    return np.linalg.norm(X - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("N", [2, 8, 32, 64, 80])
def test_block_map_matches_60_digit_composition_on_the_example(example_model, N):
    # at N = 64 and 80 the Nq-sized build reads the coefficient as 1.7e-7
    # and 0.252, where 60 digits give 1.44e-7 and 9.11e-10
    pytest.importorskip("mpmath")
    *triple, want = mp_block_map(example_model, N, 1e-4)
    got = block_map(example_model, N, 1e-4)
    for X, ref in zip(got, triple):
        assert _relative(X, ref) <= 1e-12
    assert abs(contraction_bound(*got) - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_block_map_matches_60_digit_composition_on_random_models(n):
    # models like the model-scan benchmark's: one output, two inputs, r(A) in
    # [0.5, 1.2], N in {n, 4n}, theta at 0 and tau_N / 2. Only the triple is
    # held here: Omega_N reaches condition 1e6-1e10 on such models, and
    # contraction_bound on the correctly rounded 60-digit triple is itself
    # up to 1.6e-7 off the 60-digit coefficient.
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(3000 + n)
    model = random_model(rng, n, m=2, p=1, radius=rng.uniform(0.5, 1.2))
    for N in (n, 4 * n):
        for theta in (0.0, 0.5 * tau_N(model, N).tau_N):
            *triple, _ = mp_block_map(model, N, theta)
            for X, ref in zip(block_map(model, N, theta), triple):
                assert _relative(X, ref) <= 1e-12


def test_block_map_matches_the_block_build():
    # Omega and W agree to 1.6e-14 relative on these models. The build's
    # alpha = A^N - R (...) cancels terms of size |R| |O| + |A|^N down to a
    # decaying alpha and keeps only their absolute accuracy (1.3e-7 relative
    # at |alpha| = 7e-11, where the doubled alpha is 1.2e-15 off 60 digits),
    # so alpha is held to the larger of the two sizes: 3.6e-15 measured.
    rng = np.random.default_rng(3100)
    for n, p in [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (4, 2)]:
        for _ in range(2):
            model = random_model(rng, n, m=2, p=p, radius=rng.uniform(0.3, 0.95))
            theta_16 = tau_N(model, 16).theta_N  # theta_N falls with N
            for N in range(1, 17):
                for theta in (0.0, 0.5 * theta_16):
                    block, got = build_block_model(model, N, theta), block_map(model, N, theta)
                    assert _relative(got.Omega, block.Omega) <= 1e-13
                    assert _relative(got.W, block.W) <= 1e-13
                    scale = max(np.linalg.norm(block.alpha), np.linalg.norm(model.A) ** N
                                + np.linalg.norm(block.R) * np.linalg.norm(block.O))
                    assert np.linalg.norm(got.alpha - block.alpha) <= 1e-13 * scale


def test_block_map_gates_the_pole_past_theta_N(example_model):
    # theta_32 = 1.339e-3: past it the doubled Omega_32 has passed a pole and
    # is positive definite again (eigenvalues 0.26 and 2.32), but the last
    # composition's I + W Omega has the eigenvalue -12.5
    assert tau_N(example_model, 32).theta_N < 1.4e-3
    with pytest.raises(ConeExitError, match="block map I \\+ W Omega not positive at "
                                            "block length N=32"):
        block_map(example_model, 32, 1.4e-3)


@pytest.mark.parametrize("N", [3, 4, 5, 8, 12])
def test_block_map_gate_switches_at_theta_N(N):
    # theta_N from the Nq-sized path, which needs N p >= n
    rng = np.random.default_rng(3300 + N)
    for _ in range(6):
        model = random_model(rng, 3, m=2, p=1, radius=rng.uniform(0.5, 1.2))
        theta_N = tau_N(model, N).theta_N
        block_map(model, N, (1.0 - 1e-3) * theta_N)
        with pytest.raises(ConeExitError, match=f"block length N={N}"):
            block_map(model, N, (1.0 + 1e-3) * theta_N)


def test_block_map_rejects_what_the_build_rejects(example_model):
    with pytest.raises(UsageError, match="block length N must be >= 1, got 0"):
        block_map(example_model, 0)
    for theta in (math.nan, -1e-4):
        with pytest.raises(DomainError, match="theta must be finite and >= 0"):
            block_map(example_model, 2, theta)


@pytest.mark.parametrize("N", [2, 3, 4, 8])
def test_block_map_reports_overflow_as_numerical_failure(N):
    # A^2 = 1e400: alpha overflows at N = 2, and from N = 3 on the next
    # composition reads it through I + W Omega
    model = StateSpaceModel(A=1e200 * np.eye(2), B=np.eye(2),
                            C=np.array([[1.0, 1.0]]), D=np.eye(2))
    with pytest.raises(NumericalError, match=f"not finite at block length N={N}"):
        block_map(model, N)


@pytest.mark.parametrize("N", [2, 8, 32])
def test_block_map_stack_is_the_scalar_calls_bitwise(example_model, N):
    # a scalar theta runs as a stack of one, so the stack changes no bit
    models = [(example_model, np.linspace(0.0, 1.3e-3, 9))]
    for seed in (0, 1):
        model = random_model(np.random.default_rng(3400 + seed), n=3, m=2, p=1)
        theta_32 = tau_N(model, 32).theta_N  # theta_N falls with N
        models.append((model, np.array([0.0, 0.3, 0.6, 0.9]) * theta_32))
    for model, thetas in models:
        stacked = block_map(model, N, thetas)
        assert all(X.shape == (len(thetas), model.n, model.n) for X in stacked)
        for i, theta in enumerate(thetas.tolist()):
            for X, one in zip(stacked, block_map(model, N, theta)):
                assert np.array_equal(X[i], one)


def test_block_map_on_the_paper_grid_matches_60_digits(example_model):
    # paper-example's Gramian sweep: 4.3e-16 relative at worst (measured)
    pytest.importorskip("mpmath")
    thetas = np.linspace(0.0, 2e-3, 200)
    stacked = block_map(example_model, 2, thetas)
    for i, theta in enumerate(thetas.tolist()):
        *triple, _ = mp_block_map(example_model, 2, theta)
        for X, ref in zip(stacked, triple):
            assert _relative(X[i], ref) <= 1e-14


def test_block_map_where_the_block_build_gates_wrongly(example_model):
    # at N = 96 and theta = 1e-4 < theta_96 the Nq-sized build's Q gate fails
    # although Q is positive definite; the doubled triple is 2.0e-14 off 60
    # digits and its coefficient 7.4e-15 (measured)
    pytest.importorskip("mpmath")
    *triple, want = mp_block_map(example_model, 96, 1e-4)
    got = block_map(example_model, 96, 1e-4)
    for X, ref in zip(got, triple):
        assert _relative(X, ref) <= 1e-12
    assert abs(contraction_bound(*got) - want) <= 1e-12 * want


def test_block_map_where_the_measurement_gram_is_singular():
    # at A = 2 and N = 32 the Nq route loses I + H H^T to rounding (see
    # test_a_singular_measurement_gram_is_a_numerical_failure); the doubled
    # triple is finite, alpha 2.5e-16 off 60 digits and Omega, W exact (measured)
    pytest.importorskip("mpmath")
    model = StateSpaceModel(A=np.array([[2.0]]), B=np.eye(1), C=np.eye(1), D=np.eye(1))
    *triple, _ = mp_block_map(model, 32, 0.0)
    for X, ref in zip(block_map(model, 32), triple):
        assert np.isfinite(X).all()
        assert _relative(X, ref) <= 1e-15


@pytest.mark.parametrize("thetas, named", [
    ([1e-4, 1.4e-3, 5e-4], 1.4e-3),
    ([1e-4, 1.4e-3, 1.5e-3], 1.4e-3),  # the first in input order
    ([1e-4, 1.4e-3, 0.5], 0.5),  # 0.5 > theta_4 fails at an earlier composition
], ids=["one", "two", "earlier_composition"])
def test_block_map_stack_names_the_theta_past_theta_N(example_model, thetas, named):
    # theta_32 = 1.339e-3 and theta_4 = 0.131
    with pytest.raises(ConeExitError, match=f"block length N=32, theta={named:.6e} "):
        block_map(example_model, 32, thetas)


def test_compose_reports_each_entry_and_inverts_the_rest():
    # A = 0.5, B = C = D = 1: the one-step I + W Omega is 2 - theta, exactly 0
    # at theta = 2. That entry fails the gate without making the stacked
    # inverse fail for the other, whose composition is the scalar one's bits.
    model = load_model('{"A": [[0.5]], "B": [[1]], "C": [[1]], "D": [[1]]}')
    step = block_map(model, 1, [0.1, 2.0])
    composed, passed, lo, hi = statespace._compose(2, step, step)
    assert passed.tolist() == [True, False] and lo[1] == hi[1] == 0.0
    one = block_map(model, 1, [0.1])
    for X, Y in zip(composed, statespace._compose(2, one, one)[0]):
        assert np.array_equal(X[:1], Y)
    with pytest.raises(ConeExitError, match="block length N=2, theta=2.000000e\\+00 "):
        block_map(model, 2, [0.1, 2.0])


# ---------------------------------------------------------------------------
# tau_N


def test_tau_example_value(example_model):
    thr = tau_N(example_model, 2)
    assert abs(thr.tau_N - 0.715e-3) < 0.02 * 0.715e-3
    assert not thr.tau_is_capped
    assert 0.0 < thr.tau_N <= thr.theta_N


def _strong_output_model(c=1.0):
    """No penalty feedthrough (theta_N infinite) and a strong output, in states c x."""
    return StateSpaceModel(
        A=np.diag([0.5, 0.3]), B=c * np.array([[0.0], [1.0]]),
        C=100.0 / c * np.eye(2), D=np.array([[1.0, 0.0]]) / c,
    )


def test_tau_capped_when_gramian_stays_positive():
    # with theta_N infinite, tau_N is the closed form itself: 1e4, where
    # Omega_2(theta) changes sign
    model = _strong_output_model()
    thr = tau_N(model, 2)
    assert math.isinf(thr.theta_N)
    assert abs(thr.tau_N - 1e4) <= 1e-12 * 1e4
    assert not thr.tau_is_capped
    below = build_block_model(model, 2, thr.tau_N * (1.0 - 1e-6)).Omega
    above = build_block_model(model, 2, thr.tau_N * (1.0 + 1e-6)).Omega
    assert np.linalg.eigvalsh(below)[0] > 0.0
    assert np.linalg.eigvalsh(above)[0] < 0.0


def test_tau_is_scale_invariant_when_theta_N_is_infinite():
    # x -> c x leaves tau_N unchanged; no bound may depend on the state scale
    taus = [tau_N(_strong_output_model(c), 2).tau_N for c in (1e-3, 1.0, 1e3)]
    assert all(abs(t - taus[1]) <= 1e-12 * taus[1] for t in taus)


def test_tau_rejects_unobservable_pair():
    model = StateSpaceModel(
        A=np.eye(2), B=np.eye(2), C=np.zeros((1, 2)), D=np.eye(2)
    )
    with pytest.raises(DomainError, match="not observable"):
        tau_N(model, 2)


@pytest.mark.parametrize("N", [2, 3])
def test_thresholds_report_overflow_as_numerical_failure(N):
    # (C, A) is observable, but A = 1e200 I overflows double precision: at
    # N = 2 in Omega_N(0) = O^T (I + H H^T)^-1 O, at N = 3 already in the
    # Grams of H, which holds C A B. A numerical failure, never "not observable",
    # and never a block map with non-finite Gramians.
    model = StateSpaceModel(A=1e200 * np.eye(2), B=np.eye(2),
                            C=np.array([[1.0, 1.0]]), D=np.eye(2))
    with pytest.raises(NumericalError, match=f"not finite at block length N={N}"):
        tau_N(model, N)
    with pytest.raises(NumericalError, match=f"not finite at block length N={N}"):
        block_map(model, N, 0.0)


@pytest.mark.parametrize("N", [112, 128])
def test_thresholds_past_double_precision_are_a_numerical_failure(example_model, N):
    # A has an eigenvalue 1.2, so H holds entries near 1.2^N and rounding
    # loses the identity in I + H^T H: its Cholesky factor fails
    with pytest.raises(NumericalError,
                       match=rf"I \+ H\^T H cannot be factored at block length N={N}"):
        tau_N(example_model, N)


def test_a_singular_measurement_gram_is_a_numerical_failure():
    # at A = 2 and N = 32 rounding leaves I + H H^T exactly singular
    model = StateSpaceModel(A=np.array([[2.0]]), B=np.eye(1), C=np.eye(1), D=np.eye(1))
    with pytest.raises(NumericalError,
                       match=r"I \+ H H\^T cannot be factored at block length N=32"):
        tau_N(model, 32)


def test_block_model_reports_penalty_overflow_as_numerical_failure():
    # C sees only the stable mode, but the penalty reaches D A^2 B = 1e400:
    # the doubled alpha overflows, and no gate may read it
    model = StateSpaceModel(A=np.diag([1e200, 0.5]), B=np.eye(2),
                            C=np.array([[0.0, 1.0]]), D=np.eye(2))
    with pytest.raises(NumericalError, match=r"not finite at block length N=3"):
        block_map(model, 3, 0.0)


def _penalty_models(rng):
    """Random observable models with q > m, q = m and q < m, and one with L = 0."""
    models = []
    for n, m, q in [(3, 1, 3), (4, 1, 2), (2, 2, 2), (3, 3, 3), (2, 3, 1), (3, 4, 2)]:
        for p in (1, 2) * 3:
            base = random_model(rng, n, m=m, p=p)
            D = rng.standard_normal((q, n))
            models.append(StateSpaceModel(A=base.A, B=base.B, C=base.C, D=D))
    no_feedthrough = StateSpaceModel(A=np.diag([0.5, 0.3]), B=np.array([[0.0], [1.0]]),
                                     C=np.eye(2), D=np.array([[1.0, 0.0]]))
    return models + [no_feedthrough]


def test_thresholds_match_the_dense_route():
    # theta_N and tau_N read the smaller Gram of a square-root factor; the
    # dense route takes lam_1 of the Nq x Nq matrices M and M + Y Y^T
    models = _penalty_models(np.random.default_rng(23))
    assert len(models) == 37 and math.isinf(tau_N(models[-1], 3).theta_N)
    for model in models:
        for N in (model.n, 2 * model.n):
            thr = tau_N(model, N)
            theta, tau, capped = dense_thresholds(model, N)
            for value, want in ((thr.theta_N, theta), (thr.tau_N, tau)):
                assert value == want or abs(value - want) <= 1e-12 * want
            assert thr.tau_is_capped == capped


def _assert_tau_brackets_singularity(model, N):
    # Omega_N(theta) is positive definite just below tau_N and, unless
    # theta_N comes first, not positive definite just above it
    thr = tau_N(model, N)
    assert thr.tau_N <= thr.theta_N
    below = build_block_model(model, N, (1.0 - 1e-6) * thr.tau_N).Omega
    assert np.linalg.eigvalsh(below)[0] > 0.0
    if (1.0 + 1e-6) * thr.tau_N < thr.theta_N:
        above = build_block_model(model, N, (1.0 + 1e-6) * thr.tau_N).Omega
        assert np.linalg.eigvalsh(above)[0] <= 0.0


@pytest.mark.parametrize("N", [2, 3, 5, 10, 40])
def test_tau_brackets_singularity_on_example(example_model, N):
    _assert_tau_brackets_singularity(example_model, N)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_tau_brackets_singularity_on_random_models(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(8):
        model = random_model(rng, n)
        for N in (n, 4 * n):
            _assert_tau_brackets_singularity(model, N)


def _condition_transform(rng, n, cond):
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (U * np.logspace(0.0, np.log10(cond), n)) @ V.T


@pytest.mark.parametrize("kind, size, rtol", [
    ("cond", 1.0, 1e-9), ("cond", 1e2, 1e-9), ("cond", 1e3, 1e-8),
    ("scale", 1e-6, 1e-9), ("scale", 1e6, 1e-9),
])
def test_thresholds_invariant_under_state_coordinates(example_model, kind, size, rtol):
    # x -> T x maps (A, B, C, D) to (T A T^-1, T B, C T^-1, D T^-1); theta_N
    # and tau_N depend only on the input-output maps and must not move.
    # Forming the moved model alone shifts theta_N by up to 6e-10 at
    # cond(T) = 1e3, hence the looser tolerance there.
    rng = np.random.default_rng(17)
    models = [(example_model, 2)] + [
        (random_model(rng, n), N) for n in (2, 3, 4) for N in (n, 2 * n)
    ]
    for model, N in models:
        n = model.n
        T = _condition_transform(rng, n, size) if kind == "cond" else size * np.eye(n)
        T_inv = np.linalg.inv(T)
        moved = StateSpaceModel(A=T @ model.A @ T_inv, B=T @ model.B,
                                C=model.C @ T_inv, D=model.D @ T_inv)
        before, after = tau_N(model, N), tau_N(moved, N)
        assert abs(after.theta_N - before.theta_N) <= rtol * before.theta_N
        assert abs(after.tau_N - before.tau_N) <= rtol * before.tau_N
