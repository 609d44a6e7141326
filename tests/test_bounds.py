import numpy as np
import pytest
from helpers import loewner_leq, random_model, random_spd, series_sigma, spectral_radius

from rsriccati import (
    ConeExitError,
    DomainError,
    NumericalError,
    StateSpaceModel,
    UsageError,
    best_rho_for_gain,
    bound_search,
    check_initial_condition,
    default_gain_grid,
    is_spd,
    iterate_trajectory,
    load_model,
    observer_bound,
    place_observer_gain,
    spectral,
)
from rsriccati import bounds
from rsriccati.bounds import REFINE_MAX_ROUNDS, _beta_batch


def test_spectral_radius_cases(example_model):
    G = place_observer_gain(example_model, [0.0, 0.0])
    F = example_model.A - G @ example_model.C
    assert spectral_radius(F) < 1e-7  # nilpotent closed loop
    assert abs(spectral_radius(np.diag([0.5, -0.9])) - 0.9) < 1e-15
    rot = 0.7 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    assert abs(spectral_radius(rot) - 0.7) < 1e-12


# ---------------------------------------------------------------------------
# pole placement


def test_place_example_gain(example_model):
    G = place_observer_gain(example_model, [0.0, 0.0])
    assert np.max(np.abs(G.ravel() - np.array([-13.1, -14.4]))) < 1e-6
    F = example_model.A - G @ example_model.C
    assert np.max(np.abs(np.linalg.eigvals(F))) < 1e-6


def test_place_scalar_gain():
    model = load_model('{"A": [[0.8]], "B": [[1]], "C": [[2]]}')
    G = place_observer_gain(model, [0.0])
    assert abs(G[0, 0] - 0.4) < 1e-12  # A/C


def test_place_at_open_loop_poles_gives_zero_gain(example_model):
    poles = np.linalg.eigvals(example_model.A)
    G = place_observer_gain(example_model, np.sort(poles))
    assert np.max(np.abs(G)) < 1e-10


def test_place_arbitrary_poles(example_model):
    G = place_observer_gain(example_model, [0.3, -0.2])
    got = np.sort(np.linalg.eigvals(example_model.A - G @ example_model.C).real)
    assert np.allclose(got, [-0.2, 0.3], atol=1e-6)


def test_place_requires_conjugate_pairs(example_model):
    with pytest.raises(UsageError, match="conjugat"):
        place_observer_gain(example_model, [0.5j, 0.1])
    G = place_observer_gain(example_model, [0.5j, -0.5j])
    got = np.linalg.eigvals(example_model.A - G @ example_model.C)
    assert np.allclose(np.sort_complex(got), [-0.5j, 0.5j], atol=1e-9)


def test_place_rejects_multi_output():
    model = StateSpaceModel(A=np.eye(2), B=np.eye(2), C=np.eye(2), D=np.eye(2))
    with pytest.raises(UsageError, match="single output"):
        place_observer_gain(model, [0.0, 0.0])


def test_place_rejects_the_wrong_number_of_poles(example_model):
    with pytest.raises(UsageError, match="need exactly n=2 desired poles"):
        place_observer_gain(example_model, [0.0])


def test_place_rejects_unobservable():
    model = StateSpaceModel(
        A=np.diag([0.5, 0.5]), B=np.eye(2), C=np.array([[1.0, 0.0]]), D=np.eye(2)
    )
    with pytest.raises(DomainError, match="not observable"):
        place_observer_gain(model, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Lyapunov bound


def test_lyapunov_sigma_example(example_model, example_bound):
    G, Sigma2, _ = example_bound
    ref = 1e3 * np.array([[1.4622, 1.5954], [1.5954, 1.7431]])
    assert np.max(np.abs(Sigma2 - ref) / ref) < 5e-4
    assert abs(spectral(Sigma2).eigenvalues[0] - 3.2042e3) < 5e-4 * 3.2042e3


def test_lyapunov_sigma_zero_closed_loop():
    # gain A/C makes the closed loop vanish, so the series truncates
    model = load_model('{"A": [[1]], "B": [[2]], "C": [[1]]}')
    G = np.array([[1.0]])
    Sigma = observer_bound(model, G, 5.0).Sigma_rho
    assert abs(Sigma[0, 0] - 5.0) < 1e-12  # B^2 + G^2


def test_lyapunov_sigma_matches_series_oracle():
    rng = np.random.default_rng(43)
    for _ in range(10):
        model = random_model(rng)
        G = 0.3 * rng.standard_normal((2, 1))
        rho = rng.uniform(1.01, 1.2)
        F = model.A - G @ model.C
        if rho * spectral_radius(F) >= 0.95:
            continue
        Sigma = observer_bound(model, G, rho).Sigma_rho
        term = model.B @ model.B.T + G @ G.T
        total = term.copy()
        while np.linalg.norm(term) > 1e-14 * np.linalg.norm(total):
            term = rho**2 * (F @ term @ F.T)
            total += term
        assert np.linalg.norm(Sigma - total) < 1e-9 * np.linalg.norm(total)


def test_lyapunov_sigma_residual_and_spd():
    rng = np.random.default_rng(47)
    for _ in range(10):
        model = random_model(rng)
        G = 0.2 * rng.standard_normal((2, 1))
        rho = 1.05
        F = model.A - G @ model.C
        if rho * spectral_radius(F) >= 1.0:
            continue
        Sigma = observer_bound(model, G, rho).Sigma_rho
        residual = np.linalg.norm(
            Sigma - rho**2 * (F @ Sigma @ F.T) - model.B @ model.B.T - G @ G.T
        )
        assert residual <= 1e-10 * max(1.0, np.linalg.norm(Sigma))
        assert is_spd(Sigma)  # reachable (A, B) forces positivity


def test_lyapunov_sigma_rejects_expansive_rho(example_model, example_bound):
    G, _, _ = example_bound
    model = load_model('{"A": [[0.9]], "B": [[1]], "C": [[1]]}')
    with pytest.raises(DomainError, match="rho"):
        observer_bound(model, np.array([[0.0]]), 1.2)  # 1.2 * 0.9 > 1


def _inflated_solves(monkeypatch):
    """Scale every Kronecker solution by 1 + 1e-6, past the 1e-10 residual contract.

    Returns the list of stacks solved, one entry per call.
    """
    solve_each, calls = bounds._solve_each, []

    def inflated(M, rhs):
        calls.append(len(M))
        return solve_each(M, rhs) * (1.0 + 1e-6)

    monkeypatch.setattr(bounds, "_solve_each", inflated)
    return calls


@pytest.mark.parametrize("rho", [2.0, 1.05])
def test_observer_bound_raises_a_missed_residual_contract(monkeypatch, example_model,
                                                          example_bound, rho):
    G, _, _ = example_bound
    _inflated_solves(monkeypatch)
    with pytest.raises(NumericalError) as info:
        observer_bound(example_model, G, rho)
    assert str(info.value) == f"Lyapunov residual 3.800e-04 exceeds tolerance at rho={rho}"


# ---------------------------------------------------------------------------
# risk bound


def test_beta_example_value(example_model, example_bound):
    _, _, beta2 = example_bound
    assert abs(beta2 - 2.3407e-4) < 1e-3 * 2.3407e-4


def test_beta_rejects_rho_below_one(example_model, example_bound):
    G, _, _ = example_bound
    with pytest.raises(DomainError):
        observer_bound(example_model, G, 1.0)


@pytest.mark.parametrize("rho", [np.nan, np.inf])
def test_rho_domain_at_entry(example_model, example_bound, rho):
    G, _, _ = example_bound
    with pytest.raises(DomainError, match="rho must be finite"):
        observer_bound(example_model, G, rho)


def test_beta_scalar_large_rho_limit():
    # closed loop zero: Sigma = A^2/C^2 + B^2 for every rho, and the
    # bound tends to its reciprocal as rho grows
    model = load_model('{"A": [[0.9]], "B": [[1]], "C": [[1]], "D": [[1]]}')
    G = np.array([[0.9]])
    beta = observer_bound(model, G, 1e3).beta_rho
    assert abs(beta - 1.0 / (0.9**2 + 1.0)) < 5e-3 * beta


def test_positivity_threshold_sharp(example_model, example_bound):
    # M = (1 - rho^-2) Sigma^-1 - theta D^T D changes sign exactly at beta
    G, Sigma2, beta2 = example_bound
    Sigma_inv = np.linalg.inv(Sigma2)
    for factor, expect_nnd in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        M = (1.0 - 0.25) * Sigma_inv - factor * beta2 * np.eye(2)
        lam_min = np.min(np.linalg.eigvalsh(M))
        assert (lam_min >= -1e-15) == expect_nnd


# ---------------------------------------------------------------------------
# search


def test_bound_search_singleton_grid(example_model, example_bound):
    G, _, beta2 = example_bound
    got = bound_search(
        example_model,
        rho_grid=[2.0],
        gain_grid=[np.array([G[0, 0]]), np.array([G[1, 0]])],
        refine=False,
    )
    assert got.rho == 2.0
    assert np.allclose(got.G, G)
    assert abs(got.beta_rho - beta2) < 1e-15


def test_bound_search_scalar_maximizer_near_a_over_c():
    model = load_model('{"A": [[0.9]], "B": [[1]], "C": [[1]], "D": [[1]]}')
    grid = [np.linspace(0.5, 1.3, 33)]
    best = bound_search(model, rho_grid=[50.0, 100.0], gain_grid=grid, refine=False)
    assert abs(best.G[0, 0] - 0.9) < 0.05


def test_bound_search_reports_infeasible():
    model = load_model('{"A": [[3.0]], "B": [[1]], "C": [[1]]}')
    with pytest.raises(DomainError, match="feasible"):
        bound_search(model, rho_grid=[2.0], gain_grid=[np.array([0.0])], refine=False)


def test_bound_search_rejects_an_unreachable_pair():
    model = StateSpaceModel(A=np.diag([0.5, 0.3]), B=np.array([[0.0], [1.0]]),
                            C=np.array([[1.0, 1.0]]), D=np.eye(2))
    with pytest.raises(DomainError, match="reachable pair"):
        bound_search(model)


def test_bound_search_rejects_empty_grid(example_model):
    with pytest.raises(UsageError):
        bound_search(example_model, rho_grid=[], gain_grid=None)


def test_bound_search_needs_one_gain_grid_per_gain_entry(example_model):
    with pytest.raises(UsageError, match=r"one gain grid per gain entry \(2\), got 1"):
        bound_search(example_model, gain_grid=[np.linspace(-1.0, 1.0, 3)])


def test_default_gain_grid_shape(example_model):
    grids = default_gain_grid(example_model)
    assert len(grids) == 2
    assert all(len(g) == 41 for g in grids)
    assert grids[0][0] == -grids[0][-1]


def test_default_gain_grid_falls_back_to_the_norm_of_A_for_two_outputs():
    # no single-output placement: +-10 ||A||_F for each of the n p = 4 gain entries
    A = np.array([[0.5, 0.1], [0.0, 0.4]])
    model = StateSpaceModel(A=A, B=np.eye(2), C=np.eye(2), D=np.eye(2))
    half = 10.0 * np.linalg.norm(A)
    grids = default_gain_grid(model, points=5)
    assert len(grids) == 4
    for g in grids:
        assert np.array_equal(g, np.linspace(-half, half, 5))


def test_best_rho_for_gain_without_a_feasible_rho(example_model, example_bound):
    G, _, _ = example_bound
    with pytest.raises(DomainError, match="no rho in the grid"):
        best_rho_for_gain(example_model, G, [0.5, 0.9])


def test_best_rho_for_gain(example_model, example_bound):
    G, _, beta2 = example_bound
    best = best_rho_for_gain(example_model, G)
    assert best.beta_rho >= beta2 - 1e-15  # the scan includes rho = 2


@pytest.mark.parametrize("grid, rho", [(None, 1.05), ([0.5, 2.0, 1.5], 2.0)])
def test_best_rho_for_gain_raises_the_first_failed_rho(monkeypatch, example_model,
                                                       example_bound, grid, rho):
    # every feasible rho misses the contract; the first one above 1 in grid order is named
    G, _, _ = example_bound
    calls = _inflated_solves(monkeypatch)
    with pytest.raises(NumericalError) as info:
        best_rho_for_gain(example_model, G, grid)
    assert str(info.value) == f"Lyapunov residual 3.800e-04 exceeds tolerance at rho={rho}"
    assert len(calls) == 1  # the failed rho is not solved again


def test_bound_search_deterministic(example_model):
    grids = dict(rho_grid=np.linspace(1.1, 1.5, 5),
                 gain_grid=[np.linspace(-15.0, 0.0, 7)] * 2)
    a = bound_search(example_model, refine=True, **grids)
    b = bound_search(example_model, refine=True, **grids)
    assert a.rho == b.rho
    assert np.array_equal(a.G, b.G)
    assert a.beta_rho == b.beta_rho


# The optimum the earlier coordinate-descent polish reached on the default grids.
COORDINATE_DESCENT_BETA = 4.82620602e-4


def test_bound_search_polish_beats_grid_and_coordinate_descent(example_model):
    grid_best = bound_search(example_model, refine=False)
    best = bound_search(example_model)
    assert best.beta_rho >= grid_best.beta_rho
    assert best.beta_rho >= COORDINATE_DESCENT_BETA * (1.0 - 1e-9)
    assert best.beta_rho == observer_bound(example_model, best.G, best.rho).beta_rho


# beta_rho the single-scale polish (steps h only) reached on the default grids.
SINGLE_SCALE_BETA = 4.826206088887e-4


def test_bound_search_multi_scale_polish_takes_few_rounds(monkeypatch, example_model):
    # the steps h, 2h, 4h and 8h in one call per round: the single-scale
    # polish took 516 rounds (526 kernel calls) to a lower beta
    calls = []

    def counted(*args):
        calls.append(None)
        return _beta_batch(*args)

    monkeypatch.setattr("rsriccati.bounds._beta_batch", counted)
    best = bound_search(example_model)
    assert len(calls) <= 100
    assert best.beta_rho >= SINGLE_SCALE_BETA
    assert 1.1 <= best.rho <= 1.5


def test_bound_search_refine_terminates_on_singleton_grid(example_model, example_bound):
    # a singleton grid has no spacing: the polish starts from the fallback steps
    G, _, beta2 = example_bound
    got = bound_search(example_model, rho_grid=[2.0],
                       gain_grid=[np.array([G[0, 0]]), np.array([G[1, 0]])])
    assert got.beta_rho >= beta2


def test_bound_search_refine_terminates_when_neighbours_infeasible(example_model):
    # From (rho, G) = (1.6, G0) with spectral_radius(A - G0 C) = 0.5, every
    # first-round neighbour is infeasible: rho = 1.0 has no bound, rho = 2.2
    # reaches rho * r > 1, and gain steps of 1000 leave the stable region.
    G0 = place_observer_gain(example_model, [0.5, 0.0]).ravel()
    grids = dict(rho_grid=[1.0, 1.6], gain_grid=[[g - 1000.0, g] for g in G0])
    grid = bound_search(example_model, refine=False, **grids)
    assert grid.rho == 1.6 and np.array_equal(grid.G.ravel(), G0)
    steps = np.diag([0.6, 1000.0, 1000.0])
    trial = np.concatenate([np.r_[1.6, G0] + steps, np.r_[1.6, G0] - steps])
    beta, _, _, _ = _beta_batch(example_model, trial[:, 1:, None], trial[:, :1])
    assert np.isnan(beta).all()
    got = bound_search(example_model, **grids)
    assert got.beta_rho >= grid.beta_rho


@pytest.mark.parametrize("A", [0.5, 0.9, 1.5])
def test_bound_search_polish_stops_within_round_budget_on_scalar_models(monkeypatch, A):
    # beta_rho's supremum lies at rho -> infinity with G -> A/C, so the
    # pattern search would climb rho forever without its round budget.
    model = load_model(f'{{"A": [[{A}]], "B": [[1]], "C": [[1]], "D": [[1]]}}')
    grid = bound_search(model, refine=False)
    calls = []

    def counted(*args):
        calls.append(None)
        return _beta_batch(*args)

    monkeypatch.setattr("rsriccati.bounds._beta_batch", counted)
    got = bound_search(model)
    # one grid chunk, at most REFINE_MAX_ROUNDS polish rounds, one final record
    assert len(calls) <= REFINE_MAX_ROUNDS + 2
    assert got.beta_rho >= grid.beta_rho


@pytest.mark.parametrize("grids", [
    dict(rho_grid=[1.1, np.nan]),
    dict(rho_grid=[1.1, np.inf]),
    dict(gain_grid=[np.array([0.0, np.nan]), np.array([0.0])]),
    dict(gain_grid=[np.array([]), np.array([0.0])]),
])
def test_bound_search_rejects_empty_or_non_finite_grid(example_model, grids):
    with pytest.raises(UsageError):
        bound_search(example_model, **grids)


def test_grid_helpers_reject_bad_specs(example_model, example_bound):
    G, _, _ = example_bound
    with pytest.raises(UsageError):
        best_rho_for_gain(example_model, G, [1.1, np.nan])
    with pytest.raises(UsageError):
        best_rho_for_gain(example_model, G, [])
    for points, span in ((0, 3.0), (-1, 3.0), (5, np.nan), (5, np.inf)):
        with pytest.raises(UsageError):
            default_gain_grid(example_model, points=points, span=span)


# ---------------------------------------------------------------------------
# stacked kernel


def _random_batch(rng):
    """Models with n in 2..3 and p in 1..2; rho feasible, radius-infeasible or <= 1."""
    n, p = rng.integers(2, 4), rng.integers(1, 3)
    model = random_model(rng, n=n, m=2, p=p, radius=0.6)
    b, m = rng.integers(1, 5), rng.integers(1, 5)
    G = rng.standard_normal((b, n, p)) * rng.choice([0.1, 0.5, 2.0], size=(b, 1, 1))
    r = np.array([spectral_radius(model.A - g @ model.C) for g in G])
    kind = rng.integers(0, 3, size=(b, m))
    rho = np.where(kind == 0, rng.uniform(0.2, 1.0, (b, m)),
                   np.where(kind == 1, rng.uniform(1.0, 3.0, (b, m)) / r[:, None],
                            1.0 + rng.uniform(0.0, 1.0, (b, m)) * (0.95 / r[:, None] - 1.0)))
    return model, G, rho, r


def test_beta_batch_matches_series_oracle_and_scalar_path():
    rng = np.random.default_rng(59)
    feasible = infeasible = 0
    for _ in range(200):
        model, G, rho, r = _random_batch(rng)
        beta, Sigma, radius, _ = _beta_batch(model, G, rho)
        assert np.allclose(radius, r, rtol=1e-12, atol=0.0)
        for i, j in np.ndindex(rho.shape):
            if not (1.0 < rho[i, j] and rho[i, j] * r[i] < 1.0):
                assert np.isnan(beta[i, j])
                infeasible += 1
                continue
            feasible += 1
            F = model.A - G[i] @ model.C
            ref = series_sigma(F, model.B @ model.B.T + G[i] @ G[i].T, rho[i, j])
            assert np.linalg.norm(Sigma[i, j] - ref) <= 1e-9 * np.linalg.norm(ref)
            lam_1 = np.linalg.eigvalsh(model.D @ ref @ model.D.T)[-1]
            ref_beta = (rho[i, j] ** 2 - 1.0) / (rho[i, j] ** 2 * lam_1)
            assert abs(beta[i, j] - ref_beta) <= 1e-9 * ref_beta
            one = observer_bound(model, G[i], rho[i, j])
            assert one.beta_rho == beta[i, j]
            assert np.array_equal(one.Sigma_rho, Sigma[i, j])
    assert feasible > 200 and infeasible > 200


def test_beta_batch_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(61)
    for _ in range(200):
        model, G, rho, r = _random_batch(rng)
        beta, Sigma, _, _ = _beta_batch(model, G, rho)
        for i, j in zip(*np.nonzero(~np.isnan(beta))):
            F = model.A - G[i] @ model.C
            ref = scipy_linalg.solve_discrete_lyapunov(
                rho[i, j] * F, model.B @ model.B.T + G[i] @ G[i].T)
            assert np.linalg.norm(Sigma[i, j] - ref) <= 1e-9 * np.linalg.norm(ref)
            lam_1 = np.linalg.eigvalsh(model.D @ ref @ model.D.T)[-1]
            ref_beta = (rho[i, j] ** 2 - 1.0) / (rho[i, j] ** 2 * lam_1)
            assert abs(beta[i, j] - ref_beta) <= 1e-9 * ref_beta


def test_singular_candidate_does_not_fail_its_batch():
    # 1 - rho^2 f^2 rounds to exactly 0 although rho * f < 1
    f, rho = 0.49857673861949003, 2.0057092971663733
    model = load_model(f'{{"A": [[{f!r}]], "B": [[1]], "C": [[1]], "D": [[1]]}}')
    G = np.zeros((1, 1, 1))
    beta, Sigma, _, _ = _beta_batch(model, G, np.array([[1.5, rho, 1.2]]))
    assert np.isnan(beta[0, 1]) and np.isnan(Sigma[0, 1]).all()
    assert beta[0, 0] == observer_bound(model, G[0], 1.5).beta_rho
    assert beta[0, 2] == observer_bound(model, G[0], 1.2).beta_rho
    with pytest.raises(NumericalError, match="singular"):
        observer_bound(model, G[0], rho)


def test_beta_batch_returns_each_failed_solve_as_its_error(example_model):
    f, rho = 0.49857673861949003, 2.0057092971663733
    model = load_model(f'{{"A": [[{f!r}]], "B": [[1]], "C": [[1]], "D": [[1]]}}')
    G = np.zeros((2, 1, 1))
    _, _, _, errors = _beta_batch(model, G, np.array([[1.5, rho], [rho, 0.5]]))
    assert list(errors) == [(0, 1), (1, 0)]
    with pytest.raises(NumericalError) as info:
        observer_bound(model, G[0], rho)
    assert str(info.value) == str(errors[1, 0]) == (
        f"singular Lyapunov system at rho={rho}, spectral radius {f:.6f}")
    gains = np.stack(np.meshgrid(*default_gain_grid(example_model)), axis=-1).reshape(-1, 2, 1)
    rhos = np.broadcast_to(np.linspace(1.05, 3.0, 40), (len(gains), 40))
    beta, _, _, errors = _beta_batch(example_model, gains, rhos)
    assert errors == {} and np.count_nonzero(~np.isnan(beta)) > 200


def test_lyapunov_sigma_meets_contract_on_high_gain_loop():
    # A model-scan model (seed 166, n = 2) at its zero-pole gain
    # G ~ [-4177.26, 3776.48]; the symmetric-basis solve missed the
    # 1e-10 residual contract here by a residual of 4.5e-3.
    model = StateSpaceModel(
        A=np.array([[0.5749175371762055, -0.25237195172096855],
                    [-0.12624856130125428, 0.6636997900303878]]),
        B=np.array([[-1.1385086258745853, -1.1677124681831397],
                    [-1.181150072951938, 0.36322542011747416]]),
        C=np.array([[0.16772781327154904, 0.18585592478956778]]),
        D=np.eye(2),
    )
    G = place_observer_gain(model, [0.0, 0.0])
    assert np.allclose(G.ravel(), [-4177.26, 3776.48], rtol=1e-5)
    Sigma = observer_bound(model, G, 1.05).Sigma_rho
    F = model.A - G @ model.C
    residual = np.linalg.norm(
        Sigma - 1.05**2 * (F @ Sigma @ F.T) - model.B @ model.B.T - G @ G.T
    )
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(Sigma))


# ---------------------------------------------------------------------------
# admissibility


def test_check_initial_condition(example_model, example_bound):
    G, Sigma2, beta2 = example_bound
    bound = observer_bound(example_model, G, 2.0)
    ok = check_initial_condition(example_model, beta2, Sigma2, bound)
    assert ok.admissible
    too_big = check_initial_condition(example_model, beta2, 2.0 * Sigma2, bound)
    assert not too_big.admissible and not too_big.p0_below_sigma
    too_risky = check_initial_condition(example_model, 1.1 * beta2, Sigma2, bound)
    assert not too_risky.admissible and not too_risky.theta_below_beta
    # Sigma_2 = 1.005 u u^T + 3204 v v^T: P0 = u u^T + 1e-10 v v^T passes the
    # positivity gate although P0 and Sigma_2 together span a condition
    # number near 3e13, and it lies below Sigma_2
    lam, U = np.linalg.eigh(bound.Sigma_rho)
    u, v = U[:, :1], U[:, 1:]
    assert lam[1] / lam[0] > 3e3
    thin = check_initial_condition(example_model, beta2, u @ u.T + 1e-10 * v @ v.T, bound)
    assert thin.p0_positive and thin.p0_below_sigma and thin.admissible
    # one rule orders every symmetric P0, positive or not
    for P0, below in ((u @ u.T - v @ v.T, True), (-Sigma2, True), (2.0 * u @ u.T - v @ v.T, False)):
        report = check_initial_condition(example_model, beta2, P0, bound)
        assert not report.p0_positive and not report.admissible
        assert report.p0_below_sigma is below


def test_admissibility_refuses_a_singular_sigma_rho():
    # no noise reaches the second state, so Sigma_rho = diag(2.29, 0); an
    # absolute order with tolerance 1e-9 certified P0 = diag(1, 1e-10)
    m = StateSpaceModel(A=np.diag([0.5, 0.3]), B=np.array([[1.0], [0.0]]),
                        C=np.array([[1.0, 0.0]]), D=np.eye(2))
    bound = observer_bound(m, np.zeros((2, 1)), 1.5)
    with pytest.raises(ConeExitError, match="Sigma_rho must be positive definite"):
        check_initial_condition(m, 0.0, np.diag([1.0, 1e-10]), bound)


@pytest.mark.parametrize("c", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("kind", ["scale", "mix"])
def test_admissibility_does_not_depend_on_state_coordinates(example_model, example_bound,
                                                            kind, c):
    # x -> T x maps Sigma_rho to T Sigma_rho T^T and leaves beta_rho alone, so
    # the verdict on P0 = s Sigma_rho may not depend on T or its scale
    G, _, beta2 = example_bound
    mix = np.random.default_rng(3).standard_normal((2, 2))
    T = c * (np.eye(2) if kind == "scale" else mix)
    T_inv = np.linalg.inv(T)
    m = example_model
    moved = StateSpaceModel(A=T @ m.A @ T_inv, B=T @ m.B, C=m.C @ T_inv, D=m.D @ T_inv)
    bound = observer_bound(moved, T @ G, 2.0)
    assert abs(bound.beta_rho - beta2) <= 1e-9 * beta2
    Sigma = bound.Sigma_rho
    for s, admissible in ((1.0, True), (1.0 + 1e-13, True), (1.0 + 1e-8, False), (2.0, False)):
        report = check_initial_condition(moved, 0.5 * beta2, s * Sigma, bound)
        assert report.p0_below_sigma is admissible and report.admissible is admissible


def test_admissible_pairs_certify_valid_trajectories(example_model, example_bound):
    G, Sigma2, beta2 = example_bound
    bound = observer_bound(example_model, G, 2.0)
    rng = np.random.default_rng(53)
    root = np.linalg.cholesky(Sigma2)
    for _ in range(20):
        # P0 = L W L^T with 0 < W <= I lies strictly between 0 and Sigma_2
        W = random_spd(rng, 2, 0.05, 0.95)
        W /= max(1.0, np.max(np.linalg.eigvalsh(W)) / 0.95)
        P0 = root @ W @ root.T
        theta = rng.uniform(0.0, 1.0) * beta2
        assert check_initial_condition(example_model, theta, P0, bound).admissible
        steps = iterate_trajectory(example_model, theta, P0, 25)
        assert all(s.status == "ok" for s in steps)
        for s in steps:
            assert loewner_leq(s.P, Sigma2, tol=1e-9)


def test_monotone_trajectory_from_sigma(example_model, example_bound):
    _, Sigma2, beta2 = example_bound
    steps = iterate_trajectory(example_model, beta2, Sigma2, 15)
    for s1, s2 in zip(steps, steps[1:]):
        assert loewner_leq(s2.P, s1.P, tol=1e-9)
