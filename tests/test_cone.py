import numpy as np
import pytest
from helpers import (
    loewner_leq,
    random_nnd,
    random_spd,
    spd_inv,
    spd_log,
    translation_coefficient,
)

from rsriccati import (
    ConeExitError,
    DomainError,
    NumericalError,
    UsageError,
    contraction_bound,
    fixed_point,
    is_spd,
    iterate_trajectory,
    load_model,
    riemann_distance,
    rs_gain,
    simulate,
    spd_sqrt,
    spectral,
    symmetrize,
    thompson_distance,
)
from rsriccati.cone import _require_spd_stack, _sym, require_spd
from conftest import EXAMPLE_JSON


def test_symmetrize_folds_roundoff():
    X = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
    S = symmetrize(X)
    assert np.array_equal(S, S.T)


def test_symmetrize_rejects_asymmetric():
    with pytest.raises(UsageError):
        symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e-200, 1.0])
def test_symmetrize_rejects_asymmetry_at_any_finite_scale(scale):
    # unscaled, the Frobenius norm overflows at 1e200 and underflows to 0 at 1e-200
    with pytest.raises(UsageError, match="relative asymmetry 8.165e-01"):
        symmetrize(scale * np.array([[1.0, 0.0], [1.0, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_symmetrize_does_not_overflow_at_the_top_of_the_double_range():
    X = np.diag([1e308, 1e308])
    assert np.array_equal(symmetrize(X), X)
    assert np.array_equal(spectral(X).eigenvalues, [1e308, 1e308])
    assert is_spd(X)


def test_symmetrize_keeps_the_bits_of_the_sum_form():
    # X/2 + X^T/2 rounds as (X + X^T)/2 does wherever no half is subnormal
    rng = np.random.default_rng(23)
    for exponent in range(-150, 151, 10):
        for n in (1, 2, 3, 5, 8):
            M = rng.standard_normal((n, n))
            X = (M + M.T + 1e-13 * rng.standard_normal((n, n))) * 10.0**exponent
            assert np.array_equal(symmetrize(X), _sym(X))


def test_symmetrize_rejects_nonsquare():
    with pytest.raises(UsageError):
        symmetrize(np.zeros((2, 3)))


def test_spectral_identity():
    dec = spectral(np.eye(2))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])


def test_spectral_sorted_decreasing():
    dec = spectral(np.diag([1.0, 4.0]))
    assert np.allclose(dec.eigenvalues, [4.0, 1.0])


def test_spectral_reconstruction():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 5))
    P = 0.5 * (X + X.T)
    dec = spectral(P)
    assert np.linalg.norm(dec.reconstruct() - P) < 1e-10 * np.linalg.norm(P)
    assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5)) < 1e-10
    assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_spd_sqrt_identity_and_diagonal():
    assert np.allclose(spd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(spd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_spd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    P = random_spd(rng, 4, 0.1, 10.0)
    R = spd_sqrt(P)
    assert np.linalg.norm(R @ R - P) < 1e-10 * np.linalg.norm(P)


def test_spd_sqrt_rejects_indefinite():
    with pytest.raises(DomainError, match="eigenvalue"):
        spd_sqrt(np.diag([1.0, -1.0]))


def test_spd_sqrt_rejects_nan():
    with pytest.raises(DomainError, match="eigenvalue"):
        spd_sqrt(np.full((2, 2), np.nan))


def _verdict(entry, M):
    """What entry(M) returns, or the type and message of the domain error it raises."""
    try:
        return entry(M)
    except DomainError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", [
    is_spd,
    lambda M: tuple(spectral(M)),
    lambda M: riemann_distance(M, np.eye(2)),
    lambda M: riemann_distance(np.eye(2), M),
    lambda M: fixed_point(load_model(EXAMPLE_JSON), 0.0, M),
    lambda M: [step.status for step in iterate_trajectory(load_model(EXAMPLE_JSON), 0.0, M, 3)],
    lambda M: rs_gain(load_model(EXAMPLE_JSON), 0.0, M),
    lambda M: simulate(load_model(EXAMPLE_JSON), 3, 0, P0=M),
], ids=["is_spd", "spectral", "riemann_distance_P", "riemann_distance_Q", "fixed_point",
        "iterate_trajectory", "rs_gain", "simulate"])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off_diagonal"])
def test_an_infinite_entry_is_rejected_as_nan_is(entry, value, where):
    # no RuntimeWarning (tier-1 makes one an error) and the verdict NaN gets there
    M, N = np.eye(2), np.eye(2)
    M[where], N[where] = value, np.nan
    np.testing.assert_equal(_verdict(entry, M), _verdict(entry, N))
    assert _verdict(is_spd, M) is False


def test_distances_are_scale_free():
    # the gate is relative to the spectrum, so tiny and huge matrices pass
    for c in (1e-12, 1.0, 1e12):
        P = c * np.diag([2.0, 0.5])
        assert abs(riemann_distance(P, c * np.eye(2)) - np.sqrt(2.0) * np.log(2.0)) < 1e-12
        assert riemann_distance(P, P) < 1e-12


def test_spd_log_identity_and_diagonal():
    assert np.allclose(spd_log(np.eye(2)), np.zeros((2, 2)))
    assert np.allclose(spd_log(np.diag([np.e, np.e**2])), np.diag([1.0, 2.0]))


def test_spd_log_spectrum():
    rng = np.random.default_rng(13)
    P = random_spd(rng, 4, 0.2, 5.0)
    lam_log = np.sort(np.linalg.eigvalsh(spd_log(P)))
    lam_P = np.sort(np.linalg.eigvalsh(P))
    assert np.allclose(lam_log, np.log(lam_P), atol=1e-10)
    # exp recovers the original matrix
    dec = spectral(spd_log(P))
    expm = (dec.eigenvectors * np.exp(dec.eigenvalues)) @ dec.eigenvectors.T
    assert np.linalg.norm(expm - P) < 1e-9 * np.linalg.norm(P)


def test_riemann_distance_basics():
    assert riemann_distance(np.eye(2), np.eye(2)) == 0.0
    expected = np.sqrt(2.0) * np.log(2.0)
    assert abs(riemann_distance(np.diag([2.0, 0.5]), np.eye(2)) - expected) < 1e-12


def test_riemann_distance_two_formula_crosscheck():
    # oracle: eigenvalues of P^-1 Q from the (non-symmetric) direct product
    rng = np.random.default_rng(17)
    for _ in range(20):
        P = random_spd(rng, 3, 0.2, 5.0)
        Q = random_spd(rng, 3, 0.2, 5.0)
        s = np.linalg.eigvals(np.linalg.solve(P, Q)).real
        oracle = np.sqrt(np.sum(np.log(s) ** 2))
        assert abs(riemann_distance(P, Q) - oracle) < 1e-9


def test_riemann_distance_errors():
    with pytest.raises(UsageError):
        riemann_distance(np.eye(2), np.eye(3))
    with pytest.raises(DomainError):
        riemann_distance(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(DomainError):
        riemann_distance(np.eye(2), np.diag([1.0, 0.0]))


def test_thompson_distance_basics():
    assert thompson_distance(np.eye(2), np.eye(2)) == 0.0
    assert abs(thompson_distance(np.diag([2.0, 0.5]), np.eye(2)) - np.log(2.0)) < 1e-12


def test_thompson_dominated_by_riemann():
    rng = np.random.default_rng(19)
    for _ in range(30):
        P = random_spd(rng, 3, 0.1, 8.0)
        Q = random_spd(rng, 3, 0.1, 8.0)
        assert thompson_distance(P, Q) <= riemann_distance(P, Q) + 1e-12


def test_translation_coefficient_trivial():
    P = np.eye(2)
    assert translation_coefficient(P, P, np.zeros((2, 2))) == 1.0
    assert abs(translation_coefficient(P, P, np.eye(2)) - 0.5) < 1e-15


def test_translation_coefficient_rejects_indefinite_shift():
    with pytest.raises(DomainError):
        translation_coefficient(np.eye(2), np.eye(2), np.diag([1.0, -1.0]))


def test_translation_nonexpansive():
    rng = np.random.default_rng(23)
    for _ in range(25):
        P = random_spd(rng, 3, 0.2, 4.0)
        Q = random_spd(rng, 3, 0.2, 4.0)
        S = random_nnd(rng, 3)
        coeff = translation_coefficient(P, Q, S)
        assert riemann_distance(P + S, Q + S) <= coeff * riemann_distance(P, Q) + 1e-9


def test_contraction_bound_trivial():
    assert abs(contraction_bound(np.eye(2), np.eye(2), np.eye(2)) - 0.5) < 1e-15
    assert contraction_bound(np.zeros((2, 2)), np.eye(2), np.eye(2)) == 0.0


def test_contraction_bound_folds_the_roundoff_of_its_own_product():
    # M Omega^-1 M^T is symmetric by construction; at cond(Omega) = 8e11 its
    # roundoff asymmetry exceeds the 1e-8 input check, which must not fire
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    Omega = (Q * np.logspace(0, -11.9, 8)) @ Q.T
    M = rng.standard_normal((8, 8)) @ Q[:, :1] @ Q[:, :1].T
    assert 0.0 <= contraction_bound(M, Omega, np.eye(8)) < 1.0


def test_contraction_bound_rejects_indefinite():
    with pytest.raises(DomainError):
        contraction_bound(np.eye(2), np.diag([1.0, -1.0]), np.eye(2))


def test_contraction_bound_dominates_sampled_ratios():
    rng = np.random.default_rng(29)
    for _ in range(10):
        M = rng.standard_normal((3, 3))
        Omega = random_spd(rng, 3, 0.3, 3.0)
        W = random_spd(rng, 3, 0.3, 3.0)
        bound = contraction_bound(M, Omega, W)

        def f(P):
            return M @ np.linalg.inv(np.linalg.inv(P) + Omega) @ M.T + W

        for _ in range(10):
            P = random_spd(rng, 3, 0.1, 10.0)
            Q = random_spd(rng, 3, 0.1, 10.0)
            assert riemann_distance(f(P), f(Q)) <= bound * riemann_distance(P, Q) + 1e-9


def test_composition_submultiplicative():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((3, 3))
    Omega = random_spd(rng, 3, 0.3, 3.0)
    W = random_spd(rng, 3, 0.3, 3.0)
    bound = contraction_bound(M, Omega, W)

    def f(P):
        return M @ np.linalg.inv(np.linalg.inv(P) + Omega) @ M.T + W

    for _ in range(25):
        P = random_spd(rng, 3, 0.1, 10.0)
        Q = random_spd(rng, 3, 0.1, 10.0)
        lhs = riemann_distance(f(f(P)), f(f(Q)))
        assert lhs <= bound**2 * riemann_distance(P, Q) + 1e-9


def test_metric_invariances():
    rng = np.random.default_rng(37)
    for _ in range(25):
        P = random_spd(rng, 3, 0.2, 5.0)
        Q = random_spd(rng, 3, 0.2, 5.0)
        M = rng.standard_normal((3, 3))
        while abs(np.linalg.det(M)) < 1e-3:
            M = rng.standard_normal((3, 3))
        d = riemann_distance(P, Q)
        assert abs(d - riemann_distance(np.linalg.inv(P), np.linalg.inv(Q))) < 1e-8
        assert abs(d - riemann_distance(M @ P @ M.T, M @ Q @ M.T)) < 1e-8


def test_metric_axioms():
    rng = np.random.default_rng(41)
    for _ in range(20):
        P = random_spd(rng, 3, 0.2, 5.0)
        Q = random_spd(rng, 3, 0.2, 5.0)
        R = random_spd(rng, 3, 0.2, 5.0)
        assert abs(riemann_distance(P, Q) - riemann_distance(Q, P)) < 1e-10
        assert riemann_distance(P, Q) <= (
            riemann_distance(P, R) + riemann_distance(R, Q) + 1e-10
        )
    assert riemann_distance(np.eye(3), np.eye(3)) == 0.0


def test_is_spd_and_loewner():
    assert is_spd(np.eye(2))
    assert not is_spd(np.diag([1.0, 0.0]))
    assert loewner_leq(np.eye(2), 2.0 * np.eye(2))
    assert not loewner_leq(np.diag([1.0, 3.0]), np.diag([2.0, 2.0]))
    with pytest.raises(UsageError):
        loewner_leq(np.eye(2), np.eye(3))


def test_spd_inv_matches_inverse():
    rng = np.random.default_rng(43)
    P = random_spd(rng, 4, 0.2, 5.0)
    assert np.linalg.norm(spd_inv(P) @ P - np.eye(4)) < 1e-10


def test_stacked_gate_fails_only_the_nan_entry():
    stack = np.stack([np.eye(2), np.full((2, 2), np.nan), np.diag([3.0, 2.0])])
    lam, U, errors = _require_spd_stack(stack, "stacked gate")
    assert list(errors) == [1]
    with pytest.raises(ConeExitError) as want:
        require_spd(stack[1], "stacked gate")
    assert str(errors[1]) == str(want.value)
    for i in (0, 2):
        dec = spectral(stack[i])
        assert np.array_equal(lam[i], dec.eigenvalues)
        assert np.array_equal(U[i], dec.eigenvectors)


def test_stacked_gate_uses_the_relative_rule():
    stack = np.stack([np.diag([1.0, 2e-12]), np.diag([1.0, 5e-13]), np.diag([1e-30, 5e-42])])
    _, _, errors = _require_spd_stack(stack, "stacked gate")
    assert list(errors) == [1]
    assert errors[1].lambda_min == 5e-13


def test_stacked_gate_fails_only_the_entry_whose_eigensolve_fails(monkeypatch):
    eigh = np.linalg.eigh

    def eigh_failing_on_sevens(X):
        if np.any(X == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(X)

    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on_sevens)
    stack = np.stack([np.eye(2), 7.0 * np.eye(2), np.diag([3.0, 2.0])])
    lam, U, errors = _require_spd_stack(stack, "stacked gate")
    assert list(errors) == [1] and isinstance(errors[1], NumericalError)
    assert np.isnan(lam[1]).all()
    assert np.array_equal(lam[[0, 2]], [[1.0, 1.0], [3.0, 2.0]])
