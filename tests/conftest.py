import pytest

from rsriccati import load_model, observer_bound, place_observer_gain

# The two-state worked example: unstable A, weakly observable single
# output, B = D = I.
EXAMPLE_JSON = '{"A": [[0.1,1],[0,1.2]], "B": [[1,0],[0,1]], "C": [[1,-1]]}'


@pytest.fixture(scope="session")
def example_model():
    return load_model(EXAMPLE_JSON)


@pytest.fixture(scope="session")
def example_bound(example_model):
    """Zero-pole observer gain, its Lyapunov bound at rho=2, and beta_2."""
    G = place_observer_gain(example_model, [0.0, 0.0])
    bound = observer_bound(example_model, G, 2.0)
    return G, bound.Sigma_rho, bound.beta_rho
