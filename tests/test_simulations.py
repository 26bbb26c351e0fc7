import numpy as np
import pytest

from lolkit.classifiers import bayes_error_two_class
from lolkit.errors import BadRho, PTooSmall, ShapeMismatch
from lolkit.simulations import (
    RegressionSample,
    SimSpec,
    population_model,
    sample,
)


def test_spec_validation():
    with pytest.raises(ShapeMismatch):
        SimSpec("nope", 10, 10)
    with pytest.raises(ShapeMismatch):
        SimSpec("trunk", 0, 10)
    spec = SimSpec("trunk", 4, 10, params={"b": 2.0})
    assert spec.params["b"] == 2.0


@pytest.mark.parametrize("family, params, unknown", [
    ("trunk", {"a": 7.0, "rho": 0.2}, "a, rho"),
    ("trunk", {"b": 2.0, "rho": 0.3}, "rho"),
    ("robust", {"pi_outlier": 0.1}, "pi_outlier"),
    ("regression_linear", {"coef": (2.0, 1.0)}, "coef"),
    ("toeplitz_diag", {"a": 1.0}, "a"),
])
def test_spec_refuses_options_its_family_does_not_take(family, params, unknown):
    # they used to be merged into the defaults and then ignored
    with pytest.raises(ShapeMismatch, match=f"takes no option {unknown}$"):
        SimSpec(family, 5, 10, params=params)


def test_trunk_exact_parameters():
    model = population_model(SimSpec("trunk", 4, 10))
    mu0 = model.means[:, 0]
    assert np.allclose(mu0, 4.0 / np.sqrt([1.0, 3.0, 5.0, 7.0]))
    assert np.allclose(mu0, [4.0, 2.3094, 1.7889, 1.5119], atol=5e-5)
    assert np.allclose(model.means[:, 1], -mu0)
    diag = model.covariances[0]
    assert np.allclose(diag, 100.0 / np.sqrt([4.0, 3.0, 2.0, 1.0]))
    assert np.allclose(diag, [50.0, 57.735, 70.711, 100.0], atol=5e-4)


def test_stacked_cigars_parameters():
    model = population_model(SimSpec("stacked_cigars", 6, 10))
    assert np.allclose(model.means[:, 0], 0.0)
    assert np.allclose(model.means[:, 1], [0.15, 4.0, 0.15, 0.15, 0.15, 0.15])
    assert np.allclose(model.covariances[0], [1.0, 4.0, 1.0, 1.0, 1.0, 1.0])


def test_rotated_trunk_identity_rotation_reduces_to_trunk():
    p = 6
    spec_rot = SimSpec("rotated_trunk", p, 50, seed=3, params={"rotation": np.eye(p)})
    spec_plain = SimSpec("trunk", p, 50, seed=3)
    rot = sample(spec_rot)
    plain = sample(spec_plain)
    assert np.allclose(rot.dataset.data.values, plain.dataset.data.values)
    assert np.array_equal(rot.dataset.labels, plain.dataset.labels)


def test_rotated_trunk_mahalanobis_invariance():
    p = 8
    trunk = population_model(SimSpec("trunk", p, 10))
    rot = population_model(SimSpec("rotated_trunk", p, 10, seed=5))
    d0 = trunk.means[:, 0] - trunk.means[:, 1]
    q0 = d0 @ (d0 / trunk.covariances[0])
    d1 = rot.means[:, 0] - rot.means[:, 1]
    q1 = d1 @ np.linalg.solve(rot.covariances[0], d1)
    assert abs(q0 - q1) < 1e-8 * q0


def test_trunk3_has_three_classes():
    sim = sample(SimSpec("trunk3", 5, 300, seed=1))
    assert sim.dataset.num_classes == 3
    assert np.allclose(sim.model.means[:, 2], 0.0)
    assert np.allclose(sim.model.priors, 1 / 3)


def test_robust_views_and_outlier_fraction():
    n = 4000
    sim = sample(SimSpec("robust", 10, n, seed=2))
    n_out = sim.dataset.n - sim.inliers.n
    frac = n_out / n
    assert abs(frac - 0.3) < 3 * np.sqrt(0.3 * 0.7 / n)
    # inlier view is a subset of the full data
    assert sim.inliers.n < sim.dataset.n
    # means live on the first p//2 coordinates only
    assert np.allclose(sim.model.means[5:, :], 0.0)
    assert np.all(sim.model.means[:5, 0] > 0)


def test_cross_covariance_blocks():
    p = 9
    model = population_model(SimSpec("cross", p, 10))
    d0, d1 = model.covariances
    k = p // 3
    assert np.allclose(d0[:k], 1.0) and np.allclose(d0[k:], 0.25)
    assert np.allclose(d1[:k], 0.25) and np.allclose(d1[k : 2 * k], 1.0)
    assert np.allclose(d1[2 * k :], 0.25)
    assert np.allclose(model.means, 0.0)
    with pytest.raises(PTooSmall):
        sample(SimSpec("cross", 2, 10))


def test_toeplitz_frobenius_and_rho_validation():
    model = population_model(SimSpec("toeplitz_diag", 12, 10, seed=0))
    lam = model.covariances[0]
    assert lam.ndim == 1
    assert abs(np.sqrt(np.sum(lam**2)) - 50.0) < 1e-8
    dense = population_model(SimSpec("toeplitz_dense", 12, 10, seed=0))
    cov = dense.covariances[0]
    assert cov.ndim == 2
    assert abs(np.linalg.norm(np.linalg.eigvalsh(cov)) - 50.0) < 1e-6
    with pytest.raises(BadRho):
        sample(SimSpec("toeplitz_diag", 5, 10, params={"rho": 1.5}))


def test_regression_sample():
    sim = sample(SimSpec("regression_linear", 6, 80, seed=1))
    assert isinstance(sim, RegressionSample)
    assert np.allclose(sim.targets, sim.coef @ sim.data.values)
    assert np.count_nonzero(sim.coef) == 2
    with pytest.raises(BadRho):
        sample(SimSpec("regression_linear", 5, 10, params={"rho": 0.0}))


def test_determinism_bit_for_bit():
    a = sample(SimSpec("trunk", 7, 40, seed=9))
    b = sample(SimSpec("trunk", 7, 40, seed=9))
    assert np.array_equal(a.dataset.data.values, b.dataset.data.values)
    assert np.array_equal(a.dataset.labels, b.dataset.labels)
    c = sample(SimSpec("trunk", 7, 40, seed=10))
    assert not np.array_equal(a.dataset.data.values, c.dataset.data.values)


def test_empirical_means_match_population():
    n = 100_000
    sim = sample(SimSpec("trunk", 4, n, seed=4))
    x = sim.dataset.data.values
    y = sim.dataset.labels
    diag = sim.model.covariances[0]
    for c in (0, 1):
        emp = x[:, y == c].mean(axis=1)
        nc = int(np.sum(y == c))
        se = np.sqrt(diag / nc)
        assert np.all(np.abs(emp - sim.model.means[:, c]) < 3.5 * se)


def _bayes_error(spec):
    return bayes_error_two_class(population_model(spec))


def test_bayes_error_trunk_and_rotation_invariance():
    be_trunk = _bayes_error(SimSpec("trunk", 20, 10, seed=0))
    be_rot = _bayes_error(SimSpec("rotated_trunk", 20, 10, seed=0))
    assert abs(be_trunk - be_rot) < 1e-10


def test_bayes_error_degenerate_delta():
    spec = SimSpec("trunk", 5, 10, params={"b": 0.0})
    assert _bayes_error(spec) == 0.5


def test_bayes_error_regression_rejected():
    with pytest.raises(ShapeMismatch, match="no Gaussian class model"):
        _bayes_error(SimSpec("regression_linear", 5, 10))
