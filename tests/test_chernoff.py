import numpy as np
import pytest

from lolkit.chernoff import (
    chernoff_divergence_t,
    chernoff_gaussian,
    lol_vs_lda_gap,
    lol_vs_pca_gap,
    min_pairwise_chernoff,
    pooled_top_eigvecs,
    projected_chernoff_quadform,
)
from lolkit.classifiers import bayes_error_two_class
from lolkit.errors import (
    LolkitError,
    NonFiniteData,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularProjectedCov,
)
from lolkit.model import GaussianModel


def random_instance(rng, p):
    g = rng.standard_normal((p, p))
    sigma = g @ g.T / p + 0.1 * np.eye(p)
    delta = rng.standard_normal(p)
    return delta, sigma


def test_divergence_basic_properties():
    f0 = (np.zeros(2), np.eye(2))
    f1 = (np.array([1.0, 0.0]), 2 * np.eye(2))
    a = chernoff_divergence_t(f0, f1, 0.5)
    b = chernoff_divergence_t(f1, f0, 0.5)
    assert abs(a - b) < 1e-12
    assert chernoff_divergence_t(f0, f1, 1e-6) < 1e-4
    assert chernoff_divergence_t(f0, f1, 1.0 - 1e-6) < 1e-4


def test_divergence_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        chernoff_divergence_t((np.zeros(2), -np.eye(2)), (np.zeros(2), np.eye(2)), 0.5)


def test_divergence_rejects_an_indefinite_mix():
    # Sigma0 and Sigma1 are positive definite, but 2 I - 3 I is not
    with pytest.raises(NotPositiveDefinite, match="t=2.0"):
        chernoff_divergence_t((np.zeros(2), np.eye(2)), (np.zeros(2), 3 * np.eye(2)), 2.0)


def test_divergence_rejects_a_covariance_that_does_not_fit_the_means():
    with pytest.raises(ShapeMismatch, match="Sigma0"):
        chernoff_divergence_t((np.zeros(2), np.ones(2)), (np.zeros(2), np.eye(2)), 0.5)
    with pytest.raises(ShapeMismatch, match="Sigma1"):
        chernoff_divergence_t((np.zeros(2), np.eye(2)), (np.zeros(2), np.eye(3)), 0.5)


# NaN, not inf: an infinite entry makes numpy warn inside the projection's matmul
def _nan_covariance():
    return np.array([[1.0, np.nan], [np.nan, 2.0]])


def test_a_nan_covariance_is_non_finite_data():
    f0 = (np.zeros(2), _nan_covariance())
    f1 = (np.ones(2), np.eye(2))
    with pytest.raises(NonFiniteData):
        chernoff_divergence_t(f0, f1, 0.5)
    with pytest.raises(NonFiniteData):
        chernoff_divergence_t(f1, f0, 0.5)
    with pytest.raises(NonFiniteData):
        chernoff_gaussian(f0, f1)
    with pytest.raises(NonFiniteData):
        projected_chernoff_quadform(np.eye(2), np.ones(2), _nan_covariance())


def test_zero_projection_stays_singular():
    # the retry ridge is relative to the trace: a zero A'ΣA gets no floor
    rng = np.random.default_rng(5)
    delta, sigma = random_instance(rng, 5)
    with pytest.raises(SingularProjectedCov):
        projected_chernoff_quadform(np.zeros((5, 2)), delta, sigma)


def test_chernoff_equal_covariance_closed_form():
    # equal covariances: t* = 1/2 and value = delta' Sigma^-1 delta / 8
    rng = np.random.default_rng(0)
    delta, sigma = random_instance(rng, 4)
    f0 = (np.zeros(4), sigma)
    f1 = (delta, sigma)
    rep = chernoff_gaussian(f0, f1)
    expected = delta @ np.linalg.solve(sigma, delta) / 8.0
    assert abs(rep.value - expected) < 1e-9
    assert abs(rep.t_star - 0.5) < 1e-4
    assert rep.convention == "scaled"


def test_chernoff_symmetric_and_grid_consistent():
    rng = np.random.default_rng(1)
    for _ in range(5):
        p = int(rng.integers(2, 5))
        d0, s0 = random_instance(rng, p)
        d1, s1 = random_instance(rng, p)
        f0 = (d0, s0)
        f1 = (d1, s1)
        a = chernoff_gaussian(f0, f1)
        b = chernoff_gaussian(f1, f0)
        assert abs(a.value - b.value) < 1e-10
        grid = max(chernoff_divergence_t(f0, f1, t) for t in np.linspace(0.01, 0.99, 99))
        assert a.value >= grid - 1e-9


def test_quadform_identity_projection():
    rng = np.random.default_rng(2)
    delta, sigma = random_instance(rng, 5)
    full = projected_chernoff_quadform(np.eye(5), delta, sigma)
    assert abs(full - delta @ np.linalg.solve(sigma, delta)) < 1e-10


def test_pca_blind_spot_exact_case():
    # Sigma = diag(4,2,1), delta = e3, d = 2: the top-2 pooled eigenvectors
    # miss delta entirely (PCA quadform 0) while the mean-augmented map
    # scores s^2 / lambda_p = 1
    sigma = np.diag([4.0, 2.0, 1.0])
    delta = np.array([0.0, 0.0, 1.0])
    pca_map = pooled_top_eigvecs(delta, sigma, 2)
    assert abs(projected_chernoff_quadform(pca_map, delta, sigma)) < 1e-10
    lam, u = np.linalg.eigh(sigma)
    a = np.column_stack([delta, u[:, ::-1][:, :1]])
    assert abs(projected_chernoff_quadform(a, delta, sigma) - 1.0) < 1e-10
    assert abs(lol_vs_pca_gap(delta, sigma, 2) - 1.0) < 1e-10
    assert abs(lol_vs_lda_gap(delta, sigma, 2) - 1.0) < 1e-10


def test_gap_zero_when_delta_is_top_eigenvector():
    sigma = np.diag([5.0, 2.0, 1.0])
    delta = np.array([2.0, 0.0, 0.0])
    assert abs(lol_vs_lda_gap(delta, sigma, 1)) < 1e-12


def test_gap_zero_delta_pca():
    sigma = np.diag([3.0, 1.0])
    gap = lol_vs_pca_gap(np.zeros(2), sigma, 1)
    assert abs(gap) < 1e-12


def test_pca_gap_small_when_delta_dominates():
    # delta along the top eigenvector with large variance: pooled PCA picks
    # nearly the same direction, so the gap is tiny but still nonnegative
    sigma = np.diag([50.0, 1.0, 1.0])
    delta = np.array([3.0, 0.2, 0.0])
    gap = lol_vs_pca_gap(delta, sigma, 1)
    a = np.column_stack([delta])
    direct = projected_chernoff_quadform(a, delta, sigma) - projected_chernoff_quadform(
        pooled_top_eigvecs(delta, sigma, 1), delta, sigma)
    assert gap >= -1e-10
    assert abs(gap - direct) < 1e-8
    assert gap < 0.05


def test_property_sweep_gaps_nonnegative_and_match_quadforms():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        p = int(rng.integers(2, 13))
        delta, sigma = random_instance(rng, p)
        lam, u = np.linalg.eigh(sigma)
        u = u[:, ::-1]
        for d in range(1, p + 1):
            try:
                gap = lol_vs_lda_gap(delta, sigma, d)
            except LolkitError:
                continue
            a = np.column_stack([delta, u[:, : d - 1]])
            q_lol = projected_chernoff_quadform(a, delta, sigma)
            direct = q_lol - projected_chernoff_quadform(u[:, :d], delta, sigma)
            assert gap >= -1e-10
            assert abs(gap - direct) <= 1e-8 * max(1.0, q_lol)
            # strict positivity when delta escapes the top-d eigenspace
            resid = delta - u[:, :d] @ (u[:, :d].T @ delta)
            if delta @ resid > 1e-6 * (delta @ delta):
                assert gap > 0
            try:
                gp = lol_vs_pca_gap(delta, sigma, d)
            except LolkitError:
                continue
            direct_p = q_lol - projected_chernoff_quadform(
                pooled_top_eigvecs(delta, sigma, d), delta, sigma)
            assert gp >= -1e-10
            assert abs(gp - direct_p) <= 1e-8 * max(1.0, q_lol)
            checked += 1
    assert checked > 100


def test_quadform_monotone_in_bayes_error():
    # equal covariances: a larger quadform means a smaller Bayes error on
    # the same model
    rng = np.random.default_rng(4)
    delta, sigma = random_instance(rng, 6)
    means = np.column_stack([delta / 2, -delta / 2])
    model = GaussianModel(np.array([0.5, 0.5]), means, (sigma,))
    pairs = []
    for d in (1, 2, 4, 6):
        lam, u = np.linalg.eigh(sigma)
        a = u[:, ::-1][:, :d]
        pairs.append((projected_chernoff_quadform(a, delta, sigma),
                      bayes_error_two_class(model, a)))
    for (q1, e1) in pairs:
        for (q2, e2) in pairs:
            if q1 > q2 + 1e-9:
                assert e1 < e2 + 1e-12


def test_min_pairwise_chernoff():
    means = np.array([[0.0, 3.0, 100.0]])
    model = GaussianModel(np.full(3, 1 / 3), means, (np.eye(1),))
    rep = min_pairwise_chernoff(model)
    # nearest pair is (0, 3): value = 9/8 for unit variance
    assert abs(rep.value - 9.0 / 8.0) < 1e-6
