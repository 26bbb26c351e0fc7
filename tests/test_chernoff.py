import numpy as np
import pytest

from lolkit.chernoff import (
    lol_vs_lda_gap,
    lol_vs_pca_gap,
    pooled_top_eigvecs,
    projected_chernoff_quadform,
)
from lolkit.classifiers import bayes_error_two_class
from lolkit.errors import (
    LolkitError,
    NonFiniteData,
    ShapeMismatch,
    SingularProjectedCov,
    TooFewDims,
)
from lolkit.model import GaussianModel


def random_instance(rng, p):
    g = rng.standard_normal((p, p))
    sigma = g @ g.T / p + 0.1 * np.eye(p)
    delta = rng.standard_normal(p)
    return delta, sigma


def _nan_covariance():
    return np.array([[1.0, np.nan], [np.nan, 2.0]])


def test_a_nan_covariance_is_non_finite_data():
    for sigma in (_nan_covariance(), np.diag([np.inf, 1.0])):
        with pytest.raises(NonFiniteData):
            projected_chernoff_quadform(np.eye(2), np.ones(2), sigma)
    for gap in (lol_vs_lda_gap, lol_vs_pca_gap):
        with pytest.raises(NonFiniteData):
            gap(np.ones(2), _nan_covariance(), 1)


@pytest.mark.parametrize("gap", [lol_vs_lda_gap, lol_vs_pca_gap])
@pytest.mark.parametrize("d", [0, 4])
@pytest.mark.parametrize("delta", [np.ones(3), np.zeros(3)], ids=["delta", "zero-delta"])
def test_a_gap_width_outside_1_to_p_is_too_few_dims(gap, d, delta):
    with pytest.raises(TooFewDims, match=f"d={d} outside 1..p=3"):
        gap(delta, np.eye(3), d)


def test_a_delta_and_sigma_of_different_sizes_are_a_shape_mismatch():
    for gap in (lol_vs_lda_gap, lol_vs_pca_gap):
        with pytest.raises(ShapeMismatch):
            gap(np.ones(3), np.eye(2), 1)
    with pytest.raises(ShapeMismatch):
        projected_chernoff_quadform(np.ones((3, 1)), np.ones(3), np.eye(2))
    with pytest.raises(ShapeMismatch):
        projected_chernoff_quadform(np.ones((2, 1)), np.ones(3), np.eye(3))


def test_zero_projection_stays_singular():
    # the retry ridge is relative to the trace: a zero A'ΣA gets no floor
    rng = np.random.default_rng(5)
    delta, sigma = random_instance(rng, 5)
    with pytest.raises(SingularProjectedCov):
        projected_chernoff_quadform(np.zeros((5, 2)), delta, sigma)


def test_quadform_identity_projection():
    rng = np.random.default_rng(2)
    delta, sigma = random_instance(rng, 5)
    full = projected_chernoff_quadform(np.eye(5), delta, sigma)
    assert abs(full - delta @ np.linalg.solve(sigma, delta)) < 1e-10
    assert projected_chernoff_quadform(None, delta, sigma) == full


def test_quadform_of_a_diagonal_covariance_is_the_sum_of_ratios():
    delta, diag = np.array([1.0, -2.0, 0.5]), np.array([1.0, 4.0, 2.0])
    assert projected_chernoff_quadform(None, delta, diag) == np.sum(delta * delta / diag)
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert projected_chernoff_quadform(a, delta, diag) == projected_chernoff_quadform(
        a, delta, np.diag(diag))
    with pytest.raises(SingularProjectedCov, match="nonpositive"):
        projected_chernoff_quadform(None, delta, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ShapeMismatch):
        projected_chernoff_quadform(None, delta, np.ones(2))


def test_a_projection_that_overflows_is_non_finite_data_without_a_warning():
    # A' Sigma A overflows, then A' delta does
    with pytest.raises(NonFiniteData, match="covariance"):
        projected_chernoff_quadform(np.array([[1e10], [0.0]]), np.array([1.0, 0.0]),
                                    np.diag([1e300, 1.0]))
    with pytest.raises(NonFiniteData, match="mean difference"):
        projected_chernoff_quadform(np.array([[1e200], [0.0]]), np.array([1e200, 0.0]),
                                    np.array([1e-300, 1.0]))


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
