import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from lolkit.classifiers import (
    bayes_error_two_class,
    class_moments,
    fit_lda,
    fit_qda,
    misclassification_rate,
    predict_lda,
    predict_qda,
)
from lolkit.errors import (
    NonFiniteData,
    ShapeMismatch,
    SingularProjectedCov,
    UnderdeterminedClassifier,
)
from lolkit.linalg import _cholesky, _solve, random_rotation
from lolkit.model import DataMatrix, GaussianModel


def test_lda_1d_threshold_at_zero():
    x = DataMatrix(np.array([[-1.0, -1.2, -0.8, 1.0, 1.2, 0.8]]))
    y = np.array([0, 0, 0, 1, 1, 1])
    clf = fit_lda(class_moments(x, y))
    eps = 1e-6
    assert predict_lda(clf, DataMatrix(np.array([[-eps]])))[0] == 0
    assert predict_lda(clf, DataMatrix(np.array([[eps]])))[0] == 1


def test_lda_nearest_mean_under_isotropy():
    rng = np.random.default_rng(0)
    n = 200
    y = np.array([0, 1] * (n // 2))
    means = np.array([[0.0, 3.0], [0.0, 0.0]])
    x = means[:, y] + rng.standard_normal((2, n))
    clf = fit_lda(class_moments(DataMatrix(x), y))
    test = np.array([[0.2, 2.8], [0.5, -0.5]])
    pred = predict_lda(clf, DataMatrix(test))
    m0 = clf.means[:, 0]
    m1 = clf.means[:, 1]
    # approximately nearest-mean (equal priors, near-isotropic fit)
    for j in range(2):
        want = 0 if np.linalg.norm(test[:, j] - m0) < np.linalg.norm(test[:, j] - m1) else 1
        assert pred[j] == want


def test_lda_matches_hand_computed_discriminant():
    x = np.array([[0.0, 1.0, 2.0, 4.0, 5.0, 6.0],
                  [1.0, 0.0, -1.0, 1.0, 0.0, -1.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    clf = fit_lda(class_moments(DataMatrix(x), y))
    n = 6
    means = np.column_stack([x[:, :3].mean(axis=1), x[:, 3:].mean(axis=1)])
    centered = x - means[:, y]
    cov = centered @ centered.T / n
    cov = cov + 1e-8 * np.trace(cov) / 2 * np.eye(2)
    test = np.array([[1.5, 4.5, 3.0], [0.0, 0.0, 0.0]])
    inv = np.linalg.inv(cov)
    scores = np.empty((2, 3))
    for c in range(2):
        diff = test - means[:, c : c + 1]
        scores[c] = -0.5 * np.einsum("ij,ij->j", diff, inv @ diff) + np.log(0.5)
    assert np.array_equal(predict_lda(clf, DataMatrix(test)), np.argmax(scores, axis=0))


def test_lda_underdetermined_error():
    with pytest.raises(UnderdeterminedClassifier):
        fit_lda(class_moments(DataMatrix(np.zeros((5, 3))), np.array([0, 1, 1])))


def test_qda_agrees_with_density_oracle():
    rng = np.random.default_rng(1)
    n = 60
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((3, n))
    x[:, y == 1] *= 2.5
    clf = fit_qda(class_moments(DataMatrix(x), y))
    test = rng.standard_normal((3, 25)) * 1.5
    pred = predict_qda(clf, DataMatrix(test))
    scores = np.empty((2, 25))
    for c in range(2):
        cov = clf.covariances[c]
        diff = test - clf.means[:, c : c + 1]
        inv = np.linalg.inv(cov)
        logdet = np.linalg.slogdet(cov)[1]
        scores[c] = -0.5 * (np.einsum("ij,ij->j", diff, inv @ diff) + logdet) \
            + np.log(clf.priors[c])
    assert np.array_equal(pred, np.argmax(scores, axis=0))


def test_predict_ties_and_priors():
    # symmetric midpoint with unequal priors goes to the higher-prior class
    x = DataMatrix(np.array([[-1.0, -1.0, -1.0, 1.0]]))
    y = np.array([0, 0, 0, 1])
    clf = fit_lda(class_moments(x, y))
    assert predict_lda(clf, DataMatrix(np.array([[0.0]])))[0] == 0
    # exact ties resolve to the lowest class index
    x = DataMatrix(np.array([[-1.0, 1.0]]))
    clf = fit_lda(class_moments(x, np.array([0, 1])))
    assert predict_lda(clf, DataMatrix(np.array([[0.0]])))[0] == 0


def test_predict_shape_mismatch():
    clf = fit_lda(class_moments(DataMatrix(np.array([[-1.0, 1.0]])), np.array([0, 1])))
    with pytest.raises(ShapeMismatch):
        predict_lda(clf, DataMatrix(np.zeros((2, 3))))


def test_misclassification_rate():
    assert misclassification_rate([0, 1, 1], [0, 1, 1]) == 0.0
    assert misclassification_rate([0, 1], [1, 0]) == 1.0
    assert misclassification_rate([0] * 7 + [1] * 3, [0] * 10) == 0.3
    with pytest.raises(ShapeMismatch):
        misclassification_rate([0], [0, 1])


def _model(delta, cov, shared=True):
    delta = np.asarray(delta, dtype=float)
    means = np.column_stack([delta / 2, -delta / 2])
    return GaussianModel(np.array([0.5, 0.5]), means, (cov,), shared=shared)


def test_bayes_error_closed_form_values():
    m = _model([2.0, 0.0], np.eye(2))
    assert abs(bayes_error_two_class(m) - norm.cdf(-1.0)) < 1e-12
    m = _model([0.0, 0.0], np.eye(2))
    assert abs(bayes_error_two_class(m) - 0.5) < 1e-12


def test_bayes_error_closed_form_is_bit_equal_to_norm_cdf():
    diag = np.array([1.0, 4.0, 0.5])
    for scale in np.concatenate([[0.0], np.logspace(-8, 2, 101)]):
        delta = scale * np.array([1.0, -2.0, 0.25])
        quad = float(np.sum(delta * delta / diag))
        expected = float(norm.cdf(-0.5 * np.sqrt(quad)))
        assert bayes_error_two_class(_model(delta, diag)) == expected, scale


def test_bayes_error_diagonal_and_projection_paths_agree():
    delta = np.array([1.0, 2.0, 0.5])
    diag = np.array([1.0, 4.0, 2.0])
    md = _model(delta, diag)
    dd = _model(delta, np.diag(diag))
    assert abs(bayes_error_two_class(md) - bayes_error_two_class(dd)) < 1e-12
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert abs(bayes_error_two_class(md, a) - bayes_error_two_class(dd, a)) < 1e-12


def test_cholesky_refuses_a_non_finite_covariance():
    # dpotrf alone factors both without complaint
    for cov in ([[np.inf]], [[np.inf, 1.0], [1.0, 2.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        with pytest.raises(NonFiniteData):
            _cholesky(np.array(cov))
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_and_solve_are_cho_factor_and_cho_solve_bit_for_bit():
    rng = np.random.default_rng(4)
    for d in (1, 2, 7, 30):
        g = rng.standard_normal((d, 3 * d))
        cov = g @ g.T / (3 * d)
        b = rng.standard_normal((d, 11))
        chol = _cholesky(cov)
        want = cho_factor(cov, lower=True)
        assert np.array_equal(chol, want[0])
        assert np.array_equal(_solve(chol, b), cho_solve(want, b))
        assert np.array_equal(_solve(chol, b[:, 0]), cho_solve(want, b[:, 0]))


def test_bayes_error_of_an_overflowing_projected_covariance_is_a_lolkit_error():
    m = _model([1.0, 0.0], np.diag([1e300, 1.0]))
    with pytest.raises(NonFiniteData):
        bayes_error_two_class(m, np.array([[1e10], [0.0]]))


def test_bayes_error_ridges_a_singular_covariance_but_not_a_zero_projection():
    # delta lies in the range of the singular Sigma, so q is 2 / (2 + ridge)
    m = _model([1.0, 1.0], np.ones((2, 2)))
    assert bayes_error_two_class(m) == bayes_error_two_class(m, np.eye(2))
    assert abs(bayes_error_two_class(m) - norm.cdf(-0.5)) < 1e-8
    with pytest.raises(SingularProjectedCov):
        bayes_error_two_class(m, np.zeros((2, 1)))


# every value below squares to inf, so each covariance overflows
@pytest.mark.parametrize("fit", [fit_lda, fit_qda])
def test_a_covariance_that_overflows_is_non_finite_data_without_a_warning(fit):
    moments = class_moments(DataMatrix([[1e200, -1e200, 2e200, 0.0]]), [0, 0, 1, 1])
    with pytest.raises(NonFiniteData):
        fit(moments)


@pytest.mark.parametrize("fit, predict", [(fit_lda, predict_lda), (fit_qda, predict_qda)])
def test_a_point_whose_distance_to_every_class_overflows_is_non_finite_data(fit, predict):
    # argmax of all -inf scores would give class 0, though the points lie
    # on class 1's side
    clf = fit(class_moments(DataMatrix([[1.0, 2.0, 3.0, 5.0]]), [0, 0, 1, 1]))
    with pytest.raises(NonFiniteData, match="overflows"):
        predict(clf, DataMatrix([[1e200, -1e200, 1e300]]))
    assert predict(clf, DataMatrix([[10.0, 0.0]])).tolist() == [1, 0]


def test_lda_rotation_invariance():
    rng = np.random.default_rng(2)
    p, n = 5, 500
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((p, n))
    x[0] += 1.5 * y
    q = random_rotation(p, 17)
    test = rng.standard_normal((p, 1000))
    base = predict_lda(fit_lda(class_moments(DataMatrix(x), y)), DataMatrix(test))
    rot = predict_lda(fit_lda(class_moments(DataMatrix(q @ x), y)), DataMatrix(q @ test))
    assert np.array_equal(base, rot)


def test_population_fisher_direction_recovers_bayes_decision():
    # embedding with A = Sigma^-1 delta (population, d=1) reproduces the
    # full-space Bayes decision at every test point
    rng = np.random.default_rng(3)
    p = 6
    g = rng.standard_normal((p, p))
    cov = g @ g.T / p + 0.5 * np.eye(p)
    delta = rng.standard_normal(p)
    m = _model(delta, cov)
    a = np.linalg.solve(cov, delta)[:, None]
    test = rng.standard_normal((p, 2000)) * 2.0
    # full-space Bayes: sign of delta' Sigma^-1 x (means are +-delta/2)
    full = (delta @ np.linalg.solve(cov, test) < 0).astype(int)
    e = (a.T @ test)[0]
    mid0 = float(a[:, 0] @ m.means[:, 0])
    mid1 = float(a[:, 0] @ m.means[:, 1])
    projected = (np.abs(e - mid0) > np.abs(e - mid1)).astype(int)
    assert np.array_equal(full, projected)
