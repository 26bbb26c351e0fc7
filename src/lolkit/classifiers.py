"""LDA / QDA on embedded data, plus Gaussian Bayes-error oracles.

All three score with one Gaussian discriminant: the argmax over classes of
-1/2 (Mahalanobis distance + log det) + log prior, ties going to the
lowest class index.  Fitted covariances are MLE (divide by n) with a
relative ridge of 1e-8 * trace / d on the diagonal, which guards
degenerate folds without perturbing well-conditioned problems beyond
~1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.special import ndtr

from .errors import ShapeMismatch, SingularProjectedCov, UnderdeterminedClassifier
from .model import DataMatrix, GaussianModel, as_matrix, cov_as_dense, gaussian_noise

RIDGE_REL = 1e-8


def _ridge(cov):
    d = cov.shape[0]
    trace = np.trace(cov)
    # zero-variance data (e.g. singleton classes) still needs an invertible
    # covariance; fall back to an absolute floor
    lam = RIDGE_REL * (trace / d if trace > 0 else 1.0)
    return cov + lam * np.eye(d)


@dataclass(frozen=True)
class GaussianClassifier:
    """A fitted LDA or QDA rule.  LDA repeats its pooled covariance and
    factor for every class, with zero log-determinants: a shared
    log-determinant cancels in the argmax."""

    priors: np.ndarray       # (C,)
    means: np.ndarray        # (d, C)
    covariances: tuple       # one (d, d) per class, ridge-stabilized
    _chols: tuple
    _logdets: np.ndarray


def _factor(cov):
    chol = sla.cho_factor(cov, lower=True)
    return chol, 2.0 * np.sum(np.log(np.diag(chol[0])))


def _discriminant(x, means, chols, logdets, priors):
    """Predicted class of every column of x under the Gaussian classes
    (means[:, j], chols[j], logdets[j], priors[j])."""
    scores = np.empty((priors.shape[0], x.shape[1]))
    for j in range(priors.shape[0]):
        diff = x - means[:, j : j + 1]
        maha = np.einsum("ij,ij->j", diff, sla.cho_solve(chols[j], diff))
        scores[j] = -0.5 * (maha + logdets[j]) + np.log(priors[j])
    return np.argmax(scores, axis=0)


def _class_moments(embedded: DataMatrix, labels, num_classes):
    """(x, labels, counts, priors, means) of a training set, d <= n checked."""
    x = embedded.values
    d, n = x.shape
    if d > n:
        raise UnderdeterminedClassifier(f"d={d} exceeds n={n}")
    labels = np.asarray(labels, dtype=np.int64)
    c = num_classes or int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c)
    means = np.empty((d, c))
    for j in range(c):
        means[:, j] = x[:, labels == j].mean(axis=1)
    return x, labels, counts, counts / n, means


def _predict(clf: GaussianClassifier, embedded: DataMatrix):
    x = embedded.values
    d = clf.means.shape[0]
    if x.shape[0] != d:
        raise ShapeMismatch(f"classifier expects d={d}, got {x.shape[0]}")
    return _discriminant(x, clf.means, clf._chols, clf._logdets, clf.priors)


# LDA and QDA keep their own entry points: profilers tell them apart by function

def fit_lda(embedded: DataMatrix, labels, num_classes=None) -> GaussianClassifier:
    """LDA: one pooled within-class covariance."""
    x, labels, _, priors, means = _class_moments(embedded, labels, num_classes)
    centered = x - means[:, labels]
    cov = _ridge(centered @ centered.T / x.shape[1])
    chol = sla.cho_factor(cov, lower=True)
    c = means.shape[1]
    return GaussianClassifier(priors, means, (cov,) * c, (chol,) * c, np.zeros(c))


def predict_lda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def fit_qda(embedded: DataMatrix, labels, num_classes=None) -> GaussianClassifier:
    """QDA: one covariance per class."""
    x, labels, counts, priors, means = _class_moments(embedded, labels, num_classes)
    covs = []
    for j in range(means.shape[1]):
        xc = x[:, labels == j] - means[:, j : j + 1]
        covs.append(_ridge(xc @ xc.T / counts[j]))
    chols, logdets = zip(*map(_factor, covs))
    return GaussianClassifier(priors, means, tuple(covs), chols, np.array(logdets))


def predict_qda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def misclassification_rate(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeMismatch("prediction/truth length mismatch")
    return float(np.mean(pred != truth))


def _project(a, mean, cov):
    """(A' mean, A' cov A) for a dense or diagonal-vector covariance;
    unchanged when ``a`` is None."""
    if a is None:
        return mean, cov
    cov_a = a.T @ (cov[:, None] * a) if cov.ndim == 1 else a.T @ cov @ a
    return a.T @ mean, cov_a


def bayes_error_two_class(model: GaussianModel, proj=None):
    """Phi(-sqrt(delta' Sigma^-1 delta) / 2) for an equal-prior two-class
    shared-covariance Gaussian model, optionally after projecting."""
    if model.num_classes != 2 or not model.shared:
        raise ShapeMismatch("closed form needs C=2 with a shared covariance")
    if abs(model.priors[0] - 0.5) > 1e-12:
        raise ShapeMismatch("closed form needs equal priors")
    a = None if proj is None else as_matrix(proj)
    delta, cov = _project(a, model.means[:, 0] - model.means[:, 1], model.covariance_of(0))
    if cov.ndim == 1:
        if np.any(cov <= 0):
            raise SingularProjectedCov("diagonal covariance has nonpositive entries")
        quad = float(np.sum(delta * delta / cov))
    else:
        try:
            chol = sla.cho_factor(cov, lower=True)
        except np.linalg.LinAlgError as exc:  # scipy's LinAlgError is this class
            raise SingularProjectedCov(str(exc)) from exc
        quad = float(delta @ sla.cho_solve(chol, delta))
    return float(ndtr(-0.5 * np.sqrt(quad)))


def _sample_class(model: GaussianModel, c, n, rng):
    z = rng.standard_normal((model.p, n))
    return model.means[:, c, None] + gaussian_noise(model.covariance_of(c), z)


def bayes_error_monte_carlo(model: GaussianModel, proj=None, n_samples=100_000, seed=0):
    """Monte Carlo Bayes error of the population-parameter classifier,
    optionally in a projected space.  Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    c = model.num_classes
    counts = rng.multinomial(n_samples, model.priors)
    a = None if proj is None else as_matrix(proj)
    params = [_project(a, model.means[:, j], model.covariance_of(j)) for j in range(c)]
    means = np.column_stack([mu for mu, _ in params])
    chols, logdets = zip(*(_factor(cov_as_dense(cov)) for _, cov in params))

    wrong = 0
    for j in range(c):
        if counts[j] == 0:
            continue
        x = _sample_class(model, j, counts[j], rng)
        if a is not None:
            x = a.T @ x
        wrong += int(np.sum(_discriminant(x, means, chols, logdets, model.priors) != j))
    est = wrong / n_samples
    se = float(np.sqrt(max(est * (1 - est), 1e-12) / n_samples))
    return est, se
