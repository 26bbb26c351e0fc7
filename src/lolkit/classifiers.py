"""LDA / QDA on embedded data, plus Gaussian Bayes-error oracles.

Fitted covariances are MLE (divide by n) with a relative ridge of
1e-8 * trace / d on the diagonal, which guards degenerate folds without
perturbing well-conditioned problems beyond ~1e-6.  Prediction always
uses the full discriminant including log-priors; argmax ties resolve to
the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla
from scipy.stats import norm

from .errors import ShapeMismatch, SingularProjectedCov, UnderdeterminedClassifier
from .model import DataMatrix, GaussianModel, Projection, cov_as_dense

RIDGE_REL = 1e-8


def _ridge(cov):
    d = cov.shape[0]
    trace = np.trace(cov)
    # zero-variance data (e.g. singleton classes) still needs an invertible
    # covariance; fall back to an absolute floor
    lam = RIDGE_REL * (trace / d if trace > 0 else 1.0)
    return cov + lam * np.eye(d)


@dataclass(frozen=True)
class LdaClassifier:
    priors: np.ndarray       # (C,)
    means: np.ndarray        # (d, C)
    covariance: np.ndarray   # (d, d) pooled within-class, ridge-stabilized
    _chol: tuple

    @property
    def d(self):
        return self.means.shape[0]


@dataclass(frozen=True)
class QdaClassifier:
    priors: np.ndarray
    means: np.ndarray
    covariances: tuple       # one (d, d) per class
    _chols: tuple
    _logdets: np.ndarray


def _class_moments(x, labels, num_classes):
    counts = np.bincount(labels, minlength=num_classes)
    priors = counts / labels.shape[0]
    means = np.empty((x.shape[0], num_classes))
    for j in range(num_classes):
        means[:, j] = x[:, labels == j].mean(axis=1)
    return counts, priors, means


def fit_lda(embedded: DataMatrix, labels, num_classes=None) -> LdaClassifier:
    x = embedded.values
    d, n = x.shape
    if d > n:
        raise UnderdeterminedClassifier(f"d={d} exceeds n={n}")
    labels = np.asarray(labels, dtype=np.int64)
    c = num_classes or int(labels.max()) + 1
    _, priors, means = _class_moments(x, labels, c)
    centered = x - means[:, labels]
    cov = _ridge(centered @ centered.T / n)
    chol = sla.cho_factor(cov, lower=True)
    return LdaClassifier(priors=priors, means=means, covariance=cov, _chol=chol)


def predict_lda(clf: LdaClassifier, embedded: DataMatrix):
    x = embedded.values
    if x.shape[0] != clf.d:
        raise ShapeMismatch(f"classifier expects d={clf.d}, got {x.shape[0]}")
    scores = np.empty((clf.priors.shape[0], x.shape[1]))
    for j in range(clf.priors.shape[0]):
        z = sla.cho_solve(clf._chol, x - clf.means[:, j : j + 1])
        maha = np.einsum("ij,ij->j", x - clf.means[:, j : j + 1], z)
        scores[j] = -0.5 * maha + np.log(clf.priors[j])
    return np.argmax(scores, axis=0)


def fit_qda(embedded: DataMatrix, labels, num_classes=None) -> QdaClassifier:
    x = embedded.values
    d, n = x.shape
    if d > n:
        raise UnderdeterminedClassifier(f"d={d} exceeds n={n}")
    labels = np.asarray(labels, dtype=np.int64)
    c = num_classes or int(labels.max()) + 1
    counts, priors, means = _class_moments(x, labels, c)
    covs, chols, logdets = [], [], []
    for j in range(c):
        xc = x[:, labels == j] - means[:, j : j + 1]
        cov = _ridge(xc @ xc.T / counts[j])
        chol = sla.cho_factor(cov, lower=True)
        covs.append(cov)
        chols.append(chol)
        logdets.append(2.0 * np.sum(np.log(np.diag(chol[0]))))
    return QdaClassifier(
        priors=priors,
        means=means,
        covariances=tuple(covs),
        _chols=tuple(chols),
        _logdets=np.array(logdets),
    )


def predict_qda(clf: QdaClassifier, embedded: DataMatrix):
    x = embedded.values
    if x.shape[0] != clf.means.shape[0]:
        raise ShapeMismatch(
            f"classifier expects d={clf.means.shape[0]}, got {x.shape[0]}"
        )
    scores = np.empty((clf.priors.shape[0], x.shape[1]))
    for j in range(clf.priors.shape[0]):
        diff = x - clf.means[:, j : j + 1]
        z = sla.cho_solve(clf._chols[j], diff)
        maha = np.einsum("ij,ij->j", diff, z)
        scores[j] = -0.5 * (maha + clf._logdets[j]) + np.log(clf.priors[j])
    return np.argmax(scores, axis=0)


def misclassification_rate(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeMismatch("prediction/truth length mismatch")
    return float(np.mean(pred != truth))


def _projected_two_class_params(model: GaussianModel, proj):
    delta = model.means[:, 0] - model.means[:, 1]
    cov = model.covariance_of(0)
    if proj is None:
        return delta, cov
    a = proj.directions if isinstance(proj, Projection) else np.asarray(proj)
    delta_a = a.T @ delta
    if cov.ndim == 1:
        cov_a = a.T @ (cov[:, None] * a)
    else:
        cov_a = a.T @ cov @ a
    return delta_a, cov_a


def bayes_error_two_class(model: GaussianModel, proj=None):
    """Phi(-sqrt(delta' Sigma^-1 delta) / 2) for an equal-prior two-class
    shared-covariance Gaussian model, optionally after projecting."""
    if model.num_classes != 2 or not model.shared:
        raise ShapeMismatch("closed form needs C=2 with a shared covariance")
    if abs(model.priors[0] - 0.5) > 1e-12:
        raise ShapeMismatch("closed form needs equal priors")
    delta, cov = _projected_two_class_params(model, proj)
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
    return float(norm.cdf(-0.5 * np.sqrt(quad)))


def _sample_class(model: GaussianModel, c, n, rng):
    cov = model.covariance_of(c)
    mean = model.means[:, c]
    if cov.ndim == 1:
        z = rng.standard_normal((model.p, n))
        return mean[:, None] + np.sqrt(cov)[:, None] * z
    chol = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / model.p * np.eye(model.p))
    return mean[:, None] + chol @ rng.standard_normal((model.p, n))


def bayes_error_monte_carlo(model: GaussianModel, proj=None, n_samples=100_000, seed=0):
    """Monte Carlo Bayes error of the population-parameter classifier,
    optionally in a projected space.  Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    c = model.num_classes
    counts = rng.multinomial(n_samples, model.priors)
    a = None
    if proj is not None:
        a = proj.directions if isinstance(proj, Projection) else np.asarray(proj)

    # population-parameter Gaussian discriminant in the (projected) space
    means, chols, logdets = [], [], []
    for j in range(c):
        cov = model.covariance_of(j)
        mu = model.means[:, j]
        if a is not None:
            cov = a.T @ (cov[:, None] * a) if cov.ndim == 1 else a.T @ cov @ a
            mu = a.T @ mu
        chol = sla.cho_factor(cov_as_dense(cov), lower=True)
        means.append(mu)
        chols.append(chol)
        logdets.append(2.0 * np.sum(np.log(np.diag(chol[0]))))

    wrong = 0
    for j in range(c):
        if counts[j] == 0:
            continue
        x = _sample_class(model, j, counts[j], rng)
        if a is not None:
            x = a.T @ x
        scores = np.empty((c, counts[j]))
        for m in range(c):
            diff = x - means[m][:, None]
            z = sla.cho_solve(chols[m], diff)
            maha = np.einsum("ij,ij->j", diff, z)
            scores[m] = -0.5 * (maha + logdets[m]) + np.log(model.priors[m])
        wrong += int(np.sum(np.argmax(scores, axis=0) != j))
    est = wrong / n_samples
    se = float(np.sqrt(max(est * (1 - est), 1e-12) / n_samples))
    return est, se
