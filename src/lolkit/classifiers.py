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
from scipy.special import ndtr

from .errors import ShapeMismatch, SingularProjectedCov, UnderdeterminedClassifier
from .linalg import _cholesky, _factor, _project, _solve
from .model import DataMatrix, GaussianModel, as_matrix, cov_as_dense, gaussian_noise

RIDGE_REL = 1e-8


def _ridge(cov):
    d = cov.shape[0]
    trace = np.trace(cov)
    # zero-variance data (e.g. singleton classes) still needs an invertible
    # covariance; fall back to an absolute floor
    lam = RIDGE_REL * (trace / d if trace > 0 else 1.0)
    # np.diag, not lam * np.eye(d): an infinite lam must not make 0 * inf
    return cov + np.diag(np.full(d, lam))


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


def _discriminant(x, means, chols, logdets, priors):
    """Predicted class of every column of x under the Gaussian classes
    (means[:, j], chols[j], logdets[j], priors[j])."""
    scores = np.empty((priors.shape[0], x.shape[1]))
    for j in range(priors.shape[0]):
        diff = x - means[:, j : j + 1]
        maha = np.einsum("ij,ij->j", diff, _solve(chols[j], diff))
        scores[j] = -0.5 * (maha + logdets[j]) + np.log(priors[j])
    return np.argmax(scores, axis=0)


@dataclass(frozen=True)
class ClassMoments:
    """Class statistics of d x n training rows: what LDA and QDA fit from."""

    counts: np.ndarray       # (C,)
    priors: np.ndarray       # (C,)
    means: np.ndarray        # (d, C)
    centered: np.ndarray     # (d, n), x - means[:, labels]
    blocks: tuple            # centered[:, labels == j] for each class j

    def prefix(self, r) -> "ClassMoments":
        """The moments of the leading r rows, as views.  Means and centering
        act on each row alone, so for r >= 2 they are bit for bit those of
        x[:r]; numpy reduces a one-row matrix by another path, and the
        means of x[:1] can differ in the last bits."""
        if not 1 <= r <= self.means.shape[0]:
            raise ShapeMismatch(f"prefix r={r} outside 1..{self.means.shape[0]}")
        return ClassMoments(self.counts, self.priors, self.means[:r], self.centered[:r],
                            tuple(b[:r] for b in self.blocks))


def class_moments(embedded: DataMatrix, labels, num_classes=None) -> ClassMoments:
    """The ClassMoments of a training set; C is ``num_classes`` or the
    largest label plus one."""
    x = embedded.values
    labels = np.asarray(labels, dtype=np.int64)
    c = num_classes or int(labels.max()) + 1
    counts = np.bincount(labels, minlength=c)
    masks = [labels == j for j in range(c)]
    means = np.empty((x.shape[0], c))
    for j, mask in enumerate(masks):
        means[:, j] = x[:, mask].mean(axis=1)
    centered = x - means[:, labels]
    return ClassMoments(counts, counts / x.shape[1], means, centered,
                        tuple(centered[:, mask] for mask in masks))


def _check_determined(moments: ClassMoments):
    d, n = moments.centered.shape
    if d > n:
        raise UnderdeterminedClassifier(f"d={d} exceeds n={n}")


def _predict(clf: GaussianClassifier, embedded: DataMatrix):
    x = embedded.values
    d = clf.means.shape[0]
    if x.shape[0] != d:
        raise ShapeMismatch(f"classifier expects d={d}, got {x.shape[0]}")
    return _discriminant(x, clf.means, clf._chols, clf._logdets, clf.priors)


# LDA and QDA keep their own entry points: profilers tell them apart by function.
# Each fit takes one r x r product of its own rows, never a block of a wider
# scatter: that block can differ from the product in the last bits.

def fit_lda(moments: ClassMoments) -> GaussianClassifier:
    """LDA: one pooled within-class covariance."""
    _check_determined(moments)
    centered = moments.centered
    cov = _ridge(centered @ centered.T / centered.shape[1])
    chol = _cholesky(cov)
    c = moments.means.shape[1]
    return GaussianClassifier(moments.priors, moments.means, (cov,) * c, (chol,) * c,
                              np.zeros(c))


def predict_lda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def fit_qda(moments: ClassMoments) -> GaussianClassifier:
    """QDA: one covariance per class."""
    _check_determined(moments)
    covs = tuple(_ridge(xc @ xc.T / k) for xc, k in zip(moments.blocks, moments.counts))
    chols, logdets = zip(*map(_factor, covs))
    return GaussianClassifier(moments.priors, moments.means, covs, chols, np.array(logdets))


def predict_qda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def misclassification_rate(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeMismatch("prediction/truth length mismatch")
    return float(np.mean(pred != truth))


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
            chol = _cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise SingularProjectedCov(str(exc)) from exc
        quad = float(delta @ _solve(chol, delta))
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
