"""LDA / QDA on embedded data, plus the closed-form two-class Bayes error.

Both classifiers score with one Gaussian discriminant: the argmax over
classes of -1/2 (Mahalanobis distance + log det) + log prior, ties going
to the lowest class index.  Fitted covariances are MLE (divide by n) with a
relative ridge of 1e-8 * trace / d on the diagonal, which guards
degenerate folds without perturbing well-conditioned problems beyond
~1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chernoff import projected_chernoff_quadform
from .errors import NonFiniteData, ShapeMismatch, UnderdeterminedClassifier
from .linalg import _cholesky, _solve
from .model import DataMatrix, GaussianModel, gaussian_noise, label_counts

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
    largest label plus one.  Labels that do not fit raise ShapeMismatch or
    EmptyClass (see model.label_counts)."""
    x = embedded.values
    labels, counts = label_counts(labels, x.shape[1], num_classes)
    masks = [labels == j for j in range(counts.size)]
    means = np.empty((x.shape[0], counts.size))
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
    scores = np.empty((clf.priors.shape[0], x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(clf.priors.shape[0]):
            diff = x - clf.means[:, j : j + 1]
            maha = np.einsum("ij,ij->j", diff, _solve(clf._chols[j], diff))
            scores[j] = -0.5 * (maha + clf._logdets[j]) + np.log(clf.priors[j])
    # argmax would give class 0 to a point every class scores -inf or NaN
    if not np.isfinite(scores).any(axis=0).all():
        raise NonFiniteData("a test point's distance to every class overflows")
    return np.argmax(scores, axis=0)


# LDA and QDA keep their own entry points: profilers tell them apart by function.
# Each fit takes one r x r product of its own rows, never a block of a wider
# scatter: that block can differ from the product in the last bits.

def fit_lda(moments: ClassMoments) -> GaussianClassifier:
    """LDA: one pooled within-class covariance."""
    _check_determined(moments)
    centered = moments.centered
    # a covariance that overflows reaches _cholesky, which raises NonFiniteData
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
        covs = tuple(_ridge(xc @ xc.T / k) for xc, k in zip(moments.blocks, moments.counts))
    chols = tuple(map(_cholesky, covs))
    logdets = np.array([2.0 * np.sum(np.log(np.diag(chol))) for chol in chols])
    return GaussianClassifier(moments.priors, moments.means, covs, chols, logdets)


def predict_qda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def misclassification_rate(pred, truth):
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ShapeMismatch("prediction/truth length mismatch")
    return float(np.mean(pred != truth))


def bayes_error_two_class(model: GaussianModel, proj=None):
    """Phi(-sqrt(q) / 2) for an equal-prior two-class shared-covariance
    Gaussian model, q the quadratic form delta' A (A' Sigma A)^-1 A' delta
    of chernoff.projected_chernoff_quadform, with A = ``proj`` or the identity."""
    if model.num_classes != 2 or not model.shared:
        raise ShapeMismatch("closed form needs C=2 with a shared covariance")
    if abs(model.priors[0] - 0.5) > 1e-12:
        raise ShapeMismatch("closed form needs equal priors")
    quad = projected_chernoff_quadform(proj, model.means[:, 0] - model.means[:, 1],
                                       model.covariance_of(0))
    # imported here, not at module level: scipy.special adds about 4 MB to every process
    from scipy.special import ndtr
    return float(ndtr(-0.5 * np.sqrt(quad)))


def _sample_class(model: GaussianModel, c, n, rng):
    z = rng.standard_normal((model.p, n))
    return model.means[:, c, None] + gaussian_noise(model.covariance_of(c), z)
