"""LDA / QDA on embedded data, plus the closed-form two-class Bayes error.

Both classifiers score with one Gaussian discriminant: the argmax over
classes of -1/2 (Mahalanobis distance + log det) + log prior, ties going
to the lowest class index.  Fitted covariances are MLE (divide by n) with a
relative ridge of 1e-8 * trace / d on the diagonal, which guards
degenerate folds without perturbing well-conditioned problems beyond
~1e-6.

One fit at width d also gives the rule of every leading width r <= d.  A
lower Cholesky factor nests: the factor of a covariance's leading r x r
block is the leading r x r block of its factor (Golub & Van Loan, Matrix
Computations, 4.2).  So with z = L^-1 (x - mu_j), the distance at width r
is the sum of the first r entries of z^2, and QDA's log-determinant at r
is the sum of the first r entries of 2 log diag L.  The leading block
carries the width-d ridge, not a ridge of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .chernoff import projected_chernoff_quadform
from .errors import NonFiniteData, ShapeMismatch, UnderdeterminedClassifier
from .linalg import _cholesky
from .model import DataMatrix, GaussianModel, label_counts

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
    _logdets: np.ndarray     # (C, d), log det of each leading r x r block


def _class_moments(embedded: DataMatrix, labels, num_classes):
    """Counts, class column masks, class means and class-centered rows of
    d x n training rows.  Labels that do not fit raise ShapeMismatch or
    EmptyClass (see model.label_counts), and d > n raises
    UnderdeterminedClassifier."""
    x = embedded.values
    labels, counts = label_counts(labels, x.shape[1], num_classes)
    d, n = x.shape
    if d > n:
        raise UnderdeterminedClassifier(f"d={d} exceeds n={n}")
    masks = [labels == j for j in range(counts.size)]
    means = np.empty((d, counts.size))
    for j, mask in enumerate(masks):
        means[:, j] = x[:, mask].mean(axis=1)
    return counts, masks, means, x - means[:, labels]


def _predict_by_width(clf: GaussianClassifier, embedded: DataMatrix):
    """(d', n) predicted classes, row r - 1 that of the leading r
    coordinates (see the module docstring).  The rows stop before the first
    width at which some point scores no class finitely: a distance only
    grows with r, so the point scores none at any wider width either."""
    x = embedded.values
    d = clf.means.shape[0]
    if x.shape[0] != d:
        raise ShapeMismatch(f"classifier expects d={d}, got {x.shape[0]}")
    scores = np.empty((clf.priors.shape[0], d, x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, chol in enumerate(clf._chols):
            z = dtrtrs(chol, x - clf.means[:, j : j + 1], lower=1)[0]
            maha = np.cumsum(z * z, axis=0)
            scores[j] = -0.5 * (maha + clf._logdets[j][:, None]) + np.log(clf.priors[j])
    # argmax would give class 0 to a point every class scores -inf or NaN
    scored = np.isfinite(scores).any(axis=0).all(axis=1)
    width = d if scored.all() else int(np.argmin(scored))
    return np.argmax(scores[:, :width], axis=0)


def _predict(clf: GaussianClassifier, embedded: DataMatrix):
    rows = _predict_by_width(clf, embedded)
    if rows.shape[0] < clf.means.shape[0]:
        raise NonFiniteData("a test point's distance to every class overflows")
    return rows[-1]


# LDA and QDA keep their own entry points: profilers tell them apart by function.

def fit_lda(embedded: DataMatrix, labels, num_classes=None) -> GaussianClassifier:
    """LDA on the d x n training rows ``embedded`` and their ``labels``,
    with C = ``num_classes`` or the largest label plus one: one pooled
    within-class covariance."""
    counts, _, means, centered = _class_moments(embedded, labels, num_classes)
    n = centered.shape[1]
    # a covariance that overflows reaches _cholesky, which raises NonFiniteData
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _ridge(centered @ centered.T / n)
    chol = _cholesky(cov)
    d, c = means.shape
    return GaussianClassifier(counts / n, means, (cov,) * c, (chol,) * c, np.zeros((c, d)))


def predict_lda(clf: GaussianClassifier, embedded: DataMatrix):
    return _predict(clf, embedded)


def fit_qda(embedded: DataMatrix, labels, num_classes=None) -> GaussianClassifier:
    """QDA, fitted as fit_lda is: one covariance per class."""
    counts, masks, means, centered = _class_moments(embedded, labels, num_classes)
    # one block array per class: numpy computes xc @ xc.T as a symmetric
    # product only when both operands are the same array
    blocks = (centered[:, mask] for mask in masks)
    with np.errstate(over="ignore", invalid="ignore"):
        covs = tuple(_ridge(xc @ xc.T / k) for xc, k in zip(blocks, counts))
    chols = tuple(map(_cholesky, covs))
    logdets = np.array([np.cumsum(2.0 * np.log(np.diag(chol))) for chol in chols])
    return GaussianClassifier(counts / centered.shape[1], means, covs, chols, logdets)


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

