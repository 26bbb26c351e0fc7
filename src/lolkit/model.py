"""Shared domain types and maximum-likelihood class statistics.

Conventions used throughout the package:

* data matrices are p x n, one sample per *column*;
* labels are dense integers 0..C-1;
* all second-moment computations divide by n (MLE convention), never n-1.

All types are immutable after construction and safe to share across
threads for reading; a LabeledDataset may add one derived, cached SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyClass, NonFiniteData, ShapeMismatch
from .linalg import truncated_svd


@dataclass(frozen=True)
class DataMatrix:
    """Dense p x n real matrix, one sample per column."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D matrix, got ndim={v.ndim}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeMismatch(f"matrix must be at least 1x1, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteData("data matrix contains NaN or Inf entries")
        object.__setattr__(self, "values", v)

    @property
    def p(self):
        return self.values.shape[0]

    @property
    def n(self):
        return self.values.shape[1]

    def leading_rows(self, r) -> "DataMatrix":
        """The first r rows, as a view.  Rows of a checked matrix are
        finite, so they are not scanned again."""
        if not 1 <= r <= self.p:
            raise ShapeMismatch(f"leading r={r} rows outside 1..{self.p}")
        rows = object.__new__(DataMatrix)
        object.__setattr__(rows, "values", self.values[:r])
        return rows


@dataclass(frozen=True)
class LabeledDataset:
    """A DataMatrix plus n integer class labels in {0..C-1}.

    Once an exact lol or rrlda fit asks for it, a dataset keeps the exact
    SVD of its class-centered data (``class_centered_svd``, whose U is
    p x min(p, n)), so the fits of one dataset share it.
    """

    data: DataMatrix
    labels: np.ndarray
    num_classes: int = field(default=0)

    def __post_init__(self):
        y = np.asarray(self.labels)
        if y.ndim != 1 or y.shape[0] != self.data.n:
            raise ShapeMismatch(
                f"labels must be a length-{self.data.n} vector, got shape {y.shape}"
            )
        y = y.astype(np.int64)
        c = self.num_classes if self.num_classes else int(y.max()) + 1
        if c < 2:
            raise EmptyClass(f"need at least 2 classes, got C={c}")
        counts = np.bincount(y, minlength=c)
        if y.min() < 0 or y.max() >= c:
            raise EmptyClass(f"labels must lie in 0..{c - 1}")
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise EmptyClass(f"class {missing} has no samples")
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "num_classes", c)

    @property
    def p(self):
        return self.data.p

    @property
    def n(self):
        return self.data.n

    @cached_property
    def class_centered_svd(self):
        """Exact SVD of the class-centered data, all min(p, n) triplets.

        cached_property writes the instance __dict__ directly, so it works
        on a frozen dataclass.  Only this exact result is kept: a
        randomized one depends on k and the seed."""
        centered = center_class_conditional(self, class_stats(self))
        return truncated_svd(centered.values, min(self.p, self.n), mode="exact")


@dataclass(frozen=True)
class ClassStats:
    """Per-class counts, priors and means, plus the pooled mean."""

    counts: np.ndarray        # (C,) int
    priors: np.ndarray        # (C,) float, sums to 1
    class_means: np.ndarray   # (p, C)
    pooled_mean: np.ndarray   # (p,)


@dataclass(frozen=True)
class Projection:
    """p x d matrix of projection directions (columns, ordered).

    Columns of eigenvector- and delta-based fits are unit-norm.  For
    those methods the first d' columns of a d-dim fit equal the d'-dim
    fit exactly (same data, same seed) when the SVD is exact; randomized
    SVD fits do not nest.
    """

    directions: np.ndarray
    method_tag: str
    seed: int | None = None

    def __post_init__(self):
        a = np.asarray(self.directions, dtype=np.float64)
        if a.ndim != 2 or a.shape[1] < 1:
            raise ShapeMismatch(f"projection directions must be p x d, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteData("projection contains non-finite entries")
        object.__setattr__(self, "directions", a)

    @property
    def p(self):
        return self.directions.shape[0]

    @property
    def d(self):
        return self.directions.shape[1]

    def prefix(self, d):
        """First-d-columns sub-projection (nested methods only)."""
        if d < 1 or d > self.d:
            raise ShapeMismatch(f"prefix dimension {d} outside 1..{self.d}")
        return Projection(self.directions[:, :d], self.method_tag, self.seed)


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian mixture with class priors, means and covariances.

    ``covariances`` holds one array per class when ``shared`` is False,
    or a single array otherwise.  A covariance may be stored either as a
    dense symmetric p x p matrix or as a 1-D vector of length p meaning
    a diagonal matrix (the factored representation used by the large-p
    simulation settings).
    """

    priors: np.ndarray            # (C,)
    means: np.ndarray             # (p, C)
    covariances: tuple
    shared: bool = True

    def __post_init__(self):
        pr = np.asarray(self.priors, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        if np.any(pr <= 0) or abs(pr.sum() - 1.0) > 1e-10:
            raise ShapeMismatch("priors must be positive and sum to 1")
        covs = tuple(np.asarray(c, dtype=np.float64) for c in self.covariances)
        expected = 1 if self.shared else mu.shape[1]
        if len(covs) != expected:
            raise ShapeMismatch(f"expected {expected} covariance(s), got {len(covs)}")
        for c in covs:
            if c.ndim == 2:
                if c.shape[0] != c.shape[1] or np.max(np.abs(c - c.T)) > 1e-10 * max(
                    1.0, np.max(np.abs(c))
                ):
                    raise ShapeMismatch("dense covariance must be symmetric square")
            elif c.ndim != 1:
                raise ShapeMismatch("covariance must be dense (2-D) or diagonal (1-D)")
            elif np.any(c < 0):
                # e.g. stacked_cigars or robust with b < 0, cross with a < 0
                raise ShapeMismatch("a diagonal covariance must have non-negative variances")
        object.__setattr__(self, "priors", pr)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", covs)

    @property
    def p(self):
        return self.means.shape[0]

    @property
    def num_classes(self):
        return self.means.shape[1]

    def covariance_of(self, c):
        """Covariance array of class c (shared models ignore c)."""
        return self.covariances[0] if self.shared else self.covariances[c]


def as_matrix(proj):
    """The p x d direction matrix of a Projection, or an array as float64."""
    return proj.directions if isinstance(proj, Projection) else np.asarray(proj, dtype=np.float64)


def cov_as_dense(cov):
    """Materialize a (possibly diagonal-vector) covariance as p x p."""
    cov = np.asarray(cov, dtype=np.float64)
    return np.diag(cov) if cov.ndim == 1 else cov


def jittered_cholesky(cov):
    """Lower Cholesky factor of a dense p x p covariance plus a diagonal
    jitter of 1e-12 * trace / p, so singular PSD covariances factor."""
    p = cov.shape[0]
    return np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / p * np.eye(p))


def gaussian_noise(cov, z):
    """Columns of covariance ``cov`` from standard normal columns ``z``:
    sqrt(cov) * z for a diagonal vector, jittered_cholesky(cov) @ z for a matrix."""
    return np.sqrt(cov)[:, None] * z if cov.ndim == 1 else jittered_cholesky(cov) @ z


def class_stats(dataset: LabeledDataset) -> ClassStats:
    """MLE class statistics: counts, priors, class means, pooled mean."""
    x = dataset.data.values
    y = dataset.labels
    c = dataset.num_classes
    counts = np.bincount(y, minlength=c)
    priors = counts / dataset.n
    # one BLAS product instead of per-class fancy-indexed copies, which
    # matters when p*n approaches memory size
    onehot = np.zeros((dataset.n, c))
    onehot[np.arange(dataset.n), y] = 1.0
    means = (x @ onehot) / counts
    pooled = x.mean(axis=1)
    return ClassStats(counts=counts, priors=priors, class_means=means, pooled_mean=pooled)


def center_class_conditional(dataset: LabeledDataset, stats: ClassStats) -> DataMatrix:
    """Subtract each sample's class mean: column i becomes x_i - mu_{y_i}."""
    # single p x n allocation: materialize the per-sample means, subtract
    # into the same buffer
    out = np.take(stats.class_means, dataset.labels, axis=1)
    np.subtract(dataset.data.values, out, out=out)
    return DataMatrix(out)


def center_pooled(dataset: LabeledDataset, stats: ClassStats) -> DataMatrix:
    """Subtract the pooled mean from every sample."""
    return DataMatrix(dataset.data.values - stats.pooled_mean[:, None])
