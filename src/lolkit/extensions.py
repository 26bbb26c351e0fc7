"""Projection-then-test and projection-then-regress pipelines.

Hotelling's two-sample T^2 on embedded data, power experiments over the
Toeplitz settings, quantile partitioning of a real-valued target, and
least-squares regression on LOL embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmark import fit_projection
from .classifiers import _sample_class
from .embeddings import _pls_weights, embed
from .errors import (
    DegenerateTarget,
    NonFiniteData,
    ShapeMismatch,
    SingularProjectedCov,
    TooFewDims,
    TooManyBins,
    UnderdeterminedTest,
)
from .linalg import seed_sequence
from .model import DataMatrix, LabeledDataset, Projection
from .simulations import SimSpec, population_model


@dataclass(frozen=True)
class HotellingResult:
    t_squared: float
    f_statistic: float
    df1: int
    df2: int
    p_value: float


def hotelling_two_sample(e0: DataMatrix, e1: DataMatrix) -> HotellingResult:
    """Two-sample Hotelling T^2 with pooled covariance (divide by
    n0 + n1 - 2) and the exact F reference distribution.  A pooled
    covariance or mean difference that overflows raises NonFiniteData; a
    T^2 that overflows is inf, with p-value 0.0."""
    if e0.p != e1.p:
        raise ShapeMismatch(f"dimension mismatch: {e0.p} vs {e1.p}")
    d = e0.p
    n0, n1 = e0.n, e1.n
    if n0 + n1 - 2 < d:
        raise UnderdeterminedTest(f"d={d} exceeds n0+n1-2={n0 + n1 - 2}")
    with np.errstate(over="ignore", invalid="ignore"):
        m0 = e0.values.mean(axis=1)
        m1 = e1.values.mean(axis=1)
        c0 = e0.values - m0[:, None]
        c1 = e1.values - m1[:, None]
        pooled = (c0 @ c0.T + c1 @ c1.T) / (n0 + n1 - 2)
        diff = m0 - m1
    if not (np.isfinite(pooled).all() and np.isfinite(diff).all()):
        raise NonFiniteData("pooled covariance or mean difference of the embedded samples "
                            "overflows")
    try:
        with np.errstate(over="ignore"):
            t2 = float(n0 * n1 / (n0 + n1) * diff @ np.linalg.solve(pooled, diff))
    except np.linalg.LinAlgError as exc:
        raise SingularProjectedCov(f"pooled covariance of the embedded samples: {exc}") from None
    df1 = d
    df2 = n0 + n1 - d - 1
    f_stat = t2 * df2 / (d * (n0 + n1 - 2))
    # imported here, not at module level: scipy.special adds about 4 MB to every process
    from scipy.special import fdtrc

    # fdtrc is the F survival function that scipy.stats' f.sf evaluates;
    # like f.sf, give 1.0 at F <= 0, where fdtrc gives NaN below 0 (solve
    # can return a T^2 just under 0); NaN stays NaN and +inf gives 0.0
    p_value = 1.0 if df2 <= 0 or f_stat <= 0 else float(fdtrc(df1, df2, f_stat))
    return HotellingResult(t_squared=t2, f_statistic=f_stat, df1=df1, df2=df2,
                           p_value=p_value)


def projected_test_power(spec: SimSpec, method, d, alpha=0.05, reps=200, seed=0, split=False):
    """Empirical rejection rate of projection + Hotelling over ``reps``
    draws of spec.n // 2 samples per class from a two-class setting.

    The projection is fitted on the same sample being tested, matching
    the pipeline under study; pass ``split=True`` for the calibrated
    split-sample variant (fit on one half, test on the other).
    """
    if spec.family not in ("toeplitz_diag", "toeplitz_dense", "trunk", "stacked_cigars"):
        raise ShapeMismatch(f"unsupported testing family {spec.family!r}")
    m = spec.n // 2
    if m < 2:
        raise ShapeMismatch("need at least 2 samples per group")
    if reps < 1:
        raise ShapeMismatch(f"reps={reps} must be at least 1")
    rejections = 0
    for rep in range(reps):
        rs = int(seed_sequence(seed, rep).generate_state(1)[0])
        model = population_model(SimSpec(spec.family, spec.p, 2, rs, dict(spec.params)))
        rng = np.random.default_rng(seed_sequence(seed, rep, 1))
        x0 = _sample_class(model, 0, m, rng)
        x1 = _sample_class(model, 1, m, rng)
        if split:
            h = m // 2
            fit0, test0 = x0[:, :h], x0[:, h:]
            fit1, test1 = x1[:, :h], x1[:, h:]
        else:
            fit0 = test0 = x0
            fit1 = test1 = x1
        fit_ds = LabeledDataset(
            DataMatrix(np.hstack([fit0, fit1])),
            np.repeat([0, 1], [fit0.shape[1], fit1.shape[1]]),
            2,
        )
        proj = fit_projection(method, fit_ds, d, seed=rs)
        res = hotelling_two_sample(
            embed(proj, DataMatrix(test0)), embed(proj, DataMatrix(test1))
        )
        if res.p_value < alpha:
            rejections += 1
    return rejections / reps


@dataclass(frozen=True)
class QuantilePartition:
    boundaries: np.ndarray    # K-1 monotone percentile cut points
    labels: np.ndarray
    num_classes: int


def quantile_partition(y, num_bins) -> QuantilePartition:
    """Split a real target into num_bins percentile classes.

    Values equal to a boundary go to the lower class.  Empty bins (tied
    targets) are dropped and the labels re-densified; a target with a
    single surviving class is an error, and so is a target that _target
    refuses.
    """
    y = _target(y)
    if num_bins > y.shape[0]:
        raise TooManyBins(f"K={num_bins} exceeds n={y.shape[0]}")
    if num_bins < 2:
        raise TooManyBins("need at least 2 bins")
    edges = np.quantile(y, np.arange(1, num_bins) / num_bins)
    labels = np.searchsorted(edges, y, side="left")
    present = np.unique(labels)
    if present.size < 2:
        raise DegenerateTarget("target collapses to a single class")
    remap = {c: i for i, c in enumerate(present)}
    dense = np.array([remap[v] for v in labels], dtype=np.int64)
    return QuantilePartition(boundaries=edges, labels=dense, num_classes=present.size)


@dataclass(frozen=True)
class EmbeddedRegression:
    projection: object
    intercept: float
    coef: np.ndarray

    def predict(self, x: DataMatrix):
        e = embed(self.projection, x)
        return self.intercept + self.coef @ e.values


def _regress_on_embedding(proj, x: DataMatrix, y) -> EmbeddedRegression:
    """Ordinary least squares with intercept of y on the embedded x."""
    e = embed(proj, x).values
    design = np.vstack([np.ones(e.shape[1]), e]).T
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    return EmbeddedRegression(projection=proj, intercept=float(beta[0]), coef=beta[1:])


def lol_regression(x: DataMatrix, y, num_bins=4, d=5, seed=0) -> EmbeddedRegression:
    """Quantile-partition the target, fit LOL on the induced classes,
    then ordinary least squares with intercept on the embedded data."""
    yv = _target(y, x.n)
    part = quantile_partition(yv, num_bins)
    dataset = LabeledDataset(x, part.labels, part.num_classes)
    return _regress_on_embedding(fit_projection("lol", dataset, d, seed=seed), x, yv)


def _target(y, n=None):
    """y as a float64 vector, of length n unless n is None.  Any other
    shape, or an entry that is not a number, raises ShapeMismatch; a NaN
    or infinite entry raises NonFiniteData."""
    try:
        yv = np.asarray(y, dtype=np.float64)
    except (TypeError, ValueError):
        raise ShapeMismatch("target entries must be numbers") from None
    if yv.ndim != 1 or n not in (None, yv.shape[0]):
        length = "" if n is None else f"length-{n} "
        raise ShapeMismatch(f"target must be a {length}vector, got shape {yv.shape}")
    if not np.all(np.isfinite(yv)):
        raise NonFiniteData("target contains NaN or Inf entries")
    return yv


def pls1_regression(x: DataMatrix, y, d) -> EmbeddedRegression:
    """PLS1 regression baseline: PLS weight vectors against the centered
    scalar target, then least squares on the scores."""
    if d < 1:
        raise TooFewDims(f"d={d} below 1")
    xv = x.values
    yv = _target(y, x.n)
    yc = yv - yv.mean()
    weights = _pls_weights(xv - xv.mean(axis=1, keepdims=True), yc[None, :], d)
    return _regress_on_embedding(Projection(weights, method_tag="pls1"), x, yv)


def mean_squared_error(model: EmbeddedRegression, x: DataMatrix, y):
    """Mean squared error of ``model`` on (x, y); an error too large to
    square gives inf, without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.mean((model.predict(x) - _target(y, x.n)) ** 2))
