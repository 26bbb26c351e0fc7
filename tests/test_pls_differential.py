"""Differential test of the PLS weights against the NIPALS loops they replaced.

``reference_fit_pls`` and ``reference_pls1_regression`` are the earlier
implementations, kept verbatim: a NIPALS power iteration per component
with a tolerance and an iteration cap, and deflation of both X and Y.
The current code takes each weight vector as the top left singular
vector of the deflated cross-product, so its columns must agree with
NIPALS up to sign, the QDA error rates on cv_qda's folds (trunk3,
p=1000, n=225, k=5, d=20, seed 0) must be the same, and PLS1 regression
must predict the same values.
"""

import numpy as np
import pytest

from lolkit.benchmark import make_fold_plan
from lolkit.classifiers import fit_qda, misclassification_rate, predict_qda
from lolkit.embeddings import embed, fit_pls
from lolkit.errors import DegenerateTarget, LolkitError, TooFewDims
from lolkit.extensions import EmbeddedRegression, pls1_regression
from lolkit.model import DataMatrix, LabeledDataset, Projection, center_pooled, class_stats
from lolkit.simulations import SimSpec, sample


class PlsNoConvergence(LolkitError):
    def __init__(self, component, message=None):
        self.component = component
        super().__init__(message or f"NIPALS failed to converge on component {component}")


# NIPALS: relative tolerance on successive score vectors, iteration cap
PLS_TOL = 1e-10
PLS_MAX_ITER = 500


def reference_fit_pls(dataset: LabeledDataset, d) -> Projection:
    if d < 1:
        raise TooFewDims(f"d={d} below 1")
    if d > min(dataset.p, dataset.n - 1):
        raise TooFewDims(f"d={d} exceeds min(p, n-1)={min(dataset.p, dataset.n - 1)}")
    stats = class_stats(dataset)
    x = center_pooled(dataset, stats).values.copy()
    yhot = np.zeros((dataset.num_classes, dataset.n))
    yhot[dataset.labels, np.arange(dataset.n)] = 1.0
    yres = yhot - yhot.mean(axis=1, keepdims=True)

    weights = np.empty((dataset.p, d))
    for comp in range(d):
        u = yres[np.argmax(np.einsum("ij,ij->i", yres, yres))]
        t_old = None
        for _ in range(PLS_MAX_ITER):
            w = x @ u
            nw = np.linalg.norm(w)
            if nw == 0:
                raise PlsNoConvergence(comp, f"zero weight vector at component {comp}")
            w /= nw
            t = x.T @ w
            tt = t @ t
            if tt == 0:
                raise PlsNoConvergence(comp, f"zero score vector at component {comp}")
            q = yres @ t / tt
            u = yres.T @ q / (q @ q)
            if t_old is not None and np.linalg.norm(t - t_old) <= PLS_TOL * np.linalg.norm(t):
                break
            t_old = t
        else:
            raise PlsNoConvergence(comp)
        weights[:, comp] = w
        p_load = x @ t / tt
        x -= np.outer(p_load, t)
        yres = yres - np.outer(q, t)
    return Projection(weights, method_tag="pls")


def reference_pls1_regression(x: DataMatrix, y, d) -> EmbeddedRegression:
    xv = x.values
    yv = np.asarray(y, dtype=np.float64)
    xm = xv.mean(axis=1, keepdims=True)
    ym = yv.mean()
    xc = xv - xm
    yc = yv - ym
    weights = np.empty((x.p, d))
    for comp in range(d):
        w = xc @ yc
        nw = np.linalg.norm(w)
        if nw == 0:
            raise DegenerateTarget("target uncorrelated with all features")
        w /= nw
        t = xc.T @ w
        tt = t @ t
        p_load = xc @ t / tt
        q = yc @ t / tt
        xc = xc - np.outer(p_load, t)
        yc = yc - q * t
        weights[:, comp] = w
    proj = Projection(weights, method_tag="pls1")
    e = proj.directions.T @ xv
    design = np.vstack([np.ones(e.shape[1]), e]).T
    beta, *_ = np.linalg.lstsq(design, yv, rcond=None)
    return EmbeddedRegression(projection=proj, intercept=float(beta[0]), coef=beta[1:])


COS_TOL = 1e-9


def cv_qda_folds(seed):
    """cv_qda's (train dataset, test matrix, test labels) per fold: trunk3,
    p=1000, n=225, k=5, each train fold subsampled as ``lolkit bench`` does."""
    ds = sample(SimSpec("trunk3", 1000, 225, seed, {})).dataset
    plan = make_fold_plan(ds, 5, seed)
    x, y = ds.data.values, ds.labels
    return [(LabeledDataset(DataMatrix(x[:, tr]), y[tr], ds.num_classes),
             DataMatrix(x[:, te]), y[te])
            for tr, te in zip(plan.train_subsets, plan.folds)]


@pytest.fixture(scope="module")
def seed0_folds():
    folds = cv_qda_folds(0)
    return [(fold, fit_pls(fold[0], 20), reference_fit_pls(fold[0], 20)) for fold in folds]


def assert_columns_match(new, ref):
    cos = np.abs(np.einsum("ij,ij->j", new.directions, ref.directions))
    assert cos.min() >= 1 - COS_TOL, cos


@pytest.mark.parametrize("j", range(5))
def test_weights_match_nipals_on_cv_qda_folds(seed0_folds, j):
    _, new, ref = seed0_folds[j]
    assert new.directions.shape == ref.directions.shape == (1000, 20)
    assert_columns_match(new, ref)


@pytest.mark.parametrize("case", range(6))
def test_weights_match_nipals_on_small_random_data(case):
    rng = np.random.default_rng(case)
    p = int(rng.integers(3, 40))
    n = int(rng.integers(10, 60))
    c = int(rng.integers(2, 5))
    y = np.arange(n) % c
    x = rng.standard_normal((p, n))
    x[: c - 1] += 2.0 * (y == np.arange(1, c)[:, None])
    ds = LabeledDataset(DataMatrix(x), y, c)
    d = min(p, n - 1, 8)
    assert_columns_match(fit_pls(ds, d), reference_fit_pls(ds, d))


def test_qda_error_rates_match_nipals_on_cv_qda_folds(seed0_folds):
    for (train, test, truth), new, ref in seed0_folds:
        for r in range(1, 21):
            rates = []
            for proj in (new, ref):
                pre = proj.prefix(r)
                clf = fit_qda(embed(pre, train.data), train.labels, train.num_classes)
                rates.append(misclassification_rate(predict_qda(clf, embed(pre, test)), truth))
            assert rates[0] == rates[1], (r, rates)


@pytest.mark.parametrize("p,n,d", [(6, 150, 6), (6, 150, 3), (30, 80, 10), (200, 40, 12)])
def test_pls1_predictions_match_nipals(p, n, d):
    # the SVD may flip a weight's sign; least squares on the scores undoes it
    rng = np.random.default_rng(p * n + d)
    x = rng.standard_normal((p, n))
    y = x[:3].T @ np.array([2.0, -1.0, 0.5]) + 0.3 * rng.standard_normal(n)
    train, test = DataMatrix(x[:, : n // 2]), DataMatrix(x[:, n // 2 :])
    new = pls1_regression(train, y[: n // 2], d).predict(test)
    ref = reference_pls1_regression(train, y[: n // 2], d).predict(test)
    assert np.abs(new - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("seed,fold", [(9, 3), (10, 1), (13, 3)])
def test_fit_pls_on_folds_where_nipals_did_not_converge(seed, fold):
    train, _, _ = cv_qda_folds(seed)[fold]
    with pytest.raises(PlsNoConvergence):
        reference_fit_pls(train, 20)
    w = fit_pls(train, 20).directions
    assert np.abs(w.T @ w - np.eye(20)).max() <= 1e-12
