"""Bit-equality of the sort-based medians and the one-buffer PLS deflation.

``_row_medians`` must give ``np.median(a, axis=1)`` bit for bit, and
``fit_rlol``, ``fit_pls`` and ``pls1_regression`` must give the same bytes
as ``reference_fit_rlol``, ``reference_pls_weights`` and the functions
built on it: the earlier implementations, kept verbatim, which call
``np.median`` and deflate through a fresh ``np.outer`` per component.
The fits are compared on cv_qda's five training folds (trunk3, p=1000,
n=225, k=5, seed 0), where both odd and even class sizes occur, and on
the outlier-contaminated ``robust`` family.
"""

import numpy as np
import pytest

from lolkit.benchmark import make_fold_plan
from lolkit.embeddings import (
    _assemble,
    _delta_block,
    _extra_dims,
    _row_medians,
    fit_pls,
    fit_rlol,
)
from lolkit.errors import DegenerateTarget, NonFiniteData
from lolkit.extensions import _regress_on_embedding, _target, pls1_regression
from lolkit.linalg import _fix_signs, truncated_svd
from lolkit.model import DataMatrix, LabeledDataset, Projection, center_pooled, class_stats
from lolkit.simulations import SimSpec, sample


def reference_fit_rlol(dataset: LabeledDataset, d, svd_mode="auto", seed=0) -> Projection:
    k = _extra_dims(dataset, d)
    c = dataset.num_classes
    x = dataset.data.values
    y = dataset.labels
    medians = np.empty((dataset.p, c))
    for j in range(c):
        medians[:, j] = np.median(x[:, y == j], axis=1)
    priors = np.bincount(y, minlength=c) / dataset.n
    delta = _delta_block(medians, priors)
    eig = None
    if k:
        z = x - medians[:, y]
        med = np.median(z, axis=1, keepdims=True)
        sigma = 1.4826 * np.median(np.abs(z - med), axis=1, keepdims=True)
        clipped = np.clip(z, -3.0 * sigma, 3.0 * sigma)
        keep = sigma[:, 0] == 0
        clipped[keep] = z[keep]
        eig = truncated_svd(clipped, k, mode=svd_mode, seed=seed).U
    return _assemble(delta, eig, "rlol", seed)


def reference_pls_weights(x, targets, d):
    weights = np.empty((x.shape[0], d))
    for comp in range(d):
        with np.errstate(over="ignore", invalid="ignore"):
            cross = x @ targets.T
            if not np.any(cross):
                raise DegenerateTarget(f"zero cross-product at component {comp}")
            if not np.isfinite(cross).all():
                raise NonFiniteData(f"the cross-product overflows at component {comp}")
            u = np.linalg.svd(cross, full_matrices=False)[0]
            w = _fix_signs(u[:, :1])[0][:, 0]
            t = x.T @ w
            tt = t @ t
            if tt == 0:
                raise DegenerateTarget(f"zero score vector at component {comp}")
            if not np.isfinite(tt):
                raise NonFiniteData(f"the score vector overflows at component {comp}")
            x -= np.outer(x @ t / tt, t)
        weights[:, comp] = w
    return weights


def reference_fit_pls(dataset: LabeledDataset, d) -> Projection:
    stats = class_stats(dataset)
    x = center_pooled(dataset, stats).values.copy()
    yhot = np.zeros((dataset.num_classes, dataset.n))
    yhot[dataset.labels, np.arange(dataset.n)] = 1.0
    yres = yhot - yhot.mean(axis=1, keepdims=True)
    return Projection(reference_pls_weights(x, yres, d), method_tag="pls")


def reference_pls1_regression(x: DataMatrix, y, d):
    xv = x.values
    yv = _target(y, x.n)
    yc = yv - yv.mean()
    weights = reference_pls_weights(xv - xv.mean(axis=1, keepdims=True), yc[None, :], d)
    return _regress_on_embedding(Projection(weights, method_tag="pls1"), x, yv)


def assert_same_bits(got, want):
    """Equal shapes and bytes; NaN entries need only both be NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


WIDTHS = (1, 2, 3, 60, 61, 180)


def _rows(width, rng):
    """Gaussian rows, rows of few distinct values (ties), rows holding
    +inf, -inf, both, a NaN or signed zeros, and a row of huge values."""
    rows = [rng.standard_normal(width) for _ in range(3)]
    rows += [rng.integers(-2, 3, width).astype(np.float64) for _ in range(3)]
    for fill in ([np.inf], [-np.inf], [np.inf, -np.inf], [np.inf, np.inf, -np.inf],
                 [np.nan], [np.nan, np.inf], [-0.0], [-0.0, 0.0], [-0.0] * 3):
        row = rng.standard_normal(width)
        at = rng.permutation(width)[:len(fill)]
        row[at] = fill[:len(at)]
        rows.append(row)
    # an even row of 1.5e308 overflows its middle sum
    rows += [np.full(width, v) for v in (0.5, -0.0, 1.5e308)]
    rows.append(np.where(np.arange(width) % 2, -0.0, 0.0))
    return np.array(rows)


@pytest.mark.parametrize("width", WIDTHS)
def test_row_medians_match_np_median(width):
    a = _rows(width, np.random.default_rng(width))
    with np.errstate(over="ignore", invalid="ignore"):  # huge and inf + -inf middles
        got, want = _row_medians(a), np.median(a, axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert_same_bits(got, want)


@pytest.mark.parametrize("width", WIDTHS)
def test_row_medians_leave_their_input_alone(width):
    a = np.random.default_rng(width).standard_normal((4, width))
    before = a.copy()
    _row_medians(a)
    assert np.array_equal(a, before)


def test_a_nan_anywhere_in_a_row_gives_nan():
    # 61 entries: the NaN sorts last and leaves the middle entry finite
    a = np.random.default_rng(5).standard_normal((3, 61))
    a[0, 0] = np.nan
    a[1, 30] = np.nan
    med = _row_medians(a)
    assert np.isnan(med[:2]).all() and np.isfinite(med[2])
    assert np.array_equal(med, np.median(a, axis=1), equal_nan=True)


def test_even_width_averages_the_two_middle_entries():
    a = np.array([[4.0, 1.0, 3.0, 2.0], [0.1, 0.2, 0.7, 0.3]])
    med = _row_medians(a)
    assert med[0] == 2.5
    assert med[1] == (0.2 + 0.3) / 2.0
    assert np.array_equal(med, np.median(a, axis=1))


def test_medians_of_negative_zeros_are_positive_zero():
    for width in (1, 2, 3, 4):
        a = np.full((1, width), -0.0)
        assert not np.signbit(_row_medians(a)).any()
        assert not np.signbit(np.median(a, axis=1)).any()


def cv_qda_folds(seed=0):
    """cv_qda's (train dataset, test matrix) per fold: trunk3, p=1000,
    n=225, k=5, each train fold subsampled as ``lolkit bench`` does."""
    ds = sample(SimSpec("trunk3", 1000, 225, seed, {})).dataset
    plan = make_fold_plan(ds, 5, seed)
    x, y = ds.data.values, ds.labels
    return [(LabeledDataset(DataMatrix(x[:, tr]), y[tr], ds.num_classes), DataMatrix(x[:, te]))
            for tr, te in zip(plan.train_subsets, plan.folds)]


@pytest.fixture(scope="module")
def folds():
    return cv_qda_folds(0)


def robust_sample(seed):
    return sample(SimSpec("robust", 100, 100, seed=seed)).dataset


def test_cv_qda_folds_have_odd_and_even_class_sizes(folds):
    sizes = {int(n) % 2 for train, _ in folds for n in np.bincount(train.labels)}
    assert sizes == {0, 1}


@pytest.mark.parametrize("j", range(5))
def test_fit_rlol_matches_np_median_fit_on_cv_qda_folds(folds, j):
    train, _ = folds[j]
    got, want = fit_rlol(train, 20), reference_fit_rlol(train, 20)
    assert_same_bits(got.directions, want.directions)


@pytest.mark.parametrize("seed", range(3))
def test_fit_rlol_matches_np_median_fit_on_robust(seed):
    ds = robust_sample(seed)
    got, want = fit_rlol(ds, 10), reference_fit_rlol(ds, 10)
    assert_same_bits(got.directions, want.directions)


@pytest.mark.parametrize("j", range(5))
def test_fit_pls_matches_np_outer_fit_on_cv_qda_folds(folds, j):
    train, _ = folds[j]
    assert_same_bits(fit_pls(train, 20).directions, reference_fit_pls(train, 20).directions)


@pytest.mark.parametrize("seed", range(3))
def test_fit_pls_matches_np_outer_fit_on_robust(seed):
    ds = robust_sample(seed)
    assert_same_bits(fit_pls(ds, 10).directions, reference_fit_pls(ds, 10).directions)


@pytest.mark.parametrize("j", range(5))
def test_pls1_predictions_match_np_outer_fit_on_cv_qda_folds(folds, j):
    train, test = folds[j]
    target = train.labels.astype(np.float64)
    got = pls1_regression(train.data, target, 10)
    want = reference_pls1_regression(train.data, target, 10)
    assert_same_bits(got.projection.directions, want.projection.directions)
    assert_same_bits(got.predict(test), want.predict(test))


@pytest.mark.parametrize("seed", range(3))
def test_pls1_predictions_match_np_outer_fit_on_robust(seed):
    ds = robust_sample(seed)
    target = ds.labels.astype(np.float64)
    got = pls1_regression(ds.data, target, 8)
    want = reference_pls1_regression(ds.data, target, 8)
    assert_same_bits(got.predict(ds.data), want.predict(ds.data))
