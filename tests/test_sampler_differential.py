"""Differential test of the samplers and the fold subsample against the
code they replaced.

``reference_sample``, ``_reference_sample_shared_diag``,
``reference_sample_class`` and ``reference_stratified_subsample`` are the
earlier implementations, kept verbatim but for their names.  They decided
per branch whether a covariance is a diagonal vector or a dense matrix,
read the outlier fraction and the regression coefficients from the spec,
and spread the subsample remainder in a loop with an escape.  The current
code draws every Gaussian through ``model.gaussian_noise`` and spreads
the remainder in one pass; every draw, label, class sample, test power
and subsample must be the same.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lolkit import extensions
from lolkit.benchmark import _stratified_subsample
from lolkit.classifiers import _sample_class
from lolkit.errors import LolkitError, PTooSmall, ShapeMismatch
from lolkit.extensions import projected_test_power
from lolkit.model import DataMatrix, GaussianModel, LabeledDataset, jittered_cholesky
from lolkit.simulations import (
    FAMILIES,
    RegressionSample,
    SimSample,
    SimSpec,
    _binary_labels,
    _build_model,
    _toeplitz_sigma,
    population_model,
    sample,
)

# the options the earlier SimSpec merged in, which no caller set
_EARLIER_DEFAULTS = {"robust": {"pi_outlier": 0.3}, "regression_linear": {"coef": (1.0, 1.0)}}


def _reference_sample_shared_diag(means, diag, labels, rng):
    p = means.shape[0]
    z = rng.standard_normal((p, labels.shape[0]))
    return means[:, labels] + np.sqrt(diag)[:, None] * z


def reference_sample(spec: SimSpec) -> SimSample | RegressionSample:
    """Draw n iid samples from the family's mixture; returns the data and
    the exact population parameters used."""
    rng = np.random.default_rng(spec.seed)
    p, n = spec.p, spec.n
    prm = spec.params

    if spec.family == "regression_linear":
        c = np.asarray(prm["coef"], dtype=np.float64)
        if p < c.shape[0]:
            raise PTooSmall(f"regression_linear needs p >= {c.shape[0]}, got p={p}")
        sigma = _toeplitz_sigma(p, prm["rho"], prm["frobenius"])
        x = jittered_cholesky(sigma) @ rng.standard_normal((p, n))
        coef = np.zeros(p)
        coef[: c.shape[0]] = c
        targets = coef @ x
        return RegressionSample(DataMatrix(x), targets, coef, sigma)

    model = _build_model(spec, rng)

    if spec.family == "robust":
        b = prm["b"]
        diag_in = model.covariances[0]
        diag_out = b**6 / np.sqrt(np.arange(1, p + 1, dtype=np.float64))
        is_out = rng.random(n) < prm["pi_outlier"]
        y = _binary_labels(n, rng)
        z = rng.standard_normal((p, n))
        x = np.empty((p, n))
        inl = ~is_out
        x[:, inl] = model.means[:, y[inl]] + np.sqrt(diag_in)[:, None] * z[:, inl]
        x[:, is_out] = np.sqrt(diag_out)[:, None] * z[:, is_out]
        full = LabeledDataset(DataMatrix(x), y, 2)
        inliers = LabeledDataset(DataMatrix(x[:, inl]), y[inl], 2)
        return SimSample(full, model, inliers=inliers)

    if spec.family == "trunk3":
        y = rng.integers(0, 3, n)
        x = _reference_sample_shared_diag(model.means, model.covariances[0], y, rng)
        return SimSample(LabeledDataset(DataMatrix(x), y, 3), model)

    y = _binary_labels(n, rng)
    if model.shared:
        cov = model.covariances[0]
        if cov.ndim == 1:
            x = _reference_sample_shared_diag(model.means, cov, y, rng)
        else:
            x = model.means[:, y] + jittered_cholesky(cov) @ rng.standard_normal((p, n))
    else:
        z = rng.standard_normal((p, n))
        x = np.empty((p, n))
        for c in range(2):
            mask = y == c
            cc = model.covariance_of(c)
            if cc.ndim == 1:
                x[:, mask] = model.means[:, c, None] + np.sqrt(cc)[:, None] * z[:, mask]
            else:
                x[:, mask] = model.means[:, c, None] + jittered_cholesky(cc) @ z[:, mask]
    return SimSample(LabeledDataset(DataMatrix(x), y, 2), model)


def reference_sample_class(model: GaussianModel, c, n, rng):
    cov = model.covariance_of(c)
    mean = model.means[:, c]
    if cov.ndim == 1:
        z = rng.standard_normal((model.p, n))
        return mean[:, None] + np.sqrt(cov)[:, None] * z
    return mean[:, None] + jittered_cholesky(cov) @ rng.standard_normal((model.p, n))


def reference_stratified_subsample(indices, labels, size, rng):
    # proportional allocation with at least one sample per class present
    classes = np.unique(labels[indices])
    if size < classes.size:
        raise ShapeMismatch(
            f"subsample size {size} cannot cover {classes.size} classes"
        )
    per_class = {c: indices[labels[indices] == c] for c in classes}
    counts = np.array([per_class[c].size for c in classes], dtype=np.float64)
    exact = size * counts / counts.sum()
    alloc = np.maximum(np.floor(exact).astype(int), 1)
    alloc = np.minimum(alloc, counts.astype(int))
    # distribute the remainder by largest fractional part
    order = np.argsort(-(exact - np.floor(exact)))
    i = 0
    while alloc.sum() < size:
        j = order[i % order.size]
        if alloc[j] < counts[j]:
            alloc[j] += 1
        i += 1
        if i > 10 * order.size and alloc.sum() < size:
            break
    while alloc.sum() > size:
        j = int(np.argmax(alloc))
        if alloc[j] > 1:
            alloc[j] -= 1
    picked = []
    for c, m in zip(classes, alloc):
        idx = per_class[c]
        picked.append(rng.choice(idx, size=int(m), replace=False))
    return np.sort(np.concatenate(picked))


def _outcome(sampler, spec):
    try:
        got = sampler(spec)
    except LolkitError as exc:
        return type(exc), str(exc)
    if isinstance(got, RegressionSample):
        return ("regression", got.data.values, got.targets, got.coef, got.covariance)
    views = [got.dataset] + ([got.inliers] if got.inliers is not None else [])
    return [(v.data.values, v.labels, v.num_classes) for v in views]


def _same(a, b):
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and \
            a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


# p below 3 makes cross raise PTooSmall and p = 1 regression_linear; p > n
# included
SIZES = [(1, 6, 0), (2, 9, 1), (3, 25, 2), (8, 60, 3), (40, 33, 4)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p, n, seed", SIZES)
def test_sample_draws_what_the_per_branch_sampler_drew(family, p, n, seed):
    spec = SimSpec(family, p, n, seed)
    earlier = SimpleNamespace(family=family, p=p, n=n, seed=seed,
                              params={**spec.params, **_EARLIER_DEFAULTS.get(family, {})})
    got, want = _outcome(sample, spec), _outcome(reference_sample, earlier)
    assert _same(got, want), (got, want)
    if family == "robust" and isinstance(got, list):
        assert len(got) == 2  # the inlier view is compared too


MODEL_SPECS = [("stacked_cigars", 6), ("rotated_trunk", 5), ("trunk3", 7), ("cross", 6),
               ("toeplitz_diag", 8), ("toeplitz_dense", 8)]


@pytest.mark.parametrize("family, p", MODEL_SPECS)
def test_sample_class_matches_the_per_branch_sampler(family, p):
    # every class in turn from one stream, so the draws must use it alike
    model = population_model(SimSpec(family, p, 10, seed=3))
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    for c in range(model.num_classes):
        for n in (1, 40):
            got = _sample_class(model, c, n, got_rng)
            want = reference_sample_class(model, c, n, want_rng)
            assert _same(got, want), (c, n)


@pytest.mark.parametrize("family", ["toeplitz_diag", "toeplitz_dense", "trunk", "stacked_cigars"])
@pytest.mark.parametrize("split", [False, True])
def test_projected_test_power_is_unchanged(monkeypatch, family, split):
    spec = SimSpec(family, 10, 24, seed=2)
    got = [projected_test_power(spec, m, 2, reps=8, seed=4, split=split) for m in ("lol", "rp")]
    monkeypatch.setattr(extensions, "_sample_class", reference_sample_class)
    want = [projected_test_power(spec, m, 2, reps=8, seed=4, split=split) for m in ("lol", "rp")]
    assert got == want


@st.composite
def subsample_cases(draw):
    """(indices, labels, size, seed): up to 6 classes over up to 40
    labels, some of them singletons, and sizes from below the class count
    to past the index count, len(indices) itself included."""
    labels = np.array(draw(st.lists(st.integers(0, 5), min_size=1, max_size=40)))
    picked = draw(st.lists(st.booleans(), min_size=labels.size, max_size=labels.size))
    indices = np.flatnonzero(picked) if any(picked) else np.arange(labels.size)
    size = draw(st.one_of(st.just(indices.size), st.integers(0, indices.size + 2)))
    return indices, labels, size, draw(st.integers(0, 2**32 - 1))


def _subsample(fn, indices, labels, size, seed):
    try:
        return fn(indices, labels, size, np.random.default_rng(seed))
    except LolkitError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(case=subsample_cases())
def test_stratified_subsample_is_the_looping_allocation(case):
    got = _subsample(_stratified_subsample, *case)
    want = _subsample(reference_stratified_subsample, *case)
    assert _same(got, want), (got, want)
