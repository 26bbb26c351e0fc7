"""Differential test of sweep against the per-r loop it replaced.

``reference_sweep`` is the earlier implementation, kept verbatim: for
every r it embeds the training and the test fold again through
``proj.prefix(r)`` and fits a classifier of its own.  The current sweep
fits one classifier per fold and algorithm, at width w = min(proj.d,
n_train) on the ``prefix(w)`` embeddings, and reads every r >= 2 off the
leading blocks of that fit; r = 1 alone keeps a fit of its own on its
``prefix(1)`` embeddings.  The error curves of every algorithm, with LDA
and with QDA, on small trunk and trunk3 data must be equal, and the
leading r rows of each full-width embedding must agree with the per-r
product to 1e-12.
"""

import numpy as np
import pytest

from lolkit import embeddings as emb
from lolkit.benchmark import (
    _CELL_ERRORS,
    _DEFAULT_THREAD_FITS,
    ALGORITHMS,
    ErrorCurve,
    FoldPlan,
    _check_algorithm,
    _one_blas_thread,
    _openblas_thread_controls,
    fit_projection,
    make_fold_plan,
    sweep,
)
from lolkit.classifiers import (
    fit_lda,
    fit_qda,
    misclassification_rate,
    predict_lda,
    predict_qda,
)
from lolkit.errors import ShapeMismatch
from lolkit.model import DataMatrix, LabeledDataset
from lolkit.simulations import SimSpec, sample


def reference_sweep(dataset: LabeledDataset, algorithms, d_max, plan: FoldPlan, classifier="lda"):
    for tag in algorithms:
        _check_algorithm(tag)
    if not 1 <= d_max <= dataset.p - 1:
        raise ShapeMismatch(f"d_max={d_max} must lie in 1..p-1={dataset.p - 1}")
    fit_cls, predict = (fit_qda, predict_qda) if classifier == "qda" else (fit_lda, predict_lda)
    x = dataset.data.values
    y = dataset.labels
    c = dataset.num_classes
    blas = _openblas_thread_controls()

    rates = [np.full((plan.k, d_max), np.nan) for _ in algorithms]
    for j in range(plan.k):
        tr = plan.train_subsets[j]
        te = plan.folds[j]
        try:
            train_ds = LabeledDataset(DataMatrix(x[:, tr]), y[tr], c)
            test = DataMatrix(x[:, te])
        except _CELL_ERRORS:
            continue
        for tag, tag_rates in zip(algorithms, rates):
            with _one_blas_thread([] if tag in _DEFAULT_THREAD_FITS else blas):
                try:
                    proj = fit_projection(tag, train_ds, d_max, seed=plan.seed)
                except _CELL_ERRORS:
                    continue
            with _one_blas_thread(blas):
                for r in range(1, min(d_max, proj.d) + 1):
                    try:
                        pre = proj.prefix(r)
                        clf = fit_cls(emb.embed(pre, train_ds.data), train_ds.labels, c)
                        pred = predict(clf, emb.embed(pre, test))
                        tag_rates[j, r - 1] = misclassification_rate(pred, y[te])
                    except _CELL_ERRORS:
                        continue
    return [ErrorCurve(algorithm=tag, rates=tag_rates)
            for tag, tag_rates in zip(algorithms, rates)]


# (family, p, n, k, d_max): two and three classes, n_train <= p - 1 as in
# the paper's protocol
FIXTURES = {
    "trunk": ("trunk", 60, 90, 3, 12),
    "trunk3": ("trunk3", 60, 96, 3, 10),
}


def _fixture(name, seed=0):
    family, p, n, k, d_max = FIXTURES[name]
    ds = sample(SimSpec(family, p, n, seed=seed)).dataset
    plan = make_fold_plan(ds, k, seed=seed)
    return ds, plan, d_max


@pytest.mark.parametrize("classifier", ["lda", "qda"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sweep_curves_equal_the_per_r_loop(name, classifier):
    ds, plan, d_max = _fixture(name)
    got = sweep(plan, ALGORITHMS, d_max, classifier=classifier)
    want = reference_sweep(ds, ALGORITHMS, d_max, plan, classifier=classifier)
    for g, w in zip(got, want):
        assert g.algorithm == w.algorithm
        assert np.array_equal(g.rates, w.rates, equal_nan=True), g.algorithm
        assert np.isfinite(g.rates[:, 0]).all(), g.algorithm


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_leading_rows_match_the_per_r_products(name):
    ds, plan, d_max = _fixture(name)
    for j in range(plan.k):
        tr = plan.train_subsets[j]
        train = LabeledDataset(DataMatrix(ds.data.values[:, tr]), ds.labels[tr], ds.num_classes)
        test = DataMatrix(ds.data.values[:, plan.folds[j]])
        for tag in ALGORITHMS:
            proj = fit_projection(tag, train, d_max, seed=plan.seed)
            for m in (train.data, test):
                full = emb.embed(proj, m).values
                for r in range(1, proj.d + 1):
                    want = emb.embed(proj.prefix(r), m).values
                    scale = max(1.0, np.abs(want).max())
                    assert np.abs(full[:r] - want).max() <= 1e-12 * scale, (tag, j, r)


def test_sweep_embeds_each_fold_at_most_four_times(monkeypatch):
    ds, plan, d_max = _fixture("trunk3")
    calls = []
    real_embed = emb.embed

    def counting_embed(proj, m):
        calls.append(proj.d)
        return real_embed(proj, m)

    monkeypatch.setattr(emb, "embed", counting_embed)
    sweep(plan, ALGORITHMS, d_max, classifier="qda")
    assert 0 < len(calls) <= 4 * plan.k * len(ALGORITHMS)
