"""Fuzz test of the library's error contract beyond the k-fold protocol
(Hypothesis).

The seeded fits, ``make_fold_plan``, the simulation samplers, the
closed-form Bayes error, ``projected_test_power``, the Chernoff gaps and
quadratic form, the classifiers fitted from labelled data,
``embed``, ``predict_lda``, ``predict_qda``, ``hotelling_two_sample``, and
the quantile partition and regressions each return, or raise a
LolkitError; nothing else may escape, and a fitted projection loads back
from its file as it was saved.  An exact ``truncated_svd`` of a tall
matrix whose Gram matrix overflows or underflows returns LAPACK's
triplets, with no numpy warning.  Seeds are drawn around the valid range
(negative, a float, a numpy integer, a bool), sample counts around 1,
Gaussian pairs whose means and covariances have lengths 1-3 that need not
agree, labels that are fractional, non-finite or strings, targets that
are non-finite or of the wrong shape, and tiny arrays of any shape that
hold NaN, inf or +-1e200, with widths outside the valid range.  The
Gaussians, and the data and test points that the labels and targets
go with, take +-1e200 too, whose squares overflow.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lolkit import chernoff
from lolkit.benchmark import ALGORITHMS, fit_projection, make_fold_plan
from lolkit.classifiers import (
    bayes_error_two_class,
    fit_lda,
    fit_qda,
    predict_lda,
    predict_qda,
)
from lolkit.embeddings import embed, load_projection, save_projection
from lolkit.errors import LolkitError
from lolkit.linalg import _fix_signs, truncated_svd
from lolkit.extensions import (
    hotelling_two_sample,
    lol_regression,
    mean_squared_error,
    pls1_regression,
    projected_test_power,
    quantile_partition,
)
from lolkit.model import DataMatrix, LabeledDataset, Projection
from lolkit.simulations import FAMILIES, SimSpec, population_model, sample

SEEDS = st.sampled_from([-2, -1, 0, 1, 2, 1.5, np.int64(3), True])
ENTRIES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
# ENTRIES and values whose squares overflow
WIDE_ENTRIES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e200, -1e200])
LABELS = st.sampled_from([0, 1, 2, 1.0, 0.5, -1, 3, np.nan, np.inf, "a"])
TARGETS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 1e300, -1e300, np.nan, np.inf, -np.inf])
EXTREMES = st.sampled_from([-1.0, 0.0, 1.0, 1e200, -1e200, np.nan, np.inf])
# scales at which every nonzero ENTRIES square overflows, or rounds to a
# subnormal or to zero
GRAM_EXTREME_SCALES = st.sampled_from([1e160, -1e160, 1e-160, 1e200, -1e200, 1e-200])
TESTING_FAMILIES = ("toeplitz_diag", "toeplitz_dense", "trunk", "stacked_cigars")


@st.composite
def datasets(draw):
    """A p x n dataset whose every class has a sample."""
    p = draw(st.integers(1, 5))
    c = draw(st.integers(2, 3))
    n = draw(st.integers(c, 10))
    x = np.array(draw(st.lists(ENTRIES, min_size=p * n, max_size=p * n))).reshape(p, n)
    labels = draw(st.permutations(list(range(c)) + draw(
        st.lists(st.integers(0, c - 1), min_size=n - c, max_size=n - c))))
    return LabeledDataset(DataMatrix(x), labels, c)


def specs(families=FAMILIES, n=st.integers(1, 6)):
    return st.builds(SimSpec, st.sampled_from(families), st.integers(1, 4), n, SEEDS)


def vectors(length, entries=ENTRIES):
    return st.lists(entries, min_size=length, max_size=length).map(np.array)


@st.composite
def matrices(draw, rows, cols, entries=ENTRIES):
    """A rows x cols matrix: the identity's leading block, or arbitrary entries."""
    if draw(st.booleans()):
        return np.eye(rows, cols) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    return draw(vectors(rows * cols, entries)).reshape(rows, cols)


@st.composite
def gaussians(draw):
    """(mean, covariance) of lengths 1-3 each, not always equal."""
    return draw(vectors(draw(st.integers(1, 3)), WIDE_ENTRIES)), draw(
        st.integers(1, 3).flatmap(lambda k: matrices(k, k, WIDE_ENTRIES)))


def _returns_or_raises_lolkit_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LolkitError:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_seeded_fits_and_fold_plans_return_or_raise_a_lolkit_error(tmp_path_factory, data):
    draw = data.draw
    ds = draw(datasets(), label="dataset")
    tag = draw(st.sampled_from(ALGORITHMS), label="algorithm")
    mode = draw(st.sampled_from(["auto", "exact", "randomized"]), label="svd_mode")
    d = draw(st.integers(1, ds.p), label="d")
    proj = _returns_or_raises_lolkit_error(fit_projection, tag, ds, d, mode,
                                           draw(SEEDS, label="seed"))
    if proj is not None:
        path = tmp_path_factory.mktemp("projection") / "p.txt"
        save_projection(proj, path)
        loaded = load_projection(path)
        assert loaded.directions.tobytes() == proj.directions.tobytes()
        assert (loaded.method_tag, loaded.seed) == (proj.method_tag, proj.seed)
    k = draw(st.integers(2, ds.n), label="k")
    _returns_or_raises_lolkit_error(make_fold_plan, ds, k, draw(SEEDS, label="plan seed"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_samplers_and_bayes_errors_return_or_raise_a_lolkit_error(data):
    draw = data.draw
    spec = draw(specs(), label="spec")
    _returns_or_raises_lolkit_error(sample, spec)
    _returns_or_raises_lolkit_error(population_model, spec)
    model = _returns_or_raises_lolkit_error(population_model, SimSpec(spec.family, spec.p, 2))
    if model is not None:
        proj = draw(st.none() | st.tuples(st.integers(1, 5), st.integers(1, 3)).flatmap(
            lambda s: matrices(*s)), label="projection")
        _returns_or_raises_lolkit_error(bayes_error_two_class, model, proj)
    test_spec = draw(specs(TESTING_FAMILIES + ("cross",), st.integers(3, 8)), label="test spec")
    _returns_or_raises_lolkit_error(projected_test_power, test_spec,
                                    draw(st.sampled_from(ALGORITHMS), label="method"),
                                    draw(st.integers(1, test_spec.p + 1), label="d"),
                                    reps=draw(st.integers(1, 2), label="reps"),
                                    seed=draw(SEEDS, label="power seed"))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_chernoff_functions_return_or_raise_a_lolkit_error(data):
    draw = data.draw
    f0 = draw(gaussians(), label="f0")
    f1 = draw(gaussians(), label="f1")
    delta, sigma = f0[0], f1[1]
    d = draw(st.integers(0, 4), label="d")
    for gap in (chernoff.lol_vs_lda_gap, chernoff.lol_vs_pca_gap, chernoff.pooled_top_eigvecs):
        _returns_or_raises_lolkit_error(gap, delta, sigma, d)
    a = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda s: matrices(*s)),
             label="A")
    _returns_or_raises_lolkit_error(chernoff.projected_chernoff_quadform, a, delta, sigma)


@st.composite
def label_vectors(draw, n):
    """Labels for n samples: integers in 0..2 with, one time in two, a
    drawn entry of any kind written in; sometimes one too many or few."""
    length = n + draw(st.sampled_from([0, 0, 0, -1, 1]))
    labels = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    if labels and draw(st.booleans()):
        labels[draw(st.integers(0, length - 1))] = draw(LABELS)
    return labels


@st.composite
def targets(draw, n):
    """A target for n samples: a vector of drawn entries, sometimes of
    another length, a column or a scalar."""
    shape = draw(st.sampled_from([(n,), (n,), (n,), (n + 1,), (n, 1), ()]))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(TARGETS, min_size=size, max_size=size))).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_labels_and_targets_return_or_raise_a_lolkit_error(data):
    draw = data.draw
    p = draw(st.integers(1, 4), label="p")
    n = draw(st.integers(1, 10), label="n")
    x = DataMatrix(draw(matrices(p, n, WIDE_ENTRIES), label="x"))
    labels = draw(label_vectors(n), label="labels")
    num_classes = draw(st.sampled_from([None, 0, 2, 3]), label="num_classes")
    test_x = DataMatrix(draw(st.integers(1, 3).flatmap(
        lambda m: matrices(p, m, WIDE_ENTRIES)), label="test x"))
    for fit, predict in ((fit_lda, predict_lda), (fit_qda, predict_qda)):
        clf = _returns_or_raises_lolkit_error(fit, x, labels, num_classes)
        if clf is not None:
            _returns_or_raises_lolkit_error(predict, clf, test_x)
    y = draw(targets(n), label="target")
    _returns_or_raises_lolkit_error(quantile_partition, y, draw(st.integers(-1, n + 1), label="K"))
    d = draw(st.integers(-1, p + 1), label="d")
    models = [_returns_or_raises_lolkit_error(lol_regression, x, y,
                                              draw(st.integers(1, 4), label="bins"), d,
                                              draw(SEEDS, label="seed")),
              _returns_or_raises_lolkit_error(pls1_regression, x, y, d)]
    for model in models:
        if model is not None:
            _returns_or_raises_lolkit_error(mean_squared_error, model, x,
                                            draw(targets(n), label="test target"))


@st.composite
def arrays(draw, rows):
    """A tiny array of EXTREMES with ``rows`` rows and 0-3 columns, or one
    time in five a 1-D or a 3-D array."""
    kind = draw(st.sampled_from(["2-D", "2-D", "2-D", "1-D", "3-D"]))
    shape = {"2-D": (rows, draw(st.integers(0, 3))), "1-D": (rows,), "3-D": (1, 1, 1)}[kind]
    size = int(np.prod(shape))
    return np.array(draw(st.lists(EXTREMES, min_size=size, max_size=size))).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_embed_predict_and_hotelling_return_or_raise_a_lolkit_error(data):
    draw = data.draw
    p = draw(st.integers(0, 3), label="p")
    other_p = st.sampled_from([p, p, p, p + 1])
    directions = draw(arrays(p), label="directions")
    width = draw(st.integers(0, 3), label="width")
    x = draw(other_p.flatmap(arrays), label="x")
    _returns_or_raises_lolkit_error(
        lambda: embed(Projection(directions, "x").prefix(width), DataMatrix(x)))
    e0 = draw(arrays(p), label="e0")
    e1 = draw(other_p.flatmap(arrays), label="e1")
    _returns_or_raises_lolkit_error(lambda: hotelling_two_sample(DataMatrix(e0), DataMatrix(e1)))
    ds = draw(datasets(), label="training set")
    for fit, predict in ((fit_lda, predict_lda), (fit_qda, predict_qda)):
        clf = _returns_or_raises_lolkit_error(fit, ds.data, ds.labels, ds.num_classes)
        if clf is not None:
            test_x = draw(st.sampled_from([ds.p, ds.p, ds.p, ds.p - 1, ds.p + 1]).flatmap(arrays),
                          label="test x")
            _returns_or_raises_lolkit_error(lambda: predict(clf, DataMatrix(test_x)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exact_svd_of_an_extreme_tall_matrix_is_lapacks_or_a_lolkit_error(data):
    draw = data.draw
    n = draw(st.integers(1, 4), label="n")
    p = draw(st.integers(n, 3 * n + 4), label="p")
    m = draw(matrices(p, n), label="matrix") * draw(GRAM_EXTREME_SCALES, label="scale")
    k = draw(st.integers(1, n), label="k")
    res = _returns_or_raises_lolkit_error(truncated_svd, m, k, mode="exact")
    if res is not None:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        u, v = _fix_signs(u[:, :k], vt[:k].T)
        assert [a.tobytes() for a in (res.U, res.S, res.V)] == [
            a.tobytes() for a in (u, s[:k], v)]
