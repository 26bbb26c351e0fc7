"""Every leading width of one classifier fit, and the class-moment label contract.

``benchmark.sweep`` fits one LDA or QDA rule per fold and algorithm, at
the full embedding width, and reads the prediction for every r off it
through ``classifiers._predict_by_width``.  A lower Cholesky factor nests,
so the rule at r is the one the leading r x r block of the covariance
gives.  These tests hold each row to the predictions of a fresh fit on
``z[:r]``, whose ridge is its own and not the full width's, on shapes
where every class has more training rows than the width, at one BLAS
thread and at the process default.  They also pin where the rows stop
when a test point overflows, and when ``predict_*`` refuses a point.
"""

import contextlib

import numpy as np
import pytest

from lolkit import benchmark
from lolkit.classifiers import (
    _predict_by_width,
    class_moments,
    fit_lda,
    fit_qda,
    predict_lda,
    predict_qda,
)
from lolkit.errors import EmptyClass, NonFiniteData, ShapeMismatch
from lolkit.model import DataMatrix

FITS = {"lda": (fit_lda, predict_lda), "qda": (fit_qda, predict_qda)}

# (width, n_train, n_test), each class with more than width training rows
SHAPES = [(30, 160, 40), (30, 180, 45), (12, 60, 20), (8, 37, 12)]


def _blas(one_thread):
    if one_thread:
        return benchmark._one_blas_thread(benchmark._openblas_thread_controls())
    return contextlib.nullcontext()


def _embedding(rng, width, labels, c):
    # rows of decreasing spread and class-dependent means, like an embedding
    scale = 10.0 / np.sqrt(np.arange(1, width + 1))[:, None]
    offsets = rng.standard_normal((width, c))
    return scale * (rng.standard_normal((width, labels.shape[0])) + offsets[:, labels])


@pytest.mark.parametrize("one_thread", [True, False], ids=["one_thread", "default_threads"])
@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("kind", ["lda", "qda"])
def test_prefix_fits_equal_fits_on_a_fresh_copy(kind, c, one_thread):
    fit, predict = FITS[kind]
    rng = np.random.default_rng(100 * c + (kind == "qda"))
    for width, n_train, n_test in SHAPES:
        labels = np.arange(n_train) % c
        z = _embedding(rng, width, labels, c)
        test = _embedding(rng, width, np.arange(n_test) % c, c)
        with _blas(one_thread):
            clf = fit(class_moments(DataMatrix(z), labels, c))
            rows = _predict_by_width(clf, DataMatrix(test))
            assert rows.shape == (width, n_test)
            assert np.array_equal(predict(clf, DataMatrix(test)), rows[-1])
            for r in range(1, width + 1):
                fresh = fit(class_moments(DataMatrix(z[:r].copy()), labels, c))
                want = predict(fresh, DataMatrix(test[:r].copy()))
                assert np.array_equal(rows[r - 1], want), (width, n_train, r)
                for j, cov in enumerate(clf.covariances):
                    logdet = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(cov[:r, :r]))))
                    got = clf._logdets[j, r - 1]
                    if kind == "lda":
                        assert got == 0.0
                    else:
                        assert abs(got - logdet) <= 1e-12 * abs(logdet), (width, r, j)


def _two_class_rule(fit):
    # class 0 near the origin, class 1 near (4, 4, 4), unit-ish spread
    rng = np.random.default_rng(7)
    labels = np.arange(40) % 2
    x = rng.standard_normal((3, 40)) + 4.0 * labels
    return fit(class_moments(DataMatrix(x), labels, 2))


@pytest.mark.parametrize("kind", ["lda", "qda"])
def test_rows_stop_at_the_first_width_where_a_point_overflows_for_every_class(kind):
    fit, predict = FITS[kind]
    clf = _two_class_rule(fit)
    finite = np.array([[0.0, 4.0], [0.0, 4.0], [0.0, 4.0]])
    assert _predict_by_width(clf, DataMatrix(finite)).tolist() == [[0, 1]] * 3
    # 1e200 squares to inf at every class's distance, from its row on
    for row in range(3):
        x = finite.copy()
        x[row, 1] = 1e200
        rows = _predict_by_width(clf, DataMatrix(x))
        assert rows.tolist() == [[0, 1]] * row, row
        with pytest.raises(NonFiniteData, match="overflows"):
            predict(clf, DataMatrix(x))


def test_predict_gives_a_point_some_class_scores_to_that_class():
    # class 0 has a spread of about 1e-100, so 1e60 lies about 1e160 of its
    # deviations away and its squared distance overflows; class 1 scores
    # the point finitely
    labels = np.array([0, 0, 0, 1, 1, 1])
    x = np.array([[0.0, 1e-100, -1e-100, 1.0, 2.0, 3.0]])
    clf = fit_qda(class_moments(DataMatrix(x), labels, 2))
    test = DataMatrix([[1e60, 2.0]])
    assert _predict_by_width(clf, test).tolist() == [[1, 1]]
    # no NonFiniteData: only a point that no class scores is refused
    assert predict_qda(clf, test).tolist() == [1, 1]


@pytest.mark.parametrize("labels, num_classes, error", [
    ([0, 1], None, ShapeMismatch),                  # 2 labels for 12 columns
    ([-1] + [0, 1] * 5 + [0], None, EmptyClass),     # a label below 0
    ([0, 1, 2] * 4, 2, EmptyClass),                 # a label of C or above
    ([0] * 12, 2, EmptyClass),                      # a class with no samples
    ([0, 1] * 5 + [0, 0.5], None, ShapeMismatch),   # a fractional label
    ([0, 1] * 5 + [0, np.nan], None, ShapeMismatch),  # a NaN label
    (["a", "b"] * 6, None, ShapeMismatch),          # string labels
    ([0, 1] * 5 + [0, 10**12], None, EmptyClass),   # more classes than samples
])
def test_labels_that_do_not_fit_are_lolkit_errors(labels, num_classes, error):
    with pytest.raises(error):
        class_moments(DataMatrix(np.ones((3, 12))), np.array(labels), num_classes)
