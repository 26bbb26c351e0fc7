"""Fits from prefixed class moments are the fits of the prefix, bit for bit.

``benchmark.sweep`` fits the classifier of every cell from
``class_moments(z).prefix(r)``: the leading r rows of moments computed once
at full width.  These tests hold such a fit to the bits of a fit on a
fresh contiguous copy of ``z[:r]``, the per-r fit the sweep replaced:
means, covariances, Cholesky factors and predictions, at one BLAS thread
and at the process default, for every r >= 2.  A fit that took the leading
r x r block of one full-width scatter would fail them, because that block
differs from the r-row product in its last bits.

r = 1 is left out: numpy reduces a one-row matrix by another path, so the
class means of ``z[:1]`` can differ in the last bits from row 0 of the
full-width means, and the sweep builds the r = 1 cell's moments from its
own one-row embedding.
"""

import contextlib

import numpy as np
import pytest

from lolkit import benchmark
from lolkit.classifiers import class_moments, fit_lda, fit_qda, predict_lda, predict_qda
from lolkit.errors import LolkitError, ShapeMismatch, UnderdeterminedClassifier
from lolkit.model import DataMatrix

FITS = {"lda": (fit_lda, predict_lda), "qda": (fit_qda, predict_qda)}

# (width, n_train, n_test); the last has fewer training rows than width
SHAPES = [(30, 160, 40), (30, 180, 45), (24, 60, 20), (30, 37, 12), (20, 9, 7)]


def _blas(one_thread):
    if one_thread:
        return benchmark._one_blas_thread(benchmark._openblas_thread_controls())
    return contextlib.nullcontext()


def _fit_or_error(fit, moments):
    try:
        return fit(moments)
    except (LolkitError, np.linalg.LinAlgError) as exc:
        return type(exc)


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
        test = DataMatrix(_embedding(rng, width, np.arange(n_test) % c, c))
        with _blas(one_thread):
            moments = class_moments(DataMatrix(z), labels, c)
            for r in range(2, width + 1):
                got = _fit_or_error(fit, moments.prefix(r))
                want = _fit_or_error(fit, class_moments(DataMatrix(z[:r].copy()), labels, c))
                where = (width, n_train, r)
                if r > n_train:
                    assert got is want is UnderdeterminedClassifier, where
                    continue
                assert not isinstance(want, type), (where, want)
                assert np.array_equal(got.priors, want.priors), where
                assert np.array_equal(got.means, want.means), where
                for name in ("covariances", "_chols"):
                    for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
                        assert np.array_equal(a, b), (where, name)
                assert np.array_equal(got._logdets, want._logdets), where
                assert np.array_equal(predict(got, test.leading_rows(r)),
                                      predict(want, DataMatrix(test.values[:r].copy()))), where


def test_prefix_and_leading_rows_are_views_within_range():
    z = DataMatrix(np.arange(12.0).reshape(3, 4))
    moments = class_moments(z, np.array([0, 1, 0, 1]), 2)
    pre = moments.prefix(2)
    assert np.shares_memory(pre.centered, moments.centered)
    assert [b.shape for b in pre.blocks] == [(2, 2), (2, 2)]
    rows = z.leading_rows(2)
    assert np.shares_memory(rows.values, z.values) and rows.p == 2
    for bad in (0, 4):
        with pytest.raises(ShapeMismatch):
            moments.prefix(bad)
        with pytest.raises(ShapeMismatch):
            z.leading_rows(bad)
