"""Fuzz test of the k-fold protocol's error contract (Hypothesis).

``make_fold_plan``, ``sweep``, ``normalized_report`` and ``curves_rows``
each return, or raise a LolkitError; nothing else may escape.  Datasets
are tiny (p 1-6, n up to 12, 2 or 3 classes) with entries from
{-1, 0, 0.5, 1, 2} and some samples repeated, so fits meet singular and
tied data.  Fold counts, widths, algorithm lists and classifiers are drawn
around their valid ranges, and the report is given either the sweep's
curves or made-up curves whose fold count may not be the plan's.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lolkit.benchmark import (
    ALGORITHMS,
    ErrorCurve,
    curves_rows,
    make_fold_plan,
    normalized_report,
    sweep,
)
from lolkit.errors import LolkitError
from lolkit.model import DataMatrix, LabeledDataset

ENTRIES = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
RATES = st.sampled_from([np.nan, 0.0, 0.25, 0.5, 1.0])


@st.composite
def datasets(draw):
    """A p x n dataset whose every class has a sample; a sample may repeat
    an earlier one."""
    p = draw(st.integers(1, 6))
    c = draw(st.integers(2, 3))
    n = draw(st.integers(c, 12))
    columns = []
    for _ in range(n):
        if columns and draw(st.booleans()):
            columns.append(columns[draw(st.integers(0, len(columns) - 1))])
        else:
            columns.append(draw(st.lists(ENTRIES, min_size=p, max_size=p)))
    labels = draw(st.permutations(list(range(c)) + draw(
        st.lists(st.integers(0, c - 1), min_size=n - c, max_size=n - c))))
    return LabeledDataset(DataMatrix(np.array(columns).T), labels, c)


@st.composite
def algorithm_lists(draw):
    """Known tags, sometimes with an unknown or a repeated one."""
    tags = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True))
    extra = draw(st.sampled_from([None, None, "foo", tags[0]]))
    if extra is not None:
        tags.insert(draw(st.integers(0, len(tags))), extra)
    return tags


def _made_up_curves(draw, tags, k):
    """One curve per tag, of k folds or of another count."""
    folds = draw(st.sampled_from([k, k, max(k - 1, 1), k + 2]))
    width = draw(st.integers(1, 4))
    return [ErrorCurve(tag, np.array(draw(st.lists(RATES, min_size=folds * width,
                                                   max_size=folds * width))).reshape(folds, width))
            for tag in tags]


def _returns_or_raises_lolkit_error(fn, *args, **kwargs):
    """fn's result, or None when it raised a LolkitError."""
    try:
        return fn(*args, **kwargs)
    except LolkitError:
        return None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_protocol_returns_or_raises_a_lolkit_error(data):
    draw = data.draw
    ds = draw(datasets(), label="dataset")
    k = draw(st.integers(-1, ds.n + 1), label="k")
    plan = _returns_or_raises_lolkit_error(make_fold_plan, ds, k, seed=draw(st.integers(0, 2)))
    if plan is None:
        return
    assert plan.dataset is ds
    tags = draw(algorithm_lists(), label="algorithms")
    d_max = draw(st.integers(-1, ds.p + 1), label="d_max")
    classifier = draw(st.sampled_from(["lda", "qda", "svm"]), label="classifier")
    curves = _returns_or_raises_lolkit_error(sweep, plan, tags, d_max, classifier=classifier)
    if curves is None or draw(st.booleans(), label="made-up curves"):
        curves = _made_up_curves(draw, draw(st.sampled_from([["lol", "pca"], ["lol"], ["pca"]])),
                                 plan.k)
    _returns_or_raises_lolkit_error(normalized_report, curves, plan)
    _returns_or_raises_lolkit_error(curves_rows, curves)
