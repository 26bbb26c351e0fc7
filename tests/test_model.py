import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lolkit.errors import EmptyClass, NonFiniteData, ShapeMismatch
from lolkit.model import (
    DataMatrix,
    GaussianModel,
    LabeledDataset,
    Projection,
    center_class_conditional,
    center_pooled,
    class_stats,
)


def make_dataset(x, y, c=0):
    return LabeledDataset(DataMatrix(np.asarray(x, dtype=float)), np.asarray(y), c)


def test_data_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteData):
        DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(NonFiniteData):
        DataMatrix(np.array([[np.inf], [0.0]]))


def test_data_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        DataMatrix(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        DataMatrix(np.zeros((0, 2)))


def test_labeled_dataset_requires_every_class():
    with pytest.raises(EmptyClass):
        make_dataset([[0.0, 1.0]], [0, 0], c=2)
    with pytest.raises(EmptyClass):
        make_dataset([[0.0, 1.0, 2.0]], [0, 2, 2], c=3)
    with pytest.raises(EmptyClass, match="0..1"):
        make_dataset([[0.0, 1.0, 2.0]], [-1, 0, 1], c=0)


def test_labeled_dataset_label_length_checked():
    with pytest.raises(ShapeMismatch):
        make_dataset([[0.0, 1.0]], [0, 1, 1])


def test_class_stats_two_singleton_classes():
    ds = make_dataset([[0.0, 2.0], [0.0, 0.0]], [0, 1])
    stats = class_stats(ds)
    assert np.array_equal(stats.class_means[:, 0], [0.0, 0.0])
    assert np.array_equal(stats.class_means[:, 1], [2.0, 0.0])
    assert np.array_equal(stats.priors, [0.5, 0.5])
    assert np.array_equal(stats.pooled_mean, [1.0, 0.0])


def test_class_stats_constant_data():
    x0 = np.array([3.0, -1.0, 2.0])
    ds = make_dataset(np.tile(x0[:, None], 4), [0, 1, 0, 1])
    stats = class_stats(ds)
    assert np.allclose(stats.class_means[:, 0], x0)
    assert np.allclose(stats.class_means[:, 1], x0)


def test_pooled_mean_is_prior_weighted_class_mean():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.standard_normal((5, 20)), rng.integers(0, 3, 20), c=3)
    stats = class_stats(ds)
    recomposed = stats.class_means @ stats.priors
    assert np.allclose(stats.pooled_mean, recomposed, atol=1e-12)
    assert abs(stats.priors.sum() - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_class_stats_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    n = 12
    x = rng.standard_normal((4, n))
    y = np.array([0, 1] * (n // 2))
    perm = rng.permutation(n)
    s1 = class_stats(make_dataset(x, y))
    s2 = class_stats(make_dataset(x[:, perm], y[perm]))
    assert np.allclose(s1.class_means, s2.class_means)
    assert np.array_equal(s1.counts, s2.counts)
    assert np.allclose(s1.pooled_mean, s2.pooled_mean)


def test_center_class_conditional_singletons_zero():
    ds = make_dataset([[5.0, -2.0], [1.0, 1.0]], [0, 1])
    out = center_class_conditional(ds, class_stats(ds))
    assert np.allclose(out.values, 0.0)


def test_center_class_conditional_small_example():
    ds = make_dataset([[1.0, 3.0, 0.0], [0.0, 0.0, 5.0]], [0, 0, 1])
    out = center_class_conditional(ds, class_stats(ds))
    assert np.allclose(out.values[:, 0], [-1.0, 0.0])
    assert np.allclose(out.values[:, 1], [1.0, 0.0])
    assert np.allclose(out.values[:, 2], [0.0, 0.0])


def test_center_class_conditional_recentered_means_vanish():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.standard_normal((6, 40)),
                      np.r_[np.zeros(20, int), np.ones(20, int)])
    centered = center_class_conditional(ds, class_stats(ds))
    redone = class_stats(LabeledDataset(centered, ds.labels, ds.num_classes))
    assert np.max(np.abs(redone.class_means)) < 1e-10


def test_center_pooled_examples():
    ds = make_dataset([[0.0, 2.0]], [0, 1])
    out = center_pooled(ds, class_stats(ds))
    assert np.allclose(out.values, [[-1.0, 1.0]])
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.standard_normal((4, 30)),
                      np.r_[np.zeros(15, int), np.ones(15, int)])
    out = center_pooled(ds, class_stats(ds))
    assert np.max(np.abs(out.values.sum(axis=1))) < 1e-10 * 30


def test_pooled_vs_class_centered_covariance_identity():
    # for C=2, pooled-centered second moment = class-centered second moment
    # plus pi0*pi1 * delta delta' (divide-by-n convention)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 50))
    y = np.r_[np.zeros(30, int), np.ones(20, int)]
    ds = make_dataset(x, y)
    stats = class_stats(ds)
    n = ds.n
    cp = center_pooled(ds, stats).values
    cc = center_class_conditional(ds, stats).values
    delta = stats.class_means[:, 0] - stats.class_means[:, 1]
    lhs = cp @ cp.T / n
    rhs = cc @ cc.T / n + stats.priors[0] * stats.priors[1] * np.outer(delta, delta)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_projection_prefix_and_validation():
    proj = Projection(np.eye(4)[:, :3], method_tag="x")
    assert proj.prefix(2).directions.shape == (4, 2)
    with pytest.raises(ShapeMismatch):
        proj.prefix(0)
    with pytest.raises(ShapeMismatch):
        proj.prefix(4)
    with pytest.raises(NonFiniteData):
        Projection(np.array([[np.nan]]), method_tag="x")
    # a seed that save_projection could write but load_projection not read
    for seed in (1.5, -1, True, "3"):
        with pytest.raises(ShapeMismatch, match="seed"):
            Projection(np.eye(2, 1), method_tag="x", seed=seed)
    assert Projection(np.eye(2, 1), method_tag="x", seed=np.int64(3)).seed == 3


def test_integral_float_labels_are_integer_labels():
    ds = make_dataset([[0.0, 1.0, 2.0, 3.0]], [0.0, 1.0, 1.0, 0.0])
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1, 0]


def test_gaussian_model_validation():
    with pytest.raises(ShapeMismatch):
        GaussianModel(np.array([0.7, 0.7]), np.zeros((2, 2)), (np.eye(2),))
    with pytest.raises(ShapeMismatch):
        GaussianModel(np.array([0.5, 0.5]), np.zeros((2, 2)),
                      (np.array([[1.0, 5.0], [0.0, 1.0]]),))
    with pytest.raises(ShapeMismatch):  # a negative variance cannot be sampled
        GaussianModel(np.array([0.5, 0.5]), np.zeros((2, 2)), (np.array([1.0, -1.0]),))
    m = GaussianModel(np.array([0.5, 0.5]), np.zeros((2, 2)),
                      (np.ones(2), 2 * np.ones(2)), shared=False)
    assert m.covariance_of(1)[0] == 2.0
