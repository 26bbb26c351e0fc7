import tracemalloc

import numpy as np
import pytest

from lolkit.errors import CcaRankExceeded, NonFiniteData, RankRequestTooLarge, ShapeMismatch
from lolkit.linalg import (
    implicit_cca_eigs,
    random_rotation,
    sparse_random_columns,
    truncated_svd,
)
from lolkit.model import DataMatrix, LabeledDataset, center_pooled, class_stats


def test_svd_diagonal():
    res = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(res.S, [3.0, 2.0])
    assert np.allclose(np.abs(res.U[:, 0]), [1, 0, 0])
    assert np.allclose(np.abs(res.U[:, 1]), [0, 1, 0])


def test_svd_rank_one():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    res = truncated_svd(np.outer(u, v), 1)
    assert np.isclose(res.S[0], np.linalg.norm(u) * np.linalg.norm(v))


def test_svd_unknown_mode_is_a_shape_mismatch_naming_the_modes():
    with pytest.raises(ShapeMismatch, match="expected auto, exact or randomized"):
        truncated_svd(np.eye(3), 1, mode="bogus")


def test_svd_randomized_close_to_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((50, 30))
    exact = truncated_svd(m, 5, mode="exact")
    rand = truncated_svd(m, 5, mode="randomized", seed=1)
    assert np.allclose(rand.S, exact.S, rtol=0.01)


def test_svd_residual_and_gram_eigenvalues():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((20, 12))
    res = truncated_svd(m, 5)
    for i in range(5):
        resid = np.linalg.norm(m @ res.V[:, i] - res.S[i] * res.U[:, i])
        assert resid <= 1e-8 * np.linalg.norm(m, 2)
    lam = np.sort(np.linalg.eigvalsh(m @ m.T))[::-1][:5]
    assert np.allclose(res.S**2, lam, rtol=1e-6)


def test_svd_orthonormal_and_ordered():
    rng = np.random.default_rng(3)
    res = truncated_svd(rng.standard_normal((15, 10)), 6)
    assert np.allclose(res.U.T @ res.U, np.eye(6), atol=1e-8)
    assert np.all(np.diff(res.S) <= 1e-12)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((10, 8))
    res = truncated_svd(m, 4)
    for j in range(4):
        col = res.U[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_errors():
    with pytest.raises(RankRequestTooLarge):
        truncated_svd(np.eye(3), 4)
    with pytest.raises(NonFiniteData):
        truncated_svd(np.array([[np.nan, 1.0]]), 1)


def test_svd_randomized_deterministic():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 40))
    a = truncated_svd(m, 3, mode="randomized", seed=9)
    b = truncated_svd(m, 3, mode="randomized", seed=9)
    assert np.array_equal(a.U, b.U)


def test_sparse_random_p1():
    m = sparse_random_columns(1, 1, seed=0)
    assert m[0, 0] in (1.0, -1.0)


def test_sparse_random_density():
    p, k = 10_000, 10
    m = sparse_random_columns(p, k, seed=1)
    frac = np.mean(m != 0)
    q = 1.0 / np.sqrt(p)
    sigma = np.sqrt(q * (1 - q) / (p * k))
    assert abs(frac - q) < 3 * sigma
    nz = m[m != 0]
    root_s = p**0.25
    assert np.allclose(np.abs(nz), root_s)
    # signs roughly balanced
    assert abs(np.mean(nz > 0) - 0.5) < 3 * np.sqrt(0.25 / nz.size)


def test_sparse_random_deterministic_and_nested():
    a = sparse_random_columns(50, 8, seed=3)
    b = sparse_random_columns(50, 8, seed=3)
    assert np.array_equal(a, b)
    prefix = sparse_random_columns(50, 3, seed=3)
    assert np.array_equal(a[:, :3], prefix)


def test_random_rotation_properties():
    assert np.allclose(random_rotation(1, 0), [[1.0]])
    q = random_rotation(5, 2)
    assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-10
    assert abs(np.linalg.det(q) - 1.0) < 1e-8
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, 10))
    d0 = np.linalg.norm(pts[:, :, None] - pts[:, None, :], axis=0)
    rp = q @ pts
    d1 = np.linalg.norm(rp[:, :, None] - rp[:, None, :], axis=0)
    assert np.allclose(d0, d1, atol=1e-8)


def _cca_inputs(x, y, c):
    ds = LabeledDataset(DataMatrix(x), y, c)
    stats = class_stats(ds)
    centered = center_pooled(ds, stats)
    return centered.values, stats.class_means, stats.pooled_mean, stats.counts


def test_cca_rank_limit():
    rng = np.random.default_rng(0)
    args = _cca_inputs(rng.standard_normal((5, 10)),
                       np.array([0, 1] * 5), 2)
    with pytest.raises(CcaRankExceeded):
        implicit_cca_eigs(*args, 2)


def test_cca_matches_dense_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 6))
    y = np.array([0, 0, 0, 1, 1, 1])
    centered, means, pooled, counts = _cca_inputs(x, y, 2)
    v = implicit_cca_eigs(centered, means, pooled, counts, 1)

    sx = centered @ centered.T
    n = counts.sum()
    w = (means - pooled[:, None]) * np.sqrt(counts / n)
    sb = w @ w.T
    dense = np.linalg.pinv(sx, rcond=1e-10) @ sb
    lam, vec = np.linalg.eig(dense)
    top = vec[:, np.argmax(lam.real)].real
    top = top / np.linalg.norm(top)
    assert min(np.linalg.norm(v[:, 0] - top), np.linalg.norm(v[:, 0] + top)) < 1e-8


def test_cca_low_dim_matches_fisher_direction():
    # p << n: the direction is proportional to Sigma^-1 delta
    rng = np.random.default_rng(2)
    n = 100
    y = np.array([0, 1] * (n // 2))
    x = rng.standard_normal((2, n)) + np.array([[2.0], [0.0]]) * y
    centered, means, pooled, counts = _cca_inputs(x, y, 2)
    v = implicit_cca_eigs(centered, means, pooled, counts, 1)[:, 0]
    delta = means[:, 0] - means[:, 1]
    cc = x - means[:, y]
    sigma = cc @ cc.T / n
    fisher = np.linalg.solve(sigma, delta)
    fisher /= np.linalg.norm(fisher)
    angle = np.arccos(min(1.0, abs(fisher @ v)))
    assert angle < 1e-6


def test_cca_memory_stays_linear():
    # peak auxiliary allocation must be O(np + pd), far below p*p doubles
    p, n = 4000, 60
    rng = np.random.default_rng(3)
    x = rng.standard_normal((p, n))
    y = np.array([0, 1] * (n // 2))
    centered, means, pooled, counts = _cca_inputs(x, y, 2)
    tracemalloc.start()
    implicit_cca_eigs(centered, means, pooled, counts, 1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 0.25 * p * p * 8  # a p x p intermediate would exceed this
