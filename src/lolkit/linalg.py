"""Shared numerical primitives.

Truncated SVD (exact and Halko-style randomized), very sparse random
projection columns, Haar-uniform rotations, the implicit-operator
eigensolver used by low-rank CCA, and the Cholesky, solve and Gaussian
projection that the classifiers and the Chernoff theory share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    CcaRankExceeded,
    DegeneratePooledCovariance,
    NonFiniteData,
    RankRequestTooLarge,
    ShapeMismatch,
)

# Exact LAPACK SVD is used automatically below this size; randomized above.
EXACT_SVD_MAX_DIM = 2000

# Relative singular-value cutoff for pseudo-inverses.
PINV_RTOL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Top-k singular triplets: U (p x k), S (k,), V (n x k)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def _fix_signs(U, *others):
    # Largest-magnitude entry of each U column made positive; the matrices
    # in others get the same column flips.
    flip = np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    flip[flip == 0] = 1.0
    return (U * flip, *(m * flip for m in others))


def resolve_svd_mode(k, p, n, mode):
    """The path a rank-k truncated SVD of a p x n matrix takes under
    ``mode``: "auto" resolves to "exact" when min(p, n) <=
    EXACT_SVD_MAX_DIM and to "randomized" above; other modes pass through.
    A k outside 1..min(p, n) raises RankRequestTooLarge; another mode, ShapeMismatch."""
    if k < 1 or k > min(p, n):
        raise RankRequestTooLarge(f"k={k} outside 1..min(p,n)={min(p, n)}")
    if mode not in ("auto", "exact", "randomized"):
        raise ShapeMismatch(f"unknown SVD mode {mode!r}; expected auto, exact or randomized")
    if mode == "auto":
        return "exact" if min(p, n) <= EXACT_SVD_MAX_DIM else "randomized"
    return mode


def truncated_svd(values, k, mode="auto", seed=0, oversample=10):
    """Top-k singular triplets of a p x n matrix.

    mode is "exact", "randomized", or "auto" (exact when min(p, n) <=
    EXACT_SVD_MAX_DIM).  Randomized mode is a Halko range finder with
    ``oversample`` extra columns and two power iterations, deterministic
    given ``seed``.
    """
    m = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData("matrix contains non-finite entries")
    p, n = m.shape
    mode = resolve_svd_mode(k, p, n, mode)

    if mode == "exact":
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        u, v = _fix_signs(u[:, :k], vt[:k].T)
        return SvdResult(U=u, S=s[:k], V=v)

    rng = np.random.default_rng(seed)
    ell = min(k + oversample, min(p, n))
    omega = rng.standard_normal((n, ell))
    y = m @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(2):
        z, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ z)
    b = q.T @ m
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u, v = _fix_signs(q @ ub[:, :k], vt[:k].T)
    return SvdResult(U=u, S=s[:k], V=v)


def sparse_random_columns(p, k, seed):
    """Very sparse random projection columns, p x k.

    Entries are iid +sqrt(s) or -sqrt(s) each with probability 1/(2s)
    and 0 otherwise, with density parameter s = sqrt(p).  Columns are
    drawn sequentially from the seeded stream, so column j is identical
    for every k > j; this is what makes LFL/RP fits nest exactly.
    """
    if p < 1 or k < 1:
        raise RankRequestTooLarge(f"need p,k >= 1, got p={p}, k={k}")
    rng = np.random.default_rng(seed)
    s = np.sqrt(p)
    root_s = np.sqrt(s)
    half = 1.0 / (2.0 * s)
    # row j of the k x p draw is column j
    u = np.ascontiguousarray(rng.random((k, p)).T)
    return np.where(u < half, root_s, np.where(u < 2 * half, -root_s, 0.0))


def random_rotation(p, seed):
    """Haar-uniform rotation matrix (orthogonal, det = +1)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def implicit_cca_eigs(pooled_centered, class_means, pooled_mean, counts, d):
    """Top-d eigenvectors of S_X^+ S_B without forming any p x p matrix.

    S_X = sum_i (x_i - xbar)(x_i - xbar)^T is applied through the economy
    SVD of the pooled-centered data (pseudo-inverse by truncating singular
    values below PINV_RTOL * s1), and S_B = sum_c (n_c/n)(mu_c - xbar)
    (mu_c - xbar)^T through its rank-(C-1) factor W.  The nonzero
    eigenpairs of S_X^+ W W^T are recovered from the C x C symmetric
    matrix W^T S_X^+ W: if (W^T S_X^+ W) z = lam z then v = S_X^+ W z is
    an eigenvector with the same eigenvalue.

    Peak auxiliary storage is O(np + pd).
    """
    x = np.asarray(pooled_centered, dtype=np.float64)
    mu = np.asarray(class_means, dtype=np.float64)
    counts = np.asarray(counts)
    n = int(counts.sum())
    num_classes = counts.shape[0]
    if d > num_classes - 1:
        raise CcaRankExceeded(f"d={d} exceeds C-1={num_classes - 1}")

    # economy SVD of the n-dimensional column space of the centered data
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    keep = s > PINV_RTOL * s[0]
    if not np.any(keep):
        raise DegeneratePooledCovariance("all singular values below threshold")
    u = u[:, keep]
    inv_s2 = 1.0 / s[keep] ** 2

    w = (mu - np.asarray(pooled_mean)[:, None]) * np.sqrt(counts / n)
    # S_X^+ w  computed as U diag(1/s^2) (U^T w)
    sxw = u @ (inv_s2[:, None] * (u.T @ w))
    m = w.T @ sxw                      # C x C, symmetric PSD
    m = 0.5 * (m + m.T)
    lam, z = np.linalg.eigh(m)
    order = np.argsort(lam)[::-1][:d]
    vecs = sxw @ z[:, order]
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0):
        raise DegeneratePooledCovariance("degenerate CCA direction")
    return _fix_signs(vecs / norms)[0]


def _cholesky(cov):
    """Lower Cholesky factor of ``cov``, its upper triangle left as it was:
    LAPACK's dpotrf with cho_factor(cov, lower=True)'s flags and bits,
    without scipy's wrappers.  A NaN or infinite entry raises
    NonFiniteData (dpotrf would factor [[inf]]); a matrix that is not
    positive definite raises np.linalg.LinAlgError."""
    if not np.isfinite(cov).all():
        raise NonFiniteData("covariance contains NaN or Inf entries")
    chol, info = dpotrf(cov, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return chol


def _solve(chol, b):
    """cho_solve((chol, True), b) through LAPACK's dpotrs, without scipy's wrappers."""
    return dpotrs(chol, b, lower=1)[0]


def _factor(cov):
    chol = _cholesky(cov)
    return chol, 2.0 * np.sum(np.log(np.diag(chol)))


def _project(a, mean, cov):
    """(A' mean, A' cov A) for a dense or diagonal-vector covariance;
    unchanged when ``a`` is None."""
    if a is None:
        return mean, cov
    cov_a = a.T @ (cov[:, None] * a) if cov.ndim == 1 else a.T @ cov @ a
    return a.T @ mean, cov_a
