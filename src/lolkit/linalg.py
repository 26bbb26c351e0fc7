"""Shared numerical primitives.

Seeds, truncated SVD (exact, from LAPACK or from the Gram matrix of a tall
matrix, and Halko-style randomized), very sparse random projection columns,
Haar-uniform rotations, the implicit-operator eigensolver used by low-rank
CCA, and the Cholesky and solve that the classifiers and the Chernoff
quadratic form share.
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

# An exact truncated SVD of a p x n matrix with p >= n comes from eigh of
# its n x n Gram matrix (Sirovich's method of snapshots; Hastie, Tibshirani
# & Friedman, ESL 18.3.5), the smaller of the two Gram matrices.  It is
# faster than LAPACK from p = n on once n >= 20, and a fixed few us slower
# at n = 8 (BENCH_cv_lda.json, "gram_trigger").
#
# eigh gives Gram eigenvalue j a relative error of about
# n * eps * lam_1 / lam_j.  The Gram path keeps the leading eigenvalues
# whose bound is at most GRAM_RTOL, that is s_j >= s_1 * sqrt(n * eps /
# GRAM_RTOL): 1.9e-4 * s_1 at n = 160.  Their U columns are orthonormal
# to within GRAM_RTOL / n (tests/test_linalg.py).
GRAM_RTOL = 1e-6

# A Gram matrix whose largest diagonal entry lies below this rounds at
# subnormal magnitudes (eps * lam_1 < tiny), so it is not used.
_GRAM_MIN_SCALE = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


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


def check_seed(seed):
    """Raise ShapeMismatch unless ``seed`` is a non-negative Python or numpy
    integer; a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ShapeMismatch(f"seed must be a non-negative integer, got {seed!r}")


def seed_sequence(seed, *keys):
    """The SeedSequence of ``seed`` alone, or of (seed, *keys): the one place
    a lolkit seed becomes numpy entropy.  ``default_rng(seed_sequence(s))``
    gives the stream ``default_rng(s)`` gives.  A seed that check_seed
    refuses raises ShapeMismatch."""
    check_seed(seed)
    return np.random.SeedSequence((seed, *keys) if keys else seed)


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


def _gram_svd(m, k):
    """The top w singular triplets (U, S, V) of the tall p x n matrix
    ``m`` from eigh(m.T @ m), w being the number of eigenvalues GRAM_RTOL
    resolves.  U = m V S^-1 is formed at the width w that m alone fixes,
    so its first k columns do not depend on k.  None when k > w, or when
    the Gram overflows or lies below _GRAM_MIN_SCALE (m's entries near
    1e+-160 or beyond)."""
    n = m.shape[1]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = m.T @ m
    if not (np.isfinite(g).all() and g.diagonal().max() >= _GRAM_MIN_SCALE):
        return None
    lam, v = np.linalg.eigh(g)
    lam, v = lam[::-1], v[:, ::-1]
    w = int(np.count_nonzero(lam > lam[0] * n * np.finfo(np.float64).eps / GRAM_RTOL))
    if k > w:
        return None
    s = np.sqrt(lam[:w])
    v = v[:, :w]
    return m @ (v / s), s, v


def truncated_svd(values, k, mode="auto", seed=0, oversample=10):
    """Top-k singular triplets of a p x n matrix.

    mode is "exact", "randomized", or "auto" (exact when min(p, n) <=
    EXACT_SVD_MAX_DIM).  An exact request for k < n triplets of a tall
    matrix (p >= n) takes the Gram path when k is at most the width w that
    its Gram matrix resolves (``_gram_svd``); every other exact request,
    one for all min(p, n) triplets included, is LAPACK's ``np.linalg.svd``.
    The Gram path's singular values have a relative error of at most about
    GRAM_RTOL, and its U columns are orthonormal, and agree with LAPACK's
    up to sign, to about GRAM_RTOL / n; LAPACK's are good to a few eps.
    Exact fits of one matrix nest bit for bit among all k < n up to w, and
    among all wider k.  Randomized mode is a Halko range finder with
    ``oversample`` extra columns and two power iterations, deterministic
    given ``seed``.
    """
    m = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NonFiniteData("matrix contains non-finite entries")
    p, n = m.shape
    mode = resolve_svd_mode(k, p, n, mode)

    if mode == "exact":
        # a request for all n triplets keeps LAPACK's bytes
        triplets = _gram_svd(m, k) if k < n <= p else None
        if triplets is None:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
            triplets = u, s, vt.T
        u, s, v = triplets
        u, v = _fix_signs(u[:, :k], v[:, :k])
        return SvdResult(U=u, S=s[:k], V=v)

    rng = np.random.default_rng(seed_sequence(seed))
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
    rng = np.random.default_rng(seed_sequence(seed))
    s = np.sqrt(p)
    root_s = np.sqrt(s)
    half = 1.0 / (2.0 * s)
    # row j of the k x p draw is column j
    u = np.ascontiguousarray(rng.random((k, p)).T)
    return np.where(u < half, root_s, np.where(u < 2 * half, -root_s, 0.0))


def random_rotation(p, seed):
    """Haar-uniform rotation matrix (orthogonal, det = +1)."""
    rng = np.random.default_rng(seed_sequence(seed))
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

