"""Chernoff information between Gaussians and closed-form projection gaps.

Two conventions appear side by side and are labelled explicitly:

* ``scaled`` -- the Chernoff information proper; for equal covariances it
  equals delta' Sigma^-1 delta / 8 with optimizer t* = 1/2.
* ``raw`` -- the quadratic form delta' A (A' Sigma A)^-1 A' delta used by
  the projection-gap identities (scaled = raw / 8 when covariances are
  equal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGamma,
    NotPositiveDefinite,
    PooledDenominatorDegenerate,
    ShapeMismatch,
    SingularProjectedCov,
)
from .linalg import _cholesky, _factor, _project, _solve
from .model import as_matrix, cov_as_dense

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ChernoffReport:
    value: float
    t_star: float
    convention: str  # "scaled" or "raw"


def _check_pd(cov, name, mean_shape):
    """(cov, lower Cholesky factor, log-determinant) of a mean's covariance."""
    cov = np.asarray(cov, dtype=np.float64)
    if len(mean_shape) != 1 or cov.shape != mean_shape * 2:
        raise ShapeMismatch(f"{name} has shape {cov.shape}; the means have shape {mean_shape}")
    try:
        return (cov, *_factor(cov))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


def chernoff_divergence_t(f0, f1, t):
    """Chernoff divergence C_t between Gaussians f = (mean, covariance)."""
    mu0, sig0 = f0
    mu1, sig1 = f1
    diff = np.asarray(mu1, dtype=np.float64) - np.asarray(mu0, dtype=np.float64)
    sig0, _, logdet0 = _check_pd(sig0, "Sigma0", diff.shape)
    sig1, _, logdet1 = _check_pd(sig1, "Sigma1", diff.shape)
    _, chol_t, logdet_t = _check_pd(t * sig0 + (1.0 - t) * sig1,
                                    f"t Sigma0 + (1 - t) Sigma1 at t={t}", diff.shape)
    quad = diff @ _solve(chol_t, diff)
    return 0.5 * t * (1.0 - t) * quad + 0.5 * (logdet_t - t * logdet0 - (1.0 - t) * logdet1)


def _golden_max(fun, lo, hi, tol):
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = fun(x1)
    t = 0.5 * (a + b)
    return t, fun(t)


def chernoff_gaussian(f0, f1):
    """Chernoff information C(F0, F1) = sup_t C_t, scaled convention.

    C_t is concave in t: it is the skew Jensen gap t F(theta0) +
    (1-t) F(theta1) - F(t theta0 + (1-t) theta1) of the convex Gaussian
    log-normalizer F (Nielsen 2011, "Chernoff information of exponential
    families").  Golden-section search therefore finds the global maximum.
    """
    fun = lambda t: chernoff_divergence_t(f0, f1, t)
    t_star, val = _golden_max(fun, 1e-12, 1.0 - 1e-12, 1e-10)
    return ChernoffReport(value=float(val), t_star=float(t_star), convention="scaled")


def projected_chernoff_quadform(a, delta, sigma):
    """delta' A (A' Sigma A)^-1 A' delta (raw convention; scaled = /8)."""
    proj_delta, proj_cov = _project(as_matrix(a), np.asarray(delta, dtype=np.float64),
                                    np.asarray(sigma, dtype=np.float64))
    try:
        chol = _cholesky(proj_cov)
    except np.linalg.LinAlgError:
        # a relative ridge with no absolute floor: a zero projection stays singular
        d = proj_cov.shape[0]
        ridged = proj_cov + 1e-8 * np.trace(proj_cov) / d * np.eye(d)
        try:
            chol = _cholesky(ridged)
        except np.linalg.LinAlgError as exc:
            raise SingularProjectedCov("projected covariance is singular") from exc
    return float(proj_delta @ _solve(chol, proj_delta))


def _eigh_desc(sigma):
    lam, u = np.linalg.eigh(np.asarray(sigma, dtype=np.float64))
    return lam[::-1], u[:, ::-1]


def _truncated_pinv_quad(delta, lam, u, d):
    # delta' Sigma_d^+ delta with Sigma_d the rank-d spectral truncation
    if d == 0:
        return 0.0
    ud = u[:, :d]
    lam_d = lam[:d]
    good = lam_d > 1e-14 * max(lam[0], 1.0)
    coef = (ud.T @ delta)[good]
    return float(np.sum(coef * coef / lam_d[good]))


def _lol_quadform(delta, sigma, d):
    # closed-form raw quadform of the LOL map [delta | U_{d-1}]; also
    # returns Sigma's eigenpairs in descending order
    lam, u = _eigh_desc(sigma)
    ud1 = u[:, : d - 1]
    resid = delta - ud1 @ (ud1.T @ delta)
    num = float(delta @ resid)
    gamma = float(delta @ sigma @ delta) - float(
        np.sum((ud1.T @ delta) ** 2 * lam[: d - 1])
    )
    if gamma < 1e-14 * (delta @ delta) * lam[0]:
        raise DegenerateGamma("delta lies in the span of the top d-1 eigenvectors")
    return num * num / gamma + _truncated_pinv_quad(delta, lam, u, d - 1), lam, u


def lol_vs_lda_gap(delta, sigma, d):
    """Closed-form Chernoff gap (raw convention) between the LOL map
    [delta | U_{d-1}] and the eigenvector map U_d of Sigma."""
    delta = np.asarray(delta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.any(delta):
        return 0.0
    lol_term, lam, u = _lol_quadform(delta, sigma, d)
    return lol_term - _truncated_pinv_quad(delta, lam, u, d)


def lol_vs_pca_gap(delta, sigma, d):
    """Closed-form Chernoff gap (raw convention) between LOL and PCA on
    the pooled covariance Sigma + delta delta'/4."""
    delta = np.asarray(delta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.any(delta):
        return 0.0
    lol_term, _, _ = _lol_quadform(delta, sigma, d)
    pooled = sigma + 0.25 * np.outer(delta, delta)
    lam_p, u_p = _eigh_desc(pooled)
    q = _truncated_pinv_quad(delta, lam_p, u_p, d)
    denom = 4.0 - q
    if denom < 1e-12:
        raise PooledDenominatorDegenerate(f"4 - delta' pooled_d^+ delta = {denom}")
    return lol_term - 4.0 * q / denom


def pooled_top_eigvecs(delta, sigma, d):
    """Top-d eigenvectors of Sigma + delta delta'/4 (the PCA map)."""
    pooled = np.asarray(sigma, dtype=np.float64) + 0.25 * np.outer(delta, delta)
    _, u = _eigh_desc(pooled)
    return u[:, :d]


def min_pairwise_chernoff(model):
    """Multi-class rate: min over class pairs of the Chernoff information."""
    best = None
    for i in range(model.num_classes):
        for j in range(i + 1, model.num_classes):
            rep = chernoff_gaussian(
                (model.means[:, i], cov_as_dense(model.covariance_of(i))),
                (model.means[:, j], cov_as_dense(model.covariance_of(j))),
            )
            if best is None or rep.value < best.value:
                best = rep
    return best
