"""Closed-form Chernoff gaps between projections of an equal-covariance
Gaussian pair.

Every value is in the ``raw`` convention: the quadratic form
q = delta' A (A' Sigma A)^-1 A' delta of a projection A.  The Chernoff
information proper of the projected pair is q / 8, and its equal-prior
Bayes error Phi(-sqrt(q) / 2).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateGamma,
    NonFiniteData,
    PooledDenominatorDegenerate,
    ShapeMismatch,
    SingularProjectedCov,
    TooFewDims,
)
from .linalg import _cholesky, _solve
from .model import Projection


def projected_chernoff_quadform(a, delta, sigma):
    """q = delta' A (A' Sigma A)^-1 A' delta (raw convention; scaled = /8),
    behind every gap and the Bayes error Phi(-sqrt(q) / 2).  ``a`` is a
    p x d array, a Projection or None (the identity); Sigma is p x p or a
    diagonal's vector.  Shapes that do not fit raise ShapeMismatch, a
    projection that overflows NonFiniteData, and a covariance singular
    even after a relative ridge SingularProjectedCov."""
    delta = np.asarray(delta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if a is not None:
        a = a.directions if isinstance(a, Projection) else np.asarray(a, dtype=np.float64)
    if delta.ndim != 1 or sigma.shape not in (delta.shape, delta.shape * 2) or (
            a is not None and (a.ndim != 2 or a.shape[:1] != delta.shape)):
        raise ShapeMismatch(f"A has shape {getattr(a, 'shape', None)}, delta {delta.shape} "
                            f"and Sigma {sigma.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if a is None and sigma.ndim == 1:
            if np.any(sigma <= 0):
                raise SingularProjectedCov("diagonal covariance has nonpositive entries")
            return float(np.sum(delta * delta / sigma))
        if a is not None:
            sigma = a.T @ (sigma[:, None] * a) if sigma.ndim == 1 else a.T @ sigma @ a
            delta = a.T @ delta
        if not np.isfinite(delta).all():
            raise NonFiniteData("projected mean difference contains NaN or Inf entries")
        try:
            chol = _cholesky(sigma)
        except np.linalg.LinAlgError:
            # a relative ridge with no absolute floor: a zero projection stays singular
            d = sigma.shape[0]
            ridged = sigma + 1e-8 * np.trace(sigma) / d * np.eye(d)
            try:
                chol = _cholesky(ridged)
            except np.linalg.LinAlgError as exc:
                raise SingularProjectedCov("projected covariance is singular") from exc
        return float(delta @ _solve(chol, delta))


def _eigh_desc(sigma):
    # eigh of an entry that overflowed would give NaN eigenvalues, and no
    # error; Sigma itself is finite, so only the pooled covariance can fail
    if not np.isfinite(sigma).all():
        raise NonFiniteData("the pooled covariance Sigma + delta delta'/4 overflows")
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


def _gap_inputs(delta, sigma, d):
    """(delta, Sigma) as float64 arrays for a closed-form gap at width d.
    Sigma not p x p for delta's length p raises ShapeMismatch, a NaN or
    infinite entry NonFiniteData, and d outside 1..p TooFewDims."""
    delta = np.asarray(delta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if delta.ndim != 1 or sigma.shape != delta.shape * 2:
        raise ShapeMismatch(f"Sigma has shape {sigma.shape}; delta has shape {delta.shape}")
    if not (np.isfinite(delta).all() and np.isfinite(sigma).all()):
        raise NonFiniteData("delta or Sigma contains NaN or Inf entries")
    if not 1 <= d <= delta.shape[0]:
        raise TooFewDims(f"d={d} outside 1..p={delta.shape[0]}")
    return delta, sigma


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
    # gamma must be positive: the bound is 0 for a zero Sigma, and abs keeps
    # it from going negative for an indefinite one
    bound = 1e-14 * float(delta @ delta) * abs(lam[0])
    if not np.isfinite([num, gamma, bound]).all():
        raise NonFiniteData("delta' delta or delta' Sigma delta overflows")
    if gamma <= bound:
        raise DegenerateGamma("delta lies in the span of the top d-1 eigenvectors")
    return num * num / gamma + _truncated_pinv_quad(delta, lam, u, d - 1), lam, u


def _finite_gap(gap):
    if not np.isfinite(gap):
        raise NonFiniteData(f"the gap's terms overflow: {gap}")
    return gap


def lol_vs_lda_gap(delta, sigma, d):
    """Closed-form Chernoff gap (raw convention) between the LOL map
    [delta | U_{d-1}] and the eigenvector map U_d of Sigma."""
    delta, sigma = _gap_inputs(delta, sigma, d)
    if not np.any(delta):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lol_term, lam, u = _lol_quadform(delta, sigma, d)
        return _finite_gap(lol_term - _truncated_pinv_quad(delta, lam, u, d))


def lol_vs_pca_gap(delta, sigma, d):
    """Closed-form Chernoff gap (raw convention) between LOL and PCA on
    the pooled covariance Sigma + delta delta'/4."""
    delta, sigma = _gap_inputs(delta, sigma, d)
    if not np.any(delta):
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lol_term, _, _ = _lol_quadform(delta, sigma, d)
        lam_p, u_p = _eigh_desc(sigma + 0.25 * np.outer(delta, delta))
        q = _truncated_pinv_quad(delta, lam_p, u_p, d)
    denom = 4.0 - q
    if denom < 1e-12:
        raise PooledDenominatorDegenerate(f"4 - delta' pooled_d^+ delta = {denom}")
    return _finite_gap(lol_term - 4.0 * q / denom)


def pooled_top_eigvecs(delta, sigma, d):
    """Top-d eigenvectors of Sigma + delta delta'/4 (the PCA map).  Inputs
    are checked as the gaps check them (see _gap_inputs)."""
    delta, sigma = _gap_inputs(delta, sigma, d)
    with np.errstate(over="ignore", invalid="ignore"):
        _, u = _eigh_desc(sigma + 0.25 * np.outer(delta, delta))
    return u[:, :d]
