"""Synthetic Gaussian samplers with their exact population models.

Each family returns both the sampled dataset and the population
:class:`~lolkit.model.GaussianModel`, so a fit can be scored against the
truth (``classifiers.bayes_error_two_class`` for the two-class shared
families).  Same (family, parameters, seed) always reproduces the dataset
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz

from .errors import BadRho, PTooSmall, ShapeMismatch
from .linalg import random_rotation, seed_sequence
from .model import DataMatrix, GaussianModel, LabeledDataset, gaussian_noise

FAMILIES = (
    "stacked_cigars",
    "trunk",
    "rotated_trunk",
    "trunk3",
    "robust",
    "cross",
    "toeplitz_diag",
    "toeplitz_dense",
    "regression_linear",
)

_DEFAULTS = {
    "stacked_cigars": {"a": 0.15, "b": 4.0},
    "trunk": {"b": 4.0},
    "rotated_trunk": {"b": 4.0, "rotation": None},
    "trunk3": {"b": 4.0},
    "robust": {"b": 4.0},
    "cross": {"a": 1.0, "b": 0.25},
    "toeplitz_diag": {"rho": 0.5, "frobenius": 50.0, "delta_scale": 1.0},
    "toeplitz_dense": {"rho": 0.5, "frobenius": 50.0, "delta_scale": 1.0},
    "regression_linear": {"rho": 0.5, "frobenius": 50.0},
}


@dataclass(frozen=True)
class SimSpec:
    family: str
    p: int
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ShapeMismatch(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.p < 1 or self.n < 1:
            raise ShapeMismatch("p and n must be positive")
        unknown = sorted(set(self.params) - set(_DEFAULTS[self.family]))
        if unknown:
            raise ShapeMismatch(f"family {self.family!r} takes no option {', '.join(unknown)}")
        merged = dict(_DEFAULTS[self.family])
        merged.update(self.params)
        object.__setattr__(self, "params", merged)


@dataclass(frozen=True)
class SimSample:
    dataset: LabeledDataset
    model: GaussianModel
    # Robust only: the inlier-only view used to train/test the classifier
    # while the full dataset (with outliers) is used to fit projections.
    inliers: LabeledDataset | None = None


@dataclass(frozen=True)
class RegressionSample:
    data: DataMatrix
    targets: np.ndarray
    coef: np.ndarray           # population coefficients, length p
    covariance: np.ndarray


def _trunk_means(p, b):
    odds = np.arange(1, 2 * p, 2, dtype=np.float64)   # 1, 3, ..., 2p-1
    return b / np.sqrt(odds)


def _trunk_diag(p):
    return 100.0 / np.sqrt(np.arange(p, 0, -1, dtype=np.float64))


def _binary_labels(n, rng):
    return (rng.random(n) < 0.5).astype(np.int64)


def _toeplitz_sigma(p, rho, frobenius):
    # rho^|i-j| scaled to the given Frobenius norm
    if not 0.0 < rho < 1.0:
        raise BadRho(f"rho must be in (0,1), got {rho}")
    if not frobenius > 0:
        raise ShapeMismatch(f"frobenius must be positive, got {frobenius}")
    sigma = toeplitz(rho ** np.arange(p, dtype=np.float64))
    sigma *= frobenius / np.linalg.norm(sigma, "fro")
    return sigma


def _build_model(spec: SimSpec, rng) -> GaussianModel:
    """Population model of a classification family.

    Consumes rng draws only for model-level randomness (random rotation,
    random mean direction), so the model is identical no matter how many
    samples are later drawn from it.
    """
    p = spec.p
    prm = spec.params

    if spec.family == "stacked_cigars":
        a, b = prm["a"], prm["b"]
        mu1 = np.full(p, a)
        if p >= 2:
            mu1[1] = b
        means = np.column_stack([np.zeros(p), mu1])
        diag = np.ones(p)
        if p >= 2:
            diag[1] = b
        return GaussianModel(np.array([0.5, 0.5]), means, (diag,), shared=True)

    if spec.family == "trunk":
        mu0 = _trunk_means(p, prm["b"])
        means = np.column_stack([mu0, -mu0])
        return GaussianModel(np.array([0.5, 0.5]), means, (_trunk_diag(p),), shared=True)

    if spec.family == "rotated_trunk":
        mu0 = _trunk_means(p, prm["b"])
        means = np.column_stack([mu0, -mu0])
        diag = _trunk_diag(p)
        q = prm["rotation"]
        if q is None:
            q = random_rotation(p, rng.integers(2**63))
        cov = (q * diag) @ q.T
        cov = 0.5 * (cov + cov.T)
        return GaussianModel(np.array([0.5, 0.5]), q @ means, (cov,), shared=True)

    if spec.family == "trunk3":
        mu0 = _trunk_means(p, prm["b"])
        means = np.column_stack([mu0, -mu0, np.zeros(p)])
        return GaussianModel(np.full(3, 1 / 3), means, (_trunk_diag(p),), shared=True)

    if spec.family == "robust":
        b = prm["b"]
        odds = np.arange(1, p + 1, 2, dtype=np.float64)  # 1, 3, 5, ... <= p
        mu0 = np.zeros(p)
        half = p // 2
        mu0[:half] = b / np.sqrt(odds[:half])
        means = np.column_stack([mu0, -mu0])
        diag_in = b**3 / np.sqrt(np.arange(1, p + 1, dtype=np.float64))
        return GaussianModel(np.array([0.5, 0.5]), means, (diag_in,), shared=True)

    if spec.family == "cross":
        if p < 3:
            raise PTooSmall(f"cross needs p >= 3, got p={p}")
        a, b = prm["a"], prm["b"]
        k = p // 3
        diag0 = np.full(p, b)
        diag0[:k] = a
        diag1 = np.full(p, b)
        diag1[k : 2 * k] = a
        means = np.zeros((p, 2))
        return GaussianModel(np.array([0.5, 0.5]), means, (diag0, diag1), shared=False)

    if spec.family in ("toeplitz_diag", "toeplitz_dense"):
        prm = spec.params
        lam = np.linalg.eigvalsh(_toeplitz_sigma(p, prm["rho"], prm["frobenius"]))[::-1].copy()
        mu1 = rng.standard_normal(p)
        means = np.column_stack([np.zeros(p), prm["delta_scale"] * mu1 / np.linalg.norm(mu1)])
        if spec.family == "toeplitz_diag":
            cov = lam  # diagonal with the Toeplitz eigenvalues
        else:
            q = random_rotation(p, rng.integers(2**63))
            cov = (q * lam) @ q.T
            cov = 0.5 * (cov + cov.T)
        return GaussianModel(np.array([0.5, 0.5]), means, (cov,), shared=True)

    raise ShapeMismatch(f"family {spec.family!r} has no Gaussian class model")


def _draw_class(model: GaussianModel, c, z):
    """Columns of class c of ``model`` from standard normal columns ``z``."""
    return model.means[:, c, None] + gaussian_noise(model.covariance_of(c), z)


def population_model(spec: SimSpec) -> GaussianModel:
    """The exact population model a spec samples from, without drawing
    any data (same seed gives the same model as :func:`sample`)."""
    return _build_model(spec, np.random.default_rng(seed_sequence(spec.seed)))


def sample(spec: SimSpec) -> SimSample | RegressionSample:
    """Draw n iid samples from the family's mixture; returns the data and
    the exact population parameters used."""
    rng = np.random.default_rng(seed_sequence(spec.seed))
    p, n = spec.p, spec.n
    prm = spec.params

    if spec.family == "regression_linear":
        if p < 2:
            raise PTooSmall(f"regression_linear needs p >= 2, got p={p}")
        sigma = _toeplitz_sigma(p, prm["rho"], prm["frobenius"])
        x = gaussian_noise(sigma, rng.standard_normal((p, n)))
        coef = np.zeros(p)
        coef[:2] = 1.0
        targets = coef @ x
        return RegressionSample(DataMatrix(x), targets, coef, sigma)

    model = _build_model(spec, rng)

    if spec.family == "robust":
        diag_out = prm["b"] ** 6 / np.sqrt(np.arange(1, p + 1, dtype=np.float64))
        is_out = rng.random(n) < 0.3  # outlier fraction
        y = _binary_labels(n, rng)
        z = rng.standard_normal((p, n))
        x = np.empty((p, n))
        inl = ~is_out
        x[:, inl] = model.means[:, y[inl]] + gaussian_noise(model.covariances[0], z[:, inl])
        x[:, is_out] = gaussian_noise(diag_out, z[:, is_out])
        full = LabeledDataset(DataMatrix(x), y, 2)
        inliers = LabeledDataset(DataMatrix(x[:, inl]), y[inl], 2)
        return SimSample(full, model, inliers=inliers)

    c = model.num_classes
    y = rng.integers(0, 3, n) if c == 3 else _binary_labels(n, rng)
    z = rng.standard_normal((p, n))
    if model.shared:
        x = model.means[:, y] + gaussian_noise(model.covariances[0], z)
    else:
        # one product per class, over that class's columns of z: the same
        # columns of a product over all of z can differ in the last bits
        x = np.empty((p, n))
        for j in range(c):
            mask = y == j
            x[:, mask] = _draw_class(model, j, z[:, mask])
    return SimSample(LabeledDataset(DataMatrix(x), y, c), model)
