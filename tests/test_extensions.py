import numpy as np
import pytest
from scipy import stats as sps

from lolkit.errors import (
    DegenerateTarget,
    NonFiniteData,
    ShapeMismatch,
    TooFewDims,
    TooManyBins,
    UnderdeterminedTest,
)
from lolkit.extensions import (
    hotelling_two_sample,
    lol_regression,
    mean_squared_error,
    pls1_regression,
    projected_test_power,
    quantile_partition,
)
from lolkit.model import DataMatrix
from lolkit.simulations import SimSpec, sample


def test_hotelling_identical_groups():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 20))
    res = hotelling_two_sample(DataMatrix(x), DataMatrix(x.copy()))
    assert res.t_squared < 1e-20
    assert res.p_value > 1 - 1e-10


def test_hotelling_d1_reduces_to_squared_t():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 15)) + 0.8
    b = rng.standard_normal((1, 12))
    res = hotelling_two_sample(DataMatrix(a), DataMatrix(b))
    t, p = sps.ttest_ind(a[0], b[0], equal_var=True)
    assert abs(res.t_squared - t**2) < 1e-10
    assert abs(res.p_value - p) < 1e-12


def _f_sf(res):
    return float(sps.f.sf(res.f_statistic, res.df1, res.df2))


def test_hotelling_p_value_is_bit_equal_to_scipy_stats_f_sf(monkeypatch):
    rng = np.random.default_rng(2)
    for d, n0, n1, shift in [(1, 5, 4, 0.3), (2, 8, 9, 0.0), (3, 20, 15, 1.0),
                             (5, 6, 7, 2.0), (4, 40, 40, 0.05), (2, 200, 150, 4.0)]:
        a = rng.standard_normal((d, n0)) + shift
        b = rng.standard_normal((d, n1))
        res = hotelling_two_sample(DataMatrix(a), DataMatrix(b))
        assert res.f_statistic > 0
        assert res.p_value == _f_sf(res), (d, n0, n1)
    # F = 0: equal group means
    a = rng.standard_normal((3, 10))
    res = hotelling_two_sample(DataMatrix(a), DataMatrix(a.copy()))
    assert res.f_statistic == 0.0
    assert res.p_value == _f_sf(res) == 1.0
    # F just below 0, as solve can give for a near-zero mean difference
    b = rng.standard_normal((3, 12))
    monkeypatch.setattr(np.linalg, "solve", lambda m, v: -1e-300 * v)
    res = hotelling_two_sample(DataMatrix(a), DataMatrix(b))
    assert res.f_statistic < 0
    assert res.p_value == _f_sf(res) == 1.0


def test_hotelling_underdetermined():
    with pytest.raises(UnderdeterminedTest):
        hotelling_two_sample(DataMatrix(np.zeros((5, 3))), DataMatrix(np.zeros((5, 3))))


@pytest.mark.parametrize("e0, e1", [
    ([[1e200, -1e200, 3e200]], [[2e200, 1e200, -1e200]]),  # the pooled covariance overflows
    ([[1.5e308, 1.5e308]], [[0.0, 1.0]]),                  # a mean overflows
], ids=["pooled-covariance", "mean"])
def test_hotelling_refuses_samples_whose_moments_overflow(e0, e1):
    # with the overflow ignored, the first pair gave t_squared=0.0 and p_value=1.0
    with pytest.raises(NonFiniteData, match="overflows"):
        hotelling_two_sample(DataMatrix(np.array(e0)), DataMatrix(np.array(e1)))


def test_hotelling_t_squared_that_overflows_is_inf_with_p_value_zero():
    res = hotelling_two_sample(DataMatrix(np.array([[1e200, 1e200]])),
                               DataMatrix(np.array([[1.0, 2.0, 3.0]])))
    assert (res.t_squared, res.p_value) == (np.inf, 0.0)


def test_hotelling_invariant_under_invertible_maps():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 30)) + 0.3
    b = rng.standard_normal((4, 25))
    base = hotelling_two_sample(DataMatrix(a), DataMatrix(b)).t_squared
    for seed in range(3):
        m = np.random.default_rng(seed).standard_normal((4, 4)) + np.eye(4)
        mapped = hotelling_two_sample(DataMatrix(m @ a), DataMatrix(m @ b)).t_squared
        assert abs(mapped - base) < 1e-8 * max(1.0, base)


def test_hotelling_level_calibration():
    # 2000 null reps at d=3: rejection rate within 3 sigma of alpha
    rng = np.random.default_rng(3)
    reps, alpha, d, n = 2000, 0.05, 3, 15
    rejections = 0
    for _ in range(reps):
        a = rng.standard_normal((d, n))
        b = rng.standard_normal((d, n))
        if hotelling_two_sample(DataMatrix(a), DataMatrix(b)).p_value < alpha:
            rejections += 1
    rate = rejections / reps
    assert abs(rate - alpha) < 3 * np.sqrt(alpha * (1 - alpha) / reps)


def test_projected_test_power_null_and_alternative():
    null_spec = SimSpec("toeplitz_diag", 30, 60, seed=0, params={"delta_scale": 0.0})
    power_null = projected_test_power(null_spec, "rp", 3, reps=200, seed=1, split=True)
    assert abs(power_null - 0.05) < 3 * np.sqrt(0.05 * 0.95 / 200) + 0.01
    alt_spec = SimSpec("toeplitz_diag", 30, 60, seed=0, params={"delta_scale": 6.0})
    power_alt = projected_test_power(alt_spec, "lol", 3, reps=100, seed=1)
    assert power_alt > power_null + 0.3


def test_projected_test_power_monotone_in_separation():
    powers = []
    for scale in (0.5, 3.0, 8.0):
        spec = SimSpec("toeplitz_diag", 20, 40, seed=0,
                       params={"delta_scale": scale})
        powers.append(projected_test_power(spec, "lol", 2, reps=80, seed=2))
    assert powers[0] <= powers[1] + 0.05 <= powers[2] + 0.10
    # determinism
    again = projected_test_power(SimSpec("toeplitz_diag", 20, 40, seed=0,
                                         params={"delta_scale": 3.0}),
                                 "lol", 2, reps=80, seed=2)
    assert again == powers[1]


def test_quantile_partition_basic():
    part = quantile_partition([1.0, 2.0, 3.0, 4.0], 2)
    assert np.array_equal(part.labels, [0, 0, 1, 1])
    assert part.num_classes == 2
    part = quantile_partition(np.arange(8.0), 8)
    assert part.num_classes == 8
    assert np.array_equal(np.sort(part.labels), np.arange(8))


def test_quantile_partition_ties_to_lower_class():
    part = quantile_partition([1.0, 1.0, 1.0, 2.0, 3.0, 4.0], 2)
    # the median is between 1 and 2; everything equal to a boundary drops
    # to the lower class
    assert part.labels[0] == part.labels[1] == part.labels[2] == 0


def test_quantile_partition_errors():
    with pytest.raises(TooManyBins):
        quantile_partition([1.0, 2.0], 3)
    with pytest.raises(TooManyBins):
        quantile_partition([1.0, 2.0], 1)
    with pytest.raises(DegenerateTarget):
        quantile_partition([5.0] * 10, 4)


def test_lol_regression_beats_noise_floor():
    sim = sample(SimSpec("regression_linear", 20, 400, seed=0))
    x = sim.data.values
    train = DataMatrix(x[:, :200])
    test = DataMatrix(x[:, 200:])
    y_train = sim.targets[:200]
    y_test = sim.targets[200:]
    model = lol_regression(train, y_train, num_bins=4, d=5)
    mse = mean_squared_error(model, test, y_test)
    assert mse < np.var(y_test)
    # deterministic per seed
    again = lol_regression(train, y_train, num_bins=4, d=5)
    assert np.array_equal(model.coef, again.coef)


def test_lol_regression_independent_target_near_variance():
    rng = np.random.default_rng(4)
    x_train = DataMatrix(rng.standard_normal((10, 300)))
    y_train = rng.standard_normal(300)
    x_test = DataMatrix(rng.standard_normal((10, 300)))
    y_test = rng.standard_normal(300)
    model = lol_regression(x_train, y_train, num_bins=4, d=3)
    mse = mean_squared_error(model, x_test, y_test)
    assert abs(mse - np.var(y_test)) < 0.35 * np.var(y_test)


def test_pls1_regression_recovery():
    # a noiseless linear target is recovered exactly once the weight
    # vectors span the full feature space, and already well at d=3
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 200))
    coef = np.array([2.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    y = coef @ x
    model = pls1_regression(DataMatrix(x[:, :150]), y[:150], 6)
    mse = mean_squared_error(model, DataMatrix(x[:, 150:]), y[150:])
    assert mse < 1e-10 * np.var(y)
    partial = pls1_regression(DataMatrix(x[:, :150]), y[:150], 3)
    assert mean_squared_error(partial, DataMatrix(x[:, 150:]), y[150:]) < 0.2 * np.var(y)


def test_pls1_regression_constant_target_is_degenerate():
    x = DataMatrix(np.random.default_rng(6).standard_normal((4, 20)))
    with pytest.raises(DegenerateTarget, match="zero cross-product"):
        pls1_regression(x, np.full(20, 3.0), 2)


def test_regression_targets_of_another_length_are_refused():
    rng = np.random.default_rng(7)
    x = DataMatrix(rng.standard_normal((4, 12)))
    y = rng.standard_normal(12)
    with pytest.raises(ShapeMismatch, match="length-12"):
        pls1_regression(x, y[:5], 2)
    model = pls1_regression(x, y, 2)
    with pytest.raises(ShapeMismatch, match="length-12"):
        mean_squared_error(model, x, y[:5])
    with pytest.raises(ShapeMismatch, match="length-12"):
        lol_regression(x, y[:5], num_bins=2, d=2)


def test_non_finite_or_non_vector_targets_are_refused():
    rng = np.random.default_rng(8)
    x = DataMatrix(rng.standard_normal((4, 12)))
    y = rng.standard_normal(12)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteData):
            pls1_regression(x, np.where(np.arange(12) == 3, bad, y), 2)
        with pytest.raises(NonFiniteData):
            lol_regression(x, np.where(np.arange(12) == 3, bad, y), num_bins=2, d=2)
        with pytest.raises(NonFiniteData):
            quantile_partition(np.where(np.arange(12) == 3, bad, y), 2)
    with pytest.raises(ShapeMismatch, match="vector"):
        quantile_partition(y.reshape(3, 4), 2)
    with pytest.raises(ShapeMismatch, match="numbers"):
        quantile_partition(["a"] * 12, 2)
    with pytest.raises(TooFewDims):
        pls1_regression(x, y, -1)
    model = pls1_regression(x, y, 2)
    assert mean_squared_error(model, x, np.full(12, 1e300)) == np.inf
