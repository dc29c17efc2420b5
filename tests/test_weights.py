"""Logistic residual weighting."""

import numpy as np
import pytest

from faceid.errors import ConfigError, NumericError
from faceid.weights import (
    ETA_FLOOR,
    WeightFunction,
    WeightVector,
    logistic_params,
    weight_update,
)
from oracle import pinned_logistic_weights


def test_logistic_params_order_statistic():
    mu, eta = logistic_params(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), gamma=0.6)
    # l = floor(0.6 * 5) = 3; the third largest squared entry is 9
    assert eta == 9.0
    assert mu == pytest.approx(8.0 / 9.0, rel=1e-15)


def test_logistic_params_all_equal():
    mu, eta = logistic_params(np.full(7, 3.0))
    assert eta == 9.0
    assert mu == pytest.approx(8.0 / 9.0, rel=1e-15)


def test_logistic_params_sign_blind():
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    assert logistic_params(x) == logistic_params(-x)


def test_logistic_params_partition_matches_sorted_reference():
    """eta is the l-th largest squared residual, as a full descending sort
    gives it, also when many residuals tie (rounded draws and exact zeros)."""
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 100, 504):
        for x in (
            rng.normal(size=size),
            np.round(rng.normal(size=size), 1),
            np.where(rng.uniform(size=size) < 0.5, 0.0, 0.25),
        ):
            for gamma in (0.01, 0.3, 0.6, 0.99, 1.0):
                ell = max(1, int(np.floor(gamma * size)))
                eta = max(float(np.sort(x * x)[::-1][ell - 1]), ETA_FLOOR)
                assert logistic_params(x, gamma) == (8.0 / eta, eta)


def test_logistic_params_zero_residual_floored():
    mu, eta = logistic_params(np.zeros(5))
    assert eta == ETA_FLOOR
    assert np.isfinite(mu)


def test_logistic_params_small_vector_keeps_l_at_least_one():
    # floor(0.6 * 1) = 0 would be out of range; l clamps to 1
    mu, eta = logistic_params(np.array([2.0]), gamma=0.6)
    assert eta == 4.0


def test_logistic_params_bad_inputs():
    with pytest.raises(ConfigError):
        logistic_params(np.array([]))
    with pytest.raises(ConfigError):
        logistic_params(np.ones(4), gamma=0.0)


def test_weight_update_half_at_eta():
    # every squared residual is 0.25, so eta = 0.25 and each weight is expit(0)
    w = weight_update(np.array([0.5, -0.5]), WeightFunction.logistic())
    assert np.allclose(w.values, 0.5, atol=1e-15)


def test_weight_update_ceiling_at_zero_residual():
    # eta = 1 (third largest of five squares), and mu * eta = ZETA = 8 puts
    # the zero-residual weight at expit(8)
    w = weight_update(np.array([0.0, 1.0, 1.0, -1.0, 1.0]), WeightFunction.logistic())
    assert w.values[0] == pytest.approx(0.9996646498695336, abs=1e-12)


def test_weight_update_constant_kind():
    w = weight_update(np.array([3.0, -7.0, 0.1]), WeightFunction.constant_one())
    assert np.array_equal(w.values, np.ones(3))


def test_weight_update_rejects_non_finite():
    wf = WeightFunction.logistic()
    with pytest.raises(NumericError):
        weight_update(np.array([1.0, np.nan]), wf)
    with pytest.raises(NumericError):
        weight_update(np.array([np.inf, 0.0]), wf)


def test_weights_monotone_in_magnitude():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = np.sort(np.abs(rng.normal(size=50)))
        w = weight_update(x, WeightFunction.logistic()).values
        assert (np.diff(w) <= 1e-15).all()
        w = pinned_logistic_weights(x, *logistic_params(rng.normal(size=50))).values
        assert (np.diff(w) <= 1e-15).all()


def test_weights_stay_inside_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(scale=3.0, size=64)
        w = weight_update(x, WeightFunction.logistic()).values
        assert (w > 0.0).all()
        assert (w < 1.0).all()


def test_weight_vector_validation():
    with pytest.raises(ConfigError):
        WeightVector(np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        WeightVector(np.array([1.0, -2.0]))
    with pytest.raises(ConfigError):
        WeightVector(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        WeightVector(np.array([]))
    assert WeightVector(np.ones(5)).values.size == 5


def test_weight_function_validation():
    with pytest.raises(ConfigError):
        WeightFunction.logistic(gamma=1.5)
    with pytest.raises(ConfigError):
        WeightFunction(kind="logistic", gamma=0.0)
    with pytest.raises(ConfigError):
        WeightFunction(kind="huber")
