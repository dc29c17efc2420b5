"""Logistic residual weighting and the induced penalty integral."""

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import expit

from faceid.errors import ConfigError, NumericError
from faceid.weights import (
    ETA_FLOOR,
    WeightFunction,
    WeightVector,
    logistic_params,
    phi_value,
    weight_update,
)


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
    wf = WeightFunction.logistic_frozen(mu=2.0, eta=0.25)
    w = weight_update(np.array([0.5, -0.5]), wf)
    assert np.allclose(w.values, 0.5, atol=1e-15)


def test_weight_update_ceiling_at_zero_residual():
    # mu * eta = ZETA = 8 puts the zero-residual weight at expit(8)
    wf = WeightFunction.logistic_frozen(mu=8.0, eta=1.0)
    w = weight_update(np.array([0.0]), wf)
    assert w.values[0] == pytest.approx(0.9996646498695336, abs=1e-12)


def test_weight_update_constant_kind():
    w = weight_update(np.array([3.0, -7.0, 0.1]), WeightFunction.constant_one())
    assert np.array_equal(w.values, np.ones(3))


def test_weight_update_adaptive_matches_frozen_at_same_params():
    rng = np.random.default_rng(1)
    x = rng.normal(size=30)
    mu, eta = logistic_params(x)
    adaptive = weight_update(x, WeightFunction.logistic())
    frozen = weight_update(x, WeightFunction.logistic_frozen(mu, eta))
    assert np.array_equal(adaptive.values, frozen.values)


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
        wf = WeightFunction.logistic_frozen(*logistic_params(rng.normal(size=50)))
        w = weight_update(x, wf).values
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
    assert len(WeightVector(np.ones(5))) == 5


def test_weight_function_validation():
    with pytest.raises(ConfigError):
        WeightFunction.logistic(gamma=1.5)
    with pytest.raises(ConfigError):
        WeightFunction.logistic_frozen(mu=-1.0, eta=1.0)
    with pytest.raises(ConfigError):
        WeightFunction(kind="logistic", adaptive=False)  # frozen needs (mu, eta)
    with pytest.raises(ConfigError):
        WeightFunction(kind="huber", adaptive=True)


def test_phi_zero():
    wf = WeightFunction.logistic_frozen(mu=1.0, eta=1.0)
    assert phi_value(0.0, wf) == 0.0


def test_phi_constant_is_half_square():
    wf = WeightFunction.constant_one()
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3.0, 3.0, size=10):
        assert phi_value(x, wf) == pytest.approx(0.5 * x * x, abs=1e-10)


def test_phi_logistic_matches_trapezoid_oracle():
    wf = WeightFunction.logistic_frozen(mu=1.0, eta=1.0)
    # frozen from a 2e6-point trapezoid evaluation of the same integrand
    assert phi_value(1.0, wf) == pytest.approx(0.3100572534791233, abs=1e-8)
    s = np.linspace(0.0, 2.3, 400_001)
    ref = trapezoid(s * expit(1.0 * (1.0 - s * s)), s)
    assert phi_value(2.3, wf) == pytest.approx(float(ref), abs=1e-8)


def test_phi_steep_weights_monotone_and_saturating():
    # knee at sqrt(eta) = 1e-3: phi climbs over a tiny interval, then stays flat
    mu, eta = 8e6, 1e-6
    wf = WeightFunction.logistic_frozen(mu, eta)
    xs = np.concatenate([np.geomspace(1e-5, 1e-2, 301), np.linspace(1e-2, 1.0, 100)])
    vals = np.array([phi_value(x, wf) for x in np.concatenate([[0.0], xs])])
    assert (np.diff(vals) >= 0.0).all()
    ceiling = np.logaddexp(0.0, mu * eta) / (2.0 * mu)
    assert phi_value(1.0, wf) == pytest.approx(ceiling, rel=1e-9)


def test_phi_small_residual_limit():
    # phi(x) -> w(0) * x^2 / 2 as x -> 0, with relative error O(mu * x^2)
    mu, eta = 2.3, 0.7
    wf = WeightFunction.logistic_frozen(mu, eta)
    for x in np.geomspace(1e-8, 1e-4, 9):
        assert phi_value(x, wf) == pytest.approx(expit(mu * eta) * x * x / 2.0, rel=1e-7)


def test_phi_array_matches_scalar_calls():
    rng = np.random.default_rng(6)
    x = rng.normal(scale=2.0, size=(5, 7))
    for wf in (WeightFunction.logistic_frozen(mu=8e6, eta=1e-6),
               WeightFunction.logistic_frozen(mu=2.3, eta=0.7),
               WeightFunction.constant_one()):
        got = phi_value(x, wf)
        assert got.shape == x.shape
        assert np.array_equal(got, [[phi_value(v, wf) for v in row] for row in x])


def test_phi_is_even():
    wf = WeightFunction.logistic_frozen(mu=2.0, eta=0.5)
    assert phi_value(-1.3, wf) == phi_value(1.3, wf)


def test_phi_rejects_adaptive():
    with pytest.raises(ConfigError):
        phi_value(1.0, WeightFunction.logistic())


def test_phi_derivative_recovers_weights():
    # phi'(x) / x must reproduce w(x) since phi integrates s * w(s)
    wf = WeightFunction.logistic_frozen(mu=2.3, eta=0.7)
    rng = np.random.default_rng(5)
    h = 1e-5
    for x in rng.uniform(0.2, 2.0, size=8):
        deriv = (phi_value(x + h, wf) - phi_value(x - h, wf)) / (2.0 * h)
        w = float(expit(2.3 * (0.7 - x * x)))
        assert deriv / x == pytest.approx(w, abs=1e-6)
