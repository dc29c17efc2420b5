"""The reference solvers and objective must stand on their own before they judge the engine."""

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import expit

from faceid.errors import ConfigError, NumericError
from faceid.prox import project_nonneg, soft_threshold, svt
from faceid.solver import SolverConfig
from faceid.weights import WeightFunction, logistic_params, weight_update
from helpers import orthonormal_dictionary, random_dictionary
from oracle import (
    nnls_kkt_residual,
    objective_value,
    oracle_prox_nuclear,
    oracle_scalar_prox_grid,
    oracle_weighted_nnls,
    phi_value,
    pinned_logistic_weights,
)


def test_nnls_orthonormal_unweighted_closed_form():
    rng = np.random.default_rng(0)
    T = orthonormal_dictionary(rng, 5, 4, 6)
    y = rng.normal(size=20)
    rep = oracle_weighted_nnls(y, T, np.ones(20), tol=1e-8)
    assert rep.converged
    assert np.abs(rep.solution - np.maximum(T.columns.T @ y, 0.0)).max() <= 1e-6


def test_nnls_zero_observation():
    rng = np.random.default_rng(1)
    T = random_dictionary(rng, 4, 3, 5, classes=1)
    rep = oracle_weighted_nnls(np.zeros(12), T, np.ones(12))
    assert rep.converged
    assert np.abs(rep.solution).max() <= 1e-8


def test_nnls_certificates_hold_on_random_instances():
    for seed in range(20):
        rng = np.random.default_rng(700 + seed)
        T = random_dictionary(rng, 5, 4, 7, classes=1)
        w = rng.uniform(0.05, 1.0, 20)
        y = rng.normal(size=20)
        rep = oracle_weighted_nnls(y, T, w, tol=1e-7)
        assert rep.converged
        assert rep.gap <= 1e-7
        assert nnls_kkt_residual(y, T, w, rep.solution) <= 1e-7
        assert rep.solution.min() >= 0.0


def test_nnls_rejects_nonpositive_weights():
    rng = np.random.default_rng(2)
    T = random_dictionary(rng, 4, 3, 5, classes=1)
    w = np.ones(12)
    w[3] = 0.0
    with pytest.raises(ConfigError):
        oracle_weighted_nnls(np.zeros(12), T, w)


def test_nnls_reports_budget_exhaustion():
    rng = np.random.default_rng(3)
    T = random_dictionary(rng, 5, 4, 7, classes=1)
    # Positive observation: the optimum is interior, so a = 0 cannot certify.
    y = rng.uniform(0.5, 1.0, 20)
    rep = oracle_weighted_nnls(y, T, np.ones(20), tol=1e-12, max_iter=2)
    assert not rep.converged
    assert rep.iterations == 2
    assert rep.gap > 1e-12


def test_kkt_residual_flags_perturbed_solutions():
    rng = np.random.default_rng(4)
    T = orthonormal_dictionary(rng, 5, 4, 6)
    y = rng.normal(size=20)
    exact = np.maximum(T.columns.T @ y, 0.0)
    assert nnls_kkt_residual(y, T, np.ones(20), exact) <= 1e-10
    off = exact + 0.05
    assert nnls_kkt_residual(y, T, np.ones(20), off) > 1e-3


def test_prox_nuclear_certifies_svt_and_rejects_fakes():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 5))
    X = svt(M, 0.4)
    assert oracle_prox_nuclear(M, 0.4, X, tol=1e-8)
    assert not oracle_prox_nuclear(M, 0.4, M, tol=1e-8)
    assert not oracle_prox_nuclear(M, 0.4, X + 0.01, tol=1e-8)
    assert oracle_prox_nuclear(M, 0.0, M, tol=1e-10)
    assert not oracle_prox_nuclear(M, 0.4, X[:5, :], tol=1e-8)
    with pytest.raises(ConfigError):
        oracle_prox_nuclear(M, -0.1, X)


def test_scalar_grid_nonneg_examples():
    got = oracle_scalar_prox_grid(np.array([-1.0, 0.3, 2.0]), 0.0, "nonneg")
    assert np.allclose(got, [0.0, 0.3, 2.0], atol=1e-6)


def test_scalar_grid_l1_examples():
    got = oracle_scalar_prox_grid(np.array([2.0, -2.0, 0.5]), 1.0, "l1")
    assert np.allclose(got, [1.0, -1.0, 0.0], atol=1e-6)


def test_scalar_grid_matches_closed_forms():
    rng = np.random.default_rng(6)
    v = rng.uniform(-4.0, 4.0, 25)
    for tau in (0.0, 0.3, 1.7):
        grid = oracle_scalar_prox_grid(v, tau, "l1")
        assert np.abs(grid - soft_threshold(v, tau)).max() <= 1e-6
    grid = oracle_scalar_prox_grid(v, 0.0, "nonneg")
    assert np.abs(grid - project_nonneg(v)).max() <= 1e-6


def test_scalar_grid_unknown_kind():
    with pytest.raises(ConfigError):
        oracle_scalar_prox_grid(np.zeros(2), 0.1, "huber")


def test_pinned_weights_match_package_weights():
    """Pinned at the (mu, eta) the package estimates from x, the oracle's
    weights are the package's weights bit for bit."""
    rng = np.random.default_rng(1)
    for size in (1, 30, 504):
        x = rng.normal(size=size)
        for gamma in (0.3, 0.6, 0.8, 1.0):
            mu, eta = logistic_params(x, gamma)
            package = weight_update(x, WeightFunction.logistic(gamma))
            assert np.array_equal(pinned_logistic_weights(x, mu, eta).values, package.values)


def test_pinned_params_are_validated():
    for mu, eta in ((-1.0, 1.0), (0.0, 1.0), (1.0, -0.5), (1.0, None), (None, 1.0)):
        with pytest.raises(ConfigError):
            pinned_logistic_weights(np.ones(3), mu, eta)
        with pytest.raises(ConfigError):
            phi_value(1.0, mu, eta)
    with pytest.raises(ConfigError):
        pinned_logistic_weights(np.ones(3), None, None)
    with pytest.raises(NumericError):
        pinned_logistic_weights(np.array([1.0, np.nan]), 2.0, 0.5)


def test_phi_zero():
    assert phi_value(0.0, mu=1.0, eta=1.0) == 0.0


def test_phi_constant_is_half_square():
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3.0, 3.0, size=10):
        assert phi_value(x) == pytest.approx(0.5 * x * x, abs=1e-10)


def test_phi_logistic_matches_trapezoid_oracle():
    # the constant is from a 2e6-point trapezoid evaluation of the same integrand
    assert phi_value(1.0, mu=1.0, eta=1.0) == pytest.approx(0.3100572534791233, abs=1e-8)
    s = np.linspace(0.0, 2.3, 400_001)
    ref = trapezoid(s * expit(1.0 * (1.0 - s * s)), s)
    assert phi_value(2.3, mu=1.0, eta=1.0) == pytest.approx(float(ref), abs=1e-8)


def test_phi_steep_weights_monotone_and_saturating():
    # knee at sqrt(eta) = 1e-3: phi climbs over a tiny interval, then stays flat
    mu, eta = 8e6, 1e-6
    xs = np.concatenate([np.geomspace(1e-5, 1e-2, 301), np.linspace(1e-2, 1.0, 100)])
    vals = np.array([phi_value(x, mu, eta) for x in np.concatenate([[0.0], xs])])
    assert (np.diff(vals) >= 0.0).all()
    ceiling = np.logaddexp(0.0, mu * eta) / (2.0 * mu)
    assert phi_value(1.0, mu, eta) == pytest.approx(ceiling, rel=1e-9)


def test_phi_small_residual_limit():
    # phi(x) -> w(0) * x^2 / 2 as x -> 0, with relative error O(mu * x^2)
    mu, eta = 2.3, 0.7
    for x in np.geomspace(1e-8, 1e-4, 9):
        assert phi_value(x, mu, eta) == pytest.approx(expit(mu * eta) * x * x / 2.0, rel=1e-7)


def test_phi_array_matches_scalar_calls():
    rng = np.random.default_rng(6)
    x = rng.normal(scale=2.0, size=(5, 7))
    for pinned in ((8e6, 1e-6), (2.3, 0.7), (None, None)):
        got = phi_value(x, *pinned)
        assert got.shape == x.shape
        assert np.array_equal(got, [[phi_value(v, *pinned) for v in row] for row in x])


def test_phi_is_even():
    assert phi_value(-1.3, 2.0, 0.5) == phi_value(1.3, 2.0, 0.5)


def test_phi_derivative_recovers_weights():
    # phi'(x) / x must reproduce the package's weights w(x) at the (mu, eta)
    # they were estimated with, since phi integrates s * w(s)
    rng = np.random.default_rng(5)
    h = 1e-5
    for gamma in (0.3, 0.6, 0.8):
        x = rng.uniform(0.2, 2.0, size=8)
        mu, eta = logistic_params(x, gamma)
        w = weight_update(x, WeightFunction.logistic(gamma)).values
        deriv = (phi_value(x + h, mu, eta) - phi_value(x - h, mu, eta)) / (2.0 * h)
        assert np.abs(deriv / x - w).max() <= 1e-6


def test_objective_zero_at_exact_nonnegative_fit():
    rng = np.random.default_rng(16)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    a = rng.uniform(0.0, 1.0, 6)
    y = T.columns @ a
    config = SolverConfig(weights=WeightFunction.constant_one())
    assert objective_value(a, y, T, config) == 0.0


def test_objective_constant_l2_matches_direct_formula():
    rng = np.random.default_rng(17)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    a = rng.normal(size=6)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(
        regularizer="l2", lambda_star=0.0, lambda_reg=0.01,
        weights=WeightFunction.constant_one(),
    )
    r = y - T.columns @ a
    direct = 0.5 * float(r @ r) + 0.01 * float(a @ a)
    assert objective_value(a, y, T, config) == pytest.approx(direct, rel=1e-10)


def test_objective_l1_and_infeasible_nonneg():
    rng = np.random.default_rng(18)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    a = rng.normal(size=6)
    l1 = SolverConfig(
        regularizer="l1", lambda_star=0.0, lambda_reg=0.2, weights=WeightFunction.constant_one()
    )
    r = y - T.columns @ a
    expect = 0.5 * float(r @ r) + 0.2 * float(np.abs(a).sum())
    assert objective_value(a, y, T, l1) == pytest.approx(expect, rel=1e-10)
    nonneg = SolverConfig(regularizer="nonneg", weights=WeightFunction.constant_one())
    a_bad = a.copy()
    a_bad[0] = -1.0
    assert objective_value(a_bad, y, T, nonneg) == np.inf


def test_objective_matches_quadrature_and_svd_oracle():
    rng = np.random.default_rng(19)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    a = rng.uniform(0.0, 0.5, 6)
    mu, eta = 2.0, 0.3
    config = SolverConfig(regularizer="nonneg", lambda_star=0.07)
    r = y - T.columns @ a
    ref = 0.0
    for x in r:
        s = np.linspace(0.0, abs(x), 200_001)
        ref += float(trapezoid(s * expit(mu * (eta - s * s)), s))
    ref += 0.07 * float(np.linalg.svd(r.reshape(4, 5, order="F"), compute_uv=False).sum())
    got = objective_value(a, y, T, config, mu, eta)
    assert got == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("low_rank", [True, False])
def test_objective_rejects_non_finite_coefficients(low_rank, bad):
    rng = np.random.default_rng(21)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(lambda_star=0.05 if low_rank else 0.0)
    a = rng.uniform(0.0, 0.5, 6)
    a[2] = bad
    with pytest.raises(NumericError, match="non-finite"):
        objective_value(a, rng.uniform(0.0, 1.0, 20), T, config, 2.0, 0.3)
