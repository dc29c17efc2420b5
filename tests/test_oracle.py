"""The reference solvers must stand on their own before they judge the engine."""

import numpy as np
import pytest

from faceid.errors import ConfigError
from faceid.prox import project_nonneg, soft_threshold, svt
from helpers import orthonormal_dictionary, random_dictionary
from oracle import (
    nnls_kkt_residual,
    oracle_prox_nuclear,
    oracle_scalar_prox_grid,
    oracle_weighted_nnls,
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
