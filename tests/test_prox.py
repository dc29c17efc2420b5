"""Closed-form proximal operators and the SVD shrinkage."""

import numpy as np
import pytest

from faceid.errors import ConfigError, NumericError
from faceid.prox import (
    project_nonneg,
    shrink_weighted,
    soft_threshold,
    svt,
)
from oracle import oracle_prox_nuclear, oracle_scalar_prox_grid


def test_svt_diagonal_matrix():
    out = svt(np.diag([3.0, 1.0]), 1.0)
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_svt_zero_threshold_reconstructs():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(9, 7))
    assert np.linalg.norm(svt(M, 0.0) - M) <= 1e-10


def test_svt_certified_by_subgradient_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        M = rng.normal(size=(12, 10))
        assert oracle_prox_nuclear(M, 0.3, svt(M, 0.3), tol=1e-8)


def test_svt_kills_spectrum_above_sigma1():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(8, 6))
    sigma1 = float(np.linalg.svd(M, full_matrices=False)[1][0])
    assert not svt(M, sigma1).any()
    assert not svt(M, sigma1 + 1.0).any()


def test_svt_rank_nonincreasing_in_tau():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(10, 8))
    taus = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
    ranks = [np.linalg.matrix_rank(svt(M, t), tol=1e-10) for t in taus]
    assert (np.diff(ranks) <= 0).all()


def test_svt_nonexpansive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        A = rng.normal(size=(7, 9))
        B = rng.normal(size=(7, 9))
        tau = float(rng.uniform(0.0, 2.0))
        lhs = np.linalg.norm(svt(A, tau) - svt(B, tau))
        assert lhs <= np.linalg.norm(A - B) + 1e-12


def test_svt_rejects_negative_tau():
    with pytest.raises(ConfigError):
        svt(np.eye(3), -0.1)


def test_svt_rejects_non_finite():
    M = np.eye(3)
    M[0, 0] = np.inf
    with pytest.raises(NumericError, match="non-finite"):
        svt(M, 0.5)


def test_svt_rejects_non_matrix():
    with pytest.raises(NumericError, match="2-d"):
        svt(np.ones(3), 0.5)


def test_shrink_weighted_hand_values():
    out = shrink_weighted(np.array([2.0, 4.0]), np.array([1.0, 3.0]), 1.0)
    assert np.allclose(out, [2.0 / 3.0, 4.0 / 7.0], atol=1e-15)


def test_shrink_weighted_vanishing_weights():
    r = np.array([1.5, -2.5, 0.3])
    out = shrink_weighted(r, np.full(3, 1e-30), 1.0)
    assert np.allclose(out, r, atol=1e-12)


def test_shrink_weighted_half_rho():
    # w = rho1 / 2 makes every denominator 2
    r = np.array([3.0, -1.0])
    out = shrink_weighted(r, np.array([0.35, 0.35]), 0.7)
    assert np.allclose(out, r / 2.0, atol=1e-15)


def test_shrink_weighted_sign_and_magnitude():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r = rng.normal(size=30)
        w = rng.uniform(1e-6, 1.0, size=30)
        rho1 = float(rng.uniform(0.1, 5.0))
        out = shrink_weighted(r, w, rho1)
        assert (np.sign(out) == np.sign(r)).all()
        assert (np.abs(out) <= np.abs(r) + 1e-15).all()


def test_shrink_weighted_rejects_nonpositive_rho():
    with pytest.raises(ConfigError):
        shrink_weighted(np.ones(2), np.ones(2), 0.0)


def test_project_nonneg_examples():
    assert np.array_equal(project_nonneg([1.0, -2.0, 3.0]), [1.0, 0.0, 3.0])
    v = np.array([0.5, 2.0, 0.0])
    assert np.array_equal(project_nonneg(v), v)
    assert not project_nonneg([-1.0, -0.5]).any()


def test_project_nonneg_idempotent():
    rng = np.random.default_rng(7)
    v = rng.normal(size=40)
    once = project_nonneg(v)
    assert np.array_equal(project_nonneg(once), once)


def test_soft_threshold_examples():
    assert np.allclose(soft_threshold([2.0, -0.5], 1.0), [1.0, 0.0], atol=1e-15)
    v = np.array([0.3, -1.7, 0.0])
    assert np.array_equal(soft_threshold(v, 0.0), v)


def test_soft_threshold_matches_grid_oracle():
    rng = np.random.default_rng(8)
    v = rng.uniform(-3.0, 3.0, size=25)
    tau = 0.8
    assert np.abs(soft_threshold(v, tau) - oracle_scalar_prox_grid(v, tau, "l1")).max() <= 1e-6


def test_project_nonneg_matches_grid_oracle():
    rng = np.random.default_rng(9)
    v = rng.uniform(-3.0, 3.0, size=25)
    assert np.abs(project_nonneg(v) - oracle_scalar_prox_grid(v, 0.0, "nonneg")).max() <= 1e-6
