"""Closed-form proximal operators and the singular value shrinkage."""

import numpy as np
import pytest

import faceid.prox
from faceid.errors import ConfigError, NumericError
from faceid.prox import (
    project_nonneg,
    shrink_weighted,
    soft_threshold,
    svt,
)
from oracle import oracle_prox_nuclear, oracle_scalar_prox_grid, oracle_svt


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


@pytest.fixture(scope="module")
def svt_cases():
    """3000 pairs (M, singular values of M) for random shapes 2..30 x 2..30
    and scales 0.01-10: a third Gaussian, a third rank-deficient (a product
    through a thinner inner dimension), a third with repeated singular
    values."""
    rng = np.random.default_rng(14)
    cases = []
    for i in range(3000):
        r, c = (int(x) for x in rng.integers(2, 31, size=2))
        m = min(r, c)
        if i % 3 == 0:
            M = rng.normal(size=(r, c))
        elif i % 3 == 1:
            k = int(rng.integers(1, m))
            M = rng.normal(size=(r, k)) @ rng.normal(size=(k, c))
        else:
            U = np.linalg.qr(rng.normal(size=(r, m)))[0]
            V = np.linalg.qr(rng.normal(size=(c, m)))[0]
            M = (U * rng.choice([2.0, 1.0, 0.5], size=m)) @ V.T
        M *= 10.0 ** rng.uniform(-2.0, 1.0)
        cases.append((M, np.linalg.svd(M, compute_uv=False)))
    return cases


def test_svt_property_zero_at_sigma1(svt_cases):
    """tau = sigma_1 as the SVD reports it leaves nothing: the top eigenvalue
    of the Gram may round above sigma_1^2, and the precision band absorbs it."""
    nonzero = [M.shape for M, s in svt_cases if svt(M, float(s[0])).any()]
    assert not nonzero, f"{len(nonzero)} of {len(svt_cases)} nonzero, e.g. {nonzero[:5]}"


def test_svt_property_zero_threshold_reproduces_input(svt_cases):
    worst = max(np.linalg.norm(svt(M, 0.0) - M) / np.linalg.norm(M) for M, _ in svt_cases)
    assert worst <= 1e-10


def test_svt_property_matches_svd_formula(svt_cases):
    """At a threshold drawn inside the spectrum, at one of the singular values
    themselves, and past the spectrum, svt agrees with U max(S - tau, 0) V'."""
    rng = np.random.default_rng(15)
    worst = 0.0
    for M, s in svt_cases:
        for tau in (float(s[0]) * rng.uniform(0.01, 1.0), float(rng.choice(s)), 1.5 * float(s[0])):
            gap = np.abs(svt(M, tau) - oracle_svt(M, tau)).max() / np.linalg.norm(M)
            worst = max(worst, gap)
    assert worst <= 1e-12


def test_svt_wide_matrix_matches_svd_formula():
    rng = np.random.default_rng(16)
    M = rng.normal(size=(5, 12))
    for tau in (0.3, 1.0, 2.5):
        assert np.abs(svt(M, tau) - oracle_svt(M, tau)).max() <= 1e-12 * np.linalg.norm(M)


def test_svt_eigensolver_failure_is_numeric_error(monkeypatch):
    def no_convergence(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, n)), 1

    monkeypatch.setattr(faceid.prox, "dsyevd", no_convergence)
    with pytest.raises(NumericError, match=r"\(4, 3\) matrix \(max \|M\|=2\.000e\+00, LAPACK info 1\)"):
        svt(np.full((4, 3), 2.0), 0.5)


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
