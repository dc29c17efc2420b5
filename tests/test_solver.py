"""ADMM engine: individual updates, the coding step, and full solves."""

import logging
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri

import faceid.solver as solver
from faceid.classify import identify
from faceid.corruptions import corrupt, occlude_block, textured_patch
from faceid.errors import ConfigError, GeometryError, NumericError
from faceid.experiment import _image_seed, make_synthetic_benchmark
from faceid.model import Dictionary, FaceVector, ImageGeometry, build_dictionary, matricize
from faceid.prox import shrink_weighted
from faceid.solver import (
    INNER_TOL_RATIO,
    METHODS,
    RELAX,
    AdmmState,
    SolverConfig,
    a_update,
    coding_step,
    dual_update,
    e_update,
    method_config,
    precompute_gram,
    solve,
    solve_batch,
    z_update,
)
from faceid.weights import WeightFunction, logistic_params
from helpers import (
    CountingMatmul,
    as_float32,
    atoms_of,
    coded_coefficients,
    flat_start,
    lower_gather_cap,
    orthonormal_dictionary,
    random_dictionary,
    record_factorizations,
    tag_restrictions,
)
from oracle import objective_value


def _state(rng, T, config, y=None, scale=0.1):
    """AdmmState with small random content, dimensioned for T, carrying, when
    the observation y is given, the residual res = y - T.columns @ a that
    coding_step keeps."""
    d, n = T.columns.shape
    drop_split = config.regularizer == "l2"
    a = rng.normal(scale=scale, size=n)
    return AdmmState(
        a=a,
        z=None if drop_split else rng.uniform(0.0, scale, size=n),
        e=rng.normal(scale=scale, size=d),
        u1=rng.normal(scale=scale, size=d),
        u2=rng.normal(scale=scale, size=n),
        w=rng.uniform(0.1, 1.0, size=d),
        res=None if y is None else y - T.columns @ a,
    )


def _one_class_per_column(columns):
    """Dictionary over unit columns as given, one class each, on a d x 1 grid."""
    d, n = columns.shape
    return Dictionary(columns, np.arange(n), ImageGeometry(d, 1), tuple(range(n)), n)


def test_precompute_gram_identity_dictionary():
    cache = precompute_gram(_one_class_per_column(np.eye(5)), 0.3)
    b = np.arange(1.0, 6.0)
    assert np.allclose(cache.apply(b), b / 1.3, atol=1e-12)


def test_precompute_gram_single_unit_column():
    t = np.array([[0.6], [0.8]])
    cache = precompute_gram(_one_class_per_column(t), 0.25)
    assert cache.apply(np.array([2.0]))[0] == pytest.approx(2.0 / 1.25, rel=1e-12)


def test_precompute_gram_solves_shifted_system():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(20, 8))
    A /= np.linalg.norm(A, axis=0)
    cache = precompute_gram(_one_class_per_column(A), 0.1)
    b = rng.normal(size=8)
    x = cache.apply(b)
    assert np.linalg.norm((A.T @ A + 0.1 * np.eye(8)) @ x - b) <= 1e-8


def test_precompute_gram_rejects_nonpositive_ratio():
    with pytest.raises(ConfigError):
        precompute_gram(_one_class_per_column(np.eye(3)), 0.0)


def test_precompute_gram_counts_factorizations(spy):
    """precompute_gram factors nothing; the cache's first apply factors
    T'T + ratio I once, and every later apply reuses that inverse."""
    factorizations = spy("dpotrf")
    cache = precompute_gram(_one_class_per_column(np.eye(4)), 0.5)
    assert len(factorizations) == 0
    for _ in range(3):
        cache.apply(np.ones(4))
    assert len(factorizations) == 1


@pytest.fixture(scope="module", params=[(24, 21, 60), (96, 84, 722)], ids=["n60", "n722"])
def gram_dictionary(request):
    """Positive random dictionaries at the benchmark (24x21, n=60) and paper
    (96x84, n=722) shapes."""
    rows, cols, n = request.param
    return random_dictionary(np.random.default_rng(n), rows, cols, n, classes=10)


@pytest.mark.parametrize("regularizer", ["nonneg", "l1", "l2"])
def test_gram_apply_matches_cho_solve(gram_dictionary, regularizer):
    """The stored inverse gives the Cholesky solution at the ratio of each
    kind: rho2 / rho1 = 0.1 for nonneg and l1, 2 lambda_reg / rho1 = 2e-3 for
    l2."""
    T = gram_dictionary
    A = T.columns
    n = A.shape[1]
    ratio = SolverConfig(regularizer=regularizer).gram_ratio
    cache = precompute_gram(T, ratio)
    factor = cho_factor(A.T @ A + ratio * np.eye(n), lower=True)
    rng = np.random.default_rng(1)
    for _ in range(5):
        b = A.T @ rng.uniform(size=A.shape[0]) + rng.normal(size=n)
        ref = cho_solve(factor, b)
        assert np.linalg.norm(cache.apply(b) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [50, 60])
def test_float32_gram_apply_matches_cho_solve_in_float64(n):
    """float32 columns: the inverse is that of the float64 Gram of the same
    float32 values, to the float64 test's 1e-12, and exactly symmetric. At
    d = 504 the blocks of n // 10 rows leave a short last block for n = 50 and
    none for n = 60. The l2 ratio is the smallest, so its Gram is the worst
    conditioned."""
    T = as_float32(random_dictionary(np.random.default_rng(n), 24, 21, n, classes=10))
    A = T.columns.astype(np.float64)
    ratio = SolverConfig(regularizer="l2").gram_ratio
    cache = precompute_gram(T, ratio)
    factor = cho_factor(A.T @ A + ratio * np.eye(n), lower=True)
    rng = np.random.default_rng(1)
    for _ in range(5):
        b = A.T @ rng.uniform(size=A.shape[0]) + rng.normal(size=n)
        ref = cho_solve(factor, b)
        assert np.linalg.norm(cache.apply(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    inverse = cache.apply(np.eye(n))
    assert inverse.dtype == np.float64 and np.array_equal(inverse, inverse.T)


def test_gram_inverse_is_exactly_symmetric(gram_dictionary):
    n = gram_dictionary.columns.shape[1]
    inverse = precompute_gram(gram_dictionary, 0.1).apply(np.eye(n))
    assert np.array_equal(inverse, inverse.T)


def test_precompute_gram_float64_inverse_is_that_of_numpys_gram(gram_dictionary):
    """dsyrk's lower triangle of T'T is numpy's A.T @ A bit for bit, so the
    float64 inverse is the one factored from numpy's Gram."""
    A = gram_dictionary.columns
    n = A.shape[1]
    gram = A.T @ A
    gram.flat[:: n + 1] += 0.1
    factor, lower = cho_factor(gram.T, lower=True, overwrite_a=True, check_finite=False)
    inverse, _ = dpotri(factor, lower=lower, overwrite_c=True)
    for i in range(1, n):
        inverse[:i, i] = inverse[i, :i]
    assert np.array_equal(precompute_gram(gram_dictionary, 0.1).apply(np.eye(n)), inverse)


def _gram_peak_over_n_by_n(T):
    """Peak bytes traced while a cache's first apply forms its inverse, over
    8 n^2."""
    n = T.columns.shape[1]
    cache, b = precompute_gram(T, 0.1), np.ones(n)
    tracemalloc.start()
    try:
        cache.apply(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def test_precompute_gram_allocates_one_n_by_n_array(gram_dictionary):
    """Apart from T'T, which the factor and then the inverse overwrite, the
    first apply of a cache allocates nothing n x n."""
    assert _gram_peak_over_n_by_n(gram_dictionary) <= 1.25


def test_precompute_gram_float32_allocates_one_n_by_n_array(gram_dictionary):
    """float32 columns add one float64 block of a tenth of n rows, under the
    same bound."""
    assert _gram_peak_over_n_by_n(as_float32(gram_dictionary)) <= 1.25


def test_e_update_low_rank_off_equals_zero_threshold(spy):
    rng = np.random.default_rng(1)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    assert not config.low_rank
    state = _state(rng, T, config, y)
    svt_calls = spy("svt")
    r = y - T.columns @ state.a + state.u1 / config.rho1
    cache = precompute_gram(T, config.gram_ratio)
    assert np.array_equal(e_update(state, cache, config), shrink_weighted(r, state.w, config.rho1))
    assert svt_calls == []


def test_e_update_vanishing_weights_pass_residual_through():
    rng = np.random.default_rng(2)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, config, y)
    state.w = np.full(20, 1e-30)
    r = y - T.columns @ state.a + state.u1 / config.rho1
    assert np.allclose(e_update(state, precompute_gram(T, config.gram_ratio), config), r, atol=1e-12)


def test_e_update_low_rank_contracts_nuclear_norm():
    rng = np.random.default_rng(3)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    lr = SolverConfig(lambda_star=0.05)
    flat = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, lr, y)
    cache = precompute_gram(T, lr.gram_ratio)
    shrunk = e_update(state, cache, flat)
    low_rank = e_update(state, cache, lr)
    nuc = lambda v: np.linalg.svd(v.reshape(4, 5, order="F"), compute_uv=False).sum()
    assert nuc(low_rank) <= nuc(shrunk) + 1e-12


def test_e_update_follows_carried_residual():
    """e_update reads the residual the state carries, not y - T a afresh."""
    rng = np.random.default_rng(4)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, config)
    state.res = y - (T.columns @ state.a + rng.normal(size=20))
    r = state.res + state.u1 / config.rho1
    cache = precompute_gram(T, config.gram_ratio)
    assert np.array_equal(e_update(state, cache, config), shrink_weighted(r, state.w, config.rho1))


def test_z_update_nonneg_projection():
    config = SolverConfig(regularizer="nonneg")
    state = AdmmState(
        a=np.array([0.2, -0.1]), z=np.zeros(2), e=np.zeros(4),
        u1=np.zeros(4), u2=np.zeros(2), w=np.ones(4),
    )
    assert np.array_equal(z_update(state, config), [0.2, 0.0])


def test_z_update_l1_zero_penalty_is_identity():
    config = SolverConfig(regularizer="l1", lambda_reg=0.0)
    v = np.array([0.4, -0.2, 0.0])
    state = AdmmState(
        a=v.copy(), z=np.zeros(3), e=np.zeros(4), u1=np.zeros(4), u2=np.zeros(3), w=np.ones(4)
    )
    assert np.array_equal(z_update(state, config), v)


def test_z_update_rejects_l2_kind():
    config = SolverConfig(regularizer="l2")
    state = AdmmState(
        a=np.zeros(2), z=None, e=np.zeros(4), u1=np.zeros(4), u2=np.zeros(2), w=np.ones(4)
    )
    with pytest.raises(ConfigError):
        z_update(state, config)


def test_a_update_zero_right_hand_side():
    rng = np.random.default_rng(5)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig()
    cache = precompute_gram(T, config.gram_ratio)
    y = rng.uniform(0.0, 1.0, 20)
    state = AdmmState(
        a=np.zeros(6), z=np.zeros(6), e=y.copy(), u1=np.zeros(20), u2=np.zeros(6), w=np.ones(20)
    )
    assert np.abs(a_update(state, y, cache, config)).max() <= 1e-14


def test_a_update_orthonormal_closed_form():
    rng = np.random.default_rng(6)
    T = orthonormal_dictionary(rng, 6, 4, 8)
    config = SolverConfig()
    r = config.gram_ratio
    cache = precompute_gram(T, r)
    y = rng.normal(size=24)
    state = _state(rng, T, config)
    got = a_update(state, y, cache, config)
    rhs = T.columns.T @ (y - state.e + state.u1 / config.rho1)
    rhs = rhs + r * state.z - state.u2 / config.rho1
    assert np.allclose(got, rhs / (1.0 + r), atol=1e-8)


def test_a_update_satisfies_normal_equations():
    rng = np.random.default_rng(7)
    T = random_dictionary(rng, 5, 5, 9, classes=3)
    for kind in ("nonneg", "l1", "l2"):
        config = SolverConfig(regularizer=kind)
        cache = precompute_gram(T, config.gram_ratio)
        y = rng.uniform(0.0, 1.0, 25)
        state = _state(rng, T, config)
        a = a_update(state, y, cache, config)
        rhs = T.columns.T @ (y - state.e + state.u1 / config.rho1)
        if kind != "l2":
            rhs = rhs + (config.rho2 / config.rho1) * state.z - state.u2 / config.rho1
        lhs = (T.columns.T @ T.columns + config.gram_ratio * np.eye(9)) @ a
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_admm_state_take_selects_the_columns_of_every_set_field():
    """AdmmState.take(keep) selects the kept columns of every field that is
    set, the (d, B) and (n, B) iterates and the per-column counts, flags and
    residuals alike, as copies; a field that is None stays None."""
    rng = np.random.default_rng(70)
    d, n, m = 6, 4, 3
    state = AdmmState(
        a=rng.normal(size=(n, m)), z=None, e=rng.normal(size=(d, m)), u1=rng.normal(size=(d, m)),
        u2=rng.normal(size=(n, m)), w=rng.uniform(size=(d, m)), res=rng.normal(size=(d, m)),
        iterations=np.array([3, 5, 7]), converged=np.array([True, False, True]),
        fit_residual=rng.uniform(size=m), split_residual=None,
    )
    for keep in (np.array([True, False, True]), np.array([2])):
        taken = state.take(keep)
        assert taken.z is None and taken.split_residual is None
        for name, v in vars(state).items():
            if v is not None:
                got = getattr(taken, name)
                assert np.array_equal(got, v[..., keep]) and got.shape[-1] == np.arange(m)[keep].size, name
                assert not np.shares_memory(got, v), name


def test_coding_step_rejects_mismatched_cache():
    rng = np.random.default_rng(8)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig()
    y = rng.uniform(0.0, 1.0, 20)
    small = random_dictionary(rng, 4, 5, 4, classes=2)
    other_ratio = precompute_gram(T, 5.0)
    with pytest.raises(ConfigError, match="gram cache ratio"):
        coding_step(y[:, None], other_ratio, config, flat_start(T, y[:, None], np.ones((20, 1))))
    for foreign in (other_ratio, precompute_gram(small, config.gram_ratio)):
        with pytest.raises(ConfigError, match="gram cache"):
            solve(y, T, config, cache=foreign)


def test_solve_rejects_cache_of_same_sized_dictionary():
    """Two galleries of the same size and ratio: each cache serves only the
    columns it was built from."""
    rng = np.random.default_rng(30)
    T1, T2 = (random_dictionary(rng, 24, 21, 60, classes=10) for _ in range(2))
    config = method_config("F-LR-IRNNLS")
    y = FaceVector(rng.uniform(0.0, 1.0, T1.d), T1.geometry).normalized()
    cache1 = precompute_gram(T1, config.gram_ratio)
    solve(y, T1, config, cache=cache1)
    with pytest.raises(ConfigError, match="gram cache was built for another dictionary"):
        solve_batch([y, y], T2, config, cache1)
    with pytest.raises(ConfigError, match="gram cache was built for another dictionary"):
        solve(y, T2, config, cache=cache1)


def test_solve_refuses_a_cache_of_other_columns_or_geometry_before_any_step(monkeypatch):
    """solve and solve_batch check a supplied cache once, before any coding
    step: one built from other columns (another dictionary's, or a copy of
    T's) or from T's own columns under another geometry is refused with
    ConfigError; T's own cache is accepted."""
    rng = np.random.default_rng(31)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = method_config("F-IRNNLS")
    y = FaceVector(rng.uniform(0.0, 1.0, T.d), T.geometry).normalized()
    entered = []
    step = solver.coding_step
    monkeypatch.setattr(solver, "coding_step", lambda *args, **kwargs: entered.append(args) or step(*args, **kwargs))
    reshaped = replace(T, geometry=ImageGeometry(5, 4))
    assert reshaped.columns is T.columns
    for other in (random_dictionary(rng, 4, 5, 6, classes=2), replace(T, columns=T.columns.copy()), reshaped):
        foreign = precompute_gram(other, config.gram_ratio)
        with pytest.raises(ConfigError, match="gram cache was built for another dictionary's columns or geometry"):
            solve(y, T, config, cache=foreign)
        with pytest.raises(ConfigError, match="gram cache was built for another dictionary's columns or geometry"):
            solve_batch([y, y], T, config, foreign)
    assert entered == []
    solve_batch([y, y], T, config, precompute_gram(T, config.gram_ratio))
    assert entered


def test_solve_refuses_an_observation_of_another_geometry():
    """A FaceVector on another grid of the same d is refused before any
    step, since the low-rank step would code it on T's grid; a bare array is
    read on T's grid and codes as its FaceVector on that grid does."""
    rng = np.random.default_rng(41)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = method_config("F-LR-IRNNLS")
    y = FaceVector(rng.uniform(0.0, 1.0, T.d), T.geometry).normalized()
    turned = FaceVector(matricize(y).T.reshape(-1, order="F"), ImageGeometry(5, 4))
    with pytest.raises(GeometryError, match="observation geometry 5x4 does not match dictionary 4x5"):
        solve(turned, T, config)
    with pytest.raises(GeometryError, match="observation geometry 5x4"):
        solve_batch([y, turned], T, config)
    assert np.array_equal(solve(y.values, T, config).a, solve(y, T, config).a)


def test_dual_update_fixed_at_feasibility():
    rng = np.random.default_rng(9)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    a = rng.uniform(0.0, 1.0, 6)
    y = rng.uniform(0.0, 1.0, 20)
    state = AdmmState(
        a=a, z=a.copy(), e=y - T.columns @ a,
        u1=rng.normal(size=20), u2=rng.normal(size=6), w=np.ones(20),
    )
    u1, u2, _ = dual_update(state, y, precompute_gram(T, 0.1), 1.0, 0.1)
    assert np.allclose(u1, state.u1, atol=1e-12)
    assert np.allclose(u2, state.u2, atol=1e-12)


def test_dual_update_single_step_is_scaled_residual():
    rng = np.random.default_rng(10)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig()
    state = _state(rng, T, config)
    state.u1 = np.zeros(20)
    state.u2 = np.zeros(6)
    y = rng.uniform(0.0, 1.0, 20)
    u1, u2, _ = dual_update(state, y, precompute_gram(T, config.gram_ratio), 2.0, 0.3)
    assert np.allclose(u1, 2.0 * (y - T.columns @ state.a - state.e), atol=1e-12)
    assert np.allclose(u2, 0.3 * (state.a - state.z), atol=1e-12)


def test_dual_update_l2_leaves_u2_alone():
    rng = np.random.default_rng(11)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(regularizer="l2")
    state = _state(rng, T, config)
    _, u2, _ = dual_update(state, np.zeros(20), precompute_gram(T, config.gram_ratio), 1.0, 0.1)
    assert u2 is state.u2


def test_coding_step_reaches_feasible_reconstruction():
    rng = np.random.default_rng(12)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    a_true = rng.uniform(0.0, 1.0, 8)
    y = T.columns @ a_true
    config = SolverConfig(
        regularizer="nonneg", lambda_star=0.0, weights=WeightFunction.constant_one()
    )
    cache = precompute_gram(T, config.gram_ratio)
    res = coding_step(y[:, None], cache, config, flat_start(T, y[:, None], np.ones((25, 1))))
    assert res.converged.tolist() == [True]
    assert res.fit_residual[0] <= config.eps1
    assert res.split_residual[0] <= config.eps2
    assert np.linalg.norm(y - T.columns @ res.a[:, 0]) <= config.eps1


def test_coding_step_dimension_checks():
    rng = np.random.default_rng(13)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(lambda_star=0.0)
    cache = precompute_gram(T, config.gram_ratio)
    y = np.zeros((20, 1))
    start = flat_start(T, y, np.ones((20, 1)))
    with pytest.raises(GeometryError):
        coding_step(np.zeros((7, 1)), cache, config, replace(start, w=np.ones((7, 1))))
    with pytest.raises(GeometryError):  # one probe is still a column
        coding_step(np.zeros(20), cache, config, replace(start, w=np.ones(20)))
    with pytest.raises(GeometryError, match=r"start\.w"):
        coding_step(y, cache, config, replace(start, w=np.ones((20, 2))))
    with pytest.raises(GeometryError, match=r"start\.a"):
        coding_step(y, cache, config, replace(start, a=np.zeros((3, 1))))
    with pytest.raises(GeometryError):
        coding_step(np.zeros((20, 2)), cache, config, replace(start, w=np.ones((20, 2))))
    for u1, u2, name in [(0.0, 0.0, "u1"), (np.zeros((3, 1)), np.zeros((6, 1)), "u1"),
                         (np.zeros((20, 1)), np.zeros((3, 1)), "u2"), (np.zeros(20), np.zeros(6), "u1")]:
        with pytest.raises(GeometryError, match=rf"start\.{name}"):
            coding_step(y, cache, config, replace(start, u1=u1, u2=u2))
    y2 = np.zeros((20, 2))
    start2 = flat_start(T, y2, np.ones((20, 2)))
    for tol in (np.full(3, 1e-2), np.full((2, 1), 1e-2)):
        with pytest.raises(GeometryError, match="tol"):
            coding_step(y2, cache, config, start2, tol=tol)
    # One tolerance serves every column, as a list of one per column does.
    assert np.array_equal(coding_step(y2, cache, config, start2, tol=0.5).a,
                          coding_step(y2, cache, config, start2, tol=[0.5, 0.5]).a)


def test_coding_step_warm_start_carries_its_residual():
    rng = np.random.default_rng(13)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(lambda_star=0.0)
    cache = precompute_gram(T, config.gram_ratio)
    y = rng.uniform(0.0, 1.0, (20, 1))
    a0 = rng.uniform(0.0, 0.5, (6, 1))
    flat = flat_start(T, y, np.ones((20, 1)))
    with pytest.raises(GeometryError, match=r"start\.res"):
        coding_step(y, cache, config, replace(flat, a=a0, res=np.zeros((7, 1))))
    for step in (
        coding_step(y, cache, config, flat),
        coding_step(y, cache, config, replace(flat, a=a0, res=y - T.columns @ a0)),
    ):
        assert np.array_equal(step.res, y - T.columns @ step.a)


@pytest.mark.parametrize("name", ["F-IRNNLS", "F-LR-IRNNLS", "F-IRLS"])
def test_coding_step_reads_only_the_five_fields_of_its_start(name):
    """A coding step reads its start's a, res, u1, u2 and w and writes none
    of them: with those read-only and e and z filled with NaN, a batch of two
    probes returns the bits it returns from a start whose e and z are None,
    and the NaN start is left as it was."""
    y, T = _occluded_column_instance()
    config = method_config(name, gamma=0.6)
    cache = precompute_gram(T, config.gram_ratio)
    rng = np.random.default_rng(40)
    (d, n), m = T.columns.shape, 2
    Y = np.asfortranarray(np.column_stack([y.values, T.columns[:, 3]]), dtype=float)
    a = np.asfortranarray(rng.uniform(0.0, 0.1, (n, m)))
    fields = dict(a=a, res=np.asfortranarray(Y - solver._product(T.columns, a)),
                  u1=np.asfortranarray(rng.normal(scale=0.01, size=(d, m))),
                  u2=np.asfortranarray(rng.normal(scale=0.01, size=(n, m))),
                  w=np.asfortranarray(rng.uniform(0.1, 1.0, (d, m))))
    for v in fields.values():
        v.flags.writeable = False
    clean = coding_step(Y, cache, config, AdmmState(e=None, z=None, **fields))
    e, z = np.full((d, m), np.nan), np.full((n, m), np.nan)
    dirty = coding_step(Y, cache, config, AdmmState(e=e, z=z, **fields))
    assert clean.iterations.min() > 0
    for k, v in vars(clean).items():
        got = getattr(dirty, k)
        assert (got is None) if v is None else np.array_equal(got, v), k
    assert np.isnan(e).all() and np.isnan(z).all()


def test_coding_step_reports_nonconvergence():
    rng = np.random.default_rng(14)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    y = rng.uniform(0.0, 1.0, 25)
    config = SolverConfig(lambda_star=0.0, s_max=2, eps1=1e-12, eps2=1e-12)
    cache = precompute_gram(T, config.gram_ratio)
    res = coding_step(y[:, None], cache, config, flat_start(T, y[:, None], np.ones((25, 1))))
    assert res.converged.tolist() == [False]
    assert res.iterations.tolist() == [2]


def test_solve_single_ridge_step_is_regularized_least_squares():
    rng = np.random.default_rng(21)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    y = FaceVector(rng.uniform(0.0, 1.0, 25), T.geometry).normalized()
    config = SolverConfig(
        regularizer="l2", lambda_star=0.0, lambda_reg=1e-3,
        weights=WeightFunction.constant_one(), t_max=1, eps1=1e-9, s_max=5000,
    )
    res = solve(y, T, config)
    # Fixed point of the l2 engine: (T'T + lambda_reg I) a = T'y.
    direct = np.linalg.solve(
        T.columns.T @ T.columns + 1e-3 * np.eye(8), T.columns.T @ y.values
    )
    assert res.outer_iterations == 1
    assert np.abs(res.a - direct).max() <= 1e-6


def test_solve_is_deterministic():
    rng = np.random.default_rng(22)
    T = random_dictionary(rng, 6, 4, 8, classes=4)
    y = FaceVector(rng.uniform(0.0, 1.0, 24), T.geometry).normalized()
    config = method_config("F-LR-IRNNLS")
    one = solve(y, T, config)
    two = solve(y, T, config)
    assert one.a.tobytes() == two.a.tobytes()
    assert one.e.tobytes() == two.e.tobytes()
    assert one.w.values.tobytes() == two.w.values.tobytes()
    assert one.inner_iterations == two.inner_iterations


def test_solve_converges_on_occluded_instance():
    rng = np.random.default_rng(23)
    T = random_dictionary(rng, 8, 6, 12, classes=4)
    clean = FaceVector(rng.uniform(0.2, 1.0, 48), T.geometry)
    occluded, _ = occlude_block(clean, textured_patch(), 0.3, seed=5)
    res = solve(occluded.normalized(), T, method_config("F-LR-IRNNLS"))
    assert res.converged
    assert res.outer_iterations <= 100


def test_solve_low_rank_reduction_small_instance(spy):
    rng = np.random.default_rng(24)
    T = random_dictionary(rng, 6, 4, 8, classes=4)
    y = FaceVector(rng.uniform(0.0, 1.0, 24), T.geometry).normalized()
    iterates = spy("a_update")
    runs = []
    for config in (method_config("F-LR-IRNNLS", lambda_star=0.0), method_config("F-IRNNLS")):
        iterates.clear()
        solve(y, T, config)
        runs.append(list(iterates))
    assert len(runs[0]) == len(runs[1])
    gaps = [np.abs(p - q).max() for p, q in zip(*runs)]
    assert max(gaps) <= 1e-10


def test_solve_frozen_trace_monotone(spy, frozen_weights):
    rng = np.random.default_rng(25)
    T = random_dictionary(rng, 5, 4, 8, classes=4)
    y = FaceVector(rng.uniform(0.0, 1.0, 20), T.geometry).normalized()
    start = flat_start(T, y.values[:, None])
    mu, eta = logistic_params(start.res[:, 0], 0.6)
    frozen_weights(mu, eta)
    config = SolverConfig(
        regularizer="nonneg", lambda_star=0.0,
        eps1=1e-8, eps2=1e-8, eps3=1e-10, t_max=8, s_max=5000,
    )
    steps = spy("coding_step", record=lambda args, kwargs, step: coded_coefficients(T.n, args, step))
    res = solve(y, T, config)
    assert len(steps) == res.outer_iterations
    trace = np.array(
        [objective_value(a[:, 0], y, T, config, mu, eta) for a in [start.a] + steps]
    )
    assert np.isfinite(trace).all()
    assert float(np.diff(trace).max()) <= 1e-9


def _occluded_column_instance():
    """Column 7 of a 6-class 10x10 dictionary plus mild noise, behind a 30%
    textured block; F-LR-IRNNLS once ran 100 outer steps here unconverged."""
    T = random_dictionary(np.random.default_rng(0), 10, 10, 30, classes=6)
    noise = np.random.default_rng(3).uniform(size=100)
    clean = FaceVector(T.columns[:, 7] + 0.05 * noise, T.geometry)
    y, _ = occlude_block(clean, textured_patch(), 0.3, seed=3)
    return y.normalized(), T


def test_solve_warm_started_duals_still_converge(monkeypatch, spy):
    """Each coding step starts from the scaled duals (u1, u2) the previous one
    ended with; the first starts from zero. Under a gather cap of n - 1
    atoms every step codes a working set, and starts from the previous u2 at
    the set's atoms, 0 for an atom that entered it."""
    y, T = _occluded_column_instance()
    lower_gather_cap(monkeypatch, T)
    tag_restrictions(monkeypatch)
    calls = spy("coding_step", with_args=True)
    res = solve(y, T, method_config("F-IRNNLS", gamma=0.6))
    assert res.converged
    assert np.isfinite(res.a).all()
    assert len(calls) == res.outer_iterations > 2
    assert min(res.working_set_sizes) < T.n
    first = calls[0][0][3]
    assert not (first.u1.any() or first.u2.any())
    full_u2 = lambda args, step: coded_coefficients(T.n, args, SimpleNamespace(a=step.u2))
    for (before_args, _, before), (args, _, _) in zip(calls, calls[1:]):
        u1, u2 = args[3].u1, args[3].u2
        atoms = slice(None) if atoms_of(args[1]) is None else atoms_of(args[1])
        assert np.array_equal(u1, before.u1) and np.array_equal(u2, full_u2(before_args, before)[atoms])


def test_solve_inner_tolerance_follows_weight_change(spy):
    """Steps 1 and 2 run to eps1; step t >= 3 to min(eps1, INNER_TOL_RATIO *
    the relative weight change measured after step t - 1)."""
    y, T = _occluded_column_instance()
    config = method_config("F-LR-IRNNLS", gamma=0.6)
    calls = spy("coding_step", with_args=True)
    solve(y, T, config)
    tols = [kwargs["tol"][0] for _, kwargs, _ in calls]
    weights = [args[3].w[:, 0] for args, _, _ in calls]
    assert tols[:2] == [config.eps1, config.eps1]
    for t in range(2, len(calls)):
        change = np.linalg.norm(weights[t - 1] - weights[t - 2]) / np.linalg.norm(weights[t - 2])
        assert change >= config.eps3
        assert tols[t] == min(config.eps1, INNER_TOL_RATIO * change)
        assert INNER_TOL_RATIO * config.eps3 <= tols[t] <= config.eps1
    for (_, kwargs, step) in calls:
        assert step.converged.item() and step.fit_residual.item() <= kwargs["tol"][0]
    assert min(tols) < config.eps1


@pytest.mark.parametrize("name", ["F-IRNNLS", "F-LR-IRNNLS", "F-IRLS", "F-IRSC"])
def test_solve_converges_on_formerly_capped_instance(name):
    y, T = _occluded_column_instance()
    res = solve(y, T, method_config(name, gamma=0.6))
    assert res.converged
    assert res.outer_iterations < 100
    assert all(res.inner_converged)


@pytest.mark.parametrize("name", ["CR-RLS", "SRC", "LR3"])
def test_constant_weight_presets_stop_after_one_coding_step(name, spy):
    y, T = _occluded_column_instance()
    steps = spy("coding_step")
    res = solve(y, T, method_config(name))
    assert res.outer_iterations == 1 == len(steps)
    assert res.converged
    assert res.inner_converged == [True]


@pytest.mark.parametrize("name", ["CR-RLS", "SRC", "LR3"])
def test_constant_weight_solve_capped_at_s_max_is_not_converged(name):
    """A constant-weight solve has one coding step; when that step stops at
    s_max, the solve has not converged."""
    y, T = _occluded_column_instance()
    res = solve(y, T, method_config(name, s_max=1))
    assert res.outer_iterations == 1
    assert res.inner_iterations == [1]
    assert res.inner_converged == [False]
    assert not res.converged


@pytest.mark.parametrize(
    "name, cap", [("F-IRNNLS", "t_max"), ("SRC", "s_max"), ("CR-RLS", "s_max"), ("LR3", "s_max")]
)
def test_solve_warns_once_when_stopped_at_a_cap(name, cap, caplog):
    """A capped solve, reweighted (t_max) or constant-weight (s_max), records
    its cap in stop and logs exactly one warning naming the cap, its value and
    the last measure that missed its tolerance; a converged solve logs none."""
    y, T = _occluded_column_instance()
    value = 3 if cap == "t_max" else 1
    with caplog.at_level(logging.WARNING, logger="faceid.solver"):
        res = solve(y, T, method_config(name, gamma=0.6, **{cap: value}))
        assert res.stop == cap and not res.converged
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert f"{cap}={value}" in message and "nan" not in message
        if cap == "t_max":
            assert res.outer_iterations == 3
            assert "weight change" in message and "eps3" in message
        else:
            assert res.outer_iterations == 1 and res.inner_iterations == [1]
            assert "fit" in message and "split" in message and "eps2" in message
            assert f"{T.columns.dtype} dictionary" in message
        caplog.clear()
        res = solve(y, T, method_config(name, gamma=0.6))
        assert res.stop == "converged" and res.converged
        assert caplog.records == []


def test_s_max_warning_names_a_float32_dictionary(caplog):
    y, T = _occluded_column_instance()
    with caplog.at_level(logging.WARNING, logger="faceid.solver"):
        res = solve(y, as_float32(T), method_config("SRC", s_max=1))
    assert res.stop == "s_max"
    assert [r.getMessage().endswith("float32 dictionary") for r in caplog.records] == [True]


def test_solve_checks_observation_length():
    rng = np.random.default_rng(28)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    with pytest.raises(GeometryError):
        solve(np.zeros(7), T, SolverConfig(lambda_star=0.0))


def test_solve_reuses_supplied_gram_cache(monkeypatch):
    """The dictionary fits the gather cap, so every step codes every atom: a
    supplied cache forms its n x n inverse once, inside the first step (its
    first apply), and a second solve with it factors no n x n system and
    nothing inside a coding step. Under a gather cap of n - 1 atoms every
    step codes a working set: each solve factors exactly one |S| x |S|
    system just before each step, none of order n, and the cache never
    forms its inverse. Every call of the factoring routine is counted, so a
    solver that factored elsewhere would miss the count."""
    rng = np.random.default_rng(29)
    T = random_dictionary(rng, 6, 4, 8, classes=4)
    y = FaceVector(rng.uniform(0.0, 1.0, 24), T.geometry).normalized()
    config = method_config("F-IRNNLS")
    cache = precompute_gram(T, config.gram_ratio)
    log = record_factorizations(monkeypatch)
    for full in ([T.n], []):
        log["orders"], log["in_step"], log["steps"] = [], 0, []
        res = solve(y, T, config, cache=cache)
        assert len(log["steps"]) == res.outer_iterations and all(step is cache for step in log["steps"])
        assert log["orders"] == full and log["in_step"] == len(full)
    lower_gather_cap(monkeypatch, T)
    cache = precompute_gram(T, config.gram_ratio)
    for _ in range(2):
        log["orders"], log["in_step"], log["steps"] = [], 0, []
        res = solve(y, T, config, cache=cache)
        assert len(log["steps"]) == res.outer_iterations and log["in_step"] == 0
        restricted = [atoms_of(step).size for step in log["steps"] if atoms_of(step) is not None]
        assert log["orders"] == restricted and len(restricted) == res.outer_iterations and T.n not in restricted
    assert cache._inverse is None


def test_solve_forms_two_products_per_inner_iteration(dtype=np.float64):
    """Each inner iteration forms T' v (a_update) and T a (dual_update); the
    carried residual y - T a serves the next e_update and the outer weight
    residual, so a solve forms 2 * inner + 1 products, the one extra for the
    flat start: every preset's, since the dictionary fits the gather cap and
    is coded on every atom. Under a gather cap of n - 1 atoms F-IRNNLS and F-IRSC code
    every step on a working set, whose products use its gathered columns: 2
    per inner iteration, plus one for the step's start y - T_S a_S. The
    full products are then the flat start, the KKT check of the flat start
    that the first set update reads, and one KKT check per outer step."""
    rng = np.random.default_rng(0)
    T = random_dictionary(rng, 10, 10, 30, classes=6, dtype=dtype)
    noise = np.random.default_rng(1).uniform(size=100)
    clean = FaceVector(T.columns[:, 7] + 0.05 * noise, T.geometry)
    y, _ = occlude_block(clean, textured_patch(), 0.3, seed=1)
    y = y.normalized()
    configs = {name: method_config(name, gamma=0.6) for name in ("F-IRNNLS", "F-LR-IRNNLS", "F-IRLS", "F-IRSC")}
    object.__setattr__(T, "columns", T.columns.view(CountingMatmul))
    # After the swap: a cache serves only the columns object it was built from.
    caches = {name: precompute_gram(T, config.gram_ratio) for name, config in configs.items()}
    n = T.n
    for name, config in configs.items():
        for capped in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if capped:
                    lower_gather_cap(patch, T)
                CountingMatmul.reset()
                res = solve(y, T, config, cache=caches[name])
            assert res.total_inner_iterations > res.outer_iterations > 1
            if capped and config.working_set:
                assert max(res.working_set_sizes) < n, name
                assert CountingMatmul.atoms[n] == 2 + res.outer_iterations, name
                gathered = CountingMatmul.calls - CountingMatmul.atoms[n]
                assert gathered == 2 * res.total_inner_iterations + res.outer_iterations, name
            else:
                assert res.working_set_sizes == [n] * res.outer_iterations, name
                assert CountingMatmul.calls == CountingMatmul.atoms[n] == 2 * res.total_inner_iterations + 1, name


def test_float32_solve_forms_two_products_per_inner_iteration():
    test_solve_forms_two_products_per_inner_iteration(dtype=np.float32)


def _half_occluded_benchmark(count, dtype=np.float64):
    """The seed-3 synthetic benchmark's dictionary (24x21, n = 60) and its
    first `count` test images, each half covered by the textured block, at
    unit l2."""
    ds = make_synthetic_benchmark(seed=3)
    T = build_dictionary(ds.train, ds.train_labels, dtype=dtype)
    patch = textured_patch()
    ys = [corrupt(img, _image_seed(3, i), 0.0, 0.5, patch)[0].normalized() for i, img in enumerate(ds.test[:count])]
    return T, ys


@pytest.mark.parametrize("name", sorted(METHODS))
def test_batch_agrees_with_one_probe_solves(name):
    """With float64 columns, a batch of all 12 probes and batches of 5 (5, 5,
    2) give each probe the prediction, iteration counts and stop of its
    one-probe solve, and a and e within 1e-9. A product over B columns rounds
    each column differently from a matrix-vector product, so the iterates
    agree only to roundoff; a solve stopped at t_max (probe 10 under both
    LR presets), whose weights still drift, carries that roundoff through 100
    outer steps and gets 1e-8."""
    T, ys = _half_occluded_benchmark(12)
    config = method_config(name, gamma=0.6)
    cache = precompute_gram(T, config.gram_ratio)
    single = [solve(y, T, config, cache) for y in ys]
    for size in (12, 5):
        batched = [r for s in range(0, len(ys), size) for r in solve_batch(ys[s : s + size], T, config, cache)]
        for y, one, many in zip(ys, single, batched):
            assert identify(y, T, one).predicted == identify(y, T, many).predicted
            counts = lambda r: (r.outer_iterations, r.inner_iterations, r.inner_converged, r.stop)
            assert counts(one) == counts(many)
            bound = 1e-8 if one.stop == "t_max" else 1e-9
            assert np.abs(one.a - many.a).max() <= bound
            assert np.abs(one.e - many.e).max() <= bound


@pytest.mark.parametrize("name", ["F-IRNNLS", "F-LR-IRNNLS", "F-IRLS", "SRC"])
def test_batch_forms_two_product_columns_per_inner_iteration(monkeypatch, name):
    """A batch forms one product column for the flat start, which every probe
    shares, and two per inner iteration of each probe: a probe that has left
    the inner loop, or the batch, forms none. The 24x21 dictionary fits the
    gather cap, so every preset codes every atom. Under a gather cap of
    n - 1 atoms F-IRNNLS codes on working sets: every outer step of a probe
    adds one full KKT column, so does the flat start's check, and its
    steps on the set form their products on gathered columns (see
    test_solve_forms_two_products_per_inner_iteration)."""
    T, ys = _half_occluded_benchmark(6, dtype=np.float32)
    object.__setattr__(T, "columns", T.columns.view(CountingMatmul))
    config = method_config(name, gamma=0.6)
    cache = precompute_gram(T, config.gram_ratio)
    for capped in (False, True) if config.working_set else (False,):
        if capped:
            lower_gather_cap(monkeypatch, T)
        CountingMatmul.reset()
        results = solve_batch(ys, T, config, cache)
        inner = [r.total_inner_iterations for r in results]
        assert len(set(inner)) > 1  # the probes leave at different iterations
        assert all(len(r.inner_iterations) == r.outer_iterations == len(r.working_set_sizes) for r in results)
        if capped:
            assert all(max(r.working_set_sizes) < T.n for r in results)
            gathered = CountingMatmul.calls - CountingMatmul.atoms[T.n]  # one column each
            outer = sum(r.outer_iterations for r in results)
            assert gathered == 2 * sum(inner) + outer
            assert CountingMatmul.columns - gathered == 1 + len(ys) + outer
        else:
            assert CountingMatmul.columns == 2 * sum(inner) + 1
        assert CountingMatmul.atoms[T.n] < CountingMatmul.columns


def test_batch_charges_each_outer_step_to_its_probes(monkeypatch):
    """solve_seconds: each outer step's wall time is shared by the probes in
    it, so a batch's wall_seconds sum to its wall time, and a one-probe solve
    reads its own wall time. A fake clock that advances 1 s per reading gives
    every outer step 1 s."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    T, ys = _half_occluded_benchmark(5)
    config = method_config("F-IRNNLS", gamma=0.6)
    cache = precompute_gram(T, config.gram_ratio)
    results = solve_batch(ys, T, config, cache)
    outer = [r.outer_iterations for r in results]
    assert len(set(outer)) > 1
    in_step = [sum(o >= t for o in outer) for t in range(1, max(outer) + 1)]
    for r in results:
        assert r.wall_seconds == pytest.approx(sum(1.0 / m for m in in_step[: r.outer_iterations]))
    assert sum(r.wall_seconds for r in results) == pytest.approx(max(outer))
    one = solve(ys[0], T, config, cache)
    assert one.wall_seconds == one.outer_iterations


def test_batch_failure_ends_only_its_own_probe(monkeypatch, caplog):
    """Probe 1 has a NaN pixel: its weight update raises, and it leaves the
    batch before the first coding step with that error. The second coding
    step of the other three raises on the batch, which does not say which
    column did, so each of them is solved again on its own: its outcome is
    its one-probe solve, bit for bit. t_max = 3 caps every clean probe, and
    each capped solve warns once. F-IRLS codes every atom at every step, so
    its second step is a batch of three (a working-set preset codes its
    later steps probe by probe)."""
    T, ys = _half_occluded_benchmark(4)
    values = ys[1].values.copy()
    values[5] = np.nan
    ys[1] = FaceVector(values, T.geometry)
    config = method_config("F-IRLS", gamma=0.6, t_max=3)
    cache = precompute_gram(T, config.gram_ratio)
    single = {k: solve(ys[k], T, config, cache) for k in (0, 2, 3)}
    original, widths = solver.coding_step, []

    def flaky(y, *args, **kw):
        widths.append(y.shape[1])
        if len(widths) == 2:
            raise NumericError("batch blowup")
        return original(y, *args, **kw)

    monkeypatch.setattr(solver, "coding_step", flaky)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="faceid.solver"):
        outcomes = solve_batch(ys, T, config, cache)
    assert widths == [3, 3] + [1] * 9
    assert isinstance(outcomes[1], NumericError) and str(outcomes[1]) == "residual contains non-finite entries"
    for k, one in single.items():
        got = outcomes[k]
        assert got.stop == one.stop == "t_max"
        assert (got.inner_iterations, got.inner_converged) == (one.inner_iterations, one.inner_converged)
        for field in ("a", "e"):
            assert np.array_equal(getattr(got, field), getattr(one, field))
        assert np.array_equal(got.w.values, one.w.values)
    assert [r.message.startswith("solve stopped at t_max=3") for r in caplog.records] == [True] * 3
    with pytest.raises(NumericError, match="non-finite"):
        solve(ys[1], T, config, cache)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_coding_step_residuals_are_those_of_its_iterates(name, spy):
    """Every step reports exactly ||res - e|| and ||a - z|| of the res, a, e
    and z it returns (0.0 split on the l2 path), whatever its relaxation
    factor; res is y - T a over the columns it coded on, every atom's or a
    working set's."""
    y, T = _occluded_column_instance()
    steps = spy("coding_step", record=lambda args, kwargs, step: (args[1].columns, step))
    solve(y, T, method_config(name, gamma=0.6))
    assert steps
    for columns, step in steps:
        assert np.array_equal(step.res, y.values[:, None] - columns @ step.a)
        assert step.fit_residual.tolist() == [np.linalg.norm(step.res[:, 0] - step.e[:, 0])]
        if step.z is None:
            assert step.split_residual.tolist() == [0.0]
        else:
            assert step.split_residual.tolist() == [np.linalg.norm(step.a[:, 0] - step.z[:, 0])]


class _CountsSubtractions(np.ndarray):
    """ndarray view that counts the subtractions it enters as an operand, on
    either side; results are plain ndarrays, and its slices count too."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountsSubtractions.calls += ufunc is np.subtract and method == "__call__"
        inputs = [np.asarray(x) if isinstance(x, _CountsSubtractions) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_carried_residual_is_formed_once_per_inner_iteration(name, monkeypatch, spy):
    """The state carries res = y - T a, T the columns a step codes on: at
    every e_update and in every state a step returns it is
    y - _product(T, a) bit for bit, on every atom and, under a gather cap
    of n - 1 atoms, on working sets. One coding step of a batch, on every
    atom or on a restricted cache, puts y into two (d, B) subtractions per
    inner iteration, a_update's and dual_update's, and into no other."""
    y, T = _occluded_column_instance()
    config = method_config(name, gamma=0.6)
    Y = y.values[:, None]
    current = lambda columns, a, res: np.array_equal(res, Y - solver._product(columns, a))
    at_e = spy("e_update", record=lambda args, kwargs, e: current(args[1].columns, args[0].a, args[0].res))
    steps = spy("coding_step", record=lambda args, kwargs, step: (
        args[1].columns.shape[1], current(args[1].columns, step.a, step.res)))
    for capped in (False, True):
        if capped:
            lower_gather_cap(monkeypatch, T)
        at_e.clear()
        steps.clear()
        solve(y, T, config)
        assert at_e and all(at_e) and steps and all(ok for _, ok in steps), capped
        coded = {n for n, _ in steps}
        assert T.n not in coded if capped and config.working_set else coded == {T.n}, capped

    Y2 = np.asfortranarray(np.column_stack([y.values, T.columns[:, 3]]))
    full = precompute_gram(T, config.gram_ratio)
    # coding_step keeps y in Fortran order through np.asfortranarray; let the
    # counting view (Fortran-ordered float64 already) through it unconverted.
    fortran = np.asfortranarray
    monkeypatch.setattr(np, "asfortranarray", lambda a, dtype=None: (
        a if isinstance(a, _CountsSubtractions) else fortran(a, dtype=dtype)))
    for cache in (full, full.restrict(np.arange(0, T.n, 2))):
        start = flat_start(cache, Y2, np.ones_like(Y2))  # flat_start reads only .columns
        _CountsSubtractions.calls = 0
        step = coding_step(Y2.view(_CountsSubtractions), cache, config, start)
        assert _CountsSubtractions.calls == 2 * step.iterations.max() > 0, cache.columns.shape


@pytest.mark.parametrize(
    "name", ["F-IRNNLS", "F-IRLS", "F-IRSC", "F-LR-IRNNLS", "F-LR-IRLS", "F-LR-IRSC"]
)
def test_a_update_reads_relaxed_iterates_only_at_zero_nuclear_weight(name, spy):
    """At lambda_star = 0, a_update reads RELAX * e + (1 - RELAX) * res, with
    res = y - T a_prev, and RELAX * z + (1 - RELAX) * a_prev; at lambda_star > 0 exactly the e and z
    that e_update and z_update returned. The returned state holds the
    unrelaxed e and z."""
    y, T = _occluded_column_instance()
    config = method_config(name, gamma=0.6)
    copy = lambda v: None if v is None else v.copy()
    es = spy("e_update", record=lambda args, kwargs, e: (e, args[0].res.copy()))
    zs = spy("z_update", record=lambda args, kwargs, z: (z, args[0].a.copy()))
    read = spy("a_update", record=lambda args, kwargs, a: (args[0].e.copy(), copy(args[0].z)))
    steps = spy("coding_step")
    solve(y, T, config)
    assert len(es) == len(read) == sum(s.iterations.item() for s in steps) > 0
    if config.regularizer == "l2":
        assert zs == [] and all(z is None for _, z in read)
        zs = [(None, None)] * len(read)
    relax = not METHODS[name][1]  # the presets without the low-rank flag
    for (e, res_prev), (z, a_prev), (e_read, z_read) in zip(es, zs, read):
        if relax:
            assert np.array_equal(e_read, RELAX * e + (1.0 - RELAX) * res_prev)
            if z is not None:
                assert np.array_equal(z_read, RELAX * z + (1.0 - RELAX) * a_prev)
        else:
            assert np.array_equal(e_read, e)
            assert z is None or np.array_equal(z_read, z)
    last = 0
    for step in steps:
        last += step.iterations.item()
        assert np.array_equal(step.e, es[last - 1][0])
        if step.z is not None:
            assert np.array_equal(step.z, zs[last - 1][0])


def test_method_presets_map_to_engine_settings():
    expect = {
        "F-LR-IRNNLS": ("nonneg", True, "logistic"),
        "F-IRNNLS": ("nonneg", False, "logistic"),
        "F-IRLS": ("l2", False, "logistic"),
        "F-IRSC": ("l1", False, "logistic"),
        "F-LR-IRLS": ("l2", True, "logistic"),
        "F-LR-IRSC": ("l1", True, "logistic"),
        "SRC": ("l1", False, "constant"),
        "CR-RLS": ("l2", False, "constant"),
        "LR3": ("l2", True, "constant"),
    }
    assert set(METHODS) == set(expect)
    for name, (kind, low_rank, scheme) in expect.items():
        config = method_config(name)
        assert config.regularizer == kind
        assert config.low_rank == low_rank
        wanted = "constant" if scheme == "constant" else "logistic"
        assert config.weights.kind == wanted
    assert method_config("F-LR-IRNNLS", gamma=0.8).weights.gamma == 0.8
    assert method_config("F-IRNNLS", s_max=42).s_max == 42
    assert method_config("F-IRNNLS", lambda_star=0.1).lambda_star == 0.0
    assert method_config("F-LR-IRNNLS", lambda_star=0.1).lambda_star == 0.1
    with pytest.raises(ConfigError):
        method_config("nope")


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(regularizer="elastic")
    with pytest.raises(ConfigError):
        SolverConfig(lambda_star=-0.1)
    with pytest.raises(ConfigError):
        SolverConfig(rho1=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(eps3=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(t_max=0)
    with pytest.raises(ConfigError):
        SolverConfig(weights="logistic")
    # the l2 kind's Gram shift is 2 * lambda_reg / rho1: zero would leave none
    with pytest.raises(ConfigError, match="lambda_reg"):
        SolverConfig(regularizer="l2", lambda_reg=0.0)
    assert SolverConfig(regularizer="l1", lambda_reg=0.0).gram_ratio == pytest.approx(0.1)
    assert SolverConfig(regularizer="l2", lambda_reg=0.3).gram_ratio == pytest.approx(0.6)
    assert SolverConfig(regularizer="nonneg").gram_ratio == pytest.approx(0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["lambda_star", "rho1", "rho2", "lambda_reg", "eps1", "eps2", "eps3"])
def test_solver_config_rejects_non_finite_values(name, value):
    """NaN compares false with every bound, so each float is checked for
    finiteness before its range."""
    with pytest.raises(ConfigError, match=name):
        SolverConfig(**{name: value})


@pytest.mark.parametrize(
    "overrides, rejected",
    [
        ({"t_max": 2.5}, "t_max"),
        ({"s_max": 3.0}, "s_max"),
        ({"t_max": True}, "t_max"),
        ({"eps3": np.float32("nan")}, "eps3"),
        ({"rho1": np.float32("inf")}, "rho1"),
        ({"t_max": np.int64(3), "s_max": np.int64(7)}, None),
    ],
    ids=["float-t_max", "float-s_max", "bool-t_max", "float32-nan-eps3", "float32-inf-rho1", "int64-caps"],
)
def test_solver_config_caps_are_integers_and_numpy_scalars_finite(overrides, rejected):
    """A float cap would reach range() inside solve, and a numpy float32 is
    no Python float, so each check goes by the numbers ABCs."""
    if rejected is None:
        config = method_config("F-IRNNLS", **overrides)
        assert (config.t_max, config.s_max) == (3, 7)
        return
    with pytest.raises(ConfigError, match=rejected):
        method_config("F-IRNNLS", **overrides)


def test_baseline_ridge_closed_form_on_orthonormal_dictionary():
    rng = np.random.default_rng(30)
    T = orthonormal_dictionary(rng, 6, 4, 8)
    y = FaceVector(rng.normal(size=24), T.geometry).normalized()
    res = solve(y, T, method_config("CR-RLS", lambda_reg=2e-3, eps1=1e-10, s_max=5000))
    expect = T.columns.T @ y.values / (1.0 + 2e-3)
    assert np.abs(res.a - expect).max() <= 1e-6


def test_baseline_sparse_coder_overpenalized_to_zero():
    rng = np.random.default_rng(31)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    y = FaceVector(rng.uniform(0.0, 1.0, 25), T.geometry).normalized()
    res = solve(y, T, method_config("SRC", lambda_reg=2e6, eps1=1e-8, eps2=1e-8, s_max=5000))
    assert np.abs(res.a).max() <= 1e-6


def test_baseline_low_rank_ridge_reduces_to_plain_ridge():
    rng = np.random.default_rng(32)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    y = FaceVector(rng.uniform(0.0, 1.0, 25), T.geometry).normalized()
    kw = dict(lambda_reg=2e-3, eps1=1e-10, s_max=5000)
    lr3 = solve(y, T, method_config("LR3", lambda_star=0.0, **kw))
    ridge = solve(y, T, method_config("CR-RLS", **kw))
    assert np.abs(lr3.a - ridge.a).max() <= 1e-6
