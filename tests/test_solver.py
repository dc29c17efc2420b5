"""ADMM engine: individual updates, the coding step, and full solves."""

import logging

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.special import expit

from faceid.corruptions import occlude_block, textured_patch
from faceid.errors import ConfigError, GeometryError, NumericError
from faceid.model import Dictionary, FaceVector, ImageGeometry
from faceid.prox import shrink_weighted
from faceid.solver import (
    INNER_TOL_RATIO,
    METHODS,
    AdmmState,
    SolverConfig,
    a_update,
    coding_step,
    dual_update,
    e_update,
    method_config,
    precompute_gram,
    solve,
    z_update,
)
from faceid.weights import WeightFunction, logistic_params
from helpers import flat_start, orthonormal_dictionary, random_dictionary
from oracle import objective_value


def _state(rng, T, config, scale=0.1):
    """AdmmState with small random content, dimensioned for T, carrying the
    product Ta = T.columns @ a that coding_step keeps."""
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
        Ta=T.columns @ a,
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
    factorizations = spy("cho_factor")
    precompute_gram(_one_class_per_column(np.eye(4)), 0.5)
    assert len(factorizations) == 1


def test_e_update_low_rank_off_equals_zero_threshold(spy):
    rng = np.random.default_rng(1)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    assert not config.low_rank
    state = _state(rng, T, config)
    svt_calls = spy("svt")
    r = y - T.columns @ state.a + state.u1 / config.rho1
    assert np.array_equal(e_update(state, y, T, config), shrink_weighted(r, state.w, config.rho1))
    assert svt_calls == []


def test_e_update_vanishing_weights_pass_residual_through():
    rng = np.random.default_rng(2)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, config)
    state.w = np.full(20, 1e-30)
    r = y - T.columns @ state.a + state.u1 / config.rho1
    assert np.allclose(e_update(state, y, T, config), r, atol=1e-12)


def test_e_update_low_rank_contracts_nuclear_norm():
    rng = np.random.default_rng(3)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    lr = SolverConfig(lambda_star=0.05)
    flat = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, lr)
    shrunk = e_update(state, y, T, flat)
    low_rank = e_update(state, y, T, lr)
    nuc = lambda v: np.linalg.svd(v.reshape(4, 5, order="F"), compute_uv=False).sum()
    assert nuc(low_rank) <= nuc(shrunk) + 1e-12


def test_e_update_follows_carried_product():
    rng = np.random.default_rng(4)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    y = rng.uniform(0.0, 1.0, 20)
    config = SolverConfig(lambda_star=0.0)
    state = _state(rng, T, config)
    state.Ta = T.columns @ state.a + rng.normal(size=20)
    r = y - state.Ta + state.u1 / config.rho1
    assert np.array_equal(e_update(state, y, T, config), shrink_weighted(r, state.w, config.rho1))


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
    assert np.abs(a_update(state, y, T, cache, config)).max() <= 1e-14


def test_a_update_orthonormal_closed_form():
    rng = np.random.default_rng(6)
    T = orthonormal_dictionary(rng, 6, 4, 8)
    config = SolverConfig()
    r = config.gram_ratio
    cache = precompute_gram(T, r)
    y = rng.normal(size=24)
    state = _state(rng, T, config)
    got = a_update(state, y, T, cache, config)
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
        a = a_update(state, y, T, cache, config)
        rhs = T.columns.T @ (y - state.e + state.u1 / config.rho1)
        if kind != "l2":
            rhs = rhs + (config.rho2 / config.rho1) * state.z - state.u2 / config.rho1
        lhs = (T.columns.T @ T.columns + config.gram_ratio * np.eye(9)) @ a
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_coding_step_rejects_mismatched_cache():
    rng = np.random.default_rng(8)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig()
    y = rng.uniform(0.0, 1.0, 20)
    small = random_dictionary(rng, 4, 5, 4, classes=2)
    for foreign in (precompute_gram(T, 5.0), precompute_gram(small, config.gram_ratio)):
        with pytest.raises(ConfigError, match="gram cache"):
            coding_step(y, T, np.ones(20), foreign, config, *flat_start(T))
        with pytest.raises(ConfigError, match="gram cache"):
            solve(y, T, config, cache=foreign)


def test_dual_update_fixed_at_feasibility():
    rng = np.random.default_rng(9)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    a = rng.uniform(0.0, 1.0, 6)
    y = rng.uniform(0.0, 1.0, 20)
    state = AdmmState(
        a=a, z=a.copy(), e=y - T.columns @ a,
        u1=rng.normal(size=20), u2=rng.normal(size=6), w=np.ones(20),
    )
    u1, u2, _ = dual_update(state, y, T, 1.0, 0.1)
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
    u1, u2, _ = dual_update(state, y, T, 2.0, 0.3)
    assert np.allclose(u1, 2.0 * (y - T.columns @ state.a - state.e), atol=1e-12)
    assert np.allclose(u2, 0.3 * (state.a - state.z), atol=1e-12)


def test_dual_update_l2_leaves_u2_alone():
    rng = np.random.default_rng(11)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    state = _state(rng, T, SolverConfig(regularizer="l2"))
    _, u2, _ = dual_update(state, np.zeros(20), T, 1.0, 0.1)
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
    res = coding_step(y, T, np.ones(25), cache, config, *flat_start(T))
    assert res.converged
    assert res.fit_residual <= config.eps1
    assert res.split_residual <= config.eps2
    assert np.linalg.norm(y - T.columns @ res.a) <= config.eps1


def test_coding_step_dimension_checks():
    rng = np.random.default_rng(13)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(lambda_star=0.0)
    cache = precompute_gram(T, config.gram_ratio)
    a0, Ta0 = flat_start(T)
    with pytest.raises(GeometryError):
        coding_step(np.zeros(7), T, np.ones(7), cache, config, a0, Ta0)
    with pytest.raises(GeometryError):
        coding_step(np.zeros(20), T, np.ones(20), cache, config, np.zeros(3), Ta0)
    for duals in [(0.0, 0.0), (np.zeros(3), np.zeros(6)), (np.zeros(20), np.zeros(3))]:
        with pytest.raises(GeometryError, match="duals"):
            coding_step(np.zeros(20), T, np.ones(20), cache, config, a0, Ta0, duals=duals)


def test_coding_step_warm_start_carries_its_product():
    rng = np.random.default_rng(13)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    config = SolverConfig(lambda_star=0.0)
    cache = precompute_gram(T, config.gram_ratio)
    y = rng.uniform(0.0, 1.0, 20)
    a0 = rng.uniform(0.0, 0.5, 6)
    with pytest.raises(GeometryError, match="Ta0"):
        coding_step(y, T, np.ones(20), cache, config, a0, np.zeros(7))
    for step in (
        coding_step(y, T, np.ones(20), cache, config, *flat_start(T)),
        coding_step(y, T, np.ones(20), cache, config, a0, T.columns @ a0),
    ):
        assert np.array_equal(step.Ta, T.columns @ step.a)


def test_coding_step_reports_nonconvergence():
    rng = np.random.default_rng(14)
    T = random_dictionary(rng, 5, 5, 8, classes=2)
    y = rng.uniform(0.0, 1.0, 25)
    config = SolverConfig(lambda_star=0.0, s_max=2, eps1=1e-12, eps2=1e-12)
    cache = precompute_gram(T, config.gram_ratio)
    res = coding_step(y, T, np.ones(25), cache, config, *flat_start(T))
    assert not res.converged
    assert res.iterations == 2


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
    a0, Ta0 = flat_start(T)
    mu, eta = logistic_params(y.values - Ta0, 0.6)
    frozen_weights(mu, eta)
    config = SolverConfig(
        regularizer="nonneg", lambda_star=0.0,
        eps1=1e-8, eps2=1e-8, eps3=1e-10, t_max=8, s_max=5000,
    )
    steps = spy("coding_step")
    res = solve(y, T, config)
    assert len(steps) == res.outer_iterations
    trace = np.array(
        [objective_value(a, y, T, config, mu, eta) for a in [a0] + [s.a for s in steps]]
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


def test_solve_warm_started_duals_still_converge(spy):
    """Each coding step starts from the scaled duals (u1, u2) the previous one
    ended with; the first starts from zero."""
    y, T = _occluded_column_instance()
    calls = spy("coding_step", with_args=True)
    res = solve(y, T, method_config("F-IRNNLS", gamma=0.6))
    assert res.converged
    assert np.isfinite(res.a).all()
    assert len(calls) == res.outer_iterations > 2
    assert calls[0][1]["duals"] is None
    for (_, _, before), (_, kwargs, _) in zip(calls, calls[1:]):
        u1, u2 = kwargs["duals"]
        assert np.array_equal(u1, before.u1) and np.array_equal(u2, before.u2)


def test_solve_inner_tolerance_follows_weight_change(spy):
    """Steps 1 and 2 run to eps1; step t >= 3 to min(eps1, INNER_TOL_RATIO *
    the relative weight change measured after step t - 1)."""
    y, T = _occluded_column_instance()
    config = method_config("F-LR-IRNNLS", gamma=0.6)
    calls = spy("coding_step", with_args=True)
    solve(y, T, config)
    tols = [kwargs["tol"] for _, kwargs, _ in calls]
    weights = [args[2] for args, _, _ in calls]
    assert tols[:2] == [config.eps1, config.eps1]
    for t in range(2, len(calls)):
        change = np.linalg.norm(weights[t - 1] - weights[t - 2]) / np.linalg.norm(weights[t - 2])
        assert change >= config.eps3
        assert tols[t] == min(config.eps1, INNER_TOL_RATIO * change)
        assert INNER_TOL_RATIO * config.eps3 <= tols[t] <= config.eps1
    for (_, kwargs, step) in calls:
        assert step.converged and step.fit_residual <= kwargs["tol"]
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


def test_solve_warns_when_stopped_at_t_max(caplog):
    y, T = _occluded_column_instance()
    with caplog.at_level(logging.WARNING, logger="faceid.solver"):
        res = solve(y, T, method_config("F-IRNNLS", gamma=0.6, t_max=3))
        assert not res.converged and res.outer_iterations == 3
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "t_max=3" in message and "weight change" in message
        caplog.clear()
        assert solve(y, T, method_config("F-IRNNLS", gamma=0.6)).converged
        assert caplog.records == []


def test_solve_checks_observation_length():
    rng = np.random.default_rng(28)
    T = random_dictionary(rng, 4, 5, 6, classes=2)
    with pytest.raises(GeometryError):
        solve(np.zeros(7), T, SolverConfig(lambda_star=0.0))


def test_solve_reuses_supplied_gram_cache(spy):
    rng = np.random.default_rng(29)
    T = random_dictionary(rng, 6, 4, 8, classes=4)
    y = FaceVector(rng.uniform(0.0, 1.0, 24), T.geometry).normalized()
    config = method_config("F-IRNNLS")
    cache = precompute_gram(T, config.gram_ratio)
    factorizations = spy("cho_factor")
    solve(y, T, config, cache=cache)
    assert factorizations == []


def test_solve_forms_two_products_per_inner_iteration():
    """Each inner iteration forms T' v (a_update) and T a (dual_update); the
    carried T a serves the next e_update and the outer weight residual, so a
    solve forms 2 * inner + 1 products, the one extra for the flat start."""

    class CountingMatmul(np.ndarray):
        calls = 0

        def __matmul__(self, other):
            CountingMatmul.calls += 1
            return np.asarray(self) @ other

    rng = np.random.default_rng(0)
    T = random_dictionary(rng, 10, 10, 30, classes=6)
    noise = np.random.default_rng(1).uniform(size=100)
    clean = FaceVector(T.columns[:, 7] + 0.05 * noise, T.geometry)
    y, _ = occlude_block(clean, textured_patch(), 0.3, seed=1)
    y = y.normalized()
    configs = {name: method_config(name, gamma=0.6) for name in ("F-IRNNLS", "F-LR-IRNNLS", "F-IRLS", "F-IRSC")}
    caches = {name: precompute_gram(T, config.gram_ratio) for name, config in configs.items()}
    object.__setattr__(T, "columns", T.columns.view(CountingMatmul))
    for name, config in configs.items():
        CountingMatmul.calls = 0
        res = solve(y, T, config, cache=caches[name])
        assert res.total_inner_iterations > res.outer_iterations > 1
        assert CountingMatmul.calls == 2 * res.total_inner_iterations + 1, name


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
