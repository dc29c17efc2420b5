"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test computes its verdict, prints a single `ACCEPTANCE <n> PASS|FAIL`
line with the measured numbers, and then asserts. Criterion 8 needs licensed
face data and skips (with a SKIP line) unless FACEID_YALE_MANIFEST and
FACEID_BABOON_PGM point at it.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from faceid.corruptions import occlude_block, textured_patch
from faceid.experiment import (
    ExperimentConfig,
    SyntheticSpec,
    _image_seed,
    make_synthetic_benchmark,
    run_experiment,
)
from faceid.model import FaceVector, ImageGeometry, build_dictionary
from faceid.prox import svt
from faceid.solver import (
    AdmmState,
    SolverConfig,
    a_update,
    coding_step,
    method_config,
    precompute_gram,
    solve,
)
from faceid.weights import logistic_params
from helpers import (
    CountingMatmul,
    as_float32,
    atoms_of,
    coded_coefficients,
    flat_start,
    random_dictionary,
    record_factorizations,
)
from oracle import (
    nnls_kkt_residual,
    objective_value,
    oracle_prox_nuclear,
    oracle_weighted_nnls,
    pinned_logistic_weights,
)


def _verdict(capsys, num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_acceptance_1_zero_nuclear_weight_reduction(capsys, spy):
    iterates = spy("a_update")
    start = time.perf_counter()
    worst = 0.0
    lengths_match = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        T = random_dictionary(rng, 10, 10, 30, classes=6)
        y = FaceVector(rng.uniform(0.0, 1.0, 100), T.geometry).normalized()
        runs = []
        for config in (method_config("F-LR-IRNNLS", lambda_star=0.0), method_config("F-IRNNLS")):
            iterates.clear()
            solve(y, T, config)
            runs.append(list(iterates))
        if len(runs[0]) != len(runs[1]):
            lengths_match = False
            break
        worst = max(worst, max(np.abs(p - q).max() for p, q in zip(*runs)))
    elapsed = time.perf_counter() - start
    ok = lengths_match and worst <= 1e-10 and elapsed < 10.0
    _verdict(
        capsys, 1, ok,
        f"zero nuclear weight reduces to the plain path; max iterate gap {worst:.3g} "
        f"(cap 1e-10) over 50 seeds, same step counts: {lengths_match}, {elapsed:.1f}s < 10s",
    )


# float32 unit roundoff. A float32 product of length m is off by at most
# GAMMA32(m) = m u / (1 - m u) times the product of the magnitudes (Higham,
# Accuracy and Stability of Numerical Algorithms, 3.1), casts included.
U32 = 2.0**-24


def _gamma32(m):
    return m * U32 / (1.0 - m * U32)


def _float32_kkt_cap(y, T, z, rho1):
    """Bound on the KKT residual of a coding-step fixed point that float32
    products leave, for a nonnegative dictionary with unit columns and
    weights in (0, 1].

    At a fixed point, y - e = fl(T z), u1 = 2 W (y - fl(T z)) and
    T'u1 - u2 = -rho1 (T'd1 + d2), where d1 = fl(T z) - T z and d2 is the error
    of fl(T'v), v = fl(T z) + u1 / rho1. The KKT gradient 2 T'W(T z - y) is
    then -u2, which satisfies the KKT sign conditions, plus
    rho1 (T'd1 + d2) - 2 T'W d1. So each entry of the residual is at most
    rho1 |d2| + (rho1 + 2) ||d1||, with |d2| <= GAMMA32(d + 1) ||v|| and
    ||d1|| <= GAMMA32(n + 1) ||T z||.
    """
    d, n = T.columns.shape
    Tz = T.columns @ z
    v = Tz + 2.0 * (y - Tz) / rho1
    return rho1 * _gamma32(d + 1) * np.linalg.norm(v) + (rho1 + 2.0) * _gamma32(n + 1) * np.linalg.norm(Tz)


def test_acceptance_2_coding_step_matches_nnls_oracle(capsys):
    """float64 to eps 1e-9 against the oracle; then the same instances with
    float32 columns, to eps 1e-6, the float32 floor SolverConfig states (below
    it the loop runs to s_max), under a KKT cap derived from float32 roundoff.
    The float32 gap is taken to the oracle's float64 solution, so it covers
    the rounding of the columns as well as the float32 products."""
    start = time.perf_counter()
    worst_gap = worst_step_kkt = worst_oracle_kkt = 0.0
    worst_gap32 = worst_kkt32 = worst_cap32 = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        T = random_dictionary(rng, 5, 4, 8, classes=4)
        residual = rng.normal(0.0, 0.3, 20)
        w = pinned_logistic_weights(residual, *logistic_params(residual, 0.6))
        a0 = rng.uniform(0.0, 1.0, 8)
        y = T.columns @ a0 + residual
        config = SolverConfig(
            regularizer="nonneg", lambda_star=0.0, eps1=1e-9, eps2=1e-9, s_max=5000,
        )
        cache = precompute_gram(T, config.gram_ratio)
        z = coding_step(y[:, None], cache, config, flat_start(T, y[:, None], w.values[:, None])).z[:, 0]
        rep = oracle_weighted_nnls(y, T, w, tol=1e-8)
        worst_gap = max(worst_gap, float(np.abs(z - rep.solution).max()))
        worst_step_kkt = max(worst_step_kkt, nnls_kkt_residual(y, T, w, z))
        worst_oracle_kkt = max(worst_oracle_kkt, rep.gap)

        T32 = as_float32(T)
        config32 = replace(config, eps1=1e-6, eps2=1e-6)
        cache32 = precompute_gram(T32, config32.gram_ratio)
        z32 = coding_step(y[:, None], cache32, config32, flat_start(T32, y[:, None], w.values[:, None])).z[:, 0]
        kkt32 = nnls_kkt_residual(y, T32, w, z32)
        cap32 = _float32_kkt_cap(y, T32, z32, config32.rho1)
        worst_gap32 = max(worst_gap32, float(np.abs(z32 - rep.solution).max()))
        worst_kkt32 = max(worst_kkt32, kkt32 / cap32)
        worst_cap32 = max(worst_cap32, cap32)
    elapsed = time.perf_counter() - start
    ok = (
        worst_gap <= 1e-4
        and worst_step_kkt <= 1e-6
        and worst_oracle_kkt <= 1e-6
        and worst_gap32 <= 1e-4
        and worst_kkt32 <= 1.0
        and elapsed < 60.0
    )
    _verdict(
        capsys, 2, ok,
        f"coding step vs independent solver over 100 instances: max gap {worst_gap:.3g} "
        f"(cap 1e-4), KKT {worst_step_kkt:.3g}/{worst_oracle_kkt:.3g} (cap 1e-6); "
        f"float32 columns at eps 1e-6: max gap {worst_gap32:.3g} (cap 1e-4), "
        f"KKT at most {worst_kkt32:.3g} of its roundoff cap (largest cap {worst_cap32:.3g}), "
        f"{elapsed:.1f}s < 60s",
    )


def test_acceptance_3_svt_certified_by_prox_oracle(capsys):
    all_certified = True
    worst_zero_tau = 0.0
    kill_ok = True
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        M = rng.normal(size=(12, 10))
        sigma1 = float(np.linalg.svd(M, full_matrices=False)[1][0])
        for tau in (0.0, 0.1, 1.0, sigma1 + 1.0):
            X = svt(M, tau)
            all_certified &= oracle_prox_nuclear(M, tau, X, tol=1e-8)
            if tau == 0.0:
                worst_zero_tau = max(worst_zero_tau, float(np.abs(X - M).max()))
            if tau >= sigma1:
                kill_ok &= not X.any()
    ok = all_certified and worst_zero_tau <= 1e-10 and kill_ok
    _verdict(
        capsys, 3, ok,
        f"singular value thresholding certified on 100 matrices x 4 thresholds: "
        f"all optimal {all_certified}, tau=0 gap {worst_zero_tau:.3g} (cap 1e-10), "
        f"tau past the spectrum zeroes the matrix: {kill_ok}",
    )


def test_acceptance_4_frozen_weight_objective_monotone(capsys, spy, frozen_weights):
    # A step on a working set returns the coefficients of its atoms only.
    steps = spy("coding_step", record=lambda args, kwargs, step: coded_coefficients(T.n, args, step))
    worst_rise = -np.inf
    config = SolverConfig(
        regularizer="nonneg", lambda_star=0.0,
        eps1=1e-8, eps2=1e-8, eps3=1e-10, t_max=12, s_max=5000,
    )
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        T = random_dictionary(rng, 5, 4, 8, classes=4)
        y = FaceVector(rng.uniform(0.0, 1.0, 20), T.geometry).normalized()
        start = flat_start(T, y.values[:, None])
        mu, eta = logistic_params(start.res[:, 0], 0.6)
        frozen_weights(mu, eta)
        steps.clear()
        solve(y, T, config)
        trace = [objective_value(a[:, 0], y, T, config, mu, eta) for a in [start.a] + steps]
        worst_rise = max(worst_rise, float(np.diff(trace).max()))
    ok = worst_rise <= 1e-9
    _verdict(
        capsys, 4, ok,
        f"objective trace nonincreasing across outer steps on 50 instances: "
        f"worst rise {worst_rise:.3g} (slack 1e-9)",
    )


def test_acceptance_5_inner_convergence_discipline(capsys, spy):
    a_updates, z_updates = spy("a_update"), spy("z_update")
    loops = converged_loops = 0
    z_ok = split_ok = True
    worst_split = 0.0
    for k in range(1000):
        rng = np.random.default_rng(5000 + k)
        T = random_dictionary(rng, 6, 4, 10, classes=5)
        y = FaceVector(rng.uniform(0.0, 1.0, 24), T.geometry).normalized()
        config = method_config("F-IRNNLS" if k % 2 else "F-LR-IRNNLS")
        a_updates.clear()
        z_updates.clear()
        res = solve(y, T, config)
        loops += len(res.inner_converged)
        converged_loops += sum(res.inner_converged)
        if res.inner_converged[-1]:
            a, z = a_updates[-1], z_updates[-1]
            z_ok &= bool(z.min() >= 0.0)
            gap = float(np.linalg.norm(a - z))
            worst_split = max(worst_split, gap)
            split_ok &= gap <= config.eps2
    fraction = converged_loops / loops
    ok = fraction >= 0.99 and z_ok and split_ok
    _verdict(
        capsys, 5, ok,
        f"default-tolerance discipline on 1000 solves: {fraction:.4f} of {loops} inner "
        f"loops converged (need 0.99), split z exactly nonnegative: {z_ok}, "
        f"worst |a-z| {worst_split:.3g} <= 0.1: {split_ok}",
    )


def _benchmark_config(method, occlusion):
    return ExperimentConfig(
        method=method,
        synthetic=SyntheticSpec(classes=10, per_class=7, rows=24, cols=21, extra_tests=3),
        seeds=(0, 1, 2, 3, 4),
        occlusion=occlusion,
    )


def test_acceptance_6_occlusion_benchmark_accuracy(capsys):
    start = time.perf_counter()
    acc = {
        m: run_experiment(_benchmark_config(m, 0.5)).accuracy
        for m in ("F-LR-IRNNLS", "F-IRNNLS", "CR-RLS")
    }
    elapsed = time.perf_counter() - start
    ok = (
        acc["F-LR-IRNNLS"] >= acc["F-IRNNLS"]
        and acc["F-LR-IRNNLS"] >= acc["CR-RLS"] + 0.15
        and acc["F-LR-IRNNLS"] >= 0.85
        and elapsed < 120.0
    )
    _verdict(
        capsys, 6, ok,
        f"half-occluded benchmark (5 seeds x 40 images): low-rank {acc['F-LR-IRNNLS']:.3f} "
        f">= plain {acc['F-IRNNLS']:.3f}, >= ridge {acc['CR-RLS']:.3f} + 0.15, "
        f">= 0.85, {elapsed:.1f}s < 120s",
    )


def test_acceptance_7_small_weights_localize_occlusion(capsys):
    patch = textured_patch()
    fractions = {"F-LR-IRNNLS": [], "F-IRNNLS": []}
    for seed in range(5):
        ds = make_synthetic_benchmark(classes=10, per_class=7, seed=seed)
        T = build_dictionary(ds.train, ds.train_labels)
        k = T.d // 4
        configs = {m: method_config(m, gamma=0.6) for m in fractions}
        caches = {m: precompute_gram(T, c.gram_ratio) for m, c in configs.items()}
        for idx, img in enumerate(ds.test):
            occluded, spec = occlude_block(img, patch, 0.4, _image_seed(seed, idx))
            y = occluded.normalized()
            flat_mask = spec.mask.reshape(-1, order="F")
            for m in fractions:
                res = solve(y, T, configs[m], cache=caches[m])
                smallest = np.argsort(res.w.values)[:k]
                fractions[m].append(float(flat_mask[smallest].mean()))
    lr = float(np.mean(fractions["F-LR-IRNNLS"]))
    plain = float(np.mean(fractions["F-IRNNLS"]))
    ok = lr >= 0.70 and lr > plain
    _verdict(
        capsys, 7, ok,
        f"smallest-quartile weights inside the occlusion mask: low-rank {lr:.4f} "
        f"(need >= 0.70) vs plain {plain:.4f} (must be strictly smaller)",
    )


def test_acceptance_8_licensed_dataset_golden_accuracy(capsys):
    manifest = os.environ.get("FACEID_YALE_MANIFEST")
    baboon = os.environ.get("FACEID_BABOON_PGM")
    if not manifest or not baboon:
        with capsys.disabled():
            print(
                "ACCEPTANCE 8 SKIP: set FACEID_YALE_MANIFEST and FACEID_BABOON_PGM "
                "to run the licensed-dataset golden accuracies"
            )
        pytest.skip("licensed dataset not configured")
    acc = {}
    for method in ("F-LR-IRNNLS", "F-IRNNLS"):
        config = ExperimentConfig(
            method=method,
            manifest=Path(manifest),
            geometry=ImageGeometry(96, 84),
            occlusion=0.6,
            patch=Path(baboon),
            seeds=(0,),
        )
        acc[method] = run_experiment(config).accuracy * 100.0
    ok = abs(acc["F-LR-IRNNLS"] - 95.82) <= 2.0 and abs(acc["F-IRNNLS"] - 80.22) <= 2.0
    _verdict(
        capsys, 8, ok,
        f"60% baboon occlusion goldens: low-rank {acc['F-LR-IRNNLS']:.2f}% "
        f"(want 95.82 +/- 2.0), plain {acc['F-IRNNLS']:.2f}% (want 80.22 +/- 2.0)",
    )


def test_acceptance_9_code_update_scales_linearly(capsys, monkeypatch):
    geometry = ImageGeometry(50, 40)
    config = method_config("F-LR-IRNNLS")
    rng = np.random.default_rng(9000)
    y = rng.uniform(0.0, 1.0, geometry.d)

    def setup(n):
        T = random_dictionary(rng, geometry.rows, geometry.cols, n, classes=10)
        cache = precompute_gram(T, config.gram_ratio)
        state = AdmmState(
            a=rng.uniform(0.0, 1.0, n),
            z=rng.uniform(0.0, 1.0, n),
            e=rng.normal(scale=0.1, size=geometry.d),
            u1=rng.normal(scale=0.1, size=geometry.d),
            u2=rng.normal(scale=0.1, size=n),
            w=rng.uniform(0.1, 1.0, geometry.d),
        )
        for _ in range(20):
            a_update(state, y, cache, config)
        return state, T, cache

    def block(state, T, cache, reps=300):
        # This process's CPU time: a busy host delays the process but does
        # not add CPU time to it, as it adds wall time.
        t0 = time.process_time()
        for _ in range(reps):
            a_update(state, y, cache, config)
        return time.process_time() - t0

    def products(state, T, cache, reps=5):
        counted = replace(cache, columns=T.columns.view(CountingMatmul))
        CountingMatmul.calls = 0
        for _ in range(reps):
            a_update(state, y, counted, config)
        return CountingMatmul.calls / reps

    small, large = setup(100), setup(400)
    # Alternate the two sizes so that host noise hits both alike; keep the best.
    t100 = t400 = np.inf
    for _ in range(5):
        t100 = min(t100, block(*small))
        t400 = min(t400, block(*large))
    ratio = t400 / t100
    per_update = {n: products(*inst) for n, inst in ((100, small), (400, large))}
    # Every call of the factoring routine is counted: after the cache is
    # built, a solve factors no n x n system and nothing inside a coding step,
    # and exactly one |S| x |S| system before each outer step: at 50x40 the
    # gather cap (98 float64 atoms) is below n = 400, so every step, the first
    # included, codes a working set.
    _, T400, cache400 = large
    log = record_factorizations(monkeypatch)
    res = solve(FaceVector(y, geometry).normalized(), T400, method_config("F-IRNNLS"), cache=cache400)
    restricted = [atoms_of(step).size for step in log["steps"] if atoms_of(step) is not None]
    full_factorizations = log["orders"].count(400)
    factorizations_ok = (
        full_factorizations == 0
        and log["in_step"] == 0
        and log["orders"] == restricted != []
        and len(log["orders"]) == res.outer_iterations
    )
    ok = ratio <= 8.0 and factorizations_ok and set(per_update.values()) == {1.0}
    _verdict(
        capsys, 9, ok,
        f"code update CPU time n=400 vs n=100: ratio {ratio:.2f} (cap 8.0); "
        f"d x n products per update: {per_update[100]:g} at n=100, {per_update[400]:g} at n=400 "
        f"(must be 1); factorizations after cache construction: {full_factorizations} of the n x n "
        f"system (must be 0), {log['in_step']} inside a coding step (must be 0), "
        f"{len(log['orders'])} of |S| x |S| systems for {len(restricted)} working-set steps in "
        f"{res.outer_iterations} outer steps (one per outer step)",
    )
