"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Each test computes its verdict, prints a single `ACCEPTANCE <n> PASS|FAIL`
line with the measured numbers, and then asserts. Criterion 8 needs licensed
face data and skips (with a SKIP line) unless FACEID_YALE_MANIFEST and
FACEID_BABOON_PGM point at it.
"""

import os
import time
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
from helpers import flat_start, random_dictionary
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


def test_acceptance_2_coding_step_matches_nnls_oracle(capsys):
    start = time.perf_counter()
    worst_gap = worst_step_kkt = worst_oracle_kkt = 0.0
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
        step = coding_step(y, T, w.values, cache, config, *flat_start(T))
        rep = oracle_weighted_nnls(y, T, w, tol=1e-8)
        worst_gap = max(worst_gap, float(np.abs(step.z - rep.solution).max()))
        worst_step_kkt = max(worst_step_kkt, nnls_kkt_residual(y, T, w, step.z))
        worst_oracle_kkt = max(worst_oracle_kkt, rep.gap)
    elapsed = time.perf_counter() - start
    ok = (
        worst_gap <= 1e-4
        and worst_step_kkt <= 1e-6
        and worst_oracle_kkt <= 1e-6
        and elapsed < 60.0
    )
    _verdict(
        capsys, 2, ok,
        f"coding step vs independent solver over 100 instances: max gap {worst_gap:.3g} "
        f"(cap 1e-4), KKT {worst_step_kkt:.3g}/{worst_oracle_kkt:.3g} (cap 1e-6), "
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
    steps = spy("coding_step")
    worst_rise = -np.inf
    config = SolverConfig(
        regularizer="nonneg", lambda_star=0.0,
        eps1=1e-8, eps2=1e-8, eps3=1e-10, t_max=12, s_max=5000,
    )
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        T = random_dictionary(rng, 5, 4, 8, classes=4)
        y = FaceVector(rng.uniform(0.0, 1.0, 20), T.geometry).normalized()
        a0, Ta0 = flat_start(T)
        mu, eta = logistic_params(y.values - Ta0, 0.6)
        frozen_weights(mu, eta)
        steps.clear()
        solve(y, T, config)
        trace = [objective_value(a, y, T, config, mu, eta) for a in [a0] + [s.a for s in steps]]
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


def test_acceptance_9_code_update_scales_linearly(capsys, spy):
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
            a_update(state, y, T, cache, config)
        return state, T, cache

    def block(state, T, cache, reps=300):
        t0 = time.perf_counter()
        for _ in range(reps):
            a_update(state, y, T, cache, config)
        return time.perf_counter() - t0

    small, large = setup(100), setup(400)
    # Alternate the two sizes so that host noise hits both alike; keep the best.
    t100 = t400 = np.inf
    for _ in range(5):
        t100 = min(t100, block(*small))
        t400 = min(t400, block(*large))
    ratio = t400 / t100
    _, T400, cache400 = large
    factorizations = spy("cho_factor")
    solve(
        FaceVector(y, geometry).normalized(), T400, method_config("F-IRNNLS"), cache=cache400
    )
    new_factorizations = len(factorizations)
    ok = ratio <= 8.0 and new_factorizations == 0
    _verdict(
        capsys, 9, ok,
        f"code update time n=400 vs n=100: ratio {ratio:.2f} (cap 8.0); "
        f"factorizations after cache construction: {new_factorizations} (must be 0)",
    )
