"""Fixed-work identification benchmark for faceid.

Run from the repository root:

    python3 perfbench/run.py --workload small-lowrank --seed 0 --seconds 10 --trace 0

The run writes the workload's galleries (training PGMs, block-occluded probe
PGMs and a manifest) under .perfbench/ in a child process, enrolls them
several times to time set-up, then identifies the probes one at a time in a
closed loop, in whole rounds of the same probe list, until --seconds have
passed. Every outcome is checked (see checks.py). The last line of standard
output is one JSON object: end-to-end metrics with --trace 0; with --trace 1,
per-layer metrics, timed by wrapping the program's functions (see tracing.py),
and the overhead of that wrapping.
"""

import os

# Pin BLAS to one thread before numpy loads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from faceid import classify, dataio, model, solver
from faceid.errors import NumericError

import checks
from tracing import Tracer, wrapper_cost_ns
from workloads import WORKLOADS, gallery_dirs

GAMMA = 0.6  # what `faceid bench` uses on corrupted input
OUT = ROOT / ".perfbench"


def enroll(manifests, geometries, ratio):
    """Load every gallery, build its dictionary and factor its Gram matrix."""
    galleries = []
    for path, geometry in zip(manifests, geometries):
        manifest = dataio.load_manifest(path)
        train = manifest.split("train")
        faces = [dataio.load_face(rec.path, geometry) for rec in train]
        T = model.build_dictionary(faces, [rec.label for rec in train], geometry)
        galleries.append((manifest, T, solver.precompute_gram(T, ratio)))
    return galleries


def timed_setup(manifests, geometries, ratio, reps, tracer=None):
    """Enroll `reps` times; per-rep wall seconds and, if traced, span totals."""
    walls, spans = [], []
    for _ in range(reps):
        galleries = None
        gc.collect()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        galleries = enroll(manifests, geometries, ratio)
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            spans.append(tracer.snapshot())
    return galleries, walls, spans


def identify_round(probes, galleries, config):
    """One closed-loop pass; returns (outcomes, latencies, wall seconds)."""
    outcomes, latencies = [], []
    gc.collect()
    start = time.perf_counter()
    for g, y, _ in probes:
        _, T, cache = galleries[g]
        t0 = time.perf_counter()
        try:
            result = solver.solve(y, T, config, cache=cache)
            predicted = classify.identify(y, T, result).predicted
        except NumericError as exc:
            print(f"probe failed: {exc}", file=sys.stderr)
            outcomes.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        outcomes.append((result, predicted))
    return outcomes, latencies, time.perf_counter() - start


def run_rounds(probes, galleries, config, seconds):
    """Whole rounds of the probe list until `seconds` of identification."""
    rounds, latencies, wall = [], [], 0.0
    while not rounds or wall < seconds:
        outcomes, lat, w = identify_round(probes, galleries, config)
        rounds.append(outcomes)
        latencies.extend(lat)
        wall += w
    return rounds, latencies, wall


def check_outcomes(workload, config, probes, galleries, rounds):
    """Failures of the per-probe checks, the determinism across rounds, the
    accuracy floor and, where the workload asks for it, the NNLS oracle."""
    failures = []
    first = rounds[0]
    for r, outcomes in enumerate(rounds):
        for i, ((g, y, _), outcome) in enumerate(zip(probes, outcomes)):
            if outcome is None:
                continue
            result, predicted = outcome
            T = galleries[g][1]
            for msg in checks.check_probe(
                y.values, T.columns, T.labels, result.a, result.e, result.w.values,
                predicted, result.inner_converged[-1], config,
            ):
                failures.append(f"round {r} probe {i}: {msg}")
            ref = first[i]
            if ref is None or (predicted, result.inner_iterations) != (ref[1], ref[0].inner_iterations):
                failures.append(f"round {r} probe {i}: differs from round 0")
    correct = sum(o is not None and o[1] == truth for (_, _, truth), o in zip(probes, first))
    failures += checks.check_accuracy(correct / len(probes), workload.accuracy_floor)
    if workload.nnls_oracle:
        agree = 0
        for (g, y, _), outcome in zip(probes, first):
            if outcome is not None:
                T = galleries[g][1]
                agree += checks.nnls_class(y.values, T.columns, T.labels, outcome[0].w.values) == outcome[1]
        failures += checks.check_oracle_agreement(agree, len(probes))
    return failures, correct / len(probes)


def layer_metrics(tracer, rounds, setup_spans, overhead_pct):
    """Per-layer metrics from the traced pass: seconds per probe for spans in
    the identification loop, seconds per enrollment (median) for set-up."""
    solved = [o[0] for outcomes in rounds for o in outcomes if o is not None]
    n = max(1, len(solved))
    per_probe = lambda name, self_time=False: tracer.seconds(name, self_time) / n
    inner = sum(r.total_inner_iterations for r in solved)

    def setup(*names):
        return statistics.median(sum(s.get(k, {}).get("total_s", 0.0) for k in names) for s in setup_spans)

    values = {
        "dataio.load_s": (setup("dataio.load_manifest", "dataio.load_face"), "s"),
        "model.build_dictionary_s": (setup("model.build_dictionary"), "s"),
        "solver.precompute_gram_s": (setup("solver.precompute_gram"), "s"),
        "solver.e_update_s": (per_probe("solver.e_update", True), "s"),
        "solver.a_update_s": (per_probe("solver.a_update", True), "s"),
        "solver.dual_update_s": (per_probe("solver.dual_update"), "s"),
        "solver.z_update_s": (per_probe("solver.z_update"), "s"),
        "solver.gram_apply_s": (per_probe("solver.gram_apply"), "s"),
        "solver.coding_step_self_s": (per_probe("solver.coding_step", True), "s"),
        "solver.solve_self_s": (per_probe("solver.solve", True), "s"),
        "solver.inner_iter_us": (tracer.seconds("solver.coding_step") * 1e6 / max(1, inner), "us"),
        "prox.svt_s": (per_probe("prox.svt"), "s"),
        "prox.svt_calls": (tracer.calls["prox.svt"] // len(rounds), "count"),
        "weights.weight_update_s": (per_probe("weights.weight_update"), "s"),
        "classify.identify_s": (per_probe("classify.identify"), "s"),
        "solver.outer_iters_per_probe": (sum(r.outer_iterations for r in solved) / n, "count"),
        "solver.inner_iters_per_probe": (inner / n, "count"),
        "solver.capped_solves": (sum(not r.converged for r in solved) // len(rounds), "count"),
        "solver.capped_coding_steps": (
            sum(r.inner_converged.count(False) for r in solved) // len(rounds), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.absent_spans": (len(tracer.absent), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(workload, seed, seconds, trace):
    specs = workload.galleries(seed)
    config = solver.method_config(workload.method, gamma=GAMMA)
    tracer = Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{seed}-", dir=OUT))
    try:
        dirs = gallery_dirs(workload, seed, work)
        # A child process writes the inputs, so their generation leaves no
        # trace in this process's peak RSS. subprocess.run waits for it to end.
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workloads.py")), workload.name, str(seed), str(work)],
            env=env, check=True,
        )
        geometries = [s.geometry for s in specs]
        with tracer.installed() if tracer else contextlib.nullcontext():
            galleries, setup_walls, setup_spans = timed_setup(
                [d / "manifest.txt" for d in dirs], geometries, config.gram_ratio, workload.setup_reps, tracer)
            probes = []
            for g, (manifest, T, _) in enumerate(galleries):
                for rec in manifest.split("test"):
                    y = dataio.load_face(rec.path, geometries[g]).normalized()
                    probes.append((g, y, T.class_names.index(rec.label)))
            probes = [probes[i] for i in np.random.default_rng(seed).permutation(len(probes))]
            if tracer:
                tracer.reset()
            rounds, latencies, wall = run_rounds(probes, galleries, config, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures, accuracy = check_outcomes(workload, config, probes, galleries, rounds)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(probes) * len(rounds),
        "failed": sum(o is None for outcomes in rounds for o in outcomes),
    }
    if len(latencies) >= 200:
        # A tail with ten samples beyond it; not a gated metric (README.md).
        print(f"latency p95: {1e3 * np.percentile(latencies, 95):.1f} ms over {len(latencies)} probes",
              file=sys.stderr)
    if not trace:
        result["metrics"] = {
            "images_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * float(np.percentile(latencies, 50)), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "accuracy": {"value": accuracy, "unit": "fraction"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return result
    overhead_pct = 100.0 * sum(tracer.calls.values()) * wrapper_cost_ns() / 1e9 / wall
    result["metrics"] = layer_metrics(tracer, rounds, setup_spans, overhead_pct)
    OUT.joinpath(f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "rounds": len(rounds),
        "probes": len(probes),
        "identify_s": wall,
        "absent": tracer.absent,
        "setup_spans": setup_spans,
        "identify_spans": tracer.snapshot(),
    }, indent=1))
    for name in tracer.absent:
        print(f"span absent: {name}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
