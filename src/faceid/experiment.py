"""Experiment configuration, the synthetic benchmark, and the batch runner."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import classify, corruptions, dataio, solver
from .errors import ConfigError, NumericError
from .model import ImageGeometry, build_dictionary, vectorize

REPORT_VERSION = 1
# Probes per solve_batch call: each batch turns the dictionary products into
# matrix-matrix products. Picked from a pinned sweep of 16, 32 and 64 (README).
BATCH = 64


def _blas_threads(environ) -> Optional[int]:
    """OpenBLAS's thread count under environ: the first of its variables that
    is a positive integer, or None when none is (it then uses every CPU)."""
    settings = (environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(v) for v in settings if v.isdecimal() and int(v) >= 1), None)


# OpenBLAS reads its variables once, when numpy loads it; so does this module.
_BLAS_THREADS = _blas_threads(os.environ)


@dataclass(frozen=True)
class SyntheticSpec:
    """Size of the synthetic face benchmark."""

    classes: int = 10
    per_class: int = 7
    rows: int = 24
    cols: int = 21
    extra_tests: int = 3

    def __post_init__(self):
        if self.classes < 2 or self.per_class < 2:
            raise ConfigError("need at least 2 classes and 2 images per class")
        if self.rows < 4 or self.cols < 4 or self.extra_tests < 0:
            raise ConfigError("bad synthetic benchmark shape")

    @property
    def geometry(self) -> ImageGeometry:
        return ImageGeometry(self.rows, self.cols)


@dataclass(frozen=True)
class SyntheticDataset:
    """In-memory benchmark: train/test face vectors with integer labels."""

    train: tuple
    train_labels: tuple
    test: tuple
    test_labels: tuple
    geometry: ImageGeometry
    seed: int


def _smooth_field(rng, rows, cols, terms=4):
    # Low-frequency cosine mixture, zero mean, unit spread.
    r = np.arange(rows)[:, None] / rows
    c = np.arange(cols)[None, :] / cols
    out = np.zeros((rows, cols))
    for _ in range(terms):
        fr, fc = 0, 0
        while fr == 0 and fc == 0:
            fr = int(rng.integers(0, 3))
            fc = int(rng.integers(0, 3))
        amp = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += amp * np.cos(2.0 * np.pi * (fr * r + fc * c) + phase)
    return (out - out.mean()) / (out.std() + 1e-12)


def _correlation(a, b) -> float:
    af = a.ravel() - a.mean()
    bf = b.ravel() - b.mean()
    return float(af @ bf / ((np.linalg.norm(af) * np.linalg.norm(bf)) + 1e-300))


def _illumination_ramp(rng, size):
    # Linear ramp with a slope bounded away from flat so every sample shades.
    u = float(rng.uniform(-1.0, 1.0))
    u = 0.35 if u == 0.0 else (u + 0.35 * np.sign(u)) / 1.35
    return 1.0 + u * np.linspace(-0.5, 0.5, size)


def make_synthetic_benchmark(
    classes: int = 10,
    per_class: int = 7,
    geometry: ImageGeometry = None,
    seed: int = 0,
    extra_tests: int = 3,
) -> SyntheticDataset:
    """Deterministic face-like benchmark with a held-out + fresh test split.

    Each class gets a smooth template: a shared base mixed with a per-class
    cosine field, resampled until every pairwise template correlation stays
    below 0.95. Samples multiply the template by an illumination field with
    values in [0.6, 1.4] (a product of two random linear ramps stretched over
    that range, so the shading is smooth and structured like a cast light
    gradient), add sigma = 0.02 Gaussian noise, and clip to [0, 1]. Per
    class, samples 0..per_class-2 train, sample per_class-1 is the held-out
    test image, and extra_tests fresh draws join the test split.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    spec = SyntheticSpec(
        classes=classes,
        per_class=per_class,
        rows=geometry.rows if geometry else 24,
        cols=geometry.cols if geometry else 21,
        extra_tests=extra_tests,
    )
    rows, cols = spec.rows, spec.cols
    shared = _smooth_field(corruptions.philox_stream(seed, 0, classes), rows, cols)
    templates = []
    for c in range(classes):
        for attempt in range(64):
            rng = corruptions.philox_stream(seed, 1, c, attempt)
            mix = 0.45 * shared + 0.55 * _smooth_field(rng, rows, cols)
            if all(_correlation(mix, t) < 0.95 for t in templates):
                break
        else:
            raise NumericError(f"no template for class {c} clears the correlation cap")
        lo, hi = mix.min(), mix.max()
        templates.append(0.15 + 0.7 * (mix - lo) / (hi - lo + 1e-300))

    def sample(c, i):
        rng = corruptions.philox_stream(seed, 2, c, i)
        shade = np.outer(_illumination_ramp(rng, rows), _illumination_ramp(rng, cols))
        shade = (shade - shade.min()) / (shade.max() - shade.min() + 1e-300)
        field = 0.6 + 0.8 * shade
        noise = rng.normal(0.0, 0.02, size=(rows, cols))
        grid = np.clip(templates[c] * field + noise, 0.0, 1.0)
        return vectorize(grid)

    train, train_labels, test, test_labels = [], [], [], []
    for c in range(classes):
        for i in range(per_class - 1):
            train.append(sample(c, i))
            train_labels.append(c)
        test.append(sample(c, per_class - 1))
        test_labels.append(c)
        for i in range(per_class, per_class + extra_tests):
            test.append(sample(c, i))
            test_labels.append(c)
    return SyntheticDataset(
        train=tuple(train),
        train_labels=tuple(train_labels),
        test=tuple(test),
        test_labels=tuple(test_labels),
        geometry=spec.geometry,
        seed=int(seed),
    )


@dataclass
class ExperimentConfig:
    """One identification experiment: dataset, method, corruption, seeds."""

    method: str = "F-LR-IRNNLS"
    manifest: Optional[Path] = None
    synthetic: Optional[SyntheticSpec] = None
    geometry: Optional[ImageGeometry] = None
    occlusion: Optional[float] = None
    patch: Optional[Path] = None
    pixel_fraction: Optional[float] = None
    seeds: tuple = (0,)
    out_dir: Optional[Path] = None
    export_weights: bool = False
    gamma: Optional[float] = None
    solver_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in solver.METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {sorted(solver.METHODS)}")
        if (self.manifest is None) == (self.synthetic is None):
            raise ConfigError("give exactly one of manifest or synthetic")
        if self.synthetic is not None and self.geometry is not None:
            raise ConfigError("resize applies only to manifest images, not to synthetic ones")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {tuple(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be nonnegative, got {tuple(self.seeds)}")
        if self.occlusion is not None and not 0.0 < self.occlusion < 1.0:
            raise ConfigError(f"occlusion must be in (0, 1), got {self.occlusion}")
        if self.patch is not None and self.occlusion is None:
            raise ConfigError("an occluder patch needs an occlusion fraction")
        if self.pixel_fraction is not None and not 0.0 <= self.pixel_fraction <= 1.0:
            raise ConfigError(f"pixel fraction must be in [0, 1], got {self.pixel_fraction}")
        if self.manifest is not None and len(self.seeds) > 1 and not (self.occlusion or self.pixel_fraction):
            raise ConfigError("each seed would solve the same probes: add a corruption flag that draws")
        if self.export_weights and self.out_dir is None:
            raise ConfigError("exporting weight maps needs an output directory")

    @property
    def corrupted(self) -> bool:
        return self.occlusion is not None or self.pixel_fraction is not None


@dataclass(frozen=True)
class ExperimentRow:
    """One test image under one seed; the outcome defaults are those of a
    failed solve, which names its error instead."""

    image_id: str
    seed: int
    true_label: str
    predicted_label: str = ""
    correct: bool = False
    margin: float = float("nan")
    solve_seconds: float = 0.0
    outer_iterations: int = 0
    inner_iterations: int = 0
    converged: bool = False
    error: str = ""


@dataclass
class ExperimentReport:
    """All rows of one experiment, its aggregates, and the BLAS threads it ran on."""

    method: str
    rows: list
    seeds: tuple
    accuracy: float
    mean_seconds: float
    blas_threads: Optional[int]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(
                f"# faceid report v{REPORT_VERSION} method={self.method} "
                f"seeds={','.join(str(s) for s in self.seeds)} "
                f"accuracy={self.accuracy:.9g} mean_seconds={self.mean_seconds:.9g} "
                f"blas_threads={self.blas_threads or 'unset'}\n"
            )
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(ExperimentRow)])
            for r in self.rows:
                writer.writerow(
                    [
                        r.image_id, r.seed, r.true_label, r.predicted_label, int(r.correct),
                        f"{r.margin:.9g}", f"{r.solve_seconds:.6f}", r.outer_iterations,
                        r.inner_iterations, int(r.converged), r.error,
                    ]
                )


def _image_seed(seed: int, index: int) -> int:
    # Stable per-image corruption stream, decorrelated from the run seed.
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _row(config, T, seed, idx, label, y, outcome) -> ExperimentRow:
    """The report row of one probe: its classification and weight map, or the
    NumericError that its solve (outcome) or its export raised."""
    image_id = f"s{seed}-t{idx:04d}"
    try:
        if isinstance(outcome, NumericError):
            raise outcome
        classified = classify.identify(y, T, outcome)
        predicted = T.class_names[classified.predicted]
        if config.export_weights:
            dataio.export_weight_map(outcome.w, T.geometry, Path(config.out_dir) / f"{image_id}_w.pgm")
        return ExperimentRow(
            image_id, seed, str(label), str(predicted), str(predicted) == str(label), classified.margin,
            outcome.wall_seconds, outcome.outer_iterations, outcome.total_inner_iterations, outcome.converged,
        )
    except NumericError as exc:
        return ExperimentRow(image_id, seed, str(label), error=str(exc) or exc.__class__.__name__)


def enroll(records, geometry: Optional[ImageGeometry] = None):
    """Load manifest records (the first fixes the geometry unless one is
    given) and build the dictionary from the train ones. Returns
    (dictionary, test faces, test labels), the tests in record order."""
    faces, geometry = dataio.load_faces(records, geometry)
    train = [i for i, rec in enumerate(records) if rec.split == "train"]
    tests = [i for i, rec in enumerate(records) if rec.split == "test"]
    T = build_dictionary([faces[i] for i in train], [records[i].label for i in train], geometry)
    return T, tuple(faces[i] for i in tests), tuple(records[i].label for i in tests)


def resolve_gamma(gamma: Optional[float], corrupted: bool) -> float:
    """Logistic saturation fraction for a solve: gamma when given, else 0.6
    when the probes are corrupted and 0.8 when they are clean."""
    if gamma is not None:
        return gamma
    return 0.6 if corrupted else 0.8


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one identification experiment and aggregate a report.

    Seeds run in ascending order. A manifest dictionary is built once and
    every seed only re-randomizes the corruption; the synthetic benchmark is
    regenerated per seed, dictionary included, and released before the next
    seed builds its own. Each test image is corrupted (if requested) and
    normalized to unit l2; a gallery's probes are solved in index order, in
    batches of BATCH, and each is classified. Rows come out in (seed, image
    index) order. The BLAS thread count is the one this module read when it
    loaded, which is when OpenBLAS read it unless numpy was imported earlier.

    Returns:
        ExperimentReport; report.csv and weight maps land in out_dir if set.
    """
    gamma = resolve_gamma(config.gamma, config.corrupted)
    solver_config = solver.method_config(config.method, gamma=gamma, **config.solver_kwargs)
    patch = None
    if config.occlusion is not None:
        patch = dataio.load_pgm(config.patch) if config.patch else corruptions.textured_patch()
    if config.manifest is not None:
        T, tests, labels = enroll(dataio.load_manifest(config.manifest).records, config.geometry)
        cache = solver.precompute_gram(T, solver_config.gram_ratio)
    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)

    rows = []
    for seed in sorted(config.seeds):
        if config.synthetic is not None:
            ds = T = cache = tests = labels = None  # so this seed's gallery is not built beside the last one
            spec = config.synthetic
            ds = make_synthetic_benchmark(spec.classes, spec.per_class, spec.geometry, seed, spec.extra_tests)
            T = build_dictionary(ds.train, ds.train_labels)
            cache = solver.precompute_gram(T, solver_config.gram_ratio)
            tests, labels = ds.test, ds.test_labels
        for start in range(0, len(tests), BATCH):
            indices = range(start, min(start + BATCH, len(tests)))
            ys = []
            for idx in indices:
                img = tests[idx]
                if config.corrupted:
                    img, _ = corruptions.corrupt(
                        img, _image_seed(seed, idx), config.pixel_fraction or 0.0, config.occlusion, patch
                    )
                ys.append(img.normalized())
            for idx, y, outcome in zip(indices, ys, solver.solve_batch(ys, T, solver_config, cache)):
                rows.append(_row(config, T, seed, idx, labels[idx], y, outcome))
    failed = sum(1 for r in rows if r.error)
    if rows and failed == len(rows):
        raise NumericError(f"all {failed} solves failed; first: {rows[0].error}")
    # A test-less dataset yields an empty (but well-formed) report.
    accuracy = sum(r.correct for r in rows) / len(rows) if rows else 0.0
    solved = [r for r in rows if not r.error]
    mean_seconds = float(np.mean([r.solve_seconds for r in solved])) if solved else 0.0
    report = ExperimentReport(
        method=config.method, rows=rows, seeds=tuple(config.seeds), accuracy=float(accuracy),
        mean_seconds=mean_seconds, blas_threads=_BLAS_THREADS,
    )
    if config.out_dir is not None:
        report.write_csv(Path(config.out_dir) / "report.csv")
    return report
