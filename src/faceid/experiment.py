"""Experiment configuration, the synthetic benchmark, and the batch runner."""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import classify, corruptions, dataio, solver
from .errors import ConfigError, NumericError
from .model import Dictionary, FaceVector, ImageGeometry, build_dictionary

REPORT_VERSION = 1


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
        return FaceVector(grid.reshape(-1, order="F"), spec.geometry)

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
    jobs: int = 1
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
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.export_weights and self.out_dir is None:
            raise ConfigError("exporting weight maps needs an output directory")

    @property
    def corrupted(self) -> bool:
        return self.occlusion is not None or self.pixel_fraction is not None


@dataclass(frozen=True)
class ExperimentRow:
    """One test image under one seed."""

    image_id: str
    seed: int
    true_label: str
    predicted_label: str
    correct: bool
    margin: float
    solve_seconds: float
    outer_iterations: int
    inner_iterations: int
    converged: bool
    error: str = ""


@dataclass
class ExperimentReport:
    """All rows of one experiment plus the headline aggregates."""

    method: str
    rows: list
    seeds: tuple
    n_train: int
    accuracy: float
    mean_seconds: float

    def write_csv(self, path):
        path = Path(path)
        with open(path, "w", newline="") as fh:
            fh.write(
                f"# faceid report v{REPORT_VERSION} method={self.method} "
                f"seeds={','.join(str(s) for s in self.seeds)} "
                f"accuracy={self.accuracy:.9g} mean_seconds={self.mean_seconds:.9g}\n"
            )
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "image_id", "seed", "true_label", "predicted_label", "correct",
                    "margin", "solve_seconds", "outer_iterations", "inner_iterations",
                    "converged", "error",
                ]
            )
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


@dataclass(frozen=True)
class _Unit:
    """One (seed, dictionary) slice of work."""

    seed: int
    dictionary: Dictionary
    cache: solver.GramCache
    tests: tuple
    labels: tuple


def _solve_one(unit, idx, config, solver_config, patch):
    img = unit.tests[idx]
    raw_label = unit.labels[idx]
    image_id = f"s{unit.seed}-t{idx:04d}"
    try:
        if config.occlusion is not None and config.pixel_fraction is not None:
            img, _ = corruptions.mixture_noise(
                img, config.pixel_fraction, config.occlusion, patch, _image_seed(unit.seed, idx)
            )
        elif config.occlusion is not None:
            img, _ = corruptions.occlude_block(img, patch, config.occlusion, _image_seed(unit.seed, idx))
        elif config.pixel_fraction is not None:
            img, _ = corruptions.corrupt_pixels(img, config.pixel_fraction, _image_seed(unit.seed, idx))
        y = img.normalized()
        result = solver.solve(y, unit.dictionary, solver_config, cache=unit.cache)
        outcome = classify.identify(y, unit.dictionary, result)
        predicted = unit.dictionary.class_names[outcome.predicted]
        if config.export_weights:
            dataio.export_weight_map(
                result.w, unit.dictionary.geometry, Path(config.out_dir) / f"{image_id}_w.pgm"
            )
        return ExperimentRow(
            image_id=image_id,
            seed=unit.seed,
            true_label=str(raw_label),
            predicted_label=str(predicted),
            correct=str(predicted) == str(raw_label),
            margin=outcome.margin,
            solve_seconds=result.wall_seconds,
            outer_iterations=result.outer_iterations,
            inner_iterations=result.total_inner_iterations,
            converged=result.converged,
        )
    except NumericError as exc:
        return ExperimentRow(
            image_id=image_id,
            seed=unit.seed,
            true_label=str(raw_label),
            predicted_label="",
            correct=False,
            margin=float("nan"),
            solve_seconds=0.0,
            outer_iterations=0,
            inner_iterations=0,
            converged=False,
            error=str(exc) or exc.__class__.__name__,
        )


def _manifest_unit(config, solver_config, seed):
    records = dataio.load_manifest(config.manifest).records
    faces, geometry = dataio.load_faces(records, config.geometry)
    train = [i for i, rec in enumerate(records) if rec.split == "train"]
    tests = [i for i, rec in enumerate(records) if rec.split == "test"]
    T = build_dictionary([faces[i] for i in train], [records[i].label for i in train], geometry)
    cache = solver.precompute_gram(T, solver_config.gram_ratio)
    return _Unit(
        seed=seed,
        dictionary=T,
        cache=cache,
        tests=tuple(faces[i] for i in tests),
        labels=tuple(records[i].label for i in tests),
    )


def resolve_gamma(gamma: Optional[float], corrupted: bool) -> float:
    """Logistic saturation fraction for a solve: gamma when given, else 0.6
    when the probes are corrupted and 0.8 when they are clean."""
    if gamma is not None:
        return gamma
    return 0.6 if corrupted else 0.8


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one identification experiment and aggregate a report.

    For a manifest dataset the dictionary is built once and every seed only
    re-randomizes the corruption; the synthetic benchmark is regenerated per
    seed, dictionary included. Each test image is corrupted (if requested),
    normalized to unit l2, solved, and classified. Rows are ordered by
    (seed, image index) whatever the number of worker threads.

    Returns:
        ExperimentReport; report.csv and weight maps land in out_dir if set.
    """
    gamma = resolve_gamma(config.gamma, config.corrupted)
    solver_config = solver.method_config(config.method, gamma=gamma, **config.solver_kwargs)
    patch = None
    if config.occlusion is not None:
        patch = dataio.load_pgm(config.patch) if config.patch else corruptions.textured_patch()

    if config.manifest is not None:
        first = _manifest_unit(config, solver_config, config.seeds[0])
        units = [first] + [replace(first, seed=seed) for seed in config.seeds[1:]]
    else:
        units = []
        for seed in config.seeds:
            ds = make_synthetic_benchmark(
                classes=config.synthetic.classes,
                per_class=config.synthetic.per_class,
                geometry=config.synthetic.geometry,
                seed=seed,
                extra_tests=config.synthetic.extra_tests,
            )
            T = build_dictionary(ds.train, ds.train_labels)
            cache = solver.precompute_gram(T, solver_config.gram_ratio)
            units.append(_Unit(seed, T, cache, ds.test, ds.test_labels))

    if config.out_dir is not None:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    tasks = [(unit, idx) for unit in units for idx in range(len(unit.tests))]
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(
                pool.map(lambda ui: _solve_one(ui[0], ui[1], config, solver_config, patch), tasks)
            )
    else:
        rows = [_solve_one(unit, idx, config, solver_config, patch) for unit, idx in tasks]
    rows.sort(key=lambda r: r.seed)  # stable: tasks are already in test-index order
    failed = sum(1 for r in rows if r.error)
    if rows and failed == len(rows):
        raise NumericError(f"all {failed} solves failed; first: {rows[0].error}")
    # A test-less dataset yields an empty (but well-formed) report.
    accuracy = sum(r.correct for r in rows) / len(rows) if rows else 0.0
    solved = [r for r in rows if not r.error]
    mean_seconds = float(np.mean([r.solve_seconds for r in solved])) if solved else 0.0
    report = ExperimentReport(
        method=config.method,
        rows=rows,
        seeds=tuple(config.seeds),
        n_train=units[0].dictionary.n,
        accuracy=float(accuracy),
        mean_seconds=mean_seconds,
    )
    if config.out_dir is not None:
        report.write_csv(Path(config.out_dir) / "report.csv")
    return report
