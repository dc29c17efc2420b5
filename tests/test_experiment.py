"""Synthetic benchmark generation and the batch experiment runner."""

import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import faceid.corruptions
import faceid.dataio
import faceid.experiment
import faceid.solver
from faceid.dataio import load_pgm, resize_nearest, save_pgm
from faceid.errors import ConfigError, NumericError
from faceid.experiment import (
    ExperimentConfig,
    SyntheticSpec,
    _blas_threads,
    _image_seed,
    make_synthetic_benchmark,
    run_experiment,
)
from faceid.model import FaceVector, ImageGeometry, matricize, vectorize


SMALL = dict(classes=3, per_class=3, rows=12, cols=10, extra_tests=0)


def test_synthetic_spec_validation():
    SyntheticSpec()
    with pytest.raises(ConfigError):
        SyntheticSpec(classes=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(per_class=1)
    with pytest.raises(ConfigError):
        SyntheticSpec(rows=2)
    with pytest.raises(ConfigError):
        SyntheticSpec(extra_tests=-1)


def test_synthetic_benchmark_rejects_negative_seed():
    with pytest.raises(ConfigError, match="nonnegative"):
        make_synthetic_benchmark(classes=2, per_class=2, seed=-1)


def test_benchmark_split_counts():
    ds = make_synthetic_benchmark(seed=0)
    assert len(ds.train) == 10 * 6 == len(ds.train_labels)
    assert len(ds.test) == 10 * 4 == len(ds.test_labels)
    assert ds.geometry == ImageGeometry(24, 21)
    assert sorted(set(ds.train_labels)) == list(range(10))
    assert all(0.0 <= f.values.min() and f.values.max() <= 1.0 for f in ds.train + ds.test)


def test_benchmark_deterministic_per_seed():
    a = make_synthetic_benchmark(classes=3, per_class=3, geometry=ImageGeometry(10, 8), seed=5)
    b = make_synthetic_benchmark(classes=3, per_class=3, geometry=ImageGeometry(10, 8), seed=5)
    c = make_synthetic_benchmark(classes=3, per_class=3, geometry=ImageGeometry(10, 8), seed=6)
    assert all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a.train, b.train))
    assert all(x.values.tobytes() == y.values.tobytes() for x, y in zip(a.test, b.test))
    assert any(x.values.tobytes() != y.values.tobytes() for x, y in zip(a.train, c.train))


def test_benchmark_classes_are_separable():
    geometry = ImageGeometry(16, 14)
    total = hits = 0
    for seed in range(3):
        ds = make_synthetic_benchmark(classes=6, per_class=5, geometry=geometry, seed=seed, extra_tests=2)
        means = []
        for c in range(6):
            vals = [f.values for f, lab in zip(ds.train, ds.train_labels) if lab == c]
            means.append(np.mean(vals, axis=0))

        def corr(a, b):
            a = a - a.mean()
            b = b - b.mean()
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        for i in range(6):
            for j in range(i + 1, 6):
                assert corr(means[i], means[j]) < 0.95
        for f, lab in zip(ds.test, ds.test_labels):
            total += 1
            hits += int(np.argmax([corr(f.values, m) for m in means])) == lab
    assert hits >= 40  # measured 47 of 54 on these seeds


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(method="PCA", synthetic=SyntheticSpec())
    with pytest.raises(ConfigError):
        ExperimentConfig(manifest=tmp_path / "m.csv", synthetic=SyntheticSpec())
    with pytest.raises(ConfigError):
        ExperimentConfig()
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=SyntheticSpec(), seeds=())
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=SyntheticSpec(), occlusion=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(synthetic=SyntheticSpec(), pixel_fraction=1.5)
    with pytest.raises(ConfigError, match="resize"):
        ExperimentConfig(synthetic=SyntheticSpec(), geometry=ImageGeometry(6, 5))
    with pytest.raises(ConfigError, match="patch"):
        ExperimentConfig(synthetic=SyntheticSpec(), patch=tmp_path / "missing.pgm")
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig(synthetic=SyntheticSpec(), seeds=(1, 1))
    with pytest.raises(ConfigError, match="nonnegative"):
        ExperimentConfig(synthetic=SyntheticSpec(), seeds=(0, -1))
    for clean in ({}, {"pixel_fraction": 0.0}):  # a zero fraction draws nothing
        with pytest.raises(ConfigError, match="corruption flag"):
            ExperimentConfig(manifest=tmp_path / "m.csv", seeds=(0, 1), **clean)
    ExperimentConfig(manifest=tmp_path / "m.csv", seeds=(0, 1), pixel_fraction=0.1)
    ExperimentConfig(manifest=tmp_path / "m.csv", seeds=(1,))
    assert not ExperimentConfig(synthetic=SyntheticSpec()).corrupted
    assert ExperimentConfig(synthetic=SyntheticSpec(), occlusion=0.3).corrupted


def test_export_weights_needs_out_dir():
    with pytest.raises(ConfigError, match="output directory"):
        ExperimentConfig(synthetic=SyntheticSpec(), export_weights=True)


def _small_config(**kw):
    base = dict(method="F-LR-IRNNLS", synthetic=SyntheticSpec(**SMALL), seeds=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_refuses_a_float_cap_before_any_solve():
    # Refused by method_config before any gallery is built, not inside every solve.
    with pytest.raises(ConfigError, match="t_max"):
        run_experiment(_small_config(solver_kwargs={"t_max": 2.5}))


def _dictionary_sizes(monkeypatch):
    """The atom count of the dictionary of each solve_batch call that
    run_experiment makes, in call order."""
    sizes, original = [], faceid.solver.solve_batch

    def recorded(ys, T, *args, **kwargs):
        sizes.append(T.n)
        return original(ys, T, *args, **kwargs)

    monkeypatch.setattr(faceid.solver, "solve_batch", recorded)
    return sizes


def test_run_experiment_report_shape(monkeypatch):
    sizes = _dictionary_sizes(monkeypatch)
    report = run_experiment(_small_config())
    assert report.method == "F-LR-IRNNLS"
    assert sizes and set(sizes) == {6}
    assert len(report.rows) == 6  # 3 held-out tests per seed
    assert [r.image_id for r in report.rows] == [
        "s0-t0000", "s0-t0001", "s0-t0002", "s1-t0000", "s1-t0001", "s1-t0002",
    ]
    assert report.accuracy == pytest.approx(sum(r.correct for r in report.rows) / 6)
    assert report.mean_seconds > 0.0
    assert all(r.error == "" for r in report.rows)
    assert all(r.inner_iterations >= r.outer_iterations for r in report.rows)


def test_run_experiment_rows_follow_ascending_seeds():
    report = run_experiment(_small_config(seeds=(2, 0)))
    assert [r.image_id for r in report.rows] == [
        "s0-t0000", "s0-t0001", "s0-t0002", "s2-t0000", "s2-t0001", "s2-t0002",
    ]
    assert report.seeds == (2, 0)


def test_run_experiment_rows_keep_test_index_order_past_9999():
    # Five-digit indices sort before four-digit ones as strings ("t10000" < "t1001").
    report = run_experiment(ExperimentConfig(
        method="CR-RLS",
        synthetic=SyntheticSpec(classes=2, per_class=2, rows=4, cols=4, extra_tests=5000),
    ))
    assert len(report.rows) == 10002
    assert [r.image_id for r in report.rows] == [f"s0-t{i:04d}" for i in range(10002)]


@pytest.mark.parametrize(
    "environ, expected",
    [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "one"}, None),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1"}, 2),
    ],
)
def test_blas_threads_follow_openblas_order(environ, expected):
    assert _blas_threads(environ) == expected


def test_run_experiment_reads_the_blas_variables_once(monkeypatch):
    # OpenBLAS read them when numpy loaded; a later change does not reach it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "13")
    report = run_experiment(_small_config())
    assert report.blas_threads == faceid.experiment._BLAS_THREADS != 13


def test_run_experiment_batch_size_does_not_change_results(monkeypatch):
    """Probes solved one at a time and in batches of 3 (4 probes per seed, so
    a batch of 3 and one of 1) give the same predictions in the same rows."""
    spec = SyntheticSpec(**dict(SMALL, classes=4))
    monkeypatch.setattr(faceid.experiment, "BATCH", 1)
    solo = run_experiment(_small_config(synthetic=spec, occlusion=0.3))
    monkeypatch.setattr(faceid.experiment, "BATCH", 3)
    batched = run_experiment(_small_config(synthetic=spec, occlusion=0.3))
    strip = lambda rows: [(r.image_id, r.seed, r.true_label, r.predicted_label, r.correct, r.error) for r in rows]
    assert len(solo.rows) == 8
    assert strip(solo.rows) == strip(batched.rows)
    assert solo.accuracy == batched.accuracy


def test_run_experiment_holds_one_synthetic_gallery_at_a_time():
    def peak(seeds):
        config = ExperimentConfig(
            method="CR-RLS", synthetic=SyntheticSpec(10, 7, 48, 42, extra_tests=0), seeds=seeds
        )
        tracemalloc.start()
        try:
            run_experiment(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak((0,)), peak((3, 1, 0, 2))
    assert four <= 1.5 * one, f"4 seeds peak at {four / one:.2f}x 1 seed"


def test_run_experiment_writes_versioned_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(faceid.experiment, "_BLAS_THREADS", 1)
    report = run_experiment(_small_config(out_dir=tmp_path))
    text = (tmp_path / "report.csv").read_text().splitlines()
    assert text[0].startswith("# faceid report v1 method=F-LR-IRNNLS seeds=0,1 accuracy=")
    assert f"accuracy={report.accuracy:.9g}" in text[0]
    assert text[0].endswith(f" mean_seconds={report.mean_seconds:.9g} blas_threads=1")
    replace(report, blas_threads=None).write_csv(tmp_path / "unset.csv")
    assert (tmp_path / "unset.csv").read_text().splitlines()[0].endswith(" blas_threads=unset")
    rows = list(csv.reader(text[1:]))
    assert rows[0][:3] == ["image_id", "seed", "true_label"]
    assert len(rows) == 1 + len(report.rows)
    for parsed, row in zip(rows[1:], report.rows):
        assert parsed[0] == row.image_id
        assert parsed[4] == str(int(row.correct))


def test_run_experiment_exports_weight_maps(tmp_path):
    config = _small_config(seeds=(2,), out_dir=tmp_path, export_weights=True)
    report = run_experiment(config)
    files = sorted(p.name for p in tmp_path.glob("*_w.pgm"))
    assert files == ["s2-t0000_w.pgm", "s2-t0001_w.pgm", "s2-t0002_w.pgm"]
    grid = load_pgm(tmp_path / files[0])
    assert grid.shape == (12, 10)
    assert len(report.rows) == 3


def test_run_experiment_gamma_defaults(monkeypatch):
    seen = []
    original = faceid.solver.method_config

    def spy(name, gamma=None, **kw):
        seen.append(gamma)
        return original(name, gamma=gamma, **kw)

    monkeypatch.setattr(faceid.solver, "method_config", spy)
    run_experiment(_small_config(seeds=(0,)))
    run_experiment(_small_config(seeds=(0,), occlusion=0.3))
    run_experiment(_small_config(seeds=(0,), occlusion=0.3, gamma=0.7))
    assert seen == [0.8, 0.6, 0.7]


def test_run_experiment_corruption_dispatch(monkeypatch):
    calls = []
    original = faceid.corruptions.corrupt

    def spy(img, seed, pixel_fraction=0.0, coverage=None, patch=None):
        calls.append((pixel_fraction, coverage))
        return original(img, seed, pixel_fraction, coverage, patch)

    monkeypatch.setattr(faceid.corruptions, "corrupt", spy)
    run_experiment(_small_config(seeds=(0,), occlusion=0.3))
    assert calls == [(0.0, 0.3)] * 3
    calls.clear()
    run_experiment(_small_config(seeds=(0,), pixel_fraction=0.2))
    assert calls == [(0.2, None)] * 3
    calls.clear()
    run_experiment(_small_config(seeds=(0,), occlusion=0.3, pixel_fraction=0.2))
    assert calls == [(0.2, 0.3)] * 3
    calls.clear()
    run_experiment(_small_config(seeds=(0,)))
    assert calls == []


def _manifest_from_synthetic(tmp_path):
    ds = make_synthetic_benchmark(
        classes=3, per_class=3, geometry=ImageGeometry(12, 10), seed=0, extra_tests=0
    )
    lines = []
    for split, faces, labels in (("train", ds.train, ds.train_labels), ("test", ds.test, ds.test_labels)):
        for k, (face, lab) in enumerate(zip(faces, labels)):
            name = f"{split}{k}.pgm"
            save_pgm(matricize(face), tmp_path / name)
            lines.append(f"{split},p{lab},{name}")
    mf = tmp_path / "manifest.csv"
    mf.write_text("\n".join(lines) + "\n")
    return mf


def test_run_experiment_from_manifest(tmp_path, monkeypatch):
    mf = _manifest_from_synthetic(tmp_path)
    config = ExperimentConfig(method="F-IRNNLS", manifest=mf, seeds=(0, 1), occlusion=0.3)
    sizes = _dictionary_sizes(monkeypatch)
    report = run_experiment(config)
    assert sizes and set(sizes) == {6}
    assert len(report.rows) == 2 * 3  # same images re-corrupted per seed
    assert {r.true_label for r in report.rows} == {"p0", "p1", "p2"}
    assert all(r.predicted_label.startswith("p") for r in report.rows)


@pytest.mark.parametrize("geometry", [None, ImageGeometry(9, 8)])
def test_run_experiment_same_rows_from_codes_and_float_faces(tmp_path, monkeypatch, geometry):
    """Faces loaded as 8-bit codes solve exactly as float faces of the same file."""
    mf = _manifest_from_synthetic(tmp_path)
    config = ExperimentConfig(method="F-IRNNLS", manifest=mf, seeds=(0, 1), occlusion=0.3, geometry=geometry)

    def rows():
        return [
            (r.image_id, r.predicted_label, r.margin, r.outer_iterations, r.inner_iterations, r.converged)
            for r in run_experiment(config).rows
        ]

    from_codes = rows()

    def float_face(path, geometry=None):
        grid = load_pgm(path)
        if geometry is not None and grid.shape != geometry.shape:
            grid = resize_nearest(grid, geometry.rows, geometry.cols)
        return vectorize(grid)

    monkeypatch.setattr(faceid.dataio, "load_face", float_face)
    assert rows() == from_codes


def test_run_experiment_manifest_without_tests_is_empty_report(tmp_path):
    ds = make_synthetic_benchmark(classes=2, per_class=3, geometry=ImageGeometry(8, 8), seed=1)
    lines = []
    for k, (face, lab) in enumerate(zip(ds.train, ds.train_labels)):
        save_pgm(matricize(face), tmp_path / f"im{k}.pgm")
        lines.append(f"train,c{lab},im{k}.pgm")
    mf = tmp_path / "manifest.csv"
    mf.write_text("\n".join(lines) + "\n")
    report = run_experiment(ExperimentConfig(manifest=mf, seeds=(0,), out_dir=tmp_path))
    assert report.rows == []
    assert report.accuracy == 0.0
    assert report.mean_seconds == 0.0
    assert (tmp_path / "report.csv").is_file()


def test_image_seed_is_stable_and_spread():
    assert _image_seed(0, 0) == _image_seed(0, 0)
    seeds = {_image_seed(s, i) for s in range(3) for i in range(40)}
    assert len(seeds) == 120


def test_single_failed_solve_is_reported_not_fatal(monkeypatch):
    original = faceid.solver.solve_batch

    def flaky(ys, *args, **kw):
        outcomes = original(ys, *args, **kw)
        outcomes[1] = NumericError("synthetic blowup")
        return outcomes

    monkeypatch.setattr(faceid.solver, "solve_batch", flaky)
    report = run_experiment(_small_config(seeds=(0,)))
    bad = [r for r in report.rows if r.error]
    assert len(bad) == 1
    assert bad[0].error == "synthetic blowup"
    assert not bad[0].correct
    assert bad[0].predicted_label == ""
    assert len(report.rows) == 3


def test_non_finite_weight_map_is_an_error_row(monkeypatch, tmp_path):
    original = faceid.dataio.export_weight_map
    hits = {"n": 0}

    def nan_pixel(w, geometry, path):
        hits["n"] += 1
        values = w.values.copy()
        if hits["n"] == 2:
            values[0] = np.nan
        return original(values, geometry, path)

    monkeypatch.setattr(faceid.dataio, "export_weight_map", nan_pixel)
    report = run_experiment(_small_config(seeds=(0,), out_dir=tmp_path, export_weights=True))
    bad = [r for r in report.rows if r.error]
    assert len(bad) == 1 and len(report.rows) == 3
    assert "1 non-finite pixel" in bad[0].error
    assert bad[0].predicted_label == "" and not bad[0].correct
    assert not (tmp_path / f"{bad[0].image_id}_w.pgm").exists()
    assert len(list(tmp_path.glob("*_w.pgm"))) == 2


def test_failed_probe_costs_only_its_own_row(monkeypatch):
    """The second of 3 clean probes has a NaN pixel, so its weight update
    raises inside their batch. That probe gets the error row, and each other
    row is the one a run without that probe gives: it leaves the batch before
    the first coding step."""
    original = faceid.experiment.make_synthetic_benchmark

    def second_probe(change):
        def make(*args, **kw):
            ds = original(*args, **kw)
            return replace(ds, **change(ds))
        return make

    def nan_pixel(ds):
        values = ds.test[1].values.copy()
        values[0] = np.nan
        return {"test": (ds.test[0], FaceVector(values, ds.geometry)) + ds.test[2:]}

    def dropped(ds):
        return {"test": ds.test[:1] + ds.test[2:], "test_labels": ds.test_labels[:1] + ds.test_labels[2:]}

    monkeypatch.setattr(faceid.experiment, "make_synthetic_benchmark", second_probe(dropped))
    clean = run_experiment(_small_config(seeds=(0,)))
    monkeypatch.setattr(faceid.experiment, "make_synthetic_benchmark", second_probe(nan_pixel))
    report = run_experiment(_small_config(seeds=(0,)))
    assert [r.error for r in report.rows] == ["", "residual contains non-finite entries", ""]
    assert report.rows[1].predicted_label == "" and not report.rows[1].correct
    for r, ref in zip(report.rows[::2], clean.rows):
        assert replace(r, image_id="", solve_seconds=0.0) == replace(ref, image_id="", solve_seconds=0.0)


def test_all_failed_solves_raise(monkeypatch):
    def broken(ys, *args, **kw):
        return [NumericError("nope") for _ in ys]

    monkeypatch.setattr(faceid.solver, "solve_batch", broken)
    with pytest.raises(NumericError, match="all 3"):
        run_experiment(_small_config(seeds=(0,)))
