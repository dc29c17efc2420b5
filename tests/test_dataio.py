"""PGM round trips, resizing, weight-map export, and manifest parsing."""

import numpy as np
import pytest

from faceid.dataio import (
    export_weight_map,
    load_face,
    load_faces,
    load_manifest,
    load_pgm,
    resize_nearest,
    save_pgm,
)
from faceid.errors import GeometryError, ParseError
from faceid.model import ImageGeometry, vectorize
from faceid.weights import WeightVector


def _write(tmp_path, name, blob):
    p = tmp_path / name
    p.write_bytes(blob)
    return p


def test_load_pgm_small_example(tmp_path):
    p = _write(tmp_path, "a.pgm", b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    grid = load_pgm(p)
    expect = np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
    assert np.allclose(grid, expect, atol=1e-3)
    assert grid.dtype == float


def test_load_pgm_tolerates_comments_and_whitespace(tmp_path):
    blob = b"P5 # magic\n# full comment line\n 2\t3 \n255\n" + bytes(range(6))
    grid = load_pgm(_write(tmp_path, "b.pgm", blob))
    assert grid.shape == (3, 2)
    assert np.allclose(grid, np.arange(6).reshape(3, 2) / 255.0)


def test_load_pgm_rejects_ascii_variant(tmp_path):
    p = _write(tmp_path, "c.pgm", b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ParseError, match="magic"):
        load_pgm(p)


def test_load_pgm_rejects_other_maxval(tmp_path):
    p = _write(tmp_path, "d.pgm", b"P5\n2 2\n127\n" + bytes(4))
    with pytest.raises(ParseError, match="maxval"):
        load_pgm(p)


def test_load_pgm_truncated_payload_names_byte(tmp_path):
    p = _write(tmp_path, "e.pgm", b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(ParseError, match="byte"):
        load_pgm(p)


def test_load_pgm_requires_separator_after_maxval(tmp_path):
    p = _write(tmp_path, "f.pgm", b"P5 2 2 255")
    with pytest.raises(ParseError, match="maxval"):
        load_pgm(p)


def test_load_pgm_missing_field_names_byte(tmp_path):
    p = _write(tmp_path, "m.pgm", b"P5\n2")
    with pytest.raises(ParseError, match="missing height at byte 4$"):
        load_pgm(p)


def test_load_pgm_invalid_field_names_token_and_byte(tmp_path):
    p = _write(tmp_path, "n.pgm", b"P5\n2 x\n255\n")
    with pytest.raises(ParseError, match=r"invalid height b'x' at byte 5$"):
        load_pgm(p)


def test_load_pgm_bad_field_values_name_their_byte(tmp_path):
    for blob, message in (
        (b"P5\n0 5\n255\n", "bad dimensions 0x5 at byte 3$"),
        (b"P5\n5 0\n255\n", "bad dimensions 5x0 at byte 5$"),
        (b"P5\n 12 0\n255\n", "bad dimensions 12x0 at byte 7$"),
        (b"P5\n2 2\n127\n" + bytes(4), r"unsupported maxval 127 \(want 255\) at byte 7$"),
    ):
        p = _write(tmp_path, "b.pgm", blob)
        with pytest.raises(ParseError, match=message):
            load_pgm(p)


def test_pgm_round_trip_is_exact_on_quantized_values(tmp_path):
    rng = np.random.default_rng(0)
    grid = rng.integers(0, 256, size=(9, 5)).astype(float) / 255.0
    p = tmp_path / "g.pgm"
    assert save_pgm(grid, p) == 0
    again = load_pgm(p)
    assert np.array_equal(again, grid)


def test_save_pgm_zero_image_writes_zero_bytes(tmp_path):
    p = tmp_path / "h.pgm"
    save_pgm(np.zeros((3, 4)), p)
    blob = p.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert blob[len(b"P5\n4 3\n255\n") :] == bytes(12)


def test_save_pgm_clamps_and_counts(tmp_path):
    p = tmp_path / "i.pgm"
    clamped = save_pgm(np.array([[1.5, 0.5], [-0.2, 0.0]]), p)
    assert clamped == 2
    back = load_pgm(p)
    assert back[0, 0] == 1.0
    assert back[1, 0] == 0.0
    assert back[1, 1] == 0.0


def test_save_pgm_rejects_non_grid(tmp_path):
    with pytest.raises(GeometryError):
        save_pgm(np.zeros(6), tmp_path / "j.pgm")


def test_resize_identity_and_replication():
    rng = np.random.default_rng(1)
    grid = rng.uniform(size=(5, 7))
    assert np.array_equal(resize_nearest(grid, 5, 7), grid)
    small = np.array([[1.0, 2.0], [3.0, 4.0]])
    up = resize_nearest(small, 4, 4)
    assert np.array_equal(up, np.kron(small, np.ones((2, 2))))
    assert np.array_equal(resize_nearest(np.ones((3, 3)), 5, 2), np.ones((5, 2)))


def test_resize_downsample_uses_floor_index_map():
    grid = np.arange(16.0).reshape(4, 4)
    down = resize_nearest(grid, 2, 2)
    assert np.array_equal(down, grid[np.ix_([0, 2], [0, 2])])
    with pytest.raises(GeometryError):
        resize_nearest(grid, 0, 2)


def test_load_face_resizes_to_geometry(tmp_path):
    rng = np.random.default_rng(2)
    grid = rng.integers(0, 256, size=(4, 4)).astype(float) / 255.0
    p = tmp_path / "k.pgm"
    save_pgm(grid, p)
    face = load_face(p, geometry=ImageGeometry(2, 2))
    assert face.geometry == ImageGeometry(2, 2)
    assert np.array_equal(face.values, vectorize(resize_nearest(grid, 2, 2)).values)
    native = load_face(p)
    assert native.geometry == ImageGeometry(4, 4)


def test_load_faces_first_image_fixes_geometry(tmp_path):
    rng = np.random.default_rng(3)
    small = rng.integers(0, 256, size=(2, 3)).astype(float) / 255.0
    big = rng.integers(0, 256, size=(4, 6)).astype(float) / 255.0
    save_pgm(small, tmp_path / "a.pgm")
    save_pgm(big, tmp_path / "b.pgm")
    mf = tmp_path / "data.csv"
    mf.write_text("train,x,a.pgm\ntest,x,b.pgm\n")
    records = load_manifest(mf).records
    faces, geometry = load_faces(records)
    assert geometry == ImageGeometry(2, 3)
    assert np.array_equal(faces[0].values, vectorize(small).values)
    assert np.array_equal(faces[1].values, vectorize(resize_nearest(big, 2, 3)).values)
    faces, geometry = load_faces(records, ImageGeometry(4, 2))
    assert geometry == ImageGeometry(4, 2)
    for face, grid in zip(faces, (small, big)):
        assert face.geometry == geometry
        assert np.array_equal(face.values, vectorize(resize_nearest(grid, 4, 2)).values)


def test_export_weight_map_extremes(tmp_path):
    geometry = ImageGeometry(3, 2)
    hi = tmp_path / "hi.pgm"
    assert export_weight_map(np.ones(6), geometry, hi) == 0
    assert hi.read_bytes()[len(b"P5\n2 3\n255\n") :] == bytes([255]) * 6
    lo = tmp_path / "lo.pgm"
    export_weight_map(np.full(6, 1e-12), geometry, lo)
    assert lo.read_bytes()[len(b"P5\n2 3\n255\n") :] == bytes(6)


def test_export_weight_map_column_stacking(tmp_path):
    geometry = ImageGeometry(2, 2)
    w = WeightVector(np.array([1e-9, 0.25, 0.5, 0.75]))
    p = tmp_path / "w.pgm"
    export_weight_map(w, geometry, p)
    # Column-stacked weights land as grid [[w0, w2], [w1, w3]].
    assert p.read_bytes()[len(b"P5\n2 2\n255\n") :] == bytes([0, 128, 64, 191])
    back = load_pgm(p).reshape(-1, order="F")
    assert np.allclose(back, np.rint(w.values * 255.0) / 255.0, atol=1e-12)


def test_export_weight_map_checks_length(tmp_path):
    with pytest.raises(GeometryError):
        export_weight_map(np.ones(5), ImageGeometry(2, 3), tmp_path / "x.pgm")


def _seed_images(tmp_path, names):
    for name in names:
        save_pgm(np.full((2, 2), 0.5), tmp_path / name)


def test_manifest_happy_path(tmp_path):
    _seed_images(tmp_path, ["a1.pgm", "a2.pgm", "b1.pgm", "t1.pgm"])
    mf = tmp_path / "data.csv"
    mf.write_text(
        "# dataset listing\n"
        "\n"
        "train, bob ,a1.pgm\n"
        "train,bob,a2.pgm\n"
        "train,alice,b1.pgm\n"
        "test,alice,t1.pgm\n"
    )
    ds = load_manifest(mf)
    assert len(ds.records) == 4
    assert len(ds.split("train")) == 3
    assert len(ds.split("test")) == 1
    assert all(r.path.is_file() for r in ds.records)


def test_manifest_duplicate_path_reports_both_lines(tmp_path):
    _seed_images(tmp_path, ["a1.pgm"])
    mf = tmp_path / "data.csv"
    mf.write_text("train,x,a1.pgm\ntrain,x,a1.pgm\n")
    with pytest.raises(ParseError, match=r"2.*first at line 1"):
        load_manifest(mf)


def test_manifest_malformed_line(tmp_path):
    mf = tmp_path / "data.csv"
    mf.write_text("train,x\n")
    with pytest.raises(ParseError, match="split,label,path"):
        load_manifest(mf)


def test_manifest_bad_split_and_empty_field(tmp_path):
    _seed_images(tmp_path, ["a1.pgm"])
    mf = tmp_path / "data.csv"
    mf.write_text("validate,x,a1.pgm\n")
    with pytest.raises(ParseError, match="split"):
        load_manifest(mf)
    mf.write_text("train,,a1.pgm\n")
    with pytest.raises(ParseError, match="empty"):
        load_manifest(mf)


def test_manifest_missing_files_listed_with_cap(tmp_path):
    mf = tmp_path / "data.csv"
    mf.write_text("".join(f"train,x,gone{i}.pgm\n" for i in range(12)))
    with pytest.raises(ParseError, match=r"12 missing.*\+2 more"):
        load_manifest(mf)


def test_manifest_requires_train_and_covered_test_labels(tmp_path):
    _seed_images(tmp_path, ["a1.pgm", "t1.pgm"])
    mf = tmp_path / "data.csv"
    mf.write_text("test,x,t1.pgm\n")
    with pytest.raises(ParseError, match="no train"):
        load_manifest(mf)
    mf.write_text("train,x,a1.pgm\ntest,zed,t1.pgm\n")
    with pytest.raises(ParseError, match="zed"):
        load_manifest(mf)
