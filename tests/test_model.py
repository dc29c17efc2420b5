"""Geometry, face vectors, reshaping, and dictionary construction."""

import tracemalloc

import numpy as np
import pytest

from faceid.errors import DictionaryError, GeometryError
from faceid.model import (
    NORM_TOL,
    NORM_TOLS,
    Dictionary,
    FaceVector,
    ImageGeometry,
    build_dictionary,
    matricize,
    vectorize,
)
from helpers import random_dictionary, random_faces


def test_geometry_product():
    g = ImageGeometry(3, 2)
    assert g.d == 6
    assert g.shape == (3, 2)


def test_geometry_rejects_nonpositive():
    with pytest.raises(GeometryError):
        ImageGeometry(0, 5)
    with pytest.raises(GeometryError):
        ImageGeometry(3, -1)


def test_matricize_column_stacking():
    v = FaceVector(np.arange(1.0, 7.0), ImageGeometry(3, 2))
    assert np.array_equal(matricize(v), [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_matricize_row_geometry():
    M = matricize(FaceVector(np.arange(4.0), ImageGeometry(1, 4)))
    assert M.shape == (1, 4)
    assert np.array_equal(M[0], np.arange(4.0))


def test_matricize_keeps_the_vector_dtype():
    mask = np.array([True, False, False, True, True, False])
    grid = matricize(mask, ImageGeometry(3, 2))
    assert grid.dtype == bool
    assert np.array_equal(grid, [[True, True], [False, True], [False, False]])


def test_matricize_length_mismatch():
    with pytest.raises(GeometryError):
        matricize(np.arange(5.0), ImageGeometry(2, 3))


def test_matricize_raw_array_needs_geometry():
    with pytest.raises(GeometryError):
        matricize(np.arange(6.0))


def test_vectorize_concatenates_columns():
    got = vectorize(np.array([[1.0, 3.0], [2.0, 4.0]]))
    assert np.array_equal(got.values, [1.0, 2.0, 3.0, 4.0])
    assert got.geometry == ImageGeometry(2, 2)


def test_vectorize_zero_matrix():
    assert not vectorize(np.zeros((4, 5))).values.any()


def test_vectorize_rejects_non_2d():
    with pytest.raises(GeometryError):
        vectorize(np.zeros(6))


def test_reshape_round_trips_exactly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        v = FaceVector(rng.normal(size=rows * cols), ImageGeometry(rows, cols))
        back = vectorize(matricize(v))
        assert np.array_equal(back.values, v.values)
        assert back.geometry == v.geometry
        M = rng.normal(size=(rows, cols))
        assert np.array_equal(matricize(vectorize(M)), M)


def test_normalized_three_four_five():
    v = FaceVector(np.array([3.0, 4.0]), ImageGeometry(2, 1)).normalized()
    assert np.allclose(v.values, [0.6, 0.8], atol=1e-12)
    assert abs(np.linalg.norm(v.values) - 1.0) <= 1e-12


def test_normalized_unit_vector_unchanged():
    v = FaceVector(np.array([0.0, 1.0, 0.0, 0.0]), ImageGeometry(2, 2))
    assert np.allclose(v.normalized().values, v.values, atol=1e-15)


def test_normalized_rejects_zero_vector():
    with pytest.raises(GeometryError):
        FaceVector(np.zeros(4), ImageGeometry(2, 2)).normalized()


def test_face_vector_length_checked():
    with pytest.raises(GeometryError):
        FaceVector(np.zeros(5), ImageGeometry(2, 2))


def test_face_vector_values_read_only():
    v = FaceVector(np.zeros(4), ImageGeometry(2, 2))
    with pytest.raises(ValueError):
        v.values[0] = 1.0


def test_face_from_codes_reads_codes_over_255_and_keeps_integers_elsewhere():
    codes = np.array([0, 1, 128, 255], dtype=np.uint8)
    face = FaceVector.from_codes(codes, ImageGeometry(2, 2))
    assert face.values.tobytes() == (codes.astype(float) / 255.0).tobytes()
    with pytest.raises(ValueError):
        face.values[0] = 1.0
    codes[0] = 9  # the face keeps its own copy
    assert face.values[0] == 0.0
    # A uint8 grid or vector given as values still means its integers.
    assert np.array_equal(vectorize(codes.reshape(2, 2)).values, [9.0, 128.0, 1.0, 255.0])
    assert np.array_equal(FaceVector(codes, ImageGeometry(2, 2)).values, [9.0, 1.0, 128.0, 255.0])


def test_face_from_codes_checks_dtype_and_length():
    with pytest.raises(GeometryError, match="uint8"):
        FaceVector.from_codes(np.zeros(4), ImageGeometry(2, 2))
    with pytest.raises(GeometryError):
        FaceVector.from_codes(np.zeros(5, dtype=np.uint8), ImageGeometry(2, 2))
    with pytest.raises(GeometryError):
        FaceVector.from_codes(np.zeros((2, 2), dtype=np.uint8), ImageGeometry(2, 2))


def test_build_dictionary_two_classes():
    rng = np.random.default_rng(0)
    geometry = ImageGeometry(2, 2)
    faces = random_faces(rng, geometry, 4)
    T = build_dictionary(faces, ["b", "a", "b", "a"])
    assert T.n == 4
    assert T.n_classes == 2
    assert T.class_range(0) == (0, 2)
    assert T.class_range(1) == (2, 4)
    # labels remap in sorted order, so "a" becomes id 0 and owns faces 1 and 3
    assert T.class_names == ("a", "b")
    expect = faces[1].values / np.linalg.norm(faces[1].values)
    assert np.allclose(T.columns[:, 0], expect, atol=1e-12)


def test_build_dictionary_single_image():
    face = FaceVector(np.array([1.0, 2.0]), ImageGeometry(2, 1))
    T = build_dictionary([face], ["only"])
    assert T.n == 1
    assert T.n_classes == 1
    assert T.class_range(0) == (0, 1)


def test_build_dictionary_full_scale():
    # 719 images over 38 classes at 96x84 is the largest supported layout
    rng = np.random.default_rng(1)
    geometry = ImageGeometry(96, 84)
    faces = random_faces(rng, geometry, 719)
    T = build_dictionary(faces, [i % 38 for i in range(719)], dtype=np.float64)
    assert T.d == 8064
    assert T.n == 719
    assert T.n_classes == 38
    assert np.abs(np.linalg.norm(T.columns, axis=0) - 1.0).max() <= NORM_TOL


def test_dictionary_norms_and_class_partition():
    rng = np.random.default_rng(3)
    T = random_dictionary(rng, 6, 5, 12, classes=4)
    assert np.abs(np.linalg.norm(T.columns, axis=0) - 1.0).max() <= NORM_TOL
    total = 0
    for i in range(T.n_classes):
        lo, hi = T.class_range(i)
        total += hi - lo
    assert total == T.n


def test_build_dictionary_rejects_empty():
    with pytest.raises(DictionaryError):
        build_dictionary([], [])


def test_build_dictionary_rejects_mixed_geometry():
    a = FaceVector(np.ones(4), ImageGeometry(2, 2))
    b = FaceVector(np.ones(6), ImageGeometry(2, 3))
    with pytest.raises(GeometryError):
        build_dictionary([a, b], [0, 1])


def test_build_dictionary_rejects_zero_column():
    a = FaceVector(np.ones(4), ImageGeometry(2, 2))
    b = FaceVector(np.zeros(4), ImageGeometry(2, 2))
    with pytest.raises(DictionaryError):
        build_dictionary([a, b], [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_dictionary_rejects_non_finite_face(bad):
    a = FaceVector(np.ones(4), ImageGeometry(2, 2))
    b = FaceVector(np.array([1.0, bad, 1.0, 1.0]), ImageGeometry(2, 2))
    with pytest.raises(DictionaryError, match="not finite"):
        build_dictionary([a, b], [0, 1])


def test_build_dictionary_rejects_label_mismatch():
    a = FaceVector(np.ones(4), ImageGeometry(2, 2))
    with pytest.raises(DictionaryError):
        build_dictionary([a], [0, 1])


def test_dictionary_rejects_non_unit_columns():
    cols = np.full((4, 2), 0.7)
    with pytest.raises(DictionaryError):
        Dictionary(
            columns=cols,
            labels=np.array([0, 1]),
            geometry=ImageGeometry(2, 2),
            class_names=("a", "b"),
            variation_start=2,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dictionary_rejects_non_finite_columns(bad):
    cols = np.eye(4)[:, :2].copy()
    cols[1, 1] = bad
    with pytest.raises(DictionaryError, match="not finite"):
        Dictionary(
            columns=cols,
            labels=np.array([0, 1]),
            geometry=ImageGeometry(2, 2),
            class_names=("a", "b"),
            variation_start=2,
        )


def test_dictionary_rejects_scattered_labels():
    cols = np.eye(4)[:, :3]
    with pytest.raises(DictionaryError):
        Dictionary(
            columns=cols,
            labels=np.array([0, 1, 0]),
            geometry=ImageGeometry(2, 2),
            class_names=("a", "b"),
            variation_start=3,
        )


def _shuffled_paper_gallery():
    """200 faces at 96x84 whose 38 labels are interleaved and shuffled, so
    the class reorder moves almost every column."""
    rng = np.random.default_rng(11)
    faces = random_faces(rng, ImageGeometry(96, 84), 200)
    labels = [f"s{c:02d}" for c in rng.permutation([i % 38 for i in range(200)])]
    return faces, labels


def test_build_dictionary_matches_stack_reorder_normalize_bit_for_bit():
    faces, labels = _shuffled_paper_gallery()
    T = build_dictionary(faces, labels, dtype=np.float64)
    cols = np.column_stack([f.values for f in faces])
    cols = cols[:, np.argsort(labels, kind="stable")]
    expect = cols / np.linalg.norm(cols, axis=0)
    assert T.columns.flags.f_contiguous
    assert np.array_equal(T.columns, expect)
    # The float32 default rounds the float64-normalized columns once.
    T32 = build_dictionary(faces, labels)
    assert T32.columns.dtype == np.float32 and T32.columns.flags.f_contiguous
    assert np.array_equal(T32.columns, expect.astype(np.float32))


def test_build_dictionary_holds_one_dictionary_copy(dtype=np.float64):
    faces, labels = _shuffled_paper_gallery()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        T = build_dictionary(faces, labels, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * T.columns.nbytes, f"peak {peak / T.columns.nbytes:.2f}x the dictionary"


def test_build_dictionary_float32_holds_one_dictionary_copy():
    test_build_dictionary_holds_one_dictionary_copy(dtype=np.float32)


def test_dictionary_unknown_class_id():
    rng = np.random.default_rng(5)
    T = random_dictionary(rng, 3, 3, 4, classes=2)
    with pytest.raises(DictionaryError):
        T.class_range(5)



def test_dictionary_requires_variation_start_at_column_count():
    rng = np.random.default_rng(7)
    T = random_dictionary(rng, 3, 3, 4, classes=2)
    for start in (T.n - 1, T.n + 1):
        with pytest.raises(DictionaryError, match="variation_start"):
            Dictionary(T.columns, T.labels, T.geometry, T.class_names, start)


def _unit_columns(dtype):
    cols = np.eye(4)[:, :2].astype(dtype)
    return Dictionary(cols, np.array([0, 1]), ImageGeometry(2, 2), ("a", "b"), 2)


def test_dictionary_keeps_float32_and_stores_other_dtypes_as_float64():
    assert _unit_columns(np.float32).columns.dtype == np.float32
    for dtype in (np.float64, np.float16, np.int64, np.uint8):
        assert _unit_columns(dtype).columns.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_dictionary_norm_tolerance_follows_the_column_dtype(dtype):
    """A column off-norm by twice its dtype's tolerance is refused; one off
    by half of it is accepted. The float32 tolerance is about 6e-8, so a
    float32 column may be off by more than float64's 1e-9."""
    tol = NORM_TOLS[np.dtype(dtype)]
    for factor, ok in ((0.5, True), (2.0, False)):
        cols = np.zeros((4, 2), dtype=dtype)
        cols[0, 0] = cols[1, 1] = 1.0
        cols[2, 1] = np.sqrt((1.0 + factor * tol) ** 2 - 1.0)
        off = abs(float(np.linalg.norm(cols[:, 1].astype(np.float64))) - 1.0)
        assert (off <= tol) == ok
        if ok:
            _ = Dictionary(cols, np.array([0, 1]), ImageGeometry(2, 2), ("a", "b"), 2)
        else:
            with pytest.raises(DictionaryError, match="unit norm"):
                Dictionary(cols, np.array([0, 1]), ImageGeometry(2, 2), ("a", "b"), 2)
    assert NORM_TOLS[np.dtype(np.float64)] == NORM_TOL == 1e-9
    assert NORM_TOL < NORM_TOLS[np.dtype(np.float32)] < 1e-7


def test_build_dictionary_stores_float32_by_default_and_refuses_other_dtypes():
    face = FaceVector(np.array([3.0, 4.0]), ImageGeometry(2, 1))
    T = build_dictionary([face], ["only"])
    assert T.columns.dtype == np.float32
    assert np.array_equal(T.columns[:, 0], np.float32([0.6, 0.8]))
    assert build_dictionary([face], ["only"], dtype=np.float64).columns.dtype == np.float64
    for dtype in (np.float16, np.int64):
        with pytest.raises(DictionaryError, match="float32 or float64"):
            build_dictionary([face], ["only"], dtype=dtype)
