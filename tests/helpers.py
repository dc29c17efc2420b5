"""Shared instance builders for the test suite."""

from dataclasses import replace

import numpy as np

from faceid.model import FaceVector, ImageGeometry, build_dictionary


class CountingMatmul(np.ndarray):
    """ndarray view that counts its `@` products and the columns they form,
    as the left operand (M @ V) or the right one (V' @ M'); transposed views
    count too. Put `T.columns.view(CountingMatmul)` in place with
    object.__setattr__."""

    calls = 0
    columns = 0

    def __matmul__(self, other):
        CountingMatmul.calls += 1
        CountingMatmul.columns += 1 if np.ndim(other) == 1 else np.shape(other)[1]
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        CountingMatmul.calls += 1
        CountingMatmul.columns += 1 if np.ndim(other) == 1 else np.shape(other)[0]
        return other @ np.asarray(self)


def random_faces(rng, geometry, count, lo=0.05, hi=1.0):
    return [FaceVector(rng.uniform(lo, hi, geometry.d), geometry) for _ in range(count)]


def random_dictionary(rng, rows, cols, n, classes=1, dtype=np.float64):
    """Random positive dictionary with `classes` contiguous label groups.

    float64 by default, unlike build_dictionary: the tests that use it pin
    bit identity or agreement to 1e-12, which float32 products cannot meet.
    """
    geometry = ImageGeometry(rows, cols)
    labels = [i * classes // n for i in range(n)]
    return build_dictionary(random_faces(rng, geometry, n), labels, dtype=dtype)


def orthonormal_dictionary(rng, rows, cols, n):
    """float64 dictionary whose columns are orthonormal (QR of a Gaussian draw)."""
    geometry = ImageGeometry(rows, cols)
    q, _ = np.linalg.qr(rng.normal(size=(geometry.d, n)))
    faces = [FaceVector(q[:, i], geometry) for i in range(n)]
    return build_dictionary(faces, list(range(n)), dtype=np.float64)


def as_float32(T):
    """T with its columns rounded to float32: the dictionary build_dictionary
    makes by default from the same faces."""
    return replace(T, columns=T.columns.astype(np.float32))


def flat_start(T):
    """(a0, Ta0) for a one-probe coding_step: the flat coefficients 1/n that
    solve_batch starts from, as an (n, 1) column, and their product
    T.columns @ a0, (d, 1)."""
    n = T.columns.shape[1]
    a0 = np.full((n, 1), 1.0 / n)
    return a0, T.columns @ a0
