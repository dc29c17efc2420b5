"""Shared instance builders for the test suite."""

import numpy as np

from faceid.model import FaceVector, ImageGeometry, build_dictionary


class CountingMatmul(np.ndarray):
    """ndarray view that counts its `@` products (transposed views count too):
    put `T.columns.view(CountingMatmul)` in place with object.__setattr__."""

    calls = 0

    def __matmul__(self, other):
        CountingMatmul.calls += 1
        return np.asarray(self) @ other


def random_faces(rng, geometry, count, lo=0.05, hi=1.0):
    return [FaceVector(rng.uniform(lo, hi, geometry.d), geometry) for _ in range(count)]


def random_dictionary(rng, rows, cols, n, classes=1):
    """Random positive dictionary with `classes` contiguous label groups."""
    geometry = ImageGeometry(rows, cols)
    labels = [i * classes // n for i in range(n)]
    return build_dictionary(random_faces(rng, geometry, n), labels)


def orthonormal_dictionary(rng, rows, cols, n):
    """Dictionary whose columns are orthonormal (QR of a Gaussian draw)."""
    geometry = ImageGeometry(rows, cols)
    q, _ = np.linalg.qr(rng.normal(size=(geometry.d, n)))
    faces = [FaceVector(q[:, i], geometry) for i in range(n)]
    return build_dictionary(faces, list(range(n)))


def flat_start(T):
    """(a0, Ta0) for coding_step: the flat coefficients 1/n that solve starts
    from, and their product T.columns @ a0."""
    n = T.columns.shape[1]
    a0 = np.full(n, 1.0 / n)
    return a0, T.columns @ a0
