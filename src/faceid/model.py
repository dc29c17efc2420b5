"""Image geometry, vectorized faces, and class-structured dictionaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DictionaryError, GeometryError

# Max deviation of a dictionary column norm from 1, per column dtype. The
# float64 bound is a working slack for a column normalised in float64. A float32
# column is normalised in float64 and then rounded: each entry becomes
# x_i (1 + delta_i) with |delta_i| <= u = 2**-24, float32's unit roundoff, so
# its norm lies in [1 - u, 1 + u]; the float64 slack covers the normalisation
# and the float64 sum that measures the norm.
NORM_TOL = 1e-9
NORM_TOLS = {np.dtype(np.float64): NORM_TOL, np.dtype(np.float32): 2.0**-24 + NORM_TOL}


@dataclass(frozen=True)
class ImageGeometry:
    """Grid shape of the face images; vectors have length d = rows * cols."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise GeometryError(f"geometry must be positive, got {self.rows}x{self.cols}")

    @property
    def d(self) -> int:
        return self.rows * self.cols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


@dataclass(frozen=True, init=False)
class FaceVector:
    """A column-stacked image together with its grid geometry.

    A face built from floats keeps a read-only float64 copy of them. A face
    built from 8-bit pixel codes (:meth:`from_codes`, which `dataio.load_face`
    uses) keeps the codes, d bytes instead of 8d; its `values` are the codes
    divided by 255, computed on every read and not cached, since a cached copy
    would cost the 8 bytes per pixel again.
    """

    _pixels: np.ndarray
    geometry: ImageGeometry

    def __init__(self, values, geometry: ImageGeometry):
        self._set(np.array(values, dtype=float), geometry)

    @classmethod
    def from_codes(cls, codes, geometry: ImageGeometry) -> "FaceVector":
        """Face from column-stacked uint8 codes, where code k means k / 255."""
        codes = np.asarray(codes)
        if codes.dtype != np.uint8:
            raise GeometryError(f"pixel codes must be uint8, got {codes.dtype}")
        face = cls.__new__(cls)
        face._set(codes.copy(), geometry)
        return face

    def _set(self, pixels: np.ndarray, geometry: ImageGeometry):
        if pixels.ndim != 1:
            raise GeometryError(f"face vector must be 1-d, got shape {pixels.shape}")
        if pixels.size != geometry.d:
            raise GeometryError(
                f"face vector length {pixels.size} does not match geometry "
                f"{geometry.rows}x{geometry.cols} (d={geometry.d})"
            )
        pixels.flags.writeable = False
        object.__setattr__(self, "_pixels", pixels)
        object.__setattr__(self, "geometry", geometry)

    @property
    def values(self) -> np.ndarray:
        """The face as a read-only float64 vector."""
        if self._pixels.dtype != np.uint8:
            return self._pixels
        # Bit for bit load_pgm's grid.astype(float) / 255.0, column-stacked.
        v = self._pixels.astype(float)
        v /= 255.0
        v.flags.writeable = False
        return v

    def normalized(self) -> "FaceVector":
        """Unit l2 copy; zero vectors cannot be normalized."""
        v = self.values
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise GeometryError("cannot normalize an all-zero face vector")
        return FaceVector(v / nrm, self.geometry)


def matricize(v, geometry: ImageGeometry | None = None) -> np.ndarray:
    """Reshape a vectorized image back onto its rows x cols grid.

    Inverse of :func:`vectorize`; both use column stacking, so entry i of the
    vector lands at grid position (i % rows, i // rows). The grid keeps the
    vector's dtype (a bool mask stays bool).
    """
    if isinstance(v, FaceVector):
        geometry = v.geometry
        v = v.values
    if geometry is None:
        raise GeometryError("matricize needs a FaceVector or an explicit geometry")
    arr = np.asarray(v)
    if arr.size != geometry.d:
        raise GeometryError(f"vector length {arr.size} does not match geometry d={geometry.d}")
    return arr.reshape(geometry.shape, order="F")


def vectorize(image) -> FaceVector:
    """Column-stack a 2-d image grid into a FaceVector."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise GeometryError(f"expected a 2-d image grid, got shape {arr.shape}")
    geometry = ImageGeometry(arr.shape[0], arr.shape[1])
    return FaceVector(arr.reshape(-1, order="F"), geometry)


@dataclass(frozen=True)
class Dictionary:
    """Training faces as unit l2 columns, grouped contiguously by class.

    Columns stay float32 when given as float32; any other dtype is stored as
    float64. The solver forms its dictionary products in the columns' dtype.
    The array is column-major (Fortran order): each atom is contiguous, so
    the solver gathers the columns of a working set as contiguous copies.

    variation_start must equal the column count. It is kept only so that
    callers passing it positionally still construct the same dictionary;
    no appended block of non-class atoms is supported.
    """

    columns: np.ndarray
    labels: np.ndarray
    geometry: ImageGeometry
    class_names: tuple
    variation_start: int

    def __post_init__(self):
        cols = np.asarray(self.columns)
        cols = np.asfortranarray(cols, dtype=np.float32 if cols.dtype == np.float32 else np.float64)
        if cols.ndim != 2:
            raise DictionaryError(f"columns must be 2-d, got shape {cols.shape}")
        if cols.shape[0] != self.geometry.d:
            raise DictionaryError(
                f"column length {cols.shape[0]} does not match geometry d={self.geometry.d}"
            )
        labels = np.asarray(self.labels, dtype=int)
        if labels.shape != (cols.shape[1],):
            raise DictionaryError("need one label per column")
        if self.variation_start != cols.shape[1]:
            raise DictionaryError(
                f"variation_start must equal the column count {cols.shape[1]}, "
                f"got {self.variation_start}"
            )
        # Summed in float64 through einsum's buffers, with no d x n temporary;
        # a non-finite norm fails the check too.
        norms = np.sqrt(np.einsum("ij,ij->j", cols, cols, dtype=np.float64))
        bad = ~(np.abs(norms - 1.0) <= NORM_TOLS[cols.dtype])
        if bad.any():
            raise DictionaryError(
                f"{int(bad.sum())} column(s) are not finite and unit norm (max deviation "
                f"{float(np.abs(norms - 1.0).max()):.3e})"
            )
        # Class columns must be contiguous runs 0,1,...,c-1.
        n_classes = len(self.class_names)
        if labels.size == 0:
            raise DictionaryError("dictionary needs at least one class column")
        boundaries = np.flatnonzero(np.diff(labels) != 0)
        runs = labels[np.concatenate(([0], boundaries + 1))]
        if not np.array_equal(runs, np.arange(n_classes)):
            raise DictionaryError("class labels must form contiguous runs 0..c-1")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_range(self, class_id: int) -> tuple[int, int]:
        """Half-open column range [lo, hi) occupied by a dense class id."""
        idx = np.flatnonzero(self.labels == class_id)
        if idx.size == 0:
            raise DictionaryError(f"unknown class id {class_id}")
        return int(idx[0]), int(idx[-1]) + 1


def build_dictionary(
    images, labels, geometry: ImageGeometry | None = None, dtype=np.float32
) -> Dictionary:
    """Assemble a class dictionary from training images.

    Args:
        images: sequence of FaceVector sharing one geometry.
        labels: one hashable class label per image; sorted unique labels are
            remapped to dense ids 0..c-1 and columns are grouped per class.
        geometry: the images must match it when given.
        dtype: float32 (the default) or float64, the dtype the columns are
            stored in. float32 halves the bytes that every dictionary product
            reads; float64 keeps the solver's products exact to float64.

    Returns:
        Dictionary with unit-normalized, class-contiguous columns, stored
        column-major.

    Memory: the input faces plus one d x n array. The columns are allocated
    once, already in class order, and filled face by face; each face is
    normalized in float64 as it is stored, so faces that hold 8-bit codes
    (`dataio.load_face`) never exist as floats all at once.
    """
    images = list(images)
    labels = list(labels)
    if not images:
        raise DictionaryError("no training images given")
    if geometry is None:
        geometry = images[0].geometry
    if any(img.geometry != geometry for img in images):
        raise GeometryError("all images must share one geometry")
    if len(labels) != len(images):
        raise DictionaryError(f"{len(images)} images but {len(labels)} labels")
    names = sorted(set(labels))
    dense = {name: i for i, name in enumerate(names)}
    order = np.argsort([dense[lab] for lab in labels], kind="stable")
    dtype = np.dtype(dtype)
    if dtype not in NORM_TOLS:
        raise DictionaryError(f"dictionary dtype must be float32 or float64, got {dtype}")
    cols = np.empty((geometry.d, len(images)), dtype=dtype, order="F")
    norms = np.empty(len(images))
    # A zero or non-finite face leaves a column of nan or inf; it is refused below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, i in enumerate(order):
            v = images[i].values
            # Bit for bit the pairwise sum that np.linalg.norm(..., axis=0) takes per column.
            norms[j] = np.sqrt(np.add.reduce(v * v))
            np.divide(v, norms[j], out=cols[:, j])
    bad = ~(np.isfinite(norms) & (norms > 0.0))
    if bad.any():
        raise DictionaryError(f"{int(bad.sum())} all-zero or not finite column(s) cannot be normalized")
    return Dictionary(
        columns=cols,
        labels=np.array([dense[labels[i]] for i in order], dtype=int),
        geometry=geometry,
        class_names=tuple(names),
        variation_start=cols.shape[1],
    )
