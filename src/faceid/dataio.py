"""Binary PGM IO, nearest-neighbor resize, and dataset manifests."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, ParseError
from .model import FaceVector, ImageGeometry, vectorize

log = logging.getLogger(__name__)

# Separators and '#' comments (each to the end of its line) before a header
# field, then the field itself.
_HEADER_FIELD = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n?)*([^ \t\n\r\x0b\x0c#]*)")


def load_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM with maxval 255 into a float grid in [0, 1].

    Returns the image as a rows x cols array (height first). Only the binary
    variant is accepted; parse failures name the offending byte offset.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != b"P5":
        raise ParseError(f"{path}: bad magic {data[:2]!r}, want b'P5' at byte 0")
    pos = 2
    fields, offsets = [], []
    for name in ("width", "height", "maxval"):
        m = _HEADER_FIELD.match(data, pos)
        token, at, pos = m.group(1), m.start(1), m.end()
        if not token:
            raise ParseError(f"{path}: missing {name} at byte {at}")
        try:
            fields.append(int(token))
        except ValueError:
            raise ParseError(f"{path}: invalid {name} {token!r} at byte {at}") from None
        offsets.append(at)
    width, height, maxval = fields
    if width < 1 or height < 1:
        bad = offsets[0] if width < 1 else offsets[1]
        raise ParseError(f"{path}: bad dimensions {width}x{height} at byte {bad}")
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval} (want 255) at byte {offsets[2]}")
    if not data[pos : pos + 1].isspace():
        raise ParseError(f"{path}: missing whitespace after maxval at byte {pos}")
    start = pos + 1  # exactly one separator byte before the raster
    need = width * height
    raster = data[start : start + need]
    if len(raster) < need:
        raise ParseError(f"{path}: truncated payload ({len(raster)} of {need} bytes) at byte {len(data)}")
    grid = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return grid.astype(float) / 255.0


def save_pgm(image, path) -> int:
    """Write a float grid in [0, 1] as a binary PGM with maxval 255.

    Values are scaled by 255 and rounded; anything landing outside [0, 255]
    is clamped. Returns the number of clamped pixels (also logged).
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise GeometryError(f"expected a 2-d image grid, got shape {arr.shape}")
    q = np.rint(arr * 255.0)
    clamped = int(np.count_nonzero((q < 0.0) | (q > 255.0)))
    if clamped:
        log.warning("%s: clamped %d pixel(s) to [0, 255]", path, clamped)
    q = np.clip(q, 0.0, 255.0).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    Path(path).write_bytes(header + q.tobytes())
    return clamped


def resize_nearest(image, rows: int, cols: int) -> np.ndarray:
    """Nearest-neighbor resample to rows x cols.

    Output pixel (i, j) copies source pixel (floor(i * src_rows / rows),
    floor(j * src_cols / cols)); pure integer index math, so resizing to the
    same shape is the identity.
    """
    arr = np.asarray(image, dtype=float)
    if arr.ndim != 2:
        raise GeometryError(f"expected a 2-d image grid, got shape {arr.shape}")
    if rows < 1 or cols < 1:
        raise GeometryError(f"target shape must be positive, got {rows}x{cols}")
    ri = (np.arange(rows) * arr.shape[0]) // rows
    ci = (np.arange(cols) * arr.shape[1]) // cols
    return arr[np.ix_(ri, ci)]


def load_face(path, geometry: ImageGeometry | None = None) -> FaceVector:
    """Load a PGM and vectorize it, resizing to the target geometry if given."""
    grid = load_pgm(path)
    if geometry is not None and grid.shape != geometry.shape:
        grid = resize_nearest(grid, geometry.rows, geometry.cols)
    return vectorize(grid)


def load_faces(records, geometry: ImageGeometry | None = None):
    """Load manifest records as face vectors that share one geometry.

    Without a geometry the first image fixes it and later images are resized
    to it. Returns (faces, geometry).
    """
    faces = []
    for rec in records:
        face = load_face(rec.path, geometry)
        if geometry is None:
            geometry = face.geometry
        faces.append(face)
    return faces, geometry


def export_weight_map(w, geometry: ImageGeometry, path) -> int:
    """Write pixel weights as a grayscale image (dark = small weight).

    Weights are laid back onto the grid by the same column stacking used for
    face vectors, then scaled to 8 bits. Returns the clamp count.
    """
    values = np.asarray(getattr(w, "values", w), dtype=float)
    if values.size != geometry.d:
        raise GeometryError(f"weight length {values.size} does not match geometry d={geometry.d}")
    grid = values.reshape(geometry.shape, order="F")
    return save_pgm(grid, path)


@dataclass(frozen=True)
class ManifestRecord:
    split: str
    label: str
    path: Path


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed dataset manifest: one record per image, in file order."""

    records: tuple

    def split(self, name: str):
        return [r for r in self.records if r.split == name]


def load_manifest(path) -> DatasetManifest:
    """Parse a `split,label,relative/path` manifest.

    Blank lines and lines starting with '#' are skipped. The split must be
    train or test, paths resolve relative to the manifest's directory and
    must exist and be unique, and every test label needs at least one train
    record.
    """
    path = Path(path)
    base = path.parent
    records = []
    seen = {}
    missing = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",", 2)
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'split,label,path', got {line!r}")
        split, label, rel = (p.strip() for p in parts)
        if split not in ("train", "test"):
            raise ParseError(f"{path}:{lineno}: split must be train or test, got {split!r}")
        if not label or not rel:
            raise ParseError(f"{path}:{lineno}: empty label or path")
        if rel in seen:
            raise ParseError(f"{path}:{lineno}: duplicate path {rel!r} (first at line {seen[rel]})")
        seen[rel] = lineno
        full = base / rel
        if not full.is_file():
            missing.append(rel)
        records.append(ManifestRecord(split=split, label=label, path=full))
    if missing:
        shown = ", ".join(missing[:10])
        extra = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        raise ParseError(f"{path}: {len(missing)} missing file(s): {shown}{extra}")
    train_labels = {r.label for r in records if r.split == "train"}
    if not train_labels:
        raise ParseError(f"{path}: no train records")
    orphan = sorted({r.label for r in records if r.split == "test"} - train_labels)
    if orphan:
        raise ParseError(f"{path}: test label(s) with no train records: {', '.join(orphan)}")
    return DatasetManifest(records=tuple(records))
