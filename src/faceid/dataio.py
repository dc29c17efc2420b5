"""Binary PGM IO, nearest-neighbor resize, and dataset manifests."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GeometryError, ParseError
from .model import FaceVector, ImageGeometry, vectorize

log = logging.getLogger(__name__)

_WHITESPACE = b" \t\n\r\x0b\x0c"


class _Tokens:
    """Header tokenizer for binary PGM: whitespace-separated fields with
    '#' comments running to end of line; tracks byte offsets for errors."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, message, offset=None):
        offset = self.pos if offset is None else offset
        raise ParseError(f"{self.path}: {message} at byte {offset}")

    def skip_separators(self):
        data = self.data
        while self.pos < len(data):
            b = data[self.pos : self.pos + 1]
            if b == b"#":
                nl = data.find(b"\n", self.pos)
                self.pos = len(data) if nl < 0 else nl + 1
            elif b in (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"):
                self.pos += 1
            else:
                return

    def next_int(self, name):
        self.skip_separators()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1] not in (
            b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#",
        ):
            self.pos += 1
        token = data[start : self.pos]
        if not token:
            self.fail(f"missing {name}", start)
        try:
            value = int(token)
        except ValueError:
            self.fail(f"invalid {name} {token!r}", start)
        return value, start


def load_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM with maxval 255 into a float grid in [0, 1].

    Returns the image as a rows x cols array (height first). Only the binary
    variant is accepted; parse failures name the offending byte offset.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:2] != b"P5":
        raise ParseError(f"{path}: bad magic {data[:2]!r}, want b'P5' at byte 0")
    tok = _Tokens(data, path)
    tok.pos = 2
    width, _ = tok.next_int("width")
    height, _ = tok.next_int("height")
    maxval, at = tok.next_int("maxval")
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad dimensions {width}x{height} at byte {at}")
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval} (want 255) at byte {at}")
    if tok.pos >= len(data) or data[tok.pos : tok.pos + 1] not in (
        b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c",
    ):
        tok.fail("missing whitespace after maxval")
    start = tok.pos + 1  # exactly one separator byte before the raster
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
