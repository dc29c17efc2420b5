"""Reproducible synthetic occlusion and pixel corruption."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataio import resize_nearest
from .errors import ConfigError, GeometryError
from .model import FaceVector, matricize, vectorize


def philox_stream(*entropy) -> np.random.Generator:
    """Counter-based Philox generator keyed by an entropy tuple of ints.

    Philox is stateless-counter based with published test vectors, so the
    same entropy always reproduces the same draws on any platform.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class CorruptionSpec:
    """Where the corruption landed: the boolean pixel mask grid and, for a
    block occlusion, its (top, left, side)."""

    mask: np.ndarray
    block: Optional[tuple] = None


def _occlude(img: FaceVector, patch, coverage: float, rng: np.random.Generator):
    geom = img.geometry
    rows, cols = geom.shape
    if not 0.0 < coverage < 1.0:
        raise ConfigError(f"block coverage must be in (0, 1), got {coverage}")
    patch = np.asarray(patch, dtype=float)
    if patch.ndim != 2 or patch.size == 0:
        raise GeometryError(f"patch must be a nonempty 2-d grid, got shape {patch.shape}")
    side = int(round(math.sqrt(coverage * geom.d)))
    side = max(1, min(side, rows, cols))
    top = int(rng.integers(0, rows - side + 1))
    left = int(rng.integers(0, cols - side + 1))
    grid = matricize(img).copy()
    grid[top : top + side, left : left + side] = resize_nearest(patch, side, side)
    mask = np.zeros(geom.shape, dtype=bool)
    mask[top : top + side, left : left + side] = True
    return vectorize(grid), mask, (top, left, side)


def _corrupt_pixels(img: FaceVector, fraction: float, rng: np.random.Generator):
    geom = img.geometry
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"pixel fraction must be in [0, 1], got {fraction}")
    count = int(math.floor(fraction * geom.d))
    values = img.values.copy()
    flat_mask = np.zeros(geom.d, dtype=bool)
    if count > 0:  # draw nothing at fraction 0 so the stream is untouched
        idx = rng.choice(geom.d, size=count, replace=False)
        values[idx] = rng.integers(0, 256, size=count) / 255.0
        flat_mask[idx] = True
    return FaceVector(values, geom), matricize(flat_mask, geom)


def corrupt(img: FaceVector, seed: int, pixel_fraction: float = 0.0, coverage=None, patch=None):
    """Seeded corruption of a face: pixel noise, then an optional block.

    The pixel stage replaces floor(pixel_fraction * d) distinct pixels,
    drawn uniformly without replacement, by integers 0..255 scaled to
    [0, 1]; at fraction 0 it draws nothing. When coverage is given, the
    block stage then pastes patch, nearest-neighbor resampled, over one
    square block: its side is round(sqrt(coverage * d)) clamped to the image
    sides, and its corner is uniform over feasible placements (top drawn
    before left). Both stages draw from the one philox_stream(seed).

    Returns:
        (corrupted FaceVector, CorruptionSpec with the union of both stages'
        masks and, for a block, its (top, left, side)).
    """
    rng = philox_stream(seed)
    out, mask = _corrupt_pixels(img, pixel_fraction, rng)
    block = None
    if coverage is not None:
        out, block_mask, block = _occlude(out, patch, coverage, rng)
        mask = mask | block_mask
    return out, CorruptionSpec(mask=mask, block=block)


def occlude_block(img: FaceVector, patch, coverage: float, seed: int):
    """The block-only case of corrupt: no pixel noise."""
    return corrupt(img, seed, coverage=coverage, patch=patch)


def textured_patch(rows: int = 64, cols: int = 64, seed: int = 1234) -> np.ndarray:
    """Deterministic high-frequency occluder texture in [0, 1].

    A fixed mix of fine checkers, oriented stripes, and Philox speckle; keeps
    strong local contrast at any resampled size so occluded pixels look
    nothing like face pixels.
    """
    if rows < 1 or cols < 1:
        raise GeometryError(f"patch shape must be positive, got {rows}x{cols}")
    r = np.arange(rows)[:, None]
    c = np.arange(cols)[None, :]
    checker = ((r // 2 + c // 2) % 2).astype(float)
    stripes = 0.5 + 0.5 * np.sin(2.0 * math.pi * (3.0 * r / rows + 7.0 * c / cols))
    speckle = philox_stream(seed).uniform(0.0, 1.0, size=(rows, cols))
    patch = 0.45 * checker + 0.3 * stripes + 0.25 * speckle
    lo, hi = patch.min(), patch.max()
    return (patch - lo) / (hi - lo)
