"""Seeded occlusion, pixel corruption, and their mixture through one `corrupt`."""

import numpy as np
import pytest

from faceid.corruptions import corrupt, occlude_block, philox_stream, textured_patch
from faceid.dataio import resize_nearest
from faceid.errors import ConfigError, GeometryError
from faceid.model import ImageGeometry, matricize
from helpers import random_faces


def _face(rng, rows, cols):
    return random_faces(rng, ImageGeometry(rows, cols), 1)[0]


def test_block_side_quarter_coverage():
    rng = np.random.default_rng(0)
    img = _face(rng, 20, 20)
    out, spec = occlude_block(img, textured_patch(), 0.25, seed=7)
    top, left, side = spec.block
    assert side == 10
    assert spec.mask.sum() == 100
    assert spec.mask.mean() == pytest.approx(0.25)
    assert 0 <= top <= 10 and 0 <= left <= 10
    assert out.geometry == img.geometry


def test_block_side_rounds_on_benchmark_geometry():
    rng = np.random.default_rng(1)
    img = _face(rng, 24, 21)
    _, spec = occlude_block(img, textured_patch(), 0.5, seed=3)
    # round(sqrt(0.5 * 504)) = round(15.87) = 16
    assert spec.block[2] == 16
    assert spec.mask.sum() == 256


def test_block_near_total_coverage_is_resampled_patch():
    rng = np.random.default_rng(2)
    img = _face(rng, 12, 12)
    patch = textured_patch(rows=32, cols=32, seed=9)
    out, spec = occlude_block(img, patch, 0.999, seed=4)
    assert spec.block == (0, 0, 12)
    assert spec.mask.all()
    assert np.array_equal(matricize(out), resize_nearest(patch, 12, 12))


def test_block_coverage_bounds():
    rng = np.random.default_rng(3)
    img = _face(rng, 8, 8)
    patch = textured_patch()
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            occlude_block(img, patch, bad, seed=0)


def test_block_is_deterministic_and_leaves_outside_alone():
    rng = np.random.default_rng(4)
    img = _face(rng, 16, 12)
    patch = textured_patch()
    out1, spec1 = occlude_block(img, patch, 0.3, seed=11)
    out2, spec2 = occlude_block(img, patch, 0.3, seed=11)
    assert out1.values.tobytes() == out2.values.tobytes()
    assert spec1.block == spec2.block
    flat_mask = spec1.mask.reshape(-1, order="F")
    assert np.array_equal(out1.values[~flat_mask], img.values[~flat_mask])
    assert not np.array_equal(out1.values[flat_mask], img.values[flat_mask])


def test_block_rejects_bad_patch():
    rng = np.random.default_rng(5)
    img = _face(rng, 8, 8)
    with pytest.raises(GeometryError):
        occlude_block(img, np.ones(64), 0.25, seed=0)


def test_pixels_fraction_zero_and_one():
    rng = np.random.default_rng(6)
    img = _face(rng, 10, 10)
    same, spec0 = corrupt(img, seed=1, pixel_fraction=0.0)
    assert np.array_equal(same.values, img.values)
    assert spec0.mask.sum() == 0
    _, spec1 = corrupt(img, seed=1, pixel_fraction=1.0)
    assert spec1.mask.all()


def test_corrupt_with_neither_stage_is_the_identity():
    rng = np.random.default_rng(14)
    img = _face(rng, 7, 5)
    same, spec = corrupt(img, seed=3)
    assert np.array_equal(same.values, img.values)
    assert spec.mask.shape == (7, 5) and not spec.mask.any()
    assert spec.block is None


def test_pixels_exact_count_and_eight_bit_values():
    rng = np.random.default_rng(7)
    img = _face(rng, 10, 10)
    out, spec = corrupt(img, seed=2, pixel_fraction=0.5)
    assert spec.mask.sum() == 50
    flat_mask = spec.mask.reshape(-1, order="F")
    levels = out.values[flat_mask] * 255.0
    assert np.allclose(levels, np.round(levels), atol=1e-9)
    assert np.array_equal(out.values[~flat_mask], img.values[~flat_mask])


def test_pixels_fraction_bounds():
    rng = np.random.default_rng(8)
    img = _face(rng, 6, 6)
    for bad in (-0.1, 1.01):
        with pytest.raises(ConfigError):
            corrupt(img, seed=0, pixel_fraction=bad)


def test_pixels_deterministic():
    rng = np.random.default_rng(9)
    img = _face(rng, 9, 7)
    out1, spec1 = corrupt(img, seed=21, pixel_fraction=0.3)
    out2, spec2 = corrupt(img, seed=21, pixel_fraction=0.3)
    assert out1.values.tobytes() == out2.values.tobytes()
    assert np.array_equal(spec1.mask, spec2.mask)


def test_mixture_zero_pixel_fraction_equals_block_only():
    rng = np.random.default_rng(10)
    img = _face(rng, 14, 10)
    patch = textured_patch()
    mixed, mspec = corrupt(img, seed=17, pixel_fraction=0.0, coverage=0.3, patch=patch)
    solo, sspec = occlude_block(img, patch, 0.3, seed=17)
    assert mixed.values.tobytes() == solo.values.tobytes()
    assert mspec.block == sspec.block
    assert np.array_equal(mspec.mask, sspec.mask)


def test_mixture_block_overwrites_pixel_noise():
    rng = np.random.default_rng(11)
    img = _face(rng, 16, 16)
    patch = textured_patch(rows=16, cols=16, seed=5)
    mixed, spec = corrupt(img, seed=29, pixel_fraction=0.4, coverage=0.25, patch=patch)
    top, left, side = spec.block
    grid = matricize(mixed)
    assert np.array_equal(
        grid[top : top + side, left : left + side], resize_nearest(patch, side, side)
    )
    # Union mask covers at least the block.
    block_mask = np.zeros((16, 16), dtype=bool)
    block_mask[top : top + side, left : left + side] = True
    assert spec.mask[block_mask].all()
    assert spec.mask.sum() >= side * side


def test_textured_patch_contract():
    one = textured_patch()
    two = textured_patch()
    assert one.tobytes() == two.tobytes()
    assert one.shape == (64, 64)
    assert one.min() == 0.0 and one.max() == 1.0
    assert textured_patch(rows=16, cols=24, seed=2).shape == (16, 24)
    with pytest.raises(GeometryError):
        textured_patch(rows=0, cols=8)


def test_philox_stream_reproducible_and_sensitive():
    a = philox_stream(3, 1, 4).uniform(size=8)
    b = philox_stream(3, 1, 4).uniform(size=8)
    c = philox_stream(3, 1, 5).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dataset_style_mixtures_run():
    rng = np.random.default_rng(13)
    patch = textured_patch()
    tall = _face(rng, 96, 84)
    out, spec = corrupt(tall, seed=41, pixel_fraction=0.3, coverage=0.6, patch=patch)
    assert spec.mask.sum() >= spec.block[2] ** 2
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0
    wide = _face(rng, 55, 40)
    out2, spec2 = corrupt(wide, seed=42, pixel_fraction=0.2, coverage=0.5, patch=patch)
    assert 0.0 < spec2.mask.mean() < 1.0
