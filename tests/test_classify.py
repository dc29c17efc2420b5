"""Per-class weighted residuals and the identification rule."""

import numpy as np
import pytest

from faceid.classify import class_residuals, identify
from faceid.errors import DictionaryError
from faceid.model import ImageGeometry, build_dictionary
from faceid.solver import SolveResult
from faceid.weights import WeightVector
from helpers import CountingMatmul, as_float32, random_dictionary, random_faces


def _result(a, w, e=None):
    d = len(w)
    return SolveResult(
        a=np.asarray(a, dtype=float),
        e=np.zeros(d) if e is None else np.asarray(e, dtype=float),
        w=WeightVector(np.asarray(w, dtype=float)),
        outer_iterations=1,
        inner_iterations=[1],
        inner_converged=[True],
        stop="converged",
        wall_seconds=0.0,
    )


def test_single_class_exact_fit():
    rng = np.random.default_rng(0)
    T = random_dictionary(rng, 4, 3, 5, classes=1)
    a = rng.uniform(0.1, 1.0, 5)
    y = T.columns @ a
    res = identify(y, T, _result(a, np.ones(12)))
    assert res.predicted == 0
    assert res.residuals[0] <= 1e-10
    assert res.margin == np.inf


def test_identity_weights_match_plain_norms():
    rng = np.random.default_rng(1)
    T = random_dictionary(rng, 5, 4, 9, classes=3)
    a = rng.uniform(0.0, 1.0, 9)
    y = rng.uniform(0.0, 1.0, 20)
    res = identify(y, T, _result(a, np.ones(20)))
    for c in range(3):
        lo, hi = T.class_range(c)
        part = T.columns[:, lo:hi] @ a[lo:hi]
        assert res.residuals[c] == pytest.approx(np.linalg.norm(y - part), rel=1e-12)


def test_true_class_wins_on_constructed_instances():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(400 + seed)
        T = random_dictionary(rng, 5, 4, 8, classes=2)
        truth = seed % 2
        lo, hi = T.class_range(truth)
        a = np.zeros(8)
        a[lo:hi] = rng.uniform(0.5, 1.0, hi - lo)
        y = T.columns @ a + rng.normal(0.0, 0.01, 20)
        res = identify(y, T, _result(a, np.ones(20)))
        hits += res.predicted == truth
        assert res.residuals[truth] < res.residuals[1 - truth]
        assert res.margin > 0.0
    assert hits == 100


def test_all_zero_code_ties_break_to_first_class():
    rng = np.random.default_rng(2)
    T = random_dictionary(rng, 4, 3, 6, classes=3)
    y = rng.uniform(0.1, 1.0, 12)
    res = identify(y, T, _result(np.zeros(6), np.ones(12)))
    assert res.predicted == 0
    assert res.margin == pytest.approx(0.0, abs=1e-15)


def test_weight_scaling_scales_residuals_not_ranking():
    rng = np.random.default_rng(3)
    T = random_dictionary(rng, 5, 4, 9, classes=3)
    a = rng.uniform(0.0, 1.0, 9)
    y = rng.uniform(0.0, 1.0, 20)
    w = rng.uniform(0.2, 1.0, 20)
    base = identify(y, T, _result(a, w))
    scaled = identify(y, T, _result(a, 4.0 * w))
    assert np.allclose(scaled.residuals, 2.0 * base.residuals, atol=1e-12)
    assert scaled.predicted == base.predicted


def test_relabeling_permutes_residuals():
    rng = np.random.default_rng(4)
    geometry = ImageGeometry(5, 4)
    faces = random_faces(rng, geometry, 9)
    labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    T = build_dictionary(faces, labels)
    # Swap class ids 0 and 2; build_dictionary re-sorts columns by label.
    swapped = build_dictionary(faces, [2 - c for c in labels])
    a = rng.uniform(0.0, 1.0, 9)
    y = rng.uniform(0.0, 1.0, 20)
    w = rng.uniform(0.2, 1.0, 20)
    base = identify(y, T, _result(a, w))
    # The stable sort moves whole class blocks without reordering inside them.
    a_perm = np.concatenate([a[6:9], a[3:6], a[0:3]])
    perm = identify(y, swapped, _result(a_perm, w))
    assert np.allclose(perm.residuals, base.residuals[::-1], atol=1e-12)
    assert perm.predicted == 2 - base.predicted


def test_rejects_mismatched_code_or_weight_lengths():
    rng = np.random.default_rng(6)
    T = random_dictionary(rng, 4, 3, 6, classes=2)
    good = _result(np.zeros(6), np.ones(12))
    with pytest.raises(DictionaryError):
        class_residuals(np.zeros(12), T, _result(np.zeros(5), np.ones(12)))
    with pytest.raises(DictionaryError):
        class_residuals(np.zeros(12), T, _result(np.zeros(6), np.ones(11)))
    assert class_residuals(np.zeros(12), T, good).shape == (2,)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_all_zero_classes_form_no_product(dtype):
    """A class whose coefficients are all exactly 0 (-0.0 included) gets
    ||sqrt(W) y|| without a product, bit for bit the per-class formula; only
    the classes with a nonzero coefficient form one."""
    rng = np.random.default_rng(7)
    T = random_dictionary(rng, 6, 5, 12, classes=4)
    if dtype == "float32":
        T = as_float32(T)
    a = np.zeros(12)
    lo, hi = T.class_range(2)
    a[lo:hi] = rng.uniform(0.1, 1.0, hi - lo)
    a[T.class_range(0)[0]] = -0.0
    y, w = rng.uniform(0.0, 1.0, 30), rng.uniform(0.2, 1.0, 30)
    sw = np.sqrt(w)
    expect = [np.linalg.norm(sw * (y - T.columns[:, lo:hi] @ a[lo:hi])) for lo, hi in map(T.class_range, range(4))]
    object.__setattr__(T, "columns", T.columns.view(CountingMatmul))
    CountingMatmul.reset()
    got = class_residuals(y, T, _result(a, w))
    assert got.tolist() == expect
    assert CountingMatmul.calls == 1
