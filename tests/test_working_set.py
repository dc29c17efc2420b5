"""Working-set coding: F-IRNNLS and F-IRSC code each outer step after the
first on the atoms in use, and one full KKT product per step checks the rest."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import nnls

import faceid.solver as solver
from faceid.classify import identify
from faceid.corruptions import corrupt, textured_patch
from faceid.experiment import _image_seed, make_synthetic_benchmark
from faceid.model import build_dictionary
from faceid.solver import KKT_TOL, METHODS, method_config, precompute_gram, solve_batch
from helpers import as_float32, random_dictionary

SPARSE = ("F-IRNNLS", "F-IRSC")

# Capped solves before working sets on the workload below, solved the same
# way: F-IRNNLS 3 and F-IRSC 3 of 200 (an older FOUND line in CHANGES.md read
# 4 and 5 from one-probe solves). Without the sticky rule F-IRNNLS caps 4.
CAPPED_BEFORE = {"F-IRNNLS": 3, "F-IRSC": 3}

# Share of probes on which exact weighted NNLS at the final weights must pick
# the solver's class; perfbench/checks.py asks the same of every run.
ORACLE_AGREEMENT = 0.85


@pytest.fixture(scope="module")
def acceptance_6_solves():
    """Each sparse preset's solves of the acceptance-6 workload (5 seeds x 40
    probes at 24x21, half covered by the textured block), a seed's probes in
    one batch as run_experiment codes them: {name: [(y, T, result)]}."""
    patch = textured_patch()
    galleries = []
    for seed in range(5):
        ds = make_synthetic_benchmark(classes=10, per_class=7, seed=seed, extra_tests=3)
        T = build_dictionary(ds.train, ds.train_labels)
        ys = [corrupt(img, _image_seed(seed, i), 0.0, 0.5, patch)[0].normalized() for i, img in enumerate(ds.test)]
        galleries.append((T, ys, ds.test_labels))
    out = {}
    for name in SPARSE:
        config = method_config(name, gamma=0.6)
        out[name] = []
        for T, ys, labels in galleries:
            results = solve_batch(ys, T, config, precompute_gram(T, config.gram_ratio))
            out[name] += [(y.values, T, r, label) for y, r, label in zip(ys, results, labels)]
    return out


def test_working_set_covers_the_plain_sparse_presets():
    """Only the reweighted sparse kinds at lambda_star = 0 code on working
    sets; the l2 kind, every low-rank preset and the constant-weight SRC
    keep every atom."""
    for name, (kind, low_rank, scheme) in METHODS.items():
        expected = kind != "l2" and not low_rank and scheme != "constant"
        assert method_config(name).working_set == expected, name


def test_restrict_inverts_the_gathered_system():
    """A restriction holds its atoms' columns, column-major, and the inverse
    of their shifted Gram system: to 1e-12 of a Cholesky solve for float32
    columns (whose Gram is formed in float64), and of the full inverse when
    float64 columns are restricted to every atom."""
    T = random_dictionary(np.random.default_rng(60), 24, 21, 60, classes=10)
    ratio = method_config("F-IRNNLS").gram_ratio
    full = precompute_gram(T, ratio)
    every = full.restrict(np.arange(T.n))
    ref = full.apply(np.eye(T.n))
    assert np.abs(every.apply(np.eye(T.n)) - ref).max() <= 1e-12 * np.abs(ref).max()
    cache32 = precompute_gram(as_float32(T), ratio)
    atoms = np.array([3, 5, 17, 21, 59])
    sub = cache32.restrict(atoms)
    assert sub.columns.flags.f_contiguous and np.array_equal(sub.columns, cache32.columns[:, atoms])
    A = sub.columns.astype(float)
    factor = cho_factor(A.T @ A + ratio * np.eye(atoms.size), lower=True)
    b = np.random.default_rng(1).normal(size=atoms.size)
    ref = cho_solve(factor, b)
    assert np.linalg.norm(sub.apply(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    inverse = sub.apply(np.eye(atoms.size))
    assert np.array_equal(inverse, inverse.T)


@pytest.mark.parametrize("rows, cols, n", [(24, 21, 60), (96, 84, 120)])
def test_restrict_to_every_atom_forms_the_full_inverse_bit_for_bit(rows, cols, n):
    """restrict and precompute_gram form their systems through one routine:
    on float64 columns, the restriction to every atom holds the very bits of
    the full inverse."""
    T = random_dictionary(np.random.default_rng(rows), rows, cols, n, classes=10)
    full = precompute_gram(T, method_config("F-IRNNLS").gram_ratio)
    assert np.array_equal(full.restrict(np.arange(n))._inverse, full._inverse)


def test_working_set_steps_start_from_their_own_product(spy):
    """Every coding step on a working set starts from Ta0 = T_S a0, formed
    from the set's gathered columns, bit for bit: after a step on every
    atom, after one on a set that atoms left, and after one on a set that
    only grew, whose product over fewer columns rounds differently. float64
    columns, on which the rounding of a product moves with its columns."""
    ds = make_synthetic_benchmark(classes=10, per_class=7, seed=0, extra_tests=3)
    T = build_dictionary(ds.train, ds.train_labels, dtype=np.float64)
    patch = textured_patch()
    ys = [corrupt(img, _image_seed(0, i), 0.0, 0.5, patch)[0].normalized() for i, img in enumerate(ds.test[:8])]
    config = method_config("F-IRNNLS", gamma=0.6)
    steps = spy("coding_step", record=lambda args, kwargs, out: (
        args[1].atoms if isinstance(args[1], solver.WorkingSet) else None,
        isinstance(args[1], solver.WorkingSet)
        and np.array_equal(kwargs["Ta0"], solver._product(args[1].columns, kwargs["a0"])),
    ))
    left = grew = 0
    for y in ys:
        steps.clear()
        solver.solve(y, T, config)
        for (last, _), (atoms, same) in zip(steps, steps[1:]):
            assert atoms is None or same
            if atoms is not None and last is not None:
                gone = np.setdiff1d(last, atoms).size
                left += gone > 0
                grew += gone == 0 and atoms.size > last.size
    assert left > 0 and grew > 0


@pytest.mark.parametrize("name", SPARSE)
def test_converged_solves_meet_the_full_kkt_test(acceptance_6_solves, name):
    """Recomputed in float64 from result.a, result.w and the columns, the
    gradient h = 2 T'W(y - T a) of every converged solve satisfies the KKT
    test at every atom outside its final working set: h_j <= tol (nonneg) or
    |h_j| <= lambda_reg + tol (l1), tol = KKT_TOL * max|h|, plus 1e-5 * max|h|
    for the float32 products of the check. a is exactly 0 outside that set,
    and some atoms lie outside it."""
    config = method_config(name, gamma=0.6)
    worst, outside = 0.0, 0
    for y, T, r, _ in acceptance_6_solves[name]:
        assert np.count_nonzero(r.a) <= r.working_set_sizes[-1] < T.n
        if not r.converged:
            continue
        A = T.columns.astype(float)
        h = 2.0 * A.T @ (r.w.values * (y - A @ r.a))
        zero = r.a == 0.0
        outside += np.count_nonzero(zero)
        score = h[zero] if name == "F-IRNNLS" else np.abs(h[zero]) - config.lambda_reg
        worst = max(worst, float(score.max(initial=-np.inf)) / float(np.abs(h).max()))
    assert outside > 0
    assert worst <= KKT_TOL + 1e-5


def test_predictions_match_exact_weighted_nnls(acceptance_6_solves):
    """F-IRNNLS picks the class that exact weighted NNLS (scipy) picks at the
    solve's final weights on at least ORACLE_AGREEMENT of the probes."""
    agree = 0
    solves = acceptance_6_solves["F-IRNNLS"]
    for y, T, r, _ in solves:
        A = T.columns.astype(float)
        sw = np.sqrt(r.w.values)
        exact, _ = nnls(sw[:, None] * A, sw * y, maxiter=50 * T.n)
        oracle = SimpleNamespace(a=exact, w=r.w)
        agree += identify(y, T, oracle).predicted == identify(y, T, r).predicted
    assert agree >= ORACLE_AGREEMENT * len(solves)


@pytest.mark.parametrize("name", SPARSE)
def test_working_sets_do_not_cycle_to_t_max(acceptance_6_solves, name):
    """Atoms that could cycle in and out of a working set become sticky, so
    no more solves stop at t_max than before working sets; the accuracy
    stays as it was too (F-IRNNLS 0.91, F-IRSC 0.885 of 200)."""
    solves = acceptance_6_solves[name]
    assert sum(not r.converged for _, _, r, _ in solves) <= CAPPED_BEFORE[name]
    correct = sum(identify(y, T, r).predicted == label for y, T, r, label in solves)
    assert correct >= {"F-IRNNLS": 182, "F-IRSC": 177}[name]


def test_atoms_that_entered_three_times_are_not_dropped():
    """The sticky rule: an atom of the set whose z is 0 and that does not
    violate leaves the set, unless it has entered it STICKY_ENTRIES times as
    a violator; leaving zeroes its a, u2 and z."""
    n, d = 6, 4
    T = SimpleNamespace(columns=np.zeros((d, n), np.float32))
    inside = np.ones((n, 2), bool, order="F")
    cols = SimpleNamespace(
        probe=np.arange(2), inside=inside, entries=np.zeros((n, 2), np.int8, order="F"),
        a=np.full((n, 2), 0.5, order="F"), u2=np.full((n, 2), 0.1, order="F"),
        z=np.asfortranarray(np.tile([[0.5], [0.5], [0.0], [0.0], [0.0], [0.0]], 2)),
    )
    cols.entries[2, 1] = solver.STICKY_ENTRIES
    score = np.full((n, 2), -1.0)
    solver._update_working_sets(cols, score, score > 0.0, T)
    assert cols.inside[:, 0].tolist() == [True, True, False, False, False, False]
    assert cols.inside[:, 1].tolist() == [True, True, True, False, False, False]
    assert (cols.a[3:, :] == 0.0).all() and (cols.u2[3:, :] == 0.0).all()
    assert cols.a[2, 1] == 0.5 and cols.a[2, 0] == 0.0


@pytest.mark.parametrize("name", sorted(METHODS))
def test_working_set_sizes_hold_one_entry_per_outer_step(acceptance_6_solves, name):
    """working_set_sizes has one entry per outer step, the number of atoms
    that step coded: n for the first and for every step of a preset without
    working sets, at most n after it."""
    T, ys = acceptance_6_solves["F-IRNNLS"][0][1], [y for y, *_ in acceptance_6_solves["F-IRNNLS"][:4]]
    config = method_config(name, gamma=0.6)
    for r in solve_batch(ys, T, config):
        sizes = r.working_set_sizes
        assert len(sizes) == r.outer_iterations and sizes[0] == T.n
        if config.working_set:
            assert max(sizes[1:]) <= T.n and min(sizes[1:]) < T.n
        else:
            assert sizes == [T.n] * r.outer_iterations


def test_subnormal_weighted_residuals_are_flushed(spy):
    """Logistic weights can put W r in float32's subnormal range, where a
    float32 product runs several times slower. The KKT check zeroes those
    entries before the product, so none reaches it, and it finds the
    violators that the float64 check finds."""
    T = as_float32(random_dictionary(np.random.default_rng(5), 24, 21, 60, classes=10))
    d, n = T.columns.shape
    rng = np.random.default_rng(6)
    w = rng.uniform(0.1, 1.0, (d, 1))
    w[: d // 2] = 1e-40  # w r near 1e-41, below float32's smallest normal
    cols = SimpleNamespace(w=w, y=rng.uniform(0.0, 0.2, (d, 1)), Ta=np.asfortranarray(rng.uniform(0.0, 0.1, (d, 1))))
    config = method_config("F-IRNNLS")
    products = spy("_product", record=lambda args, kwargs, out: np.asarray(args[1]).copy())
    score, violator = solver._kkt_check(cols, T, config)
    tiny = np.finfo(np.float32).tiny
    assert len(products) == 1 and not ((products[0] != 0.0) & (np.abs(products[0]) < tiny)).any()
    assert np.count_nonzero(products[0]) == d - d // 2
    h = 2.0 * T.columns.astype(float).T @ (w * (cols.y - cols.Ta))
    assert np.abs(score - h).max() <= 1e-5 * np.abs(h).max()
    assert np.array_equal(violator[:, 0], h[:, 0] > KKT_TOL * np.abs(h).max())
