"""Shared instance builders for the test suite."""

from collections import Counter
from dataclasses import replace

import numpy as np

import faceid.solver as solver
from faceid.model import FaceVector, ImageGeometry, build_dictionary


class CountingMatmul(np.ndarray):
    """ndarray view that counts its `@` products and the columns they form,
    as the left operand (M @ V) or the right one (V' @ M'); transposed views
    count too, and so do the columns a working set gathers from it (fancy
    indexing keeps the subclass). atoms tallies the products by the view's
    shorter side, the number of atoms it holds when d > n. Put
    `T.columns.view(CountingMatmul)` in place with object.__setattr__ before
    the GramCache is built, or build a cache over the view, and call reset()
    before counting."""

    calls = 0
    columns = 0
    atoms = Counter()

    @classmethod
    def reset(cls):
        cls.calls = cls.columns = 0
        cls.atoms = Counter()

    def __matmul__(self, other):
        CountingMatmul.calls += 1
        CountingMatmul.columns += 1 if np.ndim(other) == 1 else np.shape(other)[1]
        CountingMatmul.atoms[min(self.shape)] += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        CountingMatmul.calls += 1
        CountingMatmul.columns += 1 if np.ndim(other) == 1 else np.shape(other)[0]
        CountingMatmul.atoms[min(self.shape)] += 1
        return other @ np.asarray(self)


def tag_restrictions(monkeypatch):
    """Wrap faceid.solver.GramCache.restrict for the test so that each cache
    it returns carries the atoms it was restricted to as the attribute atoms
    (see atoms_of)."""
    restrict = solver.GramCache.restrict

    def tagged(cache, atoms):
        sub = restrict(cache, atoms)
        sub.atoms = atoms
        return sub

    monkeypatch.setattr(solver.GramCache, "restrict", tagged)


def atoms_of(cache):
    """The atoms of a cache that GramCache.restrict returned under
    tag_restrictions, or None for a dictionary's own cache."""
    return getattr(cache, "atoms", None)


def coded_coefficients(n, args, step):
    """The coefficients a coding_step call (args, its returned state step)
    coded, over all n atoms: a call on a restricted cache codes its atoms
    only, and the others are 0. Needs tag_restrictions."""
    atoms = atoms_of(args[1])
    if atoms is not None:
        a = np.zeros((n, step.a.shape[1]))
        a[atoms] = step.a
        return a
    return step.a


def record_factorizations(monkeypatch):
    """Wrap faceid.solver.dpotrf, the routine the solver factors its Gram
    systems with, and faceid.solver.coding_step for the test, and tag the
    restricted caches (tag_restrictions). Returns a dict filled in as the
    solver runs: "orders" lists the order of each system factored,
    "in_step" counts those factored inside a coding step, and "steps" lists
    the GramCache each coding step coded on."""
    log = {"orders": [], "in_step": 0, "steps": []}
    depth = [0]
    factor, step = solver.dpotrf, solver.coding_step
    tag_restrictions(monkeypatch)

    def counted_factor(a, *args, **kwargs):
        log["orders"].append(np.shape(a)[0])
        log["in_step"] += depth[0] > 0
        return factor(a, *args, **kwargs)

    def counted_step(y, cache, *args, **kwargs):
        log["steps"].append(cache)
        depth[0] += 1
        try:
            return step(y, cache, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "dpotrf", counted_factor)
    monkeypatch.setattr(solver, "coding_step", counted_step)
    return log


def lower_gather_cap(monkeypatch, T, atoms=None):
    """Set faceid.solver.GATHER_MAX_BYTES to the bytes of `atoms` of T's
    columns, T.n - 1 by default, so that the cap is below n and
    solve_batch codes the sparse presets on working sets of T: it codes a
    dictionary that fits the cap on every atom. Returns the cap in atoms."""
    atoms = T.n - 1 if atoms is None else atoms
    monkeypatch.setattr(solver, "GATHER_MAX_BYTES", atoms * T.columns.shape[0] * T.columns.itemsize)
    return atoms


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


def flat_start(T, y, w=None):
    """The start of a coding_step of the (d, B) probes y under the (d, B)
    weights w (None, as solve_batch has it before its first weight update,
    for a start no step reads): the AdmmState of the flat coefficients
    a = 1/n, (n, B), their residual res = y - T.columns @ a, zero duals and
    z, and no e."""
    (d, n), m = T.columns.shape, y.shape[1]
    a = np.full((n, m), 1.0 / n)
    return solver.AdmmState(a=a, z=np.zeros((n, m)), e=None, u1=np.zeros((d, m)), u2=np.zeros((n, m)), w=w,
                            res=y - T.columns @ a)
