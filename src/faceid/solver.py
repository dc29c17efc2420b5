"""Reweighted ADMM solver for robust face coding.

One engine covers the whole method family: the outer loop re-estimates pixel
weights from the current residual, the inner ADMM codes the face against the
dictionary under those weights with an optional low-rank treatment of the
residual grid and a choice of coefficient regularizer (nonnegativity, l1, or
ridge). Method presets select the combinations by name.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import ConfigError, GeometryError, NumericError
from .model import Dictionary, ImageGeometry
from .prox import project_nonneg, shrink_weighted, soft_threshold, svt
from .weights import WeightFunction, WeightVector, weight_update

REGULARIZERS = ("nonneg", "l1", "l2")

log = logging.getLogger(__name__)

# From the third outer step on, solve runs the coding step to the fit
# tolerance min(eps1, INNER_TOL_RATIO * the last relative weight change), so
# the inner accuracy follows the outer progress instead of staying at eps1.
INNER_TOL_RATIO = 0.03

# Over-relaxation factor of the plain (lambda_star = 0) inner loop (Boyd et
# al. 2011, section 3.4.3): the coefficient and dual updates read alpha * e +
# (1 - alpha) * res, res = y - T a_prev, and alpha * z + (1 - alpha) * a_prev
# in place of e and z. Both combine vectors the loop carries, so relaxation
# costs no dictionary product. It needs both blocks to be exact proximal
# steps; on the low-rank path e_update shrinks and then thresholds singular
# values, which is not the joint prox, so that path runs at alpha = 1.
RELAX = 1.5

# A GramCache forms its full inverse from float32 columns in blocks of this
# share of n rows, so that the float64 copy of a block stays a tenth of the
# n x n Gram.
GRAM_BLOCK_SHARE = 0.1
# GramCache.restrict forms a working set's Gram system from its gathered
# float32 columns in blocks of this many rows (192 KiB of float64 at 48
# atoms).
RESTRICT_BLOCK_ROWS = 512

# Working sets (SolverConfig.working_set). A probe codes only the atoms of its
# working set S; one full product g = T'(W r), r = y - T a, per outer step
# checks the atoms outside S. In the engine's units the gradient of the data
# term sum(w (y - T a)^2) is -2 g, so an atom at zero violates its KKT
# condition when 2 g_j > tol (nonneg) or |2 g_j| > lambda_reg + tol (l1),
# with tol = KKT_TOL * max_j |2 g_j|.
KKT_TOL = 1e-3
# A working set takes in at most max(GROW_MIN, |supp z|) violators per outer
# step, the largest first; a set at the gather cap keeps min(GROW_MIN, the
# violators outside it) of its slots for them, past the cap if its support
# fills it.
GROW_MIN = 8
# An atom that has entered S this many times as a violator is not dropped
# again; without it an atom can cycle in and out of S until t_max.
STICKY_ENTRIES = 3
# The gather cap: a working set holds as many atoms as fit in this many
# bytes of gathered columns (and at least one), unless the support of z
# needs more. The copy is the memory a working set adds per probe: 1.5 MiB
# is 48 float32 atoms at 96x84, and more atoms than a 24x21 dictionary has.
# solve_batch codes on working sets only when the cap is below n: a
# dictionary that fits it is small enough to code whole, and a gather saves
# it little. A working-set solve's first set update keeps the cap's worth of
# atoms, and every update truncates a set that would outgrow the cap down to
# its support and room for violators (_update_working_sets).
GATHER_MAX_BYTES = 3 * 2**19
# Entries of W r below float32's smallest normal are zeroed before the KKT
# product: the logistic weights reach that range, and subnormal operands slow
# a float32 product several times over.
SUBNORMAL_FLUSH = float(np.finfo(np.float32).tiny)

# Engine configurations behind the published method names. Entries are
# (regularizer kind, low-rank flag, weight scheme). The presets without the
# low-rank flag are the lambda_star = 0 case of the same engine: method_config
# zeroes lambda_star for them.
METHODS = {
    "F-LR-IRNNLS": ("nonneg", True, "logistic"),
    "F-IRNNLS": ("nonneg", False, "logistic"),
    "F-IRLS": ("l2", False, "logistic"),
    "F-IRSC": ("l1", False, "logistic"),
    "F-LR-IRLS": ("l2", True, "logistic"),
    "F-LR-IRSC": ("l1", True, "logistic"),
    "SRC": ("l1", False, "constant"),
    "CR-RLS": ("l2", False, "constant"),
    "LR3": ("l2", True, "constant"),
}

@dataclass(frozen=True)
class SolverConfig:
    """Engine knobs; the defaults give the robust nonnegative low-rank solver.

    lambda_star weighs the nuclear norm of the residual grid; at 0 the SVT
    step is skipped, and that is the plain (F-IRNNLS-style) path. lambda_reg
    weighs the coefficient penalty for the l1/l2 kinds; the default is a
    working convention, not a published value. eps1/eps2 bound
    the inner primal residuals ||y - Ta - e|| and ||a - z||, eps3 the relative
    change of consecutive weight vectors that stops the outer loop. eps1 is
    the loosest fit tolerance: solve tightens it as the weights settle (see
    INNER_TOL_RATIO). low_rank also sets the inner relaxation factor (see
    RELAX).

    The dictionary products run in the dtype of T.columns. With float32
    columns their roundoff puts a floor of roughly 1e-6 under the fit and
    split residuals a coding step can reach; solve never asks for less than
    INNER_TOL_RATIO * eps3 (3e-4 at the defaults), but an eps1 or eps2 near
    that floor needs float64 columns (build_dictionary(..., dtype=np.float64))
    or the loop runs to s_max.

    The penalties are in units of the engine's data term sum(w * e^2), twice
    the x^2 / 2 that phi (the reference objective in tests/oracle.py) charges
    at unit weight. So the ridge fixed point is (T'T + lambda_reg I)^-1 T'y,
    and a coefficient penalty stated in phi units is doubled before it goes
    into lambda_reg; the l2 kind needs lambda_reg > 0, which keeps its Gram
    system positive definite.
    """

    lambda_star: float = 0.05
    rho1: float = 1.0
    rho2: float = 0.1
    lambda_reg: float = 1e-3
    eps1: float = 1e-2
    eps2: float = 1e-1
    eps3: float = 1e-2
    t_max: int = 100
    s_max: int = 500
    regularizer: str = "nonneg"
    weights: WeightFunction = field(default_factory=WeightFunction.logistic)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("t_max", "s_max"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {cap!r}")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(f"regularizer must be one of {REGULARIZERS}, got {self.regularizer!r}")
        if self.lambda_star < 0.0 or self.lambda_reg < 0.0:
            raise ConfigError("penalty weights must be nonnegative")
        if self.regularizer == "l2" and self.lambda_reg == 0.0:
            raise ConfigError("the l2 regularizer needs lambda_reg > 0")
        if self.rho1 <= 0.0 or self.rho2 <= 0.0:
            raise ConfigError("rho1 and rho2 must be positive")
        if self.eps1 <= 0.0 or self.eps2 <= 0.0 or self.eps3 <= 0.0:
            raise ConfigError("tolerances must be positive")
        if self.t_max < 1 or self.s_max < 1:
            raise ConfigError("iteration caps must be at least 1")
        if not isinstance(self.weights, WeightFunction):
            raise ConfigError("weights must be a WeightFunction")

    @property
    def low_rank(self) -> bool:
        """Whether the SVT step runs: lambda_star > 0."""
        return self.lambda_star > 0.0

    @property
    def working_set(self) -> bool:
        """Whether this configuration may code on working sets (see KKT_TOL):
        the sparse kinds, nonneg and l1, on the plain path (lambda_star = 0),
        under reweighting. solve_batch also needs the dictionary to outgrow
        the gather cap (GATHER_MAX_BYTES); a dictionary that fits it is coded
        on every atom. The l2 kind has no sparsity, the KKT test of the
        weighted data term is not the low-rank path's optimality condition,
        and a constant-weight solve stops after its one coding step, so all
        three keep every atom."""
        return not self.low_rank and self.regularizer != "l2" and self.weights.kind != "constant"

    @property
    def gram_ratio(self) -> float:
        """Diagonal shift of the cached Gram system for this configuration."""
        if self.regularizer == "l2":
            return 2.0 * self.lambda_reg / self.rho1
        return self.rho2 / self.rho1


@dataclass
class GramCache:
    """The atoms a coding step codes on: their columns A, their image
    geometry, and the inverse of A'A + ratio * I, reused across iterations.

    precompute_gram builds a dictionary's (T.columns itself, T.geometry),
    restrict a working set's. solve_batch accepts a supplied cache only for
    T.columns itself (an O(1) identity check) and T.geometry, so a cache
    built for another dictionary of the same size is refused. The inverse is
    a full, exactly symmetric array, so that apply is one product. The first
    apply forms it (_system, float32 columns in blocks of GRAM_BLOCK_SHARE *
    n rows), so the presets that code every atom pay for the n x n inverse
    in their first solve against the dictionary, in its first coding step,
    not at precompute_gram; an error of the factorization is raised there
    too. A working-set solve only restricts the cache and never forms its
    inverse.
    """

    ratio: float
    columns: np.ndarray
    geometry: ImageGeometry
    _inverse: Optional[np.ndarray] = None

    def apply(self, b: np.ndarray) -> np.ndarray:
        """x = (A'A + ratio I)^-1 b for b of shape (n,) or (n, B), as one
        product with the stored inverse, formed as (b' inverse')' so that
        the columns of x come out contiguous, as _product's do."""
        if self._inverse is None:
            rows = max(1, int(GRAM_BLOCK_SHARE * self.columns.shape[1]))
            self._inverse = _system(self.columns, self.ratio, rows)
        return (b.T @ self._inverse.T).T

    def restrict(self, atoms: np.ndarray) -> "GramCache":
        """The cache of the atoms (ascending column indices) alone: their
        columns gathered into a column-major copy, the same geometry, and the
        inverse of T_S'T_S + ratio I, formed from them at once by the routine
        that forms the full inverse (_system), float32 columns in blocks of
        RESTRICT_BLOCK_ROWS rows. Nothing of the full n x n size is read,
        kept or allocated."""
        columns = self.columns[:, atoms]
        return GramCache(ratio=self.ratio, columns=columns, geometry=self.geometry,
                         _inverse=_system(columns, self.ratio, RESTRICT_BLOCK_ROWS))


def _system(A: np.ndarray, ratio: float, rows: int) -> np.ndarray:
    """The inverse of A'A + ratio * I, formed in float64 in one
    Fortran-ordered buffer, the order LAPACK works in.

    BLAS dsyrk accumulates the lower triangle of A'A: float64 columns in one
    call, with no copy (dsyrk forms a'a of its column-major argument a at
    trans=1), and float32 columns in blocks of the given number of rows, each
    copied to float64 as it is added. The buffer is shifted by ratio, LAPACK
    potrf factors it by Cholesky and potri turns the factor into the
    inverse's lower triangle, which is copied into the upper one column by
    column, so nothing of the matrix's size is allocated beyond the buffer
    and the inverse is exactly symmetric.
    """
    d, k = A.shape
    if A.dtype == np.float64:
        gram = dsyrk(1.0, A, trans=1, lower=1)
    else:
        gram = np.zeros((k, k), order="F")
        rows = min(rows, d)
        buffer = np.empty((rows, k), order="F")
        for r in range(0, d, rows):
            block = buffer if r + rows <= d else np.empty((d - r, k), order="F")
            block[...] = A[r : r + block.shape[0]]
            dsyrk(1.0, block, trans=1, beta=1.0, c=gram, lower=1, overwrite_c=1)
    # A view of the diagonal: gram is Fortran-contiguous, so ravel copies nothing.
    gram.ravel(order="F")[:: k + 1] += ratio
    factor, info = dpotrf(gram, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise NumericError(f"gram matrix ({k}x{k}) is not positive definite")
    inverse, info = dpotri(factor, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericError(f"gram matrix ({k}x{k}) could not be inverted (potri info {info})")
    for i in range(1, k):
        inverse[:i, i] = inverse[i, :i]
    return inverse


def precompute_gram(T: Dictionary, ratio: float) -> GramCache:
    """The GramCache of T at ratio, shared by every solve against T: its
    first apply inverts T'T + ratio * I once, so that every coefficient
    update on every atom is one product instead of a pair of triangular
    solves, and its restrictions serve the steps on working sets."""
    if ratio <= 0.0:
        raise ConfigError(f"gram ratio must be positive, got {ratio}")
    return GramCache(ratio=float(ratio), columns=T.columns, geometry=T.geometry)


@dataclass
class AdmmState:
    """Inner-loop state of a batch of probes, one column per probe: a, z and
    u2 are (n, B), e, u1, w and res are (d, B); z is None when the l2 kind
    drops the split. The step functions are elementwise apart from their
    products, so a state of 1-d vectors is the one-probe case without the
    column axis.

    res carries the residual y - cache.columns @ a of the current a, formed
    once: dual_update forms it; e_update, the relaxation, the fit test and the
    outer weight residual read it. coding_step keeps it current at every
    e_update; a state that only meets z_update and a_update may leave it
    None. n counts the cache's atoms (all, or a working set's).

    A state is also a coding step's start, of which coding_step reads a,
    res, u1, u2 and w (the weights it codes under), never e or z, so a start
    may leave both None. It returns its final state, with one entry per
    column in each of: the iteration count, whether the column converged,
    and its last fit ||res - e|| and split ||a - z|| residuals (split stays
    0.0 on the l2 path). A state is the one record of a batch's iterates:
    solve_batch puts each outer step's weights into the state the last step
    returned and starts the step from it, and no function writes into a
    state it did not allocate.
    """

    a: np.ndarray
    z: Optional[np.ndarray]
    e: Optional[np.ndarray]
    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray
    res: Optional[np.ndarray] = None
    iterations: Optional[np.ndarray] = None
    converged: Optional[np.ndarray] = None
    fit_residual: Optional[np.ndarray] = None
    split_residual: Optional[np.ndarray] = None

    def take(self, keep: np.ndarray) -> "AdmmState":
        """A copy of the columns (the last axis) that the boolean mask or
        index array keep selects, in every field that is set, the per-column
        entries included; a field that is None stays None."""
        return AdmmState(**{k: None if v is None else v[..., keep] for k, v in vars(self).items()})


def _product(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ V in M's dtype, returned in float64: a float32 dictionary reads
    half the bytes of a float64 one, and both casts are no-ops at float64.
    V of one column is a matrix-vector product, of B columns one
    matrix-matrix product. It is formed as (V' M')', which gives the bits of
    M @ V and a Fortran-ordered result: each probe's column is contiguous."""
    return (V.T.astype(M.dtype, copy=False) @ M.T).T.astype(np.float64, copy=False)


def e_update(state: AdmmState, cache: GramCache, config: SolverConfig) -> np.ndarray:
    """Residual-variable update from the carried residual state.res: weighted
    shrink, then, when config.low_rank, SVT of each column's grid."""
    r = state.res + state.u1 / config.rho1
    e = shrink_weighted(r, state.w, config.rho1)
    if config.low_rank:
        tau = config.lambda_star / config.rho1
        # Column j's grid is grids[:, :, j], a view laid out as a single
        # probe's; e is Fortran-ordered (coding_step keeps it so), else copied.
        e = np.asfortranarray(e)
        grids = e.reshape(cache.geometry.shape + (-1,), order="F")
        for j in range(grids.shape[2]):
            grids[:, :, j] = svt(grids[:, :, j], tau)
    return e


def z_update(state: AdmmState, config: SolverConfig) -> np.ndarray:
    """Split-variable update: nonneg projection or soft threshold of a + u2/rho2."""
    v = state.a + state.u2 / config.rho2
    if config.regularizer == "nonneg":
        return project_nonneg(v)
    if config.regularizer == "l1":
        return soft_threshold(v, config.lambda_reg / config.rho2)
    raise ConfigError("the l2 kind has no split variable z")


def a_update(state: AdmmState, y, cache: GramCache, config: SolverConfig) -> np.ndarray:
    """Coefficient update over the cache's columns through its Gram inverse,
    whose ratio must be config.gram_ratio (coding_step checks)."""
    rhs = _product(cache.columns.T, y - state.e + state.u1 / config.rho1)
    if config.regularizer != "l2":
        rhs = rhs + (config.rho2 / config.rho1) * state.z - state.u2 / config.rho1
    return cache.apply(rhs)


def dual_update(state: AdmmState, y, cache: GramCache, rho1: float, rho2: float):
    """Scaled dual ascent on both constraints; u2 is untouched on the l2 path.

    Returns (u1, u2, res): res = y - cache.columns @ state.a, formed here once
    and read by the fit test, the next e_update and the outer weight residual.
    """
    res = y - _product(cache.columns, state.a)
    u1 = state.u1 + rho1 * (res - state.e)
    if state.z is None:
        u2 = state.u2
    else:
        u2 = state.u2 + rho2 * (state.a - state.z)
    return u1, u2, res


def coding_step(y, cache: GramCache, config: SolverConfig, start: AdmmState, tol=None) -> AdmmState:
    """Code the B columns of y against the cache's atoms by inner ADMM, in
    lockstep, continuing the state start under its fixed weights start.w.

    The cache is a dictionary's (precompute_gram), or a working set's
    (GramCache.restrict): n is the number of its atoms, and a, z and u2 hold
    their coefficients only. With T = cache.columns, each inner iteration
    forms two dictionary products over the columns still iterating, T' V in
    a_update and T A in dual_update; the state carries the residual of the
    latter, res == y - T @ a, into the next e_update and out to the caller.
    A column leaves the loop when it converges: its column of every field,
    with the count, flag and residuals that each test stores on the state,
    is copied into the returned state, and AdmmState.take keeps the others,
    so no product is formed for it afterwards.

    a_update and dual_update read e and z relaxed by the factor alpha (RELAX
    on the plain path, 1 on the low-rank path); the state keeps the real e
    and z, and the residuals are measured on the iterates it returns, each
    column's by its own vector norm.

    Both products run in the dtype of the cache's columns and return
    float64; every other quantity is float64. With float32 columns the
    reachable fit and split residuals bottom out near 1e-6 (see
    SolverConfig).

    Args:
        y: (d, B) observations, one probe per column.
        cache: GramCache at config.gram_ratio; its columns and geometry are
            those the step codes on.
        start: the AdmmState the step continues (the state solve_batch
            carries): a (n, B), u1 (d, B), u2 (n, B), the pixel weights w
            (d, B) and res = y - cache.columns @ a (d, B). Its e and z are
            not read, and may be None; start is not written.
        tol: one fit tolerance for every column, or (B,) of them, one per
            column; defaults to config.eps1.

    Returns:
        The final AdmmState with every column in its place; column j has
        converged when ||res_j - e_j|| <= tol_j and, unless the l2 kind
        dropped the split, ||a_j - z_j|| <= eps2. Its res is
        y - cache.columns @ a for the returned a, and its w is start.w (or a
        copy).

    Raises:
        ConfigError: the cache was built at another ratio than
            config.gram_ratio.
    """
    d, n = cache.columns.shape
    expected = config.gram_ratio
    if abs(cache.ratio - expected) > 1e-12 * max(1.0, expected):
        raise ConfigError(f"gram cache ratio {cache.ratio} does not match the configuration's {expected}")
    # Fortran order throughout: every column (probe) is contiguous, for svt,
    # the column norms and the compaction below.
    y = np.asfortranarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] != d:
        raise GeometryError(f"y must be a (d={d}, B) array")
    m = y.shape[1]
    # Every iteration replaces a, u1, u2 and res with new arrays and never
    # writes w, so the starting ones are read, never written, and need no copy.
    read = {}
    for name, rows in (("a", n), ("res", d), ("u1", d), ("u2", n), ("w", d)):
        read[name] = np.asfortranarray(getattr(start, name), dtype=float)
        if read[name].shape != (rows, m):
            raise GeometryError(f"start.{name} must have shape ({rows}, B={m})")
    # Per-column scalars are Python floats: the one-probe case is the hot
    # path, and a list is cheaper than an array there.
    tol = np.asarray(config.eps1 if tol is None else tol, dtype=float)
    if tol.ndim > 1 or tol.size not in (1, m):
        raise GeometryError(f"tol must be one value or B={m} values")
    tol = tol.ravel().tolist() * (m if tol.size == 1 else 1)
    drop_split = config.regularizer == "l2"
    state = AdmmState(z=None, e=None, **read)
    live = np.arange(m)  # the column of y that each working column codes
    out = None  # the returned state, filled in as columns leave
    alpha = 1.0 if config.low_rank else RELAX
    for s in range(1, config.s_max + 1):
        e = e_update(state, cache, config)
        z = None if drop_split else z_update(state, config)
        state.e, state.z = e, z
        if alpha != 1.0:  # at 1 the relaxed combination is e and z themselves
            state.e = alpha * e + (1.0 - alpha) * state.res
            if not drop_split:
                state.z = alpha * z + (1.0 - alpha) * state.a
        state.a = a_update(state, y, cache, config)
        state.u1, state.u2, state.res = dual_update(state, y, cache, config.rho1, config.rho2)
        state.e, state.z = e, z
        fit = _column_norms(state.res - e)
        split = [0.0] * len(fit) if drop_split else _column_norms(state.a - z)
        done = [f <= t and g <= config.eps2 for f, g, t in zip(fit, split, tol)]
        last = s == config.s_max or all(done)
        if not (last or any(done)):
            continue
        state.iterations, state.converged = np.full(len(done), s), np.array(done)
        state.fit_residual, state.split_residual = np.array(fit), np.array(split)
        if out is None and last:  # every column leaves at once, in its place
            return state
        if out is None:
            out = AdmmState(**{k: None if v is None else np.empty(v.shape[:-1] + (m,), v.dtype, order="F")
                               for k, v in vars(state).items()})
        leave = slice(None) if last else state.converged
        for k, v in vars(state).items():
            if v is not None:
                getattr(out, k)[..., live[leave]] = v[..., leave]
        if last:
            return out
        keep = ~state.converged
        live, y, tol = live[keep], y[:, keep], [t for t, kept in zip(tol, keep) if kept]
        # The next iteration reads the rest; it computes e and z afresh.
        state = replace(state, e=None, z=None).take(keep)


def _column_norms(M: np.ndarray) -> list:
    """The 2-norm of each column of the Fortran-ordered M, taken as
    np.linalg.norm takes it of that column alone, sqrt(v.dot(v)); a norm
    along an axis can round differently."""
    return [math.sqrt(v.dot(v)) for v in M.T]


@dataclass
class SolveResult:
    """Final iterates plus per-iteration accounting for one solve; stop is
    "converged" or the cap that ended it, "t_max" or "s_max". wall_seconds
    charges the probe, for each outer step it took part in, that step's wall
    time over the number of probes in it, so a batch's wall_seconds sum to
    its wall time. working_set_sizes holds, per outer step, the number of
    atoms that step coded: n for a step on every atom, fewer for a step on a
    working set (SolverConfig.working_set); a is exactly 0 outside the last
    step's set."""

    a: np.ndarray
    e: np.ndarray
    w: WeightVector
    outer_iterations: int
    inner_iterations: list
    inner_converged: list
    stop: str
    wall_seconds: float
    working_set_sizes: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @property
    def total_inner_iterations(self) -> int:
        return int(sum(self.inner_iterations))


@dataclass
class _Columns:
    """The probes solve_batch is coding, one column (or entry) each: probe is
    the index in ys of each column and y its (d, B) observations. state holds
    their iterates over every atom: the flat start (a = 1/n, res = y - T a,
    zero duals and z, no e or w), then the AdmmState each outer step
    returned, with a, z and u2 0 outside a probe's working set. Before each
    step, solve_batch puts the step's weights into state.w, so the state is
    the step's start. inside marks each probe's working set and entries
    counts how often each atom has entered it as a violator, and score and
    violator the KKT check (_kkt_check) that it carries into its next set
    update (None before the first and off working sets), all (n, B). tol
    holds each probe's fit tolerance. All (d, B) and (n, B) arrays are
    Fortran-ordered, as coding_step keeps them; tol is a list of floats,
    which costs less than an array in the one-probe case."""

    probe: np.ndarray
    y: np.ndarray
    state: AdmmState
    inside: np.ndarray
    entries: np.ndarray
    score: Optional[np.ndarray]
    violator: Optional[np.ndarray]
    tol: list

    def take(self, keep: np.ndarray) -> "_Columns":
        """The columns that the boolean mask keep selects, in every field."""
        return _Columns(**{
            k: v.take(keep) if isinstance(v, AdmmState) else v[..., keep] if isinstance(v, np.ndarray)
            else None if v is None else [x for x, kept in zip(v, keep) if kept]
            for k, v in vars(self).items()
        })


def _kkt_check(w: np.ndarray, res: np.ndarray, cache: GramCache, config: SolverConfig):
    """The KKT check of a batch's coefficients a under the weights w, from
    their residuals res = y - T a, T = cache.columns, both (d, B): one full
    product g = T'(W r) over the batch, with the entries of W r below
    SUBNORMAL_FLUSH zeroed first. Returns (score, violator), both (n, B):
    score is 2 g (nonneg) or |2 g| - lambda_reg (l1), and an atom violates
    when its score exceeds KKT_TOL * max |2 g| (see KKT_TOL)."""
    V = w * res
    V[np.abs(V) < SUBNORMAL_FLUSH] = 0.0
    H = 2.0 * _product(cache.columns.T, V)
    score = H if config.regularizer == "nonneg" else np.abs(H) - config.lambda_reg
    return score, score > KKT_TOL * np.abs(H).max(axis=0)


def _gather_cap(cache: GramCache) -> int:
    """The most atoms a working set of the cache's columns holds (see
    GATHER_MAX_BYTES)."""
    return max(1, GATHER_MAX_BYTES // (cache.columns.shape[0] * cache.columns.itemsize))


def _update_working_sets(cols: _Columns, cap: int):
    """Grow and shrink every probe's working set (cols.inside) from the KKT
    check it carries (cols.score and cols.violator).

    A probe's next set keeps the atoms of its set with z != 0, those that
    violate, and those that have entered STICKY_ENTRIES times, and adds at
    most max(GROW_MIN, |supp z|) violators from outside it, the largest
    first, as far as the gather cap of cap atoms (_gather_cap) leaves room.
    The cap keeps a reserve of min(GROW_MIN, the violators outside) slots
    for them: kept atoms beyond the cap less that reserve are truncated,
    keeping the atoms of supp z first, then the sticky atoms, then the
    others by score.
    Neither the support nor the reserve is ever truncated, so a set passes
    the cap only to hold them, and a solution whose support needs more atoms
    than the cap can still be reached. A set that would be empty stays as it
    is.
    The first update reads the check of the flat start a = 1/n with every
    atom flagged: no atom is at zero there, so the KKT test of an atom at
    zero does not hold for it (it may find no violator). With every atom
    inside, z = 0 and no entries, it keeps the cap's worth of highest score.
    It writes only cols.inside and cols.entries, in place; the iterates in
    cols.state are read, not written, since the next step
    (_working_set_steps) reads them only at the new set's rows, where the
    atoms that entered hold 0, and leaves its own state 0 outside the set.
    """
    score, violator = cols.score, cols.violator
    for k in range(cols.probe.size):
        inside, support = cols.inside[:, k], cols.state.z[:, k] != 0.0
        sticky = cols.entries[:, k] >= STICKY_ENTRIES
        candidates = np.flatnonzero(violator[:, k] & ~inside)
        new = inside & (support | violator[:, k] | sticky)
        reserve = min(candidates.size, GROW_MIN)
        budget = max(cap - reserve, int(np.count_nonzero(support)))
        kept = np.flatnonzero(new)
        if kept.size > budget:
            order = np.lexsort((-score[kept, k], ~sticky[kept], ~support[kept]))
            new[kept[order[budget:]]] = False
        grow = max(reserve, min(max(GROW_MIN, int(np.count_nonzero(support))), cap - int(np.count_nonzero(new))))
        chosen = candidates[np.argsort(-score[candidates, k], kind="stable")[:grow]]
        if not new.any() and not chosen.size:
            new = inside.copy()
        new[chosen] = True
        cols.entries[chosen, k] += 1
        cols.inside[:, k] = new


def _working_set_steps(cols: _Columns, cache: GramCache, config: SolverConfig, cap: int):
    """One working-set outer step of every probe in cols under the weights
    its state holds (cols.state.w): update each set from the check its probe
    carries (_update_working_sets; the first step, whose columns carry no
    check yet, checks the flat start, every atom flagged), code each probe
    alone on its set, and check the new coefficients into cols.score and
    cols.violator (_kkt_check). A set's columns are gathered and its system
    formed (GramCache.restrict) just before its step, so one gathered copy
    is alive at a time; the step starts from the probe's a and u2 at the
    set's rows, its u1 and w, and res = y - T_S a_S. Returns a new AdmmState
    of all of them, with a, z and u2 over every atom, built with zeros
    outside each new set."""
    state = cols.state
    if cols.score is None:
        cols.score, cols.violator = _kkt_check(state.w, state.res, cache, config)[0], np.ones_like(cols.inside)
    _update_working_sets(cols, cap)
    (d, n), m = cache.columns.shape, cols.probe.size
    out = AdmmState(
        a=np.zeros((n, m), order="F"), z=np.zeros((n, m), order="F"), e=np.empty((d, m), order="F"),
        u1=np.empty((d, m), order="F"), u2=np.zeros((n, m), order="F"), w=state.w, res=np.empty((d, m), order="F"),
        iterations=np.empty(m, int), converged=np.empty(m, bool), fit_residual=np.empty(m),
        split_residual=np.empty(m),
    )
    for k in range(m):
        ks, rows = slice(k, k + 1), np.flatnonzero(cols.inside[:, k])
        sub, y, a = cache.restrict(rows), cols.y[:, ks], state.a[rows, ks]
        start = AdmmState(a=a, z=None, e=None, u1=state.u1[:, ks], u2=state.u2[rows, ks], w=state.w[:, ks],
                          res=y - _product(sub.columns, a))
        step = coding_step(y, sub, config, start, tol=cols.tol[k])
        for name in ("a", "z", "u2"):
            getattr(out, name)[rows, ks] = getattr(step, name)
        for name in ("e", "u1", "res"):
            getattr(out, name)[:, ks] = getattr(step, name)
        for name in ("iterations", "converged", "fit_residual", "split_residual"):
            getattr(out, name)[ks] = getattr(step, name)
    cols.score, cols.violator = _kkt_check(state.w, out.res, cache, config)
    return out


def solve_batch(
    ys,
    T: Dictionary,
    config: SolverConfig,
    cache: Optional[GramCache] = None,
) -> list:
    """Full reweighted solves of several observations against one dictionary,
    coded in lockstep as the columns of (d, B) arrays.

    Each probe alternates weight updates (from the residual of its current
    coefficients) with inner ADMM coding steps until the relative change of
    its weight vector drops below eps3 or t_max outer iterations have run;
    constant weights never change, so their solve stops after one coding step
    and has converged when that step has (it stops at s_max otherwise).
    The batch's iterates are one AdmmState: the flat start, then the state
    each outer step returns. Each outer step measures the weight change
    against the weights its state holds, puts the new weights into it
    (state.w) and hands it to the coding step as its start, so the
    coefficients, scaled duals (u1, u2) and residual of one step warm-start
    the next.
    A probe's first two steps run to eps1, every later one to
    min(eps1, INNER_TOL_RATIO * the weight change that last failed eps3),
    which lies in [INNER_TOL_RATIO * eps3, eps1]. T a is formed once for the
    flat start, which every probe shares; every later weight residual reuses
    the residual y - T a that the coding step carries. A probe leaves the
    batch when its solve stops (AdmmState.take drops its column), and each
    one that stops at a cap logs one warning naming it.

    A solve codes on working sets when SolverConfig.working_set holds and
    T's columns outgrow the gather cap (GATHER_MAX_BYTES); every other solve
    codes every atom, all its probes in one coding step per outer step. On
    working sets, an outer step (_working_set_steps) updates each probe's set
    from the KKT check it carries, the first from the flat start's
    (_update_working_sets), codes each probe alone on the cache restricted to
    its set (GramCache.restrict), and checks the new coefficients with one
    full product over the batch (_kkt_check). Such a solve has converged only
    when eps3 holds and no atom outside its working set violates. A set
    outgrows the cap only to hold its support of z and room for violators,
    and the cache never forms its n x n inverse.

    A NumericError ends only its own probe's solve: a residual that is not
    finite fails its probe at the weight update. A coding step that raises
    does not say which column did, so each probe in it is solved again on
    its own.

    The products of a batch are matrix-matrix products, which round each
    column differently from the matrix-vector products of a one-probe batch:
    a probe's iterates can differ in the last bits with the batch it is in.

    Args:
        ys: observations, typically unit l2: FaceVectors of T.geometry (one
            of another geometry raises GeometryError, even at the same d,
            since the low-rank step reads each probe's grid), or length-d
            arrays, which are read on T's grid.
        T: Dictionary of training faces.
        cache: optional GramCache of T from precompute_gram, built here when
            absent; one of other columns than T.columns (the same array) or
            another geometry raises ConfigError, once, before any step.

    Returns:
        One outcome per observation, in order: a SolveResult with final a, e,
        w and the iteration bookkeeping, or the NumericError that ended that
        probe's solve.
    """
    clock = time.perf_counter()
    d, n = T.columns.shape
    m = len(ys)
    Y = np.empty((d, m), order="F")
    for j, y in enumerate(ys):
        geometry = getattr(y, "geometry", T.geometry)
        if geometry != T.geometry:
            raise GeometryError(f"observation geometry {geometry.rows}x{geometry.cols} does not match "
                                f"dictionary {T.geometry.rows}x{T.geometry.cols}")
        values = np.asarray(getattr(y, "values", y), dtype=float).ravel()
        if values.size != d:
            raise GeometryError(f"observation length {values.size} does not match dictionary d={d}")
        Y[:, j] = values
    if cache is None:
        cache = precompute_gram(T, config.gram_ratio)
    elif cache.columns is not T.columns or cache.geometry != T.geometry:
        raise ConfigError("gram cache was built for another dictionary's columns or geometry")
    cap = _gather_cap(cache)
    working = config.working_set and cap < n
    a0 = np.full((n, 1), 1.0 / n)
    start = AdmmState(
        a=np.asfortranarray(np.repeat(a0, m, axis=1)), z=np.zeros((n, m), order="F"), e=None,
        u1=np.zeros((d, m), order="F"), u2=np.zeros((n, m), order="F"), w=None, res=Y - _product(T.columns, a0),
    )
    cols = _Columns(
        probe=np.arange(m), y=Y, state=start,
        inside=np.ones((n, m), bool, order="F"), entries=np.zeros((n, m), np.int8, order="F"),
        score=None, violator=None, tol=[config.eps1] * m,
    )
    outcomes = [None] * m
    inner = [[] for _ in ys]
    inner_converged = [[] for _ in ys]
    sizes = [[] for _ in ys]
    seconds = [0.0] * m
    t = 0
    while cols.probe.size:
        W = np.empty_like(cols.y)
        failed = []
        for k, r in enumerate(cols.state.res.T):
            try:
                W[:, k] = weight_update(r, config.weights).values
            except NumericError as exc:
                outcomes[cols.probe[k]] = exc
                failed.append(k)
        if failed:
            keep = np.ones(cols.probe.size, bool)
            keep[failed] = False
            cols, W = cols.take(keep), W[:, keep]
            if not cols.probe.size:
                break
        t += 1
        change = [math.nan] * cols.probe.size if t == 1 else [
            a / b for a, b in zip(_column_norms(W - cols.state.w), _column_norms(cols.state.w))]
        cols.state = replace(cols.state, w=W)
        try:
            if working:
                step = _working_set_steps(cols, cache, config, cap)
            else:
                step = coding_step(cols.y, cache, config, cols.state, tol=cols.tol)
        except NumericError as exc:
            # Which column raised is not known: each probe is solved again alone.
            for j in cols.probe:
                outcomes[j] = exc if cols.probe.size == 1 else solve_batch([ys[j]], T, config, cache)[0]
            break
        cols.state = step
        probes, converged = cols.probe.tolist(), step.converged.tolist()
        for j, its, ok, size in zip(probes, step.iterations.tolist(), converged, cols.inside.sum(axis=0).tolist()):
            inner[j].append(its)
            inner_converged[j].append(ok)
            sizes[j].append(size)
        violated = (cols.violator & ~cols.inside).any(axis=0).tolist() if working else [False] * len(probes)
        if config.weights.kind == "constant":
            stops = ["converged" if ok else "s_max" for ok in converged]
        elif t == 1:
            stops = ["t_max" if t == config.t_max else ""] * len(probes)
        else:
            stops = ["converged" if c < config.eps3 and not v else "t_max" if t == config.t_max else ""
                     for c, v in zip(change, violated)]
            cols.tol = [tol if c < config.eps3 else min(config.eps1, INNER_TOL_RATIO * c)
                        for tol, c in zip(cols.tol, change)]
        now = time.perf_counter()
        for j in probes:
            seconds[j] += (now - clock) / len(probes)
        clock = now
        for k, (j, stop) in enumerate(zip(probes, stops)):
            if not stop:
                continue
            if stop == "t_max":
                detail = f"outer iterations; last relative weight change {change[k]:.3g} (eps3 {config.eps3:g})"
                if violated[k]:
                    detail += "; an atom outside the working set still violates its KKT test"
                log.warning("solve stopped at %s=%d %s", stop, config.t_max, detail)
            elif stop == "s_max":  # the one coding step of a constant-weight solve
                detail = (f"inner iterations; last fit {step.fit_residual[k]:.3g} (tol {cols.tol[k]:g}), "
                          f"split {step.split_residual[k]:.3g} (eps2 {config.eps2:g}), "
                          f"{T.columns.dtype} dictionary")
                log.warning("solve stopped at %s=%d %s", stop, config.s_max, detail)
            outcomes[j] = SolveResult(
                a=step.a[:, k].copy(), e=step.e[:, k].copy(), w=WeightVector(W[:, k].copy()),
                outer_iterations=t, inner_iterations=inner[j], inner_converged=inner_converged[j],
                stop=stop, wall_seconds=seconds[j], working_set_sizes=sizes[j],
            )
        if any(stops):
            cols = cols.take(np.array([not stop for stop in stops]))
    return outcomes


def solve(
    y,
    T: Dictionary,
    config: SolverConfig,
    cache: Optional[GramCache] = None,
) -> SolveResult:
    """Full reweighted solve of one observation: the one-probe batch of
    solve_batch, whose products are matrix-vector products. Raises the
    NumericError that ended the solve."""
    outcome = solve_batch([y], T, config, cache)[0]
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome


def method_config(name: str, gamma: Optional[float] = None, **overrides) -> SolverConfig:
    """SolverConfig for a published method name.

    Args:
        name: one of METHODS.
        gamma: saturation fraction for the logistic weight schedule (ignored
            by the constant-weight baselines); defaults to the WeightFunction
            default.
        overrides: any SolverConfig field. lambda_star is zeroed after them
            on the presets without the low-rank flag (the lambda_star = 0
            case), so an override of it only reaches the low-rank presets.
    """
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}; choose from {sorted(METHODS)}")
    kind, low_rank, scheme = METHODS[name]
    if scheme == "constant":
        wf = WeightFunction.constant_one()
    elif gamma is None:
        wf = WeightFunction.logistic()
    else:
        wf = WeightFunction.logistic(gamma=gamma)
    config = SolverConfig(regularizer=kind, weights=wf)
    if overrides:
        config = replace(config, **overrides)
    if not low_rank:
        config = replace(config, lambda_star=0.0)
    return config

