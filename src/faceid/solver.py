"""Reweighted ADMM solver for robust face coding.

One engine covers the whole method family: the outer loop re-estimates pixel
weights from the current residual, the inner ADMM codes the face against the
dictionary under those weights with an optional low-rank treatment of the
residual grid and a choice of coefficient regularizer (nonnegativity, l1, or
ridge). Method presets select the combinations by name.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import ConfigError, GeometryError, NumericError
from .model import Dictionary
from .prox import project_nonneg, shrink_weighted, soft_threshold, svt
from .weights import WeightFunction, WeightVector, weight_update

REGULARIZERS = ("nonneg", "l1", "l2")

log = logging.getLogger(__name__)

# From the third outer step on, solve runs the coding step to the fit
# tolerance min(eps1, INNER_TOL_RATIO * the last relative weight change), so
# the inner accuracy follows the outer progress instead of staying at eps1.
INNER_TOL_RATIO = 0.03

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
    INNER_TOL_RATIO).

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
    def gram_ratio(self) -> float:
        """Diagonal shift of the cached Gram system for this configuration."""
        if self.regularizer == "l2":
            return 2.0 * self.lambda_reg / self.rho1
        return self.rho2 / self.rho1


@dataclass
class GramCache:
    """Cholesky factorization of T'T + ratio * I, reused across iterations."""

    ratio: float
    n: int
    _factor: tuple

    def apply(self, b: np.ndarray) -> np.ndarray:
        """Solve (T'T + ratio I) x = b from the cached factorization."""
        return cho_solve(self._factor, b, check_finite=False)


def precompute_gram(T: Dictionary, ratio: float) -> GramCache:
    """Factor T'T + ratio * I once so every coefficient update is a pair of
    triangular solves instead of a fresh inversion."""
    A = T.columns
    if ratio <= 0.0:
        raise ConfigError(f"gram ratio must be positive, got {ratio}")
    gram = A.T @ A + ratio * np.eye(A.shape[1])
    try:
        factor = cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"gram matrix ({A.shape[1]}x{A.shape[1]}) is not positive definite") from exc
    return GramCache(ratio=float(ratio), n=A.shape[1], _factor=factor)


@dataclass
class AdmmState:
    """Inner-loop state; z is None when the l2 kind drops the split.

    Ta carries the product T.columns @ a for the current a, so that each
    product is formed once: dual_update forms it, e_update and the outer
    weight residual read it. coding_step keeps Ta == T.columns @ a at every
    e_update; a state that only meets z_update and a_update may leave it None.

    coding_step returns its final state: the iteration count, whether it
    converged, and the last fit ||y - Ta - e|| and split ||a - z|| residuals
    (split stays 0.0 on the l2 path).
    """

    a: np.ndarray
    z: Optional[np.ndarray]
    e: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    w: np.ndarray
    Ta: Optional[np.ndarray] = None
    iterations: int = 0
    converged: bool = False
    fit_residual: float = float("inf")
    split_residual: float = float("inf")


def e_update(state: AdmmState, y, T: Dictionary, config: SolverConfig) -> np.ndarray:
    """Residual-variable update: weighted shrink, then SVT on the grid when
    lambda_star > 0. Reads the carried product state.Ta; forms none."""
    r = y - state.Ta + state.u1 / config.rho1
    e = shrink_weighted(r, state.w, config.rho1)
    if config.lambda_star > 0.0:
        E = svt(e.reshape(T.geometry.shape, order="F"), config.lambda_star / config.rho1)
        e = E.reshape(-1, order="F")
    return e


def z_update(state: AdmmState, config: SolverConfig) -> np.ndarray:
    """Split-variable update: nonneg projection or soft threshold of a + u2/rho2."""
    v = state.a + state.u2 / config.rho2
    if config.regularizer == "nonneg":
        return project_nonneg(v)
    if config.regularizer == "l1":
        return soft_threshold(v, config.lambda_reg / config.rho2)
    raise ConfigError("the l2 kind has no split variable z")


def a_update(state: AdmmState, y, T: Dictionary, cache: GramCache, config: SolverConfig) -> np.ndarray:
    """Coefficient update through the cached Gram factorization, which must
    match T and config.gram_ratio (coding_step checks)."""
    rhs = T.columns.T @ (y - state.e + state.u1 / config.rho1)
    if config.regularizer != "l2":
        rhs = rhs + (config.rho2 / config.rho1) * state.z - state.u2 / config.rho1
    return cache.apply(rhs)


def dual_update(state: AdmmState, y, T: Dictionary, rho1: float, rho2: float):
    """Scaled dual ascent on both constraints; u2 is untouched on the l2 path.

    Returns (u1, u2, Ta): the product Ta = T.columns @ state.a is formed here
    once and handed back for the next e_update and the outer residual.
    """
    Ta = T.columns @ state.a
    u1 = state.u1 + rho1 * (y - Ta - state.e)
    if state.z is None:
        u2 = state.u2
    else:
        u2 = state.u2 + rho2 * (state.a - state.z)
    return u1, u2, Ta


def coding_step(
    y,
    T: Dictionary,
    w,
    cache: GramCache,
    config: SolverConfig,
    a0,
    Ta0,
    duals=None,
    tol: Optional[float] = None,
) -> AdmmState:
    """Code y against T under fixed weights w by inner ADMM.

    Each inner iteration forms two dictionary products, T' v in a_update and
    T a in dual_update; the state carries the latter, Ta == T.columns @ a,
    into the next e_update and out to the caller.

    Args:
        y: observation array of length d.
        w: pixel weight array of length d.
        cache: Gram factorization matching config.gram_ratio.
        a0: starting coefficients of length n.
        Ta0: the product T.columns @ a0, of length d; the caller forms it
            (solve carries it from the previous step).
        duals: optional (u1, u2) warm start of lengths d and n; both default
            to zero.
        tol: fit tolerance; defaults to config.eps1.

    Returns:
        The final AdmmState; convergence means ||y - Ta - e|| <= tol and,
        unless the l2 kind dropped the split, ||a - z|| <= eps2. Its Ta is
        T.columns @ a for the returned a.

    Raises:
        ConfigError: the cache does not match T and config.gram_ratio.
    """
    d, n = T.columns.shape
    expected = config.gram_ratio
    if cache.n != n or abs(cache.ratio - expected) > 1e-12 * max(1.0, expected):
        raise ConfigError(
            f"gram cache (n={cache.n}, ratio={cache.ratio}) does not match the "
            f"configuration (n={n}, ratio={expected})"
        )
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if y.size != d or w.size != d:
        raise GeometryError(f"y and w must have length d={d}")
    a = np.array(a0, dtype=float).ravel()
    if a.size != n:
        raise GeometryError(f"a0 must have length n={n}")
    Ta = np.asarray(Ta0, dtype=float).ravel()
    if Ta.size != d:
        raise GeometryError(f"Ta0 must have length d={d}")
    tol = config.eps1 if tol is None else tol
    drop_split = config.regularizer == "l2"
    state = AdmmState(
        a=a,
        z=None if drop_split else np.zeros(n),
        e=np.zeros(d),
        u1=np.zeros(d),
        u2=np.zeros(n),
        w=w,
        Ta=Ta,
    )
    if duals is not None:
        state.u1 = np.array(duals[0], dtype=float).ravel()
        state.u2 = np.array(duals[1], dtype=float).ravel()
        if state.u1.size != d or state.u2.size != n:
            raise GeometryError(f"duals must have lengths d={d} and n={n}")
    for s in range(1, config.s_max + 1):
        state.e = e_update(state, y, T, config)
        if not drop_split:
            state.z = z_update(state, config)
        state.a = a_update(state, y, T, cache, config)
        u1, u2, state.Ta = dual_update(state, y, T, config.rho1, config.rho2)
        # The dual increments are rho * (primal residuals); reuse them.
        fit = float(np.linalg.norm(u1 - state.u1)) / config.rho1
        split = 0.0 if drop_split else float(np.linalg.norm(u2 - state.u2)) / config.rho2
        state.u1, state.u2 = u1, u2
        state.iterations, state.fit_residual, state.split_residual = s, fit, split
        if fit <= tol and (drop_split or split <= config.eps2):
            state.converged = True
            break
    return state


@dataclass
class SolveResult:
    """Final iterates plus per-iteration accounting for one solve."""

    a: np.ndarray
    e: np.ndarray
    w: WeightVector
    outer_iterations: int
    inner_iterations: list
    inner_converged: list
    converged: bool
    wall_seconds: float

    @property
    def total_inner_iterations(self) -> int:
        return int(sum(self.inner_iterations))


def solve(
    y,
    T: Dictionary,
    config: SolverConfig,
    cache: Optional[GramCache] = None,
) -> SolveResult:
    """Full reweighted solve of one observation against a dictionary.

    Alternates weight updates (from the residual of the current coefficients)
    with inner ADMM coding steps until the relative change of the weight
    vector drops below eps3 or t_max outer iterations have run; constant
    weights never change, so their solve stops after one coding step.
    Coefficients and the scaled duals (u1, u2) warm-start each coding step.
    The first two steps run to eps1, every later one to
    min(eps1, INNER_TOL_RATIO * the weight change that last failed eps3),
    which lies in [INNER_TOL_RATIO * eps3, eps1]. T a is formed once for the
    flat start; every later weight residual reuses the product the coding
    step carries. A solve that stops at t_max logs a warning.

    Args:
        y: observation (FaceVector or length-d array), typically unit l2.
        T: Dictionary of training faces.
        cache: optional precomputed Gram factorization; built here when absent.

    Returns:
        SolveResult with final a, e, w and the iteration bookkeeping.
    """
    t0 = time.perf_counter()
    d, n = T.columns.shape
    yv = np.asarray(getattr(y, "values", y), dtype=float).ravel()
    if yv.size != d:
        raise GeometryError(f"observation length {yv.size} does not match dictionary d={d}")
    if cache is None:
        cache = precompute_gram(T, config.gram_ratio)
    a = np.full(n, 1.0 / n)
    Ta = T.columns @ a
    prev_w = None
    duals = None
    tol = config.eps1
    change = float("nan")
    inner_iterations = []
    inner_converged = []
    converged = False
    for t in range(1, config.t_max + 1):
        wv = weight_update(yv - Ta, config.weights)
        w = wv.values
        step = coding_step(yv, T, w, cache, config, a0=a, Ta0=Ta, duals=duals, tol=tol)
        a, Ta, duals = step.a, step.Ta, (step.u1, step.u2)
        inner_iterations.append(step.iterations)
        inner_converged.append(step.converged)
        if config.weights.kind == "constant":
            converged = True
            break
        if prev_w is not None:
            change = float(np.linalg.norm(w - prev_w) / np.linalg.norm(prev_w))
            if change < config.eps3:
                converged = True
                break
            tol = min(config.eps1, INNER_TOL_RATIO * change)
        prev_w = w
    else:
        log.warning(
            "solve stopped at t_max=%d outer iterations; last relative weight change %.3g (eps3 %g)",
            config.t_max, change, config.eps3,
        )
    return SolveResult(
        a=a,
        e=step.e,
        w=wv,
        outer_iterations=t,
        inner_iterations=inner_iterations,
        inner_converged=inner_converged,
        converged=converged,
        wall_seconds=time.perf_counter() - t0,
    )


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

