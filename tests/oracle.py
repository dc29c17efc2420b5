"""Independent reference solvers and optimality certificates.

Everything here exists to cross-check the production solver in the tests and
deliberately shares no iteration machinery with it: the nonnegative coder is
plain projected gradient descent, prox claims are certified from optimality
conditions, and scalar proxes are brute-forced on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from faceid.errors import ConfigError


@dataclass(frozen=True)
class OracleReport:
    """Reference solution plus the certificate that backs it."""

    solution: Optional[np.ndarray]
    iterations: int
    gap: float
    converged: bool


def _matrix(T) -> np.ndarray:
    return np.asarray(getattr(T, "columns", T), dtype=float)


def nnls_kkt_residual(y, T, w, a, active_tol: float = 0.0) -> float:
    """Max KKT violation of a for min_{a >= 0} sum_i w_i (y - Ta)_i^2.

    Stationarity wants gradient zero on entries above active_tol and
    nonnegative elsewhere; the return value is the largest violation of
    either condition.
    """
    A = _matrix(T)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(getattr(w, "values", w), dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    g = -2.0 * (A.T @ (w * (y - A @ a)))
    free = a > active_tol
    worst = 0.0
    if free.any():
        worst = float(np.abs(g[free]).max())
    if (~free).any():
        worst = max(worst, float(np.maximum(-g[~free], 0.0).max()))
    return worst


def oracle_weighted_nnls(y, T, w, tol: float = 1e-6, max_iter: int = 1_000_000) -> OracleReport:
    """Weighted nonnegative least squares by projected gradient descent.

    Uses a diminishing step that settles at 1/L (L from the top eigenvalue of
    2 T'WT) and stops once the KKT residual certifies optimality to tol.

    Returns:
        OracleReport; gap is the final KKT residual and converged says it
        reached tol inside the budget.
    """
    A = _matrix(T)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(getattr(w, "values", w), dtype=float).ravel()
    if (w <= 0.0).any():
        raise ConfigError("weights must be strictly positive")
    lips = 2.0 * float(np.linalg.eigvalsh(A.T @ (w[:, None] * A))[-1])
    lips = max(lips, np.finfo(float).tiny)
    base = 1.0 / lips
    a = np.zeros(A.shape[1])
    done = 0
    for k in range(max_iter):
        g = -2.0 * (A.T @ (w * (y - A @ a)))
        step = max(1.8 * base / (1.0 + k / 50.0), base)
        a = np.maximum(a - step * g, 0.0)
        done = k + 1
        if k % 16 == 0:
            gap = nnls_kkt_residual(y, A, w, a)
            if gap <= tol:
                return OracleReport(solution=a, iterations=done, gap=gap, converged=True)
    gap = nnls_kkt_residual(y, A, w, a)
    return OracleReport(solution=a, iterations=done, gap=gap, converged=gap <= tol)


def oracle_prox_nuclear(M, tau: float, X, tol: float = 1e-8) -> bool:
    """Certify X = prox of tau * nuclear norm at M from the subdifferential.

    Optimality needs (M - X) / tau inside the nuclear-norm subdifferential at
    X: identity on the span of X's singular pairs, cross blocks zero, and
    spectral norm at most 1 on the complement. tau = 0 degenerates to X = M.
    """
    M = np.asarray(M, dtype=float)
    X = np.asarray(X, dtype=float)
    if M.shape != X.shape:
        return False
    scale = max(1.0, float(np.linalg.norm(M)))
    if tau < 0.0:
        raise ConfigError(f"tau must be nonnegative, got {tau}")
    if tau == 0.0:
        return bool(np.linalg.norm(X - M) <= tol * scale)
    G = (M - X) / tau
    u, s, vt = np.linalg.svd(X, full_matrices=True)
    rank_tol = max(1e-10, 1e-12 * (float(s[0]) if s.size else 0.0))
    r = int((s > rank_tol).sum())
    u1, u0 = u[:, :r], u[:, r:]
    v1, v0 = vt[:r].T, vt[r:].T
    if r > 0:
        if np.abs(u1.T @ G @ v1 - np.eye(r)).max() > tol:
            return False
        if u0.size and np.abs(u0.T @ G @ v1).max() > tol:
            return False
        if v0.size and np.abs(u1.T @ G @ v0).max() > tol:
            return False
    if u0.size and v0.size:
        spec = np.linalg.norm(u0.T @ G @ v0, ord=2)
        if spec > 1.0 + tol:
            return False
    return True


def _scalar_objective(z, v, tau, kind):
    base = 0.5 * (z - v) ** 2
    if kind == "l1":
        return base + tau * abs(z)
    if kind == "nonneg":
        return base if z >= 0.0 else float("inf")
    raise ConfigError(f"unknown scalar prox kind {kind!r}")


def oracle_scalar_prox_grid(v, tau: float, kind: str, span: float = 10.0) -> np.ndarray:
    """Brute-force scalar prox: coarse grid search plus ternary refinement.

    Solves argmin_z 0.5 (z - v)^2 + penalty per element, where the penalty is
    tau |z| for kind "l1" or the nonnegativity wall for kind "nonneg". The
    grid pitch is ~2e-3 and ternary search tightens each minimum far below
    1e-6, without ever using the closed forms under test.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.empty_like(v)
    grid = np.linspace(-span, span, 10001)
    if kind == "nonneg":
        grid = grid[grid >= 0.0]
    for i, vi in enumerate(v.ravel()):
        vals = 0.5 * (grid - vi) ** 2
        if kind == "l1":
            vals = vals + tau * np.abs(grid)
        best = int(np.argmin(vals))
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, grid.size - 1)]
        for _ in range(120):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if _scalar_objective(m1, vi, tau, kind) <= _scalar_objective(m2, vi, tau, kind):
                hi = m2
            else:
                lo = m1
        out.ravel()[i] = 0.5 * (lo + hi)
    return out
