"""Independent reference solvers and optimality certificates.

Everything here exists to cross-check the production solver in the tests and
deliberately shares no iteration machinery with it: the nonnegative coder is
plain projected gradient descent, prox claims are certified from optimality
conditions, and scalar proxes are brute-forced on a grid.

It also holds the objective the reweighted solver decreases, which the
package never evaluates: the penalty phi and the logistic weights with
(mu, eta) pinned, under which phi is fixed and the objective is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from faceid.errors import ConfigError, NumericError
from faceid.weights import WEIGHT_FLOOR, WeightVector

# Slack below zero that the nonneg indicator in objective_value still accepts.
FEAS_TOL = 1e-8


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


def oracle_svt(M, tau: float) -> np.ndarray:
    """Singular value thresholding by the SVD formula U max(S - tau, 0) V'."""
    u, s, vt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vt


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


def _check_pinned(mu, eta) -> bool:
    """Whether (mu, eta) pins logistic weights (True) or neither is given
    (False, the constant kind)."""
    if (mu is None) != (eta is None):
        raise ConfigError(f"mu and eta are pinned together, got ({mu}, {eta})")
    if mu is None:
        return False
    if mu <= 0.0 or eta < 0.0:
        raise ConfigError(f"need mu > 0 and eta >= 0, got ({mu}, {eta})")
    return True


def pinned_logistic_weights(residual, mu: float, eta: float) -> WeightVector:
    """Logistic weights expit(mu * (eta - x^2)) with (mu, eta) pinned,
    floored at WEIGHT_FLOOR: the package's weight_update without the
    re-estimation of (mu, eta) from each residual."""
    if not _check_pinned(mu, eta):
        raise ConfigError("pinned logistic weights need (mu, eta)")
    x = np.asarray(residual, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise NumericError("residual contains non-finite entries")
    return WeightVector(np.maximum(expit(mu * (eta - x * x)), WEIGHT_FLOOR))


def phi_value(x, mu: Optional[float] = None, eta: Optional[float] = None):
    """Penalty phi(x) = integral of s * w(s) over s in [0, |x|], elementwise.

    With (mu, eta) pinned, w is the logistic weight; with neither given, w = 1
    and phi(x) = x^2 / 2. For the logistic w, with a = mu * eta and
    d = mu * x^2, phi has the closed form (softplus(a) - softplus(a - d)) /
    (2 mu). For d < 1 the difference is taken as log1p(expit(a - d) *
    expm1(d)), which keeps full relative precision as x -> 0.

    Returns:
        a float for scalar x, else an array of x's shape.
    """
    x = np.asarray(x, dtype=float)
    if not _check_pinned(mu, eta):
        phi = 0.5 * x * x
    else:
        a = mu * eta
        d = mu * x * x
        # np.where evaluates both forms; the clamp keeps the unused one finite
        near = np.log1p(expit(a - d) * np.expm1(np.minimum(d, 1.0)))
        far = np.logaddexp(0.0, a) - np.logaddexp(0.0, a - d)
        phi = np.where(d < 1.0, near, far) / (2.0 * mu)
    return float(phi) if phi.ndim == 0 else phi


def objective_value(a, y, T, config, mu: Optional[float] = None, eta: Optional[float] = None) -> float:
    """Objective sum(phi(r_i)) + lambda_star ||grid(r)||_* + theta(a) at a.

    phi is taken at the pinned (mu, eta), or is x^2 / 2 when neither is given;
    config supplies lambda_star, the regularizer theta and lambda_reg (its
    weight function is not read). For the nonneg kind theta is an indicator:
    entries below -FEAS_TOL make the value infinite.
    """
    y = np.asarray(getattr(y, "values", y), dtype=float).ravel()
    a = np.asarray(a, dtype=float).ravel()
    r = y - T.columns @ a
    if not np.isfinite(r).all():
        raise NumericError("residual contains non-finite entries")
    total = float(phi_value(r, mu, eta).sum())
    if config.lambda_star > 0.0:
        sigma = np.linalg.svd(r.reshape(T.geometry.shape, order="F"), compute_uv=False)
        total += config.lambda_star * float(sigma.sum())
    if config.regularizer == "nonneg":
        if (a < -FEAS_TOL).any():
            return float("inf")
    elif config.regularizer == "l1":
        total += config.lambda_reg * float(np.abs(a).sum())
    else:
        total += config.lambda_reg * float(a @ a)
    return total
