"""Correctness checks on every identification, recomputed with plain numpy.

Each check returns a list of failure messages (empty when the output holds).
They judge the program's output against independent recomputation or
properties of the method, never against stored copies of earlier output.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.optimize import nnls

# Relative slack for comparing recomputed norms with the program's own.
ROUNDOFF = 1e-9


def class_residuals(y, columns, labels, a, w) -> np.ndarray:
    """||sqrt(w) (y - T_i a_i)|| per class, T_i the columns labelled i."""
    sw = np.sqrt(w)
    return np.array(
        [
            np.linalg.norm(sw * (y - columns[:, labels == i] @ a[labels == i]))
            for i in range(int(labels.max()) + 1)
        ]
    )


def check_probe(y, columns, labels, a, e, w, predicted, last_step_converged, config) -> list:
    """Check one solve + identify outcome.

    Args:
        y: the normalized probe; columns, labels: the dictionary.
        a, e, w: final coefficients, error vector and weights of the solve.
        predicted: dense class id the program chose.
        last_step_converged: whether the final coding step met its tolerances.
        config: the SolverConfig the solve ran with (eps1, eps2, regularizer).
    """
    failures = []
    if not np.isfinite(w).all() or (w <= 0.0).any() or (w > 1.0).any():
        failures.append("weights not finite and in (0, 1]")
        return failures
    residuals = class_residuals(y, columns, labels, a, w)
    if residuals[predicted] > residuals.min() * (1.0 + ROUNDOFF):
        failures.append(
            f"predicted class {predicted} has residual {residuals[predicted]:.12g}, "
            f"class {int(np.argmin(residuals))} has {residuals.min():.12g}"
        )
    if last_step_converged:
        fit = float(np.linalg.norm(y - columns @ a - e))
        if fit > config.eps1 * (1.0 + ROUNDOFF):
            failures.append(f"converged coding step leaves ||y - Ta - e|| = {fit:.6g} > eps1")
        if config.regularizer == "nonneg" and a.min() < -config.eps2:
            failures.append(f"converged nonnegative code has min(a) = {a.min():.6g} < -eps2")
    return failures


def check_accuracy(accuracy: float, floor: float) -> list:
    if accuracy < floor:
        return [f"accuracy {accuracy:.4f} below the floor {floor}"]
    return []


def nnls_class(y, columns, labels, w) -> int:
    """Class chosen by an independent weighted NNLS at the weights w.

    Solves min ||sqrt(w)(y - T a)|| over a >= 0 with scipy's NNLS on the
    reduced system R a ~ c, where R'R = T'WT and R'c = T'Wy; it has the same
    minimizer as the d-row problem at about a tenth of the cost at paper scale.
    """
    sw = np.sqrt(w)
    A = sw[:, None] * columns
    b = sw * y
    try:
        R = cholesky(A.T @ A, lower=False)
        a, _ = nnls(R, solve_triangular(R, A.T @ b, trans="T"), maxiter=50 * columns.shape[1])
    except LinAlgError:
        a, _ = nnls(A, b, maxiter=50 * columns.shape[1])
    return int(np.argmin(class_residuals(y, columns, labels, a, w)))


# Share of probes on which the NNLS oracle must pick the program's class. ADMM
# stops at eps1/eps2, not at the exact minimizer, so a near tie may go the
# other way; at the small shape the oracle agreed on 194 of 200 probes.
ORACLE_AGREEMENT = 0.85


def check_oracle_agreement(agree: int, total: int) -> list:
    if agree < ORACLE_AGREEMENT * total:
        return [f"NNLS oracle agrees on {agree} of {total} probes, below {ORACLE_AGREEMENT:.0%}"]
    return []
