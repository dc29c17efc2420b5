"""Proximal operators used by the coding step."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError


def svt(matrix, tau: float) -> np.ndarray:
    """Singular value thresholding: U max(S - tau, 0) V'.

    The proximal operator of tau * nuclear norm; tau = 0 reproduces the input
    up to SVD roundoff and tau >= sigma_1 collapses it to zero. LAPACK
    failures are reported with the matrix shape and scale.
    """
    if tau < 0.0:
        raise ConfigError(f"svt threshold must be nonnegative, got {tau}")
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise NumericError(f"svd needs a 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite entries in {arr.shape} matrix passed to svd")
    try:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"svd did not converge on {arr.shape} matrix (|M|_F={np.linalg.norm(arr):.3e})"
        ) from exc
    return (u * np.maximum(s - tau, 0.0)) @ vt


def soft_threshold(v, tau: float) -> np.ndarray:
    """Elementwise prox of tau * l1: sign(v) * max(|v| - tau, 0)."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def project_nonneg(v) -> np.ndarray:
    """Euclidean projection onto the nonnegative orthant."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def shrink_weighted(residual, w, rho1: float) -> np.ndarray:
    """Elementwise weighted shrink: residual / (1 + 2 w / rho1).

    Minimizer of w_i e_i^2 + (rho1 / 2)(e_i - r_i)^2 per entry, which is the
    residual-variable update before any low-rank treatment.
    """
    if rho1 <= 0.0:
        raise ConfigError(f"rho1 must be positive, got {rho1}")
    return np.asarray(residual, dtype=float) / (1.0 + 2.0 * np.asarray(w, dtype=float) / rho1)
