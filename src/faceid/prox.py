"""Proximal operators used by the coding step."""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dsyevd

from .errors import ConfigError, NumericError


# Relative width of the band around tau^2 inside which an eigenvalue of the
# small Gram counts as not above it, per unit of eps times the longer side of
# the matrix. The Gram product and the eigensolver together move the top
# eigenvalue by up to about 1.1 * max(rows, cols) * eps relative to sigma_1^2
# from the SVD, over 6000 random matrices up to 99x99; the band keeps a
# factor 4 above that.
_GRAM_BAND = 4.0 * np.finfo(float).eps


def svt(matrix, tau: float) -> np.ndarray:
    """Singular value thresholding: U max(S - tau, 0) V', without an SVD.

    The proximal operator of tau * nuclear norm. For a tall or square M it
    takes the eigendecomposition V diag(lambda) V' of the small Gram M'M,
    whose eigenvalues are the squared singular values sigma^2 and whose
    eigenvectors are the right singular vectors, and returns
    M V diag(1 - tau/sigma) V' over the eigenpairs with sigma > tau. A wide M
    takes U from MM' instead and returns U diag(1 - tau/sigma) U' M. The other
    singular factor is never formed.

    Precision band: an eigenvalue within a relative 4 * max(rows, cols) * eps
    of tau^2 counts as not above it, so tau >= sigma_1 (as an SVD reports it)
    returns exact zeros. Elsewhere the result matches the SVD formula to
    roundoff of about eps * sigma_1^2 / tau; singular values below about
    sqrt(eps) * sigma_1 are not resolved by the Gram, which matters only when
    tau is that small. tau = 0 reproduces the input to roundoff. An
    eigensolver failure is reported with the matrix shape and scale.
    """
    if tau < 0.0:
        raise ConfigError(f"svt threshold must be nonnegative, got {tau}")
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise NumericError(f"svt needs a 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite entries in {arr.shape} matrix passed to svt")
    wide = arr.shape[0] < arr.shape[1]
    gram = arr @ arr.T if wide else arr.T @ arr
    # numpy forms the Gram exactly symmetric, so its transpose is the same
    # matrix in the Fortran order LAPACK overwrites in place.
    lam, vecs, info = dsyevd(gram.T, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericError(
            f"eigendecomposition did not converge on the Gram of {arr.shape} matrix "
            f"(max |M|={np.abs(arr).max():.3e}, LAPACK info {info})"
        )
    # Eigenvalues come in ascending order, so the kept ones are the last k.
    first = lam.size - np.count_nonzero(lam > tau * tau * (1.0 + _GRAM_BAND * max(arr.shape)))
    v = vecs[:, first:]
    shrink = 1.0 - tau / np.sqrt(lam[first:])
    if wide:
        return v @ (shrink[:, None] * (v.T @ arr))
    return (arr @ v * shrink) @ v.T


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
