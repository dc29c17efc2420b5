"""Residual-driven pixel weights for iteratively reweighted coding."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NumericError

# Weights are kept strictly positive so sqrt(W) stays invertible.
WEIGHT_FLOOR = float(np.finfo(float).tiny)

# Slope of the logistic weights, mu = ZETA / eta, so a zero residual gets
# weight expit(ZETA).
ZETA = 8.0

# Floor for the logistic inflection parameter eta before mu = ZETA / eta.
ETA_FLOOR = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Per-pixel weights in (0, 1], one entry per image pixel."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ConfigError(f"weights must be a nonempty 1-d array, got shape {v.shape}")
        if not np.isfinite(v).all() or (v <= 0.0).any():
            raise ConfigError("weights must be finite and strictly positive")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class WeightFunction:
    """How residuals map to pixel weights.

    kind "logistic" follows w(x) = expit(mu * (eta - x^2)), with (mu, eta)
    re-estimated from each residual by logistic_params at saturation
    fraction gamma. kind "constant" is w = 1 everywhere (plain least squares).
    """

    kind: str
    gamma: float = 0.6

    def __post_init__(self):
        if self.kind not in ("logistic", "constant"):
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if self.kind == "logistic" and not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")

    @classmethod
    def logistic(cls, gamma: float = 0.6):
        """Logistic weights re-estimated from every residual."""
        return cls(kind="logistic", gamma=gamma)

    @classmethod
    def constant_one(cls):
        """Unit weights; turns the coding step into ordinary least squares."""
        return cls(kind="constant")


def logistic_params(residual, gamma: float = 0.6):
    """Estimate the logistic pair (mu, eta) from a residual vector.

    eta is the l-th largest entry (l = floor(gamma * d), at least 1) of the
    squared residuals, counted with multiplicity, so ties do not shift it; a
    partial sort (np.partition) finds it. mu = ZETA / eta with eta floored at
    ETA_FLOOR to survive all-zero residuals.

    Returns:
        (mu, eta) as floats.
    """
    x = np.asarray(residual, dtype=float).ravel()
    if x.size == 0:
        raise ConfigError("empty residual")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must be in (0, 1], got {gamma}")
    ell = max(1, int(math.floor(gamma * x.size)))
    k = x.size - ell
    eta = float(np.partition(x * x, k)[k])
    eta = max(eta, ETA_FLOOR)
    return ZETA / eta, eta


def weight_update(residual, wf: WeightFunction) -> WeightVector:
    """Map a residual vector to pixel weights under the given weight function."""
    x = np.asarray(residual, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise NumericError("residual contains non-finite entries")
    if wf.kind == "constant":
        w = np.ones_like(x)
    else:
        mu, eta = logistic_params(x, wf.gamma)
        w = expit(mu * (eta - x * x))
    return WeightVector(np.maximum(w, WEIGHT_FLOOR))
