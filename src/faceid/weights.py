"""Residual-driven pixel weights for iteratively reweighted coding."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import ConfigError, NumericError

# Weights are kept strictly positive so sqrt(W) stays invertible.
WEIGHT_FLOOR = float(np.finfo(float).tiny)

# Slope of the adaptive logistic weights, mu = ZETA / eta, so a zero residual
# gets weight expit(ZETA).
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

    kind "logistic" follows w(x) = expit(mu * (eta - x^2)); adaptive instances
    re-estimate (mu, eta) from each residual, frozen ones keep them fixed.
    kind "constant" is w = 1 everywhere (plain least squares).
    """

    kind: str
    adaptive: bool
    gamma: float = 0.6
    mu: Optional[float] = None
    eta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("logistic", "constant"):
            raise ConfigError(f"unknown weight kind {self.kind!r}")
        if self.kind == "logistic":
            if self.adaptive:
                if not 0.0 < self.gamma <= 1.0:
                    raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
            else:
                if self.mu is None or self.eta is None:
                    raise ConfigError("frozen logistic weights need explicit (mu, eta)")
                if self.mu <= 0.0 or self.eta < 0.0:
                    raise ConfigError(f"need mu > 0 and eta >= 0, got ({self.mu}, {self.eta})")

    @classmethod
    def logistic(cls, gamma: float = 0.6):
        """Adaptive logistic weights re-estimated from every residual."""
        return cls(kind="logistic", adaptive=True, gamma=gamma)

    @classmethod
    def logistic_frozen(cls, mu: float, eta: float):
        """Logistic weights with (mu, eta) pinned once and for all."""
        return cls(kind="logistic", adaptive=False, mu=float(mu), eta=float(eta))

    @classmethod
    def constant_one(cls):
        """Unit weights; turns the coding step into ordinary least squares."""
        return cls(kind="constant", adaptive=False)


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
        if wf.adaptive:
            mu, eta = logistic_params(x, wf.gamma)
        else:
            mu, eta = wf.mu, wf.eta
        w = expit(mu * (eta - x * x))
    return WeightVector(np.maximum(w, WEIGHT_FLOOR))


def phi_value(x, wf: WeightFunction):
    """Penalty phi(x) = integral of s * w(s) over s in [0, |x|], elementwise.

    With a = mu * eta and d = mu * x^2 the logistic penalty has the closed form
    (softplus(a) - softplus(a - d)) / (2 mu). For d < 1 the difference is taken
    as log1p(expit(a - d) * expm1(d)), which keeps full relative precision as
    x -> 0; the constant kind gives x^2 / 2. Adaptive weight functions have no
    fixed phi and are rejected.

    Returns:
        a float for scalar x, else an array of x's shape.
    """
    if wf.adaptive:
        raise ConfigError("phi is only defined for a frozen weight function")
    x = np.asarray(x, dtype=float)
    if wf.kind == "constant":
        phi = 0.5 * x * x
    else:
        a = wf.mu * wf.eta
        d = wf.mu * x * x
        # np.where evaluates both forms; the clamp keeps the unused one finite
        near = np.log1p(expit(a - d) * np.expm1(np.minimum(d, 1.0)))
        far = np.logaddexp(0.0, a) - np.logaddexp(0.0, a - d)
        phi = np.where(d < 1.0, near, far) / (2.0 * wf.mu)
    return float(phi) if phi.ndim == 0 else phi
