"""Weighted per-class residual classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DictionaryError
from .model import Dictionary
from .solver import SolveResult


@dataclass(frozen=True)
class ClassificationResult:
    """Predicted dense class id plus the per-class residual landscape."""

    predicted: int
    residuals: np.ndarray
    margin: float


def class_residuals(y, T: Dictionary, result: SolveResult) -> np.ndarray:
    """Weighted reconstruction residual of y under each class's columns.

    Residual i is ||sqrt(W) (y - T_i a_i)|| where W holds the final solver
    weights and (T_i, a_i) are the columns and coefficients of class i alone.
    The arithmetic is float64 whatever the columns' dtype: a float32 slice is
    promoted by the product with the float64 coefficients. A class whose
    coefficients are all exactly 0 gets ||sqrt(W) y|| with no product, the
    same bits, since T_i a_i is then exactly 0; after a working-set solve
    (SolverConfig.working_set, on a dictionary that outgrows the solver's
    gather cap) that is most classes, and after a solve on every atom, whose
    a is rarely exactly 0, few or none.
    """
    a = np.asarray(result.a, dtype=float).ravel()
    if a.size != T.n:
        raise DictionaryError(f"coefficient length {a.size} does not match dictionary n={T.n}")
    w = result.w.values
    if w.size != T.d:
        raise DictionaryError(f"weight length {w.size} does not match dictionary d={T.d}")
    y = np.asarray(getattr(y, "values", y), dtype=float).ravel()
    sw = np.sqrt(w)
    out = np.empty(T.n_classes)
    unexplained = None
    for i in range(T.n_classes):
        lo, hi = T.class_range(i)
        if a[lo:hi].any():
            out[i] = np.linalg.norm(sw * (y - T.columns[:, lo:hi] @ a[lo:hi]))
        else:
            if unexplained is None:
                unexplained = np.linalg.norm(sw * y)
            out[i] = unexplained
    return out


def identify(y, T: Dictionary, result: SolveResult) -> ClassificationResult:
    """Assign y to the class with the smallest weighted residual.

    Ties go to the lowest class id. The margin is the gap between the
    runner-up and the winning residual (infinite with a single class).
    """
    residuals = class_residuals(y, T, result)
    predicted = int(np.argmin(residuals))
    if residuals.size > 1:
        margin = float(np.partition(residuals, 1)[1] - residuals[predicted])
    else:
        margin = float("inf")
    return ClassificationResult(predicted=predicted, residuals=residuals, margin=margin)
