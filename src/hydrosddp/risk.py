"""The composite risk measure and the opening-weight distribution it induces.

The composite measure is ``(1 - lam) * E[Y] + lam * CVaR_alpha[Y]`` over
equiprobable atoms. It is evaluated through the closed-form weight
vector whose dot product with the atoms reproduces the measure. The
weight vector doubles as the forward-sampling distribution over next
stage openings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EmptyInput(ValueError):
    """An operation over cost atoms received an empty collection."""


@dataclass(frozen=True)
class RiskMeasure:
    """Convex combination between expectation (weight 1-lam) and CVaR_alpha."""

    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(
                f"alpha must be in [0, 1); the worst-case limit alpha=1 "
                f"is not supported (got {self.alpha})")


class WeightVector:
    """Probability distribution over the L openings of the next stage."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.ascontiguousarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty vector")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        self.weights = w

    def __len__(self):
        return self.weights.size

    def __eq__(self, other):
        return isinstance(other, WeightVector) and np.array_equal(
            self.weights, other.weights)

    def __repr__(self):
        return f"WeightVector({self.weights.tolist()})"


def uniform_weights(n: int) -> WeightVector:
    return WeightVector(np.full(n, 1.0 / n))


def quantile_position(alpha: float, n: int) -> int:
    """1-based index of the VaR atom among n sorted equiprobable atoms.

    ceil(alpha*n), clamped to 1 when alpha == 0; the 1e-9 slack keeps
    exact-integer products from being pushed up by float noise.
    """
    if alpha <= 0.0:
        return 1
    return max(1, math.ceil(alpha * n - 1e-9))


def sampling_weights(betas, measure: RiskMeasure) -> WeightVector:
    """Closed-form opening weights from per-opening cost-to-go values.

    Sorted ascending (stable), positions below the VaR index get
    (1-lam)/L, positions above get (1-lam)/L + lam/((1-alpha)L), and the
    VaR position absorbs the remainder so the vector sums to one and
    its dot product with the betas equals the composite measure. When
    alpha*L lies within the quantile slack above an integer, that
    remainder comes out slightly negative; it is then clipped to zero
    and the vector renormalised.
    """
    b = _atoms(betas)
    n = b.size
    lam, alpha = measure.lam, measure.alpha
    order = np.argsort(b, kind="stable")
    nu = quantile_position(alpha, n)
    base = (1.0 - lam) / n
    tail = lam / ((1.0 - alpha) * n)
    sorted_w = np.full(n, base)
    sorted_w[nu:] += tail
    pivot = base + lam - lam * (n - nu) / ((1.0 - alpha) * n)
    sorted_w[nu - 1] = max(pivot, 0.0)
    if pivot < 0.0:
        sorted_w /= sorted_w.sum()
    weights = np.empty(n)
    weights[order] = sorted_w
    return WeightVector(weights)


def _atoms(values) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=float)
    if v.size == 0:
        raise EmptyInput("need at least one cost atom")
    if not np.all(np.isfinite(v)):
        raise ValueError("cost atoms must be finite")
    return v.ravel()
