"""Closed-form moments of the clamped-Laplace count release.

For a true count N and privacy budget eps, the released value is
``max(0, N + Lap(1/eps))`` (unit sensitivity baked into the scale).
Writing x = eps * N, its exact moments are

    bias      =  e^{-x} / (2 eps)
    variance  = (2 - (1 + x) e^{-x} - e^{-2x}/4) / eps^2
    mse       = (2 - (1 + x) e^{-x}) / eps^2
    d mse/d eps = (e^{-x} (x^2 + 2x + 2) - 4) / eps^3

In this x-parameterized form the identity mse = bias^2 + variance holds
term for term, the bounds 1/eps^2 <= mse < 2/eps^2 are manifest
(0 < (1+x)e^{-x} <= 1), and nothing overflows: the kernels clamp x
at the float64 exp underflow threshold, past which every expression
rounds to its asymptote (variance and mse 2/eps^2, bias a subnormal or
0) instead of producing NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, LengthMismatch, NoPositiveWeight
from .hierarchy import LevelStats

# below this, 1/eps^2 overflows toward inf and the optimizer has no
# business operating anyway (mse -> infinity as eps -> 0)
EPS_MIN = 1e-12

# the kernels clamp x here: exp(-745) is the smallest subnormal, and
# exp(-x) underflows to exactly 0.0 just past it
_X_UNDERFLOW = 745.0


def _check_eps(eps: float) -> None:
    if not (eps >= EPS_MIN and math.isfinite(eps)):
        raise DomainError(f"eps must be >= {EPS_MIN:g}, got {eps!r}")


def _check(n: float, eps: float) -> None:
    _check_eps(eps)
    if not (n >= 0 and math.isfinite(n)):
        raise DomainError(f"count must be a nonnegative real, got {n!r}")


def bias(n: float, eps: float) -> float:
    """Expected overshoot of the clamped release: e^{-n*eps} / (2*eps).

    Strictly positive, decreasing in both arguments, and largest for
    small counts, which is why fine-grained levels suffer most from
    clamping.
    """
    _check(n, eps)
    return _bias_sum(np.array([n]), eps)


def variance(n: float, eps: float) -> float:
    """Variance of the clamped release; approaches 2/eps^2 (the raw
    Laplace variance) as n grows and is reduced below it by clamping."""
    return mse(n, eps) - bias(n, eps) ** 2


def mse(n: float, eps: float) -> float:
    """Mean squared error of the clamped release.

    Equals bias^2 + variance exactly; strictly increasing in n with
    range [1/eps^2, 2/eps^2).
    """
    _check(n, eps)
    return _mse_sum(np.array([n]), eps)


def mse_deps(n: float, eps: float) -> float:
    """First derivative of mse with respect to eps.

    Always negative (more budget never hurts) and confined to
    [-4/eps^3, -2/eps^3]; the endpoints are attained in the limits
    n -> infinity and n = 0. Strictly increasing in eps.
    """
    _check(n, eps)
    return _mse_deps_sums(np.array([n]), eps)[0]


def mse_deps2(n: float, eps: float) -> float:
    """Second derivative of mse in eps; strictly positive (convexity)."""
    _check(n, eps)
    return _mse_deps_sums(np.array([n]), eps)[1]


# vectorized forms over a count vector at a shared eps, for whole
# levels at once; the per-count functions above are their one-count
# case. mse_sum checks its inputs; the allocator checks a level's counts
# once and then calls the unchecked kernels _mse_sum and _mse_deps_sums
# on every pass. They reduce with numpy's pairwise sum, whose order
# numpy fixes, so no split depends on the machine's BLAS kernel.

def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.size and (counts.min() < 0 or not np.isfinite(counts).all()):
        raise DomainError("counts must be nonnegative reals")
    return counts


def mse_sum(counts: np.ndarray, eps: float) -> float:
    """Sum of per-count mse at a common eps."""
    _check_eps(eps)
    return _mse_sum(_check_counts(counts), eps)


def _bias_sum(counts: np.ndarray, eps: float) -> float:
    """Summed clamp bias of the counts at a common eps."""
    return float(np.sum(np.exp(-np.minimum(eps * counts, _X_UNDERFLOW)))) / (2.0 * eps)


def _mse_sum(counts: np.ndarray, eps: float, mults=1.0) -> float:
    """Summed per-count mse at a common eps, count j taken mults[j] times."""
    x = np.minimum(eps * counts, _X_UNDERFLOW)
    terms = 2.0 - (1.0 + x) * np.exp(-x)
    terms *= mults
    return float(terms.sum()) / eps**2


def _mse_deps_sums(counts: np.ndarray, eps: float, mults=1.0) -> tuple[float, float]:
    """Summed first and second eps-derivatives of per-count mse at a
    common eps, weighted as in ``_mse_sum``, from one exp per count."""
    x = np.minimum(eps * counts, _X_UNDERFLOW)
    t = np.exp(-x)
    d1 = t * ((x + 2.0) * x + 2.0) - 4.0
    d2 = 12.0 - t * (((x + 3.0) * x + 6.0) * x + 6.0)
    d1 *= mults
    d2 *= mults
    return float(d1.sum()) / eps**3, float(d2.sum()) / eps**4


@dataclass(frozen=True)
class LevelWeights:
    """Nonnegative per-level weights, at least one positive."""

    w: tuple[float, ...]

    def __post_init__(self):
        if not self.w:
            raise DomainError("weights must be nonempty")
        if any((wi < 0 or not math.isfinite(wi)) for wi in self.w):
            raise DomainError("weights must be nonnegative reals")
        if not any(wi > 0 for wi in self.w):
            raise NoPositiveWeight("at least one weight must be positive")

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int) -> float:
        return self.w[i]


def as_weights(w: Sequence[float] | LevelWeights) -> LevelWeights:
    if isinstance(w, LevelWeights):
        return w
    return LevelWeights(tuple(float(x) for x in w))


def weighted_total_mse(
    stats: LevelStats,
    w: Sequence[float] | LevelWeights,
    eps_vec: Sequence[float],
) -> float:
    """Weighted objective: sum over levels of w_l times the level's
    summed per-node mse at that level's budget.

    Zero-weight levels contribute nothing and their eps entry is
    ignored (the allocator assigns them no budget at all).
    """
    w = as_weights(w)
    depth = stats.depth
    if len(w) != depth or len(eps_vec) != depth:
        raise LengthMismatch(
            f"stats has {depth} levels, weights {len(w)}, eps {len(eps_vec)}"
        )
    total = 0.0
    for lv in range(depth):
        if w[lv] == 0.0:
            continue
        total += w[lv] * mse_sum(stats.counts[lv], float(eps_vec[lv]))
    return total
