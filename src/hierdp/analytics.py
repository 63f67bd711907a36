"""Per-count and per-level sums of the release's closed-form moments
(formulas and kernels in :mod:`hierdp.mechanism`), and the weighted
objective the allocator minimizes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, LengthMismatch, NoPositiveWeight
from .hierarchy import LevelStats
from .mechanism import BLOCK_ELEMENTS, _bias_sum, _check_eps, _mse_deps_sums, _mse_sum


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
    return _Level([n]).mse(eps)


def mse_deps(n: float, eps: float) -> float:
    """First derivative of mse with respect to eps.

    Always negative (more budget never hurts) and confined to
    [-4/eps^3, -2/eps^3]; the endpoints are attained in the limits
    n -> infinity and n = 0. Strictly increasing in eps.
    """
    _check(n, eps)
    return _Level([n]).mse_deps(eps)[0]


def mse_deps2(n: float, eps: float) -> float:
    """Second derivative of mse in eps; strictly positive (convexity)."""
    _check(n, eps)
    return _Level([n]).mse_deps(eps)[1]


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise DomainError(f"counts must be a 1-d vector, got shape {counts.shape}")
    if counts.size and (counts.min() < 0 or not np.isfinite(counts).all()):
        raise DomainError("counts must be nonnegative reals")
    return counts


class _Level:
    """A level's counts, sorted once and deduplicated, with their
    multiplicities and the kernels' scratch: every sum of mse terms or
    of their eps-derivatives goes through one. mse, mse_deps and
    mse_deps2 (and so variance) are its one-count case, and mse_sum its
    checked entry; the allocator builds one per level and calls it on
    every pass. The counts are checked here, once, so those passes need
    not."""

    __slots__ = ("vals", "mults", "k", "scratch")

    def __init__(self, counts: np.ndarray):
        # what np.unique(..., return_counts=True) gives, from one copy
        # sorted in place and one mask of each value's first place
        vals = _check_counts(np.array(counts, dtype=float))
        vals.sort()
        first = np.empty(vals.size, dtype=bool)
        first[:1] = True
        np.not_equal(vals[1:], vals[:-1], out=first[1:])
        self.k = float(vals.size)
        # every count distinct (a real-valued prior): nothing to weight
        self.mults = None
        if not first.all():
            self.mults = np.diff(np.flatnonzero(first), append=vals.size).astype(float)
            vals = vals[first]
        del first
        self.vals = vals
        # x and e^{-x} of one block, then one full-length term array per sum
        b = min(vals.size, BLOCK_ELEMENTS)
        self.scratch = np.empty(b), np.empty(b), np.empty(vals.size), np.empty(vals.size)

    def mse(self, eps: float) -> float:
        """Summed per-count mse at eps."""
        return _mse_sum(self.vals, eps, self.mults, self.scratch)

    def mse_deps(self, eps: float) -> tuple[float, float]:
        """Summed first and second eps-derivatives of per-count mse."""
        return _mse_deps_sums(self.vals, eps, self.mults, self.scratch)


def mse_sum(counts: np.ndarray, eps: float) -> float:
    """Sum of per-count mse at a common eps."""
    _check_eps(eps)
    return _Level(counts).mse(eps)


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
