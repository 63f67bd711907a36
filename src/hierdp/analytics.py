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
(0 < (1+x)e^{-x} <= 1), and nothing overflows. Each sum of mse or of
its eps-derivatives, over a level or over one count, runs over the
counts sorted once: from x = 64 on every term rounds to its asymptote
(mse 2/eps^2), so those terms are set to it, not computed. The bias
sum clamps x at the float64 exp underflow threshold instead, past
which the bias is a subnormal or 0, not NaN.
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

# the bias sum clamps x here: exp(-745) is the smallest subnormal, and
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


# every sum of mse terms or of their eps-derivatives goes through a
# _Level: a level's counts sorted once and deduplicated, with their
# multiplicities and the kernels' scratch. mse, mse_deps and mse_deps2
# above (and so variance) are its one-count case, and mse_sum its
# checked entry; the allocator builds one per level and calls it on
# every pass, unchecked. The kernels reduce with
# numpy's pairwise sum, whose order numpy fixes, so no split depends on
# the machine's BLAS kernel, and a sum does not depend on the order of
# the counts.
#
# The kernels work through the counts one block at a time: x and e^{-x}
# for a block stay in cache while each polynomial is evaluated in place
# into a full-length term array, which the pairwise sum then reduces as
# a whole. Every term, and so every sum, has the bits of the one-shot
# formulas. The terms of the saturated suffix, the counts with x >= 64,
# are filled with their limits, not computed, so every x computed is
# below 65 and nothing overflows.

# counts per block: a block's x, e^{-x} and two term slices take 1 MiB,
# inside one core's L2 cache on current x86 server parts
BLOCK_ELEMENTS = 2**15

# from x = eps * N of this on, e^{-x} poly(x) < 5e-23 is far below half
# an ulp of each term's limit (2 for mse, -4 for d1, 12 for d2), so
# every term rounds to exactly that limit
_X_SATURATED = 64.0


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise DomainError(f"counts must be a 1-d vector, got shape {counts.shape}")
    if counts.size and (counts.min() < 0 or not np.isfinite(counts).all()):
        raise DomainError("counts must be nonnegative reals")
    return counts


class _Level:
    """A level's counts, sorted once and deduplicated, with the kernels'
    scratch. The counts are checked here, once, so a solver's passes
    need not."""

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

    def _saturated_from(self, eps: float) -> int:
        """Index of the first count whose terms sit at their limits at
        this eps: x >= 64, or one rounding below it, where the terms are
        at their limits too."""
        return int(self.vals.searchsorted(_X_SATURATED / eps))

    def mse(self, eps: float) -> float:
        """Summed per-count mse at eps."""
        return _mse_sum(self.vals, eps, self.mults, self.scratch, self._saturated_from(eps))

    def mse_deps(self, eps: float) -> tuple[float, float]:
        """Summed first and second eps-derivatives of per-count mse."""
        return _mse_deps_sums(self.vals, eps, self.mults, self.scratch,
                              self._saturated_from(eps))


def mse_sum(counts: np.ndarray, eps: float) -> float:
    """Sum of per-count mse at a common eps."""
    _check_eps(eps)
    return _Level(counts).mse(eps)


def _bias_sum(counts: np.ndarray, eps: float) -> float:
    """Summed clamp bias of the counts at a common eps."""
    with np.errstate(over="ignore"):
        x = eps * counts
    return float(np.sum(np.exp(-np.minimum(x, _X_UNDERFLOW)))) / (2.0 * eps)


def _blocks(counts: np.ndarray, eps: float, scratch, sat: int):
    """Yield (lo, hi, x, t) for each block of the counts before ``sat``,
    with x = eps * counts and t = e^{-x} filled in the scratch."""
    xs, ts = scratch[0], scratch[1]
    for lo in range(0, sat, BLOCK_ELEMENTS):
        hi = min(lo + BLOCK_ELEMENTS, sat)
        x, t = xs[: hi - lo], ts[: hi - lo]
        np.multiply(counts[lo:hi], eps, out=x)
        np.negative(x, out=t)
        np.exp(t, out=t)
        yield lo, hi, x, t


def _fill(terms: np.ndarray, limit: float, mults, sat: int) -> None:
    """Set terms[sat:] to limit times each count's multiplicity."""
    if mults is None:
        terms[sat:] = limit
    else:
        np.multiply(mults[sat:], limit, out=terms[sat:])


def _mse_sum(counts: np.ndarray, eps: float, mults, scratch, sat: int) -> float:
    """Summed per-count mse at a common eps over a level's ascending
    counts, count j taken mults[j] times (once each when mults is
    None), in the level's scratch, from its saturated suffix ``sat``."""
    terms = scratch[2]
    for lo, hi, x, t in _blocks(counts, eps, scratch, sat):
        # 2 - (1 + x) e^{-x}
        a = terms[lo:hi]
        np.add(x, 1.0, out=a)
        a *= t
        np.subtract(2.0, a, out=a)
        if mults is not None:
            a *= mults[lo:hi]
    _fill(terms, 2.0, mults, sat)
    return float(terms.sum()) / eps**2


def _mse_deps_sums(counts: np.ndarray, eps: float, mults, scratch,
                   sat: int) -> tuple[float, float]:
    """Summed first and second eps-derivatives of per-count mse at a
    common eps, weighted and computed as in ``_mse_sum``, from one exp
    per count."""
    d1, d2 = scratch[2], scratch[3]
    for lo, hi, x, t in _blocks(counts, eps, scratch, sat):
        # e^{-x} ((x + 2) x + 2) - 4
        a = d1[lo:hi]
        np.add(x, 2.0, out=a)
        a *= x
        a += 2.0
        a *= t
        a -= 4.0
        # 12 - e^{-x} (((x + 3) x + 6) x + 6)
        b = d2[lo:hi]
        np.add(x, 3.0, out=b)
        b *= x
        b += 6.0
        b *= x
        b += 6.0
        b *= t
        np.subtract(12.0, b, out=b)
        if mults is not None:
            a *= mults[lo:hi]
            b *= mults[lo:hi]
    _fill(d1, -4.0, mults, sat)
    _fill(d2, 12.0, mults, sat)
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
