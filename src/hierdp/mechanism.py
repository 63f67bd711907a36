"""The release mechanism: clamped Laplace at a level's budget.

For a true count N and privacy budget eps, the released value is
``max(0, N + Lap(1/eps))`` (unit sensitivity baked into the scale).
This module holds every piece of it: the noise stream, the Laplace
transform, the clamp, and the closed forms of its moments.

Noise. Each (seed, key, replicate index) triple maps to one uniform
draw through a splitmix64-style hash. A node's key is its index in node
order (level, then id), so noise values do not depend on row order,
traversal order or chunking, and need no hash of the node's id.

Moments. Writing x = eps * N, the exact moments of the release are

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

import numpy as np

from .errors import DomainError

_U64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps; silence the spurious overflow warnings
    with np.errstate(over="ignore"):
        z = z + _U64_GAMMA
        z = (z ^ (z >> _S30)) * _C1
        z = (z ^ (z >> _S27)) * _C2
        return z ^ (z >> _S31)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed}")


def centered_uniform_matrix(
    seed: int, keys: np.ndarray, rep_lo: int, rep_hi: int
) -> np.ndarray:
    """Matrix of uniforms, rows = replicates [rep_lo, rep_hi), columns =
    uint64 node keys. Entry (r, j) depends only on (seed, key j,
    replicate r), so any split of the replicate range yields the same
    rows. The seed is a 64-bit word, in [0, 2**64)."""
    base = _mix64_np(np.uint64(seed ^ 0x5DEECE66D))
    reps = np.arange(rep_lo, rep_hi, dtype=np.uint64)
    with np.errstate(over="ignore"):
        k = _mix64_np(keys ^ base)
        out = _mix64_np(k[None, :] + reps[:, None] * _U64_GAMMA)
    # 53 bits of each word, strictly inside (-1/2, 1/2)
    return ((out >> _S11).astype(np.float64) + 0.5) * 2.0**-53 - 0.5


def standard_laplace(u):
    """Inverse-CDF transform of centered uniforms to unit-scale Laplace.

    ``u`` must lie in (-1/2, 1/2); the map is sign(u)-symmetric with
    median 0 and variance 2.
    """
    return -np.sign(u) * np.log1p(-2.0 * np.abs(u))


def clamped_release(noise: np.ndarray, counts: np.ndarray, eps: float) -> np.ndarray:
    """``max(0, counts + noise / eps)`` for unit-scale Laplace ``noise``,
    shaped ``(replicates, nodes)``, into a new array."""
    v = noise / eps
    v += counts
    np.maximum(0.0, v, out=v)
    return v


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


def _check_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 1:
        raise DomainError(f"counts must be a 1-d vector, got shape {counts.shape}")
    if counts.size and (counts.min() < 0 or not np.isfinite(counts).all()):
        raise DomainError("counts must be nonnegative reals")
    return counts


# counts per block: a block's x, e^{-x} and two term slices take 1 MiB,
# inside one core's L2 cache on current x86 server parts
BLOCK_ELEMENTS = 2**15

# from x = eps * N of this on, e^{-x} poly(x) < 5e-23 is far below half
# an ulp of each term's limit (2 for mse, -4 for d1, 12 for d2), so
# every term rounds to exactly that limit; a level's saturated suffix
# starts at the first count with x >= 64, or one rounding below it,
# where the terms are at their limits too
_X_SATURATED = 64.0


def _bias_sum(counts: np.ndarray, eps: float) -> float:
    """Summed clamp bias of the counts at a common eps."""
    with np.errstate(over="ignore"):
        x = eps * counts
    return float(np.sum(np.exp(-np.minimum(x, _X_UNDERFLOW)))) / (2.0 * eps)


class _Level:
    """A level's counts, checked, sorted once and deduplicated, with
    their multiplicities and the scratch its sums run in: every sum of
    mse terms or of their eps-derivatives is one of its methods. mse,
    mse_deps and mse_deps2 (and so variance) are its one-count case,
    and mse_sum its checked entry; the allocator builds one per level
    and calls it on every pass.

    The sums work one block at a time: x and e^{-x} for a block stay in
    cache while each polynomial is evaluated in place into a full-length
    term array, which numpy's pairwise sum, whose order numpy fixes,
    then reduces as a whole. So no sum depends on the BLAS kernel or the
    counts' order, and every term has the bits of the one-shot formulas.
    The terms of the saturated suffix, x >= 64, are filled with their
    limits, not computed, so every x computed is below 65 and nothing
    overflows."""

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
        # every count distinct (a real-valued prior): nothing to weight;
        # else value j is taken mults[j] times
        self.mults = None
        if not first.all():
            self.mults = np.diff(np.flatnonzero(first), append=vals.size).astype(float)
            vals = vals[first]
        del first
        self.vals = vals
        # x and e^{-x} of one block, then one full-length term array per sum
        b = min(vals.size, BLOCK_ELEMENTS)
        self.scratch = np.empty(b), np.empty(b), np.empty(vals.size), np.empty(vals.size)

    def _blocks(self, eps: float, sat: int):
        """Yield (lo, hi, x, t) for each block of the counts before ``sat``,
        with x = eps * counts and t = e^{-x} filled in the scratch."""
        xs, ts = self.scratch[0], self.scratch[1]
        for lo in range(0, sat, BLOCK_ELEMENTS):
            hi = min(lo + BLOCK_ELEMENTS, sat)
            x, t = xs[: hi - lo], ts[: hi - lo]
            np.multiply(self.vals[lo:hi], eps, out=x)
            np.negative(x, out=t)
            np.exp(t, out=t)
            yield lo, hi, x, t

    def _fill(self, terms: np.ndarray, limit: float, sat: int) -> None:
        """Set terms[sat:] to limit times each count's multiplicity."""
        if self.mults is None:
            terms[sat:] = limit
        else:
            np.multiply(self.mults[sat:], limit, out=terms[sat:])

    def mse(self, eps: float) -> float:
        """Summed per-count mse at eps."""
        sat = int(self.vals.searchsorted(_X_SATURATED / eps))
        terms = self.scratch[2]
        for lo, hi, x, t in self._blocks(eps, sat):
            # 2 - (1 + x) e^{-x}
            a = terms[lo:hi]
            np.add(x, 1.0, out=a)
            a *= t
            np.subtract(2.0, a, out=a)
            if self.mults is not None:
                a *= self.mults[lo:hi]
        self._fill(terms, 2.0, sat)
        return float(terms.sum()) / eps**2

    def mse_deps(self, eps: float) -> tuple[float, float]:
        """Summed first and second eps-derivatives of per-count mse at
        eps, computed as in ``mse``, from one exp per count."""
        sat = int(self.vals.searchsorted(_X_SATURATED / eps))
        d1, d2 = self.scratch[2], self.scratch[3]
        for lo, hi, x, t in self._blocks(eps, sat):
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
            if self.mults is not None:
                a *= self.mults[lo:hi]
                b *= self.mults[lo:hi]
        self._fill(d1, -4.0, sat)
        self._fill(d2, 12.0, sat)
        return float(d1.sum()) / eps**3, float(d2.sum()) / eps**4


def mse_sum(counts: np.ndarray, eps: float) -> float:
    """Sum of per-count mse at a common eps."""
    _check_eps(eps)
    return _Level(counts).mse(eps)


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
