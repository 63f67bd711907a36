"""Budget-share misallocation driven by privatized counts.

A fixed budget is split across sibling groups in proportion to a weight
function of their population shares. Computing those shares from noisy
counts misallocates; this module measures the squared bias and variance
of that misallocation in percentage points of share, comparing true
against privatized shares replicate by replicate.

Nonlinear weight functions shift the mean through the usual convexity
argument: a convex weight (quadratic) inflates expected weights of
noisy proportions, a concave one (log) deflates them. The reported
``jensen_gap`` is the summed gap between the mean weighted noisy
proportion and the weight of the mean noisy proportion, so its sign
exposes that direction directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .allocator import allocate_fixed_budget, uniform_allocation
from .errors import DegenerateWeights, DomainError, ZeroTotal
from .hierarchy import Hierarchy, level_stats
from .release import ReleaseEngine


class WeightFunction(enum.Enum):
    """Share weighting: ln(p+1) favors small groups, p is proportional,
    p^2 favors large groups. All vanish at 0 and increase on [0, 1]."""

    LOG = "log"
    LINEAR = "linear"
    QUADRATIC = "quadratic"

    def apply(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self is WeightFunction.LOG:
            return np.log1p(p)
        if self is WeightFunction.LINEAR:
            return p.copy()
        return p * p

    @classmethod
    def parse(cls, name: str) -> "WeightFunction":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(
                f"unknown weight function {name!r}; "
                f"choose from {[m.value for m in cls]}"
            ) from None


def proportions(counts: Sequence[float]) -> np.ndarray:
    """Group sizes relative to the total; sums to one."""
    arr = np.asarray(counts, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise DomainError(f"counts must be finite, got {float(arr[~finite][0])!r}")
    if (arr < 0).any():
        raise DomainError("counts must be nonnegative")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not math.isfinite(total):
        raise DomainError(f"counts sum to {total!r}, beyond the float range")
    if not total > 0:
        raise ZeroTotal(f"counts sum to {total!r}; proportions undefined")
    return arr / total


def weighted_shares(
    counts: Sequence[float], w: WeightFunction
) -> np.ndarray:
    """Budget shares: weight each group's proportion, then normalize."""
    weights = w.apply(proportions(counts))
    total = float(weights.sum())
    if not total > 0:
        raise DegenerateWeights("all weighted proportions are zero")
    return weights / total


@dataclass(frozen=True)
class MisallocationStats:
    """Misallocation moments in percentage points of share."""

    bias_sq_pct: float
    variance_pct: float
    mse_pct: float
    se_bias_sq_pct: float
    se_variance_pct: float
    se_mse_pct: float
    jensen_gap: float
    per_group_mean_error: tuple[float, ...]
    per_group_var_error: tuple[float, ...]
    replicates_used: int
    excluded_replicates: int

    def to_json_dict(self) -> dict:
        # the fields themselves: asdict would deep-copy every tuple
        return dict(vars(self))


def misallocation_stats(
    true_counts: Sequence[float],
    noisy_counts: np.ndarray,
    w: WeightFunction,
) -> MisallocationStats:
    """Share errors of privatized against true counts, accumulated over
    replicates.

    ``noisy_counts`` holds one replicate's nonnegative group counts per
    row (see :func:`tract_release`). Rows whose counts clamp to an
    all-zero vector cannot form shares; they are excluded and counted,
    never imputed.
    """
    true_shares = weighted_shares(true_counts, w)
    n = len(true_shares)
    noisy = np.asarray(noisy_counts, dtype=float)
    if noisy.ndim != 2 or noisy.shape[1] != n:
        raise DomainError(
            f"noisy counts must have one row per replicate and {n} "
            f"columns, got shape {noisy.shape}"
        )
    replicates = noisy.shape[0]
    _check_replicates(replicates)
    if not (np.isfinite(noisy) & (noisy >= 0)).all():
        raise DomainError("noisy counts must be finite and nonnegative")
    totals = noisy.sum(axis=1)
    usable = totals > 0
    kept = int(usable.sum())
    excluded = replicates - kept
    if kept < 2:
        raise DegenerateWeights(
            f"only {kept} usable replicates out of {replicates}"
        )
    props = noisy[usable] / totals[usable, None]
    weighted = w.apply(props)
    shares = weighted / weighted.sum(axis=1, keepdims=True)
    errors = 100.0 * (shares - true_shares)

    mean_err = errors.mean(axis=0)
    centered_sq = (errors - mean_err) ** 2
    var_err = centered_sq.sum(axis=0) / (kept - 1)
    bias_sq = float(np.sum(mean_err**2))
    variance = float(np.sum(var_err))

    per_rep_sq = np.sum(errors * errors, axis=1)
    mse = float(per_rep_sq.mean())

    # each is the standard error of a mean of one number per replicate; for
    # bias_sq = |mean_err|^2 that number is 2 mean_err . errors (first order)
    se_mse, se_variance, se_bias_sq = (
        float(per_rep.std(ddof=1)) / math.sqrt(kept)
        for per_rep in (per_rep_sq, centered_sq.sum(axis=1), 2.0 * (errors * mean_err).sum(axis=1))
    )

    jensen_gap = float(
        np.sum(weighted.mean(axis=0) - w.apply(props.mean(axis=0)))
    )

    return MisallocationStats(
        bias_sq_pct=bias_sq,
        variance_pct=variance,
        mse_pct=mse,
        se_bias_sq_pct=se_bias_sq,
        se_variance_pct=se_variance,
        se_mse_pct=se_mse,
        jensen_gap=jensen_gap,
        per_group_mean_error=tuple(mean_err.tolist()),
        per_group_var_error=tuple(var_err.tolist()),
        replicates_used=kept,
        excluded_replicates=excluded,
    )


def _check_replicates(replicates: int) -> None:
    if replicates < 1000:
        raise DomainError(f"replicates must be >= 1000, got {replicates}")


def tract_release(
    block_counts: Sequence[float],
    eps_total: float,
    replicates: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Consistent privatized block counts of one tract, one replicate
    per row, for the optimized and the uniform arm.

    Builds the two-level tract hierarchy (total over blocks) and both
    allocations (optimal, and evenly split across levels), then
    releases every replicate of both arms from one draw with clamping
    and projects the blocks onto the noisy total. The arms differ only
    in their allocation: common random numbers.
    """
    blocks = np.asarray(block_counts, dtype=float)
    if blocks.ndim != 1 or blocks.size == 0:
        raise DomainError("block_counts must be a nonempty vector")
    proportions(blocks)  # names the bad count, not a tract node id
    n, width = blocks.size, len(str(blocks.size))
    h = Hierarchy(
        ["t"] + [f"t-{j:0{width}d}" for j in range(1, n + 1)],
        [""] + ["t"] * n,
        np.repeat([1, 2], [1, n]),
        np.concatenate(([blocks.sum()], blocks)),
    )
    allocs = {
        "optimized": allocate_fixed_budget(level_stats(h), (1.0, 1.0), eps_total),
        "uniform": uniform_allocation(2, eps_total),
    }
    released = ReleaseEngine(h).release(
        [(alloc, True) for alloc in allocs.values()], seed, 0, replicates
    )
    return {arm: levels[2] for arm, levels in zip(allocs, released)}


def compare_misallocation(
    block_counts: Sequence[float],
    eps_total: float,
    weight_fns: Sequence[WeightFunction],
    replicates: int,
    seed: int,
) -> dict[str, dict[str, MisallocationStats]]:
    """Both arms under every weight function, common random numbers:
    one release matrix per arm from one draw, scored by every weight
    function."""
    _check_replicates(replicates)
    return {
        arm: {w.value: misallocation_stats(block_counts, noisy, w) for w in weight_fns}
        for arm, noisy in tract_release(block_counts, eps_total, replicates, seed).items()
    }
