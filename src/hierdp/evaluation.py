"""Monte Carlo evaluation of releases and the analytic sweeps.

Empirical squared bias, variance, and mse are per-node moments of the
release error summed over all released nodes, with standard errors from
per-replicate aggregates (exact for mse) and per-node moment expansions
(delta method for the bias term; treats nodes as independent, which is
exact for independent releases and approximate after the consistency
pass). Arm comparisons reuse identical noise streams per (node,
replicate): only the noise scales differ between arms, so the paired
differences are far tighter than the individual estimates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .allocator import BudgetAllocation, allocate_fixed_budget, uniform_allocation
from .errors import DomainError, InvalidSplit
from .hierarchy import Hierarchy, LevelStats, level_stats
from .mechanism import _bias_sum, _check_counts, _check_eps, mse_sum
from .release import ReleaseEngine

EPS_GRID_DEFAULT = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0)

# most (replicate, node) entries a Monte Carlo chunk draws at once; a
# level block of at most 512 KiB stays in cache, and malloc recycles it
# from chunk to chunk, where 8 MiB blocks (2**20) are mapped afresh and
# page-faulted every chunk
CHUNK_ELEMENTS = 2**16

# most (split, eps) points skewness_bias_curve enumerates
MAX_SKEW_POINTS = 10**6


@dataclass(frozen=True)
class MomentEstimate:
    """Summed-over-nodes error moments with standard errors."""

    bias_sq: float
    variance: float
    mse: float
    se_bias_sq: float
    se_variance: float
    se_mse: float
    replicates: int

    def to_json_dict(self) -> dict:
        # the fields themselves: asdict would deep-copy every tuple
        return dict(vars(self))


@dataclass(frozen=True)
class ComparisonReport:
    """Four-arm comparison: {optimized, uniform} x {no hier, with hier},
    all arms driven by the same noise streams; three arms when the
    optimized split withholds a level and so has no with-hier arm."""

    arms: dict[str, MomentEstimate]
    analytic_mse: dict[str, float]
    optimized: BudgetAllocation
    uniform: BudgetAllocation
    eps_total: float
    bias_sq_ratio: float
    variance_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "eps_total": self.eps_total,
            "arms": {k: v.to_json_dict() for k, v in sorted(self.arms.items())},
            "analytic_mse": dict(sorted(self.analytic_mse.items())),
            "optimized": self.optimized.to_json_dict(),
            "uniform": self.uniform.to_json_dict(),
            "bias_sq_ratio_uniform_over_optimized": self.bias_sq_ratio,
            "variance_ratio_uniform_over_optimized": self.variance_ratio,
        }


class _MomentAccumulator:
    """Per-node power sums of the error, one ``(4, nodes)`` array per
    level, and the per-replicate squared error summed over nodes."""

    def __init__(self, replicates: int):
        self.sums: dict[int, np.ndarray] = {}
        self.per_rep_sq = np.zeros(replicates)
        self.replicates = replicates

    def add(self, err: np.ndarray, level: int, rep_lo: int, rep_hi: int):
        """Adds one chunk's errors; ``err`` is overwritten."""
        sums = self.sums.setdefault(level, np.zeros((4, err.shape[1])))
        sq = err * err
        sums[0] += err.sum(axis=0)
        sums[1] += sq.sum(axis=0)
        self.per_rep_sq[rep_lo:rep_hi] += sq.sum(axis=1)
        err *= sq
        sums[2] += err.sum(axis=0)
        sq *= sq
        sums[3] += sq.sum(axis=0)

    def finalize(self) -> MomentEstimate:
        r = self.replicates
        e1, e2, e3, e4 = np.hstack(list(self.sums.values()))
        m1 = e1 / r
        s2 = (e2 - r * m1 * m1) / (r - 1)
        m4 = (
            e4 / r
            - 4.0 * m1 * e3 / r
            + 6.0 * m1 * m1 * e2 / r
            - 3.0 * m1**4
        )
        bias_sq = float(np.sum(m1 * m1))
        var_total = float(np.sum(s2))
        se_bias = math.sqrt(max(float(np.sum(4.0 * m1 * m1 * s2)), 0.0) / r)
        se_var = math.sqrt(max(float(np.sum(np.maximum(m4 - s2 * s2, 0.0))), 0.0) / r)
        mse_emp = float(np.mean(self.per_rep_sq))
        se_mse = float(np.std(self.per_rep_sq, ddof=1)) / math.sqrt(r)
        # power sums about zero overflow, or cancel to a negative
        # variance, once the mean error dwarfs its spread: with
        # consistency, on a level far from its parent's sums
        moments = (bias_sq, var_total, mse_emp, se_bias, se_var, se_mse)
        if not all(map(math.isfinite, moments)) or var_total < 0:
            raise DomainError(
                f"release-error moments overflow or cancel in float64 (variance "
                f"{var_total!r}, mse {mse_emp!r}): the mean error dwarfs its "
                "spread, as on a level whose counts are far from their parents'"
            )
        return MomentEstimate(
            bias_sq=bias_sq,
            variance=var_total,
            mse=mse_emp,
            se_bias_sq=se_bias,
            se_variance=se_var,
            se_mse=se_mse,
            replicates=r,
        )


def _moment_pass(
    h: Hierarchy,
    arms: Sequence[tuple[BudgetAllocation, bool]],
    replicates: int,
    seed: int,
) -> list[MomentEstimate]:
    """Release-error moments of every (allocation, with consistency)
    arm from one pass: each chunk of replicates is drawn once and
    scaled for every allocation, so all arms share their noise."""
    if replicates < 100:
        raise DomainError(f"replicates must be >= 100, got {replicates}")
    engine = ReleaseEngine(h)
    accs = [_MomentAccumulator(replicates) for _ in arms]
    step = max(1, CHUNK_ELEMENTS // len(h))
    # glibc trims its heap top whenever more than twice its mmap
    # threshold is free there, and raises that threshold only on freeing
    # a mapped block (mallopt(3)): one freed 2 MiB block lets each chunk
    # reuse the last one's memory instead of faulting it in afresh
    np.empty(4 * CHUNK_ELEMENTS)
    # an overflow or a cancellation shows in the moments, which finalize
    # refuses, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for rep_lo in range(0, replicates, step):
            rep_hi = min(rep_lo + step, replicates)
            for noisy, acc in zip(engine.release(arms, seed, rep_lo, rep_hi), accs):
                for lv, rows in noisy.items():
                    acc.add(rows - engine.counts[lv][None, :], lv, rep_lo, rep_hi)
        return [acc.finalize() for acc in accs]


def monte_carlo_moments(
    h: Hierarchy,
    alloc: BudgetAllocation,
    replicates: int,
    seed: int,
    with_hier: bool = False,
) -> MomentEstimate:
    """Empirical release-error moments over all released nodes: the
    one-arm case of the Monte Carlo pass."""
    return _moment_pass(h, [(alloc, with_hier)], replicates, seed)[0]


def analytic_total_mse(h: Hierarchy, alloc: BudgetAllocation) -> float:
    """Unweighted closed-form total mse of the independent release: the
    summed per-node mse of each released level."""
    released = ReleaseEngine(h).levels(alloc)
    return float(sum(mse_sum(h.level_counts(lv), alloc.eps[lv - 1]) for lv in released))


def compare_allocations(
    h: Hierarchy,
    eps_total: float,
    w: Sequence[float],
    replicates: int,
    seed: int,
    stats: Optional[LevelStats] = None,
) -> ComparisonReport:
    """Optimized-versus-uniform comparison with common random numbers.

    ``stats`` is the count source for the optimizer (pass previously
    released data to keep the split budget-true); defaults to the
    hierarchy's own counts.
    """
    stats = stats if stats is not None else level_stats(h)
    optimized = allocate_fixed_budget(stats, w, eps_total)
    uniform = uniform_allocation(h.depth, eps_total)

    allocs = {"optimized": optimized, "uniform": uniform}
    arms = {
        f"{name}_{tag}": (alloc, with_hier)
        for name, alloc in allocs.items()
        for tag, with_hier in (("no_hier", False), ("with_hier", True))
        if not with_hier or min(alloc.eps) > 0
    }
    arms = dict(zip(arms, _moment_pass(h, list(arms.values()), replicates, seed)))
    analytic = {name: analytic_total_mse(h, alloc) for name, alloc in allocs.items()}

    opt = arms["optimized_no_hier"]
    uni = arms["uniform_no_hier"]
    return ComparisonReport(
        arms=arms,
        analytic_mse=analytic,
        optimized=optimized,
        uniform=uniform,
        eps_total=eps_total,
        bias_sq_ratio=uni.bias_sq / opt.bias_sq if opt.bias_sq > 0 else math.inf,
        variance_ratio=uni.variance / opt.variance if opt.variance > 0 else math.inf,
    )


@dataclass(frozen=True)
class WeightSweepRow:
    w3: float
    allocation: BudgetAllocation
    mse_levels: tuple[float, ...]
    total_mse: float
    empirical_mse: Optional[float] = None


def weight_sweep(
    h: Hierarchy,
    eps_total: float,
    w3_grid: Sequence[float],
    replicates: int = 0,
    seed: int = 0,
    stats: Optional[LevelStats] = None,
) -> list[WeightSweepRow]:
    """Bottom-level weight ablation on a three-level hierarchy.

    For each w3, the remaining weight splits evenly across levels 1 and
    2; rows carry the resulting allocation and unweighted per-level
    analytic mse (plus an empirical total when replicates > 0, all
    grid points from one Monte Carlo pass).

    It stays three-level on purpose: it is the paper's w3 ablation over
    (state, tract, block) weights, pinned by acceptance test C10, and a
    deeper sweep would need a rule for spreading the rest of the weight
    that the paper does not give.
    """
    if h.depth != 3:
        raise DomainError(f"weight sweep needs a 3-level hierarchy, got {h.depth}")
    stats = stats if stats is not None else level_stats(h)
    rows = []
    for w3 in w3_grid:
        if not 0.0 < w3 < 1.0:
            raise DomainError(f"w3 must lie in (0, 1), got {w3!r}")
        w = ((1.0 - w3) / 2.0, (1.0 - w3) / 2.0, w3)
        alloc = allocate_fixed_budget(stats, w, eps_total)
        per_level = tuple(
            mse_sum(h.level_counts(lv), alloc.eps[lv - 1]) for lv in (1, 2, 3)
        )
        rows.append(
            WeightSweepRow(
                w3=float(w3),
                allocation=alloc,
                mse_levels=per_level,
                total_mse=float(sum(per_level)),
            )
        )
    if replicates > 0 and rows:
        arms = [(row.allocation, False) for row in rows]
        moments = _moment_pass(h, arms, replicates, seed)
        rows = [replace(row, empirical_mse=m.mse) for row, m in zip(rows, moments)]
    return rows


def integer_splits(total: int, parts: int):
    """All ordered nonnegative integer splits of ``total`` into
    ``parts`` regions (stars and bars)."""
    if total < 0 or parts < 1:
        raise InvalidSplit(f"need total >= 0 and parts >= 1, got {total}, {parts}")
    for dividers in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1, *dividers, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))


def uniform_split(total: int, parts: int) -> tuple[int, ...]:
    """Most even integer split: remainders spread one apiece."""
    base, rem = divmod(total, parts)
    return tuple(base + 1 if i < rem else base for i in range(parts))


def total_clamp_bias(split: Sequence[float], eps: float) -> float:
    """Closed-form total clamp bias of a flat region split."""
    _check_eps(eps)
    return _bias_sum(_check_counts(split), eps)


@dataclass(frozen=True)
class SkewnessPoint:
    split: tuple[int, ...]
    eps: float
    bias: float


def skewness_bias_curve(
    total_n: int, num_regions: int, eps_grid: Sequence[float]
) -> list[SkewnessPoint]:
    """Total clamp bias per (split, eps) over all integer splits of
    ``total_n``; refuses to enumerate more than :data:`MAX_SKEW_POINTS`
    points. The most even split always attains the minimum at every
    eps."""
    for eps in eps_grid:
        _check_eps(eps)
    if total_n >= 0 and num_regions >= 1:
        points = math.comb(total_n + num_regions - 1, num_regions - 1) * len(eps_grid)
        if points > MAX_SKEW_POINTS:
            raise InvalidSplit(
                f"{total_n} into {num_regions} regions over {len(eps_grid)} eps "
                f"values is {points} points, more than {MAX_SKEW_POINTS}"
            )
    # the eps are checked above, and the splits are nonnegative integers
    splits = list(integer_splits(total_n, num_regions))
    return [
        SkewnessPoint(s, float(eps), _bias_sum(np.asarray(s, dtype=float), eps))
        for eps in eps_grid
        for s in splits
    ]
