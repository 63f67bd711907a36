"""Per-level privacy budget optimization by marginal water-filling.

Two programs over the weighted total-mse objective from
:mod:`hierdp.analytics`:

* fixed budget: minimize the objective subject to sum(eps) <= eps_total
  (the constraint always binds because the objective is strictly
  decreasing in every coordinate);
* target mse: minimize sum(eps) subject to objective <= tau (also
  always binding; every tau > 0 is feasible since mse -> 0 as
  eps -> infinity).

They are Lagrangian duals of each other and share one stationarity
condition: every positive-weight level sits at the same marginal
D_l(e_l) = -lam, where

    D_l(e) = w_l * sum_j d mse(N_j, e)/d e.

Strict convexity of per-node mse makes D_l strictly increasing in e
with closed bounds

    -4 w_l k_l / e^3  <=  D_l(e)  <=  -2 w_l k_l / e^3

(k_l nodes at level l), so for any lam > 0 the level budget e_l(lam)
is the unique root in

    (2 w_l k_l / lam)^{1/3}  <=  e_l(lam)  <=  (4 w_l k_l / lam)^{1/3}.

The programs differ only in the outer equation for lam. With
C = sum_l (w_l k_l)^{1/3} over positive-weight levels:

* fixed budget: eps_total - sum_l e_l(lam) = 0, bracketed by
  lam in [2 (C/eps_total)^3, 4 (C/eps_total)^3];
* target mse: sum_l w_l mse_l(e_l(lam)) - tau = 0, bracketed by
  lam in [2 (tau/2C)^{3/2}, 4 (tau/C)^{3/2}] via 1/e^2 <= mse < 2/e^2
  per node.

Both outer residuals increase in lam, with slopes from the implicit
derivative de_l/dlam = -1/D_l'(e_l). One safeguarded-Newton root
routine solves the inner and the outer equations alike: Newton steps
from a start point, bisection whenever a step leaves the bracket or
is not under half the Newton step before it.

The outer search, and the level roots at its first lam, start at their
bracket midpoints. Each later level root starts from its root at the
last lam tried, times (lam_last / lam)^{1/3}: with D_l(e) = -c_l(e)/e^3,
c_l runs from 2 w_l k_l (counts negligible against 1/e) to 4 w_l k_l
(counts saturated), so that start is exact where c_l is constant and
close where it moves slowly. On 20,000 noisy counts a level root then
takes ~2 passes over the counts, where the midpoint took ~6.

Levels with zero weight contribute nothing to the objective; any budget
given to them would be wasted, so they receive eps = 0 and are excluded
from release rather than released with no noise.

Feeding the allocator the very counts about to be privatized leaks
information through the budget split if the per-level budgets are
published. Callers should pass previously released statistics as the
stats source; the CLI's --prior flag exists for exactly that.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .analytics import LevelWeights, _Level, as_weights
from .errors import ConvergenceFailure, DomainError
from .hierarchy import LevelStats
from .mechanism import EPS_MIN, _check_eps

PROGRAM_FIXED_BUDGET = "fixed_budget"
PROGRAM_TARGET_MSE = "target_mse"
PROGRAM_UNIFORM = "uniform"

_MAX_ITER = 200
# the slope of a level's marginal divides by eps**4, which overflows
# just past this
_EPS_MAX = 1.15e77


@dataclass(frozen=True)
class BudgetAllocation:
    """Solved per-level budgets plus solver diagnostics.

    ``multiplier`` is the Lagrange multiplier at the optimum (the shared
    marginal for the fixed-budget program, its reciprocal scaling for
    the target-mse program); ``objective_value`` is the weighted total
    mse at ``eps`` when the stats were available to compute it.
    """

    eps: tuple[float, ...]
    eps_total_used: float
    objective_value: Optional[float]
    program: str
    weights: tuple[float, ...]
    multiplier: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "eps": list(self.eps),
            "eps_total": self.eps_total_used,
            "objective": self.objective_value,
            "multiplier": self.multiplier,
            "program": self.program,
            "weights": list(self.weights),
        }


def _root(
    f: Callable[[float], tuple[float, float]], lo: float, hi: float, tol: float,
    x0: float = math.nan,
) -> tuple[float, float, float]:
    """Zero of an increasing ``f`` on [lo, hi]; ``f(x)`` returns its
    value and slope. Newton steps from ``x0`` if it lies inside the
    bracket, else from the midpoint; bisection whenever a step would
    leave the bracket or is not under half the step before it: a slope
    that overstates f's (an inner root clamped at its bracket end, say)
    would otherwise creep across the bracket. Stops once |f| <= tol or
    the bracket is down to float resolution, and returns x with f's
    value and slope there."""
    x = x0 if lo < x0 < hi else 0.5 * (lo + hi)
    last = hi - lo
    for _ in range(_MAX_ITER):
        fx, slope = f(x)
        if fx <= 0.0:
            lo = x
        else:
            hi = x
        if abs(fx) <= tol or hi - lo <= 1e-15 * hi:
            break
        step = fx / slope
        if lo < x - step < hi and abs(step) <= 0.5 * abs(last):
            x, last = x - step, step
        else:
            x, last = 0.5 * (lo + hi), hi - lo
    return x, fx, slope


def _level_root(level: _Level, w: float, lam: float, x0: float) -> tuple[float, float, float]:
    """e_l(lam), the root of D_l(e) + lam for a level of weight w,
    searched from x0, with the KKT residual D_l(e) + lam and D_l'(e)
    there."""
    base = w * level.k
    # widen a hair so float rounding cannot strand the root outside
    lo = max((2.0 * base / lam) ** (1.0 / 3.0) * (1.0 - 1e-9), EPS_MIN)
    hi = (4.0 * base / lam) ** (1.0 / 3.0) * (1.0 + 1e-9)

    def f(e: float) -> tuple[float, float]:
        d1, d2 = level.mse_deps(e)
        return w * d1 + lam, w * d2

    return _root(f, lo, hi, 1e-12 * lam, x0)


def _weights_for(stats: LevelStats, w: Sequence[float] | LevelWeights) -> LevelWeights:
    """The weights, one for each level of ``stats``."""
    weights = as_weights(w)
    if len(weights) != stats.depth:
        raise DomainError(
            f"stats has {stats.depth} levels but {len(weights)} weights given"
        )
    return weights


def level_marginal(
    stats: LevelStats, w: Sequence[float] | LevelWeights, level: int, eps: float
) -> float:
    """Marginal value of budget at one level: the derivative of the
    weighted level mse with respect to that level's eps. Negative,
    strictly increasing in eps."""
    w = _weights_for(stats, w)
    if not 1 <= level <= stats.depth:
        raise DomainError(f"level {level} out of range 1..{stats.depth}")
    if w[level - 1] <= 0:
        raise DomainError(f"level {level} has nonpositive weight")
    _check_eps(eps)
    return w[level - 1] * _Level(stats.counts[level - 1]).mse_deps(eps)[0]


def _at_most(eps: list[float], total: float) -> tuple[float, ...]:
    """``eps`` with its largest entry lowered until their exact sum is
    at most ``total``: levels compose, so a release spends that sum.
    ``math.fsum`` rounds the exact excess correctly, so its sign is
    exact. The excess, up to ~1e-13 of the total after a solve, is
    taken off at once, and whatever rounding leaves an ulp at a time."""
    i = eps.index(max(eps))
    while (over := math.fsum([*eps, -total])) > 0:
        eps[i] = min(eps[i] - over, math.nextafter(eps[i], 0.0))
    return tuple(eps)


def _solve(
    stats: LevelStats,
    w: Sequence[float] | LevelWeights,
    program: str,
    target: float,
) -> BudgetAllocation:
    """Shared dual solve: drive the outer residual of ``program`` to
    zero in lam, each level at its stationary e_l(lam), then check the
    KKT residuals and the constraint."""
    weights = _weights_for(stats, w)
    levels = {i: _Level(stats.counts[i]) for i in range(stats.depth) if weights[i] > 0}
    fixed = program == PROGRAM_FIXED_BUDGET
    eps = [0.0] * stats.depth
    cubes = [(weights[i] * lv.k) ** (1.0 / 3.0) for i, lv in levels.items()]
    c = sum(cubes)
    # Where its counts are negligible against 1/eps, level l gets
    # (w_l k_l)^{1/3} / C of a fixed budget, or (w_l k_l)^{1/3} (C/tau)^{1/2}
    # for a target mse, and the level solves below may try up to 2^{1/3}
    # or 2^{5/6} times that. Refuse a target that takes some level below
    # EPS_MIN, or a try above _EPS_MAX.
    if fixed and len(levels) == 1:
        low = high = target
    elif fixed:
        low, high = min(cubes) * target / c, max(cubes) * target / c * 2.0 ** (1.0 / 3.0)
    else:
        scale = math.sqrt(c / target)
        low, high = min(cubes) * scale, max(cubes) * scale * 2.0 ** (5.0 / 6.0)

    def out_of_range(why: str) -> DomainError:
        name = "eps_total" if fixed else "tau"
        return DomainError(
            f"{name} {target!r} is out of range for these counts and weights: {why}"
        )

    if not (low >= EPS_MIN and high <= _EPS_MAX):
        raise out_of_range(f"level budgets would fall outside [{EPS_MIN:g}, {_EPS_MAX:g}]")

    single = fixed and len(levels) == 1
    if single:
        # the whole budget goes to the only level that matters; exact
        [(only, level)] = levels.items()
        lo = hi = -weights[only] * level.mse_deps(target)[0]
    else:
        try:
            if fixed:
                lo, hi = 2.0 * (c / target) ** 3, 4.0 * (c / target) ** 3
            else:
                lo, hi = 2.0 * (target / (2.0 * c)) ** 1.5, 4.0 * (target / c) ** 1.5
        except OverflowError:
            lo = hi = math.inf
    # level budgets in range can still need a lambda past the float range
    # (extreme weights): refuse it rather than solve in inf or in
    # subnormals, or publish it as inf or 0
    if not (lo >= sys.float_info.min and hi <= sys.float_info.max):
        raise out_of_range("the multiplier lambda would fall outside the float range")

    if single:
        eps[only] = target
        lam = lo
    else:
        # the last lam tried and its level roots, which start the next
        # lam's (warm starts: see the module docstring); none at first
        last = (math.nan, [(math.nan,)] * len(levels))

        def residual(lam: float) -> tuple[float, float]:
            nonlocal last, objective
            scale = (last[0] / lam) ** (1.0 / 3.0)
            last = lam, [_level_root(lv, weights[i], lam, r[0] * scale)
                         for (i, lv), r in zip(levels.items(), last[1])]
            es, _, slopes = zip(*last[1])
            if fixed:
                return target - sum(es), sum(1.0 / s for s in slopes)
            objective = sum(weights[i] * lv.mse(e) for (i, lv), e in zip(levels.items(), es))
            return objective - target, sum(lam / s for s in slopes)

        # inner roots stop at 1e-12 * lam, usually already at rounding
        # level after Newton's quadratic steps, so the outer residual can
        # reach 1e-13 of target; the 1e-9 checks below keep a wide margin
        lam = _root(residual, lo * (1.0 - 1e-9), hi * (1.0 + 1e-9), 1e-13 * target)[0]
        # _root returns the last lam it evaluated: reuse its level roots
        # and, for a target, its objective
        if last[0] != lam:
            residual(lam)
        worst = 0.0
        for i, (e, kkt, _) in zip(levels, last[1]):
            eps[i] = e
            worst = max(worst, abs(kkt))
        if worst > 1e-8 * lam:
            raise ConvergenceFailure(
                f"{program}: KKT residual {worst:g} exceeds 1e-8 * lambda ({lam:g})"
            )

    if fixed:
        # _at_most can move an eps: sum the objective at the final ones
        eps = _at_most(eps, target)
        objective = sum(weights[i] * lv.mse(eps[i]) for i, lv in levels.items())
    achieved = sum(eps) if fixed else objective
    if abs(achieved - target) > 1e-9 * target:
        what = "sum(eps)" if fixed else "objective"
        raise ConvergenceFailure(f"{program}: {what}={achieved!r} misses {target!r}")
    return BudgetAllocation(
        eps=tuple(eps),
        eps_total_used=math.fsum(eps),
        objective_value=objective,
        program=program,
        weights=tuple(weights.w),
        multiplier=lam if fixed else 1.0 / lam,
    )


def allocate_fixed_budget(
    stats: LevelStats,
    w: Sequence[float] | LevelWeights,
    eps_total: float,
) -> BudgetAllocation:
    """Minimize the weighted total mse subject to sum(eps) <= eps_total.

    Returns the unique optimum: positive-weight levels share a common
    marginal -lambda and their budgets sum to eps_total, the largest
    lowered until their exact sum is not above it.
    """
    if not (eps_total > 0 and math.isfinite(eps_total)):
        raise DomainError(f"eps_total must be positive, got {eps_total!r}")
    return _solve(stats, w, PROGRAM_FIXED_BUDGET, eps_total)


def allocate_target_mse(
    stats: LevelStats,
    w: Sequence[float] | LevelWeights,
    tau: float,
) -> BudgetAllocation:
    """Minimize sum(eps) subject to weighted total mse <= tau.

    Stationarity gives a common marginal -1/mu across positive-weight
    levels, so the same solve applies with lam = 1/mu; the outer
    equation drives the objective onto tau (always feasible: the
    objective falls to zero as budgets grow).
    """
    if not (tau > 0 and math.isfinite(tau)):
        raise DomainError(f"tau must be positive, got {tau!r}")
    return _solve(stats, w, PROGRAM_TARGET_MSE, tau)


def uniform_allocation(depth: int, eps_total: float) -> BudgetAllocation:
    """The even-split baseline: every level gets eps_total / depth, the
    first lowered until their exact sum is not above eps_total."""
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if not (eps_total > 0 and math.isfinite(eps_total)):
        raise DomainError(f"eps_total must be positive, got {eps_total!r}")
    eps = _at_most([eps_total / depth] * depth, eps_total)
    return BudgetAllocation(
        eps=eps,
        eps_total_used=math.fsum(eps),
        objective_value=None,
        program=PROGRAM_UNIFORM,
        weights=(1.0,) * depth,
        multiplier=None,
    )
