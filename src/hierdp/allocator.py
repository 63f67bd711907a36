"""Per-level privacy budget optimization.

Two programs over the weighted total-mse objective,
F(eps) = sum_l w_l * (level l's summed per-node mse at e_l):

* fixed budget: minimize F subject to sum(eps) <= eps_total (the
  constraint always binds because F is strictly decreasing in every
  coordinate);
* target mse: minimize sum(eps) subject to F <= tau (also always
  binding; every tau > 0 is feasible since mse -> 0 as eps -> infinity).

They are Lagrangian duals of each other and share one stationarity
condition: every positive-weight level sits at the same marginal
g_l = w_l D_l(e_l) = -lam, where

    D_l(e) = sum_j d mse(N_j, e)/d e.

Strict convexity of per-node mse makes D_l strictly increasing in e
with closed bounds

    -4 k_l / e^3  <=  D_l(e)  <=  -2 k_l / e^3

(k_l nodes at level l). With s_l = (w_l k_l)^{1/3} and C = sum_l s_l
over positive-weight levels, these put lam in [2 (C/eps_total)^3,
4 (C/eps_total)^3] for a fixed budget, and in [2 (tau/2C)^{3/2},
4 (tau/C)^{3/2}] for a target, via 1/e^2 <= mse < 2/e^2 per node. A
budget whose lam could leave the float range is refused.

The shape split. A count's mse is a/e^2 with a in [1, 2): 1 for an
empty count, toward 2 as e N grows. Where every a is the same (every
count 0, or every e N large), the optimum is the geometric split of
Cormode et al. (ICDE 2012), e_l = eps_total s_l / C, or
e_l = s_l (a C / tau)^{1/2}. With level l's mean a_l held fixed, the
optimum is e_l proportional to a_l^{1/3} s_l, and the shape split's
objective over the optimum's is

    (sum s)^2 (sum a s) / (sum a^{1/3} s)^3,

largest when the shape weight splits between a = 1 and a = 2, with
0.576 of it at a = 1. There it is 1.04064, so no tree's counts improve
the split by more than ~4.1%. Where a_l moves with e_l, the tests check
the bound on random and adversarial trees; it is not proven here.

The solve is Newton's method on the KKT system in (e_1..e_d, lam) at
once: g_l(e_l) + lam = 0 for every level, and c(eps) = target, where
c = sum(eps) with gradient v_l = 1, or c = F with v_l = g_l. With
h_l = w_l D_l'(e_l), the step is

    d_l = -(g_l + lam') / h_l,
    lam' = -(target - c + sum_l v_l g_l / h_l) / sum_l v_l / h_l,

where lam' makes the linearized constraint sum_l v_l d_l = target - c
hold. One pass over each level's counts gives g_l and h_l, and for a
target F with them. The steps start at the shape split with
a = 2: it spends exactly eps_total, or gives F in [tau/2, tau). A step
that would take some eps to 0 or below, or past _EPS_MAX, is halved,
and then halved until the merit

    sum_l ((g_l - mean_l g_l) / lam_lo)^2 + ((c - target) / target)^2

(lam_lo the lower end of lam's bounds) falls by 2e-4 of the step's
fraction: the merit is the least squared KKT residual over lam, which
the step, not depending on lam, descends. Where F is far above tau,
the step aims at part of the constraint only, target - c raised to
-sum_l g_l^2 / (2 h_l), which keeps lam' > 0; a negative lam' grows the
levels with the smallest marginals most, toward eps -> infinity. The
iteration stops at the first point a step reaches whose own step moves
no eps by more than 1e-14 of it.

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
from operator import truediv
from typing import Optional, Sequence

from .errors import ConvergenceFailure, DomainError, LengthMismatch, NoPositiveWeight
from .hierarchy import LevelStats
from .mechanism import _DEPS, _DEPS2, _MSE, EPS_MIN, _check_eps, _Level, mse_sum

PROGRAM_FIXED_BUDGET = "fixed_budget"
PROGRAM_TARGET_MSE = "target_mse"
PROGRAM_UNIFORM = "uniform"

_MAX_ITER = 200
# the slope of a level's marginal divides by eps**4, which overflows
# just past this
_EPS_MAX = 1.15e77


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
    return w[level - 1] * _Level(stats.counts[level - 1]).sums(eps, _DEPS)[0]


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


def _newton(
    levels: dict, weights: LevelWeights, program: str, target: float, x: list, lo: float
) -> tuple[list, float, float, float]:
    """The program's optimum by the joint Newton steps of the module
    docstring from ``x``, with lam, the largest |g_l + lam| and the
    constraint's value c there. In units of lo (gam_l = g_l / lo,
    mu = lam / lo, rho_l = h_l / g_l), no product of a tiny weight and a
    tiny slope underflows. Each try of a step is one pass a level."""
    fixed = program == PROGRAM_FIXED_BUDGET
    forms = (_DEPS, _DEPS2) if fixed else (_DEPS, _DEPS2, _MSE)
    step, t, merit, small = [0.0] * len(x), 0.0, math.inf, False
    for _ in range(_MAX_ITER):
        trial = [e + t * d for e, d in zip(x, step)]
        sums = [lv.sums(e, *forms) for lv, e in zip(levels.values(), trial)]
        gam = [weights[i] * s[0] / lo for i, s in zip(levels, sums)]
        rho = [s[1] / s[0] for s in sums]
        if fixed:
            value, grad = sum(trial), [1.0] * len(x)
        else:
            value, grad = sum(weights[i] * s[2] for i, s in zip(levels, sums)), gam
        # sum_l v_l g_l / h_l, over lo for a target
        pull = sum(map(truediv, grad, rho))
        # a target's miss is at least -pull / 2, so that mu > 0
        miss = target - value if fixed else max((target - value) / lo, -0.5 * pull)
        mean = sum(gam) / len(gam)
        trial_merit = sum((gl - mean) ** 2 for gl in gam) + ((value - target) / target) ** 2
        # a step this small is taken whole: its merit is down to rounding
        if not (small or trial_merit <= (1.0 - 2e-4 * t) * merit):
            t *= 0.5
            continue
        x, merit = trial, trial_merit
        # solves (gam_l + mu) + gam_l rho_l d_l = 0 and grad . d = miss
        mu = -(miss + pull) / sum(a / (gl * r) for a, gl, r in zip(grad, gam, rho))
        step = [-(1.0 + mu / gl) / r for gl, r in zip(gam, rho)]
        small = all(abs(d) <= 1e-14 * e for d, e in zip(step, x))
        # never stop at the start (t = 0): a split is a step's result
        if small and t:
            return x, mu * lo, max(abs(gl + mu) for gl in gam) * lo, value
        t = 1.0
        while not all(0.0 < e + t * d <= _EPS_MAX for e, d in zip(x, step)):
            t *= 0.5
    raise ConvergenceFailure(f"{program}: no convergence in {_MAX_ITER} steps")


def _solve(
    stats: LevelStats,
    w: Sequence[float] | LevelWeights,
    program: str,
    target: float,
) -> BudgetAllocation:
    """Shared solve: joint Newton steps on the KKT system of ``program``
    from the shape split, then check the KKT residuals and the
    constraint."""
    weights = _weights_for(stats, w)
    levels = {i: _Level(stats.counts[i]) for i in range(stats.depth) if weights[i] > 0}
    fixed = program == PROGRAM_FIXED_BUDGET
    eps = [0.0] * stats.depth
    cubes = [(weights[i] * lv.k) ** (1.0 / 3.0) for i, lv in levels.items()]
    c = sum(cubes)
    # Where its counts are negligible against 1/eps, level l gets
    # (w_l k_l)^{1/3} / C of a fixed budget, or (w_l k_l)^{1/3} (C/tau)^{1/2}
    # for a target mse, and its optimum is at most 2^{1/3} or 2^{5/6}
    # times that. Refuse a target that takes some level below EPS_MIN,
    # or one whose optimum may lie above _EPS_MAX.
    single = fixed and len(levels) == 1
    if single:
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

    # the bounds on lambda that the level marginals' bounds give; a single
    # level's lambda is its marginal at the whole budget, which lies in
    # them, so only bounds wholly outside refuse it before that is known
    try:
        if fixed:
            lo, hi = 2.0 * (c / target) ** 3, 4.0 * (c / target) ** 3
        else:
            lo, hi = 2.0 * (target / (2.0 * c)) ** 1.5, 4.0 * (target / c) ** 1.5
    except OverflowError:
        lo = hi = math.inf
    if single:
        [(only, level)] = levels.items()
        if lo <= sys.float_info.max and hi >= sys.float_info.min:
            lo = hi = -weights[only] * level.sums(target, _DEPS)[0]
    # level budgets in range can still need a lambda past the float range
    # (extreme weights): refuse it rather than solve in inf or in
    # subnormals, or publish it as inf or 0
    if not (lo >= sys.float_info.min and hi <= sys.float_info.max):
        raise out_of_range("the multiplier lambda would fall outside the float range")

    if single:
        # the whole budget goes to the only level that matters; exact
        eps[only] = target
        lam = lo
    else:
        # the shape split, with a = 2 (see the module docstring)
        start = [s * (target / c if fixed else math.sqrt(2.0 * c / target)) for s in cubes]
        x, lam, worst, objective = _newton(levels, weights, program, target, start, lo)
        for i, e in zip(levels, x):
            eps[i] = e
        if worst > 1e-8 * lam:
            raise ConvergenceFailure(
                f"{program}: KKT residual {worst:g} exceeds 1e-8 * lambda ({lam:g})"
            )

    if fixed:
        # _at_most can move an eps: sum the objective at the final ones
        eps = _at_most(eps, target)
        objective = sum(weights[i] * lv.sums(eps[i], _MSE)[0] for i, lv in levels.items())
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
