import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hierdp.allocator as allocator
from hierdp.allocator import (
    allocate_fixed_budget,
    allocate_target_mse,
    level_marginal,
    uniform_allocation,
    weighted_total_mse,
)
from hierdp.errors import DomainError, NoPositiveWeight
from hierdp.hierarchy import LevelStats, SynthSpec, level_stats, synth_hierarchy
from hierdp.mechanism import _Level, mse

from oracles import bisection_split, central_difference, grid_search_two_level


def _stats(*levels):
    return LevelStats(tuple(np.asarray(lv, dtype=float) for lv in levels))


def _random_consistent_stats(rng, depth, max_fanout=4):
    """Random complete tree, parents summed from children."""
    fanouts = [int(rng.integers(1, max_fanout + 1)) for _ in range(depth - 1)]
    shape = [1]
    for f in fanouts:
        shape.append(shape[-1] * f)
    leaves = rng.integers(0, 300, size=shape[-1]).astype(float)
    levels = [leaves]
    for f in reversed(fanouts):
        levels.append(levels[-1].reshape(-1, f).sum(axis=1))
    return _stats(*reversed(levels))


class TestLevelMarginal:
    def test_single_zero_count_node(self):
        stats = _stats([10.0], [0.0])
        for eps in (0.3, 1.0, 2.5):
            assert level_marginal(stats, (1.0, 3.0), 2, eps) == pytest.approx(
                -2.0 * 3.0 / eps**3, rel=1e-14
            )

    def test_huge_counts_hit_lower_bound(self):
        stats = _stats([1e9] * 4)
        assert level_marginal(stats, (2.0,), 1, 0.5) == pytest.approx(
            -4.0 * 4 * 2.0 / 0.5**3, rel=1e-6
        )

    def test_matches_finite_difference_of_level_mse(self):
        rng = np.random.default_rng(3)
        counts = rng.uniform(0.0, 400.0, size=6)
        stats = _stats(counts)
        w = 1.7

        def level_mse(e):
            return w * sum(mse(float(n), e) for n in counts)

        for eps in (0.2, 0.9, 1.8):
            approx = central_difference(level_mse, eps, 1e-6)
            assert level_marginal(stats, (w,), 1, eps) == pytest.approx(
                approx, rel=1e-6
            )

    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            level_marginal(_stats([1.0], [2.0]), (0.0, 1.0), 1, 1.0)

    @pytest.mark.parametrize("w", [(1.0,), (1.0, 1.0, 1.0, 1.0)])
    def test_one_weight_per_level(self, w):
        # the check the solver makes, with its message; one weight for
        # three levels raised IndexError and four passed silently
        stats = _stats([6.0], [2.0, 4.0], [1.0, 1.0, 2.0, 2.0])
        message = f"^stats has 3 levels but {len(w)} weights given$"
        with pytest.raises(DomainError, match=message):
            level_marginal(stats, w, 1, 1.0)
        with pytest.raises(DomainError, match=message):
            allocate_fixed_budget(stats, w, 1.0)


class TestFixedBudget:
    def test_single_level_gets_everything(self):
        alloc = allocate_fixed_budget(_stats([5.0, 7.0]), (1.0,), 2.5)
        assert alloc.eps[0] == pytest.approx(2.5, rel=1e-12)
        assert alloc.program == "fixed_budget"

    def test_pinned_two_level_against_grid_oracle(self):
        stats = _stats([100.0], [50.0, 50.0])
        alloc = allocate_fixed_budget(stats, (1.0, 1.0), 1.0)
        oracle_obj, oracle_e1 = grid_search_two_level(
            100.0, [50.0, 50.0], (1.0, 1.0), 1.0, step=1e-4
        )
        assert alloc.objective_value == pytest.approx(oracle_obj, rel=1e-8)
        assert alloc.eps[0] == pytest.approx(oracle_e1, abs=2e-4)
        # stationarity: both level marginals equal -multiplier
        for lv in (1, 2):
            resid = level_marginal(stats, (1.0, 1.0), lv, alloc.eps[lv - 1])
            assert abs(resid + alloc.multiplier) <= 1e-8 * alloc.multiplier

    @pytest.mark.parametrize("weights", [(1.0, 2.0, 1.0), (1.0, 0.0, 1.0)])
    def test_geometric_split_where_mse_scales_as_inverse_eps_squared(self, weights):
        # with every count N, at N = 0 or with eps * N large, each count's
        # mse is c / eps**2 for one c, and the optimum is the geometric
        # split T (w_l k_l)^(1/3) / sum (w k)^(1/3) (Cormode et al., ICDE
        # 2012); at N = 10 the clamp bends the split away from it
        sizes, total = (1, 30, 900), 1.0
        geometric = np.cbrt(np.multiply(weights, sizes))
        geometric *= total / geometric.sum()

        def split(n):
            stats = _stats(*(np.full(k, float(n)) for k in sizes))
            return np.array(allocate_fixed_budget(stats, weights, total).eps)

        for n in (0, 1e4):
            np.testing.assert_allclose(split(n), geometric, rtol=1e-12, atol=0.0)
        released = geometric > 0
        miss = split(10)[released] / geometric[released] - 1
        assert np.abs(miss).max() > 0.01

    def test_budget_always_binding(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            stats = _random_consistent_stats(rng, int(rng.integers(1, 5)))
            eps_total = float(rng.uniform(0.2, 6.0))
            alloc = allocate_fixed_budget(stats, (1.0,) * stats.depth, eps_total)
            assert sum(alloc.eps) == pytest.approx(eps_total, rel=1e-9)

    def test_bottom_heavy_under_equal_weights(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            stats = _random_consistent_stats(rng, int(rng.integers(2, 5)))
            alloc = allocate_fixed_budget(
                stats, (1.0,) * stats.depth, float(rng.uniform(0.5, 5.0))
            )
            eps = alloc.eps
            assert all(
                eps[i] <= eps[i + 1] * (1 + 1e-9) for i in range(len(eps) - 1)
            )

    def test_beats_uniform(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        for eps_total in (0.3, 1.0, 3.0):
            opt = allocate_fixed_budget(stats, (1.0, 1.0, 1.0), eps_total)
            uni = uniform_allocation(3, eps_total)
            uni_obj = weighted_total_mse(stats, (1.0, 1.0, 1.0), uni.eps)
            assert opt.objective_value <= uni_obj

    def test_more_weight_never_less_budget(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        previous = 0.0
        for w3 in (0.2, 0.4, 0.6, 0.8):
            w = ((1 - w3) / 2, (1 - w3) / 2, w3)
            alloc = allocate_fixed_budget(stats, w, 2.0)
            assert alloc.eps[2] >= previous
            previous = alloc.eps[2]

    def test_doubling_budget_never_shrinks_a_level(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        small = allocate_fixed_budget(stats, (1.0, 2.0, 4.0), 1.0)
        big = allocate_fixed_budget(stats, (1.0, 2.0, 4.0), 2.0)
        assert all(b >= s for s, b in zip(small.eps, big.eps))

    def test_zero_weight_level_gets_nothing(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        alloc = allocate_fixed_budget(stats, (1.0, 0.0, 1.0), 2.0)
        assert alloc.eps[1] == 0.0
        assert alloc.eps[0] + alloc.eps[2] == pytest.approx(2.0, rel=1e-9)

    def test_all_zero_weights_rejected(self, va_hierarchy):
        with pytest.raises(NoPositiveWeight):
            allocate_fixed_budget(level_stats(va_hierarchy), (0.0, 0.0, 0.0), 1.0)

    def test_counts_that_are_not_a_vector_rejected(self):
        stats = LevelStats((np.array([4.0]), np.ones((2, 2))))
        with pytest.raises(DomainError, match=r"^counts must be a 1-d vector, got shape \(2, 2\)$"):
            allocate_fixed_budget(stats, (1.0, 1.0), 1.0)

    def test_bad_budget_rejected(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        with pytest.raises(DomainError):
            allocate_fixed_budget(stats, (1.0, 1.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            allocate_fixed_budget(stats, (1.0, 1.0, 1.0), -2.0)


class TestTargetMse:
    def test_single_zero_count_node_closed_form(self):
        # a single empty region: mse is exactly 1/eps^2, so eps = 1/sqrt(tau)
        for tau in (0.25, 4.0, 100.0):
            alloc = allocate_target_mse(_stats([0.0]), (1.0,), tau)
            assert alloc.eps[0] == pytest.approx(tau**-0.5, rel=1e-9)

    def test_hits_target_exactly(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        for tau in (5.0, 40.0, 300.0):
            alloc = allocate_target_mse(stats, (1.0, 1.0, 1.0), tau)
            achieved = weighted_total_mse(stats, (1.0, 1.0, 1.0), alloc.eps)
            assert achieved == pytest.approx(tau, rel=1e-9)

    def test_roundtrip_duality(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        fixed = allocate_fixed_budget(stats, (1.0, 1.0, 1.0), 1.0)
        back = allocate_target_mse(stats, (1.0, 1.0, 1.0), fixed.objective_value)
        assert back.eps_total_used == pytest.approx(1.0, abs=1e-4)

    def test_tau_sweep_monotone_and_bottom_heavy(self):
        # census-shaped instance: tighter error targets cost more budget,
        # and the block level always takes the majority share
        h = synth_hierarchy(SynthSpec(seed=0))
        stats = level_stats(h)
        previous_total = np.inf
        for tau in (5e3, 1e4, 2e4, 4e4):
            alloc = allocate_target_mse(stats, (1.0, 1.0, 1.0), tau)
            assert alloc.eps_total_used < previous_total
            previous_total = alloc.eps_total_used
            assert alloc.eps[2] > 0.5 * alloc.eps_total_used

    def test_multiplier_positive(self, va_hierarchy):
        alloc = allocate_target_mse(
            level_stats(va_hierarchy), (1.0, 1.0, 1.0), 25.0
        )
        assert alloc.multiplier > 0
        assert alloc.program == "target_mse"

    def test_bad_tau_rejected(self, va_hierarchy):
        with pytest.raises(DomainError):
            allocate_target_mse(level_stats(va_hierarchy), (1.0, 1.0, 1.0), 0.0)


class TestBudgetRange:
    """A budget that takes some level's eps below EPS_MIN, or the level
    solves past the largest eps the marginal's slope can carry, is
    refused before any solve."""

    @pytest.mark.parametrize("name,value", [
        ("eps_total", 1e-103), ("eps_total", 1e300), ("tau", 1e-300),
        ("eps_total", 1e-20), ("tau", 1e200),
    ])
    def test_refused_before_solving(self, va_hierarchy, monkeypatch, name, value):
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(allocator, "_root", solve)
        allocate = allocate_fixed_budget if name == "eps_total" else allocate_target_mse
        with pytest.raises(DomainError) as info:
            allocate(level_stats(va_hierarchy), (1.0, 1.0, 1.0), value)
        assert str(info.value) == (
            f"{name} {value!r} is out of range for these counts and weights: "
            "level budgets would fall outside [1e-12, 1.15e+77]"
        )

    @pytest.mark.parametrize("name,value,weights", [
        # level budgets of ~1e-4 and 5e-12, but lambda past 1e308
        ("tau", 1e308, (0.0, 1e300)),
        ("eps_total", 1e-11, (1e300, 1e300)),
        # lambda below the smallest normal float, or 0.0
        ("tau", 1e-300, (1e-283, 1e-283)),
        ("tau", 1e-300, (1e-200, 1e-200)),
        # the whole budget to one level: lambda is its marginal there
        ("eps_total", 1e-11, (0.0, 1e300)),
        ("eps_total", 1e70, (0.0, 1e-300)),
    ])
    def test_multiplier_past_the_float_range_refused(self, monkeypatch, name, value, weights):
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(allocator, "_root", solve)
        allocate = allocate_fixed_budget if name == "eps_total" else allocate_target_mse
        with pytest.raises(DomainError) as info:
            allocate(_stats([0.5], [0.5]), weights, value)
        assert str(info.value) == (
            f"{name} {value!r} is out of range for these counts and weights: "
            "the multiplier lambda would fall outside the float range"
        )

    @pytest.mark.parametrize("name,value", [
        ("eps_total", 1e-11), ("eps_total", 1e77), ("tau", 1e-152), ("tau", 1e24),
    ])
    def test_extreme_budgets_in_range_solve(self, va_hierarchy, name, value):
        allocate = allocate_fixed_budget if name == "eps_total" else allocate_target_mse
        alloc = allocate(level_stats(va_hierarchy), (1.0, 1.0, 1.0), value)
        assert 1e-12 <= min(alloc.eps) and max(alloc.eps) <= 1.15e77

    def test_lower_limit_puts_the_smallest_level_at_eps_min(self):
        # with zero counts mse is exactly k/eps^2, so level l's share of
        # the budget is exactly k_l^(1/3) / C
        stats = _stats([0.0], [0.0, 0.0])
        limit = 1e-12 * (1.0 + 2.0 ** (1.0 / 3.0))
        alloc = allocate_fixed_budget(stats, (1.0, 1.0), limit * (1.0 + 1e-6))
        assert alloc.eps[0] == pytest.approx(1e-12, rel=2e-6)
        with pytest.raises(DomainError):
            allocate_fixed_budget(stats, (1.0, 1.0), limit * (1.0 - 1e-6))

    def test_target_just_inside_the_lower_limit_solves(self):
        # the level root sits a hair above EPS_MIN, so at most of the lambdas
        # the outer solve tries, the inner root is clamped there and the
        # residual is flat; its slope must not make Newton creep
        tau = 1e24 * (1.0 - 1e-9)
        alloc = allocate_target_mse(_stats([5.0]), (1.0,), tau)
        assert alloc.eps[0] == pytest.approx(1e-12 * (1.0 + 5e-10), rel=1e-12)
        assert alloc.objective_value == pytest.approx(tau, rel=1e-12)


class TestUniform:
    def test_three_levels(self):
        assert uniform_allocation(3, 3.0).eps == (1.0, 1.0, 1.0)

    def test_division(self):
        alloc = uniform_allocation(3, 2.0)
        assert all(e == pytest.approx(2.0 / 3.0) for e in alloc.eps)

    def test_single_level(self):
        assert uniform_allocation(1, 0.7).eps == (0.7,)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            uniform_allocation(0, 1.0)
        with pytest.raises(DomainError):
            uniform_allocation(2, 0.0)


class TestOpenBudgetOverspend:
    def test_level_budgets_sum_to_at_most_the_total(self):
        # levels compose sequentially, so a release spends the exact sum
        # of its level budgets
        totals = np.logspace(-2, 2, 25).tolist()
        over = []
        for fanouts in ((128, 164), (8, 6), (3, 3, 3)):
            for seed in range(4):
                stats = level_stats(synth_hierarchy(SynthSpec(seed=seed, fanouts=fanouts)))
                weights = (1.0,) * stats.depth
                for total in totals:
                    alloc = allocate_fixed_budget(stats, weights, total)
                    if sum(map(Fraction, alloc.eps)) > Fraction(total):
                        over.append((fanouts, seed, total))
                    assert alloc.eps_total_used <= total
        for depth in (2, 3, 5, 7):
            for total in totals:
                alloc = uniform_allocation(depth, total)
                if sum(map(Fraction, alloc.eps)) > Fraction(total):
                    over.append((depth, total))
                assert alloc.eps_total_used <= total
        assert over == []


class TestAllocationJson:
    def test_shape(self, va_hierarchy):
        alloc = allocate_fixed_budget(level_stats(va_hierarchy), (1, 1, 1), 3.0)
        d = alloc.to_json_dict()
        assert set(d) == {
            "eps", "eps_total", "objective", "multiplier", "program", "weights",
        }
        assert len(d["eps"]) == 3


def _noisy_prior(rng, fanouts):
    """A real-valued 3-level prior: lognormal leaves, parents summed from
    their children, and every count Laplace-noised and clamped at 0, so
    no two counts are equal."""
    leaves = rng.lognormal(2.0, 1.5, fanouts[0] * fanouts[1])
    mid = leaves.reshape(fanouts).sum(axis=1)
    levels = [np.array([mid.sum()]), mid, leaves]
    return _stats(*(np.maximum(0.0, lv + rng.laplace(size=lv.size)) for lv in levels))


class TestBisectionOracle:
    @pytest.mark.parametrize("program", ["fixed_budget", "target_mse"])
    def test_split_matches_nested_bisection(self, program):
        # ten random priors a program, up to 2,000 leaves, weights over a
        # factor 50 and level budgets over a factor 100: each split is
        # pinned to a nested bisection to float resolution, not to the
        # solver's own path
        rng = np.random.default_rng(7 if program == "fixed_budget" else 8)
        for _ in range(10):
            stats = _noisy_prior(rng, (int(rng.integers(2, 41)), int(rng.integers(2, 51))))
            w = tuple(np.exp(rng.uniform(-2.0, 2.0, 3)))
            if program == "fixed_budget":
                target, allocate = 10 ** rng.uniform(-1.0, 1.0), allocate_fixed_budget
            else:
                e0 = 10 ** rng.uniform(-1.5, 0.5)
                target = sum(wl * lv.size for wl, lv in zip(w, stats.counts)) / e0**2
                allocate = allocate_target_mse
            np.testing.assert_allclose(
                allocate(stats, w, target).eps,
                bisection_split(stats.counts, w, program, target),
                rtol=1e-10, atol=0.0,
            )


class TestSolvePasses:
    @pytest.mark.parametrize("program", ["fixed", "target"])
    def test_no_second_solve_at_the_final_lambda(self, monkeypatch, va_hierarchy, program):
        # every level pass runs inside the outer root search (two _root
        # calls deep): the level roots at the final lambda are those of
        # the residual's last call, not solved again
        depth, passes = [0], []
        real_root, real_sums = allocator._root, _Level.mse_deps

        def root(*args):
            depth[0] += 1
            try:
                return real_root(*args)
            finally:
                depth[0] -= 1

        def sums(*args):
            passes.append(depth[0])
            return real_sums(*args)

        monkeypatch.setattr(allocator, "_root", root)
        monkeypatch.setattr(_Level, "mse_deps", sums)
        stats = level_stats(va_hierarchy)
        if program == "fixed":
            allocate_fixed_budget(stats, (1.0, 1.0, 1.0), 1.0)
        else:
            allocate_target_mse(stats, (1.0, 1.0, 1.0), 2000.0)
        assert passes.count(2) == len(passes) > 0


    @pytest.mark.parametrize("program", ["fixed", "target"])
    def test_level_roots_start_from_the_last_lambda(self, monkeypatch, program):
        # CI's noisy prior: each level root starts from the one at the
        # previous lambda, scaled, so the 20,000 distinct leaf counts are
        # summed at most 20 times a split; starting every root at its
        # bracket midpoint sums them 36 (fixed) and 30 (target) times
        rng = np.random.default_rng(2)
        stats = _stats(*(np.maximum(0.0, c + rng.laplace(size=n))
                         for c, n in ((400000.0, 1), (4000.0, 100), (20.0, 20000))))
        passes, real_sums = [0], _Level.mse_deps

        def sums(level, *args):
            passes[0] += level.vals.size == 20000
            return real_sums(level, *args)

        monkeypatch.setattr(_Level, "mse_deps", sums)
        if program == "fixed":
            allocate_fixed_budget(stats, (1.0, 1.0, 1.0), 2.0)
        else:
            allocate_target_mse(stats, (1.0, 1.0, 1.0), 2000.0)
        assert 0 < passes[0] <= 20


class TestLevel:
    @pytest.mark.parametrize("kind", ["integer", "distinct", "signed_zeros", "one"])
    def test_same_values_and_multiplicities_as_unique(self, kind):
        rng = np.random.default_rng(4)
        counts = {
            "integer": np.rint(rng.lognormal(3.0, 1.2, 50_000)),
            "distinct": rng.uniform(0.0, 1e4, 50_000),
            "signed_zeros": np.array([0.0, -0.0, 2.0, -0.0, 0.0, 2.0, 1.0]),
            "one": np.array([3.0]),
        }[kind]
        level = allocator._Level(counts)
        vals, mults = np.unique(counts, return_counts=True)
        assert level.vals.tobytes() == vals.tobytes()
        assert level.k == float(mults.sum())
        if vals.size == counts.size:
            assert level.mults is None
        else:
            assert level.mults.tobytes() == mults.astype(float).tobytes()

    def test_peak_is_what_it_keeps(self):
        # one copy sorted in place and one mask: on 200,000 distinct
        # counts the level keeps 5.08 MB (the values and the kernels'
        # scratch) and peaks there with Python 3.11, where
        # np.unique(..., return_counts=True) peaked at 6.6 MB
        counts = np.random.default_rng(0).uniform(0.0, 1e4, 200_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            level = allocator._Level(counts)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert level.mults is None
        assert peak - base <= kept - base + 0.5 * 2**20
