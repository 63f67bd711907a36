import dataclasses
import json
import math

import numpy as np
import pytest

from hierdp.allocator import allocate_fixed_budget, uniform_allocation
from hierdp.analytics import bias, mse, variance
from hierdp.errors import AllocationMismatch, DomainError, InvalidSplit
import hierdp.evaluation as evaluation
import hierdp.release as release
from hierdp.evaluation import (
    analytic_total_mse,
    compare_allocations,
    integer_splits,
    monte_carlo_moments,
    skewness_bias_curve,
    total_clamp_bias,
    uniform_split,
    weight_sweep,
)
from hierdp.hierarchy import SynthSpec, level_stats, parse_hierarchy, synth_hierarchy

from oracles import majorizes


def _single_node(count: float):
    return parse_hierarchy(f"node_id,parent_id,level,count\nA,,1,{count}\n")


class TestMonteCarloMoments:
    def test_single_node_matches_closed_forms(self):
        h = _single_node(5.0)
        est = monte_carlo_moments(h, uniform_allocation(1, 0.4), 60000, seed=1)
        assert abs(est.bias_sq - bias(5.0, 0.4) ** 2) <= 4.0 * est.se_bias_sq
        assert abs(est.variance - variance(5.0, 0.4)) <= 4.0 * est.se_variance
        assert abs(est.mse - mse(5.0, 0.4)) <= 4.0 * est.se_mse

    def test_json_dict_is_asdict(self, va_hierarchy):
        est = monte_carlo_moments(va_hierarchy, uniform_allocation(3, 1.0), 100, seed=5)
        assert json.dumps(est.to_json_dict(), sort_keys=True) == json.dumps(
            dataclasses.asdict(est), sort_keys=True
        )

    def test_huge_budget_kills_error(self, va_hierarchy):
        est = monte_carlo_moments(va_hierarchy, uniform_allocation(3, 3e8), 200, seed=2)
        assert est.bias_sq < 1e-10
        assert est.variance < 1e-10
        assert est.mse < 1e-10

    def test_va_against_analytic_total(self, va_hierarchy):
        alloc = uniform_allocation(3, 1.0)
        est = monte_carlo_moments(va_hierarchy, alloc, 10000, seed=3)
        assert abs(est.mse - analytic_total_mse(va_hierarchy, alloc)) <= 4.0 * est.se_mse

    def test_decomposition_within_mc_error(self, va_hierarchy):
        est = monte_carlo_moments(va_hierarchy, uniform_allocation(3, 1.0), 2000, seed=4)
        r = est.replicates
        assert est.mse == pytest.approx(
            est.bias_sq + est.variance * (r - 1) / r, rel=1e-9
        )

    def test_power_sums_match_products(self):
        # the in-place cube and fourth power sum the products
        # err*err, (err*err)*err and (err*err)*(err*err) bit for bit
        rng = np.random.default_rng(6)
        err = rng.normal(0.0, 3.0, size=(9, 40))
        acc = evaluation._MomentAccumulator(12)
        acc.add(err.copy(), 2, 3, 12)
        sq = err * err
        want = np.stack([err.sum(axis=0), sq.sum(axis=0),
                         (sq * err).sum(axis=0), (sq * sq).sum(axis=0)])
        assert acc.sums[2].tobytes() == want.tobytes()
        assert acc.per_rep_sq.tobytes() == np.concatenate(
            [np.zeros(3), sq.sum(axis=1)]).tobytes()

    def test_chunking_invisible(self, va_hierarchy, monkeypatch):
        # one chunk against chunks of 128, 128 and 44 replicates, with and
        # without consistency: the per-replicate sums behind mse are
        # identical, the per-node sums only regroup their additions
        alloc = uniform_allocation(3, 0.7)
        for with_hier in (False, True):
            monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", 2**20)
            whole = monte_carlo_moments(va_hierarchy, alloc, 300, 5, with_hier)
            monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", 128 * len(va_hierarchy))
            chunked = monte_carlo_moments(va_hierarchy, alloc, 300, 5, with_hier)
            assert chunked.mse == whole.mse
            assert chunked.se_mse == whole.se_mse
            for field in ("bias_sq", "variance", "se_bias_sq", "se_variance"):
                assert getattr(chunked, field) == pytest.approx(
                    getattr(whole, field), rel=1e-12, abs=0.0
                )

    def test_allocation_must_match_the_tree(self, va_hierarchy):
        alloc = uniform_allocation(2, 1.0)
        with pytest.raises(AllocationMismatch):
            analytic_total_mse(va_hierarchy, alloc)
        with pytest.raises(AllocationMismatch):
            monte_carlo_moments(va_hierarchy, alloc, 100, seed=0)

    def test_replicate_floor(self, va_hierarchy):
        with pytest.raises(DomainError):
            monte_carlo_moments(va_hierarchy, uniform_allocation(3, 1.0), 99, seed=0)


class TestCompareAllocations:
    def test_one_draw_per_level_per_chunk(self, monkeypatch):
        h = synth_hierarchy(SynthSpec(seed=2, fanouts=(8, 12)))
        counted = []
        original = release.centered_uniform_matrix
        monkeypatch.setattr(
            release, "centered_uniform_matrix",
            lambda *args: counted.append(args) or original(*args),
        )
        # 50 replicates per chunk: 150 replicates in 3 chunks, each drawn
        # once per level for all four arms
        monkeypatch.setattr(evaluation, "CHUNK_ELEMENTS", 50 * len(h))
        report = compare_allocations(h, 1.0, (1.0, 1.0, 1.0), 150, seed=7)
        assert len(report.arms) == 4
        assert len(counted) == 3 * 3

    def test_arms_match_one_arm_passes(self, va_hierarchy):
        report = compare_allocations(va_hierarchy, 1.0, (1, 1, 1), 200, seed=3)
        allocs = {"optimized": report.optimized, "uniform": report.uniform}
        for name, alloc in allocs.items():
            for tag, with_hier in (("no_hier", False), ("with_hier", True)):
                alone = monte_carlo_moments(va_hierarchy, alloc, 200, 3, with_hier)
                assert report.arms[f"{name}_{tag}"] == alone

    def test_withheld_level_drops_only_its_with_hier_arm(self, va_hierarchy):
        # weight 0 on level 2 withholds it from the optimized split, and
        # the consistency projection needs a value at every level
        report = compare_allocations(va_hierarchy, 1.0, (1, 0, 1), 200, seed=3)
        assert report.optimized.eps[1] == 0.0
        allocs = {"optimized": report.optimized, "uniform": report.uniform}
        expected = {
            "optimized_no_hier": ("optimized", False),
            "uniform_no_hier": ("uniform", False),
            "uniform_with_hier": ("uniform", True),
        }
        assert set(report.arms) == set(expected)
        for arm, (name, with_hier) in expected.items():
            alone = monte_carlo_moments(va_hierarchy, allocs[name], 200, 3, with_hier)
            assert report.arms[arm] == alone

    def test_single_level_arms_coincide(self):
        h = _single_node(20.0)
        report = compare_allocations(h, 1.0, (1.0,), 500, seed=6)
        opt = report.arms["optimized_no_hier"]
        uni = report.arms["uniform_no_hier"]
        assert opt == uni  # same budget, same streams
        assert report.optimized.eps[0] == pytest.approx(1.0, rel=1e-9)

    def test_skewed_tree_optimized_wins_analytically(self):
        h = synth_hierarchy(SynthSpec(seed=2, fanouts=(8, 12)))
        report = compare_allocations(h, 1.0, (1.0, 1.0, 1.0), 400, seed=7)
        assert report.analytic_mse["optimized"] < report.analytic_mse["uniform"]
        assert report.bias_sq_ratio > 1.0

    def test_mse_decreases_with_budget(self):
        h = synth_hierarchy(SynthSpec(seed=3, fanouts=(6,)))
        values = []
        for eps_total in (0.25, 0.5, 1.0, 2.0):
            report = compare_allocations(h, eps_total, (1.0, 1.0), 150, seed=8)
            values.append(
                (report.analytic_mse["optimized"], report.analytic_mse["uniform"])
            )
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(values, values[1:]))

    def test_json_shape(self, va_hierarchy):
        report = compare_allocations(va_hierarchy, 1.0, (1, 1, 1), 150, seed=9)
        d = report.to_json_dict()
        assert set(d["arms"]) == {
            "optimized_no_hier",
            "optimized_with_hier",
            "uniform_no_hier",
            "uniform_with_hier",
        }


class TestOpenMomentCancellation:
    """The root ``r`` (count 1) over one leaf of count G: with
    consistency the leaf takes the root's released value, so its error
    is the root's shifted by 1 - G. From G = 1e3 on, both arms' splits
    are the same for every G, so they draw the same noise, and the
    spread of the error does not depend on G. Its mean does, by design:
    ``bias_sq`` and ``mse`` grow with G, and are not compared."""

    GAPS = ("1e3", "1e5", "1e7", "1e9")

    @staticmethod
    def _tree(leaf: str):
        return parse_hierarchy(f"node_id,parent_id,level,count\nr,,1,1\nr-1,r,2,{leaf}\n")

    def test_the_split_does_not_depend_on_the_gap(self):
        splits = {
            allocate_fixed_budget(level_stats(self._tree(leaf)), (1.0, 1.0), 1.0).eps
            for leaf in self.GAPS
        }
        assert len(splits) == 1
        assert list(splits.pop()) == pytest.approx([0.44334875, 0.55665125], rel=1e-8)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 14: power sums about zero cancel "
                       "once the mean error dwarfs its spread")
    def test_spread_moments_do_not_depend_on_the_gap(self):
        arms = ("optimized_with_hier", "uniform_with_hier")
        first = None
        for leaf in self.GAPS:
            report = compare_allocations(self._tree(leaf), 1.0, (1.0, 1.0), 1000, seed=0)
            spread = {arm: (report.arms[arm].variance, report.arms[arm].se_variance)
                      for arm in arms}
            first = first or spread
            # not 1e-9: at G = 1e9 the leaf's error is itself rounded to
            # ulp(1e9) ~ 1.2e-7, and an exact two-pass sum over those
            # errors moves se_variance by ~9e-8 relative
            for arm in arms:
                assert spread[arm] == pytest.approx(first[arm], rel=1e-6), (leaf, arm)


@pytest.fixture(scope="module")
def small_tree():
    return synth_hierarchy(SynthSpec(seed=4, fanouts=(6, 9)))


class TestWeightSweep:

    def test_single_point(self, small_tree):
        rows = weight_sweep(small_tree, 1.0, [1.0 / 3.0])
        assert len(rows) == 1
        assert rows[0].total_mse == pytest.approx(sum(rows[0].mse_levels), rel=1e-12)

    def test_monotone_level_mse(self, small_tree):
        grid = [0.1, 0.25, 0.4, 1.0 / 3.0, 0.55, 0.7, 0.85]
        grid.sort()
        rows = weight_sweep(small_tree, 2.0, grid)
        m3 = [r.mse_levels[2] for r in rows]
        m1 = [r.mse_levels[0] for r in rows]
        m2 = [r.mse_levels[1] for r in rows]
        assert all(a >= b - 1e-9 * abs(a) for a, b in zip(m3, m3[1:]))
        assert all(a <= b + 1e-9 * abs(b) for a, b in zip(m1, m1[1:]))
        assert all(a <= b + 1e-9 * abs(b) for a, b in zip(m2, m2[1:]))
        # the prioritized level's budget grows with its weight, so the
        # largest w3 on the grid carries the largest eps_3
        eps3 = [r.allocation.eps[2] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(eps3, eps3[1:]))
        assert max(eps3) == eps3[-1]

    def test_rejects_bad_w3(self, small_tree):
        with pytest.raises(DomainError):
            weight_sweep(small_tree, 1.0, [0.0])
        with pytest.raises(DomainError):
            weight_sweep(small_tree, 1.0, [1.0])

    def test_rejects_wrong_depth(self):
        h = synth_hierarchy(SynthSpec(seed=5, fanouts=(4,)))
        with pytest.raises(DomainError):
            weight_sweep(h, 1.0, [0.5])

    def test_empirical_column(self, small_tree):
        rows = weight_sweep(small_tree, 1.0, [0.5], replicates=150, seed=0)
        assert rows[0].empirical_mse is not None
        assert rows[0].empirical_mse > 0

    def test_empirical_column_is_each_allocations_mse(self, small_tree):
        rows = weight_sweep(small_tree, 1.0, [0.2, 0.5, 0.8], replicates=150, seed=1)
        for row in rows:
            alone = monte_carlo_moments(small_tree, row.allocation, 150, seed=1)
            assert row.empirical_mse == alone.mse


class TestSplits:
    def test_enumeration_count(self):
        # stars and bars: C(total + parts - 1, parts - 1)
        assert len(list(integer_splits(6, 2))) == 7
        assert len(list(integer_splits(10, 3))) == 66

    def test_uniform_split(self):
        assert uniform_split(100, 2) == (50, 50)
        assert uniform_split(100, 3) == (34, 33, 33)
        assert uniform_split(7, 4) == (2, 2, 2, 1)

    def test_invalid(self):
        with pytest.raises(InvalidSplit):
            list(integer_splits(-1, 2))


class TestSkewnessCurve:
    def test_pinned_even_split_value(self):
        # two regions of 50 at eps 0.1: each contributes e^{-5}/(2*0.1)
        got = total_clamp_bias((50, 50), 0.1)
        assert got == pytest.approx(2 * 5 * math.exp(-5.0), abs=1e-5)

    def test_even_split_beats_extreme(self):
        even = total_clamp_bias((50, 50), 0.1)
        extreme = total_clamp_bias((100, 0), 0.1)
        assert even < extreme

    def test_single_region_trivial(self):
        points = skewness_bias_curve(30, 1, [0.5])
        assert len(points) == 1
        assert points[0].split == (30,)

    def test_uniform_minimizes_small_exhaustive(self):
        for eps in (0.05, 0.2, 1.0):
            points = skewness_bias_curve(20, 3, [eps])
            best = min(points, key=lambda p: p.bias)
            assert tuple(sorted(best.split, reverse=True)) == uniform_split(20, 3)

    def test_uniform_minimizes_exhaustive_sweep(self):
        # exhaustive over splits for each pair; totals capped per region
        # count to keep the enumeration around 10^5 splits overall
        caps = {2: 200, 3: 60, 4: 30, 5: 20}
        for regions, max_total in caps.items():
            for total in range(1, max_total + 1):
                splits = np.array(list(integer_splits(total, regions)), dtype=float)
                for eps in (0.05, 0.5, 2.0):
                    biases = np.exp(-eps * splits).sum(axis=1) / (2 * eps)
                    best = splits[int(np.argmin(biases))]
                    assert tuple(int(x) for x in sorted(best, reverse=True)) == \
                        uniform_split(total, regions), (regions, total, eps)

    def test_majorization_orders_bias(self):
        # walk a chain of ever more skewed splits of 60 into 3 parts
        chain = [(20, 20, 20), (30, 20, 10), (40, 15, 5), (50, 10, 0), (60, 0, 0)]
        for a, b in zip(chain, chain[1:]):
            assert majorizes(b, a)
            assert total_clamp_bias(b, 0.1) >= total_clamp_bias(a, 0.1)

    def test_refuses_more_points_than_the_cap(self):
        # C(103, 3) splits of 100 into 4 regions times 6 eps values is
        # 1,061,106 points: counted, not enumerated
        grid = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
        assert math.comb(103, 3) * len(grid) == 1_061_106
        with pytest.raises(InvalidSplit, match="1061106 points"):
            skewness_bias_curve(100, 4, grid)

    def test_cap_is_inclusive(self, monkeypatch):
        # 11 splits of 10 into 2 regions times 2 eps values
        monkeypatch.setattr(evaluation, "MAX_SKEW_POINTS", 22)
        assert len(skewness_bias_curve(10, 2, [0.1, 0.5])) == 22
        monkeypatch.setattr(evaluation, "MAX_SKEW_POINTS", 21)
        with pytest.raises(InvalidSplit):
            skewness_bias_curve(10, 2, [0.1, 0.5])

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1e-320, math.inf, math.nan])
    def test_rejects_eps_the_closed_forms_reject(self, eps):
        # 1e-320 made every bias inf, and inf and nan gave nan rows
        with pytest.raises(DomainError):
            skewness_bias_curve(3, 2, [0.5, eps])

    def test_curve_matches_per_region_bias(self):
        split = (12, 5, 3)
        eps = 0.3
        direct = sum(bias(float(n), eps) for n in split)
        assert total_clamp_bias(split, eps) == pytest.approx(direct, rel=1e-12)
