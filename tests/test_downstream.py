import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from hierdp import downstream
from hierdp.downstream import (
    WeightFunction,
    compare_misallocation,
    misallocation_stats,
    proportions,
    tract_release,
    weighted_shares,
)
from hierdp.allocator import allocate_fixed_budget, uniform_allocation
from hierdp.errors import DegenerateWeights, DomainError, ZeroTotal
from hierdp.hierarchy import level_stats, parse_hierarchy
from hierdp.release import ReleaseEngine

from oracles import se_bias_sq_from_cov


class TestProportions:
    def test_tract_counts(self):
        assert proportions([300.0, 150.0]).tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_single_group(self):
        assert proportions([42.0]).tolist() == [1.0]

    def test_three_groups(self):
        assert proportions([1.0, 1.0, 2.0]).tolist() == [0.25, 0.25, 0.5]

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            counts = rng.uniform(0, 100, size=int(rng.integers(1, 12)))
            if counts.sum() == 0:
                continue
            assert proportions(counts).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            proportions([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            proportions([3.0, -1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        # checked before the total: inf gave [0, nan], nan a ZeroTotal
        with pytest.raises(DomainError, match="^counts must be finite, got"):
            proportions([5.0, bad])


class TestWeightedShares:
    def test_linear_is_proportional(self):
        counts = [120.0, 80.0, 100.0]
        shares = weighted_shares(counts, WeightFunction.LINEAR)
        assert np.allclose(shares, proportions(counts), atol=1e-15)

    def test_quadratic_pinned(self):
        shares = weighted_shares([3.0, 1.0], WeightFunction.QUADRATIC)
        assert shares.tolist() == pytest.approx([0.9, 0.1], abs=1e-12)

    def test_equal_counts_equal_shares(self):
        for w in WeightFunction:
            shares = weighted_shares([5.0] * 4, w)
            assert np.allclose(shares, 0.25, atol=1e-12)

    def test_log_compresses_toward_equal(self):
        counts = [900.0, 100.0]
        log_shares = weighted_shares(counts, WeightFunction.LOG)
        lin_shares = weighted_shares(counts, WeightFunction.LINEAR)
        quad_shares = weighted_shares(counts, WeightFunction.QUADRATIC)
        assert log_shares[0] < lin_shares[0] < quad_shares[0]

    def test_probability_vector(self):
        rng = np.random.default_rng(2)
        for w in WeightFunction:
            for _ in range(50):
                counts = rng.uniform(0, 50, size=int(rng.integers(2, 9)))
                if counts.sum() == 0:
                    continue
                shares = weighted_shares(counts, w)
                assert shares.min() >= 0
                assert shares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_parse(self):
        assert WeightFunction.parse(" Log ") is WeightFunction.LOG
        with pytest.raises(DomainError):
            WeightFunction.parse("cubic")


class TestMisallocationStats:
    def test_noiseless_is_zero(self, tract_blocks):
        truth = np.tile(tract_blocks, (1000, 1))
        stats = misallocation_stats(tract_blocks, truth, WeightFunction.LINEAR)
        assert stats.bias_sq_pct == 0.0
        assert stats.variance_pct == 0.0
        assert stats.mse_pct == 0.0
        assert stats.excluded_replicates == 0

    def test_json_dict_is_asdict(self, tract_blocks):
        noisy = np.random.default_rng(0).poisson(tract_blocks, (1000, len(tract_blocks)))
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.LOG)
        assert json.dumps(stats.to_json_dict(), sort_keys=True) == json.dumps(
            dataclasses.asdict(stats), sort_keys=True
        )

    @pytest.mark.parametrize("shape", ["flat", "extra_column", "three_axes"])
    def test_shape_checked(self, tract_blocks, shape):
        n = len(tract_blocks)
        noisy = {
            "flat": np.tile(tract_blocks, 1000),
            "extra_column": np.ones((1000, n + 1)),
            "three_axes": np.ones((2, 1000, n)),
        }[shape]
        with pytest.raises(DomainError) as info:
            misallocation_stats(tract_blocks, noisy, WeightFunction.LINEAR)
        assert str(info.value) == (
            f"noisy counts must have one row per replicate and {n} "
            f"columns, got shape {noisy.shape}"
        )

    def test_replicate_floor(self, tract_blocks):
        with pytest.raises(DomainError):
            misallocation_stats(
                tract_blocks, np.tile(tract_blocks, (999, 1)), WeightFunction.LINEAR
            )

    def test_all_zero_replicates_excluded(self, tract_blocks):
        zeros = np.zeros((1000, len(tract_blocks)))
        with pytest.raises(DegenerateWeights):
            misallocation_stats(tract_blocks, zeros, WeightFunction.LINEAR)

    def test_partial_exclusion_counted(self, tract_blocks):
        noisy = np.tile(tract_blocks, (1500, 1))
        noisy[::3] = 0.0
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.LINEAR)
        assert stats.excluded_replicates == 500
        assert stats.replicates_used + stats.excluded_replicates == 1500

    def test_negative_counts_rejected(self, tract_blocks):
        noisy = np.tile(tract_blocks, (1000, 1))
        noisy[3, 0] = -1.0
        with pytest.raises(DomainError):
            misallocation_stats(tract_blocks, noisy, WeightFunction.LINEAR)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_counts_rejected(self, bad):
        # an inf entry passed the sign check and made every statistic NaN,
        # which to_json_dict then carried into invalid JSON
        noisy = np.tile([5.0, 3.0], (1000, 1))
        noisy[3, 0] = bad
        with pytest.raises(DomainError, match="^noisy counts must be finite and nonnegative$"):
            misallocation_stats([5.0, 3.0], noisy, WeightFunction.LINEAR)

    @pytest.mark.parametrize("w", list(WeightFunction))
    def test_matches_per_row_shares(self, tract_blocks, w):
        # reference: shares of each usable replicate computed one at a
        # time, for the tract and for a lone block, whose shares never move
        for blocks in (tract_blocks, tract_blocks[:1]):
            noisy = tract_release(blocks, 0.05, 1000, 3)["optimized"]
            noisy[::7] = 0.0
            stats = misallocation_stats(blocks, noisy, w)
            truth = weighted_shares(blocks, w)
            errors = np.array(
                [
                    100.0 * (weighted_shares(row, w) - truth)
                    for row in noisy
                    if row.sum() > 0
                ]
            )
            kept = len(errors)
            assert stats.replicates_used == kept
            assert stats.excluded_replicates == 1000 - kept
            assert np.allclose(
                stats.per_group_mean_error, errors.mean(axis=0), rtol=1e-9, atol=1e-12
            )
            assert np.allclose(
                stats.per_group_var_error, errors.var(axis=0, ddof=1), rtol=1e-9
            )
            per_rep_sq = (errors**2).sum(axis=1)
            centered_sq = ((errors - errors.mean(axis=0)) ** 2).sum(axis=1)
            assert stats.se_mse_pct == pytest.approx(
                per_rep_sq.std(ddof=1) / math.sqrt(kept), rel=1e-9
            )
            assert stats.se_variance_pct == pytest.approx(
                centered_sq.std(ddof=1) / math.sqrt(kept), rel=1e-9
            )
            assert stats.se_bias_sq_pct == pytest.approx(se_bias_sq_from_cov(errors), rel=1e-9)

    def test_jensen_direction_quadratic_positive(self, tract_blocks):
        noisy = tract_release(tract_blocks, 1.0, 3000, 0)["optimized"]
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.QUADRATIC)
        assert stats.jensen_gap > 0.0

    def test_jensen_direction_log_negative(self, tract_blocks):
        noisy = tract_release(tract_blocks, 1.0, 3000, 0)["optimized"]
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.LOG)
        assert stats.jensen_gap < 0.0

    def test_linear_jensen_exactly_zero(self, tract_blocks):
        noisy = tract_release(tract_blocks, 1.0, 1000, 0)["uniform"]
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.LINEAR)
        assert stats.jensen_gap == pytest.approx(0.0, abs=1e-12)

    def test_mse_decomposition(self, tract_blocks):
        noisy = tract_release(tract_blocks, 1.0, 1000, 0)["optimized"]
        stats = misallocation_stats(tract_blocks, noisy, WeightFunction.LINEAR)
        r = stats.replicates_used
        assert stats.mse_pct == pytest.approx(
            stats.bias_sq_pct + stats.variance_pct * (r - 1) / r, rel=1e-9
        )


def _refuse_draw(*args):
    raise AssertionError("no release may be drawn")


class TestTractPrivatizer:
    def test_empty_blocks(self):
        with pytest.raises(DomainError):
            tract_release([], 1.0, 10, 0)

    @pytest.mark.parametrize("bad, message", [
        (math.inf, "counts must be finite, got inf"),
        (math.nan, "counts must be finite, got nan"),
        (-1.0, "counts must be nonnegative"),
        (-5.0, "counts must be nonnegative"),
    ])
    def test_bad_block_named_as_a_count(self, bad, message, monkeypatch):
        # refused by proportions' rule, not by the tree validator, whose
        # message names the tract's internal nodes 't' and 't-2'
        monkeypatch.setattr(ReleaseEngine, "release", _refuse_draw)
        with pytest.raises(DomainError) as info:
            tract_release([5.0, bad], 1.0, 10, 0)
        assert str(info.value) == message

    def test_zero_total_refused(self, monkeypatch):
        monkeypatch.setattr(ReleaseEngine, "release", _refuse_draw)
        with pytest.raises(ZeroTotal):
            tract_release([0.0, 0.0], 1.0, 10, 0)

    def test_overflowing_total_refused_without_a_warning(self, monkeypatch):
        # finite counts whose sum overflows are refused as a sum, with no
        # numpy overflow warning and no word of the tract's node 't'
        monkeypatch.setattr(ReleaseEngine, "release", _refuse_draw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                tract_release([1e308, 1e308], 1.0, 10, 0)
        assert str(info.value) == "counts sum to inf, beyond the float range"

    def test_deterministic_per_seed(self, tract_blocks):
        a = tract_release(tract_blocks, 1.0, 50, 12345)
        again = tract_release(tract_blocks, 1.0, 50, 12345)
        other = tract_release(tract_blocks, 1.0, 50, 54321)
        assert list(a) == ["optimized", "uniform"]
        for arm in a:
            assert np.array_equal(a[arm], again[arm])
            assert not np.array_equal(a[arm], other[arm])

    def test_each_arm_is_a_one_arm_release(self, tract_blocks):
        # both arms come from one draw, and each is bit for bit its own
        # release: common random numbers by construction
        both = tract_release(tract_blocks, 0.5, 300, 4)
        rows = [f"t,,1,{sum(tract_blocks)!r}"]
        rows += [f"t-{j:02d},t,2,{c!r}" for j, c in enumerate(tract_blocks, start=1)]
        h = parse_hierarchy("node_id,parent_id,level,count\n" + "\n".join(rows) + "\n")
        allocs = {
            "optimized": allocate_fixed_budget(level_stats(h), (1.0, 1.0), 0.5),
            "uniform": uniform_allocation(2, 0.5),
        }
        for arm, alloc in allocs.items():
            (alone,) = ReleaseEngine(h).release([(alloc, True)], 4, 0, 300)
            assert both[arm].tobytes() == alone[2].tobytes()

    @pytest.mark.parametrize("n", [4, 10])
    def test_tree_is_the_parsed_tract_csv(self, tract_blocks, n, monkeypatch):
        # the library twin of comparing downstream --input and --blocks:
        # the tract's ids are zero-padded to the width of the block count
        blocks = tract_blocks[:n]
        trees = []
        monkeypatch.setattr(
            downstream, "level_stats", lambda h: trees.append(h) or level_stats(h)
        )
        tract_release(blocks, 1.0, 2, 0)
        width = len(str(len(blocks)))
        rows = [f"t,,1,{sum(blocks)!r}"]
        rows += [f"t-{j:0{width}d},t,2,{c!r}" for j, c in enumerate(blocks, start=1)]
        (h,) = trees
        assert h == parse_hierarchy("node_id,parent_id,level,count\n" + "\n".join(rows) + "\n")

    def test_blocks_sum_to_noisy_total(self, tract_blocks):
        # the consistency projection pins each replicate's blocks to that
        # replicate's released tract total
        noisy = tract_release(tract_blocks, 0.5, 200, 7)["uniform"]
        assert noisy.shape == (200, len(tract_blocks))
        assert noisy.min() >= 0
        # the tract total alone: same node id, count and level budget
        h = parse_hierarchy(
            f"node_id,parent_id,level,count\nt,,1,{sum(tract_blocks)!r}\n"
        )
        alloc = uniform_allocation(1, uniform_allocation(2, 0.5).eps[0])
        (released,) = ReleaseEngine(h).release([(alloc, False)], 7, 0, 200)
        totals = released[1][:, 0]
        assert np.allclose(noisy.sum(axis=1), totals, rtol=1e-12, atol=0.0)

    def test_common_random_numbers_across_arms(self, tract_blocks):
        report = compare_misallocation(
            tract_blocks, 1.0, (WeightFunction.LINEAR,), 2000, seed=0
        )
        opt = report["optimized"]["linear"]
        uni = report["uniform"]["linear"]
        assert opt.replicates_used == uni.replicates_used
        # paired noise makes the optimized arm's win essentially sure
        assert opt.mse_pct <= uni.mse_pct

    def test_one_release_call_for_both_arms(self, tract_blocks, monkeypatch):
        calls = []
        release = ReleaseEngine.release
        monkeypatch.setattr(
            ReleaseEngine, "release",
            lambda self, arms, *args: calls.append(len(arms)) or release(self, arms, *args),
        )
        compare_misallocation(tract_blocks, 1.0, (WeightFunction.LINEAR,), 1000, 0)
        assert calls == [2]

    @pytest.mark.parametrize("replicates", [-5, 0, 999])
    def test_replicate_floor_names_the_requested_count(self, tract_blocks, replicates):
        with pytest.raises(DomainError) as info:
            compare_misallocation(tract_blocks, 1.0, (WeightFunction.LINEAR,), replicates, 0)
        assert str(info.value) == f"replicates must be >= 1000, got {replicates}"

    def test_too_few_replicates_refused_before_any_draw(self, tract_blocks, monkeypatch):
        monkeypatch.setattr(ReleaseEngine, "release", _refuse_draw)
        with pytest.raises(DomainError, match="got 999"):
            compare_misallocation(tract_blocks, 1.0, (WeightFunction.LINEAR,), 999, 0)

    def test_zero_total_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(ReleaseEngine, "release", _refuse_draw)
        with pytest.raises(ZeroTotal):
            compare_misallocation([0, 0], 1.0, (WeightFunction.LINEAR,), 1000, 0)

    @pytest.mark.xfail(
        strict=True,
        reason="on this heavily skewed 10-block instance the log-weight "
        "gap is systematically ~15% larger than the linear one (verified "
        "at 3e4 replicates across seeds and budgets): flattening group "
        "differences makes the small noisy groups more influential after "
        "normalization, which outweighs the similarity effect here",
    )
    def test_log_weighting_narrows_uniform_optimal_gap(self, tract_blocks):
        """Expected direction: uniform allocation should look most like
        the optimal one under log weighting, i.e. the (uniform - optimal)
        misallocation mse gap under log should not exceed the linear
        gap. Holds for mildly skewed populations, not for this one."""
        report = compare_misallocation(
            tract_blocks, 1.0, (WeightFunction.LOG, WeightFunction.LINEAR), 10**4, 0
        )
        gap = {
            w: report["uniform"][w].mse_pct - report["optimized"][w].mse_pct
            for w in ("log", "linear")
        }
        assert gap["log"] <= gap["linear"]
