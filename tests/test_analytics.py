import math

import numpy as np
import pytest

from hierdp.analytics import (
    EPS_MIN,
    LevelWeights,
    _mse_deps_sums,
    bias,
    mse,
    mse_deps,
    mse_deps2,
    mse_sum,
    variance,
    weighted_total_mse,
)
from hierdp.errors import DomainError, LengthMismatch
from hierdp.evaluation import total_clamp_bias
from hierdp.hierarchy import LevelStats, level_stats

from oracles import (
    bias_closed_form,
    central_difference,
    mc_clamped_moments,
    mse_closed_form,
    quad_clamped_moments,
    second_central_difference,
)


class TestExactValues:
    """Pinned values where the closed forms collapse to simple numbers."""

    def test_bias_at_zero_count(self):
        assert bias(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_bias_vanishes_for_large_count(self):
        assert bias(1000.0, 1.0) < 1e-300

    def test_variance_at_zero_count(self):
        assert variance(0.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_variance_limit(self):
        # clamping becomes irrelevant and the raw Laplace variance remains
        assert variance(1000.0, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_mse_at_zero_count_exact(self):
        for eps in (0.1, 0.5, 1.0, 2.0, 7.0):
            assert abs(mse(0.0, eps) - 1.0 / eps**2) <= 1e-12 / eps**2

    def test_mse_limit(self):
        assert mse(1000.0, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_derivative_at_zero_count(self):
        for eps in (0.2, 1.0, 3.0):
            assert mse_deps(0.0, eps) == pytest.approx(-2.0 / eps**3, rel=1e-14)

    def test_derivative_limit(self):
        assert mse_deps(1000.0, 1.0) == pytest.approx(-4.0, abs=1e-9)


class TestMonteCarloOracle:
    """Closed forms against empirical moments of the clamped release."""

    def test_bias_n10_eps_half(self):
        rng = np.random.default_rng(2024)
        mean, se_mean, _, _ = mc_clamped_moments(10.0, 0.5, 10**7, rng)
        assert abs((mean - 10.0) - bias(10.0, 0.5)) <= 4.0 * se_mean

    def test_variance_n5_eps_04(self):
        rng = np.random.default_rng(2025)
        _, _, var_emp, se_var = mc_clamped_moments(5.0, 0.4, 10**7, rng)
        assert abs(var_emp - variance(5.0, 0.4)) <= 4.0 * se_var


class TestQuadratureOracle:
    """Deterministic cross-check, far tighter than the sampling band."""

    @pytest.mark.parametrize(
        "n,eps",
        [(0.0, 1.0), (0.5, 2.0), (3.0, 0.7), (10.0, 0.5), (25.0, 0.1)],
    )
    def test_moments_match_numeric_integral(self, n, eps):
        mean, var = quad_clamped_moments(n, eps)
        assert mean - n == pytest.approx(bias(n, eps), abs=1e-10, rel=1e-10)
        assert var == pytest.approx(variance(n, eps), abs=1e-10, rel=1e-10)


class TestDecomposition:
    def test_identity_small_values(self):
        assert mse(3.0, 1.0) == pytest.approx(
            bias(3.0, 1.0) ** 2 + variance(3.0, 1.0), rel=1e-12
        )

    def test_identity_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = rng.uniform(0.0, 50.0)
            eps = rng.uniform(0.05, 3.0)
            total = bias(n, eps) ** 2 + variance(n, eps)
            assert abs(mse(n, eps) - total) <= 1e-12 * mse(n, eps)


class TestDerivative:
    def test_matches_finite_difference(self):
        got = mse_deps(7.0, 0.8)
        approx = central_difference(lambda e: mse(7.0, e), 0.8, 1e-5)
        assert got == pytest.approx(approx, rel=1e-6)

    def test_finite_difference_random(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = rng.uniform(0.0, 30.0)
            eps = rng.uniform(0.2, 3.0)
            approx = central_difference(lambda e: mse(n, e), eps, 1e-6)
            assert mse_deps(n, eps) == pytest.approx(approx, rel=1e-5)

    def test_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = rng.uniform(0.0, 200.0)
            eps = rng.uniform(0.05, 4.0)
            g = mse_deps(n, eps)
            assert -4.0 / eps**3 - 1e-12 <= g <= -2.0 / eps**3 + 1e-12

    def test_increasing_in_eps(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = rng.uniform(0.0, 50.0)
            eps = rng.uniform(0.1, 2.0)
            assert mse_deps(n, eps) < mse_deps(n, eps * 1.2)

    def test_second_derivative_positive(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            n = rng.uniform(0.0, 50.0)
            eps = rng.uniform(0.1, 3.0)
            assert mse_deps2(n, eps) > 0.0


class TestBoundsAndMonotonicity:
    def test_mse_bounds_sample(self):
        # draws keep n*eps modest so the strict upper gap stays
        # representable in float64 (the gap decays like x * e^{-x})
        rng = np.random.default_rng(8)
        for _ in range(2000):
            n = rng.uniform(0.0, 15.0)
            eps = rng.uniform(0.05, 2.0)
            value = mse(n, eps)
            assert 1.0 / eps**2 <= value < 2.0 / eps**2

    def test_mse_increasing_in_count(self):
        # like the bounds test, stay where the increments are resolvable
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = rng.uniform(0.0, 12.0)
            eps = rng.uniform(0.1, 2.0)
            assert mse(n, eps) < mse(n + rng.uniform(0.1, 3.0), eps)

    def test_convexity_spot_grid(self):
        for n in np.linspace(0.0, 80.0, 9):
            for eps in np.linspace(0.1, 2.0, 9):
                d2 = second_central_difference(
                    lambda e: mse(float(n), e), float(eps), 1e-4
                )
                assert d2 > 0.0


class TestGracefulDegradation:
    """No NaNs anywhere; extreme exponents hit the asymptotes."""

    def test_huge_exponent(self):
        assert mse(1e9, 1.0) == 2.0
        assert variance(1e9, 1.0) == 2.0
        assert bias(1e9, 1.0) == 0.0
        assert mse_deps(1e9, 1.0) == -4.0

    def test_huge_count_tiny_eps(self):
        value = mse(1e300, 1e-6)
        assert math.isfinite(value)
        assert value == pytest.approx(2e12, rel=1e-12)

    def test_eps_guard(self):
        with pytest.raises(DomainError):
            mse(1.0, EPS_MIN / 2)
        with pytest.raises(DomainError):
            bias(1.0, 0.0)
        with pytest.raises(DomainError):
            variance(1.0, -1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            mse(-0.5, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            mse(math.inf, 1.0)
        with pytest.raises(DomainError):
            mse(1.0, math.nan)


class TestLevelKernels:
    """The level kernels, which every closed form in the package goes
    through, against direct transcriptions of the formulas."""

    @staticmethod
    def _counts(rng, eps):
        # a zero, counts where clamping matters, and counts with eps * n
        # from 700 to 1e6, where every term sits at its asymptote
        small = rng.uniform(0.0, 40.0, size=rng.integers(1, 30)) / eps
        x = np.exp(rng.uniform(np.log(700.0), np.log(1e6), size=rng.integers(1, 30)))
        return np.concatenate(([0.0], small)), x / eps

    def test_sums_match_direct_formulas(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            eps = rng.uniform(0.05, 3.0)
            low, huge = self._counts(rng, eps)
            counts = rng.permutation(np.concatenate((low, huge)))

            def mse_total(e):
                return float(np.sum(mse_closed_form(counts, e)))

            assert mse_sum(counts, eps) == pytest.approx(mse_total(eps), rel=1e-12)
            d1, d2 = _mse_deps_sums(counts, eps)
            assert d1 == pytest.approx(
                central_difference(mse_total, eps, 1e-5 * eps), rel=1e-6
            )
            assert d2 == pytest.approx(
                second_central_difference(mse_total, eps, 1e-3 * eps), rel=1e-4
            )
            # the kernels clamp eps * n at 745, where the oracle's exp
            # underflows to 0: at most one smallest subnormal per count
            slack = huge.size * np.nextafter(0.0, 1.0) / eps
            assert total_clamp_bias(counts, eps) == pytest.approx(
                float(np.sum(bias_closed_form(counts, eps))), rel=1e-12, abs=slack
            )

    def test_huge_counts_sum_to_asymptotes_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            eps = rng.uniform(0.05, 3.0)
            _, huge = self._counts(rng, eps)
            k = huge.size
            assert mse_sum(huge, eps) == 2.0 * k / eps**2
            assert _mse_deps_sums(huge, eps) == (-4.0 * k / eps**3, 12.0 * k / eps**4)
            assert total_clamp_bias(huge, eps) <= k * math.exp(-700.0) / (2.0 * eps)

    def test_bias_clamp_pinned(self):
        # eps * n = 750 clamps to 745: each region adds the smallest
        # subnormal, exp(-745), rather than underflowing to 0
        assert total_clamp_bias((1500, 1500), 0.5) == 2 * np.nextafter(0.0, 1.0)


class TestWeightedTotal:
    def test_single_level_single_node(self):
        stats = LevelStats((np.array([12.0]),))
        assert weighted_total_mse(stats, (2.0,), (0.7,)) == pytest.approx(
            2.0 * mse(12.0, 0.7), rel=1e-14
        )

    def test_va_against_direct_sum(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        eps = (1.0, 1.0, 1.0)
        direct = sum(
            mse(float(n), 1.0) for level in stats.counts for n in level
        )
        assert weighted_total_mse(stats, (1.0, 1.0, 1.0), eps) == pytest.approx(
            direct, rel=1e-12
        )

    def test_zero_weight_level_contributes_nothing(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        with_level3 = weighted_total_mse(stats, (1.0, 1.0, 0.0), (1.0, 1.0, 0.5))
        without = weighted_total_mse(stats, (1.0, 1.0, 0.0), (1.0, 1.0, 0.0))
        assert with_level3 == without  # level 3's eps is ignored entirely

    def test_length_mismatch(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        with pytest.raises(LengthMismatch):
            weighted_total_mse(stats, (1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(LengthMismatch):
            weighted_total_mse(stats, (1.0, 1.0, 1.0), (1.0,))


class TestLevelWeights:
    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            LevelWeights((0.0, 0.0))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            LevelWeights((1.0, -0.1))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            LevelWeights(())
