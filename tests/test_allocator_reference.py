"""Allocations pinned against reference values, and input validation
that the solver must keep doing on every path.

The reference ``eps`` and ``multiplier`` values were produced by the
nested-bisection solver the dual Newton solver replaced; any solver
must reproduce them to 1e-9 relative.
"""

import math

import numpy as np
import pytest
from click.testing import CliRunner

from hierdp.allocator import allocate_fixed_budget, allocate_target_mse, level_marginal
from hierdp.cli import main
from hierdp.errors import ConvergenceFailure, DomainError
from hierdp.hierarchy import LevelStats, SynthSpec, level_stats, synth_hierarchy

import test_release

EQUAL = (1.0, 1.0, 1.0)

# (stats source, program, budget or tau): (eps, multiplier)
REFERENCE = {
    ("va", "fixed", 0.3): (
        (0.07559034602610565, 0.09523728620180841, 0.12917236777207808),
        9261.066253381943,
    ),
    ("va", "fixed", 1.0): (
        (0.25189570432044706, 0.3173687002514262, 0.43073559542820883),
        250.26361135913032,
    ),
    ("va", "fixed", 2.0): (
        (0.5037914086253155, 0.6347374004832246, 0.8614711908916605),
        31.282951422793367,
    ),
    ("va", "fixed", 3.0): (
        (0.7556871129379732, 0.9521061007248369, 1.2922067863374909),
        9.269022643790626,
    ),
    ("va", "target", 5.0): (
        (1.26014237236502, 1.5876799008071523, 2.154813146132294),
        0.5002635419351912,
    ),
    ("va", "target", 40.0): (
        (0.4455276083795288, 0.5613296121066879, 0.7618414939093895),
        0.022108733930117464,
    ),
    ("va", "target", 300.0): (
        (0.16268369804337787, 0.20496861563921057, 0.278185127904969),
        0.0010763961028209938,
    ),
    ("synth", "fixed", 1.0): (
        (0.030068223782222996, 0.15153435230468956, 0.8183974239130166),
        147142.0051045142,
    ),
    ("synth", "target", 1e4): (
        (0.08204678739006101, 0.41348989803594843, 2.257633481009012),
        0.00013807808346207747,
    ),
    ("noisy", "fixed", 1.0): (
        (0.1144848830806935, 0.228969766161387, 0.6565453507578346),
        2665.726298423956,
    ),
    ("noisy", "target", 500.0): (
        (0.18808375018687618, 0.37616750037375235, 1.087990872698299),
        0.001663389039102408,
    ),
}


def _noisy_prior() -> LevelStats:
    """A small real-valued prior: fixed-seed Laplace noise on synthetic
    counts, clamped at 0, so almost no two counts coincide."""
    stats = level_stats(synth_hierarchy(SynthSpec(seed=0, fanouts=(8, 25))))
    rng = np.random.default_rng(2024)
    return LevelStats(
        tuple(np.maximum(0.0, c + rng.laplace(0.0, 2.0, c.shape)) for c in stats.counts)
    )


@pytest.fixture(scope="module")
def sources(va_hierarchy):
    return {
        "va": level_stats(va_hierarchy),
        "synth": level_stats(synth_hierarchy(SynthSpec(seed=0))),
        "noisy": _noisy_prior(),
    }


def _allocate(stats, program, x):
    fn = allocate_fixed_budget if program == "fixed" else allocate_target_mse
    return fn(stats, EQUAL, x)


class TestReferenceAllocations:
    @pytest.mark.parametrize("case", sorted(REFERENCE))
    def test_matches_reference(self, sources, case):
        name, program, x = case
        eps, multiplier = REFERENCE[case]
        alloc = _allocate(sources[name], program, x)
        assert alloc.eps == pytest.approx(eps, rel=1e-9)
        assert alloc.multiplier == pytest.approx(multiplier, rel=1e-9)

    def test_noisy_prior_defeats_deduplication(self):
        bottom = _noisy_prior().counts[-1]
        assert len(np.unique(bottom)) >= 0.95 * len(bottom)

    def test_pinned_release_allocation_is_the_optimum(self, sources):
        alloc = _allocate(sources["va"], "fixed", 2.0)
        pinned = test_release.TestReleaseNoHier.PINNED_EPS
        assert alloc.eps == pytest.approx(pinned, rel=1e-9)


class TestInvalidCounts:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_every_entry_point_rejects(self, bad):
        stats = LevelStats(
            (np.array([30.0]), np.array([10.0, 20.0]), np.array([5.0, bad, 15.0]))
        )
        with pytest.raises(DomainError):
            allocate_fixed_budget(stats, EQUAL, 1.0)
        with pytest.raises(DomainError):
            allocate_target_mse(stats, EQUAL, 50.0)
        with pytest.raises(DomainError):
            level_marginal(stats, EQUAL, 3, 1.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_single_active_level_rejects(self, bad):
        stats = LevelStats((np.array([30.0]), np.array([bad, 20.0])))
        with pytest.raises(DomainError):
            allocate_fixed_budget(stats, (0.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            allocate_target_mse(stats, (0.0, 1.0), 50.0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1e-13, math.nan, math.inf])
    def test_level_marginal_rejects_bad_eps(self, sources, eps):
        with pytest.raises(DomainError):
            level_marginal(sources["va"], EQUAL, 2, eps)


class TestConvergenceChecks:
    """A solve cut short must fail loudly, never return a wrong split."""

    @pytest.fixture()
    def one_step(self, monkeypatch):
        monkeypatch.setattr("hierdp.allocator._MAX_ITER", 1)

    @pytest.mark.parametrize("program,x", [("fixed", 2.0), ("target", 40.0)])
    def test_truncated_solve_raises(self, sources, one_step, program, x):
        with pytest.raises(ConvergenceFailure):
            _allocate(sources["va"], program, x)

    def test_cli_exit_code(self, va_csv, tmp_path, one_step):
        path = tmp_path / "va.csv"
        path.write_text(va_csv)
        result = CliRunner().invoke(
            main, ["allocate", "--input", str(path), "--eps-total", "2"]
        )
        assert result.exit_code == 4
