"""Optimal privacy-budget allocation and release for hierarchical counts."""

from .allocator import (
    BudgetAllocation,
    allocate_fixed_budget,
    allocate_target_mse,
    level_marginal,
    uniform_allocation,
)
from .analytics import (
    LevelWeights,
    bias,
    mse,
    mse_deps,
    variance,
    weighted_total_mse,
)
from .downstream import (
    WeightFunction,
    compare_misallocation,
    misallocation_stats,
    proportions,
    tract_release,
    weighted_shares,
)
from .evaluation import (
    ComparisonReport,
    MomentEstimate,
    analytic_total_mse,
    compare_allocations,
    monte_carlo_moments,
    skewness_bias_curve,
    weight_sweep,
)
from .hierarchy import (
    Hierarchy,
    LevelStats,
    SynthSpec,
    level_stats,
    parse_hierarchy,
    serialize_hierarchy,
    synth_hierarchy,
)
from .release import (
    PrivatizedHierarchy,
    enforce_consistency,
    project_children,
    release_no_hier,
)

__all__ = [
    "BudgetAllocation",
    "ComparisonReport",
    "Hierarchy",
    "LevelStats",
    "LevelWeights",
    "MomentEstimate",
    "PrivatizedHierarchy",
    "SynthSpec",
    "WeightFunction",
    "allocate_fixed_budget",
    "allocate_target_mse",
    "analytic_total_mse",
    "bias",
    "compare_allocations",
    "compare_misallocation",
    "enforce_consistency",
    "level_marginal",
    "level_stats",
    "misallocation_stats",
    "monte_carlo_moments",
    "mse",
    "mse_deps",
    "parse_hierarchy",
    "project_children",
    "proportions",
    "release_no_hier",
    "serialize_hierarchy",
    "skewness_bias_curve",
    "synth_hierarchy",
    "tract_release",
    "uniform_allocation",
    "variance",
    "weight_sweep",
    "weighted_shares",
    "weighted_total_mse",
]

__version__ = "0.1.0"
