"""Optimal privacy-budget allocation and release for hierarchical counts."""

import os

# numpy sizes OpenBLAS's thread pool once, when it loads. hierdp's BLAS
# calls (the allocator's 1-d dot products) gain nothing from threads,
# while idle pool workers spin a second core and a threaded dot product
# sums in an order that depends on the core count, which moves the last
# bits of an allocation. So load numpy with one BLAS thread unless the
# caller chose a pool size, and leave the environment as it was, for
# child processes. A program that imported numpy first keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .allocator import (  # noqa: E402
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
