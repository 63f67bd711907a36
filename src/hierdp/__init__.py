"""Optimal privacy-budget allocation and release for hierarchical counts."""

import os

# numpy sizes OpenBLAS's thread pool once, when it loads. hierdp makes
# no BLAS call, yet starting a default pool still costs CPU: on a
# 2-vCPU x86-64 VM, `python3 -c "import numpy"` took a median 0.22 s of
# CPU with the default pool and 0.14 s with one thread (5 runs each),
# and every command pays it. So load numpy with one BLAS thread unless
# the caller chose a pool size, and leave the environment as it was, for
# child processes. A program that imported numpy first keeps its pool.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .allocator import (  # noqa: E402
    BudgetAllocation,
    LevelWeights,
    allocate_fixed_budget,
    allocate_target_mse,
    level_marginal,
    uniform_allocation,
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
from .mechanism import bias, mse, mse_deps, variance
from .release import (
    PrivatizedHierarchy,
    privatize,
    project_children,
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
    "level_marginal",
    "level_stats",
    "misallocation_stats",
    "monte_carlo_moments",
    "mse",
    "mse_deps",
    "parse_hierarchy",
    "privatize",
    "project_children",
    "proportions",
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
