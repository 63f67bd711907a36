"""Privatized release of a hierarchy and its post-processing.

Release adds per-node Laplace noise at the level's budget, clamps at
zero, and optionally enforces parent/child consistency by Euclidean
projection of each sibling group onto the scaled simplex
``{v >= 0, sum(v) = parent}``, applied top-down so each projection
targets the parent's already-adjusted value.

:class:`ReleaseEngine` is the one place that computation lives: per
tree, it draws any block of replicates as a ``(replicates, nodes)``
matrix per level, scales that one draw for each allocation, and
projects all of them at once. A single release is replicate 0, bit for
bit; the Monte Carlo harness and the downstream study draw many.

Noise comes from the counter-based streams in :mod:`hierdp.rng`, so a
release is a pure function of (hierarchy, allocation, seed) no matter
how the work is chunked. Levels allocated eps = 0 are omitted from the
release entirely: emitting their true counts would cost unbounded
privacy, and emitting nothing is the only budget-true option.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Sequence

import numpy as np

from .allocator import BudgetAllocation
from .errors import AllocationMismatch, DomainError, UnreleasedLevel
from .hierarchy import Hierarchy, serialize_hierarchy
from .rng import centered_uniform_matrix, node_keys, standard_laplace


class ReleaseEngine:
    """Clamped-Laplace noise and top-down projection for one hierarchy,
    over any block of replicates and any allocation.

    Arrays are keyed by level and shaped ``(replicates, nodes)``, with
    columns in :meth:`Hierarchy.level_ids` order. Node keys, counts and
    sibling groups are computed once per tree, keys only for levels
    drawn; :meth:`release` draws a block of unit-scale noise once and
    scales it for any number of allocations.
    """

    def __init__(self, h: Hierarchy):
        self.h = h
        self.keys: dict[int, np.ndarray] = {}

    @cached_property
    def counts(self) -> dict[int, np.ndarray]:
        return {lv: self.h.level_counts(lv) for lv in range(1, self.h.depth + 1)}

    def levels(self, alloc: BudgetAllocation) -> list[int]:
        """The levels ``alloc`` gives budget to."""
        if len(alloc.eps) != self.h.depth:
            raise AllocationMismatch(
                f"allocation has {len(alloc.eps)} levels, hierarchy has {self.h.depth}"
            )
        return [lv for lv, eps in enumerate(alloc.eps, start=1) if eps > 0]

    @cached_property
    def families(self) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
        """Per parent level, one block per distinct sibling-group size:
        (parent columns, child columns), the latter shaped ``(parents,
        size)`` with each row's children in id order."""
        families = {}
        for lv in range(1, self.h.depth):
            parents = self.h.level_parents(lv + 1)
            cols = np.argsort(parents, kind="stable")
            # every node above the bottom level has children
            sizes = np.bincount(parents)
            starts = np.cumsum(sizes) - sizes
            families[lv] = []
            for size in np.flatnonzero(np.bincount(sizes)):
                group = np.flatnonzero(sizes == size)
                families[lv].append(
                    (group, cols[starts[group][:, None] + np.arange(size)])
                )
        return families

    def release(
        self,
        arms: Sequence[tuple[BudgetAllocation, bool]],
        seed: int,
        rep_lo: int,
        rep_hi: int,
    ) -> Iterator[dict[int, np.ndarray]]:
        """Yields, arm by arm, replicates [rep_lo, rep_hi) of each
        (allocation, with consistency) arm: ``max(0, count + Lap(1/eps))``
        of each level the allocation gives budget to, projected where
        the arm asks.

        Unit-scale noise is drawn once, on the call, for every level any
        arm releases and scaled per arm, so the arms share their noise."""
        if rep_hi < rep_lo:
            raise DomainError(f"replicate range [{rep_lo}, {rep_hi}) is reversed")
        released = [self.levels(alloc) for alloc, _ in arms]
        laplace = {}
        for lv in sorted(set().union(*released)):
            if lv not in self.keys:
                self.keys[lv] = node_keys(self.h.level_ids(lv))
            laplace[lv] = standard_laplace(
                centered_uniform_matrix(seed, self.keys[lv], rep_lo, rep_hi)
            )

        def scaled(alloc: BudgetAllocation, with_hier: bool, levels: list[int]):
            noisy = {
                lv: np.maximum(
                    0.0, self.counts[lv][None, :] + laplace[lv] / alloc.eps[lv - 1]
                )
                for lv in levels
            }
            return self.apply_consistency(noisy) if with_hier else noisy

        # one arm at a time, so a caller that consumes each arm before
        # the next holds one arm's blocks: holding every arm at once
        # made malloc map and page-fault fresh blocks every chunk
        return (
            scaled(alloc, with_hier, levels)
            for (alloc, with_hier), levels in zip(arms, released)
        )

    def apply_consistency(self, noisy: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Project every sibling group onto its parent's adjusted value,
        top-down; the root keeps its released value."""
        if len(noisy) != self.h.depth:
            raise UnreleasedLevel(
                "consistency requires a released value at every level"
            )
        adjusted = {1: noisy[1]}
        for lv, blocks in self.families.items():
            parent, child = adjusted[lv], noisy[lv + 1]
            # the blocks cover every child column
            out = np.empty_like(child)
            for group, cols in blocks:
                # np.take gathers C-contiguous rows, which sum alike for
                # one replicate or many; never pass a transposed view
                rows = np.take(child, cols, axis=1).reshape(-1, cols.shape[1])
                targets = np.take(parent, group, axis=1).reshape(-1)
                out[:, cols] = project_rows(rows, targets).reshape(-1, *cols.shape)
            adjusted[lv + 1] = out
        return adjusted


@dataclass(frozen=True, eq=False)
class PrivatizedHierarchy:
    """Noisy counts over the shape of a source hierarchy.

    ``levels`` maps each released level to its nonnegative noisy counts
    as a read-only array in :meth:`Hierarchy.level_ids` order; levels
    allocated eps = 0 are absent. The source tree is kept for structure
    only and never serialized with true counts.
    """

    source: Hierarchy
    levels: dict[int, np.ndarray]
    allocation: BudgetAllocation
    seed: int
    consistency_applied: bool

    def __post_init__(self):
        levels = {}
        for lv in sorted(self.levels):
            levels[lv] = np.array(self.levels[lv], dtype=float)
            levels[lv].flags.writeable = False
        object.__setattr__(self, "levels", levels)

    @property
    def values(self) -> MappingProxyType:
        """Read-only ``{node id: noisy count}`` over the released
        levels, built from :attr:`levels` on each access."""
        return MappingProxyType({
            nid: v
            for lv, row in self.levels.items()
            for nid, v in zip(self.source.level_ids(lv), row.tolist())
        })

    def to_csv(self) -> str:
        return serialize_hierarchy(self.source, counts=self.levels)

    def sidecar_json(self) -> str:
        return json.dumps(
            {
                "allocation": self.allocation.to_json_dict(),
                "seed": self.seed,
                "consistency_applied": self.consistency_applied,
            },
            sort_keys=True,
        )


def release_no_hier(
    h: Hierarchy, alloc: BudgetAllocation, seed: int
) -> PrivatizedHierarchy:
    """Independent clamped-Laplace release of every level with budget:
    replicate 0 of :class:`ReleaseEngine`, byte-identical for a fixed
    seed."""
    (noisy,) = ReleaseEngine(h).release([(alloc, False)], seed, 0, 1)
    return PrivatizedHierarchy(
        h, {lv: row[0] for lv, row in noisy.items()}, alloc, seed,
        consistency_applied=False,
    )


def project_children(
    noisy_children: np.ndarray, target_total: float
) -> np.ndarray:
    """Euclidean projection onto ``{v >= 0, sum(v) = target_total}``:
    the one-row case of :func:`project_rows`. Accepts inputs of either
    sign (pre- or post-clamp)."""
    if not (target_total >= 0 and math.isfinite(target_total)):
        raise DomainError(f"target_total must be >= 0, got {target_total!r}")
    y = np.asarray(noisy_children, dtype=float)
    if y.ndim != 1 or y.size == 0 or not np.isfinite(y).all():
        raise DomainError("noisy_children must be a nonempty 1-d vector of finite reals")
    return project_rows(y[None, :], [target_total])[0]


def project_rows(noisy: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row-wise projection onto ``{v >= 0, sum(v) = target}``, one
    sibling group and one target per row.

    Shift-and-clamp with the threshold found by sorting: the unique
    theta with ``sum(max(y - theta, 0)) = T``.
    """
    y = np.asarray(noisy, dtype=float)
    t = np.asarray(targets, dtype=float)
    n = y.shape[1]
    u = -np.sort(-y, axis=1)
    css = np.cumsum(u, axis=1)
    k = np.arange(1, n + 1)
    # targets below float resolution of the entries can round the k=1
    # test false; the support is then the single largest entry
    rho = np.count_nonzero(u * k > css - t[:, None], axis=1)
    safe_rho = np.maximum(rho, 1)
    theta = (np.take_along_axis(css, safe_rho[:, None] - 1, axis=1)[:, 0] - t) / safe_rho
    v = np.maximum(y - theta[:, None], 0.0)
    totals = v.sum(axis=1)
    scale = np.divide(t, totals, out=np.ones_like(t), where=totals > 0)
    v *= scale[:, None]
    v[t == 0.0] = 0.0
    # y - theta rounded the whole mass away (tiny target): the true
    # projection parks it all on the largest coordinate
    rounded_away = (totals == 0.0) & (t > 0.0)
    if rounded_away.any():
        rows = np.nonzero(rounded_away)[0]
        v[rows, np.argmax(y[rows], axis=1)] = t[rows]
    return v


def enforce_consistency(p: PrivatizedHierarchy) -> PrivatizedHierarchy:
    """Top-down consistency pass: the one-row case of
    :meth:`ReleaseEngine.apply_consistency`.

    The root keeps its released value; walking down the tree, each
    sibling group is replaced by its projection onto the simplex scaled
    to the parent's adjusted value, so every level sums exactly to the
    root. Projecting an already-consistent tree is a no-op.
    """
    adjusted = ReleaseEngine(p.source).apply_consistency(
        {lv: row[None, :] for lv, row in p.levels.items()}
    )
    return replace(
        p, levels={lv: row[0] for lv, row in adjusted.items()},
        consistency_applied=True,
    )
