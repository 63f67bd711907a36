"""Privatized release of a hierarchy and its post-processing.

Release draws each level through the clamped-Laplace mechanism of
:mod:`hierdp.mechanism` at the level's budget, and optionally enforces
parent/child consistency by Euclidean projection of each sibling group
onto the scaled simplex ``{v >= 0, sum(v) = parent}``, applied top-down
so each projection targets the parent's already-adjusted value.

:class:`ReleaseEngine` orchestrates that computation: per tree, it
draws any block of replicates as a ``(replicates, nodes)`` matrix per
level, releases that one draw for each allocation, shares the result
between neighbouring arms of one allocation, and projects every
replicate at once: each sibling-group size is one reshape of a
contiguous run of the child level in family order, and a level already
in that order (uniform fanout, siblings contiguous) is projected on
views. :func:`privatize` is a single release: replicate 0 of one engine
call, bit for bit; the Monte Carlo harness and the downstream study
draw many.

Noise comes from the counter-based streams in :mod:`hierdp.mechanism`,
one per node, keyed by its index in node order (level, then id), so a
release is a pure function of (hierarchy, allocation, seed) no matter
how the rows are ordered or the work is chunked. Levels allocated
eps = 0 are omitted from the release entirely: emitting their true
counts would cost unbounded privacy, and emitting nothing is the only
budget-true option. Any other eps must pass the mechanism's domain
check (finite, at least 1e-12): an infinite eps would publish the true
counts, and a NaN or negative one would silently withhold its level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .allocator import BudgetAllocation
from .errors import AllocationMismatch, DomainError, UnreleasedLevel
from .hierarchy import Hierarchy, serialize_hierarchy
from .mechanism import _check_eps, centered_uniform_matrix, clamped_release, standard_laplace

_EVERY_LEVEL = "consistency requires a released value at every level"


class ReleaseEngine:
    """Clamped-Laplace noise and top-down projection for one hierarchy,
    over any block of replicates and any allocation.

    Arrays are keyed by level and shaped ``(replicates, nodes)``, with
    columns in :meth:`Hierarchy.level_ids` order. Counts and sibling
    groups are computed once per tree; :meth:`release` draws a block of
    unit-scale noise once, keying column ``j`` of a level by
    ``level_first + j``, the number of nodes above the level plus ``j``,
    and scales it for any number of allocations.
    """

    def __init__(self, h: Hierarchy):
        self.h = h

    @cached_property
    def counts(self) -> dict[int, np.ndarray]:
        return {lv: self.h.level_counts(lv) for lv in range(1, self.h.depth + 1)}

    def levels(self, alloc: BudgetAllocation) -> list[int]:
        """The levels ``alloc`` gives budget to; every other level must
        be allocated exactly 0."""
        if len(alloc.eps) != self.h.depth:
            raise AllocationMismatch(
                f"allocation has {len(alloc.eps)} levels, hierarchy has {self.h.depth}"
            )
        released = [lv for lv, eps in enumerate(alloc.eps, start=1) if eps != 0]
        for lv in released:
            _check_eps(alloc.eps[lv - 1])
        return released

    @cached_property
    def families(self) -> dict[int, tuple]:
        """Per parent level, ``(order, inverse, runs)``. Family order sorts
        the child level by sibling-group size, then by parent, keeping
        each group's children in id order; ``order`` takes the child
        columns into it and ``inverse`` back, both ``slice(None)`` for a
        level already in it. ``runs`` holds, per group size in increasing
        order, (size, parent columns, slice of family order)."""
        families = {}
        for lv in range(1, self.h.depth):
            parents = self.h.level_parents(lv + 1)
            # every node above the bottom level has children
            sizes = np.bincount(parents)
            order = np.lexsort((parents, sizes[parents]))
            runs, stop = [], 0
            for size in np.flatnonzero(np.bincount(sizes)).tolist():
                group = np.flatnonzero(sizes == size)
                start, stop = stop, stop + len(group) * size
                if group[-1] - group[0] == len(group) - 1:
                    group = slice(group[0], group[-1] + 1)
                runs.append((size, group, slice(start, stop)))
            in_order = np.array_equal(order, np.arange(len(order)))
            inverse = slice(None) if in_order else np.argsort(order)
            families[lv] = (slice(None) if in_order else order, inverse, runs)
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

        Every arm is checked, and a with-consistency arm whose allocation
        withholds a level raises :class:`UnreleasedLevel`, before any noise
        is drawn. Unit-scale noise is drawn once, on the call, for every
        level any arm releases, so the arms share their noise. It is
        scaled and clamped once for each run of neighbouring arms with
        one allocation, into read-only arrays they share."""
        if rep_hi < rep_lo:
            raise DomainError(f"replicate range [{rep_lo}, {rep_hi}) is reversed")
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be in [0, 2**64), got {seed}")
        released = [self.levels(alloc) for alloc, _ in arms]
        for (_, with_hier), levels in zip(arms, released):
            if with_hier and len(levels) != self.h.depth:
                raise UnreleasedLevel(_EVERY_LEVEL)
        laplace = {}
        for lv in sorted(set().union(*released)):
            first = sum(len(self.counts[above]) for above in range(1, lv))
            keys = np.arange(first, first + len(self.counts[lv]), dtype=np.uint64)
            laplace[lv] = standard_laplace(centered_uniform_matrix(seed, keys, rep_lo, rep_hi))

        eps = [alloc.eps for alloc, _ in arms] + [None]

        # one arm at a time, so a caller that consumes each arm before
        # the next holds one arm's blocks: holding every arm at once
        # made malloc map and page-fault fresh blocks every chunk
        def scaled():
            noisy = None
            for i, ((_, with_hier), levels) in enumerate(zip(arms, released)):
                if noisy is None:
                    noisy = {}
                    for lv in levels:
                        v = clamped_release(laplace[lv], self.counts[lv], eps[i][lv - 1])
                        v.flags.writeable = False
                        noisy[lv] = v
                arm = self.apply_consistency(noisy) if with_hier else noisy
                # the draw is held only while the next arm shares it
                if eps[i + 1] != eps[i]:
                    noisy = None
                yield arm

        return scaled()

    def apply_consistency(self, noisy: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Project every sibling group onto its parent's adjusted value,
        top-down. The root keeps its released value and every level sums
        exactly to it; projecting an already-consistent tree is a no-op."""
        if len(noisy) != self.h.depth:
            raise UnreleasedLevel(_EVERY_LEVEL)
        adjusted = {1: noisy[1]}
        for lv, (order, inverse, runs) in self.families.items():
            parent, child = adjusted[lv], _columns(noisy[lv + 1], order)
            # row-major rows of a run are its sibling groups
            out = [
                project_rows(child[:, cols].reshape(-1, size), _columns(parent, group).reshape(-1))
                .reshape(-1, cols.stop - cols.start) for size, group, cols in runs
            ]
            out = out[0] if len(out) == 1 else np.concatenate(out, axis=1)
            adjusted[lv + 1] = _columns(out, inverse)
        return adjusted


def _columns(x: np.ndarray, cols: slice | np.ndarray) -> np.ndarray:
    # x[:, array] would be F-ordered, and every later reduction over its rows slow
    return x[:, cols] if isinstance(cols, slice) else np.take(x, cols, axis=1)


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


def privatize(
    h: Hierarchy, alloc: BudgetAllocation, seed: int, hier: bool
) -> PrivatizedHierarchy:
    """Clamped-Laplace release of every level with budget, projected
    top-down when ``hier``: replicate 0 of :class:`ReleaseEngine`,
    byte-identical for a fixed seed."""
    (noisy,) = ReleaseEngine(h).release([(alloc, hier)], seed, 0, 1)
    return PrivatizedHierarchy(
        h, {lv: row[0] for lv, row in noisy.items()}, alloc, seed,
        consistency_applied=hier,
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
    # descending order, read from one ascending sort
    u = np.sort(y, axis=1)[:, ::-1]
    gap = np.cumsum(u, axis=1)
    gap -= t[:, None]
    k = np.arange(1.0, y.shape[1] + 1)
    # targets below float resolution of the entries can round the k=1
    # test false; the support is then the single largest entry
    rho = np.maximum(np.count_nonzero(u * k > gap, axis=1), 1)
    # gap[rho - 1] is the sum of the rho largest entries less t
    theta = np.take_along_axis(gap, rho[:, None] - 1, axis=1)[:, 0] / rho
    v = y - theta[:, None]
    np.maximum(v, 0.0, out=v)
    totals = v.sum(axis=1)
    scale = np.divide(t, totals, out=np.ones_like(t), where=totals > 0)
    v *= scale[:, None]
    zero = t == 0.0
    if zero.any():
        v[zero] = 0.0
    # y - theta rounded the whole mass away (tiny target): the true
    # projection parks it all on the largest coordinate
    rounded_away = (totals == 0.0) & (t > 0.0)
    if rounded_away.any():
        rows = np.nonzero(rounded_away)[0]
        v[rows, np.argmax(y[rows], axis=1)] = t[rows]
    return v
