"""Trees to and from row tuples, and the per-parent residuals of a tree,
through the column form of :class:`hierdp.hierarchy.Hierarchy`."""

import numpy as np

from hierdp.hierarchy import Hierarchy


def tree(rows) -> Hierarchy:
    """The tree of ``(id, parent_id, level, count)`` rows, in any order;
    the root's parent id is empty."""
    ids, parent_ids, levels, counts = zip(*rows) if rows else ((), (), (), ())
    return Hierarchy(list(ids), list(parent_ids), list(levels), list(counts))


def rows_of(h: Hierarchy) -> list[tuple]:
    """The ``(id, parent_id, level, count)`` rows of ``h`` in its node
    order (level, then id), read from its level columns."""
    rows = []
    for lv in range(1, h.depth + 1):
        above = h.level_ids(lv - 1) if lv > 1 else ("",)
        parents = map(above.__getitem__, h.level_parents(lv).tolist())
        rows += zip(h.level_ids(lv), parents, [lv] * len(h.level_ids(lv)),
                    h.level_counts(lv).tolist())
    return rows


def residuals(h: Hierarchy, values=None) -> dict[int, np.ndarray]:
    """For each level above the bottom, each node's value less the sum of
    its children's values (summed in id order); ``values`` maps a level
    to values in ``level_ids`` order and defaults to the counts."""
    if values is None:
        values = {lv: h.level_counts(lv) for lv in range(1, h.depth + 1)}
    return {
        lv: values[lv] - np.bincount(
            h.level_parents(lv + 1), weights=values[lv + 1], minlength=len(values[lv])
        )
        for lv in range(1, h.depth)
    }
