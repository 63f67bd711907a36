"""Hierarchical count data: ingestion, validation, and synthesis.

A hierarchy is a complete-depth rooted tree: one root at level 1, every
non-root hangs off a node at the previous level, and all leaves sit at
the bottom level. Counts are stored as nonnegative reals because
privatized pipelines produce reals; integrality is never required.

The tree is stored as columns, with nodes in level-major, id-sorted
order: an id tuple, a parent-index array and a count array. Each level
is a contiguous slice, so per-level ids, counts and parent links are
slices. Instances are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from typing import Mapping, Optional

import numpy as np

from .errors import (
    DuplicateId,
    InvalidSpec,
    LengthMismatch,
    LevelMismatch,
    MissingRoot,
    NegativeCount,
    OrphanNode,
)

CSV_HEADER = ["node_id", "parent_id", "level", "count"]

# parent index of the root, and of a node whose parent id is unknown
_ROOT = -1
_ORPHAN = -2
_LEVEL_MAX = np.iinfo(np.int64).max
# plain CSV text is split and converted in blocks of about this many
# characters, each ending at a line end
_BLOCK_CHARS = 1 << 20


class Hierarchy:
    """Validated, immutable tree, stored as columns.

    ``Hierarchy(ids, parent_ids, levels, counts)`` takes one entry per
    node, in any order; the node whose parent id is empty is the root,
    as in the CSV. Construction enforces the structural invariants and
    orders the nodes by level, then by id, so downstream results are
    reproducible across runs and platforms. Checks run in a fixed order
    (duplicate ids and bad counts, the root, parent links and levels,
    ragged leaves); each raises for the first offending node in input
    order. The tree may keep the arrays it is given (input already in
    level-then-id order is not copied) and marks the ones it keeps
    read-only.
    """

    def __init__(self, ids, parent_ids, levels, counts):
        levels = np.asarray(levels, dtype=np.int64)
        counts = np.asarray(counts, dtype=float)
        n = len(ids)
        if n == 0:
            raise MissingRoot("hierarchy has no nodes")
        # level-major, id-sorted: the node order everything else uses;
        # input already in that order (as serialize_hierarchy writes it)
        # keeps its columns
        step = np.diff(levels)
        same = (step == 0).tolist()
        in_order = bool((step >= 0).all()) and all(
            map(operator.lt, compress(ids, same), compress(islice(ids, 1, None), same))
        )
        if in_order:
            order = np.arange(n)
            sorted_ids, sorted_levels = ids, levels
            repeats = False
        else:
            order = np.array(sorted(range(n), key=ids.__getitem__), dtype=np.intp)
            order = order[np.argsort(levels[order], kind="stable")]
            rows = order.tolist()
            sorted_ids = list(map(ids.__getitem__, rows))
            sorted_levels = levels[order]
            same = (np.diff(sorted_levels) == 0).tolist()
            repeats = any(
                map(operator.eq, compress(sorted_ids, same),
                    compress(islice(sorted_ids, 1, None), same))
            )
        # a valid tree names only nodes above its bottom level as parents,
        # so only they are indexed; an id that repeats does so within a
        # level, at two levels above the bottom, or above and at the bottom
        above = int(np.searchsorted(sorted_levels, sorted_levels[-1]))
        index = dict(zip(islice(sorted_ids, above), range(above)))
        repeats = (
            repeats
            or len(index) < above
            or not index.keys().isdisjoint(islice(sorted_ids, above, None))
        )

        bad_count = ~(np.isfinite(counts) & (counts >= 0))
        if repeats or bad_count.any():
            seen = set()
            for nid, bad, count in zip(ids, bad_count.tolist(), counts.tolist()):
                if nid in seen:
                    raise DuplicateId(f"duplicate node id {nid!r}")
                if bad:
                    raise NegativeCount(f"node {nid!r} has invalid count {count!r}")
                seen.add(nid)

        if not in_order:
            parent_ids = list(map(parent_ids.__getitem__, rows))
            levels, counts = sorted_levels, counts[order]
        is_root = np.fromiter(map(operator.not_, parent_ids), dtype=bool, count=n)
        parent = np.fromiter(
            map(index.get, parent_ids, repeat(_ORPHAN)), dtype=np.intp, count=n
        )
        if (parent[~is_root] == _ORPHAN).any():
            # a parent at the bottom level or missing: look in every level
            index = dict(zip(sorted_ids, range(n)))
            parent = np.fromiter(
                map(index.get, parent_ids, repeat(_ORPHAN)), dtype=np.intp, count=n
            )
        del index
        parent[is_root] = _ROOT

        roots = np.flatnonzero(parent == _ROOT)
        if roots.size == 0:
            raise MissingRoot("no root row (empty parent_id) found")
        if roots.size > 1:
            names = ", ".join(sorted(sorted_ids[r] for r in roots))
            raise DuplicateId(f"multiple roots: {names}")
        root = int(roots[0])
        if levels[root] != 1:
            raise LevelMismatch(
                f"root {sorted_ids[root]!r} must be at level 1, got {int(levels[root])}"
            )

        def first(mask: np.ndarray) -> Optional[int]:
            """Position of the offending node that came first in the input."""
            at = np.flatnonzero(mask)
            return int(at[np.argmin(order[at])]) if at.size else None

        linked = parent >= 0
        parent_level = levels[np.where(linked, parent, root)]
        orphan = parent == _ORPHAN
        i = first(orphan | (linked & (levels != parent_level + 1)))
        if i is not None:
            nid, pid = sorted_ids[i], parent_ids[i]
            if orphan[i]:
                raise OrphanNode(f"node {nid!r} references missing parent {pid!r}")
            raise LevelMismatch(
                f"node {nid!r} at level {int(levels[i])} under parent "
                f"{pid!r} at level {int(parent_level[i])}"
            )

        depth = int(levels.max())
        i = first((np.bincount(parent[linked], minlength=n) == 0) & (levels != depth))
        if i is not None:
            raise LevelMismatch(
                f"leaf {sorted_ids[i]!r} at level {int(levels[i])} but tree depth is "
                f"{depth}; all leaves must sit at the bottom level"
            )

        self._ids = tuple(sorted_ids)
        self._parent = parent
        self._count = counts
        parent.flags.writeable = counts.flags.writeable = False
        self._depth = depth
        # level l occupies positions [_start[l - 1], _start[l])
        self._start = np.searchsorted(levels, np.arange(1, depth + 2)).tolist()

    # accessors

    @property
    def depth(self) -> int:
        return self._depth

    def _level_slice(self, level: int) -> slice:
        if not 1 <= level <= self._depth:
            raise IndexError(f"level {level} out of range 1..{self._depth}")
        return slice(self._start[level - 1], self._start[level])

    def level_ids(self, level: int) -> tuple[str, ...]:
        """Node ids at ``level`` (1-based), sorted by id."""
        return self._ids[self._level_slice(level)]

    def level_counts(self, level: int) -> np.ndarray:
        """Counts at ``level``, in :meth:`level_ids` order (a copy)."""
        return self._count[self._level_slice(level)].copy()

    def level_parents(self, level: int) -> np.ndarray:
        """For each node at ``level``, its parent's position in
        :meth:`level_ids` of the level above (-1 for the root)."""
        parents = self._parent[self._level_slice(level)]
        return parents - self._start[level - 2] if level > 1 else parents.copy()

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self._ids == other._ids
            and np.array_equal(self._parent, other._parent)
            and np.array_equal(self._count, other._count)
        )


@dataclass(frozen=True, eq=False)
class LevelStats:
    """Per-level count vectors, the sufficient input of the allocator."""

    counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.counts:
            raise InvalidSpec("LevelStats needs at least one level")
        for lv, arr in enumerate(self.counts, start=1):
            if len(arr) == 0:
                raise InvalidSpec(f"level {lv} has no counts")

    @property
    def depth(self) -> int:
        return len(self.counts)

    def level_totals(self) -> list[float]:
        return [float(np.sum(c)) for c in self.counts]


def parse_hierarchy(csv_text: str) -> Hierarchy:
    """Build a hierarchy from CSV text.

    Expected header: ``node_id,parent_id,level,count``. The root row has
    an empty parent_id; whitespace-only rows are skipped. Every row
    error names the first faulty row, every structural error the
    offending node.

    Plain text (no quote, NUL or lone CR, four fields on every line) is
    cut into columns with ``str.split``; anything else, and plain text
    with a blank or malformed row, is read by :mod:`csv`. Both give the
    same fields.
    """
    columns = _split_fields(csv_text)
    if columns is None:
        columns = _reader_columns(csv_text)
    return Hierarchy(*columns)


def _split_fields(csv_text: str):
    """Per-node columns of plain CSV text (see :func:`_columns`), or
    None when the text needs :mod:`csv`: it holds a quote, a NUL or a CR
    that does not start a CRLF line end, its header is not
    :data:`CSV_HEADER`, a data line does not hold exactly four fields or
    exceeds the csv module's field size limit, or a row is blank or
    malformed. The data lines are cut with ``str.split`` and converted
    in blocks of about :data:`_BLOCK_CHARS` characters, so no block's
    raw fields outlive it, and siblings share one parent-id string. A
    CRLF line end leaves its CR on the count field, which ``float``
    ignores."""
    if (
        '"' in csv_text
        or "\x00" in csv_text
        or ("\r" in csv_text and csv_text.count("\r") != csv_text.count("\r\n"))
    ):
        return None
    limit = csv.field_size_limit()
    head = csv_text.find("\n")
    if head < 0:
        head = len(csv_text)
    if head > limit or [h.strip() for h in csv_text[:head].split(",")] != CSV_HEADER:
        return None
    # the data lines run from pos to end, less one trailing line end
    pos = head + 1
    end = len(csv_text) - csv_text.endswith("\n")
    n = csv_text.count("\n", pos, end) + 1 if pos <= end else 0
    ids, parent_ids = [None] * n, [None] * n
    levels = np.empty(n, dtype=np.int64)
    counts = np.empty(n)
    parents = {}
    at = 0
    while pos <= end:
        cut = csv_text.find("\n", pos + _BLOCK_CHARS, end)
        stop = end if cut < 0 else cut
        text = csv_text[pos:stop]
        lines = text.split("\n")
        if stop - pos > limit and max(map(len, lines)) > limit:
            return None
        if set(map(str.count, lines, repeat(","))) - {3}:
            return None
        del lines
        flat = text.replace("\n", ",").split(",")
        del text
        block = _columns(flat[0::4], flat[1::4], flat[2::4], flat[3::4])
        del flat
        if block is None:
            return None
        rows = slice(at, at + len(block[0]))
        ids[rows] = block[0]
        parent_ids[rows] = map(parents.setdefault, block[1], block[1])
        levels[rows], counts[rows] = block[2:]
        at, pos = rows.stop, stop + 1
    return ids, parent_ids, levels, counts


def _columns(ids, parent_ids, level_text, count_text):
    """Per-node columns (ids, parent ids, levels, counts)
    from the raw field columns of the data rows, or None when any row
    is blank or malformed. Ids are stripped; ``int`` and ``float``
    ignore the whitespace around a number themselves."""
    ids = list(map(str.strip, ids))
    if not all(ids):
        return None
    parent_ids = list(map(str.strip, parent_ids))
    n = len(ids)
    try:
        levels = np.fromiter(map(int, level_text), np.int64, n)
        counts = np.fromiter(map(float, count_text), float, n)
    except (ValueError, OverflowError):
        return None
    if (levels < 1).any() or not (np.isfinite(counts) & (counts >= 0)).all():
        return None
    return ids, parent_ids, levels, counts


def _reader_columns(csv_text: str):
    """Per-node columns of ``csv_text`` read by :mod:`csv` one record at
    a time: ids, parent ids (siblings share one string), levels and
    counts. Blank rows are skipped; the first faulty record in row
    order (one the csv module cannot read, a bad header, a malformed
    data row) raises an error naming its row."""
    ids, parent_ids, parents = [], [], {}
    levels, counts = array("q"), array("d")
    records = enumerate(csv.reader(io.StringIO(csv_text)), start=1)
    row = 0
    try:
        row, header = next(records, (0, None))
        if header is None:
            raise MissingRoot("empty CSV input")
        if [h.strip() for h in header] != CSV_HEADER:
            raise InvalidSpec(
                f"bad header {header!r}; expected {','.join(CSV_HEADER)}"
            )
        for row, record in records:
            if len(record) != 4:
                if any(map(str.strip, record)):
                    raise InvalidSpec(f"row {row}: expected 4 fields, got {len(record)}")
                continue
            nid, pid, level_s, count_s = map(str.strip, record)
            if not nid:
                if pid or level_s or count_s:
                    raise InvalidSpec(f"row {row}: empty node_id")
                continue
            try:
                level = int(level_s)
            except ValueError:
                raise LevelMismatch(
                    f"row {row} ({nid!r}): level {level_s!r} is not an integer"
                ) from None
            if level < 1:
                raise LevelMismatch(f"row {row} ({nid!r}): level must be >= 1")
            if level > _LEVEL_MAX:
                raise LevelMismatch(f"row {row} ({nid!r}): level {level} is out of range")
            try:
                count = float(count_s)
            except ValueError:
                raise NegativeCount(
                    f"row {row} ({nid!r}): count {count_s!r} is not a number"
                ) from None
            if count < 0 or not math.isfinite(count):
                raise NegativeCount(
                    f"row {row} ({nid!r}): count must be a nonnegative real, "
                    f"got {count_s}"
                )
            ids.append(nid)
            parent_ids.append(parents.setdefault(pid, pid))
            levels.append(level)
            counts.append(count)
    except csv.Error as e:
        # text read from a string splits lines at LF only, so an unquoted
        # newline is a CR that no LF follows
        message = str(e)
        if message.startswith("new-line character seen in unquoted field"):
            message = (
                "lone carriage return (a CR with no LF after it) outside quotes; "
                "end lines with LF or CRLF"
            )
        raise InvalidSpec(f"row {row + 1}: {message}") from None
    return ids, parent_ids, levels, counts


def serialize_hierarchy(
    h: Hierarchy, counts: Optional[Mapping[int, np.ndarray]] = None
) -> str:
    """Write a hierarchy back to CSV, rows in level order then id order.

    ``counts`` optionally substitutes per-level values, each in
    :meth:`Hierarchy.level_ids` order (used to emit privatized trees
    through the same schema); levels it has no entry for are left out.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for lv in range(1, h.depth + 1):
        if counts is None:
            values = h.level_counts(lv)
        elif lv in counts:
            values = np.asarray(counts[lv], dtype=float)
        else:
            continue
        ids = h.level_ids(lv)
        if len(values) != len(ids):
            raise LengthMismatch(
                f"level {lv} has {len(ids)} nodes but {len(values)} counts"
            )
        parent_ids = (
            [""] if lv == 1
            else list(map(h.level_ids(lv - 1).__getitem__, h.level_parents(lv).tolist()))
        )
        writer.writerows(zip(ids, parent_ids, repeat(lv), map(repr, values.tolist())))
    return out.getvalue()


def level_stats(h: Hierarchy) -> LevelStats:
    """Per-level counts in node-id order."""
    return LevelStats(
        tuple(h.level_counts(lv) for lv in range(1, h.depth + 1))
    )


@dataclass(frozen=True)
class SynthSpec:
    """Generator spec for synthetic census-like hierarchies.

    Defaults give a "one state, 128 tracts, ~21k blocks" shape with
    heavy-tailed integer leaf counts from a rounded log-normal. These
    are synthetic stand-ins, not real census figures. The tree has one
    level more than ``fanouts`` has entries.
    """

    seed: int
    fanouts: tuple[int, ...] = (128, 164)
    leaf_mu: float = 3.0
    leaf_sigma: float = 1.2

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if any(f < 1 for f in self.fanouts):
            raise InvalidSpec("fanouts must be >= 1")
        if self.leaf_sigma < 0:
            raise InvalidSpec("leaf_sigma must be >= 0")


def synth_hierarchy(spec: SynthSpec) -> Hierarchy:
    """Deterministic synthetic hierarchy: leaf counts drawn from the
    configured log-normal (rounded to integers), internal counts summed
    bottom-up so the tree is consistent by construction."""
    rng = np.random.default_rng(spec.seed)

    # ids per level, zero-padded so lexicographic order is genealogic
    ids: list[list[str]] = [["r"]]
    parent_ids: list[list[str]] = [[""]]
    for fan in spec.fanouts:
        width = len(str(fan))
        suffixes = [f"-{j:0{width}d}" for j in range(1, fan + 1)]
        parent_ids.append([pid for pid in ids[-1] for _ in suffixes])
        ids.append([pid + s for pid in ids[-1] for s in suffixes])

    leaves = np.rint(
        rng.lognormal(mean=spec.leaf_mu, sigma=spec.leaf_sigma, size=len(ids[-1]))
    )
    counts = [leaves]
    for fan in reversed(spec.fanouts):
        # each parent's children added in id order, as a running total
        counts.insert(0, counts[0].reshape(-1, fan).cumsum(axis=1)[:, -1])

    levels = np.repeat(np.arange(1, len(ids) + 1), [len(level) for level in ids])
    return Hierarchy(
        list(chain.from_iterable(ids)),
        list(chain.from_iterable(parent_ids)),
        levels,
        np.concatenate(counts),
    )
