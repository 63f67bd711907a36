"""Hierarchical count data: ingestion, validation, and synthesis.

A hierarchy is a complete-depth rooted tree: one root at level 1, every
non-root hangs off a node at the previous level, and all leaves sit at
the bottom level. Counts are stored as nonnegative reals because
privatized pipelines produce reals; integrality is never required.

The tree is stored as columns, with nodes in level-major, id-sorted
order: the ids as one UTF-8 buffer cut by int64 offsets, a parent-index
array and a count array. Each level is a contiguous slice, so per-level
ids, counts and parent links are slices. Ids are decoded to ``str``
only on demand. Instances are immutable after construction and safe to
share across workers.

CSV text is read into these columns by :mod:`hierdp.csvread`. Ids are
encoded as UTF-8 with lone surrogates passed through: the byte order of
that encoding is the code-point order of ``str``, so sorting the bytes
sorts the ids as Python does. Ids are compared and sorted as big-endian
8-byte words, and as ``bytes`` only where words tie.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterator, Mapping, Optional

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
# stored ids are compared and looked up as bytes this many at a time
_CHUNK_IDS = 1 << 12
# ids are compared as this many 8-byte words before they are compared
# as bytes
_WORD_ROUNDS = 4
# the first k bytes of a big-endian word, for k = 0..8
_WORD_MASKS = np.array([(1 << 64) - (1 << 8 * (8 - k)) for k in range(9)], dtype=np.uint64)


def _utf8(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _text(raw: bytes) -> str:
    return raw.decode("utf-8", "surrogatepass")


def _encode(ids) -> tuple[bytes, np.ndarray]:
    """The UTF-8 bytes of the ``ids`` list, joined, and each id's length."""
    text = "".join(ids)
    data = _utf8(text)
    # ASCII text has one byte per character
    each = ids if len(data) == len(text) else map(_utf8, ids)
    return data, np.fromiter(map(len, each), dtype=np.int64, count=len(ids))


def _codes(names: dict, parent_ids) -> np.ndarray:
    """Each parent id's code: its position in ``names``, the distinct
    parent ids in the order first seen, which takes in the ones it
    lacks."""
    for name in dict.fromkeys(parent_ids):
        names.setdefault(name, len(names))
    return np.fromiter(
        map(names.__getitem__, parent_ids), dtype=np.int64, count=len(parent_ids)
    )


def _slices(data: bytes, offsets: np.ndarray) -> list[bytes]:
    """The ids ``data`` holds between consecutive ``offsets``."""
    off = offsets.tolist()
    return [data[a:b] for a, b in zip(off, islice(off, 1, None))]


def _chunks(data: bytes, offsets: np.ndarray, lo: int, hi: int) -> Iterator[list[bytes]]:
    """The ids at positions [lo, hi), at most :data:`_CHUNK_IDS` a list."""
    for start in range(lo, hi, _CHUNK_IDS):
        yield _slices(data, offsets[start : min(hi, start + _CHUNK_IDS) + 1])


def _offsets(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _words(data: bytes, at: np.ndarray, left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 8 bytes of ``data`` from each of ``at`` as a big-endian word,
    with the bytes past the id's end zeroed, where ``left`` bytes of the
    id remain; and ``left`` clipped to 0..9, 9 for an id that runs on
    past the word. Two ids order as their (word, rest) keys do, word by
    word, while the words tie and both ids run on."""
    words = np.zeros(len(at), dtype=np.uint64)
    whole = at <= len(data) - 8
    if whole.any():
        # every 8 bytes of the buffer, one word per byte offset
        view = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
        words[whole] = view[at[whole]]
    for i in np.flatnonzero(~whole).tolist():
        words[i] = int.from_bytes(data[at[i] : at[i] + 8].ljust(8, b"\0"), "big")
    rest = np.minimum(np.maximum(left, 0), 9)
    return words & _WORD_MASKS[np.minimum(rest, 8)], rest


def _ascending(data: bytes, offsets: np.ndarray, same: np.ndarray) -> bool:
    """Whether each id is below the next one wherever ``same`` marks the
    pair, a chunk of ids at a time: compared as 8-byte words, and as
    ``bytes`` only where :data:`_WORD_ROUNDS` words tie."""
    for lo in range(0, len(same), _CHUNK_IDS):
        pairs = lo + np.flatnonzero(same[lo : lo + _CHUNK_IDS])
        start, mid, end = offsets[pairs], offsets[pairs + 1], offsets[pairs + 2]
        for skip in range(0, 8 * _WORD_ROUNDS, 8):
            if not len(start):
                break
            a, ra = _words(data, start + skip, mid - start - skip)
            b, rb = _words(data, mid + skip, end - mid - skip)
            tie = (a == b) & (ra == 9) & (rb == 9)
            if not ((a < b) | ((a == b) & (ra < rb)) | tie).all():
                return False
            start, mid, end = start[tie], mid[tie], end[tie]
        # what follows the tied words
        skip = 8 * _WORD_ROUNDS
        mid = mid.tolist()
        firsts = map(data.__getitem__, map(slice, (start + skip).tolist(), mid))
        seconds = map(data.__getitem__, map(slice, [m + skip for m in mid], end.tolist()))
        if not all(map(operator.lt, firsts, seconds)):
            return False
    return True


def _id_order(data: bytes, offsets: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Node positions in level-then-id order, ties in input order: ids
    sorted as 8-byte words, and as ``bytes`` only within the runs that
    :data:`_WORD_ROUNDS` words leave tied."""
    word, rest = _words(data, offsets[:-1], np.diff(offsets))
    rest = rest.astype(np.int8)
    order = np.lexsort((rest, word, levels))
    run, word, rest = levels[order], word[order], rest[order]
    # the positions in ``order`` still tied with a neighbour (None for
    # all), and a key the same along each tied run, growing run by run;
    # each array is let go as soon as it is spent, so that only a few
    # arrays of one word a node are alive at once
    at = None
    for skip in range(8, 8 * _WORD_ROUNDS + 8, 8):
        tie = (run[1:] == run[:-1]) & (word[1:] == word[:-1]) & (rest[1:] == 9) & (rest[:-1] == 9)
        del word, rest
        kept = np.zeros(len(run), dtype=bool)
        kept[1:] = tie
        kept[:-1] |= tie
        run = np.cumsum(np.concatenate(([True], ~tie)))[kept]
        del tie
        at = np.flatnonzero(kept) if at is None else at[kept]
        del kept
        if not len(at):
            return order
        if skip == 8 * _WORD_ROUNDS:
            break
        ids = order[at]
        start = offsets[ids]
        word, rest = _words(data, start + skip, offsets[ids + 1] - start - skip)
        del start
        by = np.lexsort((rest, word, run))
        order[at] = ids[by]
        del ids
        word, rest = word[by], rest[by]
    # each run still tied, sorted by the bytes that follow its words
    cuts = np.flatnonzero(np.diff(run)) + 1
    for lo, hi in zip(at[np.concatenate(([0], cuts))].tolist(),
                      (at[np.append(cuts, len(at)) - 1] + 1).tolist()):
        ids = order[lo:hi].tolist()
        tails = {i: data[offsets[i] + skip : offsets[i + 1]] for i in ids}
        order[lo:hi] = sorted(ids, key=tails.__getitem__)
    return order


def _gather(data: bytes, offsets: np.ndarray, order: np.ndarray) -> bytearray:
    """The ids ``data`` holds, in ``order``, copied one by one into one
    buffer, so that no id is held as an object of its own."""
    out = bytearray(len(data))
    view = memoryview(data)
    at = 0
    for lo in range(0, len(order), _CHUNK_IDS):
        ids = order[lo : lo + _CHUNK_IDS]
        for start, end in zip(offsets[ids].tolist(), offsets[ids + 1].tolist()):
            out[at : at + end - start] = view[start:end]
            at += end - start
    return out


class IdColumn:
    """Node ids kept as one UTF-8 buffer and the offsets that cut it: id
    ``i`` is ``data[offsets[i]:offsets[i + 1]]``. Iterating decodes each
    id to ``str``."""

    __slots__ = ("data", "offsets")

    def __init__(self, data: bytes, offsets: np.ndarray):
        self.data = data
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def raw(self, i: int) -> bytes:
        """Id ``i`` as stored."""
        return self.data[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self) -> Iterator[str]:
        return map(_text, chain.from_iterable(_chunks(self.data, self.offsets, 0, len(self))))

    def find(self, nid: bytes) -> int:
        """The position of ``nid`` in a column in ascending order, or -1."""
        i = bisect_left(range(len(self)), nid, key=self.raw)
        return i if i < len(self) and self.raw(i) == nid else -1

    def meets(self, ids: dict) -> bool:
        """Whether any key of ``ids`` is in this column, in ascending
        order: each key searched for, or each id here looked up,
        whichever is cheaper. A step of the search costs about three ids
        looked up (~400 against ~130 ns for the 200k and 1M synthetic
        trees, on a 2-vCPU x86-64 VM): on a 200k bottom level under 501
        keys, the search takes 3.6 ms and the scan 25 ms."""
        if 3 * len(ids) * len(self).bit_length() < len(self):
            return any(self.find(nid) >= 0 for nid in ids)
        chunks = _chunks(self.data, self.offsets, 0, len(self))
        return not all(map(ids.keys().isdisjoint, chunks))


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
        data, lengths = _encode(ids)
        names: dict = {}
        self._validate([
            data, _offsets(lengths), names, _codes(names, parent_ids),
            np.asarray(levels, dtype=np.int64), np.asarray(counts, dtype=float),
        ])

    @classmethod
    def _of_columns(cls, columns: list) -> Hierarchy:
        tree = cls.__new__(cls)
        tree._validate(columns)
        return tree

    def _validate(self, columns: list) -> None:
        """Check and store the tree, one node per entry in input order.
        ``columns`` holds the ids as UTF-8 ``data`` cut by ``offsets``,
        each parent id as its code in ``names`` (a dict of the distinct
        parent ids, in code order), levels and counts; it is emptied, so
        that a column sorted here frees the one it replaces. The one
        validator, whether the tree comes from a tokenizer or from
        lists."""
        data, offsets, names, codes, levels, counts = columns
        columns.clear()
        n = len(offsets) - 1
        if n == 0:
            raise MissingRoot("hierarchy has no nodes")
        # level-major, id-sorted: the node order everything else uses;
        # input already in that order (as serialize_hierarchy writes it)
        # keeps its columns
        in_order = bool((levels[1:] >= levels[:-1]).all()) and _ascending(
            data, offsets, levels[1:] == levels[:-1]
        )
        if in_order:
            order = None
            repeats = False
        else:
            order = _id_order(data, offsets, levels)
            # each sorted column frees the one it replaces
            sorted_ids = _gather(data, offsets, order)
            data = None
            data = bytes(sorted_ids)
            del sorted_ids
            offsets = _offsets(np.diff(offsets)[order])
            levels = levels[order]
            # sorted ids ascend strictly within a level unless one repeats
            repeats = not _ascending(data, offsets, levels[1:] == levels[:-1])

        ids = IdColumn(data, offsets)

        def text(i) -> str:
            """The id at position ``i`` in node order."""
            return _text(ids.raw(i))

        # a valid tree names only nodes above its bottom level as parents,
        # so only they are indexed; an id that repeats does so within a
        # level, at two levels above the bottom, or above and at the bottom
        above = int(np.searchsorted(levels, levels[-1]))
        index = dict(zip(_slices(data, offsets[: above + 1]), range(above)))
        bottom = IdColumn(data, offsets[above:])
        repeats = repeats or len(index) < above or bottom.meets(index)

        bad_count = ~(np.isfinite(counts) & (counts >= 0))
        if repeats or bad_count.any():
            # each input row's position in node order
            rows = range(n) if order is None else np.argsort(order).tolist()
            seen = set()
            for i, bad, count in zip(rows, bad_count.tolist(), counts.tolist()):
                nid = ids.raw(i)
                if nid in seen:
                    raise DuplicateId(f"duplicate node id {_text(nid)!r}")
                if bad:
                    raise NegativeCount(f"node {_text(nid)!r} has invalid count {count!r}")
                seen.add(nid)

        if not in_order:
            codes = codes[order]
            counts = counts[order]
        names = list(names)
        is_root = np.fromiter(map(operator.not_, names), dtype=bool, count=len(names))
        found = np.array(
            [_ORPHAN if root else index.get(_utf8(name), _ORPHAN)
             for name, root in zip(names, is_root.tolist())],
            dtype=np.intp,
        )
        parent = found[codes]
        is_root = is_root[codes]
        if ((parent == _ORPHAN) & ~is_root).any():
            # a parent at the bottom level or missing
            for k, name in enumerate(names):
                if found[k] == _ORPHAN and name:
                    at = bottom.find(_utf8(name))
                    found[k] = _ORPHAN if at < 0 else above + at
            parent = found[codes]
        del index
        parent[is_root] = _ROOT

        roots = np.flatnonzero(parent == _ROOT)
        if roots.size == 0:
            raise MissingRoot("no root row (empty parent_id) found")
        if roots.size > 1:
            listed = ", ".join(sorted(map(text, roots)))
            raise DuplicateId(f"multiple roots: {listed}")
        root = int(roots[0])
        if levels[root] != 1:
            raise LevelMismatch(
                f"root {text(root)!r} must be at level 1, got {int(levels[root])}"
            )

        def first(mask: np.ndarray) -> Optional[int]:
            """Position of the offending node that came first in the input."""
            at = np.flatnonzero(mask)
            if not at.size:
                return None
            return int(at[0] if order is None else at[np.argmin(order[at])])

        # orphans, and nodes not one level below their parent, a chunk at
        # a time; the root reads another node's level, and is masked out
        bad = parent == _ORPHAN
        for lo in range(0, n, _CHUNK_IDS):
            span = slice(lo, lo + _CHUNK_IDS)
            up = parent[span]
            bad[span] |= (up >= 0) & (levels[up] + 1 != levels[span])
        i = first(bad)
        if i is not None:
            nid, pid = text(i), names[codes[i]]
            if parent[i] == _ORPHAN:
                raise OrphanNode(f"node {nid!r} references missing parent {pid!r}")
            raise LevelMismatch(
                f"node {nid!r} at level {int(levels[i])} under parent "
                f"{pid!r} at level {int(levels[parent[i]])}"
            )
        del bad

        depth = int(levels.max())
        # every parent is now a node, and the root's -1 marks the last
        # node, which sits at the bottom level
        has_child = np.zeros(n, dtype=bool)
        has_child[parent] = True
        i = first(~has_child & (levels != depth))
        if i is not None:
            raise LevelMismatch(
                f"leaf {text(i)!r} at level {int(levels[i])} but tree depth is "
                f"{depth}; all leaves must sit at the bottom level"
            )

        self._data = data
        self._offsets = offsets
        self._parent = parent
        self._count = counts
        offsets.flags.writeable = parent.flags.writeable = counts.flags.writeable = False
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
        s = self._level_slice(level)
        return tuple(IdColumn(self._data, self._offsets[s.start : s.stop + 1]))

    def level_counts(self, level: int) -> np.ndarray:
        """Counts at ``level``, in :meth:`level_ids` order (a copy)."""
        return self._count[self._level_slice(level)].copy()

    def level_parents(self, level: int) -> np.ndarray:
        """For each node at ``level``, its parent's position in
        :meth:`level_ids` of the level above (-1 for the root)."""
        parents = self._parent[self._level_slice(level)]
        return parents - self._start[level - 2] if level > 1 else parents.copy()

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hierarchy):
            return NotImplemented
        return (
            self._data == other._data
            and np.array_equal(self._offsets, other._offsets)
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

    The text is read once, in blocks that end at a line end: blocks of
    plain text (no quote, NUL or lone CR, four fields on every line) are
    cut into columns as UTF-8 bytes with numpy, until the first block
    that is not plain or holds a blank or malformed row, which
    :mod:`csv` reads with the rest. Both give the same fields (see
    :mod:`hierdp.csvread`).
    """
    # the tokenizers are loaded by the first parse: where no bytecode is
    # cached, every start compiles each module it imports, and a process
    # that reads no CSV need not compile them
    from .csvread import text_columns

    return Hierarchy._of_columns(text_columns(csv_text))


def _read_hierarchy(f) -> Hierarchy:
    """:func:`parse_hierarchy` of the UTF-8 text of ``f``, a binary
    file or pipe, less a leading byte order mark. The file is read once,
    in blocks, so that its text is never held whole, whichever
    tokenizer reads it. Bytes that are not UTF-8 raise
    :class:`InvalidSpec` naming their row."""
    from .csvread import file_columns

    return Hierarchy._of_columns(file_columns(f))


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
        for name in ("leaf_mu", "leaf_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)!r}")
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
    # a sum past the float range is refused below, so numpy need not warn
    with np.errstate(over="ignore"):
        for fan in reversed(spec.fanouts):
            # each parent's children added in id order, as a running total
            counts.insert(0, counts[0].reshape(-1, fan).cumsum(axis=1)[:, -1])
    root = float(counts[0][0])
    if not math.isfinite(root):
        raise InvalidSpec(
            f"leaf_mu {spec.leaf_mu!r} and leaf_sigma {spec.leaf_sigma!r} draw a "
            f"root count of {root!r}, which is not finite"
        )

    levels = np.repeat(np.arange(1, len(ids) + 1), [len(level) for level in ids])
    return Hierarchy(
        list(chain.from_iterable(ids)),
        list(chain.from_iterable(parent_ids)),
        levels,
        np.concatenate(counts),
    )
