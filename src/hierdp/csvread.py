"""CSV text into the per-node columns that :class:`hierdp.hierarchy.Hierarchy`
validates: two tokenizers, one for plain text and one for anything else.

Text is read once, as UTF-8 bytes from a binary file, a pipe or an
encoded string, in blocks that each end at a line end, so a file's text
is never held whole. A block of plain text (no quote, NUL or lone
CR) is cut as UTF-8 bytes with numpy, with no Python object per field:
its delimiters are found through one array view of it, its ids are
masked straight into one UTF-8 buffer, each run of equal parent fields
is decoded once into a code in a table of the distinct parent ids, and
numbers are read only as numpy can read them alone: levels of 1 to 18
and counts of 1 to 15 ASCII digits by Horner's rule, other counts
through numpy's string cast, which calls ``float``. The first block that
is not plain, that holds a blank or malformed row, or that holds a
number in any other form goes to :mod:`csv` with every block after it,
read a record at a time into the same columns, its rows numbered on from
the lines cut before it. Both give the same fields, whitespace stripped
as ``str.strip`` does, so the same tree or the same error.

:func:`hierdp.hierarchy.parse_hierarchy` imports this module on its
first call, so a process that reads no CSV never loads it.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from codecs import BOM_UTF8
from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidSpec, LevelMismatch, MissingRoot, NegativeCount
from .hierarchy import CSV_HEADER, _text, _utf8

# CSV text is read, cut and converted in blocks of about this many
# bytes, each ending at a line end
_BLOCK_SIZE = 1 << 16
_LEVEL_MAX = np.iinfo(np.int64).max
# a count of at most this many digits is exact as a float64; a level of
# at most this many, as an int64
_COUNT_DIGITS = 15
_LEVEL_DIGITS = 18
# other counts are converted through numpy's string cast when no count
# field of the block is wider than this; else csv reads the block
_CAST_WIDTH = 40


def file_columns(f, errors: str = "strict") -> list:
    """The columns of the UTF-8 text of ``f``, a binary file or a pipe,
    less a leading byte order mark, read once, in blocks, and decoded
    with the ``errors`` handler."""
    head = f.read(len(BOM_UTF8))
    chunks = iter(partial(f.read, _BLOCK_SIZE), b"")
    if head != BOM_UTF8:
        chunks = chain([head], chunks)
    return _read_columns(_line_blocks(chunks), errors)


def _read_columns(blocks: Iterator[bytes], errors: str) -> list:
    """The columns (see :meth:`_Columns.finish`) of the UTF-8 text of
    ``blocks``, which end at a line end, decoded with the ``errors``
    handler: each block cut by :func:`_byte_block` until the first one
    it cannot cut, which :mod:`csv` reads with every block after it."""
    limit = csv.field_size_limit()
    columns = _Columns()
    row = 0
    for block in blocks:
        if not _byte_block(columns, block, not row, errors, limit):
            _reader_columns(columns, chain([block], blocks), errors, row)
            break
        # the header, then one line per node
        row = 1 + len(columns.levels)
    else:
        if not row:
            raise MissingRoot("empty CSV input")
    return columns.finish()


def _line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of ``chunks`` regrouped into blocks that each end at a
    line end (LF), but the last, which ends with the bytes."""
    rest = b""
    for chunk in chunks:
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest


class _Columns:
    """Per-node columns as a tokenizer reads them, in input order: each
    id appended to one UTF-8 buffer, each parent id as its code in the
    table of distinct parent ids, levels and counts. No id string
    outlives the block it was read in."""

    def __init__(self):
        self.data = bytearray()
        self.offsets = array("q", [0])
        self.names: dict[str, int] = {}
        self.codes = array("q")
        self.levels = array("q")
        self.counts = array("d")

    def append(self, nid: str, pid: str, level: int, count: float) -> None:
        self.data += _utf8(nid)
        self.offsets.append(len(self.data))
        self.codes.append(self.names.setdefault(pid, len(self.names)))
        self.levels.append(level)
        self.counts.append(count)

    def extend(self, data, lengths, codes, levels, counts) -> None:
        """Append rows: their ids' bytes joined, each id's length, and
        arrays of parent codes, levels and counts."""
        self.offsets.frombytes((np.cumsum(lengths) + len(self.data)).tobytes())
        self.data += memoryview(data)
        self.codes.frombytes(codes.tobytes())
        self.levels.frombytes(levels.tobytes())
        self.counts.frombytes(counts.tobytes())

    def finish(self) -> list:
        """The columns, in the order :meth:`Hierarchy._of_columns`
        takes them: the id buffer, its offsets, the table of parent ids,
        the parent codes, levels and counts."""
        return [
            bytes(self.data),
            np.frombuffer(self.offsets, dtype=np.int64),
            self.names,
            np.frombuffer(self.codes, dtype=np.int64),
            np.frombuffer(self.levels, dtype=np.int64),
            np.frombuffer(self.counts, dtype=float),
        ]


def _byte_block(columns: _Columns, block: bytes, header: bool, errors: str,
                limit: int) -> bool:
    """Append the rows of ``block``, plain CSV text as UTF-8 that ends at
    a line end and, when ``header``, starts with the header line, to
    ``columns``; or append nothing and return False when the block needs
    :mod:`csv`: it holds a quote, a NUL or a CR that does not start a
    CRLF line end, it is not UTF-8 under the ``errors`` handler, its
    header is not :data:`CSV_HEADER`, a data line does not hold exactly
    four fields or is longer than ``limit`` bytes (the csv module's
    field size limit), a row is blank or malformed, or a level or count
    is in a form :func:`_convert` does not read. The block is cut by
    :func:`_cut` and converted by :func:`_convert`, so none of its
    fields outlive it."""
    if b'"' in block or b"\x00" in block:
        return False
    if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
        return False
    if not block.isascii():
        try:
            block.decode("utf-8", errors)
        except UnicodeDecodeError:
            return False
    if header:
        head = block.find(b"\n")
        if head < 0:
            head = len(block)
        if head > limit or [h.strip() for h in _text(block[:head]).split(",")] != CSV_HEADER:
            return False
        block = block[head + 1 :]
        if not block:
            return True
    fields = _cut(block, limit)
    return fields is not None and _convert(columns, block, *fields)


def _cut(block: bytes, limit: int):
    """The bytes of ``block``, whole data lines, as a numpy view, and the
    bounds [lo, hi) of its stripped fields as two arrays of four rows,
    one per column; or None when a line does not hold exactly three
    commas or is longer than ``limit`` bytes."""
    size = len(block) - block.endswith(b"\n")
    a = np.frombuffer(block, dtype=np.uint8, count=size)
    delims = np.flatnonzero((a == 44) | (a == 10))
    rows = (len(delims) + 1) // 4
    # every fourth delimiter is a line end, and only those are
    ends = a[delims] == 10
    if len(delims) != 4 * rows - 1 or np.count_nonzero(ends) != rows - 1 or not ends[3::4].all():
        return None
    del ends
    lo = np.empty(4 * rows, dtype=np.int64)
    lo[0] = 0
    lo[1:] = delims + 1
    hi = np.empty(4 * rows, dtype=np.int64)
    hi[:-1] = delims
    hi[-1] = size
    del delims
    if int((hi[3::4] - lo[0::4]).max()) > limit:
        return None
    _strip(block, a, lo, hi)
    return a, lo.reshape(rows, 4).T, hi.reshape(rows, 4).T


def _convert(columns: _Columns, block: bytes, a: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> bool:
    """Append the rows whose fields :func:`_cut` found in ``block`` to
    ``columns``; or False when a row is blank or malformed, or a number
    is in a form read here by neither :func:`_numbers` nor, for counts,
    :func:`_text_counts`. Ids are masked out of the bytes, parent ids
    decoded once per run of equal fields."""
    (id_lo, pid_lo, level_lo, count_lo), (id_hi, pid_hi, level_hi, count_hi) = lo, hi
    if not (id_lo < id_hi).all():
        return False
    levels = _numbers(a, level_lo, level_hi, _LEVEL_DIGITS, np.int64)
    if levels is None or (levels < 1).any():
        return False
    counts = _numbers(a, count_lo, count_hi, _COUNT_DIGITS, float)
    if counts is None:
        counts = _text_counts(a, count_lo, count_hi)
    if counts is None or not (np.isfinite(counts) & (counts >= 0)).all():
        return False
    columns.extend(
        _field_bytes(a, id_lo, id_hi), id_hi - id_lo,
        _parent_codes(columns.names, block, a, pid_lo, pid_hi), levels, counts,
    )
    return True


def _is_space(b: np.ndarray) -> np.ndarray:
    """Which of the bytes ``b`` are ASCII whitespace to ``str.strip``:
    9 to 13 and 28 to 32 (the subtractions wrap around)."""
    return ((b - np.uint8(9)) <= 4) | ((b - np.uint8(28)) <= 4)


def _strip(block: bytes, a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Move the bounds [lo, hi) of fields in ``a``, the bytes of
    ``block``, in past the whitespace ``str.strip`` removes. Only a
    field with an edge byte below ``!`` or past ASCII is looked at: one
    ASCII whitespace byte at each edge is dropped in numpy, and a field
    still padded, or with a non-ASCII byte at an edge, is decoded and
    stripped as ``str``."""
    last = len(a) - 1
    # bytes 0 to 32 and 128 to 255 wrap to 95 and up
    odd = ((a[np.minimum(lo, last)] - np.uint8(33)) >= 95) | ((a[hi - 1] - np.uint8(33)) >= 95)
    at = np.flatnonzero(odd & (lo < hi))
    if not len(at):
        return
    start, end = lo[at], hi[at]
    start += (start < end) & _is_space(a[np.minimum(start, last)])
    end -= (start < end) & _is_space(a[end - 1])
    first, final = a[np.minimum(start, last)], a[end - 1]
    odd = _is_space(first) | _is_space(final) | (first >= 128) | (final >= 128)
    for i in np.flatnonzero((start < end) & odd).tolist():
        text = _text(block[start[i] : end[i]])
        body = text.strip()
        start[i] += len(_utf8(text[: len(text) - len(text.lstrip())]))
        end[i] = start[i] + len(_utf8(body))
    lo[at], hi[at] = start, end


def _field_bytes(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The bytes of the fields [lo, hi) of ``a``, in order and apart,
    joined. Fields and the gaps between them are masked by runs of
    bools, so no index is made per byte."""
    if not len(lo):
        return a[:0]
    runs = np.empty(2 * len(lo), dtype=np.int64)
    runs[0::2] = lo
    runs[2::2] -= hi[:-1]
    runs[1::2] = hi - lo
    return a[: hi[-1]][np.repeat(np.tile(np.array([False, True]), len(lo)), runs)]


def _parent_codes(names: dict, block: bytes, a: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """Each row's parent code (its parent id's place in ``names``, the
    distinct parent ids in the order first seen), from its
    stripped parent field [lo, hi) of ``a``, the bytes of ``block``:
    each field as wide as the row before's is compared with it in
    numpy, and each run of equal fields decoded once."""
    width = hi - lo
    wide = width[1:] == width[:-1]
    same = np.zeros(len(lo), dtype=bool)
    same[1:] = wide & (width[1:] == 0)
    # fields as wide as the row before's, compared byte by byte
    pairs = 1 + np.flatnonzero(wide & (width[1:] > 0))
    if len(pairs):
        differ = _field_bytes(a, lo[pairs], hi[pairs]) != _field_bytes(a, lo[pairs - 1], hi[pairs - 1])
        n = width[pairs]
        same[pairs] = ~np.logical_or.reduceat(differ, np.cumsum(n) - n)
    runs = np.flatnonzero(~same)
    codes = [
        names.setdefault(_text(block[i:j]), len(names))
        for i, j in zip(lo[runs].tolist(), hi[runs].tolist())
    ]
    return np.repeat(np.array(codes, dtype=np.int64), np.diff(runs, append=len(lo)))


def _numbers(a: np.ndarray, lo: np.ndarray, hi: np.ndarray, digits: int,
             dtype) -> Optional[np.ndarray]:
    """The numbers in the stripped fields [lo, hi) of ``a`` as ``dtype``
    (np.int64 levels, float counts), read by Horner's rule; or None
    unless every field is 1 to ``digits`` ASCII digits."""
    width = hi - lo
    if not (1 <= width.min() and width.max() <= digits):
        return None
    value = np.zeros(len(lo), dtype=dtype)
    stray = np.zeros(len(lo), dtype=bool)
    narrowest = int(width.min())
    # the digits right-aligned, most significant first; a position
    # before the block's start wraps to its end, and is masked
    for k in range(int(width.max()), 0, -1):
        digit = a[hi - k] - np.uint8(48)
        if k > narrowest:
            digit[width < k] = 0
        stray |= digit > 9
        value *= 10
        value += digit
    return None if stray.any() else value


def _text_counts(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
    """The counts in the fields [lo, hi) of ``a`` through numpy's string
    cast, which calls ``float`` on each; or None when a field is empty or
    wider than :data:`_CAST_WIDTH`, or the cast rejects one (it reads
    ASCII only)."""
    width = hi - lo
    widest = int(width.max())
    if not width.min() or widest > _CAST_WIDTH:
        return None
    # each field and the bytes after it, up to the widest field, with
    # those bytes zeroed: numpy's 'S' drops trailing NULs
    padded = np.zeros(len(a) + widest, dtype=np.uint8)
    padded[: len(a)] = a
    cells = sliding_window_view(padded, widest)[lo]
    np.multiply(cells, np.arange(widest) < width[:, None], out=cells)
    try:
        return cells.view(f"S{widest}").ravel().astype(float)
    except ValueError:
        return None


def _lines(blocks: Iterable[bytes], errors: str) -> Iterator[str]:
    """The lines of UTF-8 ``blocks`` that end at a line end, decoded with
    the ``errors`` handler; a block that is not UTF-8 yields the lines
    before its first bad byte, then raises UnicodeDecodeError."""
    for block in blocks:
        try:
            text = block.decode("utf-8", errors)
        except UnicodeDecodeError as e:
            good = block.rfind(b"\n", 0, e.start) + 1
            # a string's lines end at LF only, so a lone CR stays inside its line
            yield from io.StringIO(block[:good].decode("utf-8", errors))
            raise
        yield from io.StringIO(text)


def _reader_columns(columns: _Columns, blocks: Iterable[bytes], errors: str,
                    row: int) -> None:
    """Append the rows of CSV text given as UTF-8 blocks that end at a
    line end to ``columns``, read by :mod:`csv` one record at a time;
    ``row`` lines, the header and then one a node, came before the
    blocks (0: they start with the header, in a block that is not
    empty). Blank rows are
    skipped; the first faulty record in row order (bytes that are not
    UTF-8, one the csv module cannot read, a bad header, a malformed
    data row) raises an error naming its row."""
    records = enumerate(csv.reader(_lines(blocks, errors)), start=row + 1)
    try:
        if not row:
            # a block is never empty, so it holds a record
            row, header = next(records)
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
            columns.append(nid, pid, level, count)
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
    except UnicodeDecodeError as e:
        raise InvalidSpec(f"row {row + 1}: not UTF-8 text ({e.reason})") from None
