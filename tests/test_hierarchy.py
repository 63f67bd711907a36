import codecs
import csv
import hashlib
import io
import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hierdp.errors import (
    DuplicateId,
    InvalidSpec,
    LengthMismatch,
    LevelMismatch,
    MissingRoot,
    NegativeCount,
    OrphanNode,
)
import hierdp.cli as cli
import hierdp.csvread as csvread
import hierdp.hierarchy as hierarchy
from hierdp.hierarchy import (
    CSV_HEADER,
    Hierarchy,
    LevelStats,
    SynthSpec,
    level_stats,
    parse_hierarchy,
    serialize_hierarchy,
    synth_hierarchy,
)

from trees import residuals, rows_of, tree


class TestParse:
    def test_single_root(self):
        h = parse_hierarchy("node_id,parent_id,level,count\nA,,1,7\n")
        assert h.depth == 1
        assert h.level_counts(1).tolist() == [7.0]
        assert len(h) == 1

    def test_va_example(self, va_hierarchy):
        h = va_hierarchy
        assert h.depth == 3
        assert len(h) == 8
        assert h.level_ids(1) == ("VA",)
        assert h.level_ids(2) == ("VA-100", "VA-200")
        assert h.level_counts(2).tolist() == [300.0, 150.0]
        children = [nid for nid, p in zip(h.level_ids(3), h.level_parents(3)) if p == 1]
        assert children == ["VA-200-1", "VA-200-2"]

    def test_missing_root(self):
        text = "node_id,parent_id,level,count\nB,A,2,1\n"
        with pytest.raises((MissingRoot, OrphanNode)):
            parse_hierarchy(text)

    def test_duplicate_id_names_offender(self):
        text = "node_id,parent_id,level,count\nA,,1,1\nB,A,2,1\nB,A,2,2\n"
        with pytest.raises(DuplicateId, match="'B'"):
            parse_hierarchy(text)

    def test_orphan_names_offender(self):
        text = "node_id,parent_id,level,count\nA,,1,1\nB,missing,2,1\n"
        with pytest.raises(OrphanNode, match="'missing'"):
            parse_hierarchy(text)

    def test_parent_at_same_level_rejected(self):
        text = "node_id,parent_id,level,count\nA,,1,1\nB,A,1,1\n"
        with pytest.raises(LevelMismatch, match="'B'"):
            parse_hierarchy(text)

    def test_ragged_tree_rejected(self):
        # C is a leaf at level 2 while the tree reaches level 3
        text = (
            "node_id,parent_id,level,count\n"
            "A,,1,3\nB,A,2,2\nC,A,2,1\nD,B,3,2\n"
        )
        with pytest.raises(LevelMismatch, match="'C'"):
            parse_hierarchy(text)

    def test_negative_count_names_row(self):
        text = "node_id,parent_id,level,count\nA,,1,-4\n"
        with pytest.raises(NegativeCount, match="row 2"):
            parse_hierarchy(text)

    def test_non_numeric_count(self):
        text = "node_id,parent_id,level,count\nA,,1,abc\n"
        with pytest.raises(NegativeCount, match="'abc'"):
            parse_hierarchy(text)

    def test_two_roots_rejected(self):
        text = "node_id,parent_id,level,count\nA,,1,1\nB,,1,1\n"
        with pytest.raises(DuplicateId):
            parse_hierarchy(text)

    def test_bad_header(self):
        with pytest.raises(InvalidSpec):
            parse_hierarchy("id,parent,lvl,n\nA,,1,1\n")

    def test_bad_header_before_lone_cr(self):
        with pytest.raises(InvalidSpec) as info:
            parse_hierarchy("node_id,parent,level,count\nA\r,,1,3\n")
        assert str(info.value) == (
            "bad header ['node_id', 'parent', 'level', 'count']; "
            "expected node_id,parent_id,level,count"
        )

    def test_empty_text(self):
        with pytest.raises(MissingRoot) as info:
            parse_hierarchy("")
        assert str(info.value) == "empty CSV input"

    def test_roundtrip(self, va_hierarchy):
        assert parse_hierarchy(serialize_hierarchy(va_hierarchy)) == va_hierarchy

    def test_roundtrip_real_counts(self):
        h = tree([("a", "", 1, 1.75), ("a-1", "a", 2, 0.25), ("a-2", "a", 2, 1.5)])
        assert parse_hierarchy(serialize_hierarchy(h)) == h


HEADER = "node_id,parent_id,level,count\n"

# Malformed CSVs with two faults on different rows: the class and the
# message of the error raised, unchanged from the row-by-row parser.
# Row faults (field count, id, level, count) come first, in row order;
# then duplicates, roots, parent links and ragged leaves, each naming
# the first offending node in input order.
PRECEDENCE = [
    ("bad_level_before_bad_count", "A,,1,3\nB,A,x,1\nC,A,2,-2\n",
     LevelMismatch, "row 3 ('B'): level 'x' is not an integer"),
    ("bad_count_before_bad_level", "A,,1,3\nB,A,2,-2\nC,A,x,1\n",
     NegativeCount, "row 3 ('B'): count must be a nonnegative real, got -2"),
    ("bad_level_and_count_same_row", "A,,1,3\nB,A,0,-2\n",
     LevelMismatch, "row 3 ('B'): level must be >= 1"),
    ("field_count_before_empty_id", "A,,1,3\nB,A,2\n,A,2,1\n",
     InvalidSpec, "row 3: expected 4 fields, got 3"),
    ("empty_id_before_bad_level", "A,,1,3\n ,A,2,1\nB,A,x,1\n",
     InvalidSpec, "row 3: empty node_id"),
    ("bad_count_before_earlier_duplicate", "A,,1,3\nB,A,2,1\nB,A,2,1\nC,A,2,nan\n",
     NegativeCount, "row 5 ('C'): count must be a nonnegative real, got nan"),
    ("duplicate_before_orphan", "A,,1,3\nB,A,2,1\nB,A,2,2\nC,Z,2,1\n",
     DuplicateId, "duplicate node id 'B'"),
    ("duplicate_before_earlier_orphan", "A,,1,3\nC,Z,2,1\nB,A,2,1\nB,A,2,2\n",
     DuplicateId, "duplicate node id 'B'"),
    ("level_mismatch_before_orphan", "A,,1,3\nB,A,3,1\nC,Z,2,1\n",
     LevelMismatch, "node 'B' at level 3 under parent 'A' at level 1"),
    ("orphan_before_level_mismatch", "A,,1,3\nC,Z,2,1\nB,A,3,1\n",
     OrphanNode, "node 'C' references missing parent 'Z'"),
    ("orphans_named_in_input_order", "A,,1,3\nz,Q,2,1\nb,P,2,1\n",
     OrphanNode, "node 'z' references missing parent 'Q'"),
    ("mismatch_named_in_input_order", "A,,1,3\nB,A,2,1\nz,A,3,1\nb,B,3,1\nc,B,4,1\n",
     LevelMismatch, "node 'z' at level 3 under parent 'A' at level 1"),
    ("orphan_before_ragged_leaf", "A,,1,3\nB,A,2,1\nC,A,2,2\nD,C,3,2\nE,Z,3,1\n",
     OrphanNode, "node 'E' references missing parent 'Z'"),
    ("ragged_leaf_first_named", "A,,1,3\nB,A,2,1\nC,A,2,2\nD,C,3,2\nF,A,2,0\n",
     LevelMismatch, "leaf 'B' at level 2 but tree depth is 3; "
     "all leaves must sit at the bottom level"),
    ("no_root_before_orphan", "B,A,2,1\nC,B,3,1\n",
     MissingRoot, "no root row (empty parent_id) found"),
    ("two_roots_before_orphan", "A,,1,1\nC,Z,2,1\nB,,1,1\n",
     DuplicateId, "multiple roots: A, B"),
    ("root_at_level_2_before_orphan", "A,,2,1\nC,Z,3,1\nB,A,3,1\n",
     LevelMismatch, "root 'A' must be at level 1, got 2"),
    ("duplicate_root_id", "A,,1,1\nA,,1,1\n",
     DuplicateId, "duplicate node id 'A'"),
    # a record the csv module cannot read does not outrank an earlier fault
    ("bad_level_before_lone_cr", "A,,1,3\nB,A,x,1\nC,A,2,1\nD\r,A,2,1\n",
     LevelMismatch, "row 3 ('B'): level 'x' is not an integer"),
    ("bad_level_before_oversized_field",
     "A,,1,3\nB,A,x,1\nC,A,2,1\n" + "D" * (csv.field_size_limit() + 1) + ",A,2,1\n",
     LevelMismatch, "row 3 ('B'): level 'x' is not an integer"),
    ("header_only", "", MissingRoot, "hierarchy has no nodes"),
    ("whitespace_rows_only", "  \n , , , \n", MissingRoot, "hierarchy has no nodes"),
]

# the same precedence through the column constructor, which has no row
# checks of its own
NODE_PRECEDENCE = [
    ("bad_count_before_duplicate",
     [("A", "", 1, 3.0), ("B", "A", 2, -1.0), ("C", "A", 2, 1.0), ("C", "A", 2, 2.0)],
     NegativeCount, "node 'B' has invalid count -1.0"),
    ("duplicate_before_bad_count",
     [("A", "", 1, 3.0), ("C", "A", 2, 1.0), ("C", "A", 2, 2.0),
      ("B", "A", 2, float("nan"))],
     DuplicateId, "duplicate node id 'C'"),
    ("duplicate_before_missing_root",
     [("B", "A", 2, 1.0), ("B", "A", 2, 1.0)],
     DuplicateId, "duplicate node id 'B'"),
    ("orphans_named_in_input_order",
     [("A", "", 1, 3.0), ("z", "Q", 2, 1.0), ("b", "P", 2, 1.0)],
     OrphanNode, "node 'z' references missing parent 'Q'"),
    ("empty", [], MissingRoot, "hierarchy has no nodes"),
    # an empty parent id marks a root
    ("no_root_before_orphan", [("B", "A", 2, 1.0), ("C", "B", 3, 1.0)],
     MissingRoot, "no root row (empty parent_id) found"),
    ("two_roots_before_orphan",
     [("A", "", 1, 1.0), ("C", "Z", 2, 1.0), ("B", "", 1, 1.0)],
     DuplicateId, "multiple roots: A, B"),
    ("root_at_level_2_before_orphan",
     [("A", "", 2, 1.0), ("C", "Z", 3, 1.0), ("B", "A", 3, 1.0)],
     LevelMismatch, "root 'A' must be at level 1, got 2"),
]


class TestErrorPrecedence:
    @pytest.mark.parametrize(
        "body,error,message", [c[1:] for c in PRECEDENCE], ids=[c[0] for c in PRECEDENCE]
    )
    def test_csv(self, body, error, message):
        with pytest.raises(error) as info:
            parse_hierarchy(HEADER + body)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "nodes,error,message",
        [c[1:] for c in NODE_PRECEDENCE],
        ids=[c[0] for c in NODE_PRECEDENCE],
    )
    def test_nodes(self, nodes, error, message):
        with pytest.raises(error) as info:
            tree(nodes)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows",
        [
            ["A,,1,3", "B,A,2,3", "C,B,3,3", "B,C,3,0"],
            ["A,,1,3", "B,A,2,3", "C,B,3,3", "D,C,4,3", "C,A,2,0"],
            ["A,,1,3", "B,A,2,3", "B,A,2,0", "C,B,3,3"],
        ],
        ids=["above_and_bottom", "two_levels_above", "within_a_level"],
    )
    def test_repeated_id_at_any_levels(self, rows):
        for order in (rows, rows[::-1]):
            with pytest.raises(DuplicateId) as info:
                parse_hierarchy(HEADER + "\n".join(order) + "\n")
            ids = [row.split(",")[0] for row in order]
            first = next(nid for i, nid in enumerate(ids) if nid in ids[:i])
            assert str(info.value) == f"duplicate node id {first!r}"

    def test_level_beyond_int64_names_row(self):
        with pytest.raises(LevelMismatch, match="row 3"):
            parse_hierarchy(HEADER + "A,,1,3\nB,A,99999999999999999999,1\n")

    @pytest.mark.parametrize(
        "spoil,error,message",
        [
            # a leaf renamed to a tract's id
            (lambda rows: rows.__setitem__(-1, ("r-10", *rows[-1][1:])),
             DuplicateId, "duplicate node id 'r-10'"),
            # a leaf whose parent is another leaf
            (lambda rows: rows.__setitem__(-1, (rows[-1][0], "r-01-02", *rows[-1][2:])),
             LevelMismatch, "node 'r-40-50' at level 3 under parent 'r-01-02' at level 3"),
        ],
        ids=["bottom_id_above", "parent_at_the_bottom"],
    )
    def test_bottom_level_searched_in_a_wide_tree(self, spoil, error, message):
        # 2,000 leaves under 40 tracts: the bottom level is searched, not
        # scanned, for the ids above it and for a parent at the bottom
        rows = rows_of(synth_hierarchy(SynthSpec(seed=0, fanouts=(40, 50))))
        spoil(rows)
        with pytest.raises(error) as info:
            tree(rows)
        assert str(info.value) == message


class TestConstructor:
    """``Hierarchy(ids, parent_ids, levels, counts)``: one entry per node,
    in any order; the node with an empty parent id is the root."""

    def test_empty_parent_id_marks_the_root(self):
        h = Hierarchy(["a-1", "a", "a-2"], ["a", "", "a"], [2, 1, 2], [1.0, 3.0, 2.0])
        assert h.level_ids(1) == ("a",)
        assert h.level_parents(1).tolist() == [-1]
        assert h == parse_hierarchy(HEADER + "a,,1,3\na-1,a,2,1\na-2,a,2,2\n")

    def test_ids_keep_their_text_and_code_point_order(self):
        # kept as UTF-8 bytes, whose order is code-point order: a NUL at
        # the end of an id counts, and a lone surrogate passes through
        kids = ["a", "a\x00", "a\x00b", "ab", "é", "z", "😀", "\ud800", "\udfff"]
        for order in (kids, kids[::-1], sorted(kids)):
            h = Hierarchy(["r", *order], [""] + ["r"] * len(order),
                          [1] + [2] * len(order), [9.0] + [1.0] * len(order))
            assert h.level_ids(2) == tuple(sorted(kids))

    def test_keeps_its_count_array_read_only(self):
        # input already in node order is not copied
        counts = np.array([3.0, 1.0, 2.0])
        Hierarchy(["a", "a-1", "a-2"], ["", "a", "a"], [1, 2, 2], counts)
        assert not counts.flags.writeable


class TestInputForms:
    def test_whitespace_rows_skipped(self):
        text = HEADER + "A,,1,3\n   \n , , , \n\t\nB,A,2,3\n"
        assert parse_hierarchy(text) == parse_hierarchy(HEADER + "A,,1,3\nB,A,2,3\n")

    def test_fields_are_stripped(self):
        h = parse_hierarchy(HEADER + " A , , 1 , 3 \n B , A , 2 , 3 \n")
        assert h.level_ids(1) == ("A",)
        assert h.level_ids(2) == ("B",)
        assert h.level_parents(2).tolist() == [0]

    def test_quoted_id_with_comma_roundtrips(self):
        text = HEADER + '"a,1",,1,2\n"a,1-x","a,1",2,2\n'
        h = parse_hierarchy(text)
        assert h.level_ids(1) == ("a,1",)
        assert h.level_ids(2) == ("a,1-x",)
        out = serialize_hierarchy(h)
        assert out == HEADER + '"a,1",,1,2.0\n"a,1-x","a,1",2,2.0\n'
        assert parse_hierarchy(out) == h

    def test_crlf_line_endings(self, va_csv):
        assert parse_hierarchy(va_csv.replace("\n", "\r\n")) == parse_hierarchy(va_csv)

    def test_shuffled_order_gives_same_tree(self, va_hierarchy, va_csv):
        nodes = [
            (nid, pid, int(lv), float(count))
            for nid, pid, lv, count in (line.split(",") for line in va_csv.splitlines()[1:])
        ]
        for seed in range(5):
            shuffled = nodes[:]
            random.Random(seed).shuffle(shuffled)
            h = tree(shuffled)
            assert h == va_hierarchy
            assert rows_of(h) == nodes
            assert serialize_hierarchy(h) == serialize_hierarchy(va_hierarchy)
            rows = serialize_hierarchy(h).splitlines()[1:]
            random.Random(seed).shuffle(rows)
            assert parse_hierarchy(HEADER + "\n".join(rows) + "\n") == va_hierarchy


def _outcome(text):
    """The parsed hierarchy, or the class and message of the error."""
    try:
        return parse_hierarchy(text)
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)


# near-misses of the header send a text to csv.reader, which then
# rejects it (or, for the quoted one, accepts it)
FUZZ_HEADERS = [HEADER] * 8 + [
    " node_id , parent_id,level,count\t\n",
    '"node_id",parent_id,level,count\n', "node_id,parent_id,level\n",
    "node_id,parent_id,level,count,\n", "Node_id,parent_id,level,count\n", "",
]
FUZZ_PADS = ["", "", "", "", " ", "\t", "\x0b", "\u2028"]
FUZZ_TREES = [
    [("A", "", "1")],
    [("A", "", "1"), ("B", "A", "2"), ("C", "A", "2")],
    [("r", "", "1"), ("r-1", "r", "2"), ("e", "r-1", "3"), ("inf", "r-1", "3")],
]
FUZZ_COUNTS = ["0", "1", "2.5", "1e3", ".5", "1_000", "7"]
# what a field becomes when it is spoiled
FUZZ_SPOILS = ["", "A", "Z", "0", "-1", "x", "1.0", "nan", "inf", "-2", "1e999"]
FUZZ_CHARS = [",", "\n", " ", "\t", "\x0b", "\u2028", '"', "7", "-", ".", "e", "_", "q"]


def _fuzz_text(rng):
    """A short hierarchy CSV: a small valid tree with stray whitespace,
    its rows shuffled, some fields spoiled; sometimes a row of another
    width, a blank line, a quoted field or one stray character from the
    alphabet."""
    lines = []
    rows = [row + (rng.choice(FUZZ_COUNTS),) for row in rng.choice(FUZZ_TREES)]
    if rng.random() < 0.3:
        rng.shuffle(rows)
    for row in rows:
        fields = [rng.choice(FUZZ_SPOILS) if rng.random() < 0.04 else f for f in row]
        shape = rng.random()
        if shape < 0.03:
            fields = fields[:3]
        elif shape < 0.06:
            fields.append(rng.choice(FUZZ_COUNTS))
        elif shape < 0.09:
            fields = [rng.choice(["", " ", "\t"])]
        elif shape < 0.12:
            fields[0] = f'"{fields[0]}"'
        lines.append(",".join(rng.choice(FUZZ_PADS) + f + rng.choice(FUZZ_PADS) for f in fields))
    text = rng.choice(FUZZ_HEADERS) + "\n".join(lines) + rng.choice(["\n", "\n", ""])
    if rng.random() < 0.15:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(FUZZ_CHARS) + text[at:]
    return text


def _reads(text):
    """The byte tokenizer's columns of ``text``, or None when a block of
    it needs csv.reader."""
    columns = csvread._Columns()
    limit = csv.field_size_limit()
    header = True
    raw = text.encode("utf-8", "surrogatepass")
    size = csvread._BLOCK_SIZE
    for block in csvread._line_blocks(raw[i : i + size] for i in range(0, len(raw), size)):
        if not csvread._byte_block(columns, block, header, "surrogatepass", limit):
            return None
        header = False
    return None if header else columns


def _any_fields(columns, block, a, lo, hi):
    """Stands in for the per-block conversion of the byte path, and
    accepts any fields."""
    return True


def _cuts(text):
    """Whether the byte tokenizer cuts every line of ``text``, whatever
    the fields hold (a row fault would still send the text to
    csv.reader)."""
    real = csvread._convert
    csvread._convert = _any_fields
    try:
        return _reads(text) is not None
    finally:
        csvread._convert = real


class TestTokenizers:
    """Plain text, with LF or CRLF line ends, is cut as UTF-8 bytes with
    numpy; text holding a quote, a NUL or a lone CR goes through
    csv.reader. A text, its CRLF twin and csv.reader alone must give the
    same tree or the same error."""

    def assert_same_as_crlf_twin(self, text):
        assert _outcome(text) == _outcome(text.replace("\n", "\r\n"))

    def test_differential_against_csv_reader(self, monkeypatch):
        rng = random.Random(20240611)
        cut = twin_cut = read = parsed = compared = 0
        outcomes = {}
        for _ in range(3000):
            text = _fuzz_text(rng)
            # a quoted field spanning a line keeps its newline, which the
            # twin turns into CRLF: a different id, not a tokenizer fault
            if any("\n" in f for row in csv.reader(io.StringIO(text)) for f in row):
                continue
            compared += 1
            twin = text.replace("\n", "\r\n")
            cut += _cuts(text)
            twin_cut += _cuts(twin)
            read += _reads(text) is not None
            outcome = outcomes[text] = outcomes[twin] = _outcome(text)
            parsed += isinstance(outcome, Hierarchy)
            assert outcome == _outcome(twin), repr(text)
        # both tokenizers, and both parses and errors, are exercised
        assert compared == 2989 and cut > 1000
        assert parsed > 800 and compared - parsed > 800
        assert twin_cut > 1000
        # the byte path reads at least the 987 texts the str.split path
        # it replaced read: every field str.strip, int and float accept
        assert read >= 987
        # the reference: every text and twin read by csv.reader alone
        monkeypatch.setattr(csvread, "_byte_block", lambda *args: False)
        for text, outcome in outcomes.items():
            assert _outcome(text) == outcome, repr(text)

    @pytest.mark.parametrize(
        "body",
        [
            "A,,1,3\nB,A,2,3",  # no final newline
            "A,,1,3\n\nB,A,2,3\n",  # blank line
            "A,,1,3\n \t\u2028\nB,A,2,3\n",  # whitespace-only line
            "A,,1,3\nB,A,2,3,\n",  # five fields
            "A,,1,3\n ,A,2,3\n",  # empty node id
            "A,,1,3\nB,A, 2\x0b,\t3e0 \n",  # padded numbers
        ],
        ids=["no_final_newline", "blank_line", "whitespace_line", "five_fields",
             "empty_id", "padded_numbers"],
    )
    def test_named_cases(self, body):
        self.assert_same_as_crlf_twin(HEADER + body)

    @pytest.mark.parametrize(
        "pad", ["\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u3000", "\x1c",
                "\x0b\u2029 ", "    \t", " \t\x0c \u2028\x1f"],
    )
    def test_whitespace_stripped_as_str_strip(self, monkeypatch, pad):
        # ASCII whitespace is stripped in numpy, anything else as str; the
        # byte path reads the text, as csv.reader alone does
        text = (HEADER + f"{pad}A{pad},{pad},{pad}1{pad},{pad}3{pad}\n"
                f"{pad}\xe9{pad},A,2,{pad}3.5{pad}\n")
        assert _reads(text) is not None
        outcome = _outcome(text)
        assert outcome == _reader_outcome(text, monkeypatch)
        assert outcome.level_ids(2) == ("\xe9",)

    def test_lone_surrogates_pass_through(self, monkeypatch):
        # a string is encoded with lone surrogates passed through, and its
        # ids and parent ids decoded the same way
        text = HEADER + "\ud800,,1,3\n\udfff,\ud800,2,3\n"
        assert _reads(text) is not None
        outcome = _outcome(text)
        assert outcome == _reader_outcome(text, monkeypatch)
        assert outcome.level_ids(2) == ("\udfff",)

    def test_long_parent_ids(self, monkeypatch):
        # neighbouring parent fields of one width are compared byte by
        # byte, here past a shared stem of 40 bytes
        stem = "p" * 40
        parents = [f"{stem}{1 + i % 2}" for i in range(5)] + [f"{stem}2"]
        rows = ["r,,1,6", f"{stem}1,r,2,3", f"{stem}2,r,2,3"]
        rows += [f"c{i},{parent},3,1" for i, parent in enumerate(parents)]
        text = HEADER + "\n".join(rows) + "\n"
        columns = _reads(text)
        names = list(columns.names)
        assert [names[c] for c in columns.codes] == ["", "r", "r"] + parents
        assert _outcome(text) == _reader_outcome(text, monkeypatch)

    def test_counts_bit_for_bit_as_float(self):
        # all-digit counts of up to 15 digits are read by Horner's rule,
        # the others by numpy's string cast, which calls float
        rng = random.Random(5)
        texts = [repr(rng.uniform(0.0, 1e7)) for _ in range(3000)]
        texts += ["%.25g" % rng.uniform(0.0, 1e5) for _ in range(1000)]
        texts += [str(rng.randrange(10 ** rng.randrange(1, 19))) for _ in range(1000)]
        texts += ["1_000", "1e-320", "4.9406564584124654e-324", "+7", "-0", ".5", "5.",
                  "0001", "1E3", "123456789012345", "1234567890123456", "9007199254740993"]
        text = HEADER + "r,,1,1\n" + "".join(f"r-{i},r,2,{t}\n" for i, t in enumerate(texts))
        columns = _reads(text)
        assert columns is not None
        got = np.frombuffer(columns.counts, dtype=float)[1:]
        assert got.tobytes() == np.array([float(t) for t in texts]).tobytes()

    def test_named_outcomes(self):
        expected = parse_hierarchy(HEADER + "A,,1,3\nB,A,2,3\n")
        assert parse_hierarchy(HEADER + "A,,1,3\nB,A,2,3") == expected
        assert parse_hierarchy(HEADER + "A,,1,3\n \t\nB,A,2,3\n") == expected
        with pytest.raises(InvalidSpec, match=r"^row 3: expected 4 fields, got 5$"):
            parse_hierarchy(HEADER + "A,,1,3\nB,A,2,3,\n")
        with pytest.raises(InvalidSpec, match=r"^row 3: empty node_id$"):
            parse_hierarchy(HEADER + "A,,1,3\n ,A,2,3\n")

    @pytest.mark.parametrize(
        "text,cut",
        [
            (HEADER + "A,,1,3\nB,A,2,3\n", True),
            (HEADER + "A,,1,3\nB,A,2,3", True),
            (HEADER + '"A",,1,3\n', False),
            (HEADER.replace("\n", "\r\n") + "A,,1,3\r\n", True),
            (HEADER + "A\r,,1,3\n", False),
            (HEADER.replace("\n", "\r") + "A,,1,3\r", False),
            (HEADER + "A\x00,,1,3\n", False),
            (HEADER + "A,,1,3\n\n", False),
            (" " + HEADER + "A,,1,3\n", True),
            ("node_id,parent_id,level,count,\nA,,1,3,\n", False),
        ],
        ids=["plain", "no_final_newline", "quoted", "crlf", "lone_cr", "lone_cr_ends",
             "nul", "blank_line", "padded_header", "five_field_header"],
    )
    def test_which_tokenizer(self, text, cut):
        assert (_reads(text) is not None) is cut

    def test_field_size_limit(self):
        # a line longer than the csv module's field limit may hold a field
        # that module rejects, so such a text is left to csv.reader
        limit = csv.field_size_limit()
        for width, cut in ((limit - 5, True), (limit - 4, False), (limit, False)):
            text = HEADER + "r" * width + ",,1,3\n"
            assert (_reads(text) is not None) is cut
            assert parse_hierarchy(text).level_ids(1) == ("r" * width,)
        with pytest.raises(InvalidSpec, match=r"^row 2: field larger than field limit"):
            parse_hierarchy(HEADER + "r" * (limit + 1) + ",,1,3\n")

    def test_oversized_id_is_invalid_spec(self):
        text = HEADER + "A,,1,3\n" + "B" * 200_000 + ",A,2,3\n"
        for variant in (text, text.replace("\n", "\r\n")):
            with pytest.raises(InvalidSpec) as info:
                parse_hierarchy(variant)
            assert str(info.value) == (
                f"row 3: field larger than field limit ({csv.field_size_limit()})"
            )

    @pytest.mark.parametrize(
        "text,row",
        [
            ("node_id,parent_id,level,count\rA,,1,3\rB,A,2,3\r", 1),
            (HEADER + "A,,1,3\nB\r,A,2,3\n", 3),
            (HEADER + 'A,,1,3\n"B"\r,A,2,3\n', 3),
        ],
        ids=["lone_cr_ends", "cr_in_id", "cr_after_quote"],
    )
    def test_lone_cr_named(self, text, row):
        with pytest.raises(InvalidSpec) as info:
            parse_hierarchy(text)
        assert str(info.value) == (
            f"row {row}: lone carriage return (a CR with no LF after it) outside "
            "quotes; end lines with LF or CRLF"
        )

    def test_nul_byte(self):
        text = HEADER + "A,,1,3\nB\x00,A,2,3\n"
        if sys.version_info >= (3, 11):
            assert parse_hierarchy(text).level_ids(2) == ("B\x00",)
        else:
            with pytest.raises(InvalidSpec, match=r"^row 3: line contains NUL$"):
                parse_hierarchy(text)


def _reader_outcome(text, monkeypatch):
    """The outcome of ``text`` read by csv.reader alone."""
    with monkeypatch.context() as m:
        m.setattr(csvread, "_byte_block", lambda *args: False)
        return _outcome(text)


# the VA fixture's rows, one with padded fields, the last with no line end
BLOCK_ROWS = (
    "VA,,1,450\nVA-100,VA,2,300\nVA-200,VA,2,150\nVA-100-1,VA-100,3,120\n"
    "VA-100-2,VA-100,3,80\nVA-100-3,VA-100,3,100\n VA-200-1 , VA-200 ,3, 90\n"
    "VA-200-2,VA-200,3,60"
)


class TestBlocks:
    """Plain text is cut and converted in blocks that end at a line end.
    With blocks of a few characters every row starts a block or straddles
    a boundary, and the outcome is still that of csv.reader alone."""

    @pytest.mark.parametrize("chars", [1, 5, 13, 64])
    @pytest.mark.parametrize(
        "body,cut",
        [
            (BLOCK_ROWS + "\n", True),
            (BLOCK_ROWS, True),
            (BLOCK_ROWS.replace("\n", "\r\n") + "\r\n", True),
            (BLOCK_ROWS.replace("\n", "\r\n"), True),
            (BLOCK_ROWS.replace("VA-200-1", "\t \nVA-200-1") + "\n", False),
            (BLOCK_ROWS + "\n\n", False),
            (BLOCK_ROWS.replace("3,60", "3,-60"), False),
            (BLOCK_ROWS.replace("3,80", "x,80"), False),
            (BLOCK_ROWS.replace("3,100", "3,100,7"), False),
            (BLOCK_ROWS.replace("VA-200-2,", " ,"), False),
            (BLOCK_ROWS.replace("VA-100-3,VA-100", "VA-100-3,VA-1"), True),
            (BLOCK_ROWS.replace("VA-200-2", "VA-100-1"), True),
            # numbers the byte path does not read: csv.reader reads them
            (BLOCK_ROWS.replace("3,80", "3,80." + "0" * 38), False),
            (BLOCK_ROWS.replace("3,60", "3,\u0666\u0660"), False),
            (BLOCK_ROWS.replace("3,100", "+3,100"), False),
        ],
        ids=["lf", "no_final_newline", "crlf", "crlf_no_final_newline",
             "whitespace_row", "blank_last_row", "bad_count", "bad_level",
             "five_fields", "empty_id", "orphan", "duplicate",
             "count_of_41_chars", "non_ascii_digits", "signed_level"],
    )
    def test_same_as_csv_reader(self, monkeypatch, chars, body, cut):
        text = HEADER + body
        expected = _reader_outcome(text, monkeypatch)
        monkeypatch.setattr(csvread, "_BLOCK_SIZE", chars)
        assert (_reads(text) is not None) is cut
        assert _outcome(text) == expected

    def test_fuzz_texts_whatever_the_block_size(self, monkeypatch):
        rng = random.Random(7)
        texts = [_fuzz_text(rng) for _ in range(300)]
        expected = [_outcome(text) for text in texts]
        for chars in (1, 4, 9):
            monkeypatch.setattr(csvread, "_BLOCK_SIZE", chars)
            assert [_outcome(text) for text in texts] == expected

    def test_siblings_share_one_parent_string(self, monkeypatch):
        monkeypatch.setattr(csvread, "_BLOCK_SIZE", 5)
        columns = _reads(HEADER + BLOCK_ROWS)
        names = list(columns.names)
        assert [names[c] for c in columns.codes] == [
            "", "VA", "VA", "VA-100", "VA-100", "VA-100", "VA-200", "VA-200"
        ]
        assert len(names) == 4


class TestMemory:
    def test_parse_bytes_per_node(self):
        # tracemalloc counts the bytes Python objects ask for, so the
        # figures do not depend on the allocator or the host. Measured on
        # this tree (50,201 nodes) with Python 3.11: a parse peak of 82
        # bytes per node over the text, the text's UTF-8 copy included,
        # and 36 bytes retained by the tree; 59 and 36 when the text was
        # encoded a block at a time, 264 and 82 when the tree kept a str
        # per id, and 361 and 160 when the whole text was split at once
        # and the tree kept an id index.
        text = serialize_hierarchy(synth_hierarchy(SynthSpec(seed=0, fanouts=(200, 250))))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = parse_hierarchy(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - base) / len(h) < 310
        assert (retained - base) / len(h) < 120


    def test_quoted_parse_bytes_per_node(self):
        # the same tree with the first field of every line quoted is read
        # by csv.reader one record at a time: 82 bytes per node at the
        # peak with Python 3.11, the text's UTF-8 copy included, against
        # 57 when the text was encoded a block at a time, 192 when the
        # tree kept a str per id and 361 when every record was held at once
        text = serialize_hierarchy(synth_hierarchy(SynthSpec(seed=0, fanouts=(200, 250))))
        quoted = "".join(f'"{nid}",{rest}' for nid, rest in
                         (line.split(",", 1) for line in text.splitlines(keepends=True)))
        assert _reads(quoted) is None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = parse_hierarchy(quoted)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - base) / len(h) < 260
        assert (retained - base) / len(h) < 120


    def test_tree_keeps_few_bytes_per_node(self):
        # one UTF-8 buffer and int64 offsets hold the ids: 34 bytes per
        # node in all on this tree with Python 3.11, against 82 when
        # the tree kept a str per id
        text = serialize_hierarchy(synth_hierarchy(SynthSpec(seed=0, fanouts=(200, 250))))
        h, retained, _ = _traced(lambda: parse_hierarchy(text))
        assert retained / len(h) < 45

    def test_read_tree_never_holds_the_text(self, tmp_path):
        # a released tree (real-valued counts) read back as a prior: the
        # file is read in blocks, so the parse peaks below the file's
        # size plus the tree it keeps (5.7 MB against 3.6 + 3.4 MB with
        # Python 3.11); reading the whole text first peaked at 21 MB
        text = _noisy_prior()
        path = tmp_path / "prior.csv"
        path.write_text(text, encoding="utf-8")
        size = path.stat().st_size
        assert size > 2 * 2**20
        tree_read, retained, peak = _traced(lambda: cli._read_tree(str(path)))
        assert len(tree_read) == 100_251
        assert peak < size + retained

    def test_pipe_never_holds_the_text(self):
        # the same prior through a pipe is read in blocks as the file is:
        # 5.5 MB at the peak against 3.5 + 3.3 MB; reading a pipe whole
        # first peaked at 8.5 MB (Python 3.11)
        raw = _noisy_prior().encode()
        r, w = os.pipe()

        def write():
            with open(w, "wb", buffering=0) as out:
                view = memoryview(raw)
                while view:
                    view = view[out.write(view[: 1 << 16]) :]

        writer = threading.Thread(target=write, daemon=True)
        with open(r, "rb") as f:
            writer.start()
            try:
                tree_read, retained, peak = _traced(lambda: hierarchy._read_hierarchy(f))
            finally:
                writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(tree_read) == 100_251
        assert peak < len(raw) + retained

    def test_one_long_id_costs_only_its_own_bytes(self):
        # memory follows the bytes of the ids, never the node count times
        # the longest id (2 GB here): a 1.8 MB peak with Python 3.11,
        # against 3.6 MB when the tree kept a str per id
        long_id = "r-" + "z" * 100_000
        rows = ["r,,1,20001"] + [f"r-{j:05d},r,2,1" for j in range(20_000)]
        text = HEADER + "\n".join(rows + [f"{long_id},r,2,1"]) + "\n"
        h, _, peak = _traced(lambda: parse_hierarchy(text))
        assert h.level_ids(2)[-1] == long_id
        assert peak < 2.5 * 2**20


    def test_unsorted_long_id_costs_what_sorted_does(self):
        # rows out of level-then-id order are sorted as 8-byte words, with
        # bytes compared only within tied runs: one 100,000-character id
        # last in the level it sorts first in peaks at 2.0 MB with Python
        # 3.11, against 1.8 MB for the sorted rows; a bytes object per id
        # and a list of every position peaked at 3.8 MB
        rows = ["r,,1,20001"] + [f"r-{j:05d},r,2,1" for j in range(20_000)]
        sorted_text = HEADER + "\n".join(rows + ["r-" + "z" * 100_000 + ",r,2,1"]) + "\n"
        unsorted_text = HEADER + "\n".join(rows + ["L" * 100_000 + ",r,2,1"]) + "\n"
        _, _, sorted_peak = _traced(lambda: parse_hierarchy(sorted_text))
        h, _, peak = _traced(lambda: parse_hierarchy(unsorted_text))
        assert h.level_ids(2)[0] == "L" * 100_000
        assert peak <= 1.25 * sorted_peak


def _noisy_prior():
    """A released tree (100,251 nodes, real-valued counts) as CSV text."""
    h = synth_hierarchy(SynthSpec(seed=0, fanouts=(250, 400)))
    rng = np.random.default_rng(0)
    noisy = {lv: h.level_counts(lv) + rng.uniform(0.0, 1.0, len(h.level_ids(lv)))
             for lv in range(1, h.depth + 1)}
    return serialize_hierarchy(h, noisy)


def _traced(fn):
    """``fn()``, with the bytes it left allocated and the peak of its
    allocations, both as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained - base, peak - base


# a row that needs csv.reader or is faulty, after plain rows
LATER_ROWS = ['"C",A,2,1\n', "C\x00,A,2,1\n", "C\r,A,2,1\n", "\n", "C,A,2,x\n",
              "C,A,2\n", "C,Z,2,1\n", "B,A,2,1\n", '"C\r\nD",A,2,1\n']
LATER_FAULTS = [HEADER + "A,,1,3\nB,A,2,3\n" + last for last in LATER_ROWS]


def _read_outcome(path):
    """The tree the CLI reads from ``path``, or the class and message of
    the error."""
    try:
        return cli._read_tree(str(path))
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)


class _Pipe(io.BytesIO):
    """Bytes that, as a pipe's, cannot be read a second time."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


class TestReadTree:
    """A file, as the CLI reads it, and a string, as parse_hierarchy
    reads it, go through one pipeline: read once, in blocks that end at
    a line end, the first block that needs csv.reader handed to it with
    the rest. Wherever the blocks end, and whatever a later block first
    holds, a file gets the tree or the error that parse_hierarchy gets
    from the same text in blocks of the default size."""

    @pytest.mark.parametrize("chars", [1, 4, 9])
    def test_same_as_parse_hierarchy(self, tmp_path, monkeypatch, chars):
        rng = random.Random(11)
        texts = ([HEADER + body for _, body, *_ in PRECEDENCE] + LATER_FAULTS
                 + [_fuzz_text(rng) for _ in range(300)])
        expected = [_outcome(text) for text in texts]
        monkeypatch.setattr(csvread, "_BLOCK_SIZE", chars)
        path = tmp_path / "tree.csv"
        for text, outcome in zip(texts, expected):
            path.write_text(text, encoding="utf-8", newline="")
            assert _read_outcome(path) == outcome, repr(text)

    def test_precedence_messages(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvread, "_BLOCK_SIZE", 1)
        path = tmp_path / "tree.csv"
        for _, body, error, message in PRECEDENCE:
            path.write_text(HEADER + body, encoding="utf-8", newline="")
            assert _read_outcome(path) == (error, message)

    @pytest.mark.parametrize("last", LATER_ROWS)
    def test_rows_numbered_across_the_hand_over(self, tmp_path, monkeypatch, last):
        # several full blocks of plain rows are cut before the last row;
        # csv.reader, if it takes over there, numbers its rows on from them
        rows = "".join(f"A-{j:05d}-{'p' * 24},A,2,1\n" for j in range(5000))
        text = HEADER + "A,,1,3\nB,A,2,3\n" + rows + last
        expected = _reader_outcome(text, monkeypatch)
        cut = []
        byte_block = csvread._byte_block

        def spy(*args):
            cut.append(byte_block(*args))
            return cut[-1]

        monkeypatch.setattr(csvread, "_byte_block", spy)
        path = tmp_path / "tree.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _read_outcome(path) == expected
        assert cut.count(True) >= 2
        assert _outcome(text) == expected

    @pytest.mark.parametrize("text", [HEADER + "A,,1,3\nB,A,2,3\n", LATER_FAULTS[0]],
                             ids=["plain", "quoted_later"])
    def test_byte_order_mark_dropped_on_every_pass(self, tmp_path, text):
        path = tmp_path / "tree.csv"
        path.write_text(text, encoding="utf-8-sig", newline="")
        assert _read_outcome(path) == _outcome(text)

    @pytest.mark.parametrize("text", [HEADER + "A,,1,3\nB,A,2,3\n", LATER_FAULTS[0]],
                             ids=["plain", "quoted_later"])
    def test_byte_order_mark_string_same_as_file(self, tmp_path, text):
        # a spreadsheet export read into a string keeps its mark
        path = tmp_path / "tree.csv"
        path.write_text(text, encoding="utf-8-sig", newline="")
        with open(path, "rb") as f:
            from_file = hierarchy._read_hierarchy(f)
        assert parse_hierarchy(codecs.BOM_UTF8.decode() + text) == from_file

    NOT_UTF8 = [
        (b"r,,1,3\nr-\xff,r,2,3\n", InvalidSpec, "row 3: not UTF-8 text (invalid start byte)"),
        # a quoted record is named by the row it starts on
        (b'r,,1,3\n"a\nb\xc3",r,2,3\n', InvalidSpec,
         "row 3: not UTF-8 text (invalid continuation byte)"),
        # an earlier row's fault comes first, a bad byte before its row's
        (b"r,,1,3\nr-1,r,x,3\nr-\xff,r,2,3\n", LevelMismatch,
         "row 3 ('r-1'): level 'x' is not an integer"),
        (b"r,,1,3\nr-\xff,r,2\n", InvalidSpec, "row 3: not UTF-8 text (invalid start byte)"),
        # a surrogate encoded in a file is not UTF-8
        (b"r,,1,3\nr-1,r,2,3\nr-\xed\xa0\x80,r,2,1\n", InvalidSpec,
         "row 4: not UTF-8 text (invalid continuation byte)"),
    ]

    @pytest.mark.parametrize("chars", [1, 4, 9, csvread._BLOCK_SIZE])
    def test_invalid_utf8_names_its_row(self, tmp_path, monkeypatch, chars):
        monkeypatch.setattr(csvread, "_BLOCK_SIZE", chars)
        path = tmp_path / "tree.csv"
        cases = [(HEADER.encode() + body, error, message) for body, error, message in self.NOT_UTF8]
        cases.append((b"node_id,parent_id,level,count\xe2\n", InvalidSpec,
                      "row 1: not UTF-8 text (invalid continuation byte)"))
        for raw, error, message in cases:
            path.write_bytes(raw)
            assert _read_outcome(path) == (error, message)
            with pytest.raises(error) as info:
                hierarchy._read_hierarchy(_Pipe(raw))
            assert str(info.value) == message

    def test_pipe_drops_byte_order_mark(self):
        text = HEADER + "A,,1,3\nB,A,2,3\n"
        assert hierarchy._read_hierarchy(_Pipe(codecs.BOM_UTF8 + text.encode())) == _outcome(text)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    def test_pipe_read_whole(self, tmp_path):
        # a pipe is read once, in blocks, as a file is, and a text that
        # needs csv.reader is handed to it at its first such block
        fifo = tmp_path / "tree.fifo"
        os.mkfifo(fifo)
        text = LATER_FAULTS[0]
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            outcome = _read_outcome(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert outcome == _outcome(text)


class TestInOrderCheck:
    """Node order is checked on the stored bytes, a chunk of ids at a
    time, against comparing the ids as ``str``."""

    def test_ids_tied_past_the_words_in_descending_order(self):
        # two ids that tie on every word compared are ordered by the
        # bytes after the words, and the rows sorted as their twin's
        prefix = "p" * 40
        rows = [f"{prefix}b,r,2,1\n", f"{prefix}a,r,2,1\n"]
        descending = parse_hierarchy(HEADER + "r,,1,2\n" + "".join(rows))
        assert descending == parse_hierarchy(HEADER + "r,,1,2\n" + "".join(rows[::-1]))
        assert descending.level_ids(2) == (prefix + "a", prefix + "b")

    PIECES = ["a", "b", "\x00", "é", "😀", "\ud800", "aaaaaaaa", "aaaaaaaa\x00", "zz"]

    @pytest.mark.parametrize("chunk", [1, 5, hierarchy._CHUNK_IDS])
    def test_against_str_comparisons(self, monkeypatch, chunk):
        # small chunks put many pairs across a chunk boundary
        monkeypatch.setattr(hierarchy, "_CHUNK_IDS", chunk)
        rng = random.Random(3)
        for _ in range(300):
            n = rng.choice([2, 3, 40, 300, 700])
            ids = ["".join(rng.choices(self.PIECES, k=rng.randrange(4))) for _ in range(n)]
            for order in (ids, sorted(ids), sorted(set(ids))):
                same = np.array([rng.random() < 0.9 for _ in order[1:]], dtype=bool)
                data, lengths = hierarchy._encode(order)
                expected = all(a < b for a, b, s in zip(order, order[1:], same) if s)
                got = hierarchy._ascending(data, hierarchy._offsets(lengths), same)
                assert got is expected, order


    @pytest.mark.parametrize("rounds", [1, hierarchy._WORD_ROUNDS])
    def test_sort_against_str_sort(self, monkeypatch, rounds):
        # one word a round leaves long shared prefixes to the bytes
        # comparisons; ties keep their input order
        monkeypatch.setattr(hierarchy, "_WORD_ROUNDS", rounds)
        rng = random.Random(8)
        for _ in range(200):
            n = rng.choice([1, 2, 3, 40, 300])
            ids = ["".join(rng.choices(self.PIECES, k=rng.randrange(5))) for _ in range(n)]
            levels = [rng.randrange(1, 4) for _ in range(n)]
            data, lengths = hierarchy._encode(ids)
            got = hierarchy._id_order(data, hierarchy._offsets(lengths), np.array(levels))
            assert got.tolist() == sorted(range(n), key=lambda i: (levels[i], ids[i]))


class TestColumns:
    def test_level_parents(self, va_hierarchy):
        assert list(va_hierarchy.level_parents(1)) == [-1]
        assert list(va_hierarchy.level_parents(2)) == [0, 0]
        assert list(va_hierarchy.level_parents(3)) == [0, 0, 0, 1, 1]

    def test_children_in_id_order_whatever_the_input_order(self):
        h = tree([
            ("r-b", "r", 2, 1.0), ("r-a-2", "r-a", 3, 1.0), ("r-b-1", "r-b", 3, 1.0),
            ("r", "", 1, 3.0), ("r-a-1", "r-a", 3, 1.0), ("r-a", "r", 2, 2.0),
        ])
        assert h.level_ids(2) == ("r-a", "r-b")
        assert h.level_ids(3) == ("r-a-1", "r-a-2", "r-b-1")
        assert list(h.level_parents(2)) == [0, 0]
        assert list(h.level_parents(3)) == [0, 0, 1]

    @pytest.mark.parametrize("seed", range(3))
    def test_level_major_input_is_id_sorted_within_levels(self, seed):
        # level order alone is not the node order; level-then-id order is,
        # and input already in it comes out as it went in
        nodes = sorted(random_tree(seed), key=lambda n: n[2])
        canonical = sorted(nodes, key=lambda n: (n[2], n[0]))
        assert nodes != canonical
        assert rows_of(tree(nodes)) == canonical
        assert rows_of(tree(canonical)) == canonical
        assert parse_hierarchy(serialize_hierarchy(tree(nodes))) == tree(canonical)

    def test_level_out_of_range(self, va_hierarchy):
        for level in (0, 4):
            with pytest.raises(IndexError):
                va_hierarchy.level_ids(level)

    def test_level_counts_is_a_copy(self, va_hierarchy):
        va_hierarchy.level_counts(2)[:] = -1.0
        assert list(va_hierarchy.level_counts(2)) == [300.0, 150.0]


def random_tree(seed: int, widths=(1, 7, 40, 150)) -> list[tuple]:
    """``(id, parent_id, level, count)`` rows of a random complete-depth
    tree with unordered, non-genealogic ids, real-valued counts, in
    shuffled order."""
    rng = random.Random(seed)
    nodes, above = [], []
    for lv, width in enumerate(widths, start=1):
        ids = rng.sample(range(10**6), width)
        level = [f"n{i}" for i in ids]
        # every node above gets a child, the rest pick a parent at random
        parents = above + [rng.choice(above) for _ in range(width - len(above))] if above else [""]
        rng.shuffle(parents)
        nodes += [(nid, pid, lv, rng.uniform(0.0, 1e3)) for nid, pid in zip(level, parents)]
        above = level
    rng.shuffle(nodes)
    return nodes


class TestAgainstNodeLoops:
    """The level columns against per-node loops over the rows."""

    @pytest.mark.parametrize("seed", range(3))
    def test_check_consistency(self, seed):
        # each internal node's count less its children's, summed in id order
        nodes = random_tree(seed)
        h = tree(nodes)
        expected = []
        for nid, _, lv, count in sorted(nodes, key=lambda n: (n[2], n[0])):
            kids = sorted(k for k in nodes if k[1] == nid)
            if kids:
                total = 0.0
                for kid in kids:
                    total += kid[3]
                expected.append((nid, count - total))
        got = [
            (nid, r) for lv, level in residuals(h).items()
            for nid, r in zip(h.level_ids(lv), level.tolist())
        ]
        assert got == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_structure(self, seed):
        nodes = random_tree(seed)
        h = tree(nodes)
        assert rows_of(h) == sorted(nodes, key=lambda n: (n[2], n[0]))
        for nid, *_ in nodes:
            # children in id order: the columns of the level below whose
            # parent is this node, in increasing order
            kids = tuple(sorted(k[0] for k in nodes if k[1] == nid))
            lv = next(n[2] for n in nodes if n[0] == nid)
            if lv < h.depth:
                below, parents = h.level_ids(lv + 1), h.level_parents(lv + 1)
                column = h.level_ids(lv).index(nid)
                assert tuple(below[j] for j in np.flatnonzero(parents == column)) == kids
            else:
                assert kids == ()

    @pytest.mark.parametrize("seed", range(3))
    def test_serialize_partial_counts(self, seed):
        h = tree(random_tree(seed))
        rng = random.Random(seed)
        # whole levels withheld: level 2 always, one more at random
        withheld = {2, rng.choice([1, 3, 4])}
        counts = {
            lv: np.array([rng.uniform(0, 5) for _ in h.level_ids(lv)])
            for lv in range(1, h.depth + 1) if lv not in withheld
        }
        value = {
            nid: v for lv, row in counts.items()
            for nid, v in zip(h.level_ids(lv), row.tolist())
        }
        expected = [",".join(CSV_HEADER)] + [
            f"{nid},{pid},{lv},{value[nid]!r}" for nid, pid, lv, _ in rows_of(h) if nid in value
        ]
        assert serialize_hierarchy(h, counts) == "\n".join(expected) + "\n"

    def test_serialize_rejects_short_level(self, va_hierarchy):
        with pytest.raises(LengthMismatch, match="level 2 has 2 nodes but 1 counts"):
            serialize_hierarchy(va_hierarchy, {1: [450.0], 2: [300.0]})

    def test_synth_sums_in_child_order(self):
        # leaves near 1e17 are not exact in float64 sums, so the order
        # of additions shows in the last bits
        spec = SynthSpec(seed=4, fanouts=(3, 50), leaf_mu=40.0, leaf_sigma=2.0)
        h = synth_hierarchy(spec)
        for lv in (1, 2):
            kids = h.level_counts(lv + 1).tolist()
            for column, count in enumerate(h.level_counts(lv).tolist()):
                total = 0.0
                for j in np.flatnonzero(h.level_parents(lv + 1) == column).tolist():
                    total += kids[j]
                assert count == total


class TestConsistency:
    """Parent-less-children residuals read from the level columns."""

    def test_va_all_zero(self, va_hierarchy):
        found = residuals(va_hierarchy)
        assert [r.tolist() for r in found.values()] == [[0.0], [0.0, 0.0]]  # VA, two tracts

    def test_flagged_residual(self):
        text = (
            "node_id,parent_id,level,count\n"
            "T,,1,300\nT-1,T,2,120\nT-2,T,2,80\n"
        )
        found = residuals(parse_hierarchy(text))
        assert {lv: r.tolist() for lv, r in found.items()} == {1: [100.0]}

    def test_single_node_empty_report(self):
        h = parse_hierarchy("node_id,parent_id,level,count\nA,,1,5\n")
        assert residuals(h) == {}

    def test_tolerance_unflags(self):
        text = (
            "node_id,parent_id,level,count\n"
            "T,,1,200.5\nT-1,T,2,120\nT-2,T,2,80\n"
        )
        assert residuals(parse_hierarchy(text))[1].tolist() == [0.5]


class TestLevelStats:
    def test_va(self, va_hierarchy):
        stats = level_stats(va_hierarchy)
        assert [list(c) for c in stats.counts] == [
            [450.0],
            [300.0, 150.0],
            [120.0, 80.0, 100.0, 90.0, 60.0],
        ]

    def test_single_node(self):
        h = parse_hierarchy("node_id,parent_id,level,count\nA,,1,7\n")
        assert [list(c) for c in level_stats(h).counts] == [[7.0]]

    def test_two_level(self):
        text = "node_id,parent_id,level,count\nA,,1,10\nA-1,A,2,4\nA-2,A,2,6\n"
        stats = level_stats(parse_hierarchy(text))
        assert [list(c) for c in stats.counts] == [[10.0], [4.0, 6.0]]

    def test_level_totals_equal_for_consistent_tree(self, va_hierarchy):
        totals = level_stats(va_hierarchy).level_totals()
        assert totals == [450.0, 450.0, 450.0]

    @pytest.mark.parametrize("counts,message", [
        ((), "LevelStats needs at least one level"),
        ((np.array([3.0]), np.array([])), "level 2 has no counts"),
    ])
    def test_rejects_an_empty_level(self, counts, message):
        with pytest.raises(InvalidSpec, match=f"^{message}$"):
            LevelStats(counts)


class TestSynth:
    def test_single_level(self):
        h = synth_hierarchy(SynthSpec(seed=3, fanouts=()))
        assert h.depth == 1 and len(h) == 1
        assert h.level_counts(1)[0] >= 0

    def test_deterministic(self):
        spec = SynthSpec(seed=11, fanouts=(4, 5))
        assert synth_hierarchy(spec) == synth_hierarchy(spec)

    def test_different_seeds_differ(self):
        a = synth_hierarchy(SynthSpec(seed=1, fanouts=(10,)))
        b = synth_hierarchy(SynthSpec(seed=2, fanouts=(10,)))
        assert a != b

    def test_consistent_by_construction(self):
        h = synth_hierarchy(SynthSpec(seed=5, fanouts=(3, 4, 2)))
        assert all(not r.any() for r in residuals(h).values())

    # sha256 of serialize_hierarchy(synth_hierarchy(spec)), unchanged
    # since synthesis built a dict per node
    PINNED_SHA256 = {
        (0, 3, (128, 164)): "f4408158451d3ca2834e69ee74eb336beec788fe128640ed4618f17cc8e6ee0a",
        (0, 4, (3, 2, 4)): "3e3db05d7e28af4d3345ca24b8381438ab6b825f8d8ab9a53317d1954b62609b",
    }

    @pytest.mark.parametrize("seed,levels,fanouts", sorted(PINNED_SHA256))
    def test_bytes_pinned(self, seed, levels, fanouts):
        h = synth_hierarchy(SynthSpec(seed=seed, fanouts=fanouts))
        assert h.depth == levels
        digest = hashlib.sha256(serialize_hierarchy(h).encode()).hexdigest()
        assert digest == self.PINNED_SHA256[seed, levels, fanouts]

    def test_default_shape(self):
        h = synth_hierarchy(SynthSpec(seed=0))
        assert h.depth == 3
        assert len(h.level_ids(1)) == 1
        assert len(h.level_ids(2)) == 128
        assert len(h.level_ids(3)) == 128 * 164  # about 21k leaves

    def test_integer_leaves(self):
        h = synth_hierarchy(SynthSpec(seed=9, fanouts=(50,)))
        leaves = h.level_counts(2)
        assert np.array_equal(leaves, np.rint(leaves))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fanouts": (-1,)},
            {"fanouts": (4, 0)},
            {"fanouts": (0,)},
            {"fanouts": (0, 3)},
            {"fanouts": (3,), "leaf_sigma": -1.0},
            {"seed": -1},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidSpec):
            SynthSpec(**{"seed": 0, **kwargs})

    @pytest.mark.parametrize("name,value", [
        ("leaf_mu", math.nan), ("leaf_mu", math.inf), ("leaf_mu", -math.inf),
        ("leaf_sigma", math.nan), ("leaf_sigma", math.inf),
    ])
    def test_non_finite_draw_parameters(self, name, value):
        with pytest.raises(InvalidSpec, match=f"^{name} must be finite, got {value!r}$"):
            SynthSpec(seed=0, fanouts=(2,), **{name: value})

    @pytest.mark.parametrize("leaf_mu,fanouts", [(1e10, (2,)), (709.5, (2,)), (705.0, (40, 50))])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_root_past_the_float_range(self, leaf_mu, fanouts):
        # a draw of inf, or leaves whose sum overflows, is a spec error
        # naming the parameters, not a count error about node 'r'
        spec = SynthSpec(seed=0, fanouts=fanouts, leaf_mu=leaf_mu)
        with pytest.raises(InvalidSpec, match=f"^leaf_mu {leaf_mu!r} and leaf_sigma 1.2 "
                                              "draw a root count of inf, which is not finite$"):
            synth_hierarchy(spec)
