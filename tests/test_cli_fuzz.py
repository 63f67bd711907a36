"""Random command lines for every CLI command, run in process.

Trees of one to three levels take their counts from a pool that holds
0, 1e-300 and 1e300 at any level, so most are not consistent; flags take
values from a pool of edge cases. Whatever the input, a command exits 0,
2 (usage), 3 (data) or 4 (solver), with no traceback and no numpy
warning, and the same arguments give the same bytes. A split of
``--eps-total`` spends at most that total, exactly. A release keeps the
input's ids, parents and levels for every level it releases, and with
``--hier`` each sibling group sums to its parent.
"""

import csv
import io
import json
import math
import random
import warnings
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hierdp.cli import main

COUNTS = [0.0, 1e-300, 1e300, 1.0, 3.0, 17.0, 2.5, 1000.0]
EDGES = ["0", "1e-13", "1e308", "inf", "nan", "-1", "5e-324"]
HEADER = "node_id,parent_id,level,count\n"
# cases per command
CASES = 60


def _rows(rng, depth):
    """The rows of a random tree of ``depth`` levels, 1 to 3 children a
    node, counts from :data:`COUNTS`."""
    rows, above = [("n", "", 1, rng.choice(COUNTS))], ["n"]
    for lv in range(2, depth + 1):
        below = [f"{p}-{i}" for p in above for i in range(rng.randint(1, 3))]
        rows += [(nid, nid.rsplit("-", 1)[0], lv, rng.choice(COUNTS)) for nid in below]
        above = below
    return rows


def _write(path, rows):
    path.write_text(HEADER + "".join(f"{n},{p},{lv},{c!r}\n" for n, p, lv, c in rows))


def _flag(rng, edge=1 / 3):
    """A flag value: an edge case with chance ``edge``, else a plain one."""
    return rng.choice(EDGES) if rng.random() < edge else rng.choice(["0.5", "1", "2"])


def _flags(rng, k, edge=1 / 3):
    return ",".join(_flag(rng, edge) for _ in range(k))


def _weights(rng, depth):
    if rng.random() < 0.5:
        return []
    return ["--weights", _flags(rng, depth) if rng.random() < 0.3 else ",".join(
        rng.choice(["1", "0", "2"]) for _ in range(depth))]


def _tree_args(rng, tmp_path, rows):
    _write(tmp_path / "tree.csv", rows)
    args = ["--input", str(tmp_path / "tree.csv")]
    if rng.random() < 0.3:
        # mostly of the input's depth
        depth = rows[-1][2] if rng.random() < 0.8 else rng.randint(1, 3)
        _write(tmp_path / "prior.csv", _rows(rng, depth))
        args += ["--prior", str(tmp_path / "prior.csv")]
    return args


def _budget(rng):
    if rng.random() < 0.7:
        return ["--eps-total", _flag(rng)]
    return ["--tau", rng.choice(EDGES + ["1", "10", "1e6"])]


def _case(command, rng, tmp_path):
    """The arguments of one random ``command`` line, and the input rows
    of a release (else None)."""
    depth = rng.randint(1, 3)
    rows = _rows(rng, depth)
    if command == "allocate":
        args = _tree_args(rng, tmp_path, rows) + _budget(rng) + _weights(rng, depth)
        return ["allocate", *args], None
    if command == "release":
        args = _tree_args(rng, tmp_path, rows) + _budget(rng) + _weights(rng, depth)
        args += ["--seed", str(rng.randrange(3)), "--out-dir", str(tmp_path / "out")]
        return ["release", *args, *(["--hier"] if rng.random() < 0.5 else [])], rows
    if command == "evaluate":
        args = _tree_args(rng, tmp_path, rows) + _weights(rng, depth)
        args += ["--eps-total", _flag(rng), "--eps-grid", _flags(rng, rng.randint(1, 2), 0.1),
                 "--replicates", rng.choice(["100"] * 5 + ["0"]),
                 "--out-dir", str(tmp_path / "out")]
        return ["evaluate", *args], None
    if command == "downstream":
        if rng.random() < 0.5:
            _write(tmp_path / "tract.csv", _rows(rng, 2))
            source = ["--input", str(tmp_path / "tract.csv")]
        else:
            source = ["--blocks", ",".join(repr(rng.choice(COUNTS)) for _ in range(rng.randint(1, 4)))]
        fns = ",".join(rng.sample(["log", "linear", "quadratic"], rng.randint(1, 3)))
        return ["downstream", *source, "--eps-total", _flag(rng),
                "--weight-fns", fns, "--replicates", rng.choice(["1000"] * 5 + ["1"])], None
    return ["skew", "--total", str(rng.randrange(8)), "--regions", str(rng.randint(1, 3)),
            "--eps-grid", _flags(rng, rng.randint(1, 3))], None


def _run(args, tmp_path):
    """The exit code, the output and the bytes of every file written."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args)
    out = tmp_path / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return result, result.output + result.stderr, files, runtime


def _check_spend(args, allocation):
    """The level budgets' exact sum, and the total written, are at most
    ``--eps-total``: levels compose, so a release spends that sum."""
    total = Fraction(float(args[args.index("--eps-total") + 1]))
    assert sum(map(Fraction, allocation["eps"])) <= total, args
    assert Fraction(allocation["eps_total"]) <= total, args


def _check_release(rows, files, hier):
    """Check a release against its input rows; the number of sibling
    groups checked against their parent."""
    sidecar = json.loads(files["release.json"])
    released = {lv for lv, eps in enumerate(sidecar["allocation"]["eps"], 1) if eps > 0}
    records = list(csv.reader(io.StringIO(files["release.csv"].decode("utf-8"))))
    assert records[0] == HEADER.strip().split(",")
    got = {(n, p, int(lv)): float(c) for n, p, lv, c in records[1:]}
    assert sorted(got) == sorted((n, p, lv) for n, p, lv, _ in rows if lv in released)
    if hier:
        sums = {}
        for (n, p, lv), value in got.items():
            if lv > 1:
                sums[(p, lv - 1)] = sums.get((p, lv - 1), 0.0) + value
        for (p, lv), total in sums.items():
            parent = next(v for (n, _, l), v in got.items() if n == p and l == lv)
            assert math.isclose(total, parent, rel_tol=1e-9), (p, total, parent)
    return len(sums) if hier else 0


@pytest.mark.parametrize("command", ["allocate", "release", "evaluate", "downstream", "skew"])
def test_cli_fuzz(command, tmp_path):
    rng = random.Random(f"cli-fuzz-{command}")
    codes = set()
    groups = spent = 0
    for case in range(CASES):
        args, rows = _case(command, rng, tmp_path)
        first = _run(args, tmp_path)
        second = _run(args, tmp_path)
        result, output, files, runtime = first
        context = (args, output)
        assert result.exit_code in (0, 2, 3, 4), context
        assert "Traceback" not in output and not runtime, (context, runtime)
        assert result.exception is None or isinstance(result.exception, SystemExit), context
        assert (second[0].exit_code, second[1], second[2]) == (result.exit_code, output, files), context
        if result.exit_code == 0 and rows is not None:
            groups += _check_release(rows, files, "--hier" in args)
        if result.exit_code == 0 and "--eps-total" in args and command in ("allocate", "release"):
            if rows is None:
                _check_spend(args, json.loads(result.stdout))
            else:
                _check_spend(args, json.loads(files["release.json"])["allocation"])
            spent += 1
        codes.add(result.exit_code)
        for p in (tmp_path / "out").glob("*"):
            p.unlink()
    # both successes and refusals are exercised, and consistent releases
    assert 0 in codes and 3 in codes
    assert groups or command != "release"
    assert spent or command not in ("allocate", "release")
