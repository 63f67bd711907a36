import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hierdp
from hierdp.allocator import allocate_fixed_budget, weighted_total_mse
from hierdp import allocator, cli
from hierdp.cli import main
from hierdp.errors import DataError, InvalidSpec
from hierdp.hierarchy import level_stats, parse_hierarchy

from trees import residuals


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, va_csv):
    (tmp_path / "va.csv").write_text(va_csv)
    return tmp_path


def _invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestAllocate:
    def test_fixed_budget_sums(self, runner, workdir):
        result = _invoke(
            runner,
            ["allocate", "--input", str(workdir / "va.csv"),
             "--eps-total", "3", "--weights", "1,1,1"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert sum(payload["eps"]) == pytest.approx(3.0, rel=1e-9)
        assert payload["program"] == "fixed_budget"

    def test_tau_mode_hits_target(self, runner, workdir, va_hierarchy):
        result = _invoke(
            runner,
            ["allocate", "--input", str(workdir / "va.csv"), "--tau", "100"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        achieved = weighted_total_mse(
            level_stats(va_hierarchy), (1.0, 1.0, 1.0), payload["eps"]
        )
        assert achieved == pytest.approx(100.0, rel=1e-6)

    def test_missing_budget_is_usage_error(self, runner, workdir):
        result = runner.invoke(
            main, ["allocate", "--input", str(workdir / "va.csv")]
        )
        assert result.exit_code == 2

    def test_both_budgets_is_usage_error(self, runner, workdir):
        result = runner.invoke(
            main,
            ["allocate", "--input", str(workdir / "va.csv"),
             "--eps-total", "1", "--tau", "5"],
        )
        assert result.exit_code == 2

    def test_bad_data_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("node_id,parent_id,level,count\nA,,1,-5\n")
        result = runner.invoke(main, ["allocate", "--input", str(bad), "--eps-total", "1"])
        assert result.exit_code == 3

    def test_weights_for_another_depth_exit_3(self, runner):
        result = runner.invoke(main, ["allocate", "--synth", "--synth-fanouts", "4,3",
                                      "--eps-total", "1", "--weights", "1,1"])
        assert result.exit_code == 3
        assert "stats has 3 levels but 2 weights given" in result.stderr

    def test_prior_warning_on_stderr(self, runner, workdir):
        result = runner.invoke(
            main,
            ["allocate", "--input", str(workdir / "va.csv"), "--eps-total", "1"],
        )
        assert "warning" in result.stderr
        assert "--prior" in result.stderr

    @pytest.mark.parametrize("args", [
        ["allocate", "--eps-total", "1", "--weights", "0,0,0"],
        ["allocate", "--eps-total", "nan"],
        ["release", "--eps-total", "1", "--seed", str(2**64)],
    ], ids=["no_positive_weight", "nan_budget", "seed_past_64_bits"])
    def test_no_prior_warning_when_the_run_fails(self, runner, tmp_path, monkeypatch, args):
        # the warning is about a split that gets written; a run that
        # exits 3 writes none
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [*args, "--synth", "--synth-fanouts", "3,3"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")
        assert "warning" not in result.stderr

    def test_explicit_prior_silences_warning(self, runner, workdir):
        result = runner.invoke(
            main,
            ["allocate", "--input", str(workdir / "va.csv"),
             "--prior", str(workdir / "va.csv"), "--eps-total", "1"],
        )
        assert "warning" not in result.stderr

    def test_output_file(self, runner, workdir):
        out = workdir / "alloc.json"
        result = _invoke(
            runner,
            ["allocate", "--input", str(workdir / "va.csv"),
             "--eps-total", "2", "-o", str(out)],
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["eps_total"] == pytest.approx(2.0)


class TestRelease:
    def test_reproducible_and_hier(self, runner, workdir):
        args = ["release", "--input", str(workdir / "va.csv"),
                "--eps-total", "3", "--seed", "11", "--hier",
                "--out-dir", str(workdir / "r1")]
        assert _invoke(runner, args).exit_code == 0
        args2 = args[:-1] + [str(workdir / "r2")]
        assert _invoke(runner, args2).exit_code == 0
        a = (workdir / "r1" / "release.csv").read_text()
        b = (workdir / "r2" / "release.csv").read_text()
        assert a == b

        released = parse_hierarchy(a)
        for lv, residual in residuals(released).items():
            parent = released.level_counts(lv)
            assert (np.abs(residual) <= 1e-9 * np.maximum(1.0, parent)).all()
        sidecar = json.loads((workdir / "r1" / "release.json").read_text())
        assert sidecar["consistency_applied"] is True
        assert sidecar["seed"] == 11

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_sidecar_publishes_no_true_count_statistics(
        self, runner, workdir, va_hierarchy, with_prior
    ):
        args = ["release", "--input", str(workdir / "va.csv"), "--eps-total", "2",
                "--out-dir", str(workdir / "out")]
        if with_prior:
            args += ["--prior", str(workdir / "va.csv")]
        assert _invoke(runner, args).exit_code == 0
        sidecar = json.loads((workdir / "out" / "release.json").read_text())
        allocation = sidecar["allocation"]
        expected = allocate_fixed_budget(level_stats(va_hierarchy), (1.0,) * 3, 2.0)
        assert allocation["eps"] == list(expected.eps)
        for field in ("objective", "multiplier"):
            if with_prior:
                assert isinstance(allocation[field], float)
            else:
                assert allocation[field] is None

    def test_huge_budget_recovers_input(self, runner, workdir, va_hierarchy):
        args = ["release", "--input", str(workdir / "va.csv"),
                "--eps-total", "3e9", "--seed", "0",
                "--out-dir", str(workdir / "big")]
        assert _invoke(runner, args).exit_code == 0
        released = parse_hierarchy((workdir / "big" / "release.csv").read_text())
        for lv in range(1, va_hierarchy.depth + 1):
            assert released.level_ids(lv) == va_hierarchy.level_ids(lv)
            assert released.level_counts(lv) == pytest.approx(
                va_hierarchy.level_counts(lv), abs=1e-6
            )

    def test_same_bytes_from_every_tokenizer(self, runner, workdir, va_csv):
        # the plain file and its CRLF twin are cut as bytes with numpy,
        # the quoted one goes through csv.reader
        rows = [line.split(",") for line in va_csv.splitlines()]
        quoted = [rows[0]] + [
            [f'"{nid}"', f'"{pid}"' if pid else "", *rest] for nid, pid, *rest in rows[1:]
        ]
        variants = {
            "plain": va_csv,
            "crlf": va_csv.replace("\n", "\r\n"),
            "quoted": "\n".join(map(",".join, quoted)) + "\n",
        }
        outputs = set()
        for name, text in variants.items():
            (workdir / f"{name}.csv").write_bytes(text.encode())
            args = ["release", "--input", str(workdir / f"{name}.csv"), "--eps-total", "2",
                    "--seed", "5", "--hier", "--out-dir", str(workdir / name)]
            assert _invoke(runner, args).exit_code == 0
            outputs.add(tuple(
                (workdir / name / f"release.{ext}").read_bytes() for ext in ("csv", "json")
            ))
        assert len(outputs) == 1

    @pytest.mark.parametrize("flag", ["--input", "--prior"])
    def test_byte_order_mark_is_skipped(self, runner, workdir, va_csv, flag):
        # Excel's "CSV UTF-8" files start with a UTF-8 byte-order mark
        (workdir / "bom.csv").write_bytes(b"\xef\xbb\xbf" + va_csv.encode())
        outputs = []
        for name in ("va", "bom"):
            tree = str(workdir / f"{name}.csv")
            source = ["--input", tree]
            if flag == "--prior":
                source = ["--input", str(workdir / "va.csv"), "--prior", tree]
            args = ["release", *source, "--eps-total", "2", "--seed", "5", "--hier",
                    "--out-dir", str(workdir / name)]
            assert _invoke(runner, args).exit_code == 0
            outputs.append(tuple(
                (workdir / name / f"release.{ext}").read_bytes() for ext in ("csv", "json")
            ))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--input", "--prior"])
    def test_invalid_utf8_is_a_data_error(self, runner, workdir, flag):
        # bytes that are not UTF-8 name their row and exit 3, with no
        # traceback
        bad = workdir / "bad.csv"
        bad.write_bytes(b"node_id,parent_id,level,count\nr,,1,3\nr-\xff,r,2,3\n")
        source = ["--input", str(bad)]
        if flag == "--prior":
            source = ["--input", str(workdir / "va.csv"), "--prior", str(bad)]
        result = runner.invoke(main, ["allocate", *source, "--eps-total", "1"])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "row 3: not UTF-8 text (invalid start byte)" in result.output

    def test_quoted_cr_survives(self, runner, tmp_path):
        # the file reaches the parser as written, so a quoted CRLF stays
        # in the id, and so the id's noise key is the one the parser gives
        tree = tmp_path / "tree.csv"
        tree.write_bytes(b'node_id,parent_id,level,count\nr,,1,10\n"a\r\nb",r,2,10\n')
        args = ["release", "--input", str(tree), "--eps-total", "1",
                "--out-dir", str(tmp_path / "out")]
        assert _invoke(runner, args).exit_code == 0
        with open(tmp_path / "out" / "release.csv", newline="") as f:
            released = [row[0] for row in csv.reader(f)]
        assert released[1:] == ["r", "a\r\nb"]

    @pytest.mark.parametrize("command", ["allocate", "release"])
    def test_lone_cr_file_exits_3(self, runner, tmp_path, command):
        text = "node_id,parent_id,level,count\rr,,1,10\rr-1,r,2,10\r"
        tree = tmp_path / "tree.csv"
        tree.write_bytes(text.encode())
        with pytest.raises(InvalidSpec) as info:
            parse_hierarchy(text)
        args = [command, "--input", str(tree), "--eps-total", "1"]
        if command == "release":
            args += ["--out-dir", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert str(info.value) in result.output
        assert "row 1: lone carriage return" in result.output

    @pytest.mark.parametrize("command", ["allocate", "release"])
    def test_oversized_field_exits_3(self, runner, tmp_path, command):
        # a field beyond the csv module's size limit is a data error
        big = tmp_path / "big.csv"
        big.write_text("node_id,parent_id,level,count\n" + "r" * 200_000 + ",,1,5\n")
        args = [command, "--input", str(big), "--eps-total", "1"]
        if command == "release":
            args += ["--out-dir", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "row 2: field larger than field limit" in result.output


class TestInputSource:
    @pytest.mark.parametrize("command", [
        ["allocate", "--eps-total", "1"],
        ["release", "--eps-total", "1"],
        ["evaluate", "--replicates", "100"],
    ])
    @pytest.mark.parametrize("both", [False, True], ids=["neither", "both"])
    def test_exactly_one_of_input_and_synth(self, runner, workdir, command, both):
        source = ["--input", str(workdir / "va.csv"), "--synth"] if both else []
        with runner.isolated_filesystem(temp_dir=workdir):
            result = runner.invoke(main, command + source)
        assert result.exit_code == 2
        assert "give exactly one of --input or --synth" in result.output


class TestBudgetRange:
    """A budget no level's closed forms can carry is a data error that
    names it, for every command that solves a split."""

    @pytest.mark.parametrize("flag,value", [
        ("--eps-total", "1e-103"), ("--eps-total", "1e300"), ("--tau", "1e-300"),
        ("--eps-total", "1e-20"), ("--tau", "1e200"),
    ])
    def test_allocate_exits_3(self, runner, workdir, flag, value):
        result = runner.invoke(
            main, ["allocate", "--input", str(workdir / "va.csv"), flag, value]
        )
        assert result.exit_code == 3
        name = flag.lstrip("-").replace("-", "_")
        assert f"error: {name} {float(value)!r} is out of range" in result.stderr

    @pytest.mark.parametrize("args", [
        ["release", "--eps-total", "1e300"],
        ["evaluate", "--eps-grid", "1,1e-103", "--replicates", "100"],
        ["evaluate", "--eps-total", "1e-20", "--replicates", "100"],
    ])
    def test_other_commands_exit_3(self, runner, workdir, args):
        result = runner.invoke(
            main, args + ["--input", str(workdir / "va.csv"), "--out-dir", str(workdir / "out")]
        )
        assert result.exit_code == 3
        assert "is out of range for these counts and weights" in result.stderr
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("flag,value,weights", [
        ("--tau", "1e308", "0,1e300"), ("--eps-total", "1e-11", "1e300,1e300"),
        ("--eps-total", "1e-11", "0,1e300"),
    ])
    def test_multiplier_past_the_float_range_exits_3(self, runner, tmp_path, flag, value, weights):
        tree = tmp_path / "t.csv"
        tree.write_text("node_id,parent_id,level,count\nr,,1,0.5\nr-1,r,2,0.5\n")
        result = runner.invoke(
            main, ["allocate", "--input", str(tree), flag, value, "--weights", weights]
        )
        assert result.exit_code == 3
        name = flag.lstrip("-").replace("-", "_")
        assert f"error: {name} {float(value)!r} is out of range" in result.stderr
        assert "lambda would fall outside the float range" in result.stderr

    def test_downstream_exits_3(self, runner):
        result = runner.invoke(main, ["downstream", "--blocks", "5,3", "--eps-total", "1e300"])
        assert result.exit_code == 3
        assert "eps_total 1e+300 is out of range" in result.stderr


class TestNoOverflowWarning:
    """eps * N past the float range is clamped like any saturated count,
    without numpy's overflow warning on the way."""

    @pytest.mark.parametrize("args", [
        ["skew", "--eps-grid", "1e308"],
        ["allocate", "--input", "B.csv", "--eps-total", "1e60"],
    ])
    def test_no_runtime_warning(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "B.csv").write_text(
            "node_id,parent_id,level,count\nr,,1,1e300\nr-1,r,2,5e299\nr-2,r,2,5e299\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "RuntimeWarning" not in result.stderr
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


class TestSeedRange:
    """A seed outside the 64-bit words the noise stream takes is a data
    error, not a seed that aliases another."""

    @pytest.mark.parametrize("args", [
        ["release", "--synth", "--eps-total", "1", "--seed", "-1"],
        ["release", "--synth", "--eps-total", "1", "--seed", str(2**64)],
        ["allocate", "--synth", "--eps-total", "1", "--synth-seed", "-1"],
    ])
    def test_exits_3(self, runner, tmp_path, args):
        if args[0] == "release":
            args = args + ["--out-dir", str(tmp_path / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "seed must be" in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["release", "--synth", "--synth-fanouts", "3,3", "--eps-total", "1"],
        ["evaluate", "--synth", "--synth-fanouts", "3,3", "--replicates", "10"],
        ["downstream", "--blocks", "5,3", "--eps-total", "1", "--replicates", "10"],
    ], ids=["release", "evaluate", "downstream"])
    def test_checked_before_the_split_is_solved(self, runner, tmp_path, monkeypatch, args):
        # every split, of any program and from any module, goes through
        # _solve
        def refuse(*_):
            raise AssertionError("solved a split for a seed that cannot draw")

        monkeypatch.setattr(allocator, "_solve", refuse)
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [*args, "--seed", str(2**64)])
        assert result.exit_code == 3
        assert result.stderr == f"error: seed must be in [0, 2**64), got {2**64}\n"

    def test_largest_seed_releases(self, runner, tmp_path):
        args = ["release", "--synth", "--synth-fanouts", "3,2", "--eps-total", "1",
                "--seed", str(2**64 - 1), "--out-dir", str(tmp_path)]
        assert _invoke(runner, args).exit_code == 0


class TestUnwritableOutput:
    """An output path the process cannot write is a usage error (exit
    2, as for an --input path that does not exist), not a traceback."""

    @pytest.mark.parametrize("case", ["allocate", "allocate_no_prior", "release", "evaluate"])
    def test_exits_2(self, runner, workdir, monkeypatch, case):
        # a directory under a file is refused before any work: the
        # release and the Monte Carlo would raise if they ran. Nothing is
        # written, so no prior warning is printed either
        (workdir / "a_file").write_text("")
        tree = str(workdir / "va.csv")
        out_file = ["-o", str(workdir / "missing" / "x.json")]
        out_dir = ["--out-dir", str(workdir / "a_file" / "sub")]
        args = {
            "allocate": ["allocate", "--input", tree, "--prior", tree, "--eps-total", "1",
                         *out_file],
            "allocate_no_prior": ["allocate", "--synth", "--synth-fanouts", "3",
                                  "--eps-total", "1", *out_file],
            "release": ["release", "--synth", "--synth-fanouts", "3", "--eps-total", "1",
                        *out_dir],
            "evaluate": ["evaluate", "--synth", "--synth-fanouts", "8,6",
                         "--replicates", "100", *out_dir],
        }[case]

        def never(*args, **kwargs):
            raise AssertionError("ran before the output path was checked")

        monkeypatch.setattr(cli, "privatize", never)
        monkeypatch.setattr(cli, "compare_allocations", never)
        result = _invoke(runner, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert "warning" not in result.stderr
        assert "Traceback" not in result.stderr
        assert not (workdir / "missing").exists()


class TestEvaluate:
    def test_smoke(self, runner, workdir):
        args = ["evaluate", "--input", str(workdir / "va.csv"),
                "--eps-total", "1.0", "--eps-grid", "0.5,1.0",
                "--replicates", "150", "--seed", "0",
                "--out-dir", str(workdir / "eval")]
        result = _invoke(runner, args)
        assert result.exit_code == 0
        report = json.loads((workdir / "eval" / "report.json").read_text())
        assert report["analytic_mse"]["optimized"] <= report["analytic_mse"]["uniform"]
        curve = (workdir / "eval" / "mse_curve.csv").read_text().splitlines()
        assert curve[0] == "eps_total,arm,analytic_mse"
        assert len(curve) == 1 + 2 * 2  # two grid points, two arms

    def test_withheld_level_reports_three_arms(self, runner, workdir):
        out = workdir / "eval"
        args = ["evaluate", "--input", str(workdir / "va.csv"),
                "--eps-total", "1", "--weights", "1,0,1",
                "--replicates", "100", "--out-dir", str(out)]
        result = _invoke(runner, args)
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert sorted(report["arms"]) == [
            "optimized_no_hier", "uniform_no_hier", "uniform_with_hier"
        ]
        arms = (out / "arms.csv").read_text()
        assert len(arms.splitlines()) == 1 + 3
        assert "optimized_with_hier" not in arms
        assert "optimized_with_hier" not in result.output

    @pytest.mark.parametrize("leaf", ["1e300", "1e9"])
    def test_unrepresentable_moments_refused(self, runner, workdir, leaf):
        # with consistency, the error of a level far from its parent is
        # about the gap between them: its power sums overflow (1e300) or
        # cancel to a negative variance (1e9). Nothing is written.
        tree = workdir / "gap.csv"
        tree.write_text(f"node_id,parent_id,level,count\nr,,1,1\nr-1,r,2,{leaf}\n")
        out = workdir / "eval"
        args = ["evaluate", "--input", str(tree), "--replicates", "100",
                "--out-dir", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = _invoke(runner, args)
        assert result.exit_code == 3
        assert "error: release-error moments overflow or cancel" in result.stderr
        assert not out.exists()


TWO_LEVEL_CSV = "node_id,parent_id,level,count\nA,,1,450\nA-1,A,2,300\nA-2,A,2,150\n"

# the shape of VA_CSV with noisy, real-valued counts
VA_PRIOR_CSV = """node_id,parent_id,level,count
VA,,1,461.5
VA-100,VA,2,290.25
VA-200,VA,2,170
VA-100-1,VA-100,3,111
VA-100-2,VA-100,3,95.5
VA-100-3,VA-100,3,88
VA-200-1,VA-200,3,97
VA-200-2,VA-200,3,54
"""


class TestPrior:
    """--prior drives the split; allocate then reads nothing from the
    input tree, release and evaluate still parse and release it."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The text of each file the command parses, in order."""
        calls = []
        read = cli._read_hierarchy

        def spy(f):
            calls.append(f.read().decode("utf-8"))
            f.seek(0)
            return read(f)

        monkeypatch.setattr(cli, "_read_hierarchy", spy)
        return calls

    @staticmethod
    def _allocate(runner, workdir, source, name):
        out = workdir / name
        args = ["allocate", *source, "--prior", str(workdir / "va.csv"),
                "--eps-total", "2", "-o", str(out)]
        assert _invoke(runner, args).exit_code == 0
        return out.read_bytes()

    @pytest.mark.parametrize("text", [
        "node_id,parent_id,level,count\nA,,1,-5\n",
        "no header, no rows",
        TWO_LEVEL_CSV,
    ], ids=["negative_count", "malformed", "other_depth"])
    def test_allocate_never_reads_the_input(self, runner, workdir, text):
        (workdir / "input.csv").write_text(text)
        expected = self._allocate(runner, workdir, ["--input", str(workdir / "va.csv")], "a.json")
        assert self._allocate(runner, workdir, ["--input", str(workdir / "input.csv")], "b.json") == expected

    def test_allocate_never_generates_the_synthetic_tree(self, runner, workdir, monkeypatch):
        expected = self._allocate(runner, workdir, ["--input", str(workdir / "va.csv")], "a.json")

        def refuse(spec):
            raise AssertionError("no synthetic tree may be generated")

        monkeypatch.setattr(cli, "synth_hierarchy", refuse)
        assert self._allocate(runner, workdir, ["--synth"], "b.json") == expected

    def test_allocate_parses_only_the_prior(self, runner, workdir, va_csv, parses):
        self._allocate(runner, workdir, ["--input", str(workdir / "va.csv")], "a.json")
        assert parses == [va_csv]

    @pytest.mark.parametrize("command", ["release", "evaluate"])
    def test_release_and_evaluate_parse_both_trees(
        self, runner, workdir, va_csv, parses, command
    ):
        args = [command, "--input", str(workdir / "va.csv"),
                "--prior", str(workdir / "va.csv"), "--eps-total", "1",
                "--out-dir", str(workdir / "out")]
        if command == "evaluate":
            args += ["--eps-grid", "1", "--replicates", "100"]
        assert _invoke(runner, args).exit_code == 0
        assert parses == [va_csv, va_csv]

    @pytest.mark.parametrize("command", ["release", "evaluate"])
    def test_release_and_evaluate_check_the_depths(self, runner, workdir, command):
        (workdir / "input.csv").write_text(TWO_LEVEL_CSV)
        args = [command, "--input", str(workdir / "input.csv"),
                "--prior", str(workdir / "va.csv"), "--eps-total", "1",
                "--out-dir", str(workdir / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert "prior depth 3 does not match input depth 2" in result.output
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("command", ["allocate", "release", "evaluate"])
    def test_the_prior_tree_is_freed_before_the_split(
        self, runner, workdir, monkeypatch, command
    ):
        """Only the prior's per-level counts outlive its parse: the tree
        read from the prior file is dead when the split is solved."""
        prior_path = str(workdir / "prior.csv")
        (workdir / "prior.csv").write_text(VA_PRIOR_CSV)
        trees, alive = [], []
        read, solve = cli._read_hierarchy, cli.allocate_fixed_budget

        def read_spy(f):
            tree = read(f)
            if f.name == prior_path:
                trees.append(weakref.ref(tree))
            return tree

        def solve_spy(*args, **kwargs):
            alive.append(trees[-1]() is not None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "_read_hierarchy", read_spy)
        monkeypatch.setattr(cli, "allocate_fixed_budget", solve_spy)
        args = [command, "--input", str(workdir / "va.csv"), "--prior", prior_path,
                "--eps-total", "1"]
        if command == "allocate":
            args += ["-o", str(workdir / "out.json")]
        else:
            args += ["--out-dir", str(workdir / "out")]
        if command == "evaluate":
            args += ["--eps-grid", "1", "--replicates", "100"]
        assert _invoke(runner, args).exit_code == 0
        assert len(trees) == 1
        assert alive and not any(alive)

    def test_a_prior_tree_and_its_level_stats_give_the_same_bytes(self, va_hierarchy):
        """A library caller may pass the prior as a tree, as perfbench
        does; it is reduced to the per-level counts the CLI keeps."""
        prior = parse_hierarchy(VA_PRIOR_CSV)

        def outputs(prior):
            common = dict(hierarchy=va_hierarchy, prior=prior, prior_given=True)
            return (
                cli.cmd_allocate(cli.RunConfig(eps_total=1.0, **common)),
                cli.cmd_allocate(cli.RunConfig(tau=100.0, **common)),
                cli.cmd_release(cli.RunConfig(eps_total=1.0, hier=True, **common)),
                cli.cmd_evaluate(cli.RunConfig(eps_total=1.0, replicates=100, **common),
                                 (0.5, 1.0)),
            )

        assert outputs(prior) == outputs(level_stats(prior))

    def test_a_prior_tree_of_another_depth_is_a_data_error(self, va_hierarchy):
        config = cli.RunConfig(hierarchy=parse_hierarchy(TWO_LEVEL_CSV),
                               prior=va_hierarchy, prior_given=True, eps_total=1.0)
        with pytest.raises(DataError, match="prior depth 3 does not match input depth 2"):
            cli.cmd_allocate(config)


TRACT_CSV = "node_id,parent_id,level,count\nt,,1,14\nt-1,t,2,7\nt-2,t,2,2\nt-3,t,2,5\n"
# the tract with one person added to each of its first two blocks
NEIGHBOUR_CSV = "node_id,parent_id,level,count\nt,,1,16\nt-1,t,2,8\nt-2,t,2,3\nt-3,t,2,5\n"


class TestOpenPrivacyLeaks:
    """Two ways a release made with the defaults is not private. Each
    test asserts what a private release must satisfy and fails today, so
    the change that closes the leak turns its strict xfail into a pass."""

    @staticmethod
    def _release(runner, tmp_path, name, text):
        (tmp_path / f"{name}.csv").write_text(text)
        args = ["release", "--input", str(tmp_path / f"{name}.csv"),
                "--eps-total", "1", "--out-dir", str(tmp_path / name)]
        assert _invoke(runner, args).exit_code == 0
        return tmp_path / name

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1a: the noise is a public function "
                       "of the sidecar's seed and the node positions")
    def test_the_noise_cannot_be_rebuilt_from_the_release(self, runner, tmp_path):
        # imported here: once releases no longer draw from these
        # streams they may go, and this module must still load
        from hierdp.mechanism import centered_uniform_matrix, standard_laplace

        out = self._release(runner, tmp_path, "tract", TRACT_CSV)
        released = parse_hierarchy((out / "release.csv").read_text())
        sidecar = json.loads((out / "release.json").read_text())
        eps = sidecar["allocation"]["eps"]
        # with no seed in the sidecar, guess the default one
        seed = sidecar.get("seed", 0)
        true = parse_hierarchy(TRACT_CSV)
        shown, first = [], 0
        for lv in range(1, released.depth + 1):
            # a node's key is its index in node order (level, then id)
            counts = released.level_counts(lv)
            keys = np.arange(first, first + len(counts), dtype=np.uint64)
            first += len(counts)
            noise = standard_laplace(centered_uniform_matrix(seed, keys, 0, 1))[0]
            recovered = np.rint(counts - noise / eps[lv - 1])
            # a count clamped to zero hides its noise; any other gives it up
            shown += zip(recovered[counts > 0], true.level_counts(lv)[counts > 0])
        assert not shown or any(guess != count for guess, count in shown)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: the split is solved from the "
                       "true counts and published in the sidecar")
    def test_neighbouring_tracts_publish_the_same_sidecar(self, runner, tmp_path):
        tract = self._release(runner, tmp_path, "tract", TRACT_CSV)
        neighbour = self._release(runner, tmp_path, "neighbour", NEIGHBOUR_CSV)
        assert (tract / "release.json").read_bytes() == (neighbour / "release.json").read_bytes()


class TestDownstream:
    def test_smoke_blocks(self, runner):
        result = _invoke(
            CliRunner(),
            ["downstream", "--blocks", "500,200,100,50",
             "--eps-total", "1", "--replicates", "1000", "--seed", "0",
             "--weight-fns", "linear,quadratic"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert set(payload["optimized"]) == {"linear", "quadratic"}
        gap = payload["mse_gap_uniform_minus_optimized"]
        assert set(gap) == {"linear", "quadratic"}

    def test_weight_fn_names(self, runner):
        args = ["downstream", "--blocks", "500,200", "--eps-total", "1",
                "--replicates", "1000", "--weight-fns"]
        result = runner.invoke(main, args + [" Log ,linear"])
        assert result.exit_code == 0
        assert set(json.loads(result.stdout)["optimized"]) == {"log", "linear"}
        result = runner.invoke(main, args + ["linear,cubic"])
        assert result.exit_code == 3
        assert "unknown weight function 'cubic'" in result.output

    @pytest.mark.parametrize("blocks", ["5,inf", "nan,5"])
    def test_non_finite_block_exits_3(self, runner, blocks):
        # refused as the user's count, not as the tract's internal node 't'
        result = runner.invoke(main, ["downstream", "--blocks", blocks, "--eps-total", "1"])
        assert result.exit_code == 3
        assert "counts must be finite" in result.output
        assert "node 't'" not in result.output

    def test_needs_exactly_one_source(self, runner, workdir):
        result = runner.invoke(main, ["downstream", "--eps-total", "1"])
        assert result.exit_code == 2

    def test_input_matches_blocks(self, runner, tract_blocks, tmp_path):
        # a 2-level tract CSV gives the bytes of --blocks with its leaf
        # counts in id order; rows are shuffled to show the order is by id
        rows = [f"t-{j:02d},t,2,{c!r}" for j, c in enumerate(tract_blocks, start=1)]
        rows = rows[::-1] + [f"t,,1,{sum(tract_blocks)!r}"]
        path = tmp_path / "tract.csv"
        path.write_text("node_id,parent_id,level,count\n" + "\n".join(rows) + "\n")
        common = ["downstream", "--eps-total", "0.5", "--replicates", "1000"]
        by_input = _invoke(runner, common + ["--input", str(path)])
        by_blocks = _invoke(
            runner, common + ["--blocks", ",".join(map(repr, tract_blocks))]
        )
        assert by_input.exit_code == by_blocks.exit_code == 0
        assert by_input.stdout == by_blocks.stdout

    def test_rejects_three_level_input(self, runner, workdir):
        result = runner.invoke(
            main,
            ["downstream", "--input", str(workdir / "va.csv"), "--eps-total", "1"],
        )
        assert result.exit_code == 3


class TestSkew:
    def test_matches_closed_form(self, runner):
        result = _invoke(
            runner, ["skew", "--total", "10", "--regions", "2", "--eps-grid", "0.5"]
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "split,eps,total_bias"
        assert len(lines) == 1 + 11  # splits of 10 into 2 parts
        row = dict(zip(("split", "eps", "bias"), lines[1].split(",")))
        left, right = (int(x) for x in row["split"].split("|"))
        expected = (math.exp(-0.5 * left) + math.exp(-0.5 * right)) / (2 * 0.5)
        assert float(row["bias"]) == pytest.approx(expected, rel=1e-12)

    def test_enumeration_too_large_exits_3(self, runner):
        # C(1004, 4) splits of 1000 into 5 regions: refused before any
        # split is built
        result = runner.invoke(main, ["skew", "--total", "1000", "--regions", "5"])
        assert result.exit_code == 3
        assert "more than 1000000" in result.stderr

    def test_bad_eps_exits_3(self, runner):
        result = runner.invoke(
            main, ["skew", "--total", "3", "--regions", "2", "--eps-grid", "1e-320,inf,nan"]
        )
        assert result.exit_code == 3
        assert "eps must be >= 1e-12" in result.stderr
        assert result.stdout == ""


class TestSynth:
    # sha256 of release.csv, taken at the commit before the synthetic
    # tree's depth came from --synth-fanouts alone
    SYNTH_SHA256 = {
        (0, False): "01a2247814fc1ebff23eadc38fa31a541785be574ec026a400a77a919f8daa47",
        (0, True): "fac90faef3f45c19c64c2a41414d8e713e4d94e5c1e52e5af27460949ef437f7",
        (5, False): "35a33e225ba9332452630a7b5727b0048d917264767f973a4b611711b578b49e",
        (5, True): "f59136b2c98fc8c17ea858f525d46c709dd4e1dd954e736a379cb049b494a976",
    }
    # the VA fixture with its middle level withheld (weights 1,0,1)
    WITHHELD_SHA256 = "e9aae5fdfca9eaee901a8a26846ad993f6a9fd6c1752df3d728878dae5bf481a"
    # sha256 of evaluate's and downstream's output files. Like the pins
    # above, these hold only where numpy dispatches X86_V4 (ROADMAP item
    # 8), and items 14 and 1a will move them on purpose
    EVALUATE_SHA256 = {
        "arms.csv": "fe088a17e62209e2eb9ede47267fae95a1c9d08090691b025115d066267fb52d",
        "mse_curve.csv": "9e6d6782c197c91affd5840acd10bb8b15453fc80009e0c1a6f8a6d03129144b",
        "report.json": "3cbbe9b5286d3395e2309860a3a20405cecd77a51b203696f367bcfe329cbb51",
    }
    DOWNSTREAM_SHA256 = "32deab11dc821ad2e923eba42347820b1afc4ab4307a7a2bc7e93483402c2c00"

    @staticmethod
    def _release_csv(runner, out, args):
        assert _invoke(runner, ["release", *args, "--out-dir", str(out)]).exit_code == 0
        return (out / "release.csv").read_text()

    @pytest.mark.parametrize("seed,hier", sorted(SYNTH_SHA256))
    def test_release_bytes_pinned(self, runner, tmp_path, seed, hier):
        args = ["--synth", "--synth-seed", "3", "--eps-total", "2", "--seed", str(seed)]
        text = self._release_csv(runner, tmp_path, args + (["--hier"] if hier else []))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SYNTH_SHA256[seed, hier]

    def test_withheld_level_bytes_pinned(self, runner, workdir):
        text = self._release_csv(
            runner, workdir / "out",
            ["--input", str(workdir / "va.csv"), "--eps-total", "2", "--weights", "1,0,1"],
        )
        assert {row.split(",")[2] for row in text.splitlines()[1:]} == {"1", "3"}
        assert hashlib.sha256(text.encode()).hexdigest() == self.WITHHELD_SHA256

    def test_evaluate_bytes_pinned(self, runner, tmp_path):
        args = ["evaluate", "--synth", "--synth-fanouts", "8,6", "--replicates", "100"]
        assert _invoke(runner, [*args, "--out-dir", str(tmp_path)]).exit_code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.EVALUATE_SHA256}
        assert digests == self.EVALUATE_SHA256

    def test_downstream_bytes_pinned(self, runner, tmp_path):
        out = tmp_path / "downstream.json"
        args = ["downstream", "--blocks", "500,200,100,50,7,3,1,900,20,11",
                "--eps-total", "0.5", "--replicates", "2000", "-o", str(out)]
        assert _invoke(runner, args).exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DOWNSTREAM_SHA256

    def test_fanouts_set_the_depth(self, runner, tmp_path):
        text = self._release_csv(
            runner, tmp_path,
            ["--synth", "--synth-fanouts", "5,4,3", "--eps-total", "2"],
        )
        released = parse_hierarchy(text)
        assert released.depth == 4
        assert [len(released.level_ids(lv)) for lv in range(1, 5)] == [1, 5, 20, 60]


SRC = str(Path(hierdp.__file__).resolve().parents[1])


class TestNoOpenSSL:
    """No command run on a file, a prior or ``--blocks`` loads OpenSSL:
    nothing needs a hash from it, and ``import hashlib`` alone maps
    libcrypto (~3.5 MB and ~4 ms a process). Each command runs in a
    fresh interpreter, which loads only what it needs. ``--synth`` is
    left out: ``numpy.random`` imports ``secrets``, which loads
    ``_hashlib`` through ``hmac``."""

    SCRIPT = (
        "import sys\n"
        "from hierdp.cli import main\n"
        "main(sys.argv[1:], standalone_mode=False)\n"
        "print(sorted({'_hashlib', '_ssl'} & set(sys.modules)))\n"
    )

    @pytest.mark.parametrize("args", [
        ["allocate", "--input", "va.csv", "--eps-total", "1"],
        ["allocate", "--input", "va.csv", "--prior", "va.csv", "--eps-total", "1"],
        ["release", "--input", "va.csv", "--hier", "--eps-total", "1"],
        ["evaluate", "--input", "va.csv", "--replicates", "100"],
        ["downstream", "--blocks", "500,200,100,50", "--eps-total", "1"],
        ["skew"],
    ], ids=["allocate", "allocate-prior", "release", "evaluate", "downstream", "skew"])
    def test_loads_no_openssl(self, workdir, args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *args], cwd=workdir, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "[]"


class TestListFlags:
    @pytest.mark.parametrize("args", [
        ["release", "--synth", "--synth-fanouts", ",", "--eps-total", "1"],
        ["release", "--synth", "--eps-total", "1", "--weights", " , "],
        ["evaluate", "--synth", "--eps-grid", ","],
        ["downstream", "--blocks", ",", "--eps-total", "1"],
        ["skew", "--eps-grid", ""],
        ["downstream", "--blocks", "5,3", "--eps-total", "1", "--weight-fns", ""],
        ["downstream", "--blocks", "5,3", "--eps-total", "1", "--weight-fns", ","],
    ])
    def test_empty_list_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "is empty" in result.output

    @pytest.mark.parametrize("args", [
        ["release", "--synth", "--synth-fanouts", "4,2.5", "--eps-total", "1"],
        ["allocate", "--synth", "--eps-total", "1", "--weights", "1,x,1"],
    ])
    def test_malformed_list_is_usage_error(self, runner, args):
        assert runner.invoke(main, args).exit_code == 2


class TestRemovedKnobs:
    @pytest.mark.parametrize("args", [
        ["--threads", "4", "skew"],
        ["release", "--synth", "--synth-levels", "3", "--eps-total", "1"],
        ["release", "--synth", "--eps-total", "1", "--out-prefix", "x"],
        ["release", "--synth", "--synth-mu", "3", "--eps-total", "1"],
        ["allocate", "--synth", "--synth-sigma", "1.2", "--eps-total", "1"],
    ])
    def test_unknown_option(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "No such option" in result.output
