import csv
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from hierdp.allocator import allocate_fixed_budget
from hierdp.analytics import weighted_total_mse
from hierdp import cli
from hierdp.cli import main
from hierdp.errors import InvalidSpec
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
        # the plain file and its CRLF twin are cut with str.split, the
        # quoted one goes through csv.reader
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

    def test_largest_seed_releases(self, runner, tmp_path):
        args = ["release", "--synth", "--synth-fanouts", "3,2", "--eps-total", "1",
                "--seed", str(2**64 - 1), "--out-dir", str(tmp_path)]
        assert _invoke(runner, args).exit_code == 0


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


TWO_LEVEL_CSV = "node_id,parent_id,level,count\nA,,1,450\nA-1,A,2,300\nA-2,A,2,150\n"


class TestPrior:
    """--prior drives the split; allocate then reads nothing from the
    input tree, release and evaluate still parse and release it."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []
        parse = cli.parse_hierarchy
        monkeypatch.setattr(
            cli, "parse_hierarchy", lambda text: calls.append(text) or parse(text)
        )
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
        (0, False): "bf92b8cb599473dd024ce5db7e8442bbb7c1d87cc179a2a83b1c2b39174fc432",
        (0, True): "4ba82c3bfac82b76dfa28b484912ff36427e9e9ba3d642fcbe3f2e50e6441680",
        (5, False): "06fabe7180af3fd321f5cefd27751e4bd6d1cf36923eb11ae3981c8619f8aba2",
        (5, True): "0f04aa67b42ac35797db9dd530df85167985078fb51f8363e3849548d9ba3803",
    }
    # the VA fixture with its middle level withheld (weights 1,0,1)
    WITHHELD_SHA256 = "b2c027038354807de565adbfdf7247dd83f1ea1478bf86d47f9978aec396871f"

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

    def test_fanouts_set_the_depth(self, runner, tmp_path):
        text = self._release_csv(
            runner, tmp_path,
            ["--synth", "--synth-fanouts", "5,4,3", "--eps-total", "2"],
        )
        released = parse_hierarchy(text)
        assert released.depth == 4
        assert [len(released.level_ids(lv)) for lv in range(1, 5)] == [1, 5, 20, 60]


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
