import json
import math

import pytest
from click.testing import CliRunner

from hierdp.allocator import allocate_fixed_budget
from hierdp.analytics import weighted_total_mse
from hierdp.cli import main
from hierdp.hierarchy import level_stats, parse_hierarchy


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
        for node in released:
            kids = released.children_of(node.id)
            if kids:
                child_sum = sum(released.node(k).count for k in kids)
                assert abs(node.count - child_sum) <= 1e-9 * max(1.0, node.count)
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
        for node in va_hierarchy:
            assert released.node(node.id).count == pytest.approx(node.count, abs=1e-6)


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

    def test_needs_exactly_one_source(self, runner, workdir):
        result = runner.invoke(main, ["downstream", "--eps-total", "1"])
        assert result.exit_code == 2

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


class TestDeterminismAcrossThreads:
    def test_threads_flag_and_env(self, runner, workdir):
        base = ["allocate", "--input", str(workdir / "va.csv"), "--eps-total", "2"]
        plain = _invoke(runner, base)
        with_flag = _invoke(runner, ["--threads", "4"] + base)
        with_env = _invoke(runner, base, env={"HIERDP_THREADS": "8"})
        assert plain.stdout == with_flag.stdout == with_env.stdout

    def test_bad_thread_count(self, runner, workdir):
        result = runner.invoke(
            main,
            ["--threads", "0", "allocate",
             "--input", str(workdir / "va.csv"), "--eps-total", "1"],
        )
        assert result.exit_code == 2

    def test_env_overrides_flag(self, runner, workdir):
        # a valid flag loses to an invalid environment value
        result = runner.invoke(
            main,
            ["--threads", "4", "allocate",
             "--input", str(workdir / "va.csv"), "--eps-total", "1"],
            env={"HIERDP_THREADS": "0"},
        )
        assert result.exit_code == 2
