"""Tests of the benchmark itself: its output checks must reject broken
outputs, and every workload must print every declared metric.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Genuine outputs come from the real CLI on tiny generated inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_cli(args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "hierdp.cli", *args], env=env, check=True,
                   capture_output=True, timeout=120)


def genuine(name: str, tmp_path: Path) -> tuple[workloads.Plan, dict[str, str]]:
    """A tiny instance of workload ``name`` and the CLI's real outputs."""
    out = tmp_path / "out"
    out.mkdir()
    plan = workloads.plan(name, 1, "tiny", tmp_path, out)
    for argv in plan.commands:
        run_cli(argv)
    return plan, {n: (out / n).read_text(encoding="utf-8") for n in plan.outputs}


def test_release_checks(tmp_path):
    plan, texts = genuine("release-200k", tmp_path)
    assert plan.check(texts) == []
    tree = gen.tree(workloads.SIZES["tiny"]["wide_fanouts"], 1)
    eps = workloads.RELEASE_EPS

    # a noise-free release: consistent, in range, but no noise at all
    noise_free = tree.with_counts([c.astype(float) for c in tree.counts]).to_csv(integer=False)
    problems = checks.check_release(tree, noise_free, texts["release.json"], eps)
    assert any("empirical mse" in p for p in problems)

    # an unprojected tree passed off as a --hier release
    out = tmp_path / "plain"
    run_cli(["release", "--input", str(tmp_path / "tree.csv"), "--eps-total", str(eps),
             "--out-dir", str(out)])
    sidecar = json.loads((out / "release.json").read_text())
    sidecar["consistency_applied"] = True
    problems = checks.check_release(tree, (out / "release.csv").read_text(),
                                    json.dumps(sidecar), eps)
    assert problems and all("children's sum" in p for p in problems)

    # a budget that does not add up
    sidecar = json.loads(texts["release.json"])
    sidecar["allocation"]["eps"][0] *= 1.001
    assert checks.check_release(tree, texts["release.csv"], json.dumps(sidecar), eps)


def test_evaluate_checks(tmp_path):
    plan, texts = genuine("evaluate-21k", tmp_path)
    assert plan.check(texts) == []
    report = json.loads(texts["report.json"])
    arm = report["arms"]["optimized_no_hier"]
    arm["mse"] = report["analytic_mse"]["optimized"] + 4.5 * arm["se_mse"]
    problems = plan.check({"report.json": json.dumps(report)})
    assert problems and all("SE" in p for p in problems)


def test_allocate_checks(tmp_path):
    plan, texts = genuine("allocate-prior-200k", tmp_path)
    assert plan.check(texts) == []

    # off budget by 1e-6, with the reported total moved to match
    fixed = json.loads(texts["fixed.json"])
    fixed["eps"] = [e * (1 + 1e-6) for e in fixed["eps"]]
    fixed["eps_total"] = sum(fixed["eps"])
    problems = plan.check(dict(texts, **{"fixed.json": json.dumps(fixed)}))
    assert any("fixed-budget eps sum" in p for p in problems)

    # an even split: on budget, but not optimal
    fixed = json.loads(texts["fixed.json"])
    fixed["eps"] = [workloads.ALLOCATE_EPS / len(fixed["eps"])] * len(fixed["eps"])
    problems = plan.check(dict(texts, **{"fixed.json": json.dumps(fixed)}))
    assert any("lowers the objective" in p for p in problems)

    # a target-mse split that misses tau
    target = json.loads(texts["target.json"])
    target["eps"] = [e * 1.01 for e in target["eps"]]
    target["eps_total"] = sum(target["eps"])
    problems = plan.check(dict(texts, **{"target.json": json.dumps(target)}))
    assert any("!= tau" in p for p in problems)


def test_downstream_checks(tmp_path):
    plan, texts = genuine("downstream-tract", tmp_path)
    assert plan.check(texts) == []
    payload = json.loads(texts["downstream.json"])
    payload["uniform"]["log"]["excluded_replicates"] += 1
    assert plan.check({"downstream.json": json.dumps(payload)})
    payload = json.loads(texts["downstream.json"])
    payload["optimized"]["quadratic"]["mse_pct"] = float("nan")
    assert plan.check({"downstream.json": json.dumps(payload)})


def test_closed_form_matches_documented_limits():
    eps = 0.7
    assert checks.clamped_mse(np.array([0.0]), eps)[0] == pytest.approx(1 / eps**2)
    assert checks.clamped_mse(np.array([1e6]), eps)[0] == pytest.approx(2 / eps**2)


def test_tracer_survives_vanished_boundaries(monkeypatch):
    monkeypatch.setattr(spans, "BOUNDARIES", spans.BOUNDARIES + [
        ("hierdp.cli", "no_such_name", "gone.name", None),
        ("hierdp.no_such_module", "x", "gone.module", None),
    ])
    tracer = spans.Tracer("test")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["hierdp.cli.no_such_name", "hierdp.no_such_module.x"]
    assert spans.absent_layers(tracer.absent) == ["gone"]
    metrics = spans.layer_metrics(tracer.aggregate(), 0.0, 0.0)
    assert all(v == 0.0 for v in metrics.values())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert sorted(summary) == ["attempted", "correct", "failed", "metrics"]
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        # the human-readable table names each metric with its unit too
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "release-200k", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
