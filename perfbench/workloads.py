"""The four workloads: their inputs, CLI command sequences and checks.

Each workload is a :class:`Plan` built from the benchmark seed. The
program sees only the generated files and the flags below; the same
plan also tells the in-process worker (``worker.py``) how to rebuild
the command bodies, so both paths must write identical bytes.

Why these four:

* ``release-200k``: one wide release of a 200k-node tree with
  consistency; the hierarchy (parse, serialize) and release layers do
  the work, the allocator little, since integer counts dedup well.
* ``evaluate-21k``: the Monte Carlo engine on the default-sized tree;
  noise matrices and batched projection dominate, tree layers are small.
* ``allocate-prior-200k``: both allocator programs on a real-valued
  noisy prior, where deduplication cannot shrink the solver's passes.
* ``downstream-tract``: thousands of tiny per-replicate releases, the
  opposite use of the release layer to ``release-200k``.

``BENCHMARK.json`` declares all but ``release-200k``, whose run-to-run
spread on a shared 2-vCPU machine exceeded the 0.25 bound; it stays
runnable for measuring the release and hierarchy layers at 200k nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

# fixed parameters; "tiny" shrinks every input for the benchmark's own tests
SIZES = {
    "full": {
        "wide_fanouts": (500, 400),
        "default_fanouts": (128, 164),
        "eval_replicates": 150,
        "downstream_replicates": 1000,
        "tau": 150_000.0,
    },
    "tiny": {
        "wide_fanouts": (5, 4),
        "default_fanouts": (4, 3),
        "eval_replicates": 100,
        "downstream_replicates": 1000,
        "tau": 50.0,
    },
}
RELEASE_EPS = 2.0
EVAL_EPS = 1.0
EVAL_GRID = "0.1,0.25,0.5,1.0,1.5,2.0"
ALLOCATE_EPS = 2.0
DOWNSTREAM_EPS = 0.5

WORKLOADS = ("release-200k", "evaluate-21k", "allocate-prior-200k", "downstream-tract")


@dataclass
class Plan:
    """One workload instance.

    ``commands`` run in order as one CLI sequence and write ``outputs``
    (names under the output directory); ``spec`` lets the worker rebuild
    the same bodies in process; ``units`` counts the work one sequence
    does, in the workload's own unit; ``info`` describes the inputs for
    the result record.
    """

    commands: list[list[str]]
    outputs: list[str]
    check: Callable[[dict[str, str]], list[str]]
    spec: dict
    units: float
    unit: str
    info: dict


def _tree_info(tree: gen.Tree, file_info: dict) -> dict:
    return {
        "fanouts": list(tree.fanouts),
        "nodes": tree.nodes,
        "distinct_per_level": tree.distinct_per_level(),
        **file_info,
    }


def plan(name: str, seed: int, size: str, inputs: Path, out: Path) -> Plan:
    """Generate the workload's inputs under ``inputs`` and describe the
    run whose outputs land under ``out``."""
    p = SIZES[size]
    info: dict = {"seed": seed, "size": size}

    if name == "release-200k":
        tree = gen.tree(p["wide_fanouts"], seed)
        path = inputs / "tree.csv"
        info["tree"] = _tree_info(tree, gen.write(path, tree.to_csv(integer=True)))
        return Plan(
            commands=[["release", "--input", str(path), "--eps-total", str(RELEASE_EPS),
                       "--hier", "--out-dir", str(out)]],
            outputs=["release.csv", "release.json"],
            check=lambda t: checks.check_release(
                tree, t["release.csv"], t["release.json"], RELEASE_EPS),
            spec={"kind": "release", "tree": str(path), "eps_total": RELEASE_EPS,
                  "hier": True},
            units=tree.nodes,
            unit="released nodes",
            info=info,
        )

    if name == "evaluate-21k":
        tree = gen.tree(p["default_fanouts"], seed)
        path = inputs / "tree.csv"
        reps = p["eval_replicates"]
        info["tree"] = _tree_info(tree, gen.write(path, tree.to_csv(integer=True)))
        return Plan(
            commands=[["evaluate", "--input", str(path), "--eps-total", str(EVAL_EPS),
                       "--eps-grid", EVAL_GRID, "--replicates", str(reps),
                       "--out-dir", str(out)]],
            outputs=["report.json", "mse_curve.csv", "arms.csv"],
            check=lambda t: checks.check_evaluate(tree, t["report.json"], EVAL_EPS, reps),
            spec={"kind": "evaluate", "tree": str(path), "eps_total": EVAL_EPS,
                  "eps_grid": EVAL_GRID, "replicates": reps},
            # four arms, each drawing every node in every replicate
            units=tree.nodes * reps * 4,
            unit="node-replicate-arm draws",
            info=info,
        )

    if name == "allocate-prior-200k":
        tree = gen.tree(p["wide_fanouts"], seed)
        prior = gen.noisy_prior(tree, seed)
        path = inputs / "tree.csv"
        prior_path = inputs / "prior.csv"
        tau = p["tau"]
        info["tree"] = _tree_info(tree, gen.write(path, tree.to_csv(integer=True)))
        info["prior"] = _tree_info(prior, gen.write(prior_path, prior.to_csv(integer=False)))
        info["tau"] = tau
        base = ["allocate", "--input", str(path), "--prior", str(prior_path)]
        return Plan(
            commands=[base + ["--eps-total", str(ALLOCATE_EPS), "-o", str(out / "fixed.json")],
                      base + ["--tau", repr(tau), "-o", str(out / "target.json")]],
            outputs=["fixed.json", "target.json"],
            check=lambda t: checks.check_allocate(
                prior, t["fixed.json"], t["target.json"], ALLOCATE_EPS, tau),
            spec={"kind": "allocate", "tree": str(path), "prior": str(prior_path),
                  "eps_total": ALLOCATE_EPS, "tau": tau},
            units=2,
            unit="solves",
            info=info,
        )

    if name == "downstream-tract":
        blocks = gen.tract_blocks(seed)
        reps = p["downstream_replicates"]
        text = ",".join(str(b) for b in blocks)
        info["blocks"] = blocks
        return Plan(
            commands=[["downstream", "--blocks", text, "--eps-total", str(DOWNSTREAM_EPS),
                       "--weight-fns", ",".join(checks.WEIGHT_FNS),
                       "--replicates", str(reps), "-o", str(out / "downstream.json")]],
            outputs=["downstream.json"],
            check=lambda t: checks.check_downstream(t["downstream.json"], reps),
            spec={"kind": "downstream", "blocks": text, "eps_total": DOWNSTREAM_EPS,
                  "weight_fns": ",".join(checks.WEIGHT_FNS), "replicates": reps},
            # replicates x weight functions x {optimized, uniform}
            units=reps * len(checks.WEIGHT_FNS) * 2,
            unit="tract releases",
            info=info,
        )

    raise ValueError(f"unknown workload {name!r}")
