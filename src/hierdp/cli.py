"""Command-line entry points.

Every command is a pure function of its inputs, flags, and seed:
identical invocations produce identical bytes. ``--threads`` (or the
HIERDP_THREADS environment variable) is accepted as a scheduling hint
and never influences output; the implementation is vectorized rather
than multi-threaded.

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver failure.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import click

from .allocator import (
    BudgetAllocation,
    allocate_fixed_budget,
    allocate_target_mse,
    uniform_allocation,
)
from .downstream import WeightFunction, compare_misallocation
from .errors import ConvergenceFailure, DataError
from .evaluation import (
    EPS_GRID_DEFAULT,
    analytic_total_mse,
    compare_allocations,
    skewness_bias_curve,
)
from .hierarchy import (
    Hierarchy,
    LevelStats,
    SynthSpec,
    level_stats,
    parse_hierarchy,
    synth_hierarchy,
)
from .release import enforce_consistency, release_no_hier

PRIOR_WARNING = (
    "warning: no --prior given; the budget split is being computed from the "
    "same counts that will be privatized. If the per-level budgets are "
    "published, that split itself discloses information about the data. "
    "Pass previously released counts via --prior to avoid this."
)


@dataclass
class RunConfig:
    """Everything a command needs, resolved from flags."""

    hierarchy: Optional[Hierarchy] = None
    blocks: Optional[tuple[float, ...]] = None
    eps_total: Optional[float] = None
    tau: Optional[float] = None
    weights: Optional[tuple[float, ...]] = None
    seed: int = 0
    replicates: int = 1000
    hier: bool = False
    out_dir: Path = Path(".")
    weight_fns: tuple[WeightFunction, ...] = ()
    prior: Optional[Hierarchy] = None
    prior_given: bool = False

    def level_weights(self) -> tuple[float, ...]:
        return self.weights or (1.0,) * self.hierarchy.depth

    def prior_stats(self) -> LevelStats:
        """Counts that drive the allocation: the prior if given, else
        the input itself."""
        stats = level_stats(self.prior if self.prior is not None else self.hierarchy)
        if stats.depth != self.hierarchy.depth:
            raise DataError(
                f"prior depth {stats.depth} does not match input depth "
                f"{self.hierarchy.depth}"
            )
        return stats


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"{flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise click.UsageError(f"{flag} is empty")
    return values


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _load_hierarchy(
    input_path: Optional[str],
    synth: bool,
    synth_seed: int,
    synth_levels: int,
    synth_fanouts: Optional[str],
    synth_mu: float,
    synth_sigma: float,
) -> Hierarchy:
    if (input_path is None) == (not synth):
        raise click.UsageError("give exactly one of --input or --synth")
    if input_path is not None:
        return parse_hierarchy(Path(input_path).read_text(encoding="utf-8"))
    fanouts = (
        _parse_ints(synth_fanouts, "--synth-fanouts")
        if synth_fanouts
        else SynthSpec.__dataclass_fields__["fanouts"].default
    )
    if synth_levels != 3 and synth_fanouts is None:
        raise click.UsageError("--synth-levels other than 3 needs --synth-fanouts")
    return synth_hierarchy(
        SynthSpec(
            seed=synth_seed,
            levels=synth_levels,
            fanouts=fanouts,
            leaf_mu=synth_mu,
            leaf_sigma=synth_sigma,
        )
    )


def _config(
    input_path: Optional[str],
    synth: bool,
    synth_seed: int,
    synth_levels: int,
    synth_fanouts: Optional[str],
    synth_mu: float,
    synth_sigma: float,
    weights: Optional[str],
    prior_path: Optional[str],
    **fields,
) -> RunConfig:
    """RunConfig from the shared input, weight and prior flags; the
    command's own resolved flags pass through as ``fields``."""
    h = _load_hierarchy(input_path, synth, synth_seed, synth_levels,
                        synth_fanouts, synth_mu, synth_sigma)
    return RunConfig(
        hierarchy=h,
        weights=_parse_floats(weights, "--weights") if weights is not None else None,
        prior=parse_hierarchy(Path(prior_path).read_text(encoding="utf-8"))
        if prior_path
        else None,
        prior_given=prior_path is not None,
        **fields,
    )


def _allocate(config: RunConfig) -> BudgetAllocation:
    if (config.eps_total is None) == (config.tau is None):
        raise click.UsageError("give exactly one of --eps-total or --tau")
    if not config.prior_given:
        click.echo(PRIOR_WARNING, err=True)
    stats = config.prior_stats()
    weights = config.level_weights()
    if config.eps_total is not None:
        return allocate_fixed_budget(stats, weights, config.eps_total)
    return allocate_target_mse(stats, weights, config.tau)


def _emit(text: str, output: Optional[str]) -> None:
    if output is None or output == "-":
        click.echo(text, nl=False)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in sorted(files.items()):
        (directory / name).write_text(text, encoding="utf-8")
        click.echo(f"wrote {directory / name}")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# operation bodies, separated from the click wiring so they are callable
# directly with a RunConfig

def cmd_allocate(config: RunConfig) -> str:
    return _json_dumps(_allocate(config).to_json_dict())


def cmd_release(config: RunConfig) -> tuple[str, str]:
    alloc = _allocate(config)
    if config.prior is None:
        # computed from the true counts: not for publication
        alloc = replace(alloc, objective_value=None, multiplier=None)
    released = release_no_hier(config.hierarchy, alloc, config.seed)
    if config.hier:
        released = enforce_consistency(released)
    return released.to_csv(), released.sidecar_json() + "\n"


def cmd_evaluate(config: RunConfig, eps_grid: Sequence[float]) -> dict[str, str]:
    h = config.hierarchy
    stats = config.prior_stats()
    weights = config.level_weights()

    curve = io.StringIO()
    writer = csv.writer(curve, lineterminator="\n")
    writer.writerow(["eps_total", "arm", "analytic_mse"])
    for eps_total in eps_grid:
        for arm, alloc in (
            ("optimized", allocate_fixed_budget(stats, weights, eps_total)),
            ("uniform", uniform_allocation(h.depth, eps_total)),
        ):
            writer.writerow([eps_total, arm, repr(analytic_total_mse(h, alloc))])

    report = compare_allocations(
        h,
        config.eps_total,
        weights,
        config.replicates,
        config.seed,
        stats=stats,
    )
    arms = io.StringIO()
    writer = csv.writer(arms, lineterminator="\n")
    writer.writerow(
        ["arm", "bias_sq", "variance", "mse", "se_bias_sq", "se_variance", "se_mse"]
    )
    for name, est in sorted(report.arms.items()):
        writer.writerow(
            [
                name,
                repr(est.bias_sq),
                repr(est.variance),
                repr(est.mse),
                repr(est.se_bias_sq),
                repr(est.se_variance),
                repr(est.se_mse),
            ]
        )
    return {
        "report.json": _json_dumps(report.to_json_dict()),
        "mse_curve.csv": curve.getvalue(),
        "arms.csv": arms.getvalue(),
    }


def cmd_downstream(config: RunConfig) -> str:
    if config.blocks is not None:
        blocks = config.blocks
    else:
        h = config.hierarchy
        if h.depth != 2:
            raise DataError(
                f"downstream needs a 2-level tract hierarchy, got depth {h.depth}"
            )
        blocks = h.level_counts(2)
    report = compare_misallocation(
        blocks,
        config.eps_total,
        config.weight_fns,
        config.replicates,
        config.seed,
    )
    payload = {
        arm: {wname: stats.to_json_dict() for wname, stats in by_w.items()}
        for arm, by_w in report.items()
    }
    for w in config.weight_fns:
        opt = report["optimized"][w.value].mse_pct
        uni = report["uniform"][w.value].mse_pct
        payload.setdefault("mse_gap_uniform_minus_optimized", {})[w.value] = uni - opt
    return _json_dumps(payload)


def cmd_skew(total: int, regions: int, eps_grid: Sequence[float]) -> str:
    points = skewness_bias_curve(total, regions, eps_grid)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["split", "eps", "total_bias"])
    for p in points:
        writer.writerow(["|".join(str(x) for x in p.split), p.eps, repr(p.bias)])
    return out.getvalue()


# click wiring

def _input_options(fn):
    fn = click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), help="Hierarchy CSV (node_id,parent_id,level,count).")(fn)
    fn = click.option("--synth", is_flag=True, help="Generate the built-in synthetic hierarchy instead of reading a file.")(fn)
    fn = click.option("--synth-seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--synth-levels", type=int, default=3, show_default=True)(fn)
    fn = click.option("--synth-fanouts", type=str, default=None, help="Comma-separated fanouts, one per level transition.")(fn)
    fn = click.option("--synth-mu", type=float, default=3.0, show_default=True)(fn)
    fn = click.option("--synth-sigma", type=float, default=1.2, show_default=True)(fn)
    return fn


def _budget_options(fn):
    fn = click.option("--eps-total", type=float, default=None, help="Total privacy budget to split across levels.")(fn)
    fn = click.option("--tau", type=float, default=None, help="Target weighted mse; minimizes total budget instead.")(fn)
    fn = click.option("--weights", type=str, default=None, help="Comma-separated per-level weights (default: equal).")(fn)
    fn = click.option("--prior", "prior_path", type=click.Path(exists=True, dir_okay=False), default=None, help="CSV of previously released counts to drive the allocation.")(fn)
    return fn


def _run(body):
    try:
        body()
    except ConvergenceFailure as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@click.group()
@click.option(
    "--threads",
    type=int,
    default=1,
    help="Worker hint; affects wall time only, never output bytes. "
    "The HIERDP_THREADS environment variable overrides this flag.",
)
def main(threads: int) -> None:
    """Privacy budget allocation and release for hierarchical counts."""
    env = os.environ.get("HIERDP_THREADS")
    if env is not None:
        try:
            threads = int(env)
        except ValueError:
            raise click.UsageError(f"HIERDP_THREADS={env!r} is not an integer")
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")


@main.command("allocate")
@_input_options
@_budget_options
@click.option("-o", "--output", type=str, default="-", show_default=True)
def allocate_cmd(output, **flags):
    """Solve the budget split and emit it as JSON."""
    _run(lambda: _emit(cmd_allocate(_config(**flags)), output))


@main.command("release")
@_input_options
@_budget_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--hier", is_flag=True, help="Apply the top-down consistency projection.")
@click.option("--out-prefix", type=str, default="release", show_default=True,
              help="Writes PREFIX.csv and PREFIX.json under --out-dir.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
def release_cmd(out_prefix, out_dir, **flags):
    """Privatize a hierarchy: noisy CSV plus a JSON sidecar."""

    def body():
        csv_text, sidecar = cmd_release(_config(**flags))
        _write_files(out_dir, {f"{out_prefix}.csv": csv_text,
                               f"{out_prefix}.json": sidecar})

    _run(body)


@main.command("evaluate")
@_input_options
@click.option("--eps-total", type=float, default=1.0, show_default=True,
              help="Budget for the four-arm Monte Carlo comparison.")
@click.option("--eps-grid", type=str, default=",".join(str(x) for x in EPS_GRID_DEFAULT),
              show_default=True, help="Budgets for the analytic mse curve.")
@click.option("--weights", type=str, default=None)
@click.option("--prior", "prior_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--replicates", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), default="evaluation", show_default=True)
def evaluate_cmd(eps_grid, out_dir, **flags):
    """Optimized-versus-uniform comparison report and plot data."""

    def body():
        config = _config(**flags)
        _write_files(out_dir, cmd_evaluate(config, _parse_floats(eps_grid, "--eps-grid")))

    _run(body)


@main.command("downstream")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              help="Two-level tract CSV (root plus blocks).")
@click.option("--blocks", type=str, default=None,
              help="Comma-separated block counts; builds the tract inline.")
@click.option("--eps-total", type=float, required=True)
@click.option("--weight-fns", type=str, default="log,linear,quadratic", show_default=True)
@click.option("--replicates", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=str, default="-", show_default=True)
def downstream_cmd(input_path, blocks, eps_total, weight_fns, replicates, seed, output):
    """Misallocation of budget shares computed from privatized counts."""

    def body():
        if (input_path is None) == (blocks is None):
            raise click.UsageError("give exactly one of --input or --blocks")
        config = RunConfig(
            hierarchy=parse_hierarchy(Path(input_path).read_text(encoding="utf-8"))
            if input_path is not None
            else None,
            blocks=_parse_floats(blocks, "--blocks") if blocks is not None else None,
            eps_total=eps_total,
            replicates=replicates,
            seed=seed,
            weight_fns=tuple(
                WeightFunction.parse(n) for n in weight_fns.split(",") if n.strip()
            ),
        )
        _emit(cmd_downstream(config), output)

    _run(body)


@main.command("skew")
@click.option("--total", type=int, default=100, show_default=True)
@click.option("--regions", type=int, default=2, show_default=True)
@click.option("--eps-grid", type=str, default="0.05,0.1,0.5", show_default=True)
@click.option("-o", "--output", type=str, default="-", show_default=True)
def skew_cmd(total, regions, eps_grid, output):
    """Total clamp bias over every integer split of a fixed population."""

    def body():
        _emit(cmd_skew(total, regions, _parse_floats(eps_grid, "--eps-grid")), output)

    _run(body)


if __name__ == "__main__":
    main()
