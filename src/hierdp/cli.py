"""Command-line entry points.

Every command is a pure function of its inputs, flags, and seed:
hierdp makes no BLAS call, so identical invocations produce identical
bytes at any core count and under any OpenBLAS kernel. ``release``,
``evaluate`` and ``downstream`` bytes can still move with the SIMD
kernels numpy picks for the CPU (README, "CLI").

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver failure.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    _read_hierarchy,
    level_stats,
    parse_hierarchy,  # kept for callers that parse text here, as perfbench does
    synth_hierarchy,
)
from .mechanism import _check_seed
from .release import privatize

PRIOR_WARNING = (
    "warning: no --prior given; the budget split is being computed from the "
    "same counts that will be privatized. If the per-level budgets are "
    "published, that split itself discloses information about the data. "
    "Pass previously released counts via --prior to avoid this."
)


@dataclass
class RunConfig:
    """Everything a command needs, resolved from flags. A prior tree is
    kept as its :func:`level_stats`, all that the split reads of it."""

    hierarchy: Optional[Hierarchy] = None
    blocks: Optional[tuple[float, ...]] = None
    eps_total: Optional[float] = None
    tau: Optional[float] = None
    weights: Optional[tuple[float, ...]] = None
    seed: int = 0
    replicates: int = 1000
    hier: bool = False
    weight_fns: tuple[WeightFunction, ...] = ()
    prior: Optional[LevelStats] = None
    prior_given: bool = False

    def __post_init__(self):
        # before any solve: a seed the noise stream cannot take fails now
        _check_seed(self.seed)
        if isinstance(self.prior, Hierarchy):
            self.prior = level_stats(self.prior)

    def level_weights(self) -> tuple[float, ...]:
        return self.weights or (1.0,) * (self.prior or self.hierarchy).depth

    def prior_stats(self) -> LevelStats:
        """Counts that drive the allocation: the prior if given, else
        the input itself. With both, their depths must match. Without
        an input tree (``allocate --prior`` never reads it) the prior
        alone sets the depth."""
        stats = self.prior or level_stats(self.hierarchy)
        if self.hierarchy is not None and stats.depth != self.hierarchy.depth:
            raise DataError(f"prior depth {stats.depth} does not match "
                            f"input depth {self.hierarchy.depth}")
        return stats


def _read_tree(path: str) -> Hierarchy:
    # the bytes as written: BOM, line ends and encoding are the parser's
    with open(path, "rb") as f:
        return _read_hierarchy(f)


def _config(
    input_path: Optional[str],
    synth: bool,
    synth_seed: int,
    synth_fanouts: tuple[int, ...],
    prior_path: Optional[str],
    prior_suffices: bool = False,
    **fields,
) -> RunConfig:
    """RunConfig from the shared input and prior flags; the command's
    own resolved flags pass through as ``fields``.

    ``prior_suffices`` marks a command that reads nothing from the input
    tree once a prior is given: the input is then neither read nor
    generated, and ``hierarchy`` is None."""
    if (input_path is None) == (not synth):
        raise click.UsageError("give exactly one of --input or --synth")
    if prior_path is not None and prior_suffices:
        h = None
    elif input_path is not None:
        h = _read_tree(input_path)
    else:
        h = synth_hierarchy(SynthSpec(seed=synth_seed, fanouts=synth_fanouts))
    return RunConfig(
        hierarchy=h,
        prior=_read_tree(prior_path) if prior_path else None,
        prior_given=prior_path is not None,
        **fields,
    )


def _allocate(config: RunConfig) -> BudgetAllocation:
    if (config.eps_total is None) == (config.tau is None):
        raise click.UsageError("give exactly one of --eps-total or --tau")
    stats = config.prior_stats()
    weights = config.level_weights()
    if config.eps_total is not None:
        return allocate_fixed_budget(stats, weights, config.eps_total)
    return allocate_target_mse(stats, weights, config.tau)


def _emit(text: str, output: str) -> None:
    if output == "-":
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


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# operation bodies, separated from the click wiring so they are callable
# directly with a RunConfig; allocate and release print the prior warning
# once their output is computed, so a run that fails warns of nothing

def cmd_allocate(config: RunConfig) -> str:
    alloc = _allocate(config)
    if not config.prior_given:
        click.echo(PRIOR_WARNING, err=True)
    return _json_dumps(alloc.to_json_dict())


def cmd_release(config: RunConfig) -> tuple[str, str]:
    alloc = _allocate(config)
    if config.prior is None:
        # computed from the true counts: not for publication
        alloc = replace(alloc, objective_value=None, multiplier=None)
    released = privatize(config.hierarchy, alloc, config.seed, config.hier)
    if not config.prior_given:
        click.echo(PRIOR_WARNING, err=True)
    return released.to_csv(), released.sidecar_json() + "\n"


def cmd_evaluate(config: RunConfig, eps_grid: Sequence[float]) -> dict[str, str]:
    h = config.hierarchy
    stats = config.prior_stats()
    weights = config.level_weights()
    curve = [
        [eps_total, arm, repr(analytic_total_mse(h, alloc))]
        for eps_total in eps_grid
        for arm, alloc in (
            ("optimized", allocate_fixed_budget(stats, weights, eps_total)),
            ("uniform", uniform_allocation(h.depth, eps_total)),
        )
    ]
    report = compare_allocations(
        h,
        config.eps_total,
        weights,
        config.replicates,
        config.seed,
        stats=stats,
    )
    arms = (
        [name, *map(repr, (est.bias_sq, est.variance, est.mse,
                           est.se_bias_sq, est.se_variance, est.se_mse))]
        for name, est in sorted(report.arms.items())
    )
    return {
        "report.json": _json_dumps(report.to_json_dict()),
        "mse_curve.csv": _csv(["eps_total", "arm", "analytic_mse"], curve),
        "arms.csv": _csv(["arm", "bias_sq", "variance", "mse",
                          "se_bias_sq", "se_variance", "se_mse"], arms),
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
    return _csv(
        ["split", "eps", "total_bias"],
        (["|".join(str(x) for x in p.split), p.eps, repr(p.bias)]
         for p in skewness_bias_curve(total, regions, eps_grid)),
    )


# click wiring

class _ListParam(click.ParamType):
    """Comma-separated values of one kind; an empty list is a usage
    error."""

    def __init__(self, kind, name: str = ""):
        self.kind = kind
        self.name = name or f"{kind.__name__}s"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            values = tuple(self.kind(x) for x in value.split(",") if x.strip())
        except ValueError:
            self.fail(f"expects comma-separated {self.name}, got {value!r}", param, ctx)
        if not values:
            self.fail("is empty", param, ctx)
        return values


_FLOATS = _ListParam(float)


def _options(*options):
    """Apply click options as if stacked as decorators in this order."""
    return lambda fn: functools.reduce(lambda f, opt: opt(f), reversed(options), fn)


_INPUT = _options(
    click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), help="Hierarchy CSV (node_id,parent_id,level,count)."),
    click.option("--synth", is_flag=True, help="Generate the built-in synthetic hierarchy instead of reading a file."),
    click.option("--synth-seed", type=int, default=0, show_default=True),
    click.option("--synth-fanouts", type=_ListParam(int), show_default=True,
                 default=",".join(map(str, SynthSpec.__dataclass_fields__["fanouts"].default)),
                 help="Comma-separated fanouts, one per level transition; the tree has one level more."),
)
_WEIGHTS_PRIOR = _options(
    click.option("--weights", type=_FLOATS, default=None, help="Comma-separated per-level weights (default: equal)."),
    click.option("--prior", "prior_path", type=click.Path(exists=True, dir_okay=False), default=None, help="CSV of previously released counts to drive the allocation."),
)
_BUDGET = _options(
    click.option("--eps-total", type=float, default=None, help="Total privacy budget to split across levels."),
    click.option("--tau", type=float, default=None, help="Target weighted mse; minimizes total budget instead."),
    _WEIGHTS_PRIOR,
)
_SEED = click.option("--seed", type=int, default=0, show_default=True)
_OUTPUT = click.option("-o", "--output", type=str, default="-", show_default=True)


class _Group(click.Group):
    """Maps data errors to exit code 3, solver failures to 4 and an
    OSError (an output path it cannot write) to 2, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConvergenceFailure, DataError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2 if isinstance(exc, OSError)
                     else 4 if isinstance(exc, ConvergenceFailure) else 3)


@click.group(cls=_Group)
def main() -> None:
    """Privacy budget allocation and release for hierarchical counts."""


@main.command("allocate")
@_INPUT
@_BUDGET
@_OUTPUT
def allocate_cmd(output, **flags):
    """Solve the budget split and emit it as JSON."""
    _emit(cmd_allocate(_config(prior_suffices=True, **flags)), output)


@main.command("release")
@_INPUT
@_BUDGET
@_SEED
@click.option("--hier", is_flag=True, help="Apply the top-down consistency projection.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".", show_default=True)
def release_cmd(out_dir, **flags):
    """Privatize a hierarchy: noisy release.csv plus a release.json sidecar."""
    csv_text, sidecar = cmd_release(_config(**flags))
    _write_files(out_dir, {"release.csv": csv_text, "release.json": sidecar})


@main.command("evaluate")
@_INPUT
@click.option("--eps-total", type=float, default=1.0, show_default=True,
              help="Budget for the four-arm Monte Carlo comparison.")
@click.option("--eps-grid", type=_FLOATS, default=",".join(str(x) for x in EPS_GRID_DEFAULT),
              show_default=True, help="Budgets for the analytic mse curve.")
@_WEIGHTS_PRIOR
@click.option("--replicates", type=int, default=1000, show_default=True)
@_SEED
@click.option("--out-dir", type=click.Path(file_okay=False), default="evaluation", show_default=True)
def evaluate_cmd(eps_grid, out_dir, **flags):
    """Optimized-versus-uniform comparison report and plot data."""
    _write_files(out_dir, cmd_evaluate(_config(**flags), eps_grid))


@main.command("downstream")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              help="Two-level tract CSV (root plus blocks).")
@click.option("--blocks", type=_FLOATS, default=None,
              help="Comma-separated block counts; builds the tract inline.")
@click.option("--eps-total", type=float, required=True)
@click.option("--weight-fns", type=_ListParam(WeightFunction.parse, "names"),
              default="log,linear,quadratic", show_default=True)
@click.option("--replicates", type=int, default=10000, show_default=True)
@_SEED
@_OUTPUT
def downstream_cmd(input_path, blocks, weight_fns, output, **flags):
    """Misallocation of budget shares computed from privatized counts."""
    if (input_path is None) == (blocks is None):
        raise click.UsageError("give exactly one of --input or --blocks")
    config = RunConfig(
        hierarchy=_read_tree(input_path) if input_path is not None else None,
        blocks=blocks,
        weight_fns=weight_fns,
        **flags,
    )
    _emit(cmd_downstream(config), output)


@main.command("skew")
@click.option("--total", type=int, default=100, show_default=True)
@click.option("--regions", type=int, default=2, show_default=True)
@click.option("--eps-grid", type=_FLOATS, default="0.05,0.1,0.5", show_default=True)
@_OUTPUT
def skew_cmd(total, regions, eps_grid, output):
    """Total clamp bias over every integer split of a fixed population."""
    _emit(cmd_skew(total, regions, eps_grid), output)


if __name__ == "__main__":
    main()
