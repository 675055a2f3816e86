"""Command-line interface for the exposure-modeling pipeline."""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: on two cores two
# OpenBLAS threads made stepwise selection about 3x slower. Set before
# numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import click  # noqa: E402

from . import geodata  # noqa: E402
from .covariates import CovariateMatrix  # noqa: E402
from .evaluation import monte_carlo_curve  # noqa: E402
from .exposure import window_variance  # noqa: E402
from .monitors import MonitorTable  # noqa: E402
from .pipeline import (  # noqa: E402
    STAGES,
    PipelineConfig,
    compare_models,
    comparison_to_csv,
    format_comparison,
    run,
)
from .synth import SyntheticScenario, generate_synthetic, write_scenario  # noqa: E402
from ._util import dump_json, stage_seed  # noqa: E402


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _load_config(ctx) -> PipelineConfig:
    path = ctx.obj.get("config")
    if not path:
        raise click.UsageError("--config is required for this command")
    cfg = PipelineConfig.from_json(path)
    if ctx.obj.get("seed") is not None:
        cfg.seed = ctx.obj["seed"]
    if ctx.obj.get("out") is not None:
        cfg.out_dir = Path(ctx.obj["out"])
    return cfg


@click.group()
@click.option("--config", type=click.Path(exists=True), help="Pipeline config JSON.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("-v", "--verbose", is_flag=True, help="Chatty logging.")
@click.pass_context
def main(ctx, config, seed, out, verbose):
    """National land-use-regression + universal-kriging exposure modeling."""
    _setup_logging(verbose)
    ctx.obj = {"config": config, "seed": seed, "out": out}


def _stage_command(until: str):
    """A command that runs the cached pipeline through stage `until`."""

    @click.pass_context
    def command(ctx):
        cfg = _load_config(ctx)
        report = run(cfg, until=until)
        click.echo(json.dumps(report.metrics, indent=2, sort_keys=True))
        click.echo(f"report: {cfg.out_dir}/report.json")

    return command


main.command("run", help="Execute every pipeline stage with artifact caching.")(
    _stage_command(STAGES[-1]))
for _stage in STAGES[:-1]:
    main.command(_stage, help=f"Run the cached pipeline through the {_stage} stage.")(
        _stage_command(_stage))


@main.command("montecarlo")
@click.option("--n-grid", default="20,40,80,160,320", show_default=True,
              help="Comma-separated training sizes.")
@click.option("--iterations", default=100, show_default=True)
@click.option("--include-cv", is_flag=True,
              help="Also run 10-fold and leave-one-group-out per iteration (slow).")
@click.pass_context
def montecarlo_cmd(ctx, n_grid, iterations, include_cv):
    """Monte Carlo training-size experiment on the cached site matrix."""
    cfg = _load_config(ctx)
    run(cfg, until="covariates")
    out = Path(cfg.out_dir)
    sites = MonitorTable.from_csv(out / "monitors.csv")
    matrix = CovariateMatrix.from_csv(out / "matrix.csv")
    ns = [int(v) for v in n_grid.split(",")]
    result = monte_carlo_curve(cfg.recipe, sites, matrix, ns, iterations,
                               seed=stage_seed(cfg.seed, "montecarlo"),
                               include_cv=include_cv, logo_group=cfg.logo_group)
    result.to_csv(out / "montecarlo.csv")
    dump_json(result.summary(), out / "montecarlo_summary.json")
    click.echo(json.dumps(result.summary(), indent=2, sort_keys=True))


@main.command("exposure")
@click.option("--window-cells", type=int, default=None,
              help="Also write a moving-window variance grid (odd cell count).")
@click.pass_context
def exposure_cmd(ctx, window_cells):
    """Population exposure statistics from a finished prediction."""
    cfg = _load_config(ctx)
    report = run(cfg)
    out = Path(cfg.out_dir)
    if window_cells:
        grid = window_variance(geodata.read_raster(out / "prediction.asc"), window_cells)
        geodata.write_raster(grid, out / f"window_variance_{window_cells}.asc")
        click.echo(f"window variance -> {out}/window_variance_{window_cells}.asc")
    click.echo(json.dumps({
        "pop_weighted_mean": report.metrics.get("pop_weighted_mean"),
        "fraction_above": report.metrics.get("fraction_above"),
    }, indent=2, sort_keys=True))


@main.command("synth")
@click.option("--scenario", type=click.Path(exists=True), default=None,
              help="Scenario JSON; defaults when omitted.")
@click.option("--preset", type=click.Choice(["mini", "full"]), default="mini")
@click.pass_context
def synth_cmd(ctx, scenario, preset):
    """Generate a synthetic scenario directory ready for `run`."""
    if scenario:
        sc = SyntheticScenario(**json.loads(Path(scenario).read_text()))
    else:
        sc = SyntheticScenario(covariate_set=preset)
    if ctx.obj.get("seed") is not None:
        sc = dataclasses.replace(sc, seed=ctx.obj["seed"])
    out = Path(ctx.obj.get("out") or "synth_scenario")
    data = generate_synthetic(sc)
    config_path = write_scenario(data, out)
    click.echo(f"{len(data.sites)} sites, {len(data.matrix.columns)} covariates "
               f"-> {config_path}")


@main.command("compare")
@click.argument("reports", nargs=-1, type=click.Path(exists=True), required=True)
@click.option("--csv", "csv_out", type=click.Path(), default=None)
def compare_cmd(reports, csv_out):
    """Compare run reports from one dataset (recipe flags + CV metrics)."""
    loaded = [json.loads(Path(p).read_text()) for p in reports]
    rows = compare_models(loaded)
    if csv_out:
        comparison_to_csv(rows, csv_out)
        click.echo(f"wrote {csv_out}")
    click.echo(format_comparison(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
