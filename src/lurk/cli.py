"""Command-line interface for the exposure-modeling pipeline."""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from pathlib import Path

import click

from . import geodata
from .covariates import CovariateMatrix
from .errors import InvalidArgumentError, LurkError
from .evaluation import monte_carlo_curve
from .exposure import window_variance
from .monitors import MonitorTable
from .pipeline import (
    STAGES,
    PipelineConfig,
    compare_models,
    comparison_to_csv,
    format_comparison,
    run,
)
from .synth import COVARIATE_SETS, SyntheticScenario, generate_synthetic, write_scenario
from ._util import check_keys, dump_json, locked_dir, read_json, stage_seed


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


class _Group(click.Group):
    """Reports a LurkError in one line, `Error: <message>`, exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LurkError as exc:
            raise click.ClickException(str(exc)) from exc


def _odd_cells(ctx, param, value):
    if value is None or (value > 0 and value % 2):
        return value
    raise click.BadParameter(f"{value} is not a positive odd integer")


def _training_sizes(ctx, param, value):
    sizes = value.split(",")
    if all(n.strip().isdecimal() and int(n) > 0 for n in sizes):
        return [int(n) for n in sizes]
    raise click.BadParameter(f"{value!r} is not a comma-separated list of positive integers")


@click.group(cls=_Group)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              help="Pipeline config JSON.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("-v", "--verbose", is_flag=True, help="Chatty logging.")
@click.pass_context
def main(ctx, config, seed, out, verbose):
    """National land-use-regression + universal-kriging exposure modeling."""
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
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
              callback=_training_sizes, help="Comma-separated training sizes.")
@click.option("--iterations", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--include-cv", is_flag=True,
              help="Also run 10-fold and leave-one-group-out per iteration (slow).")
@click.pass_context
def montecarlo_cmd(ctx, n_grid, iterations, include_cv):
    """Monte Carlo training-size experiment on the cached site matrix."""
    cfg = _load_config(ctx)
    out = Path(cfg.out_dir)
    with locked_dir(out):  # no other run rewrites the matrix before it is read
        run(cfg, until="covariates")
        sites = MonitorTable.from_csv(out / "monitors.csv")
        matrix = CovariateMatrix.from_csv(out / "matrix.csv")
        result = monte_carlo_curve(cfg.recipe, sites, matrix, n_grid, iterations,
                                   seed=stage_seed(cfg.seed, "montecarlo"),
                                   include_cv=include_cv, logo_group=cfg.logo_group)
        result.to_csv(out / "montecarlo.csv")
        dump_json(result.summary(), out / "montecarlo_summary.json")
    click.echo(json.dumps(result.summary(), indent=2, sort_keys=True))


@main.command("exposure")
@click.option("--window-cells", type=int, default=None, callback=_odd_cells,
              help="Also write a moving-window variance grid (odd cell count).")
@click.pass_context
def exposure_cmd(ctx, window_cells):
    """Population exposure statistics from a finished prediction."""
    cfg = _load_config(ctx)
    if window_cells and cfg.prediction is None:  # an earlier run's grid would be read
        raise InvalidArgumentError("--window-cells needs a config with a prediction lattice")
    out = Path(cfg.out_dir)
    with locked_dir(out):  # no other run rewrites the prediction before it is read
        report = run(cfg)
        if window_cells:
            grid = window_variance(geodata.read_raster(out / "prediction.asc"), window_cells)
            geodata.write_raster(grid, out / f"window_variance_{window_cells}.asc")
            click.echo(f"window variance -> {out}/window_variance_{window_cells}.asc")
    click.echo(json.dumps({
        "pop_weighted_mean": report.metrics.get("pop_weighted_mean"),
        "fraction_above": report.metrics.get("fraction_above"),
    }, indent=2, sort_keys=True))


@main.command("synth")
@click.option("--scenario", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Scenario JSON; defaults when omitted.")
@click.option("--preset", type=click.Choice(COVARIATE_SETS), default="mini")
@click.pass_context
def synth_cmd(ctx, scenario, preset):
    """Generate a synthetic scenario directory ready for `run`."""
    if scenario:
        d = read_json(scenario)
        check_keys(d, [f.name for f in dataclasses.fields(SyntheticScenario)], "scenario")
        sc = SyntheticScenario(**d)
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
@click.argument("reports", nargs=-1, type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--csv", "csv_out", type=click.Path(), default=None)
def compare_cmd(reports, csv_out):
    """Compare run reports from one dataset (recipe flags + CV metrics)."""
    rows = compare_models([read_json(p) for p in reports])
    if csv_out:
        comparison_to_csv(rows, csv_out)
        click.echo(f"wrote {csv_out}")
    click.echo(format_comparison(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
