"""Command-line interface for the exposure-modeling pipeline."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from . import covariates as cov
from . import geodata
from .evaluation import kfold_plan, logo_plan, monte_carlo_curve, run_cv
from .exposure import PredictionSurface, window_variance
from .monitors import annualize, read_daily_csv, read_sites_csv
from .pipeline import (
    PipelineConfig,
    _load_geo_inputs,
    compare_models,
    comparison_to_csv,
    format_comparison,
    run,
)
from .recipes import fit_recipe
from .synth import SyntheticScenario, generate_synthetic, write_scenario
from ._util import dump_json, stage_seed


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


@main.command("run")
@click.pass_context
def run_cmd(ctx):
    """Execute every pipeline stage with artifact caching."""
    cfg = _load_config(ctx)
    report = run(cfg)
    click.echo(json.dumps(report.metrics, indent=2, sort_keys=True))
    click.echo(f"report: {cfg.out_dir}/report.json")


@main.command("annualize")
@click.pass_context
def annualize_cmd(ctx):
    """Daily series to annual means with the completeness rule."""
    cfg = _load_config(ctx)
    result = annualize(read_daily_csv(cfg.daily_csv), read_sites_csv(cfg.sites_csv),
                       cfg.year)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.table.to_csv(out / "monitors.csv")
    click.echo(f"{len(result.table)} sites kept, {len(result.excluded)} excluded "
               f"-> {out / 'monitors.csv'}")


def _sites_and_matrix(cfg: PipelineConfig):
    result = annualize(read_daily_csv(cfg.daily_csv), read_sites_csv(cfg.sites_csv),
                       cfg.year)
    sites = result.table
    specs = cov.read_specs(cfg.covariates_json)
    layers, grids, categorical = _load_geo_inputs(cfg)
    matrix = cov.build_matrix(sites, specs, layers=layers, grids=grids,
                              categorical=categorical)
    return sites, matrix, specs, layers, grids, categorical


@main.command("covariates")
@click.pass_context
def covariates_cmd(ctx):
    """Extract the site-by-covariate matrix."""
    cfg = _load_config(ctx)
    _, matrix, *_ = _sites_and_matrix(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix.to_csv(out / "matrix.csv")
    click.echo(f"{matrix.n_sites} sites x {len(matrix.columns)} covariates "
               f"-> {out / 'matrix.csv'}")


@main.command("fit")
@click.pass_context
def fit_cmd(ctx):
    """Fit the configured model recipe on all sites."""
    cfg = _load_config(ctx)
    sites, matrix, *_ = _sites_and_matrix(cfg)
    fitted = fit_recipe(cfg.recipe, sites, matrix, seed=stage_seed(cfg.seed, "fit"))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(fitted.to_dict(), out / "model.json")
    click.echo(f"selected: {list(fitted.trend.selected)}")
    click.echo(f"adj_r2: {fitted.trend.adj_r2:.4f} -> {out / 'model.json'}")


@main.command("cv")
@click.option("--scheme", type=click.Choice(["kfold", "logo", "both"]), default="both")
@click.pass_context
def cv_cmd(ctx, scheme):
    """Cross-validate the configured recipe."""
    cfg = _load_config(ctx)
    sites, matrix, *_ = _sites_and_matrix(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    if scheme in ("kfold", "both"):
        plan = kfold_plan(sites.site_ids, cfg.cv_k, seed=stage_seed(cfg.seed, "cv-folds"))
        res = run_cv(cfg.recipe, sites, matrix, plan, seed=stage_seed(cfg.seed, "cv-kfold"))
        res.to_csv(out / "cv_kfold.csv")
        summary["kfold"] = res.summary()
    if scheme in ("logo", "both"):
        plan = logo_plan(sites, cfg.logo_group)
        res = run_cv(cfg.recipe, sites, matrix, plan, seed=stage_seed(cfg.seed, "cv-logo"))
        res.to_csv(out / "cv_logo.csv")
        summary["logo"] = res.summary()
    dump_json(summary, out / "cv_summary.json")
    for name, s in summary.items():
        click.echo(f"{name}: r2_mse={s['r2_mse']:.4f} rmse={s['rmse']:.4f}")


@main.command("montecarlo")
@click.option("--n-grid", default="20,40,80,160,320", show_default=True,
              help="Comma-separated training sizes.")
@click.option("--iterations", default=100, show_default=True)
@click.option("--include-cv", is_flag=True,
              help="Also run 10-fold and leave-one-group-out per iteration (slow).")
@click.pass_context
def montecarlo_cmd(ctx, n_grid, iterations, include_cv):
    """Monte Carlo training-size experiment."""
    cfg = _load_config(ctx)
    sites, matrix, *_ = _sites_and_matrix(cfg)
    ns = [int(v) for v in n_grid.split(",")]
    result = monte_carlo_curve(cfg.recipe, sites, matrix, ns, iterations,
                               seed=stage_seed(cfg.seed, "montecarlo"),
                               include_cv=include_cv, logo_group=cfg.logo_group)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result.to_csv(out / "montecarlo.csv")
    dump_json(result.summary(), out / "montecarlo_summary.json")
    click.echo(json.dumps(result.summary(), indent=2, sort_keys=True))


@main.command("predict")
@click.pass_context
def predict_cmd(ctx):
    """Gridded prediction for the configured lattice (via `run` stages)."""
    cfg = _load_config(ctx)
    report = run(cfg)
    click.echo(f"prediction: {cfg.out_dir}/prediction.asc "
               f"(floored {report.metrics.get('n_floored', 0)} cells)")


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
        surface = PredictionSurface(
            geodata.read_raster(out / "prediction.asc"), None, "", 0
        )
        grid = window_variance(surface, window_cells)
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
        sc = SyntheticScenario.from_dict(json.loads(Path(scenario).read_text()))
    else:
        sc = SyntheticScenario(covariate_set=preset)
    if ctx.obj.get("seed") is not None:
        sc = SyntheticScenario.from_dict({**sc.to_dict(), "seed": ctx.obj["seed"]})
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
