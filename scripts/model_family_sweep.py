#!/usr/bin/env python3
"""Sweep the model family grid on one synthetic dataset.

Runs stepwise and PLS trend stages, each with and without the regional
satellite-analog covariate and with and without universal kriging, then
prints the comparison table (10-fold and leave-one-province-out R2/RMSE).
The scenario is written once and every recipe runs through one config and
one output directory, so the annualize and covariates stages run for the
first recipe only and are cached for the rest. Each recipe's run report is
kept as `<outdir>/report_<i>_<label>.json`.

Usage: python scripts/model_family_sweep.py [outdir] [--seed N]
"""

import argparse
from pathlib import Path

from lurk.pipeline import (
    PipelineConfig,
    compare_models,
    comparison_to_csv,
    format_comparison,
    run,
)
from lurk._util import dump_json, plain
from lurk.recipes import ModelRecipe
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario

FAMILIES = [
    {"selection": "stepwise", "kriging": False, "exclude": ["satellite"]},
    {"selection": "stepwise", "kriging": False},
    {"selection": "stepwise", "kriging": True, "exclude": ["satellite"]},
    {"selection": "stepwise", "kriging": True},
    {"selection": "pls", "kriging": False},
    {"selection": "pls", "kriging": True},
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="family_sweep")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    scenario = SyntheticScenario(
        seed=args.seed,
        n_sites=240,
        n_clusters=14,
        cluster_sd_m=10_000.0,
        trend=(("elevation", 3.0), ("poi_gas_n_10000m", 3.0), ("satellite", 6.0)),
        grf_partial_sill=20.0,
        grf_range_m=120_000.0,
        noise_sd=2.0,
    )
    outdir = Path(args.outdir)
    cfg = PipelineConfig.from_json(write_scenario(generate_synthetic(scenario), outdir))
    reports = []
    for i, recipe in enumerate(FAMILIES):
        cfg.recipe = ModelRecipe.from_dict(recipe)
        report = plain(run(cfg))
        reports.append(report)
        path = outdir / f"report_{i}_{cfg.recipe.label()}.json"
        dump_json(report, path)
        print(f"done: {cfg.recipe.label()} -> {path}")
    rows = compare_models(reports)
    print()
    print(format_comparison(rows))
    out_csv = outdir / "comparison.csv"
    comparison_to_csv(rows, out_csv)
    print(f"\nwrote {out_csv}")


if __name__ == "__main__":
    main()
