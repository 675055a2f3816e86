#!/usr/bin/env python3
"""Generate a national-scale synthetic scenario and run the full pipeline.

Produces 1,500 clustered monitors, ~290 covariates, and a 100k-cell
prediction lattice, then executes annualize -> covariates -> fit -> CV ->
predict -> exposure, printing the time and peak RSS after generation,
writing and the pipeline, then the headline metrics.

Usage: python scripts/run_national_synthetic.py [outdir] [--seed N]
"""

import os

# One BLAS thread: on small machines a multi-threaded OpenBLAS makes the
# stepwise and kriging solves several times slower. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from lurk.pipeline import PipelineConfig, run  # noqa: E402
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario  # noqa: E402


def peak_rss() -> str:
    """The process's peak resident set size so far (`ru_maxrss`, KiB on Linux)."""
    return f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="national_synth")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    scenario = SyntheticScenario(
        seed=args.seed,
        covariate_set="full",
        n_sites=1500,
        n_clusters=45,
        extent_x=3_200_000.0,
        extent_y=2_000_000.0,
        cluster_sd_m=15_000.0,
        n_provinces_x=4,
        n_provinces_y=4,
        grf_partial_sill=40.0,
        grf_range_m=150_000.0,
        noise_sd=2.0,
        prediction_cols=400,
        prediction_rows=250,
    )
    t0 = time.perf_counter()
    data = generate_synthetic(scenario)
    print(f"generated {len(data.sites)} sites x {len(data.matrix.columns)} covariates "
          f"in {time.perf_counter() - t0:.2f}s, {peak_rss()}")

    t0 = time.perf_counter()
    config_path = write_scenario(data, Path(args.outdir))
    print(f"wrote inputs to {args.outdir} in {time.perf_counter() - t0:.2f}s, {peak_rss()}")

    del data  # the pipeline reads the written inputs; holding the scenario too adds ~90 MB
    t0 = time.perf_counter()
    report = run(PipelineConfig.from_json(config_path))
    print(f"pipeline finished in {time.perf_counter() - t0:.2f}s, {peak_rss()}")
    print(json.dumps(report.metrics, indent=2, sort_keys=True))
    print(f"artifacts: {Path(args.outdir) / 'run'}")


if __name__ == "__main__":
    main()
