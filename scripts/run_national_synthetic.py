#!/usr/bin/env python3
"""Generate a national-scale synthetic scenario and run the full pipeline.

Produces 1,500 clustered monitors, ~290 covariates, and a 100k-cell
prediction lattice, then executes annualize -> covariates -> fit -> CV ->
predict -> exposure, printing the time and peak RSS (the process's and
its children's) after generation, writing and the pipeline, each stage's
time (`elapsed_s` in the report), the times of three cached reruns, then
the headline metrics. The first
rerun starts right after the cold run (as perfbench's `warm_s` times it),
so it hashes every file the cold run wrote or hashed within the memo's
window of the file's last change (20 ms for a stamp finer than a
millisecond, 2 s for a whole-millisecond one). The other two wait out the
longest window, `pipeline.RACY_WINDOW_NS`: the first re-hashes the files
last hashed within the window of their last change, the second reads no
unchanged file.

Usage: python scripts/run_national_synthetic.py [outdir] [--seed N]
"""

import argparse
import json
import resource
import time
from pathlib import Path

from lurk.pipeline import RACY_WINDOW_NS, PipelineConfig, run
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario


def peak_rss() -> str:
    """The peak resident set size so far (`ru_maxrss`, KiB on Linux) of the
    process and of its largest reaped child: the scenario's evaluations
    and writers and the pipeline's geo-input parsers run in forked
    workers, whose memory the process's own peak does not show."""
    own, children = (resource.getrusage(who).ru_maxrss / 1024
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return f"peak RSS {own:.0f} MB (children {children:.0f} MB)"


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
    for name, entry in report.stages.items():
        print(f"  {name:<10} {entry['elapsed_s']:.3f}s")

    def rerun(what):
        t0 = time.perf_counter()
        run(PipelineConfig.from_json(config_path))
        print(f"cached rerun finished in {time.perf_counter() - t0:.3f}s ({what})")

    window = RACY_WINDOW_NS / 1e9
    rerun("right after the cold run: hashes again what the cold run wrote or "
          "hashed within a file's window")
    time.sleep(window)
    print(f"waited {window:g}s (pipeline.RACY_WINDOW_NS, the longest window)")
    rerun("re-hashes the files last hashed within their window of their last change")
    rerun("reads no unchanged file")
    print(json.dumps(report.metrics, indent=2, sort_keys=True))
    print(f"artifacts: {Path(args.outdir) / 'run'}")


if __name__ == "__main__":
    main()
