#!/usr/bin/env python3
"""lurk benchmark: two workloads, end-to-end metrics from untraced runs
and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload national --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
`src/`. Workloads (BENCHMARK.json says why each was chosen;
`layers.json` says which end-to-end metric each layer metric moves):

- national:   seed-5 national scenario (250 sites x 291 covariates x
              15,000 cells); cold `pipeline.run`s into empty directories,
              each followed by cached reruns. Set up three times.
- montecarlo: `monte_carlo_curve` on the 1,200-site national matrix, recipes
              stepwise+UK and PLS+UK at n = 150, 500, 1000. No geometry.
              Set up twice.

End-to-end metrics (`--trace 0`), each timing the median of the run's
samples: setup_s (scenario generation plus input writing), run_s (a cold
`pipeline.run`; on montecarlo one round of one iteration per recipe and
size), warm_s (the cached rerun; on montecarlo the same round repeated),
peak_rss_mb (the whole process), ok_ratio (1 - failed / attempted
operations: pipeline runs, CV folds, Monte Carlo iterations; a failed
output check is a failure), kfold_r2, logo_r2 and holdout_r2.

On a shared 2-vCPU Xeon VM the same code ran up to 1.9 times slower in
spells of seconds to minutes set by load outside the VM, so a run takes
many samples (set-ups spread over it), and its median; the fastest
sample, tried too, spread more from run to run. Sample counts and
ranges go in the `meta` line.

`--trace 1` gives the per-layer metrics instead. Both modes print a
`meta` line (machine, versions, BLAS threads, seed, sample counts, source
line count) before the result line and write it with the result, and the
traced run's spans, under `.perfbench_out/`.
"""

from __future__ import annotations

import os

# One BLAS thread, like the pipeline's own `threads=1` default: on a small
# shared machine a multi-threaded BLAS makes timings wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

# Agreement checks of the traced run, as a share of the whole.
KIND_SUM_BOUND = 0.15   # per-kind call times summed vs the whole call
STAGE_SUM_BOUND = 0.10  # stage spans summed vs the traced cold run

WORKLOADS = ("national", "montecarlo")
END_TO_END = {
    "setup_s": "s", "run_s": "s", "warm_s": "s", "peak_rss_mb": "MB", "ok_ratio": "1",
    "kfold_r2": "1", "logo_r2": "1", "holdout_r2": "1",
}
LAYER_SPANS = (
    "monitors.read_daily", "monitors.annualize", "geodata.read_features",
    "geodata.read_raster", "covariates.build_matrix", "covariates.rasterize",
    "lur.stepwise_select", "lur.pls_fit", "kriging.fit_exponential", "kriging.uk_fit",
    "kriging.empirical_variogram", "kriging.solve_setup", "kriging.predict_many",
    "recipes.fit_recipe", "evaluation.run_cv", "evaluation.monte_carlo",
    "exposure.predict_grid", "exposure.cumulative_exposure",
)
LAYER_COUNTS = {  # metric name -> tracer count
    "monitors.daily_records": "monitors.daily_records",
    "geodata.features": "geodata.features",
    "geodata.raster_cells": "geodata.raster_cells",
    "covariates.site_values": "covariates.site_values",
    "covariates.cell_values": "covariates.cell_values",
    "lur.stepwise_calls": "lur.stepwise_select_calls",
    "lur.selected_columns": "lur.selected_columns",
    "lur.pls_calls": "lur.pls_fit_calls",
    "kriging.uk_fit_calls": "kriging.uk_fit_calls",
    "kriging.predict_points": "kriging.predict_points",
    "recipes.fit_recipe_calls": "recipes.fit_recipe_calls",
    "evaluation.folds": "evaluation.folds",
    "evaluation.fold_failures": "evaluation.run_cv_errors",
    "evaluation.mc_iterations": "evaluation.mc_iterations",
    "evaluation.mc_skipped": "evaluation.mc_skipped",
    "exposure.cells_predicted": "exposure.cells_predicted",
    "exposure.n_floored": "exposure.n_floored",
}
MODULES = ("pipeline", "monitors", "geodata", "covariates", "lur", "kriging", "recipes",
           "evaluation", "exposure")


class Run:
    """What one benchmark run has measured and checked so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {"setup_s": [], "run_s": [], "warm_s": []}
        self.accuracy: dict[str, list[float]] = {"kfold_r2": [], "logo_r2": [],
                                                 "holdout_r2": []}
        self.meta: dict = {}

    def failure(self, where: str, errors: list[str], failed: int = 1) -> None:
        """Count `failed` failed operations if a check found errors."""
        if errors:
            self.failed += failed
            self.errors.extend(f"{where}: {e}" for e in errors)

    def crash(self, where: str) -> None:
        self.attempted += 1
        self.failure(where, [traceback.format_exc().strip().splitlines()[-1]])
        traceback.print_exc(file=sys.stderr)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# End-to-end runs (untraced)
# ---------------------------------------------------------------------------

def pipeline_op(run: Run, wl, label: str, config: Path, out: Path, expected,
                keep_accuracy: bool) -> None:
    """Cold run into an empty directory, cached reruns, holdout, checks."""
    try:
        run.attempted += 1
        run.samples["run_s"].append(wl.timed_run(config, out))
        for _ in range(wl.WARM_REPEATS):
            run.attempted += 1
            run.samples["warm_s"].append(wl.timed_run(config, out))
        observed = wl.observe_pipeline(out)
        observed["holdout_r2"], observed["mc_skipped"] = wl.holdout_r2(out)
    except Exception:
        run.crash(label)
        return
    run.attempted += observed["folds"] + 1
    run.failure(label, wl.check_pipeline(observed, expected))
    if keep_accuracy:
        for key in run.accuracy:
            run.accuracy[key].append(observed[key])


def alternate(run: Run, wl, workload: str, seconds: float, set_up, step):
    """Alternate the workload's set-ups with its operations: after set-up i
    of k, operations run until their summed time reaches (i + 1) / k of
    `seconds`, at least MIN_OPS and at most MAX_OPS of them in all. Spread
    over the run, the set-ups are not all timed in one slow spell of the
    host. Returns what the last set-up made."""
    setups, low, high = wl.SETUPS[workload], wl.MIN_OPS[workload], wl.MAX_OPS[workload]
    busy, op = 0.0, 0
    for i in range(setups):
        made = None  # not held while the next set-up runs
        t0 = time.perf_counter()
        made = set_up(i)
        run.samples["setup_s"].append(time.perf_counter() - t0)
        while op < high and (op < low * (i + 1) // setups or busy < seconds * (i + 1) / setups):
            t0 = time.perf_counter()
            step(made, op)
            busy += time.perf_counter() - t0
            op += 1
    return made


def national(run: Run, wl, seed: int, seconds: float, work: Path) -> None:
    expected = wl.expected(wl.load_reference(), "national", seed)

    def set_up(i):
        return wl.write_inputs(wl.generate(wl.NATIONAL), work / f"inputs{i}",
                               wl.pipeline_seed(seed))

    def operation(config, i):
        pipeline_op(run, wl, f"op{i}", config, work / f"run{i}", expected,
                    i < wl.MIN_OPS["national"])
        wl.remove(work / f"run{i}")

    alternate(run, wl, "national", seconds, set_up, operation)


def montecarlo(run: Run, wl, seed: int, seconds: float, work: Path) -> None:
    reference = wl.load_reference()

    def set_up(i):
        data = wl.generate(wl.MONTECARLO)
        return data.sites, data.matrix

    def mc_round(data, r):
        mc_seed = wl.pipeline_seed(seed, r)
        try:
            t0 = time.perf_counter()
            observed = wl.mc_round(*data, mc_seed)
            run.samples["run_s"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()  # the same round again, the process warm
            again = wl.mc_round(*data, mc_seed)
            run.samples["warm_s"].append(time.perf_counter() - t0)
            run.attempted += again["iterations"]
            errors = wl.check_mc_round(again, observed["holdout_r2"])
            run.failure(f"round{r} repeat", errors, max(1, again["skipped"]))
        except Exception:
            run.crash(f"round{r}")
            return
        run.attempted += observed["iterations"]
        run.failure(f"round{r}", wl.check_mc_round(
            observed, wl.expected(reference, "montecarlo", seed, r)), max(1, observed["skipped"]))
        if r < wl.MIN_OPS["montecarlo"]:
            largest = str(wl.MC_SIZES[-1])
            run.accuracy["holdout_r2"].extend(
                by_n[largest] for by_n in observed["holdout_r2"].values() if largest in by_n)

    sites, matrix = alternate(run, wl, "montecarlo", seconds, set_up, mc_round)
    try:
        run.attempted += 1
        observed = wl.mc_cv(sites, matrix)
    except Exception:
        run.crash("cv")
        return
    run.failure("cv", wl.check_mc_cv(observed, reference.get("montecarlo", {}).get("cv")))
    for key in ("kfold_r2", "logo_r2"):
        if observed[key] is not None:
            run.accuracy[key].append(observed[key])


def end_to_end_metrics(run: Run) -> dict:
    out = {key: median(values) for key, values in run.samples.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ok_ratio"] = 1.0 - run.failed / max(run.attempted, 1)
    for key, values in run.accuracy.items():
        out[key] = median(values)
    run.meta["samples"] = {key: len(values) for key, values in run.samples.items()}
    run.meta["sample_ranges"] = {key: [min(values), max(values)]
                                 for key, values in run.samples.items() if values}
    return out


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def traced(run: Run, wl, tracing, workload: str, seed: int, work: Path) -> dict:
    """Pairs of untraced and traced executions of the workload's first
    operation; per-layer metrics come from the first traced one, the
    tracing overhead from the medians of each kind."""
    tracers = {phase: tracing.Tracer() for phase in ("setup", "cold", "warm", "per_kind")}
    body = traced_montecarlo if workload == "montecarlo" else traced_pipeline
    untraced, traced_s, extra = body(run, wl, tracing, tracers, workload, seed, work)
    extra.update({"trace.untraced_run_s": untraced, "trace.traced_run_s": traced_s,
                  "trace.overhead_s": traced_s - untraced})
    spans_path = OUT / f"{workload}-seed{seed}-spans.jsonl"
    tracing.write_spans(spans_path, tracers)
    run.meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return layer_metrics(wl, tracers, extra)


def traced_montecarlo(run: Run, wl, tracing, tracers, workload, seed, work):
    data = wl.generate(wl.MONTECARLO, tracers["setup"])
    sites, matrix = data.sites, data.matrix
    del data
    seed0 = wl.pipeline_seed(seed, 0)
    untraced, traced_s = [], []
    for i in range(wl.TRACE_PAIRS[workload]):
        t0 = time.perf_counter()
        wl.mc_round(sites, matrix, seed0)
        untraced.append(time.perf_counter() - t0)
        tracer = tracers["cold"] if i == 0 else tracing.Tracer()
        ins = tracing.instrument(tracer)
        try:
            t0 = time.perf_counter()
            got = wl.mc_round(sites, matrix, seed0)
            traced_s.append(time.perf_counter() - t0)
            if i == 0:
                observed, cv = got, wl.mc_cv(sites, matrix)
        finally:
            ins.restore()
    reference = wl.load_reference()
    run.attempted += observed["iterations"] + 1
    run.failure("round0", wl.check_mc_round(observed, wl.expected(reference, workload, seed)),
                max(1, observed["skipped"]))
    run.failure("cv", wl.check_mc_cv(cv, reference.get("montecarlo", {}).get("cv")))
    return median(untraced), median(traced_s), {}


def traced_pipeline(run: Run, wl, tracing, tracers, workload, seed, work):
    cold = tracers["cold"]
    expected = wl.expected(wl.load_reference(), workload, seed)
    data = wl.generate(wl.NATIONAL, tracers["setup"])
    config = wl.write_inputs(data, work / "inputs", wl.pipeline_seed(seed), tracers["setup"])
    del data
    untraced, traced_s = [], []
    out = work / "traced0"
    extra = {}
    for i in range(wl.TRACE_PAIRS[workload]):
        untraced.append(wl.timed_run(config, work / f"plain{i}"))
        tracer = cold if i == 0 else tracing.Tracer()
        ins = tracing.instrument(tracer)
        try:
            traced_s.append(wl.timed_run(config, work / f"traced{i}", tracer))
            if i == 0:
                extra["pipeline.written_mb"] = wl.dir_mb(out)
                holdout, skipped = wl.holdout_r2(out)
        finally:
            ins.restore()
    ins = tracing.instrument(tracers["warm"])
    try:
        wl.timed_run(config, out, tracers["warm"])
    finally:
        ins.restore()
    observed = wl.observe_pipeline(out)
    observed["holdout_r2"], observed["mc_skipped"] = holdout, skipped
    run.attempted += 3 + observed["folds"]
    run.failure("traced run", wl.check_pipeline(observed, expected))
    extra.update(kind_timings(wl, config, out, cold, tracers["per_kind"], run))
    stages = sum(cold.total(f"pipeline.stage.{s}") for s in wl.STAGES)
    ratio = extra["check.stage_sum_ratio"] = stages / cold.total("pipeline.run")
    if abs(ratio - 1.0) > STAGE_SUM_BOUND:
        run.failure("agreement", [f"stage sum / run_s = {ratio:.3f}"])
    return median(untraced), median(traced_s), extra


def kind_timings(wl, config: Path, out: Path, cold, kinds, run: Run) -> dict:
    """Per-kind call times (medians over repeats) and their agreement with
    a whole call on the same specs: the median over repeat rounds of the
    round's per-kind sum over its whole call, so that a slow spell of the
    host between rounds cancels. Calls that took under a second in the
    pipeline are repeated nine times, longer ones five times."""
    repeats = {call: 5 if cold.total(f"covariates.{call}") >= 1.0 else 9
               for call in ("build_matrix", "rasterize")}
    wl.per_kind_calls(config, out, kinds, repeats)
    out_metrics = {}
    for call in repeats:
        parts = [0.0] * repeats[call]
        for kind in wl.KINDS:
            durations = kinds.durations(f"covariates.{call}.{kind}")
            out_metrics[f"covariates.{call}.{kind}_s"] = median(durations)
            for r, d in enumerate(durations):  # empty for a kind with no specs
                parts[r] += d
        wholes = kinds.durations(f"covariates.{call}.all")
        ratio = median([p / w for p, w in zip(parts, wholes)]) if wholes else 0.0
        whole = median(wholes)
        out_metrics[f"check.{call}_kind_sum_ratio"] = ratio
        if whole > 0 and abs(ratio - 1.0) > KIND_SUM_BOUND:
            run.failure("agreement", [f"{call} per-kind sum / whole = {ratio:.3f}"])
    return out_metrics


def layer_metrics(wl, tracers: dict, extra: dict) -> dict:
    setup, cold, warm = tracers["setup"], tracers["cold"], tracers["warm"]
    out = {f"pipeline.stage.{s}_s": cold.total(f"pipeline.stage.{s}") for s in wl.STAGES}
    out["pipeline.cache_hit_ratio"] = (warm.counts["pipeline.stages_cached"]
                                       / max(warm.counts["pipeline.stages"], 1.0))
    out["pipeline.hashed_mb"] = warm.counts["pipeline.hashed_bytes"] / 1e6
    out["pipeline.written_mb"] = 0.0
    for name in LAYER_SPANS:
        out[f"{name}_s"] = cold.total(name)
    for metric, count in LAYER_COUNTS.items():
        out[metric] = cold.counts[count]
    out["synth.generate_s"] = setup.total("synth.generate")
    out["synth.write_s"] = setup.total("synth.write")
    self_times = cold.self_times()
    for module in MODULES:
        out[f"self.{module}_s"] = self_times.get(module, 0.0)
    out["trace.spans"] = float(len(cold.spans) + len(warm.spans))
    for call in ("build_matrix", "rasterize"):  # zero on montecarlo: no geometry
        out.update({f"covariates.{call}.{kind}_s": 0.0 for kind in wl.KINDS})
        out[f"check.{call}_kind_sum_ratio"] = 0.0
    out["check.stage_sum_ratio"] = 0.0
    out.update(extra)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "1"
    return "count"


# ---------------------------------------------------------------------------

def metadata(seed: int, workload: str, trace: int, seconds: float) -> dict:
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas[Path(path).name] = fn()
                break
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "lurk").glob("*.py")))
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas or {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "src_lurk_lines": src_lines,
        "kind_sum_bound": KIND_SUM_BOUND, "stage_sum_bound": STAGE_SUM_BOUND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lurk" / "pipeline.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'lurk'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads as wl

    run = Run()
    run.meta = metadata(args.seed, args.workload, args.trace, args.seconds)
    run.meta["variant"] = wl.variant_of(args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            values = traced(run, wl, tracing, args.workload, args.seed, work)
        else:
            body = {"national": national, "montecarlo": montecarlo}
            body[args.workload](run, wl, args.seed, args.seconds, work)
            values = end_to_end_metrics(run)
    finally:
        wl.remove(work)
    if args.trace:
        metrics = {k: {"value": float(v), "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    run.meta["errors"] = run.errors
    for error in run.errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": run.meta, "result": result}, indent=2, sort_keys=True) + "\n")
    print("meta " + json.dumps(run.meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
