#!/usr/bin/env python3
"""Write `BENCH_<label>.json`: the cost of making the inputs, cold, rerun and
warm pipeline wall times, stage and layer times, CPU, memory and page faults
of the parent and of its forked workers, on the perfbench national scenario
and the full-scale scenario (`FULL_SCALE`).

Per scenario, a fresh process generates the inputs into `--work` and writes
them, recording the seconds of each step and `usage()` after it. Each
measured run is then a fresh process (so its peak RSS is its own) that makes
one cold `pipeline.run` into an empty directory, the cached rerun right after
it (`rerun_s`: it hashes again each file the cold run wrote or hashed within
the file's hash-memo window of its last change), waits out the longest
window (`pipeline.RACY_WINDOW_NS`) and makes the cached rerun `warm_s`, then
one traced cold run into another empty directory, whose spans and counts come
from perfbench's tracer (`perfbench/tracer.py`, imported as it is). Stage
times and headline metrics come from the untraced cold run's report, and
`resource.getrusage` gives the CPU seconds, peak RSS and minor page faults of
the process and of its reaped children (the geo-input and CV-fold workers)
over it. The file also holds each scenario's median of every number, the
core count, the `src/lurk` line count, the git revision, and the Python,
numpy, scipy and OpenBLAS builds. `table(paths)` renders the README's table
of BENCH files; `tests/test_readme.py` prints it when the README differs.

The package measured is the one on PYTHONPATH, so one script times any
checkout:

    PYTHONPATH=src python scripts/bench.py --label after [--runs 3]
    PYTHONPATH=/path/to/other/checkout/src python scripts/bench.py --label before
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import lurk
from lurk.pipeline import RACY_WINDOW_NS, PipelineConfig, run
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario
from lurk._util import dump_json

CHECKOUT = Path(lurk.__file__).resolve().parents[2]  # the measured package's checkout
sys.path[:0] = [str(CHECKOUT / d) for d in ("perfbench", "tests")]

SCENARIOS = ("national", "full")
# The acceptance-criterion-12 national scenario.
FULL_SCALE = dict(
    seed=5, covariate_set="full", n_sites=1500, n_clusters=45,
    extent_x=3_200_000.0, extent_y=2_000_000.0, cluster_sd_m=15_000.0,
    n_provinces_x=4, n_provinces_y=4, grf_partial_sill=40.0, grf_range_m=150_000.0,
    noise_sd=2.0, prediction_cols=400, prediction_rows=250,
)
# The README table's columns of a scenario's medians: key path, then format.
TABLE = {"cold_s": ".3f", "rerun_s": ".4f", "warm_s": ".4f",
         "rusage.parent.peak_rss_mb": ".1f", "rusage.children.peak_rss_mb": ".1f"}


def scenario_params(name: str) -> dict:
    import workloads  # perfbench's, whose national scenario this is

    return {"national": workloads.NATIONAL, "full": FULL_SCALE}[name]


def usage() -> dict:
    """CPU seconds, peak RSS (MB) and minor page faults of this process and
    of its reaped children so far."""
    out = {}
    for who, key in ((resource.RUSAGE_SELF, "parent"), (resource.RUSAGE_CHILDREN, "children")):
        r = resource.getrusage(who)
        out[key] = {"cpu_s": r.ru_utime + r.ru_stime, "peak_rss_mb": r.ru_maxrss / 1024,
                    "minor_faults": r.ru_minflt}
    return out


def write_inputs(name: str, work: Path) -> dict:
    """Generate scenario `name` and write its inputs into `work / "inputs"`,
    in this process: the seconds of each step and `usage()` after it."""
    t0 = time.perf_counter()
    data = generate_synthetic(SyntheticScenario(**scenario_params(name)))
    out = {"generate_s": time.perf_counter() - t0, "after_generate": usage()}
    t0 = time.perf_counter()
    write_scenario(data, work / "inputs")
    return {**out, "write_s": time.perf_counter() - t0, "after_write": usage()}


def measure(config_path: Path, work: Path) -> dict:
    """One measured run (see the module docstring), in this process."""
    from tracer import Tracer, instrument

    cfg = PipelineConfig.from_json(config_path)
    cfg.out_dir = work / "cold"
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    before = usage()
    t0 = time.perf_counter()
    report = run(cfg)
    cold = time.perf_counter() - t0
    after = usage()
    t0 = time.perf_counter()
    run(cfg)
    rerun = time.perf_counter() - t0
    time.sleep(RACY_WINDOW_NS / 1e9)
    logged = (cfg.out_dir / "run.log").read_text()
    t0 = time.perf_counter()
    run(cfg)
    warm = time.perf_counter() - t0
    warm_log = (cfg.out_dir / "run.log").read_text()[len(logged):].split()
    cfg.out_dir = work / "traced"
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    tracer = Tracer()
    ins = instrument(tracer)
    try:
        with tracer.span("pipeline.run"):
            run(cfg)
    finally:
        ins.restore()
    return {
        "cold_s": cold, "rerun_s": rerun, "warm_s": warm, "status": report.status,
        "warm_cached": sorted(w[len("stage="):] for w, status in zip(warm_log, warm_log[1:])
                              if w.startswith("stage=") and status == "status=cached"),
        "stages_s": {s: e["elapsed_s"] for s, e in report.stages.items()},
        "layers_s": {f"{name}_s": tracer.total(name)
                     for name in sorted({span[1] for span in tracer.spans})},
        "counts": dict(sorted(tracer.counts.items())),
        "rusage": {who: {k: after[who][k] - before[who][k] if k != "peak_rss_mb"
                         else after[who][k] for k in after[who]} for who in after},
        "metrics": report.metrics,
    }


def medians(runs: list[dict]) -> dict:
    """The median of every number in the runs, nested as they are. A number
    missing from a run counts as 0: a span or a count the run did not
    record (the busy parent's share of the geo parse varies by run)."""
    out = {}
    for key in dict.fromkeys(key for r in runs for key in r):
        present = [r[key] for r in runs if key in r]
        if all(isinstance(value, dict) for value in present):
            out[key] = medians([r.get(key, {}) for r in runs])
        elif all(isinstance(value, (int, float)) and not isinstance(value, bool)
                 for value in present):
            out[key] = statistics.median(r.get(key, 0) for r in runs)
    return out


def table(paths) -> str:
    """A markdown table with one row per BENCH file of `paths` and scenario:
    its label, revision, `src_lurk_lines` and runs, and its `TABLE` medians
    ("-" for a number an older file does not hold)."""
    lines = ["| label | revision | src_lurk_lines | scenario | runs | " + " | ".join(TABLE)
             + " |", "|" + " --- |" * (5 + len(TABLE))]
    for path in paths:
        bench = json.loads(Path(path).read_text())
        for name, scenario in bench["scenarios"].items():
            cells = [bench["label"], bench["machine"]["revision"],
                     str(bench["machine"]["src_lurk_lines"]), name, str(len(scenario["runs"]))]
            for key, spec in TABLE.items():
                value = functools.reduce(lambda d, k: d.get(k, {}), key.split("."),
                                         scenario["median"])
                cells.append("-" if value == {} else format(value, spec))
            lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def git_revision() -> str:
    try:
        return subprocess.run(["git", "-C", str(CHECKOUT), "describe", "--always", "--dirty",
                               "--abbrev=12"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine() -> dict:
    from record_golden import environment  # Python, numpy, scipy, OpenBLAS builds

    src = Path(lurk.__file__).parent
    return {"cores": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "processor": platform.processor(), "revision": git_revision(),
            "src_lurk_lines": sum(len(p.read_text().splitlines()) for p in src.glob("*.py")),
            **environment()}


def child(args, name: str, step: str) -> dict:
    """`step` ("inputs" or "run") of scenario `name`, in a fresh process."""
    done = subprocess.run([sys.executable, __file__, "--label", args.label, "--scenarios", name,
                           "--work", str(args.work / name), "--child", step],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--runs", type=int, default=3, help="measured runs per scenario")
    ap.add_argument("--scenarios", default=",".join(SCENARIOS))
    ap.add_argument("--work", type=Path, default=Path(".bench_work"))
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--child", choices=("inputs", "run"), help=argparse.SUPPRESS)  # one, here
    args = ap.parse_args()
    if args.child is not None:
        print(json.dumps(write_inputs(args.scenarios, args.work) if args.child == "inputs"
                         else measure(args.work / "inputs" / "config.json", args.work)))
        return
    result = {"label": args.label, "machine": machine(), "scenarios": {}}
    for name in args.scenarios.split(","):
        inputs = child(args, name, "inputs")
        print(f"{name}: generated in {inputs['generate_s']:.2f}s, "
              f"written in {inputs['write_s']:.2f}s", flush=True)
        runs = []
        for i in range(args.runs):
            runs.append(child(args, name, "run"))
            print(f"{name} run {i + 1}: cold {runs[-1]['cold_s']:.3f}s, "
                  f"rerun {runs[-1]['rerun_s']:.4f}s, warm {runs[-1]['warm_s']:.4f}s",
                  flush=True)
        result["scenarios"][name] = {"params": scenario_params(name), "inputs": inputs,
                                     "median": medians(runs), "runs": runs}
    out = args.out or Path(f"BENCH_{args.label}.json")
    dump_json(result, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
