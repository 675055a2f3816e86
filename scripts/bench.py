#!/usr/bin/env python3
"""Write `BENCH_<label>.json`: cold and warm pipeline wall times, stage and
layer times, CPU, memory and page faults of the parent and of its forked
workers, on the perfbench national scenario and the full-scale scenario.

Each measured run is a fresh process (so its peak RSS is its own) that makes
one cold `pipeline.run` into an empty directory, then waits out the longest
hash-memo window (`pipeline.RACY_WINDOW_NS`) and makes the cached rerun
(`warm_s`), then one traced cold run into another empty directory, whose
spans and counts come from perfbench's tracer (`perfbench/tracer.py`,
imported as it is). Stage times are the `elapsed_s` of the untraced cold
run's `report.json`. `resource.getrusage` gives the CPU seconds, peak RSS
and minor page faults of the process and of its reaped children (the
geo-input and CV-fold workers) over the untraced cold run. The file also
holds each scenario's median of every number, the core count, the
`src/lurk` line count, the git revision, and the Python, numpy, scipy and
OpenBLAS builds.

The package measured is the one on PYTHONPATH, so one script times any
checkout; inputs are generated into `--work` once per scenario and kept:

    PYTHONPATH=src python scripts/bench.py --label after [--runs 3]
    PYTHONPATH=/path/to/other/checkout/src python scripts/bench.py --label before
"""

from __future__ import annotations

import argparse
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
sys.path[:0] = [str(Path(__file__).resolve().parent),  # for FULL_SCALE
                *(str(CHECKOUT / d) for d in ("perfbench", "tests"))]
from run_national_synthetic import FULL_SCALE  # noqa: E402

SCENARIOS = ("national", "full")


def scenario_params(name: str) -> dict:
    if name == "full":
        return FULL_SCALE
    import workloads  # perfbench's, whose national scenario this is

    return workloads.NATIONAL


def usage() -> dict:
    """CPU seconds, peak RSS (MB) and minor page faults of this process and
    of its reaped children so far."""
    out = {}
    for who, key in ((resource.RUSAGE_SELF, "parent"), (resource.RUSAGE_CHILDREN, "children")):
        r = resource.getrusage(who)
        out[key] = {"cpu_s": r.ru_utime + r.ru_stime, "peak_rss_mb": r.ru_maxrss / 1024,
                    "minor_faults": r.ru_minflt}
    return out


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
    layers = {}
    for name in sorted({span[1] for span in tracer.spans}):
        layers[f"{name}_s"] = tracer.total(name)
    return {
        "cold_s": cold, "warm_s": warm, "status": report.status,
        "warm_cached": sorted(w[len("stage="):] for w, status in zip(warm_log, warm_log[1:])
                              if w.startswith("stage=") and status == "status=cached"),
        "stages_s": {s: e["elapsed_s"] for s, e in report.stages.items()},
        "layers_s": layers, "counts": dict(sorted(tracer.counts.items())),
        "rusage": {who: {k: after[who][k] - before[who][k] if k != "peak_rss_mb"
                         else after[who][k] for k in after[who]} for who in after},
        "metrics": {k: report.metrics.get(k) for k in ("kfold_r2", "logo_r2",
                                                       "pop_weighted_mean")},
    }


def medians(runs: list[dict]) -> dict:
    """The median of every number the runs share, nested as they are."""
    out = {}
    for key, value in runs[0].items():
        if isinstance(value, dict):
            out[key] = medians([r[key] for r in runs])
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = statistics.median(r[key] for r in runs)
    return out


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


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    ap.add_argument("--runs", type=int, default=3, help="measured runs per scenario")
    ap.add_argument("--scenarios", default=",".join(SCENARIOS))
    ap.add_argument("--work", type=Path, default=Path(".bench_work"))
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)  # a config: one run, here
    args = ap.parse_args()
    if args.measure is not None:
        print(json.dumps(measure(args.measure, args.work)))
        return
    result = {"label": args.label, "machine": machine(), "scenarios": {}}
    for name in args.scenarios.split(","):
        base = args.work / name
        config_path = base / "inputs" / "config.json"
        if not config_path.exists():
            t0 = time.perf_counter()
            write_scenario(generate_synthetic(SyntheticScenario(**scenario_params(name))),
                           base / "inputs")
            print(f"{name}: inputs written in {time.perf_counter() - t0:.1f}s", flush=True)
        runs = []
        for i in range(args.runs):
            done = subprocess.run([sys.executable, __file__, "--label", args.label,
                                   "--work", str(base), "--measure", str(config_path)],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
            print(f"{name} run {i + 1}: cold {runs[-1]['cold_s']:.3f}s, "
                  f"warm {runs[-1]['warm_s']:.4f}s", flush=True)
        result["scenarios"][name] = {"params": scenario_params(name), "median": medians(runs),
                                     "runs": runs}
    out = args.out or Path(f"BENCH_{args.label}.json")
    dump_json(result, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
