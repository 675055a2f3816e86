#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [national] [montecarlo]

Runs every operation of every variant once, untimed, and rewrites the
named workloads' entries of `perfbench/reference.json`. Rerun it only when
a change to the program is meant to change these outputs, and say so in
the change.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

PIPELINE_KEYS = ("selected", "kfold_r2", "logo_r2", "pop_weighted_mean", "holdout_r2")


def pipeline_outputs(config: Path, out: Path) -> dict:
    wl.timed_run(config, out)
    wl.timed_run(config, out)  # the cached rerun the check expects
    observed = wl.observe_pipeline(out)
    observed["holdout_r2"], observed["mc_skipped"] = wl.holdout_r2(out)
    errors = wl.check_pipeline(observed, {k: observed[k] for k in PIPELINE_KEYS})
    if errors:
        raise SystemExit(f"{out}: {errors}")
    return {k: observed[k] for k in PIPELINE_KEYS}


def record_national(work: Path) -> dict:
    data = wl.generate(wl.NATIONAL)
    out = {}
    for v in range(wl.VARIANTS):
        config = wl.write_inputs(data, work / f"v{v}", wl.pipeline_seed(v))
        out[str(v)] = pipeline_outputs(config, work / f"v{v}" / "run")
        wl.remove(work / f"v{v}")
        print(f"national variant {v}: {out[str(v)]}", flush=True)
    return out


def record_montecarlo(work: Path) -> dict:
    data = wl.generate(wl.MONTECARLO)
    rounds = {}
    for v in range(wl.VARIANTS):
        rounds[str(v)] = []
        for r in range(wl.MAX_OPS["montecarlo"]):
            observed = wl.mc_round(data.sites, data.matrix, wl.pipeline_seed(v, r))
            if observed["skipped"]:
                raise SystemExit(f"variant {v} round {r}: skipped iterations")
            rounds[str(v)].append(observed["holdout_r2"])
        print(f"montecarlo variant {v}: {rounds[str(v)][0]}", flush=True)
    cv = wl.mc_cv(data.sites, data.matrix)
    if cv["skipped"] or cv["logo_r2"] is None:
        raise SystemExit(f"cross-validated iteration failed: {cv}")
    return {"rounds": rounds, "cv": {"kfold_r2": cv["kfold_r2"], "logo_r2": cv["logo_r2"]}}


def main(argv: list[str]) -> int:
    recorders = {"national": record_national, "montecarlo": record_montecarlo}
    names = argv or list(recorders)
    unknown = set(names) - set(recorders)
    if unknown:
        print(f"unknown workload(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        recorded = {name: recorders[name](work / name) for name in names}
    finally:
        wl.remove(work)
    reference = wl.load_reference()
    reference.update(recorded)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
