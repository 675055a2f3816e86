"""The benchmark's output checks catch broken outputs.

    python3 -m pytest perfbench/test_checks.py -q

Runs one national pipeline operation exactly as the benchmark does,
checks it against the recorded reference, then breaks one output at a
time and expects the check to fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3  # any seed; it selects variant 3


@pytest.fixture(scope="module")
def national_op(tmp_path_factory):
    """Config and run directory of an op of the national workload, run
    cold and then cached, as `run.py` does."""
    base = tmp_path_factory.mktemp("national")
    data = wl.generate(wl.NATIONAL)
    config = wl.write_inputs(data, base / "op0", wl.pipeline_seed(SEED))
    out = base / "op0" / "run"
    wl.timed_run(config, out)
    wl.timed_run(config, out)
    return config, out


def observe(out: Path) -> dict:
    observed = wl.observe_pipeline(out)
    observed["holdout_r2"], observed["mc_skipped"] = wl.holdout_r2(out)
    return observed


def reference(seed: int = SEED):
    return wl.expected(wl.load_reference(), "national", seed)


def test_unbroken_outputs_pass(national_op):
    _, out = national_op
    assert reference() is not None
    assert wl.check_pipeline(observe(out), reference()) == []


def test_broken_report_metric_fails(national_op, tmp_path):
    _, out = national_op
    report = json.loads((out / "report.json").read_text())
    report["metrics"]["kfold_r2"] += 1e-3
    (out / "report.json").write_text(json.dumps(report))
    try:
        errors = wl.check_pipeline(observe(out), reference())
    finally:
        report["metrics"]["kfold_r2"] -= 1e-3
        (out / "report.json").write_text(json.dumps(report))
    assert any(e.startswith("kfold_r2") for e in errors), errors


def test_broken_selection_and_status_fail(national_op):
    _, out = national_op
    observed = observe(out)
    observed["selected"] = observed["selected"][:-1]
    observed["status"] = "failed"
    errors = wl.check_pipeline(observed, reference())
    assert any(e.startswith("selected") for e in errors), errors
    assert any(e.startswith("report status") for e in errors), errors


def test_tampered_artifact_breaks_warm_cache_check(national_op):
    config, out = national_op
    matrix = out / "matrix.csv"
    matrix.write_text(matrix.read_text() + "\n")  # hash no longer matches the manifest
    wl.timed_run(config, out)  # recomputes covariates and everything downstream
    errors = wl.check_pipeline(observe(out), reference())
    assert any("from cache" in e for e in errors), errors
    wl.timed_run(config, out)  # cached again
    assert wl.check_pipeline(observe(out), reference()) == []


def test_other_variant_reference_fails(national_op):
    _, out = national_op
    errors = wl.check_pipeline(observe(out), reference(seed=SEED + 1))
    assert errors


def test_montecarlo_checks():
    ref = wl.expected(wl.load_reference(), "montecarlo", SEED, 0)
    assert ref is not None
    good = {"holdout_r2": json.loads(json.dumps(ref)), "skipped": 0}
    assert wl.check_mc_round(good, ref) == []
    skipped = dict(good, skipped=1)
    assert any("skipped" in e for e in wl.check_mc_round(skipped, ref))
    broken = json.loads(json.dumps(good))
    broken["holdout_r2"]["stepwise_uk"][str(wl.MC_SIZES[-1])] -= 0.01
    assert any("holdout_r2" in e for e in wl.check_mc_round(broken, ref))
    cv = wl.load_reference()["montecarlo"]["cv"]
    assert wl.check_mc_cv(dict(cv, skipped=0), cv) == []
    assert wl.check_mc_cv(dict(cv, skipped=0, logo_r2=None), cv)


def test_variants_cover_every_seed():
    reference_ = wl.load_reference()
    for seed in (0, 1, 7, 8, 12345, 2**31 - 1):
        assert wl.expected(reference_, "national", seed) is not None
        for r in range(wl.MAX_OPS["montecarlo"]):
            assert wl.expected(reference_, "montecarlo", seed, r) is not None


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    tracers = {phase: tracer.Tracer() for phase in ("setup", "cold", "warm", "per_kind")}
    trace_keys = {"trace.untraced_run_s": 1.0, "trace.traced_run_s": 1.0, "trace.overhead_s": 0.0}
    names = list(run.layer_metrics(wl, tracers, trace_keys))
    assert [m["name"] for m in bench["per_layer"]] == names
    assert [m["unit"] for m in bench["per_layer"]] == [run.layer_unit(n) for n in names]
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert sorted(layer_map) == sorted(names)
