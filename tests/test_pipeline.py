import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lurk import geodata, pipeline
from lurk.cli import main as cli_main
from lurk.covariates import CovariateMatrix
from lurk.errors import DatasetMismatchError, InvalidArgumentError, StageError
from lurk.evaluation import kfold_plan, run_cv
from lurk.monitors import MonitorTable
from lurk.pipeline import PipelineConfig, compare_models, format_comparison, run
from lurk.recipes import ModelRecipe
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario
from lurk._util import stage_seed


def scenario(seed=1, **kw):
    kw.setdefault("n_sites", 40)
    kw.setdefault("n_clusters", 5)
    kw.setdefault("prediction_cols", 12)
    kw.setdefault("prediction_rows", 12)
    kw.setdefault("grf_partial_sill", 9.0)
    kw.setdefault("noise_sd", 1.0)
    return SyntheticScenario(seed=seed, **kw)


def write(tmp_path, sc, recipe=None, name="scn"):
    data = generate_synthetic(sc)
    return write_scenario(data, tmp_path / name, recipe=recipe), data


def test_run_smoke_and_artifacts(tmp_path):
    config_path, data = write(tmp_path, scenario(),
                              recipe={"selection": "stepwise", "kriging": False})
    cfg = PipelineConfig.from_json(config_path)
    report = run(cfg)
    assert report.status == "ok"
    out = Path(cfg.out_dir)
    for artifact in ("monitors.csv", "matrix.csv", "model.json", "cv_kfold.csv",
                     "cv_logo.csv", "cv_summary.json", "prediction.asc",
                     "exposure.csv", "exposure_summary.json", "manifest.json",
                     "report.json", "run.log"):
        assert (out / artifact).exists(), artifact
    assert "kfold_r2" in report.metrics
    assert report.metrics["pop_weighted_mean"] > 0
    model = json.loads((out / "model.json").read_text())
    assert model["recipe"]["selection"] == "stepwise"


def test_run_deterministic_across_directories(tmp_path):
    sc = scenario(seed=4)
    config_path, _ = write(tmp_path, sc, name="a")
    config_path2, _ = write(tmp_path, sc, name="b")
    cfg1 = PipelineConfig.from_json(config_path)
    cfg2 = PipelineConfig.from_json(config_path2)
    r1 = run(cfg1)
    r2 = run(cfg2)
    h1 = {s: e["outputs"] for s, e in r1.stages.items()}
    h2 = {s: e["outputs"] for s, e in r2.stages.items()}
    assert h1 == h2


def test_rerun_uses_cache_and_invalidation_cascades(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=5))
    cfg = PipelineConfig.from_json(config_path)
    r1 = run(cfg)
    log_before = (Path(cfg.out_dir) / "run.log").read_text()
    r2 = run(PipelineConfig.from_json(config_path))
    log_after = (Path(cfg.out_dir) / "run.log").read_text()
    new_lines = log_after[len(log_before):].strip().splitlines()
    assert all("status=cached" in line for line in new_lines)
    assert {s: e["outputs"] for s, e in r1.stages.items()} == \
        {s: e["outputs"] for s, e in r2.stages.items()}

    # corrupt one daily value: every downstream stage must recompute
    daily = config_path.parent / "inputs" / "daily.csv"
    text = daily.read_text().splitlines()
    parts = text[1].split(",")
    parts[2] = str(float(parts[2]) + 1.0)
    text[1] = ",".join(parts)
    daily.write_text("\n".join(text) + "\n")
    log_before = (Path(cfg.out_dir) / "run.log").read_text()
    run(PipelineConfig.from_json(config_path))
    recomputed = (Path(cfg.out_dir) / "run.log").read_text()[len(log_before):]
    for stage in ("annualize", "covariates", "fit", "cv", "predict", "exposure"):
        assert f"stage={stage} status=ok" in recomputed, stage


def test_stage_failure_reported_with_partial_artifacts(tmp_path):
    sc = scenario(seed=6, n_sites=1, n_clusters=1)
    config_path, _ = write(tmp_path, sc, recipe={"selection": "mean", "kriging": True})
    cfg = PipelineConfig.from_json(config_path)
    with pytest.raises(StageError):
        run(cfg)
    report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "fit"
    assert report["error"]
    assert (Path(cfg.out_dir) / "monitors.csv").exists()
    assert (Path(cfg.out_dir) / "matrix.csv").exists()


def test_missing_input_rejected(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=7))
    cfg = PipelineConfig.from_json(config_path)
    cfg.daily_csv = Path(tmp_path / "nope.csv")
    with pytest.raises(Exception, match="missing input"):
        run(cfg)


def test_cv_metrics_match_direct_evaluation(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=8),
                           recipe={"selection": "stepwise", "kriging": False})
    cfg = PipelineConfig.from_json(config_path)
    report = run(cfg)
    out = Path(cfg.out_dir)
    sites = MonitorTable.from_csv(out / "monitors.csv")
    matrix = CovariateMatrix.from_csv(out / "matrix.csv")
    plan = kfold_plan(sites.site_ids, cfg.cv_k, seed=stage_seed(cfg.seed, "cv-folds"))
    res = run_cv(cfg.recipe, sites, matrix, plan, seed=stage_seed(cfg.seed, "cv-kfold"))
    assert report.metrics["kfold_r2"] == pytest.approx(res.r2_mse, rel=1e-12)
    assert report.metrics["kfold_rmse"] == pytest.approx(res.rmse, rel=1e-12)


def test_compare_models_table(tmp_path):
    sc = scenario(seed=9, n_sites=70, n_clusters=9)
    reports = []
    for i, recipe in enumerate([
        {"selection": "stepwise", "kriging": False},
        {"selection": "stepwise", "kriging": True},
    ]):
        config_path, _ = write(tmp_path, sc, recipe=recipe, name=f"m{i}")
        cfg = PipelineConfig.from_json(config_path)
        reports.append(run(cfg).to_dict())
    rows = compare_models(reports)
    assert len(rows) == 2
    assert rows[0]["kriging"] is False and rows[1]["kriging"] is True
    assert "variogram" not in reports[0]["metrics"]
    assert format_comparison(rows).count("\n") == 2

    single = compare_models(reports[:1])
    assert len(single) == 1

    bad = dict(reports[0])
    bad["dataset_hash"] = "different"
    with pytest.raises(DatasetMismatchError):
        compare_models([reports[0], bad])


def test_report_carries_the_fitted_variogram(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=2),
                           recipe={"selection": "stepwise", "kriging": True})
    cfg = PipelineConfig.from_json(config_path)
    out = Path(cfg.out_dir)
    for _ in range(2):  # the cached rerun reads the same model.json
        assert run(cfg).status == "ok"
        report = json.loads((out / "report.json").read_text())
        model = json.loads((out / "model.json").read_text())
        assert report["metrics"]["variogram"] == model["kriging"]["variogram"]
    assert set(report["metrics"]["variogram"]) == {"nugget", "partial_sill", "range_m"}
    assert "stage=fit status=cached" in (out / "run.log").read_text()


def test_identical_recipes_identical_metrics(tmp_path):
    sc = scenario(seed=10)
    r = []
    for name in ("x", "y"):
        config_path, _ = write(tmp_path, sc,
                               recipe={"selection": "stepwise", "kriging": False},
                               name=name)
        cfg = PipelineConfig.from_json(config_path)
        r.append(run(cfg).to_dict())
    rows = compare_models(r)
    assert rows[0]["kfold_r2"] == rows[1]["kfold_r2"]
    assert rows[0]["logo_rmse"] == rows[1]["logo_rmse"]


def test_cli_synth_run_compare(tmp_path):
    runner = CliRunner()
    out = tmp_path / "scn"
    res = runner.invoke(cli_main, ["--seed", "3", "--out", str(out), "synth"])
    assert res.exit_code == 0, res.output
    config = out / "config.json"
    assert config.exists()
    res = runner.invoke(cli_main, ["--config", str(config), "run"])
    assert res.exit_code == 0, res.output
    report = out / "run" / "report.json"
    assert report.exists()
    res = runner.invoke(cli_main, ["compare", str(report)])
    assert res.exit_code == 0, res.output
    assert "kfold_r2" in res.output


def test_cli_montecarlo(tmp_path):
    runner = CliRunner()
    out = tmp_path / "scn"
    res = runner.invoke(cli_main, ["--seed", "11", "--out", str(out), "synth"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli_main, [
        "--config", str(out / "config.json"), "--out", str(out / "mc"),
        "montecarlo", "--n-grid", "20,30", "--iterations", "2",
    ])
    assert res.exit_code == 0, res.output
    assert (out / "mc" / "montecarlo.csv").exists()


def test_population_on_another_lattice_fails_exposure(tmp_path):
    config_path, data = write(tmp_path, scenario(seed=12))
    # aggregate 2 x 2 cells: the counts are conserved but the lattice moves
    pop = data.population
    coarse = pop.values.reshape(pop.n_rows // 2, 2, pop.n_cols // 2, 2).sum(axis=(1, 3))
    pop_path = config_path.parent / "inputs" / "population.asc"
    geodata.write_raster(
        geodata.RasterGrid(pop.origin_x, pop.origin_y, 2 * pop.cell_size,
                           pop.n_cols // 2, pop.n_rows // 2, coarse, pop.nodata),
        pop_path)
    cfg = PipelineConfig.from_json(config_path)
    with pytest.raises(StageError):
        run(cfg)
    report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "exposure"
    assert str(pop_path) in report["error"]
    assert "lattice" in report["error"]
    assert (Path(cfg.out_dir) / "prediction.asc").exists()


@pytest.mark.parametrize("section,key", [
    (None, "population_gird"),
    ("monitors", "dialy"),
    ("cv", "logo_grop"),
])
def test_unknown_config_keys_rejected(tmp_path, section, key):
    config_path, _ = write(tmp_path, scenario(seed=13))
    config = json.loads(config_path.read_text())
    (config if section is None else config[section])[key] = "x"
    config_path.write_text(json.dumps(config))
    with pytest.raises(InvalidArgumentError, match=key):
        PipelineConfig.from_json(config_path)


@pytest.mark.parametrize("dotted", [
    "year", "pollutant", "monitors", "covariates", "monitors.sites", "monitors.daily",
    "categorical_grids.landcover.path", "categorical_grids.landcover.categories",
])
def test_missing_config_keys_named(tmp_path, dotted):
    # Each of these once failed with a bare KeyError.
    config_path, _ = write(tmp_path, scenario(seed=13))
    config = json.loads(config_path.read_text())
    *parents, key = dotted.split(".")
    section = config
    for name in parents:
        section = section[name]
    del section[key]
    config_path.write_text(json.dumps(config))
    with pytest.raises(InvalidArgumentError, match=rf"missing .*keys: \['{key}'\]"):
        PipelineConfig.from_json(config_path)


_LATTICE = {"origin_x": 0.0, "origin_y": 0.0, "cell_size": 1000.0, "n_cols": 4, "n_rows": 3}


@pytest.mark.parametrize("key,value,named", [
    ("with_variance", "false", "config with_variance"),  # bool("false") is True
    ("cv", {"k": 7.9}, "config cv.k"),                   # int() would run 7 folds
    ("cv", {"k": True}, "config cv.k"),                  # ... and 1 fold here
    ("thresholds", "25", "config thresholds"),           # tuple() gives ('2', '5')
    ("thresholds", [10.0, "15"], "config thresholds"),
    ("seed", 1.7, "config seed"),
    ("year", "2015.5", "config year"),
    ("year", 2015.0, "config year"),
    ("prediction", {**_LATTICE, "n_col": 4}, "config prediction"),
    ("prediction", {k: v for k, v in _LATTICE.items() if k != "n_rows"}, "config prediction"),
    ("prediction", {**_LATTICE, "cell_size": 0.0}, "config prediction"),
    ("prediction", {**_LATTICE, "n_cols": 2.5}, "config prediction"),
    ("prediction", {**_LATTICE, "n_rows": 0}, "config prediction"),
    ("prediction", {**_LATTICE, "origin_x": "0"}, "config prediction"),
    ("prediction", [0.0, 0.0, 1000.0, 4, 3], "config prediction"),
    ("cv", {"logo_group": "county"}, "config cv.logo_group"),  # once failed only at cv
])
def test_config_values_checked(tmp_path, key, value, named):
    config = {"pollutant": "no2", "year": 2015, "prediction": _LATTICE,
              "monitors": {"daily": "daily.csv", "sites": "sites.csv"},
              "covariates": "covariates.json"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cfg = PipelineConfig.from_json(path)
    assert (cfg.year, cfg.seed, cfg.cv_k, cfg.with_variance) == (2015, 0, 10, False)
    path.write_text(json.dumps({**config, key: value}))
    with pytest.raises(InvalidArgumentError, match=named):
        PipelineConfig.from_json(path)


def test_code_change_recomputes_every_stage(tmp_path, monkeypatch):
    config_path, _ = write(tmp_path, scenario(seed=14))
    log_path = tmp_path / "scn" / "run" / "run.log"

    def run_and_log():
        before = log_path.read_text() if log_path.exists() else ""
        run(PipelineConfig.from_json(config_path))
        return log_path.read_text()[len(before):]

    run_and_log()
    monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "other code")
    recomputed = run_and_log()
    for stage in pipeline.STAGES:
        assert f"stage={stage} status=ok" in recomputed, stage
    cached = run_and_log().strip().splitlines()
    assert len(cached) == len(pipeline.STAGES)
    assert all("status=cached" in line for line in cached)


def new_log_lines(log_path, before: str) -> dict:
    """stage -> status of the run.log lines written after `before`."""
    lines = log_path.read_text()[len(before):].strip().splitlines()
    return {line.split()[0].split("=", 1)[1]: line.split()[1] for line in lines}


def test_recipe_change_reuses_annualize_and_covariates(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=2),
                           recipe={"selection": "stepwise", "kriging": False})
    cfg = PipelineConfig.from_json(config_path)
    first = run(cfg)
    out, log_path = Path(cfg.out_dir), Path(cfg.out_dir) / "run.log"
    before = log_path.read_text()
    cfg.recipe = ModelRecipe.from_dict({"selection": "pls", "kriging": True})
    second = run(cfg)
    assert new_log_lines(log_path, before) == {
        "annualize": "status=cached", "covariates": "status=cached", "fit": "status=ok",
        "cv": "status=ok", "predict": "status=ok", "exposure": "status=ok"}
    for stage in ("annualize", "covariates"):
        assert second.stages[stage] == first.stages[stage]
    assert second.recipe["selection"] == "pls" and second.dataset_hash == first.dataset_hash

    # what the shared directory holds now is what a fresh run of the
    # second recipe writes
    cfg.out_dir = tmp_path / "fresh"
    run(cfg)
    bookkeeping = {"manifest.json", "report.json", "run.log"}
    names = sorted(p.name for p in cfg.out_dir.iterdir() if p.name not in bookkeeping)
    assert names == sorted(p.name for p in out.iterdir() if p.name not in bookkeeping)
    for name in names:
        assert (out / name).read_bytes() == (cfg.out_dir / name).read_bytes(), name


def test_with_variance_writes_a_cached_variance_grid(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=17),
                           recipe={"selection": "stepwise", "kriging": True})
    # One lattice row and column past the source grids' cell centers, so
    # the elevation covariate the trend selects is nodata there (with no
    # population grid on this lattice, the exposure stage does not run).
    config = json.loads(config_path.read_text())
    del config["population_grid"]
    config["prediction"].update(n_cols=13, n_rows=13)
    config_path.write_text(json.dumps({**config, "with_variance": True}))
    cfg = PipelineConfig.from_json(config_path)
    run(cfg)
    out = Path(cfg.out_dir)
    pred = geodata.read_raster(out / "prediction.asc")
    var = geodata.read_raster(out / "prediction_variance.asc")
    assert var.same_lattice(pred)
    valid = pred.values != pred.nodata
    assert "elevation" in json.loads((out / "model.json").read_text())["trend"]["selected"]
    assert valid.any() and not valid.all()
    assert np.array_equal(var.values != var.nodata, valid)
    assert np.all(var.values[valid] >= 0.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "prediction_variance.asc" in manifest["predict"]["outputs"]

    before = (out / "run.log").read_text()
    run(PipelineConfig.from_json(config_path))
    assert set(new_log_lines(out / "run.log", before).values()) == {"status=cached"}

    config_path.write_text(json.dumps({**config, "with_variance": True, "out": "trend_only",
                                       "recipe": {"selection": "stepwise"}}))
    cfg = PipelineConfig.from_json(config_path)
    assert run(cfg).status == "ok"
    assert (cfg.out_dir / "prediction.asc").exists()
    assert not (cfg.out_dir / "prediction_variance.asc").exists()

    # the trend-only recipe in the directory that holds the UK variance grid
    config_path.write_text(json.dumps({**config, "with_variance": True,
                                       "recipe": {"selection": "stepwise"}}))
    assert run(PipelineConfig.from_json(config_path)).status == "ok"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "prediction_variance.asc" not in manifest["predict"]["outputs"]
    assert not (out / "prediction_variance.asc").exists()


@pytest.mark.parametrize("script", ["run_national_synthetic.py", "model_family_sweep.py"])
def test_scripts_import_against_the_api(script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_benchmark_tracer_wraps_and_restores_the_library(tmp_path):
    """perfbench/tracer.py wraps library names by attribute; a rename or
    deletion of one fails here, not first in a benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    config_path, _ = write(tmp_path, scenario(seed=18),
                           recipe={"selection": "stepwise", "kriging": True})
    tracer = tracer_module.Tracer()
    ins = tracer_module.instrument(tracer)
    saved = list(ins._saved)
    try:
        assert saved and all(getattr(o, a) is not orig for o, a, orig in saved)
        assert run(PipelineConfig.from_json(config_path)).status == "ok"
    finally:
        ins.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in saved)
    for stage in pipeline.STAGES:
        assert tracer.durations(f"pipeline.stage.{stage}"), stage
    assert tracer.counts["lur.stepwise_select_calls"] > 1  # the fit and every CV fold
    assert tracer.counts["kriging.uk_fit_calls"] > 1


def test_cli_stage_commands_share_the_pipeline_cache(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=15))
    out = tmp_path / "scn" / "run"
    log_path = out / "run.log"
    runner = CliRunner()

    def invoke(*args):
        before = log_path.read_text() if log_path.exists() else ""
        res = runner.invoke(cli_main, ["--config", str(config_path), *args])
        assert res.exit_code == 0, res.output
        return new_log_lines(log_path, before)

    for i, stage in enumerate(pipeline.STAGES[:-1]):
        logged = invoke(stage)
        assert list(logged) == list(pipeline.STAGES[:i + 1]), stage
        assert all(logged[s] == "status=cached" for s in pipeline.STAGES[:i]), logged
        assert logged[stage] == "status=ok"
    logged = invoke("run")
    assert all(logged[s] == "status=cached" for s in pipeline.STAGES[:-1]), logged
    assert logged["exposure"] == "status=ok"

    fresh = tmp_path / "fresh"
    res = runner.invoke(cli_main, ["--config", str(config_path), "--out", str(fresh), "run"])
    assert res.exit_code == 0, res.output
    bookkeeping = {"manifest.json", "report.json", "run.log"}
    names = sorted(p.name for p in fresh.iterdir() if p.name not in bookkeeping)
    assert names == sorted(p.name for p in out.iterdir() if p.name not in bookkeeping)
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    logged = invoke("montecarlo", "--n-grid", "20", "--iterations", "1")
    assert logged == {"annualize": "status=cached", "covariates": "status=cached"}
    assert (out / "montecarlo.csv").exists()

    with pytest.raises(InvalidArgumentError, match="bogus"):
        run(PipelineConfig.from_json(config_path), until="bogus")


def test_interrupted_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = tmp_path / "scn" / "run"
    first = run(PipelineConfig.from_json(config_path))
    manifest = (out / "manifest.json").read_bytes()

    write_text = Path.write_text

    def half_then_fail(self, data, *args, **kwargs):
        if not self.name.startswith("manifest.json"):
            return write_text(self, data, *args, **kwargs)
        write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    # a code change makes every stage recompute, so the next run rewrites
    # the manifest after its first stage
    monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "other code")
    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        run(PipelineConfig.from_json(config_path))
    monkeypatch.setattr(Path, "write_text", write_text)
    assert (out / "manifest.json").read_bytes() == manifest

    log_before = (out / "run.log").read_text()
    second = run(PipelineConfig.from_json(config_path))
    recomputed = (out / "run.log").read_text()[len(log_before):]
    for stage in pipeline.STAGES:
        assert f"stage={stage} status=ok" in recomputed, stage
    assert {s: e["outputs"] for s, e in second.stages.items()} == \
        {s: e["outputs"] for s, e in first.stages.items()}


def test_cli_pins_one_blas_thread():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(pipeline.__file__).resolve().parents[1])
    code = ("import os, lurk.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")

    def threads_seen():
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout.split()

    assert threads_seen() == ["1", "1"]
    env["OPENBLAS_NUM_THREADS"] = "2"  # an explicit choice is kept
    assert threads_seen() == ["2", "1"]
