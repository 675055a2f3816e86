import importlib.util
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lurk import _util, covariates, geodata, pipeline
from lurk.cli import main as cli_main
from lurk.covariates import CovariateMatrix
from lurk.errors import (DatasetMismatchError, InvalidArgumentError, OutputLockedError,
                         StageError)
from lurk.evaluation import kfold_plan, run_cv
from lurk.monitors import MonitorTable
from lurk.pipeline import PipelineConfig, compare_models, format_comparison, run
from lurk.recipes import ModelRecipe
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario
from lurk._util import plain, stage_seed


def scenario(seed=1, **kw):
    kw.setdefault("n_sites", 40)
    kw.setdefault("n_clusters", 5)
    kw.setdefault("prediction_cols", 12)
    kw.setdefault("prediction_rows", 12)
    kw.setdefault("grf_partial_sill", 9.0)
    kw.setdefault("noise_sd", 1.0)
    return SyntheticScenario(seed=seed, **kw)


def write(tmp_path, sc, recipe=None, name="scn"):
    """The scenario's inputs and config.json under tmp_path / name, with
    `recipe`, when given, in place of the config's; (config path, data)."""
    data = generate_synthetic(sc)
    path = write_scenario(data, tmp_path / name)
    if recipe is not None:
        path.write_text(json.dumps({**json.loads(path.read_text()), "recipe": recipe}))
    return path, data


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
    n_included = json.loads((out / "excluded_sites.json").read_text())["n_included"]
    assert n_included == report.metrics["n_sites"] == len(
        MonitorTable.from_csv(out / "monitors.csv")) == len(data.sites)


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
        run(cfg, until="fit")  # a run reaching cv would fail there first: cv.k > 1 site
    report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    assert report["status"] == "failed"
    assert report["failed_stage"] == "fit"
    assert report["error"]
    assert (Path(cfg.out_dir) / "monitors.csv").exists()
    assert (Path(cfg.out_dir) / "matrix.csv").exists()


@pytest.mark.parametrize("cached", [False, True], ids=["computed", "cached"])
def test_a_cv_k_above_the_site_count_fails_cv_before_covariates_compute(
        tmp_path, monkeypatch, cached):
    """`cv.k` is checked against annualize's site count, read from the
    report metrics (so from the manifest when annualize is cached), right
    after annualize: covariates and fit never compute."""
    config_path, _ = write(tmp_path, scenario(seed=8))
    config_path.write_text(json.dumps({**json.loads(config_path.read_text()),
                                       "cv": {"k": 1000, "logo_group": "province"}}))
    cfg = PipelineConfig.from_json(config_path)
    out = Path(cfg.out_dir)
    if cached:
        run(cfg, until="annualize")
    with monkeypatch.context() as patch:
        for owner, name in ((covariates, "build_matrix"), (pipeline, "fit_recipe")):
            patch.setattr(owner, name, lambda *a, **kw: pytest.fail("computed past annualize"))
        with pytest.raises(StageError) as info:
            run(cfg)
    report = json.loads((out / "report.json").read_text())
    message = f"k must be in [2, {report['metrics']['n_sites']}]"
    assert (info.value.stage, str(info.value.cause)) == ("cv", message)
    assert (report["status"], report["failed_stage"], report["error"]) == (
        "failed", "cv", message)
    assert f"stage=cv status=failed error={message}" in (out / "run.log").read_text()
    assert not (out / "matrix.csv").exists()
    assert run(cfg, until="fit").status == "ok"  # a run that stops before cv is unaffected


@pytest.mark.parametrize("keep", ["header only", "January to August"])
def test_annualize_stage_fails_by_name_when_no_site_is_included(tmp_path, keep):
    """A daily file that leaves no site (no records, or every site below
    the 75% rule at 243 of 365 days) fails at annualize, naming the file
    and the excluded count, before the covariates stage runs."""
    config_path, _ = write(tmp_path, scenario(seed=8))
    daily = config_path.parent / "inputs" / "daily.csv"
    header, *lines = daily.read_text().splitlines()
    if keep == "header only":
        lines = []
    else:
        lines = [line for line in lines if line.split(",")[1][5:7] < "09"]
    daily.write_text("\n".join([header, *lines]) + "\n")
    n_excluded = len({line.split(",")[0] for line in lines})
    cfg = PipelineConfig.from_json(config_path)
    with pytest.raises(StageError) as info:
        run(cfg)
    assert info.value.stage == "annualize"
    assert isinstance(info.value.cause, InvalidArgumentError)
    assert str(daily) in str(info.value.cause)
    assert f"({n_excluded} site(s) excluded)" in str(info.value.cause)
    report = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    assert report["failed_stage"] == "annualize"
    assert not (Path(cfg.out_dir) / "matrix.csv").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_daily_value_fails_annualize_naming_its_line(tmp_path, value):
    """One non-finite day would make a site's annual mean inf (and the fit
    fail blaming a covariate) or count as missing; instead annualize fails,
    naming the file and the line."""
    config_path, _ = write(tmp_path, scenario(seed=8))
    daily = config_path.parent / "inputs" / "daily.csv"
    lines = daily.read_text().splitlines()
    site, day, _ = lines[100].split(",")
    lines[100] = f"{site},{day},{value}"
    daily.write_text("\n".join(lines) + "\n")
    with pytest.raises(StageError) as info:
        run(PipelineConfig.from_json(config_path))
    assert info.value.stage == "annualize"
    assert str(info.value.cause) == (
        f"{daily}: line 101: malformed record {[site, day, value]!r}")


@pytest.mark.parametrize("until", ["annualize", "cv"])
def test_annualize_reads_sites_csv_before_daily_csv(tmp_path, until):
    """With sites.csv, daily.csv and covariates.json all malformed, annualize
    fails on sites.csv, which its compute reads first (before any geo job
    starts); with sites.csv mended it fails on daily.csv. covariates.json,
    which annualize also reads for the geo jobs, fails only its own stage."""
    config_path, _ = write(tmp_path, scenario(seed=8))
    sites, daily = (config_path.parent / "inputs" / name for name in ("sites.csv", "daily.csv"))
    sites_text, lines = sites.read_text(), daily.read_text().splitlines()
    site, day, _ = lines[100].split(",")
    lines[100] = f"{site},{day},nan"
    daily.write_text("\n".join(lines) + "\n")
    sites.write_text(sites_text + sites_text.splitlines()[1] + "\n")  # a repeated row
    (config_path.parent / "covariates.json").write_text("{}")
    with pytest.raises(StageError) as info:
        run(PipelineConfig.from_json(config_path), until=until)
    assert info.value.stage == "annualize"
    assert str(info.value.cause).startswith(f"{sites}: line ")
    sites.write_text(sites_text)
    with pytest.raises(StageError) as info:
        run(PipelineConfig.from_json(config_path), until=until)
    assert (info.value.stage, str(info.value.cause)) == (
        "annualize", f"{daily}: line 101: malformed record {[site, day, 'nan']!r}")
    lines[100] = f"{site},{day},1.0"
    daily.write_text("\n".join(lines) + "\n")
    if until == "annualize":
        run(PipelineConfig.from_json(config_path), until=until)
    else:
        with pytest.raises(StageError) as info:
            run(PipelineConfig.from_json(config_path), until=until)
        assert info.value.stage == "covariates"
        assert "a covariate set file must be a list of objects" in str(info.value.cause)


def test_misspelled_exclude_fails_the_fit_stage_naming_the_column(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=8), recipe={"exclude": ["satelite"]})
    with pytest.raises(StageError) as info:
        run(PipelineConfig.from_json(config_path))
    assert info.value.stage == "fit"
    assert isinstance(info.value.cause, InvalidArgumentError)
    assert "'satelite'" in str(info.value.cause)


def test_cached_rerun_parses_no_matrix_specs_or_geo_inputs(tmp_path, monkeypatch):
    """A fully cached rerun parses no input and no artifact: it reports
    the metrics its stages' manifest entries keep."""
    config_path, _ = write(tmp_path, scenario(seed=18),
                           recipe={"selection": "stepwise", "kriging": True})
    first = run(PipelineConfig.from_json(config_path))
    out = Path(PipelineConfig.from_json(config_path).out_dir)
    report_before = json.loads((out / "report.json").read_text())
    before = (out / "run.log").read_text()

    def refuse(*args, **kwargs):
        raise AssertionError("a cached rerun parsed an input")

    for owner, name in ((CovariateMatrix, "from_csv"), (MonitorTable, "from_csv"),
                        (covariates, "read_specs"), (geodata, "read_features"),
                        (geodata, "read_raster"), (geodata, "read_categorical")):
        monkeypatch.setattr(owner, name, refuse)
    # nor the JSON artifacts: the report's metrics come from the manifest
    reported = {"model.json", "cv_summary.json", "excluded_sites.json",
                "prediction_meta.json", "exposure_summary.json"}
    for name in ("read_text", "read_bytes"):
        read = getattr(Path, name)
        monkeypatch.setattr(Path, name, lambda self, *a, read=read, **kw: (
            refuse() if self.name in reported else read(self, *a, **kw)))
    second = run(PipelineConfig.from_json(config_path))
    assert new_log_lines(out / "run.log", before) == dict.fromkeys(
        pipeline.STAGES, "status=cached")
    assert report_without_timings(out) == without_timings(report_before)
    assert second.metrics == first.metrics


def without_timings(report: dict) -> dict:
    for entry in report["stages"].values():
        entry.pop("elapsed_s")
    return report


def report_without_timings(out: Path) -> dict:
    return without_timings(json.loads((out / "report.json").read_text()))


def test_missing_input_rejected(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=7))
    cfg = PipelineConfig.from_json(config_path)
    cfg.daily_csv = Path(tmp_path / "nope.csv")
    with pytest.raises(Exception, match="missing input"):
        run(cfg)


def test_a_config_reached_through_a_symlinked_directory_runs_cached_reruns(
        tmp_path, monkeypatch):
    """Config paths are made absolute without resolving symlinks: a
    scenario loaded through a symlinked directory, by a path relative to the
    working directory, keeps the link in its paths and runs; a rerun
    through the link is cached throughout, and so is one through the real
    directory, since stage keys hold no paths."""
    config_path, _ = write(tmp_path, scenario(seed=4), name="real")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    monkeypatch.chdir(tmp_path)
    cfg = PipelineConfig.from_json(Path("link") / "config.json")
    assert cfg.daily_csv.is_absolute() and cfg.daily_csv.parts[:-2] == (tmp_path / "link").parts
    assert cfg.out_dir == tmp_path / "link" / "run"
    assert run(cfg).status == "ok"
    log = tmp_path / "real" / "run" / "run.log"
    for path in (Path("link") / "config.json", config_path):
        before = log.read_text()
        run(PipelineConfig.from_json(path))
        assert new_log_lines(log, before) == dict.fromkeys(pipeline.STAGES, "status=cached")


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
        reports.append(plain(run(cfg)))
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
        r.append(plain(run(cfg)))
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


# Holds an exclusive flock on <dir>/.lock, as a running pipeline does, until
# its stdin closes.
HOLD_LOCK = """
import fcntl, os, sys
fd = os.open(os.path.join(sys.argv[1], ".lock"), os.O_RDWR | os.O_CREAT)
fcntl.flock(fd, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""


def test_one_run_at_a_time_per_output_directory(tmp_path):
    """While another process holds the output directory, a run and the
    Monte Carlo command raise OutputLockedError naming it and touch
    nothing; so does a run from another thread of a process that holds it,
    while a run inside the holding thread goes ahead. Once the holder
    exits, the run goes ahead."""
    config_path, _ = write(tmp_path, scenario(seed=2),
                           recipe={"selection": "stepwise", "kriging": False})
    cfg = PipelineConfig.from_json(config_path)
    out = Path(cfg.out_dir)
    out.mkdir()
    holder = subprocess.Popen([sys.executable, "-c", HOLD_LOCK, str(out)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "locked\n"
        with pytest.raises(OutputLockedError, match=re.escape(str(out))):
            run(cfg)
        res = CliRunner().invoke(cli_main, ["--config", str(config_path), "montecarlo",
                                            "--n-grid", "20", "--iterations", "1"])
        assert res.exit_code == 1
        assert res.output == f"Error: {OutputLockedError(out)}\n"
        assert [p.name for p in out.iterdir()] == [".lock"]
    finally:
        holder.stdin.close()
        holder.wait(timeout=60)
    with _util.locked_dir(out):
        raised = []

        def run_in_another_thread():
            try:
                run(cfg)
            except OutputLockedError as exc:
                raised.append(exc)

        other = threading.Thread(target=run_in_another_thread)
        other.start()
        other.join(timeout=60)
        assert not other.is_alive() and len(raised) == 1
        assert run(cfg, until="annualize").status == "ok"
    assert run(cfg).status == "ok"


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
    ("cv", {"k": 1}, "config cv.k must be an integer >= 2"),  # once failed only at cv
    ("cv", {"k": -3}, "config cv.k must be an integer >= 2"),
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


def _without(key):
    return {k: v for k, v in _LATTICE.items() if k != key}


@pytest.mark.parametrize("lattice, message", [
    ({**_LATTICE, "crs": "EPSG:3035"}, "unknown config prediction keys: ['crs']"),
    (_without("n_rows"), "missing config prediction keys: ['n_rows']"),
    ({**_without("n_cols"), "n_col": 4}, "unknown config prediction keys: ['n_col']"),  # first
])
def test_lattice_keys_are_named(tmp_path, lattice, message):
    """An unknown prediction-lattice key is named, then a missing one, as
    in every other section of the config."""
    config = {"pollutant": "no2", "year": 2015, "prediction": lattice,
              "monitors": {"daily": "daily.csv", "sites": "sites.csv"},
              "covariates": "covariates.json"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        PipelineConfig.from_json(path)


@pytest.mark.parametrize("key,value,named", [
    # Each of these once failed with a bare TypeError or AttributeError.
    ("monitors", 5, "config monitors must be an object"),
    ("monitors", {"daily": 5, "sites": "sites.csv"}, "config monitors.daily must be a path"),
    ("recipe", 5, "recipe must be an object"),
    ("recipe", {"stepwise": 1}, "recipe stepwise must be an object"),
    ("cv", 3, "config cv must be an object"),
    ("layers", [], "config layers must be an object"),
    ("layers", {"roads": 5}, "config layers 'roads' must be a path"),
    ("grids", {"elevation": ["a.asc"]}, "config grids 'elevation' must be a path"),
    ("categorical_grids", {"landcover": 5}, "config categorical_grids 'landcover' must be"),
    ("categorical_grids", {"landcover": {"path": 5, "categories": [1]}},
     "config categorical_grids 'landcover' path must be a path"),
    ("covariates", 5, "config covariates must be a path"),
    # These once passed the config check and failed or leaked later.
    ("categorical_grids", {"landcover": {"path": "lc.asc", "categories": 5}},
     "config categorical_grids 'landcover' categories must be a list of integers"),
    ("categorical_grids", {"landcover": {"path": "lc.asc", "categories": ["a"]}},
     "config categorical_grids 'landcover' categories must be a list of integers"),
    ("pollutant", {"name": "no2"}, "config pollutant must be a string"),
    ("population_grid", 5, "config population_grid must be a path"),
    ("out", None, "config out must be a path"),
    (None, None, "config must be an object"),  # the config itself, as a list
])
def test_config_sections_of_the_wrong_type_named(tmp_path, key, value, named):
    config = {"pollutant": "no2", "year": 2015,
              "monitors": {"daily": "daily.csv", "sites": "sites.csv"},
              "covariates": "covariates.json"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps([config] if key is None else {**config, key: value}))
    with pytest.raises(InvalidArgumentError, match=re.escape(named)):
        PipelineConfig.from_json(path)


@pytest.mark.parametrize("change", ["sources", "numpy version"])
def test_code_change_recomputes_every_stage(tmp_path, monkeypatch, change):
    config_path, _ = write(tmp_path, scenario(seed=14))
    log_path = tmp_path / "scn" / "run" / "run.log"

    def run_and_log():
        before = log_path.read_text() if log_path.exists() else ""
        run(PipelineConfig.from_json(config_path))
        return log_path.read_text()[len(before):]

    run_and_log()
    if change == "sources":
        monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "other code")
    else:
        monkeypatch.setattr(np, "__version__", np.__version__ + "+other.build")
        pipeline.code_fingerprint.cache_clear()
    try:
        recomputed = run_and_log()
        for stage in pipeline.STAGES:
            assert f"stage={stage} status=ok" in recomputed, stage
        cached = run_and_log().strip().splitlines()
    finally:
        monkeypatch.undo()
        pipeline.code_fingerprint.cache_clear()
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
    assert_same_artifacts(out, cfg.out_dir)


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


def rerun_after(config_path, edit) -> dict:
    """Apply `edit` to the parsed config, write it back and rerun; returns
    the rerun's stage -> status."""
    config = json.loads(config_path.read_text())
    edit(config)
    config_path.write_text(json.dumps(config))
    log_path = config_path.parent / config["out"] / "run.log"
    before = log_path.read_text()
    run(PipelineConfig.from_json(config_path))
    return new_log_lines(log_path, before)


def test_swapped_grid_paths_recompute_covariates(tmp_path):
    """Each read is keyed by its config name, so two grids that trade paths
    (the same bytes under other names) build a new matrix."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    run(PipelineConfig.from_json(config_path))

    def swap(config):
        grids = config["grids"]
        grids["elevation"], grids["satellite"] = grids["satellite"], grids["elevation"]

    assert rerun_after(config_path, swap)["covariates"] == "status=ok"
    cfg = PipelineConfig.from_json(config_path)
    out, cfg.out_dir = cfg.out_dir, tmp_path / "fresh"
    run(cfg)
    assert (out / "matrix.csv").read_bytes() == (cfg.out_dir / "matrix.csv").read_bytes()


def test_undeclared_land_cover_code_fails_a_cached_rerun(tmp_path):
    config_path, _ = write(tmp_path, scenario(seed=14))
    run(PipelineConfig.from_json(config_path))
    entry = json.loads(config_path.read_text())["categorical_grids"]["landcover"]
    grid = geodata.read_raster(config_path.parent / entry["path"])
    code = int(np.max(grid.values[grid.values != grid.nodata]))

    def undeclare(config):
        config["categorical_grids"]["landcover"]["categories"].remove(code)

    with pytest.raises(StageError) as info:
        rerun_after(config_path, undeclare)
    assert info.value.stage == "covariates"
    assert f"undeclared category codes: [{code}]" in str(info.value.cause)


def test_respaced_covariate_specs_rerun_covariates_and_predict(tmp_path):
    """The predict stage reads the covariate specs, so its key holds their
    hash; the same specs in other whitespace rebuild an identical matrix
    and grid, and the stages after each hit the cache."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    run(PipelineConfig.from_json(config_path))
    prediction = (tmp_path / "scn" / "run" / "prediction.asc").read_bytes()
    specs = config_path.parent / "covariates.json"
    text = specs.read_text()
    specs.write_text(json.dumps(json.loads(text), indent="\t"))
    assert specs.read_text() != text
    assert rerun_after(config_path, lambda config: None) == {
        "annualize": "status=cached", "covariates": "status=ok", "fit": "status=cached",
        "cv": "status=cached", "predict": "status=ok", "exposure": "status=cached"}
    assert (tmp_path / "scn" / "run" / "prediction.asc").read_bytes() == prediction


def count_hashes(monkeypatch) -> list:
    """The paths `pipeline.sha256_file` is called on from now on."""
    calls = []
    monkeypatch.setattr(pipeline, "sha256_file",
                        lambda path: calls.append(Path(path)) or _util.sha256_file(path))
    return calls


def age_the_clock(monkeypatch) -> None:
    """Move the clock the runner reads 3 s forward: every file written so
    far then lies outside the window (at most 2 s) of a hash taken from now on."""
    time_ns = time.time_ns
    monkeypatch.setattr(time, "time_ns", lambda: time_ns() + 3_000_000_000)


# The artifacts a later stage reads, so the only ones a cold run hashes.
READ_ARTIFACTS = ("monitors.csv", "matrix.csv", "model.json", "prediction.asc")


def test_each_run_hashes_each_file_once(tmp_path, monkeypatch):
    """Cold or warm, a run hashes each file it hashes once: an output's
    cache check and a later stage's read of it share one hash. The cold run
    records each output's hash from the bytes it wrote, so it hashes the
    inputs and only the artifacts a later stage reads. The warm run is a
    rerun within the window of the writes, so it hashes every input and output
    again: the clock is held where it stood before the inputs were
    written, so each hash falls inside the window however slow the host."""
    held = time.time_ns()
    monkeypatch.setattr(time, "time_ns", lambda: held)
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = tmp_path / "scn" / "run"
    calls = count_hashes(monkeypatch)
    hashed = {}
    for run_name in ("cold", "warm"):
        calls.clear()
        run(PipelineConfig.from_json(config_path))
        assert calls and len(calls) == len(set(calls))
        hashed[run_name] = set(calls)
    manifest = json.loads((out / "manifest.json").read_text())
    outputs = {out / o for s in pipeline.STAGES for o in manifest[s]["outputs"]}
    assert hashed["cold"] & outputs == {out / name for name in READ_ARTIFACTS}
    assert hashed["warm"] == hashed["cold"] | outputs


def file_identity(path: Path) -> tuple:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def test_aged_rerun_hashes_nothing_and_writes_no_manifest(tmp_path, monkeypatch):
    """Once every hash is taken more than the window after its file's last
    change, a rerun reads no file to hash: it serves all six stages from
    the cache, reports what the run before it did and leaves the manifest
    and the report as they were."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = tmp_path / "scn" / "run"
    run(PipelineConfig.from_json(config_path))
    age_the_clock(monkeypatch)
    run(PipelineConfig.from_json(config_path))  # hashes again what was within 2 s
    report_before = report_without_timings(out)
    written = {name: file_identity(out / name) for name in ("manifest.json", "report.json")}
    before = (out / "run.log").read_text()
    calls = count_hashes(monkeypatch)
    run(PipelineConfig.from_json(config_path))
    assert calls == []
    assert new_log_lines(out / "run.log", before) == dict.fromkeys(
        pipeline.STAGES, "status=cached")
    assert report_without_timings(out) == report_before
    assert {name: file_identity(out / name) for name in written} == written


@pytest.mark.parametrize("stamp", ["finer than 1 ms", "whole ms"])
def test_the_window_follows_the_stamp_resolution(tmp_path, monkeypatch, stamp):
    """A hash taken 0.5 s after a file's last change is trusted when the
    file's st_ctime is finer than a whole millisecond (a 20 ms window), and
    not when it is a whole millisecond, as filesystems with 1 s or 2 s
    timestamps write (the 2 s window): there a rerun hashes the last
    stage's outputs again. The real stamps are moved below the
    millisecond, to end in 1 ns or in none."""
    signature = pipeline._signature

    def stamped(path):
        sig = signature(path)
        return sig[:4] + [sig[4] - sig[4] % 1_000_000 + (stamp != "whole ms")]

    monkeypatch.setattr(pipeline, "_signature", stamped)
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = tmp_path / "scn" / "run"
    run(PipelineConfig.from_json(config_path))
    later = time.time_ns() + 500_000_000
    monkeypatch.setattr(time, "time_ns", lambda: later)
    run(PipelineConfig.from_json(config_path))  # hashes the outputs no stage read
    calls = count_hashes(monkeypatch)
    run(PipelineConfig.from_json(config_path))
    manifest = json.loads((out / "manifest.json").read_text())
    if stamp == "whole ms":
        assert {out / o for o in manifest["exposure"]["outputs"]} <= set(calls)
    else:
        assert calls == []


def test_in_window_rerun_that_confirms_the_memo_writes_no_manifest(tmp_path, monkeypatch):
    """A rerun within the window of the writes hashes every file again; when each
    hash finds the memo's digest and signature, the memo stays as it was,
    so the run rewrites neither the manifest nor the report. The clock is
    held where it stood before the inputs were written, so every hash
    falls inside the window however slow the host."""
    held = time.time_ns()
    monkeypatch.setattr(time, "time_ns", lambda: held)
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = tmp_path / "scn" / "run"
    run(PipelineConfig.from_json(config_path))
    run(PipelineConfig.from_json(config_path))  # memoizes the outputs no stage read
    written = {name: file_identity(out / name) for name in ("manifest.json", "report.json")}
    memo = json.loads((out / "manifest.json").read_text())["files"]
    before = (out / "run.log").read_text()
    calls = count_hashes(monkeypatch)
    run(PipelineConfig.from_json(config_path))
    assert {str(path) for path in calls} == set(memo)
    assert new_log_lines(out / "run.log", before) == dict.fromkeys(
        pipeline.STAGES, "status=cached")
    assert {name: file_identity(out / name) for name in written} == written


def test_a_partial_run_keeps_the_memo_of_files_it_did_not_read(tmp_path):
    """`lurk annualize` hashes only the annualize files; the grids' and the
    other artifacts' memo entries stay for the next full run."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    run(cfg)
    run(cfg)  # hashes the outputs no stage read, so the memo holds every file
    manifest = cfg.out_dir / "manifest.json"
    memo = json.loads(manifest.read_text())["files"]
    assert {str(path) for path in cfg.grids.values()} <= set(memo)
    run(cfg, until="annualize")
    after = json.loads(manifest.read_text())["files"]
    assert set(after) == set(memo)
    untouched = set(memo) - {str(cfg.daily_csv), str(cfg.sites_csv),
                             str(cfg.out_dir / "monitors.csv"),
                             str(cfg.out_dir / "excluded_sites.json")}
    assert {p: after[p] for p in untouched} == {p: memo[p] for p in untouched}


def edit_first_value(data: bytes) -> bytes:
    """`data`, a daily CSV, with the leading digit of its first record's
    value changed: the same size, another annual mean."""
    first = data.index(b"\n") + 1
    i = data.index(b",", data.index(b",", first) + 1) + 1
    digit = data[i:i + 1]
    assert digit.isdigit()
    return data[:i] + (b"8" if digit == b"9" else bytes([digit[0] + 1])) + data[i + 1:]


def assert_same_artifacts(out: Path, fresh: Path) -> None:
    bookkeeping = {"manifest.json", "report.json", "run.log"}
    names = sorted(p.name for p in fresh.iterdir() if p.name not in bookkeeping)
    assert names == sorted(p.name for p in out.iterdir() if p.name not in bookkeeping)
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("edit", ["in place", "in place, old mtime", "replaced, old mtime"])
def test_same_size_edit_after_an_aged_run_recomputes(tmp_path, monkeypatch, edit):
    """A same-size change to one daily value, after a run whose memo is
    trusted, recomputes annualize and every stage after it: an edit in
    place, the same edit with the old mtime put back (st_ctime still
    moves), or a new file with the old mtime moved over the old one (a new
    inode). The artifacts are then those of a fresh run."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    out = cfg.out_dir
    run(cfg)
    age_the_clock(monkeypatch)
    run(cfg)
    daily = cfg.daily_csv
    old = daily.stat()
    edited = edit_first_value(daily.read_bytes())
    target = daily.with_name("daily.new") if edit.startswith("replaced") else daily
    target.write_bytes(edited)
    if edit.endswith("old mtime"):
        os.utime(target, ns=(old.st_atime_ns, old.st_mtime_ns))
    if target != daily:
        os.replace(target, daily)
    new = daily.stat()
    assert new.st_size == old.st_size
    assert (new.st_mtime_ns == old.st_mtime_ns) == edit.endswith("old mtime")
    assert (new.st_ino == old.st_ino) == (target == daily)
    before = (out / "run.log").read_text()
    run(cfg)
    assert new_log_lines(out / "run.log", before) == dict.fromkeys(pipeline.STAGES, "status=ok")
    cfg.out_dir = tmp_path / "fresh"
    run(cfg)
    assert_same_artifacts(out, cfg.out_dir)


def test_a_file_that_changes_while_hashed_is_not_memoized(tmp_path, monkeypatch):
    """A file that a writer appends to while it is hashed keeps no memo
    entry, so the next run hashes it again and sees the change; here the
    covariate specs gain a trailing space (the same JSON), which reruns the
    covariates and predict stages."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    specs, manifest = cfg.covariates_json, cfg.out_dir / "manifest.json"
    run(cfg)
    age_the_clock(monkeypatch)
    run(cfg)  # every memo entry is now trusted
    os.utime(specs)  # so the next run hashes the specs

    def hash_then_append(path):
        digest = _util.sha256_file(path)
        if Path(path) == specs:
            with open(path, "a") as f:
                f.write(" ")
        return digest

    monkeypatch.setattr(pipeline, "sha256_file", hash_then_append)
    run(cfg)
    memo = json.loads(manifest.read_text())["files"]
    assert str(specs) not in memo and str(cfg.daily_csv) in memo
    calls = count_hashes(monkeypatch)
    before = (cfg.out_dir / "run.log").read_text()
    run(cfg)
    assert specs in calls and cfg.daily_csv not in calls
    assert new_log_lines(cfg.out_dir / "run.log", before) == {
        "annualize": "status=cached", "covariates": "status=ok", "fit": "status=cached",
        "cv": "status=cached", "predict": "status=ok", "exposure": "status=cached"}
    assert str(specs) in json.loads(manifest.read_text())["files"]


@pytest.mark.parametrize("damage", ["truncated", "a list", "a stage entry not an object",
                                    "a malformed memo entry"])
def test_unreadable_manifest_is_logged_and_read_as_empty(tmp_path, monkeypatch, caplog,
                                                         damage):
    """A manifest that does not parse, or is not an object of stage
    entries, is read as empty with one warning naming it, so every stage
    recomputes (hashing the inputs and the artifacts a later stage reads);
    a malformed file-hash memo is read as empty the same way, so every file
    is hashed while the stages stay cached."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    manifest = cfg.out_dir / "manifest.json"
    first = run(cfg)
    age_the_clock(monkeypatch)
    run(cfg)  # every memo entry is now trusted
    good = json.loads(manifest.read_text())
    if damage == "truncated":
        manifest.write_text('{"annualize": ')
    elif damage == "a list":
        manifest.write_text("[]")
    elif damage == "a stage entry not an object":
        manifest.write_text(json.dumps({**good, "fit": []}))
    else:
        good["files"][str(cfg.daily_csv)]["stat"] = "not a stat"
        manifest.write_text(json.dumps(good))
    calls = count_hashes(monkeypatch)
    before = (cfg.out_dir / "run.log").read_text()
    with caplog.at_level(logging.WARNING, logger="lurk.pipeline"):
        second = run(cfg)
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1 and str(manifest) in warnings[0]
    cached = damage == "a malformed memo entry"
    assert new_log_lines(cfg.out_dir / "run.log", before) == dict.fromkeys(
        pipeline.STAGES, "status=cached" if cached else "status=ok")
    assert set(calls) == {Path(p) for p in good["files"] if cached
                          or Path(p).parent != cfg.out_dir or Path(p).name in READ_ARTIFACTS}
    assert {s: e["outputs"] for s, e in second.stages.items()} == \
        {s: e["outputs"] for s, e in first.stages.items()}
    assert set(json.loads(manifest.read_text())["files"]) == {str(p) for p in calls}


def test_a_stage_entry_without_metrics_recomputes_that_stage(tmp_path):
    """A manifest entry without its metrics (an older manifest, or a hand
    edit) is a cache miss: that stage recomputes, the stages after it stay
    cached (its output comes out the same) and the report is unchanged."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    manifest = cfg.out_dir / "manifest.json"
    run(cfg)
    report_before = report_without_timings(cfg.out_dir)
    damaged = json.loads(manifest.read_text())
    metrics = damaged["fit"].pop("metrics")
    manifest.write_text(json.dumps(damaged))
    before = (cfg.out_dir / "run.log").read_text()
    run(cfg)
    assert new_log_lines(cfg.out_dir / "run.log", before) == {
        **dict.fromkeys(pipeline.STAGES, "status=cached"), "fit": "status=ok"}
    assert report_without_timings(cfg.out_dir) == report_before
    assert json.loads(manifest.read_text())["fit"]["metrics"] == metrics


def test_a_deleted_output_recomputes_only_its_stage(tmp_path):
    """A deleted `matrix.csv` is a cache miss for the covariates stage
    alone: it is written again with the same bytes, and the stages that
    read it stay cached."""
    config_path, _ = write(tmp_path, scenario(seed=14))
    cfg = PipelineConfig.from_json(config_path)
    run(cfg)
    matrix = cfg.out_dir / "matrix.csv"
    data = matrix.read_bytes()
    matrix.unlink()
    before = (cfg.out_dir / "run.log").read_text()
    run(cfg)
    assert new_log_lines(cfg.out_dir / "run.log", before) == {
        **dict.fromkeys(pipeline.STAGES, "status=cached"), "covariates": "status=ok"}
    assert matrix.read_bytes() == data


def test_a_compute_that_skips_an_output_fails_its_stage(tmp_path, monkeypatch):
    config_path, _ = write(tmp_path, scenario(seed=14))
    monkeypatch.setattr(MonitorTable, "to_csv", lambda self, path: None)
    with pytest.raises(StageError, match=r"not write its outputs \['monitors.csv'\]") as failed:
        run(PipelineConfig.from_json(config_path))
    assert failed.value.stage == "annualize"


def test_an_output_swapped_after_its_write_recomputes_its_stage(tmp_path, monkeypatch):
    """A stage's entry records each output's hash from the bytes the stage
    wrote, not from the file after the stage: a `model.json` that another
    run's replaces right after the fit stage wrote it (here a PLS model
    under a stepwise recipe) makes the next run recompute fit, and predict
    and exposure after it, instead of serving the PLS model from the
    cache."""
    config_path, _ = write(tmp_path, scenario(seed=14),
                           recipe={"selection": "stepwise", "kriging": True})
    cfg = PipelineConfig.from_json(config_path)
    pls = PipelineConfig.from_json(config_path)
    pls.recipe = ModelRecipe(selection="pls", kriging=True)
    pls.out_dir = tmp_path / "pls"
    run(pls)
    dump_json = pipeline.dump_json

    def dump_then_swap(obj, path, **kwargs):
        text = dump_json(obj, path, **kwargs)
        if Path(path).name == "model.json":
            shutil.copyfile(pls.out_dir / "model.json", path)
        return text

    monkeypatch.setattr(pipeline, "dump_json", dump_then_swap)
    run(cfg)
    monkeypatch.setattr(pipeline, "dump_json", dump_json)
    before = (cfg.out_dir / "run.log").read_text()
    run(cfg)
    assert new_log_lines(cfg.out_dir / "run.log", before) == {
        **dict.fromkeys(pipeline.STAGES, "status=ok"), "annualize": "status=cached",
        "covariates": "status=cached", "cv": "status=cached"}
    out, cfg.out_dir = cfg.out_dir, tmp_path / "fresh"
    run(cfg)
    assert_same_artifacts(out, cfg.out_dir)


@pytest.mark.parametrize("script", ["model_family_sweep.py", "bench.py"])
def test_scripts_import_against_the_api(script):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_and_restores_the_library(tmp_path):
    """perfbench/tracer.py wraps library names by attribute, and
    perfbench/workloads.py calls the library and reads the run directory;
    a rename or deletion of what they use fails here, not first in a
    benchmark run. `per_kind_calls` is the only caller of
    `rasterize_covariates` and `RasterGrid.filled`, and `observe_pipeline`
    parses the tail of `run.log`."""
    tracer_module, workloads = _perfbench_module("tracer"), _perfbench_module("workloads")
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

    out, kinds = config_path.parent / "run", tracer_module.Tracer()
    workloads.per_kind_calls(config_path, out, kinds, {"build_matrix": 1, "rasterize": 1})
    for call in ("build_matrix", "rasterize"):
        assert len(kinds.durations(f"covariates.{call}.all")) == 1, call
        assert sum(len(kinds.durations(f"covariates.{call}.{kind}"))
                   for kind in workloads.KINDS) > 1, call
    assert run(PipelineConfig.from_json(config_path)).status == "ok"
    observed = workloads.observe_pipeline(out)
    assert observed["last_run_cached"] == sorted(pipeline.STAGES)
    assert observed["status"] == "ok" and observed["folds"] > 10
    assert workloads.check_pipeline(observed, None) == ["no reference recorded for this operation"]


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

    order = ("annualize", "covariates", "fit", "predict", "exposure", "cv")  # cv runs last
    for i, stage in enumerate(pipeline.STAGES[:-1]):
        logged = invoke(stage)
        assert list(logged) == [s for s in order if s in pipeline.STAGES[:i + 1]], stage
        assert all(logged[s] == "status=cached" for s in pipeline.STAGES[:i]), logged
        assert logged[stage] == "status=ok"
    logged = invoke("run")
    assert all(logged[s] == "status=cached" for s in pipeline.STAGES[:-1]), logged
    assert logged["exposure"] == "status=ok"

    fresh = tmp_path / "fresh"
    res = runner.invoke(cli_main, ["--config", str(config_path), "--out", str(fresh), "run"])
    assert res.exit_code == 0, res.output
    assert_same_artifacts(out, fresh)

    logged = invoke("montecarlo", "--n-grid", "20", "--iterations", "1")
    assert logged == {"annualize": "status=cached", "covariates": "status=cached"}
    assert (out / "montecarlo.csv").exists()

    with pytest.raises(InvalidArgumentError, match="bogus"):
        run(PipelineConfig.from_json(config_path), until="bogus")


def test_cli_window_variance_needs_a_prediction_lattice(tmp_path):
    """`exposure --window-cells` on a config without `prediction` once read
    an earlier run's prediction.asc; it fails by name and writes nothing."""
    config_path, _ = write(tmp_path, scenario(seed=15))
    out = config_path.parent / "run"
    runner, args = CliRunner(), ["--config", str(config_path), "exposure", "--window-cells", "3"]
    res = runner.invoke(cli_main, args)
    assert res.exit_code == 0, res.output
    (out / "window_variance_3.asc").unlink()
    config = json.loads(config_path.read_text())
    del config["prediction"]
    config_path.write_text(json.dumps(config))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    res = runner.invoke(cli_main, args)
    assert res.exit_code == 1
    assert res.output == "Error: --window-cells needs a config with a prediction lattice\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_reports_a_lurk_error_in_one_line(tmp_path):
    """A config error and a failed stage each reach the user as one line,
    `Error: <message>`, with exit code 1 and no traceback."""
    config_path, _ = write(tmp_path, scenario(seed=15))
    runner, good = CliRunner(), config_path.read_text()
    config_path.write_text(json.dumps({**json.loads(good), "monitors": 5}))
    res = runner.invoke(cli_main, ["--config", str(config_path), "run"])
    assert res.exit_code == 1
    assert res.output == "Error: config monitors must be an object, got 5\n"

    config_path.write_text(good)
    grid = config_path.parent / "inputs" / "grids" / "satellite.asc"
    grid.write_text("\n".join(grid.read_text().splitlines()[:-1]) + "\n")  # one row short
    res = runner.invoke(cli_main, ["--config", str(config_path), "run"])
    assert res.exit_code == 1
    assert res.output.startswith("Error: stage 'covariates' failed: ")
    assert "satellite.asc" in res.output and res.output.count("\n") == 1
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args, message", [
    (["exposure", "--window-cells", "0"], "0 is not a positive odd integer"),
    (["exposure", "--window-cells", "4"], "4 is not a positive odd integer"),
    (["montecarlo", "--n-grid", "20,,40"],
     "'20,,40' is not a comma-separated list of positive integers"),
    (["montecarlo", "--n-grid", "20,0"],
     "'20,0' is not a comma-separated list of positive integers"),
    (["montecarlo", "--iterations", "0"], "0 is not in the range x>=1"),
])
def test_cli_checks_its_options_before_anything_runs(tmp_path, args, message):
    config_path, _ = write(tmp_path, scenario(seed=15))
    res = CliRunner().invoke(cli_main, ["--config", str(config_path), *args])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (config_path.parent / "run").exists()


NOT_JSON = {
    "truncated": b'{"pollutant": ',
    "trailing comma": b'[{"name": "a", "kind": "coordinate_x"},]',
    "not UTF-8": b'{"pollutant": "no\xb2"}',
}


@pytest.mark.parametrize("role, text", [
    ("config", "truncated"), ("config", "not UTF-8"), ("covariates", "trailing comma"),
    ("scenario", "truncated"), ("scenario", "not UTF-8"), ("report", "trailing comma"),
])
def test_cli_names_a_json_file_that_does_not_parse(tmp_path, role, text):
    """A hand-written JSON input that does not decode or parse reaches the
    user as one line, `Error: <file>: ...`, with exit code 1; a parse error
    gives its line and column. Each once printed a traceback, or (the
    covariate file) a parse error that named no file."""
    args = {"config": ["--config", "{}", "run"], "scenario": ["synth", "--scenario", "{}"],
            "report": ["compare", "{}"]}
    if role == "covariates":
        config_path, _ = write(tmp_path, scenario(seed=15))
        path = config_path.parent / "covariates.json"
        args = ["--config", str(config_path), "run"]
    else:
        path = tmp_path / f"{role}.json"
        args = [a.format(path) for a in args[role]]
    path.write_bytes(NOT_JSON[text])
    res = CliRunner().invoke(cli_main, ["--out", str(tmp_path / "out"), *args]
                             if role == "scenario" else args)
    assert res.exit_code == 1, res.output
    assert res.output.startswith("Error: ") and res.output.count("\n") == 1, res.output
    assert f"{path}: not JSON text: " in res.output
    if text != "not UTF-8":
        assert re.search(r"line 1 column \d+", res.output), res.output


@pytest.mark.parametrize("args", [
    ["--config", "{}", "run"], ["synth", "--scenario", "{}"], ["compare", "{}"],
])
def test_cli_refuses_a_directory_for_a_json_file(tmp_path, args):
    """Each once got past option parsing and printed an IsADirectoryError
    traceback."""
    res = CliRunner().invoke(cli_main, [a.format(tmp_path) for a in args])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output and "Traceback" not in res.output


def test_compare_names_a_report_that_is_not_an_object(tmp_path):
    """A report that is not a JSON object once failed with a bare
    AttributeError."""
    with pytest.raises(InvalidArgumentError, match=re.escape("report 2 must be an object")):
        compare_models([{"dataset_hash": "h"}, ["h"]])
    report = tmp_path / "report.json"
    report.write_text("[1]")
    res = CliRunner().invoke(cli_main, ["compare", str(report)])
    assert (res.exit_code, res.output) == (1, "Error: report 1 must be an object, got [1]\n")


def test_cli_synth_names_an_unknown_scenario_key(tmp_path):
    scenario_path, out = tmp_path / "scenario.json", tmp_path / "scn"
    scenario_path.write_text(json.dumps({"seed": 3, "n_site": 40}))
    res = CliRunner().invoke(cli_main, ["--out", str(out), "synth",
                                        "--scenario", str(scenario_path)])
    assert res.exit_code == 1
    assert res.output == "Error: unknown scenario keys: ['n_site']\n"
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    ({"n_sites": "40"}, "scenario n_sites must be an integer > 0, got '40'"),
    ({"n_sites": 40.0}, "scenario n_sites must be an integer > 0, got 40.0"),
    ({"seed": True}, "scenario seed must be an integer, got True"),
    ({"covariate_set": "huge"}, 'scenario covariate_set must be "mini" or "full", got \'huge\''),
], ids=["string", "float-for-int", "bool", "unknown-preset"])
def test_cli_synth_names_a_bad_scenario_value(tmp_path, fields, message):
    scenario_path, out = tmp_path / "scenario.json", tmp_path / "scn"
    scenario_path.write_text(json.dumps({"seed": 3, **fields}))
    res = CliRunner().invoke(cli_main, ["--out", str(out), "synth",
                                        "--scenario", str(scenario_path)])
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"
    assert not out.exists()


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
