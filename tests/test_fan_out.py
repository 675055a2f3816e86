"""The fan-out of the geo-input parse to forked workers (`_util.FanOut`,
started by `pipeline._stages`): workers deliver values or nothing, and the
parent parses every file they did not deliver, and extracts every site
column the covariates stage does not take from them. The same for the
CV folds, refit in workers while the parent fits, maps and scores exposure
(and then refits those still queued): the cv stage refits every fold they
did not deliver (`evaluation.run_cv`). The same artifacts with workers as
without, errors named as a parse in the parent
names them, one warning for a dead worker's files, no worker that outlives
a run, none started by a cached rerun, no prefetched value used for bytes
the stage key does not name. The same rule for the scenario writers of
`synth.write_scenario` (the parent writes every file no worker wrote) and
for the evaluations of `synth.generate_synthetic` (the parent runs every
job no worker delivered, `_util.run_jobs`), whose data has the same bits
with workers as without."""

import dataclasses
import fcntl
import json
import logging
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lurk import _util, covariates, evaluation, geodata, monitors, pipeline, synth
from lurk.errors import GridFormatError, InvalidArgumentError, ScenarioError, StageError
from lurk.pipeline import PipelineConfig, run
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario
from lurk._util import stage_seed
from test_pipeline import new_log_lines, scenario, write
from test_synth import _assert_same_data

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="FanOut forks only on Linux")
READERS = ("read_features", "read_raster", "read_categorical")
GEO_INPUTS = ("poi_gas.csv", "roads_major.csv", "elevation.asc", "satellite.asc",
              "landcover.asc")  # of the test scenario, in config order
SKIPPED = {"manifest.json", "report.json", "run.log", ".lock"}  # timings, keys, the lock
LOST = "jobs were lost in workers (a worker died, or a value did not pickle); the parent runs"


def cpus(monkeypatch, n: int) -> None:
    """Make `FanOut` see `n` usable cores, whatever the host has, and fork
    for work of any cost (a floor of 0 s), so that small test scenarios
    still run their jobs in workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(_util, "FORK_FLOOR_S", 0.0)


def record_reader_calls(monkeypatch, log: Path, fault=None) -> None:
    """Wrap the geodata readers so that each call appends "<pid> <file
    name>" to `log`, from whichever process makes it; with `fault`, each
    call on a file of that name raises GridFormatError instead."""
    for name in READERS:
        def reader(path, *args, original=getattr(geodata, name), **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {Path(path).name}\n")
            if Path(path).name == fault:
                raise GridFormatError(f"{path}: patched fault in process {os.getpid()}")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(geodata, name, reader)


def reader_calls(log: Path) -> list[tuple[int, str]]:
    lines = log.read_text().split("\n") if log.exists() else []
    return [(int(pid), name) for pid, name in (line.split() for line in lines if line)]


def warnings_in(caplog) -> list[str]:
    """The messages of the warnings, and worse, that `caplog` holds."""
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in SKIPPED}


def record_refits(monkeypatch, log: Path, in_worker=None) -> None:
    """Wrap `evaluation._refit`, which each fold job and each fold the cv
    stage refits itself call, so that each call appends "<pid> <training
    sites>" to `log`; in a worker process, `in_worker()` runs right after."""
    parent, original = os.getpid(), evaluation._refit

    def refit(recipe, sites, matrix, train, at, seed):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {len(train)}\n")
        if in_worker is not None and os.getpid() != parent:
            in_worker()
        return original(recipe, sites, matrix, train, at, seed)

    monkeypatch.setattr(evaluation, "_refit", refit)


def refit_pids(log: Path) -> list[int]:
    return [pid for pid, _ in reader_calls(log)]


def fit_after_a_worker_refit(monkeypatch, log: Path) -> None:
    """Make the parent's fit stage wait, while fold workers run, until one
    has started a refit (`record_refits` logs it): a busy parent runs the
    folds still queued when it reaches the cv stage, and on a small
    scenario it could otherwise run them all before a worker takes one."""
    fit_recipe = pipeline.fit_recipe

    def fit(*args, **kwargs):
        deadline = time.monotonic() + 60
        while (multiprocessing.active_children() and time.monotonic() < deadline
               and set(refit_pids(log)) <= {os.getpid()}):
            time.sleep(0.005)
        return fit_recipe(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_recipe", fit)


def annualize_after_a_worker(monkeypatch, log: Path, name=None, then=None) -> None:
    """Make annualize wait until a geo worker has logged a call in `log`
    (`reader_calls`; one on `name` when given): a busy parent runs the geo
    jobs still queued once annualize is done, and on a small scenario it
    could otherwise run them all before a worker takes one. `then(site_meta)`,
    when given, runs next and gives the site metadata annualize is handed."""
    annualize, parent = pipeline.annualize, os.getpid()

    def waiting(records, site_meta, year):
        deadline = time.monotonic() + 60
        while not any(pid != parent and name in (None, *called.split("+"))
                      for pid, called in reader_calls(log)):
            assert time.monotonic() < deadline, f"no worker logged a call on {name}"
            time.sleep(0.005)
        return annualize(records, site_meta if then is None else then(site_meta), year)

    monkeypatch.setattr(pipeline, "annualize", waiting)


def record_extract_calls(monkeypatch, log: Path, fault=None) -> None:
    """Wrap `covariates.extract` so that each call appends "<pid>
    <sources>" to `log` (read back by `reader_calls`; the sources its specs
    read, joined by "+"), from whichever process makes it; with `fault`,
    each call on specs that read a source of that name raises
    InvalidArgumentError instead."""
    original = covariates.extract

    def extract(specs, *args, **kwargs):
        sources = sorted({spec.source for spec in specs if spec.source})
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {'+'.join(sources) or '-'}\n")
        if fault in sources:
            raise InvalidArgumentError(f"{fault}: patched engine fault in process {os.getpid()}")
        return original(specs, *args, **kwargs)

    monkeypatch.setattr(covariates, "extract", extract)


def record_given_columns(monkeypatch) -> list:
    """Wrap `covariates.build_matrix` so that each call appends the names
    of the columns it is given, extracted already, to the returned list."""
    given, original = [], covariates.build_matrix

    def build_matrix(*args, columns=None, **kwargs):
        given.append(set(columns or ()))
        return original(*args, columns=columns, **kwargs)

    monkeypatch.setattr(covariates, "build_matrix", build_matrix)
    return given


def shuffle_sites(config_path: Path, seed: int = 0) -> None:
    """Rewrite the scenario's sites.csv with its rows in a seeded order."""
    path = config_path.parent / "inputs" / "sites.csv"
    header, *rows = path.read_text().splitlines()
    order = np.random.default_rng(seed).permutation(len(rows))
    path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")


def geo_specs(config_path: Path) -> set:
    """The names of the specs that read a geo input."""
    return {s.name for s in covariates.read_specs(config_path.parent / "covariates.json")
            if s.source}


@linux_only
def test_artifacts_are_byte_identical_with_and_without_workers(tmp_path, monkeypatch):
    """The same scenario, with excluded sites and its sites.csv shuffled,
    run with two workers (one of them the busy parent), with none because
    one core is usable, and with none because it runs outside the main
    thread, writes the same bytes, the CV files among them. Only the first
    run parses a geo input, or refits a CV fold, outside this process, and
    only it hands `build_matrix` site columns the geo jobs extracted: one
    for every spec that reads a geo input, picked by site id."""
    log, refits = tmp_path / "calls.log", tmp_path / "refits.log"
    record_reader_calls(monkeypatch, log)
    record_refits(monkeypatch, refits)
    fit_after_a_worker_refit(monkeypatch, refits)
    given = record_given_columns(monkeypatch)
    sc = scenario(seed=3, n_excluded_sites=3, daily_noise_sd=2.0)
    got = {}
    for way in ("workers", "one core", "thread"):
        config_path, _ = write(tmp_path, sc, name=way.replace(" ", "_"))
        shuffle_sites(config_path)
        cpus(monkeypatch, 1 if way == "one core" else 2)
        log.unlink(missing_ok=True)
        refits.unlink(missing_ok=True)
        given.clear()
        if way == "thread":
            reports = []
            worker = threading.Thread(target=lambda: reports.append(
                run(PipelineConfig.from_json(config_path))))
            worker.start()
            worker.join(timeout=300)
            assert reports and reports[0].status == "ok"
        else:
            with monkeypatch.context() as patched:
                if way == "workers":
                    annualize_after_a_worker(patched, log)
                assert run(PipelineConfig.from_json(config_path)).status == "ok"
        calls = [(pid, name) for pid, name in reader_calls(log) if name in GEO_INPUTS]
        assert sorted(name for _, name in calls) == sorted(GEO_INPUTS)  # once each
        assert ({pid for pid, _ in calls} != {os.getpid()}) == (way == "workers"), way
        assert (set(refit_pids(refits)) != {os.getpid()}) == (way == "workers"), way
        assert given == [geo_specs(config_path) if way == "workers" else set()], way
        got[way] = artifacts(config_path.parent / "run")
    assert {"matrix.csv", "prediction.asc", "cv_kfold.csv", "cv_logo.csv",
            "cv_summary.json"} <= set(got["workers"])
    assert len(json.loads(got["workers"]["excluded_sites.json"])["excluded"]) == 3
    assert got["workers"] == got["one core"] == got["thread"]


def move_sites(config_path: Path, n: int = 5) -> None:
    """Rewrite sites.csv with its first `n` sites 250 m further east."""
    path = config_path.parent / "inputs" / "sites.csv"
    header, *rows = path.read_text().splitlines()
    x = header.split(",").index("x")
    for i in range(n):
        fields = rows[i].split(",")
        fields[x] = repr(float(fields[x]) + 250.0)
        rows[i] = ",".join(fields)
    path.write_text("\n".join([header, *rows]) + "\n")


@linux_only
@pytest.mark.parametrize("rewritten", ["covariates.json", "sites.csv"])
def test_site_columns_whose_inputs_changed_are_extracted_again(tmp_path, monkeypatch,
                                                               rewritten):
    """After a geo worker has started with the specs and sites it extracts
    for, annualize runs with a rewritten covariates.json (one point-count
    buffer of `poi_gas` doubled), or is handed the coordinates of a
    rewritten sites.csv (five sites moved). The covariates stage takes the
    jobs' columns only for the spec groups that did not change (none once
    a site's coordinates differ), extracts every other column itself, and
    the artifacts match a fresh run on the new files, whose matrix differs
    from the old files'."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=5), name="changed")
    log, specs_path = tmp_path / "calls.log", config_path.parent / "covariates.json"
    record_reader_calls(monkeypatch, log)
    given = record_given_columns(monkeypatch)
    specs = covariates.read_specs(specs_path)
    poi = covariates.specs_reading(specs, "layers", "poi_gas")
    changed = next(s for s in poi if s.kind == "point_count")

    def rewrite(site_meta):
        if rewritten == "sites.csv":
            move_sites(config_path)
            return monitors.read_sites_csv(config_path.parent / "inputs" / "sites.csv")
        covariates.write_specs([dataclasses.replace(s, buffer_m=2 * s.buffer_m)
                                if s == changed else s for s in specs], specs_path)
        return site_meta

    with monkeypatch.context() as patched:
        annualize_after_a_worker(patched, log, then=rewrite)
        run(PipelineConfig.from_json(config_path))
    taken = geo_specs(config_path) - {s.name for s in poi}
    assert given == [set() if rewritten == "sites.csv" else taken]

    fresh = tmp_path / "fresh"
    shutil.copytree(config_path.parent / "inputs", fresh / "inputs")
    for name in ("config.json", "covariates.json"):
        shutil.copy(config_path.parent / name, fresh / name)
    run(PipelineConfig.from_json(fresh / "config.json"))
    got, want = artifacts(config_path.parent / "run"), artifacts(fresh / "run")
    assert got == want
    stale, _ = write(tmp_path, scenario(seed=5), name="stale")
    run(PipelineConfig.from_json(stale))
    assert artifacts(stale.parent / "run")["matrix.csv"] != got["matrix.csv"]


@linux_only
def test_a_fault_in_the_engine_reaches_a_worker(tmp_path, monkeypatch):
    """A fault patched into `covariates.extract` for the elevation grid's
    specs reaches the geo worker that extracts them, and the covariates
    stage fails with the engine's error, raised by the parent's own
    extraction of the columns no job delivered."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=14))
    log = tmp_path / "calls.log"
    record_extract_calls(monkeypatch, log, fault="elevation")
    annualize_after_a_worker(monkeypatch, log, name="elevation")
    with pytest.raises(StageError) as failed:
        run(PipelineConfig.from_json(config_path))
    assert failed.value.stage == "covariates"
    assert type(failed.value.cause) is InvalidArgumentError
    assert str(failed.value.cause) == f"elevation: patched engine fault in process {os.getpid()}"
    assert any(pid != os.getpid() and name == "elevation" for pid, name in reader_calls(log))
    assert multiprocessing.active_children() == []


@linux_only
@pytest.mark.parametrize("n_cpus", [2, 1])
def test_the_first_malformed_input_in_config_order_is_named(tmp_path, monkeypatch, n_cpus):
    """With a grid and the land cover both malformed, the covariates stage
    fails on the grid, which comes first in config order, with the error
    and message that reading it alone gives, however many workers parse
    them; the land cover is the largest input, so a worker parses it
    first."""
    cpus(monkeypatch, n_cpus)
    config_path, _ = write(tmp_path, scenario(seed=5))
    grids = config_path.parent / "inputs" / "grids"
    for name in ("satellite.asc", "landcover.asc"):
        text = (grids / name).read_text().splitlines()
        (grids / name).write_text("\n".join(text[:-1]) + "\n")  # one row short
    with pytest.raises(GridFormatError) as alone:
        geodata.read_raster(grids / "satellite.asc")
    with pytest.raises(StageError) as failed:
        run(PipelineConfig.from_json(config_path))
    assert failed.value.stage == "covariates"
    assert type(failed.value.cause) is GridFormatError
    assert str(failed.value.cause) == str(alone.value)
    assert "satellite.asc" in str(alone.value)
    assert multiprocessing.active_children() == []


def lock_is_free(out: Path) -> bool:
    fd = os.open(out / ".lock", os.O_RDWR)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


@linux_only
def test_no_worker_outlives_a_run(tmp_path, monkeypatch):
    """No child process is alive, and the output directory's lock is free,
    after a run that completes, a run through annualize only, and a run
    whose annualize fails while the workers are still parsing; the run
    after each takes the lock at once."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=14))
    out = config_path.parent / "run"
    log = tmp_path / "calls.log"

    def slow(path, *args, original=geodata.read_raster, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {Path(path).name}\n")
        time.sleep(20.0)
        return original(path, *args, **kwargs)

    def failing_annualize(*args, **kwargs):
        deadline = time.monotonic() + 60
        while not reader_calls(log) and time.monotonic() < deadline:
            time.sleep(0.01)  # until a worker is inside its slow parse
        raise InvalidArgumentError("annualize fails on purpose")

    with monkeypatch.context() as patched:
        patched.setattr(geodata, "read_raster", slow)
        patched.setattr(pipeline, "annualize", failing_annualize)
        t0 = time.perf_counter()
        with pytest.raises(StageError, match="annualize fails on purpose"):
            run(PipelineConfig.from_json(config_path))
        assert time.perf_counter() - t0 < 10.0  # the workers were stopped, not waited for
    assert [pid for pid, _ in reader_calls(log)][0] != os.getpid()
    assert multiprocessing.active_children() == [] and lock_is_free(out)
    assert run(PipelineConfig.from_json(config_path), until="annualize").status == "ok"
    assert multiprocessing.active_children() == [] and lock_is_free(out)
    assert run(PipelineConfig.from_json(config_path)).status == "ok"
    assert multiprocessing.active_children() == [] and lock_is_free(out)
    assert run(PipelineConfig.from_json(config_path)).status == "ok"


def test_a_cached_rerun_starts_no_process(tmp_path, monkeypatch):
    """With workers for work of any cost, a fully cached rerun starts
    neither the geo parse nor the folds: it forks nothing."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=4))
    run(PipelineConfig.from_json(config_path))
    before = (config_path.parent / "run" / "run.log").read_text()

    def refuse():
        raise AssertionError("a cached rerun forked")

    monkeypatch.setattr(os, "fork", refuse)
    run(PipelineConfig.from_json(config_path))
    assert new_log_lines(config_path.parent / "run" / "run.log", before) == dict.fromkeys(
        pipeline.STAGES, "status=cached")


def test_work_below_the_floor_starts_no_process(tmp_path, monkeypatch):
    """With two usable cores and the floor as it is, a mini scenario's
    generation, its writing and a cold pipeline run on it each cost less
    than `FORK_FLOOR_S`, so none of them forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def refuse():
        raise AssertionError("work below the floor forked")

    monkeypatch.setattr(os, "fork", refuse)
    config_path, _ = write(tmp_path, scenario(seed=4))
    assert run(PipelineConfig.from_json(config_path)).status == "ok"


def test_annualize_starts_the_geo_parse_when_the_run_goes_past_it(tmp_path, monkeypatch):
    """A run past annualize builds its `FanOut` in the annualize stage's
    compute, before it calls `annualize`, even when the manifest holds a
    covariates entry (stale here: the code fingerprint changed), and the
    folds' `FanOut` right after covariates, the cv stage running last; a
    fully cached rerun and a run through annualize only build none. The
    geo parse is `busy` when annualize starts it, and not when the
    covariates stage does (annualize cached, the covariate set edited);
    the folds are busy when the fit computes, on a run through cv only (no
    maps) too, and not on a rerun whose `cv.k` alone changed (fit cached)."""
    cpus(monkeypatch, 1)
    config_path, _ = write(tmp_path, scenario(seed=4))
    run(PipelineConfig.from_json(config_path))
    events = []
    stage, fan_out, annualize = pipeline._Runner.stage, pipeline.FanOut, pipeline.annualize

    def recorded_fan_out(jobs, busy=False):
        events.append(f"FanOut busy={busy!r}")
        return fan_out(jobs, busy)

    monkeypatch.setattr(pipeline._Runner, "stage", lambda self, name, *args: (
        events.append(f"stage {name}"), stage(self, name, *args))[1])
    monkeypatch.setattr(pipeline, "FanOut", recorded_fan_out)
    monkeypatch.setattr(pipeline, "annualize", lambda *args: (
        events.append("annualize"), annualize(*args))[1])
    stages = [f"stage {name}" for name in
              ("annualize", "covariates", "fit", "predict", "exposure", "cv")]

    monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "other code")
    assert "covariates" in json.loads((config_path.parent / "run" / "manifest.json").read_text())
    run(PipelineConfig.from_json(config_path))
    assert events == [stages[0], "FanOut busy=True", "annualize", stages[1],
                      "FanOut busy=True", *stages[2:]]
    events.clear()
    run(PipelineConfig.from_json(config_path))
    assert events == stages
    events.clear()
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**config, "cv": {**config.get("cv", {}), "k": 5}}))
    run(PipelineConfig.from_json(config_path))
    assert events == [*stages[:2], "FanOut busy=False", *stages[2:]]
    events.clear()
    covariates_json = config_path.parent / "covariates.json"
    covariates_json.write_text(json.dumps(json.loads(covariates_json.read_text())[:-1]))
    run(PipelineConfig.from_json(config_path))
    assert events == [*stages[:2], "FanOut busy=False", "FanOut busy=True", *stages[2:]]
    events.clear()
    monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "third code")
    run(PipelineConfig.from_json(config_path), until="annualize")
    assert events == [stages[0], "annualize"]
    events.clear()
    monkeypatch.setattr(pipeline, "code_fingerprint", lambda: "fourth code")
    run(PipelineConfig.from_json(config_path), until="cv")
    assert events == [stages[0], "FanOut busy=True", "annualize", stages[1],
                      "FanOut busy=True", stages[2], stages[5]]


@linux_only
def test_a_grid_rewritten_after_its_prefetch_is_parsed_again(tmp_path, monkeypatch):
    """Annualize rewrites a grid after a worker parsed it and before the
    covariates stage takes its key: the stage parses the new file in the
    parent and its artifacts match a fresh run on the new file."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=5), name="changed")
    grid = config_path.parent / "inputs" / "grids" / "elevation.asc"
    old = geodata.read_raster(grid)
    new = old.with_values(np.where(old.values == old.nodata, old.nodata, old.values + 10.0))
    log = tmp_path / "calls.log"
    record_reader_calls(monkeypatch, log)
    annualize = pipeline.annualize

    def rewriting_annualize(*args, **kwargs):
        # A worker calls the reader once it has read the file's bytes.
        deadline = time.monotonic() + 60
        while not any(name == "elevation.asc" for _, name in reader_calls(log)):
            assert time.monotonic() < deadline, "no worker read the grid"
            time.sleep(0.01)
        geodata.write_raster(new, grid)
        return annualize(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "annualize", rewriting_annualize)
        run(PipelineConfig.from_json(config_path))
    elevation = [pid for pid, name in reader_calls(log) if name == "elevation.asc"]
    assert elevation[0] != os.getpid() and elevation[-1] == os.getpid()

    fresh = tmp_path / "fresh"
    shutil.copytree(config_path.parent / "inputs", fresh / "inputs")
    for name in ("config.json", "covariates.json"):
        shutil.copy(config_path.parent / name, fresh / name)
    run(PipelineConfig.from_json(fresh / "config.json"))
    got, want = artifacts(config_path.parent / "run"), artifacts(fresh / "run")
    assert got == want
    stale, _ = write(tmp_path, scenario(seed=5), name="stale")
    run(PipelineConfig.from_json(stale))
    assert artifacts(stale.parent / "run")["matrix.csv"] != got["matrix.csv"]


@linux_only
def test_workers_call_the_readers_by_module_attribute(tmp_path, monkeypatch):
    """A fault patched into `geodata.read_raster` reaches the workers, and
    the stage fails with it."""
    cpus(monkeypatch, 2)
    config_path, _ = write(tmp_path, scenario(seed=14))
    log = tmp_path / "calls.log"
    record_reader_calls(monkeypatch, log, fault="satellite.asc")
    annualize_after_a_worker(monkeypatch, log, name="satellite.asc")
    with pytest.raises(StageError, match="patched fault") as failed:
        run(PipelineConfig.from_json(config_path))
    assert failed.value.stage == "covariates"
    assert any(pid != os.getpid() and name == "satellite.asc" for pid, name in reader_calls(log))


@linux_only
def test_a_worker_killed_in_a_grid_parse_costs_one_warning(tmp_path, monkeypatch, caplog):
    """A worker killed while it parses a grid delivers none of its files;
    the parent parses them, the run completes with the artifacts of a
    one-core run, and one warning is the only sign."""
    parent, log = os.getpid(), tmp_path / "calls.log"
    original = geodata.read_raster

    def killing(path, *args, **kwargs):
        if os.getpid() != parent and Path(path).name == "satellite.asc":
            with open(log, "a") as f:
                f.write(f"{os.getpid()} satellite.asc\n")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(path, *args, **kwargs)

    got = {}
    for n_cpus in (2, 1):
        cpus(monkeypatch, n_cpus)
        config_path, _ = write(tmp_path, scenario(seed=4), name=f"cpus{n_cpus}")
        caplog.clear()
        with monkeypatch.context() as patched, caplog.at_level(logging.WARNING):
            patched.setattr(geodata, "read_raster", killing)
            if n_cpus == 2:
                annualize_after_a_worker(patched, log, name="satellite.asc")
            assert run(PipelineConfig.from_json(config_path)).status == "ok"
        warnings = warnings_in(caplog)
        if n_cpus == 2:
            assert len(warnings) == 1 and LOST in warnings[0], warnings
        else:
            assert warnings == []
        assert multiprocessing.active_children() == []
        got[n_cpus] = artifacts(config_path.parent / "run")
    assert "matrix.csv" in got[2] and got[2] == got[1]


def test_on_one_core_no_geo_input_goes_through_a_job(tmp_path, monkeypatch):
    """With one usable core no worker starts, so a cold run parses each
    geo input once, in the parent's fallback, and never calls the job
    function `_read_geo` in this process."""
    cpus(monkeypatch, 1)
    jobs, log = [], tmp_path / "calls.log"
    record_reader_calls(monkeypatch, log)
    original = pipeline._read_geo
    monkeypatch.setattr(pipeline, "_read_geo", lambda *read: jobs.append(read) or original(*read))
    config_path, _ = write(tmp_path, scenario(seed=4))
    assert run(PipelineConfig.from_json(config_path)).status == "ok"
    assert jobs == []
    calls = [(pid, name) for pid, name in reader_calls(log) if name in GEO_INPUTS]
    assert sorted(calls) == sorted((os.getpid(), name) for name in GEO_INPUTS)


# -- the scenario writers ----------------------------------------------------------------

WRITERS = ((geodata, "write_features"), (geodata, "write_raster"),
           (geodata, "write_categorical"), (synth, "_write_sites"), (synth, "_write_daily"))
SCENARIO_INPUTS = ("sites.csv", "daily.csv", "roads_major.csv", "poi_gas.csv", "elevation.asc",
                   "satellite.asc", "landcover.asc", "population.asc")  # of a mini scenario
NOISY = SyntheticScenario(seed=3, n_sites=40, n_clusters=5, daily_noise_sd=2.0,
                          n_excluded_sites=3)


def record_writer_calls(monkeypatch, log: Path, fault=None) -> None:
    """Wrap the scenario's input writers so that each call appends "<pid>
    <file name>" to `log` (read back by `reader_calls`), from whichever
    process makes it; with `fault`, each call runs `fault(path)` before it
    writes."""
    for module, name in WRITERS:
        def writer(obj, path, original=getattr(module, name)):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {Path(path).name}\n")
            if fault is not None:
                fault(Path(path))
            return original(obj, path)

        monkeypatch.setattr(module, name, writer)


def scenario_files(directory: Path) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@linux_only
def test_scenario_files_are_byte_identical_with_and_without_workers(tmp_path, monkeypatch):
    """A scenario written with two workers, with none because one core is
    usable, and with none because it is written outside the main thread,
    has the same bytes; each input file is written once, by a worker in
    the first case and by this process in the others."""
    data = generate_synthetic(NOISY)
    log = tmp_path / "calls.log"
    record_writer_calls(monkeypatch, log)
    got = {}
    for way in ("workers", "one core", "thread"):
        cpus(monkeypatch, 1 if way == "one core" else 2)
        log.unlink(missing_ok=True)
        out = tmp_path / way.replace(" ", "_")
        if way == "thread":
            worker = threading.Thread(target=write_scenario, args=(data, out))
            worker.start()
            worker.join(timeout=300)
        else:
            write_scenario(data, out)
        calls = reader_calls(log)
        assert sorted(name for _, name in calls) == sorted(SCENARIO_INPUTS)
        assert {pid == os.getpid() for pid, _ in calls} == {way != "workers"}, way
        assert multiprocessing.active_children() == []
        got[way] = scenario_files(out)
    assert len(got["workers"]) == len(SCENARIO_INPUTS) + 3  # covariates, truth, config
    assert got["workers"] == got["one core"] == got["thread"]


@linux_only
def test_a_writer_killed_mid_file_leaves_its_files_to_the_parent(tmp_path, monkeypatch,
                                                                caplog):
    """A worker killed halfway through writing the elevation grid, its
    temporary file half written, delivers none of its files: the parent
    writes them with the bytes of a one-core write, and leaves no
    temporary file and no child process behind. One warning is the only
    sign, and the one-core write logs none."""
    data = generate_synthetic(NOISY)
    cpus(monkeypatch, 1)
    with caplog.at_level(logging.WARNING):
        write_scenario(data, tmp_path / "one_core")
    assert warnings_in(caplog) == []
    parent = os.getpid()

    def die_in_elevation(path):
        if os.getpid() != parent and path.name == "elevation.asc":
            path.with_name(path.name + ".tmp").write_text("ncols 50\nnrows")
            os._exit(3)

    log = tmp_path / "calls.log"
    record_writer_calls(monkeypatch, log, fault=die_in_elevation)
    cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING):
        write_scenario(data, tmp_path / "workers")
    got = warnings_in(caplog)
    assert len(got) == 1 and LOST in got[0], got
    elevation = [pid for pid, name in reader_calls(log) if name == "elevation.asc"]
    assert elevation[0] != parent and elevation[-1] == parent
    assert scenario_files(tmp_path / "workers") == scenario_files(tmp_path / "one_core")
    assert list((tmp_path / "workers").rglob("*.tmp")) == []
    assert multiprocessing.active_children() == []


@linux_only
@pytest.mark.parametrize("n_cpus", [2, 1])
def test_a_failing_daily_write_raises_from_the_parent(tmp_path, monkeypatch, n_cpus):
    """Daily noise that would break the annual mean raises the ScenarioError
    that the daily writer raises alone, from this process, however many
    workers write; no child process or temporary file is left. The other
    input files a worker wrote stay, each whole; on one core only
    `sites.csv`, which comes before `daily.csv`, is written."""
    sc = SyntheticScenario(seed=0, n_sites=1, n_clusters=1, trend_intercept=1.0,
                           grf_partial_sill=0.0, noise_sd=0.0, daily_noise_sd=3.0)
    data = generate_synthetic(sc)
    with pytest.raises(ScenarioError) as alone:
        synth._write_daily(data, tmp_path / "alone.csv")
    cpus(monkeypatch, n_cpus)
    with pytest.raises(ScenarioError, match=r"site s0000: .*annual mean 1\.0 .*averages 1\.3") \
            as failed:
        write_scenario(data, tmp_path / "scn")
    assert str(failed.value) == str(alone.value)
    assert multiprocessing.active_children() == []
    files = scenario_files(tmp_path)
    assert not any(name.endswith(".tmp") for name in files)
    written = {Path(name).name for name in files if name.startswith("scn")}
    assert written == ({"sites.csv"} if n_cpus == 1 else set(SCENARIO_INPUTS) - {"daily.csv"})
    for name in written - {"sites.csv"}:
        path = next((tmp_path / "scn").rglob(name))
        reader = geodata.read_features if name.endswith(".csv") else geodata.read_raster
        reader(path)  # whole: it parses


# -- the scenario generator --------------------------------------------------------------

FULL_SMALL = SyntheticScenario(seed=2, covariate_set="full", n_sites=30, n_clusters=4,
                               extent_x=500_000.0, extent_y=400_000.0, prediction_cols=20,
                               prediction_rows=16, n_excluded_sites=2)
GENERATION_JOBS = ((synth, "_field_grid"), (synth, "_landcover"), (synth, "simulate_grf"),
                   (covariates, "build_matrix"))  # what the generator's jobs call


def record_job_calls(monkeypatch, log: Path, fault=None) -> None:
    """Wrap the functions the generator's jobs call so that each call
    appends "<pid> <function name>" to `log` (read back by `reader_calls`),
    from whichever process makes it; with `fault`, each call runs
    `fault(name)` first."""
    for module, name in GENERATION_JOBS:
        def job(*args, original=getattr(module, name), name=name, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {name}\n")
            if fault is not None:
                fault(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, job)


@linux_only
@pytest.mark.parametrize("sc", [NOISY, FULL_SMALL], ids=["mini", "full-small"])
def test_generated_data_is_bit_identical_with_and_without_workers(sc, tmp_path, monkeypatch):
    """A scenario generated with two workers, with none because one core is
    usable, and with none because another thread is alive, has the same
    arrays, bit for bit, and the same truth, specs and excluded sites. Each
    job runs once: in a worker in the first case, here in the others; the
    land-cover job extracts its site columns with `build_matrix` where it
    runs, and the grid columns are always extracted here."""
    log = tmp_path / "calls.log"
    record_job_calls(monkeypatch, log)
    got, calls = {}, {}
    for way in ("workers", "one core", "beside a thread"):
        cpus(monkeypatch, 1 if way == "one core" else 2)
        log.unlink(missing_ok=True)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(300,))
        if way == "beside a thread":
            other.start()
        try:
            got[way] = generate_synthetic(sc)
        finally:
            release.set()
        if way == "beside a thread":
            other.join(timeout=60)
            assert not other.is_alive()
        assert multiprocessing.active_children() == []
        ran = reader_calls(log)
        calls[way] = sorted(name for _, name in ran)
        in_parent = {name for pid, name in ran if pid == os.getpid()}
        assert in_parent == ({"build_matrix"} if way == "workers" else set(calls[way])), way
    assert calls["workers"] == calls["one core"] == calls["beside a thread"]
    assert calls["workers"].count("build_matrix") == len(got["workers"].layers) + 2
    _assert_same_data(got["workers"], got["one core"])
    _assert_same_data(got["workers"], got["beside a thread"])


@linux_only
def test_a_generation_job_no_worker_delivers_is_run_by_the_parent(tmp_path, monkeypatch, caplog):
    """A worker killed in the land-cover job leaves that job to the parent,
    which gives the bits of a one-core generation and leaves no child
    process behind. One warning is the only sign, and the one-core
    generation logs none."""
    cpus(monkeypatch, 1)
    with caplog.at_level(logging.WARNING):
        want = generate_synthetic(NOISY)
    assert warnings_in(caplog) == []
    parent, target = os.getpid(), "_landcover"

    def in_a_worker(name):
        if os.getpid() != parent and name == target:
            os._exit(3)

    log = tmp_path / "calls.log"
    record_job_calls(monkeypatch, log, fault=in_a_worker)
    cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING):
        got = generate_synthetic(NOISY)
    warned = warnings_in(caplog)
    assert len(warned) == 1 and LOST in warned[0], warned
    assert multiprocessing.active_children() == []
    pids = [pid for pid, name in reader_calls(log) if name == target]
    assert len(pids) == 2 and pids[0] != parent and pids[1] == parent
    _assert_same_data(got, want)


@linux_only
@pytest.mark.parametrize("n_cpus", [2, 1])
def test_a_failing_generation_job_raises_from_the_parent(tmp_path, monkeypatch, n_cpus):
    """A job that raises in a worker raises again, with its own error and
    message, from this process, however many workers ran; no child process
    is left."""
    def fail(name):
        if name == "simulate_grf":
            raise ScenarioError(f"patched GRF fault in process {os.getpid()}")

    record_job_calls(monkeypatch, tmp_path / "calls.log", fault=fail)
    cpus(monkeypatch, n_cpus)
    with pytest.raises(ScenarioError, match=f"^patched GRF fault in process {os.getpid()}$"):
        generate_synthetic(NOISY)
    assert multiprocessing.active_children() == []


# -- the helper itself -------------------------------------------------------------------

def square_or_fail(x):
    if x < 0:
        raise InvalidArgumentError(f"negative: {x}")
    return x * x, os.getpid()


@linux_only
def test_fan_out_gives_values_by_job_index_and_no_entry_for_errors(monkeypatch, caplog):
    """Values come back by job index, whatever worker ran them; a job that
    raised has no entry and costs no warning."""
    cpus(monkeypatch, 2)
    values = [3, -1, 5, 2, -7, 4]
    fan = _util.FanOut([(abs(x), square_or_fail, (x,)) for x in values])
    assert len(fan.workers) == 2
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        got = fan.results()
    assert multiprocessing.active_children() == [] and caplog.text == ""
    assert sorted(got) == [i for i, x in enumerate(values) if x >= 0]
    for i, value in got.items():
        assert value[0] == values[i] ** 2 and value[1] != os.getpid()


@linux_only
def test_work_above_the_floor_starts_workers(monkeypatch):
    """Jobs whose costs total more than `FORK_FLOOR_S` start a worker per
    usable core; the same jobs costed below it start none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    floor = _util.FORK_FLOOR_S
    assert floor > 0
    fan = _util.FanOut([(0.6 * floor, square_or_fail, (x,)) for x in (3, 4)])
    assert len(fan.workers) == 2
    got = fan.results()
    assert {i: v[0] for i, v in got.items()} == {0: 9, 1: 16}
    assert os.getpid() not in {v[1] for v in got.values()}
    assert _util.FanOut([(0.4 * floor, square_or_fail, (x,)) for x in (3, 4)]).workers == []
    assert multiprocessing.active_children() == []


def pid_after(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


@linux_only
def test_workers_take_jobs_from_one_queue(monkeypatch):
    """The costliest job goes first; it is quick here, so the worker that
    ran it takes slow jobs too rather than idle while the other runs them."""
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(10, pid_after, (0.0,))] + [(1, pid_after, (0.5,))] * 4)
    got = fan.results()
    quick, *slow = (got[i] for i in range(5))
    assert quick in slow and len(set(slow)) == 2 and os.getpid() not in slow


def log_and_square(log: Path, i: int) -> int:
    with open(log, "a") as f:  # one short append: whole lines from every process
        f.write(f"{i}\n")
    return i * i


@linux_only
@pytest.mark.parametrize("busy", [False, True])
def test_more_workers_than_cores_run_each_job_once(tmp_path, monkeypatch, caplog, busy):
    """Six workers on six cores, or five and a busy caller, share one queue
    of 300 jobs: each job runs once, in some worker or the caller, and
    every result comes back."""
    cpus(monkeypatch, 6)
    log = tmp_path / "ran.log"
    fan = _util.FanOut([(i % 7, log_and_square, (log, i)) for i in range(300)], busy)
    assert len(fan.workers) == (5 if busy else 6)
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        assert fan.results() == {i: i * i for i in range(300)}
    assert sorted(map(int, log.read_text().split())) == list(range(300))
    assert caplog.text == "" and multiprocessing.active_children() == []


def die_in_a_worker(parent: int):
    if os.getpid() != parent:
        os._exit(3)
    return "in the parent"


@linux_only
def test_a_dead_worker_s_jobs_are_lost_with_one_warning(monkeypatch, caplog):
    """A worker that dies delivers nothing; the parent runs none of its
    jobs, the other worker's value comes back, and one warning counts the
    lost job."""
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(1, die_in_a_worker, (os.getpid(),)), (1, square_or_fail, (2,))])
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        got = fan.results()
    assert list(got) == [1] and got[1][0] == 4
    assert warnings_in(caplog) == ["1 of 2 " + LOST + " them"]
    assert multiprocessing.active_children() == []


@linux_only
def test_run_jobs_runs_in_the_parent_what_no_worker_delivered(monkeypatch):
    """`run_jobs` gives each job's value in job order: a worker's, or the
    parent's own call where none came back; a job that fails raises from
    the parent with its own message."""
    cpus(monkeypatch, 2)
    got = _util.run_jobs([(1, square_or_fail, (3,)), (2, die_in_a_worker, (os.getpid(),))])
    assert got[0][0] == 9 and got[1] == "in the parent"
    with pytest.raises(InvalidArgumentError, match="^negative: -2$"):
        _util.run_jobs([(1, square_or_fail, (2,)), (1, square_or_fail, (-2,))])
    assert multiprocessing.active_children() == []


def append_pid(log: Path) -> None:
    with open(log, "a") as f:
        f.write(f"{os.getpid()}\n")


@linux_only
def test_run_jobs_runs_a_job_that_returns_none_once(tmp_path, monkeypatch, caplog):
    """A job whose value is None is delivered like any other: two such jobs
    run once each, both in workers, with no warning. A job that raises
    costs no warning either, and raises from the parent with its own
    error."""
    cpus(monkeypatch, 2)
    log = tmp_path / "pids.log"
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        assert _util.run_jobs([(1, append_pid, (log,))] * 2) == [None, None]
        pids = [int(pid) for pid in log.read_text().split()]
        assert len(pids) == 2 and os.getpid() not in pids
        with pytest.raises(InvalidArgumentError, match="^negative: -2$"):
            _util.run_jobs([(1, append_pid, (log,)), (1, square_or_fail, (-2,))])
    assert caplog.text == "" and multiprocessing.active_children() == []


@linux_only
def test_a_value_that_does_not_pickle_is_lost(monkeypatch):
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(1, lambda: (lambda: None), ()), (1, square_or_fail, (3,))])
    got = fan.results()
    assert list(got) == [1] and got[1][0] == 9


# Locks a file as a pipeline run locks its output directory, starts two
# workers that each return 1 MB (more than a pipe holds) after a second,
# and is killed before it receives anything.
KILLED_PARENT = """
import fcntl, os, signal, sys, time
from lurk import _util
os.sched_getaffinity = lambda pid: {0, 1}
_util.FORK_FLOOR_S = 0.0
fd = os.open(sys.argv[1], os.O_RDWR | os.O_CREAT)
fcntl.flock(fd, fcntl.LOCK_EX)
slow = lambda: (time.sleep(1.0), bytes(1 << 20))[1]
fan = _util.FanOut([(1, slow, ()), (1, slow, ())])
assert len(fan.workers) == 2
os.kill(os.getpid(), signal.SIGKILL)
"""


@linux_only
def test_workers_of_a_killed_parent_exit_and_free_its_lock(tmp_path):
    lock = tmp_path / ".lock"
    env = dict(os.environ, PYTHONPATH=str(Path(_util.__file__).parents[1]))
    parent = subprocess.run([sys.executable, "-c", KILLED_PARENT, str(lock)], env=env,
                            timeout=120)
    assert parent.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 60
    while not lock_is_free(tmp_path):
        assert time.monotonic() < deadline, "the killed parent's workers hold its lock"
        time.sleep(0.05)


def test_on_one_core_no_job_runs(monkeypatch):
    """No worker starts, and `results` runs no job in the parent: it holds
    no value."""
    cpus(monkeypatch, 1)
    calls = []
    fan = _util.FanOut([(1, calls.append, (i,)) for i in range(3)])
    assert fan.workers == []
    assert fan.results() == {} and calls == []


@linux_only
@pytest.mark.parametrize("busy", [False, True])
def test_a_caller_that_works_meanwhile_forks_for_half_the_work(monkeypatch, busy):
    """A `busy` caller forks for jobs of half `FORK_FLOOR_S` and keeps a
    core: on two cores, jobs totalling 0.4, 0.5 and 1 times the floor
    start no worker, none and two for a waiting caller, and none, one and
    one for a busy one; on one core, jobs of the floor start none."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    floor = _util.FORK_FLOOR_S
    for share, waiting, beside_work in ((0.4, 0, 0), (0.5, 0, 1), (1.0, 2, 1)):
        jobs = [(share * floor / 2, square_or_fail, (x,)) for x in (3, 4)]
        fan, workers = _util.FanOut(jobs, busy), beside_work if busy else waiting
        assert len(fan.workers) == workers, share
        assert {i: v[0] for i, v in fan.results().items()} == ({0: 9, 1: 16} if workers else {})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _util.FanOut(jobs, busy).workers == []
    assert multiprocessing.active_children() == []


@linux_only
def test_a_busy_caller_runs_the_queued_jobs_itself(monkeypatch, caplog):
    """A busy caller's `results()` runs the jobs still queued before it
    waits for its one worker: every value comes back, each job run by the
    worker or by the caller, both of them run some, and a job that raises
    in the caller is absent, with no warning."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    floor = _util.FORK_FLOOR_S
    fan = _util.FanOut([(floor, pid_after, (0.1,)) for _ in range(6)]
                       + [(0.0, square_or_fail, (-1,))], busy=True)
    (worker, _), = fan.workers
    worker_pid = worker.pid
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        got = fan.results()
    assert sorted(got) == list(range(6)) and caplog.text == ""
    assert set(got.values()) == {os.getpid(), worker_pid}
    assert fan.tasks is None and multiprocessing.active_children() == []


# -- the CV folds as jobs ------------------------------------------------------------------

@linux_only
def test_a_worker_killed_mid_fold_costs_one_warning_and_no_byte(tmp_path, monkeypatch, caplog):
    """Of two fold workers (three cores, one kept by the parent), the first
    to start a fold is killed inside it: one warning counts that fold, the
    cv stage refits it, and every artifact is the one-core run's."""
    fit_after_a_worker_refit(monkeypatch, tmp_path / "refits.log")
    got, refits, killed = {}, tmp_path / "refits.log", tmp_path / "killed.flag"

    def die_once():
        try:
            os.close(os.open(killed, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        os.kill(os.getpid(), signal.SIGKILL)

    for way, n in (("killed", 3), ("one core", 1)):
        cpus(monkeypatch, n)
        record_refits(monkeypatch, refits, die_once)
        config_path, _ = write(tmp_path, scenario(seed=4), name=way.replace(" ", "_"))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lurk._util"):
            assert run(PipelineConfig.from_json(config_path)).status == "ok"
        got[way] = artifacts(config_path.parent / "run")
        if way == "killed":
            summary = json.loads((config_path.parent / "run" / "cv_summary.json").read_text())
            n_folds = len(summary["kfold"]["per_fold"]) + len(summary["logo"]["per_fold"])
            assert warnings_in(caplog) == [f"1 of {n_folds} " + LOST + " them"]
            assert killed.exists() and multiprocessing.active_children() == []
    assert got["killed"] == got["one core"]


@linux_only
@pytest.mark.parametrize("n_cpus", [2, 1])
def test_a_failing_fold_fails_cv_after_the_maps(tmp_path, monkeypatch, n_cpus):
    """A fold whose fit raises, in a worker and again in the parent, fails
    the cv stage with the parent's FoldError message, once the grid and the
    exposure files are written; no worker is left and the lock is free."""
    cpus(monkeypatch, n_cpus)
    config_path, _ = write(tmp_path, scenario(seed=4))
    cfg = PipelineConfig.from_json(config_path)
    bad_seed = stage_seed(stage_seed(cfg.seed, "cv-kfold"), "fold:3")
    fit_recipe = evaluation.fit_recipe

    def fit(recipe, sites, matrix, seed):
        if seed == bad_seed:
            raise ValueError("patched fold fault")
        return fit_recipe(recipe, sites, matrix, seed=seed)

    monkeypatch.setattr(evaluation, "fit_recipe", fit)
    with pytest.raises(StageError) as failed:
        run(cfg)
    assert (failed.value.stage, str(failed.value.cause)) == ("cv", "fold '3': patched fold fault")
    out = Path(cfg.out_dir)
    report = json.loads((out / "report.json").read_text())
    assert (report["status"], report["failed_stage"]) == ("failed", "cv")
    for name in ("model.json", "prediction.asc", "exposure.csv", "exposure_summary.json"):
        assert (out / name).exists(), name
    assert not (out / "cv_summary.json").exists()
    assert multiprocessing.active_children() == [] and lock_is_free(out)


@linux_only
def test_a_predict_failure_with_folds_in_flight_leaves_no_worker(tmp_path, monkeypatch):
    """The predict stage fails while a worker is inside a fold refit: the
    run raises at once, no child process is left and the lock is free."""
    cpus(monkeypatch, 2)
    refits = tmp_path / "refits.log"
    record_refits(monkeypatch, refits, lambda: time.sleep(20.0))
    config_path, _ = write(tmp_path, scenario(seed=4))

    def failing_predict(*args, **kwargs):
        deadline = time.monotonic() + 60
        while set(refit_pids(refits)) <= {os.getpid()} and time.monotonic() < deadline:
            time.sleep(0.01)  # until a worker is inside its slow refit
        raise InvalidArgumentError("predict fails on purpose")

    monkeypatch.setattr(pipeline, "predict_grid", failing_predict)
    t0 = time.perf_counter()
    with pytest.raises(StageError, match="predict fails on purpose") as failed:
        run(PipelineConfig.from_json(config_path))
    assert time.perf_counter() - t0 < 10.0  # the workers were stopped, not waited for
    assert failed.value.stage == "predict"
    assert any(pid != os.getpid() for pid in refit_pids(refits))
    assert multiprocessing.active_children() == []
    assert lock_is_free(config_path.parent / "run")


@linux_only
def test_a_run_until_cv_refits_the_folds_and_maps_nothing(tmp_path, monkeypatch):
    """`until="fit"` refits no fold; `until="cv"` starts the folds, fits,
    collects them and writes no grid or exposure file; no worker is left
    and the lock is free."""
    cpus(monkeypatch, 2)
    refits = tmp_path / "refits.log"
    record_refits(monkeypatch, refits)
    fit_after_a_worker_refit(monkeypatch, refits)
    config_path, _ = write(tmp_path, scenario(seed=4))
    assert list(run(PipelineConfig.from_json(config_path), until="fit").stages) == [
        "annualize", "covariates", "fit"]
    assert not refits.exists()
    report = run(PipelineConfig.from_json(config_path), until="cv")
    assert list(report.stages) == ["annualize", "covariates", "fit", "cv"]
    out = config_path.parent / "run"
    assert (out / "cv_summary.json").exists() and (out / "model.json").exists()
    assert not any((out / name).exists() for name in
                   ("prediction.asc", "prediction_meta.json", "exposure.csv"))
    assert set(refit_pids(refits)) - {os.getpid()}  # the folds ran in workers
    assert multiprocessing.active_children() == [] and lock_is_free(out)
