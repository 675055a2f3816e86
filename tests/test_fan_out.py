"""The fan-out of the geo-input parse to forked workers (`_util.FanOut`,
`pipeline._GeoInputs`): the same artifacts with workers as inline, errors
named as an inline parse names them, no worker that outlives a run, none
started by a cached rerun, no prefetched value used for bytes the stage key
does not name; and every `LurkError` surviving the pickle that carries a
worker's error to the parent."""

import fcntl
import inspect
import logging
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from lurk import _util, errors, geodata, pipeline
from lurk.errors import GridFormatError, InvalidArgumentError, LurkError, StageError
from lurk.pipeline import PipelineConfig, run
from test_pipeline import new_log_lines, scenario, write

linux_only = pytest.mark.skipif(sys.platform != "linux", reason="FanOut forks only on Linux")
READERS = ("read_features", "read_raster", "read_categorical")
GEO_INPUTS = ("poi_gas.csv", "roads_major.csv", "elevation.asc", "satellite.asc",
              "landcover.asc")  # of the test scenario, in config order
SKIPPED = {"manifest.json", "report.json", "run.log", ".lock"}  # timings, keys, the lock


def cpus(monkeypatch, n: int) -> None:
    """Make `FanOut` see `n` usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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


def artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name not in SKIPPED}


@linux_only
def test_artifacts_are_byte_identical_with_workers_and_inline(tmp_path, monkeypatch):
    """The same scenario run with two workers, inline because one core is
    usable, and inline because it runs outside the main thread, writes the
    same bytes; only the first run parses a geo input outside this
    process."""
    log = tmp_path / "calls.log"
    record_reader_calls(monkeypatch, log)
    sc = scenario(seed=4)
    got = {}
    for way in ("workers", "one core", "thread"):
        config_path, _ = write(tmp_path, sc, name=way.replace(" ", "_"))
        cpus(monkeypatch, 1 if way == "one core" else 2)
        log.unlink(missing_ok=True)
        if way == "thread":
            reports = []
            worker = threading.Thread(target=lambda: reports.append(
                run(PipelineConfig.from_json(config_path))))
            worker.start()
            worker.join(timeout=300)
            assert reports and reports[0].status == "ok"
        else:
            assert run(PipelineConfig.from_json(config_path)).status == "ok"
        calls = [(pid, name) for pid, name in reader_calls(log) if name in GEO_INPUTS]
        assert sorted(name for _, name in calls) == sorted(GEO_INPUTS)  # once each
        assert ({pid for pid, _ in calls} != {os.getpid()}) == (way == "workers"), way
        got[way] = artifacts(config_path.parent / "run")
    assert "matrix.csv" in got["workers"] and "prediction.asc" in got["workers"]
    assert got["workers"] == got["one core"] == got["thread"]


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
    with pytest.raises(StageError, match="patched fault") as failed:
        run(PipelineConfig.from_json(config_path))
    assert failed.value.stage == "covariates"
    assert any(pid != os.getpid() and name == "satellite.asc" for pid, name in reader_calls(log))


# -- the helper itself -------------------------------------------------------------------

def square_or_fail(x):
    if x < 0:
        raise InvalidArgumentError(f"negative: {x}")
    return x * x, os.getpid()


@linux_only
def test_fan_out_gives_results_and_errors_in_job_order(monkeypatch):
    """Results come back in job order, a job's error in its place, whatever
    worker ran it."""
    cpus(monkeypatch, 2)
    values = [3, -1, 5, 2, -7, 4]
    fan = _util.FanOut([(abs(x), square_or_fail, (x,)) for x in values])
    assert len(fan.workers) == 2
    got = list(fan.results())
    assert multiprocessing.active_children() == []
    for x, outcome in zip(values, got):
        if x < 0:
            assert type(outcome) is InvalidArgumentError and str(outcome) == f"negative: {x}"
        else:
            assert outcome[0] == x * x and outcome[1] != os.getpid()


def pid_after(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


@linux_only
def test_workers_take_jobs_from_one_queue(monkeypatch):
    """The costliest job goes first; it is quick here, so the worker that
    ran it takes slow jobs too rather than idle while the other runs them."""
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(10, pid_after, (0.0,))] + [(1, pid_after, (0.5,))] * 4)
    quick, *slow = fan.results()
    assert quick in slow and len(set(slow)) == 2 and os.getpid() not in slow


def log_and_square(log: Path, i: int) -> int:
    with open(log, "a") as f:  # one short append: whole lines from every process
        f.write(f"{i}\n")
    return i * i


@linux_only
def test_more_workers_than_cores_run_each_job_once(tmp_path, monkeypatch, caplog):
    """Six workers on this host's cores share one queue of 300 jobs: each
    job runs once, in some worker, and every result comes back."""
    cpus(monkeypatch, 6)
    log = tmp_path / "ran.log"
    fan = _util.FanOut([(i % 7, log_and_square, (log, i)) for i in range(300)])
    assert len(fan.workers) == 6
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        assert list(fan.results()) == [i * i for i in range(300)]
    assert sorted(map(int, log.read_text().split())) == list(range(300))
    assert caplog.text == "" and multiprocessing.active_children() == []


def die_in_a_worker(parent: int):
    if os.getpid() != parent:
        os._exit(3)
    return "inline"


@linux_only
def test_a_dead_worker_has_its_jobs_run_inline(monkeypatch, caplog):
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(1, die_in_a_worker, (os.getpid(),)), (1, square_or_fail, (2,))])
    with caplog.at_level(logging.WARNING, logger="lurk._util"):
        got = list(fan.results())
    assert got[0] == "inline" and got[1][0] == 4
    assert "got no result from their workers; they run inline" in caplog.text


@linux_only
def test_a_result_that_does_not_pickle_comes_back_as_an_error(monkeypatch):
    cpus(monkeypatch, 2)
    fan = _util.FanOut([(1, lambda: (lambda: None), ()), (1, square_or_fail, (3,))])
    got = list(fan.results())
    assert type(got[0]) is RuntimeError and "did not pickle" in str(got[0])
    assert got[1][0] == 9


# Locks a file as a pipeline run locks its output directory, starts two
# workers that each return 1 MB (more than a pipe holds) after a second,
# and is killed before it receives anything.
KILLED_PARENT = """
import fcntl, os, signal, sys, time
from lurk import _util
os.sched_getaffinity = lambda pid: {0, 1}
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


def test_inline_jobs_run_when_their_results_are_taken(monkeypatch):
    cpus(monkeypatch, 1)
    calls = []
    fan = _util.FanOut([(1, calls.append, (i,)) for i in range(3)])
    assert fan.workers == [] and calls == []
    results = fan.results()
    next(results)
    assert calls == [0]
    fan.close()


# -- errors survive a pickle ---------------------------------------------------------------

# Constructor arguments of the errors whose __init__ takes more than a message.
ERROR_ARGS = {
    "SingularDesignError": ("rank deficient", ["a", "b"]),
    "CovariateExtractionError": ("cells failed", [("s1", "elevation")]),
    "StageError": ("fit", InvalidArgumentError("bad recipe")),
    "OutputLockedError": ("/tmp/out",),
}


@pytest.mark.parametrize("cls", [c for _, c in inspect.getmembers(errors, inspect.isclass)
                                 if issubclass(c, LurkError)], ids=lambda c: c.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    exc = cls(*ERROR_ARGS.get(cls.__name__, ("a message",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert sorted(vars(back)) == sorted(vars(exc))
    for name, value in vars(exc).items():
        if isinstance(value, Exception):
            assert type(getattr(back, name)) is type(value)
            assert str(getattr(back, name)) == str(value)
        else:
            assert getattr(back, name) == value


def test_every_error_with_its_own_arguments_is_listed():
    custom = {name for name, c in inspect.getmembers(errors, inspect.isclass)
              if issubclass(c, LurkError) and "__init__" in vars(c)}
    assert custom == set(ERROR_ARGS)
