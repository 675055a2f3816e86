"""The one-BLAS-thread pin: artifacts that do not depend on the OpenBLAS
thread count, the pin's own behaviour, and a guard that no module or script
sets the thread count through the environment again."""

import ctypes
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lurk
from lurk import _util

SRC = Path(lurk.__file__).resolve().parents[1]
ROOT = SRC.parent


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return dict(env, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC), **extra)


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# -- artifacts at one and at two threads --------------------------------------------------

# Synth and the pipeline on the mini scenario (seed 0) with the variance grid,
# then the library's entry points called directly on the generated data, their
# results written as the repr of plain lists.
ARTIFACTS = """
import json, sys
from pathlib import Path
from lurk._util import plain
from lurk.evaluation import kfold_plan, run_cv
from lurk.pipeline import PipelineConfig, run
from lurk.recipes import ModelRecipe, fit_recipe
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario

out = Path(sys.argv[1])
data = generate_synthetic(SyntheticScenario())
config_path = write_scenario(data, out / "scenario")
config = json.loads(config_path.read_text())
config_path.write_text(json.dumps({**config, "with_variance": True}))
run(PipelineConfig.from_json(config_path))

sites, matrix = data.sites, data.matrix
plan = kfold_plan(sites.site_ids, 10, seed=0)
for selection in ("stepwise", "pls"):
    recipe = ModelRecipe(selection=selection, kriging=True)
    fitted = fit_recipe(recipe, sites, matrix, seed=0)
    mean, variance = fitted.predict(matrix.select(fitted.required_columns), coords=sites.coords,
                                     with_variance=True)
    for name, value in (("fit", plain(fitted)), ("cv", plain(run_cv(recipe, sites, matrix, plan))),
                        ("predict", [mean.tolist(), variance.tolist()])):
        (out / f"{selection}_{name}.repr").write_text(repr(value))
"""


def without_timings(path: Path) -> bytes:
    """The file's bytes; for the run's bookkeeping files, with the stage
    times taken out, and the manifest's file-hash memo (inode numbers and
    clock times, which no two processes share); every stage entry stays."""
    if path.name in ("manifest.json", "report.json"):
        def drop(obj):
            if isinstance(obj, dict):
                return {k: drop(v) for k, v in obj.items() if k != "elapsed_s"}
            return obj
        bookkeeping = json.loads(path.read_text())
        if path.name == "manifest.json":
            del bookkeeping["files"]
        return json.dumps(drop(bookkeeping), sort_keys=True).encode()
    if path.name == "run.log":
        return re.sub(rb" elapsed_s=\S+", b"", path.read_bytes())
    return path.read_bytes()


@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS caps its thread count at the "
                    "number of CPUs, so on one CPU both runs would use one thread")
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    children = {n: subprocess.Popen([sys.executable, "-c", ARTIFACTS, str(tmp_path / n)],
                                    env=child_env(OPENBLAS_NUM_THREADS=n),
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                for n in ("1", "2")}
    for child in children.values():
        _, stderr = child.communicate(timeout=600)
        assert child.returncode == 0, stderr
    files = {n: sorted(p.relative_to(tmp_path / n) for p in (tmp_path / n).rglob("*")
                       if p.is_file()) for n in children}
    assert files["1"] == files["2"]
    assert {"daily.csv", "model.json", "prediction_variance.asc", "stepwise_cv.repr",
            "pls_predict.repr"} <= {p.name for p in files["1"]}
    differ = [str(p) for p in files["1"]
              if without_timings(tmp_path / "1" / p) != without_timings(tmp_path / "2" / p)]
    assert differ == []


# -- the pin itself -------------------------------------------------------------------------

THREADS_AROUND_THE_PIN = """
import lurk.pipeline  # loads numpy's and scipy's OpenBLAS, as every pinning module does
from lurk._util import _openblas_thread_controls, one_blas_thread
threads = lambda: [get() for get, _ in _openblas_thread_controls()]
print(threads())
with one_blas_thread():
    print(threads())
print(threads())
"""


@pytest.mark.skipif(usable_cpus() < 2, reason="OpenBLAS caps its thread count at the "
                    "number of CPUs, so on one CPU it never reads 2")
def test_pin_sets_one_thread_and_restores_the_count_in_effect():
    child = subprocess.run([sys.executable, "-c", THREADS_AROUND_THE_PIN],
                           env=child_env(OPENBLAS_NUM_THREADS="2"), capture_output=True,
                           text=True, check=True, timeout=120)
    before, inside, after = map(json.loads, child.stdout.splitlines())
    assert before == after == [2, 2]  # numpy's build and scipy's
    assert inside == [1, 1]


def test_without_openblas_a_pinned_call_runs_and_logs_once(monkeypatch, caplog):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())  # no thread-count calls
    _util._openblas_thread_controls.cache_clear()

    @_util.one_blas_thread()
    def pinned(x):
        return 2 * x

    try:
        with caplog.at_level(logging.WARNING, logger="lurk._util"):
            assert [pinned(1), pinned(2)] == [2, 4]
            with _util.one_blas_thread():
                pass
    finally:
        _util._openblas_thread_controls.cache_clear()  # the next use finds the real builds
    assert [r.getMessage() for r in caplog.records] == [
        "no OpenBLAS found: BLAS threads are not pinned"]


# A pathname may hold spaces; a library replaced on disk ends in " (deleted)".
MAPS = """\
7f1c2a000000-7f1c2a100000 r--p 00000000 08:01 4211 /home/First Last/venv/numpy.libs/libscipy_openblas64_.so
7f1c2b000000-7f1c2b100000 r-xp 00001000 08:01 4212 /usr/lib/libopenblas.so.0 (deleted)
7f1c2c000000-7f1c2c100000 r--p 00000000 08:01 4213 /usr/lib/libm.so.6
"""


def test_maps_pathnames_keep_their_spaces_and_deleted_files_are_skipped(tmp_path):
    (tmp_path / "maps").write_text(MAPS)
    assert _util._openblas_paths(str(tmp_path / "maps")) == [
        "/home/First Last/venv/numpy.libs/libscipy_openblas64_.so"]


def test_without_proc_the_wheels_builds_are_found(tmp_path):
    import lurk.pipeline  # noqa: F401  loads numpy's and scipy's OpenBLAS
    found = _util._openblas_paths(str(tmp_path / "no maps"))
    if not found:
        pytest.skip("numpy and scipy ship no OpenBLAS of their own here")
    assert {os.path.realpath(p) for p in found} <= set(_util._openblas_paths())


def test_a_build_at_a_path_with_a_space_is_pinned_and_one_that_fails_to_load_skipped(
        tmp_path, monkeypatch):
    loaded = _util._openblas_paths()
    if not loaded:
        pytest.skip("no OpenBLAS is loaded")
    spaced = tmp_path / "First Last" / Path(loaded[0]).name
    spaced.parent.mkdir()
    spaced.symlink_to(loaded[0])  # the loader maps the same file once
    monkeypatch.setattr(_util, "_openblas_paths", lambda: [str(spaced), str(tmp_path / "gone.so")])
    _util._openblas_thread_controls.cache_clear()
    try:
        (get, _), = _util._openblas_thread_controls()
        with _util.one_blas_thread():
            assert get() == 1
    finally:
        _util._openblas_thread_controls.cache_clear()


# -- one pin, in the library ----------------------------------------------------------------

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_no_module_or_script_sets_blas_threads_through_the_environment():
    """The thread count is pinned by `_util.one_blas_thread` alone; an
    environment block runs only before numpy loads and a caller's own
    setting overrides it."""
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    found = [(path.name, name) for path in [*sorted((SRC / "lurk").glob("*.py")), *scripts]
             for name in THREAD_VARIABLES if name in path.read_text()]
    assert found == []
