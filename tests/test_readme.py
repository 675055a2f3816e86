"""The README as written: its library tour runs on the mini scenario, and its
table of BENCH files is the committed files as `scripts/bench.py` renders
them, from numbers that `bench.measure` records."""

import functools
import importlib.util
import json
import re
import shutil
from pathlib import Path

import numpy as np

from lurk import covariates, geodata, pipeline
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
TABLE_BEGIN, TABLE_END = "<!-- bench table: begin -->\n", "<!-- bench table: end -->"

_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_readme_tour_runs(tmp_path, monkeypatch):
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    write_scenario(generate_synthetic(SyntheticScenario()), tmp_path / "scenario")
    inputs = tmp_path / "scenario" / "inputs"
    for path in ("daily.csv", "sites.csv", "layers/roads_major.csv", "grids/elevation.asc"):
        shutil.copy(inputs / path, tmp_path)
    # The tour loads roads_major and elevation only; coordinates need no input.
    specs = [s for s in covariates.read_specs(tmp_path / "scenario" / "covariates.json")
             if s.source in ("roads_major", "elevation") or s.kind.startswith("coordinate_")]
    covariates.write_specs(specs, tmp_path / "covariates.json")
    lattice = geodata.Lattice(0.0, 0.0, 1_000.0, 400, 250)
    population = np.random.default_rng(0).uniform(0.0, 100.0, size=(250, 400))
    geodata.write_raster(geodata.RasterGrid(**lattice.geometry(), values=population),
                         tmp_path / "population.asc")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(tour, str(README), "exec"), scope)
    surface, curve = scope["surface"], scope["curve"]
    assert surface.concentration.same_lattice(lattice)
    assert np.any(surface.concentration.values != surface.concentration.nodata)
    assert np.isfinite(curve.pop_weighted_mean) and curve.pop_weighted_mean > 0


def test_readme_bench_table_renders_the_committed_files():
    block = README.read_text().split(TABLE_BEGIN)[1].split(TABLE_END)[0]
    rendered = bench.table(sorted(ROOT.glob("BENCH_*.json"))) + "\n"
    assert block == rendered, f"the README's bench table should read:\n{rendered}"


def test_readme_names_only_bench_files_that_exist():
    named = set(re.findall(r"BENCH_[\w.-]+?\.json", README.read_text()))
    assert sorted(n for n in named if not (ROOT / n).is_file()) == []


def test_medians_take_every_key_of_every_run():
    """A span or count missing from a run counts as 0, whichever run lacks
    it; text and lists are left out."""
    runs = [{"cold_s": 1.0, "status": "ok", "warm_cached": ["fit"],
             "layers_s": {"geodata.read_features_s": 0.04, "x_s": 1.0}},
            {"cold_s": 3.0, "status": "ok", "warm_cached": [],
             "layers_s": {"x_s": 2.0}, "counts": {"n": 4}}]
    assert bench.medians(runs) == {"cold_s": 2.0, "counts": {"n": 2.0},
                                   "layers_s": {"geodata.read_features_s": 0.02, "x_s": 1.5}}


def test_measure_records_every_number_the_readme_table_renders(tmp_path, monkeypatch):
    config = write_scenario(generate_synthetic(SyntheticScenario()), tmp_path / "scenario")
    monkeypatch.setattr(bench, "RACY_WINDOW_NS", 0)
    result = bench.measure(config, tmp_path / "work")
    assert result["status"] == "ok"
    assert result["warm_cached"] == sorted(pipeline.STAGES)
    assert sorted(result["stages_s"]) == sorted(pipeline.STAGES)
    median = bench.medians([result])
    for key in bench.TABLE:
        value = functools.reduce(dict.__getitem__, key.split("."), median)
        assert isinstance(value, float) and value >= 0, key  # a worker-less run: children 0
    path = tmp_path / "BENCH_mini.json"
    path.write_text(json.dumps({"label": "mini", "machine": {"revision": "r", "src_lurk_lines": 1},
                                "scenarios": {"mini": {"median": median, "runs": [result]}}}))
    assert "| - |" not in bench.table([path])
