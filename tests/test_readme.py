"""The README's library tour runs as written, on the mini scenario."""

import re
import shutil
from pathlib import Path

import numpy as np

from lurk import covariates, geodata
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


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
