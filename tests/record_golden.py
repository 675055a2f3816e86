"""The golden record of the mini scenario, `tests/golden/mini.json`.

The scenario is the default `mini` preset (seed 3) with 5% of its
land-cover cells set to nodata and the kriging variance grid on. The record
holds the environment it was made in (Python, numpy, scipy and the
configuration string of each loaded OpenBLAS build, which names the kernels
it picked), the sha256 of every input and artifact, and a numeric digest of
the artifacts. Before hashing, `manifest.json`, `report.json` and `run.log`
lose their timings, their stage keys (which hash the package's source) and
the file-hash memo (inode numbers and clock readings), so a hash changes
only when what a file says about the data does.

`tests/test_golden.py` checks a fresh run against the record. To record it
again, after a change that moves artifact bytes on purpose:

    PYTHONPATH=src python tests/record_golden.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from lurk import geodata
from lurk.covariates import CovariateMatrix
from lurk.monitors import MonitorTable
from lurk.pipeline import PipelineConfig, run
from lurk.synth import SyntheticScenario, generate_synthetic, write_scenario
from lurk._util import _load, _openblas_paths, dump_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "mini.json"
SCENARIO = SyntheticScenario(seed=3)
NODATA_SHARE = 0.05  # of the land-cover cells: windows count valid cells by table
_CONFIG_CALLS = [p + "openblas_get_config" + s for p in ("scipy_", "") for s in ("64_", "")]


def environment() -> dict:
    """Python, numpy and scipy versions and the sorted configuration strings
    of the OpenBLAS builds loaded in this process."""
    configs = []
    for lib in map(_load, _openblas_paths()):
        name = next((n for n in _CONFIG_CALLS if hasattr(lib, n)), None)
        if name is not None:
            get_config = getattr(lib, name)
            get_config.restype = ctypes.c_char_p
            configs.append(get_config().decode())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": sorted(configs)}


def build(root: Path) -> Path:
    """Write the scenario under `root`, punch the nodata cells into its land
    cover, turn the variance grid on and run the pipeline; returns `root`."""
    config_path = write_scenario(generate_synthetic(SCENARIO), root)
    config = json.loads(config_path.read_text())
    config["with_variance"] = True
    dump_json(config, config_path)
    entry = config["categorical_grids"]["landcover"]
    path = root / entry["path"]
    grid = geodata.read_categorical(path, entry["categories"])
    holes = np.random.default_rng(0).uniform(size=grid.values.shape) < NODATA_SHARE
    geodata.write_categorical(geodata.CategoricalGrid(
        **grid.geometry(), values=np.where(holes, grid.nodata, grid.values),
        categories=grid.categories, nodata=grid.nodata), path)
    run(PipelineConfig.from_json(config_path))
    return root


def _stripped(name: str, data: bytes) -> bytes:
    """`data` without the timings, stage keys and file-hash memo."""
    if name == "run.log":
        return re.sub(rb"elapsed_s=\S+", b"elapsed_s=", data)
    if name not in ("manifest.json", "report.json"):
        return data
    obj = json.loads(data)
    obj.pop("files", None)
    for entry in (obj["stages"] if name == "report.json" else obj).values():
        entry.pop("elapsed_s", None)
        entry.pop("key", None)
    return json.dumps(obj, sort_keys=True).encode()


def file_hashes(root: Path) -> dict:
    """sha256 of every file under `root` by relative path, stripped first;
    the run's empty `.lock` file holds no data and is left out."""
    return {path.relative_to(root).as_posix():
            hashlib.sha256(_stripped(path.name, path.read_bytes())).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file() and path.name != ".lock"}


def _summary(values: np.ndarray) -> dict:
    return {"n": int(values.size), "mean": float(values.mean()), "std": float(values.std()),
            "min": float(values.min()), "max": float(values.max())}


def digest(root: Path) -> dict:
    """The numbers a reader checks by eye: the report's metrics, the trend,
    the GRF draw, the site table and matrix, and the valid cells of the two
    prediction grids."""
    out = root / "run"
    model = json.loads((out / "model.json").read_text())
    truth = json.loads((root / "truth.json").read_text())
    matrix = CovariateMatrix.from_csv(out / "matrix.csv")
    grids = {}
    for name in ("prediction", "prediction_variance"):
        grid = geodata.read_raster(out / f"{name}.asc")
        grids[name] = _summary(grid.values[grid.values != grid.nodata])
    return {
        "metrics": json.loads((out / "report.json").read_text())["metrics"],
        "trend": {k: model["trend"][k] for k in ("selected", "intercept", "coefficients")},
        "grf": _summary(np.asarray(truth["grf_values"])),
        "annual_mean": _summary(MonitorTable.from_csv(out / "monitors.csv").annual_mean),
        "matrix_column_means": dict(zip(matrix.columns, matrix.values.mean(axis=0).tolist())),
        **grids,
    }


def record(root: Path) -> dict:
    build(root)
    return {"environment": environment(), "sha256": file_hashes(root), "digest": digest(root)}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    dump_json(golden, GOLDEN)
    print(f"{len(golden['sha256'])} files -> {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
