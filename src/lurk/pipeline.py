"""Declarative end-to-end pipeline: annualize -> covariates -> fit ->
cross-validate -> gridded prediction -> exposure statistics.

Each stage writes plain-file artifacts plus a manifest entry keyed by the
hashes of everything the stage consumed, including the package's own
source code; rerunning the same code on unchanged inputs reuses the
cached artifact. Stage timings go to a line-delimited log.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import covariates as cov
from . import geodata
from .errors import DatasetMismatchError, InvalidArgumentError, StageError
from .evaluation import kfold_plan, logo_plan, run_cv
from .exposure import DEFAULT_THRESHOLDS, cumulative_exposure, predict_grid
from .monitors import MonitorTable, annualize, read_daily_csv, read_sites_csv
from .recipes import FittedModel, ModelRecipe, fit_recipe
from ._util import (check_keys, check_required, checked, dump_json, is_finite_number, is_int,
                    sha256_bytes, sha256_file, stage_seed, write_table)

log = logging.getLogger(__name__)

STAGES = ("annualize", "covariates", "fit", "cv", "predict", "exposure")
CONFIG_KEYS = ("pollutant", "year", "monitors", "covariates", "layers", "grids",
               "categorical_grids", "recipe", "cv", "prediction", "population_grid",
               "thresholds", "seed", "out", "with_variance")
LATTICE_KEYS = tuple(f.name for f in fields(geodata.Lattice))


@functools.cache
def code_fingerprint() -> str:
    """sha256 over the package's sources (sorted `*.py` names and bytes),
    computed once per process; part of every stage key."""
    parts = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        parts += [path.name.encode(), path.read_bytes()]
    return sha256_bytes(b"\0".join(parts))


@dataclass
class PipelineConfig:
    pollutant: str
    year: int
    daily_csv: Path
    sites_csv: Path
    covariates_json: Path
    layers: dict = field(default_factory=dict)  # name -> path
    grids: dict = field(default_factory=dict)
    categorical: dict = field(default_factory=dict)  # name -> {path, categories}
    recipe: ModelRecipe = field(default_factory=ModelRecipe)
    cv_k: int = 10
    logo_group: str = "province"
    prediction: dict | None = None  # lattice: origin/cell/cols/rows
    population_grid: Path | None = None
    thresholds: tuple = DEFAULT_THRESHOLDS
    seed: int = 0
    out_dir: Path = Path("run")
    with_variance: bool = False

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        path = Path(path)
        d = json.loads(path.read_text())
        check_keys(d, CONFIG_KEYS, "config")
        check_required(d, ("pollutant", "year", "monitors", "covariates"), "config")
        check_keys(d["monitors"], ("daily", "sites"), "config monitors")
        check_required(d["monitors"], ("daily", "sites"), "config monitors")
        for name, entry in d.get("categorical_grids", {}).items():
            check_required(entry, ("path", "categories"), f"config categorical_grids {name!r}")
        cv, lattice, seed = d.get("cv", {}), d.get("prediction"), d.get("seed", 0)
        k, with_variance = cv.get("k", 10), d.get("with_variance", False)
        logo_group = cv.get("logo_group", "province")
        check_keys(cv, ("k", "logo_group"), "config cv")
        checked("config prediction", lattice, lattice is None or (
            isinstance(lattice, dict) and sorted(lattice) == sorted(LATTICE_KEYS)
            and all(map(is_finite_number, lattice.values()))
            and is_int(lattice["n_cols"]) and is_int(lattice["n_rows"])),
            f"null or a lattice of the keys {LATTICE_KEYS} with integer n_cols and n_rows")
        try:
            if lattice is not None:
                geodata.Lattice(**lattice)  # the geometry checks
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"config prediction: {e}") from None
        thresholds = d.get("thresholds", DEFAULT_THRESHOLDS)
        checked("config thresholds", thresholds, isinstance(thresholds, (list, tuple))
                and all(map(is_finite_number, thresholds)), "a list of finite numbers")
        base = path.parent

        def resolve(p):
            return (base / p).resolve() if p is not None else None

        return cls(
            pollutant=d["pollutant"],
            year=checked("config year", d["year"], is_int(d["year"]), "an integer"),
            daily_csv=resolve(d["monitors"]["daily"]),
            sites_csv=resolve(d["monitors"]["sites"]),
            covariates_json=resolve(d["covariates"]),
            layers={k: resolve(v) for k, v in d.get("layers", {}).items()},
            grids={k: resolve(v) for k, v in d.get("grids", {}).items()},
            categorical={
                k: {"path": resolve(v["path"]), "categories": v["categories"]}
                for k, v in d.get("categorical_grids", {}).items()
            },
            recipe=ModelRecipe.from_dict(d.get("recipe", {})),
            cv_k=checked("config cv.k", k, is_int(k), "an integer"),
            logo_group=checked("config cv.logo_group", logo_group,
                               logo_group in ("province", "city"), '"province" or "city"'),
            prediction=lattice,
            population_grid=resolve(d.get("population_grid")),
            thresholds=tuple(thresholds),
            seed=checked("config seed", seed, is_int(seed), "an integer"),
            out_dir=resolve(d.get("out", "run")),
            with_variance=checked("config with_variance", with_variance,
                                  isinstance(with_variance, bool), "true or false"),
        )

    def validate(self) -> None:
        missing = []
        paths = [self.daily_csv, self.sites_csv, self.covariates_json,
                 *self.layers.values(), *self.grids.values(),
                 *(v["path"] for v in self.categorical.values())]
        if self.population_grid is not None:
            paths.append(self.population_grid)
        for p in paths:
            if p is not None and not Path(p).exists():
                missing.append(str(p))
        if missing:
            raise InvalidArgumentError(f"missing input files: {missing}")


@dataclass
class RunReport:
    status: str
    pollutant: str
    year: int
    seed: int
    recipe: dict
    dataset_hash: str = ""
    failed_stage: str | None = None
    error: str | None = None
    stages: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class _Runner:
    def __init__(self, config: PipelineConfig):
        self.cfg = config
        self.out = Path(config.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out / "manifest.json"
        self.manifest = {}
        if self.manifest_path.exists():
            self.manifest = json.loads(self.manifest_path.read_text())
        self.log_path = self.out / "run.log"

    def _log_line(self, text: str) -> None:
        with open(self.log_path, "a") as f:
            f.write(text + "\n")
        log.info(text)

    def stage(self, name: str, key_parts: list, outputs: list[str], compute):
        """Run one cached stage. `compute` writes every output file; the
        stage is skipped when the key matches the manifest and all outputs
        still hash-match."""
        key = sha256_bytes(json.dumps([name, code_fingerprint(), key_parts],
                                      sort_keys=True).encode())
        entry = self.manifest.get(name)
        paths = {o: self.out / o for o in outputs}
        if entry and entry.get("key") == key:
            ok = all(
                paths[o].exists() and sha256_file(paths[o]) == entry["outputs"].get(o)
                for o in outputs
            )
            if ok:
                self._log_line(f"stage={name} status=cached")
                return entry, True
        t0 = time.perf_counter()
        try:
            compute()
        except Exception as exc:
            self._log_line(f"stage={name} status=failed error={exc}")
            raise StageError(name, exc) from exc
        elapsed = time.perf_counter() - t0
        entry = {
            "key": key,
            "outputs": {o: sha256_file(paths[o]) for o in outputs},
            "elapsed_s": round(elapsed, 4),
        }
        self.manifest[name] = entry
        dump_json(self.manifest, self.manifest_path)
        self._log_line(f"stage={name} status=ok elapsed_s={elapsed:.3f}")
        return entry, False


def _load_geo_inputs(cfg: PipelineConfig):
    layers = {name: geodata.read_features(path) for name, path in cfg.layers.items()}
    grids = {name: geodata.read_raster(path) for name, path in cfg.grids.items()}
    categorical = {
        name: geodata.read_categorical(spec["path"], spec["categories"])
        for name, spec in cfg.categorical.items()
    }
    return layers, grids, categorical


def run(config: PipelineConfig, until: str = STAGES[-1]) -> RunReport:
    """Execute the pipeline through stage `until` (every stage by default);
    returns (and writes) the run report."""
    if until not in STAGES:
        raise InvalidArgumentError(f"unknown stage {until!r}; stages are {STAGES}")
    cfg = config
    cfg.validate()
    runner = _Runner(cfg)
    report = RunReport(
        status="ok", pollutant=cfg.pollutant, year=cfg.year, seed=cfg.seed,
        recipe=cfg.recipe.to_dict(),
    )
    try:
        for name in _stages(cfg, runner, report):
            if name == until:
                break
    except StageError as exc:
        report.status = "failed"
        report.failed_stage = exc.stage
        report.error = str(exc.cause)
        dump_json(report.to_dict(), runner.out / "report.json")
        raise
    dump_json(report.to_dict(), runner.out / "report.json")
    return report


def _stages(cfg: PipelineConfig, runner: _Runner, report: RunReport):
    """Run the stages in order, filling `report`; yields each stage's name
    once it is done. The predict and exposure stages run only when the
    config has a lattice (and, for exposure, a population grid)."""
    out = runner.out

    # -- annualize ----------------------------------------------------
    def do_annualize():
        result = annualize(read_daily_csv(cfg.daily_csv),
                           read_sites_csv(cfg.sites_csv), cfg.year)
        result.table.to_csv(out / "monitors.csv")
        dump_json(
            {"excluded": [{"site_id": s, "n_valid": n, "completeness": c}
                          for s, n, c in result.excluded]},
            out / "excluded_sites.json",
        )

    entry, _ = runner.stage(
        "annualize",
        [sha256_file(cfg.daily_csv), sha256_file(cfg.sites_csv), cfg.year],
        ["monitors.csv", "excluded_sites.json"], do_annualize,
    )
    report.stages["annualize"] = entry
    sites = MonitorTable.from_csv(out / "monitors.csv")
    monitors_hash = entry["outputs"]["monitors.csv"]
    report.metrics["n_sites"] = len(sites)
    yield "annualize"

    # -- covariates ---------------------------------------------------
    geo_hashes = sorted(
        [sha256_file(p) for p in cfg.layers.values()]
        + [sha256_file(p) for p in cfg.grids.values()]
        + [sha256_file(v["path"]) for v in cfg.categorical.values()]
    )
    specs = cov.read_specs(cfg.covariates_json)
    geo_cache: dict = {}

    def geo_inputs():
        if not geo_cache:
            layers, grids, categorical = _load_geo_inputs(cfg)
            geo_cache.update(layers=layers, grids=grids, categorical=categorical)
        return geo_cache["layers"], geo_cache["grids"], geo_cache["categorical"]

    def do_covariates():
        layers, grids, categorical = geo_inputs()
        matrix = cov.build_matrix(sites, specs, layers=layers, grids=grids,
                                  categorical=categorical)
        matrix.to_csv(out / "matrix.csv")

    entry, _ = runner.stage(
        "covariates",
        [monitors_hash, sha256_file(cfg.covariates_json), geo_hashes],
        ["matrix.csv"], do_covariates,
    )
    report.stages["covariates"] = entry
    matrix = cov.CovariateMatrix.from_csv(out / "matrix.csv")
    matrix_hash = entry["outputs"]["matrix.csv"]
    report.dataset_hash = sha256_bytes((monitors_hash + matrix_hash).encode())
    yield "covariates"

    # -- fit ------------------------------------------------------------
    def do_fit():
        fitted = fit_recipe(cfg.recipe, sites, matrix,
                            seed=stage_seed(cfg.seed, "fit"))
        dump_json(fitted.to_dict(), out / "model.json")

    entry, _ = runner.stage(
        "fit", [monitors_hash, matrix_hash, cfg.recipe.to_dict(), cfg.seed],
        ["model.json"], do_fit,
    )
    report.stages["fit"] = entry
    # The report reads the model's JSON; only the predict stage rebuilds it.
    model = json.loads((out / "model.json").read_text())
    report.metrics["selected"] = model["trend"]["selected"]
    report.metrics["trend_r2"] = model["trend"]["r2"]
    report.metrics["trend_adj_r2"] = model["trend"]["adj_r2"]
    if model["kriging"] is not None:
        report.metrics["variogram"] = model["kriging"]["variogram"]
    yield "fit"

    # -- cv -------------------------------------------------------------
    def do_cv():
        plan_k = kfold_plan(sites.site_ids, cfg.cv_k,
                            seed=stage_seed(cfg.seed, "cv-folds"))
        res_k = run_cv(cfg.recipe, sites, matrix, plan_k,
                       seed=stage_seed(cfg.seed, "cv-kfold"))
        res_k.to_csv(out / "cv_kfold.csv")
        plan_g = logo_plan(sites, cfg.logo_group)
        res_g = run_cv(cfg.recipe, sites, matrix, plan_g,
                       seed=stage_seed(cfg.seed, "cv-logo"))
        res_g.to_csv(out / "cv_logo.csv")
        dump_json({"kfold": res_k.summary(), "logo": res_g.summary()},
                  out / "cv_summary.json")

    entry, _ = runner.stage(
        "cv",
        [monitors_hash, matrix_hash, cfg.recipe.to_dict(), cfg.seed,
         cfg.cv_k, cfg.logo_group],
        ["cv_kfold.csv", "cv_logo.csv", "cv_summary.json"], do_cv,
    )
    report.stages["cv"] = entry
    cv_summary = json.loads((out / "cv_summary.json").read_text())
    report.metrics["kfold_r2"] = cv_summary["kfold"]["r2_mse"]
    report.metrics["kfold_rmse"] = cv_summary["kfold"]["rmse"]
    report.metrics["logo_r2"] = cv_summary["logo"]["r2_mse"]
    report.metrics["logo_rmse"] = cv_summary["logo"]["rmse"]
    yield "cv"

    # -- predict ----------------------------------------------------------
    if cfg.prediction is not None:
        model_hash = report.stages["fit"]["outputs"]["model.json"]
        pred_outputs = ["prediction.asc"]
        if cfg.with_variance and cfg.recipe.kriging:
            pred_outputs.append("prediction_variance.asc")

        def do_predict():
            # No variance grid of an earlier run outlives its manifest entry.
            (out / "prediction_variance.asc").unlink(missing_ok=True)
            fitted = FittedModel.from_dict(model)
            layers, grids, categorical = geo_inputs()
            lattice = geodata.RasterGrid.filled(**cfg.prediction)
            needed = [s for s in specs if s.name in set(fitted.required_columns)]
            missing = set(fitted.required_columns) - {s.name for s in needed}
            if missing:
                raise InvalidArgumentError(
                    f"no covariate spec for model columns: {sorted(missing)}"
                )
            grids_by_col = cov.rasterize_covariates(
                needed, lattice, layers=layers, grids=grids, categorical=categorical,
            )
            surface = predict_grid(fitted, grids_by_col, lattice,
                                   with_variance=cfg.with_variance,
                                   model_id=cfg.recipe.label())
            geodata.write_raster(surface.concentration, out / "prediction.asc")
            if surface.variance is not None:
                geodata.write_raster(surface.variance,
                                     out / "prediction_variance.asc")
            dump_json({"n_floored": surface.n_floored, "model_id": surface.model_id},
                      out / "prediction_meta.json")

        entry, _ = runner.stage(
            "predict",
            [model_hash, geo_hashes, cfg.prediction, cfg.with_variance],
            pred_outputs + ["prediction_meta.json"], do_predict,
        )
        report.stages["predict"] = entry
        meta = json.loads((out / "prediction_meta.json").read_text())
        report.metrics["n_floored"] = meta["n_floored"]
        yield "predict"

    # -- exposure ----------------------------------------------------------
    if cfg.prediction is not None and cfg.population_grid is not None:
        pred_hash = report.stages["predict"]["outputs"]["prediction.asc"]

        def do_exposure():
            concentration = geodata.read_raster(out / "prediction.asc")
            population = geodata.read_raster(cfg.population_grid)
            try:
                curve = cumulative_exposure(concentration, population, cfg.thresholds)
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(
                    f"population grid {cfg.population_grid}: {exc}") from exc
            curve.to_csv(out / "exposure.csv")
            dump_json(curve.summary(), out / "exposure_summary.json")

        entry, _ = runner.stage(
            "exposure",
            [pred_hash, sha256_file(cfg.population_grid), list(cfg.thresholds)],
            ["exposure.csv", "exposure_summary.json"], do_exposure,
        )
        report.stages["exposure"] = entry
        summary = json.loads((out / "exposure_summary.json").read_text())
        report.metrics["pop_weighted_mean"] = summary["pop_weighted_mean"]
        report.metrics["fraction_above"] = dict(
            zip(map(str, summary["thresholds"]), summary["fraction_above"])
        )
        yield "exposure"


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

COMPARE_COLUMNS = ("model", "selection", "kriging", "excluded",
                   "kfold_r2", "logo_r2", "kfold_rmse", "logo_rmse")


def compare_models(reports: list[dict]) -> list[dict]:
    """Cross-model comparison table from run reports on one dataset."""
    if not reports:
        raise InvalidArgumentError("no reports to compare")
    hashes = {r.get("dataset_hash", "") for r in reports}
    if len(hashes) > 1:
        raise DatasetMismatchError(
            f"reports come from different datasets: {sorted(hashes)}"
        )
    rows = []
    for r in reports:
        recipe = r.get("recipe", {})
        met = r.get("metrics", {})
        rows.append({
            "model": f"{r.get('pollutant', '?')}-{len(rows) + 1}",
            "selection": recipe.get("selection", "?"),
            "kriging": bool(recipe.get("kriging", False)),
            "excluded": "+".join(recipe.get("exclude", [])) or "-",
            "kfold_r2": met.get("kfold_r2"),
            "logo_r2": met.get("logo_r2"),
            "kfold_rmse": met.get("kfold_rmse"),
            "logo_rmse": met.get("logo_rmse"),
        })
    return rows


def comparison_to_csv(rows: list[dict], path) -> None:
    write_table(path, COMPARE_COLUMNS, [[r[c] for r in rows] for c in COMPARE_COLUMNS])


def format_comparison(rows: list[dict]) -> str:
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    widths = {c: max(len(c), *(len(fmt(r[c])) for r in rows)) for c in COMPARE_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in COMPARE_COLUMNS)]
    for r in rows:
        lines.append("  ".join(fmt(r[c]).ljust(widths[c]) for c in COMPARE_COLUMNS))
    return "\n".join(lines)
