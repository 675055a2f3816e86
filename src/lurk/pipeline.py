"""Declarative end-to-end pipeline: annualize -> covariates -> fit ->
cross-validate -> gridded prediction -> exposure statistics.

Each stage writes plain-file artifacts plus a manifest entry keyed by the
content hashes of the files it reads, the settings it reads and a
fingerprint of the package's own source code; rerunning the same code on
unchanged inputs reuses the cached artifact. The entry records each
output's hash from the bytes written and the metrics the report takes
from the stage, so a cached stage parses nothing. The manifest also
memoizes each file's content hash by its stat signature, so a rerun reads
only the files that changed. Stage timings go to a line-delimited log. One run at a
time writes to an output directory: a run holds its `.lock` throughout, and
a second one raises OutputLockedError.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy
import scipy

from . import covariates as cov
from . import geodata
from .errors import DatasetMismatchError, InvalidArgumentError, LurkError, StageError
from .evaluation import cv_folds, fold_jobs, kfold_plan, logo_plan, run_cv
from .exposure import DEFAULT_THRESHOLDS, cumulative_exposure, predict_grid
from .monitors import MonitorTable, annualize, read_daily_csv, read_sites_csv
from .recipes import FittedModel, ModelRecipe, fit_recipe
from ._util import (FanOut, check_keys, checked, dump_json, is_finite_number, is_int,
                    locked_dir, one_blas_thread, plain, read_json, recorded_writes, sha256_bytes,
                    sha256_file, stage_seed, write_table)

log = logging.getLogger(__name__)

STAGES = ("annualize", "covariates", "fit", "cv", "predict", "exposure")
CONFIG_KEYS = ("pollutant", "year", "monitors", "covariates", "layers", "grids",
               "categorical_grids", "recipe", "cv", "prediction", "population_grid",
               "thresholds", "seed", "out", "with_variance")
LATTICE_KEYS = tuple(f.name for f in fields(geodata.Lattice))
# A memoized hash is trusted only for a file whose last change (st_ctime)
# came more than a window before the hash, so that a later write moves the
# stamp: this long for a stamp of whole milliseconds (as filesystems of 1 or
# 2 s ticks write), 20 ms (two or more kernel clock ticks) for a finer one.
RACY_WINDOW_NS = 2_000_000_000
# Seconds of one core per byte each geo reader parses: over the perfbench and
# full-scale inputs, the median of its one-process time per byte (2-vCPU Xeon).
PARSE_S = {"read_features": 6.1e-8, "read_raster": 2.55e-8, "read_categorical": 2.2e-8}


@functools.cache
def code_fingerprint() -> str:
    """sha256 over the numpy and scipy versions and the package's sources
    (sorted `*.py` names and bytes), computed once per process; part of
    every stage key."""
    parts = [numpy.__version__.encode(), scipy.__version__.encode()]
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
        d = read_json(path)
        check_keys(d, CONFIG_KEYS, "config", ("pollutant", "year", "monitors", "covariates"))
        check_keys(d["monitors"], ("daily", "sites"), "config monitors", ("daily", "sites"))
        cv, lattice, seed = d.get("cv", {}), d.get("prediction"), d.get("seed", cls.seed)
        check_keys(cv, ("k", "logo_group"), "config cv")
        maps = {name: d.get(name, {}) for name in ("layers", "grids", "categorical_grids")}
        for name, paths in maps.items():
            checked(f"config {name}", paths, isinstance(paths, dict), "an object")
        for name, entry in maps["categorical_grids"].items():
            check_keys(entry, ("path", "categories"), f"config categorical_grids {name!r}",
                       ("path", "categories"))
            codes = entry["categories"]
            checked(f"config categorical_grids {name!r} categories", codes,
                    isinstance(codes, list) and all(map(is_int, codes)), "a list of integers")
        k, logo_group = cv.get("k", cls.cv_k), cv.get("logo_group", cls.logo_group)
        with_variance = d.get("with_variance", cls.with_variance)
        if lattice is not None:
            check_keys(lattice, LATTICE_KEYS, "config prediction", LATTICE_KEYS)
            checked("config prediction", lattice, all(map(is_finite_number, lattice.values()))
                    and is_int(lattice["n_cols"]) and is_int(lattice["n_rows"]),
                    "a lattice of finite numbers with integer n_cols and n_rows")
            try:
                geodata.Lattice(**lattice)  # the geometry checks
            except InvalidArgumentError as e:
                raise InvalidArgumentError(f"config prediction: {e}") from None
        thresholds = d.get("thresholds", cls.thresholds)
        checked("config thresholds", thresholds, isinstance(thresholds, (list, tuple))
                and all(map(is_finite_number, thresholds)), "a list of finite numbers")
        base, population = path.parent, d.get("population_grid")

        def resolve(what, p):  # absolute, with no syscall: symlinks stay as written
            checked(f"config {what}", p, isinstance(p, str), "a path string")
            return Path(os.path.abspath(base / p))

        return cls(
            pollutant=checked("config pollutant", d["pollutant"], isinstance(d["pollutant"], str),
                              "a string"),
            year=checked("config year", d["year"], is_int(d["year"]), "an integer"),
            daily_csv=resolve("monitors.daily", d["monitors"]["daily"]),
            sites_csv=resolve("monitors.sites", d["monitors"]["sites"]),
            covariates_json=resolve("covariates", d["covariates"]),
            layers={k: resolve(f"layers {k!r}", v) for k, v in maps["layers"].items()},
            grids={k: resolve(f"grids {k!r}", v) for k, v in maps["grids"].items()},
            categorical={
                k: {"path": resolve(f"categorical_grids {k!r} path", v["path"]),
                    "categories": v["categories"]}
                for k, v in maps["categorical_grids"].items()
            },
            recipe=ModelRecipe.from_dict(d.get("recipe", {})),
            cv_k=checked("config cv.k", k, is_int(k) and k >= 2, "an integer >= 2"),
            logo_group=checked("config cv.logo_group", logo_group,
                               logo_group in ("province", "city"), '"province" or "city"'),
            prediction=lattice,
            population_grid=(None if population is None
                             else resolve("population_grid", population)),
            thresholds=tuple(thresholds),
            seed=checked("config seed", seed, is_int(seed), "an integer"),
            out_dir=resolve("out", d.get("out", "run")),
            with_variance=checked("config with_variance", with_variance,
                                  isinstance(with_variance, bool), "true or false"),
        )

    def _geo_inputs(self) -> list[tuple]:
        """(stage-key label, covariate-engine argument, name, (`geodata` reader,
        path, *args)) of each layer, grid and land-cover grid, in config order."""
        layers, grids, lc = self.layers.items(), self.grids.items(), self.categorical.items()
        return [*((f"layer {k}", "layers", k, ("read_features", p)) for k, p in layers),
                *((f"grid {k}", "grids", k, ("read_raster", p)) for k, p in grids),
                *((f"categorical {k}", "categorical", k,
                   ("read_categorical", v["path"], v["categories"])) for k, v in lc)]

    def validate(self) -> dict:
        """InvalidArgumentError naming every missing input file; otherwise
        {path string: (clock, stat signature)} of each input, the clock read
        before the stats, so the run's hash memo need not stat it again."""
        paths = [self.daily_csv, self.sites_csv, self.covariates_json,
                 *(read[1] for *_, read in self._geo_inputs())]
        if self.population_grid is not None:
            paths.append(self.population_grid)
        stats, missing, clock = {}, [], time.time_ns()
        for path in map(os.fspath, paths):
            try:
                stats[path] = clock, _signature(path)
            except FileNotFoundError:
                missing.append(path)
        if missing:
            raise InvalidArgumentError(f"missing input files: {missing}")
        return stats


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


class _Runner:
    def __init__(self, config: PipelineConfig, input_stats: dict):
        self.out = Path(config.out_dir)  # made by `locked_dir`
        self.manifest_path = self.out / "manifest.json"
        self.manifest = _read_manifest(self.manifest_path)
        self.memo = self.manifest.setdefault("files", {})  # path -> hash, stat, hashed_at_ns
        self.memo_changed = False  # since the manifest was last written
        self.log_path = self.out / "run.log"
        self.report = RunReport(
            status="ok", pollutant=config.pollutant, year=config.year, seed=config.seed,
            recipe=plain(config.recipe),
        )
        self.hashes = {}  # path string -> sha256, taken at most once per run
        self.input_stats = input_stats  # path string -> (clock, signature), from `validate`

    def _log_line(self, text: str) -> None:
        with open(self.log_path, "a") as f:
            f.write(text + "\n")
        log.info(text)

    def hash(self, path) -> str:
        path = os.fspath(path)
        digest = self.hashes.get(path)
        if digest is None:
            digest = self.hashes[path] = self._memo_hash(path)
        return digest

    def _memo_hash(self, path: str) -> str:
        """The file's sha256 from the memo when its stat signature (for an
        input, the one `validate` took) is the recorded one and it last
        changed more than its window before that hash; otherwise hashed. A
        hash that a second stat shows unchanged by the read replaces the memo
        entry unless it only confirms it: same digest and signature, taken
        within the window too, so no later run could trust it more."""
        hashed_at, signature = (self.input_stats.pop(path, None)
                                or (time.time_ns(), _signature(path)))
        window = RACY_WINDOW_NS if signature[4] % 1_000_000 == 0 else 20_000_000
        memo = self.memo.get(path)
        same_stat = memo is not None and memo["stat"] == signature
        if same_stat and memo["hashed_at_ns"] - signature[4] > window:
            return memo["sha256"]
        digest = sha256_file(path)
        if _signature(path) != signature:
            self.memo_changed |= self.memo.pop(path, None) is not None
        elif (not (same_stat and memo["sha256"] == digest)
              or hashed_at - signature[4] > window):
            self.memo[path] = {"sha256": digest, "stat": signature, "hashed_at_ns": hashed_at}
            self.memo_changed = True
        return digest

    def _output_hash(self, path: str) -> str | None:
        """The output's hash; None when the file is missing."""
        try:
            return self.hash(path)
        except FileNotFoundError:
            return None

    def write_manifest(self) -> None:
        dump_json(self.manifest, self.manifest_path)
        self.memo_changed = False

    def finish(self) -> None:
        """Write the manifest if the memo changed since it was last
        written, then the report if its text is not the one on disk."""
        if self.memo_changed:
            self.write_manifest()
        dump_json(plain(self.report), self.out / "report.json", if_changed=True)

    def probe(self, name: str, reads: dict, values: dict, outputs: list[str]) -> tuple:
        """(key, cached) of a stage, taken before its compute runs: `reads`
        labels each file the compute reads (a config input by its config
        name, an earlier artifact by its file name) and `values` holds every
        other setting it reads; the key is the code fingerprint, each read's
        content hash by label and the values, and holds no path. The stage
        is cached when the key matches the manifest, the entry has its
        metrics and every output on disk still hashes as recorded."""
        hashes = {label: self.hash(path) for label, path in reads.items()}
        key = sha256_bytes(json.dumps([name, code_fingerprint(), hashes, values],
                                      sort_keys=True).encode())
        entry = self.manifest.get(name)
        cached = (entry is not None and entry.get("key") == key
                  and isinstance(entry.get("metrics"), dict)
                  and all(self._output_hash(os.path.join(self.out, o)) == entry["outputs"].get(o)
                          for o in outputs))
        return key, cached

    def stage(self, name: str, reads: dict, values: dict, outputs: list[str], compute,
              probed: tuple | None = None):
        """Run one cached stage and record its manifest entry in the report:
        `probed` is the stage's `probe`, taken now when not given (one taken
        earlier holds while nothing has rewritten the stage's reads and
        outputs). `compute` writes every output and returns the metrics the
        report takes from the stage; the entry keeps them, and each output's
        sha256 from the bytes written."""
        key, cached = probed or self.probe(name, reads, values, outputs)
        if cached:
            entry = self.manifest[name]
            self._log_line(f"stage={name} status=cached")
        else:
            paths = {o: os.path.join(self.out, o) for o in outputs}
            for path in paths.values():
                self.hashes.pop(path, None)  # rewritten below
            t0 = time.perf_counter()
            try:
                with recorded_writes() as written:
                    metrics = compute()
                unwritten = [o for o in outputs if paths[o] not in written]
                if unwritten:
                    raise RuntimeError(f"stage did not write its outputs {unwritten}")
            except Exception as exc:
                self._log_line(f"stage={name} status=failed error={exc}")
                raise StageError(name, exc) from exc
            elapsed = time.perf_counter() - t0
            entry = self.manifest[name] = {
                "key": key,
                "outputs": {o: written[paths[o]] for o in outputs},
                "elapsed_s": round(elapsed, 4),
                # as a cached run reads them back from the manifest
                "metrics": json.loads(json.dumps(metrics)),
            }
            self.write_manifest()
            self._log_line(f"stage={name} status=ok elapsed_s={elapsed:.3f}")
        self.report.stages[name] = {k: v for k, v in entry.items() if k != "metrics"}
        self.report.metrics.update(entry["metrics"])
        return entry, cached


def _signature(path: str) -> list:
    st = os.stat(path)
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _is_memo_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("sha256"), str)
            and is_int(entry.get("hashed_at_ns")) and isinstance(entry.get("stat"), list)
            and len(entry["stat"]) == 5 and all(map(is_int, entry["stat"])))


def _read_manifest(path: Path) -> dict:
    """The manifest at `path`; {} when there is none. A manifest that does
    not parse to an object of stage entries is logged and read as empty, so
    every stage recomputes; a malformed "files" memo is logged and read as
    empty, so every file is hashed."""
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    except ValueError:  # not JSON, or not UTF-8
        manifest = None
    if not (isinstance(manifest, dict) and all(
            isinstance(manifest[s], dict) and isinstance(manifest[s].get("outputs"), dict)
            for s in STAGES if s in manifest)):
        log.warning("%s: unreadable manifest; every stage recomputes", path)
        return {}
    files = manifest.get("files", {})
    if not (isinstance(files, dict) and all(map(_is_memo_entry, files.values()))):
        log.warning("%s: malformed file-hash memo; every file is hashed", path)
        manifest["files"] = {}
    return manifest


def _read_geo(read: tuple, argument: str, name: str, at: dict) -> tuple:
    """The sha256 of a geo input's bytes, what `geodata.<reader>` makes of
    them and, when `at` holds "specs", `covariates.extract` of the specs
    reading it at the points `at["xy"]`. A `FanOut` job, run in a worker or by
    the busy parent: it reads the file once, and looks the reader and the
    engine up where it runs (patched ones too)."""
    reader, path, *args = read
    data = Path(path).read_bytes()
    value = getattr(geodata, reader)(path, *args, data=data)
    columns = (cov.extract(cov.specs_reading(at["specs"], argument, name), *at["xy"].T,
                           **{argument: {name: value}}) if "specs" in at else None)
    return sha256_bytes(data), value, columns


@one_blas_thread()
def run(config: PipelineConfig, until: str = STAGES[-1]) -> RunReport:
    """Execute the pipeline through stage `until` (every stage by default);
    returns (and writes) the run report. The run holds the output
    directory's lock throughout (`_util.locked_dir`): OutputLockedError,
    before anything is read or written, while another run holds it. A run
    that goes past annualize lets the geo inputs parse and extract ahead,
    and one that reaches cv refits its folds ahead (see `_stages`); no
    worker outlives the run, whether it ends, fails or is interrupted."""
    if until not in STAGES:
        raise InvalidArgumentError(f"unknown stage {until!r}; stages are {STAGES}")
    input_stats = config.validate()
    with locked_dir(config.out_dir), contextlib.ExitStack() as workers:
        runner = _Runner(config, input_stats)
        report = runner.report
        try:
            _stages(config, runner, workers, until)
        except StageError as exc:
            report.status = "failed"
            report.failed_stage = exc.stage
            report.error = str(exc.cause)
            runner.finish()
            raise
        runner.finish()
    return report


def _stages(cfg: PipelineConfig, runner: _Runner, workers: contextlib.ExitStack,
            until: str) -> None:
    """Run every stage that `STAGES` lists up to `until`, filling the runner's
    report, in the order annualize, covariates, fit, predict, exposure, cv.
    Two jobs run ahead in the workers of a `FanOut` each, closed with
    `workers`. The geo inputs parse from the start of annualize's compute when
    `until` is past annualize, each job also extracting at the sites
    (`site_columns`), and otherwise from the first stage that computes with
    them. The cv stage reads neither the model nor the maps, so its folds
    refit from right after covariates, when the cv stage will compute, while
    the parent runs fit, predict and exposure; the cv stage then runs the
    folds still queued, takes what the workers delivered and refits every
    other fold itself (`run_cv`). A fold that fails therefore fails the run
    after the maps and exposure are written. The predict and exposure stages
    run only when the config has a lattice (and, for exposure, a population
    grid). A run whose `until` reaches cv fails that stage right after
    annualize when `cv.k` exceeds annualize's site count.

    Inputs and artifacts are read on first use and kept, and only by a
    stage that computes: a cached stage costs the hashes of its reads and
    outputs (memo hits for unchanged files), and its report metrics come
    from its manifest entry."""
    out, report, last = runner.out, runner.report, STAGES.index(until)

    def reaches(stage: str) -> bool:
        return STAGES.index(stage) <= last

    geo_inputs = cfg._geo_inputs()
    geo_reads = {label: read[1] for label, _, _, read in geo_inputs}
    categories = {name: read[2] for _, arg, name, read in geo_inputs if arg == "categorical"}
    at = {}  # sites.csv's "ids" and "xy", and any "specs", once annualize's compute reads them
    geo_jobs = [(PARSE_S[read[0]] * runner.input_stats[os.fspath(read[1])][1][2], _read_geo,
                 (read, argument, name, at))  # sized by `validate`'s stats, before a hash pops them
                for _, argument, name, read in geo_inputs]
    geo_parse = functools.cache(  # busy when annualize, computed beside the jobs, starts them
        lambda: workers.enter_context(contextlib.closing(FanOut(geo_jobs, busy=bool(at)))))
    geo_results = functools.cache(lambda: geo_parse().results())

    @functools.cache
    def geo() -> dict:
        """The covariate engine's `layers`, `grids` and `categorical` arguments
        (those configured), taken in config order. A job's value is used
        only when the bytes it parsed hash as the calling stage's key says;
        any other file is parsed here, after the key was taken, and nowhere
        else outside a job, so the first failure in config order raises
        its reader's error."""
        got, loaded = geo_results(), {}
        for i, (_, argument, name, (reader, path, *args)) in enumerate(geo_inputs):
            loaded.setdefault(argument, {})[name] = (
                got[i][1] if i in got and got[i][0] == runner.hash(path)
                else getattr(geodata, reader)(path, *args))
        return loaded

    # -- annualize ----------------------------------------------------
    def do_annualize():
        meta = read_sites_csv(cfg.sites_csv)
        if until != "annualize":  # the jobs also extract, given specs that parse
            at.update(ids=list(meta), xy=numpy.array([m[:2] for m in meta.values()]).reshape(-1, 2))
            with contextlib.suppress(LurkError, OSError):
                at["specs"] = cov.read_specs(cfg.covariates_json)
            geo_parse()
        result = annualize(read_daily_csv(cfg.daily_csv), meta, cfg.year)
        if not len(result.table):
            raise InvalidArgumentError(
                f"{cfg.daily_csv}: no site meets the completeness rule "
                f"({len(result.excluded)} site(s) excluded)")
        result.table.to_csv(out / "monitors.csv")
        excluded = {"n_included": len(result.table),
                    "excluded": [{"site_id": s, "n_valid": n, "completeness": c}
                                 for s, n, c in result.excluded]}
        dump_json(excluded, out / "excluded_sites.json")
        return {"n_sites": excluded["n_included"]}

    runner.stage("annualize", {"daily": cfg.daily_csv, "sites": cfg.sites_csv},
                 {"year": cfg.year}, ["monitors.csv", "excluded_sites.json"], do_annualize)
    sites = functools.cache(lambda: MonitorTable.from_csv(out / "monitors.csv"))
    n_sites = report.metrics["n_sites"]  # from the manifest entry when cached
    if reaches("cv") and cfg.cv_k > n_sites:
        exc = InvalidArgumentError(f"k must be in [2, {n_sites}]")
        runner._log_line(f"stage=cv status=failed error={exc}")
        raise StageError("cv", exc)
    if not reaches("covariates"):
        return

    # -- covariates ---------------------------------------------------
    specs = functools.cache(lambda: cov.read_specs(cfg.covariates_json))

    def site_columns() -> dict:
        """{spec name: (values, valid)} of monitors.csv's sites, by site id,
        from each geo job whose digest is the file's hash in the stage key
        and whose specs for its input are the stage's; none unless each
        site's x and y are, bit for bit, those the jobs extracted at."""
        got, table = geo_results(), sites()
        index = {site: k for k, site in enumerate(at.get("ids", ()))}
        rows = [index.get(site) for site in table.site_ids]
        if "specs" not in at or None in rows or at["xy"][rows].tobytes() != table.coords.tobytes():
            return {}
        columns = {}
        for i, (_, argument, name, (_, path, *_)) in enumerate(geo_inputs):
            group = cov.specs_reading(specs(), argument, name)
            if (i in got and got[i][0] == runner.hash(path)
                    and group == cov.specs_reading(at["specs"], argument, name)):
                values, valid = got[i][2]
                columns.update((s.name, (values[rows, j], valid[rows, j]))
                               for j, s in enumerate(group))
        return columns

    def do_covariates():
        matrix = cov.build_matrix(sites(), specs(), **geo(), columns=site_columns())
        matrix.to_csv(out / "matrix.csv")
        return {}

    runner.stage("covariates", {"monitors.csv": out / "monitors.csv",
                                "covariates": cfg.covariates_json, **geo_reads},
                 {"categories": categories}, ["matrix.csv"], do_covariates)
    matrix = functools.cache(lambda: cov.CovariateMatrix.from_csv(out / "matrix.csv"))
    report.dataset_hash = sha256_bytes(
        (runner.hash(out / "monitors.csv") + runner.hash(out / "matrix.csv")).encode())
    if not reaches("fit"):
        return

    # -- cv folds, refit in workers while fit, predict and exposure run --
    trend_reads = {"monitors.csv": out / "monitors.csv", "matrix.csv": out / "matrix.csv"}
    fit_values = {"recipe": plain(cfg.recipe), "seed": cfg.seed}
    fit_args = (trend_reads, fit_values, ["model.json"])
    cv_args = (trend_reads, {**fit_values, "k": cfg.cv_k, "logo_group": cfg.logo_group},
               ["cv_kfold.csv", "cv_logo.csv", "cv_summary.json"])
    maps = cfg.prediction is not None and reaches("predict")

    @functools.cache
    def cv_schemes() -> list[tuple]:  # (artifact stem, plan, seed, folds) of each scheme
        plans = [("kfold", kfold_plan(sites().site_ids, cfg.cv_k,
                                      seed=stage_seed(cfg.seed, "cv-folds")),
                  stage_seed(cfg.seed, "cv-kfold")),
                 ("logo", logo_plan(sites(), cfg.logo_group), stage_seed(cfg.seed, "cv-logo"))]
        return [(stem, plan, seed, cv_folds(sites(), plan, seed)) for stem, plan, seed in plans]

    fit_probe = runner.probe("fit", *fit_args)
    cv_probe = runner.probe("cv", *cv_args) if reaches("cv") else None
    folds = None  # the FanOut of both schemes' fold jobs, in scheme then fold order
    if cv_probe is not None and not cv_probe[1]:
        try:
            jobs = [job for *_, scheme in cv_schemes()
                    for job in fold_jobs(cfg.recipe, sites(), matrix(), scheme)]
        except LurkError:  # a plan or a fold the cv stage fails on, in its turn
            jobs = []
        # The parent works meanwhile when the fit, and so the maps, compute.
        folds = workers.enter_context(contextlib.closing(FanOut(jobs, busy=not fit_probe[1])))

    # -- fit ------------------------------------------------------------
    def do_fit():
        fitted = fit_recipe(cfg.recipe, sites(), matrix(),
                            seed=stage_seed(cfg.seed, "fit"))
        model = plain(fitted)
        dump_json(model, out / "model.json")
        trend = model["trend"]
        metrics = {"selected": trend["selected"], "trend_r2": trend["r2"],
                   "trend_adj_r2": trend["adj_r2"]}
        if model["kriging"] is not None:
            metrics["variogram"] = model["kriging"]["variogram"]
        return metrics

    runner.stage("fit", *fit_args, do_fit, fit_probe)

    # -- predict ----------------------------------------------------------
    if maps:
        pred_outputs = ["prediction.asc"]
        if cfg.with_variance and cfg.recipe.kriging:
            pred_outputs.append("prediction_variance.asc")

        def do_predict():
            # No variance grid of an earlier run outlives its manifest entry.
            (out / "prediction_variance.asc").unlink(missing_ok=True)
            model = FittedModel.from_dict(json.loads((out / "model.json").read_text()))
            surface = predict_grid(model, specs(), geodata.Lattice(**cfg.prediction),
                                   **geo(), with_variance=cfg.with_variance)
            geodata.write_raster(surface.concentration, out / "prediction.asc")
            if surface.variance is not None:
                geodata.write_raster(surface.variance,
                                     out / "prediction_variance.asc")
            meta = {"n_floored": surface.n_floored, "model_id": cfg.recipe.label()}
            dump_json(meta, out / "prediction_meta.json")
            return {"n_floored": meta["n_floored"]}

        runner.stage("predict", {"model.json": out / "model.json",
                                 "covariates": cfg.covariates_json, **geo_reads},
                     {"categories": categories, "lattice": cfg.prediction,
                      "with_variance": cfg.with_variance},
                     pred_outputs + ["prediction_meta.json"], do_predict)

    # -- exposure ----------------------------------------------------------
    if maps and reaches("exposure") and cfg.population_grid is not None:
        def do_exposure():
            concentration = geodata.read_raster(out / "prediction.asc")
            population = geodata.read_raster(cfg.population_grid)
            try:
                curve = cumulative_exposure(concentration, population, cfg.thresholds)
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(
                    f"population grid {cfg.population_grid}: {exc}") from exc
            curve.to_csv(out / "exposure.csv")
            summary = curve.summary()
            dump_json(summary, out / "exposure_summary.json")
            return {"pop_weighted_mean": summary["pop_weighted_mean"],
                    "fraction_above": dict(zip(map(str, summary["thresholds"]),
                                               summary["fraction_above"]))}

        runner.stage("exposure", {"prediction.asc": out / "prediction.asc",
                                  "population": cfg.population_grid},
                     {"thresholds": list(cfg.thresholds)},
                     ["exposure.csv", "exposure_summary.json"], do_exposure)

    # -- cv -------------------------------------------------------------
    if not reaches("cv"):
        return

    def do_cv():
        got = {} if folds is None else folds.results()
        first, summary = 0, {}
        for stem, plan, seed, scheme in cv_schemes():
            delivered = {i - first: got[i] for i in range(first, first + len(scheme)) if i in got}
            result = run_cv(cfg.recipe, sites(), matrix(), plan, seed, delivered)
            result.to_csv(out / f"cv_{stem}.csv")
            summary[stem], first = result.summary(), first + len(scheme)
        dump_json(summary, out / "cv_summary.json")
        return {"kfold_r2": summary["kfold"]["r2_mse"], "kfold_rmse": summary["kfold"]["rmse"],
                "logo_r2": summary["logo"]["r2_mse"], "logo_rmse": summary["logo"]["rmse"]}

    runner.stage("cv", *cv_args, do_cv, cv_probe)


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

COMPARE_METRICS = ("kfold_r2", "logo_r2", "kfold_rmse", "logo_rmse")
COMPARE_COLUMNS = ("model", "selection", "kriging", "excluded", *COMPARE_METRICS)


def compare_models(reports: list[dict]) -> list[dict]:
    """Cross-model comparison table from run reports on one dataset."""
    if not reports:
        raise InvalidArgumentError("no reports to compare")
    for i, r in enumerate(reports, 1):
        checked(f"report {i}", r, isinstance(r, dict), "an object")
    hashes = {r.get("dataset_hash", "") for r in reports}
    if len(hashes) > 1:
        raise DatasetMismatchError(
            f"reports come from different datasets: {sorted(hashes)}"
        )
    rows = []
    for r in reports:
        recipe, metrics = r.get("recipe", {}), r.get("metrics", {})
        rows.append({
            "model": f"{r.get('pollutant', '?')}-{len(rows) + 1}",
            "selection": recipe.get("selection", "?"),
            "kriging": bool(recipe.get("kriging", False)),
            "excluded": "+".join(recipe.get("exclude", [])) or "-",
            **{c: metrics.get(c) for c in COMPARE_METRICS},
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
