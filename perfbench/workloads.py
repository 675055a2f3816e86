"""The two workloads: inputs made from the seed, the timed operations,
and the checks of each operation's outputs against `reference.json`.

The workload seed picks one of `VARIANTS` recorded variants, so every
seed has reference outputs to check against. A variant fixes the seeds
the program sees (the pipeline config seeds, hence the 10-fold plans, and
the Monte Carlo subsample seeds). The synthetic geography is fixed per
workload, so the accuracy metrics measure the program and not the draw
of a dataset, and every operation of a run does the same amount of work,
so its median time is steady.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from pathlib import Path

VARIANTS = 8
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
STAGES = ("annualize", "covariates", "fit", "cv", "predict", "exposure")
KINDS = ("line_length", "point_count", "distance_to_nearest", "landcover_fraction",
         "grid_sample")
REL_TOL = 1e-6  # float outputs vs reference; same code and inputs give equal bits

# The acceptance-criterion-12 national scenario, scaled from 1,500 sites x
# 100,000 cells to 250 sites x 15,000 cells on a 1,200 x 800 km extent, so
# that one run holds three set-ups and several cold pipeline runs (run_s
# is their median). The covariate set (291 columns), the lattice
# cell size and the field parameters are unchanged.
NATIONAL = dict(
    seed=5, covariate_set="full", n_sites=250, n_clusters=15,
    extent_x=1_200_000.0, extent_y=800_000.0, cluster_sd_m=15_000.0,
    n_provinces_x=3, n_provinces_y=3,
    grf_partial_sill=40.0, grf_range_m=150_000.0, noise_sd=2.0,
    prediction_cols=150, prediction_rows=100,
)
# The national scenario on a 1,600 x 1,000 km extent with enough sites for
# training sizes up to 1,000.
MONTECARLO = dict(
    NATIONAL, n_sites=1200, n_clusters=36, extent_x=1_600_000.0, extent_y=1_000_000.0,
    n_provinces_x=4, n_provinces_y=4, prediction_cols=200, prediction_rows=125,
)
MC_SIZES = (150, 500, 1000)
MC_CV_SIZE = 500
# Fixed, so the accuracy metrics these give do not vary with the workload
# seed: montecarlo's kfold_r2 and logo_r2, and national's holdout_r2.
MC_CV_SEED = 7
HOLDOUT_SEED = 0

SETUPS = {"national": 3, "montecarlo": 2}  # identical set-ups per run
WARM_REPEATS = 10        # cached reruns after each cold pipeline run
TRACE_PAIRS = {"national": 2, "montecarlo": 3}  # untraced + traced, --trace 1
# Operations per run: at least MIN_OPS (the accuracy metrics use these),
# then more while the run's seconds last, up to MAX_OPS (the operations
# with recorded references; every national op repeats the same run).
MIN_OPS = {"national": 2, "montecarlo": 3}
MAX_OPS = {"national": 6, "montecarlo": 12}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def pipeline_seed(seed: int, op: int = 0) -> int:
    return 1000 + 100 * variant_of(seed) + op


def recipes() -> dict:
    """The two recipes measured: the paper's stepwise + UK, and PLS + UK."""
    from lurk.recipes import ModelRecipe

    return {"stepwise_uk": ModelRecipe(selection="stepwise", kriging=True),
            "pls_uk": ModelRecipe(selection="pls", kriging=True)}


def load_reference() -> dict:
    """{"national": {variant: outputs},
    "montecarlo": {"rounds": {variant: [outputs per round]}, "cv": outputs}}"""
    if REFERENCE_PATH.exists():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def expected(reference: dict, workload: str, seed: int, op: int = 0):
    """Reference outputs of one operation, or None if none was recorded."""
    v = str(variant_of(seed))
    if workload == "national":  # every op repeats the same cold run
        return reference.get("national", {}).get(v)
    ops = reference.get("montecarlo", {}).get("rounds", {}).get(v, [])
    return ops[op] if op < len(ops) else None


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def generate(params: dict, tracer=None):
    from lurk.synth import SyntheticScenario, generate_synthetic

    scenario = SyntheticScenario(**params)
    if tracer is None:
        return generate_synthetic(scenario)
    with tracer.span("synth.generate"):
        return generate_synthetic(scenario)


def write_inputs(data, base: Path, config_seed: int, tracer=None) -> Path:
    """Write the scenario as pipeline inputs; the config carries the
    variant's pipeline seed."""
    from lurk.synth import write_scenario

    def write():
        path = write_scenario(data, base)
        config = json.loads(path.read_text())
        config["seed"] = config_seed
        path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
        return path

    if tracer is None:
        return write()
    with tracer.span("synth.write"):
        return write()


# ---------------------------------------------------------------------------
# Pipeline operations (national)
# ---------------------------------------------------------------------------

def load_config(config_path: Path, out_dir: Path):
    from lurk.pipeline import PipelineConfig

    cfg = PipelineConfig.from_json(config_path)
    cfg.out_dir = out_dir
    return cfg


def timed_run(config_path: Path, out_dir: Path, tracer=None) -> float:
    from lurk import pipeline

    cfg = load_config(config_path, out_dir)
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        pipeline.run(cfg)
    else:
        with tracer.span("pipeline.run"):
            pipeline.run(cfg)
    return time.perf_counter() - t0


def observe_pipeline(out_dir: Path) -> dict:
    """The outputs of a finished cold run plus its cached reruns, read
    from the run directory."""
    report = json.loads((out_dir / "report.json").read_text())
    cv = json.loads((out_dir / "cv_summary.json").read_text())
    log_tail = (out_dir / "run.log").read_text().splitlines()[-len(STAGES):]
    metrics = report["metrics"]
    return {
        "status": report["status"],
        "selected": metrics["selected"],
        "kfold_r2": metrics["kfold_r2"],
        "logo_r2": metrics["logo_r2"],
        "pop_weighted_mean": metrics["pop_weighted_mean"],
        "folds": len(cv["kfold"]["per_fold"]) + len(cv["logo"]["per_fold"]),
        "last_run_cached": sorted(line.split()[0].split("=", 1)[1] for line in log_tail
                                  if line.endswith("status=cached")),
    }


def holdout_r2(out_dir: Path) -> tuple[float, int]:
    """Holdout R2 of stepwise + UK trained on a random half of the sites
    and scored on the other half. Returns (R2, skipped iterations)."""
    from lurk import evaluation
    from lurk.covariates import CovariateMatrix
    from lurk.monitors import MonitorTable

    sites = MonitorTable.from_csv(out_dir / "monitors.csv")
    matrix = CovariateMatrix.from_csv(out_dir / "matrix.csv")
    res = evaluation.monte_carlo_curve(recipes()["stepwise_uk"], sites, matrix,
                                       n_grid=(len(sites) // 2,), iterations=1,
                                       seed=HOLDOUT_SEED)
    if not res.rows:
        return float("nan"), 1
    return float(res.rows[0]["holdout_r2"]), 0


def check_pipeline(observed: dict, expected: dict | None) -> list[str]:
    """Compare one pipeline operation's outputs with its reference."""
    errors = []
    if observed["status"] != "ok":
        errors.append(f"report status {observed['status']!r}")
    if observed["last_run_cached"] != sorted(STAGES):
        errors.append(f"warm rerun served only {observed['last_run_cached']} from cache")
    if observed.get("mc_skipped"):
        errors.append(f"{observed['mc_skipped']} skipped holdout iteration(s)")
    if expected is None:
        errors.append("no reference recorded for this operation")
        return errors
    if observed["selected"] != expected["selected"]:
        errors.append(f"selected {observed['selected']} != reference {expected['selected']}")
    for key in ("kfold_r2", "logo_r2", "pop_weighted_mean", "holdout_r2"):
        errors.extend(_close(key, observed[key], expected[key]))
    return errors


def _close(key: str, got: float, want: float) -> list[str]:
    if got is None or not abs(got - want) <= REL_TOL * max(abs(want), 1e-12):
        return [f"{key} {got!r} != reference {want!r}"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo operations
# ---------------------------------------------------------------------------

def mc_round(sites, matrix, seed: int) -> dict:
    """One Monte Carlo round: one iteration per training size, for each
    recipe. Returns holdout R2 per recipe and size, and skipped counts."""
    from lurk import evaluation

    out = {"holdout_r2": {}, "skipped": 0, "iterations": 0}
    for name, recipe in recipes().items():
        res = evaluation.monte_carlo_curve(recipe, sites, matrix, n_grid=MC_SIZES,
                                           iterations=1, seed=seed)
        summary = res.summary()
        out["holdout_r2"][name] = {str(n): summary[str(n)]["holdout_r2_median"]
                                   for n in MC_SIZES if str(n) in summary}
        out["iterations"] += len(MC_SIZES)
        out["skipped"] += len(MC_SIZES) - len(res.rows)
    return out


def mc_cv(sites, matrix) -> dict:
    """10-fold and leave-one-province-out R2 of PLS + UK (the cheaper
    recipe to refit in every fold) inside one Monte Carlo sample of
    MC_CV_SIZE sites."""
    from lurk import evaluation

    res = evaluation.monte_carlo_curve(recipes()["pls_uk"], sites, matrix,
                                       n_grid=(MC_CV_SIZE,),
                                       iterations=1, seed=MC_CV_SEED, include_cv=True)
    if not res.rows:
        return {"kfold_r2": None, "logo_r2": None, "skipped": 1}
    row = res.rows[0]
    return {"kfold_r2": row["kfold_r2"], "logo_r2": row["logo_r2"], "skipped": 0}


def check_mc_round(observed: dict, expected: dict | None) -> list[str]:
    errors = []
    if observed["skipped"]:
        errors.append(f"{observed['skipped']} skipped Monte Carlo iteration(s)")
    if expected is None:
        return errors + ["no reference recorded for this round"]
    for name, by_n in expected.items():
        for n, want in by_n.items():
            got = observed["holdout_r2"].get(name, {}).get(n)
            errors.extend(_close(f"{name} n={n} holdout_r2", got, want))
    return errors


def check_mc_cv(observed: dict, expected: dict | None) -> list[str]:
    errors = []
    if observed["skipped"]:
        errors.append("the cross-validated Monte Carlo iteration was skipped")
    if expected is None:
        return errors + ["no reference recorded for the cross-validated iteration"]
    for key in ("kfold_r2", "logo_r2"):
        errors.extend(_close(key, observed[key], expected[key]))
    return errors


# ---------------------------------------------------------------------------
# Per-kind covariate timings (traced run only)
# ---------------------------------------------------------------------------

def per_kind_calls(config_path: Path, out_dir: Path, tracer, repeats: dict) -> None:
    """Call build_matrix and rasterize_covariates once per covariate kind,
    and once on all the specs the pipeline used, on the pipeline's inputs,
    each under a span `covariates.<call>.<kind or "all">`; `repeats[call]`
    rounds of that."""
    from lurk import covariates, geodata
    from lurk.monitors import MonitorTable
    from lurk.recipes import FittedModel

    cfg = load_config(config_path, out_dir)
    sites = MonitorTable.from_csv(out_dir / "monitors.csv")
    specs = covariates.read_specs(cfg.covariates_json)
    geo = dict(
        layers={k: geodata.read_features(p) for k, p in cfg.layers.items()},
        grids={k: geodata.read_raster(p) for k, p in cfg.grids.items()},
        categorical={k: geodata.read_categorical(v["path"], v["categories"])
                     for k, v in cfg.categorical.items()},
    )
    fitted = FittedModel.from_dict(json.loads((out_dir / "model.json").read_text()))
    needed = [s for s in specs if s.name in set(fitted.required_columns)]
    lat = cfg.prediction
    lattice = geodata.RasterGrid.filled(lat["origin_x"], lat["origin_y"], lat["cell_size"],
                                        int(lat["n_cols"]), int(lat["n_rows"]))
    calls = {
        "build_matrix": lambda group: covariates.build_matrix(sites, group, **geo),
        "rasterize": lambda group: covariates.rasterize_covariates(group, lattice, **geo),
    }
    spec_sets = {"build_matrix": specs, "rasterize": needed}
    for call, fn in calls.items():
        groups = {"all": spec_sets[call]}
        groups.update({kind: [s for s in spec_sets[call] if s.kind == kind] for kind in KINDS})
        for _ in range(repeats[call]):
            for label, group in groups.items():
                if not group:
                    continue
                gc.collect()
                with tracer.span(f"covariates.{call}.{label}"):
                    fn(group)


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
