"""Cross-validation schemes, performance metrics, and the Monte Carlo
monitor-subsampling experiment.

Every CV fold re-runs the complete fitting pipeline (variable selection
or PLS component choice, and variogram fitting) on its training sites
only, so nothing about the held-out sites can leak into the fold model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .covariates import CovariateMatrix
from .errors import FoldError, InvalidArgumentError, ZeroVarianceError
from .monitors import MonitorTable
from .recipes import ModelRecipe, fit_recipe
from ._util import stage_seed, write_table

log = logging.getLogger(__name__)


def r2_mse(obs, pred) -> float:
    """Mean-square-error-based R2: 1 - SSE / SST around the 1:1 line.

    Not clamped; negative values are meaningful (model worse than the
    observed mean).
    """
    obs = np.asarray(obs, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if len(obs) < 2:
        raise InvalidArgumentError("need at least 2 observations")
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("observations have zero variance")
    return 1.0 - float(np.sum((obs - pred) ** 2)) / sst


def rmse(obs, pred) -> float:
    obs = np.asarray(obs, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return float(np.sqrt(np.mean((obs - pred) ** 2)))


# ---------------------------------------------------------------------------
# Fold plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CvPlan:
    scheme: str  # "kfold" | "leave_one_group_out"
    fold_of: dict  # site_id -> fold label (str)


def kfold_plan(site_ids, k: int, seed: int) -> CvPlan:
    """Seeded uniform shuffle then round-robin: fold sizes differ by <= 1."""
    site_ids = list(site_ids)
    n = len(site_ids)
    if not 2 <= k <= n:
        raise InvalidArgumentError(f"k must be in [2, {n}]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    width = len(str(k - 1))
    fold_of = {site_ids[order[i]]: f"{i % k:0{width}d}" for i in range(n)}
    return CvPlan(scheme="kfold", fold_of=fold_of)


def logo_plan(sites: MonitorTable, group_key: str) -> CvPlan:
    """Leave-one-group-out folds from province or city labels."""
    groups = sites.groups(group_key)
    labels = set(groups)
    if len(labels) < 2:
        raise InvalidArgumentError(
            f"leave-one-group-out needs >= 2 distinct {group_key} groups"
        )
    fold_of = {sid: grp for sid, grp in zip(sites.site_ids, groups)}
    return CvPlan(scheme="leave_one_group_out", fold_of=fold_of)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

@dataclass
class CvResult:
    scheme: str
    site_ids: tuple[str, ...]
    fold_labels: tuple[str, ...]
    observed: np.ndarray
    predicted: np.ndarray
    nn_distance_m: np.ndarray
    r2_mse: float
    rmse: float
    per_fold: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        write_table(path, ["site_id", "fold", "observed", "predicted", "nn_distance_m"],
                    [self.site_ids, self.fold_labels, self.observed, self.predicted,
                     self.nn_distance_m])

    def summary(self) -> dict:
        return {
            "scheme": self.scheme,
            "n_sites": len(self.site_ids),
            "r2_mse": self.r2_mse,
            "rmse": self.rmse,
            "per_fold": self.per_fold,
        }


def run_cv(recipe: ModelRecipe, sites: MonitorTable, matrix: CovariateMatrix,
           plan: CvPlan, seed: int = 0) -> CvResult:
    """Out-of-sample predictions under a fold plan.

    The recipe is refit from scratch inside each training fold; held-out
    responses are never touched during fitting.
    """
    if len(sites) != matrix.n_sites:
        raise InvalidArgumentError("sites and matrix row counts differ")
    missing = [s for s in sites.site_ids if s not in plan.fold_of]
    if missing:
        raise InvalidArgumentError(f"plan does not cover sites: {missing[:5]}")
    labels = np.array([plan.fold_of[s] for s in sites.site_ids])
    predicted = np.empty(len(sites))
    nn = np.empty(len(sites))
    per_fold: dict = {}
    for label in sorted(set(labels.tolist())):
        test = np.flatnonzero(labels == label)
        train = np.flatnonzero(labels != label)
        if train.size < 3:
            raise FoldError(f"fold {label!r}: only {train.size} training sites")
        try:
            fitted = fit_recipe(recipe, sites.subset(train), matrix.subset_rows(train),
                                seed=stage_seed(seed, f"fold:{label}"))
        except Exception as exc:
            raise FoldError(f"fold {label!r}: {exc}") from exc
        predicted[test], _ = fitted.predict(matrix.subset_rows(test),
                                            coords=sites.coords[test])
        d = cdist(sites.coords[test], sites.coords[train])
        nn[test] = d.min(axis=1)
        obs_f = sites.annual_mean[test]
        fold_r2 = None
        if test.size >= 2 and np.var(obs_f) > 0:
            fold_r2 = r2_mse(obs_f, predicted[test])
        per_fold[label] = {
            "n": int(test.size),
            "r2_mse": fold_r2,
            "rmse": rmse(obs_f, predicted[test]),
        }
    return CvResult(
        scheme=plan.scheme,
        site_ids=tuple(sites.site_ids),
        fold_labels=tuple(labels.tolist()),
        observed=sites.annual_mean.copy(),
        predicted=predicted,
        nn_distance_m=nn,
        r2_mse=r2_mse(sites.annual_mean, predicted),
        rmse=rmse(sites.annual_mean, predicted),
        per_fold=per_fold,
    )


# ---------------------------------------------------------------------------
# Monte Carlo training-size experiment
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloResult:
    rows: list  # dicts: n, iteration, fitting_r2, holdout_r2, holdout_kind[, kfold_r2, logo_r2]
    n_grid: tuple[int, ...]

    def to_csv(self, path) -> None:
        """One line per row; `holdout_r2` holds a squared error where
        `holdout_kind` is "sq_err", and a missing `logo_r2` is empty."""
        header = ["n", "iteration", "fitting_r2", "holdout_r2", "holdout_kind"]
        header += [k for k in ("kfold_r2", "logo_r2") if self.rows and k in self.rows[0]]
        write_table(path, header, [[r[k] for r in self.rows] for k in header])

    def summary(self) -> dict:
        """Median and interquartile range per training size of the fitting and
        holdout R2 and, when the rows carry them, the k-fold and LOGO R2; a
        holdout scored as a squared error, or an empty LOGO value, is left out."""
        out = {}
        for n in self.n_grid:
            rows = [r for r in self.rows if r["n"] == n]
            if not rows:
                continue
            scores = {"fitting_r2": [r["fitting_r2"] for r in rows],
                      "holdout_r2": [r["holdout_r2"] for r in rows if r["holdout_kind"] == "r2"]}
            scores.update({k: [r[k] for r in rows if r[k] is not None]
                           for k in ("kfold_r2", "logo_r2") if k in rows[0]})
            out[str(n)] = entry = {"n_runs": len(rows)}
            for k, vals in scores.items():
                entry[f"{k}_median"] = float(np.median(vals)) if vals else None
                entry[f"{k}_iqr"] = np.percentile(vals, [25, 75]).tolist() if vals else None
        return out


def monte_carlo_curve(recipe: ModelRecipe, sites: MonitorTable,
                      matrix: CovariateMatrix, n_grid, iterations: int,
                      seed: int, include_cv: bool = False,
                      logo_group: str = "province") -> MonteCarloResult:
    """Fit on random monitor subsets of increasing size.

    Per (n, iteration): sample n sites without replacement, fit the
    recipe on them, score fitting R2 on the sample and holdout R2 on all
    remaining sites. A holdout too small (or constant) for R2 is reported
    as mean squared error and flagged via holdout_kind. With include_cv,
    10-fold and leave-one-group-out R2 on the sample are added (slower).
    """
    if iterations < 1:
        raise InvalidArgumentError("iterations must be >= 1")
    n_total = len(sites)
    rows = []
    for n in n_grid:
        if n >= n_total:
            raise InvalidArgumentError(f"n={n} must be below the site count {n_total}")
        for it in range(iterations):
            rng = np.random.default_rng(stage_seed(seed, f"mc:{n}:{it}"))
            pick = np.sort(rng.choice(n_total, size=n, replace=False))
            rest = np.setdiff1d(np.arange(n_total), pick)
            sub_sites = sites.subset(pick)
            sub_matrix = matrix.subset_rows(pick)
            try:
                fitted = fit_recipe(recipe, sub_sites, sub_matrix,
                                    seed=stage_seed(seed, f"mc-fit:{n}:{it}"))
            except Exception as exc:
                log.warning("skipping n=%d iteration %d: %s", n, it, exc)
                continue
            pred_in, _ = fitted.predict(sub_matrix, coords=sub_sites.coords)
            fitting = r2_mse(sub_sites.annual_mean, pred_in)
            obs_out = sites.annual_mean[rest]
            pred_out, _ = fitted.predict(matrix.subset_rows(rest),
                                         coords=sites.coords[rest])
            if len(rest) >= 2 and np.var(obs_out) > 0:
                holdout = r2_mse(obs_out, pred_out)
                kind = "r2"
            else:
                holdout = float(np.mean((obs_out - pred_out) ** 2))
                kind = "sq_err"
            row = {"n": int(n), "iteration": it, "fitting_r2": fitting,
                   "holdout_r2": holdout, "holdout_kind": kind}
            if include_cv:
                plan_k = kfold_plan(sub_sites.site_ids, k=min(10, n),
                                    seed=stage_seed(seed, f"mc-cv:{n}:{it}"))
                row["kfold_r2"] = run_cv(recipe, sub_sites, sub_matrix, plan_k,
                                         seed=stage_seed(seed, f"mc-cvfit:{n}:{it}")).r2_mse
                try:
                    plan_g = logo_plan(sub_sites, logo_group)
                    row["logo_r2"] = run_cv(recipe, sub_sites, sub_matrix, plan_g,
                                            seed=stage_seed(seed, f"mc-logo:{n}:{it}")).r2_mse
                except (InvalidArgumentError, FoldError):
                    row["logo_r2"] = None
            rows.append(row)
    return MonteCarloResult(rows=rows, n_grid=tuple(int(n) for n in n_grid))
