"""Model recipes: which trend stage to run and whether to add kriging.

A recipe names one member of the model family grid (selection method x
kriging on/off x covariate exclusions). Fitting a recipe runs the FULL
pipeline on the data it is given, so cross-validation can re-run
selection and variogram fitting inside every training fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .covariates import CovariateMatrix
from .errors import InvalidArgumentError
from .kriging import DEFAULT_N_BINS, KrigingModel, VariogramModel, uk_fit
from .lur import (
    LinearModel,
    PlsModel,
    StepwiseConfig,
    mean_model,
    ols_fit,
    pls_fit,
    stepwise_select,
)
from .monitors import MonitorTable
from ._util import check_keys, checked, is_finite_number, is_int, one_blas_thread, stage_seed

SELECTIONS = ("stepwise", "pls", "mean")


@dataclass(frozen=True)
class ModelRecipe:
    selection: str = "stepwise"
    kriging: bool = False
    exclude: tuple[str, ...] = ()
    stepwise: StepwiseConfig = field(default_factory=StepwiseConfig)
    max_components: int = 10
    variogram_bins: int = DEFAULT_N_BINS
    variogram_max_lag: float | None = None

    def __post_init__(self):
        if self.selection not in SELECTIONS:
            raise InvalidArgumentError(f"unknown selection {self.selection!r}")
        checked("recipe kriging", self.kriging, isinstance(self.kriging, bool), "true or false")
        checked("recipe exclude", self.exclude, isinstance(self.exclude, (list, tuple))
                and all(isinstance(c, str) for c in self.exclude), "a list of column names")
        for key in ("max_components", "variogram_bins"):
            value = getattr(self, key)
            checked(f"recipe {key}", value, is_int(value) and value >= 1, "an integer >= 1")
        lag = self.variogram_max_lag
        checked("recipe variogram_max_lag", lag, lag is None or (is_finite_number(lag) and lag > 0),
                "null or a finite number > 0")
        object.__setattr__(self, "exclude", tuple(self.exclude))

    def label(self) -> str:
        parts = [self.selection]
        if self.exclude:
            parts.append("excl-" + "+".join(self.exclude))
        parts.append("uk" if self.kriging else "no-uk")
        return "_".join(parts)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelRecipe":
        """Inverse of `plain`; missing keys take their defaults, and unknown
        keys or mistyped values raise InvalidArgumentError naming them."""
        check_keys(d, (f.name for f in fields(cls)), "recipe")
        sw = d.get("stepwise", {})
        check_keys(sw, (f.name for f in fields(StepwiseConfig)), "recipe stepwise")
        return cls(**{**d, "stepwise": StepwiseConfig(**sw)})


@dataclass
class FittedModel:
    """A fitted recipe: trend model, optional PLS transform, optional
    kriging stage. Immutable by convention once returned."""

    recipe: ModelRecipe
    trend: LinearModel
    pls: PlsModel | None
    kriging: KrigingModel | None

    @property
    def required_columns(self) -> tuple[str, ...]:
        """Covariate columns needed to predict at new locations."""
        if self.pls is not None:
            return self.pls.columns
        return self.trend.selected

    @one_blas_thread()
    def predict(self, rows, coords=None, with_variance: bool = False):
        """Concentrations at new locations: the one prediction path for CV,
        Monte Carlo holdouts and the national lattice.

        `rows` are design rows whose columns are `required_columns` in
        order; `coords` (n, 2) are needed by the kriging stage. Returns
        (mean, variance-or-None); the variance is the universal-kriging
        variance, so it is None without kriging.
        """
        if self.pls is not None:
            rows = self.pls.transform(rows)
        if self.kriging is None:
            return self.trend.predict(rows), None
        if coords is None:
            raise InvalidArgumentError("kriging prediction needs coordinates")
        return self.kriging.predict_many(coords, rows, with_variance=with_variance)

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        kriging = d.get("kriging")
        if kriging:
            kriging = KrigingModel(**{**kriging, "variogram": VariogramModel(**kriging["variogram"])})
        return cls(
            recipe=ModelRecipe.from_dict(d["recipe"]),
            trend=LinearModel(**d["trend"]),
            pls=PlsModel(**d["pls"]) if d.get("pls") else None,
            kriging=kriging or None,
        )


@one_blas_thread()
def fit_recipe(recipe: ModelRecipe, sites: MonitorTable, matrix: CovariateMatrix,
               seed: int = 0) -> FittedModel:
    """Fit a recipe end to end on the given sites."""
    if len(sites) != matrix.n_sites:
        raise InvalidArgumentError("sites and matrix row counts differ")
    work = matrix.drop_columns(recipe.exclude) if recipe.exclude else matrix
    y = sites.annual_mean
    pls_model = None
    if recipe.selection == "stepwise":
        trend = stepwise_select(work, y, recipe.stepwise)
    elif recipe.selection == "mean":
        trend = mean_model(y)
    else:  # pls
        n_usable = int(np.sum(~work.zero_variance))
        max_k = min(recipe.max_components, max(n_usable, 1), len(sites) - 1)
        pls_model = pls_fit(work, y, max_components=max_k, seed=stage_seed(seed, "pls-cv"))
        scores = pls_model.transform(work.values)
        trend = ols_fit(scores, y, [f"pls_{k + 1}" for k in range(pls_model.n_components)],
                        config={"selection": "pls", "n_components": pls_model.n_components})
    kriging_model = None
    if recipe.kriging:
        drift_rows = scores if pls_model is not None else work.select(trend.selected)
        kriging_model = uk_fit(trend, sites, drift_rows,
                               n_bins=recipe.variogram_bins,
                               max_lag=recipe.variogram_max_lag)
    return FittedModel(recipe=recipe, trend=trend, pls=pls_model,
                       kriging=kriging_model)
