"""Gridded prediction and population exposure statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariates import extract
from .geodata import DEFAULT_NODATA, Lattice, RasterGrid, box_sum, summed_area_table
from .errors import InvalidArgumentError
from .recipes import FittedModel
from ._util import write_table

# WHO annual guideline/interim-target levels plus the 35 ug/m3 national
# standard and the 40 ug/m3 NO2 guideline.
DEFAULT_THRESHOLDS = (10.0, 15.0, 25.0, 35.0, 40.0)


@dataclass(frozen=True)
class PredictionSurface:
    concentration: RasterGrid
    variance: RasterGrid | None
    n_floored: int  # negative predictions floored at zero


@dataclass(frozen=True)
class ExposureCurve:
    thresholds: tuple[float, ...]
    fraction_above: tuple[float, ...]
    pop_weighted_mean: float

    def to_csv(self, path) -> None:
        write_table(path, ["threshold", "fraction_above"], [self.thresholds, self.fraction_above])

    def summary(self) -> dict:
        return {
            "pop_weighted_mean": self.pop_weighted_mean,
            "thresholds": list(self.thresholds),
            "fraction_above": list(self.fraction_above),
        }


def predict_grid(fitted: FittedModel, specs, lattice: Lattice, layers: dict | None = None,
                 grids: dict | None = None, categorical: dict | None = None,
                 with_variance: bool = False) -> PredictionSurface:
    """Evaluate a fitted model at every cell center of a lattice.

    The model's columns are looked up by name in `specs` and evaluated at
    the cell centers by one `extract` call; cells where `extract` marks
    any column invalid become nodata. The valid cells go through one
    `FittedModel.predict` call; negative means are floored at zero and
    counted.
    """
    by_name = {s.name: s for s in specs}
    columns = fitted.required_columns
    missing = sorted(set(columns) - by_name.keys())
    if missing:
        raise InvalidArgumentError(f"no covariate spec for model columns: {missing}")
    xs, ys = lattice.center_meshgrid()
    values, valid = extract([by_name[c] for c in columns], xs, ys, layers, grids, categorical)
    idx = np.flatnonzero(valid.all(axis=1))
    # Gathered column-major, the layout the model computes in, so that no
    # second copy is made: `take` returns a new C-ordered (columns, cells)
    # array, whose transpose is that layout.
    rows = np.take(values.T, idx, axis=1).T
    mean, var = fitted.predict(rows, coords=np.column_stack([xs[idx], ys[idx]]),
                               with_variance=with_variance)
    neg = mean < 0.0
    mean[neg] = 0.0

    def on_lattice(vals):
        out = np.full(lattice.n_cols * lattice.n_rows, DEFAULT_NODATA)
        out[idx] = vals
        return RasterGrid(**lattice.geometry(), values=out)

    return PredictionSurface(
        concentration=on_lattice(mean),
        variance=on_lattice(var) if var is not None else None,
        n_floored=int(neg.sum()),
    )


def cumulative_exposure(concentration: RasterGrid, population: RasterGrid,
                        thresholds=DEFAULT_THRESHOLDS) -> ExposureCurve:
    """Population fraction living above each threshold (strictly above)."""
    if not concentration.same_lattice(population):
        raise InvalidArgumentError(
            "population grid is not on the concentration lattice; population "
            "counts are not resampled, so supply them on the prediction lattice"
        )
    c = concentration.values.ravel()
    p = population.values.ravel()
    valid = (c != concentration.nodata) & (p != population.nodata)
    if np.any(p[valid] < 0):
        raise InvalidArgumentError("population must be non-negative")
    total = float(p[valid].sum())
    if total <= 0:
        raise InvalidArgumentError("total population over valid cells is zero")
    ts = sorted(float(t) for t in thresholds)
    fractions = [float(p[valid & (c > t)].sum() / total) for t in ts]
    return ExposureCurve(
        thresholds=tuple(ts),
        fraction_above=tuple(fractions),
        pop_weighted_mean=float((p[valid] * c[valid]).sum() / total),
    )


def window_variance(concentration: RasterGrid, window_cells: int) -> RasterGrid:
    """Population variance of valid cells in a centered square window.

    Edge windows use the available (partial) neighborhood; cells that are
    nodata in the concentration grid stay nodata in the output.
    """
    if window_cells < 1 or window_cells % 2 == 0:
        raise InvalidArgumentError("window_cells must be a positive odd number")
    vals = concentration.values
    valid = vals != concentration.nodata
    # Center on the global mean before squaring to keep E[x^2]-E[x]^2 stable.
    offset = float(vals[valid].mean()) if np.any(valid) else 0.0
    v = np.where(valid, vals - offset, 0.0)
    nr, nc = concentration.n_rows, concentration.n_cols
    half = window_cells // 2
    rows, cols = np.arange(nr)[:, None], np.arange(nc)
    r0, r1 = np.maximum(rows - half, 0), np.minimum(rows + half + 1, nr)
    c0, c1 = np.maximum(cols - half, 0), np.minimum(cols + half + 1, nc)
    cnt, sum1, sum2 = (box_sum(summed_area_table(a, np.float64), r0, r1, c0, c1)
                       for a in (valid, v, v * v))
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(cnt > 0, np.maximum(sum2 / cnt - (sum1 / cnt) ** 2, 0.0), 0.0)
    out = np.where(valid, var, concentration.nodata)
    return concentration.with_values(out)
