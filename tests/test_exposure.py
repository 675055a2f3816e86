import re

import numpy as np
import pytest

from lurk import geodata
from lurk.covariates import CovariateMatrix, CovariateSpec, extract
from lurk.errors import InvalidArgumentError
from lurk.exposure import (
    cumulative_exposure,
    predict_grid,
    window_variance,
)
from lurk.kriging import KrigingModel, VariogramModel
from lurk.lur import LinearModel, ols_fit
from lurk.recipes import FittedModel, ModelRecipe, fit_recipe
from lurk.synth import SyntheticScenario, generate_synthetic, simulate_grf


def grid_of(values, cell=1000.0, nodata=-9999.0):
    values = np.asarray(values, dtype=np.float64)
    return geodata.RasterGrid(0.0, 0.0, cell, values.shape[1], values.shape[0],
                              values, nodata)


def fitted_of(trend, kriging=None):
    return FittedModel(recipe=ModelRecipe(kriging=kriging is not None), trend=trend,
                       pls=None, kriging=kriging)


def intercept_model(value):
    return fitted_of(LinearModel(
        selected=(), intercept=value, coefficients=np.empty(0),
        entry_signs=np.empty(0), r2=0.0, adj_r2=0.0,
        residuals=np.zeros(3), p_values=np.empty(0), n=3,
    ))


# -- predict_grid ---------------------------------------------------------------

def sampled(name="g"):
    """A spec that samples the grid named `name` at each point."""
    return CovariateSpec(name, "grid_sample", name)


def linear_model(column, intercept, slope):
    return fitted_of(LinearModel(
        selected=(column,), intercept=intercept, coefficients=np.array([slope]),
        entry_signs=np.array([1.0]), r2=1.0, adj_r2=1.0,
        residuals=np.zeros(3), p_values=np.array([0.0]), n=3,
    ))


def test_intercept_only_uniform_surface():
    surf = predict_grid(intercept_model(40.0), [], geodata.Lattice(0.0, 0.0, 1000.0, 5, 4))
    assert np.all(surf.concentration.values == 40.0)
    assert surf.concentration.nodata == geodata.DEFAULT_NODATA
    assert surf.n_floored == 0


def test_linear_model_on_zero_grid_gives_intercept():
    zeros = geodata.RasterGrid.filled(0.0, 0.0, 500.0, 6, 6)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 1))
    y = 7.0 + 2.0 * X[:, 0] + rng.normal(0, 0.01, 30)
    m = ols_fit(X, y, ["g"])
    surf = predict_grid(fitted_of(m), [sampled()], zeros, grids={"g": zeros})
    assert np.allclose(surf.concentration.values, m.intercept)


def test_missing_spec_error_names_the_column():
    m = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.1]), ["g"])
    with pytest.raises(InvalidArgumentError,
                       match=re.escape("no covariate spec for model columns: ['g']")):
        predict_grid(fitted_of(m), [sampled("h")], geodata.Lattice(0, 0, 1.0, 2, 2))


def test_nodata_covariate_propagates():
    # A nodata cell spoils every bilinear stencil that touches it: on a
    # 6 x 6 grid the four cells around (2, 2), and no other.
    vals = np.ones((6, 6))
    vals[2, 2] = -9999.0
    g = grid_of(vals)
    m = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.1]), ["g"])
    surf = predict_grid(fitted_of(m), [sampled()], g, grids={"g": g})
    xs, ys = g.center_meshgrid()
    _, valid = extract([sampled()], xs, ys, grids={"g": g})
    nodata = surf.concentration.values.ravel() == surf.concentration.nodata
    assert np.array_equal(nodata, ~valid[:, 0])
    assert np.array_equal(np.flatnonzero(nodata), [7, 8, 13, 14])


def test_valid_value_equal_to_the_sentinel_is_predicted():
    # Cell centers at x = -9,999 m: a coordinate_x value equal to the
    # nodata sentinel is a valid value, and its cells are predicted.
    lattice = geodata.Lattice(-10_499.0, 0.0, 1_000.0, 4, 3)
    fitted = linear_model("coord_x", 30.0, 1e-3)
    surf = predict_grid(fitted, [CovariateSpec("coord_x", "coordinate_x")], lattice)
    xs, _ = lattice.center_meshgrid()
    assert xs.min() == geodata.DEFAULT_NODATA
    want, _ = fitted.predict(xs[:, None])
    assert np.array_equal(surf.concentration.values.ravel(), want)
    assert surf.n_floored == 0


def test_negative_predictions_floored_and_counted():
    vals = np.linspace(-5, 5, 16).reshape(4, 4)
    g = grid_of(vals)
    surf = predict_grid(linear_model("g", 0.0, 1.0), [sampled()], g, grids={"g": g})
    assert surf.n_floored == int(np.sum(vals < 0))
    assert np.array_equal(surf.concentration.values, np.maximum(vals, 0.0))


def test_kriging_grid_matches_pointwise_predictions():
    rng = np.random.default_rng(33)
    coords = rng.uniform(0, 50_000, size=(40, 2))
    X = rng.normal(size=(40, 1))
    grf = simulate_grf(coords, 0.1, 3.0, 15_000.0, rng)
    y = 30.0 + 2.5 * X[:, 0] + grf
    matrix = CovariateMatrix.from_values([f"s{i}" for i in range(40)], ["g"], X)
    drift = ols_fit(matrix.select(["g"]), y, ["g"])
    model = KrigingModel(variogram=VariogramModel(0.1, 3.0, 15_000.0),
                         coords=coords, x_rows=X, y=y)
    lattice = geodata.Lattice(0.0, 0.0, 1_000.0, 50, 50)
    gvals = rng.normal(size=(50, 50))
    g = geodata.RasterGrid(**lattice.geometry(), values=gvals)
    surf = predict_grid(fitted_of(drift, model), [sampled()], lattice, grids={"g": g},
                        with_variance=True)
    xs, ys = lattice.center_meshgrid()
    picks = rng.choice(2500, size=25, replace=False)
    flat_c = surf.concentration.values.ravel()
    flat_v = surf.variance.values.ravel()
    floored = flat_c == 0.0
    for idx in picks:
        want_mean, want_var = model.predict_many([[xs[idx], ys[idx]]],
                                                 [[gvals.ravel()[idx]]], with_variance=True)
        expect_mean = max(want_mean[0], 0.0) if floored[idx] else want_mean[0]
        assert flat_c[idx] == pytest.approx(expect_mean, rel=1e-9, abs=1e-9)
        assert flat_v[idx] == pytest.approx(want_var[0], rel=1e-9, abs=1e-9)


# -- population statistics ---------------------------------------------------------

def test_pwm_uniform_population_is_mean():
    surf = grid_of([[10.0, 20.0], [30.0, 40.0]])
    pop = grid_of(np.ones((2, 2)))
    assert cumulative_exposure(surf, pop).pop_weighted_mean == pytest.approx(25.0)


def test_pwm_weighted_pair():
    surf = grid_of([[10.0, 20.0]])
    pop = grid_of([[1.0, 3.0]])
    assert cumulative_exposure(surf, pop).pop_weighted_mean == pytest.approx(17.5)


def test_pwm_matches_double_loop():
    rng = np.random.default_rng(44)
    c = rng.uniform(5, 80, size=(20, 20))
    p = rng.uniform(0, 100, size=(20, 20))
    surf = grid_of(c)
    pop = grid_of(p)
    got = cumulative_exposure(surf, pop).pop_weighted_mean
    num = den = 0.0
    for i in range(20):
        for j in range(20):
            num += p[i, j] * c[i, j]
            den += p[i, j]
    assert got == pytest.approx(num / den, rel=1e-12)


def test_pwm_bounds():
    rng = np.random.default_rng(45)
    c = rng.uniform(5, 80, size=(10, 10))
    p = rng.uniform(0, 100, size=(10, 10))
    got = cumulative_exposure(grid_of(c), grid_of(p)).pop_weighted_mean
    assert c.min() <= got <= c.max()


def test_pwm_zero_population_errors():
    surf = grid_of([[10.0, 20.0]])
    pop = grid_of([[0.0, 0.0]])
    with pytest.raises(InvalidArgumentError, match="zero"):
        cumulative_exposure(surf, pop)


def test_pwm_negative_population_errors():
    surf = grid_of([[10.0, 20.0]])
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        cumulative_exposure(surf, grid_of([[1.0, -2.0]]))


def test_cumulative_exposure_example():
    surf = grid_of([[30.0, 40.0, 50.0]])
    pop = grid_of([[1.0, 1.0, 2.0]])
    curve = cumulative_exposure(surf, pop, thresholds=[35.0])
    assert curve.fraction_above == (0.75,)


def test_cumulative_extremes_and_sorting():
    surf = grid_of([[10.0, 20.0, 30.0]])
    pop = grid_of([[1.0, 1.0, 1.0]])
    curve = cumulative_exposure(surf, pop, thresholds=[35.0, 5.0])
    assert curve.thresholds == (5.0, 35.0)
    assert curve.fraction_above == (1.0, 0.0)


def test_cumulative_strictly_above():
    surf = grid_of([[35.0, 36.0]])
    pop = grid_of([[1.0, 1.0]])
    curve = cumulative_exposure(surf, pop, thresholds=[35.0])
    assert curve.fraction_above == (0.5,)


def test_cumulative_matches_recount_and_monotone():
    rng = np.random.default_rng(46)
    c = rng.uniform(0, 100, size=(15, 15))
    p = rng.uniform(0, 10, size=(15, 15))
    ts = sorted(rng.uniform(0, 100, 10))
    curve = cumulative_exposure(grid_of(c), grid_of(p), thresholds=ts)
    fracs = np.array(curve.fraction_above)
    assert np.all(np.diff(fracs) <= 1e-12)
    total = p.sum()
    for t, frac in zip(curve.thresholds, curve.fraction_above):
        want = p[c > t].sum() / total
        assert frac == pytest.approx(want, rel=1e-12)


def test_exposure_csv(tmp_path):
    surf = grid_of([[30.0, 40.0]])
    pop = grid_of([[1.0, 1.0]])
    curve = cumulative_exposure(surf, pop)
    path = tmp_path / "exp.csv"
    curve.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fraction_above"
    assert len(lines) == 1 + len(curve.thresholds)


# -- moving-window variance -----------------------------------------------------------

def test_window_variance_constant_surface():
    surf = grid_of(np.full((6, 6), 4.2))
    out = window_variance(surf, 3)
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_window_variance_single_cell_window():
    rng = np.random.default_rng(3)
    surf = grid_of(rng.normal(size=(5, 5)))
    out = window_variance(surf, 1)
    assert np.allclose(out.values, 0.0, atol=1e-12)


def test_window_variance_requires_odd():
    surf = grid_of(np.ones((3, 3)))
    with pytest.raises(InvalidArgumentError):
        window_variance(surf, 4)


def test_window_variance_matches_direct():
    rng = np.random.default_rng(48)
    vals = rng.normal(50.0, 10.0, size=(30, 30))
    vals[rng.uniform(size=vals.shape) < 0.05] = -9999.0
    surf = grid_of(vals)
    out = window_variance(surf, 3)
    for r in range(30):
        for c in range(30):
            if vals[r, c] == -9999.0:
                assert out.values[r, c] == out.nodata
                continue
            block = vals[max(r - 1, 0): r + 2, max(c - 1, 0): c + 2]
            good = block[block != -9999.0]
            assert out.values[r, c] == pytest.approx(np.var(good), abs=1e-8)


@pytest.fixture(scope="module")
def mini_data():
    return generate_synthetic(SyntheticScenario(
        seed=2, n_sites=40, n_clusters=5, prediction_cols=12, prediction_rows=12,
        grf_partial_sill=9.0, noise_sd=1.0))


@pytest.mark.parametrize("kriging", [False, True])
@pytest.mark.parametrize("selection", ["stepwise", "pls", "mean"])
def test_grid_equals_pointwise_fitted_predict(mini_data, selection, kriging):
    # the lattice goes through the same FittedModel.predict as CV: the
    # surface at each valid cell center equals predicting that center as
    # a site from its extracted covariate row, floored at zero
    data = mini_data
    fitted = fit_recipe(ModelRecipe(selection=selection, kriging=kriging),
                        data.sites, data.matrix)
    specs = [s for s in data.specs if s.name in fitted.required_columns]
    geo = dict(layers=data.layers, grids=data.grids, categorical=data.categorical)
    lattice = data.prediction_lattice
    surf = predict_grid(fitted, data.specs, lattice, **geo, with_variance=True)
    xs, ys = lattice.center_meshgrid()
    values, valid = extract(specs, xs, ys, **geo)
    cells = np.flatnonzero(valid.all(axis=1))
    assert cells.size > 0
    rows = CovariateMatrix.from_values([f"c{i}" for i in cells],
                                       [s.name for s in specs], values[cells])
    mean, var = fitted.predict(rows, coords=np.column_stack([xs[cells], ys[cells]]),
                               with_variance=True)
    conc = surf.concentration.values.ravel()
    assert np.array_equal(np.flatnonzero(conc != surf.concentration.nodata), cells)
    assert np.array_equal(conc[cells], np.maximum(mean, 0.0))
    assert surf.n_floored == int(np.sum(mean < 0.0))
    if kriging:
        assert np.array_equal(surf.variance.values.ravel()[cells], var)
    else:
        assert var is None and surf.variance is None
