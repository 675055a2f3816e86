import json

import numpy as np
import pytest

from lurk.errors import ScenarioError
from lurk.kriging import empirical_variogram
from lurk.lur import ols_fit
from lurk.recipes import ModelRecipe, fit_recipe
from lurk.synth import (
    SyntheticScenario,
    clustered_coords,
    generate_synthetic,
    simulate_grf,
    write_scenario,
)
from lurk._util import plain


def test_same_seed_same_dataset():
    sc = SyntheticScenario(seed=12, n_sites=60)
    a = generate_synthetic(sc)
    b = generate_synthetic(sc)
    assert a.sites.site_ids == b.sites.site_ids
    assert np.array_equal(a.sites.annual_mean, b.sites.annual_mean)
    assert np.array_equal(a.matrix.values, b.matrix.values)
    c = generate_synthetic(SyntheticScenario(seed=13, n_sites=60))
    assert not np.array_equal(a.sites.annual_mean, c.sites.annual_mean)


def test_noise_free_trend_is_exactly_linear():
    sc = SyntheticScenario(seed=3, n_sites=80, grf_partial_sill=0.0,
                           grf_nugget=0.0, noise_sd=0.0)
    data = generate_synthetic(sc)
    support = list(data.truth["coefficients"])
    X = data.matrix.select(support)
    fit = ols_fit(X, data.sites.annual_mean, names=support)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(data.truth["intercept"], rel=1e-9)
    for name, beta in zip(support, fit.coefficients):
        assert beta == pytest.approx(data.truth["coefficients"][name], rel=1e-9)
    fitted = fit_recipe(ModelRecipe(selection="stepwise"), data.sites, data.matrix)
    assert set(support) <= set(fitted.trend.selected)
    assert fitted.trend.r2 >= 1.0 - 1e-9


def test_single_site_degenerate_table():
    data = generate_synthetic(SyntheticScenario(seed=5, n_sites=1, n_clusters=1))
    assert len(data.sites) == 1
    assert data.matrix.values.shape[0] == 1


def test_grf_validations():
    rng = np.random.default_rng(0)
    with pytest.raises(ScenarioError):
        simulate_grf(rng.uniform(0, 10, (5, 2)), -1.0, 1.0, 100.0, rng)
    assert np.array_equal(simulate_grf(rng.uniform(0, 10, (4, 2)), 0.0, 0.0, 1.0, rng),
                          np.zeros(4))


def test_grf_sample_variogram_matches_target_model():
    # aggregate empirical variogram over seeds tracks the target model
    nugget, psill, range_m = 0.1, 1.0, 50_000.0
    n_bins, max_lag = 20, 200_000.0
    agg = np.zeros(n_bins)
    weight = np.zeros(n_bins)
    centers_ref = None
    n_seeds = 20
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        coords, _, _ = clustered_coords(rng, 2_000, 40, 1_000_000.0, 800_000.0,
                                        12_000.0)
        z = simulate_grf(coords, nugget, psill, range_m, rng)
        ev = empirical_variogram(z, coords, n_bins=n_bins, max_lag=max_lag)
        width = max_lag / n_bins
        idx = ((ev.lag_centers - width / 2) / width).round().astype(int)
        agg[idx] += ev.semivariances * ev.n_pairs
        weight[idx] += ev.n_pairs
        centers_ref = (np.arange(n_bins) + 0.5) * width
    got = agg[weight > 0] / weight[weight > 0]
    lags = centers_ref[weight > 0]
    want = nugget + psill * (1.0 - np.exp(-lags / range_m))
    rel = np.abs(got - want) / want
    assert np.median(rel) < 0.10
    assert np.max(rel) < 0.35


def test_full_preset_column_count():
    sc = SyntheticScenario(seed=1, covariate_set="full", n_sites=25,
                           n_clusters=5, extent_x=800_000.0, extent_y=800_000.0,
                           trend=(("elevation", 3.0),))
    data = generate_synthetic(sc)
    assert len(data.matrix.columns) >= 290
    assert len(set(data.matrix.columns)) == len(data.matrix.columns)


def test_write_scenario_round_trips_through_annualize(tmp_path):
    from lurk.monitors import annualize, read_daily_csv, read_sites_csv

    sc = SyntheticScenario(seed=7, n_sites=25, n_clusters=4, n_excluded_sites=3)
    data = generate_synthetic(sc)
    write_scenario(data, tmp_path)
    result = annualize(read_daily_csv(tmp_path / "inputs" / "daily.csv"),
                       read_sites_csv(tmp_path / "inputs" / "sites.csv"), sc.year)
    assert result.table.site_ids == data.sites.site_ids
    assert np.allclose(result.table.annual_mean, data.sites.annual_mean, rtol=1e-12)
    excluded_ids = {s for s, _, _ in result.excluded}
    assert excluded_ids == set(data.excluded_sites)


def test_scenario_dict_round_trip():
    sc = SyntheticScenario(seed=2, trend=(("elevation", 3.0),), n_sites=10)
    back = SyntheticScenario(**json.loads(json.dumps(plain(sc))))
    assert back == sc
