import json
import tracemalloc

import numpy as np
import pytest

from lurk import geodata, synth
from lurk.errors import InvalidArgumentError, ScenarioError
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
from lurk._util import plain, stage_seed

import oracles


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


@pytest.mark.parametrize("nugget, duplicates", [(0.0, False), (2.0, False), (0.0, True)])
def test_grf_draw_matches_the_allocating_formula_bit_for_bit(nugget, duplicates):
    """The in-place covariance and diagonal jitter draw what the formula
    with a fresh matrix per step draws; duplicate sites with no nugget make
    the covariance singular, so the draw needs a jitter."""
    coords = np.random.default_rng(8).uniform(0, 200_000, (300, 2))
    if duplicates:
        coords[150:] = coords[:150]
    got = simulate_grf(coords, nugget, 25.0, 40_000.0, np.random.default_rng(9))
    want, jitter = oracles.allocating_grf(coords, nugget, 25.0, 40_000.0,
                                          np.random.default_rng(9))
    assert (jitter > 0) == duplicates
    assert got.tobytes() == want.tobytes()


def test_grf_draw_holds_one_covariance_and_its_factor():
    """The tracemalloc peak of a draw at n sites stays within two n x n
    matrices (the covariance and its Cholesky factor) and the condensed
    distances; the allocating formula holds three."""
    n = 400
    coords = np.random.default_rng(4).uniform(0, 200_000, (n, 2))
    tracemalloc.start()
    try:
        simulate_grf(coords, 1.0, 25.0, 40_000.0, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (2 * n * n + n * (n - 1) // 2) + 64 * n


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


def test_written_sites_keep_commas_and_quotes(tmp_path):
    # Unquoted, province "North, prov04" would read back as province "North"
    # and city " prov04", and the leave-one-province-out groups would change.
    from dataclasses import replace

    from lurk.monitors import annualize, read_daily_csv, read_sites_csv

    sc = SyntheticScenario(seed=7, n_sites=6, n_clusters=2, n_excluded_sites=1)
    data = generate_synthetic(sc)
    sites = data.sites
    data.sites = replace(sites, site_ids=tuple(f'{s}, "a"' for s in sites.site_ids),
                         province=tuple(f"North, {p}" for p in sites.province),
                         city=tuple(f'{c} "old", town' for c in sites.city))
    data.excluded_sites = {f'{k},"x"': v for k, v in data.excluded_sites.items()}
    write_scenario(data, tmp_path)
    meta = read_sites_csv(tmp_path / "inputs" / "sites.csv")
    assert list(meta) == [*data.sites.site_ids, *sorted(data.excluded_sites)]
    result = annualize(read_daily_csv(tmp_path / "inputs" / "daily.csv"), meta, sc.year)
    table = result.table
    assert (table.site_ids, table.province, table.city) == \
        (data.sites.site_ids, data.sites.province, data.sites.city)
    assert table.x.tobytes() == data.sites.x.tobytes()
    assert table.y.tobytes() == data.sites.y.tobytes()
    assert {s for s, _, _ in result.excluded} == set(data.excluded_sites)


def test_scenario_dict_round_trip():
    sc = SyntheticScenario(seed=2, trend=(("elevation", 3.0),), n_sites=10)
    back = SyntheticScenario(**json.loads(json.dumps(plain(sc))))
    assert back == sc


@pytest.mark.parametrize("field, value, want", [
    ("year", 0, "an integer from 1 to 9999"),
    ("n_clusters", 0, "an integer > 0"),
    ("prediction_rows", np.int64(5), "an integer > 0"),
    ("n_excluded_sites", -1, "an integer >= 0"),
    ("extent_y", 0.0, "a finite number > 0"),
    ("grf_range_m", float("inf"), "a finite number > 0"),
    ("daily_noise_sd", -0.5, "a finite number >= 0"),
    ("grf_nugget", -1.0, "a finite number >= 0"),
    ("trend_intercept", float("nan"), "a finite number"),
    ("pollutant", 25, "a string"),
    ("trend", [["elevation"]], "a list of [column, effect] pairs"),
    ("trend", [["elevation", "3"]], "a list of [column, effect] pairs"),
])
def test_scenario_names_a_bad_value(field, value, want):
    with pytest.raises(InvalidArgumentError) as bad:
        SyntheticScenario(**{field: value})
    assert str(bad.value) == f"scenario {field} must be {want}, got {value!r}"


def test_scenario_zero_counts_and_sds_are_allowed_where_they_make_sense():
    sc = SyntheticScenario(n_excluded_sites=0, noise_sd=0.0, daily_noise_sd=0.0,
                           grf_nugget=0.0, grf_partial_sill=0.0, cluster_sd_m=0.0,
                           trend=[["elevation", 3]])
    assert sc.trend == (("elevation", 3.0),)


def test_noisy_daily_series_keeps_the_annual_mean(tmp_path):
    from lurk.monitors import annualize, read_daily_csv, read_sites_csv

    sc = SyntheticScenario(seed=8, n_sites=20, n_clusters=3, daily_noise_sd=4.0)
    data = generate_synthetic(sc)
    write_scenario(data, tmp_path)
    result = annualize(read_daily_csv(tmp_path / "inputs" / "daily.csv"),
                       read_sites_csv(tmp_path / "inputs" / "sites.csv"), sc.year)
    assert np.allclose(result.table.annual_mean, data.sites.annual_mean, rtol=1e-12)


def test_daily_noise_that_would_break_the_annual_mean_is_rejected(tmp_path):
    # One site with annual value 1.0: a series with sd 3 needs values below
    # zero to average 1.0, and clipping them would make it average about 1.3.
    sc = SyntheticScenario(seed=0, n_sites=1, n_clusters=1, trend_intercept=1.0,
                           grf_partial_sill=0.0, noise_sd=0.0, daily_noise_sd=3.0)
    data = generate_synthetic(sc)
    assert data.sites.annual_mean.tolist() == [1.0]
    with pytest.raises(ScenarioError, match=r"site s0000: .*annual mean 1\.0 .*averages 1\.3"):
        write_scenario(data, tmp_path)


# -- the array generator and writers against the per-value reference code --

def _reference_segments_layer(rng, n, extent_x, extent_y, centers, urban_frac, min_len,
                              max_len, prefix):
    ends = oracles.loop_segment_ends(rng, n, extent_x, extent_y, centers, urban_frac,
                                     min_len, max_len)
    return geodata.FeatureLayer(geodata.POLYLINES, ends, np.arange(0, 2 * n + 1, 2),
                                [f"{prefix}{i:05d}" for i in range(n)])


@pytest.mark.parametrize("seed", [0, 1, 7, 12])
@pytest.mark.parametrize("with_centers", [True, False], ids=["centers", "no-centers"])
def test_segment_draws_match_the_scalar_uniform_loop(seed, with_centers):
    """`_segments_layer` draws its uniforms as scaled `rng.random()` calls:
    the same segment ends, bit for bit, and the same stream left behind as
    the loop of scalar `rng.uniform` calls."""
    centers = np.random.default_rng(100 + seed).uniform(0, 300_000, (6, 2)) \
        if with_centers else None
    args = (500, 400_000.0, 300_000.0, centers, 0.6, 2_000, 20_000)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    layer = synth._segments_layer(mine, *args, "rd")
    _assert_bit_equal(layer.xy.reshape(-1, 2, 2), oracles.loop_segment_ends(theirs, *args))
    assert mine.bit_generator.state == theirs.bit_generator.state


def _reference_field_grid(fn, cell, n_cols, n_rows, base=0.0):
    return geodata.RasterGrid(0.0, 0.0, cell, n_cols, n_rows,
                              oracles.meshgrid_field(fn, cell, n_cols, n_rows, base))


def _reference_scenario(sc, outdir, monkeypatch):
    """Generate and write `sc` through the per-value reference code."""
    with monkeypatch.context() as m:
        m.setattr(synth, "_segments_layer", _reference_segments_layer)
        m.setattr(synth, "_smooth_field", oracles.meshgrid_smooth_field)
        m.setattr(synth, "_population_field", oracles.meshgrid_population_field)
        m.setattr(synth, "_field_grid", _reference_field_grid)
        m.setattr(geodata, "write_features", oracles.per_feature_write_features)
        m.setattr(geodata, "write_categorical", oracles.per_cell_write_categorical)
        data = generate_synthetic(sc)
        write_scenario(data, outdir)
    sites_text, daily_text = oracles.per_value_sites_and_daily(
        data.sites, data.excluded_sites, sc.year, sc.daily_noise_sd,
        np.random.default_rng(stage_seed(sc.seed, "daily")))
    (outdir / "inputs" / "sites.csv").write_text(sites_text)
    (outdir / "inputs" / "daily.csv").write_text(daily_text)
    return data


def _assert_bit_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_data(got, want):
    for name in ("x", "y", "annual_mean", "n_valid_days", "n_calendar_days"):
        _assert_bit_equal(getattr(got.sites, name), getattr(want.sites, name))
    assert (got.sites.site_ids, got.sites.province, got.sites.city) == \
        (want.sites.site_ids, want.sites.province, want.sites.city)
    assert got.matrix.columns == want.matrix.columns
    _assert_bit_equal(got.matrix.values, want.matrix.values)
    assert got.layers.keys() == want.layers.keys()
    for name, layer in got.layers.items():
        for attr in ("xy", "offsets", "ids"):
            _assert_bit_equal(getattr(layer, attr), getattr(want.layers[name], attr))
    assert got.prediction_lattice.geometry() == want.prediction_lattice.geometry()
    for mine, theirs in ((got.grids, want.grids), (got.categorical, want.categorical),
                         ({"population": got.population}, {"population": want.population})):
        assert mine.keys() == theirs.keys()
        for name, grid in mine.items():
            _assert_bit_equal(grid.values, theirs[name].values)
            assert (grid.origin_x, grid.origin_y, grid.cell_size, grid.n_cols, grid.n_rows) == (
                theirs[name].origin_x, theirs[name].origin_y, theirs[name].cell_size,
                theirs[name].n_cols, theirs[name].n_rows)
    assert got.truth == want.truth
    assert got.excluded_sites == want.excluded_sites
    assert got.specs == want.specs


@pytest.mark.parametrize("params", [
    *(dict(seed=s, n_sites=40, n_clusters=5) for s in (0, 1, 2, 4)),
    dict(seed=3, n_sites=40, n_clusters=5, daily_noise_sd=2.0, n_excluded_sites=3),
    dict(seed=2, covariate_set="full", n_sites=30, n_clusters=4, extent_x=500_000.0,
         extent_y=400_000.0, prediction_cols=20, prediction_rows=16, n_excluded_sites=2),
], ids=["mini0", "mini1", "mini2", "mini4", "mini3-noise-excluded", "full-small"])
def test_generation_and_writing_match_the_per_value_code(params, tmp_path, monkeypatch):
    sc = SyntheticScenario(**params)
    want = _reference_scenario(sc, tmp_path / "reference", monkeypatch)
    got = generate_synthetic(sc)
    _assert_same_data(got, want)
    write_scenario(got, tmp_path / "array")
    ref_files = sorted(p.relative_to(tmp_path / "reference")
                       for p in (tmp_path / "reference").rglob("*") if p.is_file())
    got_files = sorted(p.relative_to(tmp_path / "array")
                       for p in (tmp_path / "array").rglob("*") if p.is_file())
    assert got_files == ref_files
    for rel in ref_files:
        assert (tmp_path / "array" / rel).read_bytes() == \
            (tmp_path / "reference" / rel).read_bytes(), rel


def test_field_grid_memory_is_bounded():
    # A 1,000 x 1,500 grid of 10 waves: evaluated on whole meshgrids the
    # temporaries reach about 360 MB; in blocks the peak is the 12 MB result
    # plus one block's waves.
    field = synth._smooth_field(np.random.default_rng(0), 200_000.0, 1.0, n_waves=10)
    tracemalloc.start()
    try:
        grid = synth._field_grid(field, 800.0, 1500, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (1000, 1500)
    assert peak < 40e6
