import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurk import covariates as cov
from lurk import geodata
from lurk.errors import (
    CovariateExtractionError,
    InvalidArgumentError,
    NodataError,
    NoFeaturesError,
)
from lurk.monitors import MonitorTable

import oracles


def point_layer(coords):
    feats = [geodata.Feature(id=f"p{i}", category=None, xy=np.array([c], dtype=float))
             for i, c in enumerate(coords)]
    return geodata.FeatureLayer(geodata.POINTS, feats)


def segment_layer(segs):
    feats = [geodata.Feature(id=f"s{i}", category=None, xy=np.array(ab, dtype=float))
             for i, ab in enumerate(segs)]
    return geodata.FeatureLayer(geodata.POLYLINES, feats)


def table(coords):
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    return MonitorTable(
        site_ids=tuple(f"m{i}" for i in range(n)),
        x=coords[:, 0], y=coords[:, 1],
        province=("a",) * n, city=("c",) * n,
        annual_mean=np.zeros(n),
        n_valid_days=np.full(n, 365), n_calendar_days=np.full(n, 365),
    )


# -- point counts ------------------------------------------------------------

def test_count_boundary_inclusive():
    layer = point_layer([(100.0, 0.0)])
    assert cov.count_points_in_buffer(layer, 0.0, 0.0, 100.0) == 1
    assert cov.count_points_in_buffer(layer, 0.0, 0.0, 99.999) == 0


def test_count_empty_layer():
    layer = geodata.FeatureLayer(geodata.POINTS, [])
    assert cov.count_points_in_buffer(layer, 0.0, 0.0, 500.0) == 0


def assert_callers_reject(kind, layer):
    """build_matrix and rasterize_covariates both refuse a buffer kind on
    the wrong kind of layer."""
    specs = [cov.CovariateSpec("v", kind, "src", buffer_m=10.0)]
    with pytest.raises(InvalidArgumentError, match="requires a"):
        cov.build_matrix(table([(0.0, 0.0)]), specs, layers={"src": layer})
    with pytest.raises(InvalidArgumentError, match="requires a"):
        cov.rasterize_covariates(specs, geodata.RasterGrid.filled(0.0, 0.0, 1.0, 3, 3),
                                 layers={"src": layer})


def test_count_requires_point_layer():
    layer = segment_layer([[(0, 0), (1, 1)]])
    with pytest.raises(InvalidArgumentError):
        cov.count_points_in_buffer(layer, 0.0, 0.0, 10.0)
    assert_callers_reject("point_count", layer)


def test_length_requires_polyline_layer():
    layer = point_layer([(0.0, 0.0)])
    with pytest.raises(InvalidArgumentError):
        cov.line_length_in_buffer(layer, 0.0, 0.0, 10.0)
    assert_callers_reject("line_length", layer)


def test_count_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 50_000, size=(5_000, 2))
    layer = point_layer(pts)
    for _ in range(200):
        x, y = rng.uniform(0, 50_000, 2)
        r = rng.uniform(50, 20_000)
        assert cov.count_points_in_buffer(layer, x, y, r) == \
            oracles.scan_count_points(pts, x, y, r)


# -- line lengths ------------------------------------------------------------

def test_diameter_chord():
    layer = segment_layer([[(-1000.0, 0.0), (1000.0, 0.0)]])
    assert cov.line_length_in_buffer(layer, 0.0, 0.0, 250.0) == pytest.approx(500.0)


def test_segment_outside_disk():
    layer = segment_layer([[(5000.0, 5000.0), (6000.0, 5000.0)]])
    assert cov.line_length_in_buffer(layer, 0.0, 0.0, 100.0) == 0.0


def test_chord_closed_form():
    r = 800.0
    for d in (0.0, 100.0, 400.0, 799.0):
        layer = segment_layer([[(-10_000.0, d), (10_000.0, d)]])
        expected = 2.0 * np.sqrt(r * r - d * d)
        got = cov.line_length_in_buffer(layer, 0.0, 0.0, r)
        assert got == pytest.approx(expected, abs=1e-9)


def test_degenerate_segment_contributes_zero():
    # a polyline that doubles back still counts each segment separately
    layer = segment_layer([[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0)]])
    assert cov.line_length_in_buffer(layer, 0.0, 0.0, 100.0) == pytest.approx(20.0)
    # zero-length segment contributes 0, not an error
    a = np.array([[3.0, 3.0]])
    assert geodata.segment_disk_length(a, a, 0.0, 0.0, 100.0)[0] == 0.0


def test_length_converges_to_total_layer_length():
    rng = np.random.default_rng(9)
    segs = []
    total = 0.0
    for _ in range(50):
        a = rng.uniform(0, 10_000, 2)
        b = a + rng.uniform(-2_000, 2_000, 2)
        if np.all(a == b):
            b = a + 1.0
        segs.append([a, b])
        total += float(np.hypot(*(b - a)))
    layer = segment_layer(segs)
    got = cov.line_length_in_buffer(layer, 5_000.0, 5_000.0, 1e9)
    assert got == pytest.approx(total, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(100, 5_000), st.floats(1.01, 4.0))
def test_buffer_values_monotone_in_radius(seed, r, factor):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10_000, size=(200, 2))
    players = point_layer(pts)
    segs = [[rng.uniform(0, 10_000, 2), rng.uniform(0, 10_000, 2)] for _ in range(40)]
    segs = [[a, b if not np.all(a == b) else b + 1.0] for a, b in segs]
    slayer = segment_layer(segs)
    x, y = rng.uniform(0, 10_000, 2)
    assert cov.count_points_in_buffer(players, x, y, r * factor) >= \
        cov.count_points_in_buffer(players, x, y, r)
    assert cov.line_length_in_buffer(slayer, x, y, r * factor) >= \
        cov.line_length_in_buffer(slayer, x, y, r) - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_translation_invariance(seed, dx, dy):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 5_000, size=(60, 2))
    x, y, r = 2_500.0, 2_500.0, 1_200.0
    base = cov.count_points_in_buffer(point_layer(pts), x, y, r)
    moved = cov.count_points_in_buffer(point_layer(pts + [dx, dy]), x + dx, y + dy, r)
    assert base == moved
    segs = [[pts[i], pts[i + 1]] for i in range(0, 40, 2)]
    a = cov.line_length_in_buffer(segment_layer(segs), x, y, r)
    segs2 = [[np.asarray(s[0]) + [dx, dy], np.asarray(s[1]) + [dx, dy]] for s in segs]
    b = cov.line_length_in_buffer(segment_layer(segs2), x + dx, y + dy, r)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-6)


# -- land cover fractions ------------------------------------------------------

def lc_grid(codes, cell=1000.0, categories=(1, 2, 3, 4)):
    codes = np.asarray(codes)
    return geodata.CategoricalGrid(0.0, 0.0, cell, codes.shape[1], codes.shape[0],
                                   codes, categories)


def test_fraction_window_of_four_cells():
    g = lc_grid([[1, 2], [3, 4]])
    frac = cov.landcover_fraction(g, 1, 1000.0, 1000.0, 2000.0)
    assert frac == pytest.approx(0.25)


def test_fraction_uniform_grid():
    g = lc_grid(np.full((5, 5), 2))
    assert cov.landcover_fraction(g, 2, 2500.0, 2500.0, 3000.0) == 1.0
    assert cov.landcover_fraction(g, 1, 2500.0, 2500.0, 3000.0) == 0.0


def test_fraction_nodata_window():
    codes = np.full((4, 4), -9999)
    codes[0, 0] = 1
    g = geodata.CategoricalGrid(0.0, 0.0, 1000.0, 4, 4, codes, (1, 2))
    with pytest.raises(NodataError):
        cov.landcover_fraction(g, 1, 3500.0, 3500.0, 1500.0)


def test_fraction_matches_brute_force():
    rng = np.random.default_rng(17)
    codes = rng.integers(1, 5, size=(50, 50))
    codes[rng.uniform(size=codes.shape) < 0.1] = -9999
    g = geodata.CategoricalGrid(0.0, 0.0, 200.0, 50, 50, codes, (1, 2, 3, 4))
    for _ in range(100):
        x, y = rng.uniform(500, 9_500, 2)
        w = rng.uniform(250, 4_000)
        cat = int(rng.integers(1, 5))
        want = oracles.scan_landcover_fraction(np.asarray(codes), -9999, 0.0, 0.0,
                                               200.0, cat, x, y, w)
        if want is None:
            with pytest.raises(NodataError):
                cov.landcover_fraction(g, cat, x, y, w)
        else:
            assert cov.landcover_fraction(g, cat, x, y, w) == pytest.approx(want)


# -- distance to nearest ---------------------------------------------------------

def test_distance_zero_when_coincident():
    layer = point_layer([(500.0, 600.0)])
    assert cov.distance_to_nearest(layer, 500.0, 600.0) == 0.0


def test_distance_perpendicular_foot():
    layer = segment_layer([[(0.0, 0.0), (10.0, 0.0)]])
    assert cov.distance_to_nearest(layer, 5.0, 3.0) == pytest.approx(3.0)


def test_distance_empty_layer():
    layer = geodata.FeatureLayer(geodata.POINTS, [])
    with pytest.raises(NoFeaturesError):
        cov.distance_to_nearest(layer, 0.0, 0.0)


def test_distance_matches_brute_force():
    rng = np.random.default_rng(23)
    segs = []
    for _ in range(2_000):
        a = rng.uniform(0, 100_000, 2)
        b = a + rng.uniform(-5_000, 5_000, 2)
        if np.all(a == b):
            b = a + 1.0
        segs.append((a, b))
    layer = segment_layer(segs)
    for _ in range(200):
        x, y = rng.uniform(-10_000, 110_000, 2)
        want = oracles.scan_nearest(None, segs, x, y)
        assert cov.distance_to_nearest(layer, x, y) == pytest.approx(want, rel=1e-12)


# -- matrix assembly --------------------------------------------------------------

def test_matrix_coordinates_only():
    sites = table([(123.0, 456.0)])
    specs = [cov.CovariateSpec("coord_x", "coordinate_x"),
             cov.CovariateSpec("coord_y", "coordinate_y")]
    m = cov.build_matrix(sites, specs)
    assert m.values.tolist() == [[123.0, 456.0]]
    assert m.columns == ("coord_x", "coord_y")


def test_matrix_duplicate_names_rejected():
    sites = table([(0.0, 0.0)])
    specs = [cov.CovariateSpec("a", "coordinate_x"),
             cov.CovariateSpec("a", "coordinate_y")]
    with pytest.raises(InvalidArgumentError, match="duplicate"):
        cov.build_matrix(sites, specs)


def test_matrix_matches_individual_operations():
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 20_000, size=(300, 2))
    players = point_layer(pts)
    segs = []
    for _ in range(60):
        a = rng.uniform(0, 20_000, 2)
        b = a + rng.uniform(-3_000, 3_000, 2)
        if np.all(a == b):
            b = a + 1.0
        segs.append([a, b])
    slayer = segment_layer(segs)
    codes = rng.integers(1, 5, size=(40, 40))
    lcg = geodata.CategoricalGrid(0.0, 0.0, 500.0, 40, 40, codes, (1, 2, 3, 4))
    grid = geodata.RasterGrid(0.0, 0.0, 2_000.0, 11, 11,
                              rng.normal(size=(11, 11)))
    sites = table(rng.uniform(3_000, 17_000, size=(10, 2)))
    specs = [
        cov.CovariateSpec("poi_1km", "point_count", "poi", buffer_m=1_000.0),
        cov.CovariateSpec("poi_3km", "point_count", "poi", buffer_m=3_000.0),
        cov.CovariateSpec("poi_8km", "point_count", "poi", buffer_m=8_000.0),
        cov.CovariateSpec("rd_1km", "line_length", "roads", buffer_m=1_000.0),
        cov.CovariateSpec("rd_5km", "line_length", "roads", buffer_m=5_000.0),
        cov.CovariateSpec("lc1_2km", "landcover_fraction", "lc", category=1, buffer_m=2_000.0),
        cov.CovariateSpec("lc3_4km", "landcover_fraction", "lc", category=3, buffer_m=4_000.0),
        cov.CovariateSpec("dist_rd", "distance_to_nearest", "roads"),
        cov.CovariateSpec("dist_poi", "distance_to_nearest", "poi"),
        cov.CovariateSpec("elev", "grid_sample", "elev"),
        cov.CovariateSpec("cx", "coordinate_x"),
        cov.CovariateSpec("cy", "coordinate_y"),
    ]
    m = cov.build_matrix(sites, specs, layers={"poi": players, "roads": slayer},
                         grids={"elev": grid}, categorical={"lc": lcg})
    for i in range(10):
        x, y = sites.x[i], sites.y[i]
        assert m.values[i, 0] == cov.count_points_in_buffer(players, x, y, 1_000.0)
        assert m.values[i, 1] == cov.count_points_in_buffer(players, x, y, 3_000.0)
        assert m.values[i, 2] == cov.count_points_in_buffer(players, x, y, 8_000.0)
        assert m.values[i, 3] == pytest.approx(
            cov.line_length_in_buffer(slayer, x, y, 1_000.0))
        assert m.values[i, 4] == pytest.approx(
            cov.line_length_in_buffer(slayer, x, y, 5_000.0))
        assert m.values[i, 5] == pytest.approx(
            cov.landcover_fraction(lcg, 1, x, y, 2_000.0))
        assert m.values[i, 6] == pytest.approx(
            cov.landcover_fraction(lcg, 3, x, y, 4_000.0))
        assert m.values[i, 7] == pytest.approx(cov.distance_to_nearest(slayer, x, y))
        assert m.values[i, 8] == pytest.approx(cov.distance_to_nearest(players, x, y))
        assert m.values[i, 9] == pytest.approx(geodata.bilinear_sample(grid, x, y))
        assert m.values[i, 10] == x
        assert m.values[i, 11] == y


def test_matrix_reports_failing_cells():
    grid = geodata.RasterGrid(0.0, 0.0, 100.0, 3, 3, np.ones((3, 3)))
    sites = table([(150.0, 150.0), (5_000.0, 5_000.0)])  # second is out of domain
    specs = [cov.CovariateSpec("g", "grid_sample", "g")]
    with pytest.raises(CovariateExtractionError) as err:
        cov.build_matrix(sites, specs, grids={"g": grid})
    assert ("m1", "g") in err.value.failures


def test_zero_variance_column_flagged():
    sites = table([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
    specs = [cov.CovariateSpec("cx", "coordinate_x"),
             cov.CovariateSpec("cy", "coordinate_y")]
    m = cov.build_matrix(sites, specs)
    assert not m.zero_variance[0]
    assert m.zero_variance[1]  # all y equal


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = cov.CovariateMatrix.from_values(
        [f"s{i}" for i in range(5)], ["a", "b"], rng.normal(size=(5, 2))
    )
    path = tmp_path / "m.csv"
    m.to_csv(path)
    back = cov.CovariateMatrix.from_csv(path)
    assert back.columns == m.columns
    assert np.array_equal(back.values, m.values)


def test_specs_json_round_trip(tmp_path):
    specs = [
        cov.CovariateSpec("poi_1km", "point_count", "poi", buffer_m=1_000.0),
        cov.CovariateSpec("lc1", "landcover_fraction", "lc", category=1, buffer_m=500.0),
        cov.CovariateSpec("cx", "coordinate_x"),
    ]
    path = tmp_path / "specs.json"
    cov.write_specs(specs, path)
    assert cov.read_specs(path) == specs


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        cov.CovariateSpec("bad", "point_count", "poi", buffer_m=0.0)
    with pytest.raises(InvalidArgumentError):
        cov.CovariateSpec("bad", "landcover_fraction", "lc", buffer_m=100.0)
    with pytest.raises(InvalidArgumentError):
        cov.CovariateSpec("bad", "no_such_kind")


# -- rasterized covariates match per-site extraction ------------------------------

def test_rasterize_matches_build_matrix():
    rng = np.random.default_rng(77)
    pts = rng.uniform(0, 20_000, size=(400, 2))
    players = point_layer(pts)
    segs = []
    for _ in range(80):
        a = rng.uniform(0, 20_000, 2)
        b = a + rng.uniform(-2_500, 2_500, 2)
        if np.all(a == b):
            b = a + 1.0
        segs.append([a, b])
    slayer = segment_layer(segs)
    codes = rng.integers(1, 5, size=(40, 40))
    lcg = geodata.CategoricalGrid(0.0, 0.0, 500.0, 40, 40, codes, (1, 2, 3, 4))
    src = geodata.RasterGrid(0.0, 0.0, 2_000.0, 11, 11, rng.normal(size=(11, 11)))
    specs = [
        cov.CovariateSpec("poi_2km", "point_count", "poi", buffer_m=2_000.0),
        cov.CovariateSpec("rd_3km", "line_length", "roads", buffer_m=3_000.0),
        cov.CovariateSpec("lc2_3km", "landcover_fraction", "lc", category=2, buffer_m=3_000.0),
        cov.CovariateSpec("dist_poi", "distance_to_nearest", "poi"),
        cov.CovariateSpec("dist_rd", "distance_to_nearest", "roads"),
        cov.CovariateSpec("elev", "grid_sample", "elev"),
        cov.CovariateSpec("cx", "coordinate_x"),
    ]
    sources = dict(layers={"poi": players, "roads": slayer}, grids={"elev": src},
                   categorical={"lc": lcg})
    lattice = geodata.RasterGrid.filled(4_000.0, 4_000.0, 1_500.0, 8, 8)
    grids = cov.rasterize_covariates(specs, lattice, **sources)
    xs, ys = lattice.center_meshgrid()
    m = cov.build_matrix(table(np.column_stack([xs, ys])), specs, **sources)
    for j, spec in enumerate(specs):
        assert np.array_equal(grids[spec.name].values.ravel(), m.values[:, j]), spec.name

    # A lattice running past the elevation and land-cover grids: the cells
    # rasterization marks nodata are exactly the failures build_matrix
    # reports, and every other cell matches bit for bit.
    wide = geodata.RasterGrid.filled(-6_000.0, -6_000.0, 1_500.0, 24, 24)
    grids = cov.rasterize_covariates(specs, wide, **sources)
    xs, ys = wide.center_meshgrid()
    sites = table(np.column_stack([xs, ys]))
    with pytest.raises(CovariateExtractionError) as err:
        cov.build_matrix(sites, specs, **sources)
    nodata = np.column_stack([grids[s.name].values.ravel() == wide.nodata for s in specs])
    past_grids = [s.kind in ("grid_sample", "landcover_fraction") for s in specs]
    assert nodata[:, past_grids].any(axis=0).all()
    assert set(err.value.failures) == {
        (sites.site_ids[i], specs[j].name) for i, j in zip(*np.nonzero(nodata))
    }
    good = np.flatnonzero(~nodata.any(axis=1))
    m = cov.build_matrix(sites.subset(good), specs, **sources)
    for j, spec in enumerate(specs):
        assert np.array_equal(grids[spec.name].values.ravel()[good], m.values[:, j]), spec.name
