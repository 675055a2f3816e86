import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurk import covariates as cov
from lurk import geodata
from lurk.errors import CovariateExtractionError, InvalidArgumentError, NoFeaturesError
from lurk.monitors import MonitorTable
from lurk.synth import SyntheticScenario, generate_synthetic

import oracles


def point_layer(coords):
    return geodata.FeatureLayer(geodata.POINTS, coords, np.arange(len(coords) + 1),
                                [f"p{i}" for i in range(len(coords))])


def segment_layer(segs):
    return geodata.FeatureLayer(geodata.POLYLINES, [xy for seg in segs for xy in seg],
                                np.cumsum([0] + [len(seg) for seg in segs]),
                                [f"s{i}" for i in range(len(segs))])


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


def at(spec, x, y, **sources):
    """One covariate at one point through the batched engine, or None
    where the engine marks the cell invalid."""
    values, valid = cov.extract([spec], [x], [y], **sources)
    return float(values[0, 0]) if valid[0, 0] else None


def count(layer, x, y, r):
    spec = cov.CovariateSpec("n", "point_count", "l", buffer_m=r)
    return at(spec, x, y, layers={"l": layer})


def length(layer, x, y, r):
    spec = cov.CovariateSpec("len", "line_length", "l", buffer_m=r)
    return at(spec, x, y, layers={"l": layer})


def fraction(grid, category, x, y, window_m):
    spec = cov.CovariateSpec("frac", "landcover_fraction", "g", category=category,
                             buffer_m=window_m)
    return at(spec, x, y, categorical={"g": grid})


def distance(layer, x, y):
    return at(cov.CovariateSpec("d", "distance_to_nearest", "l"), x, y, layers={"l": layer})


# -- point counts ------------------------------------------------------------

def test_count_boundary_inclusive():
    layer = point_layer([(100.0, 0.0)])
    assert count(layer, 0.0, 0.0, 100.0) == 1
    assert count(layer, 0.0, 0.0, 99.999) == 0


def test_count_empty_layer():
    layer = geodata.FeatureLayer(geodata.POINTS, [], [0], [])
    assert count(layer, 0.0, 0.0, 500.0) == 0


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
        count(layer, 0.0, 0.0, 10.0)
    assert_callers_reject("point_count", layer)


def test_length_requires_polyline_layer():
    layer = point_layer([(0.0, 0.0)])
    with pytest.raises(InvalidArgumentError):
        length(layer, 0.0, 0.0, 10.0)
    assert_callers_reject("line_length", layer)


def test_count_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 50_000, size=(5_000, 2))
    layer = point_layer(pts)
    for _ in range(200):
        x, y = rng.uniform(0, 50_000, 2)
        r = rng.uniform(50, 20_000)
        assert count(layer, x, y, r) == oracles.scan_count_points(pts, x, y, r)


# -- line lengths ------------------------------------------------------------

def test_diameter_chord():
    layer = segment_layer([[(-1000.0, 0.0), (1000.0, 0.0)]])
    assert length(layer, 0.0, 0.0, 250.0) == pytest.approx(500.0)


def test_segment_outside_disk():
    layer = segment_layer([[(5000.0, 5000.0), (6000.0, 5000.0)]])
    assert length(layer, 0.0, 0.0, 100.0) == 0.0


def test_chord_closed_form():
    r = 800.0
    for d in (0.0, 100.0, 400.0, 799.0):
        layer = segment_layer([[(-10_000.0, d), (10_000.0, d)]])
        expected = 2.0 * np.sqrt(r * r - d * d)
        got = length(layer, 0.0, 0.0, r)
        assert got == pytest.approx(expected, abs=1e-9)


def test_degenerate_segment_contributes_zero():
    # a polyline that doubles back still counts each segment separately
    layer = segment_layer([[(0.0, 0.0), (10.0, 0.0), (0.0, 0.0)]])
    assert length(layer, 0.0, 0.0, 100.0) == pytest.approx(20.0)
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
    got = length(layer, 5_000.0, 5_000.0, 1e9)
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
    assert count(players, x, y, r * factor) >= count(players, x, y, r)
    assert length(slayer, x, y, r * factor) >= length(slayer, x, y, r) - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_translation_invariance(seed, dx, dy):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 5_000, size=(60, 2))
    x, y, r = 2_500.0, 2_500.0, 1_200.0
    base = count(point_layer(pts), x, y, r)
    moved = count(point_layer(pts + [dx, dy]), x + dx, y + dy, r)
    assert base == moved
    segs = [[pts[i], pts[i + 1]] for i in range(0, 40, 2)]
    a = length(segment_layer(segs), x, y, r)
    segs2 = [[np.asarray(s[0]) + [dx, dy], np.asarray(s[1]) + [dx, dy]] for s in segs]
    b = length(segment_layer(segs2), x + dx, y + dy, r)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-6)


# -- land cover fractions ------------------------------------------------------

def lc_grid(codes, cell=1000.0, categories=(1, 2, 3, 4)):
    codes = np.asarray(codes)
    return geodata.CategoricalGrid(0.0, 0.0, cell, codes.shape[1], codes.shape[0],
                                   codes, categories)


def test_fraction_window_of_four_cells():
    g = lc_grid([[1, 2], [3, 4]])
    frac = fraction(g, 1, 1000.0, 1000.0, 2000.0)
    assert frac == pytest.approx(0.25)


def test_fraction_uniform_grid():
    g = lc_grid(np.full((5, 5), 2))
    assert fraction(g, 2, 2500.0, 2500.0, 3000.0) == 1.0
    assert fraction(g, 1, 2500.0, 2500.0, 3000.0) == 0.0


def test_fraction_nodata_window():
    codes = np.full((4, 4), -9999)
    codes[0, 0] = 1
    g = geodata.CategoricalGrid(0.0, 0.0, 1000.0, 4, 4, codes, (1, 2))
    spec = cov.CovariateSpec("frac", "landcover_fraction", "g", category=1, buffer_m=1500.0)
    values, valid = cov.extract([spec], [3500.0], [3500.0], categorical={"g": g})
    assert not valid[0, 0] and values[0, 0] == 0.0


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
            assert fraction(g, cat, x, y, w) is None
        else:
            assert fraction(g, cat, x, y, w) == pytest.approx(want)


def test_extract_holds_one_summed_area_table_at_a_time():
    """The tracemalloc peak of one `extract` over 8 classes with nodata (a
    valid-cell table and one table per class if they were kept) stays
    within two tables, plus the mask a table is built from and the
    outputs; calls repeat bit for bit, on the same grid and a fresh one."""
    rng = np.random.default_rng(23)
    codes = rng.integers(1, 9, size=(300, 400))
    codes[rng.uniform(size=codes.shape) < 0.15] = -9999
    grid = lc_grid(codes, cell=250.0, categories=range(1, 9))
    specs = [cov.CovariateSpec(f"lc{c}_{int(w)}", "landcover_fraction", "lc", category=c,
                               buffer_m=w) for c in range(1, 9) for w in (300.0, 2_000.0, 1e6)]
    xs, ys = rng.uniform(0, 100_000, 200), rng.uniform(0, 75_000, 200)
    tracemalloc.start()
    try:
        first = cov.extract(specs, xs, ys, categorical={"lc": grid})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = (codes.shape[0] + 1) * (codes.shape[1] + 1) * np.dtype(np.int32).itemsize
    assert peak <= 2 * table + codes.size + first[0].nbytes + first[1].nbytes
    again = cov.extract(specs, xs, ys, categorical={"lc": grid})
    fresh = cov.extract(specs, xs, ys, categorical={"lc": lc_grid(codes, 250.0, range(1, 9))})
    for got in (again, fresh):
        assert np.array_equal(got[0], first[0]) and np.array_equal(got[1], first[1])
    # A window covering the whole grid counts every valid cell.
    n_valid = np.count_nonzero(codes != -9999)
    assert grid.window_counts(np.array([50_000.0]), np.array([37_500.0]), [1e6]) == [[n_valid]]
    assert np.all(first[0][:, 2::3] == [np.count_nonzero(codes == c) / n_valid
                                        for c in range(1, 9)])


@pytest.mark.parametrize("nodata_share", [0.0, 0.1])
def test_window_fractions_match_the_cell_scan(nodata_share):
    """All windows of a grid with nodata (valid cells counted from a table)
    and of one without (counted from the window bounds) against the
    cell-by-cell scan, bit for bit; a window past the grid's edge holds
    fewer cells."""
    rng = np.random.default_rng(29)
    codes = rng.integers(1, 4, size=(30, 40))
    codes[rng.uniform(size=codes.shape) < nodata_share] = -9999
    grid = lc_grid(codes, cell=200.0, categories=(1, 2, 3))
    windows = (150.0, 500.0, 1_000.0, 3_333.0)
    specs = [cov.CovariateSpec(f"lc{c}_{w}", "landcover_fraction", "lc", category=c,
                               buffer_m=w) for c in (3, 1) for w in windows]
    xs, ys = rng.uniform(-500, 8_500, 150), rng.uniform(-500, 6_500, 150)
    values, valid = cov.extract(specs, xs, ys, categorical={"lc": grid})
    for j, spec in enumerate(specs):
        for i, (x, y) in enumerate(zip(xs, ys)):
            want = oracles.scan_landcover_fraction(codes, -9999, 0.0, 0.0, 200.0,
                                                   spec.category, x, y, spec.buffer_m)
            assert (values[i, j], valid[i, j]) == ((0.0, False) if want is None else (want, True))


# -- distance to nearest ---------------------------------------------------------

def test_distance_zero_when_coincident():
    layer = point_layer([(500.0, 600.0)])
    assert distance(layer, 500.0, 600.0) == 0.0


def test_distance_perpendicular_foot():
    layer = segment_layer([[(0.0, 0.0), (10.0, 0.0)]])
    assert distance(layer, 5.0, 3.0) == pytest.approx(3.0)


def test_distance_empty_layer():
    layer = geodata.FeatureLayer(geodata.POINTS, [], [0], [])
    with pytest.raises(NoFeaturesError):
        distance(layer, 0.0, 0.0)


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
        assert distance(layer, x, y) == pytest.approx(want, rel=1e-12)


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
        assert m.values[i, 0] == count(players, x, y, 1_000.0)
        assert m.values[i, 1] == count(players, x, y, 3_000.0)
        assert m.values[i, 2] == count(players, x, y, 8_000.0)
        assert m.values[i, 3] == pytest.approx(length(slayer, x, y, 1_000.0))
        assert m.values[i, 4] == pytest.approx(length(slayer, x, y, 5_000.0))
        assert m.values[i, 5] == pytest.approx(fraction(lcg, 1, x, y, 2_000.0))
        assert m.values[i, 6] == pytest.approx(fraction(lcg, 3, x, y, 4_000.0))
        assert m.values[i, 7] == pytest.approx(distance(slayer, x, y))
        assert m.values[i, 8] == pytest.approx(distance(players, x, y))
        sampled, inside, touched = geodata.bilinear_sample_many(grid, [x], [y])
        assert inside[0] and not touched[0]
        assert m.values[i, 9] == pytest.approx(sampled[0])
        assert m.values[i, 10] == x
        assert m.values[i, 11] == y


@pytest.fixture(scope="module")
def mini():
    return generate_synthetic(SyntheticScenario(seed=6))


@pytest.mark.parametrize("kind", ["point_count", "line_length", "landcover_fraction",
                                  "distance_to_nearest", "grid_sample"])
def test_extract_evaluates_each_point_on_its_own(mini, kind):
    """A point's row does not depend on the other points of the call: on a
    mini scenario's inputs, the rows of 700 points (the sites among them)
    are bit-identical, values and validity, when they come inside a seeded
    superset of 2,500 points, so past `_BLOCK` with the block boundaries
    moved, and the superset's rows are when it comes permuted. The
    pipeline's covariates stage takes columns that geo jobs extracted at
    every site of `sites.csv` on this property."""
    specs = [s for s in mini.specs if s.kind == kind]
    sources = dict(layers=mini.layers, grids=mini.grids, categorical=mini.categorical)
    rng = np.random.default_rng(23)
    extent = [mini.scenario.extent_x, mini.scenario.extent_y]
    points = np.vstack([mini.sites.coords,
                        rng.uniform(-0.05, 1.05, (700 - len(mini.sites), 2)) * extent])
    superset = np.vstack([points, rng.uniform(-0.05, 1.05, (1_800, 2)) * extent])
    order = rng.permutation(len(superset))
    assert specs and len(superset) > cov._BLOCK
    alone = cov.extract(specs, *points.T, **sources)
    inside = cov.extract(specs, *superset.T, **sources)
    permuted = cov.extract(specs, *superset[order].T, **sources)
    back = np.argsort(order)  # each superset point's row in `permuted`

    def rows(result, index=slice(None)):  # values and validity, as bytes
        return result[0][index].tobytes(), result[1][index].tobytes()

    assert rows(inside, slice(0, len(points))) == rows(alone)
    assert rows(permuted, back[:len(points)]) == rows(alone)
    assert rows(permuted, back) == rows(inside)
    assert np.any(alone[0] != 0.0) and np.any(alone[1])


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
    m = cov.CovariateMatrix(
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


@pytest.mark.parametrize("change, message", [
    ({"category": "1"}, "covariate spec 'lc1' category must be an integer, got '1'"),
    ({"category": 1.5}, "covariate spec 'lc1' category must be an integer, got 1.5"),
    ({"category": True}, "covariate spec 'lc1' category must be an integer, got True"),
    ({"category": 9}, "lc1: category 9 is not among the categories [1, 2] of 'lc'"),
    ({"buffer_m": True}, "covariate spec 'lc1' buffer_m must be a finite number, got True"),
    ({"buffer_m": "500"}, "covariate spec 'lc1' buffer_m must be a finite number"),
    ({"buffer_m": float("inf")}, "covariate spec 'lc1' buffer_m must be a finite number"),
    ({"bufer_m": 50.0}, "unknown covariate spec 'lc1' keys: ['bufer_m']"),
    ({"source": 3}, "covariate spec 'lc1' source must be a string, got 3"),
    ({"name": 7}, "covariate spec 7 name must be a string, got 7"),
])
def test_spec_values_checked_not_coerced(tmp_path, change, message):
    # Each of these once gave a valid column of zeros, a 1 m buffer, or a
    # silently ignored key.
    spec = {"name": "lc1", "kind": "landcover_fraction", "source": "lc", "category": 1,
            "buffer_m": 2000.0}
    grid = lc_grid([[1, 2], [2, 1]], categories=(1, 2))
    path = tmp_path / "covariates.json"

    def evaluate(d):
        path.write_text(json.dumps([d]))
        return cov.extract(cov.read_specs(path), [1000.0], [1000.0], categorical={"lc": grid})

    assert [a.tolist() for a in evaluate(spec)] == [[[0.5]], [[True]]]
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        evaluate({**spec, **change})


@pytest.mark.parametrize("text", ['{"name": "a", "kind": "coordinate_x"}', '["a"]', "[5]",
                                  "[null]", "5"])
def test_a_covariate_file_that_is_not_a_list_of_objects_is_named(tmp_path, text):
    # Each once failed with a bare AttributeError or TypeError.
    path = tmp_path / "covariates.json"
    path.write_text(text)
    with pytest.raises(InvalidArgumentError,
                       match=re.escape(f"{path}: a covariate set file must be a list of objects")):
        cov.read_specs(path)


@pytest.mark.parametrize("d, message", [
    ({"name": "a"}, "missing covariate spec 'a' keys: ['kind']"),  # once "unknown kind None"
    ({"kind": "coordinate_x"}, "missing covariate spec None keys: ['name']"),
    ("a", "covariate spec must be an object, got 'a'"),  # once an AttributeError
])
def test_a_spec_names_its_missing_keys(d, message):
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        cov.CovariateSpec.from_dict(d)


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
