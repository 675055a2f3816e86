import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lurk import geodata
from lurk._util import fmt_float
from lurk.errors import GridFormatError, InvalidArgumentError

import oracles


def make_grid(values, cell=1000.0, origin=(0.0, 0.0), nodata=-9999.0):
    values = np.asarray(values, dtype=np.float64)
    return geodata.RasterGrid(origin[0], origin[1], cell, values.shape[1],
                              values.shape[0], values, nodata)


# -- ESRI ASCII IO -----------------------------------------------------------

def test_read_raster_2x2(tmp_path):
    path = tmp_path / "g.asc"
    path.write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1000\n"
        "NODATA_value -9999\n1 2\n3 4\n"
    )
    g = geodata.read_raster(path)
    assert g.n_cols == 2 and g.n_rows == 2
    # top file row (1 2) is the top grid row; bottom-first storage
    assert g.values[0].tolist() == [3.0, 4.0]
    assert g.values[1].tolist() == [1.0, 2.0]
    assert g.cell_size == 1000.0


def test_read_raster_rejects_zero_ncols(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 0\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n")
    with pytest.raises(GridFormatError, match="ncols must be >= 1"):
        geodata.read_raster(path)


def test_read_raster_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n")
    with pytest.raises(GridFormatError, match="expected 4 values"):
        geodata.read_raster(path)


def test_read_raster_malformed_header(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols two\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3 4\n")
    with pytest.raises(GridFormatError, match="malformed header"):
        geodata.read_raster(path)


@pytest.mark.parametrize("key, value", [
    ("ncols", "3.5"), ("ncols", "nan"), ("ncols", "1e400"), ("nrows", "2.5"), ("nrows", "-inf"),
])
def test_read_raster_rejects_a_count_that_is_not_an_integer(tmp_path, key, value):
    """3.5 is not read as 3 columns, and nan or 1e400 raises no bare
    ValueError or OverflowError: each reader names the file and the key."""
    header = {"ncols": "3", "nrows": "2", "xllcorner": "0", "yllcorner": "0", "cellsize": "10"}
    path = tmp_path / "bad.asc"
    path.write_text("".join(f"{k} {v}\n" for k, v in {**header, key: value}.items())
                    + "1 2 3\n4 5 6\n")
    message = f"{path}: {key} must be an integer, got {float(value)}"
    for read in (geodata.read_raster, lambda p: geodata.read_categorical(p, range(1, 7))):
        with pytest.raises(GridFormatError, match=re.escape(message)):
            read(path)


def test_raster_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.normal(3.7, 25.0, (9, 13))
    vals[rng.uniform(size=vals.shape) < 0.2] = -9999.0
    g = make_grid(vals, cell=250.0, origin=(-1234.5, 987.25))
    path = tmp_path / "rt.asc"
    geodata.write_raster(g, path)
    g2 = geodata.read_raster(path)
    assert g2.same_lattice(g)
    assert np.array_equal(g2.values, g.values)
    assert g2.nodata == g.nodata


def test_categorical_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    codes = rng.integers(1, 9, (6, 7))
    g = geodata.CategoricalGrid(0.0, 0.0, 500.0, 7, 6, codes, tuple(range(1, 9)))
    path = tmp_path / "lc.asc"
    geodata.write_categorical(g, path)
    g2 = geodata.read_categorical(path, range(1, 9))
    assert np.array_equal(g2.values, g.values)


def per_cell_ascii_grid(grid, nodata: str, cell) -> bytes:
    """ESRI ASCII text formatted one numpy cell at a time, top row first."""
    lines = [f"ncols {grid.n_cols}", f"nrows {grid.n_rows}",
             f"xllcorner {fmt_float(grid.origin_x)}", f"yllcorner {fmt_float(grid.origin_y)}",
             f"cellsize {fmt_float(grid.cell_size)}", f"NODATA_value {nodata}"]
    for r in range(grid.n_rows - 1, -1, -1):
        lines.append(" ".join(cell(v) for v in grid.values[r]))
    return ("\n".join(lines) + "\n").encode()


def test_grid_writers_match_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(11)
    edge = [-9999.0, 1e-5, 1e16, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3,
            3.0, -2.5e-300, 123456789.125, 1e22, 9007199254740993.0]
    vals = rng.normal(0.0, 1.0, 7 * 11) * 10.0 ** rng.integers(-30, 30, 7 * 11)
    vals[:len(edge)] = edge
    g = make_grid(rng.permutation(vals).reshape(7, 11), cell=333.3, origin=(-1e5, 0.1))
    geodata.write_raster(g, tmp_path / "g.asc")
    assert (tmp_path / "g.asc").read_bytes() == per_cell_ascii_grid(g, fmt_float(g.nodata),
                                                                    fmt_float)
    back = geodata.read_raster(tmp_path / "g.asc")
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(np.signbit(back.values), np.signbit(g.values))

    codes = rng.choice([-9999, 0, 1, 7, 12, 255, 40_000], (5, 9))
    lc = geodata.CategoricalGrid(2.5, -7.0, 500.0, 9, 5, codes, (0, 1, 7, 12, 255, 40_000))
    geodata.write_categorical(lc, tmp_path / "lc.asc")
    assert (tmp_path / "lc.asc").read_bytes() == per_cell_ascii_grid(lc, str(lc.nodata),
                                                                     lambda v: str(int(v)))


def test_categorical_rejects_undeclared_code():
    with pytest.raises(InvalidArgumentError, match="undeclared category"):
        geodata.CategoricalGrid(0, 0, 1.0, 2, 1, [[1, 9]], categories=(1, 2))
    # each undeclared code once, sorted; a far code next to nodata is named too
    with pytest.raises(InvalidArgumentError, match=re.escape(
            "grid contains undeclared category codes: [-5, 9, 2147483647]")):
        geodata.CategoricalGrid(0, 0, 1.0, 6, 1, [[9, 1, 2**31 - 1, -9999, 9, -5]],
                                categories=(1, 2))


# -- the lattice geometry --------------------------------------------------------

def test_lattice_centers_and_cell_coords_invert_each_other():
    lat = geodata.Lattice(-250.0, 1_000.0, 125.0, 7, 4)
    u, v = lat.cell_coords(*lat.center_meshgrid())
    cols, rows = np.meshgrid(np.arange(7), np.arange(4))
    assert np.allclose(u, cols.ravel(), atol=1e-12) and np.allclose(v, rows.ravel(), atol=1e-12)
    raster = geodata.RasterGrid.filled(**lat.geometry())
    land = geodata.CategoricalGrid(**lat.geometry(), values=np.ones((4, 7)), categories=(1,))
    assert raster.same_lattice(land) and land.same_lattice(lat)
    assert not raster.same_lattice(geodata.Lattice(-250.0, 1_000.0, 125.0, 7, 5))


@pytest.mark.parametrize("geometry, message", [
    ((0.0, 0.0, 1.0, 0, 2), "ncols must be >= 1"),
    ((0.0, 0.0, 1.0, 2, 0), "nrows must be >= 1"),
    ((0.0, 0.0, -1.0, 2, 2), "cellsize must be > 0"),
    ((0.0, 0.0, np.nan, 2, 2), "cellsize must be a finite number, got nan"),
    ((0.0, 0.0, np.inf, 2, 2), "cellsize must be a finite number, got inf"),
    ((np.inf, 0.0, 1.0, 2, 2), "xllcorner must be a finite number, got inf"),
    ((0.0, -np.inf, 1.0, 2, 2), "yllcorner must be a finite number, got -inf"),
])
def test_lattice_checks_hold_for_every_grid_and_the_reader(tmp_path, geometry, message):
    with pytest.raises(InvalidArgumentError, match=message):
        geodata.RasterGrid(*geometry, np.zeros(4))
    with pytest.raises(InvalidArgumentError, match=message):
        geodata.CategoricalGrid(*geometry, np.ones(4), (1,))
    x, y, cell, n_cols, n_rows = geometry
    path = tmp_path / "bad.asc"
    path.write_text(f"ncols {n_cols}\nnrows {n_rows}\nxllcorner {x}\nyllcorner {y}\n"
                    f"cellsize {cell}\n1 1 1 1\n")
    for read in (geodata.read_raster, lambda p: geodata.read_categorical(p, (1,))):
        with pytest.raises(GridFormatError, match=f"{path}: {message}"):
            read(path)


# -- bilinear sampling ---------------------------------------------------------

def sample(grid, x, y):
    """The bilinear value at one point inside the center hull, clear of nodata."""
    out, inside, touched = geodata.bilinear_sample_many(grid, [x], [y])
    assert inside[0] and not touched[0]
    return out[0]


def test_bilinear_midpoint_single_hot_corner():
    g = make_grid([[0.0, 0.0], [0.0, 4.0]], cell=1.0)
    # midpoint of the 4 cell centers
    assert sample(g, 1.0, 1.0) == pytest.approx(1.0)


def test_bilinear_exact_at_cell_center():
    g = make_grid([[1.0, 2.0], [7.5, 4.0]], cell=10.0)
    assert sample(g, 5.0, 15.0) == 7.5


def test_bilinear_matches_closed_form():
    # corners 1,2,3,4 at unit spacing; frozen oracle value at (0.25, 0.75)
    g = make_grid([[1.0, 2.0], [3.0, 4.0]], cell=1.0)
    expected = oracles.bilinear_closed_form(1.0, 2.0, 3.0, 4.0, 0.25, 0.75)
    assert expected == pytest.approx(2.75)
    got = sample(g, 0.5 + 0.25, 0.5 + 0.75)
    assert got == pytest.approx(expected, rel=1e-12)


@given(
    a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10),
    d=st.floats(-10, 10),
    u=st.floats(0, 1), v=st.floats(0, 1),
)
def test_bilinear_reproduces_bilinear_functions(a, b, c, d, u, v):
    cell = 100.0
    xs = np.array([50.0, 150.0])
    ys = np.array([50.0, 150.0])
    f = lambda x, y: a + b * x + c * y + d * x * y
    vals = [[f(x, y) for x in xs] for y in ys]
    g = make_grid(vals, cell=cell)
    qx, qy = 50.0 + 100.0 * u, 50.0 + 100.0 * v
    expected = f(qx, qy)
    assert sample(g, qx, qy) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_bilinear_out_of_domain():
    g = make_grid([[1.0, 2.0], [3.0, 4.0]], cell=1.0)
    _, inside, _ = geodata.bilinear_sample_many(g, [0.4, 1.2], [0.9, 1.6])
    assert not inside.any()


def test_bilinear_nodata_neighbor():
    g = make_grid([[1.0, -9999.0], [3.0, 4.0]], cell=1.0)
    _, inside, touched = geodata.bilinear_sample_many(g, [1.0], [1.0])
    assert inside[0] and touched[0]


# -- feature layers ------------------------------------------------------------------

def test_polyline_validation():
    with pytest.raises(InvalidArgumentError, match=">= 2 vertices"):
        geodata.FeatureLayer(geodata.POLYLINES, [[0.0, 0.0]], [0, 1], ["a"])
    with pytest.raises(InvalidArgumentError, match="duplicate vertices"):
        geodata.FeatureLayer(geodata.POLYLINES, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0, 3],
                             ["a"])


def test_features_csv_round_trip(tmp_path):
    xy = np.array([[0.0, 0.5], [100.25, 30.0], [200.0, 31.0], [5.0, 5.0], [6.0, 9.0]])
    layer = geodata.FeatureLayer(geodata.POLYLINES, xy, [0, 3, 5], ["r1", "r2"])
    path = tmp_path / "roads.csv"
    geodata.write_features(layer, path)
    assert path.read_text().splitlines()[:2] == [
        "id,kind,category,wkt", 'r1,polyline,,"LINESTRING(0.0 0.5, 100.25 30.0, 200.0 31.0)"']
    back = geodata.read_features(path)
    assert back.kind == geodata.POLYLINES
    assert back.ids.tolist() == ["r1", "r2"]
    assert np.array_equal(back.offsets, [0, 3, 5]) and np.array_equal(back.xy, xy)


# -- columnar feature layers --------------------------------------------------------

def _random_wkt_layer(rng, kind):
    """(wkt strings, categories) of one random layer; the reader ignores
    the categories."""
    wkts, categories = [], []
    for _ in range(int(rng.integers(1, 40))):
        k = 1 if kind == geodata.POINTS else int(rng.integers(2, 21))
        xy = rng.normal(0.0, 10.0 ** rng.integers(2, 7), (k, 2))
        whole = rng.uniform(size=xy.shape) < 0.2
        xy[whole] = np.round(xy[whole])
        body = ", ".join(f"{x!r} {y!r}" for x, y in xy.tolist())
        wkts.append(f"POINT({body})" if kind == geodata.POINTS else f"LINESTRING({body})")
        categories.append(str(rng.choice(["", "major", "minor"])))
    return wkts, categories


@pytest.mark.parametrize("seed", range(12))
def test_read_features_matches_per_feature_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    kind = (geodata.POINTS, geodata.POLYLINES)[seed % 2]
    wkts, categories = _random_wkt_layer(rng, kind)
    path = tmp_path / "layer.csv"
    path.write_text("id,kind,category,wkt\n" + "".join(
        f'f{i},{kind},{c},"{w}"\n' for i, (c, w) in enumerate(zip(categories, wkts))))
    layer = geodata.read_features(path)
    parsed = [oracles.parse_wkt(w) for w in wkts]
    assert {k for k, _ in parsed} == {layer.kind}
    want = oracles.per_feature_layer(kind, [xy for _, xy in parsed])
    assert layer.ids.tolist() == [f"f{i}" for i in range(len(wkts))]
    for key in ("xy", "seg_a", "seg_b"):
        assert np.array_equal(getattr(layer, key), want[key]), key
    assert np.array_equal(layer.tree.data, want["tree_data"])
    assert layer.max_half == want["max_half"]
    back = tmp_path / "back.csv"
    geodata.write_features(layer, back)
    assert np.array_equal(geodata.read_features(back).xy, layer.xy)
    from_bytes = geodata.read_features(path, data=path.read_bytes())
    for key in ("xy", "offsets", "ids", "seg_a", "seg_b"):
        assert np.array_equal(getattr(from_bytes, key), getattr(layer, key)), key


@pytest.mark.parametrize("first, wkt, message", [
    ("LINESTRING(0 0, 1 1)", "LINESTRING(1 2, 3)",
     r"b\.csv: feature f1: coordinates are not 'x y' number pairs"),
    ("POINT(0 0)", "POINT(a b)", r"b\.csv: feature f1: coordinates are not 'x y' number pairs"),
    ("POINT(0 0)", "POINT(1 2, 3 4)", "feature f1: point must have one vertex"),
    ("POINT(0 0)", "POLYGON((0 0, 1 0, 1 1, 0 0))", "feature f1: unsupported WKT geometry"),
    ("POINT(0 0)", "LINESTRING(0 0, 1 1)", "mixed point/polyline geometries"),
    ("LINESTRING(0 0, 1 1)", "LINESTRING(5 5, 6 6, 6 6)",
     "feature f1: consecutive duplicate vertices"),
])
def test_read_features_names_malformed_feature(tmp_path, first, wkt, message):
    path = tmp_path / "b.csv"
    path.write_text(f'id,kind,category,wkt\nf0,,,"{first}"\nf1,,,"{wkt}"\n')
    with pytest.raises(InvalidArgumentError, match=message):
        geodata.read_features(path)
    with pytest.raises(InvalidArgumentError, match=message):
        geodata.read_features(path, data=path.read_bytes())


def grid_outcome(call):
    """The geometry, nodata and values of `call()`'s grid, or the type and
    message of what it raised."""
    try:
        lattice, nodata, values = call()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return lattice.geometry(), nodata, values.dtype, values.tolist()


GRID_HEADER = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\nNODATA_value -9999\n"


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("text", [
    GRID_HEADER + "1 2 3\n4 5 6\n",
    GRID_HEADER + "1.5 2 3\n4 5 -9999\n",
    GRID_HEADER + "1.0 2 3\n4 5 6\n",  # a code written as a float
    (GRID_HEADER + "1 2 3\n4 5 6\n").replace("\n", "\r\n"),
    GRID_HEADER + "\n1 2 3\n\n4 5 6\n\n",  # blank lines
    "ncols 3\n\nnrows 2\n  \nxllcorner 0\nyllcorner 0\ncellsize 10\n1 2 3\n4 5 6\n",
    GRID_HEADER + "1 2\n3 4 5 6\n",  # short and long rows, the right count
    GRID_HEADER + "1 2 3\n4 5\n",  # too few values
    GRID_HEADER + "1 2 3\n4 5 6 7\n",  # too many
    GRID_HEADER + "1 2 x\n4 5 6\n",  # a non-numeric token
    GRID_HEADER + "1 2 x\n4 5\n",  # a wrong count names before a bad token
    GRID_HEADER + "3000000000 2 3\n4 5 6\n",  # outside int32
    GRID_HEADER + "2147483647 -2147483648 3\n4 5 6\n",
    GRID_HEADER + "1e0 2 3\n4 5 6\n",
    GRID_HEADER + "nan 2 3\n4 5 6\n",
    GRID_HEADER,  # header only
    GRID_HEADER.replace("cellsize 10", "cellsize 10 20") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("cellsize 10", "cellsize ten") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("cellsize 10\n", "") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("ncols 3", "ncols 0") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("ncols 3", "ncols 3.5") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("nrows 2", "nrows nan") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("ncols 3", "ncols 1e400") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("cellsize 10", "cellsize nan") + "1 2 3\n4 5 6\n",
    GRID_HEADER.replace("xllcorner 0", "xllcorner inf") + "1 2 3\n4 5 6\n",
])
def test_grid_readers_match_the_splitlines_oracle(tmp_path, text):
    """From the file, or from its bytes read already."""
    path = tmp_path / "g.asc"
    path.write_bytes(text.encode())

    categories = range(-9999, 10)

    def raster(data=None):
        g = geodata.read_raster(path, data=data)
        return g, g.nodata, g.values

    def raster_oracle():
        lattice, nodata, values = oracles.splitlines_read_ascii_grid(path, geodata.DEFAULT_NODATA)
        g = geodata.RasterGrid(**lattice.geometry(), values=values, nodata=nodata)
        return g, g.nodata, g.values

    def categorical(data=None):
        g = geodata.read_categorical(path, categories, data=data)
        return g, g.nodata, g.values

    def categorical_oracle():
        lattice, nodata, codes = oracles.splitlines_read_categorical_codes(path)
        g = geodata.CategoricalGrid(**lattice.geometry(), values=codes,
                                    categories=categories, nodata=nodata)
        return g, g.nodata, g.values

    assert grid_outcome(raster) == grid_outcome(raster_oracle)
    assert grid_outcome(categorical) == grid_outcome(categorical_oracle)
    data = path.read_bytes()
    assert grid_outcome(lambda: raster(data)) == grid_outcome(raster_oracle)
    assert grid_outcome(lambda: categorical(data)) == grid_outcome(categorical_oracle)


def test_an_unpickled_grid_keeps_its_values_read_only():
    for grid in (make_grid(np.arange(6.0).reshape(2, 3)),
                 geodata.CategoricalGrid(0.0, 0.0, 1.0, 3, 2, np.ones((2, 3)), (1,))):
        back = pickle.loads(pickle.dumps(grid))
        assert type(back) is type(grid) and back.same_lattice(grid)
        assert np.array_equal(back.values, grid.values) and not back.values.flags.writeable


@pytest.mark.parametrize("code", ["1.5", "3000000000", "nan"])
def test_read_categorical_rejects_codes_a_float_fallback_would_cast(tmp_path, monkeypatch, code):
    # Some NumPy releases parse a float token into an integer dtype with
    # only a DeprecationWarning; the reader must still name the code.
    loadtxt = np.loadtxt

    def loadtxt_with_float_fallback(f, dtype=float, **kwargs):
        start = f.tell()
        try:
            return loadtxt(f, dtype, **kwargs)
        except ValueError:
            if not np.issubdtype(dtype, np.integer):
                raise
            f.seek(start)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            with np.errstate(invalid="ignore"):
                return loadtxt(f, np.float64, **kwargs).astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_float_fallback)
    path = tmp_path / "g.asc"
    path.write_text(GRID_HEADER + f"{code} 2 3\n4 5 6\n")
    with pytest.raises(GridFormatError, match="non-integer codes"):
        geodata.read_categorical(path, range(-9999, 10))


@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_summed_area_table_sums_columns_then_rows_bit_for_bit(dtype):
    rng = np.random.default_rng(3)
    values = rng.random((37, 23)) if dtype is np.float64 else rng.random((37, 23)) < 0.4
    want = np.zeros((38, 24), dtype=dtype)
    np.cumsum(np.cumsum(values, axis=0, dtype=dtype), axis=1, out=want[1:, 1:])
    got = geodata.summed_area_table(values, dtype)
    assert got.dtype == want.dtype and np.array_equal(got, want)
