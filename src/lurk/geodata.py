"""Planar spatial data structures, file IO, and bilinear grid sampling.

All coordinates are projected planar meters. Grids follow the ESRI ASCII
convention: square cells, lower-left corner origin, and bottom-row-first
storage. `Lattice` holds that geometry and its center formula (the
prediction lattice is one); `RasterGrid` (rasters) and `CategoricalGrid`
(land cover) extend it. Grid files store the top row first; the reader
flips into the bottom-first layout.

Feature layers hold point or polyline geometry as columns (flat vertices
plus per-feature offsets) behind one kd-tree over the points or segment
midpoints, which the covariate engine queries for buffer and proximity
covariates. A categorical grid keeps no summed-area table: each window
count builds the one table it needs and drops it when it returns.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np
from scipy.spatial import cKDTree

from .errors import GridFormatError, InvalidArgumentError
from ._util import fmt_float, owned_array, write_atomic, write_table

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class Lattice:
    """The geometry of a grid: `n_cols` x `n_rows` square cells of side
    `cell_size` with lower-left corner (`origin_x`, `origin_y`), row 0 at
    the bottom. Cell (c, r) is centered at
    ``origin + (c + 0.5, r + 0.5) * cell_size``."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int

    def __post_init__(self):
        if self.n_cols < 1:
            raise InvalidArgumentError("ncols must be >= 1")
        if self.n_rows < 1:
            raise InvalidArgumentError("nrows must be >= 1")
        if self.cell_size <= 0:
            raise InvalidArgumentError("cellsize must be > 0")
        for key, value in (("xllcorner", self.origin_x), ("yllcorner", self.origin_y),
                           ("cellsize", self.cell_size)):
            if not np.isfinite(value):
                raise InvalidArgumentError(f"{key} must be a finite number, got {value}")

    def __setstate__(self, state):
        """Unpickled (as from a worker process), a record's arrays stay read-only."""
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)

    def geometry(self) -> dict:
        """The five fields by name, as `Lattice`, `RasterGrid` and a config's `prediction` take them."""
        return {f.name: getattr(self, f.name) for f in fields(Lattice)}

    def same_lattice(self, other) -> bool:
        return self.geometry() == other.geometry()

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.n_rows) + 0.5) * self.cell_size

    def center_meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened center coordinates, bottom row first."""
        xx, yy = np.meshgrid(self.x_centers(), self.y_centers())
        return xx.ravel(), yy.ravel()

    def cell_coords(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """The inverse of the center formula: fractional (column, row) of
        each point, integral at cell centers."""
        return ((xs - self.origin_x) / self.cell_size - 0.5,
                (ys - self.origin_y) / self.cell_size - 0.5)


@dataclass(frozen=True)
class RasterGrid(Lattice):
    """Regular planar grid of one real-valued variable.

    ``values`` has shape (n_rows, n_cols) with row 0 the bottom row.
    Nodata cells carry the ``nodata`` sentinel exactly. Instances are
    immutable after construction and safe to share across threads.
    """

    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        super().__post_init__()
        vals = owned_array("grid values", self.values, np.float64, finite=True)
        object.__setattr__(self, "values", vals.reshape(self.n_rows, self.n_cols))

    @classmethod
    def filled(cls, origin_x, origin_y, cell_size, n_cols, n_rows) -> "RasterGrid":
        """A grid of zeros."""
        return cls(origin_x, origin_y, cell_size, n_cols, n_rows, np.zeros((n_rows, n_cols)))

    def with_values(self, values: np.ndarray) -> "RasterGrid":
        return RasterGrid(**self.geometry(), values=values, nodata=self.nodata)


def summed_area_table(values: np.ndarray, dtype) -> np.ndarray:
    """Table S with S[r, c] the sum of ``values[:r, :c]``, accumulated in
    `dtype` down the columns first (each row added to the sum of the rows
    before it), then along the rows."""
    table = np.zeros((values.shape[0] + 1, values.shape[1] + 1), dtype=dtype)
    sums = table[1:, 1:]
    sums[...] = values
    for r in range(1, len(sums)):  # whole contiguous rows; cumsum(axis=0) strides
        sums[r] += sums[r - 1]
    np.cumsum(sums, axis=1, out=sums)
    return table


def box_sum(table: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    """Sum of the cells in rows [r0, r1) and columns [c0, c1) of the grid
    behind summed-area `table`; the bounds broadcast against each other."""
    return table[r1, c1] - table[r0, c1] - table[r1, c0] + table[r0, c0]


@dataclass(frozen=True)
class CategoricalGrid(Lattice):
    """Regular grid of small-integer category codes (land cover classes).

    ``values`` (int32, row 0 the bottom row) holds a declared category or
    the ``nodata`` code in each cell. Instances are immutable after
    construction and safe to share across threads; they cache nothing.
    """

    values: np.ndarray
    categories: tuple[int, ...]
    nodata: int = -9999

    def __post_init__(self):
        super().__post_init__()
        vals = owned_array("grid values", self.values, np.int32).reshape(self.n_rows, self.n_cols)
        # "sort" compares few codes cell by cell; "table" copies the grid as intp
        bad = np.isin(vals, [*self.categories, self.nodata], invert=True, kind="sort")
        if bad.any():
            raise InvalidArgumentError(
                f"grid contains undeclared category codes: {np.unique(vals[bad]).tolist()}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "categories", tuple(int(c) for c in self.categories))

    def window_counts(self, xs, ys, windows_m, category: int | None = None) -> np.ndarray:
        """Cells of `category` (valid cells when None) whose centers lie in
        the square window of side ``windows_m[k]`` centered at each point,
        in column k. The call builds one summed-area table and frees it on
        return; on a grid without nodata it builds none for the valid cells,
        whose count is then the window's clipped cell count."""
        table = None
        if category is not None or np.any(self.values == self.nodata):
            mask = self.values != self.nodata if category is None else self.values == category
            dtype = np.int32 if mask.size < 2**31 else np.int64  # no count overflows
            table = summed_area_table(mask, dtype)
        counts = np.empty((np.size(xs), len(windows_m)), dtype=np.int64)
        for k, window_m in enumerate(windows_m):
            # Half-open row and column ranges of the cell centers inside each
            # window; a window holding no center gets an empty range.
            half = window_m / 2.0
            c0, r0 = map(np.ceil, self.cell_coords(xs - half, ys - half))
            c1, r1 = (np.floor(u) + 1 for u in self.cell_coords(xs + half, ys + half))
            c0, c1 = (np.clip(c, 0, self.n_cols).astype(np.int64) for c in (c0, c1))
            r0, r1 = (np.clip(r, 0, self.n_rows).astype(np.int64) for r in (r0, r1))
            counts[:, k] = ((r1 - r0) * (c1 - c0) if table is None
                            else box_sum(table, r0, r1, c0, c1))
        return counts


def _read_header(f, path) -> dict:
    """Read the header lines of an open ESRI ASCII grid file, leaving `f`
    at the first body line; blank lines before the body are skipped. A
    missing key, or an ncols or nrows that is not an integer, raises
    GridFormatError naming the file and the key."""
    header: dict[str, float] = {}
    number = 0  # of the line just read
    while True:
        start = f.tell()
        line = f.readline()
        number += 1
        parts = line.split()
        if not line or (parts and parts[0].lower() not in _HEADER_KEYS):
            f.seek(start)
            break
        if not parts:
            continue
        if len(parts) != 2:
            raise GridFormatError(f"{path}: malformed header line {number!r}: {line.strip()!r}")
        try:
            header[parts[0].lower()] = float(parts[1])
        except ValueError:
            raise GridFormatError(
                f"{path}: malformed header line {number}: {line.strip()!r}") from None
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise GridFormatError(f"{path}: missing header key '{key}'")
    for key in ("ncols", "nrows"):
        if not header[key].is_integer():  # 3.5, nan, or an inf such as 1e400
            raise GridFormatError(f"{path}: {key} must be an integer, got {header[key]}")
    return header


def _open_text(path, data: bytes | None, newline=None):
    """The file at `path` opened as text; or, when `data` holds its bytes,
    read already, those bytes decoded as `open` would decode the file."""
    if data is None:
        return open(path, newline=newline)
    return io.TextIOWrapper(io.BytesIO(data), newline=newline)


def _read_ascii_grid(path, nodata: float, dtype=np.float64,
                     data: bytes | None = None) -> tuple[Lattice, float, np.ndarray]:
    """The lattice, the nodata value (`nodata` when the header has none)
    and the bottom-row-first values of an ESRI ASCII grid file (of its
    bytes `data`, when given; see `_open_text`). The body
    is parsed in one `np.loadtxt` pass as `dtype`; when that fails (rows
    of unequal length, or a token `dtype` cannot hold) the whitespace
    tokens are counted and parsed as float64, so a wrong count or a
    non-numeric token raises GridFormatError."""
    with _open_text(path, data) as f:
        header = _read_header(f, path)
        try:
            lattice = Lattice(header["xllcorner"], header["yllcorner"], header["cellsize"],
                              int(header["ncols"]), int(header["nrows"]))
        except InvalidArgumentError as e:
            raise GridFormatError(f"{path}: {e}") from None
        n_cols, n_rows = lattice.n_cols, lattice.n_rows
        body = f.tell()
        try:
            with warnings.catch_warnings():
                # NumPy 1.23 added a deprecated fallback that parses a float
                # token into an integer dtype with only a DeprecationWarning;
                # make it the failure it is once the fallback is gone.
                warnings.simplefilter("error", DeprecationWarning)
                flat = np.loadtxt(f, dtype, comments=None, ndmin=1).ravel()
        except (ValueError, DeprecationWarning):
            f.seek(body)
            flat = f.read().split()
    if len(flat) != n_cols * n_rows:
        raise GridFormatError(f"{path}: expected {n_cols * n_rows} values, found {len(flat)}")
    if isinstance(flat, list):
        try:
            flat = np.asarray(flat, dtype=np.float64)
        except ValueError:
            raise GridFormatError(f"{path}: non-numeric value in grid body") from None
    # File rows run top-first; flip to bottom-first storage.
    return lattice, header.get("nodata_value", nodata), flat.reshape(n_rows, n_cols)[::-1]


def read_raster(path, data: bytes | None = None) -> RasterGrid:
    """Read an ESRI ASCII grid file into a RasterGrid; `data`, when given,
    holds the file's bytes, read already (errors still name `path`)."""
    lattice, nodata, vals = _read_ascii_grid(path, DEFAULT_NODATA, data=data)
    return RasterGrid(**lattice.geometry(), values=vals, nodata=nodata)


def _write_ascii_grid(grid, path, nodata: str, cell) -> None:
    """Write an ESRI ASCII grid file, top row first; `cell` formats the
    Python value of one cell."""
    out = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {fmt_float(grid.origin_x)}",
        f"yllcorner {fmt_float(grid.origin_y)}",
        f"cellsize {fmt_float(grid.cell_size)}",
        f"NODATA_value {nodata}",
    ]
    out += [" ".join(map(cell, row.tolist())) for row in grid.values[::-1]]
    write_atomic(path, "\n".join(out) + "\n")


def write_raster(grid: RasterGrid, path) -> None:
    """Write an ESRI ASCII grid file; round-trip exact (each cell is the
    `repr` of its float, as `fmt_float` writes it)."""
    _write_ascii_grid(grid, path, fmt_float(grid.nodata), repr)


def read_categorical(path, categories, data: bytes | None = None) -> CategoricalGrid:
    """Read an ESRI ASCII grid of integer category codes; `data` as for
    `read_raster`."""
    lattice, nodata, vals = _read_ascii_grid(path, CategoricalGrid.nodata, np.int32, data)
    if vals.dtype != np.int32:  # the float fallback: some code is not an int32
        with np.errstate(invalid="ignore"):  # NaN or out of range: named below
            ivals = vals.astype(np.int32)
        if not np.array_equal(ivals, vals):
            raise GridFormatError(f"{path}: categorical grid contains non-integer codes")
        vals = ivals
    return CategoricalGrid(**lattice.geometry(), values=vals,
                           categories=tuple(int(c) for c in categories),
                           nodata=int(nodata))


def write_categorical(grid: CategoricalGrid, path) -> None:
    """Write an ESRI ASCII grid of category codes, each distinct code
    formatted once."""
    text = {code: str(code) for code in np.unique(grid.values).tolist()}
    _write_ascii_grid(grid, path, str(grid.nodata), text.__getitem__)


def bilinear_sample_many(grid: RasterGrid, xs, ys):
    """Vectorized bilinear sampling at many points.

    Returns (values, inside_hull, touched_nodata); values are meaningful
    only where inside_hull & ~touched_nodata.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    u, v = grid.cell_coords(xs, ys)
    inside = (u >= 0.0) & (u <= grid.n_cols - 1) & (v >= 0.0) & (v <= grid.n_rows - 1)
    c0 = np.clip(np.floor(u).astype(np.int64), 0, max(grid.n_cols - 2, 0))
    r0 = np.clip(np.floor(v).astype(np.int64), 0, max(grid.n_rows - 2, 0))
    c1 = np.minimum(c0 + 1, grid.n_cols - 1)
    r1 = np.minimum(r0 + 1, grid.n_rows - 1)
    wx = np.where(inside, u - c0, 0.0)
    wy = np.where(inside, v - r0, 0.0)
    vals = grid.values
    v00 = vals[r0, c0]
    v10 = vals[r0, c1]
    v01 = vals[r1, c0]
    v11 = vals[r1, c1]
    nd = grid.nodata
    touched_nodata = (v00 == nd) | (v10 == nd) | (v01 == nd) | (v11 == nd)
    out = (
        v00 * (1 - wx) * (1 - wy)
        + v10 * wx * (1 - wy)
        + v01 * (1 - wx) * wy
        + v11 * wx * wy
    )
    return out, inside, touched_nodata


# ---------------------------------------------------------------------------
# Feature layers
# ---------------------------------------------------------------------------

POINTS = "points"
POLYLINES = "polylines"
_WKT_KINDS = {"POINT": POINTS, "LINESTRING": POLYLINES}


class FeatureLayer:
    """Point or polyline features held as columns: feature i has vertices
    ``xy[offsets[i]:offsets[i + 1]]`` and id ``ids[i]``. One kd-tree,
    ``tree``, indexes the points of a point layer or the midpoints of the
    segments ``seg_a``->``seg_b`` of a polyline layer; every point of a
    segment lies within ``max_half`` of its midpoint. Layers are immutable
    after construction and safe to share across threads."""

    def __init__(self, kind: str, xy, offsets, ids):
        if kind not in (POINTS, POLYLINES):
            raise InvalidArgumentError(f"unknown layer kind {kind!r}")
        self.kind = kind
        self.xy = owned_array("xy", xy, np.float64).reshape(-1, 2)
        self.offsets = owned_array("offsets", offsets, np.int64)
        self.ids = owned_array("ids", ids, str)
        if (self.offsets.shape != (self.ids.size + 1,)
                or self.offsets[0] != 0 or self.offsets[-1] != len(self.xy)):
            raise InvalidArgumentError("offsets and ids do not match the vertices")
        counts = np.diff(self.offsets)
        if kind == POINTS:
            self._reject(np.flatnonzero(counts != 1), "point must have one vertex")
            self.seg_a = self.seg_b = np.empty((0, 2))
            self.tree = cKDTree(self.xy)
        else:
            self._reject(np.flatnonzero(counts < 2), "polyline needs >= 2 vertices")
            # True for each pair of consecutive vertices of one feature: a segment.
            segment = np.ones(max(len(self.xy) - 1, 0), dtype=bool)
            segment[self.offsets[1:-1] - 1] = False
            repeated = np.flatnonzero(segment & np.all(self.xy[1:] == self.xy[:-1], axis=1))
            self._reject(np.searchsorted(self.offsets, repeated, "right") - 1,
                         "consecutive duplicate vertices are not allowed")
            self.seg_a, self.seg_b = self.xy[:-1][segment], self.xy[1:][segment]
            self.tree = cKDTree(0.5 * (self.seg_a + self.seg_b))
        self.seg_a = owned_array("seg_a", self.seg_a, np.float64)
        self.seg_b = owned_array("seg_b", self.seg_b, np.float64)
        half = 0.5 * np.hypot(*(self.seg_b - self.seg_a).T)
        self.max_half = float(half.max(initial=0.0))

    __setstate__ = Lattice.__setstate__

    def _reject(self, features: np.ndarray, what: str) -> None:
        if features.size:
            raise InvalidArgumentError(f"feature {self.ids[features[0]]}: {what}")

    def __len__(self) -> int:
        return self.ids.size


def point_segment_distance(x, y, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from (x, y) to each segment a[i]->b[i]; degenerate segments
    are treated as points. x and y are scalars or one center per segment."""
    d = b - a
    pa = np.column_stack([x, y]) - a
    dd = np.einsum("ij,ij->i", d, d)
    t = np.zeros(len(a))
    nz = dd > 0
    t[nz] = np.clip(np.einsum("ij,ij->i", pa[nz], d[nz]) / dd[nz], 0.0, 1.0)
    closest = a + t[:, None] * d
    return np.hypot(closest[:, 0] - x, closest[:, 1] - y)


def segment_disk_length(a: np.ndarray, b: np.ndarray, x, y, r: float) -> np.ndarray:
    """Length of each segment's intersection with the closed disk of
    radius r centered at (x, y), by exact quadratic clipping. x and y are
    scalars or one center per segment."""
    d = b - a
    f = a - np.column_stack([x, y])
    qa = np.einsum("ij,ij->i", d, d)
    qb = 2.0 * np.einsum("ij,ij->i", f, d)
    qc = np.einsum("ij,ij->i", f, f) - r * r
    out = np.zeros(len(a))
    nz = qa > 0
    disc = qb * qb - 4.0 * qa * qc
    ok = nz & (disc > 0)
    if np.any(ok):
        sq = np.sqrt(disc[ok])
        t1 = (-qb[ok] - sq) / (2.0 * qa[ok])
        t2 = (-qb[ok] + sq) / (2.0 * qa[ok])
        lo = np.maximum(t1, 0.0)
        hi = np.minimum(t2, 1.0)
        out[ok] = np.maximum(hi - lo, 0.0) * np.sqrt(qa[ok])
    return out


# ---------------------------------------------------------------------------
# Feature CSV IO: columns id,kind,category,wkt
# ---------------------------------------------------------------------------

def read_features(path, data: bytes | None = None) -> FeatureLayer:
    """Read a feature layer CSV (id,kind,category,wkt; kind and category
    ignored) of POINT or LINESTRING geometries, one kind per file; errors
    name the feature. `data` as for `read_raster`."""
    with _open_text(path, data, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        rows = [row for row in reader if row]
    if not rows:
        raise InvalidArgumentError(f"{path}: no features")
    try:
        i_id, i_wkt = (header.index(c) if c in header else None for c in ("id", "wkt"))
        ids, wkts = [row[i_id] for row in rows], [row[i_wkt] for row in rows]
    except (IndexError, TypeError):  # a short row, or no id or wkt column
        raise InvalidArgumentError(f"{path}: every row needs an id and a wkt field") from None
    parts = [wkt.partition("(") for wkt in wkts]
    kinds = [_WKT_KINDS.get(tag.strip().upper()) for tag, _, _ in parts]
    if None in kinds:
        i = kinds.index(None)
        raise InvalidArgumentError(
            f"{path}: feature {ids[i]}: unsupported WKT geometry: {wkts[i].strip()[:30]!r}")
    if len(set(kinds)) > 1:
        raise InvalidArgumentError(f"{path}: mixed point/polyline geometries in one layer")
    bodies = [rest.rpartition(")")[0] for _, _, rest in parts]
    try:
        xy, ends = _coordinates(bodies)
    except ValueError:
        for fid, body in zip(ids, bodies):
            try:
                _coordinates([body])
            except ValueError:
                raise InvalidArgumentError(
                    f"{path}: feature {fid}: coordinates are not 'x y' number pairs") from None
    return FeatureLayer(kinds[0], xy, np.concatenate([[0], ends]), ids)


def _coordinates(bodies: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and per-body end offsets of WKT coordinate lists, in one
    parse: the tokens run "x y sep x y sep ..." with sep "," inside a body
    and ";" after its last vertex. ValueError unless every vertex is a
    pair of numbers."""
    tokens = (" ; ".join(bodies) + " ;").replace(",", " , ").split()
    seps = tokens[2::3]
    del tokens[2::3]
    ends = np.flatnonzero(np.array(seps) == ";") + 1
    if len(ends) != len(bodies) or not {",", ";"}.issuperset(seps):
        raise ValueError("malformed coordinates")
    return np.array(tokens, dtype=np.float64), ends


def write_features(layer: FeatureLayer, path) -> None:
    """Write a feature layer CSV (id,kind,category,wkt), category empty;
    each coordinate is the `repr` of its float, as `fmt_float` writes it."""
    v = list(map(repr, layer.xy.ravel().tolist()))
    pairs = list(map(" ".join, zip(v[::2], v[1::2])))
    tag, kind_name = ("POINT", "point") if layer.kind == POINTS else ("LINESTRING", "polyline")
    ends = layer.offsets.tolist()
    wkts = (f"{tag}({', '.join(pairs[i:j])})" for i, j in zip(ends, ends[1:]))
    write_table(path, ["id", "kind", "category", "wkt"],
                [layer.ids, repeat(kind_name), repeat(""), wkts])
