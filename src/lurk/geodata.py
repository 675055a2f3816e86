"""Planar spatial data structures, file IO, and grid resampling.

All coordinates are projected planar meters. Grids follow the ESRI ASCII
convention: square cells, lower-left corner origin, and bottom-row-first
storage, so the center of cell (col c, row r) sits at
``(origin_x + (c + 0.5) * cell_size, origin_y + (r + 0.5) * cell_size)``
with row r = 0 at the bottom. Grid files store the top row first; the
reader flips into the bottom-first layout.

Feature layers hold point or polyline geometry behind one kd-tree, over
the points or over the segment midpoints, which the covariate engine
queries for buffer and proximity covariates. Bounding-box window queries
test every stored bbox, so they are exact (no false negatives, no false
positives at the bbox level).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    GridFormatError,
    InvalidArgumentError,
    NodataError,
    OutOfDomainError,
)
from ._util import fmt_float

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class RasterGrid:
    """Regular planar grid of one real-valued variable.

    ``values`` has shape (n_rows, n_cols) with row 0 the bottom row.
    Nodata cells carry the ``nodata`` sentinel exactly. Instances are
    immutable after construction and safe to share across threads.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int
    values: np.ndarray
    nodata: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.n_cols < 1:
            raise InvalidArgumentError("ncols must be >= 1")
        if self.n_rows < 1:
            raise InvalidArgumentError("nrows must be >= 1")
        if self.cell_size <= 0:
            raise InvalidArgumentError("cellsize must be > 0")
        vals = np.asarray(self.values, dtype=np.float64).reshape(self.n_rows, self.n_cols)
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("grid values must be finite (use the nodata sentinel)")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def filled(cls, origin_x, origin_y, cell_size, n_cols, n_rows, value=0.0,
               nodata=DEFAULT_NODATA) -> "RasterGrid":
        vals = np.full((n_rows, n_cols), float(value))
        return cls(origin_x, origin_y, cell_size, n_cols, n_rows, vals, nodata)

    def same_lattice(self, other) -> bool:
        return (
            self.n_cols == other.n_cols
            and self.n_rows == other.n_rows
            and self.origin_x == other.origin_x
            and self.origin_y == other.origin_y
            and self.cell_size == other.cell_size
        )

    def cell_center(self, col: int, row: int) -> tuple[float, float]:
        return (
            self.origin_x + (col + 0.5) * self.cell_size,
            self.origin_y + (row + 0.5) * self.cell_size,
        )

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.n_rows) + 0.5) * self.cell_size

    def center_meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened center coordinates, bottom row first."""
        xx, yy = np.meshgrid(self.x_centers(), self.y_centers())
        return xx.ravel(), yy.ravel()

    def valid_mask(self) -> np.ndarray:
        return self.values != self.nodata

    def with_values(self, values: np.ndarray, nodata: float | None = None) -> "RasterGrid":
        return RasterGrid(
            self.origin_x, self.origin_y, self.cell_size, self.n_cols, self.n_rows,
            values, self.nodata if nodata is None else nodata,
        )


@dataclass(frozen=True)
class CategoricalGrid:
    """Regular grid of small-integer category codes (land cover classes)."""

    origin_x: float
    origin_y: float
    cell_size: float
    n_cols: int
    n_rows: int
    values: np.ndarray
    categories: tuple[int, ...]
    nodata: int = -9999

    def __post_init__(self):
        if self.n_cols < 1:
            raise InvalidArgumentError("ncols must be >= 1")
        if self.n_rows < 1:
            raise InvalidArgumentError("nrows must be >= 1")
        if self.cell_size <= 0:
            raise InvalidArgumentError("cellsize must be > 0")
        vals = np.asarray(self.values).astype(np.int32).reshape(self.n_rows, self.n_cols)
        allowed = set(self.categories) | {self.nodata}
        present = set(np.unique(vals).tolist())
        bad = present - allowed
        if bad:
            raise InvalidArgumentError(f"grid contains undeclared category codes: {sorted(bad)}")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "categories", tuple(int(c) for c in self.categories))

    def x_centers(self) -> np.ndarray:
        return self.origin_x + (np.arange(self.n_cols) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin_y + (np.arange(self.n_rows) + 0.5) * self.cell_size


def _parse_header(lines: list[str], path) -> tuple[dict, int]:
    header: dict[str, float] = {}
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            break
        if len(parts) != 2:
            raise GridFormatError(f"{path}: malformed header line {i + 1!r}: {lines[i].strip()!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise GridFormatError(
                f"{path}: malformed header line {i + 1}: {lines[i].strip()!r}"
            ) from None
        i += 1
    for key in ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize"):
        if key not in header:
            raise GridFormatError(f"{path}: missing header key '{key}'")
    return header, i


def _read_ascii_grid(path) -> tuple[dict, np.ndarray]:
    text = Path(path).read_text()
    lines = text.splitlines()
    header, first_data_line = _parse_header(lines, path)
    n_cols = int(header["ncols"])
    n_rows = int(header["nrows"])
    if n_cols < 1:
        raise GridFormatError(f"{path}: ncols must be >= 1")
    if n_rows < 1:
        raise GridFormatError(f"{path}: nrows must be >= 1")
    if header["cellsize"] <= 0:
        raise GridFormatError(f"{path}: cellsize must be > 0")
    tokens = " ".join(lines[first_data_line:]).split()
    if len(tokens) != n_cols * n_rows:
        raise GridFormatError(
            f"{path}: expected {n_cols * n_rows} values, found {len(tokens)}"
        )
    try:
        flat = np.array(tokens, dtype=np.float64)
    except ValueError:
        raise GridFormatError(f"{path}: non-numeric value in grid body") from None
    # File rows run top-first; flip to bottom-first storage.
    vals = flat.reshape(n_rows, n_cols)[::-1]
    return header, vals


def read_raster(path) -> RasterGrid:
    """Read an ESRI ASCII grid file into a RasterGrid."""
    header, vals = _read_ascii_grid(path)
    return RasterGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_cols=int(header["ncols"]),
        n_rows=int(header["nrows"]),
        values=vals,
        nodata=header.get("nodata_value", DEFAULT_NODATA),
    )


def write_raster(grid: RasterGrid, path) -> None:
    """Write an ESRI ASCII grid file (top row first); round-trip exact."""
    out = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {fmt_float(grid.origin_x)}",
        f"yllcorner {fmt_float(grid.origin_y)}",
        f"cellsize {fmt_float(grid.cell_size)}",
        f"NODATA_value {fmt_float(grid.nodata)}",
    ]
    for r in range(grid.n_rows - 1, -1, -1):
        out.append(" ".join(fmt_float(v) for v in grid.values[r]))
    Path(path).write_text("\n".join(out) + "\n")


def read_categorical(path, categories) -> CategoricalGrid:
    """Read an ESRI ASCII grid of integer category codes."""
    header, vals = _read_ascii_grid(path)
    ivals = vals.astype(np.int32)
    if not np.array_equal(ivals, vals):
        raise GridFormatError(f"{path}: categorical grid contains non-integer codes")
    return CategoricalGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        n_cols=int(header["ncols"]),
        n_rows=int(header["nrows"]),
        values=ivals,
        categories=tuple(int(c) for c in categories),
        nodata=int(header.get("nodata_value", -9999)),
    )


def write_categorical(grid: CategoricalGrid, path) -> None:
    out = [
        f"ncols {grid.n_cols}",
        f"nrows {grid.n_rows}",
        f"xllcorner {fmt_float(grid.origin_x)}",
        f"yllcorner {fmt_float(grid.origin_y)}",
        f"cellsize {fmt_float(grid.cell_size)}",
        f"NODATA_value {grid.nodata}",
    ]
    for r in range(grid.n_rows - 1, -1, -1):
        out.append(" ".join(str(int(v)) for v in grid.values[r]))
    Path(path).write_text("\n".join(out) + "\n")


def bilinear_sample_many(grid: RasterGrid, xs, ys):
    """Vectorized bilinear sampling at many points.

    Returns (values, inside_hull, touched_nodata); values are meaningful
    only where inside_hull & ~touched_nodata.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    u = (xs - grid.origin_x) / grid.cell_size - 0.5
    v = (ys - grid.origin_y) / grid.cell_size - 0.5
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


def bilinear_sample(grid: RasterGrid, x: float, y: float) -> float:
    """Bilinear interpolation of the 4 cell centers enclosing (x, y).

    Exact at cell centers; exact for any function a + bx + cy + dxy
    within one cell. Raises OutOfDomainError outside the center hull and
    NodataError when any of the 4 enclosing centers is nodata.
    """
    out, inside, touched = bilinear_sample_many(grid, [x], [y])
    if not inside[0]:
        raise OutOfDomainError(f"point ({x}, {y}) is outside the cell-center hull")
    if touched[0]:
        raise NodataError(f"point ({x}, {y}) has a nodata cell among its 4 neighbors")
    return float(out[0])


def resample_bilinear(src: RasterGrid, target: RasterGrid) -> RasterGrid:
    """Resample src onto target's lattice by bilinear interpolation.

    Target centers outside the src center hull, or touching nodata
    neighbors, become nodata (no partial weighting).
    """
    xs, ys = target.center_meshgrid()
    out, inside, touched = bilinear_sample_many(src, xs, ys)
    valid = inside & ~touched
    vals = np.where(valid, out, target.nodata).reshape(target.n_rows, target.n_cols)
    return target.with_values(vals)


# ---------------------------------------------------------------------------
# Feature layers
# ---------------------------------------------------------------------------

POINTS = "points"
POLYLINES = "polylines"


@dataclass(frozen=True)
class Feature:
    id: str
    category: str | None
    xy: np.ndarray  # (k, 2) vertices; k == 1 for points


class FeatureLayer:
    """Indexed collection of point or polyline features.

    The spatial index is one kd-tree, ``tree``, over the points of a point
    layer or the segment midpoints of a polyline layer. Every point of a
    segment lies within ``max_half`` (the longest segment's half-length)
    of its midpoint. Layers are immutable after construction and safe to
    share across threads.
    """

    def __init__(self, kind: str, features: list[Feature]):
        if kind not in (POINTS, POLYLINES):
            raise InvalidArgumentError(f"unknown layer kind {kind!r}")
        self.kind = kind
        self.features = []
        for f in features:
            xy = np.asarray(f.xy, dtype=np.float64)
            if kind == POINTS:
                if xy.shape != (1, 2):
                    raise InvalidArgumentError(f"feature {f.id}: point must have one vertex")
            else:
                if xy.ndim != 2 or xy.shape[0] < 2 or xy.shape[1] != 2:
                    raise InvalidArgumentError(f"feature {f.id}: polyline needs >= 2 vertices")
                if np.any(np.all(xy[1:] == xy[:-1], axis=1)):
                    raise InvalidArgumentError(
                        f"feature {f.id}: consecutive duplicate vertices are not allowed"
                    )
            self.features.append(Feature(id=f.id, category=f.category, xy=xy))
        n = len(self.features)
        self._bbox = np.empty((n, 4))  # xmin, ymin, xmax, ymax
        for i, f in enumerate(self.features):
            xy = f.xy
            self._bbox[i] = (xy[:, 0].min(), xy[:, 1].min(), xy[:, 0].max(), xy[:, 1].max())
        self._build_arrays()

    def _build_arrays(self):
        empty = np.empty((0, 2))
        if self.kind == POINTS:
            self.points_xy = np.vstack([f.xy for f in self.features] or [empty])
            self.seg_a = self.seg_b = empty
            self.tree = cKDTree(self.points_xy)
        else:
            self.points_xy = empty
            self.seg_a = np.vstack([f.xy[:-1] for f in self.features] or [empty])
            self.seg_b = np.vstack([f.xy[1:] for f in self.features] or [empty])
            self.tree = cKDTree(0.5 * (self.seg_a + self.seg_b))
        half = 0.5 * np.hypot(*(self.seg_b - self.seg_a).T)
        self.max_half = float(half.max(initial=0.0))

    def __len__(self) -> int:
        return len(self.features)


def query_window(layer: FeatureLayer, x_min, y_min, x_max, y_max) -> list[str]:
    """Ids of every feature whose bounding box intersects the window."""
    if x_min > x_max or y_min > y_max:
        raise InvalidArgumentError("window must satisfy x_min <= x_max and y_min <= y_max")
    bb = layer._bbox
    hit = (bb[:, 0] <= x_max) & (bb[:, 2] >= x_min) & (bb[:, 1] <= y_max) & (bb[:, 3] >= y_min)
    return [layer.features[i].id for i in np.flatnonzero(hit)]


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

def _parse_wkt(wkt: str) -> tuple[str, np.ndarray]:
    s = wkt.strip()
    upper = s.upper()
    if upper.startswith("POINT"):
        body = s[s.index("(") + 1 : s.rindex(")")]
        x, y = body.split()
        return POINTS, np.array([[float(x), float(y)]])
    if upper.startswith("LINESTRING"):
        body = s[s.index("(") + 1 : s.rindex(")")]
        pts = []
        for pair in body.split(","):
            x, y = pair.split()
            pts.append((float(x), float(y)))
        return POLYLINES, np.array(pts)
    raise InvalidArgumentError(f"unsupported WKT geometry: {s[:30]!r}")


def _format_wkt(kind: str, xy: np.ndarray) -> str:
    if kind == POINTS:
        return f"POINT({fmt_float(xy[0, 0])} {fmt_float(xy[0, 1])})"
    coords = ", ".join(f"{fmt_float(px)} {fmt_float(py)}" for px, py in xy)
    return f"LINESTRING({coords})"


def read_features(path) -> FeatureLayer:
    """Read a feature layer CSV (id,kind,category,wkt); one kind per file."""
    feats: list[Feature] = []
    kinds = set()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for row in reader:
            kind, xy = _parse_wkt(row["wkt"])
            kinds.add(kind)
            category = row.get("category") or None
            feats.append(Feature(id=row["id"], category=category, xy=xy))
    if not feats:
        raise InvalidArgumentError(f"{path}: no features")
    if len(kinds) > 1:
        raise InvalidArgumentError(f"{path}: mixed point/polyline geometries in one layer")
    return FeatureLayer(kinds.pop(), feats)


def write_features(layer: FeatureLayer, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "kind", "category", "wkt"])
        kind_name = "point" if layer.kind == POINTS else "polyline"
        for feat in layer.features:
            writer.writerow([feat.id, kind_name, feat.category or "", _format_wkt(layer.kind, feat.xy)])
