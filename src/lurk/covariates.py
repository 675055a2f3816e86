"""Covariate extraction from feature layers and grids.

One batched engine, `extract`, evaluates covariate specs at any set of
points, and each covariate kind has exactly one implementation in it.
`build_matrix` runs it at monitor sites and raises on cells it cannot
evaluate; `exposure.predict_grid` runs it at lattice cell centers and
makes those cells nodata.

Buffer covariates use circular buffers with an inclusive boundary
(distance <= r counts); land-cover fractions use axis-aligned square
moving windows with membership decided by cell center. Covariate values
are deterministic functions of geography, so the matrix never depends on
monitor responses.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import geodata
from .errors import CovariateExtractionError, InvalidArgumentError, NoFeaturesError
from ._util import (check_keys, checked, is_finite_number, is_int, owned_array, plain, read_json,
                    read_table, write_atomic, write_table)

KINDS = (
    "point_count",
    "line_length",
    "landcover_fraction",
    "distance_to_nearest",
    "grid_sample",
    "coordinate_x",
    "coordinate_y",
)

_BUFFER_KINDS = ("point_count", "line_length", "landcover_fraction")


@dataclass(frozen=True)
class CovariateSpec:
    """One named covariate: a kind, a source layer/grid, and a buffer size."""

    name: str
    kind: str
    source: str = ""
    category: int | None = None
    buffer_m: float = 0.0

    def __post_init__(self):
        what = f"covariate spec {self.name!r}"
        checked(f"{what} name", self.name, isinstance(self.name, str), "a string")
        checked(f"{what} source", self.source, isinstance(self.source, str), "a string")
        checked(f"{what} category", self.category,
                self.category is None or is_int(self.category), "an integer")
        checked(f"{what} buffer_m", self.buffer_m, is_finite_number(self.buffer_m),
                "a finite number")
        object.__setattr__(self, "buffer_m", float(self.buffer_m))
        if self.kind not in KINDS:
            raise InvalidArgumentError(f"{self.name}: unknown covariate kind {self.kind!r}")
        if self.kind in _BUFFER_KINDS and self.buffer_m <= 0:
            raise InvalidArgumentError(f"{self.name}: {self.kind} requires buffer_m > 0")
        if self.kind == "landcover_fraction" and self.category is None:
            raise InvalidArgumentError(f"{self.name}: landcover_fraction requires a category")

    def to_dict(self) -> dict:
        """The JSON form: `plain(self)` without the fields that hold their defaults."""
        defaults = {f.name: f.default for f in fields(self)}  # name and kind have none
        return {k: v for k, v in plain(self).items() if v != defaults[k]}

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateSpec":
        """A spec from its JSON form; a key that is not a spec field, or a
        missing name or kind, raises InvalidArgumentError naming the spec."""
        checked("covariate spec", d, isinstance(d, dict), "an object")
        check_keys(d, [f.name for f in fields(cls)], f"covariate spec {d.get('name')!r}",
                   ("name", "kind"))
        return cls(**d)


@dataclass(frozen=True)
class CovariateMatrix:
    """Dense site-by-covariate matrix; `zero_variance` flags each constant column."""

    site_ids: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # (n_sites, n_covariates)
    zero_variance: np.ndarray = field(init=False)  # bool per column

    def __post_init__(self):
        shape = (len(self.site_ids), len(self.columns))
        vals = owned_array("covariate matrix values", self.values, np.float64, shape, finite=True)
        # Exact constancy: the std of a column of 40 x 0.1 rounds to ~4e-17, not 0.
        constant = np.ptp(vals, axis=0) == 0 if len(vals) else np.ones(len(self.columns), bool)
        for name, value in (("site_ids", tuple(self.site_ids)), ("columns", tuple(self.columns)),
                            ("values", vals),
                            ("zero_variance", owned_array("zero_variance", constant, bool))):
            object.__setattr__(self, name, value)

    @property
    def n_sites(self) -> int:
        return len(self.site_ids)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise InvalidArgumentError(f"no covariate column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def select(self, names) -> np.ndarray:
        idx = [self.column_index(n) for n in names]
        return self.values[:, idx]

    def subset_rows(self, indices) -> "CovariateMatrix":
        indices = np.asarray(indices)
        return CovariateMatrix(
            [self.site_ids[i] for i in indices], self.columns, self.values[indices]
        )

    def drop_columns(self, names) -> "CovariateMatrix":
        drop = set(names)
        unknown = sorted(drop.difference(self.columns))
        if unknown:
            raise InvalidArgumentError(f"cannot drop columns the matrix does not hold: {unknown}")
        keep = [i for i, c in enumerate(self.columns) if c not in drop]
        return CovariateMatrix(
            self.site_ids, [self.columns[i] for i in keep], self.values[:, keep]
        )

    def to_csv(self, path) -> None:
        write_table(path, ["site_id", *self.columns], [self.site_ids, *self.values.T])

    @classmethod
    def from_csv(cls, path) -> "CovariateMatrix":
        text, columns, values = read_table(path, ("site_id",))
        return cls(text["site_id"], columns, values)


# ---------------------------------------------------------------------------
# The covariate engine
# ---------------------------------------------------------------------------

# Points per block when (point, segment) pairs are materialised, so the
# pair arrays stay small however many points one call evaluates.
_BLOCK = 1024

_LAYER_KIND = {"point_count": geodata.POINTS, "line_length": geodata.POLYLINES}
# The `extract` argument each kind reads its source from, and what it calls one.
_ARGUMENT = {"point_count": "layers", "line_length": "layers", "distance_to_nearest": "layers",
             "grid_sample": "grids", "landcover_fraction": "categorical"}
_WHAT = {"layers": "layer", "grids": "grid", "categorical": "categorical grid"}


def specs_reading(specs, argument: str, name: str) -> list:
    """The specs that read input `name` of `extract`'s argument `argument`."""
    return [s for s in specs if s.source == name and _ARGUMENT.get(s.kind) == argument]


def extract(specs, xs, ys, layers: dict | None = None, grids: dict | None = None,
            categorical: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every spec at every point (xs[i], ys[i]).

    Returns ``(values, valid)``, both of shape (n_points, n_specs).
    ``valid`` is False where a grid sample leaves the grid's cell-center
    hull or touches nodata, or where a land-cover window holds no valid
    cell; ``values`` is 0 there. The caller decides what such a cell
    means. Specs are evaluated in (kind, source) groups, and a layer's
    kind must suit the covariate kind.
    """
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise InvalidArgumentError(f"duplicate covariate names: {dupes}")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    values = np.zeros((xs.size, len(specs)))
    valid = np.ones((xs.size, len(specs)), dtype=bool)
    inputs = {"layers": layers, "grids": grids, "categorical": categorical}
    groups: dict[tuple[str, str], list[int]] = {}
    for j, spec in enumerate(specs):
        groups.setdefault((spec.kind, spec.source), []).append(j)
    for (kind, source), cols in groups.items():
        group = [specs[j] for j in cols]
        if kind in ("coordinate_x", "coordinate_y"):
            values[:, cols] = (xs if kind == "coordinate_x" else ys)[:, None]
            continue
        loaded = _lookup(inputs[_ARGUMENT[kind]] or {}, source, _WHAT[_ARGUMENT[kind]])
        if kind == "grid_sample":
            sampled, inside, touched = geodata.bilinear_sample_many(loaded, xs, ys)
            ok = inside & ~touched
            values[:, cols] = np.where(ok, sampled, 0.0)[:, None]
            valid[:, cols] = ok[:, None]
        elif kind == "landcover_fraction":
            for spec in group:
                if spec.category not in loaded.categories:
                    raise InvalidArgumentError(
                        f"{spec.name}: category {spec.category!r} is not among the "
                        f"categories {list(loaded.categories)} of {source!r}")
            # One window count per class, each building and dropping its own
            # summed-area table, so one table is alive at a time.
            windows = sorted({spec.buffer_m for spec in group})
            n_valid = dict(zip(windows, loaded.window_counts(xs, ys, windows).T))
            for category in dict.fromkeys(spec.category for spec in group):
                members = [(j, spec) for j, spec in zip(cols, group) if spec.category == category]
                n_cat = loaded.window_counts(xs, ys, [spec.buffer_m for _, spec in members],
                                             category)
                for (j, spec), n_in in zip(members, n_cat.T):
                    n = n_valid[spec.buffer_m]
                    ok = valid[:, j] = n > 0
                    values[ok, j] = n_in[ok] / n[ok]
        else:
            if kind in _LAYER_KIND and loaded.kind != _LAYER_KIND[kind]:
                raise InvalidArgumentError(f"{kind} requires a {_LAYER_KIND[kind]} layer; "
                                           f"{source!r} holds {loaded.kind}")
            if kind == "point_count":
                centers = np.column_stack([xs, ys])
                for j, spec in zip(cols, group):
                    values[:, j] = loaded.tree.query_ball_point(
                        centers, spec.buffer_m, return_length=True)
            elif kind == "line_length":
                values[:, cols] = _line_lengths(loaded, xs, ys, [s.buffer_m for s in group])
            else:
                values[:, cols] = _nearest_distances(loaded, xs, ys)[:, None]
    return values, valid


def _segment_pairs(layer: geodata.FeatureLayer, centers: np.ndarray, reach):
    """(point, segment) index pairs whose segment midpoint lies within
    `reach` (a scalar or one per point) of the point, grouped by point."""
    hits = layer.tree.query_ball_point(centers, reach)
    n_hits = np.fromiter(map(len, hits), dtype=np.int64, count=len(hits))
    seg = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.int64,
                      count=int(n_hits.sum()))
    return np.repeat(np.arange(len(hits)), n_hits), seg


def _line_lengths(layer: geodata.FeatureLayer, xs, ys, radii) -> np.ndarray:
    """Polyline length inside each closed disk, one column per radius."""
    out = np.zeros((xs.size, len(radii)))
    # A segment that meets a disk of radius r has its midpoint within
    # r + max_half of the center.
    reach = max(radii) + layer.max_half
    for lo in range(0, xs.size, _BLOCK):
        x, y = xs[lo:lo + _BLOCK], ys[lo:lo + _BLOCK]
        pt, seg = _segment_pairs(layer, np.column_stack([x, y]), reach)
        a, b, px, py = layer.seg_a[seg], layer.seg_b[seg], x[pt], y[pt]
        for k, r in enumerate(radii):
            lengths = geodata.segment_disk_length(a, b, px, py, r)
            out[lo:lo + x.size, k] = np.bincount(pt, lengths, minlength=x.size)
    return out


def _nearest_distances(layer: geodata.FeatureLayer, xs, ys) -> np.ndarray:
    """Exact distance from each point to the nearest feature of the layer."""
    if not len(layer):
        raise NoFeaturesError("layer has no features")
    centers = np.column_stack([xs, ys])
    d, k = layer.tree.query(centers)
    if layer.kind == geodata.POINTS:
        return d
    # The segment with the nearest midpoint bounds the answer from above,
    # and no segment is nearer to p than |p - mid| - max_half.
    out = geodata.point_segment_distance(xs, ys, layer.seg_a[k], layer.seg_b[k])
    for lo in range(0, xs.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        pt, seg = _segment_pairs(layer, centers[block], out[block] + layer.max_half)
        d = geodata.point_segment_distance(xs[block][pt], ys[block][pt],
                                           layer.seg_a[seg], layer.seg_b[seg])
        np.minimum.at(out[block], pt, d)
    return out


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------

def build_matrix(sites, specs, layers: dict | None = None, grids: dict | None = None,
                 categorical: dict | None = None, columns: dict | None = None) -> CovariateMatrix:
    """Evaluate every spec at every site and assemble the covariate matrix.

    `sites` is a MonitorTable (or anything exposing site_ids, x, y).
    `columns` maps a spec's name to its (values, valid) at the sites, as
    `extract` gave them elsewhere; every other spec is extracted here.
    Extraction failures (nodata, out of domain) are collected and raised
    together listing every (site, spec) pair.
    """
    site_ids, columns = list(sites.site_ids), columns or {}
    rest = [j for j, spec in enumerate(specs) if spec.name not in columns]
    values = np.zeros((len(site_ids), len(specs)))
    valid = np.ones(values.shape, bool)
    values[:, rest], valid[:, rest] = extract([specs[j] for j in rest], sites.x, sites.y,
                                              layers, grids, categorical)
    for j, spec in enumerate(specs):
        if spec.name in columns:
            values[:, j], valid[:, j] = columns[spec.name]
    names = [s.name for s in specs]
    failures = sorted((site_ids[i], names[j]) for i, j in zip(*np.nonzero(~valid)))
    if failures:
        shown = ", ".join(f"({s}, {c})" for s, c in failures[:8])
        more = "" if len(failures) <= 8 else f" and {len(failures) - 8} more"
        raise CovariateExtractionError(
            f"{len(failures)} (site, covariate) cells could not be evaluated: {shown}{more}",
            failures=failures,
        )
    return CovariateMatrix(site_ids, names, values)


def _lookup(table: dict, key: str, what: str):
    if key not in table:
        raise InvalidArgumentError(f"no {what} named {key!r} is loaded")
    return table[key]


# ---------------------------------------------------------------------------
# Covariate set definition file (JSON)
# ---------------------------------------------------------------------------

def write_specs(specs, path) -> None:
    write_atomic(path, json.dumps([s.to_dict() for s in specs], indent=2) + "\n")


def read_specs(path) -> list[CovariateSpec]:
    specs = read_json(path)
    if not (isinstance(specs, list) and all(isinstance(d, dict) for d in specs)):
        raise InvalidArgumentError(f"{path}: a covariate set file must be a list of objects")
    specs = [CovariateSpec.from_dict(d) for d in specs]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise InvalidArgumentError("duplicate covariate names in covariate set file")
    return specs


# ---------------------------------------------------------------------------
# Covariate rasterization
# ---------------------------------------------------------------------------

def rasterize_covariates(specs, lattice: geodata.RasterGrid, layers: dict | None = None,
                         grids: dict | None = None,
                         categorical: dict | None = None) -> dict[str, geodata.RasterGrid]:
    """Evaluate each spec at every cell center of `lattice`, one grid per
    spec, with nodata where `extract` marks a cell invalid.

    Prediction does not go through these grids (`exposure.predict_grid`
    reads `extract`'s validity directly): a valid value equal to the
    nodata sentinel reads back as nodata here.
    """
    xs, ys = lattice.center_meshgrid()
    values, valid = extract(specs, xs, ys, layers, grids, categorical)
    values[~valid] = lattice.nodata
    return {spec.name: lattice.with_values(values[:, j]) for j, spec in enumerate(specs)}
