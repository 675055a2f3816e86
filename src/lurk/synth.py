"""Synthetic national scenarios: clustered monitors, geographic layers,
smooth regional fields, and a ground-truth concentration surface built
from a linear trend plus a Gaussian random field plus iid noise.

Everything is driven by one seed; the same scenario and seed always
produce the identical dataset. Every draw of the scenario's stream is made
in the calling process, in one fixed order; the evaluations (the grids,
the land cover, the population, the layers' site covariates, and the GRF
from its own stream) may run in forked workers, with the same bits. The
generated covariate matrix reuses the production extraction code, so
recorded truth coefficients refer to real matrix columns.
"""

from __future__ import annotations

import calendar
import datetime as dt
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import covariates as cov
from . import geodata
from .errors import ScenarioError
from .kriging import VariogramModel
from .monitors import MonitorTable
from ._util import (checked, csv_field, dump_json, is_finite_number, is_int, one_blas_thread,
                    run_jobs, stage_seed, write_atomic, write_table)

N_LANDCOVER_CLASSES = 8
COVARIATE_SETS = ("mini", "full")
FIELD_BLOCK = 1 << 17  # cells per block of a field evaluation
# A job's cost in seconds of one core: its work times the median one-process time per
# unit of its kind over the perfbench and full-scale scenarios (2-vCPU Xeon VM).
FIELD_S = 2.1e-8  # per cell x wave (or x bump) of a field grid
LANDCOVER_S = 3e-7  # per cell of the land cover, its site fractions included
LAYER_S = 2.1e-10  # per vertex x spec x site of a layer's site covariates
GRF_S = 3e-11  # per site^3 of the GRF


def simulate_grf(coords, nugget: float, partial_sill: float, range_m: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One draw of a Gaussian random field with exponential covariance
    c1 * exp(-h/a) plus iid nugget, via dense Cholesky factorization."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if partial_sill < 0 or nugget < 0 or range_m <= 0:
        raise ScenarioError("GRF needs nugget >= 0, partial_sill >= 0, range > 0")
    if partial_sill == 0 and nugget == 0:
        return np.zeros(n)
    from scipy.spatial.distance import squareform, pdist

    # One n x n buffer: the distances become the covariance in place, and a
    # jitter goes onto a saved copy of the diagonal.
    k = squareform(pdist(coords))
    VariogramModel(nugget, partial_sill, range_m).covariance(k, out=k)
    diagonal = np.einsum("ii->i", k)
    diagonal += nugget
    base = diagonal.copy()
    scale = partial_sill + nugget
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        if jitter:
            np.add(base, jitter * scale, out=diagonal)
        try:
            chol = np.linalg.cholesky(k)
            return chol @ rng.standard_normal(n)
        except np.linalg.LinAlgError:
            continue
    raise ScenarioError("GRF covariance is not positive definite even after jitter")


def clustered_coords(rng: np.random.Generator, n: int, n_clusters: int,
                     extent_x: float, extent_y: float, cluster_sd: float):
    """Cluster centers uniform in the domain interior; sites normal around
    their cluster. Returns (coords, cluster_index, centers)."""
    margin_x, margin_y = 0.08 * extent_x, 0.08 * extent_y
    centers = np.column_stack([
        rng.uniform(margin_x, extent_x - margin_x, n_clusters),
        rng.uniform(margin_y, extent_y - margin_y, n_clusters),
    ])
    which = rng.integers(0, n_clusters, n)
    pts = centers[which] + rng.normal(0.0, cluster_sd, (n, 2))
    pts[:, 0] = np.clip(pts[:, 0], 0.02 * extent_x, 0.98 * extent_x)
    pts[:, 1] = np.clip(pts[:, 1], 0.02 * extent_y, 0.98 * extent_y)
    return pts, which, centers


def _smooth_field(rng: np.random.Generator, scale: float, amplitude: float,
                  n_waves: int = 10):
    """Random superposition of plane waves with wavelength ~ scale; a
    cheap, infinitely smooth stand-in for a long-range process."""
    angles = rng.uniform(0, 2 * np.pi, n_waves)
    wavelengths = scale * rng.uniform(0.6, 1.8, n_waves)
    phases = rng.uniform(0, 2 * np.pi, n_waves)
    amps = amplitude * rng.uniform(0.5, 1.0, n_waves) / np.sqrt(n_waves / 2.0)
    kx = 2 * np.pi * np.cos(angles) / wavelengths
    ky = 2 * np.pi * np.sin(angles) / wavelengths

    def f(xs, ys):
        waves = xs[:, None] * kx + (ys[:, None] * ky)[:, None]
        waves += phases
        np.cos(waves, out=waves)
        waves *= amps
        return np.sum(waves, axis=-1)

    return f


def _population_field(centers, cluster_sd_m: float):
    """Population density: 2 plus a Gaussian bump of 800 at each cluster center."""
    s2 = (2.5 * cluster_sd_m) ** 2

    def f(xs, ys):
        out = np.full((len(ys), len(xs)), 2.0)
        for cx, cy in centers:
            out += 800.0 * np.exp(-((xs - cx) ** 2 + ((ys - cy) ** 2)[:, None]) / (2 * s2))
        return out

    return f


@dataclass(frozen=True)
class SyntheticScenario:
    """Knobs for one synthetic dataset.

    Trend entries are (column_name, effect_sd): each named covariate
    contributes with a coefficient scaled so its marginal contribution has
    the requested standard deviation in concentration units.
    """

    seed: int = 0
    extent_x: float = 1_200_000.0
    extent_y: float = 1_200_000.0
    n_sites: int = 240
    n_clusters: int = 12
    cluster_sd_m: float = 12_000.0
    n_provinces_x: int = 3
    n_provinces_y: int = 3
    covariate_set: str = "mini"  # one of COVARIATE_SETS
    trend_intercept: float = 45.0
    trend: tuple = ()  # empty -> preset default
    grf_nugget: float = 0.0
    grf_partial_sill: float = 25.0
    grf_range_m: float = 100_000.0
    noise_sd: float = 1.5
    daily_noise_sd: float = 0.0
    n_excluded_sites: int = 0
    year: int = 2015
    prediction_cols: int = 50
    prediction_rows: int = 50
    pollutant: str = "pm25"

    def __post_init__(self):
        counts = ("n_sites", "n_clusters", "n_provinces_x", "n_provinces_y",
                  "prediction_cols", "prediction_rows")
        for names, ok, want in (
                (("seed",), is_int, "an integer"),
                (("year",), lambda v: is_int(v) and dt.MINYEAR <= v <= dt.MAXYEAR,
                 f"an integer from {dt.MINYEAR} to {dt.MAXYEAR}"),
                (counts, lambda v: is_int(v) and v > 0, "an integer > 0"),
                (("n_excluded_sites",), lambda v: is_int(v) and v >= 0, "an integer >= 0"),
                (("extent_x", "extent_y", "grf_range_m"),
                 lambda v: is_finite_number(v) and v > 0, "a finite number > 0"),
                (("cluster_sd_m", "noise_sd", "daily_noise_sd", "grf_nugget", "grf_partial_sill"),
                 lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
                (("trend_intercept",), is_finite_number, "a finite number"),
                (("covariate_set",), lambda v: v in COVARIATE_SETS, '"mini" or "full"'),
                (("pollutant",), lambda v: isinstance(v, str), "a string")):
            for name in names:
                value = getattr(self, name)
                checked(f"scenario {name}", value, ok(value), want)
        # A scenario read from JSON holds the trend as lists.
        checked("scenario trend", self.trend, isinstance(self.trend, (list, tuple)) and all(
            isinstance(t, (list, tuple)) and len(t) == 2 and isinstance(t[0], str)
            and is_finite_number(t[1]) for t in self.trend), "a list of [column, effect] pairs")
        object.__setattr__(self, "trend", tuple((n, float(e)) for n, e in self.trend))


def _ladder(lo: float, hi: float, count: int) -> tuple[float, ...]:
    return tuple(np.unique(np.geomspace(lo, hi, count).round()).astype(float))


ROAD_LADDER = _ladder(100, 10_000, 16)
POI_LADDER = _ladder(100, 50_000, 22)
FIRE_LADDER = _ladder(5_000, 100_000, 10)
LANDCOVER_LADDER = _ladder(4_000, 60_000, 11)

_MINI_TREND = (("elevation", 3.0), ("poi_gas_n_10000m", 4.0), ("roads_major_len_5000m", 3.0))
_FULL_TREND = (
    ("elevation", 3.0),
    (f"poi_gas_n_{int(POI_LADDER[16])}m", 3.5),      # ~11 km buffer
    (f"roads_major_len_{int(ROAD_LADDER[13])}m", 3.0),  # ~5 km buffer
    (f"lc1_{int(LANDCOVER_LADDER[4])}m", 2.5),       # ~12 km window
    ("blha_ws", 2.5),
    ("satellite_pm25", 5.0),
)


@dataclass
class SyntheticData:
    scenario: SyntheticScenario
    sites: MonitorTable
    matrix: cov.CovariateMatrix
    specs: list
    layers: dict
    grids: dict
    categorical: dict
    population: geodata.RasterGrid
    prediction_lattice: geodata.Lattice
    truth: dict
    excluded_sites: dict  # site_id -> (x, y, province, city, annual_value, n_days)


def _mini_specs() -> list[cov.CovariateSpec]:
    specs = []
    for r in (1000.0, 5000.0, 10000.0):
        specs.append(cov.CovariateSpec(f"roads_major_len_{int(r)}m", "line_length",
                                       "roads_major", buffer_m=r))
    for r in (1000.0, 5000.0, 10000.0, 25000.0):
        specs.append(cov.CovariateSpec(f"poi_gas_n_{int(r)}m", "point_count",
                                       "poi_gas", buffer_m=r))
    for cat in (1, 2):
        for w in (10000.0, 25000.0):
            specs.append(cov.CovariateSpec(f"lc{cat}_{int(w)}m", "landcover_fraction",
                                           "landcover", category=cat, buffer_m=w))
    specs.append(cov.CovariateSpec("dist_roads_major", "distance_to_nearest", "roads_major"))
    specs.append(cov.CovariateSpec("elevation", "grid_sample", "elevation"))
    specs.append(cov.CovariateSpec("satellite", "grid_sample", "satellite"))
    specs.append(cov.CovariateSpec("coord_x", "coordinate_x"))
    specs.append(cov.CovariateSpec("coord_y", "coordinate_y"))
    return specs


_FULL_ROAD_LAYERS = ("roads_all", "roads_major", "roads_secondary", "railways")
_FULL_POI_LAYERS = ("poi_gas", "poi_heat", "poi_factory", "poi_bus", "poi_restaurant")
_FULL_GRIDS = ("elevation", "population_density", "ndvi", "evi", "blh", "temperature",
               "dewpoint", "pressure", "wind10m", "precipitation", "rh", "blha_ws")


def _full_specs() -> list[cov.CovariateSpec]:
    specs = []
    for layer in _FULL_ROAD_LAYERS:
        for r in ROAD_LADDER:
            specs.append(cov.CovariateSpec(f"{layer}_len_{int(r)}m", "line_length",
                                           layer, buffer_m=r))
    for layer in ("roads_major", "roads_secondary", "railways"):
        specs.append(cov.CovariateSpec(f"dist_{layer}", "distance_to_nearest", layer))
    for layer in _FULL_POI_LAYERS:
        for r in POI_LADDER:
            specs.append(cov.CovariateSpec(f"{layer}_n_{int(r)}m", "point_count",
                                           layer, buffer_m=r))
    for r in FIRE_LADDER:
        specs.append(cov.CovariateSpec(f"fires_n_{int(r)}m", "point_count",
                                       "fires", buffer_m=r))
    for cat in range(1, N_LANDCOVER_CLASSES + 1):
        for w in LANDCOVER_LADDER:
            specs.append(cov.CovariateSpec(f"lc{cat}_{int(w)}m", "landcover_fraction",
                                           "landcover", category=cat, buffer_m=w))
    for name in _FULL_GRIDS:
        specs.append(cov.CovariateSpec(name, "grid_sample", name))
    specs.append(cov.CovariateSpec("satellite_pm25", "grid_sample", "satellite_pm25"))
    specs.append(cov.CovariateSpec("satellite_no2", "grid_sample", "satellite_no2"))
    specs.append(cov.CovariateSpec("coord_x", "coordinate_x"))
    specs.append(cov.CovariateSpec("coord_y", "coordinate_y"))
    return specs


def _segments_layer(rng, n_segments, extent_x, extent_y, centers, urban_frac,
                    min_len, max_len, prefix) -> geodata.FeatureLayer:
    anchor, angle, length = np.empty((n_segments, 2)), np.empty(n_segments), np.empty(n_segments)
    # `low + (high - low) * rng.random()` is `rng.uniform(low, high)`, bit
    # for bit, at under half its cost per scalar call.
    uniform, turn, span = rng.random, 2 * np.pi, max_len - min_len
    spread = 0.04 * min(extent_x, extent_y)
    for i in range(n_segments):
        if centers is not None and uniform() < urban_frac:
            c = centers[rng.integers(0, len(centers))]
            anchor[i] = c + rng.normal(0, spread, 2)
        else:
            anchor[i] = extent_x * uniform(), extent_y * uniform()
        angle[i] = turn * uniform()
        length[i] = min_len + span * uniform()
    delta = 0.5 * length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    a = np.clip(anchor - delta, 0, [extent_x, extent_y])
    b = np.clip(anchor + delta, 0, [extent_x, extent_y])
    same = np.all(a == b, axis=1)
    b[same] = a[same] + 1.0
    return geodata.FeatureLayer(geodata.POLYLINES, np.stack([a, b], axis=1),
                                np.arange(0, 2 * n_segments + 1, 2),
                                [f"{prefix}{i:05d}" for i in range(n_segments)])


def _points_layer(rng, n_points, extent_x, extent_y, centers, urban_frac, spread,
                  prefix) -> geodata.FeatureLayer:
    urban = rng.uniform(size=n_points) < urban_frac if centers is not None else \
        np.zeros(n_points, dtype=bool)
    xy = np.column_stack([rng.uniform(0, extent_x, n_points),
                          rng.uniform(0, extent_y, n_points)])
    if centers is not None and urban.any():
        k = int(urban.sum())
        picked = centers[rng.integers(0, len(centers), k)]
        xy[urban] = picked + rng.normal(0, spread, (k, 2))
        xy[:, 0] = np.clip(xy[:, 0], 0, extent_x)
        xy[:, 1] = np.clip(xy[:, 1], 0, extent_y)
    return geodata.FeatureLayer(geodata.POINTS, xy, np.arange(n_points + 1),
                                [f"{prefix}{i:05d}" for i in range(n_points)])


def _field_grid(fn, cell, n_cols, n_rows, base=0.0) -> geodata.RasterGrid:
    """`base` plus field `fn(xs, ys)` on a grid with origin (0, 0); `fn` takes
    the column centers and a block of row centers and returns those rows.
    Blocks hold about FIELD_BLOCK cells, so no temporary spans the grid."""
    lattice = geodata.Lattice(0.0, 0.0, cell, n_cols, n_rows)
    xs, ys = lattice.x_centers(), lattice.y_centers()
    values = np.empty((n_rows, n_cols))
    step = max(1, FIELD_BLOCK // n_cols)
    for r in range(0, n_rows, step):
        values[r:r + step] = fn(xs, ys[r:r + step])
    values += base
    return geodata.RasterGrid(**lattice.geometry(), values=values)


def _landcover(fn, cell, n_cols, n_rows, sites, specs) -> tuple:
    """Land cover: latent field `fn` on a grid (as `_field_grid`), cut at
    its quantiles into N_LANDCOVER_CLASSES classes of equal share, coded
    1.. as int32, with the matrix of its `specs` at `sites`: only those two
    outlive the call."""
    latent = _field_grid(fn, cell, n_cols, n_rows).values
    qs = np.quantile(latent, np.linspace(0, 1, N_LANDCOVER_CLASSES + 1)[1:-1])
    codes = 1 + np.searchsorted(qs, latent).astype(np.int32)
    grid = geodata.CategoricalGrid(0.0, 0.0, cell, n_cols, n_rows, codes,
                                   categories=tuple(range(1, N_LANDCOVER_CLASSES + 1)))
    return grid, cov.build_matrix(sites, specs, categorical={"landcover": grid})


@one_blas_thread()
def generate_synthetic(scenario: SyntheticScenario) -> SyntheticData:
    """Build the full synthetic dataset for a scenario.

    The draws are made in this process and the evaluations run as
    `_util.run_jobs` jobs, in forked workers when they pay, so the
    data has the same bits with workers or without."""
    sc = scenario
    rng = np.random.default_rng(stage_seed(sc.seed, "synth"))
    ex, ey = sc.extent_x, sc.extent_y
    coords, cluster_of, centers = clustered_coords(
        rng, sc.n_sites, sc.n_clusters, ex, ey, sc.cluster_sd_m
    )
    tile_x = np.minimum((centers[:, 0] / ex * sc.n_provinces_x).astype(int),
                        sc.n_provinces_x - 1)
    tile_y = np.minimum((centers[:, 1] / ey * sc.n_provinces_y).astype(int),
                        sc.n_provinces_y - 1)
    center_prov = tile_x * sc.n_provinces_y + tile_y
    province = tuple(f"prov{center_prov[c]:02d}" for c in cluster_of)
    city = tuple(f"city{c:03d}" for c in cluster_of)
    site_ids = tuple(f"s{i:04d}" for i in range(sc.n_sites))

    full = sc.covariate_set == "full"
    layers: dict[str, geodata.FeatureLayer] = {}

    scale_pts = 1.0 if not full else max(1.0, (ex * ey) / (1.2e6 * 1.2e6))
    if full:
        for name in _FULL_ROAD_LAYERS:
            n_seg = int({"roads_all": 9000, "roads_major": 4000,
                         "roads_secondary": 4000, "railways": 1500}[name] * scale_pts)
            layers[name] = _segments_layer(rng, n_seg, ex, ey, centers, 0.6,
                                           2_000, 20_000, name[:2])
        for name in _FULL_POI_LAYERS:
            layers[name] = _points_layer(rng, int(4000 * scale_pts), ex, ey, centers,
                                         0.7, 3 * sc.cluster_sd_m, name[4:6])
        layers["fires"] = _points_layer(rng, int(1500 * scale_pts), ex, ey, None,
                                        0.0, 0.0, "fi")
    else:
        layers["roads_major"] = _segments_layer(rng, 150, ex, ey, centers, 0.6,
                                                2_000, 15_000, "rd")
        layers["poi_gas"] = _points_layer(rng, 500, ex, ey, centers, 0.7,
                                          3 * sc.cluster_sd_m, "pg")

    # Every draw of `rng` is made here, in the order it always was. The
    # grids, the land cover with its site fractions, the population, the
    # layers' site covariates and the GRF (its own stream) are `run_jobs` jobs.
    cov_cell = min(ex, ey) / (200 if full else 50)
    nc, nr = int(round(ex / cov_cell)), int(round(ey / cov_cell))
    grid_jobs = {}  # name -> (cost, fn, args), in the order of the grids
    for name in _FULL_GRIDS if full else ("elevation",):
        wave_scale = ex / rng.uniform(3.0, 7.0)
        field = _smooth_field(rng, wave_scale, {"elevation": 400.0}.get(name, 1.0))
        grid_jobs[name] = (FIELD_S * nc * nr * 10, _field_grid,
                           (field, cov_cell, nc, nr, {"elevation": 800.0}.get(name, 0.0)))

    sat_cell = min(ex, ey) / 40
    snc, snr = int(round(ex / sat_cell)), int(round(ey / sat_cell))
    for name in ("satellite_pm25", "satellite_no2") if full else ("satellite",):
        field = _smooth_field(rng, ex / 2.2, 1.0, n_waves=6)
        grid_jobs[name] = (FIELD_S * snc * snr * 6, _field_grid, (field, sat_cell, snc, snr))

    lc_cell = min(ex, ey) / (1000 if full else 240)
    lnc, lnr = int(round(ex / lc_cell)), int(round(ey / lc_cell))
    latent = _smooth_field(rng, ex / 6.0, 1.0)

    pred_cell = max(ex / sc.prediction_cols, ey / sc.prediction_rows)
    lattice = geodata.Lattice(0.0, 0.0, pred_cell, sc.prediction_cols, sc.prediction_rows)
    pop_density = _population_field(centers, sc.cluster_sd_m)
    if full:
        # The population field replaces the smooth field drawn for this grid
        # above, unevaluated; its draws stay, so later fields keep theirs.
        grid_jobs["population_density"] = (FIELD_S * nc * nr * len(centers), _field_grid,
                                           (pop_density, cov_cell, nc, nr))

    specs = _full_specs() if full else _mini_specs()
    n_days = 366 if calendar.isleap(sc.year) else 365
    sites = MonitorTable(
        site_ids=site_ids, x=coords[:, 0], y=coords[:, 1],
        province=province, city=city, annual_mean=np.zeros(sc.n_sites),
        n_valid_days=np.full(sc.n_sites, n_days, dtype=np.int64),
        n_calendar_days=np.full(sc.n_sites, n_days, dtype=np.int64),
    )
    layer_jobs = []
    for name, layer in layers.items():
        layer_specs = [s for s in specs if s.source == name]
        layer_jobs.append((LAYER_S * len(layer.xy) * len(layer_specs) * sc.n_sites,
                           cov.build_matrix, (sites, layer_specs, {name: layer})))
    grf_args = (coords, sc.grf_nugget, sc.grf_partial_sill, sc.grf_range_m,
                np.random.default_rng(stage_seed(sc.seed, "grf")))
    lc_specs = [s for s in specs if s.source == "landcover"]
    *done, (landcover, lc_columns), population, grf = run_jobs([
        *grid_jobs.values(), *layer_jobs,
        (LANDCOVER_S * lnc * lnr, _landcover, (latent, lc_cell, lnc, lnr, sites, lc_specs)),
        (FIELD_S * lattice.n_cols * lattice.n_rows * len(centers), _field_grid,
         (pop_density, pred_cell, lattice.n_cols, lattice.n_rows)),
        (GRF_S * sc.n_sites ** 3, simulate_grf, grf_args),
    ])
    grids = dict(zip(grid_jobs, done))
    rest = [s for s in specs if s.source not in {*layers, "landcover"}]  # extracted here
    parts = [*done[len(grids):], lc_columns, cov.build_matrix(sites, rest, grids=grids)]
    columns = {name: col for part in parts for name, col in zip(part.columns, part.values.T)}
    matrix = cov.CovariateMatrix.from_values(
        site_ids, [s.name for s in specs], np.column_stack([columns[s.name] for s in specs]))

    trend = sc.trend or (_FULL_TREND if full else _MINI_TREND)
    if sc.n_sites < 2:
        trend = ()  # effect scaling needs cross-site variance
    betas: dict[str, float] = {}
    y = np.full(sc.n_sites, sc.trend_intercept)
    for name, effect in trend:
        col = matrix.column(name)
        sd = float(col.std())
        if sd == 0:
            raise ScenarioError(f"trend column {name!r} has zero variance")
        beta = float(effect) / sd
        betas[name] = beta
        y = y + beta * col
    noise = sc.noise_sd * np.random.default_rng(
        stage_seed(sc.seed, "noise")).standard_normal(sc.n_sites)
    y = np.maximum(y + grf + noise, 0.0)
    sites = replace(sites, annual_mean=y)

    exc_coords, exc_cluster, _ = clustered_coords(
        np.random.default_rng(stage_seed(sc.seed, "excluded")), sc.n_excluded_sites,
        sc.n_clusters, ex, ey, sc.cluster_sd_m)
    excluded = {f"x{i:04d}": (px, py, f"prov{center_prov[c]:02d}", f"city{c:03d}",
                              float(sc.trend_intercept), int(0.5 * n_days))
                for i, ((px, py), c) in enumerate(zip(exc_coords.tolist(), exc_cluster))}

    truth = {
        "intercept": sc.trend_intercept,
        "coefficients": betas,
        "effects": {name: float(e) for name, e in trend},
        "grf": {"nugget": sc.grf_nugget, "partial_sill": sc.grf_partial_sill,
                "range_m": sc.grf_range_m},
        "grf_values": grf.tolist(),
        "noise_sd": sc.noise_sd,
        "annual_values": {sid: float(v) for sid, v in zip(site_ids, y)},
    }
    return SyntheticData(
        scenario=sc, sites=sites, matrix=matrix, specs=specs, layers=layers,
        grids=grids, categorical={"landcover": landcover}, population=population,
        prediction_lattice=lattice, truth=truth, excluded_sites=excluded,
    )


def _write_sites(data: SyntheticData, path) -> None:
    sites = data.sites
    rows = [*zip(sites.site_ids, sites.x.tolist(), sites.y.tolist(), sites.province, sites.city),
            *((sid, *v[:4]) for sid, v in sorted(data.excluded_sites.items()))]
    write_table(path, ["site_id", "x", "y", "province", "city"], zip(*rows))


def _write_daily(data: SyntheticData, path) -> None:
    sc, sites = data.scenario, data.sites
    rng = np.random.default_rng(stage_seed(sc.seed, "daily"))
    start = dt.date(sc.year, 1, 1)
    n_days = int(sites.n_calendar_days[0])
    dates = [(start + dt.timedelta(days=d)).isoformat() for d in range(n_days)]
    daily_rows = ["site_id,date,value"]
    for sid, annual in zip(sites.site_ids, sites.annual_mean.tolist()):
        quoted_id = csv_field(sid)
        if sc.daily_noise_sd > 0:
            vals = np.maximum(annual + sc.daily_noise_sd * rng.standard_normal(n_days), 0.0)
            vals = vals - vals.mean() + annual
            if vals.min() < 0.0:
                raise ScenarioError(f"site {sid}: daily noise cannot keep the annual mean "
                                    f"{annual!r} with values >= 0; clipped at 0 the series "
                                    f"averages {float(np.maximum(vals, 0).mean())!r}")
            texts = map(repr, vals.tolist())
        else:
            texts = repeat(repr(annual))
        daily_rows += (f"{quoted_id},{date},{text}" for date, text in zip(dates, texts))
    for sid, (_, _, _, _, value, keep_days) in sorted(data.excluded_sites.items()):
        quoted_id = csv_field(sid)
        daily_rows += (f"{quoted_id},{date},{value!r}" for date in dates[:keep_days])
    write_atomic(path, "\n".join(daily_rows) + "\n")


def write_scenario(data: SyntheticData, outdir) -> Path:
    """Write a scenario to disk as pipeline-ready inputs plus config.json.

    Returns the config path. Daily files carry one record per calendar
    day whose mean over the year is the site's annual value; with
    `daily_noise_sd` > 0 the noisy series is shifted to that mean, and a
    series that would then need a value below zero raises ScenarioError.
    Excluded sites get sparse series that fail the completeness rule.

    Each file under `inputs/` is one job of a `FanOut`, costed in seconds
    of one core by the records, vertices or cells it formats (`run_jobs`);
    then the parent writes, in job order, every file no worker wrote, so a
    failing write raises here with its own error. A failure can leave
    other input files written, each whole.
    """
    outdir = Path(outdir)
    inputs = outdir / "inputs"
    (inputs / "layers").mkdir(parents=True, exist_ok=True)
    (inputs / "grids").mkdir(parents=True, exist_ok=True)
    sc = data.scenario

    n_records = len(data.sites) * int(data.sites.n_calendar_days[0]) + sum(
        v[5] for v in data.excluded_sites.values())
    # Seconds per site, record, vertex, cell and land-cover cell, measured as FIELD_S is.
    writes = [
        (5.9e-6 * (len(data.sites) + len(data.excluded_sites)), _write_sites, data,
         inputs / "sites.csv"),
        (4.1e-7 * n_records, _write_daily, data, inputs / "daily.csv"),
        *((4.2e-6 * len(layer.xy), geodata.write_features, layer,
           inputs / "layers" / f"{name}.csv") for name, layer in data.layers.items()),
        *((1.15e-6 * grid.values.size, geodata.write_raster, grid,
           inputs / "grids" / f"{name}.asc") for name, grid in data.grids.items()),
        *((8.8e-8 * grid.values.size, geodata.write_categorical, grid,
           inputs / "grids" / f"{name}.asc") for name, grid in data.categorical.items()),
        (1.15e-6 * data.population.values.size, geodata.write_raster, data.population,
         inputs / "population.asc"),
    ]
    run_jobs((cost, write, args) for cost, write, *args in writes)
    cov.write_specs(data.specs, outdir / "covariates.json")
    dump_json(data.truth, outdir / "truth.json")

    config = {
        "pollutant": sc.pollutant,
        "year": sc.year,
        "monitors": {"daily": "inputs/daily.csv", "sites": "inputs/sites.csv"},
        "layers": {name: f"inputs/layers/{name}.csv" for name in data.layers},
        "grids": {name: f"inputs/grids/{name}.asc" for name in data.grids},
        "categorical_grids": {
            name: {"path": f"inputs/grids/{name}.asc",
                   "categories": list(grid.categories)}
            for name, grid in data.categorical.items()
        },
        "covariates": "covariates.json",
        "recipe": {"selection": "stepwise", "kriging": True},
        "cv": {"k": 10, "logo_group": "province"},
        "prediction": data.prediction_lattice.geometry(),
        "population_grid": "inputs/population.asc",
        "seed": sc.seed,
        "out": "run",
    }
    path = outdir / "config.json"
    dump_json(config, path)
    return path
