"""Second-stage spatial smoothing: residual variograms and universal
kriging with the fitted linear trend as external drift.

The kriging system is global: all training sites, the residual covariance
C = c1 * exp(-h / a) plus the nugget on the diagonal, and the drift
F = [1, X(s)], solved as GLS (a Cholesky factor L of C whitens F and y, a
QR of L^-1 F gives the drift; Rasmussen & Williams 2006, Alg. 2.1). The
variogram is fitted once on the trend residuals; no GLS iteration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, solve_triangular
from scipy.spatial.distance import cdist, pdist

from .errors import (
    EmptyVariogramError,
    InvalidArgumentError,
    SingularKrigingError,
    VariogramFitError,
)
from .lur import _RANK_TOL, LinearModel, _design_rows
from .monitors import MonitorTable
from ._util import check_finite_fields, owned_array

log = logging.getLogger(__name__)

DEFAULT_N_BINS = 15
PREDICT_CHUNK = 4096  # most prediction points per right-hand-side block
PREDICT_BLOCK_BYTES = 16 * 2**20  # about the most right-hand side per block


def _block_points(rhs_rows: int) -> int:
    """Prediction points per block: PREDICT_CHUNK, or fewer so that its
    `rhs_rows`-row right-hand side (`KrigingModel._block`) fits PREDICT_BLOCK_BYTES."""
    return max(1, min(PREDICT_CHUNK, PREDICT_BLOCK_BYTES // (8 * rhs_rows)))


@dataclass(frozen=True)
class VariogramModel:
    """Exponential variogram: gamma(h) = nugget + psill * (1 - exp(-h/a))
    for h > 0, gamma(0) = 0."""

    nugget: float
    partial_sill: float
    range_m: float

    def __post_init__(self):
        check_finite_fields(self, "variogram")
        if self.nugget < 0 or self.partial_sill < 0 or self.range_m <= 0:
            raise InvalidArgumentError(
                "variogram requires nugget >= 0, partial_sill >= 0, range > 0"
            )

    @property
    def sill(self) -> float:
        return self.nugget + self.partial_sill

    def covariance(self, h, out: np.ndarray | None = None) -> np.ndarray:
        """Residual covariance between distinct locations, written into
        `out` when given (which may be `h` itself); the nugget is applied
        only on the kriging system diagonal."""
        # In place; h / -a is -h / a bit for bit. An explicit `out` keeps a
        # 0-d input an array, which `np.exp(..., out=)` needs.
        h = np.asarray(h, dtype=np.float64)
        cov = np.divide(h, -self.range_m, out=np.empty_like(h) if out is None else out)
        np.exp(cov, out=cov)
        cov *= self.partial_sill
        return cov


@dataclass(frozen=True)
class EmpiricalVariogram:
    lag_centers: np.ndarray
    semivariances: np.ndarray
    n_pairs: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.lag_centers) <= 0):
            raise InvalidArgumentError("lag centers must be strictly increasing")
        if np.any(self.n_pairs <= 0):
            raise InvalidArgumentError("retained bins must have n_pairs > 0")


def empirical_variogram(residuals, coords, n_bins: int = DEFAULT_N_BINS,
                        max_lag: float | None = None) -> EmpiricalVariogram:
    """Equal-width-bin empirical semivariogram of per-site residuals.

    Semivariance per bin is half the mean squared residual difference over
    site pairs whose separation falls in the bin; empty bins are dropped.
    `max_lag` defaults to half the maximum pairwise distance.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    n = len(residuals)
    if n < 2:
        raise InvalidArgumentError("need at least 2 sites")
    if n_bins < 1:
        raise InvalidArgumentError("n_bins must be >= 1")
    d = pdist(coords)
    if max_lag is None:
        max_lag = float(d.max()) / 2.0
    if max_lag <= 0:
        raise InvalidArgumentError("max_lag must be > 0")
    mask = d <= max_lag
    if not np.any(mask):
        raise EmptyVariogramError(f"no site pair within max_lag={max_lag}")
    sq = pdist(residuals[:, None], metric="sqeuclidean")
    width = max_lag / n_bins
    idx = np.minimum((d[mask] / width).astype(np.int64), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    sums = np.bincount(idx, weights=sq[mask], minlength=n_bins)
    keep = counts > 0
    centers = (np.arange(n_bins) + 0.5) * width
    return EmpiricalVariogram(
        lag_centers=centers[keep],
        semivariances=0.5 * sums[keep] / counts[keep],
        n_pairs=counts[keep],
    )


def fit_exponential(ev: EmpiricalVariogram) -> VariogramModel:
    """Fit (nugget c0, partial sill c1, range a) by weighted least squares
    with c0, c1 >= 0 and a in [min_lag / 10, 10 * max_lag].

    Bin weights are n_pairs / lag^2 (the gstat default): pair counts
    stabilize sparse bins while the 1/lag^2 factor keeps the short-lag
    structure, which carries all nugget information, from being drowned
    out by the huge pair counts at long range. For a fixed range the model
    is linear in (c0, c1), which are profiled out (variable projection):
    the best pair >= 0 is the cheapest of three closed forms (both free if
    both are >= 0, c0 = 0, c1 = 0). The profile is scanned on a geometric
    grid of ranges, and `brentq` polishes its best point on the profile's
    derivative -2 c1 / a^2 sum(w r h exp(-h/a)) (envelope theorem) towards
    the neighbour it points to; with no neighbour the range is that bound.
    A fitted c1 of 0 leaves the range unidentified; it is then max_lag.
    """
    if len(ev.lag_centers) < 3:
        raise InvalidArgumentError("need at least 3 non-empty variogram bins")
    lags, emp = ev.lag_centers, ev.semivariances
    if not np.all(np.isfinite(emp)):
        raise VariogramFitError("variogram semivariances must be finite")
    w = ev.n_pairs / lags**2
    w = w / w.sum()
    e_mean, max_lag = float(w @ emp), float(lags[-1])
    if float(np.max(emp)) <= 0:
        # Degenerate all-zero variogram (e.g. perfectly flat residuals).
        return VariogramModel(nugget=0.0, partial_sill=0.0, range_m=max_lag)

    def profile(a):
        """Best (c0, c1), the WLS cost and its derivative at each range."""
        decay = np.exp(-lags / a[:, None])
        g = 1.0 - decay
        u = g - (g @ w)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c1_free = (u * w) @ (emp - e_mean) / ((u * u) @ w)
            c1_only = np.maximum((g * w) @ emp / ((g * g) @ w), 0.0)
        c0_free, zero = e_mean - c1_free * (g @ w), np.zeros_like(a)
        c0 = np.stack([np.full_like(a, max(e_mean, 0.0)), zero, c0_free])
        c1 = np.stack([zero, c1_only, c1_free])
        r = c0[..., None] + c1[..., None] * g - emp
        cost = (r * r) @ w
        cost[2, ~((c0_free >= 0) & (c1_free >= 0))] = np.inf
        best = np.argmin(cost, axis=0), np.arange(len(a))
        slope = -2.0 * c1[best] / a**2 * ((r[best] * decay * lags) @ w)
        return c0[best], c1[best], cost[best], slope

    grid = np.geomspace(float(lags[0]) / 10.0, 10.0 * max_lag, 256)
    _, c1, cost, slope = profile(grid)
    k = int(np.argmin(cost))
    a, j = grid[k], k + (1 if slope[k] < 0 else -1)
    if c1[k] > 0 and 0 <= j < len(grid) and slope[k] * slope[j] < 0:
        from scipy.optimize import brentq  # 0.1 s to import, which `synth` does without
        lo, hi = sorted((grid[k], grid[j]))
        a = brentq(lambda x: profile(np.array([x]))[3][0], lo, hi, xtol=1e-14 * lo)
    (c0,), (c1,), _, _ = profile(np.array([a]))
    return VariogramModel(float(c0), float(c1), float(a) if c1 > 0 else max_lag)


@dataclass(eq=False)
class KrigingModel:
    """Residual variogram + training sites and their drift rows; the fields
    are the JSON form (`plain`). Construction factors C = L L' (Cholesky) and
    the whitened drift L^-1 F = QR, or raises SingularKrigingError; nothing
    changes afterwards, so prediction is read-only and safe to fan out."""

    variogram: VariogramModel
    coords: np.ndarray
    x_rows: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("coords", "x_rows", "y"):  # read back from JSON: lists
            setattr(self, name, owned_array(name, getattr(self, name), np.float64))
        n = len(self.y)
        if (n < 1 or self.y.ndim != 1 or self.coords.shape != (n, 2)
                or self.x_rows.ndim != 2 or len(self.x_rows) != n):
            raise InvalidArgumentError("training arrays need >= 1 site and consistent shapes")
        # Keep the system nonsingular when the fitted variogram collapses
        # to zero (flat residuals): with a pure-nugget covariance the
        # predictor is the GLS (= OLS) drift regardless of the nugget size.
        nugget = self.variogram.nugget
        if nugget + self.variogram.partial_sill <= 0:
            nugget = 1e-4 * max(1.0, float(np.var(self.y)))
        cov = self.variogram.covariance(cdist(self.coords, self.coords))
        cov[np.diag_indices(n)] += nugget
        # Standardized drift columns keep the system balanced; [1, X] and [1, (X - m)/s]
        # span the same constraint space, so predictions are unchanged.
        self._x_shift = self.x_rows.mean(axis=0)
        sd = self.x_rows.std(axis=0)
        self._x_scale = np.where(sd > 0, sd, 1.0)
        f = self._drift(self.x_rows, np.empty((n, 1 + self.x_rows.shape[1])))
        try:
            with np.errstate(all="ignore"):
                self._chol = cho_factor(cov, lower=True, check_finite=False)[0]
                fyw = solve_triangular(self._chol, np.column_stack([f, self.y]), lower=True,
                                       check_finite=False)  # L^-1 [F, y]
                fw, yw = fyw[:, :-1], fyw[:, -1]
                self._q, self._r = np.linalg.qr(fw)
                # Pivot^2 / variance and |R_jj| / |fw_j| near 0: C or the
                # drift is rank deficient and the solve would be noise.
                if (np.diag(self._chol) ** 2).min() <= _RANK_TOL * cov.diagonal().max() \
                        or np.any(np.abs(np.diag(self._r))
                                  <= _RANK_TOL * np.linalg.norm(fw, axis=0)):
                    raise LinAlgError("numerically singular kriging system")
                # Project twice: rounding leaves drift in e when the sill is ~0.
                e = yw - self._q @ (self._q.T @ yw)
                e -= self._q @ (self._q.T @ e)
                beta = solve_triangular(self._r, self._q.T @ yw, check_finite=False)
                lam = solve_triangular(self._chol, e, lower=True, trans="T", check_finite=False)
                dual = np.concatenate([lam, beta])
                # Residual of the bordered system [[C, F], [F', 0]] dual = [y, 0].
                residual = np.concatenate([cov @ lam + f @ beta - self.y, f.T @ lam])
        except LinAlgError:
            dual = residual = np.array([np.nan])
        # max |[[C, F], [F', 0]]|; C >= 0 peaks on its diagonal
        a_norm = max(float(cov.diagonal().max()), float(np.abs(f).max()))
        denom = a_norm * float(np.abs(dual).sum()) + float(np.abs(self.y).sum()) + 1e-300
        if not np.all(np.isfinite(dual)) or not float(np.abs(residual).max()) <= 1e-8 * denom:
            dup = int(np.sum(pdist(self.coords) == 0.0))
            raise SingularKrigingError(
                "kriging system is singular "
                f"({dup} duplicate site pair(s); check drift columns for collinearity)"
            )
        self._dual = dual

    @property
    def n_sites(self) -> int:
        return len(self.y)

    def _drift(self, x_rows, out: np.ndarray) -> np.ndarray:
        """Write the drift rows [1, (x - m)/s] into `out`, one row per point."""
        out[:, 0] = 1.0
        np.divide(np.subtract(x_rows, self._x_shift, out=out[:, 1:]), self._x_scale, out=out[:, 1:])
        return out

    def _block(self, coords, x_rows, whiten: bool):
        """The one solve behind every prediction. For a block of points with
        right-hand sides b = [c; 1; f]: the mean b' dual, then v = L^-1 c and
        u = Q'v - R^-T [1; f] if `whiten` (else None, None); variance sill - v'v + u'u."""
        n = self.n_sites
        b = np.empty((n + 1 + self.x_rows.shape[1], len(coords)))
        # The distances, then their covariance, in place in b's first rows.
        self.variogram.covariance(cdist(self.coords, coords, out=b[:n]), out=b[:n])
        self._drift(x_rows, b[n:].T)
        if not whiten:
            return b.T @ self._dual, None, None
        mean, v = b.T @ self._dual, solve_triangular(self._chol, b[:n], lower=True)
        return mean, v, self._q.T @ v - solve_triangular(self._r, b[n:], trans="T")

    def predict_many(self, coords, x_rows, with_variance: bool = False):
        """Kriging mean and variance-or-None at many points: `coords` (m, 2)
        and their drift rows `x_rows` (m, p)."""
        coords = np.asarray(coords, dtype=np.float64)
        x_rows = np.asarray(x_rows, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidArgumentError(f"coords must have shape (m, 2), not {coords.shape}")
        if x_rows.shape != (len(coords), self.x_rows.shape[1]):
            raise InvalidArgumentError(
                f"x_rows must hold one row of the drift's {self.x_rows.shape[1]} columns "
                f"per point, not shape {x_rows.shape}")
        m = len(coords)
        mean, var = np.empty(m), np.zeros(m) if with_variance else None
        # A zero sill: the residual variance is 0, and so is the formula's
        # limit as the constructor's fallback nugget goes to 0.
        whiten = with_variance and self.variogram.sill > 0
        block = _block_points(self.n_sites + 1 + self.x_rows.shape[1])
        for s in range(0, m, block):
            e = min(s + block, m)
            mean[s:e], v, u = self._block(coords[s:e], x_rows[s:e], whiten)
            if whiten:
                var[s:e] = np.maximum(self.variogram.sill - np.einsum("ij,ij->j", v, v)
                                      + np.einsum("ij,ij->j", u, u), 0.0)
        return mean, var


def uk_fit(drift: LinearModel, sites: MonitorTable, rows,
           n_bins: int = DEFAULT_N_BINS, max_lag: float | None = None) -> KrigingModel:
    """Assemble a KrigingModel from a fitted drift and its training data:
    the sites and their design rows, whose columns are `drift.selected` in
    order.

    The empirical variogram of the drift residuals is fitted with the
    exponential model. Sites sharing exact coordinates are averaged into
    one site (with a logged warning) to keep the system nonsingular.
    """
    y = np.asarray(sites.annual_mean, dtype=np.float64)
    x_sel = _design_rows(rows, len(drift.selected))
    if len(y) != len(x_sel):
        raise InvalidArgumentError("sites and design rows differ in count")
    resid = y - drift.predict(x_sel)
    if len(drift.residuals) != len(y) or not np.allclose(
        resid, drift.residuals, atol=1e-8 * (1.0 + float(np.abs(y).max()))
    ):
        raise InvalidArgumentError(
            "drift was not trained on exactly these sites and columns"
        )
    coords = sites.coords
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    if len(uniq) < len(coords):
        log.warning("averaging %d sites sharing coordinates with another site",
                    len(coords) - len(uniq))
        y_u = np.zeros(len(uniq))
        x_u = np.zeros((len(uniq), x_sel.shape[1]))
        cnt = np.bincount(inverse)
        np.add.at(y_u, inverse, y)
        np.add.at(x_u, inverse, x_sel)
        y_u /= cnt
        x_u /= cnt[:, None]
        coords_u = uniq
        resid_u = y_u - drift.predict(x_u)
    else:
        coords_u, x_u, y_u, resid_u = coords, x_sel, y, resid
    ev = empirical_variogram(resid_u, coords_u, n_bins=n_bins, max_lag=max_lag)
    variogram = fit_exponential(ev)
    return KrigingModel(variogram=variogram, coords=coords_u, x_rows=x_u, y=y_u)

