"""Independent reference implementations used to check the package.

Everything here is deliberately naive (linear scans, double loops, dense
solves, from-scratch math) and shares no code with the implementations it
verifies. The exceptions are the earlier forms of the package's stepwise
selection and PLS fit kept as references: they end in the package's own
`ols_fit` and `PlsModel`, and follow its tie rule, so that their results
compare bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import asdict, replace

import numpy as np
from scipy import special, stats
from scipy.linalg import solve_triangular
from scipy.optimize import least_squares

from lurk.errors import EmptyModelError, ZeroVarianceError
from lurk.lur import TIE_RTOL, PlsModel, StepwiseConfig, ols_fit


# -- geometry ----------------------------------------------------------------

def bilinear_closed_form(v00, v10, v01, v11, u, v):
    """Direct evaluation of the bilinear polynomial on the unit square."""
    return (
        v00 * (1 - u) * (1 - v)
        + v10 * u * (1 - v)
        + v01 * (1 - u) * v
        + v11 * u * v
    )


def scan_count_points(points, x, y, r):
    d2 = (points[:, 0] - x) ** 2 + (points[:, 1] - y) ** 2
    return int(np.sum(d2 <= r * r))


def scan_nearest(points, segments, x, y):
    """Min distance over point coordinates and/or (a, b) segment pairs."""
    best = np.inf
    if points is not None and len(points):
        best = min(best, float(np.min(np.hypot(points[:, 0] - x, points[:, 1] - y))))
    if segments is not None:
        for a, b in segments:
            d = np.array(b) - np.array(a)
            denom = float(d @ d)
            if denom == 0:
                t = 0.0
            else:
                t = min(max(float((np.array([x, y]) - a) @ d) / denom, 0.0), 1.0)
            c = np.array(a) + t * d
            best = min(best, float(np.hypot(c[0] - x, c[1] - y)))
    return best


def scan_landcover_fraction(grid_values, nodata, origin_x, origin_y, cell,
                            category, x, y, window):
    """Cell-by-cell window fraction; returns None when no valid cell."""
    n_rows, n_cols = grid_values.shape
    half = window / 2.0
    count_cat = count_valid = 0
    for r in range(n_rows):
        cy = origin_y + (r + 0.5) * cell
        if not (y - half <= cy <= y + half):
            continue
        for c in range(n_cols):
            cx = origin_x + (c + 0.5) * cell
            if not (x - half <= cx <= x + half):
                continue
            code = grid_values[r, c]
            if code == nodata:
                continue
            count_valid += 1
            if code == category:
                count_cat += 1
    if count_valid == 0:
        return None
    return count_cat / count_valid


# -- feature layers and daily records ------------------------------------------

def parse_wkt(wkt):
    """One POINT or LINESTRING as (kind, (k, 2) vertices), pair by pair."""
    s = wkt.strip()
    body = s[s.index("(") + 1 : s.rindex(")")]
    pts = []
    for pair in body.split(","):
        x, y = pair.split()
        pts.append((float(x), float(y)))
    return ("points" if s.upper().startswith("POINT") else "polylines"), np.array(pts)


def per_feature_layer(kind, vertex_lists):
    """Layer arrays built one feature at a time: vertices, segment endpoints,
    the points the kd-tree indexes, and the longest half-segment."""
    empty = np.empty((0, 2))
    if kind == "points":
        seg_a = seg_b = empty
        tree_data = np.vstack(vertex_lists or [empty])
    else:
        seg_a = np.vstack([xy[:-1] for xy in vertex_lists] or [empty])
        seg_b = np.vstack([xy[1:] for xy in vertex_lists] or [empty])
        tree_data = 0.5 * (seg_a + seg_b)
    half = 0.5 * np.hypot(*(seg_b - seg_a).T)
    return {"xy": np.vstack(vertex_lists or [empty]), "seg_a": seg_a, "seg_b": seg_b,
            "tree_data": tree_data, "max_half": float(half.max(initial=0.0))}


def dict_annualize(records, year, min_completeness=0.75, calendar_days=None):
    """Annual means from one dict of days per site, each site's values
    summed by np.sum in date order. Returns ({site: (mean, n_valid)} for
    kept sites, [(site, n_valid, completeness)] for excluded ones)."""
    n_days = calendar_days or (366 if year % 4 == 0 and (year % 100 or year % 400 == 0)
                               else 365)
    by_site = {}
    for site_id, date, value in records:
        if isinstance(date, str):
            date = dt.date.fromisoformat(date)
        assert date.year == year
        days = by_site.setdefault(site_id, {})
        assert date not in days
        days[date] = np.nan if value is None else float(value)
    kept, excluded = {}, []
    for site_id in sorted(by_site):
        days = by_site[site_id]
        vals = np.array([days[d] for d in sorted(days)], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if len(vals) / n_days >= min_completeness:
            kept[site_id] = (float(vals.sum()) / len(vals), len(vals))
        else:
            excluded.append((site_id, len(vals), len(vals) / n_days))
    return kept, excluded


# -- synthetic scenarios -------------------------------------------------------
# The generator and writers as they were when each value went through its
# own Python statement: one segment per loop iteration, every field on full
# meshgrids, one fmt_float/str call per coordinate, cell or daily value.

def loop_segment_ends(rng, n_segments, extent_x, extent_y, centers, urban_frac,
                      min_len, max_len):
    """(n, 2, 2) segment end points, drawn, turned and clipped one segment
    at a time."""
    ends = np.empty((n_segments, 2, 2))
    for i in range(n_segments):
        if centers is not None and rng.uniform() < urban_frac:
            c = centers[rng.integers(0, len(centers))]
            anchor = c + rng.normal(0, 0.04 * min(extent_x, extent_y), 2)
        else:
            anchor = np.array([rng.uniform(0, extent_x), rng.uniform(0, extent_y)])
        angle = rng.uniform(0, 2 * np.pi)
        length = rng.uniform(min_len, max_len)
        delta = 0.5 * length * np.array([np.cos(angle), np.sin(angle)])
        a = np.clip(anchor - delta, [0, 0], [extent_x, extent_y])
        b = np.clip(anchor + delta, [0, 0], [extent_x, extent_y])
        if np.all(a == b):
            b = a + np.array([1.0, 1.0])
        ends[i] = a, b
    return ends


def meshgrid_smooth_field(rng, scale, amplitude, n_waves=10):
    """The plane-wave field, drawing its waves in the generator's order,
    as a function of full (x, y) meshgrids."""
    angles = rng.uniform(0, 2 * np.pi, n_waves)
    wavelengths = scale * rng.uniform(0.6, 1.8, n_waves)
    phases = rng.uniform(0, 2 * np.pi, n_waves)
    amps = amplitude * rng.uniform(0.5, 1.0, n_waves) / np.sqrt(n_waves / 2.0)
    kx = 2 * np.pi * np.cos(angles) / wavelengths
    ky = 2 * np.pi * np.sin(angles) / wavelengths

    def f(x, y):
        x = np.asarray(x, dtype=np.float64)[..., None]
        y = np.asarray(y, dtype=np.float64)[..., None]
        return np.sum(amps * np.cos(x * kx + y * ky + phases), axis=-1)

    return f


def meshgrid_population_field(centers, cluster_sd_m):
    """Population density on full (x, y) meshgrids."""
    def f(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        out = np.full(np.broadcast_shapes(x.shape, y.shape), 2.0)
        s2 = (2.5 * cluster_sd_m) ** 2
        for cx, cy in centers:
            out = out + 800.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * s2))
        return out

    return f


def meshgrid_field(fn, cell, n_cols, n_rows, base=0.0):
    """(n_rows, n_cols) values of `base + fn(xx, yy)` over the cell centers
    of a grid with origin (0, 0), in one call."""
    xs = 0.0 + (np.arange(n_cols) + 0.5) * cell
    ys = 0.0 + (np.arange(n_rows) + 0.5) * cell
    xx, yy = np.meshgrid(xs, ys)
    return base + fn(xx, yy)


def _fmt(x):
    return repr(float(x))


def per_feature_write_features(layer, path):
    """Feature CSV (id,kind,category,wkt), one csv row and one coordinate
    formatted at a time."""
    kind_name = "point" if layer.kind == "points" else "polyline"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "kind", "category", "wkt"])
        for i in range(len(layer.ids)):
            xy = layer.xy[layer.offsets[i]:layer.offsets[i + 1]]
            if layer.kind == "points":
                wkt = f"POINT({_fmt(xy[0, 0])} {_fmt(xy[0, 1])})"
            else:
                wkt = "LINESTRING(" + ", ".join(f"{_fmt(px)} {_fmt(py)}" for px, py in xy) + ")"
            writer.writerow([str(layer.ids[i]), kind_name, str(layer.categories[i]), wkt])


def per_cell_write_categorical(grid, path):
    """ESRI ASCII grid of category codes, top row first, `str` per cell."""
    out = [f"ncols {grid.n_cols}", f"nrows {grid.n_rows}",
           f"xllcorner {_fmt(grid.origin_x)}", f"yllcorner {_fmt(grid.origin_y)}",
           f"cellsize {_fmt(grid.cell_size)}", f"NODATA_value {grid.nodata}"]
    for r in range(grid.n_rows - 1, -1, -1):
        out.append(" ".join(str(int(v)) for v in grid.values[r]))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def per_value_sites_and_daily(sites, excluded, year, daily_noise_sd, rng):
    """Text of sites.csv (CSV line ends, "\\r\\n") and daily.csv: one
    formatted value per row, every daily value of a noisy series shifted to
    the annual mean and clipped at zero. `rng` is the scenario's daily
    stream. Synthetic ids and groups hold no character that needs quoting."""
    rows = ["site_id,x,y,province,city"]
    for i, sid in enumerate(sites.site_ids):
        rows.append(f"{sid},{_fmt(sites.x[i])},{_fmt(sites.y[i])},"
                    f"{sites.province[i]},{sites.city[i]}")
    for sid, (x, y, prov, cty, _, _) in sorted(excluded.items()):
        rows.append(f"{sid},{_fmt(x)},{_fmt(y)},{prov},{cty}")
    n_days = int(sites.n_calendar_days[0])
    dates = [(dt.date(year, 1, 1) + dt.timedelta(days=d)).isoformat() for d in range(n_days)]
    daily = ["site_id,date,value"]
    for i, sid in enumerate(sites.site_ids):
        annual = sites.annual_mean[i]
        if daily_noise_sd > 0:
            vals = np.maximum(annual + daily_noise_sd * rng.standard_normal(n_days), 0.0)
            vals = np.maximum(vals - vals.mean() + annual, 0.0)
        else:
            vals = np.full(n_days, annual)
        for d, date in enumerate(dates):
            daily.append(f"{sid},{date},{_fmt(vals[d])}")
    for sid, (_, _, _, _, value, keep_days) in sorted(excluded.items()):
        for date in dates[:keep_days]:
            daily.append(f"{sid},{date},{_fmt(value)}")
    return "\r\n".join(rows) + "\r\n", "\n".join(daily) + "\n"


# -- regression --------------------------------------------------------------

def normal_equations_ols(X, y):
    """OLS via explicit normal equations, with t-test p-values."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    A = np.column_stack([np.ones(n), X])
    ata = A.T @ A
    beta = np.linalg.solve(ata, A.T @ y)
    resid = y - A @ beta
    rss = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    df = n - p - 1
    sigma2 = rss / df
    cov = sigma2 * np.linalg.inv(ata)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf)
    pvals = 2.0 * stats.t.sf(np.abs(t), df)
    r2 = 1.0 - rss / sst
    adj = 1.0 - (1.0 - r2) * (n - 1) / df
    return {
        "intercept": beta[0], "coefficients": beta[1:], "residuals": resid,
        "r2": r2, "adj_r2": adj, "p_values": pvals[1:], "rss": rss,
    }


def direct_vif(candidate, included):
    if included is None or np.size(included) == 0:
        return 1.0
    fit = normal_equations_ols(np.atleast_2d(np.asarray(included).T).T, candidate)
    return 1.0 / (1.0 - fit["r2"]) if fit["r2"] < 1.0 else np.inf


def exhaustive_stepwise(X, names, y, vif_max=5.0, p_max=0.05, min_gain=0.005):
    """Greedy forward selection refitting every candidate model per step.

    Mirrors the documented admissibility rules with none of the
    incremental machinery: every candidate model is refit from scratch.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    usable = [j for j in range(p) if np.std(X[:, j]) > 0]
    yc = y - y.mean()
    corrs = {}
    for j in usable:
        xc = X[:, j] - X[:, j].mean()
        corrs[j] = abs(float(xc @ yc)) / (np.linalg.norm(xc) * np.linalg.norm(yc))
    first = max(usable, key=lambda j: (corrs[j], -j))
    fit = normal_equations_ols(X[:, [first]], y)
    if not fit["p_values"][0] < p_max:
        return None
    selected = [first]
    signs = [float(np.sign(fit["coefficients"][0]))]
    current = fit
    while True:
        best = None
        for j in usable:
            if j in selected:
                continue
            # collinearity screen on the entering variable only
            cols = X[:, selected]
            v = direct_vif(X[:, j], cols)
            if not v < vif_max:
                continue
            trial = normal_equations_ols(X[:, selected + [j]], y)
            if not trial["p_values"][-1] < p_max:
                continue
            if any(np.sign(trial["coefficients"][k]) != signs[k]
                   for k in range(len(selected))):
                continue
            if best is None or trial["adj_r2"] > best[1]["adj_r2"]:
                best = (j, trial)
        if best is None:
            break
        j, trial = best
        if trial["adj_r2"] - current["adj_r2"] < min_gain:
            break
        selected.append(j)
        signs.append(float(np.sign(trial["coefficients"][-1])))
        current = trial
    return {
        "selected": [names[j] for j in selected],
        "intercept": current["intercept"],
        "coefficients": current["coefficients"],
    }


def nipals_pls1(X, y, k):
    """From-scratch PLS1 on standardized columns; returns per-component
    prediction functions via accumulated regression vectors."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mx = X.mean(axis=0)
    sx = X.std(axis=0, ddof=1)
    sx = np.where(sx > 0, sx, 1.0)
    X0 = (X - mx) / sx
    my = y.mean()
    Xk = X0.copy()
    yk = y - my
    Ws, Ps, qs = [], [], []
    for _ in range(k):
        w = Xk.T @ yk
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            break
        w = w / norm
        t = Xk @ w
        tt = float(t @ t)
        pv = Xk.T @ t / tt
        qv = float(yk @ t / tt)
        Xk = Xk - np.outer(t, pv)
        yk = yk - qv * t
        Ws.append(w)
        Ps.append(pv)
        qs.append(qv)
    W = np.column_stack(Ws)
    P = np.column_stack(Ps)
    q = np.array(qs)

    def predict(Xnew, comps):
        R = W[:, :comps] @ np.linalg.inv(P[:, :comps].T @ W[:, :comps])
        beta = R @ q[:comps]
        return my + ((np.asarray(Xnew) - mx) / sx) @ beta

    return predict, W.shape[1]


def deflation_pls1_path(X0, y0, max_k):
    """PLS1 by explicit rank-1 deflation of X and y after every component,
    on centered X0 and y0, with the same early stops as the package path:
    a weight norm below 1e-12 of the first, or a score sum of squares
    below 1e-24 * n. Returns (W, P, q, W (P'W)^-1)."""
    n, p = X0.shape
    Xk = X0.copy()
    yk = y0.copy()
    scale0 = float(np.linalg.norm(X0.T @ y0)) or 1.0
    W, P, q = [], [], []
    for _ in range(max_k):
        w = Xk.T @ yk
        nw = float(np.linalg.norm(w))
        if nw <= 1e-12 * scale0:
            break
        w = w / nw
        t = Xk @ w
        tt = float(t @ t)
        if tt <= 1e-24 * n:
            break
        pk = Xk.T @ t / tt
        qk = float(yk @ t / tt)
        Xk = Xk - np.outer(t, pk)
        yk = yk - qk * t
        W.append(w)
        P.append(pk)
        q.append(qk)
    W = np.column_stack(W)
    P = np.column_stack(P)
    return W, P, np.array(q), W @ np.linalg.inv(P.T @ W)


# The package's stepwise selection and PLS fit as they were before both
# moved to cross-product form: stepwise projected every candidate column on
# an incremental thin QR of [1, selected] at every step, and PLS read the
# standardized data in every component of every CV fold. Both end in the
# package's own `ols_fit` and `PlsModel`, so a selection that matches gives
# bit-identical coefficients.

class QrState:
    """Incremental thin QR over [1, selected columns]."""

    def __init__(self, y):
        self.n = len(y)
        self.y = y
        q0 = np.full((self.n, 1), 1.0 / np.sqrt(self.n))
        self.Q = q0
        self.R = np.array([[np.sqrt(float(self.n))]])
        self.qty = np.array([q0[:, 0] @ y])
        self.update_residual()

    def update_residual(self):
        self.ry = self.y - self.Q @ self.qty
        self.rss = float(self.ry @ self.ry)

    def score(self, cols, df_new):
        """Score each column of `cols` as the next entering variable."""
        u = self.Q.T @ cols
        res = cols - self.Q @ u
        u2 = self.Q.T @ res
        res -= self.Q @ u2
        u = u + u2
        rho2 = np.einsum("ij,ij->j", res, res)
        g = res.T @ self.ry
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.sqrt(rho2)
            gain = g / rho  # entering column's coefficient in the Q basis
            rss_new = np.maximum(self.rss - gain**2, 0.0)
            t = np.sqrt(gain**2 / (rss_new / df_new))
        p = np.where(rss_new > 0, 2.0 * special.stdtr(df_new, -np.abs(t)), 0.0)
        return dict(res=res, u=u, rho2=rho2, rho=rho, gain=gain, rss_new=rss_new, p=p)

    def append(self, cand, local):
        m = self.R.shape[0]
        r_new = np.zeros((m + 1, m + 1))
        r_new[:m, :m] = self.R
        r_new[:m, m] = cand["u"][:, local]
        r_new[m, m] = cand["rho"][local]
        self.R = r_new
        self.Q = np.column_stack([self.Q, cand["res"][:, local] / cand["rho"][local]])
        self.qty = np.concatenate([self.qty, [cand["gain"][local]]])
        self.update_residual()


def lowest_of_ties(rss_new, admissible, rtol):
    """Lowest index whose residual sum of squares is within a relative
    `rtol` of the least admissible one."""
    best = np.min(np.where(admissible, rss_new, np.inf))
    return int(np.argmax(admissible & (rss_new <= best * (1.0 + rtol))))


def qr_stepwise_select(matrix, y, cfg=None):
    """Forward stepwise selection scored on an incremental QR, with the
    package's tie rule; the selected columns are refit by `ols_fit`."""
    cfg = cfg or StepwiseConfig()
    y = np.asarray(y, dtype=np.float64)
    X = matrix.values
    names = matrix.columns
    n = X.shape[0]
    available = ~matrix.zero_variance
    sst = float(np.sum((y - y.mean()) ** 2))
    ss_centered = np.sum((X - X.mean(axis=0)) ** 2, axis=0)
    state = QrState(y)
    remaining = np.flatnonzero(available)
    cand = state.score(X[:, remaining], n - 2)
    local = lowest_of_ties(cand["rss_new"], np.ones(remaining.size, bool), TIE_RTOL)
    if not cand["p"][local] < cfg.p_max:
        raise EmptyModelError("no admissible first variable")
    selected, entry_signs, entry_pvalues = [], [], []
    while True:
        state.append(cand, local)
        j = int(remaining[local])
        selected.append(j)
        available[j] = False
        entry_signs.append(float(np.sign(cand["gain"][local])))
        entry_pvalues.append(float(cand["p"][local]))
        remaining = np.flatnonzero(available)
        df_new = n - len(selected) - 2
        if remaining.size == 0 or df_new < 1:
            break
        cand = state.score(X[:, remaining], df_new)
        rho2 = cand["rho2"]
        with np.errstate(divide="ignore", invalid="ignore"):
            vifs = np.where(rho2 > 0, ss_centered[remaining] / rho2, np.inf)
            beta_old = solve_triangular(state.R, state.qty)[:, None] \
                - solve_triangular(state.R, cand["u"]) * (cand["gain"] / cand["rho"])
        keeps_signs = np.all(np.sign(beta_old[1:]) == np.array(entry_signs)[:, None], axis=0)
        admissible = (vifs < cfg.vif_max) & (rho2 > 0) & (cand["p"] < cfg.p_max) & keeps_signs
        if not admissible.any():
            break
        local = lowest_of_ties(cand["rss_new"], admissible, TIE_RTOL)
        adj_new = 1.0 - (cand["rss_new"][local] / df_new) / (sst / (n - 1))
        adj_cur = 1.0 - (state.rss / (n - len(selected) - 1)) / (sst / (n - 1))
        if adj_new - adj_cur < cfg.min_adj_r2_gain:
            break
    config = {"selection": "stepwise", **asdict(cfg), "entry_p_values": entry_pvalues}
    return replace(ols_fit(X[:, selected], y, [names[j] for j in selected], config=config),
                   entry_signs=np.array(entry_signs))


def data_pls1_path(X0, y0, max_k):
    """PLS1 without deflating X, reading the standardized data X0 for
    every score t = X0 r and loading X0' t."""
    n, p = X0.shape
    s = X0.T @ y0
    scale0 = float(np.linalg.norm(s)) or 1.0
    P, R = np.empty((p, max_k)), np.empty((p, max_k))
    q = np.empty(max_k)
    k = 0
    while k < max_k:
        nw = float(np.linalg.norm(s))
        if nw <= 1e-12 * scale0:
            break
        w = s / nw
        r = w - R[:, :k] @ (P[:, :k].T @ w)
        t = X0 @ r
        tt = float(t @ t)
        if tt <= 1e-24 * n:
            break
        yt = float(y0 @ t)
        R[:, k] = r
        P[:, k] = X0.T @ t / tt
        q[k] = yt / tt
        s = s - P[:, k] * yt
        k += 1
    if k == 0:
        raise ZeroVarianceError("response carries no signal over the given columns")
    return q[:k], R[:, :k]


def _column_scale(X):
    return np.where(np.ptp(X, axis=0) > 0, X.std(axis=0, ddof=1), 1.0)


def data_pls_fit(matrix, y, max_components, seed=0):
    """PLS1 with the component count picked by the one-standard-error rule
    on 10-fold CV RMSEP, standardizing each training fold's rows anew."""
    y = np.asarray(y, dtype=np.float64)
    X = matrix.values
    n, p = X.shape
    x_mean, x_scale = X.mean(axis=0), _column_scale(X)
    X0 = (X - x_mean) / x_scale
    y_mean = float(y.mean())
    q, rotations = data_pls1_path(X0, y - y_mean, max_components)
    K = len(q)
    rng = np.random.default_rng(seed)
    n_folds_eff = min(10, n)
    order = rng.permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.arange(n) % n_folds_eff
    sq_err = np.full((n, K), np.nan)
    for f in range(n_folds_eff):
        test = fold_of == f
        train = ~test
        Xt = X[train]
        mt, st = Xt.mean(axis=0), _column_scale(Xt)
        ymt = float(y[train].mean())
        try:
            qf, Rf = data_pls1_path((Xt - mt) / st, y[train] - ymt, K)
        except ZeroVarianceError:
            continue
        Kf = Rf.shape[1]
        Xv = (X[test] - mt) / st
        for k in range(1, K + 1):
            kk = min(k, Kf)
            sq_err[test, k - 1] = (y[test] - (ymt + Xv @ (Rf[:, :kk] @ qf[:kk]))) ** 2
    rmsep = np.sqrt(np.nanmean(sq_err, axis=0))
    fold_rmsep = np.empty((n_folds_eff, K))
    for f in range(n_folds_eff):
        fold_rmsep[f] = np.sqrt(np.nanmean(sq_err[fold_of == f], axis=0))
    se = fold_rmsep.std(axis=0, ddof=1) / np.sqrt(n_folds_eff) if n_folds_eff > 1 \
        else np.zeros(K)
    k_min = int(np.argmin(rmsep))
    k_star = int(np.argmax(rmsep <= rmsep[k_min] + se[k_min])) + 1
    return PlsModel(columns=tuple(matrix.columns), x_mean=x_mean, x_scale=x_scale,
                    y_mean=y_mean, score_coefficients=q, rotations=rotations,
                    n_components=k_star)


def moran_double_sum(residuals, coords, min_distance=1000.0):
    """Moran's I via the explicit double loop."""
    z = np.asarray(residuals, dtype=np.float64)
    z = z - z.mean()
    coords = np.asarray(coords, dtype=np.float64)
    n = len(z)
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.hypot(*(coords[i] - coords[j])))
            w[i, j] = 1.0 / max(d, min_distance)
    for i in range(n):
        w[i] /= w[i].sum()
    num = 0.0
    for i in range(n):
        for j in range(n):
            num += w[i, j] * z[i] * z[j]
    return (n / w.sum()) * num / float(z @ z)


# -- geostatistics -----------------------------------------------------------

def allpairs_variogram(residuals, coords, n_bins, max_lag):
    """Empirical variogram via an explicit all-pairs double loop."""
    residuals = np.asarray(residuals, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    n = len(residuals)
    width = max_lag / n_bins
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.hypot(*(coords[i] - coords[j])))
            if d > max_lag:
                continue
            b = min(int(d / width), n_bins - 1)
            sums[b] += (residuals[i] - residuals[j]) ** 2
            counts[b] += 1
    keep = counts > 0
    centers = (np.arange(n_bins) + 0.5) * width
    return centers[keep], 0.5 * sums[keep] / counts[keep], counts[keep]


def exponential_wls_cost(lags, semivariances, n_pairs, nugget, psill, range_m):
    """Weighted least-squares cost of an exponential variogram, with the
    gstat bin weights n_pairs / lag^2 scaled to a largest weight of 1."""
    lags = np.asarray(lags, dtype=np.float64)
    wts = np.asarray(n_pairs, dtype=np.float64) / lags**2
    model = nugget + psill * (1.0 - np.exp(-lags / range_m))
    return 0.5 * float(np.sum(wts / wts.max() * (model - semivariances) ** 2))


def multistart_exponential(lags, semivariances, n_pairs):
    """Exponential variogram (nugget, partial sill, range) by bounded
    nonlinear least squares from six starts: three ranges (max_lag / 20,
    max_lag / 4, max_lag), each with all sill or 10% nugget. Range bounds
    [min_lag / 10, 10 * max_lag]; the cheapest successful start wins."""
    lags = np.asarray(lags, dtype=np.float64)
    emp = np.asarray(semivariances, dtype=np.float64)
    wts = np.sqrt(np.asarray(n_pairs, dtype=np.float64)) / lags
    wts = wts / wts.max()
    min_lag, max_lag = float(lags[0]), float(lags[-1])
    lo = np.array([0.0, 0.0, min_lag / 10.0])
    hi = np.array([np.inf, np.inf, 10.0 * max_lag])
    level = float(np.max(emp))
    if level <= 0:
        return 0.0, 0.0, max_lag

    def resid(params):
        c0, c1, a = params
        return wts * (c0 + c1 * (1.0 - np.exp(-lags / a)) - emp)

    best = None
    for a0 in (max_lag / 20.0, max_lag / 4.0, max_lag):
        a0 = min(max(a0, lo[2]), hi[2])
        for x0 in ([0.0, level, a0], [0.1 * level, 0.9 * level, a0]):
            res = least_squares(
                resid, x0, bounds=(lo, hi), method="trf",
                x_scale=[max(level, 1e-12), max(level, 1e-12), max_lag],
                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000,
            )
            if np.isfinite(res.cost) and (best is None or res.cost < best.cost):
                best = res
    c0, c1, a = best.x
    return float(c0), float(c1), float(a)


def dense_uk_system(train_coords, train_x, nugget, psill, range_m):
    """The bordered universal kriging matrix [[C, F], [F', 0]] with
    F = [1, X], entry by entry."""
    train_coords = np.asarray(train_coords, dtype=np.float64)
    train_x = np.asarray(train_x, dtype=np.float64)
    n = len(train_coords)
    p1 = train_x.shape[1] + 1
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dmat[i, j] = np.hypot(*(train_coords[i] - train_coords[j]))
    cov = psill * np.exp(-dmat / range_m)
    cov += nugget * np.eye(n)
    F = np.column_stack([np.ones(n), train_x])
    A = np.zeros((n + p1, n + p1))
    A[:n, :n] = cov
    A[:n, n:] = F
    A[n:, :n] = F.T
    return A


def dense_uk_solve(train_coords, train_x, train_y, nugget, psill, range_m,
                   x0, y0, x_row):
    """Universal kriging at one point by assembling and solving the full
    bordered system with a plain dense solver."""
    train_coords = np.asarray(train_coords, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    n = len(train_y)
    A = dense_uk_system(train_coords, train_x, nugget, psill, range_m)
    d0 = np.hypot(train_coords[:, 0] - x0, train_coords[:, 1] - y0)
    b = np.concatenate([psill * np.exp(-d0 / range_m), [1.0], np.asarray(x_row)])
    sol = np.linalg.solve(A, b)
    lam = sol[:n]
    mean = float(lam @ train_y)
    variance = float((nugget + psill) - b @ sol)
    return mean, variance, lam, sol[n:]


def dense_uk_drift(train_coords, train_x, train_y, nugget, psill, range_m):
    """GLS drift coefficients [intercept, slopes]: the last p + 1 entries
    of the bordered system solved against [y, 0]."""
    train_y = np.asarray(train_y, dtype=np.float64)
    A = dense_uk_system(train_coords, train_x, nugget, psill, range_m)
    rhs = np.concatenate([train_y, np.zeros(len(A) - len(train_y))])
    return np.linalg.solve(A, rhs)[len(train_y):]
