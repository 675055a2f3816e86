"""Trend modeling: OLS, supervised forward stepwise selection, PLS, and
regression diagnostics.

The forward procedure adds the variable most correlated with the response
first, then repeatedly adds the admissible variable giving the largest
adjusted-R2 improvement, where admissible means: entering VIF below the
cap, entering coefficient p-value below the cap, and no previously
selected coefficient flipping sign relative to its sign at entry. It
stops when the best admissible gain falls below the configured minimum.
Candidates whose residual sums of squares agree to a relative TIE_RTOL tie,
and ties break toward the lowest column index, so selection is fully
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import special
from scipy.linalg import blas, qr, solve_triangular

from .covariates import CovariateMatrix
from .errors import (
    EmptyModelError,
    InvalidArgumentError,
    SingularDesignError,
    ZeroVarianceError,
)
from ._util import check_finite_fields

_RANK_TOL = 1e-10
# Relative residual-sum-of-squares gap within which stepwise candidates tie.
# On the national synthetic matrix, proportional candidates (two buffer radii
# reaching the same features) came out up to 2e-15 apart, and the closest
# distinct pair 3e-6 apart.
TIE_RTOL = 1e-10


def ols_fit(X, y, names=None, config=None) -> LinearModel:
    """Least-squares fit of y on [1, X] with coefficient t-test p-values,
    as a LinearModel over the columns `names` (default col0, col1, ...)
    whose entry signs are the signs of the fitted coefficients.

    Raises SingularDesignError naming the dependent columns when the
    design is rank deficient, and requires n > p + 1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    names = tuple(names) if names is not None else tuple(f"col{j}" for j in range(p))
    if n != len(y):
        raise InvalidArgumentError("X and y must have the same number of rows")
    if n <= p + 1:
        raise InvalidArgumentError(f"need n > p + 1 (n={n}, p={p})")
    A = np.column_stack([np.ones(n), X])
    Q, R, piv = qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, p + 1) * np.finfo(float).eps * (diag[0] if diag[0] > 0 else 1.0)
    rank = int(np.sum(diag > max(tol, _RANK_TOL * diag[0])))
    if rank < p + 1:
        labels = [("intercept" if j == 0 else names[j - 1]) for j in sorted(piv[rank:].tolist())]
        raise SingularDesignError(
            f"design matrix is rank deficient; dependent columns: {labels}",
            dependent_columns=labels,
        )
    beta_piv = solve_triangular(R, Q.T @ y)
    beta = np.empty(p + 1)
    beta[piv] = beta_piv
    resid = y - A @ beta
    rss = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("response has zero variance")
    r2 = 1.0 - rss / sst
    df = n - p - 1
    sigma2 = rss / df
    r_inv = solve_triangular(R, np.eye(p + 1))
    diag_cov_piv = np.sum(r_inv**2, axis=1)
    diag_cov = np.empty(p + 1)
    diag_cov[piv] = diag_cov_piv
    se = np.sqrt(np.maximum(sigma2 * diag_cov, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.inf * np.sign(beta + (beta == 0)))
    return LinearModel(
        selected=names,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        entry_signs=np.sign(beta[1:]),
        r2=r2,
        adj_r2=1.0 - (1.0 - r2) * (n - 1) / df,
        residuals=resid,
        p_values=_t_pvalue(t[1:], df),
        n=n,
        config=dict(config or {}),
    )


@dataclass(frozen=True)
class StepwiseConfig:
    """Admissibility thresholds of forward stepwise selection.

    A candidate may enter only while its entering VIF is below `vif_max`
    and its entering coefficient p-value below `p_max`; selection stops
    when the best admissible adjusted-R2 gain is below `min_adj_r2_gain`.
    """

    vif_max: float = 5.0
    p_max: float = 0.05
    min_adj_r2_gain: float = 0.005

    def __post_init__(self):
        check_finite_fields(self, "stepwise")
        if not self.vif_max > 1:
            raise InvalidArgumentError("vif_max must be > 1")
        if not 0 < self.p_max < 1:
            raise InvalidArgumentError("p_max must be in (0, 1)")
        if self.min_adj_r2_gain < 0:
            raise InvalidArgumentError("min_adj_r2_gain must be >= 0")


@dataclass(frozen=True)
class LinearModel:
    """A fitted trend model over named covariate columns."""

    selected: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    entry_signs: np.ndarray
    r2: float
    adj_r2: float
    residuals: np.ndarray
    p_values: np.ndarray
    n: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        # A model read back from JSON holds lists.
        object.__setattr__(self, "selected", tuple(self.selected))
        for name in ("coefficients", "entry_signs", "residuals", "p_values"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def design(self, source) -> np.ndarray:
        """Design rows from a CovariateMatrix (columns picked by name) or
        an array whose columns are `selected` in order."""
        if hasattr(source, "select"):
            return source.select(self.selected)
        arr = np.asarray(source, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape[1] != len(self.selected):
            raise InvalidArgumentError(
                f"expected {len(self.selected)} columns, got {arr.shape[1]}"
            )
        return arr

    def predict(self, source) -> np.ndarray:
        return self.intercept + self.design(source) @ self.coefficients


def mean_model(y) -> LinearModel:
    """Intercept-only model (training-mean predictor)."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise InvalidArgumentError("need at least 2 observations")
    return LinearModel(
        selected=(),
        intercept=float(y.mean()),
        coefficients=np.empty(0),
        entry_signs=np.empty(0),
        r2=0.0,
        adj_r2=0.0,
        residuals=y - y.mean(),
        p_values=np.empty(0),
        n=len(y),
        config={"selection": "mean"},
    )


# ---------------------------------------------------------------------------
# Forward stepwise engine
# ---------------------------------------------------------------------------

def _sweep(S: np.ndarray, k: int) -> None:
    """Sweep the symmetric matrix S on pivot k in place (Goodnight 1979).

    Once S = [X y]'[X y] of centred columns is swept on a set K of
    columns, S[K, K] = -(X_K'X_K)^-1, S[K, j] holds the coefficients of
    column j regressed on X_K, and S[j, j] and S[j, y] hold the residual
    sum of squares of column j and its residual cross-product with y."""
    d = S[k, k]
    row = S[k] / d
    # S -= S[:, k] row', in place: S is C-ordered, so S.T is the
    # Fortran-ordered matrix that BLAS updates without a copy.
    blas.dger(-1.0, row, S[:, k].copy(), a=S.T, overwrite_a=True)
    S[k] = row
    S[:, k] = row
    S[k, k] = -1.0 / d


def _t_pvalue(t, df):
    """Two-sided Student-t p-value of `t` on `df` degrees of freedom."""
    return 2.0 * special.stdtr(df, -np.abs(t))


def _entry_pvalue(explained: float, rss_new: float, df: int) -> float:
    """p-value of an entering coefficient that explains `explained` of the
    residual sum of squares, leaving `rss_new` on `df` degrees of freedom."""
    if rss_new <= 0:
        return 0.0
    return float(_t_pvalue(math.sqrt(explained * df / rss_new), df))


def stepwise_select(matrix: CovariateMatrix, y, cfg: StepwiseConfig | None = None) -> LinearModel:
    """Supervised forward stepwise selection over a covariate matrix.

    The column most correlated with the response enters first, provided
    its p-value passes `cfg.p_max`. Each later step scores every remaining
    column at once and enters the admissible one with the highest
    adjusted R2: entering VIF below `cfg.vif_max`, entering p-value below
    `cfg.p_max`, and no selected coefficient changing sign from its sign
    at entry. Ties go to the lowest column index; candidates tie when
    their residual sums of squares lie within a relative `TIE_RTOL` of
    the best one's, that is, their adjusted R2 within `TIE_RTOL` times
    (1 - the best adjusted R2). Selection stops when no column is
    admissible or the best gain is below `cfg.min_adj_r2_gain`.

    Zero-variance columns are never considered. Multiple buffer lengths
    of one base variable may enter, as long as each passes the
    admissibility rules on its own. Candidates are scored by sweeping the
    centred cross-product matrix of the usable columns and y, built once;
    the selected columns are refit by `ols_fit`.
    """
    cfg = cfg or StepwiseConfig()
    y = np.asarray(y, dtype=np.float64)
    if len(y) != matrix.n_sites:
        raise InvalidArgumentError("response length does not match matrix rows")

    X = matrix.values
    names = matrix.columns
    n = X.shape[0]
    usable = np.flatnonzero(~matrix.zero_variance)
    if usable.size == 0:
        raise EmptyModelError("no non-constant candidate columns")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("response has zero variance")
    if n - 2 < 1:
        raise InvalidArgumentError("too few observations for selection")

    m = usable.size  # S's last row and column are y's
    Z = np.empty((n, m + 1))
    Z[:, :m] = X[:, usable]
    Z[:, m] = y
    Z -= Z.mean(axis=0)
    S = Z.T @ Z
    ss_centered = S.diagonal()[:m].copy()
    free = np.ones(m, dtype=bool)
    selected: list[int] = []  # indices into `usable`
    entry_signs: list[float] = []
    entry_pvalues: list[float] = []
    while True:
        df_new = n - len(selected) - 2
        if not free.any() or df_new < 1:
            break
        rho2, g, rss = S.diagonal()[:m], S[:m, m], S[m, m]
        # p < p_max exactly when t^2 = g b df_new / rss_new exceeds t_crit^2.
        t_crit2 = special.stdtrit(df_new, cfg.p_max / 2.0) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            b = g / rho2  # each candidate's coefficient once it enters
            explained = g * b
            rss_new = np.maximum(rss - explained, 0.0)
            usable_now = free & (rho2 > 0)
            admissible = usable_now & ((rss_new <= 0) | (explained * df_new > t_crit2 * rss_new))
            if selected:
                # Coefficients of the selected columns once each candidate enters.
                beta = S[selected, m][:, None] - S[selected, :m] * b
                admissible &= (ss_centered / rho2 < cfg.vif_max) & np.all(
                    np.sign(beta) == np.array(entry_signs)[:, None], axis=0)
        if not admissible.any():
            if not selected:
                j = int(np.argmin(np.where(usable_now, rss_new, np.inf)))
                p = _entry_pvalue(explained[j], rss_new[j], df_new)
                raise EmptyModelError(f"no admissible first variable (best candidate "
                                      f"{names[usable[j]]!r} has p={p:.3g})")
            break
        best = np.min(rss_new[admissible])
        j = int(np.argmax(admissible & (rss_new <= best * (1.0 + TIE_RTOL))))
        if selected:
            adj_new = 1.0 - (rss_new[j] / df_new) / (sst / (n - 1))
            adj_cur = 1.0 - (rss / (n - len(selected) - 1)) / (sst / (n - 1))
            if adj_new - adj_cur < cfg.min_adj_r2_gain:
                break
        selected.append(j)
        free[j] = False
        entry_signs.append(float(np.sign(g[j])))
        entry_pvalues.append(_entry_pvalue(explained[j], rss_new[j], df_new))
        _sweep(S, j)

    cols = usable[selected]
    config = {"selection": "stepwise", **asdict(cfg), "entry_p_values": entry_pvalues}
    return replace(ols_fit(X[:, cols], y, [names[c] for c in cols], config=config),
                   entry_signs=np.array(entry_signs))


# ---------------------------------------------------------------------------
# Partial least squares (PLS1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlsModel:
    """PLS1 regression on centered, unit-variance columns.

    `rotations` (p, K) map standardized inputs directly to component
    scores; `score_coefficients` (K,) regress the response on the scores.
    `n_components` is the operating truncation.
    """

    columns: tuple[str, ...]
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    score_coefficients: np.ndarray
    rotations: np.ndarray
    n_components: int

    def __post_init__(self):
        # A model read back from JSON holds lists.
        object.__setattr__(self, "columns", tuple(self.columns))
        for name in ("x_mean", "x_scale", "score_coefficients", "rotations"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def max_components(self) -> int:
        return self.rotations.shape[1]

    def _standardize(self, source) -> np.ndarray:
        if hasattr(source, "select"):
            X = source.select(self.columns)
        else:
            X = np.asarray(source, dtype=np.float64)
        return (X - self.x_mean) / self.x_scale

    def transform(self, source, k: int | None = None) -> np.ndarray:
        k = self.n_components if k is None else k
        return self._standardize(source) @ self.rotations[:, :k]

    def predict(self, source, k: int | None = None) -> np.ndarray:
        k = self.n_components if k is None else k
        beta = self.rotations[:, :k] @ self.score_coefficients[:k]
        return self.y_mean + self._standardize(source) @ beta


def _pls1_paths(apply, xty: np.ndarray, tiny: np.ndarray, max_k: int):
    """PLS1 in kernel form (Dayal & MacGregor 1997) on B systems at once.

    `apply(V)` returns the rows X0_b'X0_b v_b for the rows v_b of V (B, p),
    `xty` (B, p) holds X0_b'y0 and `tiny` (B,) the score sum of squares at
    or below which a system stops. Weight w maps through the earlier
    rotations to r, the score sum of squares is r'X0'X0 r, and only
    s = X_k'y0 is deflated; a system also stops when |s| falls to 1e-12 of
    its start. Returns q (B, max_k), the rotations R = W (P'W)^-1
    (B, p, max_k) and the component counts (B,); entries past a system's
    count are zero."""
    B, p = xty.shape
    s = xty
    scale0 = np.sqrt(np.einsum("bp,bp->b", s, s))
    scale0[scale0 == 0] = 1.0
    P, R = np.zeros((B, p, max_k)), np.zeros((B, p, max_k))
    q = np.zeros((B, max_k))
    live = np.ones(B, dtype=bool)
    count = np.zeros(B, dtype=np.int64)
    for k in range(max_k):
        nw = np.sqrt(np.einsum("bp,bp->b", s, s))
        live &= nw > 1e-12 * scale0
        if not live.any():
            break
        w = s / np.where(live, nw, 1.0)[:, None]
        r = w - ((w[:, None, :] @ P[:, :, :k]) @ R[:, :, :k].transpose(0, 2, 1))[:, 0]
        xtt = apply(r)  # X0't
        tt = np.einsum("bp,bp->b", r, xtt)
        live &= tt > tiny
        if not live.any():
            break
        tt = np.where(live, tt, 1.0)
        yt = np.where(live, np.einsum("bp,bp->b", xty, r), 0.0)
        R[live, :, k] = r[live]
        P[live, :, k] = xtt[live] / tt[live, None]
        q[:, k] = yt / tt
        s = s - P[:, :, k] * yt[:, None]
        count += live
    return q, R, count


def _pls1_path(xtx: np.ndarray, xty: np.ndarray, max_k: int):
    """PLS1 from X0'X0 and X0'y0 alone (`_pls1_paths` with one system),
    stopping at a score sum of squares of 1e-24 times X0'X0's largest
    diagonal entry (n - 1 for standardized columns). Returns q and the
    rotations R, trimmed to the components found."""
    tiny = 1e-24 * xtx.diagonal().max(initial=0.0)
    q, R, count = _pls1_paths(lambda V: V @ xtx, xty[None], np.array([tiny]), max_k)
    k = int(count[0])
    if k == 0:
        raise ZeroVarianceError("response carries no signal over the given columns")
    return q[0, :k], R[0, :, :k]


def pls_fit(matrix: CovariateMatrix, y, max_components: int, seed: int = 0) -> PlsModel:
    """Fit a PLS1 component family and pick the component count by the
    one-standard-error rule on 10-fold CV RMSEP (the most parsimonious
    model not significantly worse than the RMSEP minimum).

    Columns are centred and divided by their ddof=1 std, or by 1 where
    constant. The data are read once, for the cross-products G of [X y]
    centred at the full means. A training fold's centred cross-products
    are G less the fold's own rows' and a rank-one term that moves the
    centre to the training mean; they are scaled by the fold's own std,
    and by 0 where a column is constant on the fold, so that it
    contributes exactly zero. The ten fold fits apply these matrices to
    vectors without forming them, in one batch.
    """
    y = np.asarray(y, dtype=np.float64)
    X = matrix.values
    n, p = X.shape
    if np.var(y) == 0:
        raise ZeroVarianceError("response has zero variance")
    if max_components < 1:
        raise InvalidArgumentError("max_components must be >= 1")
    if max_components > min(n - 1, p):
        raise InvalidArgumentError(
            f"max_components={max_components} exceeds the design capacity "
            f"min(n - 1, p) = {min(n - 1, p)}"
        )
    # Fold f holds rows order[f::F] (row f of `rows`, padded with -1 whose
    # rows of Z are zero), as fold_of[order] = arange(n) % F.
    F = min(10, n)
    rows = np.full(-(-n // F) * F, -1)
    rows[:n] = np.random.default_rng(seed).permutation(n)
    rows = rows.reshape(-1, F).T
    held = rows >= 0
    x_mean, y_mean = X.mean(axis=0), float(y.mean())
    Z = X[rows.ravel()]
    Z -= x_mean
    zy = y[rows.ravel()] - y_mean
    Z[~held.ravel()] = zy[~held.ravel()] = 0.0
    Gx, g = Z.T @ Z, Z.T @ zy

    constant = matrix.zero_variance
    x_scale = np.where(constant, 1.0, np.sqrt(Gx.diagonal() / (n - 1)))
    inv = np.where(constant, 0.0, 1.0 / x_scale)
    xtx = Gx * inv
    xtx *= inv[:, None]
    q, rotations = _pls1_path(xtx, g * inv, max_components)
    K = len(q)

    ZF, yf = Z.reshape(F, -1, p), zy.reshape(F, -1)
    n_t = n - held.sum(axis=1)
    mean = (Z.sum(axis=0) - ZF.sum(axis=1)) / n_t[:, None]  # training means, as offsets
    mean_y = (zy.sum() - yf.sum(axis=1)) / n_t
    last = held[:, -1:]  # padding sits in a fold's last row only
    lo = np.minimum(ZF[:, :-1].min(axis=1, initial=np.inf), np.where(last, ZF[:, -1], np.inf))
    hi = np.maximum(ZF[:, :-1].max(axis=1, initial=-np.inf), np.where(last, ZF[:, -1], -np.inf))
    away = ~np.eye(F, dtype=bool)[..., None]  # [f, h]: fold h trains fold f's model
    fold_constant = (np.where(away, hi, -np.inf).max(axis=1)
                     == np.where(away, lo, np.inf).min(axis=1))
    ss = np.maximum(Gx.diagonal() - np.einsum("fmp,fmp->fp", ZF, ZF) - n_t[:, None] * mean**2,
                    0.0)
    fold_inv = np.where(fold_constant, 0.0,
                        1.0 / np.sqrt(np.where(fold_constant, 1.0, ss) / (n_t - 1)[:, None]))
    fold_xty = (g - np.einsum("fmp,fm->fp", ZF, yf) - n_t[:, None] * mean * mean_y[:, None]) \
        * fold_inv
    ZFt = ZF.transpose(0, 2, 1)

    def fold_xtx(V):
        U = V * fold_inv
        out = U @ Gx
        out -= (ZFt @ (ZF @ U[..., None]))[..., 0]
        out -= (n_t * np.einsum("fp,fp->f", mean, U))[:, None] * mean
        out *= fold_inv
        return out

    qf, Rf, count = _pls1_paths(fold_xtx, fold_xty,
                                1e-24 * (ss * fold_inv**2).max(axis=1), K)
    # Regression vectors for 1..K components, past a fold's count its last,
    # applied to the fold's rows centred at the training mean.
    betas = fold_inv[..., None] * np.cumsum(Rf * qf[:, None, :], axis=2)
    pred = (ZF @ betas) + (mean_y[:, None] - np.einsum("fp,fpk->fk", mean, betas))[:, None, :]
    sq_err = (yf[..., None] - pred) ** 2
    sq_err[~held | (count == 0)[:, None]] = np.nan  # padding, and folds with no component
    rmsep = np.sqrt(np.nanmean(sq_err.reshape(-1, K), axis=0))
    fold_rmsep = np.sqrt(np.nanmean(sq_err, axis=1))
    se = fold_rmsep.std(axis=0, ddof=1) / np.sqrt(F) if F > 1 else np.zeros(K)
    k_min = int(np.argmin(rmsep))
    threshold = rmsep[k_min] + se[k_min]
    k_star = int(np.argmax(rmsep <= threshold)) + 1
    return PlsModel(
        columns=tuple(matrix.columns),
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
        score_coefficients=q,
        rotations=rotations,
        n_components=k_star,
    )


# ---------------------------------------------------------------------------
# Spatial autocorrelation diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoransI:
    i: float
    expected_i: float


def morans_i(residuals, coords, min_distance: float = 1000.0) -> MoransI:
    """Global Moran's I with inverse-distance, row-standardized weights.

    Coincident or near-coincident sites have their weight capped at the
    value for `min_distance` (default one grid cell) rather than erroring.
    """
    z = np.asarray(residuals, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.float64)
    n = len(z)
    if n < 3:
        raise InvalidArgumentError("Moran's I needs at least 3 sites")
    z = z - z.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise ZeroVarianceError("residuals have zero variance")
    d = np.sqrt(
        (coords[:, 0][:, None] - coords[:, 0][None, :]) ** 2
        + (coords[:, 1][:, None] - coords[:, 1][None, :]) ** 2
    )
    w = 1.0 / np.maximum(d, min_distance)
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    s0 = w.sum()
    i = (n / s0) * float(z @ w @ z) / denom
    return MoransI(i=i, expected_i=-1.0 / (n - 1))
