"""Trend modeling: OLS, supervised forward stepwise selection, PLS, and
regression diagnostics.

The forward procedure adds the variable most correlated with the response
first, then repeatedly adds the admissible variable giving the largest
adjusted-R2 improvement, where admissible means: entering VIF below the
cap, entering coefficient p-value below the cap, and no previously
selected coefficient flipping sign relative to its sign at entry. It
stops when the best admissible gain falls below the configured minimum.
Ties always break toward the lowest column index, so selection is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy import special
from scipy.linalg import qr, solve_triangular

from .covariates import CovariateMatrix
from .errors import (
    EmptyModelError,
    InvalidArgumentError,
    SingularDesignError,
    ZeroVarianceError,
)
from ._util import check_finite_fields

_RANK_TOL = 1e-10


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

class _QrState:
    """Incremental thin-QR over [1, selected columns].

    Candidates are scored against this factorization; the committed model
    is refit once at the end through ols_fit.
    """

    def __init__(self, y: np.ndarray):
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

    def residualize(self, cols: np.ndarray):
        u = self.Q.T @ cols
        res = cols - self.Q @ u
        u2 = self.Q.T @ res
        res -= self.Q @ u2
        return res, u + u2

    def score(self, cols: np.ndarray, df_new: int) -> "_Candidates":
        """Score each column of `cols` as the next entering variable."""
        res, u = self.residualize(cols)
        rho2 = np.einsum("ij,ij->j", res, res)
        g = res.T @ self.ry
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.sqrt(rho2)
            gain = g / rho  # entering column's coefficient in the Q basis
            rss_new = np.maximum(self.rss - gain**2, 0.0)
            t = np.sqrt(gain**2 / (rss_new / df_new))
        p = np.where(rss_new > 0, _t_pvalue(t, df_new), 0.0)
        return _Candidates(res, u, rho2, rho, gain, rss_new, p)

    def append(self, cand: "_Candidates", local: int):
        m = self.R.shape[0]
        r_new = np.zeros((m + 1, m + 1))
        r_new[:m, :m] = self.R
        r_new[:m, m] = cand.u[:, local]
        r_new[m, m] = cand.rho[local]
        self.R = r_new
        self.Q = np.column_stack([self.Q, cand.res[:, local] / cand.rho[local]])
        self.qty = np.concatenate([self.qty, [cand.gain[local]]])
        self.update_residual()


@dataclass(frozen=True)
class _Candidates:
    """One step's candidates scored as arrays, one entry per column."""

    res: np.ndarray  # columns residualized against the current Q
    u: np.ndarray  # their coordinates in the current Q
    rho2: np.ndarray
    rho: np.ndarray
    gain: np.ndarray
    rss_new: np.ndarray
    p: np.ndarray  # entering coefficient p-value


def _t_pvalue(t, df):
    """Two-sided Student-t p-value of `t` on `df` degrees of freedom."""
    return 2.0 * special.stdtr(df, -np.abs(t))


def stepwise_select(matrix: CovariateMatrix, y, cfg: StepwiseConfig | None = None) -> LinearModel:
    """Supervised forward stepwise selection over a covariate matrix.

    The column most correlated with the response enters first, provided
    its p-value passes `cfg.p_max`. Each later step scores every remaining
    column at once and enters the admissible one with the highest
    adjusted R2: entering VIF below `cfg.vif_max`, entering p-value below
    `cfg.p_max`, and no selected coefficient changing sign from its sign
    at entry. Ties go to the lowest column index. Selection stops when no
    column is admissible or the best gain is below `cfg.min_adj_r2_gain`.

    Zero-variance columns are never considered. Multiple buffer lengths
    of one base variable may enter, as long as each passes the
    admissibility rules on its own.
    """
    cfg = cfg or StepwiseConfig()
    y = np.asarray(y, dtype=np.float64)
    if len(y) != matrix.n_sites:
        raise InvalidArgumentError("response length does not match matrix rows")

    X = matrix.values
    names = matrix.columns
    n = X.shape[0]
    available = ~matrix.zero_variance
    usable = np.flatnonzero(available)
    if usable.size == 0:
        raise EmptyModelError("no non-constant candidate columns")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        raise ZeroVarianceError("response has zero variance")
    if n - 2 < 1:
        raise InvalidArgumentError("too few observations for selection")

    ss_centered = np.sum((X - X.mean(axis=0)) ** 2, axis=0)
    state = _QrState(y)

    # Step 1: highest absolute Pearson correlation with the response.
    yc = y - y.mean()
    with np.errstate(invalid="ignore"):
        corr = np.abs((X[:, usable] - X[:, usable].mean(axis=0)).T @ yc) / (
            np.sqrt(ss_centered[usable]) * np.sqrt(sst)
        )
    first = int(usable[np.argmax(corr)])
    cand = state.score(X[:, [first]], n - 2)
    if not cand.p[0] < cfg.p_max:
        raise EmptyModelError(
            f"no admissible first variable (best candidate {names[first]!r} "
            f"has p={cand.p[0]:.3g})"
        )
    # Each pass enters column `remaining[local]` of the scored `cand`, then
    # scores the columns still available for the next step.
    local, remaining = 0, np.array([first])

    selected: list[int] = []
    entry_signs: list[float] = []
    entry_pvalues: list[float] = []
    while True:
        state.append(cand, local)
        j = int(remaining[local])
        selected.append(j)
        available[j] = False
        entry_signs.append(float(np.sign(cand.gain[local])))
        entry_pvalues.append(float(cand.p[local]))

        remaining = np.flatnonzero(available)
        df_new = n - len(selected) - 2
        if remaining.size == 0 or df_new < 1:
            break
        cand = state.score(X[:, remaining], df_new)
        with np.errstate(divide="ignore", invalid="ignore"):
            vifs = np.where(cand.rho2 > 0, ss_centered[remaining] / cand.rho2, np.inf)
            # Coefficients [intercept, selected...] once each candidate
            # enters: one column per candidate, from one batched solve.
            beta_old = solve_triangular(state.R, state.qty)[:, None] \
                - solve_triangular(state.R, cand.u) * (cand.gain / cand.rho)
        keeps_signs = np.all(np.sign(beta_old[1:]) == np.array(entry_signs)[:, None], axis=0)
        admissible = ((vifs < cfg.vif_max) & (cand.rho2 > 0) & (cand.p < cfg.p_max)
                      & keeps_signs)
        if not admissible.any():
            break
        adj_new = 1.0 - (cand.rss_new / df_new) / (sst / (n - 1))
        local = int(np.argmax(np.where(admissible, adj_new, -np.inf)))
        adj_cur = 1.0 - (state.rss / (n - len(selected) - 1)) / (sst / (n - 1))
        if adj_new[local] - adj_cur < cfg.min_adj_r2_gain:
            break

    config = {"selection": "stepwise", **asdict(cfg), "entry_p_values": entry_pvalues}
    return replace(ols_fit(X[:, selected], y, [names[j] for j in selected], config=config),
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


def _pls1_path(X0: np.ndarray, y0: np.ndarray, max_k: int):
    """PLS1 without deflating X (Dayal & MacGregor 1997): weight w maps
    through the earlier rotations to r, the score is X0 r, and only
    s = X_k' y0 is deflated. Returns q and the rotations R = W (P'W)^-1
    it builds, stopping early when no signal remains."""
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


def _column_scale(X: np.ndarray) -> np.ndarray:
    """Sample std per column; 1.0 where the column is constant (its std may round to ~1e-17)."""
    return np.where(np.ptp(X, axis=0) > 0, X.std(axis=0, ddof=1), 1.0)


def pls_fit(matrix: CovariateMatrix, y, max_components: int, seed: int = 0) -> PlsModel:
    """Fit a PLS1 component family and pick the component count by the
    one-standard-error rule on 10-fold CV RMSEP (the most parsimonious
    model not significantly worse than the RMSEP minimum)."""
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
    x_mean, x_scale = X.mean(axis=0), _column_scale(X)
    X0 = (X - x_mean) / x_scale
    y_mean = float(y.mean())
    q, rotations = _pls1_path(X0, y - y_mean, max_components)
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
        X0t = (Xt - mt) / st
        ymt = float(y[train].mean())
        try:
            qf, Rf = _pls1_path(X0t, y[train] - ymt, K)
        except ZeroVarianceError:
            continue
        Kf = Rf.shape[1]
        Xv = (X[test] - mt) / st
        for k in range(1, K + 1):
            kk = min(k, Kf)
            beta = Rf[:, :kk] @ qf[:kk]
            pred = ymt + Xv @ beta
            sq_err[test, k - 1] = (y[test] - pred) ** 2
    rmsep = np.sqrt(np.nanmean(sq_err, axis=0))
    fold_rmsep = np.empty((n_folds_eff, K))
    for f in range(n_folds_eff):
        fold_rmsep[f] = np.sqrt(np.nanmean(sq_err[fold_of == f], axis=0))
    se = fold_rmsep.std(axis=0, ddof=1) / np.sqrt(n_folds_eff) if n_folds_eff > 1 \
        else np.zeros(K)
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
