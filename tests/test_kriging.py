import json
import re

import numpy as np
import pytest

from lurk.covariates import CovariateMatrix
from lurk.errors import (
    EmptyVariogramError,
    InvalidArgumentError,
    SingularKrigingError,
    VariogramFitError,
)
from lurk import kriging
from lurk.kriging import (
    EmpiricalVariogram,
    KrigingModel,
    VariogramModel,
    empirical_variogram,
    fit_exponential,
    uk_fit,
)
from lurk.lur import ols_fit
from lurk.monitors import MonitorTable
from lurk.synth import simulate_grf
from lurk._util import plain

import oracles


def table_from(coords, y):
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    return MonitorTable(
        site_ids=tuple(f"s{i}" for i in range(n)),
        x=coords[:, 0], y=coords[:, 1],
        province=("p",) * n, city=("c",) * n,
        annual_mean=np.asarray(y, dtype=float),
        n_valid_days=np.full(n, 365), n_calendar_days=np.full(n, 365),
    )


def make_problem(seed, n=30, p=3, nugget=0.0, psill=4.0, range_m=30_000.0,
                 noise=0.0):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100_000, size=(n, 2))
    X = rng.normal(size=(n, p))
    beta = rng.normal(0, 2.0, p)
    grf = simulate_grf(coords, nugget, psill, range_m, rng)
    y = 20.0 + X @ beta + grf + noise * rng.standard_normal(n)
    names = [f"x{j}" for j in range(p)]
    matrix = CovariateMatrix([f"s{i}" for i in range(n)], names, X)
    sites = table_from(coords, y)
    drift = ols_fit(matrix.select(names), y, names)
    return sites, matrix, drift, coords, X, y


# -- empirical variogram ---------------------------------------------------------

def test_two_site_single_bin():
    ev = empirical_variogram([0.0, 2.0], [(0.0, 0.0), (1.0, 0.0)],
                             n_bins=1, max_lag=1.5)
    assert len(ev.lag_centers) == 1
    assert ev.semivariances[0] == pytest.approx(2.0)
    assert ev.n_pairs[0] == 1


def test_constant_residuals_zero_semivariance():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 1_000, (20, 2))
    ev = empirical_variogram(np.full(20, 3.3), coords, n_bins=5)
    assert np.allclose(ev.semivariances, 0.0)


def test_empirical_matches_allpairs_oracle():
    rng = np.random.default_rng(10)
    coords = rng.uniform(0, 50_000, size=(200, 2))
    residuals = rng.normal(size=200)
    max_lag = 20_000.0
    ev = empirical_variogram(residuals, coords, n_bins=12, max_lag=max_lag)
    centers, semis, counts = oracles.allpairs_variogram(residuals, coords, 12, max_lag)
    assert np.allclose(ev.lag_centers, centers)
    assert np.allclose(ev.semivariances, semis, rtol=1e-12)
    assert np.array_equal(ev.n_pairs, counts)


def test_all_pairs_beyond_max_lag():
    with pytest.raises(EmptyVariogramError):
        empirical_variogram([1.0, 2.0], [(0.0, 0.0), (10_000.0, 0.0)],
                            n_bins=3, max_lag=100.0)


# -- exponential fit -------------------------------------------------------------

def test_fit_recovers_exact_parameters():
    truth = VariogramModel(nugget=0.1, partial_sill=1.0, range_m=50_000.0)
    lags = np.linspace(2_000, 150_000, 12)
    ev = EmpiricalVariogram(lag_centers=lags,
                            semivariances=oracles.exponential_gamma(truth, lags),
                            n_pairs=np.full(12, 50))
    fit = fit_exponential(ev)
    assert fit.nugget == pytest.approx(0.1, rel=1e-4, abs=1e-6)
    assert fit.partial_sill == pytest.approx(1.0, rel=1e-4)
    assert fit.range_m == pytest.approx(50_000.0, rel=1e-4)


def test_fit_flat_variogram_is_pure_nugget():
    lags = np.linspace(1_000, 60_000, 8)
    ev = EmpiricalVariogram(lag_centers=lags, semivariances=np.full(8, 0.7),
                            n_pairs=np.full(8, 30))
    fit = fit_exponential(ev)
    assert fit.nugget == pytest.approx(0.7, abs=1e-6)
    assert fit.partial_sill <= 1e-6
    assert fit.range_m == lags[-1]


def test_zero_variogram_fits_zero_and_krigs_the_ols_drift():
    """An all-zero variogram fits (0, 0, last lag); the kriging system
    then takes its pure-nugget fallback, whose mean is the OLS drift."""
    lags = np.linspace(1_000, 60_000, 8)
    ev = EmpiricalVariogram(lag_centers=lags, semivariances=np.zeros(8), n_pairs=np.full(8, 30))
    vg = fit_exponential(ev)
    assert vg == VariogramModel(0.0, 0.0, lags[-1])
    sites, matrix, drift, coords, X, y = make_problem(seed=5, noise=1.0, psill=0.0)
    model = KrigingModel(variogram=vg, coords=coords, x_rows=X, y=y)
    rows = np.random.default_rng(56).normal(size=(10, 3))
    mean, _ = model.predict_many(np.random.default_rng(57).uniform(0, 100_000, (10, 2)), rows)
    assert np.allclose(mean, drift.predict(rows), rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("make_y", [lambda y: y, lambda y: 100.0 * y,
                                    lambda y: np.full_like(y, 7.0)], ids=["y", "100y", "flat"])
def test_a_zero_sill_gives_zero_variance_and_the_ols_mean(make_y):
    """A fitted sill of 0 says the residual variance is 0. The variance is
    that, not the pure-nugget fallback (1e-4 max(1, var(y))) times
    f'(F'F)^-1 f, which moved with the scale of y (7.0e-5 to 6.4e-4 at these
    points, 0.70 to 6.35 with y scaled by 100). The fallback is at least
    1e-4, so flat data, whose var(y) is 0, still give a nonsingular system;
    the mean is the OLS drift."""
    sites, matrix, drift, coords, X, y = make_problem(seed=5, n=40, noise=1.0, psill=0.0)
    y = make_y(y)
    rng = np.random.default_rng(58)
    pts, rows = rng.uniform(0, 100_000, (10, 2)), rng.normal(size=(10, 3))
    model = KrigingModel(variogram=VariogramModel(0.0, 0.0, 10_000.0),
                         coords=coords, x_rows=X, y=y)
    mean, var = model.predict_many(pts, rows, with_variance=True)
    assert np.array_equal(var, np.zeros(10))
    assert np.array_equal(mean, model.predict_many(pts, rows)[0])
    beta = np.linalg.lstsq(np.column_stack([np.ones(len(y)), X]), y, rcond=None)[0]
    assert np.allclose(mean, beta[0] + rows @ beta[1:], rtol=1e-9, atol=0.0)


def test_a_max_lag_of_zero_is_an_invalid_argument_not_an_empty_variogram():
    with pytest.raises(InvalidArgumentError, match="max_lag must be > 0"):
        empirical_variogram([0.0, 1.0, 3.0], [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0)], max_lag=0.0)


def test_a_max_lag_below_one_is_a_valid_distance():
    ev = empirical_variogram([0.0, 2.0], [(0.0, 0.0), (0.3, 0.0)], n_bins=1, max_lag=0.5)
    assert ev.n_pairs.tolist() == [1] and ev.semivariances.tolist() == [2.0]


def test_fit_needs_three_bins():
    ev = EmpiricalVariogram(lag_centers=np.array([1.0, 2.0]),
                            semivariances=np.array([0.5, 0.6]),
                            n_pairs=np.array([3, 4]))
    with pytest.raises(InvalidArgumentError):
        fit_exponential(ev)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_semivariance(bad):
    lags = np.linspace(1_000, 60_000, 8)
    semis = np.linspace(0.2, 1.0, 8)
    semis[3] = bad
    ev = EmpiricalVariogram(lag_centers=lags, semivariances=semis,
                            n_pairs=np.full(8, 30))
    with pytest.raises(VariogramFitError):
        fit_exponential(ev)


def random_variogram(rng, n_bins, kind):
    """Noisy exponential semivariances on equal-width bins (interior bins
    randomly dropped when there are more than 4). `kind` places the true
    model: interior nugget, nugget 0, pure nugget, or a range beyond the
    fit's upper (10 max_lag) or lower (min_lag / 10) bound."""
    width = rng.uniform(100.0, 5_000.0)
    lags = (np.arange(n_bins) + 0.5) * width
    if n_bins > 4:
        keep = rng.random(n_bins) > 0.1
        keep[[0, -1]] = True
        lags = lags[keep]
    n_pairs = np.maximum(1, (rng.uniform(5, 20, len(lags)) * lags / width).astype(int))
    max_lag = lags[-1]
    sill = rng.uniform(0.5, 20.0)
    nugget = sill * rng.uniform(0.1, 0.5)
    range_m = rng.uniform(max_lag / 10, max_lag)
    if kind == "nugget_zero":
        nugget = 0.0
    elif kind == "pure_nugget":
        sill = 0.0
    elif kind == "range_above":
        range_m = max_lag * rng.uniform(20, 200)
    elif kind == "range_below":
        range_m = lags[0] / rng.uniform(20, 200)
    truth = oracles.exponential_gamma(VariogramModel(nugget, sill, range_m), lags)
    semis = truth * (1.0 + 0.05 * rng.standard_normal(len(lags)))
    return EmpiricalVariogram(lag_centers=lags, semivariances=semis, n_pairs=n_pairs)


@pytest.mark.parametrize("n_bins", [4, 15, 200])
def test_fit_matches_multistart_oracle(n_bins):
    """The profiled fit never costs more than six bounded local starts, and
    where the true range is interior it finds the same parameters."""
    rng = np.random.default_rng(n_bins)
    for kind in ("interior", "nugget_zero", "pure_nugget", "range_above",
                 "range_below"):
        for _ in range(3):
            ev = random_variogram(rng, n_bins, kind)
            data = (ev.lag_centers, ev.semivariances, ev.n_pairs)
            fit = fit_exponential(ev)
            ref = oracles.multistart_exponential(*data)
            cost = oracles.exponential_wls_cost(
                *data, fit.nugget, fit.partial_sill, fit.range_m)
            assert cost <= oracles.exponential_wls_cost(*data, *ref) * (1 + 1e-12), kind
            if kind in ("interior", "nugget_zero"):
                sill = ref[0] + ref[1]
                assert fit.nugget == pytest.approx(ref[0], abs=1e-6 * sill), kind
                assert fit.partial_sill == pytest.approx(ref[1], rel=1e-6), kind
                assert fit.range_m == pytest.approx(ref[2], rel=1e-6), kind


def test_variogram_gamma_non_decreasing_and_zero_at_origin():
    m = VariogramModel(nugget=0.2, partial_sill=1.5, range_m=10_000.0)
    h = np.linspace(0, 100_000, 200)
    g = oracles.exponential_gamma(m, h)
    assert g[0] == 0.0
    assert np.all(np.diff(g[1:]) >= -1e-12)
    assert m.sill == pytest.approx(1.7)


def test_covariance_of_a_scalar_and_of_an_array():
    m = VariogramModel(nugget=0.1, partial_sill=4.0, range_m=5_000.0)
    h = np.array([[0.0, 3.0], [2_500.0, 1e6]])
    want = 4.0 * np.exp(-h / 5_000.0)
    got = m.covariance(h)
    assert got.shape == h.shape and np.array_equal(got, want)
    for i, d in enumerate(h.ravel()):
        scalar = m.covariance(float(d))
        assert np.ndim(scalar) == 0 and scalar == want.ravel()[i]
    assert m.covariance(np.float64(3.0)) == m.covariance(3) == want[0, 1]
    assert m.covariance(3.0) == pytest.approx(m.sill - oracles.exponential_gamma(m, 3.0))


# -- universal kriging --------------------------------------------------------------

def test_exact_interpolation_zero_nugget():
    sites, matrix, drift, coords, X, y = make_problem(seed=1, nugget=0.0)
    model = KrigingModel(variogram=VariogramModel(0.0, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    mean, var = model.predict_many(coords, X, with_variance=True)
    assert np.all(np.abs(mean - y) <= 1e-8 * (1.0 + np.abs(y)))
    assert np.all(var <= 1e-8)
    assert np.all(var >= 0.0)


def test_matches_dense_oracle():
    for seed in (3, 4):
        sites, matrix, drift, coords, X, y = make_problem(seed=seed, nugget=0.3)
        vg = VariogramModel(0.3, 4.0, 30_000.0)
        model = KrigingModel(variogram=vg, coords=coords, x_rows=X, y=y)
        rng = np.random.default_rng(seed + 100)
        for _ in range(5):
            x0, y0 = rng.uniform(0, 100_000, 2)
            x_row = rng.normal(size=3)
            got_mean, got_var = model.predict_many([[x0, y0]], [x_row], with_variance=True)
            want_mean, want_var, lam, _ = oracles.dense_uk_solve(
                coords, X, y, 0.3, 4.0, 30_000.0, x0, y0, x_row)
            assert got_mean[0] == pytest.approx(want_mean, rel=1e-6, abs=1e-9)
            assert got_var[0] == pytest.approx(want_var, rel=1e-6, abs=1e-9)


def gls_drift(model, n_cols):
    """The GLS drift [intercept, slopes] read off predict_many at the zero
    row and each unit row, 1,000 ranges past every site: the covariance
    exp(-h / a) underflows to exactly 0 there, so the kriging mean is the
    drift alone."""
    far = float(np.abs(model.coords).max()) + 1_000 * model.variogram.range_m
    d = np.hypot(far - model.coords[:, 0], far - model.coords[:, 1])
    assert not model.variogram.covariance(d).any()
    rows = np.vstack([np.zeros(n_cols), np.eye(n_cols)])
    mean, _ = model.predict_many(np.full((len(rows), 2), far), rows)
    return np.concatenate([mean[:1], mean[1:] - mean[0]])


@pytest.mark.parametrize("nugget,psill", [
    (0.0, 4.0),  # exact interpolator
    (1.0, 0.0),  # pure nugget
    (1e-7, 4e-6),  # sill far below var(y)
])
def test_gls_solve_matches_dense_oracle(nugget, psill):
    sites, matrix, drift, coords, X, y = make_problem(seed=43, nugget=0.3, noise=0.5)
    model = KrigingModel(variogram=VariogramModel(nugget, psill, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    beta = oracles.dense_uk_drift(coords, X, y, nugget, psill, 30_000.0)
    got = gls_drift(model, X.shape[1])
    assert got[0] == pytest.approx(beta[0], rel=1e-6)
    assert np.allclose(got[1:], beta[1:], rtol=1e-6, atol=0)
    rng = np.random.default_rng(143)
    pts = rng.uniform(0, 100_000, size=(6, 2))
    rows = rng.normal(size=(6, 3))
    got_mean, got_var = model.predict_many(pts, rows, with_variance=True)
    sill = nugget + psill
    for i in range(6):
        want_mean, want_var, _, _ = oracles.dense_uk_solve(
            coords, X, y, nugget, psill, 30_000.0, pts[i, 0], pts[i, 1], rows[i])
        assert got_mean[i] == pytest.approx(want_mean, rel=1e-6, abs=1e-9)
        assert got_var[i] == pytest.approx(want_var, rel=1e-6, abs=1e-9 * sill)


def test_kriging_weights_unbiasedness():
    # the dense solve's Lagrange system forces the weights to reproduce
    # the drift columns; the constant column gives sum(lambda) = 1
    sites, matrix, drift, coords, X, y = make_problem(seed=7, nugget=0.2)
    _, _, lam, _ = oracles.dense_uk_solve(coords, X, y, 0.2, 4.0, 30_000.0,
                                          55_000.0, 42_000.0, np.zeros(3))
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)


def test_pure_nugget_equals_drift_prediction():
    sites, matrix, drift, coords, X, y = make_problem(seed=5, noise=1.0, psill=0.0)
    model = KrigingModel(variogram=VariogramModel(1.0, 0.0, 10_000.0),
                         coords=coords, x_rows=X, y=y)
    rng = np.random.default_rng(55)
    pts = rng.uniform(0, 100_000, size=(10, 2))
    rows = rng.normal(size=(10, 3))
    mean, _ = model.predict_many(pts, rows)
    want = drift.intercept + rows @ drift.coefficients
    assert np.allclose(mean, want, atol=1e-6)


def test_far_field_reduces_to_adjusted_trend():
    sites, matrix, drift, coords, X, y = make_problem(seed=11, nugget=0.1)
    vg = VariogramModel(0.1, 4.0, 5_000.0)
    model = KrigingModel(variogram=vg, coords=coords, x_rows=X, y=y)
    x_far = coords[:, 0].max() + 25 * vg.range_m  # beyond 20x range
    rows = np.array([[0.3, -1.0, 0.8]])
    mean, _ = model.predict_many([[x_far, 50_000.0]], rows)
    beta = oracles.dense_uk_drift(coords, X, y, 0.1, 4.0, 5_000.0)
    assert np.allclose(gls_drift(model, X.shape[1]), beta, rtol=1e-6, atol=0)
    assert abs(mean[0] - (beta[0] + rows[0] @ beta[1:])) <= 1e-6


def test_variance_nonnegative_everywhere():
    sites, matrix, drift, coords, X, y = make_problem(seed=13, nugget=0.5)
    model = KrigingModel(variogram=VariogramModel(0.5, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    rng = np.random.default_rng(77)
    pts = rng.uniform(-50_000, 150_000, size=(50, 2))
    rows = rng.normal(size=(50, 3))
    _, var = model.predict_many(pts, rows, with_variance=True)
    assert np.all(var >= 0.0)


@pytest.mark.parametrize("coords", [np.zeros(4), np.zeros((2, 4)), np.zeros((4, 3)),
                                    np.zeros((4, 2, 1))],
                         ids=["flat", "xs-ys-rows", "three-columns", "three-dims"])
def test_predict_many_rejects_coords_not_m_by_2(coords):
    sites, matrix, drift, c, X, y = make_problem(seed=13, nugget=0.5)
    model = KrigingModel(variogram=VariogramModel(0.5, 4.0, 30_000.0),
                         coords=c, x_rows=X, y=y)
    with pytest.raises(InvalidArgumentError, match=re.escape("coords must have shape (m, 2)")):
        model.predict_many(coords, np.zeros((4, 3)))
    with pytest.raises(InvalidArgumentError, match="one row of the drift's 3 columns per point"):
        model.predict_many(np.zeros((4, 2)), np.zeros((5, 3)))


@pytest.mark.parametrize("rhs_rows,points", [
    (261, 4096),        # 250 sites and 10 drift columns: PREDICT_CHUNK, as before
    (1511, 1387),       # 1,500 sites: (16 MiB / 8 B) // 1,511 rows
    (3_000_000, 1),
])
def test_predict_block_caps_points_and_right_hand_side(rhs_rows, points):
    assert kriging._block_points(rhs_rows) == points
    assert points == kriging.PREDICT_CHUNK or points == 1 \
        or points * rhs_rows * 8 <= kriging.PREDICT_BLOCK_BYTES < (points + 1) * rhs_rows * 8


def test_blocked_prediction_matches_one_block(monkeypatch):
    sites, matrix, drift, coords, X, y = make_problem(seed=29, n=60, nugget=0.3, noise=0.2)
    model = KrigingModel(variogram=VariogramModel(0.3, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-20_000, 120_000, size=(1_000, 2))
    rows = rng.normal(size=(1_000, 3))
    mean, var = model.predict_many(pts, rows, with_variance=True)
    # 64 rows of right-hand side: blocks of 37 points, the last one short
    monkeypatch.setattr(kriging, "PREDICT_BLOCK_BYTES", 37 * 64 * 8)
    assert kriging._block_points(64) == 37
    b_mean, b_var = model.predict_many(pts, rows, with_variance=True)
    assert np.max(np.abs(b_mean - mean)) <= 1e-12 * np.max(np.abs(mean))
    assert np.max(np.abs(b_var - var)) <= 1e-12 * np.max(np.abs(var))


def test_prediction_blocks_are_the_largest_that_fit_the_bytes(monkeypatch):
    """`predict_many` sizes its blocks by the right-hand side's own row
    count, n sites + 1 + p drift columns: 64 rows here, so 100 points go in
    blocks of 37, 37 and 26 under a cap of 37 x 64 rows of 8 bytes."""
    sites, matrix, drift, coords, X, y = make_problem(seed=29, n=60, nugget=0.3, noise=0.2)
    model = KrigingModel(variogram=VariogramModel(0.3, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    sizes, block = [], KrigingModel._block

    def counted(self, coords, x_rows, whiten):
        sizes.append(len(coords))
        return block(self, coords, x_rows, whiten)
    monkeypatch.setattr(KrigingModel, "_block", counted)
    monkeypatch.setattr(kriging, "PREDICT_BLOCK_BYTES", 37 * 64 * 8)
    rng = np.random.default_rng(5)
    model.predict_many(rng.uniform(0, 100_000, (100, 2)), rng.normal(size=(100, 3)))
    assert sizes == [37, 37, 26]


def test_uk_fit_permutation_invariance():
    sites, matrix, drift, coords, X, y = make_problem(seed=17, nugget=0.2, noise=0.5)
    model = uk_fit(drift, sites, matrix.select(drift.selected))
    perm = np.random.default_rng(3).permutation(len(y))
    sites_p = sites.subset(perm)
    matrix_p = matrix.subset_rows(perm)
    drift_p = ols_fit(matrix_p.select(drift.selected), sites_p.annual_mean, drift.selected)
    model_p = uk_fit(drift_p, sites_p, matrix_p.select(drift_p.selected))
    assert model_p.variogram.nugget == pytest.approx(model.variogram.nugget, rel=1e-6, abs=1e-12)
    assert model_p.variogram.range_m == pytest.approx(model.variogram.range_m, rel=1e-6)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 100_000, size=(8, 2))
    rows = rng.normal(size=(8, 3))
    m1, _ = model.predict_many(pts, rows)
    m2, _ = model_p.predict_many(pts, rows)
    assert np.allclose(m1, m2, rtol=1e-8, atol=1e-8)


def test_uk_fit_zero_residuals_reduces_to_drift():
    rng = np.random.default_rng(23)
    coords = rng.uniform(0, 50_000, size=(25, 2))
    X = rng.normal(size=(25, 2))
    y = 5.0 + X @ np.array([2.0, -1.0])  # exact linear, zero residuals
    names = ["a", "b"]
    matrix = CovariateMatrix([f"s{i}" for i in range(25)], names, X)
    sites = table_from(coords, y)
    drift = ols_fit(matrix.select(names), y, names)
    model = uk_fit(drift, sites, matrix.select(drift.selected))
    assert model.variogram.partial_sill <= 1e-8
    rows = rng.normal(size=(6, 2))
    pts = rng.uniform(0, 50_000, size=(6, 2))
    mean, _ = model.predict_many(pts, rows)
    assert np.allclose(mean, 5.0 + rows @ np.array([2.0, -1.0]), atol=1e-6)


def test_uk_fit_residual_variogram_tracks_generated_field():
    # single-covariate drift on linear + GRF data: the fitted residual
    # variogram should land near the generating parameters
    psill, range_m = 9.0, 60_000.0
    sills, ranges = [], []
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        coords = rng.uniform(0, 400_000, size=(300, 2))
        X = rng.normal(size=(300, 1))
        grf = simulate_grf(coords, 0.0, psill, range_m, rng)
        y = 30.0 + 4.0 * X[:, 0] + grf
        matrix = CovariateMatrix([f"s{i}" for i in range(300)], ["a"], X)
        sites = table_from(coords, y)
        drift = ols_fit(X, y, ["a"])
        model = uk_fit(drift, sites, matrix.select(drift.selected))
        sills.append(model.variogram.sill)
        ranges.append(model.variogram.range_m)
    assert 0.5 * psill <= np.median(sills) <= 2.0 * psill
    assert 0.4 * range_m <= np.median(ranges) <= 2.5 * range_m


def test_uk_fit_rejects_foreign_drift():
    sites, matrix, drift, *_ = make_problem(seed=29, noise=1.0)
    other_sites, other_matrix, *_ = make_problem(seed=30, noise=1.0)
    with pytest.raises(InvalidArgumentError, match="not trained"):
        uk_fit(drift, other_sites, other_matrix.select(drift.selected))


def test_uk_fit_averages_duplicate_coordinates(caplog):
    rng = np.random.default_rng(31)
    coords = rng.uniform(0, 20_000, size=(20, 2))
    coords[5] = coords[4]  # exact duplicate
    X = rng.normal(size=(20, 1))
    X[5] = X[4]
    y = 3.0 + 1.5 * X[:, 0] + rng.normal(0, 0.5, 20)
    matrix = CovariateMatrix([f"s{i}" for i in range(20)], ["a"], X)
    sites = table_from(coords, y)
    drift = ols_fit(X, y, ["a"])
    import logging

    with caplog.at_level(logging.WARNING):
        model = uk_fit(drift, sites, matrix.select(drift.selected))
    assert model.n_sites == 19
    assert "averaging" in caplog.text


def test_singular_system_reports_duplicates():
    rng = np.random.default_rng(37)
    coords = rng.uniform(0, 10_000, size=(10, 2))
    coords[3] = coords[2]
    X = rng.normal(size=(10, 1))
    X[3] = X[2]  # colocated twin with the same drift row: truly singular
    y = rng.normal(size=10)
    with pytest.raises(SingularKrigingError, match=r"\(1 duplicate site pair"):
        KrigingModel(variogram=VariogramModel(0.0, 1.0, 5_000.0),
                     coords=coords, x_rows=X, y=y)


def test_collinear_drift_is_singular():
    sites, matrix, drift, coords, X, y = make_problem(seed=47, nugget=0.3)
    X = np.column_stack([X, 2.0 * X[:, 0] - X[:, 2]])
    for vg in (VariogramModel(0.3, 4.0, 30_000.0), VariogramModel(0.0, 4.0, 30_000.0)):
        with pytest.raises(SingularKrigingError, match="0 duplicate site pair"):
            KrigingModel(variogram=vg, coords=coords, x_rows=X, y=y)


@pytest.mark.parametrize("bad_coord", [np.nan, np.inf])
def test_non_finite_covariance_is_singular(bad_coord):
    sites, matrix, drift, coords, X, y = make_problem(seed=53, nugget=0.3)
    coords = coords.copy()
    coords[4, 0] = bad_coord
    with pytest.raises(SingularKrigingError, match="0 duplicate site pair"):
        KrigingModel(variogram=VariogramModel(0.3, 4.0, 30_000.0),
                     coords=coords, x_rows=X, y=y)


@pytest.mark.parametrize("name", ["nugget", "partial_sill", "range_m"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1.0", True])
def test_variogram_rejects_non_finite_parameters(name, bad):
    params = {"nugget": 0.3, "partial_sill": 4.0, "range_m": 30_000.0, name: bad}
    with pytest.raises(InvalidArgumentError,
                       match=re.escape(f"variogram {name} must be a finite number, got {bad!r}")):
        VariogramModel(**params)


def test_kriging_model_json_round_trip():
    sites, matrix, drift, coords, X, y = make_problem(seed=41, nugget=0.2, noise=0.5)
    model = uk_fit(drift, sites, matrix.select(drift.selected))
    d = json.loads(json.dumps(plain(model)))
    assert sorted(d) == ["coords", "variogram", "x_rows", "y"]
    back = KrigingModel(**{**d, "variogram": VariogramModel(**d["variogram"])})
    pts = np.random.default_rng(5).uniform(0, 100_000, size=(5, 2))
    rows = np.random.default_rng(6).normal(size=(5, 3))
    m1, v1 = model.predict_many(pts, rows, with_variance=True)
    m2, v2 = back.predict_many(pts, rows, with_variance=True)
    assert np.allclose(m1, m2, atol=1e-12)
    assert np.allclose(v1, v2, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_in_place_rhs_matches_the_copying_oracle_bit_for_bit(monkeypatch, chunk):
    sites, matrix, drift, coords, X, y = make_problem(seed=21, nugget=0.2)
    model = KrigingModel(variogram=VariogramModel(0.2, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    rng = np.random.default_rng(121)
    m = 2 * chunk + 3 if chunk < 4096 else 5000  # whole blocks and a partial one
    pts = rng.uniform(0, 100_000, size=(m, 2))
    rows = rng.normal(size=(m, 3))
    monkeypatch.setattr(kriging, "PREDICT_CHUNK", chunk)
    got = model.predict_many(pts, rows, with_variance=True)
    monkeypatch.setattr(KrigingModel, "_block", oracles.copying_kriging_block)
    want = model.predict_many(pts, rows, with_variance=True)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_the_mean_has_the_same_bits_with_and_without_the_variance():
    sites, matrix, drift, coords, X, y = make_problem(seed=23, nugget=0.3)
    model = KrigingModel(variogram=VariogramModel(0.3, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    rng = np.random.default_rng(123)
    pts, rows = rng.uniform(0, 100_000, size=(5000, 2)), rng.normal(size=(5000, 3))
    mean, var = model.predict_many(pts, rows)
    assert var is None
    assert np.array_equal(mean, model.predict_many(pts, rows, with_variance=True)[0])


def test_a_flat_drift_row_is_rejected_by_the_shape_check():
    sites, matrix, drift, coords, X, y = make_problem(seed=13, nugget=0.5)
    model = KrigingModel(variogram=VariogramModel(0.5, 4.0, 30_000.0),
                         coords=coords, x_rows=X, y=y)
    with pytest.raises(InvalidArgumentError, match=re.escape("per point, not shape (3,)")):
        model.predict_many(np.zeros((1, 2)), np.zeros(3))


@pytest.mark.parametrize("coords,x_rows,y", [
    (np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)),
    (np.eye(5, 2), np.zeros(5), np.arange(5.0)),         # flat drift rows
    (np.eye(5, 2), np.zeros((5, 0)), np.zeros((5, 1))),  # a column of y
], ids=["zero-sites", "flat-x-rows", "column-y"])
def test_degenerate_training_arrays_are_rejected(coords, x_rows, y):
    with pytest.raises(InvalidArgumentError, match="need >= 1 site and consistent shapes"):
        KrigingModel(VariogramModel(0.1, 1.0, 1000.0), coords, x_rows, y)
