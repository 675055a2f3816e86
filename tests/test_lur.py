import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurk.covariates import CovariateMatrix
from lurk.errors import (
    EmptyModelError,
    InvalidArgumentError,
    SingularDesignError,
    ZeroVarianceError,
)
from lurk.lur import (
    LinearModel,
    StepwiseConfig,
    _pls1_path,
    mean_model,
    morans_i,
    ols_fit,
    pls_fit,
    stepwise_select,
)
from lurk.synth import SyntheticScenario, generate_synthetic
from lurk._util import plain

import oracles


def matrix_of(X, names=None):
    X = np.asarray(X, dtype=np.float64)
    names = names or [f"x{j}" for j in range(X.shape[1])]
    return CovariateMatrix.from_values([f"s{i}" for i in range(len(X))], names, X)


# -- OLS -----------------------------------------------------------------------

def test_ols_exact_linear_fit():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    y = 3.0 + 2.0 * X[:, 0] - 1.5 * X[:, 1]
    fit = ols_fit(X, y)
    assert fit.r2 == pytest.approx(1.0)
    assert np.allclose(fit.residuals, 0.0, atol=1e-10)
    assert fit.intercept == pytest.approx(3.0)
    assert np.allclose(fit.coefficients, [2.0, -1.5])


def test_adjusted_r2_formula_case():
    # single column, n = 11, engineered so r2 is exactly 0.5
    n = 11
    x = np.arange(n, dtype=float)
    xc = x - x.mean()
    rng = np.random.default_rng(5)
    e = rng.normal(size=n)
    e -= e.mean()
    e -= (e @ xc) / (xc @ xc) * xc  # orthogonal to [1, x]
    e *= np.linalg.norm(xc) / np.linalg.norm(e)
    y = xc + e
    fit = ols_fit(x[:, None], y)
    assert fit.r2 == pytest.approx(0.5, abs=1e-12)
    assert fit.adj_r2 == pytest.approx(1.0 - 0.5 * 10 / 9, abs=1e-12)
    assert fit.adj_r2 == pytest.approx(0.444444444444, abs=1e-9)


def test_ols_matches_normal_equations():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 3))
    y = 1.0 + X @ np.array([0.5, -2.0, 0.1]) + rng.normal(0, 0.8, 50)
    fit = ols_fit(X, y)
    want = oracles.normal_equations_ols(X, y)
    assert fit.intercept == pytest.approx(want["intercept"], abs=1e-8)
    assert np.allclose(fit.coefficients, want["coefficients"], atol=1e-8)
    assert fit.r2 == pytest.approx(want["r2"], abs=1e-10)
    assert np.allclose(fit.p_values, want["p_values"], atol=1e-10)


def test_ols_rank_deficiency_names_columns():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=40)
    X = np.column_stack([x0, 2.0 * x0, rng.normal(size=40)])
    with pytest.raises(SingularDesignError) as err:
        ols_fit(X, rng.normal(size=40), names=["a", "b", "c"])
    assert err.value.dependent_columns


def test_ols_requires_enough_rows():
    with pytest.raises(InvalidArgumentError):
        ols_fit(np.ones((3, 3)), np.arange(3.0))


# -- stepwise ---------------------------------------------------------------------

def test_stepwise_picks_most_correlated_first():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 5))
    y = 2.0 * X[:, 3] + rng.normal(0, 1e-6, 60)
    model = stepwise_select(matrix_of(X), y)
    assert model.selected[0] == "x3"


def test_stepwise_never_enters_duplicate():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(50, 3))
    X = np.column_stack([base, base[:, 0]])  # x3 duplicates x0
    y = base @ np.array([2.0, 1.0, -1.0]) + rng.normal(0, 0.3, 50)
    model = stepwise_select(matrix_of(X), y)
    assert not {"x0", "x3"} <= set(model.selected)


def test_stepwise_matches_exhaustive_oracle():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        mix = rng.normal(size=(8, 8)) * 0.4 + np.eye(8)
        X = rng.normal(size=(60, 8)) @ mix
        beta = np.zeros(8)
        beta[rng.choice(8, 3, replace=False)] = rng.normal(0, 2.0, 3)
        y = 5.0 + X @ beta + rng.normal(0, 1.0, 60)
        names = [f"x{j}" for j in range(8)]
        model = stepwise_select(matrix_of(X, names), y)
        want = oracles.exhaustive_stepwise(X, names, y)
        assert list(model.selected) == want["selected"], f"seed {seed}"
        assert np.allclose(model.coefficients, want["coefficients"], atol=1e-8)
        assert model.intercept == pytest.approx(want["intercept"], abs=1e-8)


@pytest.mark.parametrize("vif_max,p_max,min_gain",
                         [(5.0, 0.05, 0.005), (2.5, 0.01, 0.0), (10.0, 0.2, 0.02)])
def test_stepwise_matches_exhaustive_oracle_wide(vif_max, p_max, min_gain):
    # 30 correlated columns, so that several enter and, in a few instances,
    # the no-sign-flip rule changes the path.
    cfg = StepwiseConfig(vif_max=vif_max, p_max=p_max, min_adj_r2_gain=min_gain)
    names = [f"x{j}" for j in range(30)]
    for seed in range(12):
        rng = np.random.default_rng(500 + seed)
        mix = np.eye(30) + 0.5 * rng.normal(size=(30, 30))
        X = rng.normal(size=(120, 30)) @ mix
        beta = np.zeros(30)
        beta[rng.choice(30, 6, replace=False)] = rng.normal(0, 1.5, 6)
        y = 2.0 + X @ beta + rng.normal(0, 1.0, 120)
        model = stepwise_select(matrix_of(X, names), y, cfg)
        want = oracles.exhaustive_stepwise(X, names, y, vif_max=vif_max,
                                           p_max=p_max, min_gain=min_gain)
        assert len(model.selected) >= 3, f"seed {seed}"
        assert list(model.selected) == want["selected"], f"seed {seed}"
        assert np.allclose(model.coefficients, want["coefficients"], atol=1e-8)
        assert model.intercept == pytest.approx(want["intercept"], abs=1e-8)


def test_stepwise_deterministic():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(70, 6))
    y = X[:, 1] - X[:, 4] + rng.normal(0, 0.5, 70)
    m1 = stepwise_select(matrix_of(X), y)
    m2 = stepwise_select(matrix_of(X), y)
    assert m1.selected == m2.selected
    assert np.array_equal(m1.coefficients, m2.coefficients)


def test_stepwise_admissibility_invariants():
    rng = np.random.default_rng(17)
    cfg = StepwiseConfig()
    X = rng.normal(size=(80, 10)) @ (np.eye(10) + 0.3 * rng.normal(size=(10, 10)))
    y = X[:, 0] + 0.8 * X[:, 5] - 0.5 * X[:, 7] + rng.normal(0, 1.0, 80)
    model = stepwise_select(matrix_of(X), y, cfg)
    # final signs match entry signs
    assert np.array_equal(np.sign(model.coefficients), model.entry_signs)
    # entry p-values and entry VIFs pass their caps; adj_r2 non-decreasing
    assert all(p < cfg.p_max for p in model.config["entry_p_values"])
    names = list(model.selected)
    idx = {n: j for j, n in enumerate(names)}
    prev_adj = -np.inf
    for k in range(1, len(names) + 1):
        sub = [f"x{int(n[1:])}" for n in names[:k]]
        cols = [int(n[1:]) for n in sub]
        fit = ols_fit(X[:, cols], y)
        assert fit.adj_r2 >= prev_adj - 1e-12
        prev_adj = fit.adj_r2
        entering = cols[-1]
        if k > 1:
            assert oracles.direct_vif(X[:, entering], X[:, cols[:-1]]) < cfg.vif_max
    assert idx  # silence linters


def test_stepwise_no_admissible_first_variable():
    rng = np.random.default_rng(40)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)  # pure noise: best candidate should fail p-test
    # guard: if by chance admissible, re-seed; seed 40 verified to fail entry
    with pytest.raises(EmptyModelError):
        stepwise_select(matrix_of(X), y, StepwiseConfig(p_max=1e-6))


def test_stepwise_perfect_fit_enters_with_p_zero_and_stops_with_no_candidate_left():
    x = np.arange(5.0)
    model = stepwise_select(matrix_of(x[:, None]), 2.0 * x)
    assert model.selected == ("x0",) and model.config["entry_p_values"] == [0.0]
    assert model.coefficients == pytest.approx([2.0])


def test_stepwise_zero_variance_response():
    X = np.random.default_rng(1).normal(size=(30, 3))
    with pytest.raises(ZeroVarianceError):
        stepwise_select(matrix_of(X), np.ones(30))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 100.0), st.integers(0, 10_000))
def test_stepwise_scale_invariance(scale, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 5))
    y = 1.5 * X[:, 2] - X[:, 0] + rng.normal(0, 0.5, 50)
    base = stepwise_select(matrix_of(X), y)
    X2 = X.copy()
    X2[:, 2] = X2[:, 2] * scale
    scaled = stepwise_select(matrix_of(X2), y)
    assert scaled.selected == base.selected
    for name, c_base, c_scaled in zip(base.selected, base.coefficients,
                                      scaled.coefficients):
        expect = c_base / scale if name == "x2" else c_base
        assert c_scaled == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("factor", [2.51, 0.37])
def test_stepwise_tie_goes_to_the_lower_column_in_either_order(factor):
    # A sparse column and a multiple of it, like two buffer radii that each
    # reach the same few features: their adjusted R2 tie exactly in exact
    # arithmetic and to ~1e-15 in floating point.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(60, 3))
        a = np.zeros(60)
        a[rng.choice(60, 6, replace=False)] = rng.uniform(1.0, 3.0, 6)
        y = base[:, 0] + 2.0 * a + rng.normal(0, 0.3, 60)
        for pair in ((a, factor * a), (factor * a, a)):
            X = np.column_stack([base, *pair])
            model = stepwise_select(matrix_of(X, ["b0", "b1", "b2", "first", "second"]), y)
            assert "first" in model.selected and "second" not in model.selected, seed


@pytest.fixture(scope="module")
def national_matrix():
    """One 1,200-site synthetic matrix with the full 291 covariates."""
    data = generate_synthetic(SyntheticScenario(
        seed=5, covariate_set="full", n_sites=1200, n_clusters=36, extent_x=1_600_000.0,
        extent_y=1_000_000.0, cluster_sd_m=15_000.0, prediction_cols=10, prediction_rows=10))
    return data.matrix, data.sites.annual_mean


def test_cross_product_fits_match_their_references(national_matrix):
    # Stepwise against the QR-scored selection it replaced (same columns and,
    # through the shared `ols_fit` refit, the same coefficient bits); PLS
    # against the data-form fit it replaced. In four of the n = 60 subsets
    # two proportional ladder columns tie for entry; without the tie rule
    # the two scorings break that tie differently.
    matrix, y = national_matrix
    rng = np.random.default_rng(15)
    for n, subsets in ((60, 40), (150, 8), (225, 6), (500, 3), (1000, 2)):
        for i in range(subsets):
            rows = np.sort(rng.choice(matrix.n_sites, n, replace=False))
            sub, ys = matrix.subset_rows(rows), y[rows]
            got, want = stepwise_select(sub, ys), oracles.qr_stepwise_select(sub, ys)
            assert got.selected == want.selected, (n, i)
            assert got.intercept == want.intercept and \
                np.array_equal(got.coefficients, want.coefficients), (n, i)
            k = min(10, int(np.sum(~sub.zero_variance)), n - 1)
            pls, pls_want = pls_fit(sub, ys, k, seed=i), oracles.data_pls_fit(sub, ys, k, seed=i)
            assert pls.n_components == pls_want.n_components, (n, i)
            pred, pred_want = oracles.pls_predict(pls, sub), oracles.pls_predict(pls_want, sub)
            assert np.max(np.abs(pred - pred_want)) <= 1e-10 * np.max(np.abs(pred_want)), (n, i)


def test_mean_model():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    m = mean_model(y)
    assert m.intercept == pytest.approx(3.0)
    assert m.predict(np.empty((2, 0))).tolist() == [3.0, 3.0]


def test_linear_model_json_round_trip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 4))
    y = X[:, 0] + rng.normal(0, 0.4, 40)
    model = stepwise_select(matrix_of(X), y)
    back = LinearModel(**json.loads(json.dumps(plain(model))))
    assert back.selected == model.selected
    assert np.array_equal(back.coefficients, model.coefficients)
    assert np.array_equal(back.residuals, model.residuals)
    assert back.config == model.config


# -- PLS ---------------------------------------------------------------------------

def test_pls_full_rank_equals_ols():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5))
    y = X @ np.array([1.0, -0.5, 0.2, 0.0, 0.7]) + rng.normal(0, 0.5, 40)
    model = pls_fit(matrix_of(X), y, max_components=5)
    pred = oracles.pls_predict(model, X, k=model.rotations.shape[1])
    ols = ols_fit(X, y)
    assert np.allclose(pred, y - ols.residuals, atol=1e-6)


def test_pls_single_column_equals_simple_regression():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    y = 2.0 + 3.0 * x + rng.normal(0, 0.2, 30)
    model = pls_fit(matrix_of(x[:, None]), y, max_components=1)
    ols = ols_fit(x[:, None], y)
    assert np.allclose(oracles.pls_predict(model, x[:, None]), y - ols.residuals, atol=1e-8)


def test_pls_matches_from_scratch_reimplementation():
    rng = np.random.default_rng(19)
    latent = rng.normal(size=(100, 2))
    load = rng.normal(size=(2, 10))
    X = latent @ load + 0.2 * rng.normal(size=(100, 10))
    y = latent @ np.array([2.0, -1.0]) + 0.3 * rng.normal(size=100)
    model = pls_fit(matrix_of(X), y, max_components=6, seed=0)
    predict_ref, k_ref = oracles.nipals_pls1(X, y, 6)
    for k in range(1, min(6, k_ref) + 1):
        assert np.allclose(oracles.pls_predict(model, X, k=k), predict_ref(X, k), atol=1e-6)


def test_pls_scores_orthogonal():
    rng = np.random.default_rng(25)
    X = rng.normal(size=(50, 8))
    y = X[:, 0] + 0.5 * X[:, 3] + rng.normal(0, 0.4, 50)
    model = pls_fit(matrix_of(X), y, max_components=5)
    T = oracles.pls_standardized(model, X) @ model.rotations
    gram = T.T @ T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(gram))


def test_pls_column_scaling_invariance():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(60, 6))
    y = X[:, 1] - X[:, 2] + rng.normal(0, 0.3, 60)
    f1 = pls_fit(matrix_of(X), y, max_components=4, seed=1)
    X2 = X * np.array([1.0, 250.0, 0.004, 1.0, 1.0, 1.0])
    f2 = pls_fit(matrix_of(X2), y, max_components=4, seed=1)
    assert np.allclose(oracles.pls_predict(f1, X), oracles.pls_predict(f2, X2), atol=1e-8)
    assert f1.n_components == f2.n_components


def test_pls_zero_variance_y():
    X = np.random.default_rng(0).normal(size=(20, 3))
    with pytest.raises(ZeroVarianceError):
        pls_fit(matrix_of(X), np.full(20, 7.0), max_components=2)


def test_pls_parsimonious_selection_two_latent_factors():
    chosen = []
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        latent = rng.normal(size=(100, 2))
        load = rng.normal(size=(2, 10))
        X = latent @ load + 0.3 * rng.normal(size=(100, 10))
        y = latent @ np.array([2.0, -1.5]) + 0.5 * rng.normal(size=100)
        fit = pls_fit(matrix_of(X), y, max_components=8, seed=seed)
        chosen.append(fit.n_components)
    assert sum(1 for k in chosen if k <= 4) >= 9


def pls_oracle_cases():
    """(X0, y0, max_k) cases: generic designs, a rank-3 design, and an
    orthogonal design on which the signal runs out after one component."""
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        n, p = 60, 12
        if seed % 3 == 1:
            X = rng.normal(size=(n, 3)) @ rng.normal(size=(3, p))
        elif seed % 3 == 2:
            Z = rng.normal(size=(n, p))
            X = np.linalg.qr(Z - Z.mean(axis=0))[0]
        else:
            latent = rng.normal(size=(n, 3))
            X = latent @ rng.normal(size=(3, p)) + 0.3 * rng.normal(size=(n, p))
        X0 = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        y = X0[:, :4] @ rng.normal(size=4) + 0.5 * rng.normal(size=n)
        yield seed, X0, y - y.mean(), 8


def test_pls_path_matches_deflation_oracle():
    counts = set()
    for seed, X0, y0, max_k in pls_oracle_cases():
        q, rotations = _pls1_path(X0.T @ X0, X0.T @ y0, max_k)
        _, _, want_q, want_rotations = oracles.deflation_pls1_path(X0, y0, max_k)
        assert rotations.shape == want_rotations.shape, seed
        counts.add(rotations.shape[1])
        for name, g, w in (("q", q, want_q), ("rotations", rotations, want_rotations)):
            assert np.linalg.norm(g - w) <= 1e-10 * np.linalg.norm(w), (seed, name)
    assert {1, 3, 8} <= counts  # signal exhausted, rank reached, max_k reached


def test_pls_scales_a_constant_column_by_one():
    # down the columns of a matrix, 40 x 0.1 sums to a mean just off 0.1
    # and a std of ~4e-17; that std as its scale would map 0.1 to -0.987
    # and 0.2 to ~2e15
    rng = np.random.default_rng(45)
    X = np.column_stack([rng.normal(size=(40, 4)), np.full(40, 0.1)])
    y = X[:, 0] - X[:, 2] + rng.normal(0, 0.3, 40)
    model = pls_fit(matrix_of(X), y, max_components=3)
    assert matrix_of(X).zero_variance.tolist() == [False] * 4 + [True]
    assert model.x_scale[4] == 1.0
    assert np.all(np.abs(model.transform(X)) < 1e3)
    moved = X.copy()
    moved[:, 4] = 0.2
    assert np.allclose(oracles.pls_predict(model, moved), oracles.pls_predict(model, X),
                       rtol=0, atol=1e-12)
    without = pls_fit(matrix_of(X[:, :4]), y, max_components=3)
    assert model.n_components == without.n_components
    assert np.allclose(oracles.pls_predict(model, X), oracles.pls_predict(without, X[:, :4]),
                       rtol=0, atol=1e-10)


# -- Moran's I ------------------------------------------------------------------------

def test_morans_expected_value():
    rng = np.random.default_rng(44)
    coords = rng.uniform(0, 10_000, size=(11, 2))
    res = morans_i(rng.normal(size=11), coords)
    assert res.expected_i == pytest.approx(-0.1)


def test_morans_zero_variance():
    coords = np.random.default_rng(1).uniform(0, 1000, (5, 2))
    with pytest.raises(ZeroVarianceError):
        morans_i(np.full(5, 2.0), coords)


def test_morans_gradient_positive_and_matches_double_sum():
    xs, ys = np.meshgrid(np.arange(5) * 1_000.0, np.arange(5) * 1_000.0)
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    residuals = coords[:, 0] / 1_000.0 + coords[:, 1] / 2_000.0
    res = morans_i(residuals, coords)
    assert res.i > 0
    want = oracles.moran_double_sum(residuals, coords)
    assert res.i == pytest.approx(want, rel=1e-10)


def test_morans_needs_three_sites():
    with pytest.raises(InvalidArgumentError):
        morans_i([1.0, 2.0], [(0, 0), (1, 1)])


def test_morans_coincident_sites_capped_not_error():
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [5_000.0, 0.0], [0.0, 5_000.0]])
    res = morans_i([1.0, 2.0, 3.0, 4.0], coords, min_distance=1_000.0)
    assert np.isfinite(res.i)
