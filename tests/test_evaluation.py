import numpy as np
import pytest

from lurk.covariates import CovariateMatrix
from lurk.errors import FoldError, InvalidArgumentError, ZeroVarianceError
from lurk.evaluation import (
    CvPlan,
    MonteCarloResult,
    kfold_plan,
    logo_plan,
    monte_carlo_curve,
    r2_mse,
    rmse,
    run_cv,
)
from lurk.kriging import uk_fit
from lurk.lur import StepwiseConfig, stepwise_select
from lurk.monitors import MonitorTable
from lurk.recipes import ModelRecipe
from lurk.synth import SyntheticScenario, generate_synthetic
from lurk._util import read_table, stage_seed

from scipy.spatial.distance import cdist


# -- metrics -------------------------------------------------------------------

def test_r2_identity():
    obs = np.array([1.0, 2.0, 3.0])
    assert r2_mse(obs, obs) == 1.0


def test_r2_mean_predictor_is_zero():
    obs = np.array([1.0, 2.0, 3.0, 10.0])
    pred = np.full(4, obs.mean())
    assert r2_mse(obs, pred) == pytest.approx(0.0)


def test_r2_anti_prediction():
    assert r2_mse([0.0, 2.0], [2.0, 0.0]) == pytest.approx(-3.0)


def test_r2_zero_variance_errors():
    with pytest.raises(ZeroVarianceError):
        r2_mse([2.0, 2.0], [1.0, 3.0])


def test_rmse():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


# -- fold plans -------------------------------------------------------------------

def test_kfold_sizes_differ_by_at_most_one():
    ids = [f"s{i}" for i in range(23)]
    plan = kfold_plan(ids, 10, seed=0)
    sizes = [list(plan.fold_of.values()).count(lbl) for lbl in set(plan.fold_of.values())]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 23
    assert set(plan.fold_of) == set(ids)


def test_kfold_seed_reproducible():
    ids = [f"s{i}" for i in range(40)]
    assert kfold_plan(ids, 5, seed=9).fold_of == kfold_plan(ids, 5, seed=9).fold_of
    assert kfold_plan(ids, 5, seed=9).fold_of != kfold_plan(ids, 5, seed=10).fold_of


def _table(coords, y, province=None, city=None):
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    return MonitorTable(
        site_ids=tuple(f"s{i}" for i in range(n)),
        x=coords[:, 0], y=coords[:, 1],
        province=tuple(province or ["p"] * n),
        city=tuple(city or ["c"] * n),
        annual_mean=np.asarray(y, dtype=float),
        n_valid_days=np.full(n, 365), n_calendar_days=np.full(n, 365),
    )


def test_logo_requires_two_groups():
    t = _table([(0, 0), (1, 1)], [1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        logo_plan(t, "province")


def test_logo_groups_by_key():
    t = _table([(0, 0), (1, 1), (2, 2)], [1.0, 2.0, 3.0],
               province=["a", "a", "b"], city=["x", "y", "z"])
    plan = logo_plan(t, "province")
    assert sorted(set(plan.fold_of.values())) == ["a", "b"]
    plan_c = logo_plan(t, "city")
    assert sorted(set(plan_c.fold_of.values())) == ["x", "y", "z"]


# -- run_cv ------------------------------------------------------------------------

def mini_data(seed=0, **kw):
    sc = SyntheticScenario(seed=seed, n_sites=kw.pop("n_sites", 120),
                           n_clusters=kw.pop("n_clusters", 8), **kw)
    data = generate_synthetic(sc)
    return data


def test_intercept_only_recipe_predicts_fold_mean():
    rng = np.random.default_rng(2)
    data = mini_data(seed=5, grf_partial_sill=0.0, noise_sd=3.0)
    plan = kfold_plan(data.sites.site_ids, 5, seed=1)
    res = run_cv(ModelRecipe(selection="mean"), data.sites, data.matrix, plan)
    labels = np.array([plan.fold_of[s] for s in data.sites.site_ids])
    for lbl in set(labels):
        train_mean = data.sites.annual_mean[labels != lbl].mean()
        assert np.allclose(res.predicted[labels == lbl], train_mean)
    assert -0.6 < res.r2_mse < 0.2
    assert rng is not None


def test_logo_with_single_group_rejected():
    data = mini_data(seed=6, n_clusters=2, n_sites=30)
    plan = CvPlan(scheme="leave_one_group_out",
                  fold_of={s: "only" for s in data.sites.site_ids})
    with pytest.raises(FoldError):
        run_cv(ModelRecipe(selection="mean"), data.sites, data.matrix, plan)


def test_run_cv_matches_scripted_folds():
    data = mini_data(seed=9, n_sites=90, grf_partial_sill=16.0,
                     grf_range_m=150_000.0, noise_sd=1.0)
    plan = kfold_plan(data.sites.site_ids, 5, seed=3)
    recipe = ModelRecipe(selection="stepwise", kriging=True)
    res = run_cv(recipe, data.sites, data.matrix, plan, seed=42)

    # scripted rerun through the public operations, fold by fold
    labels = np.array([plan.fold_of[s] for s in data.sites.site_ids])
    pred = np.empty(len(data.sites))
    for lbl in sorted(set(labels)):
        train = np.flatnonzero(labels != lbl)
        test = np.flatnonzero(labels == lbl)
        sub_sites = data.sites.subset(train)
        sub_matrix = data.matrix.subset_rows(train)
        trend = stepwise_select(sub_matrix, sub_sites.annual_mean, StepwiseConfig())
        krig = uk_fit(trend, sub_sites, sub_matrix)
        rows = data.matrix.subset_rows(test).select(trend.selected)
        mean, _ = krig.predict_many(data.sites.x[test], data.sites.y[test], rows)
        pred[test] = mean
    assert np.allclose(res.predicted, pred, rtol=1e-10, atol=1e-10)
    assert res.r2_mse == pytest.approx(r2_mse(data.sites.annual_mean, pred))


def test_no_leakage_from_test_responses():
    data = mini_data(seed=11, n_sites=80)
    plan = kfold_plan(data.sites.site_ids, 4, seed=7)
    recipe = ModelRecipe(selection="stepwise", kriging=True)
    res1 = run_cv(recipe, data.sites, data.matrix, plan, seed=1)
    labels = np.array([plan.fold_of[s] for s in data.sites.site_ids])
    target = sorted(set(labels))[0]
    tampered = data.sites.annual_mean.copy()
    # corrupt held-out responses only, mildly enough that the other folds
    # (whose training sets include these sites) still fit
    tampered[labels == target] += 8.0
    sites2 = MonitorTable(
        site_ids=data.sites.site_ids, x=data.sites.x, y=data.sites.y,
        province=data.sites.province, city=data.sites.city,
        annual_mean=tampered, n_valid_days=data.sites.n_valid_days,
        n_calendar_days=data.sites.n_calendar_days,
    )
    res2 = run_cv(recipe, sites2, data.matrix, plan, seed=1)
    mask = labels == target
    assert np.array_equal(res1.predicted[mask], res2.predicted[mask])


def test_cv_csv_and_summary(tmp_path):
    data = mini_data(seed=13, n_sites=60)
    plan = kfold_plan(data.sites.site_ids, 3, seed=2)
    res = run_cv(ModelRecipe(selection="stepwise"), data.sites, data.matrix, plan)
    path = tmp_path / "cv.csv"
    res.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "site_id,fold,observed,predicted,nn_distance_m"
    s = res.summary()
    assert set(s["per_fold"]) == set(plan.fold_of.values())
    assert s["n_sites"] == 60


# -- nearest-training-neighbor distances ----------------------------------------------

def _nn_distances(t, plan):
    """`nn_distance_m` of an intercept-only CV over a matrix with no columns."""
    matrix = CovariateMatrix.from_values(t.site_ids, [], np.empty((len(t), 0)))
    return run_cv(ModelRecipe(selection="mean"), t, matrix, plan).nn_distance_m


def test_nn_two_sites_two_folds():
    # three monitors at each of two sites: every fold keeps >= 3 training sites
    t = _table([(0.0, 0.0)] * 3 + [(3.0, 4.0)] * 3, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    plan = CvPlan(scheme="kfold", fold_of={f"s{i}": "ab"[i // 3] for i in range(6)})
    assert _nn_distances(t, plan).tolist() == [5.0] * 6


def test_nn_singleton_fold():
    t = _table([(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (20.0, 0.0), (30.0, 0.0)],
               [1, 2, 3, 4, 5])
    plan = CvPlan(scheme="kfold",
                  fold_of={"s0": "a", "s1": "a", "s2": "b", "s3": "c", "s4": "c"})
    nn = _nn_distances(t, plan)
    assert nn[2] == pytest.approx(4.0)  # nearest out-of-fold site
    assert nn[0] == pytest.approx(5.0)  # the in-fold neighbour does not count
    assert nn[1] == pytest.approx(4.0)
    assert nn[3] == pytest.approx(15.0)


def test_nn_matches_brute_force():
    rng = np.random.default_rng(19)
    coords = rng.uniform(0, 10_000, size=(100, 2))
    t = _table(coords, rng.normal(size=100))
    plan = kfold_plan(t.site_ids, 10, seed=5)
    nn = _nn_distances(t, plan)
    labels = np.array([plan.fold_of[sid] for sid in t.site_ids])
    for i in range(100):
        others = coords[labels != labels[i]]
        want = cdist([coords[i]], others).min()
        assert nn[i] == pytest.approx(want)


# -- Monte Carlo -----------------------------------------------------------------------

def test_monte_carlo_deterministic():
    data = mini_data(seed=21, n_sites=80, grf_partial_sill=0.0, noise_sd=2.0)
    recipe = ModelRecipe(selection="stepwise")
    a = monte_carlo_curve(recipe, data.sites, data.matrix, [20, 40], 1, seed=5)
    b = monte_carlo_curve(recipe, data.sites, data.matrix, [20, 40], 1, seed=5)
    assert a.rows == b.rows


def test_monte_carlo_degenerate_holdout_flagged():
    data = mini_data(seed=23, n_sites=40, grf_partial_sill=0.0, noise_sd=2.0)
    recipe = ModelRecipe(selection="stepwise")
    res = monte_carlo_curve(recipe, data.sites, data.matrix, [39], 2, seed=1)
    assert all(r["holdout_kind"] == "sq_err" for r in res.rows)


def test_monte_carlo_rejects_n_at_total():
    data = mini_data(seed=25, n_sites=30, grf_partial_sill=0.0)
    with pytest.raises(InvalidArgumentError):
        monte_carlo_curve(ModelRecipe(selection="mean"), data.sites, data.matrix,
                          [30], 1, seed=0)


def test_monte_carlo_csv(tmp_path):
    data = mini_data(seed=27, n_sites=50, grf_partial_sill=0.0, noise_sd=2.0)
    res = monte_carlo_curve(ModelRecipe(selection="stepwise"), data.sites,
                            data.matrix, [20], 2, seed=3)
    path = tmp_path / "mc.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,iteration,fitting_r2,holdout_r2,holdout_kind"
    assert len(lines) == 3
    summary = res.summary()
    assert "20" in summary


def test_monte_carlo_csv_labels_a_squared_error_and_keeps_cv(tmp_path):
    # n = n_total - 1 leaves one holdout site, scored as a squared error;
    # include_cv adds 10-fold and leave-one-province-out R2 to the row
    data = generate_synthetic(SyntheticScenario(seed=4, n_sites=60, n_clusters=6))
    n = len(data.sites) - 1
    res = monte_carlo_curve(ModelRecipe(selection="stepwise"), data.sites, data.matrix,
                            [n], 1, seed=0, include_cv=True)
    (row,) = res.rows
    assert row["holdout_kind"] == "sq_err"
    path = tmp_path / "mc.csv"
    res.to_csv(path)
    text, names, values = read_table(path, ("holdout_kind",))
    assert names == ["n", "iteration", "fitting_r2", "holdout_r2", "kfold_r2", "logo_r2"]
    assert text["holdout_kind"] == ("sq_err",)
    written = dict(zip(names, values[0].tolist()))
    for key in names:  # bit for bit
        assert written[key] == row[key], key


def test_monte_carlo_summary_reports_cv_scores():
    rows = [{"n": 20, "iteration": i, "fitting_r2": 0.9, "holdout_r2": 0.8,
             "holdout_kind": "r2", "kfold_r2": kfold, "logo_r2": logo}
            for i, (kfold, logo) in enumerate([(0.1, 0.5), (0.2, None), (0.3, 0.7),
                                               (0.4, None), (0.5, 0.9)])]
    rows.append({"n": 30, "iteration": 0, "fitting_r2": 0.9, "holdout_r2": 0.8,
                 "holdout_kind": "r2", "kfold_r2": 0.6, "logo_r2": None})
    summary = MonteCarloResult(rows=rows, n_grid=(20, 30)).summary()
    assert summary["20"]["n_runs"] == 5
    assert summary["20"]["kfold_r2_median"] == 0.3
    assert summary["20"]["kfold_r2_iqr"] == pytest.approx([0.2, 0.4])
    assert summary["20"]["logo_r2_median"] == 0.7  # the empty values left out
    assert summary["20"]["logo_r2_iqr"] == pytest.approx([0.6, 0.8])
    assert summary["20"]["holdout_r2_median"] == 0.8
    assert (summary["30"]["logo_r2_median"], summary["30"]["logo_r2_iqr"]) == (None, None)
    without_cv = [{k: v for k, v in r.items() if k not in ("kfold_r2", "logo_r2")}
                  for r in rows]
    assert set(MonteCarloResult(rows=without_cv, n_grid=(20,)).summary()["20"]) == {
        "n_runs", "fitting_r2_median", "fitting_r2_iqr", "holdout_r2_median",
        "holdout_r2_iqr"}


def test_monte_carlo_seed_derivation_is_stable():
    # labeled sub-streams must not depend on call order
    assert stage_seed(5, "mc:20:0") == stage_seed(5, "mc:20:0")
    assert stage_seed(5, "mc:20:0") != stage_seed(5, "mc:20:1")
