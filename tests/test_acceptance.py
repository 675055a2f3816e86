"""End-to-end acceptance gate: 12 numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the status lines.
Statistical criteria use frozen scenario designs and seed sets; the
scenario parameters were calibrated once (documented inline) and are not
meant to be touched.
"""

import logging
import time

import numpy as np
import pytest

from lurk.covariates import CovariateMatrix
from lurk.evaluation import kfold_plan, logo_plan, monte_carlo_curve, r2_mse, run_cv
from lurk.kriging import KrigingModel, VariogramModel, empirical_variogram, fit_exponential
from lurk.lur import morans_i, ols_fit, pls_fit, stepwise_select
from lurk.monitors import MonitorTable
from lurk.pipeline import PipelineConfig, run
from lurk.recipes import ModelRecipe
from lurk.synth import (
    SyntheticScenario,
    generate_synthetic,
    simulate_grf,
    write_scenario,
)
from lurk import covariates as cov
from lurk import geodata

import oracles

logging.disable(logging.WARNING)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _table(coords, y):
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    return MonitorTable(
        site_ids=tuple(f"s{i}" for i in range(n)),
        x=coords[:, 0], y=coords[:, 1],
        province=("p",) * n, city=("c",) * n,
        annual_mean=np.asarray(y, dtype=float),
        n_valid_days=np.full(n, 365), n_calendar_days=np.full(n, 365),
    )


def _kriging_problem(seed, nugget, psill=4.0, range_m=30_000.0, n=30, p=3):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100_000, size=(n, 2))
    X = rng.normal(size=(n, p))
    beta = rng.normal(0, 2.0, p)
    grf = simulate_grf(coords, nugget, psill, range_m, rng)
    y = 20.0 + X @ beta + grf
    model = KrigingModel(variogram=VariogramModel(nugget, psill, range_m),
                         coords=coords, x_rows=X, y=y)
    return model, coords, X, y


def test_criterion_01_kriging_exactness():
    t0 = time.perf_counter()
    worst_mean = worst_var = 0.0
    for seed in range(20):
        model, coords, X, y = _kriging_problem(100 + seed, nugget=0.0)
        mean, var = model.predict_many(coords[:, 0], coords[:, 1], X,
                                       with_variance=True)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - y) / (1.0 + np.abs(y)))))
        worst_var = max(worst_var, float(np.max(var)))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 1e-8 and worst_var <= 1e-8 and elapsed < 5.0
    report(1, "kriging-exactness", ok,
           f"max rel err={worst_mean:.2e} max var={worst_var:.2e} t={elapsed:.2f}s")


def test_criterion_02_dense_solver_oracle():
    worst = 0.0
    for seed in range(20):
        model, coords, X, y = _kriging_problem(300 + seed, nugget=0.3)
        rng = np.random.default_rng(900 + seed)
        for _ in range(5):
            x0, y0 = rng.uniform(-20_000, 120_000, 2)
            x_row = rng.normal(size=3)
            mean, var = model.predict_many([x0], [y0], x_row[None, :],
                                           with_variance=True)
            want_mean, want_var, _, _ = oracles.dense_uk_solve(
                coords, X, y, 0.3, 4.0, 30_000.0, x0, y0, x_row)
            worst = max(worst,
                        abs(mean[0] - want_mean) / (1.0 + abs(want_mean)),
                        abs(var[0] - want_var) / (1.0 + abs(want_var)))
    ok = worst <= 1e-6
    report(2, "dense-solver-oracle", ok, f"max rel dev={worst:.2e}")


def test_criterion_03_stepwise_oracle():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        mix = np.eye(8) + 0.4 * rng.normal(size=(8, 8))
        X = rng.normal(size=(60, 8)) @ mix
        beta = np.zeros(8)
        beta[rng.choice(8, 3, replace=False)] = rng.normal(0, 2.0, 3)
        y = 5.0 + X @ beta + rng.normal(0, 1.0, 60)
        names = [f"x{j}" for j in range(8)]
        matrix = CovariateMatrix.from_values([f"s{i}" for i in range(60)], names, X)
        model = stepwise_select(matrix, y)
        want = oracles.exhaustive_stepwise(X, names, y)
        if want is None:
            mismatches.append(f"seed {seed}: oracle found no admissible first variable")
            continue
        if list(model.selected) != want["selected"]:
            mismatches.append(f"seed {seed}: path {list(model.selected)} != {want['selected']}")
        elif not np.allclose(model.coefficients, want["coefficients"], atol=1e-8):
            mismatches.append(f"seed {seed}: coefficients differ")
        elif abs(model.intercept - want["intercept"]) > 1e-8:
            mismatches.append(f"seed {seed}: intercept differs")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 10.0
    report(3, "stepwise-oracle", ok,
           f"50 instances, t={elapsed:.2f}s" + ("; " + mismatches[0] if mismatches else ""))


def _variogram_recovery_coords(rng, ex=4.8e6, ey=3.6e6):
    """Monitoring-network design for parameter recovery: colocated-cluster
    stations pin the nugget, equilateral 25/45 km triangles pin the range,
    and a minimum station spacing avoids accidental short-range pairs."""
    spots = []
    while len(spots) < 155:
        cand = np.array([rng.uniform(0.04 * ex, 0.96 * ex),
                         rng.uniform(0.04 * ey, 0.96 * ey)])
        if all(np.hypot(*(cand - p)) >= 120_000.0 for p in spots):
            spots.append(cand)
    spots = np.array(spots)
    pts = []
    for c in spots[:35]:
        for _ in range(4):
            pts.append(c + rng.normal(0, 400.0, 2))
    k = 35
    for side in (25_000.0, 45_000.0):
        for _ in range(60):
            anchor = spots[k]; k += 1
            th = rng.uniform(0, 2 * np.pi)
            pts.append(anchor)
            pts.append(anchor + side * np.array([np.cos(th), np.sin(th)]))
            pts.append(anchor + side * np.array([np.cos(th + np.pi / 3),
                                                 np.sin(th + np.pi / 3)]))
    return np.array(pts)


def test_criterion_04_variogram_recovery():
    nugget, psill, range_m = 0.1, 1.0, 50_000.0
    hits = 0
    results = []
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        coords = _variogram_recovery_coords(rng)
        z = simulate_grf(coords, nugget, psill, range_m, rng)
        ev = empirical_variogram(z, coords, n_bins=200, max_lag=400_000.0)
        fit = fit_exponential(ev)
        good = (abs(fit.nugget - nugget) <= 0.3 * nugget
                and abs(fit.partial_sill - psill) <= 0.3 * psill
                and abs(fit.range_m - range_m) <= 0.3 * range_m)
        hits += good
        results.append((round(fit.nugget, 3), round(fit.partial_sill, 2),
                        round(fit.range_m / 1000, 1)))
    ok = hits >= 16
    report(4, "variogram-recovery", ok, f"{hits}/20 within +-30%")


def _clustered_grf_scenario(seed):
    return SyntheticScenario(seed=seed, n_sites=200, n_clusters=12,
                             cluster_sd_m=12_000.0, grf_partial_sill=36.0,
                             grf_range_m=150_000.0, noise_sd=2.0)


def test_criterion_05_uk_improves_kfold():
    gains = []
    for seed in range(20):
        data = generate_synthetic(_clustered_grf_scenario(seed))
        plan = kfold_plan(data.sites.site_ids, 10, seed=seed)
        base = run_cv(ModelRecipe(selection="stepwise"), data.sites, data.matrix, plan)
        uk = run_cv(ModelRecipe(selection="stepwise", kriging=True),
                    data.sites, data.matrix, plan)
        gains.append(uk.r2_mse - base.r2_mse)
    med = float(np.median(gains))
    ok = med >= 0.05
    report(5, "uk-improves-kfold", ok, f"median gain={med:.3f}")


def test_criterion_06_regional_predictor_helps_logo():
    logo_gain, kfold_diff = [], []
    for seed in range(20):
        sc = SyntheticScenario(seed=seed, n_sites=220, n_clusters=14,
                               cluster_sd_m=10_000.0,
                               trend=(("elevation", 3.0), ("poi_gas_n_10000m", 3.0),
                                      ("satellite", 7.0)),
                               grf_partial_sill=16.0, grf_range_m=100_000.0,
                               noise_sd=2.0)
        data = generate_synthetic(sc)
        plan_k = kfold_plan(data.sites.site_ids, 10, seed=seed)
        plan_g = logo_plan(data.sites, "province")
        with_sat = ModelRecipe(selection="stepwise", kriging=True)
        no_sat = ModelRecipe(selection="stepwise", kriging=True, exclude=("satellite",))
        logo_gain.append(run_cv(with_sat, data.sites, data.matrix, plan_g).r2_mse
                         - run_cv(no_sat, data.sites, data.matrix, plan_g).r2_mse)
        kfold_diff.append(abs(run_cv(with_sat, data.sites, data.matrix, plan_k).r2_mse
                              - run_cv(no_sat, data.sites, data.matrix, plan_k).r2_mse))
    med_gain = float(np.median(logo_gain))
    med_diff = float(np.median(kfold_diff))
    ok = med_gain >= 0.05 and med_diff < 0.03
    report(6, "regional-predictor-helps-logo", ok,
           f"median logo gain={med_gain:.3f}, median kfold diff={med_diff:.3f}")


def test_criterion_07_kfold_beats_logo():
    kfolds, logos = [], []
    for seed in range(20):
        data = generate_synthetic(_clustered_grf_scenario(seed))
        recipe = ModelRecipe(selection="stepwise", kriging=True)
        plan_k = kfold_plan(data.sites.site_ids, 10, seed=seed)
        plan_g = logo_plan(data.sites, "province")
        kfolds.append(run_cv(recipe, data.sites, data.matrix, plan_k).r2_mse)
        logos.append(run_cv(recipe, data.sites, data.matrix, plan_g).r2_mse)
    med_k, med_g = float(np.median(kfolds)), float(np.median(logos))
    ok = med_k >= med_g
    report(7, "kfold-beats-logo", ok, f"median kfold={med_k:.3f} logo={med_g:.3f}")


def test_criterion_08_monte_carlo_convergence():
    t0 = time.perf_counter()
    sc = SyntheticScenario(seed=11, n_sites=600, n_clusters=20,
                           cluster_sd_m=15_000.0, grf_partial_sill=0.0,
                           grf_nugget=0.0, noise_sd=6.0)
    data = generate_synthetic(sc)
    grid = (20, 40, 80, 160, 320)
    res = monte_carlo_curve(ModelRecipe(selection="stepwise"), data.sites,
                            data.matrix, grid, iterations=100, seed=11)
    s = res.summary()
    fit_meds = [s[str(n)]["fitting_r2_median"] for n in grid]
    hold_meds = [s[str(n)]["holdout_r2_median"] for n in grid]
    elapsed = time.perf_counter() - t0
    mono_fit = all(fit_meds[i + 1] <= fit_meds[i] for i in range(len(grid) - 1))
    mono_hold = all(hold_meds[i + 1] >= hold_meds[i] for i in range(len(grid) - 1))
    gap = fit_meds[-1] - hold_meds[-1]
    ok = mono_fit and mono_hold and gap < 0.05 and elapsed < 120.0
    report(8, "monte-carlo-convergence", ok,
           f"fit={np.round(fit_meds, 3).tolist()} hold={np.round(hold_meds, 3).tolist()} "
           f"gap={gap:.3f} t={elapsed:.1f}s")


def test_criterion_09_metric_unit_values():
    checks = []
    checks.append(abs(r2_mse([0.0, 2.0], [2.0, 0.0]) - (-3.0)) < 1e-12)
    obs = np.array([1.0, 2.0, 5.0])
    checks.append(r2_mse(obs, obs) == 1.0)
    # engineered single-column fit with r2 exactly 0.5 at n = 11
    n = 11
    x = np.arange(n, dtype=float)
    xc = x - x.mean()
    rng = np.random.default_rng(5)
    e = rng.normal(size=n)
    e -= e.mean()
    e -= (e @ xc) / (xc @ xc) * xc
    e *= np.linalg.norm(xc) / np.linalg.norm(e)
    fit = ols_fit(x[:, None], xc + e)
    checks.append(abs(fit.adj_r2 - (1.0 - 0.5 * 10 / 9)) < 1e-12)
    coords = np.random.default_rng(1).uniform(0, 10_000, (11, 2))
    res = morans_i(np.random.default_rng(2).normal(size=11), coords)
    checks.append(abs(res.expected_i - (-0.1)) < 1e-15)
    ok = all(checks)
    report(9, "metric-unit-values", ok, f"{sum(checks)}/4 cases exact")


def test_criterion_10_geometry_oracles():
    rng = np.random.default_rng(12345)
    # chord cases
    worst_chord = 0.0
    for d in (0.0, 100.0, 400.0, 700.0):
        r = 800.0
        layer = geodata.FeatureLayer(geodata.POLYLINES, [[-50_000.0, d], [50_000.0, d]],
                                     [0, 2], ["l"])
        spec = cov.CovariateSpec("len", "line_length", "l", buffer_m=r)
        got = cov.extract([spec], [0.0], [0.0], layers={"l": layer})[0][0, 0]
        worst_chord = max(worst_chord, abs(got - 2.0 * np.sqrt(r * r - d * d)))
    # 1000 randomized point-count cases vs brute force
    pts = rng.uniform(0, 60_000, size=(5_000, 2))
    layer = geodata.FeatureLayer(geodata.POINTS, pts, np.arange(len(pts) + 1),
                                 [f"p{i}" for i in range(len(pts))])
    count_bad = 0
    for _ in range(1000):
        x, y = rng.uniform(0, 60_000, 2)
        r = rng.uniform(50, 25_000)
        spec = cov.CovariateSpec("n", "point_count", "p", buffer_m=r)
        got = cov.extract([spec], [x], [y], layers={"p": layer})[0][0, 0]
        if got != oracles.scan_count_points(pts, x, y, r):
            count_bad += 1
    # 500 randomized window-fraction cases vs cell scan
    codes = rng.integers(1, 5, size=(50, 50))
    codes[rng.uniform(size=codes.shape) < 0.08] = -9999
    grid = geodata.CategoricalGrid(0.0, 0.0, 300.0, 50, 50, codes, (1, 2, 3, 4))
    frac_bad = 0
    for _ in range(500):
        x, y = rng.uniform(1_000, 14_000, 2)
        w = rng.uniform(400, 6_000)
        cat = int(rng.integers(1, 5))
        want = oracles.scan_landcover_fraction(np.asarray(codes), -9999, 0.0, 0.0,
                                               300.0, cat, x, y, w)
        spec = cov.CovariateSpec("frac", "landcover_fraction", "g", category=cat, buffer_m=w)
        values, valid = cov.extract([spec], [x], [y], categorical={"g": grid})
        got = values[0, 0] if valid[0, 0] else None  # an empty window has no value
        if (want is None) != (got is None) or \
                (want is not None and abs(got - want) > 1e-12):
            frac_bad += 1
    ok = worst_chord <= 1e-9 and count_bad == 0 and frac_bad == 0
    report(10, "geometry-oracles", ok,
           f"chord err={worst_chord:.2e}, count mismatches={count_bad}/1000, "
           f"fraction mismatches={frac_bad}/500")


def test_criterion_11_pls():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 5))
    y = X @ np.array([1.0, -0.5, 0.2, 0.0, 0.7]) + rng.normal(0, 0.5, 40)
    matrix = CovariateMatrix.from_values([f"s{i}" for i in range(40)],
                                         [f"x{j}" for j in range(5)], X)
    model = pls_fit(matrix, y, max_components=5)
    pred_full = model.predict(X, k=model.max_components)
    ols = ols_fit(X, y)
    full_rank_ok = bool(np.max(np.abs(pred_full - (y - ols.residuals))) <= 1e-6)

    parsimony_hits = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        latent = rng.normal(size=(100, 2))
        load = rng.normal(size=(2, 10))
        Xs = latent @ load + 0.3 * rng.normal(size=(100, 10))
        ys = latent @ np.array([2.0, -1.5]) + 0.5 * rng.normal(size=100)
        m = CovariateMatrix.from_values([f"s{i}" for i in range(100)],
                                        [f"x{j}" for j in range(10)], Xs)
        parsimony_hits += pls_fit(m, ys, max_components=8, seed=seed).n_components <= 4
    ok = full_rank_ok and parsimony_hits >= 18
    report(11, "pls", ok,
           f"full-rank==OLS: {full_rank_ok}, parsimonious selection {parsimony_hits}/20")


@pytest.mark.slow
def test_criterion_12_end_to_end_scale(tmp_path):
    scenario = SyntheticScenario(
        seed=5, covariate_set="full", n_sites=1500, n_clusters=45,
        extent_x=3_200_000.0, extent_y=2_000_000.0, cluster_sd_m=15_000.0,
        n_provinces_x=4, n_provinces_y=4,
        grf_partial_sill=40.0, grf_range_m=150_000.0, noise_sd=2.0,
        prediction_cols=400, prediction_rows=250,
    )
    data = generate_synthetic(scenario)
    n_cells = scenario.prediction_cols * scenario.prediction_rows
    assert len(data.matrix.columns) >= 290
    assert n_cells == 100_000

    hashes = []
    runtimes = []
    for run_dir in ("a", "b"):
        base = tmp_path / run_dir
        config_path = write_scenario(data, base)
        cfg = PipelineConfig.from_json(config_path)
        t0 = time.perf_counter()
        rep = run(cfg)
        runtimes.append(time.perf_counter() - t0)
        assert rep.status == "ok"
        hashes.append({s: e["outputs"] for s, e in rep.stages.items()})
    identical = hashes[0] == hashes[1]
    ok = identical and max(runtimes) < 600.0
    report(12, "end-to-end-determinism-and-scale", ok,
           f"byte-identical={identical}, runtimes={[round(t) for t in runtimes]}s "
           f"(1500 sites x {len(data.matrix.columns)} covariates, {n_cells} cells)")
