import math
import tracemalloc

import numpy as np
import pytest

from seeds_sde import (
    ChurnParams,
    DataDistribution,
    Edm,
    GaussianFlowOracle,
    RngStream,
    ScoreModel,
    SolverSpec,
    edm_grid,
    linear_lambda_grid,
    per_step_compare,
    strong_order,
    terminal_distribution_check,
    weak_order,
    zero_model,
)
from seeds_sde.errors import ConfigError
from seeds_sde.harness import fit_loglog
from seeds_sde.noise import raw_increment_var


def test_fit_loglog_recovers_power_law():
    hs = [0.4, 0.2, 0.1, 0.05]
    errs = [2.0 * h**1.5 for h in hs]
    slope, intercept, r2, slope_se = fit_loglog(hs, errs)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert slope_se == pytest.approx(0.0, abs=1e-10)


def test_oracle_moments_single_gaussian(vp):
    oracle = GaussianFlowOracle(DataDistribution.standard_normal(1), vp)
    for t in (0.05, 0.5, 1.0):
        # alpha^2 + sigma_bar^2 == 1 for unit-variance data: moments are exact
        assert oracle.mean(t)[0] == 0.0
        assert oracle.var(t)[0] == pytest.approx(1.0, rel=1e-12)
        assert oracle.moment(t, 2)[0] == pytest.approx(1.0, rel=1e-12)
        assert oracle.moment(t, 4)[0] == pytest.approx(3.0, rel=1e-12)


def test_oracle_moments_mixture(vp, mixture_model):
    oracle = GaussianFlowOracle(mixture_model.data, vp)
    t = 0.3
    a, _, sbar = vp.alpha_sigma(t)
    mu = 1.5 * a
    var_c = a * a + sbar * sbar
    assert oracle.mean(t)[0] == pytest.approx(0.0, abs=1e-14)
    assert oracle.var(t)[0] == pytest.approx(mu * mu + var_c, rel=1e-12)
    want4 = mu**4 + 6 * mu * mu * var_c + 3 * var_c * var_c
    assert oracle.moment(t, 4)[0] == pytest.approx(want4, rel=1e-12)


def test_strong_order_requires_seeds1(vp, gauss_model):
    with pytest.raises(ConfigError):
        strong_order(SolverSpec("seeds2"), gauss_model, vp, 8, 4, 100, RngStream(0))
    with pytest.raises(ConfigError):
        strong_order(SolverSpec("seeds1"), gauss_model, vp, 8, 2, 100, RngStream(0))


def test_strong_order_zero_model_reported_exact(vp):
    zm = zero_model(1, vp)
    est = strong_order(SolverSpec("seeds1"), zm, vp, 4, 3, 200, RngStream(1))
    assert max(est.errors) < 1e-12
    assert math.isnan(est.slope)
    assert any("exact" in n for n in est.notes)


def test_strong_order_small_run_sane(vp, gauss_model):
    est = strong_order(SolverSpec("seeds1"), gauss_model, vp, 16, 3, 2000, RngStream(7))
    assert len(est.h_values) == 3
    assert all(e > 0 for e in est.errors)
    assert all(s >= 0 for s in est.ses)
    assert 0.5 < est.slope < 2.0
    # reference-solution sanity ran and found the terminal mean in range
    assert not any("reference terminal mean" in n for n in est.notes)
    assert est.to_csv().startswith("h,error,se,n_paths")
    assert '"slope"' in est.to_json()


def test_strong_order_slope_stable_under_path_doubling(vp, gauss_model):
    est1 = strong_order(SolverSpec("seeds1"), gauss_model, vp, 32, 4, 2000, RngStream(13))
    est2 = strong_order(SolverSpec("seeds1"), gauss_model, vp, 32, 4, 4000, RngStream(13))
    tol = max(est1.slope_se, est2.slope_se)
    assert abs(est1.slope - est2.slope) <= 3.0 * tol


def test_strong_order_stores_no_fine_path_array(vp, gauss_model):
    # base 16, 3 refinements and the reference 2 halvings further: 256 fine
    # steps, so one (m_fine, n, d) float array is 256 * 4000 * 8 bytes
    n_paths = 4000
    tracemalloc.start()
    try:
        strong_order(SolverSpec("seeds1"), gauss_model, vp, 16, 3, n_paths, RngStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * n_paths * 8


def test_coupling_variance_end_to_end(vp):
    # group sums of fine increments carry the exact coarse variances
    lam = np.linspace(-1.0, 1.0, 17)
    stream = RngStream(3)
    n = 400_000
    stds = np.sqrt([raw_increment_var(lam[j], lam[j + 1]) for j in range(16)])
    fine = np.stack([stds[j] * stream.normal_paths(n, j, 0, 1)[:, 0] for j in range(16)])
    coarse = fine.reshape(4, 4, n).sum(axis=1)
    for i in range(4):
        target = raw_increment_var(lam[4 * i], lam[4 * (i + 1)])
        se = target * math.sqrt(2.0 / n)
        assert abs(coarse[i].var() - target) < 5.0 * se


def test_weak_order_needs_three_grids(vp, gauss_model):
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (8, 12)]
    with pytest.raises(ConfigError):
        weak_order(SolverSpec("seeds2"), gauss_model, vp, grids, 100, RngStream(0))


def test_weak_order_zero_model_all_excluded(vp):
    zm = zero_model(1, vp)
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (6, 9, 14)]
    est = weak_order(SolverSpec("seeds1"), zm, vp, grids, 20_000, RngStream(5))
    assert est.excluded == [0, 1, 2]
    assert math.isnan(est.slope)


def test_weak_order_oracle_follows_each_grid_top_time(vp):
    # the zero-model law depends on the start time; seeds1 is exact there, so
    # grids from different top times must all fall below the Monte Carlo floor
    zm = zero_model(1, vp)
    grids = [linear_lambda_grid(14, vp.t_min, 0.5, vp)]
    grids += [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (17, 21, 26)]
    est = weak_order(SolverSpec("seeds1"), zm, vp, grids, 20_000, RngStream(3))
    assert est.excluded == [0, 1, 2, 3]
    assert all(err < 3.0 * se for err, se in zip(est.errors, est.ses))


def test_weak_order_euler_maruyama_order_one(vp, gauss_model):
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (14, 21, 32, 48)]
    est_em = weak_order(SolverSpec("euler_maruyama"), gauss_model, vp, grids, 50_000,
                        RngStream(9))
    assert est_em.excluded == []
    assert 0.8 <= est_em.slope <= 1.8
    # the one-stage exponential solver beats it pointwise at matched NFE
    est_s1 = weak_order(SolverSpec("seeds1"), gauss_model, vp, grids, 50_000, RngStream(9))
    for e_em, e_s1 in zip(est_em.errors, est_s1.errors):
        assert e_s1 < e_em


def test_weak_order_sorts_grids_by_step_size(vp, gauss_model):
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (25, 16, 30, 20)]
    est = weak_order(SolverSpec("seeds2"), gauss_model, vp, grids, 20_000, RngStream(3))
    assert est.h_values == sorted(est.h_values, reverse=True)


def test_per_step_compare_reflexive(vp, gauss_model):
    grid = linear_lambda_grid(10, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("seeds1"), SolverSpec("seeds1"), gauss_model, vp,
                            grid, RngStream(2))
    assert diff == 0.0


def test_per_step_compare_gddim_vs_seeds1dp(vp, gauss_model):
    grid = linear_lambda_grid(30, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("gddim"), SolverSpec("seeds1", mode="dp"),
                            gauss_model, vp, grid, RngStream(4))
    assert diff < 1e-10


def test_per_step_compare_seeds1_vs_dpm1_gap(vp, gauss_model):
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("seeds1"), SolverSpec("dpm1"), gauss_model, vp,
                            grid, RngStream(4), zero_noise=True)
    assert diff > 1e-3


def test_per_step_compare_applies_churn():
    edm = Edm(sigma_data=0.5)
    model = ScoreModel(DataDistribution.standard_normal(1), edm)
    grid = edm_grid(16, edm.t_min, edm.t_max, 7.0, edm)
    churned = SolverSpec("seeds3", churn=ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0,
                                                     s_noise=1.003))
    assert per_step_compare(churned, SolverSpec("seeds3"), model, edm, grid, RngStream(3)) > 1e-3
    assert per_step_compare(churned, churned, model, edm, grid, RngStream(3)) == 0.0


def test_terminal_check_zero_model_matches_propagated_gaussian(vp):
    zm = zero_model(1, vp)
    grid = linear_lambda_grid(9, vp.t_min, vp.t_max, vp)
    stream = RngStream(21)
    from seeds_sde.solvers import sample

    n = 200_000
    res = sample(zm, vp, grid, SolverSpec("seeds1"), stream, n_paths=n)
    t_last, t0 = float(grid.times[-2]), float(grid.times[0])
    a_l, a_0 = vp.alpha_sigma(t_last)[0], vp.alpha_sigma(t0)[0]
    sbar_0 = vp.alpha_sigma(t0)[2]
    sbar_l = vp.alpha_sigma(t_last)[2]
    h_tot = vp.lambda_of_t(t_last) - vp.lambda_of_t(t0)
    var = (a_l / a_0) ** 2 * sbar_0**2 + sbar_l**2 * math.expm1(2.0 * h_tot)
    emp = res.terminal.var()
    se = var * math.sqrt(2.0 / n)
    assert abs(emp - var) < 5.0 * se


def test_terminal_check_edm_noise_prediction_recovery():
    # nonzero raw-network output: data variance differs from sigma_data^2
    from seeds_sde import DataDistribution, Edm, ScoreModel
    from seeds_sde.grids import edm_grid

    sched = Edm(sigma_data=0.5)
    data = DataDistribution(np.array([1.0]), np.zeros((1, 1)), np.array([[1.44]]))
    model = ScoreModel(data, sched)
    grid = edm_grid(41, 0.002, 80.0, 7.0, sched)
    for fam in ("seeds1", "seeds3"):
        rep = terminal_distribution_check(SolverSpec(fam), model, sched, grid,
                                          50_000, RngStream(2))
        assert rep.mean_within(5.0), fam
        assert rep.cov_within(0.02), fam


def test_terminal_check_report_fields(vp, gauss_model):
    grid = linear_lambda_grid(16, vp.t_min, vp.t_max, vp)
    rep = terminal_distribution_check(SolverSpec("seeds2"), gauss_model, vp, grid,
                                      20_000, RngStream(6))
    assert rep.n_paths == 20_000
    assert rep.target_mean.shape == (1,)
    assert rep.mean_se[0] > 0
    assert rep.skewness_se == pytest.approx(math.sqrt(6.0 / 20_000))
