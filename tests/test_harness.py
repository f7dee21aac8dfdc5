import collections
import math
import tracemalloc
import warnings

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
    StepGrid,
    StepPlan,
    Ve,
    VpCosine,
    VpLinear,
    ZeroModel,
    edm_grid,
    linear_lambda_grid,
    per_step_compare,
    strong_order,
    terminal_distribution_check,
    weak_order,
)
from seeds_sde import harness, solvers
from seeds_sde.errors import ConfigError, DomainError, GridError
from seeds_sde.harness import fit_loglog, path_chunks
from seeds_sde.noise import BLOCK, raw_increment_var
from seeds_sde.schedules import ScheduleBase


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


def test_strong_order_requires_seeds1(gauss_model):
    with pytest.raises(ConfigError):
        strong_order(SolverSpec("seeds2"), gauss_model, 8, 4, 100, RngStream(0))
    with pytest.raises(ConfigError):
        strong_order(SolverSpec("seeds1"), gauss_model, 8, 2, 100, RngStream(0))


def test_strong_order_rejects_churn(gauss_model):
    churned = SolverSpec("seeds1", churn=ChurnParams(s_churn=4.0, s_tmin=0.05, s_tmax=15.0))
    with pytest.raises(ConfigError, match="churn"):
        strong_order(churned, gauss_model, 4, 3, 10, RngStream(0))


@pytest.mark.parametrize("sched", [VpLinear(), VpCosine(), Edm()], ids=["vp", "vp_cosine", "edm"])
def test_strong_order_zero_model_reported_exact(sched):
    # the zero model makes the one-stage step exact, so every level lands on
    # the reference only if each coupled draw is normalised to its step
    zm = ZeroModel(2, sched)
    est = strong_order(SolverSpec("seeds1"), zm, 4, 3, 200, RngStream(1))
    assert max(est.errors) < 1e-12
    assert math.isnan(est.slope)
    assert any("exact" in n for n in est.notes)


def test_strong_order_steps_and_nfe(vp, monkeypatch):
    # base 4, 3 refinements, reference 2 halvings down: 64 fine steps plus
    # 4 + 8 + 16 level steps, one evaluation each
    calls, step_once = [], solvers.step_once

    def counting(*args, **kwargs):
        calls.append(1)
        return step_once(*args, **kwargs)

    monkeypatch.setattr(solvers, "step_once", counting)
    zm = ZeroModel(1, vp)
    strong_order(SolverSpec("seeds1"), zm, 4, 3, 20, RngStream(1))
    assert len(calls) == zm.nfe == 64 + 4 + 8 + 16 == 92


def test_strong_order_reads_lambda_once_per_plan_node_and_fine_time(gauss_model, monkeypatch):
    # base 32, 4 refinements: lambda once at each node of each level's plan,
    # 1,025 (the reference) + 257 + 129 + 65 + 33, at the fine grid's two end
    # points, and once more at each of the 1,025 fine times the coupled draws read
    calls, lambda_of_t = [], ScheduleBase.lambda_of_t

    def counting(self, *args, **kwargs):
        calls.append(1)
        return lambda_of_t(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleBase, "lambda_of_t", counting)
    strong_order(SolverSpec("seeds1"), gauss_model, 32, 4, 10, RngStream(3))
    assert len(calls) == 1025 + 257 + 129 + 65 + 33 + 2 + 1025 == 2536


def test_strong_order_small_run_sane(gauss_model):
    est = strong_order(SolverSpec("seeds1"), gauss_model, 16, 3, 2000, RngStream(7))
    assert len(est.h_values) == 3
    assert all(e > 0 for e in est.errors)
    assert all(s >= 0 for s in est.ses)
    assert 0.5 < est.slope < 2.0
    # reference-solution sanity ran and found the terminal mean in range
    assert not any("reference terminal mean" in n for n in est.notes)
    assert est.to_csv().startswith("h,error,se,n_paths")
    assert '"slope"' in est.to_json()


def test_strong_order_slope_stable_under_path_doubling(gauss_model):
    est1 = strong_order(SolverSpec("seeds1"), gauss_model, 32, 4, 2000, RngStream(13))
    est2 = strong_order(SolverSpec("seeds1"), gauss_model, 32, 4, 4000, RngStream(13))
    tol = max(est1.slope_se, est2.slope_se)
    assert abs(est1.slope - est2.slope) <= 3.0 * tol


def test_strong_order_stores_no_fine_path_array(gauss_model):
    # base 16, 3 refinements and the reference 2 halvings further: 256 fine
    # steps, so one (m_fine, n, d) float array is 256 * 4000 * 8 bytes
    n_paths = 4000
    tracemalloc.start()
    try:
        strong_order(SolverSpec("seeds1"), gauss_model, 16, 3, n_paths, RngStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * n_paths * 8


def test_strong_order_chunk_memory_does_not_grow_with_the_stride_ratio(gauss_model):
    # base 1, 8 refinements and the reference 2 halvings further: 512 fine steps
    # per level-0 step.  A window of one level-0 step of fine increments would
    # alone be 512 * 2048 * 8 B = 8 MiB; running sums are 8 levels of 2048
    # floats.  In one process, tracemalloc's peak over this call read 8.8 MiB
    # with such a window and 0.8 MiB with the running sums.
    tracemalloc.start()
    try:
        strong_order(SolverSpec("seeds1"), gauss_model, 1, 8, 2048, RngStream(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 8192, 8193, 9000, 10_000, 57_345, 100_000])
def test_path_chunks_cover_the_paths_in_block_aligned_chunks(n):
    for workers in (1, 2, 3, 9):
        chunks = path_chunks(n, workers)
        assert ([p for offset, count in chunks for p in range(offset, offset + count)]
                == list(range(n)))
        # no chunk over 8192 paths, and one chunk per worker that a full block can fill
        assert len(chunks) == max(-(-n // 8192), min(workers, n // BLOCK))
        assert all(0 < count <= 8192 for _, count in chunks)
        assert all(offset % BLOCK == 0 for offset, _ in chunks)
        # the blocks are dealt out as evenly as they go, the partial one last
        blocks = [-(-count // BLOCK) for _, count in chunks]
        assert max(blocks) - min(blocks) <= 1
        assert all(count % BLOCK == 0 for _, count in chunks[:-1])


def test_path_chunks_of_the_readme_runs():
    assert path_chunks(4096, 2) == [(0, 2048), (2048, 2048)]
    assert path_chunks(2100, 2) == [(0, 1024), (1024, 1076)]
    for workers in (1, 2):
        assert path_chunks(10_000, workers) == [(0, 5120), (5120, 4880)]
        assert [count for _, count in path_chunks(100_000, workers)] == [7168, 8192] * 6 + [7840]
    # one full block, or one worker, is one chunk
    assert path_chunks(1, 2) == [(0, 1)] and path_chunks(1100, 2) == [(0, 1100)]
    assert path_chunks(1024, 4) == [(0, 1024)] and path_chunks(2047, 4) == [(0, 2047)]
    assert path_chunks(4096, 1) == [(0, 4096)] and path_chunks(8192, 1) == [(0, 8192)]
    assert path_chunks(10_000, 9) == [(1024 * i, 1024) for i in range(8)] + [(8192, 1808)]


@pytest.mark.parametrize("n_paths", [0, -5])
def test_a_path_count_below_one_is_a_config_error(vp, gauss_model, n_paths):
    with pytest.raises(ConfigError, match=f"need at least one path, got {n_paths}"):
        path_chunks(n_paths, 2)
    with pytest.raises(ConfigError, match=f"got {n_paths}"):
        strong_order(SolverSpec("seeds1"), gauss_model, 4, 3, n_paths, RngStream(0))
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (5, 7, 10)]
    with pytest.raises(ConfigError, match=f"got {n_paths}"):
        weak_order(SolverSpec("seeds2"), gauss_model, grids, n_paths, RngStream(0))


def test_coupled_path_bytes_do_not_depend_on_its_chunk(gauss_model, monkeypatch, chunks_of):
    # a lone path's coarse draws are summed in the order a pair's are: strides 16,
    # 8 and 4 add 16, 8 and 4 fine increments
    rows, fan_out = [], harness.fan_out

    def recording(fn, tasks, workers):
        sups, refs = zip(*fan_out(fn, tasks, workers))
        rows.append((np.concatenate(sups, axis=1), np.concatenate(refs)))
        return list(zip(sups, refs))

    monkeypatch.setattr(harness, "fan_out", recording)
    for size in (1, 2):
        chunks_of(harness, size)
        strong_order(SolverSpec("seeds1"), gauss_model, 8, 3, 2, RngStream(1))
    (sup_1, ref_1), (sup_2, ref_2) = rows
    assert sup_1.tobytes() == sup_2.tobytes() and ref_1.tobytes() == ref_2.tobytes()


def test_harness_draws_only_what_its_walks_cannot_share(vp, gauss_model, monkeypatch,
                                                       chunks_of):
    calls, normal_paths = [], RngStream.normal_paths

    def counting(self, n, step, stage, d, offset=0):
        calls.append((step, stage, offset))
        return normal_paths(self, n, step, stage, d, offset)

    monkeypatch.setattr(RngStream, "normal_paths", counting)
    # zero-noise compare draws the initial state only, even where churn lifts
    churned = SolverSpec("seeds3", churn=ChurnParams(s_churn=4.0, s_tmin=0.05, s_tmax=15.0))
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    per_step_compare(churned, SolverSpec("seeds2"), gauss_model, grid, RngStream(3),
                     zero_noise=True)
    assert calls == [(0, 0, 0)]
    # strong order: per chunk, the initial state and each of the m_fine = 2 * 2**3 fine
    # increments, every one on stage 0, shared by all levels
    calls.clear()
    chunks_of(harness, 3)
    strong_order(SolverSpec("seeds1"), gauss_model, base_steps=2, refinements=3,
                 n_paths=5, stream=RngStream(3), ref_extra=1)
    assert calls == [(step, 0, offset) for offset in (0, 3) for step in range(1 + 16)]


@pytest.fixture
def draw_calls(monkeypatch):
    """How often each (offset, step, stage) key is drawn from here on."""
    calls, normal_paths = collections.Counter(), RngStream.normal_paths

    def counting(self, n, step, stage, d, offset=0):
        calls[offset, step, stage] += 1
        return normal_paths(self, n, step, stage, d, offset)

    monkeypatch.setattr(RngStream, "normal_paths", counting)
    return calls


def test_weak_order_and_compare_draw_each_key_once(vp, gauss_model, draw_calls, chunks_of):
    # weak order: per chunk, the initial draw and seeds2's stages 1 and 2 at each of the
    # longest grid's 9 real steps, every one shared by the grids that have that step
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (5, 7, 10)]
    weak_order(SolverSpec("seeds2"), gauss_model, grids, 2000, RngStream(3), workers=1)
    assert draw_calls == {(0, 0, 0): 1, **{(0, i, k): 1 for i in range(1, 10) for k in (1, 2)}}
    draw_calls.clear()
    chunks_of(harness, 1024)
    weak_order(SolverSpec("seeds2"), gauss_model, grids, 2000, RngStream(3), workers=1)
    assert draw_calls == {(offset, i, k): 1 for offset in (0, 1024)
                          for i, k in [(0, 0)] + [(i, k) for i in range(1, 10) for k in (1, 2)]}
    # compare: seeds2 reads stages 1 and 2 of the ones seeds3 draws, at each of 11 steps
    draw_calls.clear()
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    per_step_compare(SolverSpec("seeds3"), SolverSpec("seeds2"), gauss_model, grid,
                     RngStream(3))
    assert draw_calls == {(0, 0, 0): 1, **{(0, i, k): 1 for i in range(1, 12) for k in (1, 2, 3)}}


def test_weak_order_walks_each_grid_as_sample_does(vp, gauss_model, monkeypatch, chunks_of):
    # grids of 4, 6 and 9 real steps from three top times, coarsest first: the walks share
    # their draws in lockstep, the shorter ones stop at their own last step, and each
    # grid's terminal states are sample's, chunk by chunk
    grids = [linear_lambda_grid(m, vp.t_min, t_top, vp) for m, t_top in ((5, 1.0), (7, 0.8),
                                                                        (10, 0.6))]
    results, fan_out = [], harness.fan_out

    def recording(fn, tasks, workers):
        results.extend(fan_out(fn, tasks, workers))
        return results

    monkeypatch.setattr(harness, "fan_out", recording)
    chunks_of(harness, 700)
    spec = SolverSpec("seeds3", churn=ChurnParams(s_churn=4.0, s_tmin=0.05, s_tmax=15.0))
    est = weak_order(spec, gauss_model, grids, 2000, RngStream(3))
    assert est.h_values == sorted(est.h_values, reverse=True) and len(results) == 3
    for g, grid in enumerate(grids):
        want = solvers.sample(StepPlan(spec, gauss_model, grid), RngStream(3),
                              n_paths=2000).terminal
        assert np.concatenate([chunk[g] for chunk in results]).tobytes() == want.tobytes()


def test_a_grid_without_a_real_step_is_a_grid_error(vp, gauss_model):
    # StepGrid refuses fewer than 3 nodes, so build one past its check
    bare = object.__new__(StepGrid)
    object.__setattr__(bare, "times", np.array([vp.t_max, 0.0]))
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (5, 7)] + [bare]
    for run in (lambda: solvers.sample(StepPlan(SolverSpec("seeds2"), gauss_model, bare),
                                       RngStream(0)),
                lambda: weak_order(SolverSpec("seeds2"), gauss_model, grids, 10,
                                   RngStream(0))):
        with pytest.raises(GridError, match=r"grid needs at least one real step \(M >= 2\)"):
            run()


def test_weak_order_rejects_a_non_finite_state_in_any_grid(vp, gauss_model, nan_from_model):
    # seeds1 evaluates once per step, grid by grid within a step: the 5th evaluation
    # is the second grid's second step
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (5, 7, 10)]
    t = float(grids[1].times[2])
    with pytest.raises(DomainError, match=f"non-finite state after step 2 at t={t!r}"):
        weak_order(SolverSpec("seeds1"), nan_from_model(gauss_model, 5), grids, 10,
                   RngStream(0))


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
        weak_order(SolverSpec("seeds2"), gauss_model, grids, 100, RngStream(0))


def test_weak_order_zero_model_all_excluded(vp):
    zm = ZeroModel(1, vp)
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (6, 9, 14)]
    est = weak_order(SolverSpec("seeds1"), zm, grids, 20_000, RngStream(5))
    assert est.excluded == [0, 1, 2]
    assert math.isnan(est.slope)


def test_weak_order_oracle_follows_each_grid_top_time(vp):
    # the zero-model law depends on the start time; seeds1 is exact there, so
    # grids from different top times must all fall below the Monte Carlo floor
    zm = ZeroModel(1, vp)
    grids = [linear_lambda_grid(14, vp.t_min, 0.5, vp)]
    grids += [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (17, 21, 26)]
    est = weak_order(SolverSpec("seeds1"), zm, grids, 20_000, RngStream(3))
    assert est.excluded == [0, 1, 2, 3]
    assert all(err < 3.0 * se for err, se in zip(est.errors, est.ses))


@pytest.mark.parametrize("family, mode, sched", [
    ("dpm1", "np", VpLinear()), ("dpm1", "dp", VpLinear()), ("dpm2", None, VpLinear()),
    ("ve2_ode_a", None, Ve()),
])
def test_zero_model_law_of_a_form_without_draws_is_the_noiseless_flow(family, mode, sched):
    # with the model term zero, a step that takes no draws is the exact linear map
    # x_t = (alpha_t / alpha_s) x_s, so the terminal variance is (alpha_t/alpha_0)^2
    # sbar_0^2 and not the reverse SDE's: every weak-order error is Monte Carlo noise
    zm, spec = ZeroModel(1, sched), SolverSpec(family, mode=mode)
    grids = [linear_lambda_grid(m, sched.t_min, sched.t_max, sched) for m in (6, 9, 14)]
    est = weak_order(spec, zm, grids, 20_000, RngStream(5))
    assert est.excluded == [0, 1, 2] and math.isnan(est.slope), est.errors
    n, grid = 20_000, grids[-1]
    rep = terminal_distribution_check(spec, zm, grid, n, RngStream(8))
    a_0, _, sbar_0 = sched.alpha_sigma(float(grid.times[0]))
    var = (sched.alpha_sigma(float(grid.times[-2]))[0] / a_0) ** 2 * sbar_0**2
    assert rep.target_cov_diag[0] == pytest.approx(var, rel=1e-12)
    assert abs(rep.cov_diag[0] - var) < 5.0 * var * math.sqrt(2.0 / n)


def test_weak_order_euler_maruyama_order_one(vp, gauss_model):
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (14, 21, 32, 48)]
    est_em = weak_order(SolverSpec("euler_maruyama"), gauss_model, grids, 50_000,
                        RngStream(9))
    assert est_em.excluded == []
    assert 0.8 <= est_em.slope <= 1.8
    # the one-stage exponential solver beats it pointwise at matched NFE
    est_s1 = weak_order(SolverSpec("seeds1"), gauss_model, grids, 50_000, RngStream(9))
    for e_em, e_s1 in zip(est_em.errors, est_s1.errors):
        assert e_s1 < e_em


def test_weak_order_sorts_grids_by_step_size(vp, gauss_model):
    grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in (25, 16, 30, 20)]
    est = weak_order(SolverSpec("seeds2"), gauss_model, grids, 20_000, RngStream(3))
    assert est.h_values == sorted(est.h_values, reverse=True)


def test_per_step_compare_reflexive(vp, gauss_model):
    grid = linear_lambda_grid(10, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("seeds1"), SolverSpec("seeds1"), gauss_model, grid,
                            RngStream(2))
    assert diff == 0.0


def test_per_step_compare_gddim_vs_seeds1dp(vp, gauss_model):
    grid = linear_lambda_grid(30, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("gddim"), SolverSpec("seeds1", mode="dp"),
                            gauss_model, grid, RngStream(4))
    assert diff < 1e-10


def test_per_step_compare_seeds1_vs_dpm1_gap(vp, gauss_model):
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("seeds1"), SolverSpec("dpm1"), gauss_model, grid,
                            RngStream(4), zero_noise=True)
    assert diff > 1e-3


def test_per_step_compare_applies_churn():
    edm = Edm(sigma_data=0.5)
    model = ScoreModel(DataDistribution.standard_normal(1), edm)
    grid = edm_grid(16, edm.t_min, edm.t_max, 7.0, edm)
    churned = SolverSpec("seeds3", churn=ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0,
                                                     s_noise=1.003))
    assert per_step_compare(churned, SolverSpec("seeds3"), model, grid, RngStream(3)) > 1e-3
    assert per_step_compare(churned, churned, model, grid, RngStream(3)) == 0.0


def test_per_step_compare_rejects_non_finite_state(vp, gauss_model, nan_from_model):
    # steps evaluate a, then b: the 4th evaluation is dpm1's second step
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    with pytest.raises(DomainError, match=r"non-finite state after step 2 at t="):
        per_step_compare(SolverSpec("seeds1"), SolverSpec("dpm1"), nan_from_model(gauss_model, 4),
                         grid, RngStream(3))


def test_zero_model_has_no_oracle_on_edm():
    # on EDM noise_pred == 0 is N(0, sigma_data^2) data but data_pred == x is
    # the score-0 model, so no single exact law fits both
    edm = Edm()
    grid = edm_grid(8, edm.t_min, edm.t_max, 7.0, edm)
    with pytest.raises(ConfigError, match="zero model has no exact law on EDM"):
        terminal_distribution_check(SolverSpec("seeds1"), ZeroModel(1, edm), grid, 100,
                                    RngStream(1))


def test_terminal_check_zero_model_matches_propagated_gaussian(vp):
    zm = ZeroModel(1, vp)
    grid = linear_lambda_grid(9, vp.t_min, vp.t_max, vp)
    stream = RngStream(21)
    from seeds_sde.solvers import sample

    n = 200_000
    res = sample(StepPlan(SolverSpec("seeds1"), zm, grid), stream, n_paths=n)
    t_last, t0 = float(grid.times[-2]), float(grid.times[0])
    a_l, a_0 = vp.alpha_sigma(t_last)[0], vp.alpha_sigma(t0)[0]
    sbar_0 = vp.alpha_sigma(t0)[2]
    sbar_l = vp.alpha_sigma(t_last)[2]
    h_tot = vp.lambda_of_t(t_last) - vp.lambda_of_t(t0)
    var = (a_l / a_0) ** 2 * sbar_0**2 + sbar_l**2 * math.expm1(2.0 * h_tot)
    emp = res.terminal.var()
    se = var * math.sqrt(2.0 / n)
    assert abs(emp - var) < 5.0 * se


def test_terminal_check_edm_noise_prediction_recovery(moments_within):
    # nonzero raw-network output: data variance differs from sigma_data^2
    from seeds_sde import DataDistribution, Edm, ScoreModel
    from seeds_sde.grids import edm_grid

    sched = Edm(sigma_data=0.5)
    data = DataDistribution(np.array([1.0]), np.zeros((1, 1)), np.array([[1.44]]))
    model = ScoreModel(data, sched)
    grid = edm_grid(41, 0.002, 80.0, 7.0, sched)
    for fam in ("seeds1", "seeds3"):
        rep = terminal_distribution_check(SolverSpec(fam), model, grid,
                                          50_000, RngStream(2))
        assert moments_within(rep, 5.0, 0.02), fam


def test_terminal_check_report_fields(vp, gauss_model):
    grid = linear_lambda_grid(16, vp.t_min, vp.t_max, vp)
    rep = terminal_distribution_check(SolverSpec("seeds2"), gauss_model, grid,
                                      20_000, RngStream(6))
    assert rep.n_paths == 20_000
    assert rep.target_mean.shape == (1,)
    assert rep.mean_se[0] > 0
    assert rep.skewness_se == pytest.approx(math.sqrt(6.0 / 20_000))


def test_compare_and_strong_order_evaluate_from_the_table(vp, marginal_calls):
    # per_step_compare prepares one table for both walks, strong_order one
    # for its fine nodes; only the exact flow's terminal law at t_min
    # computes a marginal
    model = ScoreModel(DataDistribution.standard_normal(2), vp)
    grid = linear_lambda_grid(20, vp.t_min, vp.t_max, vp)
    churned = SolverSpec("seeds3", churn=ChurnParams(s_churn=4.0, s_tmin=0.05, s_tmax=15.0))
    per_step_compare(churned, SolverSpec("dpm2"), model, grid, RngStream(3))
    assert marginal_calls == [] and model.nfe == 19 * (3 + 2)
    strong_order(SolverSpec("seeds1"), model, base_steps=2, refinements=3, n_paths=64,
                 stream=RngStream(3), ref_extra=1)
    assert set(marginal_calls) <= {vp.t_min}


@pytest.mark.parametrize("call, words", [
    (lambda vp: strong_order(SolverSpec("seeds1"), ZeroModel(1, vp), base_steps=2,
                             refinements=3, n_paths=8, stream=RngStream(0), ref_extra=0),
     "reference must sit at least one halving below"),
    (lambda vp: GaussianFlowOracle(DataDistribution.standard_normal(1), vp).moment(0.5, 3),
     "unsupported moment power 3"),
    # no walk starts on fewer than one path: no NaN moments and no RuntimeWarning
    (lambda vp: terminal_distribution_check(SolverSpec("seeds1"), ZeroModel(1, vp),
                                            linear_lambda_grid(5, vp.t_min, vp.t_max, vp),
                                            n_paths=0, stream=RngStream(0)),
     "need at least one path, got 0"),
], ids=["ref-extra-0", "moment-3", "no-paths"])
def test_bad_harness_inputs_raise_named_errors(vp, call, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=words):
            call(vp)
