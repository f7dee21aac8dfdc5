"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n PASS/FAIL`` line (visible with -s or in
the captured output) and asserts the criterion.  Tolerances are pinned here,
not configurable.
"""

import math
import time

import numpy as np
import pytest

from seeds_sde import (
    DataDistribution,
    DegenerateGridError,
    RngStream,
    ScoreModel,
    SolverSpec,
    StepPlan,
    VpLinear,
    ZeroModel,
    edm_grid,
    linear_lambda_grid,
    per_step_compare,
    phi,
    sample,
    sqrt_exp_diff,
    strong_order,
    terminal_distribution_check,
    weak_order,
)
from seeds_sde.cli import main as cli_main
from seeds_sde.harness import fit_loglog
from seeds_sde.noise import raw_increment_var, stage_noise_weights
from seeds_sde.schedules import Edm

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def report(n, description, ok):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {n} failed: {description}"


@pytest.fixture(scope="module")
def vp():
    return VpLinear()


@pytest.fixture(scope="module")
def gauss_model(vp):
    return ScoreModel(DataDistribution.standard_normal(1), vp)


def test_criterion_1_strong_order(gauss_model):
    t0 = time.perf_counter()
    est = strong_order(SolverSpec("seeds1"), gauss_model, base_steps=32,
                       refinements=4, n_paths=10_000, stream=RngStream(5))
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= est.slope <= 1.2 and est.r2 >= 0.95 and elapsed < 120.0
    # regression stability: dropping the largest h moves the slope < 0.05
    idx = list(np.argsort(est.h_values)[::-1][1:])
    slope_rest, _, _, _ = fit_loglog([est.h_values[i] for i in idx],
                                     [est.errors[i] for i in idx])
    ok = ok and abs(slope_rest - est.slope) < 0.05
    report(1, f"strong order slope={est.slope:.3f} in [0.8, 1.2], r2={est.r2:.4f} >= 0.95, "
              f"{elapsed:.1f}s", ok)


def test_criterion_2_weak_order(vp, gauss_model):
    t0 = time.perf_counter()
    results = {}
    for fam, steps in (("seeds2", (14, 17, 21, 25)), ("seeds3", (14, 17, 21, 26))):
        grids = [linear_lambda_grid(m, vp.t_min, vp.t_max, vp) for m in steps]
        est = weak_order(SolverSpec(fam), gauss_model, grids, 100_000, RngStream(3))
        results[fam] = est
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0
    for fam, est in results.items():
        kept = [i for i in range(len(est.h_values)) if i not in est.excluded]
        ok = ok and est.slope >= 0.8 and len(kept) >= 4
        ok = ok and all(se > 0.0 for se in est.ses)  # SE bars reported
    report(2, "weak order slopes "
              f"seeds2={results['seeds2'].slope:.2f}, seeds3={results['seeds3'].slope:.2f} "
              f">= 0.8 at 1e5 paths over 4 resolutions, {elapsed:.1f}s", ok)


def test_criterion_3_linear_exactness(vp):
    from seeds_sde.solvers import step_once

    zm = ZeroModel(1, vp)
    x = np.array([1.3])
    s, u, t = 0.9, 0.55, 0.2
    zd = {1: np.zeros(1)}
    seeds1 = SolverSpec("seeds1")
    one = step_once(seeds1, zm, x, s, t, zd)
    two = step_once(seeds1, zm, step_once(seeds1, zm, x, s, u, zd), u, t, zd)
    mean_ok = float(np.max(np.abs(one - two))) <= 1e-12 * float(np.max(np.abs(one)))

    lam = vp.lambda_of_t
    h, h1, h2 = lam(t) - lam(s), lam(u) - lam(s), lam(t) - lam(u)
    a_t, a_u = vp.alpha_sigma(t)[0], vp.alpha_sigma(u)[0]
    # the one-stage step's noise coefficient np_noise(t) sqrt(e^{2h} - 1)
    v_one = (vp.np_noise(t) * math.sqrt(math.expm1(2.0 * h))) ** 2
    v_two = (a_t / a_u) ** 2 * (vp.np_noise(u) * math.sqrt(math.expm1(2.0 * h1))) ** 2 \
        + (vp.np_noise(t) * math.sqrt(math.expm1(2.0 * h2))) ** 2
    var_ok = abs(v_one - v_two) <= 1e-12 * v_one
    report(3, "zero-model one-step vs chained-step mean (1e-12) and variance "
              "telescoping (1e-12)", mean_ok and var_ok)


def test_criterion_4_gddim_equivalence(vp, gauss_model):
    grid = linear_lambda_grid(30, vp.t_min, vp.t_max, vp)
    diff = per_step_compare(SolverSpec("gddim"), SolverSpec("seeds1", mode="dp"),
                            gauss_model, grid, RngStream(4))
    report(4, f"gddim vs seeds1-dp per-step max relative diff {diff:.3e} < 1e-10",
           diff < 1e-10)


def test_criterion_5_solver_separations(vp, gauss_model, moments_within):
    grid = linear_lambda_grid(12, vp.t_min, vp.t_max, vp)
    gap_dpm = per_step_compare(SolverSpec("seeds1"), SolverSpec("dpm1"), gauss_model,
                               grid, RngStream(4), zero_noise=True)
    gap_mode = per_step_compare(SolverSpec("seeds1", mode="np"),
                                SolverSpec("seeds1", mode="dp"),
                                gauss_model, grid, RngStream(4))
    separated = gap_dpm > 1e-6 and gap_mode > 1e-6

    # each pair member still recovers the target law (order-1 members need
    # finer grids than the three-stage M=31 budget to meet the same 2% bar)
    recovers = True
    for fam, mode, m in (("seeds1", "np", 91), ("seeds1", "dp", 1001), ("dpm1", "np", 601)):
        g = linear_lambda_grid(m, vp.t_min, vp.t_max, vp)
        rep = terminal_distribution_check(SolverSpec(fam, mode=mode), gauss_model, g, 100_000,
                                          RngStream(11))
        recovers = recovers and moments_within(rep, 5.0, 0.02)
    report(5, f"per-step gaps (seeds1|dpm1)={gap_dpm:.3e}, (np|dp)={gap_mode:.3e} "
              "> 1e-6 while every member recovers the target law", separated and recovers)


def test_criterion_6_distribution_recovery(vp, gauss_model, moments_within):
    # the continuous-model sampling configuration: sigma ladder with default
    # rho = 7 mapped through the VP schedule, M = 31 (NFE 90)
    grid = edm_grid(31, 0.0032, 80.0, 7.0, vp)
    rep = terminal_distribution_check(SolverSpec("seeds3"), gauss_model, grid,
                                      100_000, RngStream(11))
    gauss_ok = moments_within(rep, 5.0, 0.02)

    data = DataDistribution(np.array([0.5, 0.5]), np.array([[1.5], [-1.5]]),
                            np.ones((2, 1)))
    mix_model = ScoreModel(data, vp)
    rep_mix = terminal_distribution_check(SolverSpec("seeds3"), mix_model, grid,
                                          100_000, RngStream(11))
    mix_ok = bool(np.all(np.abs(rep_mix.skewness) <= 5.0 * rep_mix.skewness_se))
    report(6, f"seeds3/M=31/1e5 paths: mean within 5SE, cov diag {rep.cov_diag[0]:.4f} "
              f"within 2% of 1; mixture skewness {rep_mix.skewness[0]:+.4f} within 5SE",
           gauss_ok and mix_ok)


def test_criterion_7_phi_calculus():
    t0 = time.perf_counter()
    ok = True
    # recursion identity
    for k in range(8):
        for h in (-5.0, -1.0, -0.1, -1e-6, 1e-6, 0.1, 1.0, 5.0):
            lhs = h * phi(k + 1, h) + 1.0 / math.factorial(k)
            ok = ok and abs(lhs - phi(k, h)) <= 1e-12 * max(1.0, abs(phi(k, h)))
    # Taylor switch region
    for k in range(9):
        for h in (-9e-5, 1e-6, 9e-5):
            taylor = sum(h**j / math.factorial(k + j) for j in range(7))
            ok = ok and abs(phi(k, h) - taylor) <= 1e-14 * abs(taylor)
    # quadrature agreement to 1e-12 relative
    for k in range(9):
        for h in (-50.0, -5.0, -0.5, 0.5, 5.0, 50.0):
            if k == 0:
                want = math.exp(h)
            else:
                tau = 0.5 * (GL_NODES + 1.0)
                vals = np.exp((1.0 - tau) * h) * tau ** (k - 1) / math.factorial(k - 1)
                want = float(np.sum(GL_WEIGHTS * vals) * 0.5)
            ok = ok and abs(phi(k, h) - want) <= 1e-12 * abs(want)
    # expm1 identities to 1e-14 over the stated h grid
    z1, z2 = 0.83, -0.44
    for h in (1e-8, 1e-6, 1e-3, 0.1, 1.0, 5.0):
        lhs = sqrt_exp_diff(2 * h, h) * z1 + math.sqrt(math.expm1(h)) * z2
        rhs = math.sqrt(math.expm1(h)) * (math.exp(0.5 * h) * z1 + z2)
        ok = ok and abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1e-300)
        # the z-coefficients of the three-stage step's full-step noise B
        comb = sum(stage_noise_weights((1 / 3, 2 / 3, 1.0), h)[2])
        direct = sqrt_exp_diff(2 * h, 4 * h / 3) + sqrt_exp_diff(4 * h / 3, 2 * h / 3) \
            + math.sqrt(math.expm1(2 * h / 3))
        ok = ok and abs(comb - direct) <= 1e-14 * abs(direct)
        total = (math.exp(2 * h) - math.exp(4 * h / 3)) + (math.exp(4 * h / 3)
                 - math.exp(2 * h / 3)) + (math.exp(2 * h / 3) - 1.0)
        ok = ok and abs(total - math.expm1(2 * h)) <= 1e-14 * max(1.0, math.expm1(2 * h))
    elapsed = time.perf_counter() - t0
    report(7, f"phi recursion/Taylor/quadrature (1e-12) + expm1 identities (1e-14), "
              f"{elapsed:.2f}s < 1s", ok and elapsed < 1.0)


def test_criterion_8_noise_law(vp, correlated_pair):
    t0 = time.perf_counter()
    ok = True
    # Ito isometry vs 64-point quadrature, 1e-12
    for lam_a, lam_b in ((-3.0, -1.0), (-0.5, 0.5), (0.2, 2.7)):
        mid, half = 0.5 * (lam_a + lam_b), 0.5 * (lam_b - lam_a)
        quad = float(np.sum(GL_WEIGHTS * np.exp(-2.0 * (mid + half * GL_NODES))) * half)
        ok = ok and abs(raw_increment_var(lam_a, lam_b) - quad) <= 1e-12 * quad
    # staged telescoping is exact algebra (checked through the coefficients)
    h, r1, r2, sbar = 0.6, 1 / 3, 2 / 3, 1.0
    coefs = [sbar * c for c in stage_noise_weights((r1, r2, 1.0), h)[2]]
    ok = ok and abs(sum(c * c for c in coefs) - math.expm1(2 * h)) <= 1e-13 * math.expm1(2 * h)
    # Monte Carlo covariances within 5 SE at 1e6 draws
    n = 1_000_000
    gen = np.random.Generator(np.random.Philox(key=31))
    zs = [gen.standard_normal(n) for _ in range(3)]
    b_draw = sum(w * z for w, z in zip(stage_noise_weights((r1, r2, 1.0), h)[2], zs))
    var_b = b_draw.var()
    target_b = math.expm1(2 * h)
    ok = ok and abs(var_b - target_b) < 5.0 * target_b * math.sqrt(2.0 / n)
    w, zq = correlated_pair(gen, 0.2, size=n)
    cov_wz = float(np.mean(w * zq))
    se = float(np.std(w * zq)) / math.sqrt(n)
    ok = ok and abs(cov_wz - 0.2**2 / 2.0) < 5.0 * se
    elapsed = time.perf_counter() - t0
    report(8, f"isometry (1e-12), telescoping, MC covariances within 5 SE at 1e6 draws, "
              f"{elapsed:.1f}s < 60s", ok and elapsed < 60.0)


def test_criterion_9_grid_contract(vp, gauss_model):
    sched = Edm(sigma_data=0.5)
    grid = edm_grid(18, 0.002, 80.0, 7.0, sched)
    endpoints_ok = grid.times[0] == 80.0 and grid.times[17] == 0.002

    try:
        edm_grid(64, 1.0, 1.0 + 1e-14, 7.0, sched)
        degenerate_ok = False
    except DegenerateGridError as err:
        degenerate_ok = "t_" in str(err)

    lgrid = linear_lambda_grid(13, vp.t_min, vp.t_max, vp)
    nfe_ok = True
    for fam, k in (("seeds1", 1), ("seeds2", 2), ("seeds3", 3)):
        gauss_model.nfe = 0
        res = sample(StepPlan(SolverSpec(fam), gauss_model, lgrid), RngStream(0), n_paths=2)
        nfe_ok = nfe_ok and gauss_model.nfe == k * 12 == res.nfe_per_path
    gauss_model.nfe = 0
    report(9, "edm grid endpoints exact, degenerate grids raise the named error, "
              "NFE = k(M-1)", endpoints_ok and degenerate_ok and nfe_ok)


def test_criterion_10_determinism(tmp_path, capsys):
    # selftest byte-identical across invocations
    assert cli_main(["selftest", "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["selftest", "--seed", "0"]) == 0
    second = capsys.readouterr().out
    selftest_ok = first == second and "FAIL" not in first

    # sample byte-identical across reruns and worker counts {1, 4}
    outs = {}
    for name, workers in (("w1a", 1), ("w1b", 1), ("w4", 4)):
        out = tmp_path / name
        code = cli_main(["sample", "--solver", "seeds2", "--steps", "9",
                         "--paths", "20000", "--seed", "7", "--workers", str(workers),
                         "--out", str(out)])
        assert code == 0
        with open(out / "terminal.csv", "rb") as fh:
            outs[name] = fh.read()
    capsys.readouterr()
    sample_ok = outs["w1a"] == outs["w1b"] == outs["w4"]
    report(10, "selftest and sample byte-identical across reruns and worker counts {1,4}",
           selftest_ok and sample_ok)
