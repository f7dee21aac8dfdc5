import collections
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from seeds_sde import (
    ChurnParams,
    DataDistribution,
    Edm,
    RngStream,
    ScoreModel,
    SolverSpec,
    Ve,
    VpCosine,
    VpLinear,
    ZeroModel,
    linear_lambda_grid,
    sample,
)
from seeds_sde.errors import ConfigError, DomainError, GridError
from seeds_sde.schedules import ODE, ScheduleBase
from seeds_sde.solvers import (
    FAMILIES,
    STAGE_PARAMS,
    StepDraws,
    StepPlan,
    churn_inject,
    churn_lift,
    lockstep,
    stage_nodes,
    stages_step,
    step_once,
    walk,
)

D0 = {k: np.zeros(1) for k in range(4)}  # every stage draw zero


# -- extended-precision replicas of the step listings -------------------------


class MpVp:
    """50-digit replica of the VP-linear schedule."""

    def __init__(self, beta_d="19.9", beta_m="0.1"):
        self.bd = mpmath.mpf(beta_d)
        self.bm = mpmath.mpf(beta_m)

    def abar(self, t):
        return self.bd * t * t / 2 + self.bm * t

    def alpha(self, t):
        return mpmath.exp(-self.abar(t) / 2)

    def sigma(self, t):
        return mpmath.sqrt(mpmath.expm1(self.abar(t)))

    def sbar(self, t):
        return self.alpha(t) * self.sigma(t)

    def lam(self, t):
        return -mpmath.log(self.sigma(t))

    def t_of_lam(self, lam):
        big = mpmath.log(mpmath.exp(-2 * lam) + 1)
        return 2 * big / (mpmath.sqrt(self.bm**2 + 2 * self.bd * big) + self.bm)


def mp_seeds2(mp_sched, f_model, x, s, t, z1, z2):
    """Line-by-line two-stage step in 50-digit arithmetic."""
    lam_s, lam_t = mp_sched.lam(s), mp_sched.lam(t)
    h = lam_t - lam_s
    s1 = mp_sched.t_of_lam(lam_s + h / 2)
    u = (mp_sched.alpha(s1) / mp_sched.alpha(s)) * x \
        - 2 * mp_sched.sbar(s1) * (mpmath.exp(h / 2) - 1) * f_model(x, s) \
        - mp_sched.sbar(s1) * mpmath.sqrt(mpmath.exp(h) - 1) * z1
    return (mp_sched.alpha(t) / mp_sched.alpha(s)) * x \
        - 2 * mp_sched.sbar(t) * (mpmath.exp(h) - 1) * f_model(u, s1) \
        - mp_sched.sbar(t) * (mpmath.sqrt(mpmath.exp(2 * h) - mpmath.exp(h)) * z1
                              + mpmath.sqrt(mpmath.exp(h) - 1) * z2)


def mp_seeds3(mp_sched, f_model, x, s, t, z1, z2, z3, r1, r2):
    lam_s, lam_t = mp_sched.lam(s), mp_sched.lam(t)
    h = lam_t - lam_s
    s1 = mp_sched.t_of_lam(lam_s + r1 * h)
    s2 = mp_sched.t_of_lam(lam_s + r2 * h)
    f_s = f_model(x, s)
    u1 = (mp_sched.alpha(s1) / mp_sched.alpha(s)) * x \
        - 2 * mp_sched.sbar(s1) * (mpmath.exp(r1 * h) - 1) * f_s \
        - mp_sched.sbar(s1) * mpmath.sqrt(mpmath.exp(2 * r1 * h) - 1) * z1
    a_noise = mp_sched.sbar(s2) * (
        mpmath.sqrt(mpmath.exp(2 * r2 * h) - mpmath.exp(2 * r1 * h)) * z1
        + mpmath.sqrt(mpmath.exp(2 * r1 * h) - 1) * z2)
    u2 = (mp_sched.alpha(s2) / mp_sched.alpha(s)) * x \
        - 2 * mp_sched.sbar(s2) * (mpmath.exp(r2 * h) - 1) * f_s \
        - 2 * (mp_sched.sbar(s2) * r2 / r1) * ((mpmath.exp(r2 * h) - 1) / (r2 * h) - 1) \
        * (f_model(u1, s1) - f_s) - a_noise
    b_noise = mp_sched.sbar(t) * (
        mpmath.sqrt(mpmath.exp(2 * h) - mpmath.exp(2 * r2 * h)) * z1
        + mpmath.sqrt(mpmath.exp(2 * r2 * h) - mpmath.exp(2 * r1 * h)) * z2
        + mpmath.sqrt(mpmath.exp(2 * r1 * h) - 1) * z3)
    return (mp_sched.alpha(t) / mp_sched.alpha(s)) * x \
        - 2 * mp_sched.sbar(t) * (mpmath.exp(h) - 1) * f_s \
        - 2 * (mp_sched.sbar(t) / r2) * ((mpmath.exp(h) - 1) / h - 1) \
        * (f_model(u2, s2) - f_s) - b_noise


def gaussian_f_mp(mp_sched):
    """Noise prediction of unit-Gaussian data in 50-digit arithmetic."""

    def f(x, t):
        a = mp_sched.alpha(t)
        sbar = mp_sched.sbar(t)
        return sbar * x / (a * a + sbar * sbar)

    return f


# -- one-stage step -----------------------------------------------------------


def test_seeds1_zero_model_linear_transition(vp):
    zm = ZeroModel(1, vp)
    x = np.array([1.7])
    s, t = 0.8, 0.3
    out = step_once(SolverSpec("seeds1"), zm, x, s, t, D0)
    a_t, a_s = vp.alpha_sigma(t)[0], vp.alpha_sigma(s)[0]
    assert np.allclose(out, (a_t / a_s) * x, rtol=1e-14)


def test_seeds1_constant_f_anchor(vp, constant_model):
    # pick (s, t) with h = ln sqrt(2)
    s = 0.8
    lam_t = vp.lambda_of_t(s) + math.log(math.sqrt(2.0))
    t = vp.t_of_lambda(lam_t)
    model = constant_model(1, vp, noise_value=1.0)
    out = step_once(SolverSpec("seeds1"), model, np.ones(1), s, t, D0)
    a_t, _, sbar_t = vp.alpha_sigma(t)
    a_s = vp.alpha_sigma(s)[0]
    expected = a_t / a_s - 2.0 * sbar_t * (math.sqrt(2.0) - 1.0)
    assert out[0] == pytest.approx(expected, rel=1e-13)


def test_seeds1_np_vs_dp_differ(gauss_model):
    x = np.array([0.9])
    s, t = 0.7, 0.45
    z = np.array([0.31])
    np_out = step_once(SolverSpec("seeds1"), gauss_model, x, s, t, {1: z})
    dp_out = step_once(SolverSpec("seeds1", mode="dp"), gauss_model, x, s, t, {1: z})
    assert np.max(np.abs(np_out - dp_out)) > 1e-6


def test_seeds1_rejects_forward_step(gauss_model):
    for mode in ("np", "dp"):
        with pytest.raises(GridError):
            step_once(SolverSpec("seeds1", mode=mode), gauss_model, np.ones(1), 0.3, 0.8, D0)


def test_staged_steps_reject_a_zero_width_step(vp):
    # SolverSpec checks the stage fractions; the node functions check h > 0 before
    # any staged noise is built
    for spec, sched in ((SolverSpec("seeds2"), vp), (SolverSpec("seeds3"), vp),
                        (SolverSpec("ve2_sde"), Ve())):
        with pytest.raises(GridError):
            step_once(spec, ZeroModel(1, sched), np.ones(1), 0.5, 0.5, D0)


def test_seeds1_dp_noise_coefficient(vp, gauss_model):
    # injected unit draw isolates the + sbar sqrt(1 - e^{-2h}) coefficient
    x = np.array([0.5])
    s, t = 0.6, 0.35
    seeds1_dp = SolverSpec("seeds1", mode="dp")
    base = step_once(seeds1_dp, gauss_model, x, s, t, {1: np.zeros(1)})
    kicked = step_once(seeds1_dp, gauss_model, x, s, t, {1: np.ones(1)})
    h = math.log(vp.alpha_sigma(s)[1] / vp.alpha_sigma(t)[1])
    sbar_t = vp.alpha_sigma(t)[2]
    assert (kicked - base)[0] == pytest.approx(sbar_t * math.sqrt(-math.expm1(-2 * h)), rel=1e-13)


# -- multi-stage steps vs the extended-precision oracle ------------------------


def test_seeds2_matches_line_by_line_oracle(gauss_model):
    mp_sched = MpVp()
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 1.3, 0.85, 0.4
        z1, z2 = 0.42, -1.17
        want = float(mp_seeds2(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t),
                               mpmath.mpf(z1), mpmath.mpf(z2)))
    got = step_once(SolverSpec("seeds2"), gauss_model, np.array([x]), s, t,
                    {1: np.array([z1]), 2: np.array([z2])})
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_seeds2_general_c2_noise_is_coupled(vp, gauss_model):
    # for any c2, the z1 coefficient of the full step must equal the stage-1
    # coefficient carried through the transition C(t)/C(s1): the two noises
    # then live on one Brownian path
    x = np.array([0.0])
    s, t, c2 = 0.8, 0.4, 0.3
    lam = vp.lambda_of_t
    h = lam(t) - lam(s)
    s1 = vp.t_of_lambda(lam(s) + c2 * h)
    # zero model removes the F(u)-mediated part: pure noise algebra remains
    zm, spec = ZeroModel(1, vp), SolverSpec("seeds2", c2=c2)
    base0 = step_once(spec, zm, x, s, t, {1: np.zeros(1), 2: np.zeros(1)})
    kick0 = step_once(spec, zm, x, s, t, {1: np.ones(1), 2: np.zeros(1)})
    full_coef = float((kick0 - base0)[0])
    stage_std = vp.alpha_sigma(s1)[2] * math.sqrt(math.expm1(2.0 * c2 * h))
    carry = (vp.alpha_sigma(t)[2] * math.exp(lam(t))) / (vp.alpha_sigma(s1)[2] * math.exp(lam(s1)))
    assert full_coef == pytest.approx(-stage_std * carry, rel=1e-12)
    # and the total variance still telescopes to e^{2h} - 1
    kick2 = step_once(spec, zm, x, s, t, {1: np.zeros(1), 2: np.ones(1)})
    c_z2 = float((kick2 - base0)[0])
    sbar_t = vp.alpha_sigma(t)[2]
    assert full_coef**2 + c_z2**2 == pytest.approx(sbar_t**2 * math.expm1(2 * h), rel=1e-12)


def test_seeds3_matches_line_by_line_oracle(gauss_model):
    mp_sched = MpVp()
    r1, r2 = 1.0 / 3.0, 2.0 / 3.0
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 0.8, 0.9, 0.5
        z1, z2, z3 = 0.3, -0.6, 1.1
        want = float(mp_seeds3(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t),
                               mpmath.mpf(z1), mpmath.mpf(z2), mpmath.mpf(z3),
                               mpmath.mpf(r1), mpmath.mpf(r2)))
    got = step_once(SolverSpec("seeds3", r1=r1, r2=r2), gauss_model, np.array([x]), s, t,
                    {1: np.array([z1]), 2: np.array([z2]), 3: np.array([z3])})
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_multi_stage_zero_model_linear(vp):
    zm = ZeroModel(1, vp)
    x = np.array([2.0])
    s, t = 0.75, 0.3
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    z = D0
    assert np.allclose(step_once(SolverSpec("seeds2"), zm, x, s, t, z), a_ratio * x, rtol=1e-14)
    assert np.allclose(step_once(SolverSpec("seeds3"), zm, x, s, t, z),
                       a_ratio * x, rtol=1e-14)
    assert np.allclose(step_once(SolverSpec("dpm1"), zm, x, s, t, z), a_ratio * x, rtol=1e-14)
    assert np.allclose(step_once(SolverSpec("dpm4"), zm, x, s, t, z), a_ratio * x, rtol=1e-14)


def test_constant_f_degeneration(vp, constant_model):
    # correction brackets vanish, so all deterministic parts agree with seeds1
    model = constant_model(1, vp, noise_value=0.7)
    x = np.array([1.1])
    s, t = 0.8, 0.35
    z = D0
    one = step_once(SolverSpec("seeds1"), model, x, s, t, z)
    assert np.allclose(step_once(SolverSpec("seeds2"), model, x, s, t, z), one, rtol=1e-13)
    assert np.allclose(step_once(SolverSpec("seeds3"), model, x, s, t, z), one, rtol=1e-13)
    # and dpm4 collapses to the order-1 deterministic step
    h = vp.lambda_of_t(t) - vp.lambda_of_t(s)
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    sbar_t = vp.alpha_sigma(t)[2]
    expected = a_ratio * x - sbar_t * math.expm1(h) * 0.7
    assert np.allclose(step_once(SolverSpec("dpm4"), model, x, s, t, z), expected, rtol=1e-12)
    assert np.allclose(step_once(SolverSpec("dpm1"), model, x, s, t, z), expected, rtol=1e-13)


def test_seeds1_vs_dpm1_factor_two(vp, gauss_model):
    # deterministic parts differ by exactly sbar_t (e^h - 1) |F|
    x = np.array([0.9])
    s, t = 0.7, 0.4
    det = step_once(SolverSpec("seeds1"), gauss_model, x, s, t, D0)
    ode = step_once(SolverSpec("dpm1"), gauss_model, x, s, t, D0)
    h = vp.lambda_of_t(t) - vp.lambda_of_t(s)
    sbar_t = vp.alpha_sigma(t)[2]
    f_val = gauss_model.noise_pred(x, s)
    assert np.allclose(np.abs(det - ode), sbar_t * math.expm1(h) * np.abs(f_val), rtol=1e-12)
    assert np.max(np.abs(det - ode)) > 1e-3


def test_dpm_modes_and_orders(vp, gauss_model):
    x = np.array([0.5])
    s, t = 0.6, 0.3
    # order-1 dp: (sbar_t/sbar_s) x - alpha_t (e^{-h} - 1) D
    a_t, sg_t, sbar_t = vp.alpha_sigma(t)
    a_s, sg_s, sbar_s = vp.alpha_sigma(s)
    h = math.log(sg_s / sg_t)
    d_val = gauss_model.data_pred(x, s)
    want = (sbar_t / sbar_s) * x - a_t * math.expm1(-h) * d_val
    dpm1_dp = SolverSpec("dpm1", mode="dp")
    assert np.allclose(step_once(dpm1_dp, gauss_model, x, s, t, D0), want, rtol=1e-13)
    row = stage_nodes(vp, s, t, False, dp=True)
    assert np.array_equal(step_once(dpm1_dp, gauss_model, x, s, t, D0),
                          stages_step(gauss_model, x, s, None, row, dp=True))
    with pytest.raises(ConfigError):
        SolverSpec("dpm2", mode="dp")
    with pytest.raises(ConfigError):
        SolverSpec("dpm5")
    # one stage fraction too many, which no registry spec gives: three in noise
    # prediction, two in data prediction
    with pytest.raises(ConfigError, match="noise-prediction steps take at most 2"):
        stage_nodes(vp, s, t, False, (0.25, 0.5, 0.75))
    with pytest.raises(ConfigError, match="data-prediction steps take at most 1"):
        stage_nodes(vp, s, t, False, (1 / 3, 2 / 3), dp=True)


def test_dpm_deterministic_order_ratios(vp, gauss_model):
    # one-step self-refinement: error ratio under h -> h/2 approaches 2^(p+1)
    s = 0.75
    lam_s = vp.lambda_of_t(s)
    x = np.array([0.9])
    for order, expected in ((1, 4.0), (2, 8.0)):
        gaps = []
        spec = SolverSpec(f"dpm{order}")
        for h in (0.2, 0.1):
            t = vp.t_of_lambda(lam_s + h)
            mid = vp.t_of_lambda(lam_s + h / 2)
            coarse = step_once(spec, gauss_model, x, s, t, D0)
            fine = step_once(spec, gauss_model, step_once(spec, gauss_model, x, s, mid, D0),
                             mid, t, D0)
            gaps.append(float(np.abs(coarse - fine)[0]))
        ratio = gaps[0] / gaps[1]
        assert expected / 1.5 < ratio < expected * 1.5, (order, ratio)


def mp_dpm4(mp_sched, f_model, x, s, t):
    """50-digit replica of the five-stage step: Hochbruck and Ostermann's order-4
    tableau, stage j at node c_j being Phi(c_j) x - sbar(c_j) h sum_k a_jk f_k."""
    lam_s = mp_sched.lam(s)
    h = mp_sched.lam(t) - lam_s

    def phis(z):   # phi_1, phi_2, phi_3 at z
        p1 = mpmath.expm1(z) / z
        p2 = (p1 - 1) / z
        return p1, p2, (p2 - mpmath.mpf(1) / 2) / z

    (p1m, p2m, p3m), (p1, p2, p3) = phis(h / 2), phis(h)
    a52 = p2m / 2 - p3 + p2 / 4 - p3m / 2
    a54 = p2m / 4 - a52
    half = mpmath.mpf(1) / 2
    rows = [(half, [p1m / 2]), (half, [p1m / 2 - p2m, p2m]), (1, [p1 - 2 * p2, p2, p2]),
            (half, [p1m / 2 - 2 * a52 - a54, a52, a52, a54]),
            (1, [p1 - 3 * p2 + 4 * p3, 0, 0, -p2 + 4 * p3, 4 * p2 - 8 * p3])]
    fs = [f_model(x, s)]
    for j, (c, a) in enumerate(rows):
        u = t if j == len(rows) - 1 else mp_sched.t_of_lam(lam_s + c * h)
        y = (mp_sched.alpha(u) / mp_sched.alpha(s)) * x \
            - mp_sched.sbar(u) * h * sum(a_k * f_k for a_k, f_k in zip(a, fs))
        fs.append(f_model(y, u))
    return y


def test_dpm4_matches_line_by_line_oracle(gauss_model):
    mp_sched = MpVp()
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 0.7, 0.85, 0.45
        want = float(mp_dpm4(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t)))
    got = step_once(SolverSpec("dpm4"), gauss_model, np.array([x]), s, t, D0)
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_dpm4_self_refinement_ratio_is_of_order_four(vp):
    # one-step self-refinement in the ODE lambda: |coarse - two half steps| falls by
    # 2^(p+1) = 32 per halving of h at order 4 (2^2 at order 1)
    data = DataDistribution(np.array([0.3, 0.7]), np.array([[-2.0], [1.5]]),
                            np.array([[0.3], [0.5]]))
    model, s, x = ScoreModel(data, vp), 0.75, np.array([0.7])
    lam_s = vp.lambda_of_t(s, ODE)
    gaps = []
    for h in (0.4, 0.2, 0.1, 0.05):
        t, mid = vp.t_of_lambda(lam_s + h, ODE), vp.t_of_lambda(lam_s + h / 2, ODE)
        dpm4 = SolverSpec("dpm4")
        coarse = step_once(dpm4, model, x, s, t, D0)
        fine = step_once(dpm4, model, step_once(dpm4, model, x, s, mid, D0), mid, t, D0)
        gaps.append(float(np.abs(coarse - fine)[0]))
    assert 2**4.5 <= gaps[-2] / gaps[-1] <= 2**5.5, gaps


# -- baselines ----------------------------------------------------------------


def test_euler_maruyama_formula_oracle(vp, gauss_model):
    x = np.array([0.8])
    s, t = 0.55, 0.52
    z = np.array([0.37])
    got = step_once(SolverSpec("euler_maruyama"), gauss_model, x, s, t, {1: z})
    f = vp.drift_f(s)
    g2 = vp.diffusion_g2(s)
    score = gauss_model.score(x, s)
    want = x + (f * x - g2 * score) * (t - s) + math.sqrt(g2 * (s - t)) * z
    assert np.allclose(got, want, rtol=1e-14)


def test_euler_maruyama_small_step_stays_close(gauss_model):
    x = np.array([0.8])
    out = step_once(SolverSpec("euler_maruyama"), gauss_model, x, 0.5, 0.5 - 1e-8, D0)
    assert abs(out[0] - x[0]) < 1e-6


def test_euler_maruyama_zero_diffusion_reduces_to_explicit_euler(gauss_model):
    class NoDiffusion(VpLinear):
        def diffusion_g2(self, t):
            return 0.0

    sched = NoDiffusion()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    x = np.array([0.8])
    s, t = 0.6, 0.55
    out = step_once(SolverSpec("euler_maruyama"), model, x, s, t, {1: np.ones(1)})
    assert np.allclose(out, x + sched.drift_f(s) * x * (t - s), rtol=1e-14)


def test_exp_euler_variants(vp, gauss_model, constant_model):
    x = np.array([1.2])
    s, t = 0.7, 0.5
    zm, etd, lawson = ZeroModel(1, vp), SolverSpec("exp_euler_etd"), SolverSpec("exp_euler_lawson")
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    assert np.allclose(step_once(etd, zm, x, s, t, D0), a_ratio * x, rtol=1e-14)
    assert np.allclose(step_once(lawson, zm, x, s, t, D0), a_ratio * x, rtol=1e-14)
    # etd reproduces e^{A dt} x + dt phi_1(A dt) b F for the effective constant drift
    from seeds_sde.phi import phi

    model = constant_model(1, vp, noise_value=1.0)
    dt = t - s
    a_eff = math.log(a_ratio) / dt
    b_s = vp.np_rate(s)  # alpha_s sigma'(s)
    want = a_ratio * x + dt * phi(1, a_eff * dt) * b_s
    assert np.allclose(step_once(etd, model, x, s, t, D0), want, rtol=1e-13)


def test_exp_euler_gap_shrinks_second_order(mixture_model):
    # ETD and Lawson differ at O(dt^2): halving dt shrinks the gap ~4x
    x = np.array([0.8])
    s = 0.7
    gaps = []
    for dt in (0.1, 0.05):
        t = s - dt
        g = np.abs(step_once(SolverSpec("exp_euler_etd"), mixture_model, x, s, t, D0)
                   - step_once(SolverSpec("exp_euler_lawson"), mixture_model, x, s, t, D0))
        gaps.append(float(g[0]))
    assert gaps[0] > 0.0
    ratio = gaps[0] / gaps[1]
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_gddim_equals_seeds1_dp_per_step(gauss_model):
    x = np.array([1.4])
    s, t = 0.8, 0.55
    z = np.array([-0.23])
    g = step_once(SolverSpec("gddim"), gauss_model, x, s, t, {1: z})
    d = step_once(SolverSpec("seeds1", mode="dp"), gauss_model, x, s, t, {1: z})
    assert np.allclose(g, d, rtol=1e-12)


def test_gddim_formula_oracle(vp, gauss_model):
    x = np.array([0.6])
    s, t = 0.5, 0.3
    z = np.array([0.9])
    a_t, sg_t, sbar_t = vp.alpha_sigma(t)
    a_s, sg_s, _ = vp.alpha_sigma(s)
    h = math.log(sg_s / sg_t)
    eps_hat = gauss_model.noise_pred(x, s)
    want = (a_t / a_s) * x + sbar_t * (sg_t / sg_s - sg_s / sg_t) * eps_hat \
        + sbar_t * math.sqrt(-math.expm1(-2 * h)) * z
    got = step_once(SolverSpec("gddim"), gauss_model, x, s, t, {1: z})
    assert np.allclose(got, want, rtol=1e-14)


def test_gddim_requires_vp():
    model = ScoreModel(DataDistribution.standard_normal(1), Ve())
    with pytest.raises(ConfigError):
        step_once(SolverSpec("gddim"), model, np.ones(1), 2.0, 1.0, D0)


# -- two-stage data-prediction schemes ----------------------------------------


class NullD:
    """Stub whose data prediction vanishes (pure linear part)."""

    dim = 1

    def __init__(self, sched):
        self.sched, self.nfe = sched, 0

    def data_pred(self, x, t):
        self.nfe += 1
        return np.zeros_like(np.asarray(x, dtype=float))


def test_ve2_null_model_sigma_ratio():
    sched = Ve()
    x = np.array([1.5])
    s, t = 4.0, 1.0
    for fam in ("ve2_ode_a", "ve2_ode_b"):
        out = step_once(SolverSpec(fam, r1=0.5), NullD(sched), x, s, t, D0)
        assert np.allclose(out, (t / s) * x, rtol=1e-14)
    out = step_once(SolverSpec("ve2_sde", r1=0.5), NullD(sched), x, s, t, D0)
    assert np.allclose(out, (t * t / (s * s)) * x, rtol=1e-14)


def test_ve2_constant_d_ode_forms_coincide(constant_model):
    sched = Ve()
    model = constant_model(1, sched, data_value=0.8)
    x = np.array([1.1])
    s, t = 5.0, 2.0
    a = step_once(SolverSpec("ve2_ode_a", r1=0.4), model, x, s, t, D0)
    b = step_once(SolverSpec("ve2_ode_b", r1=0.4), model, x, s, t, D0)
    assert np.allclose(a, b, rtol=1e-12)


def test_ve2_sde_noise_variance_telescopes():
    sched = Ve()
    s, t, r = 4.0, 1.5, 0.45
    h = math.log(s / t)
    spec = SolverSpec("ve2_sde", r1=r)
    coefs = []
    for j in (1, 2):
        z = {1: np.zeros(1), 2: np.zeros(1)}
        base = step_once(spec, NullD(sched), np.zeros(1), s, t, dict(z))
        z[j] = np.ones(1)
        kicked = step_once(spec, NullD(sched), np.zeros(1), s, t, z)
        coefs.append(float(kicked[0] - base[0]))
    total = sum(c * c for c in coefs)
    # matches the one-stage dp variance sigma_t^2 (1 - e^{-2h})
    assert total == pytest.approx(t * t * -math.expm1(-2 * h), rel=1e-12)


def test_ve2_runs_on_edm_dp():
    sched = Edm(sigma_data=0.5)
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    out = step_once(SolverSpec("ve2_sde", r1=0.5), model, np.array([0.7]), 3.0, 1.0,
                    {1: np.zeros(1), 2: np.zeros(1)})
    assert np.isfinite(out).all()


def mp_ve2(d_model, x, s, t, r, kind, z1=0, z2=0):
    """50-digit line-by-line two-stage data-prediction step on VE (sigma = t)."""
    h = mpmath.log(s / t)
    sg_1 = s * mpmath.exp(-r * h)
    d_s = d_model(x, s)
    if kind == "sde":
        u = (sg_1 / s) ** 2 * x + (1 - mpmath.exp(-2 * r * h)) * d_s \
            + sg_1 * mpmath.sqrt(1 - mpmath.exp(-2 * r * h)) * z1
        d_u = d_model(u, sg_1)
        bracket = (1 - 1 / (2 * r)) * d_s + d_u / (2 * r)
        return (t / s) ** 2 * x + (1 - mpmath.exp(-2 * h)) * bracket \
            + t * (mpmath.sqrt(mpmath.exp(-2 * (1 - r) * h) - mpmath.exp(-2 * h)) * z1
                   + mpmath.sqrt(1 - mpmath.exp(-2 * (1 - r) * h)) * z2)
    u = (sg_1 / s) * x + (1 - mpmath.exp(-r * h)) * d_s
    d_u = d_model(u, sg_1)
    if kind == "ode_a":
        bracket = (1 - 1 / (2 * r)) * d_s + d_u / (2 * r)
        return (t / s) * x + (1 - mpmath.exp(-h)) * bracket
    return (t / s) * x + (1 - mpmath.exp(-h)) * d_s \
        + ((mpmath.exp(-h) - 1) / h + 1) / r * (d_u - d_s)


@pytest.mark.parametrize("kind", ["sde", "ode_a", "ode_b"])
def test_ve2_matches_line_by_line_oracle(kind):
    sched = Ve()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    x, s, t, r = 0.8, 4.0, 1.5, 0.45
    z1, z2 = 0.42, -1.17
    with mpmath.workdps(50):
        want = float(mp_ve2(lambda y, sg: y / (1 + sg * sg),  # D of unit-Gaussian data
                            mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t), mpmath.mpf(r), kind,
                            mpmath.mpf(z1), mpmath.mpf(z2)))
    got = step_once(SolverSpec(f"ve2_{kind}", r1=r), model, np.array([x]), s, t,
                    {1: np.array([z1]), 2: np.array([z2])})
    assert got[0] == pytest.approx(want, rel=1e-13)


# -- data-prediction references ------------------------------------------------
# The three bodies the data-prediction stage step replaced, kept verbatim as byte
# references.


def ref_seeds1_dp(model, sched, x_s, s, t, draws):
    a_s, sg_s, _ = sched.alpha_sigma(s)
    a_t, sg_t, sbar_t = sched.alpha_sigma(t)
    h = math.log(sg_s / sg_t)
    d_val = model.data_pred(x_s, s)
    eps = draws[1]
    trans = (sg_t * sg_t * a_t) / (sg_s * sg_s * a_s)
    det = trans * x_s - a_t * math.expm1(-2.0 * h) * d_val
    return det + sbar_t * math.sqrt(-math.expm1(-2.0 * h)) * eps


def ref_dpm1_dp(model, sched, x_s, s, t):
    a_s, sg_s, sbar_s = sched.alpha_sigma(s)
    a_t, sg_t, sbar_t = sched.alpha_sigma(t)
    h = math.log(sg_s / sg_t)
    d_val = model.data_pred(x_s, s)
    return (sbar_t / sbar_s) * x_s - a_t * math.expm1(-h) * d_val


def ref_ve_2stage(model, sched, x_s, s, t, draws, r, kind):
    from seeds_sde.phi import phi, sqrt_exp_diff

    sg_s = sched.sigma_of_t(s)
    sg_t = sched.sigma_of_t(t)
    h = math.log(sg_s / sg_t)
    s1 = sched.time_of_sigma(sg_s * math.exp(-r * h))
    sg_1 = sg_s * math.exp(-r * h)
    d_s = model.data_pred(x_s, s)
    if kind == "sde":
        z1, z2 = draws[1], draws[2]
        u = (
            (sg_1 * sg_1 / (sg_s * sg_s)) * x_s
            - math.expm1(-2.0 * r * h) * d_s
            + sg_1 * math.sqrt(-math.expm1(-2.0 * r * h)) * z1
        )
        d_u = model.data_pred(u, s1)
        bracket = (1.0 - 0.5 / r) * d_s + (0.5 / r) * d_u
        carried = sqrt_exp_diff(-2.0 * (1.0 - r) * h, -2.0 * h)
        fresh = math.sqrt(-math.expm1(-2.0 * (1.0 - r) * h))
        return (
            (sg_t * sg_t / (sg_s * sg_s)) * x_s
            - math.expm1(-2.0 * h) * bracket
            + sg_t * (carried * z1 + fresh * z2)
        )
    u = (sg_1 / sg_s) * x_s - math.expm1(-r * h) * d_s
    d_u = model.data_pred(u, s1)
    if kind == "ode_a":
        bracket = (1.0 - 0.5 / r) * d_s + (0.5 / r) * d_u
        return (sg_t / sg_s) * x_s - math.expm1(-h) * bracket
    corr = (1.0 / r) * h * phi(2, -h)
    return (sg_t / sg_s) * x_s - math.expm1(-h) * d_s + corr * (d_u - d_s)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_DP_SCHEDULES = {
    "vp": (VpLinear(), ((0.7, 0.5), (0.95, 0.9), (0.2, 0.01))),
    "vp_cosine": (VpCosine(), ((0.7, 0.5), (0.95, 0.9), (0.2, 0.01))),
    "ve": (Ve(), ((4.0, 2.0), (80.0, 60.0), (0.5, 0.002))),
    "edm": (Edm(sigma_data=0.5), ((4.0, 2.0), (80.0, 60.0), (0.5, 0.002))),
}


def _dp_case(name, seed):
    """A 3-component d=4 mixture on the schedule, 32 states (with signed
    zeros) and stage draws."""
    sched, pairs = _DP_SCHEDULES[name]
    rng = np.random.default_rng(seed)
    data = DataDistribution(np.array([0.2, 0.3, 0.5]), rng.normal(0.0, 2.0, (3, 4)),
                            rng.uniform(0.3, 1.5, (3, 4)))
    x = rng.normal(0.0, 3.0, (32, 4))
    x[0], x[1] = 0.0, -0.0
    draws = {k: rng.normal(size=(32, 4)) for k in (1, 2)}
    return sched, pairs, ScoreModel(data, sched), x, draws


@pytest.mark.parametrize("name", list(_DP_SCHEDULES))
def test_one_stage_dp_same_bits_as_reference(name):
    sched, pairs, model, x, draws = _dp_case(name, 5)
    for s, t in pairs:
        got = step_once(SolverSpec("seeds1", mode="dp"), model, x, s, t, draws)
        assert _same_bits(got, ref_seeds1_dp(model, sched, x, s, t, draws)), (s, t)
        got = step_once(SolverSpec("dpm1", mode="dp"), model, x, s, t, draws)
        assert _same_bits(got, ref_dpm1_dp(model, sched, x, s, t)), (s, t)


@pytest.mark.parametrize("name", ["ve", "edm"])
@pytest.mark.parametrize("r", [1.0 / 3.0, 0.45, 1.0])
def test_two_stage_dp_same_bits_as_reference(name, r):
    sched, pairs, model, x, draws = _dp_case(name, 7)
    for s, t in pairs:
        for kind in ("sde", "ode_a", "ode_b"):
            got = step_once(SolverSpec(f"ve2_{kind}", r1=r), model, x, s, t, draws)
            want = ref_ve_2stage(model, sched, x, s, t, draws, r, kind)
            assert _same_bits(got, want), (s, t, kind)


# -- churn ---------------------------------------------------------------------


def test_churn_identity_cases():
    sched = Edm(sigma_data=0.5)
    off = ChurnParams()
    assert churn_lift(off, 3.0, 18, sched) is None
    active = ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0, s_noise=1.003)
    # outside [s_tmin, s_tmax]: no lift, so the walk leaves the state unchanged
    assert churn_lift(active, 40.0, 18, sched) is None


def test_churn_lifts_noise_level():
    sched = Edm(sigma_data=0.5)
    params = ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0, s_noise=1.003)
    x = np.array([2.0])
    noise = np.array([1.0])
    n_steps = 18
    lift = churn_lift(params, 3.0, n_steps, sched)
    x2, sig = churn_inject(x, lift, noise), lift[1]
    assert lift[2] == sched.time_of_sigma(sig)
    gamma = min(11.0 / n_steps, math.sqrt(2.0) - 1.0)
    assert sig == pytest.approx(3.0 * (1.0 + gamma), rel=1e-14)
    want = x + 1.003 * math.sqrt(sig**2 - 9.0) * noise
    assert np.allclose(x2, want, rtol=1e-13)


def test_churn_gamma_cap():
    params = ChurnParams(s_churn=1000.0, s_tmin=0.0, s_tmax=math.inf, s_noise=1.0)
    sched = Edm(sigma_data=0.5)
    sig = churn_lift(params, 2.0, 10, sched)[1]
    assert sig == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_churn_params_validation():
    with pytest.raises(ConfigError):
        ChurnParams(s_churn=-1.0)
    with pytest.raises(ConfigError):
        ChurnParams(s_tmin=2.0, s_tmax=1.0)
    with pytest.raises(ConfigError):
        ChurnParams(s_noise=0.0)
    # every field a finite number, a bool not, but s_tmax may be +inf
    for key, value in (("s_churn", math.nan), ("s_noise", math.inf), ("s_tmin", -math.inf),
                       ("s_tmax", math.nan), ("s_tmax", -math.inf), ("s_churn", "1"),
                       ("s_noise", True)):
        with pytest.raises(ConfigError, match=f"churn {key} must be a finite number"):
            ChurnParams(**{"s_churn": 1.0, key: value})
    ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0, s_noise=1.003)
    ChurnParams(s_churn=11.0, s_tmax=math.inf)


def test_sampling_with_churn_runs_and_is_deterministic():
    sched = Edm(sigma_data=1.0)
    model = ScoreModel(DataDistribution(np.array([1.0]), np.zeros((1, 1)),
                                        np.ones((1, 1))), sched)
    from seeds_sde.grids import edm_grid

    grid = edm_grid(12, 0.002, 80.0, 7.0, sched)
    spec = SolverSpec("seeds2", churn=ChurnParams(s_churn=5.0, s_tmin=0.05, s_tmax=50.0,
                                                  s_noise=1.003))
    a = sample(StepPlan(spec, model, grid), RngStream(2), n_paths=16)
    b = sample(StepPlan(spec, model, grid), RngStream(2), n_paths=16)
    assert np.array_equal(a.terminal, b.terminal)
    assert np.isfinite(a.terminal).all()


# -- the step plan and the model's time table --------------------------------

_PLAN_SCHEDULES = {"vp": VpLinear(), "ve": Ve(), "edm": Edm(sigma_data=0.5)}
_CHURN = ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0, s_noise=1.003)
_FORMS = [(fam, mode, name) for fam, desc in FAMILIES.items()
          for mode, form in desc.forms.items() for name in form.schedules]


@pytest.mark.parametrize("family, mode, name", _FORMS)
@pytest.mark.parametrize("churn", [None, _CHURN], ids=["plain", "churn"])
def test_sampling_reads_every_evaluation_from_the_table(family, mode, name, churn,
                                                        marginal_calls):
    # no evaluation misses the table: the plan's times are exactly the
    # floats the steps evaluate at
    sched = _PLAN_SCHEDULES[name]
    model = ScoreModel(DataDistribution.standard_normal(2), sched)
    grid = linear_lambda_grid(12, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=churn)
    sample(StepPlan(spec, model, grid), RngStream(4), n_paths=3)
    assert model.nfe == spec.evals_per_step * 11
    assert marginal_calls == []


@pytest.fixture
def level_calls(monkeypatch):
    """The times of every lambda_of_t and sigma_of_t call from here on, by name."""
    calls = {"lambda_of_t": [], "sigma_of_t": []}
    for name, times in calls.items():
        def counting(self, t, *args, _fn=getattr(ScheduleBase, name), _times=times):
            _times.append(t)
            return _fn(self, t, *args)

        monkeypatch.setattr(ScheduleBase, name, counting)
    return calls


@pytest.mark.parametrize("family, mode, name, level", [
    ("seeds1", "np", "vp", "lambda_of_t"), ("dpm4", "np", "edm", "lambda_of_t"),
    ("seeds1", "dp", "vp", "sigma_of_t"), ("ve2_sde", "dp", "ve", "sigma_of_t"),
])
def test_plan_computes_each_grid_level_once(family, mode, name, level, level_calls):
    sched = _PLAN_SCHEDULES[name]
    grid = linear_lambda_grid(1001, sched.t_min, sched.t_max, sched)
    level_calls[level].clear()
    plan = StepPlan(SolverSpec(family, mode=mode), ZeroModel(1, sched), grid)
    # one per grid time the rows touch, not one at each end of every row
    assert len(plan.rows) == 1000 and len(level_calls[level]) == 1001


def test_plan_with_churn_adds_a_lambda_only_on_lifted_steps(level_calls):
    sched = _PLAN_SCHEDULES["edm"]
    grid = linear_lambda_grid(1001, sched.t_min, sched.t_max, sched)
    level_calls["lambda_of_t"].clear()
    plan = StepPlan(SolverSpec("seeds3", churn=_CHURN), ZeroModel(1, sched), grid)
    # a row reuses the previous row's lambda_t as its lambda_s unless churn moved its start
    fresh_starts = sum(i == 0 or start != plan.rows[i - 1][0]
                       for i, (_, _, start, _) in enumerate(plan.rows))
    assert 1 < fresh_starts < len(plan.rows)
    assert len(level_calls["lambda_of_t"]) == len(plan.rows) + fresh_starts


_NODE_CASES = [
    ("seeds1", "np", "vp", None), ("seeds2", "np", "edm", _CHURN), ("seeds3", "np", "vp", None),
    ("dpm3", "np", "edm", None), ("dpm4", "np", "vp", None), ("seeds1", "dp", "ve", _CHURN),
    ("ve2_ode_b", "dp", "edm", None), ("ve2_sde", "dp", "ve", None),
    ("dpm1", "np", "edm", _CHURN), ("dpm1", "dp", "vp", None), ("dpm2", "np", "vp", None),
    ("euler_maruyama", "np", "ve", _CHURN), ("exp_euler_etd", "np", "edm", None),
    ("exp_euler_lawson", "np", "vp", _CHURN), ("gddim", "np", "vp", _CHURN),
    ("ve2_ode_a", "dp", "ve", None),
]


def test_node_cases_cover_every_form():
    assert ({(fam, mode) for fam, mode, _, _ in _NODE_CASES}
            == {(fam, mode) for fam, desc in FAMILIES.items() for mode in desc.forms})


@pytest.mark.parametrize("family, mode, name, churn", _NODE_CASES)
def test_plan_nodes_equal_the_node_function_called_alone(family, mode, name, churn):
    # the cached values are the values each row would compute itself: none is stale
    sched = _PLAN_SCHEDULES[name]
    grid = linear_lambda_grid(40, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=churn)
    form = FAMILIES[family].forms[spec.mode]
    rows = StepPlan(spec, ZeroModel(1, sched), grid).rows
    for s, (t, lift, start, nodes) in zip(grid.times.tolist(), rows):
        assert lift == (None if churn is None
                        else churn_lift(churn, sched.sigma_of_t(s), grid.n_steps, sched))
        assert nodes == form.nodes(sched, start, t, form.takes_draws, **spec.step_kwargs)


@pytest.mark.parametrize("family, mode, name", [
    ("seeds2", "np", "vp"), ("seeds3", "np", "vp"), ("dpm4", "np", "vp"), ("seeds1", "dp", "vp"),
    ("ve2_sde", "dp", "edm"), ("gddim", "np", "vp"), ("exp_euler_lawson", "np", "vp"),
])
def test_plan_computes_alpha_sigma_once_per_time(family, mode, name, monkeypatch):
    calls, alpha_sigma = [], ScheduleBase.alpha_sigma

    def counting(self, t):
        calls.append(t)
        return alpha_sigma(self, t)

    monkeypatch.setattr(ScheduleBase, "alpha_sigma", counting)
    sched = _PLAN_SCHEDULES[name]
    grid = linear_lambda_grid(1001, sched.t_min, sched.t_max, sched)
    plan = StepPlan(SolverSpec(family, mode=mode), ZeroModel(1, sched), grid)
    # once at every time a row starts, ends or has a stage node at, and nowhere else
    needed = {u for t, _, start, (nodes, _) in plan.rows for u in (start, *nodes, t)}
    assert len(calls) == len(set(calls)) == len(needed) >= 1001


def _schedule_classes(cls=ScheduleBase):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _schedule_classes(child)]


@pytest.mark.parametrize("family, mode, name", _FORMS)
@pytest.mark.parametrize("churn", [None, _CHURN], ids=["plain", "churn"])
def test_walk_does_only_array_work_and_model_calls(family, mode, name, churn, monkeypatch):
    # every time-only value comes from the plan's rows and the model's table: with each
    # schedule method, phi and the stage weights made to fail, the walk still runs
    import importlib

    from seeds_sde import solvers

    sched = _PLAN_SCHEDULES[name]
    model = ScoreModel(DataDistribution.standard_normal(2), sched)
    grid = linear_lambda_grid(12, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=churn)
    walks = lockstep([StepPlan(spec, model, grid)], StepDraws(RngStream(4), 3, model.dim))
    next(walks)   # x_T drawn and the model prepared for the plan's times

    def fails(*args, **kwargs):
        raise AssertionError("a walk computed a time-only value")

    for cls in _schedule_classes():
        for key, value in list(vars(cls).items()):
            if callable(value) and not key.startswith("__"):
                monkeypatch.setattr(cls, key, fails)
    for module, key in ((solvers, "phi"), (solvers, "stage_noise_weights"),
                        (importlib.import_module("seeds_sde.phi"), "phi"),
                        (importlib.import_module("seeds_sde.noise"), "stage_noise_weights")):
        monkeypatch.setattr(module, key, fails)
    assert len(list(walks)) == 11
    assert model.nfe == spec.evals_per_step * 11


@pytest.mark.parametrize("family, mode, name", _FORMS)
def test_steps_without_their_rows_give_the_walk_bytes(family, mode, name):
    sched = _PLAN_SCHEDULES[name]
    model = ScoreModel(DataDistribution.standard_normal(2), sched)
    grid = linear_lambda_grid(12, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode)
    plan = StepPlan(spec, model, grid)
    draws_at = StepDraws(RngStream(4), 3, model.dim)
    [x], *walked = lockstep([plan], draws_at)
    for i, (t, _, start, _) in enumerate(plan.rows, start=1):
        x = step_once(spec, model, x, start, t, draws_at(i))   # computes its own row
        assert _same_bits(x, walked[i - 1][0])


class _NoHook:
    """A model seen only through its network calls: it has no ``prepare``."""

    def __init__(self, model):
        self.model, self.dim, self.sched = model, model.dim, model.sched

    def noise_pred(self, x, t):
        return self.model.noise_pred(x, t)

    def data_pred(self, x, t):
        return self.model.data_pred(x, t)


_SCHEDULES = {**_PLAN_SCHEDULES, "vp_cosine": VpCosine()}
# every (family, mode, schedule), plain and churned; an id names a mode other than the default
_EVERY_FORM = {"-".join([fam, *([] if mode == next(iter(desc.forms)) else [mode]), name,
                         "None" if churn is None else "churn"]): (fam, mode, name, churn)
               for fam, desc in FAMILIES.items() for mode, form in desc.forms.items()
               for name, sched in _SCHEDULES.items() if sched.family in form.schedules
               for churn in (None, _CHURN)}


@pytest.mark.parametrize("family, mode, name, churn", _EVERY_FORM.values(), ids=_EVERY_FORM)
def test_models_without_the_hook_sample_and_compare_unchanged(family, mode, name, churn,
                                                              marginal_calls):
    # a model is its dim, sched and two network calls: every form runs on one
    from seeds_sde import per_step_compare

    sched = _SCHEDULES[name]
    data = DataDistribution(np.array([0.3, 0.7]), np.array([[1.0, -2.0], [-0.5, 0.5]]),
                            np.array([[0.4, 1.0], [1.3, 0.2]]))
    grid = linear_lambda_grid(15, sched.t_min, sched.t_max, sched)
    spec, other = SolverSpec(family, mode=mode, churn=churn), SolverSpec("seeds1", mode="dp")
    want = sample(StepPlan(spec, ScoreModel(data, sched), grid), RngStream(5), n_paths=5)
    want_cmp = per_step_compare(spec, other, ScoreModel(data, sched), grid, RngStream(5))
    assert marginal_calls == []
    inner = ScoreModel(data, sched)
    got = sample(StepPlan(spec, _NoHook(inner), grid), RngStream(5), n_paths=5)
    assert _same_bits(got.terminal, want.terminal)
    assert per_step_compare(spec, other, _NoHook(inner), grid, RngStream(5)) == want_cmp
    # without the hook every evaluation computes its time-only terms
    assert len(marginal_calls) == inner.nfe > 0


@pytest.mark.parametrize("family, mode, name, churn", _EVERY_FORM.values(), ids=_EVERY_FORM)
def test_a_one_path_walk_on_floats_gives_its_row_of_an_array_walk(family, mode, name, churn):
    # draws are keyed by path, so path p reads the same in any batch: one path in d = 1
    # walks on floats, two on arrays, and both give path p's bytes, with one component
    # and with two (whose float states take the array score)
    sched = _SCHEDULES[name]
    grid = linear_lambda_grid(15, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=churn)
    for data in (DataDistribution.standard_normal(1),
                 DataDistribution(np.array([0.3, 0.7]), np.array([[1.0], [-2.0]]),
                                  np.array([[0.4], [1.3]]))):
        plan = StepPlan(spec, ScoreModel(data, sched), grid)
        one, two = (sample(plan, RngStream(5), n_paths=n, path_offset=1030, record=True)
                    for n in (1, 2))
        assert one.trajectory.shape == (16, 1, 1)
        assert one.trajectory.tobytes() == two.trajectory[:, :1].tobytes()


@pytest.mark.parametrize("family", [fam for fam, mode, name in _FORMS
                                    if (mode, name) == ("np", "edm")])
def test_np_forms_walk_the_edm_zero_model_as_the_network_of_its_prior(family):
    # on EDM, F == 0 is the network of N(0, sigma_data^2 I) data: every noise-prediction
    # form, Euler-Maruyama's rebuilt score included, walks both with the same bytes
    sched = _PLAN_SCHEDULES["edm"]
    prior = DataDistribution(np.array([1.0]), np.zeros((1, 2)),
                             np.full((1, 2), sched.sigma_data ** 2))
    grid = linear_lambda_grid(15, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode="np")
    want = sample(StepPlan(spec, ScoreModel(prior, sched), grid), RngStream(6), n_paths=5)
    got = sample(StepPlan(spec, ZeroModel(2, sched), grid), RngStream(6), n_paths=5)
    assert _same_bits(got.terminal, want.terminal)


class _Prepared(_NoHook):
    """A model whose ``prepare`` hook records its calls and whether a network call came
    first."""

    def __init__(self, model):
        super().__init__(model)
        self.calls, self.evaluated = [], False

    def prepare(self, times):
        self.calls.append((list(times), self.evaluated))
        self.model.prepare(times)

    def noise_pred(self, x, t):
        self.evaluated = True
        return super().noise_pred(x, t)

    def data_pred(self, x, t):
        self.evaluated = True
        return super().data_pred(x, t)


def test_lockstep_starts_every_plan_and_holds_the_shorter_walks():
    sched = _PLAN_SCHEDULES["vp"]
    model = _Prepared(ScoreModel(DataDistribution.standard_normal(2), sched))
    grids = [linear_lambda_grid(m, sched.t_min, top, sched)
             for m, top in ((9, sched.t_max), (4, 0.9), (6, 0.8))]
    plans = [StepPlan(SolverSpec("seeds2"), model, grid) for grid in grids]
    states = list(lockstep(plans, StepDraws(RngStream(7), 3, model.dim)))
    # the first yield is every x_T, from step 0's stage-0 draw at its grid's top time
    z0 = StepDraws(RngStream(7), 3, model.dim)(0)[0]
    for plan, grid, x_top in zip(plans, grids, states[0]):
        assert plan.top == float(grid.times[0])
        assert _same_bits(x_top, sched.alpha_sigma(plan.top)[2] * z0)
    # one yield per step of the longest plan, the shorter plans holding their last state
    assert len(states) == 8 + 1
    for g, (plan, x_top) in enumerate(zip(plans, states[0])):
        alone = list(walk(plan, StepDraws(RngStream(7), 3, model.dim), x_top))
        for i, stepped in enumerate(states[1:]):
            assert _same_bits(stepped[g], alone[min(i, len(alone) - 1)])
    # one table for the group, made before the first network call
    assert model.calls == [([u for plan in plans for u in plan.times()], False)]


def test_lockstep_walks_each_plan_on_the_model_it_was_built_on(marginal_calls):
    # plans on two mixtures over one schedule, in one group: each gives the bytes it gives
    # walked alone, and each model is tabulated once, before any network call, for the
    # times of its own plans
    sched = _PLAN_SCHEDULES["vp"]
    mixtures = [DataDistribution(np.array([0.3, 0.7]), np.array([[1.0, -2.0], [-0.5, 0.5]]),
                                 np.array([[0.4, 1.0], [1.3, 0.2]])),
                DataDistribution(np.array([0.6, 0.4]), np.array([[2.0, 0.5], [-1.5, 1.0]]),
                                 np.array([[0.2, 0.9], [1.1, 0.6]]))]
    grids = [linear_lambda_grid(m, sched.t_min, sched.t_max, sched) for m in (12, 7, 9)]
    cases = [(SolverSpec("seeds3"), 0, grids[0]), (SolverSpec("dpm2"), 1, grids[1]),
             (SolverSpec("seeds1", mode="dp"), 0, grids[2])]   # (spec, mixture, grid)

    models = [_Prepared(ScoreModel(data, sched)) for data in mixtures]
    plans = [StepPlan(spec, models[k], grid) for spec, k, grid in cases]
    walks = lockstep(plans, StepDraws(RngStream(6), 3, 2))
    states = [next(walks)]
    # by the first yield every model has its table, and no network call has run
    for model in models:
        assert model.calls == [([u for plan in plans if plan.model is model
                                 for u in plan.times()], False)]
        assert not model.evaluated
    states += walks
    assert len(states) == 11 + 1
    for g, (spec, k, grid) in enumerate(cases):
        alone = StepPlan(spec, ScoreModel(mixtures[k], sched), grid)
        walked = [x for [x] in lockstep([alone], StepDraws(RngStream(6), 3, 2))]
        for i, stepped in enumerate(states):   # a shorter plan holds its last state
            assert _same_bits(stepped[g], walked[min(i, len(walked) - 1)])
    # each model made the evaluations of its own plans, all from its table
    assert [m.model.nfe for m in models] == [3 * 11 + 1 * 8, 2 * 6]
    assert marginal_calls == []


# -- outer loop ----------------------------------------------------------------


def test_sample_minimal_grid_single_eval(vp, gauss_model):
    grid = linear_lambda_grid(2, vp.t_min, vp.t_max, vp)
    gauss_model.nfe = 0
    res = sample(StepPlan(SolverSpec("seeds1"), gauss_model, grid), RngStream(0), n_paths=2)
    assert gauss_model.nfe == 1
    assert res.nfe_per_path == 1
    gauss_model.nfe = 0


def test_sample_zero_model_terminal_mean(vp):
    zm = ZeroModel(1, vp)
    grid = linear_lambda_grid(9, vp.t_min, vp.t_max, vp)
    spec = SolverSpec("seeds1")
    # from a fixed start, walked over the grid's plan as strong_order walks its levels
    draws_at = StepDraws(RngStream(1), 64, 1, 0)
    *_, terminal = walk(StepPlan(spec, zm, grid), draws_at, np.full((64, 1), 1.9))
    a_last = vp.alpha_sigma(float(grid.times[-2]))[0]
    a_first = vp.alpha_sigma(float(grid.times[0]))[0]
    mean = terminal.mean()
    # noise is mean-zero; with 64 paths the empirical mean stays near the exact value
    exact = (a_last / a_first) * 1.9
    spread = terminal.std() / math.sqrt(64)
    assert abs(mean - exact) < 5.0 * spread
    # trivial last step: final two recorded states identical
    res = sample(StepPlan(spec, zm, grid), RngStream(1), n_paths=64, record=True)
    assert np.array_equal(res.trajectory[-1], res.trajectory[-2])


@pytest.mark.parametrize("family, mode", [(fam, mode) for fam, desc in FAMILIES.items()
                                          for mode in desc.forms])
def test_walk_reads_the_stage_draws_its_form_takes(family, mode):
    # a form with draws reads stages 1..evals, any other none; stage 0 only where churn lifts
    form = FAMILIES[family].forms[mode]
    sched = _PLAN_SCHEDULES[form.schedules[0]]
    grid = linear_lambda_grid(30, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=_CHURN)
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    plan = StepPlan(spec, model, grid)
    asked = []   # (i, the mapping draws_at(i) gave), which records each stage read

    def draws_at(i):
        asked.append((i, collections.defaultdict(lambda: np.zeros((3, 1)))))
        return asked[-1][1]

    for _ in walk(plan, draws_at, np.ones((3, 1))):
        pass
    stages = set(range(1, FAMILIES[family].evals + 1)) if form.takes_draws else set()
    lifted = [lift is not None for _, lift, _, _ in plan.rows]
    assert 0 < sum(lifted) < len(lifted)
    assert [i for i, _ in asked] == list(range(1, len(plan.rows) + 1))
    assert [set(draws) for _, draws in asked] == [stages | {0} if up else stages
                                                  for up in lifted]


@pytest.mark.parametrize("family, mode, kind", [
    (fam, mode, kind) for fam, desc in FAMILIES.items() for mode, form in desc.forms.items()
    for kind in _PLAN_SCHEDULES if kind not in form.schedules])
def test_step_plan_checks_the_schedule_as_validate_against_does(family, mode, kind):
    # the plan is where a solver meets a schedule (it absorbed ``SolverSpec.validate_against``):
    # no walk starts on one its form does not run on, and no step computing its own row
    spec, sched = SolverSpec(family, mode=mode), _PLAN_SCHEDULES[kind]
    runs_on = "/".join(spec.form.schedules)
    want = f"^{family} in mode {mode!r} runs on {runs_on} schedules, not {kind!r}$"
    model = ZeroModel(1, sched)
    with pytest.raises(ConfigError, match=want):
        StepPlan(spec, model, linear_lambda_grid(5, sched.t_min, sched.t_max, sched))
    with pytest.raises(ConfigError, match=want):
        step_once(spec, model, np.ones((2, 1)), 0.5, 0.4, {k: np.zeros((2, 1)) for k in range(4)})
    # on one it runs on, the plan keeps the spec and the model for its walk
    good = ZeroModel(1, _PLAN_SCHEDULES[spec.form.schedules[0]])
    plan = StepPlan(spec, good, linear_lambda_grid(5, good.sched.t_min, good.sched.t_max,
                                                   good.sched))
    assert plan.spec is spec and plan.model is good


def test_solver_spec_keeps_its_form_and_stage_parameters():
    assert sorted(STAGE_PARAMS) == ["c2", "r1", "r2"]
    for fam, desc in FAMILIES.items():
        for mode, form in desc.forms.items():
            spec = SolverSpec(fam, mode=mode)
            assert spec.form is form, (fam, mode)
            assert list(spec.params) == list(desc.params), (fam, mode)
            assert spec.params == {key: getattr(spec, key) for key in desc.params}, (fam, mode)
            assert spec.step_kwargs == {**form.kwargs, **(
                {"fracs": tuple(desc.params.values())} if desc.params else {})}, (fam, mode)


def test_sample_trajectory_shape_and_determinism(vp, gauss_model):
    grid = linear_lambda_grid(6, vp.t_min, vp.t_max, vp)
    res = sample(StepPlan(SolverSpec("seeds3"), gauss_model, grid), RngStream(3), n_paths=5,
                 record=True)
    assert res.trajectory.shape == (7, 5, 1)
    res2 = sample(StepPlan(SolverSpec("seeds3"), gauss_model, grid), RngStream(3), n_paths=5,
                  record=True)
    assert np.array_equal(res.trajectory, res2.trajectory)
    # one path in d = 1 walks on floats, and returns path 0's arrays and bytes
    one = sample(StepPlan(SolverSpec("seeds3"), gauss_model, grid), RngStream(3), n_paths=1,
                 record=True)
    assert one.trajectory.shape == (7, 1, 1) and one.terminal.shape == (1, 1)
    assert one.trajectory.tobytes() == res.trajectory[:, :1].tobytes()


def test_sample_rejects_non_finite_state(vp, constant_model):
    grid = linear_lambda_grid(6, vp.t_min, vp.t_max, vp)
    t1 = float(grid.times[1])
    # one path in d = 1 walks on floats, where an overflow is an infinity with no warning;
    # a ZeroDivisionError or an OverflowError would escape the DomainError check
    for n_paths, noise_value in ((3, math.inf), (1, math.inf), (1, 1e308)):
        with pytest.raises(DomainError, match=f"non-finite state after step 1 at t={t1!r}"):
            sample(StepPlan(SolverSpec("seeds1"), constant_model(1, vp, noise_value=noise_value),
                            grid), RngStream(0), n_paths=n_paths)


def test_solver_spec_validation():
    with pytest.raises(ConfigError):
        SolverSpec("seeds3", r1=0.7, r2=0.3)
    with pytest.raises(ConfigError):
        SolverSpec("seeds2", c2=0.0)
    with pytest.raises(ConfigError, match="seeds1 does not read c2; it reads no stage parameter"):
        SolverSpec("seeds1", c2=0.5)
    with pytest.raises(ConfigError, match="seeds3 does not read c2; it reads r1, r2"):
        SolverSpec("seeds3", c2=0.5)
    with pytest.raises(ConfigError, match="dpm2 does not read r1, r2; it reads c2"):
        SolverSpec("dpm2", r1=0.2, r2=0.4)
    with pytest.raises(ConfigError, match="ve2_sde needs 0 < r1 <= 1, got r1=1.5"):
        SolverSpec("ve2_sde", r1=1.5)
    # a stage parameter that is not a real number is named with its family; a bool is not one
    for family, key, value in (("seeds2", "c2", "a"), ("seeds2", "c2", True),
                               ("seeds3", "r2", [0.5]), ("ve2_ode_a", "r1", False)):
        with pytest.raises(ConfigError, match=re.escape(
                f"{family} {key} must be a finite number, got {value!r}")):
            SolverSpec(family, **{key: value})
    with pytest.raises(ConfigError):
        SolverSpec("nonsense")
    with pytest.raises(ConfigError):
        SolverSpec("seeds2", mode="dp")
    with pytest.raises(ConfigError):
        SolverSpec("dpm4", mode="dp")


def test_step_once_dispatch_covers_families():
    # each (family, mode) on each schedule family it lists: a plan builds, and one step
    # gives finite output with exactly evals_per_step model evaluations
    schedules = {"vp": VpLinear(), "ve": Ve(), "edm": Edm(sigma_data=0.5)}
    times = {"vp": (0.7, 0.5), "ve": (4.0, 2.0), "edm": (4.0, 2.0)}
    draws = {k: np.full(1, 0.3) for k in (1, 2, 3)}
    for fam, desc in FAMILIES.items():
        for mode, form in desc.forms.items():
            spec = SolverSpec(fam, mode=mode)
            for name in form.schedules:
                sched = schedules[name]
                model = ScoreModel(DataDistribution.standard_normal(1), sched)
                StepPlan(spec, model, linear_lambda_grid(5, sched.t_min, sched.t_max, sched))
                out = step_once(spec, model, np.array([0.4]), *times[name], draws)
                assert np.isfinite(out).all(), (fam, mode, name)
                assert model.nfe == spec.evals_per_step, (fam, mode, name)


# -- registry ------------------------------------------------------------------


def test_every_step_function_is_registered():
    # a step body that no family points at would only be called by its tests
    import inspect

    from seeds_sde import solvers

    registered = {form.step for desc in FAMILIES.values() for form in desc.forms.values()}
    steps = {name: fn for name, fn in vars(solvers).items()
             if name.endswith("_step") and inspect.isfunction(fn)
             and fn.__module__ == solvers.__name__}
    assert "stages_step" in steps
    assert [name for name, fn in steps.items() if fn not in registered] == []


def test_one_stage_engine_serves_the_staged_families():
    # one step function and, but for the one-move forms, one node function; the
    # evaluations per step the NFE accounting charges are the stage fractions the step
    # reads, plus one
    staged = {(fam, mode): form for fam, desc in FAMILIES.items()
              for mode, form in desc.forms.items() if form.step is stages_step}
    one_move = {("exp_euler_etd", "np"), ("gddim", "np")}
    assert set(staged) == {("seeds1", "np"), ("seeds1", "dp"), ("seeds2", "np"),
                           ("seeds3", "np"), ("dpm1", "np"), ("dpm1", "dp"), ("dpm2", "np"),
                           ("dpm3", "np"), ("ve2_ode_a", "dp"), ("ve2_ode_b", "dp"),
                           ("ve2_sde", "dp"), *one_move}
    for (fam, mode), form in staged.items():
        kwargs = SolverSpec(fam, mode=mode).step_kwargs
        assert FAMILIES[fam].evals == len(kwargs.get("fracs", ())) + 1, (fam, mode)
        if (fam, mode) in one_move:   # no stage node and one (Phi, gain, noise) move
            times, moves = form.nodes(VpLinear(), 0.7, 0.5, form.takes_draws, **kwargs)
            assert times == () and [len(move) for move in moves] == [3], (fam, mode)
        else:
            assert form.nodes is stage_nodes, (fam, mode)


def test_stage_parameters_come_from_the_registry():
    assert SolverSpec("ve2_sde").step_kwargs == {"dp": True, "fracs": (1.0 / 3.0,)}
    assert SolverSpec("ve2_ode_b", r1=0.45).step_kwargs == {"dp": True, "phi2": True,
                                                             "fracs": (0.45,)}
    assert SolverSpec("dpm2").step_kwargs == {"fracs": (0.5,)}
    assert SolverSpec("seeds1", mode="dp").step_kwargs == {"dp": True}
    assert SolverSpec("seeds1").step_kwargs == {}
    spec = SolverSpec("seeds3", r1=0.25)
    assert (spec.r1, spec.r2, spec.c2) == (0.25, 2.0 / 3.0, None)
    assert spec.step_kwargs == {"fracs": (0.25, 2.0 / 3.0)}
    assert SolverSpec("seeds3") == SolverSpec("seeds3", r1=1.0 / 3.0, r2=2.0 / 3.0)
    assert SolverSpec("exp_euler_lawson").step_kwargs == {}   # its node function holds lawson
    # every family's parameters reach its step and node function as the stage
    # fractions, in registry order; no function holds a default of its own
    import inspect

    from seeds_sde import solvers

    for fam, desc in FAMILIES.items():
        for mode, form in desc.forms.items():
            kwargs = SolverSpec(fam, mode=mode).step_kwargs
            assert kwargs.get("fracs", ()) == tuple(desc.params.values()), (fam, mode)
            for fn in filter(None, (form.step, form.nodes)):
                assert set(kwargs) <= set(inspect.signature(fn).parameters), fn.__name__
    for name, fn in vars(solvers).items():
        if inspect.isfunction(fn) and fn.__module__ == solvers.__name__:
            for key, param in inspect.signature(fn).parameters.items():
                assert key not in ("c2", "r1", "r2", "r") or param.default in (None, param.empty), \
                    (name, key)


def test_mode_defaults_to_the_family_form():
    assert {fam for fam, desc in FAMILIES.items() if len(desc.forms) == 2} == {"seeds1", "dpm1"}
    for fam in FAMILIES:
        want = "dp" if fam.startswith("ve2") else "np"
        assert SolverSpec(fam).mode == want, fam
    assert SolverSpec("seeds1", mode="dp").mode == "dp"


@pytest.mark.parametrize("family, mode", [
    ("euler_maruyama", "dp"), ("exp_euler_etd", "dp"), ("exp_euler_lawson", "dp"),
    ("gddim", "dp"), ("ve2_ode_a", "np"), ("ve2_ode_b", "np"), ("ve2_sde", "np"),
    ("seeds3", "dp"), ("seeds1", "xp"),
])
def test_mode_must_name_a_form_of_the_family(family, mode):
    with pytest.raises(ConfigError, match="has no mode"):
        SolverSpec(family, mode=mode)


@pytest.mark.parametrize("n_paths", [0, -2])
def test_sampling_fewer_than_one_path_raises_a_named_error(vp, n_paths):
    grid = linear_lambda_grid(5, vp.t_min, vp.t_max, vp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"need at least one path, got {n_paths}"):
            sample(StepPlan(SolverSpec("seeds1"), ZeroModel(1, vp), grid), RngStream(0),
                   n_paths=n_paths)
        # and a negative first path, which no keyed draw has
        with pytest.raises(ConfigError, match=f"path offset must be >= 0, got {n_paths - 1}"):
            sample(StepPlan(SolverSpec("seeds1"), ZeroModel(1, vp), grid), RngStream(0),
                   path_offset=n_paths - 1)


@pytest.mark.parametrize("n_paths", [2.5, True])
def test_sampling_a_path_count_that_is_not_an_integer_raises_a_named_error(vp, n_paths):
    grid = linear_lambda_grid(5, vp.t_min, vp.t_max, vp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"path count must be an integer, got {n_paths}"):
            sample(StepPlan(SolverSpec("seeds1"), ZeroModel(1, vp), grid), RngStream(0),
                   n_paths=n_paths)
