import collections
import math
import re

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
from seeds_sde.schedules import ScheduleBase
from seeds_sde.solvers import (
    FAMILIES,
    STAGE_PARAMS,
    StepDraws,
    StepPlan,
    churn_inject,
    churn_lift,
    dpm4_step,
    euler_maruyama_step,
    exp_euler_step,
    gddim_step,
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
    out = stages_step(zm, vp, x, s, t, D0)
    a_t, a_s = vp.alpha_sigma(t)[0], vp.alpha_sigma(s)[0]
    assert np.allclose(out, (a_t / a_s) * x, rtol=1e-14)


def test_seeds1_constant_f_anchor(vp, constant_model):
    # pick (s, t) with h = ln sqrt(2)
    s = 0.8
    lam_t = vp.lambda_of_t(s) + math.log(math.sqrt(2.0))
    t = vp.t_of_lambda(lam_t)
    model = constant_model(1, noise_value=1.0)
    out = stages_step(model, vp, np.ones(1), s, t, D0)
    a_t, _, sbar_t = vp.alpha_sigma(t)
    a_s = vp.alpha_sigma(s)[0]
    expected = a_t / a_s - 2.0 * sbar_t * (math.sqrt(2.0) - 1.0)
    assert out[0] == pytest.approx(expected, rel=1e-13)


def test_seeds1_np_vs_dp_differ(vp, gauss_model):
    x = np.array([0.9])
    s, t = 0.7, 0.45
    z = np.array([0.31])
    np_out = stages_step(gauss_model, vp, x, s, t, {1: z})
    dp_out = stages_step(gauss_model, vp, x, s, t, {1: z}, dp=True)
    assert np.max(np.abs(np_out - dp_out)) > 1e-6


def test_seeds1_rejects_forward_step(vp, gauss_model):
    for dp in (False, True):
        with pytest.raises(GridError):
            stages_step(gauss_model, vp, np.ones(1), 0.3, 0.8, D0, dp=dp)


def test_staged_steps_reject_a_zero_width_step(vp):
    # SolverSpec checks the stage fractions; the node functions check h > 0 before
    # any staged noise is built
    for spec, sched in ((SolverSpec("seeds2"), vp), (SolverSpec("seeds3"), vp),
                        (SolverSpec("ve2_sde"), Ve())):
        with pytest.raises(GridError):
            step_once(spec, ZeroModel(1, sched), sched, np.ones(1), 0.5, 0.5, D0)


def test_seeds1_dp_noise_coefficient(vp, gauss_model):
    # injected unit draw isolates the + sbar sqrt(1 - e^{-2h}) coefficient
    x = np.array([0.5])
    s, t = 0.6, 0.35
    base = stages_step(gauss_model, vp, x, s, t, {1: np.zeros(1)}, dp=True)
    kicked = stages_step(gauss_model, vp, x, s, t, {1: np.ones(1)}, dp=True)
    h = math.log(vp.alpha_sigma(s)[1] / vp.alpha_sigma(t)[1])
    sbar_t = vp.alpha_sigma(t)[2]
    assert (kicked - base)[0] == pytest.approx(sbar_t * math.sqrt(-math.expm1(-2 * h)), rel=1e-13)


# -- multi-stage steps vs the extended-precision oracle ------------------------


def test_seeds2_matches_line_by_line_oracle(vp, gauss_model):
    mp_sched = MpVp()
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 1.3, 0.85, 0.4
        z1, z2 = 0.42, -1.17
        want = float(mp_seeds2(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t),
                               mpmath.mpf(z1), mpmath.mpf(z2)))
    got = stages_step(gauss_model, vp, np.array([x]), s, t,
                      {1: np.array([z1]), 2: np.array([z2])}, fracs=(0.5,))
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
    zm = ZeroModel(1, vp)
    base0 = stages_step(zm, vp, x, s, t, {1: np.zeros(1), 2: np.zeros(1)}, fracs=(c2,))
    kick0 = stages_step(zm, vp, x, s, t, {1: np.ones(1), 2: np.zeros(1)}, fracs=(c2,))
    full_coef = float((kick0 - base0)[0])
    stage_std = vp.alpha_sigma(s1)[2] * math.sqrt(math.expm1(2.0 * c2 * h))
    carry = (vp.alpha_sigma(t)[2] * math.exp(lam(t))) / (vp.alpha_sigma(s1)[2] * math.exp(lam(s1)))
    assert full_coef == pytest.approx(-stage_std * carry, rel=1e-12)
    # and the total variance still telescopes to e^{2h} - 1
    kick2 = stages_step(zm, vp, x, s, t, {1: np.zeros(1), 2: np.ones(1)}, fracs=(c2,))
    c_z2 = float((kick2 - base0)[0])
    sbar_t = vp.alpha_sigma(t)[2]
    assert full_coef**2 + c_z2**2 == pytest.approx(sbar_t**2 * math.expm1(2 * h), rel=1e-12)


def test_seeds3_matches_line_by_line_oracle(vp, gauss_model):
    mp_sched = MpVp()
    r1, r2 = 1.0 / 3.0, 2.0 / 3.0
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 0.8, 0.9, 0.5
        z1, z2, z3 = 0.3, -0.6, 1.1
        want = float(mp_seeds3(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t),
                               mpmath.mpf(z1), mpmath.mpf(z2), mpmath.mpf(z3),
                               mpmath.mpf(r1), mpmath.mpf(r2)))
    got = stages_step(gauss_model, vp, np.array([x]), s, t,
                      {1: np.array([z1]), 2: np.array([z2]), 3: np.array([z3])}, fracs=(r1, r2))
    assert got[0] == pytest.approx(want, rel=1e-13)


def test_multi_stage_zero_model_linear(vp):
    zm = ZeroModel(1, vp)
    x = np.array([2.0])
    s, t = 0.75, 0.3
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    z = D0
    assert np.allclose(stages_step(zm, vp, x, s, t, z, fracs=(0.5,)), a_ratio * x, rtol=1e-14)
    assert np.allclose(stages_step(zm, vp, x, s, t, z, fracs=(1 / 3, 2 / 3)),
                       a_ratio * x, rtol=1e-14)
    assert np.allclose(stages_step(zm, vp, x, s, t), a_ratio * x, rtol=1e-14)
    assert np.allclose(dpm4_step(zm, vp, x, s, t), a_ratio * x, rtol=1e-14)


def test_constant_f_degeneration(vp, constant_model):
    # correction brackets vanish, so all deterministic parts agree with seeds1
    model = constant_model(1, noise_value=0.7)
    x = np.array([1.1])
    s, t = 0.8, 0.35
    z = D0
    one = stages_step(model, vp, x, s, t, z)
    assert np.allclose(stages_step(model, vp, x, s, t, z, fracs=(0.5,)), one, rtol=1e-13)
    assert np.allclose(stages_step(model, vp, x, s, t, z, fracs=(1 / 3, 2 / 3)), one, rtol=1e-13)
    # and dpm4 collapses to the order-1 deterministic step
    h = vp.lambda_of_t(t) - vp.lambda_of_t(s)
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    sbar_t = vp.alpha_sigma(t)[2]
    expected = a_ratio * x - sbar_t * math.expm1(h) * 0.7
    assert np.allclose(dpm4_step(model, vp, x, s, t), expected, rtol=1e-12)
    assert np.allclose(stages_step(model, vp, x, s, t), expected, rtol=1e-13)


def test_seeds1_vs_dpm1_factor_two(vp, gauss_model):
    # deterministic parts differ by exactly sbar_t (e^h - 1) |F|
    x = np.array([0.9])
    s, t = 0.7, 0.4
    det = stages_step(gauss_model, vp, x, s, t, D0)
    ode = stages_step(gauss_model, vp, x, s, t)
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
    assert np.allclose(stages_step(gauss_model, vp, x, s, t, dp=True), want, rtol=1e-13)
    assert np.array_equal(step_once(SolverSpec("dpm1", mode="dp"), gauss_model, vp, x, s, t, D0),
                          stages_step(gauss_model, vp, x, s, t, dp=True))
    with pytest.raises(ConfigError):
        SolverSpec("dpm2", mode="dp")
    with pytest.raises(ConfigError):
        SolverSpec("dpm5")
    # one stage fraction too many: three in noise prediction, two in data prediction
    with pytest.raises(ConfigError, match="noise-prediction steps take at most 2"):
        stages_step(gauss_model, vp, x, s, t, fracs=(0.25, 0.5, 0.75))
    with pytest.raises(ConfigError, match="data-prediction steps take at most 1"):
        stages_step(gauss_model, vp, x, s, t, fracs=(1 / 3, 2 / 3), dp=True)


def test_dpm_deterministic_order_ratios(vp, gauss_model):
    # one-step self-refinement: error ratio under h -> h/2 approaches 2^(p+1)
    s = 0.75
    lam_s = vp.lambda_of_t(s)
    x = np.array([0.9])
    for order, expected in ((1, 4.0), (2, 8.0)):
        gaps = []
        for h in (0.2, 0.1):
            t = vp.t_of_lambda(lam_s + h)
            mid = vp.t_of_lambda(lam_s + h / 2)
            fracs = (0.5,) * (order - 1)
            coarse = stages_step(gauss_model, vp, x, s, t, fracs=fracs)
            fine = stages_step(gauss_model, vp,
                               stages_step(gauss_model, vp, x, s, mid, fracs=fracs),
                               mid, t, fracs=fracs)
            gaps.append(float(np.abs(coarse - fine)[0]))
        ratio = gaps[0] / gaps[1]
        assert expected / 1.5 < ratio < expected * 1.5, (order, ratio)


def mp_dpm4(mp_sched, f_model, x, s, t):
    """50-digit verbatim replica of the five-stage deterministic step."""
    lam_s, lam_t = mp_sched.lam(s), mp_sched.lam(t)
    h = lam_t - lam_s
    r = mpmath.mpf(1) / 2
    s_mid = mp_sched.t_of_lam(lam_s + r * h)
    s4 = mp_sched.t_of_lam(lam_s + h)
    al = mp_sched.alpha
    sb = mp_sched.sbar
    erh, eh = mpmath.expm1(r * h), mpmath.expm1(h)
    hphi2 = eh / h - 1
    k1 = f_model(x, s)
    k2 = (al(s_mid) / al(s)) * x - sb(s_mid) * erh * k1
    f2 = f_model(k2, s_mid)
    k3 = (al(s_mid) / al(s)) * x - sb(s_mid) * erh * k1 \
        - sb(s_mid) * (4 * erh / h - 2) * (f2 - k1)
    f3 = f_model(k3, s_mid)
    k4 = (al(s4) / al(s)) * x - sb(s4) * eh * k1 - sb(s4) * hphi2 * (f3 + f2 - 2 * k1)
    f4 = f_model(k4, s4)
    a_term = sb(s_mid) * erh * k1 - sb(s_mid) / 4 * hphi2 * (k1 + f2 + f3)
    b_term = sb(s_mid) * (erh / h - mpmath.mpf(1) / 2) * (k1 + 4 * f2 + 4 * f3 - f4)
    c_term = sb(s_mid) * ((eh + 4 * erh - 3 * h) / h**2 - 1) * (-k1 - f2 - f3 + f4)
    k5 = (al(s_mid) / al(s)) * x - a_term - b_term - c_term
    f5 = f_model(k5, s_mid)
    d_term = sb(t) * eh * k1 - sb(t) * hphi2 * (4 * f5 - f4 - 3 * k1)
    e_term = sb(t) * (4 * (eh - h) / h**2 - 2) * (k1 + f4 - 2 * f5)
    return (al(t) / al(s)) * x - d_term - e_term


def test_dpm4_matches_line_by_line_oracle(vp, gauss_model):
    mp_sched = MpVp()
    with mpmath.workdps(50):
        f_mp = gaussian_f_mp(mp_sched)
        x, s, t = 0.7, 0.85, 0.45
        want = float(mp_dpm4(mp_sched, f_mp, mpmath.mpf(x), mpmath.mpf(s), mpmath.mpf(t)))
    got = dpm4_step(gauss_model, vp, np.array([x]), s, t)
    assert got[0] == pytest.approx(want, rel=1e-13)


# -- baselines ----------------------------------------------------------------


def test_euler_maruyama_formula_oracle(vp, gauss_model):
    x = np.array([0.8])
    s, t = 0.55, 0.52
    z = np.array([0.37])
    got = euler_maruyama_step(gauss_model, vp, x, s, t, {1: z})
    f = vp.drift_f(s)
    g2 = vp.diffusion_g2(s)
    score = gauss_model.score(x, s)
    want = x + (f * x - g2 * score) * (t - s) + math.sqrt(g2 * (s - t)) * z
    assert np.allclose(got, want, rtol=1e-14)


def test_euler_maruyama_small_step_stays_close(vp, gauss_model):
    x = np.array([0.8])
    out = euler_maruyama_step(gauss_model, vp, x, 0.5, 0.5 - 1e-8, D0)
    assert abs(out[0] - x[0]) < 1e-6


def test_euler_maruyama_zero_diffusion_reduces_to_explicit_euler(gauss_model):
    class NoDiffusion(VpLinear):
        def diffusion_g2(self, t):
            return 0.0

    sched = NoDiffusion()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    x = np.array([0.8])
    s, t = 0.6, 0.55
    out = euler_maruyama_step(model, sched, x, s, t, {1: np.ones(1)})
    assert np.allclose(out, x + sched.drift_f(s) * x * (t - s), rtol=1e-14)


def test_exp_euler_variants(vp, gauss_model, constant_model):
    x = np.array([1.2])
    s, t = 0.7, 0.5
    zm = ZeroModel(1, vp)
    a_ratio = vp.alpha_sigma(t)[0] / vp.alpha_sigma(s)[0]
    assert np.allclose(exp_euler_step(zm, vp, x, s, t, lawson=False), a_ratio * x, rtol=1e-14)
    assert np.allclose(exp_euler_step(zm, vp, x, s, t, lawson=True), a_ratio * x, rtol=1e-14)
    # etd reproduces e^{A dt} x + dt phi_1(A dt) b F for the effective constant drift
    from seeds_sde.phi import phi

    model = constant_model(1, noise_value=1.0)
    dt = t - s
    a_eff = math.log(a_ratio) / dt
    b_s = vp.np_rate(s)  # alpha_s sigma'(s)
    want = a_ratio * x + dt * phi(1, a_eff * dt) * b_s
    assert np.allclose(exp_euler_step(model, vp, x, s, t, lawson=False), want, rtol=1e-13)


def test_exp_euler_gap_shrinks_second_order(mixture_model, vp):
    # ETD and Lawson differ at O(dt^2): halving dt shrinks the gap ~4x
    x = np.array([0.8])
    s = 0.7
    gaps = []
    for dt in (0.1, 0.05):
        t = s - dt
        g = np.abs(exp_euler_step(mixture_model, vp, x, s, t, lawson=False)
                   - exp_euler_step(mixture_model, vp, x, s, t, lawson=True))
        gaps.append(float(g[0]))
    assert gaps[0] > 0.0
    ratio = gaps[0] / gaps[1]
    assert 4.0 * 0.8 < ratio < 4.0 * 1.2


def test_gddim_equals_seeds1_dp_per_step(vp, gauss_model):
    x = np.array([1.4])
    s, t = 0.8, 0.55
    z = np.array([-0.23])
    g = gddim_step(gauss_model, vp, x, s, t, {1: z})
    d = stages_step(gauss_model, vp, x, s, t, {1: z}, dp=True)
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
    got = gddim_step(gauss_model, vp, x, s, t, {1: z})
    assert np.allclose(got, want, rtol=1e-14)


def test_gddim_requires_vp(gauss_model):
    with pytest.raises(ConfigError):
        gddim_step(gauss_model, Ve(), np.ones(1), 2.0, 1.0, D0)


# -- two-stage data-prediction schemes ----------------------------------------


class NullD:
    """Stub whose data prediction vanishes (pure linear part)."""

    dim = 1

    def __init__(self):
        self.nfe = 0

    def data_pred(self, x, t):
        self.nfe += 1
        return np.zeros_like(np.asarray(x, dtype=float))


def test_ve2_null_model_sigma_ratio():
    sched = Ve()
    x = np.array([1.5])
    s, t = 4.0, 1.0
    for fam in ("ve2_ode_a", "ve2_ode_b"):
        out = step_once(SolverSpec(fam, r1=0.5), NullD(), sched, x, s, t, D0)
        assert np.allclose(out, (t / s) * x, rtol=1e-14)
    out = step_once(SolverSpec("ve2_sde", r1=0.5), NullD(), sched, x, s, t, D0)
    assert np.allclose(out, (t * t / (s * s)) * x, rtol=1e-14)


def test_ve2_constant_d_ode_forms_coincide(constant_model):
    sched = Ve()
    model = constant_model(1, data_value=0.8)
    x = np.array([1.1])
    s, t = 5.0, 2.0
    a = step_once(SolverSpec("ve2_ode_a", r1=0.4), model, sched, x, s, t, D0)
    b = step_once(SolverSpec("ve2_ode_b", r1=0.4), model, sched, x, s, t, D0)
    assert np.allclose(a, b, rtol=1e-12)


def test_ve2_sde_noise_variance_telescopes():
    sched = Ve()
    s, t, r = 4.0, 1.5, 0.45
    h = math.log(s / t)
    spec = SolverSpec("ve2_sde", r1=r)
    coefs = []
    for j in (1, 2):
        z = {1: np.zeros(1), 2: np.zeros(1)}
        base = step_once(spec, NullD(), sched, np.zeros(1), s, t, dict(z))
        z[j] = np.ones(1)
        kicked = step_once(spec, NullD(), sched, np.zeros(1), s, t, z)
        coefs.append(float(kicked[0] - base[0]))
    total = sum(c * c for c in coefs)
    # matches the one-stage dp variance sigma_t^2 (1 - e^{-2h})
    assert total == pytest.approx(t * t * -math.expm1(-2 * h), rel=1e-12)


def test_ve2_runs_on_edm_dp():
    sched = Edm(sigma_data=0.5)
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    out = step_once(SolverSpec("ve2_sde", r1=0.5), model, sched, np.array([0.7]), 3.0, 1.0,
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
    got = step_once(SolverSpec(f"ve2_{kind}", r1=r), model, sched, np.array([x]), s, t,
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
        got = step_once(SolverSpec("seeds1", mode="dp"), model, sched, x, s, t, draws)
        assert _same_bits(got, ref_seeds1_dp(model, sched, x, s, t, draws)), (s, t)
        got = step_once(SolverSpec("dpm1", mode="dp"), model, sched, x, s, t, draws)
        assert _same_bits(got, ref_dpm1_dp(model, sched, x, s, t)), (s, t)


@pytest.mark.parametrize("name", ["ve", "edm"])
@pytest.mark.parametrize("r", [1.0 / 3.0, 0.45, 1.0])
def test_two_stage_dp_same_bits_as_reference(name, r):
    sched, pairs, model, x, draws = _dp_case(name, 7)
    for s, t in pairs:
        for kind in ("sde", "ode_a", "ode_b"):
            got = step_once(SolverSpec(f"ve2_{kind}", r1=r), model, sched, x, s, t, draws)
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
    x2, sig = churn_inject(x, params, lift, sched, noise), lift[1]
    assert lift[2] == sched.time_of_sigma(sig)
    gamma = min(11.0 / n_steps, math.sqrt(2.0) - 1.0)
    assert sig == pytest.approx(3.0 * (1.0 + gamma), rel=1e-14)
    want = x + 1.003 * math.sqrt(sig**2 - 9.0) * noise
    assert np.allclose(x2, want, rtol=1e-13)


def test_churn_gamma_cap():
    params = ChurnParams(s_churn=1000.0, s_tmin=0.0, s_tmax=math.inf, s_noise=1.0)
    sched = Edm(sigma_data=0.5)
    _, sig, _ = churn_lift(params, 2.0, 10, sched)
    assert sig == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_churn_params_validation():
    with pytest.raises(ConfigError):
        ChurnParams(s_churn=-1.0)
    with pytest.raises(ConfigError):
        ChurnParams(s_tmin=2.0, s_tmax=1.0)
    with pytest.raises(ConfigError):
        ChurnParams(s_noise=0.0)
    ChurnParams(s_churn=11.0, s_tmin=0.05, s_tmax=15.0, s_noise=1.003)


def test_sampling_with_churn_runs_and_is_deterministic():
    sched = Edm(sigma_data=1.0)
    model = ScoreModel(DataDistribution(np.array([1.0]), np.zeros((1, 1)),
                                        np.ones((1, 1))), sched)
    from seeds_sde.grids import edm_grid

    grid = edm_grid(12, 0.002, 80.0, 7.0, sched)
    spec = SolverSpec("seeds2", churn=ChurnParams(s_churn=5.0, s_tmin=0.05, s_tmax=50.0,
                                                  s_noise=1.003))
    a = sample(model, sched, grid, spec, RngStream(2), n_paths=16)
    b = sample(model, sched, grid, spec, RngStream(2), n_paths=16)
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
    sample(model, sched, grid, spec, RngStream(4), n_paths=3)
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
    plan = StepPlan(SolverSpec(family, mode=mode), sched, grid)
    # one per grid time the rows touch, not one at each end of every row
    assert len(plan.rows) == 1000 and len(level_calls[level]) == 1001


def test_plan_with_churn_adds_a_lambda_only_on_lifted_steps(level_calls):
    sched = _PLAN_SCHEDULES["edm"]
    grid = linear_lambda_grid(1001, sched.t_min, sched.t_max, sched)
    level_calls["lambda_of_t"].clear()
    plan = StepPlan(SolverSpec("seeds3", churn=_CHURN), sched, grid)
    # a row reuses the previous row's lambda_t as its lambda_s unless churn moved its start
    fresh_starts = sum(i == 0 or start != plan.rows[i - 1][0]
                       for i, (_, _, start, _) in enumerate(plan.rows))
    assert 1 < fresh_starts < len(plan.rows)
    assert len(level_calls["lambda_of_t"]) == len(plan.rows) + fresh_starts


@pytest.mark.parametrize("family, mode, name, churn", [
    ("seeds1", "np", "vp", None), ("seeds2", "np", "edm", _CHURN), ("seeds3", "np", "vp", None),
    ("dpm3", "np", "edm", None), ("dpm4", "np", "vp", None), ("seeds1", "dp", "ve", _CHURN),
    ("ve2_ode_b", "dp", "edm", None), ("ve2_sde", "dp", "ve", None),
])
def test_plan_nodes_equal_the_node_function_called_alone(family, mode, name, churn):
    # the shared levels are the values each row would compute itself: none is stale
    sched = _PLAN_SCHEDULES[name]
    grid = linear_lambda_grid(40, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=churn)
    form = FAMILIES[family].forms[spec.mode]
    for t, _, start, nodes in StepPlan(spec, sched, grid).rows:
        assert nodes == form.nodes(sched, start, t, form.takes_draws, **spec.step_kwargs)


class _NoHook:
    """A model seen only through its network calls: it has no ``prepare``."""

    def __init__(self, model):
        self.model, self.dim = model, model.dim

    def noise_pred(self, x, t):
        return self.model.noise_pred(x, t)

    def data_pred(self, x, t):
        return self.model.data_pred(x, t)

    def score_from_model(self, x, t):
        return self.model.score_from_model(x, t)


@pytest.mark.parametrize("family, name, churn", [
    ("seeds3", "vp", None), ("euler_maruyama", "vp", None), ("dpm4", "edm", None),
    ("ve2_sde", "ve", None), ("seeds2", "edm", _CHURN),
])
def test_models_without_the_hook_sample_and_compare_unchanged(family, name, churn,
                                                              marginal_calls):
    from seeds_sde import per_step_compare

    sched = _PLAN_SCHEDULES[name]
    data = DataDistribution(np.array([0.3, 0.7]), np.array([[1.0, -2.0], [-0.5, 0.5]]),
                            np.array([[0.4, 1.0], [1.3, 0.2]]))
    grid = linear_lambda_grid(15, sched.t_min, sched.t_max, sched)
    spec, other = SolverSpec(family, churn=churn), SolverSpec("seeds1", mode="dp")
    want = sample(ScoreModel(data, sched), sched, grid, spec, RngStream(5), n_paths=5)
    want_cmp = per_step_compare(spec, other, ScoreModel(data, sched), sched, grid, RngStream(5))
    assert marginal_calls == []
    inner = ScoreModel(data, sched)
    got = sample(_NoHook(inner), sched, grid, spec, RngStream(5), n_paths=5)
    assert _same_bits(got.terminal, want.terminal)
    assert per_step_compare(spec, other, _NoHook(inner), sched, grid, RngStream(5)) == want_cmp
    # without the hook every evaluation computes its time-only terms
    assert len(marginal_calls) == inner.nfe > 0


# -- outer loop ----------------------------------------------------------------


def test_sample_minimal_grid_single_eval(vp, gauss_model):
    grid = linear_lambda_grid(2, vp.t_min, vp.t_max, vp)
    gauss_model.nfe = 0
    res = sample(gauss_model, vp, grid, SolverSpec("seeds1"), RngStream(0), n_paths=2)
    assert gauss_model.nfe == 1
    assert res.nfe_per_path == 1
    gauss_model.nfe = 0


def test_sample_zero_model_terminal_mean(vp):
    zm = ZeroModel(1, vp)
    grid = linear_lambda_grid(9, vp.t_min, vp.t_max, vp)
    spec = SolverSpec("seeds1")
    # from a fixed start, walked over the grid's plan as strong_order walks its levels
    draws_at = StepDraws(RngStream(1), 64, 1, 0)
    *_, terminal = walk(zm, StepPlan(spec, vp, grid), draws_at, np.full((64, 1), 1.9))
    a_last = vp.alpha_sigma(float(grid.times[-2]))[0]
    a_first = vp.alpha_sigma(float(grid.times[0]))[0]
    mean = terminal.mean()
    # noise is mean-zero; with 64 paths the empirical mean stays near the exact value
    exact = (a_last / a_first) * 1.9
    spread = terminal.std() / math.sqrt(64)
    assert abs(mean - exact) < 5.0 * spread
    # trivial last step: final two recorded states identical
    res = sample(zm, vp, grid, spec, RngStream(1), n_paths=64, record=True)
    assert np.array_equal(res.trajectory[-1], res.trajectory[-2])


@pytest.mark.parametrize("family, mode", [(fam, mode) for fam, desc in FAMILIES.items()
                                          for mode in desc.forms])
def test_walk_reads_the_stage_draws_its_form_takes(family, mode):
    # a form with draws reads stages 1..evals, any other none; stage 0 only where churn lifts
    form = FAMILIES[family].forms[mode]
    sched = _PLAN_SCHEDULES[form.schedules[0]]
    grid = linear_lambda_grid(30, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(family, mode=mode, churn=_CHURN)
    plan = StepPlan(spec, sched, grid)
    asked = []   # (i, the mapping draws_at(i) gave), which records each stage read

    def draws_at(i):
        asked.append((i, collections.defaultdict(lambda: np.zeros((3, 1)))))
        return asked[-1][1]

    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    for _ in walk(model, plan, draws_at, np.ones((3, 1))):
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
    # the plan is where a solver meets a schedule: no walk starts on one its form does not run on
    spec, sched = SolverSpec(family, mode=mode), _PLAN_SCHEDULES[kind]
    with pytest.raises(ConfigError, match="runs on") as want:
        spec.validate_against(sched)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(want.value))}$"):
        StepPlan(spec, sched, linear_lambda_grid(5, sched.t_min, sched.t_max, sched))
    # on one it runs on, the plan keeps both for its walk
    good = _PLAN_SCHEDULES[spec.form.schedules[0]]
    plan = StepPlan(spec, good, linear_lambda_grid(5, good.t_min, good.t_max, good))
    assert plan.spec is spec and plan.sched is good


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
    res = sample(gauss_model, vp, grid, SolverSpec("seeds3"), RngStream(3), n_paths=5,
                 record=True)
    assert res.trajectory.shape == (7, 5, 1)
    res2 = sample(gauss_model, vp, grid, SolverSpec("seeds3"), RngStream(3), n_paths=5,
                  record=True)
    assert np.array_equal(res.trajectory, res2.trajectory)


def test_sample_rejects_non_finite_state(vp, constant_model):
    grid = linear_lambda_grid(6, vp.t_min, vp.t_max, vp)
    t1 = float(grid.times[1])
    with pytest.raises(DomainError, match=f"non-finite state after step 1 at t={t1!r}"):
        sample(constant_model(1, noise_value=math.inf), vp, grid, SolverSpec("seeds1"),
               RngStream(0), n_paths=3)


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
    with pytest.raises(ConfigError):
        SolverSpec("nonsense")
    with pytest.raises(ConfigError):
        SolverSpec("seeds2", mode="dp")
    with pytest.raises(ConfigError):
        SolverSpec("dpm4", mode="dp")
    SolverSpec("gddim").validate_against(VpLinear())
    with pytest.raises(ConfigError):
        SolverSpec("gddim").validate_against(Edm())
    with pytest.raises(ConfigError):
        SolverSpec("ve2_sde").validate_against(VpLinear())
    with pytest.raises(ConfigError):
        SolverSpec("seeds1", mode="np").validate_against(Ve())
    SolverSpec("seeds1", mode="dp").validate_against(Ve())
    for fam in ("exp_euler_etd", "exp_euler_lawson"):
        SolverSpec(fam).validate_against(Edm())
        with pytest.raises(ConfigError):
            SolverSpec(fam).validate_against(Ve())


def test_step_once_dispatch_covers_families():
    # each (family, mode) on each schedule family it lists: finite output and
    # exactly evals_per_step model evaluations
    schedules = {"vp": VpLinear(), "ve": Ve(), "edm": Edm(sigma_data=0.5)}
    times = {"vp": (0.7, 0.5), "ve": (4.0, 2.0), "edm": (4.0, 2.0)}
    draws = {k: np.full(1, 0.3) for k in (1, 2, 3)}
    for fam, desc in FAMILIES.items():
        for mode, form in desc.forms.items():
            spec = SolverSpec(fam, mode=mode)
            for name in form.schedules:
                sched = schedules[name]
                model = ScoreModel(DataDistribution.standard_normal(1), sched)
                out = step_once(spec, model, sched, np.array([0.4]), *times[name], draws)
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
    # one step function and one node function; the evaluations per step the NFE
    # accounting charges are the stage fractions the step reads, plus one
    staged = {(fam, mode): form for fam, desc in FAMILIES.items()
              for mode, form in desc.forms.items() if form.step is stages_step}
    assert set(staged) == {("seeds1", "np"), ("seeds1", "dp"), ("seeds2", "np"),
                           ("seeds3", "np"), ("dpm1", "np"), ("dpm1", "dp"), ("dpm2", "np"),
                           ("dpm3", "np"), ("ve2_ode_a", "dp"), ("ve2_ode_b", "dp"),
                           ("ve2_sde", "dp")}
    for (fam, mode), form in staged.items():
        assert form.nodes is stage_nodes, (fam, mode)
        kwargs = SolverSpec(fam, mode=mode).step_kwargs
        assert FAMILIES[fam].evals == len(kwargs.get("fracs", ())) + 1, (fam, mode)


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
    assert SolverSpec("exp_euler_lawson").step_kwargs == {"lawson": True}
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
