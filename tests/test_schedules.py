import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seeds_sde import (DataDistribution, DomainError, Edm, ScoreModel, Ve, VpCosine, VpLinear,
                       make_schedule, zero_model)
from seeds_sde.errors import ConfigError
from seeds_sde.solvers import exp_euler_step

ALL_SCHEDULES = [VpLinear(), VpCosine(), Ve(), Edm(sigma_data=0.5)]


def variants_for(sched):
    return ("sde", "ode") if isinstance(sched, Edm) else ("sde",)


def test_vp_linear_endpoint_values():
    sched = VpLinear(beta_d=19.9, beta_m=0.1)
    a, s, sbar = sched.alpha_sigma(1.0)
    # abar(1) = 19.9/2 + 0.1 = 10.05
    assert a == pytest.approx(math.exp(-5.025), rel=1e-13)
    assert s == pytest.approx(math.sqrt(math.exp(10.05) - 1.0), rel=1e-13)
    assert sbar == pytest.approx(a * s, rel=1e-15)


def test_ve_and_edm_scalings():
    for t in (0.01, 1.0, 7.3):
        a, s, sbar = Ve().alpha_sigma(t)
        assert a == 1.0 and s == t and sbar == t
        a, s, sbar = Edm(sigma_data=2.0).alpha_sigma(t)
        assert a == 1.0 and s == t


def test_alpha_sigma_positive_finite():
    for sched in ALL_SCHEDULES:
        for t in np.geomspace(sched.t_min, sched.t_max, 25):
            a, s, sbar = sched.alpha_sigma(float(t))
            assert 0 < a <= 1.0 + 1e-12
            assert s > 0 and math.isfinite(s)
            assert sbar > 0


def test_lambda_at_unit_sigma_is_zero():
    sched = VpLinear()
    t = sched.time_of_sigma(1.0)
    assert sched.lambda_of_t(t) == pytest.approx(0.0, abs=1e-12)


def test_edm_ode_lambda_anchor():
    sched = Edm(sigma_data=1.0)
    assert sched.lambda_of_t(1.0, "ode") == pytest.approx(-math.log(math.pi / 4.0), rel=1e-14)
    assert sched.t_of_lambda(-math.log(math.pi / 4.0), "ode") == pytest.approx(1.0, rel=1e-12)


def test_round_trip_log_grid():
    for sched in ALL_SCHEDULES:
        for variant in variants_for(sched):
            for t in np.geomspace(sched.t_min, sched.t_max, 60):
                t = float(t)
                back = sched.t_of_lambda(sched.lambda_of_t(t, variant), variant)
                assert abs(back - t) / t <= 1e-10, (sched, variant, t)


def test_vp_large_lambda_goes_to_zero_time():
    sched = VpLinear(t_min=1e-30)
    ts = [sched.t_of_lambda(lam) for lam in (10.0, 20.0, 30.0)]
    assert ts[0] > ts[1] > ts[2]
    assert ts[2] < 1e-9


def test_lambda_strictly_decreasing():
    rng = np.random.default_rng(0)
    for sched in ALL_SCHEDULES:
        for variant in variants_for(sched):
            ts = rng.uniform(sched.t_min, sched.t_max, size=(1000, 2))
            for t1, t2 in ts:
                lo, hi = (t1, t2) if t1 < t2 else (t2, t1)
                if lo == hi:
                    continue
                assert sched.lambda_of_t(float(lo), variant) > sched.lambda_of_t(float(hi), variant)


def test_vp_sigma_bar_over_alpha_identity():
    for sched in (VpLinear(), VpCosine()):
        for t in np.geomspace(sched.t_min, sched.t_max, 40):
            a, s, sbar = sched.alpha_sigma(float(t))
            lam = sched.lambda_of_t(float(t))
            ratio = sbar / a
            assert abs(ratio - math.exp(-lam)) <= 1e-12 * ratio


def test_vp_alpha_identity():
    # alpha = 1/sqrt(sigma^2 + 1) on both VP flavors
    for sched in (VpLinear(), VpCosine()):
        for t in (sched.t_min, 0.3, 0.7, sched.t_max):
            a, s, _ = sched.alpha_sigma(t)
            assert a == pytest.approx(1.0 / math.sqrt(s * s + 1.0), rel=1e-12)


def test_edm_sde_image_bound():
    sched = Edm(sigma_data=0.7)
    for t in np.geomspace(sched.t_min, sched.t_max, 50):
        lam = sched.lambda_of_t(float(t), "sde")
        assert math.exp(-lam) < 1.0 / sched.sigma_data


def test_domain_errors():
    sched = VpLinear()
    with pytest.raises(DomainError):
        sched.alpha_sigma(2.0)
    with pytest.raises(DomainError):
        sched.alpha_sigma(-0.5)
    edm = Edm()
    with pytest.raises(DomainError):
        edm.lambda_of_t(0.0)
    with pytest.raises(DomainError):
        edm.lambda_of_t(-1.0)
    with pytest.raises(DomainError):
        edm.t_of_lambda(math.log(edm.sigma_data) - 0.1, "sde")  # below the image bound
    with pytest.raises(ConfigError):
        sched.lambda_of_t(0.5, "weird")


NP_SCHEDULES = [VpLinear(), VpCosine(), Edm(sigma_data=0.5)]


@pytest.mark.parametrize("sched", NP_SCHEDULES, ids=lambda sc: type(sc).__name__)
def test_np_gain_of_the_sde_is_twice_the_noise_scale(sched):
    for t in np.geomspace(sched.t_min, sched.t_max, 9):
        assert sched.np_gain(float(t), True) == 2.0 * sched.np_noise(float(t))


@pytest.mark.parametrize("sched", NP_SCHEDULES, ids=lambda sc: type(sc).__name__)
@pytest.mark.parametrize("stochastic", [True, False])
def test_np_trans_composes(sched, stochastic):
    s, u, t = (f * sched.t_max for f in (0.9, 0.4, 0.05))
    two = sched.np_trans(s, u, stochastic) * sched.np_trans(u, t, stochastic)
    assert two == pytest.approx(sched.np_trans(s, t, stochastic), rel=1e-14)


@pytest.mark.parametrize("sched", NP_SCHEDULES, ids=lambda sc: type(sc).__name__)
def test_np_rate_gives_the_probability_flow(sched):
    # d/dt log Phi(t, s) x + np_rate(t) F equals f x - g^2 / 2 score
    data = DataDistribution(np.array([0.3, 0.7]), np.array([[-1.0], [0.5]]),
                            np.array([[0.2], [0.4]]))
    model = ScoreModel(data, sched)
    x, s, t, eps = np.array([0.7]), sched.t_max, 0.3 * sched.t_max, 1e-6 * sched.t_max
    rate = (math.log(sched.np_trans(s, t + eps, False))
            - math.log(sched.np_trans(s, t - eps, False))) / (2.0 * eps)
    velocity = rate * x + sched.np_rate(t) * model.noise_pred(x, t)
    want = sched.drift_f(t) * x - 0.5 * sched.diffusion_g2(t) * model.score(x, t)
    assert velocity == pytest.approx(want, rel=1e-6)


def test_ve_has_no_np_coefficients():
    ve = Ve()
    for call in (lambda: ve.np_trans(2.0, 1.0, True), lambda: ve.np_gain(1.0, False),
                 lambda: ve.np_noise(1.0), lambda: ve.np_rate(1.0)):
        with pytest.raises(ConfigError, match="not defined for schedule family 've'"):
            call()
    with pytest.raises(ConfigError):
        exp_euler_step(zero_model(1, ve), ve, np.zeros(1), 2.0, 1.0, "etd")


def test_drift_and_diffusion_match_finite_differences():
    eps = 1e-6
    for sched in ALL_SCHEDULES:
        for t in (0.3 * sched.t_max, 0.6 * sched.t_max):
            a_p = sched.alpha_sigma(t + eps)[0]
            a_m = sched.alpha_sigma(t - eps)[0]
            f_fd = (math.log(a_p) - math.log(a_m)) / (2.0 * eps)
            assert sched.drift_f(t) == pytest.approx(f_fd, rel=1e-6, abs=1e-9)
            s_p = sched.alpha_sigma(t + eps)[1]
            s_m = sched.alpha_sigma(t - eps)[1]
            a_t, s_t, _ = sched.alpha_sigma(t)
            g2_fd = a_t * a_t * (s_p * s_p - s_m * s_m) / (2.0 * eps)
            assert sched.diffusion_g2(t) == pytest.approx(g2_fd, rel=1e-6)
            # d sigma / dt from g^2 = 2 alpha^2 sigma sigma'
            sdot_fd = (s_p - s_m) / (2.0 * eps)
            sdot = sched.diffusion_g2(t) / (2.0 * a_t * a_t * s_t)
            assert sdot == pytest.approx(sdot_fd, rel=1e-6)


def test_cosine_uses_shift_in_inverse():
    sched = VpCosine(shift=0.008)
    # closed-form arccos inverse reproduces a mid-domain time
    t = 0.4
    lam = sched.lambda_of_t(t)
    assert sched.t_of_lambda(lam) == pytest.approx(t, rel=1e-12)


def test_make_schedule_factory():
    assert isinstance(make_schedule("vp"), VpLinear)
    assert isinstance(make_schedule("vp_cosine"), VpCosine)
    assert isinstance(make_schedule("ve"), Ve)
    assert isinstance(make_schedule("edm", sigma_data=1.0), Edm)
    with pytest.raises(ConfigError):
        make_schedule("nope")
    with pytest.raises(ConfigError):
        make_schedule("vp", bogus=1.0)


@settings(max_examples=150, deadline=None)
@given(t=st.floats(1e-4, 1.0))
def test_vp_round_trip_property(t):
    sched = VpLinear()
    back = sched.t_of_lambda(sched.lambda_of_t(t))
    assert abs(back - t) <= 1e-10 * t
