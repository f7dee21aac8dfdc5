import math
import re
import tracemalloc

import numpy as np
import pytest

from seeds_sde import (
    DataDistribution,
    Edm,
    RngStream,
    ScoreModel,
    SolverSpec,
    StepPlan,
    Ve,
    VpCosine,
    VpLinear,
    ZeroModel,
    linear_lambda_grid,
    sample,
)
from seeds_sde.errors import ConfigError, DomainError
from seeds_sde.schedules import ScheduleBase


def _log_components(model, x, t):
    """Broadcast form: per-component log densities (..., K) and x - mu (..., K, d)."""
    mu, cov = model.data.marginal(model.sched, t)
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - mu
    log_comp = -0.5 * (np.sum(diff * diff / cov, axis=-1)
                       + np.sum(np.log(2.0 * math.pi * cov), axis=-1))
    return log_comp + np.log(model.data.weights), diff, cov


def _log_density(model, x, t):
    """log p_t(x) by log-sum-exp over the components."""
    log_comp, _, _ = _log_components(model, x, t)
    top = np.max(log_comp, axis=-1, keepdims=True)
    return np.squeeze(top, -1) + np.log(np.sum(np.exp(log_comp - top), axis=-1))


def _score_terms(model, x, t):
    """The K terms resp_k (x - mu_k) / cov_k of the score, shape (..., K, d)."""
    log_comp, diff, cov = _log_components(model, x, t)
    top = np.max(log_comp, axis=-1, keepdims=True)
    resp = np.exp(log_comp - top)
    resp /= np.sum(resp, axis=-1, keepdims=True)
    return resp[..., None] * diff / cov


def _broadcast_score(model, x, t):
    """The score as the broadcast form over (..., K, d) computed it, kept as
    the reference for the per-component ScoreModel.score."""
    return -np.sum(_score_terms(model, x, t), axis=-2)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _random_mixture(rng, k, d, sched):
    weights = rng.uniform(0.2, 1.0, k)
    data = DataDistribution(weights / weights.sum(), rng.normal(0.0, 2.0, (k, d)),
                            rng.uniform(0.3, 1.5, (k, d)))
    return ScoreModel(data, sched)


def test_single_gaussian_vp_score_closed_form(vp):
    sd = 1.7
    model = ScoreModel(DataDistribution(np.array([1.0]), np.zeros((1, 2)),
                                        np.full((1, 2), sd * sd)), vp)
    x = np.array([0.4, -1.2])
    for t in (0.05, 0.4, 0.9):
        a, _, sbar = vp.alpha_sigma(t)
        expected = -x / (a * a * sd * sd + sbar * sbar)
        assert np.allclose(model.score(x, t), expected, rtol=1e-13)


def test_single_gaussian_edm_score_closed_form():
    sd = 0.8
    sched = Edm(sigma_data=sd)
    model = ScoreModel(DataDistribution(np.array([1.0]), np.zeros((1, 1)),
                                        np.array([[sd * sd]])), sched)
    x = np.array([2.0])
    for t in (0.1, 1.0, 10.0):
        assert np.allclose(model.score(x, t), -x / (t * t + sd * sd), rtol=1e-13)


def test_symmetric_mixture_score_zero_at_origin(mixture_model):
    assert np.allclose(mixture_model.score(np.zeros(1), 0.5), 0.0, atol=1e-14)


def test_mixture_score_matches_finite_differences(mixture_model):
    rng = np.random.default_rng(3)
    eps = 1e-5
    for _ in range(100):
        x = rng.normal(size=1) * 2.0
        t = float(rng.uniform(0.05, 1.0))
        fd = (_log_density(mixture_model, x + eps, t)
              - _log_density(mixture_model, x - eps, t)) / (2 * eps)
        sc = mixture_model.score(x, t)[0]
        assert abs(sc - fd) <= 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
@pytest.mark.parametrize("k, d, n", [(8, 16, 4096), (2, 3, 17), (1, 1, 1), (1, 1, 8192)])
def test_score_bits_equal_broadcast_form(sched, k, d, n):
    rng = np.random.default_rng(k * 1000 + d * 10 + n)
    model = _random_mixture(rng, k, d, sched)
    for t in np.linspace(sched.t_min, sched.t_max, 6):
        a, _, sbar = sched.alpha_sigma(t)
        x = rng.normal(0.0, 3.0 * np.hypot(a, sbar), (n, d))
        for x_in in (x, x[0], x.ravel()[: 6 * d].reshape(2, 3, d) if n >= 6 else x[:1, None]):
            assert _same_bits(model.score(x_in, t), _broadcast_score(model, x_in, t))


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
def test_score_bits_equal_broadcast_form_on_extreme_rows(sched):
    rng = np.random.default_rng(5)
    for k, d in ((1, 1), (2, 3), (8, 16)):
        model = _random_mixture(rng, k, d, sched)
        rows = [np.full(d, np.inf), np.full(d, -np.inf), np.full(d, np.nan),
                np.full(d, 1e200), np.full(d, -1e200), np.full(d, -0.0),
                np.where(np.arange(d) % 2, np.nan, 1.0), rng.normal(size=d)]
        x = np.array(rows)
        for t in (sched.t_min, 0.5 * (sched.t_min + sched.t_max), sched.t_max):
            mu0 = model.data.marginal(sched, t)[0][0]
            x_mean = np.array([mu0, -0.0 * mu0])  # x == mu_0; signed zeros
            for x_in in (x, x_mean, x[0], x[2]):
                with np.errstate(all="ignore"):
                    ref = _broadcast_score(model, x_in, t)
                    got = model.score(x_in, t)
                assert _same_bits(got, ref)


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
@pytest.mark.parametrize("d", [1, 3])
def test_score_one_component_bits_at_the_overflow_boundary(sched, d):
    # rows where (x - mu)^2 / cov sits a few ulps either side of float max, mixed
    # with ordinary rows: the one-component form falls back exactly where the
    # general form's log density stops being finite
    rng = np.random.default_rng(40 + d)
    big = np.finfo(float).max
    for var_scale in (1.0, 1e-3, 1e3, 1e308):   # 1e308: 2 pi cov overflows the normaliser
        data = DataDistribution(np.array([1.0]), rng.normal(0.0, 2.0, (1, d)),
                                var_scale * rng.uniform(0.3, 1.5, (1, d)))
        model = ScoreModel(data, sched)
        for t in (sched.t_min, 0.5 * (sched.t_min + sched.t_max), sched.t_max):
            mu, cov = (v[0] for v in data.marginal(sched, t))
            rows = [rng.normal(size=d) for _ in range(3)]
            for edge in (np.sqrt(big) * np.sqrt(cov), np.full(d, np.sqrt(big))):
                for ulps in range(-3, 4):
                    dist = edge
                    for _ in range(abs(ulps)):
                        dist = np.nextafter(dist, np.inf if ulps > 0 else 0.0)
                    for sign in (1.0, -1.0):
                        rows.append(mu + sign * dist)
                        rows.append(np.where(np.arange(d) == 0, mu + sign * dist, mu - 0.5))
            x = np.array(rows)
            with np.errstate(all="ignore"):
                ref = _broadcast_score(model, x, t)
                normaliser_finite = np.isfinite(np.log(2.0 * math.pi * cov)).all()
                # the whole batch, each row alone and the rows with a finite score
                finite_rows = np.isfinite(ref).all(axis=-1)
                for x_in, want in ((x, ref), *zip(x, ref), (x[finite_rows], ref[finite_rows])):
                    assert _same_bits(model.score(x_in, t), want)
            # the batch straddles the boundary, unless the normaliser is not finite
            assert not finite_rows.all() and finite_rows.any() == normaliser_finite


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
@pytest.mark.parametrize("d", [1, 3])
def test_score_one_component_bits_at_the_closed_form_bound(sched, d):
    # rows a few ulps either side of R_t = sqrt(F / (2d)) min(1, sqrt(c_min)), in one
    # axis and in all, at tabulated and other times: the rows within it take the
    # closed form, the others the loops, and each gives the broadcast form's bits
    rng = np.random.default_rng(60 + d)
    big = np.finfo(float).max
    times = [sched.t_min, 0.5 * (sched.t_min + sched.t_max), sched.t_max]
    for var_scale in (1e-3, 1.0, 1e3):
        data = DataDistribution(np.array([1.0]), rng.normal(0.0, 2.0, (1, d)),
                                var_scale * rng.uniform(0.3, 1.5, (1, d)))
        plain, prepared = ScoreModel(data, sched), ScoreModel(data, sched)
        prepared.prepare(times[:2])
        for t in times:
            mu, cov = (v[0] for v in data.marginal(sched, t))
            bound = math.sqrt(big / (2 * d)) * min(1.0, math.sqrt(cov.min()))
            rows = [mu + rng.normal(size=d)]
            for ulps in range(-3, 4):
                dist = bound
                for _ in range(abs(ulps)):
                    dist = np.nextafter(dist, np.inf if ulps > 0 else 0.0)
                for sign in (1.0, -1.0):
                    rows.append(mu + sign * dist)
                    rows.append(np.where(np.arange(d) == 0, mu + sign * dist, mu - 0.5))
            x = np.array(rows)
            ref = _broadcast_score(plain, x, t)
            assert np.isfinite(ref).all()
            for model in (plain, prepared):
                for x_in, want in ((x, ref), *zip(x, ref)):
                    assert _same_bits(model.score(x_in, t), want)


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
def test_score_of_an_empty_batch_is_empty(sched):
    rng = np.random.default_rng(9)
    for k, d in ((1, 1), (1, 3), (3, 2)):
        plain, prepared = _random_mixture(rng, k, d, sched), _random_mixture(rng, k, d, sched)
        prepared.prepare([0.5])
        for model in (plain, prepared):
            got = model.score(np.empty((0, d)), 0.5)
            assert got.shape == (0, d) and got.dtype == float


@pytest.mark.parametrize("sched", [VpLinear(), VpCosine(), Ve()], ids=["vp", "vp_cosine", "ve"])
@pytest.mark.parametrize("k", [1, 3])
def test_network_calls_at_a_tabulated_time_are_their_formulas_of_the_score(sched, k):
    # noise_pred = -sigma_bar * score and data_pred = x / alpha - sigma * eps_hat, bit for bit
    rng = np.random.default_rng(20 + k)
    model = _random_mixture(rng, k, 3, sched)
    times = [float(t) for t in np.geomspace(sched.t_min, sched.t_max, 5)]
    model.prepare(times)
    for t in times:
        a, s, sbar = sched.alpha_sigma(t)
        x = rng.normal(0.0, 3.0 * math.hypot(a, sbar), (257, 3))
        eps_hat = -sbar * model.score(x, t)
        assert _same_bits(model.noise_pred(x, t), eps_hat)
        assert _same_bits(model.data_pred(x, t), x / a - s * eps_hat)


def test_score_signed_zero_at_a_zero_mean(vp):
    # every term is -0.0, and NumPy's sum starts from +0.0: the score is -0.0
    model = ScoreModel(DataDistribution(np.array([0.5, 0.5]), np.zeros((2, 3)),
                                        np.ones((2, 3))), vp)
    for x in (np.full(3, -0.0), np.full((4, 3), -0.0)):
        got = model.score(x, 0.5)
        assert _same_bits(got, _broadcast_score(model, x, 0.5))
        assert np.all(np.signbit(got))


def test_score_one_dimension_many_components_within_rounding(vp):
    # for d == 1 and K >= 8 the broadcast form summed the K terms in NumPy's
    # pairwise order, and the component loop sums them in order; two orders
    # of a K-term sum differ by at most 2 (K - 1) eps sum|term|
    k = 9
    rng = np.random.default_rng(11)
    model = _random_mixture(rng, k, 1, vp)
    for t in (0.05, 0.4, 1.0):
        x = rng.normal(0.0, 3.0, (500, 1))
        bound = 2 * (k - 1) * np.finfo(float).eps * np.sum(np.abs(_score_terms(model, x, t)),
                                                          axis=-2)
        assert np.all(np.abs(model.score(x, t) - _broadcast_score(model, x, t)) <= bound)


def test_score_scratch_memory_below_one_broadcast_array(vp):
    k, d, n = 8, 16, 4096
    rng = np.random.default_rng(2)
    model = _random_mixture(rng, k, d, vp)
    x = rng.normal(size=(n, d))
    model.score(x, 0.5)  # warm up imports and caches outside the measurement
    tracemalloc.start()
    try:
        model.score(x, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * k * d * 8  # one (n, K, d) float64 array: 4 MB


def test_score_log_space_far_tail(vp):
    # far-tail x at small sigma must not underflow to nan/inf
    model = ScoreModel(DataDistribution.standard_normal(1), vp)
    val = model.score(np.array([500.0]), vp.t_min)
    assert np.isfinite(val).all()


def test_noise_pred_closed_form_and_sign(vp, gauss_model):
    x = np.array([0.7])
    for t in (0.2, 0.8):
        a, _, sbar = vp.alpha_sigma(t)
        expected = sbar * x / (a * a + sbar * sbar)
        assert np.allclose(gauss_model.noise_pred(x, t), expected, rtol=1e-12)
    assert np.allclose(gauss_model.noise_pred(np.zeros(1), 0.5), 0.0, atol=1e-15)


def _rebuilt_score(model, x, t):
    """The score a sampler rebuilds from F = ``noise_pred``: (c_x x + c_F F) / d with
    (c_x, c_F, d) = ``sched.np_score(t)``, c_x None meaning no x term."""
    c_x, c_f, d = model.sched.np_score(t)
    f_val = model.noise_pred(x, t)
    return (c_f * f_val if c_x is None else c_x * x + c_f * f_val) / d


def test_edm_inversion_round_trip():
    # EDM inverts its preconditioning; VP and VE divide F = -sigma_bar score by
    # -sigma_bar, at the same fractions of t_max
    data = DataDistribution(np.array([0.7, 0.3]), np.array([[0.5], [-1.0]]),
                            np.array([[0.4], [0.9]]))
    x = np.array([0.9])
    for sched in (Edm(sigma_data=0.6), Ve(), VpLinear(), VpCosine()):
        model = ScoreModel(data, sched)
        for t in (0.05, 1.3, 20.0):
            t *= sched.t_max / 80.0
            direct = model.score(x, t)
            via_net = _rebuilt_score(model, x, t)
            assert np.allclose(direct, via_net, rtol=1e-12, atol=1e-15), (sched.kind, t)


def test_data_pred_relations(vp):
    data = DataDistribution(np.array([0.6, 0.4]), np.array([[0.3], [-0.9]]),
                            np.array([[0.5], [1.2]]))
    model = ScoreModel(data, vp)
    x = np.array([0.25])
    for t in (0.1, 0.6):
        a, s, _ = vp.alpha_sigma(t)
        f_val = model.noise_pred(x, t)
        d_val = model.data_pred(x, t)
        # reconstruction identity x/alpha = D + sigma F
        assert np.allclose(x / a, d_val + s * f_val, rtol=1e-12)

    ve_model = ScoreModel(data, Ve())
    x = np.array([0.4])
    t = 1.7
    d_val = ve_model.data_pred(x, t)
    assert np.allclose(d_val, x + t * t * ve_model.score(x, t), rtol=1e-12)

    edm = Edm(sigma_data=0.5)
    edm_model = ScoreModel(data, edm)
    t = 2.1
    sd = edm.sigma_data
    c1 = sd * sd / (t * t + sd * sd)
    c2 = t * sd / math.sqrt(t * t + sd * sd)
    f_val = edm_model.noise_pred(x, t)
    d_val = edm_model.data_pred(x, t)
    # EDM preconditioning D = c1 x + c2 F, and the score np_score rebuilds from F on
    # every schedule
    assert np.allclose(d_val, c1 * x + c2 * f_val, rtol=1e-12)
    for sched, t in ((vp, 0.6), (VpCosine(), 0.6), (Ve(), 1.7), (edm, 2.1)):
        model = ScoreModel(data, sched)
        assert np.allclose(_rebuilt_score(model, x, t), model.score(x, t), rtol=1e-12)


def test_data_pred_small_time_limit(vp, gauss_model):
    x = np.array([0.8])
    d_val = gauss_model.data_pred(x, vp.t_min)
    assert np.allclose(d_val, x, atol=1e-4)


def test_posterior_mean_is_ideal_denoiser(vp):
    # D equals the Bayes posterior mean m + alpha V (x - alpha m) / (alpha^2 V + sbar^2)
    sd2, m = 0.5, 0.3
    model = ScoreModel(DataDistribution(np.array([1.0]), np.array([[m]]),
                                        np.array([[sd2]])), vp)
    x = np.array([1.1])
    t = 0.4
    a, _, sbar = vp.alpha_sigma(t)
    posterior = m + a * sd2 * (x - a * m) / (a * a * sd2 + sbar * sbar)
    assert np.allclose(model.data_pred(x, t), posterior, rtol=1e-12)


def test_zero_model_contract(vp):
    zm = ZeroModel(2, vp)
    x = np.array([1.0, -2.0])
    assert np.all(zm.noise_pred(x, 0.5) == 0.0)
    a = vp.alpha_sigma(0.5)[0]
    assert np.allclose(zm.data_pred(x, 0.5), x / a, rtol=1e-15)
    assert zm.nfe == 2  # the accounting contract still holds


def test_nfe_accounting(vp, gauss_model):
    grid = linear_lambda_grid(7, vp.t_min, vp.t_max, vp)
    for fam, k in (("seeds1", 1), ("seeds2", 2), ("seeds3", 3), ("dpm4", 5)):
        gauss_model.nfe = 0
        res = sample(StepPlan(SolverSpec(fam), gauss_model, grid), RngStream(0), n_paths=3)
        assert gauss_model.nfe == k * (grid.n_steps - 1)
        assert res.nfe_per_path == k * (grid.n_steps - 1)
    gauss_model.nfe = 0


def test_data_distribution_validation():
    with pytest.raises(ConfigError):
        DataDistribution(np.array([0.5, 0.4]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ConfigError):
        DataDistribution(np.array([1.0]), np.zeros((1, 1)), -np.ones((1, 1)))
    with pytest.raises(ConfigError):
        DataDistribution(np.array([-1.0, 2.0]), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ConfigError, match="weights must be a non-empty 1-D sequence"):
        DataDistribution(np.ones((1, 2)), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ConfigError, match="inconsistent shapes"):
        DataDistribution(np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 2)))
    d = DataDistribution.from_components([
        {"weight": 0.25, "mean": [1.0, 0.0], "var": [1.0, 2.0]},
        {"weight": 0.75, "mean": [-1.0, 0.0], "var": 0.5},
    ])
    assert d.dim == 2 and d.variances[1, 1] == 0.5


_GOOD = {"weight": 0.5, "mean": [0.0, 1.0], "var": [1.0, 2.0]}


@pytest.mark.parametrize("bad, words", [
    ({"mean": [float("nan"), 1.0]}, ["component 1", "'mean'", "finite"]),
    ({"var": [float("inf"), 1.0]}, ["component 1", "'var'", "finite"]),
    ({"var": float("inf")}, ["component 1", "'var'", "finite"]),
    ({"weight": float("nan")}, ["component 1", "'weight'", "finite"]),
    ({"var": [1.0, 2.0, 3.0]}, ["component 1", "'var' has 3 entries"]),
    ({"mean": ["a", 1.0]}, ["component 1", "'mean'", "numbers"]),
    ({"mean": [True, 1.0]}, ["component 1", "'mean'", "numbers"]),
    ({"mean": []}, ["component 1", "'mean'", "numbers"]),
    ({"weight": [0.25, 0.25]}, ["component 1", "'weight'", "one number"]),
    ({"weight": None}, ["component 1", "'weight'", "numbers"]),
])
def test_from_components_names_the_bad_component_and_key(bad, words):
    comp = {**_GOOD, **bad}
    with pytest.raises(ConfigError) as err:
        DataDistribution.from_components([_GOOD, comp])
    assert all(w in str(err.value) for w in words), str(err.value)


@pytest.mark.parametrize("key", ["weight", "mean", "var"])
def test_from_components_missing_key(key):
    comp = {k: v for k, v in _GOOD.items() if k != key}
    with pytest.raises(ConfigError, match=f"component 1 has no '{key}'"):
        DataDistribution.from_components([_GOOD, comp])


@pytest.mark.parametrize("components", [[], None, {"weight": 1.0}, [_GOOD, 3]])
def test_from_components_rejects_bad_structure(components):
    with pytest.raises(ConfigError):
        DataDistribution.from_components(components)


def test_from_components_rejects_mixed_dimensions():
    with pytest.raises(ConfigError, match="same dimension"):
        DataDistribution.from_components([_GOOD, {"weight": 0.5, "mean": [0.0], "var": 1.0}])


def test_data_distribution_rejects_non_finite_parameters():
    with pytest.raises(ConfigError, match="component 0: 'mean' must be finite"):
        DataDistribution(np.array([1.0]), np.array([[np.nan]]), np.ones((1, 1)))
    with pytest.raises(ConfigError, match="component 1: 'var' must be finite"):
        DataDistribution(np.array([0.5, 0.5]), np.zeros((2, 1)), np.array([[1.0], [np.inf]]))


def test_a_normaliser_past_float_max_is_infinite_without_a_warning():
    # 2 pi cov overflows for a variance of 1e308 on VE, where alpha = 1: that component's
    # log-normaliser is +inf, as the score expects, and neither the table nor an
    # untabulated time warns; the other component carries the score
    data = DataDistribution(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]),
                            np.array([[1e308], [1.0]]))
    model = ScoreModel(data, Ve())
    model.prepare([1.0])
    for t in (1.0, 2.0):
        assert np.all(np.isfinite(model.score(np.array([[0.0], [0.5], [3.0]]), t)))


def test_data_distribution_rejects_means_whose_distance_overflows():
    limit = math.sqrt(np.finfo(float).max) / 2.0
    with pytest.raises(ConfigError, match=r"component 1: 'mean' must be below sqrt\(float max\)"):
        DataDistribution(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, -limit]]),
                         np.ones((2, 2)))
    # just below the limit, a state at one mean still has a finite score under both
    below = np.nextafter(limit, 0.0)
    model = ScoreModel(DataDistribution(np.array([0.5, 0.5]), np.array([[below], [-below]]),
                                        np.ones((2, 1))), Ve())
    for t in (Ve().t_min, 1.0):
        x = model.data.marginal(model.sched, t)[0]
        assert np.all(np.isfinite(model.score(x, t)))


# -- the time table ------------------------------------------------------------

_TABLE_SCHEDULES = {"vp": VpLinear(), "vp_cosine": VpCosine(), "ve": Ve(),
                    "edm": Edm(sigma_data=0.5)}


@pytest.mark.parametrize("name", sorted(_TABLE_SCHEDULES))
@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("d", [1, 3, 16])
def test_prepared_table_gives_the_same_bytes(name, k, d):
    # each network call and the score, at tabulated and other times, against
    # a model without a table
    sched = _TABLE_SCHEDULES[name]
    rng = np.random.default_rng(100 * k + d)
    w = rng.uniform(0.2, 1.0, k)
    data = DataDistribution(w / w.sum(), rng.normal(0.0, 2.0, (k, d)),
                            rng.uniform(0.3, 1.5, (k, d)))
    plain, prepared = ScoreModel(data, sched), ScoreModel(data, sched)
    planned = [float(t) for t in np.geomspace(sched.t_min, sched.t_max, 7)]
    prepared.prepare(planned + planned[2:4])   # repeated times share a row
    others = [0.5 * (planned[i] + planned[i + 1]) for i in (0, 3, 5)]
    for n in (1, 7, 2048):
        x = rng.normal(0.0, 3.0, (n, d))
        for t in planned + [np.float64(planned[1]), np.array(planned[2])] + others:
            for call in ("noise_pred", "data_pred", "score"):
                got, want = getattr(prepared, call)(x, t), getattr(plain, call)(x, t)
                assert _same_bits(got, want), (call, n, t)


def test_prepared_table_misses_only_other_times(vp, marginal_calls):
    model = ScoreModel(DataDistribution.standard_normal(2), vp)
    model.prepare([0.3, 0.5, 0.3])
    x = np.ones((4, 2))
    for t in (0.3, 0.5, 0.4):
        model.noise_pred(x, t)
        model.data_pred(x, t)
    assert marginal_calls == [0.4] * 2


def test_a_second_prepare_replaces_the_table(vp, marginal_calls):
    model = ScoreModel(DataDistribution.standard_normal(2), vp)
    model.prepare([0.3, 0.5])
    model.prepare([0.7])
    x = np.ones((3, 2))
    for t in (0.3, 0.5, 0.7):
        model.noise_pred(x, t)
    assert marginal_calls == [0.3, 0.5]


@pytest.mark.parametrize("call", ["noise_pred", "data_pred"])
def test_an_untabulated_call_computes_alpha_sigma_once(call, vp, monkeypatch):
    calls, alpha_sigma = [], ScheduleBase.alpha_sigma

    def counting(self, t):
        calls.append(t)
        return alpha_sigma(self, t)

    monkeypatch.setattr(ScheduleBase, "alpha_sigma", counting)
    model = ScoreModel(DataDistribution.standard_normal(2), vp)
    model.prepare([0.3])
    calls.clear()
    getattr(model, call)(np.ones((4, 2)), 0.4)
    assert calls == [0.4]


_D1_PAIR = DataDistribution(np.array([0.4, 0.6]), np.array([[1.0], [-1.0]]),
                            np.array([[0.5], [1.2]]))
# id -> a model, states of another dimension and the calls that take states
_BAD_STATES = [
    # a (3,) batch on a d = 1 model is not one 3-dimensional state
    ("batch-on-d1", lambda: ScoreModel(_D1_PAIR, VpLinear()), np.array([0.3, -1.2, 2.0]),
     ("score", "noise_pred", "data_pred")),
    ("d1-on-d3", lambda: ScoreModel(DataDistribution.standard_normal(3), VpLinear()),
     np.zeros((2, 1)), ("score", "noise_pred", "data_pred")),
    ("zero-batch-on-d1", lambda: ZeroModel(1, VpLinear()), np.array([0.3, -1.2, 2.0]),
     ("noise_pred", "data_pred")),
    ("zero-d1-on-d3", lambda: ZeroModel(3, VpLinear()), np.zeros((2, 1)),
     ("noise_pred", "data_pred")),
    # a float is one state only where d = 1
    ("float-on-d3", lambda: ScoreModel(DataDistribution.standard_normal(3), VpLinear()), 0.3,
     ("score", "noise_pred", "data_pred")),
    ("zero-float-on-d3", lambda: ZeroModel(3, VpLinear()), 0.3, ("noise_pred", "data_pred")),
]


@pytest.mark.parametrize("make, call, x", [pytest.param(make, call, x, id=f"{name}-{call}")
                                           for name, make, x, calls in _BAD_STATES
                                           for call in calls])
def test_states_of_another_dimension_raise_a_named_error(make, call, x):
    # and a rejected call is not counted as a network evaluation
    model = make()
    with pytest.raises(DomainError, match=re.escape(f"states of shape {np.shape(x)} are not "
                                                    f"of dimension d = {model.dim}")):
        getattr(model, call)(x, 0.5)
    assert model.nfe == 0


@pytest.mark.parametrize("d", [0, -1, 2.5, 2.0, True, "2", None])
def test_a_zero_model_dimension_that_is_not_an_integer_from_1_is_a_domain_error(d):
    with pytest.raises(DomainError, match="dimension must be >= 1"):
        ZeroModel(d, VpLinear())
    assert ZeroModel(np.int64(2), VpLinear()).dim == 2


def _float_states(data, sched, t):
    """One-number states at t: an ordinary one, signed zeros, the first component's mean
    and its distance R_t from the mean, where one component's closed form ends, on both
    sides of it, and one ulp nearer and farther."""
    mus, covs = data.marginal(sched, t)
    mu, cov = float(mus[0, 0]), float(covs[0, 0])
    bound = math.sqrt(np.finfo(float).max / 2) * min(1.0, math.sqrt(float(covs.min())))
    states = [mu + 0.7 * math.sqrt(cov), 0.0, -0.0, mu, -mu]
    for edge in (mu + bound, mu - bound):
        states += [float(np.nextafter(edge, 0.0)), edge,
                   float(np.nextafter(edge, math.copysign(math.inf, edge)))]
    return states


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
@pytest.mark.parametrize("k", [1, 2])
def test_a_float_state_gives_the_bytes_of_its_one_by_one_call(sched, k):
    # on a d = 1 model a float state is one state: each call returns a float with the bytes
    # of its (1, 1) array's call and a network call counts once, at tabulated and other
    # times, within one component's closed-form bound and past it, and with two components
    rng = np.random.default_rng(80 + k)
    data = DataDistribution(np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, 1)),
                            rng.uniform(0.3, 1.5, (k, 1)))
    times = [sched.t_min, 0.5 * (sched.t_min + sched.t_max), sched.t_max]
    ref, plain, prepared = (ScoreModel(data, sched) for _ in range(3))
    prepared.prepare(times[:2])
    for t in times:
        for x in _float_states(data, sched, t):
            for model in (plain, prepared):
                for call in ("score", "noise_pred", "data_pred"):
                    nfe = model.nfe
                    got = getattr(model, call)(x, t)
                    want = getattr(ref, call)(np.array([[x]]), t)
                    assert type(got) is float and _same_bits(np.array([[got]]), want), (t, x)
                    assert model.nfe == nfe + (call != "score")


@pytest.mark.parametrize("sched", [VpLinear(), Ve(), Edm()], ids=["vp", "ve", "edm"])
def test_a_float_state_of_the_zero_model_gives_the_bytes_of_its_one_by_one_call(sched):
    model = ZeroModel(1, sched)
    for t in (sched.t_min, sched.t_max):
        for x in (0.7, -0.0, 1e300):
            for call in ("noise_pred", "data_pred"):
                nfe = model.nfe
                got = getattr(model, call)(x, t)
                assert type(got) is float and model.nfe == nfe + 1
                assert _same_bits(np.array([[got]]), getattr(model, call)(np.array([[x]]), t))
