import math

import numpy as np
import pytest
import sympy
from scipy import stats

from seeds_sde import (DataDistribution, Edm, GaussianFlowOracle, RngStream, ScoreModel,
                       SolverSpec, Ve, VpLinear, ZeroModel, linear_lambda_grid)
from seeds_sde.errors import ConfigError, DomainError, GridError
from seeds_sde.noise import BLOCK, raw_increment_var, stage_noise_weights
from seeds_sde.solvers import FAMILIES, StepPlan, step_once

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def quad_exp_neg2(lam_a, lam_b):
    mid, half = 0.5 * (lam_a + lam_b), 0.5 * (lam_b - lam_a)
    return float(np.sum(GL_WEIGHTS * np.exp(-2.0 * (mid + half * GL_NODES))) * half)


class FixedGen:
    """Generator stub feeding preset unit normals."""

    def __init__(self, normals=()):
        self._normals = list(normals)

    def standard_normal(self, shape=()):
        v = self._normals.pop(0)
        return np.full(shape, v) if shape else np.float64(v)


# -- keyed substreams ---------------------------------------------------------


def one_path(stream, traj, step, stage, d):
    """Trajectory traj's draw at (step, stage), shape (d,)."""
    return stream.normal_paths(1, step, stage, d, offset=traj)[0]


def test_gauss_deterministic():
    stream = RngStream(42)
    a = one_path(stream, 0, 0, 0, 3)
    b = one_path(stream, 0, 0, 0, 3)
    assert np.array_equal(a, b)
    assert a.shape == (3,)


def test_distinct_streams_differ():
    stream = RngStream(42)
    base = one_path(stream, 5, 7, 1, 4)
    for other in (one_path(stream, 6, 7, 1, 4), one_path(stream, 5, 8, 1, 4),
                  one_path(stream, 5, 7, 2, 4)):
        assert not np.allclose(base, other)
    assert not np.allclose(base, one_path(RngStream(43), 5, 7, 1, 4))


def reference_rows(seed, step, stage, d, offset, n):
    """The draw contract written out: a fresh generator per 1024-path block."""
    blocks = {}
    rows = []
    for traj in range(offset, offset + n):
        block, row = divmod(traj, 1024)
        if block not in blocks:
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, stage, step, block]))
            blocks[block] = gen.standard_normal((1024, d))
        rows.append(blocks[block][row])
    return np.array(rows)


def test_normal_paths_partition_invariance():
    stream = RngStream(7)
    full = stream.normal_paths(3000, 4, 1, 2)
    pieces = np.concatenate(
        [stream.normal_paths(1000, 4, 1, 2, offset=o) for o in (0, 1000, 2000)]
    )
    assert np.array_equal(full, pieces)
    # row p equals the per-trajectory draw
    assert np.array_equal(full[1537], one_path(stream, 1537, 4, 1, 2))


@pytest.mark.parametrize("seed", [7, 2**64 + 3])
@pytest.mark.parametrize("d", [1, 16])
@pytest.mark.parametrize("offset,n", [(0, 1), (0, 1696), (1000, 100)])
def test_normal_paths_match_reference(seed, d, offset, n):
    stream = RngStream(seed)
    ref = reference_rows(seed, 4, 2, d, offset, n)
    assert np.array_equal(stream.normal_paths(n, 4, 2, d, offset=offset), ref)
    assert np.array_equal(one_path(stream, offset + n - 1, 4, 2, d), ref[-1])


def test_draws_independent_of_call_order():
    stream = RngStream(2**100 + 1)
    first = stream.normal_paths(1100, 3, 1, 2)
    stream.normal_paths(5, 9, 2, 7, offset=3000)
    one_path(stream, 2047, 3, 0, 2)
    assert np.array_equal(stream.normal_paths(1100, 3, 1, 2), first)
    assert np.array_equal(RngStream(2**100 + 1).normal_paths(1100, 3, 1, 2), first)


@pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
def test_draws_equal_a_generator_built_fresh_at_the_key(seed):
    # the counter reset leaves nothing of the previous key: each draw follows
    # one at another key and still matches Philox(key=seed, counter=[0, stage, step, block])
    stream = RngStream(seed)
    keys = [(0, 0, 0), (1, 3, 2), (3, 2**50, 5), (2, 7, 2**50), (1, 2**50, 2**50), (0, 0, 0)]
    for rows in (1, 7, 1024):
        for d in (1, 16):
            for stage, step, block in keys:
                got = stream.normal_paths(rows, step, stage, d, offset=block * BLOCK)
                fresh = np.random.Generator(np.random.Philox(
                    key=seed, counter=[0, stage, step, block]))
                assert np.array_equal(got, fresh.standard_normal((rows, d)))


def test_seed_out_of_range_rejected():
    for seed in (-1, 2**128):
        with pytest.raises(ConfigError):
            RngStream(seed)
    # a seed that is not an integer is named, not truncated; a bool is not an integer
    for seed in (1.5, True, "3", math.nan):
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
            RngStream(seed)
    for seed in (np.int64(3), np.uint8(3), 3.0):
        assert np.array_equal(RngStream(seed).normal_paths(2, 1, 1, 2),
                              RngStream(3).normal_paths(2, 1, 1, 2))


def test_gauss_moments_and_ks():
    stream = RngStream(123)
    draws = stream.normal_paths(1_000_000, 0, 0, 1).ravel()
    assert abs(draws.mean()) < 5.0 / math.sqrt(1_000_000)
    ks = stats.kstest(draws[:100_000], "norm").statistic
    assert ks < 1.628 / math.sqrt(100_000)  # alpha = 0.01 critical value


# -- analytic increment laws --------------------------------------------------


def _unit_draw_increment(sched, mode, s, t):
    """The noise term of one seeds1 step in ``mode`` at z = 1: the step of the
    zero model from x = 0."""
    x_t = step_once(SolverSpec("seeds1", mode=mode), ZeroModel(1, sched), np.zeros((1, 1)),
                    s, t, {1: np.ones((1, 1))})
    return float(x_t[0, 0])


def test_weighted_increment_std_anchors():
    # e^{2h} = 2: on EDM (sigma_d = 1, sde lambda) from s = sqrt(2/3) to t = 1/2 the np
    # increment is np_noise(t) sqrt(e^{2h} - 1); on VE from s = sqrt(2) to t = 1 the dp
    # increment is sigma_bar_t sqrt(1 - e^{-2h}) = 1/sqrt(2)
    edm = Edm(sigma_data=1.0)
    s = math.sqrt(2.0 / 3.0)
    assert _unit_draw_increment(edm, "np", s, 0.5) == pytest.approx(edm.np_noise(0.5), rel=1e-14)
    assert _unit_draw_increment(Ve(), "dp", math.sqrt(2.0), 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-14)
    # a step needs h > 0
    for mode in ("np", "dp"):
        with pytest.raises(GridError):
            _unit_draw_increment(edm, mode, 0.5, 0.5)
        with pytest.raises(GridError):
            _unit_draw_increment(edm, mode, 0.5, 0.6)


def test_ito_isometry_vs_quadrature():
    for lam_a, lam_b in ((-3.0, -1.0), (-0.5, 0.5), (0.2, 2.7), (1.0, 1.001)):
        quad = quad_exp_neg2(lam_a, lam_b)
        assert raw_increment_var(lam_a, lam_b) == pytest.approx(quad, rel=1e-12)
    with pytest.raises(DomainError, match="need lam_b > lam_a"):
        raw_increment_var(1.0, 0.5)


def test_np_increment_matches_isometry():
    # sigma_bar^2 (e^{2h} - 1) == 2 alpha^2 * integral e^{-2 lam}
    sched = VpLinear()
    s, t = 0.8, 0.35
    lam_s, lam_t = sched.lambda_of_t(s), sched.lambda_of_t(t)
    a_t = sched.alpha_sigma(t)[0]
    var = (sched.np_noise(t) * math.sqrt(math.expm1(2.0 * (lam_t - lam_s)))) ** 2
    assert var == pytest.approx(2.0 * a_t * a_t * quad_exp_neg2(lam_s, lam_t), rel=1e-12)


# -- staged noise -------------------------------------------------------------


# The two-stage staged noise lives in the seeds2 step itself.  On the zero
# model started from x = 0 the step returns its full-step noise, and the
# model's second input is the stage state, i.e. the midpoint noise.


class StageRecorder:
    """Zero noise prediction that keeps every state it is evaluated at."""

    def __init__(self, sched):
        self.sched, self.inputs = sched, []

    def noise_pred(self, x, t):
        self.inputs.append(np.array(x))
        return np.zeros_like(np.asarray(x, dtype=float))


def _seeds2_noise(z1, z2, h, s=0.8):
    """(stage noise, full-step noise, s1, t) of the midpoint seeds2 step with lambda width h."""
    vp = VpLinear()
    t = vp.t_of_lambda(vp.lambda_of_t(s) + h)
    rec = StageRecorder(vp)
    full = step_once(SolverSpec("seeds2"), rec, np.zeros_like(z1), s, t, {1: z1, 2: z2})
    s1 = vp.t_of_lambda(vp.lambda_of_t(s) + 0.5 * h)
    return rec.inputs[1], full, s1, t


def test_staged_seeds2_zero_draws():
    mid, full, _, _ = _seeds2_noise(np.zeros(3), np.zeros(3), 0.4)
    assert np.all(mid == 0.0) and np.all(full == 0.0)


def test_staged_seeds2_telescoping_coefficients():
    vp, h = VpLinear(), 0.3
    mid, c1, s1, t = _seeds2_noise(np.ones(1), np.zeros(1), h)
    _, c2, _, _ = _seeds2_noise(np.zeros(1), np.ones(1), h)
    sbar_t, sbar_1 = vp.alpha_sigma(t)[2], vp.alpha_sigma(s1)[2]
    assert c1[0] ** 2 + c2[0] ** 2 == pytest.approx(sbar_t**2 * math.expm1(2 * h), rel=1e-13)
    assert -mid[0] == pytest.approx(sbar_1 * math.sqrt(math.expm1(h)), rel=1e-13)


def test_staged_seeds2_empirical_variance():
    h, n = 0.3, 1_000_000
    gen = np.random.Generator(np.random.Philox(key=5))
    z1 = gen.standard_normal(n)
    z2 = gen.standard_normal(n)
    _, full, _, t = _seeds2_noise(z1, z2, h)
    target = VpLinear().alpha_sigma(t)[2] ** 2 * math.expm1(2 * h)
    se = target * math.sqrt(2.0 / (n - 1))
    assert abs(full.var() - target) < 5.0 * se


def test_staged_seeds3_tiny_h_vanishes():
    # every node's noise with unit draws is the sum of its weights
    for row in stage_noise_weights((1 / 3, 2 / 3, 1.0), 1e-12):
        assert abs(sum(row)) < 1e-5


def test_staged_seeds3_telescoping():
    # each node's squared weights sum to its one-stage variance e^{2 w h} - 1, at
    # the default fractions and off them
    h, sbar = 0.6, 0.9
    for fracs in ((1 / 3, 2 / 3, 1.0), (0.5, 0.75, 1.0), (0.2, 0.7, 1.0)):
        for w, row in zip(fracs, stage_noise_weights(fracs, h)):
            total = sum((sbar * c) ** 2 for c in row)
            assert total == pytest.approx(sbar**2 * math.expm1(2 * w * h), rel=1e-13)


def _on_path_noises(h, r1, r2, zs):
    """Symbolic (A, B) / (c(s2), c(t)) of the on-path rule: sub-interval [a, b] of a node of
    width w carries sqrt(e^{2(w-a)h} - e^{2(w-b)h}) of its draw."""
    e = sympy.exp
    a_expr = (sympy.sqrt(e(2 * r2 * h) - e(2 * (r2 - r1) * h)) * zs[0]
              + sympy.sqrt(e(2 * (r2 - r1) * h) - 1) * zs[1])
    b_expr = (sympy.sqrt(e(2 * h) - e(2 * (1 - r1) * h)) * zs[0]
              + sympy.sqrt(e(2 * (1 - r1) * h) - e(2 * (1 - r2) * h)) * zs[1]
              + sympy.sqrt(e(2 * (1 - r2) * h) - 1) * zs[2])
    return a_expr, b_expr


def test_staged_seeds3_cross_covariance_symbolic_oracle():
    # Cov(A * sbar_t / sbar_s2, B) derived by symbolic expansion over iid z's; on one
    # Brownian path it is the carried variance sbar_t^2 e^{(1 - r2) h} (e^{2 r2 h} - 1)
    h, sbar_s2, sbar_t = 0.6, 0.9, 1.0
    z1, z2, z3 = sympy.symbols("z1 z2 z3")
    covs = {}
    for r1, r2 in ((0.5, 0.75), (1 / 3, 2 / 3)):
        a_expr, b_expr = _on_path_noises(h, r1, r2, (z1, z2, z3))
        prod = sympy.expand(sbar_t * a_expr * sbar_t * b_expr)
        # E over iid standard normals: z_i z_j -> delta_ij
        covs[r1, r2] = float(sum(coef for term, coef in prod.as_coefficients_dict().items()
                                 if term in (z1**2, z2**2, z3**2)))
        carried = sbar_t**2 * math.exp((1 - r2) * h) * math.expm1(2 * r2 * h)
        assert covs[r1, r2] == pytest.approx(carried, rel=1e-13)

    r1, r2 = 1 / 3, 2 / 3
    n = 1_000_000
    gen = np.random.Generator(np.random.Philox(key=17))
    zs = [gen.standard_normal(n) for _ in range(3)]
    _, w_a, w_b = stage_noise_weights((r1, r2, 1.0), h)
    a_draw = sbar_s2 * sum(w * z for w, z in zip(w_a, zs))
    b_draw = sbar_t * sum(w * z for w, z in zip(w_b, zs))
    prod_draw = (a_draw * sbar_t / sbar_s2) * b_draw
    se = prod_draw.std() / math.sqrt(n)
    assert abs(prod_draw.mean() - covs[r1, r2]) < 5.0 * se


# -- the exact law of the staged steps ------------------------------------------


def _terminal_variance_error(spec, sched, n_steps):
    """|Var x_end - exact| for N(0, 1) data after a walk of ``n_steps`` - 1 real steps.

    The model is affine in x, so every step is x_t = a x_s + b + sum_k c_k z^k: probing
    ``step_once`` along the plan with (1, 1) states, x in {0, 1} with zero draws, then
    one unit draw per stage, gives a, b and c_k, and carrying the mean and variance gives
    the walk's exact terminal law.  The reference is the exact reverse SDE from the same
    prior N(0, sbar_0^2): its excess over the marginal variance V decays as
    (V_t / V_0)^2 (alpha_0 / alpha_t)^2."""
    data = DataDistribution.standard_normal(1)
    model = ScoreModel(data, sched)
    grid = linear_lambda_grid(n_steps, sched.t_min, sched.t_max, sched)
    plan = StepPlan(spec, model, grid)
    model.prepare(plan.times())
    stages = range(1, FAMILIES[spec.family].evals + 1)
    zero = {k: np.zeros((1, 1)) for k in stages}

    def probe(x, start, t, nodes, kick=None):
        draws = zero if kick is None else {**zero, kick: np.ones((1, 1))}
        x_t = step_once(spec, model, np.full((1, 1), x), start, t, draws, nodes)
        return float(x_t[0, 0])

    t0 = float(grid.times[0])
    a_0, _, sbar_0 = sched.alpha_sigma(t0)
    mean, var = 0.0, sbar_0**2
    for t, _, start, nodes in plan.rows:
        b = probe(0.0, start, t, nodes)
        a = probe(1.0, start, t, nodes) - b
        mean = a * mean + b
        var = a * a * var + sum((probe(0.0, start, t, nodes, k) - b) ** 2 for k in stages)
    oracle, t_end = GaussianFlowOracle(data, sched), plan.rows[-1][0]
    v_0, v_end = float(oracle.var(t0)[0]), float(oracle.var(t_end)[0])
    a_end = sched.alpha_sigma(t_end)[0]
    exact = v_end + (sbar_0**2 - v_0) * (v_end / v_0) ** 2 * (a_0 / a_end) ** 2
    assert mean == 0.0   # zero-mean data: the affine law keeps the mean at 0
    return abs(var - exact)


@pytest.mark.parametrize("spec,sched", [
    (SolverSpec("seeds3"), VpLinear()),
    (SolverSpec("seeds3", r1=0.5, r2=0.75), VpLinear()),
    (SolverSpec("seeds3", r1=0.25, r2=0.5), VpLinear()),
    (SolverSpec("seeds3", r1=0.2, r2=0.7), VpLinear()),
    (SolverSpec("seeds2", c2=0.3), VpLinear()),
    (SolverSpec("ve2_sde", r1=0.5), Ve()),
], ids=["seeds3", "seeds3-0.5-0.75", "seeds3-0.25-0.5", "seeds3-0.2-0.7", "seeds2-0.3",
        "ve2_sde-0.5-ve"])
def test_staged_noise_keeps_weak_order_two(spec, sched):
    # stage noises off one Brownian path leave a variance error of order 1 in h (seeds3
    # off its default fractions read slopes near 1 so); on it the slope is 2
    e_coarse = _terminal_variance_error(spec, sched, 201)
    e_fine = _terminal_variance_error(spec, sched, 801)
    assert math.log(e_coarse / e_fine) / math.log(4.0) >= 1.9


# -- Chasles refinement -------------------------------------------------------


def test_chasles_halves_sum_exactly():
    lam_s, lam_t = -0.8, 1.1
    mid = 0.5 * (lam_s + lam_t)
    v = raw_increment_var(lam_s, mid) + raw_increment_var(mid, lam_t)
    assert v == pytest.approx(raw_increment_var(lam_s, lam_t), rel=1e-13)


# -- correlated pair -----------------------------------------------------------


def test_correlated_pair_unit_basis(correlated_pair):
    h = 0.37
    w, z = correlated_pair(FixedGen(normals=[1.0, 0.0]), h)
    assert w == pytest.approx(math.sqrt(h), rel=1e-15)
    assert z == pytest.approx(h * math.sqrt(h) / 2.0, rel=1e-15)


def test_correlated_pair_covariance(correlated_pair):
    h, n = 0.2, 1_000_000
    gen = np.random.Generator(np.random.Philox(key=23))
    w, z = correlated_pair(gen, h, size=n)
    target = np.array([[h, h * h / 2.0], [h * h / 2.0, h**3 / 3.0]])
    emp = np.cov(np.stack([w, z]), bias=True)
    # 5 SE entrywise, SE estimated from the product samples
    for (i, j), prods in (((0, 0), w * w), ((0, 1), w * z), ((1, 1), z * z)):
        se = prods.std() / math.sqrt(n)
        assert abs(emp[i, j] - target[i, j]) < 5.0 * se
    assert abs((z**2).mean() - h**3 / 3.0) < 5.0 * (z**2).std() / math.sqrt(n)
