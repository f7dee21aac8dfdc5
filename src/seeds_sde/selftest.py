"""Built-in invariant suite: fast deterministic checks, one line per check.

The output is a pure function of the seed, so two invocations are
byte-identical; exit code 0 when every check passes, 2 otherwise.
"""

import math

import numpy as np

from .grids import edm_grid, linear_lambda_grid
from .harness import per_step_compare
from .models import DataDistribution, ScoreModel, ZeroModel
from .noise import RngStream, raw_increment_var, stage_noise_weights
from .phi import phi
from .schedules import Edm, VpLinear
from .solvers import SolverSpec, StepPlan, sample, step_once


def run_selftest(seed: int = 0) -> int:
    checks = []

    def check(name, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    # phi recursion identity on a fixed grid
    ok = True
    for h in (-5.0, -1.0, -0.1, 1e-6, 0.1, 1.0, 5.0):
        for k in range(8):
            lhs = h * phi(k + 1, h) + 1.0 / math.factorial(k)
            ok &= abs(lhs - phi(k, h)) <= 1e-12 * max(1.0, abs(phi(k, h)))
    check("phi recursion identity", ok)

    # integral of e^{-lam} over [0, ln 2] is 1/2 = e^{-h} h phi_1(h) at h = ln 2
    h = math.log(2.0)
    check("phi_1 weighted integral anchor", abs(math.exp(-h) * h * phi(1, h) - 0.5) < 1e-14)

    # expm1-stable staged-noise weight versus direct evaluation at h=1: the full
    # step's weight on z1, whose sub-interval [0, 1/3] is carried over [1/3, 1]
    val = stage_noise_weights((1.0 / 3.0, 2.0 / 3.0, 1.0), 1.0)[2][0]
    check("stable noise combination anchor",
          abs(val - math.sqrt(math.exp(2.0) - math.exp(4.0 / 3.0))) < 1e-14)

    sched = VpLinear()
    # lambda round trip on a log-spaced grid
    ts = np.geomspace(sched.t_min, sched.t_max, 200)
    ok = all(abs(sched.t_of_lambda(sched.lambda_of_t(float(t))) - t) <= 1e-10 * t for t in ts)
    check("lambda round trip (vp)", ok)

    # sigma_bar / alpha == e^{-lambda}
    ok = True
    for t in ts[::20]:
        a, s, sbar = sched.alpha_sigma(float(t))
        ok &= abs(sbar / a - math.exp(-sched.lambda_of_t(float(t)))) < 1e-12 * (sbar / a)
    check("sigma_bar/alpha identity (vp)", ok)

    # Ito isometry: analytic increment variance vs quadrature
    nodes, weights = np.polynomial.legendre.leggauss(64)
    ok = True
    for lam_a, lam_b in ((-2.0, -1.0), (0.0, 0.5), (1.0, 3.0)):
        mid, half = 0.5 * (lam_a + lam_b), 0.5 * (lam_b - lam_a)
        quad = float(np.sum(weights * np.exp(-2.0 * (mid + half * nodes))) * half)
        ok &= abs(raw_increment_var(lam_a, lam_b) - quad) <= 1e-12 * quad
    check("Ito isometry vs quadrature", ok)

    # staged-noise telescoping: the squared z1, z2, z3 weights of the full-step
    # noise sum to e^{2h} - 1
    h = 0.7
    b_coefs = stage_noise_weights((1.0 / 3.0, 2.0 / 3.0, 1.0), h)[2]
    check("staged-noise telescoping",
          abs(sum(c * c for c in b_coefs) - math.expm1(2 * h)) <= 1e-13 * math.expm1(2 * h))

    # RNG determinism and stream separation
    stream = RngStream(seed)
    a = stream.normal_paths(1, 5, 1, 4, offset=3)[0]
    b = stream.normal_paths(1, 5, 1, 4, offset=3)[0]
    c = stream.normal_paths(1, 5, 2, 4, offset=3)[0]
    check("rng determinism", bool(np.array_equal(a, b)) and not np.allclose(a, c))

    # one-step exactness of the one-stage solver on the zero model
    zm = ZeroModel(1, sched)
    x = np.array([[1.3]])
    s_t, t_t, u_t = 0.9, 0.3, 0.6
    seeds1, zero = SolverSpec("seeds1"), {1: np.zeros((1, 1))}
    one = step_once(seeds1, zm, x, s_t, t_t, zero)
    two = step_once(seeds1, zm, step_once(seeds1, zm, x, s_t, u_t, zero), u_t, t_t, zero)
    check("zero-model linear exactness", float(np.max(np.abs(one - two))) < 1e-12)

    # variance telescoping of the chained step
    lam = sched.lambda_of_t
    h_full = lam(t_t) - lam(s_t)
    h1, h2 = lam(u_t) - lam(s_t), lam(t_t) - lam(u_t)
    a_t, a_u = sched.alpha_sigma(t_t)[0], sched.alpha_sigma(u_t)[0]
    c_t, c_u = sched.np_noise(t_t), sched.np_noise(u_t)
    v_one = (c_t * math.sqrt(math.expm1(2.0 * h_full))) ** 2
    v_two = (a_t / a_u * (c_u * math.sqrt(math.expm1(2.0 * h1)))) ** 2 \
        + (c_t * math.sqrt(math.expm1(2.0 * h2))) ** 2
    check("variance telescoping", abs(v_one - v_two) <= 1e-12 * v_one)

    # per-step equivalence of the DDIM-style step and the one-stage dp step
    data = DataDistribution.standard_normal(1)
    model = ScoreModel(data, sched)
    grid = linear_lambda_grid(12, sched.t_min, sched.t_max, sched)
    diff = per_step_compare(SolverSpec("gddim"), SolverSpec("seeds1", mode="dp"),
                            model, grid, RngStream(seed))
    check("gddim == seeds1-dp per step", diff < 1e-10)

    # grid endpoints and NFE accounting
    eg = edm_grid(8, 0.002, 80.0, 7.0, Edm(sigma_data=1.0))
    check("edm grid endpoints", eg.times[0] == 80.0 and eg.times[7] == 0.002 and eg.times[8] == 0.0)
    model.nfe = 0
    res = sample(StepPlan(SolverSpec("seeds3"), model, grid), RngStream(seed), n_paths=4)
    check("nfe accounting k(M-1)", model.nfe == 3 * (grid.n_steps - 1) == res.nfe_per_path)

    # sampling determinism
    r1_ = sample(StepPlan(SolverSpec("seeds2"), model, grid), RngStream(seed), n_paths=8)
    r2_ = sample(StepPlan(SolverSpec("seeds2"), model, grid), RngStream(seed), n_paths=8)
    check("sampling determinism", bool(np.array_equal(r1_.terminal, r2_.terminal)))

    failed = checks.count(False)
    print(f"selftest: {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 2
