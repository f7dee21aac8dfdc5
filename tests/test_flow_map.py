"""Pathwise order of every deterministic family against the exact probability-flow map.

In one dimension the probability-flow ODE carries the marginal at T monotonically
onto the marginal at t, so the exact solution from x_T is y = F_t^-1(F_T(x_T)),
F_t the mixture CDF that ``DataDistribution.marginal`` gives (Song et al., "Score-
based generative modeling through SDEs", ICLR 2021).  The data are non-Gaussian,
so the score is non-linear, and the error has no Monte Carlo noise.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from seeds_sde import (DataDistribution, Edm, ScoreModel, SolverSpec, Ve, VpLinear,
                       linear_lambda_grid)
from seeds_sde.schedules import ODE
from seeds_sde.solvers import FAMILIES, StepPlan, walk

# two overlapping modes: a start at the cumulative weight 0.3 would map into the gap
# between them, where the flow map is nearly singular, so the probes stay away from it
DATA = DataDistribution(np.array([0.3, 0.7]), np.array([[-2.0], [1.5]]),
                        np.array([[0.3], [0.5]]))
QUANTILES = (0.05, 0.15, 0.5, 0.7, 0.95)


def mixture_cdf(sched, t, x):
    mu, var = DATA.marginal(sched, t)
    return float(DATA.weights @ ndtr((x - mu[:, 0]) / np.sqrt(var[:, 0])))


def mixture_quantile(sched, t, q):
    mu, var = DATA.marginal(sched, t)
    r = float(np.abs(mu).max()) + 40.0 * math.sqrt(float(var.max()))
    return brentq(lambda x: mixture_cdf(sched, t, x) - q, -r, r, xtol=1e-15)


def flow_map_error(spec, sched, m):
    """Largest |x - y| over the probe paths after walking the M-step ODE-lambda grid."""
    model = ScoreModel(DATA, sched)
    plan = StepPlan(spec, model, linear_lambda_grid(m, sched.t_min, sched.t_max, sched, ODE))
    model.prepare(plan.times())
    x_top = [mixture_quantile(sched, plan.top, q) for q in QUANTILES]
    for x in walk(plan, lambda i: {}, np.array(x_top)[:, None]):
        pass
    t_end = plan.rows[-1][0]
    y = [mixture_quantile(sched, t_end, mixture_cdf(sched, plan.top, x_t)) for x_t in x_top]
    return float(np.max(np.abs(x[:, 0] - y)))


# (family, mode, schedule, order, grids): the last three grids of a range where the
# family is asymptotic.  The slopes and errors read when the bounds were set:
# dpm1 np and dp on VP 1.047 (0.225 -> 0.0505), dp on VE 1.046; dpm2 on VP 2.106
# (0.041 -> 2.0e-3), on EDM 1.982 (1.1e-3 -> 6.9e-5); dpm3 on VP 3.029 (5.2e-6 ->
# 8.0e-8), on EDM 2.98 (1.7e-4 -> 2.8e-6); dpm4 on VP 4.177 (8.4e-5 -> 2.3e-7);
# exp_euler_etd 1.001 and exp_euler_lawson 0.977 on VP; ve2_ode_a 1.968 on VE and
# 1.912 on EDM; ve2_ode_b 2.039 on VE and 2.052 on EDM.  The exponential-Euler and
# EDM runs are pre-asymptotic below M of about 100, and dpm4 reads 4.38 over
# 13 ... 111 and dpm3 on EDM 3.53 over 19 ... 79, steeper than their order.
CASES = [
    ("dpm1", "np", VpLinear, 1, (19, 39, 79)),
    ("dpm1", "dp", VpLinear, 1, (19, 39, 79)),
    ("dpm1", "dp", Ve, 1, (19, 39, 79)),
    ("dpm2", "np", VpLinear, 2, (19, 39, 79)),
    ("dpm2", "np", Edm, 2, (201, 401, 801)),
    ("dpm3", "np", VpLinear, 3, (101, 201, 401)),
    ("dpm3", "np", Edm, 3, (101, 201, 401)),
    ("dpm4", "np", VpLinear, 4, (27, 55, 111)),
    ("exp_euler_etd", "np", VpLinear, 1, (201, 401, 801)),
    ("exp_euler_lawson", "np", VpLinear, 1, (201, 401, 801)),
    ("ve2_ode_a", "dp", Ve, 2, (19, 39, 79)),
    ("ve2_ode_a", "dp", Edm, 2, (201, 401, 801)),
    ("ve2_ode_b", "dp", Ve, 2, (19, 39, 79)),
    ("ve2_ode_b", "dp", Edm, 2, (201, 401, 801)),
]


def test_flow_map_cases_cover_every_deterministic_family_mode():
    deterministic = {(fam, mode) for fam, desc in FAMILIES.items()
                     for mode, form in desc.forms.items() if not form.takes_draws}
    assert {(fam, mode) for fam, mode, *_ in CASES} == deterministic


@pytest.mark.parametrize("family, mode, sched_cls, order, grids", CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2].__name__}" for c in CASES])
def test_flow_map_error_falls_at_the_family_order(family, mode, sched_cls, order, grids):
    errors = [flow_map_error(SolverSpec(family, mode), sched_cls(), m) for m in grids]
    slope = -np.polyfit(np.log(grids), np.log(errors), 1)[0]
    assert order - 0.3 <= slope <= order + 0.3, errors
