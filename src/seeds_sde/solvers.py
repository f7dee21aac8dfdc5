"""One-step update rules, the solver registry and the outer sampling loop.

Families
--------
seeds1/2/3         stochastic exponential steps (1, 2, 3 stages)
dpm1/2/3/4         deterministic exponential ODE steps (probability flow)
euler_maruyama     direct reverse-SDE discretization baseline
exp_euler_etd /    classical exponential Euler in the time variable
exp_euler_lawson   (ETD and integrating-factor flavors)
gddim              stochastic DDIM-style step (VP only)
ve2_ode_a/b, ve2_sde  one-parameter two-stage data-prediction schemes (VE/EDM)

One stage engine: ``stages_step`` has one stage per stage fraction plus one,
in noise prediction (SEEDS-1/2/3 with draws, DPM-1/2/3 without) or in data
prediction (seeds1-dp and ve2_sde with draws, dpm1-dp and ve2_ode_a/b
without), over the coefficients of the first-order moves, ``np_move`` and
``dp_move``, which ``_moved`` applies; gddim and ETD exponential Euler are its
one-move forms.  Every
stage noise comes from ``noise.stage_noise_weights``: stage j's draw z^j is
the increment over the j-th sub-interval of the step, split at its stage
nodes, so all of a step's stage noises lie on one Brownian path for any
allowed stage fractions.  dpm4, Euler-Maruyama and Lawson's exponential Euler
keep their own bodies.

One registry: ``FAMILIES`` maps each family name to a ``Family`` descriptor
with its evaluations per step, the stage parameters it reads with their one
default, and one ``Form`` per mode it has ("np" noise prediction, "dp" data
prediction): the step callable, its node function, its fixed keywords and the
schedules it runs on.
Only seeds1 and dpm1 have both modes; every other family has one, which is
its default (and the default of seeds1 and dpm1 is "np").  A ``SolverSpec``
looks its family up once and keeps its form and stage parameters;
``STAGE_PARAMS`` names every stage parameter some family reads.

Steps read their draws as a mapping from stage k to an (n, d) array z^k.
``walk``, the one loop over a grid's real steps, takes step i's from
``draws_at(i)``: ``sample``, which walks the plan it is given, passes a
``StepDraws``, keyed on (step i, stage), so solvers sharing a (seed,
trajectory, step) also share z^1, z^2, ...  A plain dict {stage: array}
injects fixed draws.  ``lockstep`` starts a group of walks
from their x_T and advances them together on one ``draws_at``, so a group on one
``StepDraws`` draws each key once.

A step's time-only part depends only on the grid and the run's one schedule,
``model.sched``: its stage-node times and every scalar its body multiplies an
array by, each product formed in the order the body would evaluate it.  Every
form names the node function that returns it (``Form.nodes``), and churn has
``churn_lift``; a ``StepPlan`` calls them once per grid, before the walk, on
``model.sched.cached()``, and a step body reads only its row.  A plan keeps its
model, so ``walk`` and ``lockstep`` take plans alone; it and ``step_once``, which
computes a missing row, check the solver against ``model.sched`` with one rule.
``lockstep`` hands each model of its group the evaluation times of that model's
plans, through the model's optional ``prepare`` hook, which tabulates its time-only work.

Noise-prediction coefficients come from the schedule's ``np_*`` methods, in
the lambda of the reverse SDE (``SDE``) or of the probability-flow ODE
(``ODE``); data prediction uses lambda = -log sigma and ``alpha_sigma``.
Euler-Maruyama's row holds ``np_score``, which rebuilds the score from F, so
every step reads the model only through ``noise_pred`` and ``data_pred``.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .errors import ConfigError, DomainError, GridError, as_integer, as_number
from .grids import StepGrid
from .noise import stage_noise_weights
from .phi import phi
from .schedules import ODE, SDE, ScheduleBase

_GAMMA_CAP = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class ChurnParams:
    """Extra-noise injection parameters (inactive when s_churn == 0), each stored as the
    float ``as_number`` checks: finite numbers, but s_tmax may be +inf, its default."""

    s_churn: float = 0.0
    s_tmin: float = 0.0
    s_tmax: float = math.inf
    s_noise: float = 1.0

    def __post_init__(self):
        for key in fields(self):   # frozen dataclasses refuse setattr
            object.__setattr__(self, key.name, as_number(
                f"churn {key.name}", getattr(self, key.name), inf_ok=key.name == "s_tmax"))
        if self.s_churn < 0.0:
            raise ConfigError("s_churn must be >= 0")
        if self.s_tmin > self.s_tmax:
            raise ConfigError("need s_tmin <= s_tmax")
        if self.s_noise <= 0.0:
            raise ConfigError("s_noise must be positive")


@dataclass(frozen=True)
class SolverSpec:
    """Solver family plus mode and stage parameters.

    ``mode`` None means the family's default mode: "np" for seeds1 and dpm1, the only mode
    for every other family; any other mode is a string.  A stage parameter the family reads
    takes the registry's default when None, and otherwise must be a finite number (a bool is
    not), kept as its float; one it does not read stays None, or is a ConfigError.  The
    registry is read once, here: ``form`` is the mode's ``Form``, ``params`` the stage
    parameters the family reads with their values, in registry order, and ``step_kwargs``
    the keywords ``step_once`` passes to the form's step, its fixed keywords and, given
    stage parameters, their values as ``fracs``.
    """

    family: str
    mode: str | None = None
    r1: float | None = None
    r2: float | None = None
    c2: float | None = None
    churn: ChurnParams | None = None
    form: "Form" = field(init=False, repr=False, compare=False)
    params: dict = field(init=False, repr=False, compare=False)
    step_kwargs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ConfigError(f"solver family must be a string, got {self.family!r}")
        fam = self.family.lower().replace("-", "_")
        desc = FAMILIES.get(fam)
        if desc is None:
            raise ConfigError(f"unknown solver family {self.family!r}; "
                              f"expected one of {tuple(FAMILIES)}")
        if self.mode is not None and not isinstance(self.mode, str):
            raise ConfigError(f"solver mode must be a string, got {self.mode!r}")
        mode = next(iter(desc.forms)) if self.mode is None else self.mode
        if mode not in desc.forms:
            raise ConfigError(f"{fam} has no mode {mode!r}; its modes are {tuple(desc.forms)}")
        given = {key: getattr(self, key) for key in STAGE_PARAMS if getattr(self, key) is not None}
        if unread := [key for key in given if key not in desc.params]:
            raise ConfigError(f"{fam} does not read {', '.join(unread)}; it reads "
                              f"{', '.join(desc.params) or 'no stage parameter'}")
        params = {**desc.params, **{key: as_number(f"{fam} {key}", value)
                                    for key, value in given.items()}}
        if not desc.valid(**params):
            raise ConfigError(f"{fam} needs {desc.rule}, got "
                              + ", ".join(f"{key}={value}" for key, value in params.items()))
        form = desc.forms[mode]
        fracs = {"fracs": tuple(params.values())} if params else {}
        for key, value in (("family", fam), ("mode", mode), *params.items(), ("form", form),
                           ("params", params), ("step_kwargs", {**form.kwargs, **fracs})):
            object.__setattr__(self, key, value)

    @property
    def evals_per_step(self) -> int:
        return FAMILIES[self.family].evals


class StepDraws(dict):
    """Walks' ``draws_at`` for paths offset..offset+n-1, integers n >= 1 and offset >= 0,
    and the stage-keyed mapping it hands out: ``draws_at(i)`` makes the mapping step i's,
    dropping the draws kept for another step, and ``draws[k]`` draws stage k's (n, d) array
    on key (step i, stage k) when first read and keeps it.  So walks advanced in lockstep on
    one ``StepDraws`` draw each key once, and ``draws_at(0)[0]`` is the initial draw.  Steps
    never write into their draws, so every walk may read the same arrays."""

    def __init__(self, stream, n: int, d: int, offset: int = 0):
        n = as_integer("path count", n)
        if n < 1:
            raise ConfigError(f"need at least one path, got {n}")
        offset = as_integer("path offset", offset)
        if offset < 0:
            raise ConfigError(f"path offset must be >= 0, got {offset}")
        self.stream, self.n, self.d, self.offset = stream, n, d, offset
        self.step_index = None

    def __call__(self, step_index: int) -> "StepDraws":
        if step_index != self.step_index:
            self.clear()
            self.step_index = step_index
        return self

    def __missing__(self, stage: int) -> np.ndarray:
        z = self[stage] = self.stream.normal_paths(self.n, self.step_index, stage, self.d,
                                                   offset=self.offset)
        return z


def _check_backward(s: float, t: float, h: float) -> None:
    if not t < s:
        raise GridError(f"steps go backward in time, got s={s}, t={t}")
    if h <= 0.0:
        raise GridError(f"step width h must be positive, got h={h}")


# -- node functions: the time-only part of a step ------------------------------


def _stage_times(sched, s, t, stochastic, fracs, dp=False):
    """A step's lambda width h and nodes t_of_lambda(lambda_s + c h), c in ``fracs``, in the
    SDE (stochastic) or ODE lambda, or with ``dp`` time_of_sigma(sigma_s e^{-c h}); a node
    whose level rounds to the start's is a DomainError."""
    if len(fracs) > (most := 1 if dp else 2):
        raise ConfigError(f"{'data' if dp else 'noise'}-prediction steps take at most {most} "
                          f"stage fractions, got {tuple(fracs)!r}")
    if dp:
        start = sched.sigma_of_t(s)
        h = math.log(start / sched.sigma_of_t(t))
    else:
        var = SDE if stochastic else ODE
        start = sched.lambda_of_t(s, var)
        h = sched.lambda_of_t(t, var) - start
    _check_backward(s, t, h)
    levels = [start * math.exp(-c * h) if dp else start + c * h for c in fracs]
    if start in levels:   # c h below the start level's rounding: the node would not move
        raise DomainError(f"stage fraction {fracs[levels.index(start)]!r} puts a node on its "
                          f"step's start s={s!r} with h={h!r}")
    return h, tuple(sched.time_of_sigma(u) if dp else sched.t_of_lambda(u, var) for u in levels)


def np_move(sched, s, u, ch, stochastic, noisy=False):
    """(Phi(u, s), g(u) (e^{ch} - 1), noise) of the first-order exponential move from s to u
    over the lambda width ch: noise is c(u) sqrt(e^{2 ch} - 1) if ``noisy``, else None."""
    noise = sched.np_noise(u) * math.sqrt(math.expm1(2.0 * ch)) if noisy else None
    return sched.np_trans(s, u, stochastic), sched.np_gain(u, stochastic) * math.expm1(ch), noise


def dp_move(sched, s, u, ch, stochastic, noisy=False):
    """``np_move``'s mirror in lambda = -log sigma: gain -alpha_u (e^{-ch} - 1), ch doubled
    on the reverse SDE, whose ``noisy`` move's noise is sigma_bar_u sqrt(1 - e^{-2 ch})."""
    a_s, sg_s, sbar_s = sched.alpha_sigma(s)
    a_u, sg_u, sbar_u = sched.alpha_sigma(u)
    if not stochastic:
        return sbar_u / sbar_s, -(a_u * math.expm1(-ch)), None
    noise = sbar_u * math.sqrt(-math.expm1(-2.0 * ch)) if noisy else None
    return (sg_u * sg_u * a_u) / (sg_s * sg_s * a_s), -(a_u * math.expm1(-2.0 * ch)), noise


def stage_nodes(sched, s, t, stochastic, fracs=(), dp=False, phi2=False):
    """Node function of ``stages_step``: its stage nodes and first move (noisy on the reverse
    SDE), then with one fraction c the full move and either the phi_2 correction or the
    weights 1 - 1/(2c), 1/(2c) of f_s, f_u and the end noise's scale and stage weights; with
    two, each later node's (Phi, g, e^{c h} - 1, phi_2 correction, noise scale, weights)."""
    h, times = _stage_times(sched, s, t, stochastic, fracs, dp)
    move = dp_move if dp else np_move
    u, c = (times[0], fracs[0]) if fracs else (t, 1.0)
    first = move(sched, s, u, c * h, stochastic, stochastic)
    if not fracs:
        return times, (first,)
    w = (stage_noise_weights((*fracs, 1.0), h, data_pred=dp) if stochastic
         else [(None,) * (k + 1) for k in range(len(fracs) + 1)])
    if len(fracs) == 1:
        full = move(sched, s, t, h, stochastic)
        if phi2:  # (e^{-h} - 1)/h + 1 == h phi_2(-h)
            return times, (first, full, (1.0 / c) * h * phi(2, -h))
        scale = (sched.alpha_sigma(t)[2] if dp else sched.np_noise(t)) if stochastic else None
        return times, (first, full, 1.0 - 0.5 / c, 0.5 / c, scale, *w[1])
    (r1, r2), (_, s2) = fracs, times
    # (e^{c h} - 1)/(c h) - 1 == c h phi_2(c h), stable near h = 0
    corrs = ((r2 / r1) * (r2 * h) * phi(2, r2 * h), (1.0 / r2) * h * phi(2, h))
    later = [(sched.np_trans(s, u, stochastic), sched.np_gain(u, stochastic), math.expm1(c * h),
              corr, sched.np_noise(u) if stochastic else None, *w[k])
             for k, u, c, corr in zip((1, 2), (s2, t), (r2, 1.0), corrs)]
    return times, (first, *later)


def dpm4_nodes(sched, s, t, stochastic=False):
    """Node function of ``dpm4_step``: the nodes lambda_s + h/2 (stages 2, 3 and 5) and
    lambda_s + h (stage 4), in the ODE lambda, and each stage's Phi(c h) and weights g(c)
    h a_jk of the Hochbruck-Ostermann tableau, then Phi(h) and g(t) h b_k."""
    h, (s_mid, s4) = _stage_times(sched, s, t, False, (0.5, 1.0))
    g_mid, g_4, g_t = (sched.np_gain(u, False) for u in (s_mid, s4, t))
    (p1m, p2m, p3m), (p1, p2, p3) = ([phi(k, z) for k in (1, 2, 3)] for z in (0.5 * h, h))
    a52 = 0.5 * p2m - p3 + 0.25 * p2 - 0.5 * p3m
    a54 = 0.25 * p2m - a52
    return (s_mid, s4), (
        sched.np_trans(s, s_mid, False), g_mid * math.expm1(0.5 * h),     # a21 = phi_1(h/2)/2
        g_mid * h * (0.5 * p1m - p2m), g_mid * h * p2m,                   # a31, a32
        sched.np_trans(s, s4, False), g_4 * h * (p1 - 2.0 * p2), g_4 * h * p2,   # a41, a42
        g_mid * h * (0.5 * p1m - 2.0 * a52 - a54), g_mid * h * a52, g_mid * h * a54,
        sched.np_trans(s, t, False), g_t * h * (p1 - 3.0 * p2 + 4.0 * p3),     # b1
        g_t * h * (4.0 * p3 - p2), g_t * h * (4.0 * p2 - 8.0 * p3))             # b4, b5


def euler_maruyama_nodes(sched, s, t, stochastic=True):
    """Node function of ``euler_maruyama_step``: no node; f(s), g^2(s), dt, sqrt(g^2 |dt|)
    and the (c_x, c_F, d) of ``np_score(s)``, which rebuild the score from F."""
    _check_backward(s, t, s - t)
    dt, f, g2 = t - s, sched.drift_f(s), sched.diffusion_g2(s)
    return (), (f, g2, dt, math.sqrt(g2 * abs(dt)), *sched.np_score(s))


def exp_euler_nodes(sched, s, t, stochastic=False, *, lawson: bool):
    """Node function of exponential Euler: no node, Phi(t, s) and the gain of F, dt b_s for
    ``lawson_step`` or dt phi_1(a dt) b_s for ETD's one move (b = ``np_rate``, a = log(Phi)/dt)."""
    _check_backward(s, t, s - t)
    trans, dt = sched.np_trans(s, t, False), t - s
    b_s = sched.np_rate(s)
    if lawson:
        return (), (trans, dt * b_s)
    a_eff = math.log(trans) / dt
    return (), ((trans, dt * phi(1, a_eff * dt) * b_s, None),)


def gddim_nodes(sched, s, t, stochastic=True):
    """Node function of gddim (VP only): no node, and one noisy move (alpha_t / alpha_s,
    sbar_t (sigma_t / sigma_s - sigma_s / sigma_t), sbar_t sqrt(1 - e^{-2h}))."""
    a_s, sg_s, _ = sched.alpha_sigma(s)
    a_t, sg_t, sbar_t = sched.alpha_sigma(t)
    h = math.log(sg_s / sg_t)
    _check_backward(s, t, h)
    return (), ((a_t / a_s, sbar_t * (sg_t / sg_s - sg_s / sg_t),
                 sbar_t * math.sqrt(-math.expm1(-2.0 * h))),)


def churn_lift(params: ChurnParams, sigma_t, n_steps, sched):
    """Node function of churn at noise level sigma_t: (sigma_t, sigma_hat, t_hat, a_old,
    a_new, extra) with sigma_hat = sigma_t (1 + min(s_churn / M, sqrt(2) - 1)), t_hat its
    time, the alphas at sigma_t and sigma_hat and the noise scale s_noise sqrt(sigma_hat^2
    - sigma_t^2); None while churn is off or sigma_t lies outside [s_tmin, s_tmax]."""
    if params.s_churn == 0.0 or not params.s_tmin <= sigma_t <= params.s_tmax:
        return None
    gamma = min(params.s_churn / n_steps, _GAMMA_CAP)
    sigma_hat = sigma_t * (1.0 + gamma)
    t_hat = sched.time_of_sigma(sigma_hat)
    a_old = sched.alpha_sigma(sched.time_of_sigma(sigma_t))[0]
    extra = params.s_noise * math.sqrt(sigma_hat * sigma_hat - sigma_t * sigma_t)
    return sigma_t, sigma_hat, t_hat, a_old, sched.alpha_sigma(t_hat)[0], extra


# -- one-step update rules: array work and model calls ------------------------
# each takes (model, x_s, s, draws or None, nodes), nodes its node function's row


def _moved(move, x_s, f, z=None):
    """Phi x_s + gain f, plus noise z given z, for a move's (Phi, gain, noise)."""
    trans, gain, noise = move
    x_u = trans * x_s + gain * f
    return x_u if z is None else x_u + noise * z


def stages_step(model, x_s, s, draws, nodes, fracs=(), dp=False, phi2=False):
    """Exponential step with one stage per fraction in ``fracs`` plus one (as many model
    evaluations), in noise prediction or, with ``dp``, data prediction.

    With ``draws`` it is the SEEDS step: the reverse-SDE frame plus staged
    noise, stage j's draw z^j the increment over the j-th sub-interval of the
    step, split at the stage nodes, and each node's noise
    ``stage_noise_weights`` of those draws (the first node's is the move's).
    With ``draws=None`` it is the probability-flow step of the same order.
    Two stages weight the model at s and at the node (fraction c) by
    1 - 1/(2c) and 1/(2c), or with ``phi2`` add the phi_2 correction to the
    one-stage step (ve2_ode_b); three stages, in noise prediction only, take
    phi_2 corrections at r1 and r2.  Data prediction with two stages assumes
    alpha_t = 1 and sigma_t = t, which hold on VE and EDM, where the registry
    runs it.
    """
    times, (first, *coef) = nodes
    pred = model.data_pred if dp else model.noise_pred
    f_s = pred(x_s, s)
    z1 = None if draws is None else draws[1]
    u = _moved(first, x_s, f_s, z1)
    if not fracs:
        return u
    f_u = pred(u, times[0])
    if len(fracs) == 1:
        if phi2:
            full, corr = coef
            return _moved(full, x_s, f_s) + corr * (f_u - f_s)
        full, w_s, w_u, scale, w10, w11 = coef
        x_t = _moved(full, x_s, w_s * f_s + w_u * f_u)
        if draws is None:
            return x_t
        return x_t + scale * (w10 * z1 + w11 * draws[2])
    (trans2, gain2, e2, corr2, noise2, w10, w11), (trans, gain, eh, corr3, noise, w20, w21,
                                                   w22) = coef
    u2 = trans2 * x_s + gain2 * (e2 * f_s + corr2 * (f_u - f_s))
    if draws is not None:
        z2 = draws[2]
        u2 = u2 + noise2 * (w10 * z1 + w11 * z2)
    f_u2 = model.noise_pred(u2, times[1])
    x_t = trans * x_s + gain * (eh * f_s + corr3 * (f_u2 - f_s))
    if draws is None:
        return x_t
    return x_t + noise * (w20 * z1 + w21 * z2 + w22 * draws[3])


def dpm4_step(model, x_s, s, draws, nodes):
    """Hochbruck and Ostermann's five-stage, order-4 exponential Runge-Kutta step on the
    probability-flow ODE, with nodes (1/2, 1/2, 1, 1/2)."""
    (s_mid, s4), (trans_mid, a21, a31, a32, trans_4, a41, a42, a51, a52, a54, trans_t,
                  b1, b4, b5) = nodes
    f1 = model.noise_pred(x_s, s)
    f2 = model.noise_pred(trans_mid * x_s + a21 * f1, s_mid)
    f3 = model.noise_pred(trans_mid * x_s + a31 * f1 + a32 * f2, s_mid)
    f4 = model.noise_pred(trans_4 * x_s + a41 * f1 + a42 * (f2 + f3), s4)
    f5 = model.noise_pred(trans_mid * x_s + a51 * f1 + a52 * (f2 + f3) + a54 * f4, s_mid)
    return trans_t * x_s + b1 * f1 + b4 * f4 + b5 * f5


def euler_maruyama_step(model, x_s, s, draws, nodes):
    """Direct discretization of the reverse SDE (1 model evaluation): the score is
    rebuilt from F = ``noise_pred`` as (c_x x + c_F F) / d, the way a sampler reads a
    black-box network."""
    _, (f, g2, dt, noise, c_x, c_f, d) = nodes
    f_s = model.noise_pred(x_s, s)
    score = (c_f * f_s if c_x is None else c_x * x_s + c_f * f_s) / d
    return x_s + (f * x_s - g2 * score) * dt + noise * draws[1]


def lawson_step(model, x_s, s, draws, nodes):
    """Lawson's exponential Euler in the time variable: the frozen nonlinearity pushed
    through the exact transition, trans (x_s + gain F), which rounds differently from
    ETD's one move trans x_s + gain F."""
    _, (trans, gain) = nodes
    return trans * (x_s + gain * model.noise_pred(x_s, s))


def churn_inject(x, lift, noise):
    """Lift the state from sigma_t to sigma_hat, as ``churn_lift`` gives them: fresh
    noise of standard deviation s_noise * sqrt(sigma_hat^2 - sigma_t^2), added in
    unscaled coordinates."""
    *_, a_old, a_new, extra = lift
    return a_new * (x / a_old + extra * noise)


# -- the solver registry -------------------------------------------------------

_NP_SCHEDULES = ("vp", "edm")           # the schedules with np_* coefficients
_ALL_SCHEDULES = ("vp", "ve", "edm")
_SIGMA_SCHEDULES = ("ve", "edm")


@dataclass(frozen=True)
class Form:
    """One mode of a family: its step callable, its node function (the step's whole
    time-only part, which a plan computes once: the stage-node times and every scalar
    the step multiplies an array by), the schedule families it runs on, the fixed
    keywords both get and whether the step reads stage draws."""

    step: Callable
    nodes: Callable
    schedules: tuple
    kwargs: dict = field(default_factory=dict)
    takes_draws: bool = True


@dataclass(frozen=True)
class Family:
    """Evaluations per step, the forms by mode (the first mode is the default) and
    the stage parameters the family reads: each name with its default, in the
    order its step reads them as stage fractions, and the range they must lie
    in, as text and as a test."""

    evals: int
    forms: dict
    params: dict = field(default_factory=dict)
    rule: str = ""
    valid: Callable = lambda: True


_C2 = ({"c2": 0.5}, "0 < c2 <= 1", lambda c2: 0.0 < c2 <= 1.0)  # (params, rule, valid)
_R1_R2 = ({"r1": 1.0 / 3.0, "r2": 2.0 / 3.0}, "0 < r1 < r2 < 1", lambda r1, r2: 0.0 < r1 < r2 < 1.0)
_R1 = ({"r1": 1.0 / 3.0}, "0 < r1 <= 1", lambda r1: 0.0 < r1 <= 1.0)


def _staged(seeds: bool, schedules: tuple = _NP_SCHEDULES, **kwargs) -> Form:
    """A form of the stage engine: SEEDS with draws, the probability-flow step without."""
    return Form(stages_step, stage_nodes, schedules, kwargs, seeds)


FAMILIES = {
    "seeds1": Family(1, {"np": _staged(True), "dp": _staged(True, _ALL_SCHEDULES, dp=True)}),
    "seeds2": Family(2, {"np": _staged(True)}, *_C2),
    "seeds3": Family(3, {"np": _staged(True)}, *_R1_R2),
    "dpm1": Family(1, {"np": _staged(False), "dp": _staged(False, _ALL_SCHEDULES, dp=True)}),
    "dpm2": Family(2, {"np": _staged(False)}, *_C2),
    "dpm3": Family(3, {"np": _staged(False)}, *_R1_R2),
    "dpm4": Family(5, {"np": Form(dpm4_step, dpm4_nodes, _NP_SCHEDULES, takes_draws=False)}),
    "euler_maruyama": Family(1, {"np": Form(euler_maruyama_step, euler_maruyama_nodes,
                                            _ALL_SCHEDULES)}),
    "exp_euler_etd": Family(1, {"np": Form(stages_step, partial(exp_euler_nodes, lawson=False),
                                           _NP_SCHEDULES, takes_draws=False)}),
    "exp_euler_lawson": Family(1, {"np": Form(lawson_step, partial(exp_euler_nodes, lawson=True),
                                              _NP_SCHEDULES, takes_draws=False)}),
    "gddim": Family(1, {"np": Form(stages_step, gddim_nodes, ("vp",))}),
    "ve2_ode_a": Family(2, {"dp": _staged(False, _SIGMA_SCHEDULES, dp=True)}, *_R1),
    "ve2_ode_b": Family(2, {"dp": _staged(False, _SIGMA_SCHEDULES, dp=True, phi2=True)}, *_R1),
    "ve2_sde": Family(2, {"dp": _staged(True, _SIGMA_SCHEDULES, dp=True)}, *_R1),
}
STAGE_PARAMS = tuple(dict.fromkeys(key for desc in FAMILIES.values() for key in desc.params))


def _check_schedule(spec: SolverSpec, sched: ScheduleBase) -> None:
    """The registry's rule: a schedule the spec's form does not run on is a ConfigError."""
    if sched.family not in spec.form.schedules:
        raise ConfigError(f"{spec.family} in mode {spec.mode!r} runs on "
                          f"{'/'.join(spec.form.schedules)} schedules, not {sched.family!r}")


def step_once(spec: SolverSpec, model, x, s, t, draws, nodes=None):
    """One step of the spec's family in the spec's mode from s to t; ``nodes`` is the value
    of its node function at (s, t) when a plan has it, and is otherwise computed here on
    ``model.sched``, after the plan's schedule check.  A form without draws gets None."""
    form, kwargs = spec.form, spec.step_kwargs
    if nodes is None:
        _check_schedule(spec, model.sched)
        nodes = form.nodes(model.sched, s, t, form.takes_draws, **kwargs)
    return form.step(model, x, s, draws if form.takes_draws else None, nodes, **kwargs)


class StepPlan:
    """The time-only work of one (spec, model, grid) on the model's schedule, done once
    before its walk: a schedule the spec's form does not run on is a ConfigError, as in
    ``step_once``.  The plan keeps the spec and the model, as ``spec`` and ``model``, with
    the grid's top time ``top``, so it walks only the model its coefficients belong to.

    ``rows[i - 1]`` belongs to real step i from t_{i-1} to t_i and holds
    (t_i, lift, start, nodes): churn's ``churn_lift`` at t_{i-1} (None where
    churn is off), the time the model is first evaluated at (t_{i-1}, or the
    lifted time under churn), and the value of the form's node function at
    (start, t_i), its stage-node times and coefficients.  The rows read the schedule
    through a fresh ``model.sched.cached()``, so each quantity is computed once per time.
    A grid without a real step is a GridError.
    """

    def __init__(self, spec: SolverSpec, model, grid: StepGrid):
        _check_schedule(spec, model.sched)
        self.spec, self.model = spec, model
        form, grid_times, rows = spec.form, grid.times.tolist(), []
        self.top = grid_times[0]
        cache = model.sched.cached()
        for i in range(1, grid.n_steps):
            s, t = grid_times[i - 1], grid_times[i]
            lift = None if spec.churn is None else churn_lift(spec.churn, cache.sigma_of_t(s),
                                                              grid.n_steps, cache)
            # a lift too small to move sigma (1 + gamma == 1) keeps the grid time
            start = s if lift is None or lift[1] == lift[0] else lift[2]
            nodes = form.nodes(cache, start, t, form.takes_draws, **spec.step_kwargs)
            rows.append((t, lift, start, nodes))
        if not rows:
            raise GridError("grid needs at least one real step (M >= 2)")
        self.rows = tuple(rows)

    def times(self) -> list:
        """Every time the walk evaluates the model at, step by step."""
        return [u for _, _, start, (nodes, _) in self.rows for u in (start, *nodes)]


def walk(plan: StepPlan, draws_at, x):
    """Yield the (n, d) state after each real step of the plan on its model, from x at t_0.

    Step i reads its draws from ``draws_at(i)``, a mapping from stage to (n, d)
    array, called when the step starts; where the plan lifts it, churn lifts
    the state from the stage-0 draw first.  A step that leaves a NaN or
    infinity raises DomainError naming step i and its time.
    """
    spec, model = plan.spec, plan.model
    for i, (t, lift, start, nodes) in enumerate(plan.rows, start=1):
        draws = draws_at(i)
        if lift is not None:
            x = churn_inject(x, lift, draws[0])
        x = step_once(spec, model, x, start, t, draws, nodes)
        if not np.isfinite(x).all():
            raise DomainError(f"non-finite state after step {i} at t={t!r}")
        yield x


def lockstep(plans, draws_at):
    """Walk the plans together, each on its model, and yield the list of their states:
    first each x_T, sigma_bar(top) ``draws_at(0)[0]``, then after each step i, a plan past
    its last step keeping its last.  Before the first yield each distinct model, in plan
    order, has its optional ``prepare`` hook called once with the ``times()`` of all its
    plans (a table per walk would evict the others).  Step i's walks read one
    ``draws_at(i)``: a ``StepDraws`` draws each key once."""
    states = [plan.model.sched.alpha_sigma(plan.top)[2] * draws_at(0)[0] for plan in plans]
    for model in {id(plan.model): plan.model for plan in plans}.values():   # by identity
        if (prepare := getattr(model, "prepare", None)) is not None:
            prepare([u for plan in plans if plan.model is model for u in plan.times()])
    yield states
    walks = [walk(plan, draws_at, x) for plan, x in zip(plans, states)]
    for _ in range(max(len(plan.rows) for plan in plans)):
        states = list(map(next, walks, states))   # a finished walk yields its last state
        yield states


@dataclass
class SampleResult:
    """Terminal states plus optional recorded trajectory."""

    terminal: np.ndarray            # (n, d)
    nfe_per_path: int
    trajectory: np.ndarray | None   # (M+1, n, d) when recorded


def sample(plan: StepPlan, stream, n_paths=1, path_offset=0, record=False) -> SampleResult:
    """Walk the plan on its model for paths path_offset..path_offset+n_paths-1.

    Steps i = 1..M-1 apply the solver; the final interval is the trivial
    step (the state is carried over unchanged, no model call), so the total
    cost is evals_per_step * (M - 1) per path.  ``lockstep`` runs the plan
    alone from x_T ~ N(0, sigma_bar(t_0)^2 I), and builds nothing: one plan may
    serve any number of calls.  A step that leaves a non-finite state raises
    DomainError naming the step and its time.
    """
    traj = []
    for [x] in lockstep([plan], StepDraws(stream, n_paths, plan.model.dim, path_offset)):
        if record:
            traj.append(x)
    trajectory = np.stack(traj + [x]) if record else None   # trivial last step: x again
    return SampleResult(terminal=x, nfe_per_path=plan.spec.evals_per_step * len(plan.rows),
                        trajectory=trajectory)
