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
without), over the first-order moves ``np_move`` and ``dp_move``.  Every
stage noise comes from ``noise.stage_noise_weights``: stage j's draw z^j is
the increment over the j-th sub-interval of the step, split at its stage
nodes, so all of a step's stage noises lie on one Brownian path for any
allowed stage fractions.  dpm4, Euler-Maruyama, exponential Euler and gddim
keep their own bodies.

One registry: ``FAMILIES`` maps each family name to a ``Family`` descriptor
with its evaluations per step, the stage parameters it reads with their one
default, and one ``Form`` per mode it has ("np" noise prediction, "dp" data
prediction): the step callable, its fixed keywords and the schedules it runs on.
Only seeds1 and dpm1 have both modes; every other family has one, which is
its default (and the default of seeds1 and dpm1 is "np").

Steps read their draws as a mapping from stage k to an (n, d) array z^k.
``walk``, the one loop over a grid's real steps, takes step i's from
``draws_at(i)``: ``sample`` passes a ``StepDraws``, keyed on (step i, stage),
so solvers sharing a (seed, trajectory, step) also share z^1, z^2, ...; walks
that share one ``StepDraws`` in lockstep draw each key once.  A plain dict
{stage: array} injects fixed draws.

A step's stage-node times depend only on the grid.  Each staged form names
its node function (``Form.nodes``), and churn has ``churn_lift``; a
``StepPlan`` calls them once per grid, before the walk, and hands each step
its row.  A step called without a row calls its node function itself.  The
plan's evaluation times go to the model's optional ``prepare`` hook, which
tabulates the model's time-only work.

Noise-prediction steps take Phi(t, s), the gain of (e^h - 1) F and the
signed noise scale from the schedule's ``np_trans``, ``np_gain`` and
``np_noise``, in the lambda of the reverse SDE (``SDE``) or of the
probability-flow ODE (``ODE``); ``np_move`` is their first-order move, shared by the
stage engine and dpm4.  Data-prediction steps use lambda = -log sigma
directly and read alpha and sigma from ``alpha_sigma``.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, GridError
from .grids import StepGrid
from .noise import stage_noise_weights
from .phi import phi
from .schedules import ODE, SDE, ScheduleBase

_GAMMA_CAP = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class ChurnParams:
    """Extra-noise injection parameters (inactive when s_churn == 0)."""

    s_churn: float = 0.0
    s_tmin: float = 0.0
    s_tmax: float = math.inf
    s_noise: float = 1.0

    def __post_init__(self):
        if self.s_churn < 0.0:
            raise ConfigError("s_churn must be >= 0")
        if self.s_tmin > self.s_tmax:
            raise ConfigError("need s_tmin <= s_tmax")
        if self.s_noise <= 0.0:
            raise ConfigError("s_noise must be positive")


@dataclass(frozen=True)
class SolverSpec:
    """Solver family plus mode and stage parameters.

    ``mode`` None means the family's default mode: "np" for seeds1 and dpm1,
    the only mode for every other family.  A stage parameter the family reads
    takes the registry's default when None; one it does not read stays None, or
    is a ConfigError.  ``step_kwargs`` holds the keywords ``step_once`` passes
    to the family's step, resolved once here: the form's fixed keywords and,
    for a family with stage parameters, their values in registry order as
    ``fracs``.
    """

    family: str
    mode: str | None = None
    r1: float | None = None
    r2: float | None = None
    c2: float | None = None
    churn: ChurnParams | None = None
    step_kwargs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ConfigError(f"solver family must be a string, got {self.family!r}")
        fam = self.family.lower().replace("-", "_")
        desc = FAMILIES.get(fam)
        if desc is None:
            raise ConfigError(f"unknown solver family {self.family!r}; "
                              f"expected one of {tuple(FAMILIES)}")
        mode = next(iter(desc.forms)) if self.mode is None else self.mode
        if mode not in desc.forms:
            raise ConfigError(f"{fam} has no mode {mode!r}; its modes are {tuple(desc.forms)}")
        given = {key: getattr(self, key) for key in ("r1", "r2", "c2")
                 if getattr(self, key) is not None}
        if unread := [key for key in given if key not in desc.params]:
            raise ConfigError(f"{fam} does not read {', '.join(unread)}; it reads "
                              f"{', '.join(desc.params) or 'no stage parameter'}")
        params = {**desc.params, **given}
        if not desc.valid(**params):
            raise ConfigError(f"{fam} needs {desc.rule}, got "
                              + ", ".join(f"{key}={value}" for key, value in params.items()))
        for key, value in (("family", fam), ("mode", mode), *params.items()):
            object.__setattr__(self, key, value)
        fracs = {"fracs": tuple(params.values())} if params else {}
        object.__setattr__(self, "step_kwargs", {**desc.forms[mode].kwargs, **fracs})

    @property
    def evals_per_step(self) -> int:
        return FAMILIES[self.family].evals

    def validate_against(self, sched: ScheduleBase) -> None:
        """Reject a schedule that this family's mode does not run on."""
        allowed = FAMILIES[self.family].forms[self.mode].schedules
        if sched.family not in allowed:
            raise ConfigError(f"{self.family} in mode {self.mode!r} runs on "
                              f"{'/'.join(allowed)} schedules, not {sched.family!r}")


class StepDraws(dict):
    """Walks' ``draws_at`` for paths offset..offset+n-1 and the stage-keyed mapping it
    hands out: ``draws_at(i)`` makes the mapping step i's, dropping the draws kept for
    another step, and ``draws[k]`` draws stage k's (n, d) array on key (step i, stage k)
    when first read and keeps it.  So walks advanced in lockstep on one ``StepDraws``
    draw each key once, and ``draws_at(0)[0]`` is the initial draw.  Steps never write
    into their draws, so every walk may read the same arrays."""

    def __init__(self, stream, n: int, d: int, offset: int = 0):
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


# -- stage nodes: the time-only part of a step --------------------------------


def _levels(fn, s, t, levels=None):
    """(fn(s), fn(t)), kept in ``levels`` (time -> fn(time)), which a plan shares across
    its steps, so that t_i's value serves both steps that meet there."""
    levels = {} if levels is None else levels
    for u in (s, t):
        if u not in levels:
            levels[u] = fn(u)
    return levels[s], levels[t]


def stage_nodes(sched, s, t, stochastic, fracs=(), dp=False, phi2=False, levels=None):
    """Node function of ``stages_step``: the step width h and one node per stage fraction c,
    t_of_lambda(lambda_s + c h) in the lambda of the reverse SDE (stochastic) or of the
    probability-flow ODE, or with ``dp`` time_of_sigma(sigma_s e^{-c h}) with h =
    log(sigma_s / sigma_t).  ``levels`` caches lambda (sigma) by time; ``phi2`` moves no node.
    """
    if len(fracs) > (most := 1 if dp else 2):
        raise ConfigError(f"{'data' if dp else 'noise'}-prediction steps take at most {most} "
                          f"stage fractions, got {tuple(fracs)!r}")
    if dp:
        sg_s, sg_t = _levels(sched.sigma_of_t, s, t, levels)
        h = math.log(sg_s / sg_t)
        _check_backward(s, t, h)
        return h, tuple(sched.time_of_sigma(sg_s * math.exp(-c * h)) for c in fracs)
    var = SDE if stochastic else ODE
    lam_s, lam_t = _levels(lambda u: sched.lambda_of_t(u, var), s, t, levels)
    h = lam_t - lam_s
    _check_backward(s, t, h)
    return h, tuple(sched.t_of_lambda(lam_s + c * h, var) for c in fracs)


def dpm4_nodes(sched, s, t, stochastic=False, levels=None):
    """Node function of ``dpm4_step``: h and the nodes lambda_s + h/2 (s2 = s3 = s5) and
    lambda_s + h (s4), in the ODE lambda."""
    return stage_nodes(sched, s, t, False, (0.5, 1.0), levels=levels)


# -- one-step update rules ----------------------------------------------------


def np_move(sched, x_s, s, u, ch, f, stochastic, z=None):
    """First-order exponential move from s to u over the lambda width ch: Phi(u, s) x_s +
    g(u) (e^{ch} - 1) f, plus the exact-variance noise c(u) sqrt(e^{2 ch} - 1) z given z."""
    x_u = sched.np_trans(s, u, stochastic) * x_s + sched.np_gain(u, stochastic) * math.expm1(ch) * f
    return x_u if z is None else x_u + sched.np_noise(u) * math.sqrt(math.expm1(2.0 * ch)) * z


def dp_move(sched, x_s, s, u, ch, d, stochastic, z=None):
    """``np_move``'s data-prediction mirror over the width ch of lambda = -log sigma: the
    gain is -alpha_u, and the reverse SDE doubles ch in the exponent and adds the
    exact-variance noise sigma_bar_u sqrt(1 - e^{-2 ch}) z given z."""
    a_s, sg_s, sbar_s = sched.alpha_sigma(s)
    a_u, sg_u, sbar_u = sched.alpha_sigma(u)
    if not stochastic:
        return (sbar_u / sbar_s) * x_s - a_u * math.expm1(-ch) * d
    x_u = (sg_u * sg_u * a_u) / (sg_s * sg_s * a_s) * x_s - a_u * math.expm1(-2.0 * ch) * d
    return x_u if z is None else x_u + sbar_u * math.sqrt(-math.expm1(-2.0 * ch)) * z


def stages_step(model, sched, x_s, s, t, draws=None, fracs=(), dp=False, phi2=False,
                nodes=None):
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
    runs it.  ``nodes`` is ``stage_nodes`` at (s, t), when a plan has it.
    """
    sto = draws is not None
    if nodes is None:
        nodes = stage_nodes(sched, s, t, sto, fracs, dp)
    h, times = nodes
    move, pred = (dp_move, model.data_pred) if dp else (np_move, model.noise_pred)
    f_s = pred(x_s, s)
    z1 = None if draws is None else draws[1]
    if not fracs:
        return move(sched, x_s, s, t, h, f_s, sto, z1)
    if sto:
        w = stage_noise_weights((*fracs, 1.0), h, data_pred=dp)
    if len(fracs) == 1:
        (c,), (s1,) = fracs, times
        u = move(sched, x_s, s, s1, c * h, f_s, sto, z1)
        f_mid = pred(u, s1)
        if phi2:  # (e^{-h} - 1)/h + 1 == h phi_2(-h)
            return move(sched, x_s, s, t, h, f_s, sto) + (1.0 / c) * h * phi(2, -h) * (f_mid - f_s)
        x_t = move(sched, x_s, s, t, h, (1.0 - 0.5 / c) * f_s + (0.5 / c) * f_mid, sto)
        if draws is None:
            return x_t
        scale = sched.alpha_sigma(t)[2] if dp else sched.np_noise(t)
        return x_t + scale * (w[1][0] * z1 + w[1][1] * draws[2])
    (r1, r2), (s1, s2) = fracs, times
    u1 = np_move(sched, x_s, s, s1, r1 * h, f_s, sto, z1)
    f_u1 = model.noise_pred(u1, s1)
    # (e^{r2 h} - 1)/(r2 h) - 1 == r2 h phi_2(r2 h), stable near h = 0
    corr2 = (r2 / r1) * (r2 * h) * phi(2, r2 * h)
    u2 = (sched.np_trans(s, s2, sto) * x_s
          + sched.np_gain(s2, sto) * (math.expm1(r2 * h) * f_s + corr2 * (f_u1 - f_s)))
    if sto:
        z2 = draws[2]
        u2 = u2 + sched.np_noise(s2) * (w[1][0] * z1 + w[1][1] * z2)
    f_u2 = model.noise_pred(u2, s2)
    corr3 = (1.0 / r2) * h * phi(2, h)
    x_t = (sched.np_trans(s, t, sto) * x_s
           + sched.np_gain(t, sto) * (math.expm1(h) * f_s + corr3 * (f_u2 - f_s)))
    if draws is None:
        return x_t
    return x_t + sched.np_noise(t) * (w[2][0] * z1 + w[2][1] * z2 + w[2][2] * draws[3])


def dpm4_step(model, sched, x_s, s, t, nodes=None):
    """Five-stage deterministic exponential ODE step with nodes (1/2, 1/2, 1, 1/2);
    ``nodes`` is ``dpm4_nodes`` at (s, t), when a plan has it."""
    h, (s_mid, s4) = dpm4_nodes(sched, s, t) if nodes is None else nodes
    k1 = model.noise_pred(x_s, s)
    r = 0.5
    g_mid, g_t = sched.np_gain(s_mid, False), sched.np_gain(t, False)
    erh = math.expm1(r * h)
    eh = math.expm1(h)
    hphi2 = h * phi(2, h)                       # (e^h - 1)/h - 1
    k2 = np_move(sched, x_s, s, s_mid, r * h, k1, False)
    f_k2 = model.noise_pred(k2, s_mid)
    k3 = k2 + g_mid * (4.0 * erh / h - 2.0) * (f_k2 - k1)
    f_k3 = model.noise_pred(k3, s_mid)
    k4 = (np_move(sched, x_s, s, s4, h, k1, False)
          + sched.np_gain(s4, False) * hphi2 * (f_k3 + f_k2 - 2.0 * k1))
    f_k4 = model.noise_pred(k4, s4)
    a_term = g_mid * erh * k1 - 0.25 * g_mid * hphi2 * (k1 + f_k2 + f_k3)
    b_term = g_mid * (erh / h - 0.5) * (k1 + 4.0 * f_k2 + 4.0 * f_k3 - f_k4)
    # (e^h - 1 + 4(e^{rh} - 1) - 3h)/h^2 - 1 at r = 1/2 equals h phi_3(h) + (h/2) phi_3(h/2)
    c_coef = h * phi(3, h) + 0.5 * h * phi(3, 0.5 * h)
    c_term = g_mid * c_coef * (-k1 - f_k2 - f_k3 + f_k4)
    k5 = sched.np_trans(s, s_mid, False) * x_s + a_term + b_term + c_term
    f_k5 = model.noise_pred(k5, s_mid)
    d_term = g_t * eh * k1 - g_t * hphi2 * (4.0 * f_k5 - f_k4 - 3.0 * k1)
    e_term = g_t * 4.0 * h * phi(3, h) * (k1 + f_k4 - 2.0 * f_k5)
    return sched.np_trans(s, t, False) * x_s + d_term + e_term


def euler_maruyama_step(model, sched, x_s, s, t, draws):
    """Direct discretization of the reverse SDE (1 model evaluation)."""
    _check_backward(s, t, s - t)
    dt = t - s
    f = sched.drift_f(s)
    g2 = sched.diffusion_g2(s)
    score = model.score_from_model(x_s, s)
    eps = draws[1]
    return x_s + (f * x_s - g2 * score) * dt + math.sqrt(g2 * abs(dt)) * eps


def exp_euler_step(model, sched, x_s, s, t, *, lawson: bool):
    """Exponential Euler in the time variable, the ETD flavor or (``lawson``) Lawson's.

    Both treat the linear part exactly through the transition factor; ETD
    weights the frozen nonlinearity by phi_1 of the effective drift, Lawson
    pushes it through the transition.
    """
    _check_backward(s, t, s - t)
    trans = sched.np_trans(s, t, False)
    b_s = sched.np_rate(s)
    dt = t - s
    f_val = model.noise_pred(x_s, s)
    if lawson:
        return trans * (x_s + dt * b_s * f_val)
    a_eff = math.log(trans) / dt
    return trans * x_s + dt * phi(1, a_eff * dt) * b_s * f_val


def gddim_step(model, sched, x_s, s, t, draws):
    """Stochastic DDIM-style step (VP only, 1 model evaluation)."""
    if sched.family != "vp":
        raise ConfigError("gddim requires a VP schedule")
    a_s, sg_s, _ = sched.alpha_sigma(s)
    a_t, sg_t, sbar_t = sched.alpha_sigma(t)
    h = math.log(sg_s / sg_t)
    _check_backward(s, t, h)
    eps_hat = model.noise_pred(x_s, s)
    eps = draws[1]
    return (
        (a_t / a_s) * x_s
        + sbar_t * (sg_t / sg_s - sg_s / sg_t) * eps_hat
        + sbar_t * math.sqrt(-math.expm1(-2.0 * h)) * eps
    )


def churn_lift(params: ChurnParams, sigma_t, n_steps, sched):
    """Node function of churn at noise level sigma_t: (sigma_t, sigma_hat,
    time_of_sigma(sigma_hat)) with sigma_hat = sigma_t (1 + gamma) and gamma =
    min(s_churn / M, sqrt(2) - 1); None while churn is off or sigma_t lies
    outside [s_tmin, s_tmax]."""
    if params.s_churn == 0.0 or not params.s_tmin <= sigma_t <= params.s_tmax:
        return None
    gamma = min(params.s_churn / n_steps, _GAMMA_CAP)
    sigma_hat = sigma_t * (1.0 + gamma)
    return sigma_t, sigma_hat, sched.time_of_sigma(sigma_hat)


def churn_inject(x, params: ChurnParams, lift, sched, noise):
    """Lift the state from sigma_t to sigma_hat, as ``churn_lift`` gives them: fresh
    noise of standard deviation s_noise * sqrt(sigma_hat^2 - sigma_t^2), added in
    unscaled coordinates."""
    sigma_t, sigma_hat, t_new = lift
    a_old = sched.alpha_sigma(sched.time_of_sigma(sigma_t))[0]
    a_new = sched.alpha_sigma(t_new)[0]
    extra = params.s_noise * math.sqrt(sigma_hat * sigma_hat - sigma_t * sigma_t)
    return a_new * (x / a_old + extra * noise)


# -- the solver registry -------------------------------------------------------

_NP_SCHEDULES = ("vp", "edm")           # the schedules with np_* coefficients
_ALL_SCHEDULES = ("vp", "ve", "edm")
_SIGMA_SCHEDULES = ("ve", "edm")


@dataclass(frozen=True)
class Form:
    """One mode of a family: its step callable, the schedule families it runs
    on, the fixed keywords the step gets, whether it reads stage draws, and its
    node function (the step's time-only part, which a plan computes once), if any."""

    step: Callable
    schedules: tuple
    kwargs: dict = field(default_factory=dict)
    takes_draws: bool = True
    nodes: Callable | None = None


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
    return Form(stages_step, schedules, kwargs, seeds, stage_nodes)


FAMILIES = {
    "seeds1": Family(1, {"np": _staged(True), "dp": _staged(True, _ALL_SCHEDULES, dp=True)}),
    "seeds2": Family(2, {"np": _staged(True)}, *_C2),
    "seeds3": Family(3, {"np": _staged(True)}, *_R1_R2),
    "dpm1": Family(1, {"np": _staged(False), "dp": _staged(False, _ALL_SCHEDULES, dp=True)}),
    "dpm2": Family(2, {"np": _staged(False)}, *_C2),
    "dpm3": Family(3, {"np": _staged(False)}, *_R1_R2),
    "dpm4": Family(5, {"np": Form(dpm4_step, _NP_SCHEDULES, takes_draws=False,
                                  nodes=dpm4_nodes)}),
    "euler_maruyama": Family(1, {"np": Form(euler_maruyama_step, _ALL_SCHEDULES)}),
    "exp_euler_etd": Family(1, {"np": Form(exp_euler_step, _NP_SCHEDULES, {"lawson": False},
                                           takes_draws=False)}),
    "exp_euler_lawson": Family(1, {"np": Form(exp_euler_step, _NP_SCHEDULES, {"lawson": True},
                                              takes_draws=False)}),
    "gddim": Family(1, {"np": Form(gddim_step, ("vp",))}),
    "ve2_ode_a": Family(2, {"dp": _staged(False, _SIGMA_SCHEDULES, dp=True)}, *_R1),
    "ve2_ode_b": Family(2, {"dp": _staged(False, _SIGMA_SCHEDULES, dp=True, phi2=True)}, *_R1),
    "ve2_sde": Family(2, {"dp": _staged(True, _SIGMA_SCHEDULES, dp=True)}, *_R1),
}


def step_once(spec: SolverSpec, model, sched, x, s, t, draws, nodes=None):
    """One step of the spec's family in the spec's mode; ``nodes`` is the value of its
    node function at (s, t) when a plan has it, and the step computes it otherwise."""
    form = FAMILIES[spec.family].forms[spec.mode]
    args = (model, sched, x, s, t, draws) if form.takes_draws else (model, sched, x, s, t)
    if nodes is None:
        return form.step(*args, **spec.step_kwargs)
    return form.step(*args, nodes=nodes, **spec.step_kwargs)


class StepPlan:
    """The time-only work of one (spec, schedule, grid), done once before its walk.

    ``rows[i - 1]`` belongs to real step i from t_{i-1} to t_i and holds
    (t_i, lift, start, nodes): churn's ``churn_lift`` at t_{i-1} (None where
    churn is off), the time the model is first evaluated at (t_{i-1}, or the
    lifted time under churn), and the value of the form's node function at
    (start, t_i), (h, stage-node times), or None for a step without one.  The node
    function's lambda (sigma) at each time is computed once, kept in ``levels``
    (time -> value) and shared by the rows.  A grid without a real step is a GridError.
    """

    def __init__(self, spec: SolverSpec, sched, grid: StepGrid):
        form = FAMILIES[spec.family].forms[spec.mode]
        node_fn, self.levels = form.nodes, {}
        rows = []
        for i in range(1, grid.n_steps):
            s, t = float(grid.times[i - 1]), float(grid.times[i])
            lift = None if spec.churn is None else churn_lift(spec.churn, sched.sigma_of_t(s),
                                                              grid.n_steps, sched)
            # a lift too small to move sigma (1 + gamma == 1) keeps the grid time
            start = s if lift is None or lift[1] == lift[0] else lift[2]
            nodes = None if node_fn is None else node_fn(sched, start, t, form.takes_draws,
                                                         levels=self.levels, **spec.step_kwargs)
            rows.append((t, lift, start, nodes))
        if not rows:
            raise GridError("grid needs at least one real step (M >= 2)")
        self.rows = tuple(rows)

    def times(self) -> list:
        """Every time the walk evaluates the model at, step by step."""
        return [u for _, _, start, nodes in self.rows
                for u in (start, *(nodes[1] if nodes else ()))]


def prepare_model(model, times) -> None:
    """Hand the model the times it is about to be evaluated at, if it takes them:
    ``ScoreModel.prepare`` tabulates its time-only work.  The hook is optional."""
    prepare = getattr(model, "prepare", None)
    if prepare is not None:
        prepare(times)


def initial_state(sched, t0: float, draws):
    """x_T ~ N(0, sigma_bar(t0)^2 I) from step 0's draws, ``draws_at(0)``: the stage-0
    draw scaled."""
    return sched.alpha_sigma(t0)[2] * draws[0]


def walk(model, sched, spec: SolverSpec, plan: StepPlan, draws_at, x):
    """Yield the (n, d) state after each real step of the plan, starting from x at t_0.

    Step i reads its draws from ``draws_at(i)``, a mapping from stage to (n, d)
    array, called when the step starts; where the plan lifts it, churn lifts
    the state from the stage-0 draw first.  A step that leaves a NaN or
    infinity raises DomainError naming step i and its time.
    """
    for i, (t, lift, start, nodes) in enumerate(plan.rows, start=1):
        draws = draws_at(i)
        if lift is not None:
            x = churn_inject(x, spec.churn, lift, sched, draws[0])
        x = step_once(spec, model, sched, x, start, t, draws, nodes)
        if not np.isfinite(x).all():
            raise DomainError(f"non-finite state after step {i} at t={t!r}")
        yield x


@dataclass
class SampleResult:
    """Terminal states plus optional recorded trajectory."""

    terminal: np.ndarray            # (n, d)
    times: np.ndarray               # (M+1,)
    nfe_per_path: int
    trajectory: np.ndarray | None   # (M+1, n, d) when recorded


def sample(model, sched, grid: StepGrid, spec: SolverSpec, stream, n_paths=1,
           path_offset=0, record=False) -> SampleResult:
    """Run the iterative procedure over the grid for a batch of trajectories.

    Steps i = 1..M-1 apply the solver; the final interval is the trivial
    step (the state is carried over unchanged, no model call), so the total
    cost is evals_per_step * (M - 1) per path.  The initial state is
    x_T ~ N(0, sigma_bar(t_0)^2 I) (``walk`` starts from a given state).  The
    grid's plan is built after that draw and its evaluation times go to the
    model's ``prepare`` hook, if it has one.  A step that leaves a non-finite
    state raises DomainError naming the step and its time.
    """
    spec.validate_against(sched)
    times = grid.times
    draws_at = StepDraws(stream, n_paths, model.dim, path_offset)
    x = initial_state(sched, float(times[0]), draws_at(0))
    plan = StepPlan(spec, sched, grid)
    prepare_model(model, plan.times())
    traj = [x]
    for x in walk(model, sched, spec, plan, draws_at, x):
        if record:
            traj.append(x)
    return SampleResult(
        terminal=x,
        times=times.copy(),
        nfe_per_path=spec.evals_per_step * len(plan.rows),
        trajectory=np.stack(traj + [x]) if record else None,   # trivial last step: x again
    )
