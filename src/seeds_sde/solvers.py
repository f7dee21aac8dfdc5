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

Two stage routines: ``np_stages_step`` is the noise-prediction step with 1, 2
or 3 stages, SEEDS-k given draws (gain factor 2, staged noise sharing z^1
across stages) and DPM-k, the probability-flow step, given ``draws=None``.
``dp_stages_step`` is its data-prediction mirror with 1 or 2 stages
(seeds1-dp and ve2_sde with draws; dpm1-dp and ve2_ode_a/b without).  dpm4,
Euler-Maruyama, exponential Euler and gddim keep their own bodies.

One registry: ``FAMILIES`` maps each family name to a ``Family`` descriptor
with its evaluations per step, the stage parameters it checks, and one
``Form`` per mode it has ("np" noise prediction, "dp" data prediction): the
step callable, its fixed keywords and the schedule families it runs on.
Only seeds1 and dpm1 have both modes; every other family has one, which is
its default (and the default of seeds1 and dpm1 is "np").

All stochastic steps draw through a stage-keyed ``StepDraws`` provider so
that solvers sharing a (seed, trajectory, step) also share z^1, z^2, ...;
passing ``ZeroStepDraws`` isolates the deterministic part.

Noise-prediction steps take Phi(t, s), the gain of (e^h - 1) F and the
signed noise scale from the schedule's ``np_trans``, ``np_gain`` and
``np_noise``, in the lambda variant ``SDE`` (stochastic) or ``ODE``
(probability flow).  Data-prediction steps use lambda = -log sigma directly.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, GridError
from .grids import StepGrid
from .noise import staged_noise_seeds3
from .phi import phi, sqrt_exp_diff
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
    the only mode for every other family.  ``step_kwargs`` holds the keywords
    ``step_once`` passes to the family's step, resolved once here.
    """

    family: str
    mode: str | None = None
    r1: float = 1.0 / 3.0
    r2: float = 2.0 / 3.0
    c2: float = 0.5
    churn: ChurnParams | None = None
    step_kwargs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family.lower().replace("-", "_")
        desc = FAMILIES.get(fam)
        if desc is None:
            raise ConfigError(f"unknown solver family {self.family!r}; "
                              f"expected one of {tuple(FAMILIES)}")
        mode = next(iter(desc.forms)) if self.mode is None else self.mode
        if mode not in desc.forms:
            raise ConfigError(f"{fam} has no mode {mode!r}; its modes are {tuple(desc.forms)}")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "step_kwargs",
                           {**desc.forms[mode].kwargs, **self._stage_params(desc.params)})

    def _stage_params(self, params: str) -> dict:
        """Check the family's stage parameters; return them as step keywords."""
        fam = self.family
        if params == "c2":
            if not 0.0 < self.c2 <= 1.0:
                raise ConfigError(f"{fam} needs 0 < c2 <= 1, got c2={self.c2}")
            return {"c2": self.c2}
        if params == "r1<r2":
            if not 0.0 < self.r1 < self.r2 < 1.0:
                raise ConfigError(f"{fam} needs 0 < r1 < r2 < 1, got r1={self.r1}, r2={self.r2}")
            return {"r1": self.r1, "r2": self.r2}
        if params == "r":
            if not 0.0 < self.r1 <= 1.0:
                raise ConfigError(f"{fam} needs 0 < r1 <= 1, got r1={self.r1}")
            return {"r": self.r1}
        return {}

    @property
    def evals_per_step(self) -> int:
        return FAMILIES[self.family].evals

    def validate_against(self, sched: ScheduleBase) -> None:
        """Reject a schedule that this family's mode does not run on."""
        allowed = FAMILIES[self.family].forms[self.mode].schedules
        if sched.family not in allowed:
            raise ConfigError(f"{self.family} in mode {self.mode!r} runs on "
                              f"{'/'.join(allowed)} schedules, not {sched.family!r}")


class StepDraws:
    """Stage-keyed z draws for one solver step over a batch of trajectories."""

    def __init__(self, stream, step_index: int, n: int, d: int, offset: int = 0):
        self.stream = stream
        self.step_index = step_index
        self.n = n
        self.d = d
        self.offset = offset

    def z(self, stage: int) -> np.ndarray:
        return self.stream.normal_paths(self.n, self.step_index, stage, self.d, offset=self.offset)


class ZeroStepDraws:
    """Deterministic-part probe: every stage draw is the zero vector."""

    def __init__(self, shape):
        self.shape = shape

    def z(self, stage: int) -> np.ndarray:
        return np.zeros(self.shape)


class ArrayDraws:
    """Fixed draws injected by tests: ArrayDraws({1: z1, 2: z2, ...})."""

    def __init__(self, by_stage: dict):
        self.by_stage = {k: np.asarray(v, dtype=float) for k, v in by_stage.items()}

    def z(self, stage: int) -> np.ndarray:
        return self.by_stage[stage]


def _check_backward(s: float, t: float, h: float) -> None:
    if not t < s:
        raise GridError(f"steps go backward in time, got s={s}, t={t}")
    if h <= 0.0:
        raise GridError(f"step width h must be positive, got h={h}")


# -- one-step update rules ----------------------------------------------------


def np_stages_step(model, sched, x_s, s, t, draws=None, stages=1, c2=0.5,
                   r1=1.0 / 3.0, r2=2.0 / 3.0):
    """Noise-prediction exponential step with 1, 2 or 3 stages (as many
    model evaluations).

    With ``draws`` this is the SEEDS step: the reverse-SDE frame (gain factor
    2) plus staged noise that shares z1 across stages.  With ``draws=None``
    it is the probability-flow DPM-Solver step of the same order (gain
    factor 1, no noise).  The two-stage node sits at lambda_s + c2 h; c2 = 1/2
    is the midpoint form whose noise combination is sqrt(e^{2h} - e^h) z1 +
    sqrt(e^h - 1) z2.  The three-stage nodes sit at lambda_s + r1 h and
    lambda_s + r2 h.
    """
    sto = draws is not None
    var = SDE if sto else ODE
    lam_s = sched.lambda_of_t(s, var)
    h = sched.lambda_of_t(t, var) - lam_s
    _check_backward(s, t, h)
    f_s = model.noise_pred(x_s, s)
    if stages == 1:
        x_t = sched.np_trans(s, t, sto) * x_s + sched.np_gain(t, sto) * math.expm1(h) * f_s
        if draws is None:
            return x_t
        return x_t + sched.np_noise(t) * math.sqrt(math.expm1(2.0 * h)) * draws.z(1)
    if stages == 2:
        s1 = sched.t_of_lambda(lam_s + c2 * h, var)
        u = sched.np_trans(s, s1, sto) * x_s + sched.np_gain(s1, sto) * math.expm1(c2 * h) * f_s
        if draws is not None:
            z1 = draws.z(1)
            u = u + sched.np_noise(s1) * math.sqrt(math.expm1(2.0 * c2 * h)) * z1
        f_mid = model.noise_pred(u, s1)
        x_t = (sched.np_trans(s, t, sto) * x_s + sched.np_gain(t, sto) * math.expm1(h)
               * ((1.0 - 0.5 / c2) * f_s + (0.5 / c2) * f_mid))
        if draws is None:
            return x_t
        # z1 is the weighted increment over [lam_s, lam_s + c2 h]; carrying it
        # to t and adding a fresh remainder keeps the stage and full-step
        # noises on one Brownian path
        rem = 2.0 * (1.0 - c2) * h
        full_noise = sqrt_exp_diff(2.0 * h, rem) * z1 + math.sqrt(math.expm1(rem)) * draws.z(2)
        return x_t + sched.np_noise(t) * full_noise
    if stages != 3:
        raise ConfigError(f"noise-prediction stage count must be 1, 2 or 3, got {stages!r}")
    s1 = sched.t_of_lambda(lam_s + r1 * h, var)
    s2 = sched.t_of_lambda(lam_s + r2 * h, var)
    u1 = sched.np_trans(s, s1, sto) * x_s + sched.np_gain(s1, sto) * math.expm1(r1 * h) * f_s
    if draws is not None:
        n1, noise_a, noise_b = staged_noise_seeds3(
            draws.z(1), draws.z(2), draws.z(3), sched.np_noise(s1), sched.np_noise(s2),
            sched.np_noise(t), h, r1, r2)
        u1 = u1 + n1
    f_u1 = model.noise_pred(u1, s1)
    # (e^{r2 h} - 1)/(r2 h) - 1 == r2 h phi_2(r2 h), stable near h = 0
    corr2 = (r2 / r1) * (r2 * h) * phi(2, r2 * h)
    u2 = (sched.np_trans(s, s2, sto) * x_s
          + sched.np_gain(s2, sto) * (math.expm1(r2 * h) * f_s + corr2 * (f_u1 - f_s)))
    if draws is not None:
        u2 = u2 + noise_a
    f_u2 = model.noise_pred(u2, s2)
    corr3 = (1.0 / r2) * h * phi(2, h)
    x_t = (sched.np_trans(s, t, sto) * x_s
           + sched.np_gain(t, sto) * (math.expm1(h) * f_s + corr3 * (f_u2 - f_s)))
    return x_t if draws is None else x_t + noise_b


def dp_stages_step(model, sched, x_s, s, t, draws=None, stages=1, r=0.5, phi2=False):
    """Data-prediction exponential step in lambda = -log sigma with 1 or 2
    stages (as many model evaluations).

    With ``draws`` it is the stochastic step (seeds1-dp, ve2_sde); with
    ``draws=None`` the probability-flow step (dpm1-dp, ve2_ode_a).  The
    two-stage node sits at sigma_s e^{-r h}; the final step weights D(x_s)
    and D(u) by 1 - 1/(2r) and 1/(2r), or with ``phi2`` adds the phi_2
    correction to the one-stage step (ve2_ode_b).  The two-stage form
    assumes alpha == 1, which holds on VE and EDM, where the registry runs it.
    """
    a_s, sg_s, sbar_s = sched.alpha_sigma(s)
    a_t, sg_t, sbar_t = sched.alpha_sigma(t)
    h = math.log(sg_s / sg_t)
    _check_backward(s, t, h)

    def one_stage(a_n, sg_n, sbar_n, h_n, d, z=None):  # from s to a node; noise needs z
        if draws is None:
            return (sbar_n / sbar_s) * x_s - a_n * math.expm1(-h_n) * d
        x_n = (sg_n * sg_n * a_n) / (sg_s * sg_s * a_s) * x_s - a_n * math.expm1(-2.0 * h_n) * d
        return x_n if z is None else x_n + sbar_n * math.sqrt(-math.expm1(-2.0 * h_n)) * z

    z1 = None if draws is None else draws.z(1)
    d_s = model.data_pred(x_s, s)
    if stages == 1:
        return one_stage(a_t, sg_t, sbar_t, h, d_s, z1)
    if stages != 2:
        raise ConfigError(f"data-prediction stage count must be 1 or 2, got {stages!r}")
    sg_1 = sg_s * math.exp(-r * h)   # alpha == 1: the node's sigma is its sigma_bar
    u = one_stage(1.0, sg_1, sg_1, r * h, d_s, z1)
    d_u = model.data_pred(u, sched.time_of_sigma(sg_1))
    if phi2:  # (e^{-h} - 1)/h + 1 == h phi_2(-h)
        return one_stage(a_t, sg_t, sbar_t, h, d_s) + (1.0 / r) * h * phi(2, -h) * (d_u - d_s)
    x_t = one_stage(a_t, sg_t, sbar_t, h, (1.0 - 0.5 / r) * d_s + (0.5 / r) * d_u)
    if draws is None:
        return x_t
    # Chasles split: the stage-1 chunk carried to t plus a fresh remainder
    carried = sqrt_exp_diff(-2.0 * (1.0 - r) * h, -2.0 * h)
    fresh = math.sqrt(-math.expm1(-2.0 * (1.0 - r) * h))
    return x_t + sbar_t * (carried * z1 + fresh * draws.z(2))


def dpm4_step(model, sched, x_s, s, t):
    """Five-stage deterministic exponential ODE step with nodes (1/2, 1/2, 1, 1/2)."""
    lam_s = sched.lambda_of_t(s, ODE)
    h = sched.lambda_of_t(t, ODE) - lam_s
    _check_backward(s, t, h)
    k1 = model.noise_pred(x_s, s)
    r = 0.5
    s_mid = sched.t_of_lambda(lam_s + r * h, ODE)   # nodes s2 = s3 = s5
    s4 = sched.t_of_lambda(lam_s + h, ODE)
    g_mid, g4, g_t = sched.np_gain(s_mid, False), sched.np_gain(s4, False), sched.np_gain(t, False)
    erh = math.expm1(r * h)
    eh = math.expm1(h)
    hphi2 = h * phi(2, h)                       # (e^h - 1)/h - 1
    k2 = sched.np_trans(s, s_mid, False) * x_s + g_mid * erh * k1
    f_k2 = model.noise_pred(k2, s_mid)
    k3 = (sched.np_trans(s, s_mid, False) * x_s + g_mid * erh * k1
          + g_mid * (4.0 * erh / h - 2.0) * (f_k2 - k1))
    f_k3 = model.noise_pred(k3, s_mid)
    k4 = (sched.np_trans(s, s4, False) * x_s + g4 * eh * k1
          + g4 * hphi2 * (f_k3 + f_k2 - 2.0 * k1))
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
    if not t < s:
        raise GridError(f"steps go backward in time, got s={s}, t={t}")
    dt = t - s
    f = sched.drift_f(s)
    g2 = sched.diffusion_g2(s)
    score = model.score_from_model(x_s, s)
    eps = draws.z(1)
    return x_s + (f * x_s - g2 * score) * dt + math.sqrt(g2 * abs(dt)) * eps


def exp_euler_step(model, sched, x_s, s, t, variant):
    """Exponential Euler in the time variable, ETD or Lawson flavor.

    Both treat the linear part exactly through the transition factor; ETD
    weights the frozen nonlinearity by phi_1 of the effective drift, Lawson
    pushes it through the transition.
    """
    if variant not in ("etd", "lawson"):
        raise ConfigError(f"variant must be 'etd' or 'lawson', got {variant!r}")
    if not t < s:
        raise GridError(f"steps go backward in time, got s={s}, t={t}")
    trans = sched.np_trans(s, t, False)
    b_s = sched.np_rate(s)
    dt = t - s
    f_val = model.noise_pred(x_s, s)
    if variant == "lawson":
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
    eps = draws.z(1)
    return (
        (a_t / a_s) * x_s
        + sbar_t * (sg_t / sg_s - sg_s / sg_t) * eps_hat
        + sbar_t * math.sqrt(-math.expm1(-2.0 * h)) * eps
    )


def churn_inject(x, params: ChurnParams, sigma_t, n_steps, sched, noise):
    """Lift the noise level by gamma = min(s_churn / M, sqrt(2) - 1).

    Active only while sigma_t lies in [s_tmin, s_tmax]; returns the lifted
    state and raised sigma (caller maps sigma back to a time).  Fresh noise
    has standard deviation s_noise * sqrt(sigma'^2 - sigma_t^2), added in
    unscaled coordinates.
    """
    if params.s_churn == 0.0 or not params.s_tmin <= sigma_t <= params.s_tmax:
        return x, sigma_t
    gamma = min(params.s_churn / n_steps, _GAMMA_CAP)
    sigma_hat = sigma_t * (1.0 + gamma)
    t_old = sched.time_of_sigma(sigma_t)
    t_new = sched.time_of_sigma(sigma_hat)
    a_old = sched.alpha_sigma(t_old)[0]
    a_new = sched.alpha_sigma(t_new)[0]
    extra = params.s_noise * math.sqrt(sigma_hat * sigma_hat - sigma_t * sigma_t)
    return a_new * (x / a_old + extra * noise), sigma_hat


# -- the solver registry -------------------------------------------------------

_NP_SCHEDULES = ("vp", "edm")           # the schedules with np_* coefficients
_ALL_SCHEDULES = ("vp", "ve", "edm")
_SIGMA_SCHEDULES = ("ve", "edm")


@dataclass(frozen=True)
class Form:
    """One mode of a family: its step callable, the fixed keywords the step
    gets, whether it reads stage draws, and the schedule families it runs on."""

    step: Callable
    schedules: tuple
    kwargs: dict = field(default_factory=dict)
    takes_draws: bool = True


@dataclass(frozen=True)
class Family:
    """Evaluations per step, the stage parameters the family checks ("c2",
    "r1<r2" or "r") and its forms by mode; the first mode is the default."""

    evals: int
    forms: dict
    params: str = ""


def _stages(k: int, seeds: bool) -> Form:
    """The stage routine's k-stage form: SEEDS-k with draws, DPM-k without."""
    return Form(np_stages_step, _NP_SCHEDULES, {"stages": k}, takes_draws=seeds)


FAMILIES = {
    "seeds1": Family(1, {"np": _stages(1, seeds=True),
                         "dp": Form(dp_stages_step, _ALL_SCHEDULES)}),
    "seeds2": Family(2, {"np": _stages(2, seeds=True)}, "c2"),
    "seeds3": Family(3, {"np": _stages(3, seeds=True)}, "r1<r2"),
    "dpm1": Family(1, {"np": _stages(1, seeds=False),
                       "dp": Form(dp_stages_step, _ALL_SCHEDULES, takes_draws=False)}),
    "dpm2": Family(2, {"np": _stages(2, seeds=False)}, "c2"),
    "dpm3": Family(3, {"np": _stages(3, seeds=False)}, "r1<r2"),
    "dpm4": Family(5, {"np": Form(dpm4_step, _NP_SCHEDULES, takes_draws=False)}),
    "euler_maruyama": Family(1, {"np": Form(euler_maruyama_step, _ALL_SCHEDULES)}),
    "exp_euler_etd": Family(1, {"np": Form(exp_euler_step, _NP_SCHEDULES, {"variant": "etd"},
                                           takes_draws=False)}),
    "exp_euler_lawson": Family(1, {"np": Form(exp_euler_step, _NP_SCHEDULES,
                                              {"variant": "lawson"}, takes_draws=False)}),
    "gddim": Family(1, {"np": Form(gddim_step, ("vp",))}),
    "ve2_ode_a": Family(2, {"dp": Form(dp_stages_step, _SIGMA_SCHEDULES, {"stages": 2},
                                       takes_draws=False)}, "r"),
    "ve2_ode_b": Family(2, {"dp": Form(dp_stages_step, _SIGMA_SCHEDULES,
                                       {"stages": 2, "phi2": True}, takes_draws=False)}, "r"),
    "ve2_sde": Family(2, {"dp": Form(dp_stages_step, _SIGMA_SCHEDULES, {"stages": 2})}, "r"),
}


def step_once(spec: SolverSpec, model, sched, x, s, t, draws):
    """One step of the spec's family in the spec's mode."""
    form = FAMILIES[spec.family].forms[spec.mode]
    if form.takes_draws:
        return form.step(model, sched, x, s, t, draws, **spec.step_kwargs)
    return form.step(model, sched, x, s, t, **spec.step_kwargs)


def step_with_churn(spec: SolverSpec, model, sched, x, s, t, draws, n_steps: int):
    """Churn (if the spec has it, from stage-0 noise), then one step from the lifted time."""
    if spec.churn is not None and spec.churn.s_churn > 0.0:
        sigma_s = sched.sigma_of_t(s)
        x, sigma_hat = churn_inject(x, spec.churn, sigma_s, n_steps, sched, draws.z(0))
        if sigma_hat != sigma_s:
            s = sched.time_of_sigma(sigma_hat)
    return step_once(spec, model, sched, x, s, t, draws)


@dataclass
class SampleResult:
    """Terminal states plus optional recorded trajectory."""

    terminal: np.ndarray            # (n, d)
    times: np.ndarray               # (M+1,)
    nfe_per_path: int
    trajectory: np.ndarray | None   # (M+1, n, d) when recorded


def sample(model, sched, grid: StepGrid, spec: SolverSpec, stream, n_paths=1,
           x0=None, path_offset=0, record=False) -> SampleResult:
    """Run the iterative procedure over the grid for a batch of trajectories.

    Steps i = 1..M-1 apply the solver; the final interval is the trivial
    step (the state is carried over unchanged, no model call), so the total
    cost is evals_per_step * (M - 1) per path.  The initial state is
    x_T ~ N(0, sigma_bar(t_0)^2 I) unless x0 is given.  A step that leaves a
    non-finite state raises DomainError naming the step and its time.
    """
    spec.validate_against(sched)
    times = grid.times
    n_real = grid.n_steps - 1
    if n_real < 1:
        raise GridError("grid needs at least one real step (M >= 2)")
    d = model.dim
    if x0 is None:
        sbar0 = sched.alpha_sigma(float(times[0]))[2]
        x = sbar0 * stream.normal_paths(n_paths, 0, 0, d, offset=path_offset)
    else:
        x = np.array(x0, dtype=float).reshape(n_paths, d)
    traj = np.empty((times.size, n_paths, d)) if record else None
    if record:
        traj[0] = x
    for i in range(1, n_real + 1):
        s, t = float(times[i - 1]), float(times[i])
        draws = StepDraws(stream, i, n_paths, d, offset=path_offset)
        x = step_with_churn(spec, model, sched, x, s, t, draws, grid.n_steps)
        if not np.isfinite(x).all():
            raise DomainError(f"non-finite state after step {i} at t={t!r}")
        if record:
            traj[i] = x
    if record:
        traj[-1] = x  # trivial last step
    return SampleResult(
        terminal=x,
        times=times.copy(),
        nfe_per_path=spec.evals_per_step * n_real,
        trajectory=traj,
    )
