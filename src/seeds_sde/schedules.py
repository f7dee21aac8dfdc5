"""Noise schedules, scalings, and the half-log-SNR change of variables.

Each schedule fixes the pair (alpha_t, sigma_t) on a working interval
[t_min, t_max] and exposes the lambda variable with closed-form inverses.
lambda is strictly decreasing in t, so a backward step (t < s) always sees
h = lambda_t - lambda_s > 0.

Conventions:
  * VP (linear or cosine beta):  alpha_t = 1/sqrt(sigma_t^2 + 1), lambda = -log sigma_t.
  * VE:                          sigma_t = t, alpha_t = 1, lambda = -log t.
  * EDM:                         sigma_t = t, alpha_t = 1, two lambda variants
                                 ("sde" and "ode") tied to the reverse SDE and
                                 the probability-flow ODE respectively.

VP and EDM also carry the coefficients of the noise-prediction exponential
step x_t = Phi(t, s) x_s + g(t) (e^h - 1) F + c(t) sqrt(e^{2h} - 1) z with
h = lambda_t - lambda_s: ``np_trans`` is Phi, ``np_gain`` is g and
``np_noise`` is c (its sign included), each in the lambda variant of the
reverse SDE (stochastic) or of the probability-flow ODE; ``np_rate`` is the
coefficient of F in exponential Euler's time-variable ODE.  VE has none of
them.  Every schedule gives ``np_score``, the score rebuilt from F.

Evaluations are allowed slightly above t_max (factor 1.5) so that
churn-lifted noise levels remain representable; grid validation still uses
[t_min, t_max].
"""

import copy
import functools
import math
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError, DomainError, as_number

SDE = "sde"
ODE = "ode"
_VARIANTS = (SDE, ODE)

# multiplicative headroom above t_max for evaluation (churn lifts sigma by
# at most a factor 1 + (sqrt(2) - 1) = sqrt(2))
_EVAL_HEADROOM = 1.5
_SLACK = 1e-9
# what a ``cached`` copy keeps, the last 8 values of each: a plan's rows ask again for
# a time at most a few times back, and no caller reads values out of the copy
_CACHED = ("alpha_sigma", "sigma_of_t", "lambda_of_t")


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ConfigError(f"unknown lambda variant {variant!r}; expected one of {_VARIANTS}")


class ScheduleBase:
    """Shared evaluation plumbing; concrete schedules fill in the math.  A
    schedule's ``kind`` is its config name, its dataclass fields its parameters."""

    family = "?"

    def _check_time(self, t: float) -> float:
        t = float(t)
        if not math.isfinite(t):
            raise DomainError(f"time {t!r} is not finite")
        lo = self.t_min * (1.0 - _SLACK)
        hi = self.t_max * _EVAL_HEADROOM
        if not lo <= t <= hi:
            raise DomainError(
                f"t={t!r} outside evaluable range [{lo:.6g}, {hi:.6g}] of {type(self).__name__}"
            )
        return t

    def __post_init__(self):
        """Store each field as the float ``as_number`` checks (a bool is not one), check
        0 < t_min < t_max and the parameters (``_check_params``), then that sigma and both
        lambdas are finite floats at t_min and t_max and that ``t_of_lambda`` inverts each
        lambda there to 1e-6, or raise a ConfigError naming the kind and them."""
        for key in fields(self):   # frozen dataclasses refuse setattr
            object.__setattr__(self, key.name, as_number(f"schedule {self.kind!r} {key.name}",
                                                         getattr(self, key.name)))
        if not 0 < self.t_min < self.t_max:
            raise ConfigError("need 0 < t_min < t_max")
        self._check_params()
        # a lambda saturated at an end (EDM's sde lambda at a tiny sigma_data) is finite but
        # falls outside the image its inverse accepts, or loses the time it came from
        checks = (("sigma or lambda that is not a finite float", lambda t, v: all(
                      map(math.isfinite, (self._sigma(t), self._lambda(t, v))))),
                  ("lambda that t_of_lambda does not invert", lambda t, v: math.isclose(
                      self._t_of_lambda(self._lambda(t, v), v), t, rel_tol=1e-6)))
        for failure, check in checks:
            try:
                holds = all(check(t, v) for t in (self.t_min, self.t_max) for v in _VARIANTS)
            except (OverflowError, ValueError, ZeroDivisionError):   # DomainError, math errors
                holds = False
            if not holds:
                raise ConfigError(f"schedule {self.kind!r} with {asdict(self)} has a {failure} "
                                  "at t_min or t_max")

    def _check_params(self):
        """Check the kind's own parameters; a schedule with none has nothing to check."""

    # -- core quantities ---------------------------------------------------

    def alpha_sigma(self, t: float):
        """Return (alpha_t, sigma_t, sigma_bar_t) with sigma_bar = alpha * sigma."""
        t = self._check_time(t)
        a = self._alpha(t)
        s = self._sigma(t)
        return a, s, a * s

    def sigma_of_t(self, t: float) -> float:
        t = self._check_time(t)
        return self._sigma(t)

    def lambda_of_t(self, t: float, variant: str = SDE) -> float:
        t = self._check_time(t)
        _check_variant(variant)
        return self._lambda(t, variant)

    def t_of_lambda(self, lam: float, variant: str = SDE) -> float:
        _check_variant(variant)
        lam = float(lam)
        if not math.isfinite(lam):
            raise DomainError(f"lambda {lam!r} is not finite")
        try:
            t = self._t_of_lambda(lam, variant)
        except OverflowError:   # math.exp or math.expm1 past float max
            t = math.inf
        if not math.isfinite(t):
            raise DomainError(f"lambda={lam!r} outside the image of lambda_of_t")
        return self._check_time(t)

    def time_of_sigma(self, sigma: float) -> float:
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
        return self._check_time(self._time_of_sigma(float(sigma)))

    def cached(self) -> "ScheduleBase":
        """A copy that keeps the last 8 alpha_sigma, sigma and lambda values it computed: its
        methods are bound to it, so what one reads (VP's ``np_trans`` reads alpha) is kept too."""
        twin = copy.copy(self)
        for name in _CACHED:   # frozen dataclasses refuse setattr
            object.__setattr__(twin, name, functools.lru_cache(8)(getattr(twin, name)))
        return twin

    def np_score(self, t: float):
        """(c_x, c_F, d) of the score rebuilt from the network output F at t, (c_x x + c_F F) / d;
        c_x None means no x term: on VP and VE, F = -sigma_bar score (EDM overrides)."""
        return None, -1.0, self.alpha_sigma(t)[2]

    # subclass hooks: _check_params, _alpha, _sigma, _lambda, _t_of_lambda,
    # _time_of_sigma, drift_f, diffusion_g2; VP and EDM add np_trans, np_gain,
    # np_noise and np_rate


class _Vp(ScheduleBase):
    """Noise-prediction coefficients shared by the VP schedules; one lambda
    (-log sigma) serves both equations, so the variant is ignored."""

    family = "vp"

    def np_trans(self, s, t, stochastic):
        return self.alpha_sigma(t)[0] / self.alpha_sigma(s)[0]

    def np_gain(self, t, stochastic):
        return -(2.0 if stochastic else 1.0) * self.alpha_sigma(t)[2]

    def np_noise(self, t):
        return -self.alpha_sigma(t)[2]

    def np_rate(self, t):
        # alpha_t sigma'(t), with sigma' = g^2 / (2 alpha^2 sigma) from one alpha_sigma call
        a, s, _ = self.alpha_sigma(t)
        return a * (self.diffusion_g2(t) / (2.0 * a * a * s))


@dataclass(frozen=True)
class VpLinear(_Vp):
    """Variance-preserving schedule with linear beta(t) = beta_d t + beta_m.

    abar(t) = beta_d t^2 / 2 + beta_m t, sigma = sqrt(e^abar - 1),
    alpha = e^{-abar/2}.
    """

    beta_d: float = 19.9
    beta_m: float = 0.1
    t_min: float = 1e-4
    t_max: float = 1.0

    kind = "vp"

    def _check_params(self):
        if self.beta_d <= 0 or self.beta_m <= 0:
            raise ConfigError("beta_d and beta_m must be positive")

    def _abar(self, t):
        return 0.5 * self.beta_d * t * t + self.beta_m * t

    def _alpha(self, t):
        return math.exp(-0.5 * self._abar(t))

    def _sigma(self, t):
        return math.sqrt(math.expm1(self._abar(t)))

    def _lambda(self, t, variant):
        return -0.5 * math.log(math.expm1(self._abar(t)))

    def _t_of_lambda(self, lam, variant):
        if lam < -300.0:
            raise DomainError(f"lambda={lam!r} below the representable image")
        big = math.log1p(math.exp(-2.0 * lam))  # abar at the target time
        return 2.0 * big / (math.sqrt(self.beta_m**2 + 2.0 * self.beta_d * big) + self.beta_m)

    def _time_of_sigma(self, sigma):
        big = math.log1p(sigma * sigma)
        return 2.0 * big / (math.sqrt(self.beta_m**2 + 2.0 * self.beta_d * big) + self.beta_m)

    def drift_f(self, t):
        self._check_time(t)
        return -0.5 * (self.beta_d * t + self.beta_m)

    def diffusion_g2(self, t):
        self._check_time(t)
        return self.beta_d * t + self.beta_m


@dataclass(frozen=True)
class VpCosine(_Vp):
    """Variance-preserving cosine schedule with shift s.

    alpha_t = cos(pi/2 * (t+s)/(1+s)) / cos(pi/2 * s/(1+s)); alpha(1) = 0, so
    the working interval must stop short of t = 1.
    """

    shift: float = 0.008
    t_min: float = 1e-4
    t_max: float = 0.99

    kind = "vp_cosine"

    def _check_params(self):
        if self.shift <= 0:
            raise ConfigError("cosine shift must be positive")
        if not self.t_max < 1.0:
            raise ConfigError("cosine schedule needs 0 < t_min < t_max < 1")

    def _u(self, t):
        return (t + self.shift) / (1.0 + self.shift)

    @property
    def _a0(self):
        return math.cos(0.5 * math.pi * self.shift / (1.0 + self.shift))

    def _alpha(self, t):
        return math.cos(0.5 * math.pi * self._u(t)) / self._a0

    def _sigma(self, t):
        a = self._alpha(t)
        return math.sqrt((1.0 - a) * (1.0 + a)) / a

    def _lambda(self, t, variant):
        return -math.log(self._sigma(t))

    def _t_of_lambda(self, lam, variant):
        if lam < -300.0:
            raise DomainError(f"lambda={lam!r} below the representable image")
        big = math.log1p(math.exp(-2.0 * lam))
        inner = math.exp(-0.5 * big) * self._a0
        return (2.0 * (1.0 + self.shift) / math.pi) * math.acos(inner) - self.shift

    def _time_of_sigma(self, sigma):
        alpha = 1.0 / math.sqrt(1.0 + sigma * sigma)
        return (2.0 * (1.0 + self.shift) / math.pi) * math.acos(alpha * self._a0) - self.shift

    def drift_f(self, t):
        self._check_time(t)
        return -(0.5 * math.pi / (1.0 + self.shift)) * math.tan(0.5 * math.pi * self._u(t))

    def diffusion_g2(self, t):
        return -2.0 * self.drift_f(t)


class _IdentitySigma(ScheduleBase):
    """sigma_t = t, alpha_t = 1 (shared by VE and EDM)."""

    def _alpha(self, t):
        return 1.0

    def _sigma(self, t):
        return t

    def _time_of_sigma(self, sigma):
        return sigma

    def drift_f(self, t):
        self._check_time(t)
        return 0.0

    def diffusion_g2(self, t):
        self._check_time(t)
        return 2.0 * t


@dataclass(frozen=True)
class Ve(_IdentitySigma):
    """Variance-exploding schedule: time parameterized by the noise level."""

    t_min: float = 0.002
    t_max: float = 80.0

    family = kind = "ve"

    def _lambda(self, t, variant):
        return -math.log(t)

    def _t_of_lambda(self, lam, variant):
        return math.exp(-lam)


@dataclass(frozen=True)
class Edm(_IdentitySigma):
    """Preconditioned framework with sigma_t = t and data scale sigma_data.

    Carries two lambda variants: "sde" uses -log[t / (sigma_d sqrt(t^2 +
    sigma_d^2))] (reverse SDE), "ode" uses -log[arctan(t / sigma_d)]
    (probability-flow ODE).
    """

    sigma_data: float = 0.5
    t_min: float = 0.002
    t_max: float = 80.0

    family = kind = "edm"

    def _check_params(self):
        if self.sigma_data <= 0:
            raise ConfigError("sigma_data must be positive")

    def _lambda(self, t, variant):
        sd = self.sigma_data
        if variant == ODE:
            return -math.log(math.atan(t / sd))
        return -math.log(t) + math.log(sd) + 0.5 * math.log(t * t + sd * sd)

    def _t_of_lambda(self, lam, variant):
        sd = self.sigma_data
        if variant == ODE:
            u = math.exp(-lam)
            if u >= 0.5 * math.pi:
                raise DomainError(f"lambda={lam!r} outside the image of the ode variant")
            return sd * math.tan(u)
        arg = 2.0 * (lam - math.log(sd))
        if arg <= 0.0:
            # image bound: e^{-lambda} < 1/sigma_d always
            raise DomainError(f"lambda={lam!r} outside the image of the sde variant")
        return sd / math.sqrt(math.expm1(arg))

    def np_trans(self, s, t, stochastic):
        sd = self.sigma_data
        ratio = (t * t + sd * sd) / (s * s + sd * sd)
        return ratio if stochastic else math.sqrt(ratio)

    def np_gain(self, t, stochastic):
        sd = self.sigma_data
        if stochastic:
            return 2.0 * t * math.sqrt(t * t + sd * sd) / sd
        return math.sqrt(t * t + sd * sd) * math.atan(t / sd)

    def np_noise(self, t):
        sd = self.sigma_data
        return t * math.sqrt(t * t + sd * sd) / sd

    def np_rate(self, t):
        sd = self.sigma_data
        return -sd / math.sqrt(t * t + sd * sd)

    def np_score(self, t):
        # D = c1 x + c2 F with c1 = sd^2 / den and c2 = t sd / sqrt(den), and D = x + t^2 score
        sd = self.sigma_data
        den = t * t + sd * sd
        a, s, _ = self.alpha_sigma(t)
        return sd * sd / den - 1.0, t * sd / math.sqrt(den), a * s * s


_KINDS = {cls.kind: cls for cls in (VpLinear, VpCosine, Ve, Edm)} | {"vp_linear": VpLinear}


def make_schedule(kind: str, **params) -> ScheduleBase:
    """Construct a schedule from its config name ("vp", "vp_cosine", "ve", "edm")."""
    if not isinstance(kind, str):
        raise ConfigError(f"schedule kind must be a string, got {kind!r}")
    key = kind.lower().replace("-", "_")
    if key not in _KINDS:
        raise ConfigError(f"unknown schedule kind {kind!r}; expected one of {sorted(set(_KINDS))}")
    try:
        return _KINDS[key](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for schedule {kind!r}: {exc}") from exc
