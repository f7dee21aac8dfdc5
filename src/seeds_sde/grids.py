"""Time-step discretizations with degenerate-step guards."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateGridError, GridError, as_integer, as_number
from .schedules import SDE, ScheduleBase


@dataclass(frozen=True)
class StepGrid:
    """Decreasing times t_0 > ... > t_M; a trailing 0 marks the sentinel node.

    The sampler takes M-1 real steps and copies the state over the final
    interval, so the sentinel (sigma = 0) is never evaluated through the
    schedule.
    """

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise GridError("grid needs at least 3 nodes (M >= 2)")
        if not np.isfinite(t).all():
            raise GridError("grid times must be finite")
        if t[-1] < 0.0:
            raise GridError("grid times must be nonnegative")
        for i in range(t.size - 1):
            if t[i] == t[i + 1]:
                raise DegenerateGridError(
                    f"degenerate grid: t_{i} == t_{i + 1} == {t[i]!r} after schedule inversion"
                )
            if t[i] < t[i + 1]:
                raise GridError(f"grid times must decrease, but t_{i} < t_{i + 1}")
        object.__setattr__(self, "times", t)

    @property
    def n_steps(self) -> int:
        """M: number of intervals (the last one is the trivial step)."""
        return self.times.size - 1

    def lambdas(self, sched: ScheduleBase, variant: str = SDE) -> np.ndarray:
        """lambda at the nodes t_0..t_{M-1} that are actually evaluated."""
        return np.array([sched.lambda_of_t(float(t), variant) for t in self.times[:-1]])

    def step_widths(self, sched: ScheduleBase, variant: str = SDE) -> np.ndarray:
        """h_i = lambda(t_i) - lambda(t_{i-1}) over the real steps, all > 0."""
        lams = self.lambdas(sched, variant)
        return np.diff(lams)


def edm_grid(n_steps: int, sigma_min: float, sigma_max: float, rho: float, sched: ScheduleBase) -> StepGrid:
    """Power-law sigma ladder: sigma_i = (smax^(1/rho) + i/(M-1) (smin^(1/rho)
    - smax^(1/rho)))^rho for i < M, plus the sigma = 0 sentinel node.

    Endpoints are pinned exactly to sigma_max and sigma_min.
    """
    n_steps = as_integer("edm grid n_steps", n_steps)
    sigma_min, sigma_max, rho = (as_number(f"edm grid {key}", value) for key, value in
                                 (("sigma_min", sigma_min), ("sigma_max", sigma_max), ("rho", rho)))
    if n_steps < 2:
        raise ConfigError("edm grid needs at least 2 steps")
    if not 0.0 < sigma_min < sigma_max:
        raise ConfigError(f"need 0 < sigma_min < sigma_max, got {sigma_min}, {sigma_max}")
    if rho <= 0.0:
        raise ConfigError("rho must be positive")
    try:
        lo, hi = sigma_min ** (1.0 / rho), sigma_max ** (1.0 / rho)
    except OverflowError:
        hi = math.inf
    if not 0.0 < hi < math.inf:   # sigma_max ** (1 / rho) past the floats
        raise ConfigError(f"grid rho {rho!r} is too small for sigma_max {sigma_max!r}")
    i = np.arange(n_steps)
    sigmas = (hi + i / (n_steps - 1) * (lo - hi)) ** rho
    sigmas[0] = sigma_max
    sigmas[-1] = sigma_min
    times = np.empty(n_steps + 1)
    for j, s in enumerate(sigmas):
        times[j] = sched.time_of_sigma(float(s))
    times[n_steps] = 0.0
    return StepGrid(times=times)


def linear_lambda_grid(n_steps: int, eps_end: float, t_top: float, sched: ScheduleBase, variant: str = SDE) -> StepGrid:
    """Uniform lambda spacing between lambda(t_top) and lambda(eps_end)."""
    n_steps = as_integer("linear-lambda grid n_steps", n_steps)
    eps_end, t_top = (as_number(f"linear-lambda grid {key}", value)
                      for key, value in (("eps_end", eps_end), ("t_top", t_top)))
    if n_steps < 2:
        raise ConfigError("linear-lambda grid needs at least 2 steps")
    if not 0.0 < eps_end < t_top:
        raise ConfigError(f"need 0 < eps_end < t_top, got {eps_end}, {t_top}")
    lam0 = sched.lambda_of_t(t_top, variant)
    lam1 = sched.lambda_of_t(eps_end, variant)
    lams = np.linspace(lam0, lam1, n_steps + 1)
    times = np.empty(n_steps + 1)
    times[0] = t_top
    times[-1] = eps_end
    for j in range(1, n_steps):
        times[j] = sched.t_of_lambda(float(lams[j]), variant)
    return StepGrid(times=times)
