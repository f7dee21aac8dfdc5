"""Convergence-order estimation and solver-equivalence checks.

Strong order is measured by coupled refinement: all grid levels share one
Brownian path per trajectory, realized as fine-level weighted increments
whose group sums give the coarse-level increments, and the finest level
serves as the reference solution.  One pass over the fine steps advances
every level together, holding only a window of the last ``ratio``
increments (one coarsest step), never the whole fine path.  Weak order
compares terminal moments against the closed-form Gaussian flow.  Moment
reductions are done block by block (fixed 1024-path blocks) so results do
not depend on how paths are partitioned across workers.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import StepGrid
from .models import DataDistribution
from .noise import BLOCK, raw_increment_var
from .schedules import SDE
from .solvers import SolverSpec, StepDraws, ZeroStepDraws, sample, step_with_churn


@dataclass
class OrderEstimate:
    """(step size, error) pairs with the fitted log-log slope."""

    kind: str
    h_values: list
    errors: list
    ses: list
    n_paths: int
    slope: float
    intercept: float
    r2: float
    slope_se: float
    excluded: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def summary(self) -> dict:
        return {"slope": self.slope, "r2": self.r2, "slope_se": self.slope_se}

    def to_json(self) -> str:
        def scrub(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        payload = {k: scrub(v) for k, v in self.summary().items()}
        payload.update({"kind": self.kind, "n_paths": self.n_paths,
                        "excluded": self.excluded, "notes": self.notes})
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["h,error,se,n_paths"]
        for h, e, se in zip(self.h_values, self.errors, self.ses):
            lines.append(f"{h!r},{e!r},{se!r},{self.n_paths}")
        return "\n".join(lines) + "\n"


def fit_loglog(hs, errors):
    """OLS fit of log(error) against log(h): (slope, intercept, r2, slope_se)."""
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    n = x.size
    if n < 2:
        return math.nan, math.nan, math.nan, math.nan
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    slope_se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.nan
    return slope, intercept, r2, slope_se


class GaussianFlowOracle:
    """Exact marginals of the flow started from a Gaussian mixture.

    At time t the marginal is sum_k w_k N(alpha m_k, alpha^2 V_k +
    sigma_bar^2), which yields every polynomial moment in closed form.
    """

    def __init__(self, data: DataDistribution, sched):
        self.data = data
        self.sched = sched

    def component_moments(self, t):
        a, _, sbar = self.sched.alpha_sigma(t)
        mu = a * self.data.means                         # (K, d)
        var = a * a * self.data.variances + sbar * sbar  # (K, d)
        return self.data.weights, mu, var

    def mean(self, t):
        w, mu, _ = self.component_moments(t)
        return w @ mu

    def var(self, t):
        w, mu, var = self.component_moments(t)
        second = w @ (mu * mu + var)
        m = w @ mu
        return second - m * m

    def moment(self, t, power: int):
        """Per-axis raw moment E[x^power] for power in {1, 2, 4}."""
        w, mu, var = self.component_moments(t)
        if power == 1:
            return w @ mu
        if power == 2:
            return w @ (mu * mu + var)
        if power == 4:
            return w @ (mu**4 + 6.0 * mu * mu * var + 3.0 * var * var)
        raise ConfigError(f"unsupported moment power {power!r}")


class ZeroFlowOracle(GaussianFlowOracle):
    """Exact marginals when the model term vanishes: the pure linear flow.

    Starting from N(0, sigma_bar(t0)^2 I), the state at time t is centered
    Gaussian with variance (alpha_t/alpha_0)^2 sigma_bar_0^2 +
    sigma_bar_t^2 (e^{2(lambda_t - lambda_0)} - 1): one centered component.
    """

    def __init__(self, sched, t_top: float, d: int = 1):
        super().__init__(None, sched)
        self.t_top = float(t_top)
        self.d = d

    def component_moments(self, t):
        a0, _, sbar0 = self.sched.alpha_sigma(self.t_top)
        a_t, _, sbar_t = self.sched.alpha_sigma(t)
        h = self.sched.lambda_of_t(t) - self.sched.lambda_of_t(self.t_top)
        var = (a_t / a0) ** 2 * sbar0**2 + sbar_t**2 * math.expm1(2.0 * h)
        return np.ones(1), np.zeros((1, self.d)), np.full((1, self.d), var)


def _oracle_for(model, sched, t_top: float):
    if hasattr(model, "data"):
        return GaussianFlowOracle(model.data, sched)
    return ZeroFlowOracle(sched, t_top, d=model.dim)


def _block_mean(values: np.ndarray) -> np.ndarray:
    """Partition-independent mean: per-block sums first, then across blocks."""
    n = values.shape[0]
    sums = [values[i : i + BLOCK].sum(axis=0) for i in range(0, n, BLOCK)]
    return np.sum(sums, axis=0) / n


def strong_order(spec: SolverSpec, model, sched, base_steps: int, refinements: int,
                 n_paths: int, stream, eps_end=None, t_top=None, ref_extra: int = 2) -> OrderEstimate:
    """Coupled-refinement strong-order estimate for the one-stage solver.

    Builds ``refinements`` nested uniform-lambda grids by halving, plus a
    reference level ``ref_extra`` further halvings down.  One pass over the
    fine steps advances the reference and every level together: a window
    holds the last ``ratio`` fine weighted increments (one level-0 step),
    and a level steps on the sum of its slice of the window whenever its
    stride divides the fine step count.  The error at a level is
    sqrt(E[sup over its nodes |x - reference|^2]).
    """
    if spec.family != "seeds1" or spec.mode != "np":
        raise ConfigError("the strong-order claim covers only the one-stage solver (seeds1, np)")
    if refinements < 3:
        raise ConfigError("need at least 3 refinement levels")
    if ref_extra < 1:
        raise ConfigError("reference must sit at least one halving below the finest level")
    spec.validate_against(sched)
    eps_end = sched.t_min if eps_end is None else eps_end
    t_top = sched.t_max if t_top is None else t_top
    lam0, lam1 = sched.lambda_of_t(t_top, SDE), sched.lambda_of_t(eps_end, SDE)

    n_levels = refinements          # measured levels 0..refinements-1
    ratio = 2 ** (n_levels - 1 + ref_extra)   # fine steps per level-0 step
    m_fine = base_steps * ratio
    lam_fine = np.linspace(lam0, lam1, m_fine + 1)
    t_fine = [t_top] + [sched.t_of_lambda(float(l), SDE) for l in lam_fine[1:-1]] + [eps_end]

    def advance(x, a, b, w):
        """seeds1 step from fine node a to fine node b; the raw weighted
        increment w enters as sqrt(2) * np_noise(t) e^{lambda_t} * w."""
        t_a, t_b, lam_a, lam_b = t_fine[a], t_fine[b], lam_fine[a], lam_fine[b]
        f_val = model.noise_pred(x, t_a)
        return (sched.np_trans(t_a, t_b, True) * x
                + sched.np_gain(t_b, True) * math.expm1(lam_b - lam_a) * f_val
                + math.sqrt(2.0) * sched.np_noise(t_b) * math.exp(float(lam_b)) * w)

    d = model.dim
    sup_sq = np.zeros((n_levels, n_paths))
    sbar0 = sched.alpha_sigma(t_top)[2]
    ref = sbar0 * stream.normal_paths(n_paths, 0, 0, d)
    xs = [ref] * n_levels
    window = np.empty((ratio, n_paths, d))
    for j in range(m_fine):
        k = j % ratio
        # fine increment j, drawn with its keyed substream
        std = math.sqrt(raw_increment_var(lam_fine[j], lam_fine[j + 1]))
        window[k] = std * stream.normal_paths(n_paths, j + 1, 0, d)
        ref = advance(ref, j, j + 1, window[k])
        for lvl in range(n_levels):
            stride = ratio >> lvl
            if (j + 1) % stride == 0:
                # the same slice shape as the level's run of the stacked fine
                # increments, so NumPy sums it in the same order
                w_sum = window[k + 1 - stride : k + 1].sum(axis=0)
                xs[lvl] = advance(xs[lvl], j + 1 - stride, j + 1, w_sum)
                diff = xs[lvl] - ref
                sup_sq[lvl] = np.maximum(sup_sq[lvl], np.sum(diff * diff, axis=-1))

    hs = [(lam1 - lam0) / (base_steps * 2**lvl) for lvl in range(n_levels)]
    errors, ses = [], []
    for lvl in range(n_levels):
        mean_sq = float(_block_mean(sup_sq[lvl]))
        err = math.sqrt(mean_sq)
        se_mean = float(np.std(sup_sq[lvl])) / math.sqrt(n_paths)
        ses.append(se_mean / (2.0 * err) if err > 0 else 0.0)
        errors.append(err)

    notes = []
    if max(errors) < 1e-12:
        notes.append("errors at rounding level; scheme is exact on this problem")
        return OrderEstimate("strong", hs, errors, ses, n_paths, math.nan, math.nan,
                             math.nan, math.nan, notes=notes)
    slope, intercept, r2, slope_se = fit_loglog(hs, errors)
    if slope_se > 0.1:
        notes.append(f"slope standard error {slope_se:.3f} > 0.1; increase n_paths")
    _stability_note(hs, errors, slope, notes)
    # reference sanity: finest-level terminal moments vs the exact flow
    oracle = GaussianFlowOracle(model.data, sched) if hasattr(model, "data") else None
    if oracle is not None:
        exp_mean = oracle.mean(eps_end)
        se = np.std(ref, axis=0) / math.sqrt(n_paths)
        if np.any(np.abs(_block_mean(ref) - exp_mean) > 5.0 * se):
            notes.append("reference terminal mean off by more than 5 SE")
    return OrderEstimate("strong", hs, errors, ses, n_paths, slope, intercept, r2,
                         slope_se, notes=notes)


def weak_order(spec: SolverSpec, model, sched, grids, n_paths: int, stream,
               test_powers=(1, 2, 4)) -> OrderEstimate:
    """Moment-error weak-order estimate over a list of grids.

    error(h) = max over test powers of |E[x^p] - E_exact[x^p]| at the final
    real node; points whose error is below 3 Monte Carlo standard errors are
    excluded from the fit and recorded.
    """
    if len(grids) < 3:
        raise ConfigError("need at least 3 grid resolutions")
    spec.validate_against(sched)
    grids = sorted(grids, key=lambda g: -float(np.max(g.step_widths(sched))))
    hs, errors, ses = [], [], []
    excluded, notes = [], []
    for g_idx, grid in enumerate(grids):
        h = float(np.max(grid.step_widths(sched)))
        res = sample(model, sched, grid, spec, stream, n_paths=n_paths)
        # each grid's exact law starts from its own top time
        oracle = _oracle_for(model, sched, float(grid.times[0]))
        terminal_t = float(grid.times[grid.n_steps - 1])
        term = res.terminal
        moments = []  # (largest error over the axes, its standard error) per power
        for p in test_powers:
            vals = term**p
            gap = np.abs(_block_mean(vals) - oracle.moment(terminal_t, p))
            axis = int(np.argmax(gap))
            moments.append((float(gap[axis]), float(np.std(vals[:, axis])) / math.sqrt(n_paths)))
        # errors under 3 standard errors are below the Monte Carlo floor; with
        # none above it the grid reports its largest raw difference but leaves
        # the fit.  max keeps the first largest error, (0, 0) if none is > 0.
        resolved = [m for m in moments if not m[0] < 3.0 * m[1]]
        err_best, se_best = max([(0.0, 0.0)] + (resolved or moments), key=lambda m: m[0])
        if not resolved:
            excluded.append(g_idx)
            notes.append(f"grid {g_idx} (h={h:.4g}): all moment errors below 3*SE, excluded")
        hs.append(h)
        errors.append(err_best)
        ses.append(se_best)
    kept = [i for i in range(len(grids)) if i not in excluded]
    if len(kept) >= 2:
        slope, intercept, r2, slope_se = fit_loglog([hs[i] for i in kept],
                                                    [errors[i] for i in kept])
        _stability_note([hs[i] for i in kept], [errors[i] for i in kept], slope, notes)
    else:
        slope = intercept = r2 = slope_se = math.nan
        notes.append("fewer than 2 points above the Monte Carlo floor; no fit")
    return OrderEstimate("weak", hs, errors, ses, n_paths, slope, intercept, r2,
                         slope_se, excluded=excluded, notes=notes)


def _stability_note(hs, errors, slope, notes) -> None:
    """Flag fits whose slope moves by >= 0.05 when the largest h is dropped."""
    if len(hs) < 3:
        return
    order = np.argsort(hs)[::-1]
    rest = [int(i) for i in order[1:]]
    slope_rest, _, _, _ = fit_loglog([hs[i] for i in rest], [errors[i] for i in rest])
    if abs(slope_rest - slope) >= 0.05:
        notes.append(
            f"regression instability: slope moves from {slope:.3f} to {slope_rest:.3f} "
            "when the largest h point is dropped"
        )


def per_step_compare(spec_a: SolverSpec, spec_b: SolverSpec, model, sched,
                     grid: StepGrid, stream, zero_noise=False) -> float:
    """Max relative state difference between two solvers on shared draws.

    Both trajectories start from the same initial draw, apply their own
    churn, and read the same stage-keyed substreams; with ``zero_noise`` the
    z draws are zeroed so only the deterministic parts are compared.
    """
    spec_a.validate_against(sched)
    spec_b.validate_against(sched)
    d = model.dim
    times = grid.times
    sbar0 = sched.alpha_sigma(float(times[0]))[2]
    x0 = sbar0 * stream.normal_paths(1, 0, 0, d)
    xa = x0.copy()
    xb = x0.copy()
    max_rel = 0.0
    for i in range(1, grid.n_steps):
        s, t = float(times[i - 1]), float(times[i])
        draws = ZeroStepDraws((1, d)) if zero_noise else StepDraws(stream, i, 1, d)
        xa = step_with_churn(spec_a, model, sched, xa, s, t, draws, grid.n_steps)
        xb = step_with_churn(spec_b, model, sched, xb, s, t, draws, grid.n_steps)
        scale = max(float(np.max(np.abs(xa))), float(np.max(np.abs(xb))))
        if scale > 0.0:
            max_rel = max(max_rel, float(np.max(np.abs(xa - xb))) / scale)
    return max_rel


@dataclass
class MomentReport:
    """Terminal sample moments next to their targets, with standard errors."""

    n_paths: int
    mean: np.ndarray
    mean_se: np.ndarray
    target_mean: np.ndarray
    cov_diag: np.ndarray
    cov_diag_se: np.ndarray
    target_cov_diag: np.ndarray
    skewness: np.ndarray
    skewness_se: float

    def mean_within(self, n_se: float) -> bool:
        return bool(np.all(np.abs(self.mean - self.target_mean) <= n_se * self.mean_se))

    def cov_within(self, rel_tol: float) -> bool:
        return bool(np.all(np.abs(self.cov_diag - self.target_cov_diag)
                           <= rel_tol * self.target_cov_diag))

    def skew_within(self, n_se: float) -> bool:
        return bool(np.all(np.abs(self.skewness) <= n_se * self.skewness_se))


def terminal_distribution_check(spec: SolverSpec, model, sched, grid: StepGrid,
                                n_paths: int, stream) -> MomentReport:
    """Sample backward and compare terminal moments with the exact flow."""
    oracle = _oracle_for(model, sched, float(grid.times[0]))
    res = sample(model, sched, grid, spec, stream, n_paths=n_paths)
    terminal_t = float(grid.times[grid.n_steps - 1])
    x = res.terminal
    mean = _block_mean(x)
    mean_se = np.std(x, axis=0) / math.sqrt(n_paths)
    centered = x - mean
    cov_diag = _block_mean(centered * centered)
    cov_diag_se = np.std(centered * centered, axis=0) / math.sqrt(n_paths)
    std = np.sqrt(cov_diag)
    skew = _block_mean(centered**3) / std**3
    return MomentReport(
        n_paths=n_paths,
        mean=mean,
        mean_se=mean_se,
        target_mean=oracle.mean(terminal_t),
        cov_diag=cov_diag,
        cov_diag_se=cov_diag_se,
        target_cov_diag=oracle.var(terminal_t),
        skewness=skew,
        skewness_se=math.sqrt(6.0 / n_paths),
    )
