"""Convergence-order estimation and solver-equivalence checks.

Both order estimators run their paths through the fan-out (``fanout``), and
no path's bytes depend on its chunk: draws are keyed by absolute path index,
every step computes a path's row from that row alone, and the chunks are
joined in path order before any moment is taken.

Strong order is measured by coupled refinement: all grid levels share one
Brownian path per trajectory, realized as fine-level weighted increments
whose group sums give the coarse-level increments, and the finest level
serves as the reference solution; each chunk walks every level from its
own initial rows.  Each level is a ``walk`` over its own ``StepPlan``, the
steps ``sample`` walks.  One pass over the fine steps draws each fine
increment, adds it to one running sum per level, never holding the fine
path, and hands each level due to step its sum's draw as a plain
{stage: array} mapping.  Weak order compares terminal moments against
the exact law: each chunk walks every grid's ``StepPlan``, built
once, in lockstep from the grid's own initial rows, and step i's keyed draws
are made once for every grid that has a step i.  Moment reductions are done
block by block (fixed 1024-path blocks), so results do not depend on how paths
are partitioned across workers.  Every plan is built on the model and keeps it,
so a chunk carries only plans and stream, and pickles the model once, through them.
Each judge (weak order, the terminal check and strong order's reference check) reads
one exact law, ``_exact_law(plan)`` at the plan's last real time, through ``_moment``.
"""

import collections
import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, as_integer
from .fanout import fan_out, path_chunks
from .grids import StepGrid, linear_lambda_grid
from .models import DataDistribution
from .noise import BLOCK, raw_increment_var
from .schedules import SDE
from .solvers import SolverSpec, StepDraws, StepPlan, lockstep, sample, walk


@dataclass
class OrderEstimate:
    """(step size, error) pairs with the fitted log-log slope."""

    kind: str
    h_values: list
    errors: list
    ses: list
    n_paths: int
    slope: float
    r2: float
    slope_se: float
    excluded: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {k: None if math.isnan(v) else v for k, v in
                   (("slope", self.slope), ("r2", self.r2), ("slope_se", self.slope_se))}
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


def _moment(law, power: int):
    """Per-axis raw moment E[x^power] of a mixture law (weights, means, variances), for
    power in {1, 2, 4}."""
    w, mu, var = law
    if power == 1:
        return w @ mu
    if power == 2:
        return w @ (mu * mu + var)
    if power == 4:
        return w @ (mu**4 + 6.0 * mu * mu * var + 3.0 * var * var)
    raise ConfigError(f"unsupported moment power {power!r}")


def _variance(law):
    """Per-axis variance E[x^2] - m m, m = E[x], of a mixture law."""
    m = _moment(law, 1)
    return _moment(law, 2) - m * m


def _pushed(data: DataDistribution, sched, t):
    """The data pushed to time t, sum_k w_k N(alpha m_k, alpha^2 V_k + sigma_bar^2), as a law."""
    return (data.weights, *data.marginal(sched, t))


class GaussianFlowOracle:
    """Exact moments of the flow started from a Gaussian mixture, in closed form."""

    def __init__(self, data: DataDistribution, sched):
        self.data, self.sched = data, sched

    def mean(self, t):
        return self.moment(t, 1)

    def var(self, t):
        return _variance(_pushed(self.data, self.sched, t))

    def moment(self, t, power: int):
        """Per-axis raw moment E[x^power] for power in {1, 2, 4}."""
        return _moment(_pushed(self.data, self.sched, t), power)


def _exact_law(plan):
    """The law the plan's walk targets at its last real time, ``plan.rows[-1][0]``, as a
    mixture (weights, means, variances): a mixture model's data pushed there.  When the
    model's term vanishes it is the linear flow: from N(0, sigma_bar_0^2 I) at the plan's
    top time t0, centered Gaussian with variance (alpha_t/alpha_0)^2 sigma_bar_0^2, plus the
    reverse SDE's sigma_bar_t^2 (e^{2(lambda_t - lambda_0)} - 1) when its steps take draws."""
    sched, t = plan.model.sched, plan.rows[-1][0]
    if hasattr(plan.model, "data"):
        return _pushed(plan.model.data, sched, t)
    if sched.family == "edm":  # EDM preconditions the network output
        raise ConfigError("the zero model has no exact law on EDM: its noise_pred == 0 is the "
                          "network of N(0, sigma_data^2 I) data, its data_pred == x the score-0 "
                          "model")
    a0, _, sbar0 = sched.alpha_sigma(plan.top)
    a_t, _, sbar_t = sched.alpha_sigma(t)
    var = (a_t / a0) ** 2 * sbar0**2
    if plan.spec.form.takes_draws:
        var += sbar_t**2 * math.expm1(2.0 * (sched.lambda_of_t(t) - sched.lambda_of_t(plan.top)))
    return np.ones(1), np.zeros((1, plan.model.dim)), np.full((1, plan.model.dim), var)


# the most steps strong order's finest (reference) grid may have: every chunk walks
# them all, and the plans hold a row per step of every level
_MAX_FINE_STEPS = 4096


def _block_mean(values: np.ndarray) -> np.ndarray:
    """Partition-independent mean: per-block sums first, then across blocks."""
    n = values.shape[0]
    sums = [values[i : i + BLOCK].sum(axis=0) for i in range(0, n, BLOCK)]
    return np.sum(sums, axis=0) / n


def strong_order(spec: SolverSpec, model, base_steps: int, refinements: int, n_paths: int,
                 stream, ref_extra: int = 2, workers: int = 1) -> OrderEstimate:
    """Coupled-refinement strong-order estimate for the one-stage solver.

    Builds ``refinements`` nested uniform-lambda grids by halving, plus a
    reference level ``ref_extra`` further halvings down, each walked by
    ``walk`` on its own ``StepPlan`` (built once) from one initial state.
    Each chunk of paths (``path_chunks``, run by ``fan_out`` on ``workers``
    processes) makes one pass over the fine steps, which moves the reference
    and every level together: each reference draw's increment is added to
    every level's running sum, and a level steps on its sum whenever its
    stride divides the fine step count.
    The error at a level is sqrt(E[sup over its nodes |x - reference|^2])
    over [t_min, t_max].  A ConfigError names base_steps and refinements when the
    reference grid would have more than ``_MAX_FINE_STEPS`` steps, and a
    DomainError names the first level whose error or standard error is not finite.
    """
    if spec.family != "seeds1" or spec.mode != "np":
        raise ConfigError("the strong-order claim covers only the one-stage solver (seeds1, np)")
    if spec.churn is not None:
        raise ConfigError("strong order takes no churn: its noise is off the coupled Brownian path")
    n_paths = as_integer("path count", n_paths)
    base_steps, refinements, ref_extra = (as_integer(f"order {key}", value) for key, value in (
        ("base_steps", base_steps), ("refinements", refinements), ("ref_extra", ref_extra)))
    if refinements < 3:
        raise ConfigError("need at least 3 refinement levels")
    if base_steps < 1:
        raise ConfigError(f"need base_steps >= 1, got {base_steps}")
    if ref_extra < 1:
        raise ConfigError("reference must sit at least one halving below the finest level")
    halvings = refinements - 1 + ref_extra   # the reference has base_steps * 2**halvings steps
    if halvings > _MAX_FINE_STEPS.bit_length() or base_steps << halvings > _MAX_FINE_STEPS:
        raise ConfigError(f"order base_steps {base_steps} and order refinements {refinements} ask "
                          f"for a reference grid of {base_steps} * 2**{halvings} steps; at most "
                          f"{_MAX_FINE_STEPS}")
    chunks = path_chunks(n_paths, workers)
    sched = model.sched

    ratio = 2**halvings             # fine steps per level-0 step
    m_fine = base_steps * ratio
    t_fine = linear_lambda_grid(m_fine, sched.t_min, sched.t_max, sched).times
    strides = [1] + [ratio >> lvl for lvl in range(refinements)]   # the reference first
    # the sentinel 0 makes t_min the end of each level's last real step
    plans = [StepPlan(spec, model, StepGrid(np.append(t_fine[::k], 0.0))) for k in strides]
    lams = [sched.lambda_of_t(t, SDE) for t in t_fine.tolist()]

    run = functools.partial(_coupled_chunk, stream, plans, strides, lams)
    sups, refs = zip(*fan_out(run, chunks, workers))
    sup_sq, ref = np.concatenate(sups, axis=1), np.concatenate(refs)

    hs = [(lams[-1] - lams[0]) / (base_steps * 2**lvl) for lvl in range(refinements)]
    errors, ses = [], []
    for lvl, h in enumerate(hs):
        mean_sq = float(_block_mean(sup_sq[lvl]))
        err = math.sqrt(mean_sq)
        with np.errstate(over="ignore"):   # an inf is named by the check below
            se_mean = float(np.std(sup_sq[lvl])) / math.sqrt(n_paths)
        se = se_mean / (2.0 * err) if err > 0 else 0.0
        # finite states can still square past float max
        if not (math.isfinite(err) and math.isfinite(se)):
            raise DomainError(f"strong order level {lvl} (h={h!r}) has error {err!r} and "
                              f"standard error {se!r}; both must be finite")
        ses.append(se)
        errors.append(err)

    notes = []
    if max(errors) < 1e-12:
        notes.append("errors at rounding level; scheme is exact on this problem")
        return OrderEstimate("strong", hs, errors, ses, n_paths, math.nan, math.nan, math.nan,
                             notes=notes)
    slope, _, r2, slope_se = fit_loglog(hs, errors)
    if slope_se > 0.1:
        notes.append(f"slope standard error {slope_se:.3f} > 0.1; increase n_paths")
    _stability_note(hs, errors, slope, notes)
    # reference sanity: finest-level terminal moments vs the exact flow
    exp_mean = _moment(_exact_law(plans[0]), 1)
    se = np.std(ref, axis=0) / math.sqrt(n_paths)
    if np.any(np.abs(_block_mean(ref) - exp_mean) > 5.0 * se):
        notes.append("reference terminal mean off by more than 5 SE")
    return OrderEstimate("strong", hs, errors, ses, n_paths, slope, r2, slope_se, notes=notes)


def _coupled_chunk(stream, plans, strides, lams, offset: int, count: int):
    """The coupled walks of paths offset..offset+count-1: each measured level's sup
    over its nodes of |x - reference|^2, shape (levels, count), and the reference's
    terminal states.  Fine step j's unit draw z is keyed on (step j, stage 0); its raw
    increment sqrt(raw_increment_var) z starts the running sum of every level whose
    stride k divides j - 1 and is added in place to every other's, so a level steps on
    the sum of its k increments, added in order, over their standard deviation.  A
    chunk holds one (count, d) sum per level, whatever the strides."""
    # x_T and the reference plan's table: every level evaluates at fine nodes
    [x0] = next(lockstep(plans[:1], StepDraws(stream, count, plans[0].model.dim, offset)))
    sums = np.empty((len(strides) - 1, *x0.shape))
    # each walk reads ``draws``, set just before its next step
    walks = [walk(plan, lambda i: draws, x0) for plan in plans]
    sup_sq = np.zeros((len(strides) - 1, count))
    for j in range(1, len(lams)):
        z = stream.normal_paths(count, j, 0, x0.shape[1], offset)
        inc = math.sqrt(raw_increment_var(lams[j - 1], lams[j])) * z
        draws = {1: z}
        ref = next(walks[0])
        for lvl, k in enumerate(strides[1:]):
            if (j - 1) % k == 0:
                sums[lvl] = inc
            else:
                sums[lvl] += inc
            if j % k == 0:
                draws = {1: sums[lvl] / math.sqrt(raw_increment_var(lams[j - k], lams[j]))}
                diff = next(walks[lvl + 1]) - ref
                sup_sq[lvl] = np.maximum(sup_sq[lvl], np.sum(diff * diff, axis=-1))
    return sup_sq, ref


def _weak_chunk(stream, plans, offset: int, count: int):
    """The terminal states of paths offset..offset+count-1 on each plan's grid: one
    ``lockstep`` group on one ``StepDraws``, so each step's draws are made once for
    every grid that has that step.  A shorter grid's terminal is its last step's."""
    for last in lockstep(plans, StepDraws(stream, count, plans[0].model.dim, offset)):
        pass
    return last


def weak_order(spec: SolverSpec, model, grids, n_paths: int, stream,
               workers: int = 1) -> OrderEstimate:
    """Moment-error weak-order estimate over a list of grids.

    error(h) = max over the powers p = 1, 2, 4 of |E[x^p] - E_exact[x^p]| at
    the final real node; points whose error is below 3 Monte Carlo standard
    errors are excluded from the fit and recorded.  Each grid's plan is built
    once here, and each chunk of paths is one task of a single ``fan_out`` on
    ``workers`` processes, no more than chunks, that walks every grid
    (``_weak_chunk``).
    """
    if len(grids) < 3:
        raise ConfigError("need at least 3 grid resolutions")
    n_paths = as_integer("path count", n_paths)
    chunks = path_chunks(n_paths, workers)
    plans = [StepPlan(spec, model, grid) for grid in grids]   # a grid needs a real step
    widths = [float(np.max(grid.step_widths(model.sched))) for grid in grids]
    widths, plans = map(list, zip(*sorted(zip(widths, plans), key=lambda pair: -pair[0])))
    if len(set(widths)) < len(widths):
        raise ConfigError(f"weak order needs distinct largest step widths, got {widths}")
    run = functools.partial(_weak_chunk, stream, plans)
    terminals = fan_out(run, chunks, workers)   # per chunk, each grid's terminal states
    errors, ses, excluded, notes = [], [], [], []
    for g_idx, (h, plan) in enumerate(zip(widths, plans)):
        law = _exact_law(plan)   # each grid's exact law starts from its own top
        term = np.concatenate([chunk[g_idx] for chunk in terminals])   # one grid at a time
        moments = []  # (largest error over the axes, its standard error) per power
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite one is named below
            for p in (1, 2, 4):
                vals = term**p
                gap = np.abs(_block_mean(vals) - _moment(law, p))
                axis = int(np.argmax(gap))
                moments.append((float(gap[axis]),
                                float(np.std(vals[:, axis])) / math.sqrt(n_paths)))
        if not np.isfinite(moments).all():   # an exact or a sample moment past float max
            raise DomainError(f"weak order grid {g_idx} (h={h!r}) has moment errors and standard "
                              f"errors {moments!r}; all must be finite")
        # errors under 3 standard errors are below the Monte Carlo floor; with
        # none above it the grid reports its largest raw difference but leaves
        # the fit.  max keeps the first largest error, (0, 0) if none is > 0.
        resolved = [m for m in moments if not m[0] < 3.0 * m[1]]
        err_best, se_best = max([(0.0, 0.0)] + (resolved or moments), key=lambda m: m[0])
        if not resolved:
            excluded.append(g_idx)
            notes.append(f"grid {g_idx} (h={h:.4g}): all moment errors below 3*SE, excluded")
        errors.append(err_best)
        ses.append(se_best)
    kept = [i for i in range(len(plans)) if i not in excluded]
    if len(kept) >= 2:
        slope, _, r2, slope_se = fit_loglog([widths[i] for i in kept], [errors[i] for i in kept])
        _stability_note([widths[i] for i in kept], [errors[i] for i in kept], slope, notes)
    else:
        slope = r2 = slope_se = math.nan
        notes.append("fewer than 2 points above the Monte Carlo floor; no fit")
    return OrderEstimate("weak", widths, errors, ses, n_paths, slope, r2, slope_se,
                         excluded=excluded, notes=notes)


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


def per_step_compare(spec_a: SolverSpec, spec_b: SolverSpec, model, grid: StepGrid, stream,
                     zero_noise=False) -> float:
    """Max relative state difference between two solvers on shared draws.

    Both trajectories are one ``lockstep`` group: they start from the same
    initial draw and walk the grid, each applying its own churn and reading one
    ``StepDraws`` mapping per step, so each stage-keyed draw is made once; with
    ``zero_noise`` every draw after the initial one (churn included) is zero,
    so only the deterministic parts are compared.  A step that leaves a
    non-finite state on either side raises DomainError.
    """
    plans = [StepPlan(spec_a, model, grid), StepPlan(spec_b, model, grid)]
    drawn = StepDraws(stream, 1, model.dim)
    zero = collections.defaultdict(lambda: np.zeros((1, model.dim)))   # churn's too
    draws_at = (lambda i: drawn(0) if i == 0 else zero) if zero_noise else drawn
    _, *stepped = lockstep(plans, draws_at)   # the shared x_T, then each step's pair
    max_rel = 0.0
    for xa, xb in stepped:
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
    target_cov_diag: np.ndarray
    skewness: np.ndarray
    skewness_se: float


def terminal_distribution_check(spec: SolverSpec, model, grid: StepGrid, n_paths: int,
                                stream) -> MomentReport:
    """Compare the terminal moments of ``sample`` on the grid's one plan with its exact law."""
    n_paths = as_integer("path count", n_paths)
    if n_paths == 1:   # the skewness would divide by a zero SD
        raise ConfigError("the terminal check needs at least two paths, got 1")
    plan = StepPlan(spec, model, grid)
    law = _exact_law(plan)
    x = sample(plan, stream, n_paths).terminal
    mean = _block_mean(x)
    mean_se = np.std(x, axis=0) / math.sqrt(n_paths)
    centered = x - mean
    cov_diag = _block_mean(centered * centered)
    std = np.sqrt(cov_diag)
    skew = _block_mean(centered**3) / std**3
    return MomentReport(
        n_paths=n_paths,
        mean=mean,
        mean_se=mean_se,
        target_mean=_moment(law, 1),
        cov_diag=cov_diag,
        target_cov_diag=_variance(law),
        skewness=skew,
        skewness_se=math.sqrt(6.0 / n_paths),
    )
