"""Convergence-order estimation, solver-equivalence checks and the path fan-out.

The fan-out splits paths 0..n-1 into chunks by one rule (``path_chunks``:
no chunk over 8192 paths, and one chunk per worker where there is a full
1024-path block for each) and maps a task over them (``fan_out``): in this
process at one worker, on a fork process pool otherwise.  ``seeds-sde
sample`` and both order estimators run through it, and no path's bytes
depend on its chunk: draws are keyed by absolute path index, every step
computes a path's row from that row alone, and the chunks are joined in path
order before any moment is taken.

Strong order is measured by coupled refinement: all grid levels share one
Brownian path per trajectory, realized as fine-level weighted increments
whose group sums give the coarse-level increments, and the finest level
serves as the reference solution; each chunk walks every level from its
own initial rows.  Each level is a ``walk`` over its own ``StepPlan``, the
steps ``sample`` runs.  One pass over the fine steps draws each fine
increment, holds a window of the last ``ratio`` of them (one coarsest step),
never the whole fine path, and hands each level due to step its draw as a
plain {stage: array} mapping.  Weak order compares terminal moments against
the closed-form Gaussian flow: each chunk walks every grid's ``StepPlan``, built
once, in lockstep from the grid's own initial rows, and step i's keyed draws
are made once for every grid that has a step i.  Moment reductions are done
block by block (fixed 1024-path blocks), so results do not depend on how paths
are partitioned across workers.  Each walk reads its solver and schedule from its
``StepPlan``, which checks them when built, so a chunk carries only plans, model and stream.
"""

import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .grids import StepGrid, linear_lambda_grid
from .models import DataDistribution
from .noise import BLOCK, raw_increment_var
from .solvers import SolverSpec, StepDraws, StepPlan, initial_state, prepare_model, sample, walk


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


class GaussianFlowOracle:
    """Exact marginals of the flow started from a Gaussian mixture.

    At time t the marginal is sum_k w_k N(alpha m_k, alpha^2 V_k +
    sigma_bar^2), which yields every polynomial moment in closed form.
    """

    def __init__(self, data: DataDistribution, sched):
        self.data = data
        self.sched = sched

    def component_moments(self, t):
        return (self.data.weights, *self.data.marginal(self.sched, t))

    def mean(self, t):
        return self.moment(t, 1)

    def var(self, t):
        m = self.moment(t, 1)
        return self.moment(t, 2) - m * m

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
    """The exact flow of the model's data, or of the zero model from t_top."""
    if hasattr(model, "data"):
        return GaussianFlowOracle(model.data, sched)
    if sched.family == "edm":  # EDM preconditions the network output
        raise ConfigError("the zero model has no exact law on EDM: its noise_pred == 0 is the "
                          "network of N(0, sigma_data^2 I) data, its data_pred == x the score-0 "
                          "model")
    return ZeroFlowOracle(sched, t_top, d=model.dim)


_CHUNK = 8192   # the most paths one task of the fan-out holds
# the most steps strong order's finest (reference) grid may have: a chunk's window
# holds up to that many fine increments per path
_MAX_FINE_STEPS = 4096


def path_chunks(n_paths: int, workers: int) -> list:
    """(offset, count) of each chunk of paths 0..n_paths-1, in path order.

    There are as many chunks as the larger of ceil(n_paths / ``_CHUNK``) and
    min(workers, full ``BLOCK``-path draw blocks), so no chunk holds more than
    ``_CHUNK`` paths and no worker gets less than a full block; the blocks are dealt
    out as evenly as they go, the partial block last.  A ConfigError names a path
    count below 1."""
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    n_chunks = max(-(-n_paths // _CHUNK), min(workers, n_paths // BLOCK))
    blocks = -(-n_paths // BLOCK)
    ends = [BLOCK * (i * blocks // n_chunks) for i in range(n_chunks)] + [n_paths]
    return [(start, end - start) for start, end in zip(ends, ends[1:])]


def fan_out(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks]: in this process at one worker, otherwise on a
    fork process pool of at most ``workers`` processes, and no more than there are
    tasks (the pool starts every worker when it opens); ``path_chunks`` at the same
    worker count gives each worker a chunk where the paths allow.  A task's
    exception is raised here."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    import concurrent.futures   # only a pool needs it

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _block_mean(values: np.ndarray) -> np.ndarray:
    """Partition-independent mean: per-block sums first, then across blocks."""
    n = values.shape[0]
    sums = [values[i : i + BLOCK].sum(axis=0) for i in range(0, n, BLOCK)]
    return np.sum(sums, axis=0) / n


def strong_order(spec: SolverSpec, model, sched, base_steps: int, refinements: int,
                 n_paths: int, stream, ref_extra: int = 2, workers: int = 1) -> OrderEstimate:
    """Coupled-refinement strong-order estimate for the one-stage solver.

    Builds ``refinements`` nested uniform-lambda grids by halving, plus a
    reference level ``ref_extra`` further halvings down, each walked by
    ``walk`` on its own ``StepPlan`` (built once) from one initial state.
    Each chunk of paths (``path_chunks``, run by ``fan_out`` on ``workers``
    processes) makes one pass over the fine steps, which moves the reference
    and every level together: the reference's draws fill a window of the
    last ``ratio`` fine increments (one level-0 step), and a level steps on
    its slice of the window whenever its stride divides the fine step count.
    The error at a level is sqrt(E[sup over its nodes |x - reference|^2])
    over [t_min, t_max].  A ConfigError names base_steps and refinements when the
    reference grid would have more than ``_MAX_FINE_STEPS`` steps, and a
    DomainError names the first level whose error or standard error is not finite.
    """
    if spec.family != "seeds1" or spec.mode != "np":
        raise ConfigError("the strong-order claim covers only the one-stage solver (seeds1, np)")
    if spec.churn is not None:
        raise ConfigError("strong order takes no churn: its noise is off the coupled Brownian path")
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
    eps_end, t_top = sched.t_min, sched.t_max

    n_levels = refinements          # measured levels 0..refinements-1
    ratio = 2**halvings             # fine steps per level-0 step
    m_fine = base_steps * ratio
    t_fine = linear_lambda_grid(m_fine, eps_end, t_top, sched).times
    strides = [1] + [ratio >> lvl for lvl in range(n_levels)]   # the reference first
    # the sentinel 0 makes t_min the end of each level's last real step
    plans = [StepPlan(spec, sched, StepGrid(np.append(t_fine[::k], 0.0))) for k in strides]
    lams = [plans[0].levels[t] for t in t_fine.tolist()]   # the reference's lambda per node

    run = functools.partial(_coupled_chunk, model, stream, plans, strides, lams)
    sups, refs = zip(*fan_out(run, chunks, workers))
    sup_sq, ref = np.concatenate(sups, axis=1), np.concatenate(refs)

    hs = [(lams[-1] - lams[0]) / (base_steps * 2**lvl) for lvl in range(n_levels)]
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
        return OrderEstimate("strong", hs, errors, ses, n_paths, math.nan, math.nan,
                             math.nan, math.nan, notes=notes)
    slope, intercept, r2, slope_se = fit_loglog(hs, errors)
    if slope_se > 0.1:
        notes.append(f"slope standard error {slope_se:.3f} > 0.1; increase n_paths")
    _stability_note(hs, errors, slope, notes)
    # reference sanity: finest-level terminal moments vs the exact flow
    exp_mean = _oracle_for(model, sched, t_top).mean(eps_end)
    se = np.std(ref, axis=0) / math.sqrt(n_paths)
    if np.any(np.abs(_block_mean(ref) - exp_mean) > 5.0 * se):
        notes.append("reference terminal mean off by more than 5 SE")
    return OrderEstimate("strong", hs, errors, ses, n_paths, slope, intercept, r2,
                         slope_se, notes=notes)


def _coupled_chunk(model, stream, plans, strides, lams, offset: int, count: int):
    """The coupled walks of paths offset..offset+count-1: each measured level's sup
    over its nodes of |x - reference|^2, shape (levels, count), and the reference's
    terminal states.  Fine step j's unit draw z is keyed on (step j, stage 0); its raw
    increment sqrt(raw_increment_var) z goes into the window, and a level of stride k
    steps on the sum of its k window increments, added in order, over their standard
    deviation."""
    sched = plans[0].sched
    x0 = initial_state(sched, sched.t_max, StepDraws(stream, count, model.dim, offset)(0))
    prepare_model(model, plans[0].times())   # every level evaluates at fine nodes
    window = np.empty((strides[1], *x0.shape))   # one level-0 step of fine increments
    # each walk reads ``draws``, set just before its next step
    walks = [walk(model, plan, lambda i: draws, x0) for plan in plans]
    sup_sq = np.zeros((len(strides) - 1, count))
    for j in range(1, len(lams)):
        z = stream.normal_paths(count, j, 0, model.dim, offset)
        window[(j - 1) % len(window)] = math.sqrt(raw_increment_var(lams[j - 1], lams[j])) * z
        draws = {1: z}
        ref = next(walks[0])
        for lvl, k in enumerate(strides[1:]):
            if j % k == 0:
                # not sum(axis=0): NumPy adds pairwise on one path in d = 1, in order otherwise
                increments = window[(j - k) % len(window):][:k]
                total = increments[0] + increments[1]
                for inc in increments[2:]:
                    total += inc
                draws = {1: total / math.sqrt(raw_increment_var(lams[j - k], lams[j]))}
                diff = next(walks[lvl + 1]) - ref
                sup_sq[lvl] = np.maximum(sup_sq[lvl], np.sum(diff * diff, axis=-1))
    return sup_sq, ref


def _weak_chunk(model, stream, tops, plans, offset: int, count: int):
    """The terminal states of paths offset..offset+count-1 on each plan's grid.  One
    table serves every walk; each walk starts from its grid's top time ``tops[g]``, and
    the walks advance in lockstep, so one ``StepDraws`` makes each step's draws once
    for every grid that has that step.  A shorter grid's terminal is its last step's."""
    prepare_model(model, [u for plan in plans for u in plan.times()])
    draws_at = StepDraws(stream, count, model.dim, offset)
    last = [initial_state(plans[0].sched, t0, draws_at(0)) for t0 in tops]
    walks = [walk(model, plan, draws_at, x0) for plan, x0 in zip(plans, last)]
    for states in itertools.zip_longest(*walks):
        last = [x if x is not None else prev for x, prev in zip(states, last)]
    return last


def weak_order(spec: SolverSpec, model, sched, grids, n_paths: int, stream,
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
    chunks = path_chunks(n_paths, workers)
    plans = [StepPlan(spec, sched, grid) for grid in grids]   # a grid needs a real step
    widths, grids, plans = map(list, zip(*sorted(
        ((float(np.max(g.step_widths(sched))), g, plan) for g, plan in zip(grids, plans)),
        key=lambda triple: -triple[0])))
    if len(set(widths)) < len(widths):
        raise ConfigError(f"weak order needs distinct largest step widths, got {widths}")
    tops = [float(grid.times[0]) for grid in grids]
    run = functools.partial(_weak_chunk, model, stream, tops, plans)
    terminals = fan_out(run, chunks, workers)   # per chunk, each grid's terminal states
    hs, errors, ses = [], [], []
    excluded, notes = [], []
    for g_idx, (h, grid) in enumerate(zip(widths, grids)):
        # each grid's exact law starts from its own top time
        oracle = _oracle_for(model, sched, float(grid.times[0]))
        terminal_t = float(grid.times[grid.n_steps - 1])
        term = np.concatenate([chunk[g_idx] for chunk in terminals])   # one grid at a time
        moments = []  # (largest error over the axes, its standard error) per power
        for p in (1, 2, 4):
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

    Both trajectories start from the same initial draw and walk the grid in
    lockstep, each applying its own churn and reading one ``StepDraws``
    mapping per step, so each stage-keyed draw is made once; with
    ``zero_noise`` every draw after the initial one (churn included) is zero,
    so only the deterministic parts are compared.  A step that leaves a
    non-finite state on either side raises DomainError.
    """
    plan_a, plan_b = StepPlan(spec_a, sched, grid), StepPlan(spec_b, sched, grid)
    drawn = StepDraws(stream, 1, model.dim)
    x0 = initial_state(sched, float(grid.times[0]), drawn(0))
    # one table for both walks: they run in lockstep, so one per walk would evict the other
    prepare_model(model, plan_a.times() + plan_b.times())
    zero = collections.defaultdict(lambda: np.zeros(x0.shape))   # every stage's, churn's too
    draws_at = (lambda i: zero) if zero_noise else drawn
    max_rel = 0.0
    for xa, xb in zip(walk(model, plan_a, draws_at, x0), walk(model, plan_b, draws_at, x0)):
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
    std = np.sqrt(cov_diag)
    skew = _block_mean(centered**3) / std**3
    return MomentReport(
        n_paths=n_paths,
        mean=mean,
        mean_se=mean_se,
        target_mean=oracle.mean(terminal_t),
        cov_diag=cov_diag,
        target_cov_diag=oracle.var(terminal_t),
        skewness=skew,
        skewness_se=math.sqrt(6.0 / n_paths),
    )
