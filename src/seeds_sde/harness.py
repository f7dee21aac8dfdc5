"""Convergence-order estimation, solver-equivalence checks and the path fan-out.

The fan-out splits paths 0..n-1 into chunks by one rule (``path_chunks``)
and maps a task over them (``fan_out``): in this process at one worker, on a
fork process pool otherwise.  ``seeds-sde sample`` and both order estimators
run through it, and no path's bytes depend on its chunk: draws are keyed by
absolute path index, every step computes a path's row from that row alone,
and the chunks are joined in path order before any moment is taken.

Strong order is measured by coupled refinement: all grid levels share one
Brownian path per trajectory, realized as fine-level weighted increments
whose group sums give the coarse-level increments, and the finest level
serves as the reference solution; each chunk walks every level from its
own initial rows.  Each level is a ``walk`` over its own
``StepPlan``, the steps ``sample`` runs, and one pass over the fine steps
moves every level, holding a window of the last ``ratio`` increments
(one coarsest step), never the whole fine path.  Weak order
compares terminal moments against the closed-form Gaussian flow.  Moment
reductions are done block by block (fixed 1024-path blocks) so results do
not depend on how paths are partitioned across workers.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .grids import StepGrid, linear_lambda_grid
from .models import DataDistribution
from .noise import BLOCK, raw_increment_var
from .solvers import SolverSpec, StepPlan, initial_state, prepare_model, sample, walk


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


def path_chunks(n_paths: int) -> list:
    """(offset, count) of each chunk of paths 0..n_paths-1, in path order: the fewest
    chunks of at most ``_CHUNK`` paths, each the same whole number of ``BLOCK``-path draw
    blocks, the last holding the rest."""
    n_chunks = -(-n_paths // _CHUNK)
    size = -(-n_paths // (n_chunks * BLOCK)) * BLOCK
    return [(offset, min(size, n_paths - offset)) for offset in range(0, n_paths, size)]


def fan_out(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks]: in this process at one worker, otherwise on a
    fork process pool of at most ``workers`` processes, and no more than there are
    tasks (the pool starts every worker when it opens).  A task's exception is
    raised here."""
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
    over [t_min, t_max].
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
    spec.validate_against(sched)
    eps_end, t_top = sched.t_min, sched.t_max

    n_levels = refinements          # measured levels 0..refinements-1
    ratio = 2 ** (n_levels - 1 + ref_extra)   # fine steps per level-0 step
    m_fine = base_steps * ratio
    t_fine = linear_lambda_grid(m_fine, eps_end, t_top, sched).times
    strides = [1] + [ratio >> lvl for lvl in range(n_levels)]   # the reference first
    # the sentinel 0 makes t_min the end of each level's last real step
    plans = [StepPlan(spec, sched, StepGrid(np.append(t_fine[::k], 0.0))) for k in strides]
    lams = [plans[0].levels[t] for t in t_fine.tolist()]   # the reference's lambda per node

    run = functools.partial(_coupled_chunk, spec, model, sched, stream, plans, strides, lams)
    sups, refs = zip(*fan_out(run, path_chunks(n_paths), workers))
    sup_sq, ref = np.concatenate(sups, axis=1), np.concatenate(refs)

    hs = [(lams[-1] - lams[0]) / (base_steps * 2**lvl) for lvl in range(n_levels)]
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
    exp_mean = _oracle_for(model, sched, t_top).mean(eps_end)
    se = np.std(ref, axis=0) / math.sqrt(n_paths)
    if np.any(np.abs(_block_mean(ref) - exp_mean) > 5.0 * se):
        notes.append("reference terminal mean off by more than 5 SE")
    return OrderEstimate("strong", hs, errors, ses, n_paths, slope, intercept, r2,
                         slope_se, notes=notes)


def _coupled_chunk(spec, model, sched, stream, plans, strides, lams, offset: int,
                   count: int):
    """The coupled walks of paths offset..offset+count-1: each measured level's sup
    over its nodes of |x - reference|^2, shape (levels, count), and the reference's
    terminal states."""
    x0 = initial_state(sched, sched.t_max, stream, count, model.dim, offset)
    prepare_model(model, plans[0].times())   # every level evaluates at fine nodes
    window = np.empty((strides[1], *x0.shape))   # one level-0 step of fine increments
    walks = [walk(model, sched, spec, plan, _CoupledStream(stream, lams, window, k), x0, offset)
             for plan, k in zip(plans, strides)]
    sup_sq = np.zeros((len(strides) - 1, count))
    for j in range(1, len(lams)):
        ref = next(walks[0])
        for lvl, k in enumerate(strides[1:]):
            if j % k == 0:
                diff = next(walks[lvl + 1]) - ref
                sup_sq[lvl] = np.maximum(sup_sq[lvl], np.sum(diff * diff, axis=-1))
    return sup_sq, ref


def _terminal(spec, model, sched, stream, grid, offset: int, count: int):
    """The terminal states of paths offset..offset+count-1 sampled over the grid."""
    return sample(model, sched, grid, spec, stream, n_paths=count, path_offset=offset).terminal


def weak_order(spec: SolverSpec, model, sched, grids, n_paths: int, stream,
               workers: int = 1) -> OrderEstimate:
    """Moment-error weak-order estimate over a list of grids.

    error(h) = max over the powers p = 1, 2, 4 of |E[x^p] - E_exact[x^p]| at
    the final real node; points whose error is below 3 Monte Carlo standard
    errors are excluded from the fit and recorded.  Every (grid, chunk) pair
    is one task of a single ``fan_out`` on ``workers`` processes, and no more
    processes than chunks.
    """
    if len(grids) < 3:
        raise ConfigError("need at least 3 grid resolutions")
    spec.validate_against(sched)
    grids = sorted(grids, key=lambda g: -float(np.max(g.step_widths(sched))))
    widths = [float(np.max(g.step_widths(sched))) for g in grids]
    if len(set(widths)) < len(widths):
        raise ConfigError(f"weak order needs distinct largest step widths, got {widths}")
    chunks = path_chunks(n_paths)
    run = functools.partial(_terminal, spec, model, sched, stream)
    # no more workers than chunks, as sample: a run of one chunk starts no pool
    terminals = fan_out(run, [(grid, *chunk) for grid in grids for chunk in chunks],
                        min(workers, len(chunks)))
    hs, errors, ses = [], [], []
    excluded, notes = [], []
    for g_idx, (h, grid) in enumerate(zip(widths, grids)):
        # each grid's exact law starts from its own top time
        oracle = _oracle_for(model, sched, float(grid.times[0]))
        terminal_t = float(grid.times[grid.n_steps - 1])
        term = np.concatenate(terminals[g_idx * len(chunks) : (g_idx + 1) * len(chunks)])
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


class _ZeroStream:
    """Stands in for the stream after the initial draw: every draw is zero."""

    def normal_paths(self, n: int, step: int, stage: int, d: int, offset: int = 0):
        return np.zeros((n, d))


class _CoupledStream:
    """Stands in for the stream at one coupled level.  At stride 1 (the reference) step
    j returns fine increment j's unit draw, keyed on (step j, stage 0), and keeps its raw
    weighted increment sqrt(raw_increment_var) z in the shared window; at stride k a
    step's draw is the sum of its k window increments, added in order, over their
    standard deviation."""

    def __init__(self, stream, lams, window, stride: int):
        self.stream, self.lams, self.window, self.stride = stream, lams, window, stride

    def normal_paths(self, n: int, step: int, stage: int, d: int, offset: int = 0):
        end = step * self.stride   # the fine node the step ends at
        std = math.sqrt(raw_increment_var(self.lams[end - self.stride], self.lams[end]))
        k = (end - 1) % len(self.window) + 1   # the window slot after the step's last increment
        if self.stride == 1:
            z = self.stream.normal_paths(n, step, 0, d, offset)
            self.window[k - 1] = std * z
            return z
        # not sum(axis=0): NumPy adds pairwise on one path in d = 1, in order otherwise
        increments = self.window[k - self.stride : k]
        total = increments[0] + increments[1]
        for inc in increments[2:]:
            total += inc
        return total / std


def per_step_compare(spec_a: SolverSpec, spec_b: SolverSpec, model, sched,
                     grid: StepGrid, stream, zero_noise=False) -> float:
    """Max relative state difference between two solvers on shared draws.

    Both trajectories start from the same initial draw and walk the grid in
    lockstep, each applying its own churn and reading the same stage-keyed
    substreams; with ``zero_noise`` every draw after the initial one (churn
    included) is zero, so only the deterministic parts are compared.  A step
    that leaves a non-finite state on either side raises DomainError.
    """
    spec_a.validate_against(sched)
    spec_b.validate_against(sched)
    x0 = initial_state(sched, float(grid.times[0]), stream, 1, model.dim)
    plan_a, plan_b = StepPlan(spec_a, sched, grid), StepPlan(spec_b, sched, grid)
    # one table for both walks: they run in lockstep, so one per walk would evict the other
    prepare_model(model, plan_a.times() + plan_b.times())
    steps_stream = _ZeroStream() if zero_noise else stream
    max_rel = 0.0
    for xa, xb in zip(walk(model, sched, spec_a, plan_a, steps_stream, x0),
                      walk(model, sched, spec_b, plan_b, steps_stream, x0)):
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
