"""Span tracer that wraps the public functions of each seeds_sde module.

Every wrapped call opens a span with an id, its parent's id (the innermost
open span), a name and a start time.  When the span closes, its duration is
added to the parent's child time, and the span is folded into per-name
totals (calls, inclusive time and self time, which is the duration minus
the time its child spans cover) and per (parent name, name) edge totals.  Folding at close keeps memory flat: one round of the
narrow workload opens about 300,000 spans.

A group's "top" time is the inclusive time of its spans that have no
ancestor in the same group, so nested calls inside one layer (for example
``step_once`` -> ``seeds3_step``) are not counted twice.

Wrapping replaces the defining attribute and every other binding of the same
object in the loaded ``seeds_sde`` modules (``from .phi import phi`` makes
``solvers.phi`` a separate binding that callers actually use).
"""

import functools
import sys
import time

import numpy as np

# group -> (module, attribute) pairs.  "Class.method" names wrap the method
# on that class and on every subclass that overrides it.  Names a later
# version of the package no longer defines are skipped, so their counts
# read 0 instead of breaking the run.
SPANS = {
    "cli": ("cli", ("main", "cmd_sample", "cmd_order", "cmd_compare", "cmd_grid",
                    "_run_chunk")),
    "config": ("config", ("load_config", "RunConfig.build_model", "RunConfig.build_grid",
                          "RunConfig.resolved")),
    "grids": ("grids", ("edm_grid", "linear_lambda_grid", "StepGrid.lambdas",
                        "StepGrid.step_widths")),
    "schedules": ("schedules", ("ScheduleBase.alpha_sigma", "ScheduleBase.lambda_of_t",
                                "ScheduleBase.t_of_lambda", "ScheduleBase.sigma_of_t",
                                "ScheduleBase.time_of_sigma")),
    "phi": ("phi", ("phi", "sqrt_exp_diff", "stable_expm1_combination",
                    "weighted_poly_integral")),
    "noise.draw": ("noise", ("RngStream.normal_paths", "RngStream.gauss")),
    # noise-coefficient algebra: kept out of the callers' self time
    "noise.algebra": ("noise", ("staged_noise_seeds3", "raw_increment_var")),
    "models.eval": ("models", ("ScoreModel.noise_pred", "ScoreModel.data_pred",
                               "ScoreModel.score_from_model", "ZeroModel.noise_pred",
                               "ZeroModel.data_pred", "ZeroModel.score_from_model")),
    "models.score": ("models", ("ScoreModel.score",)),
    "solvers.sample": ("solvers", ("sample",)),
    # one top-level span of this group is one solver step over a batch
    "solvers.step": ("solvers", ("step_once", "seeds1_step", "seeds2_step", "seeds3_step",
                                 "dpm_step", "_dpm4_step", "euler_maruyama_step",
                                 "exp_euler_step", "gddim_step", "ve_2stage_step")),
    "solvers.churn": ("solvers", ("churn_inject",)),
    # helpers called inside these (fits, oracles, block sums) are harness
    # code too, so leaving them unwrapped keeps their time in harness self time
    "harness": ("harness", ("strong_order", "weak_order", "per_step_compare",
                            "terminal_distribution_check")),
}

# names whose calls are network-style evaluations (one NFE per call)
NFE_CALLS = ("ScoreModel.noise_pred", "ScoreModel.data_pred",
             "ZeroModel.noise_pred", "ZeroModel.data_pred")


def _rows(arr) -> int:
    """Batch rows of an (..., d) array: the product of its leading axes."""
    arr = np.asarray(arr)
    return int(arr.size // arr.shape[-1]) if arr.ndim >= 1 and arr.shape[-1] else 1


class Tracer:
    """In-memory span recorder with per-name and per-group totals."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []       # open spans: [id, parent_id, name, child_s]
        self.next_id = 1
        self.names = {}       # name -> [calls, incl_s, self_s]
        self.edges = {}       # (parent name, name) -> [calls, incl_s]
        self.groups = {}      # group -> [top calls, top incl_s, self_s]
        self.depth = {}       # group -> open spans of that group
        self.counters = {}    # free-form exact counts

    def count(self, key: str, n) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name: str, group: str, post=None):
        """Return ``fn`` wrapped in a span; ``post(result)`` adds counts."""
        names = self.names.setdefault(name, [0, 0.0, 0.0])
        grp = self.groups.setdefault(group, [0, 0.0, 0.0])
        self.depth.setdefault(group, 0)
        stack, edges, depth, clock = self.stack, self.edges, self.depth, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [self.next_id, parent[0] if parent else 0, name, 0.0]
            self.next_id += 1
            stack.append(span)
            depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[group] -= 1
                if parent is not None:
                    parent[3] += dur
                self_s = dur - span[3]
                names[0] += 1
                names[1] += dur
                names[2] += self_s
                grp[2] += self_s
                if depth[group] == 0:
                    grp[0] += 1
                    grp[1] += dur
                edge = edges.setdefault((parent[2] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += dur
            if post is not None:
                post(result)
            return result

        return wrapper

    def counting(self, fn, post):
        """Wrap ``fn`` without a span, only to count its results."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(result)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "names": self.names,
            "groups": self.groups,
            "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(self.edges.items())],
            "counters": self.counters,
        }


def _rebind(old, new) -> None:
    """Point every binding of ``old`` in the loaded seeds_sde modules at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "seeds_sde" or mod_name.startswith("seeds_sde.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _post_for(tracer: Tracer, name: str):
    if name in NFE_CALLS:
        return lambda res: tracer.count("models.rows", _rows(res))
    if name == "RngStream.normal_paths":
        return lambda res: tracer.count("noise.rows_used", _rows(res))
    if name == "RngStream.gauss":
        return lambda res: tracer.count("noise.rows_used", 1)
    return None


def _wrap_method(tracer, cls, meth, name, group) -> None:
    for sub in [cls] + _all_subclasses(cls):
        fn = sub.__dict__.get(meth)
        if fn is None or not callable(fn):
            continue
        sub_name = name if sub is cls else f"{sub.__name__}.{meth}"
        setattr(sub, meth, tracer.wrap(fn, sub_name, group, _post_for(tracer, name)))


def _all_subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every function named in SPANS, plus the pool and draw counters."""
    import concurrent.futures
    import importlib

    for group, (mod_name, attrs) in SPANS.items():
        mod = importlib.import_module(f"seeds_sde.{mod_name}")
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    _wrap_method(tracer, cls, meth, attr, group)
                continue
            fn = getattr(mod, attr, None)
            if fn is None or not callable(fn):
                continue
            _rebind(fn, tracer.wrap(fn, attr, group, _post_for(tracer, attr)))

    # Rows the keyed stream generates: whole blocks while it draws per block,
    # otherwise exactly the rows it returns (noise.rows_used).
    noise = importlib.import_module("seeds_sde.noise")
    block = getattr(noise.RngStream, "_normal_block", None)
    if block is not None:
        noise.RngStream._normal_block = tracer.counting(
            block, lambda res: tracer.count("noise.rows_generated", _rows(res)))
    else:
        tracer.counters.setdefault("noise.rows_generated", None)

    # Pool fan-out: chunks handed to workers and time spent blocked on them.
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def counted_submit(self, *args, **kwargs):
        tracer.count("cli.pool_chunks", 1)
        return submit(self, *args, **kwargs)

    concurrent.futures.ProcessPoolExecutor.submit = counted_submit
    as_completed = concurrent.futures.as_completed

    def timed_as_completed(*args, **kwargs):
        it = as_completed(*args, **kwargs)
        while True:
            t0 = time.perf_counter()
            try:
                fut = next(it)
            except StopIteration:
                tracer.count("cli.pool_wait_s", time.perf_counter() - t0)
                return
            tracer.count("cli.pool_wait_s", time.perf_counter() - t0)
            yield fut

    concurrent.futures.as_completed = timed_as_completed
