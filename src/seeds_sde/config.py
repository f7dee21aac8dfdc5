"""Run configuration: JSON file plus CLI overrides, flags win.

It reads JSON (section shapes, unknown keys, defaults), applies the caps and checks
``threshold`` and ``out``; each schedule, solver, churn, grid and seed value's rule is the
constructor's that takes it, so a library call fails with a config file's text.
"""

import contextlib
import json
import os
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError, DomainError, as_integer, as_number
from .grids import StepGrid, edm_grid, linear_lambda_grid
from .models import DataDistribution, ScoreModel, ZeroModel
from .noise import RngStream
from .schedules import ScheduleBase, VpLinear, make_schedule
from .solvers import ChurnParams, SolverSpec

_DEFAULT_MODEL = {"kind": "gaussian_mixture",
                  "components": [{"weight": 1.0, "mean": [0.0], "var": [1.0]}]}
DEFAULT_GRID = {"kind": "linear_lambda"}   # the grid section of a config without one
_MAX_STEPS, _MAX_PATHS, _MAX_DIM = 100_000, 10_000_000, 10_000   # the most a run may ask for
# the most pool workers a run may ask for: fixed, so that a config means the same anywhere
_MAX_WORKERS = 256


@dataclass
class RunConfig:
    """Everything a run needs, with the ``grid`` and ``model`` that ``load_config`` built to
    check them: it checks the JSON and the caps, each value's constructor that value's rule,
    and the run's ``StepPlan`` the solver against the schedule."""

    schedule: ScheduleBase
    model_spec: dict
    solver: SolverSpec
    grid_spec: dict
    seed: int
    n_paths: int
    workers: int
    out: str | None
    threshold: float
    order: dict
    grid: StepGrid = field(init=False)
    model: object = field(init=False)

    def build_model(self):
        spec = self.model_spec
        kind = spec.get("kind", "gaussian_mixture")
        if kind == "zero":
            _reject_extras("model", spec.keys() - {"kind", "dim"})
            return ZeroModel(as_integer("model dim", spec.get("dim", 1), _MAX_DIM), self.schedule)
        if kind == "gaussian_mixture":
            _reject_extras("model", spec.keys() - {"kind", "components"})
            return ScoreModel(DataDistribution.from_components(spec.get("components")),
                              self.schedule)
        raise ConfigError(f"unknown model kind {kind!r}")

    def build_grid(self, steps: int | None = None) -> StepGrid:
        """The grid section's grid, of ``steps`` steps in place of the section's when given.
        A DomainError on the section's own steps is named by ``grid steps``; on given
        ``steps`` (``order weak``'s steps_list) the caller names it."""
        spec = dict(self.grid_spec)
        kind = spec.pop("kind", "linear_lambda")
        own_steps = as_integer("grid steps", spec.pop("steps", 31), _MAX_STEPS)
        sched = self.schedule
        if kind == "linear_lambda":
            build, args = linear_lambda_grid, (spec.pop("eps_end", sched.t_min),
                                               spec.pop("t_top", sched.t_max), sched,
                                               spec.pop("variant", "sde"))
        elif kind == "edm":
            build, args = edm_grid, (spec.pop("sigma_min", sched.sigma_of_t(sched.t_min)),
                                     spec.pop("sigma_max", sched.sigma_of_t(sched.t_max)),
                                     spec.pop("rho", 7.0), sched)
        else:
            raise ConfigError(f"unknown grid kind {kind!r}; expected 'linear_lambda' or 'edm'")
        _reject_extras("grid", spec)
        if steps is not None:
            return build(steps, *args)
        with self.naming_the_grid("grid steps", own_steps):
            return build(own_steps, *args)

    @contextlib.contextmanager
    def naming_the_grid(self, key: str, steps):
        """Re-raise a DomainError from inside, raised by grids of ``steps`` steps (config
        ``key``) over this schedule or by a run on them, as a ConfigError that also names
        ``key`` and the schedule's t_min and t_max: together they set the step widths,
        and a step too wide for ``phi`` or a node past the lambdas the schedule inverts
        fails there."""
        try:
            yield
        except DomainError as exc:
            sched = self.schedule
            raise ConfigError(f"{exc} (with {key} {steps!r} from t_max={sched.t_max!r} to "
                              f"t_min={sched.t_min!r} of schedule {sched.kind!r})") from exc

    def resolved(self) -> dict:
        """JSON-ready dict that reproduces this configuration; the solver section holds
        the stage parameters its family reads, and no others."""
        solver_spec = {"family": self.solver.family, "mode": self.solver.mode,
                       **self.solver.params}
        if self.solver.churn is not None:
            solver_spec["churn"] = asdict(self.solver.churn)
        return {"schedule": {"kind": self.schedule.kind, **asdict(self.schedule)},
                "model": self.model_spec, "solver": solver_spec, "grid": self.grid_spec,
                "seed": self.seed, "paths": self.n_paths, "workers": self.workers,
                "threshold": self.threshold, "order": self.order}


def _usable_cpus() -> int:
    """The CPUs this process may run on, up to ``_MAX_WORKERS``: the default worker count."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def _section(raw: dict, key: str, default: dict) -> dict:
    """A copy of the config section ``key``; a ConfigError unless it is an object."""
    value = raw.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{key} config must be a JSON object, got {value!r}")
    return dict(value)


def _order_spec(order: dict) -> dict:
    """The order section with its keys and integer values checked."""
    _reject_extras("order", order.keys() - {"base_steps", "refinements", "steps_list"})
    for key in ("base_steps", "refinements"):
        if key in order:
            order[key] = as_integer(f"order {key}", order[key])
    if "steps_list" in order:
        steps = order["steps_list"]
        if not isinstance(steps, list):
            raise ConfigError(f"order steps_list must be a list of integers, got {steps!r}")
        order["steps_list"] = [as_integer("order steps_list", m, _MAX_STEPS) for m in steps]
    return order


def _reject_extras(section: str, leftover: dict) -> None:
    if leftover:
        raise ConfigError(f"unknown keys in {section} config: {sorted(leftover)}")


def _build_solver(spec: dict) -> SolverSpec:
    churn_spec = spec.pop("churn", None) or {}
    if not isinstance(churn_spec, dict):
        raise ConfigError(f"solver churn config must be a JSON object, got {churn_spec!r}")
    _reject_extras("solver churn", churn_spec.keys() - {f.name for f in fields(ChurnParams)})
    churn = ChurnParams(**churn_spec) if churn_spec else None
    try:
        return SolverSpec(churn=churn, **spec)
    except TypeError as exc:
        raise ConfigError(f"bad solver config: {exc}") from exc


_TOP_LEVEL = {"schedule", "model", "solver", "grid", "seed", "paths", "workers", "out",
              "threshold", "order"}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge a JSON config file (optional) with CLI overrides, the parsed flags by
    destination (flags win; a flag left out, or None, leaves the file's value)."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path!r} must hold a JSON object, got {raw!r}")
        _reject_extras("top-level", raw.keys() - _TOP_LEVEL)

    sched_spec = _section(raw, "schedule", {})
    schedule = make_schedule(sched_spec.pop("kind", VpLinear.kind), **sched_spec)
    if overrides.get("schedule"):   # a flag naming the section's kind keeps its parameters
        flagged = make_schedule(overrides["schedule"])
        schedule = schedule if flagged.kind == schedule.kind else flagged

    solver_spec = _section(raw, "solver", {"family": "seeds3"})
    for key, flag in (("family", "solver"), ("mode", "mode")):
        if overrides.get(flag):
            solver_spec[key] = overrides[flag]
    solver = _build_solver(solver_spec)

    grid_spec = _section(raw, "grid", DEFAULT_GRID)
    if overrides.get("steps") is not None:
        grid_spec["steps"] = overrides["steps"]
    if overrides.get("grid_kind"):
        grid_spec["kind"] = overrides["grid_kind"]

    def pick(flag, key, default):
        return overrides[flag] if overrides.get(flag) is not None else raw.get(key, default)

    out = overrides.get("out") or raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a string, got {out!r}")

    cfg = RunConfig(
        schedule=schedule,
        model_spec=_section(raw, "model", _DEFAULT_MODEL),
        solver=solver,
        grid_spec=grid_spec,
        seed=RngStream(pick("seed", "seed", 0)).seed,   # an integer that fits a Philox key
        n_paths=as_integer("paths", pick("paths", "paths", 1000), _MAX_PATHS),
        workers=as_integer("workers", pick("workers", "workers", _usable_cpus()), _MAX_WORKERS),
        out=out,
        threshold=as_number("threshold", pick("threshold", "threshold", 1e-10)),
        order=_order_spec(_section(raw, "order", {})),
    )
    if cfg.n_paths < 1:
        raise ConfigError("paths must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.threshold <= 0.0:
        raise ConfigError(f"threshold must be > 0, got {cfg.threshold!r}")
    cfg.grid = cfg.build_grid()     # validate grid construction eagerly, and keep it
    cfg.model = cfg.build_model()   # and the model
    return cfg
