"""Command-line entry point.

Subcommands: sample, order, compare, grid, selftest; each takes only the
flags it reads.  Exit codes: 0 success, 1 configuration error (a usage error
included), 2 acceptance failure.  All outputs are deterministic
functions of (config, seed) and do not depend on the worker count: `sample`
and `order` run their paths through the fan-out (``fanout``), which splits
them into chunks of at most 8192 paths, one per worker where each gets a full
1024-path block, whose draws are keyed by absolute path index, on
``--workers`` processes (at most 256; by default every CPU this process may
use); a run of one chunk starts no pool.  `sample` builds its one ``StepPlan``
before any pool opens and ships it with every chunk, which formats its own
rows of terminal.csv (and, with --save-trajectories, each of its paths'
trajectory rows) in the pool worker when there is one; the chunk texts are
written in path order.

`main` freezes the heap it starts with (`gc.freeze`), so neither a later
collection nor the process's exit walks the import heap, and a forked pool
worker inherits it frozen; a program that calls `main` in-process has its
own live objects frozen too, and their cyclic garbage is never collected.
"""

import argparse
import functools
import gc
import json
import os
import sys

import numpy as np

from .config import DEFAULT_GRID, RunConfig, load_config
from .errors import ConfigError, DomainError, GridError
from .fanout import fan_out, path_chunks
from .noise import RngStream
from .solvers import StepPlan, sample


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(keys, values) -> str:
    """Rows "key,v0,v1,..." of a (rows, d) array."""
    # repr of a Python float is what _fmt writes; tolist() converts a column at once
    cols = [map(repr, values[:, j].tolist()) for j in range(values.shape[1])]
    return "\n".join(map(",".join, zip(keys, *cols))) + "\n"


def _run_chunk(plan: StepPlan, seed: int, times, offset: int, count: int):
    """Walk the run's plan for paths offset..offset+count-1 from the seed; return their
    terminal.csv rows and, given the grid's ``times`` as text, each path's trajectory rows."""
    res = sample(plan, RngStream(seed), n_paths=count, path_offset=offset,
                 record=times is not None)
    trajs = [] if times is None else [_csv_rows(times, res.trajectory[:, p]) for p in range(count)]
    return _csv_rows(map(str, range(offset, offset + count)), res.terminal), trajs


def cmd_sample(cfg: RunConfig, out_dir: str, save_trajectories: bool = False) -> int:
    """Build the run's one plan in this process, fan its path chunks out and write them."""
    chunks = path_chunks(cfg.n_paths, cfg.workers)
    times = list(map(repr, cfg.grid.times.tolist())) if save_trajectories else None
    with cfg.naming_the_grid("grid steps", cfg.grid.n_steps):
        plan = StepPlan(cfg.solver, cfg.model, cfg.grid)   # before any pool opens
        results = fan_out(functools.partial(_run_chunk, plan, cfg.seed, times), chunks,
                          cfg.workers)

    os.makedirs(out_dir, exist_ok=True)  # only once there is something to write
    header = ",".join(f"x{j}" for j in range(cfg.model.dim)) + "\n"
    csv_path = os.path.join(out_dir, "terminal.csv")
    with open(csv_path, "w") as fh:
        fh.write("path," + header)
        fh.writelines(text for text, _ in results)

    if save_trajectories:
        traj_dir = os.path.join(out_dir, "trajectories")
        os.makedirs(traj_dir, exist_ok=True)
        for p, text in enumerate(t for _, trajs in results for t in trajs):
            with open(os.path.join(traj_dir, f"path_{p:06d}.csv"), "w") as fh:
                fh.write("t," + header + text)

    with open(os.path.join(out_dir, "config.json"), "w") as fh:   # with the pool size that ran
        json.dump({**cfg.resolved(), "workers": min(cfg.workers, len(chunks))}, fh, indent=2,
                  sort_keys=True)
    print(f"wrote {cfg.n_paths} terminal states to {csv_path}")
    print(f"NFE per path: {plan.spec.evals_per_step * len(plan.rows)} "
          f"({cfg.solver.evals_per_step} evals x {cfg.grid.n_steps - 1} steps)")
    return 0


def cmd_order(cfg: RunConfig, kind: str, out_dir: str) -> int:
    from .harness import strong_order, weak_order   # only order and compare load the harness

    stream = RngStream(cfg.seed)
    order_cfg = cfg.order
    if kind == "strong":
        base_steps = order_cfg.get("base_steps", 32)
        with cfg.naming_the_grid("order base_steps", base_steps):
            est = strong_order(cfg.solver, cfg.model, base_steps=base_steps,
                               refinements=order_cfg.get("refinements", 4),
                               n_paths=cfg.n_paths, stream=stream, workers=cfg.workers)
        if cfg.grid_spec != DEFAULT_GRID:   # the levels must nest, so they ignore the section
            est.notes.append(f"grid keys {sorted(cfg.grid_spec)} not read: strong order's "
                             f"levels are halvings linear in the SDE lambda over [t_min, t_max]")
    else:  # the parser's choices leave "weak"
        steps_list = order_cfg.get("steps_list", [14, 17, 21, 26])
        with cfg.naming_the_grid("order steps_list", steps_list):
            grids = [cfg.build_grid(m) for m in steps_list]
            est = weak_order(cfg.solver, cfg.model, grids, cfg.n_paths, stream,
                             workers=cfg.workers)
    os.makedirs(out_dir, exist_ok=True)  # only once there is something to write
    base = os.path.join(out_dir, f"order_{kind}_{cfg.solver.family}")
    with open(base + ".csv", "w") as fh:
        fh.write(est.to_csv())
    with open(base + ".json", "w") as fh:
        fh.write(est.to_json() + "\n")
    print(f"{kind} order for {cfg.solver.family}: slope={est.slope!r} r2={est.r2!r} "
          f"slope_se={est.slope_se!r}")
    for note in est.notes:
        print(f"note: {note}")
    print(f"wrote {base}.csv and {base}.json")
    return 0


def _same_model(a, b) -> bool:
    """Whether two built models compute the same thing: type, dimension and
    mixture arrays, however their config sections spell them."""
    if type(a) is not type(b) or a.dim != b.dim:
        return False
    return not hasattr(a, "data") or all(np.array_equal(getattr(a.data, key), getattr(b.data, key))
                                         for key in ("weights", "means", "variances"))


def cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig) -> int:
    from .harness import per_step_compare

    if cfg_a.schedule != cfg_b.schedule:
        raise ConfigError("compare requires identical schedules on both sides")
    if not np.array_equal(cfg_a.grid.times, cfg_b.grid.times):
        raise ConfigError("compare requires identical grids on both sides")
    threshold = cfg_a.threshold  # --threshold, when given, has set both configs' threshold
    if cfg_b.threshold != threshold:
        raise ConfigError(f"compare requires one threshold, got {threshold!r} in config-a and "
                          f"{cfg_b.threshold!r} in config-b; --threshold sets both")
    if cfg_a.seed != cfg_b.seed:
        raise ConfigError("compare requires identical seeds on both sides")
    if not _same_model(cfg_a.model, cfg_b.model):
        raise ConfigError("compare requires identical models on both sides")
    with cfg_a.naming_the_grid("grid steps", cfg_a.grid.n_steps):
        diff = per_step_compare(cfg_a.solver, cfg_b.solver, cfg_a.model, cfg_a.grid,
                                RngStream(cfg_a.seed))
    verdict = "PASS" if diff < threshold else "FAIL"
    print(f"max relative per-step difference: {diff!r}")
    print(f"{verdict} (threshold {threshold!r})")
    return 0 if verdict == "PASS" else 2


def cmd_grid(cfg: RunConfig) -> int:
    grid, sched = cfg.grid, cfg.schedule
    lams = grid.lambdas(sched)
    print("i,t,sigma,lambda,h")
    for i, t in enumerate(grid.times):
        if i < lams.size:
            sig = sched.sigma_of_t(float(t))
            h = _fmt(lams[i] - lams[i - 1]) if i >= 1 else ""
            print(f"{i},{_fmt(t)},{_fmt(sig)},{_fmt(lams[i])},{h}")
        else:
            # sentinel / final node of the trivial step
            print(f"{i},{_fmt(t)},,,")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); exit 2 means a failed check."""

    def error(self, message):
        raise ConfigError(message)


# every flag by destination, spelled --dest with "-" for "_"; a flag not given
# reads None (a switch False), and the config file's value (or its default) stands
_FLAGS = {
    "config": dict(help="JSON config file"), "solver": {}, "schedule": {}, "out": {},
    "seed": dict(type=int), "paths": dict(type=int), "steps": dict(type=int),
    "workers": dict(type=int), "threshold": dict(type=float), "mode": {},
    "save_trajectories": dict(action="store_true"),
    "config_a": {}, "config_b": {}, "solver_a": {}, "solver_b": {}, "mode_a": {}, "mode_b": {},
    "grid_kind": dict(choices=["linear_lambda", "edm"]),
}

# each subcommand with its help and the flags it reads, and no others
_COMMANDS = {
    "sample": ("sample trajectories, write terminal CSV",
               "config seed paths steps solver schedule mode out workers save_trajectories"),
    "order": ("estimate a convergence order", "config seed paths solver schedule mode out workers"),
    "compare": ("per-step comparison of two solvers",
                "config seed steps solver schedule mode threshold "
                "config_a config_b solver_a solver_b mode_a mode_b"),
    "grid": ("print a grid", "config steps schedule grid_kind"),
    "selftest": ("run the built-in invariant suite", "seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seeds-sde",
                     description="Stochastic exponential solvers for diffusion SDEs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "order":
            p.add_argument("kind", choices=["strong", "weak"])
        for dest in flags.split():
            p.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])
    return parser


def main(argv=None) -> int:
    """Run one seeds-sde command and return its exit code.  It first freezes
    the heap it starts with, the caller's live objects included, so that the
    process's exit does not collect it; their cyclic garbage is never freed."""
    gc.freeze()
    try:
        args = build_parser().parse_args(argv)
        flags = vars(args)
        if args.command in ("order", "compare"):   # compiled before the grid and model exist
            from . import harness  # noqa: F401
        if args.command == "selftest":
            from .selftest import run_selftest

            return run_selftest(args.seed or 0)
        if args.command == "compare":
            cfgs = []
            for side in ("a", "b"):   # --solver-X, --mode-X, --config-X over the shared flags
                side_flags = {**flags, "solver": flags[f"solver_{side}"] or args.solver,
                              "mode": flags[f"mode_{side}"] or args.mode}
                cfgs.append(load_config(flags[f"config_{side}"] or args.config, side_flags))
            return cmd_compare(*cfgs)
        cfg = load_config(args.config, flags)
        if args.command == "sample":
            return cmd_sample(cfg, cfg.out or "seeds_out", save_trajectories=args.save_trajectories)
        if args.command == "order":
            return cmd_order(cfg, args.kind, cfg.out or "seeds_out")
        return cmd_grid(cfg)
    except (ConfigError, DomainError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
