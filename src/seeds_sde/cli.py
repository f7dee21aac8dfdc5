"""Command-line entry point.

Subcommands: sample, order, compare, grid, selftest.  Exit codes: 0 success,
1 configuration error, 2 acceptance failure.  All outputs are deterministic
functions of (config, seed) and do not depend on the worker count: paths are
partitioned into fixed 8192-path chunks whose draws are keyed by absolute
path index.  Each chunk formats its own rows of terminal.csv (and, with
--save-trajectories, each of its paths' trajectory rows), inside the pool
worker when there is one, and the chunk texts are written in path order.
"""

import argparse
import concurrent.futures
import functools
import json
import os
import sys

from .config import RunConfig, load_config
from .errors import ConfigError, DomainError, GridError
from .harness import per_step_compare, strong_order, weak_order
from .noise import RngStream
from .solvers import sample

_CHUNK = 8192  # fixed path partition, independent of worker count


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_rows(keys, values) -> str:
    """Rows "key,v0,v1,..." of a (rows, d) array."""
    # repr of a Python float is what _fmt writes; tolist() converts a column at once
    cols = [map(repr, values[:, j].tolist()) for j in range(values.shape[1])]
    return "\n".join(map(",".join, zip(keys, *cols))) + "\n"


def _run_chunk(cfg: RunConfig, model, grid, offset: int, count: int, record: bool):
    """Sample paths offset..offset+count-1; return their terminal.csv rows, the
    NFE per path and, when recording, each path's trajectory rows."""
    res = sample(model, cfg.schedule, grid, cfg.solver, RngStream(cfg.seed), n_paths=count,
                 path_offset=offset, record=record)
    trajs = []
    if record:
        times = list(map(repr, res.times.tolist()))
        trajs = [_csv_rows(times, res.trajectory[:, p]) for p in range(count)]
    text = _csv_rows(map(str, range(offset, offset + count)), res.terminal)
    return text, res.nfe_per_path, trajs


def cmd_sample(cfg: RunConfig, out_dir: str, save_trajectories: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    offsets = range(0, cfg.n_paths, _CHUNK)
    counts = [min(_CHUNK, cfg.n_paths - off) for off in offsets]
    model = cfg.build_model()
    grid = cfg.build_grid()
    run = functools.partial(_run_chunk, cfg, model, grid, record=save_trajectories)
    if cfg.workers > 1 and len(counts) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run, offsets, counts))
    else:
        results = list(map(run, offsets, counts))
    nfe_per_path = results[0][1]

    header = ",".join(f"x{j}" for j in range(model.dim)) + "\n"
    csv_path = os.path.join(out_dir, "terminal.csv")
    with open(csv_path, "w") as fh:
        fh.write("path," + header)
        fh.writelines(text for text, _, _ in results)

    if save_trajectories:
        traj_dir = os.path.join(out_dir, "trajectories")
        os.makedirs(traj_dir, exist_ok=True)
        for p, text in enumerate(t for _, _, trajs in results for t in trajs):
            with open(os.path.join(traj_dir, f"path_{p:06d}.csv"), "w") as fh:
                fh.write("t," + header + text)

    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg.resolved(), fh, indent=2, sort_keys=True)
    print(f"wrote {cfg.n_paths} terminal states to {csv_path}")
    print(f"NFE per path: {nfe_per_path} "
          f"({cfg.solver.evals_per_step} evals x {grid.n_steps - 1} steps)")
    return 0


def cmd_order(cfg: RunConfig, kind: str, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    model = cfg.build_model()
    stream = RngStream(cfg.seed)
    order_cfg = cfg.order
    if kind == "strong":
        est = strong_order(
            cfg.solver, model, cfg.schedule,
            base_steps=order_cfg.get("base_steps", 32),
            refinements=order_cfg.get("refinements", 4),
            n_paths=cfg.n_paths, stream=stream,
        )
    elif kind == "weak":
        steps_list = order_cfg.get("steps_list", [14, 17, 21, 26])
        from .grids import linear_lambda_grid

        grids = [linear_lambda_grid(m, cfg.schedule.t_min, cfg.schedule.t_max,
                                    cfg.schedule) for m in steps_list]
        est = weak_order(cfg.solver, model, cfg.schedule, grids, cfg.n_paths, stream)
    else:
        raise ConfigError(f"order kind must be 'strong' or 'weak', got {kind!r}")
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


def cmd_compare(cfg_a: RunConfig, cfg_b: RunConfig, threshold: float) -> int:
    if cfg_a.grid_spec != cfg_b.grid_spec:
        raise ConfigError("compare requires identical grids on both sides")
    if cfg_a.resolved()["schedule"] != cfg_b.resolved()["schedule"]:
        raise ConfigError("compare requires identical schedules on both sides")
    if cfg_a.seed != cfg_b.seed:
        raise ConfigError("compare requires identical seeds on both sides")
    model = cfg_a.build_model()
    grid = cfg_a.build_grid()
    stream = RngStream(cfg_a.seed)
    diff = per_step_compare(cfg_a.solver, cfg_b.solver, model, cfg_a.schedule, grid, stream)
    verdict = "PASS" if diff < threshold else "FAIL"
    print(f"max relative per-step difference: {diff!r}")
    print(f"{verdict} (threshold {threshold!r})")
    return 0 if verdict == "PASS" else 2


def cmd_grid(cfg: RunConfig) -> int:
    grid = cfg.build_grid()
    sched = cfg.schedule
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seeds-sde",
                                     description="Stochastic exponential solvers for diffusion SDEs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--paths", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--solver", default=None)
        p.add_argument("--schedule", default=None)
        p.add_argument("--mode", default=None, choices=["np", "dp"])
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--threshold", type=float, default=None)

    p_sample = sub.add_parser("sample", help="sample trajectories, write terminal CSV")
    add_common(p_sample)
    p_sample.add_argument("--save-trajectories", action="store_true")

    p_order = sub.add_parser("order", help="estimate a convergence order")
    p_order.add_argument("kind", choices=["strong", "weak"])
    add_common(p_order)

    p_cmp = sub.add_parser("compare", help="per-step comparison of two solvers")
    add_common(p_cmp)
    p_cmp.add_argument("--config-a", default=None)
    p_cmp.add_argument("--config-b", default=None)
    p_cmp.add_argument("--solver-a", default=None)
    p_cmp.add_argument("--solver-b", default=None)
    p_cmp.add_argument("--mode-a", default=None, choices=["np", "dp"])
    p_cmp.add_argument("--mode-b", default=None, choices=["np", "dp"])

    p_grid = sub.add_parser("grid", help="print a grid")
    add_common(p_grid)
    p_grid.add_argument("--grid-kind", default=None, choices=["linear_lambda", "edm"])

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def _overrides(args) -> dict:
    return {k: getattr(args, k, None) for k in
            ("seed", "paths", "steps", "solver", "schedule", "mode", "out",
             "workers", "threshold")}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest

            return run_selftest(args.seed)
        if args.command == "compare":
            ov = _overrides(args)
            ov_a = dict(ov)
            ov_b = dict(ov)
            if args.solver_a:
                ov_a["solver"] = args.solver_a
            if args.solver_b:
                ov_b["solver"] = args.solver_b
            if args.mode_a:
                ov_a["mode"] = args.mode_a
            if args.mode_b:
                ov_b["mode"] = args.mode_b
            cfg_a = load_config(args.config_a or args.config, ov_a)
            cfg_b = load_config(args.config_b or args.config, ov_b)
            threshold = args.threshold if args.threshold is not None else cfg_a.threshold
            return cmd_compare(cfg_a, cfg_b, threshold)
        ov = _overrides(args)
        cfg = load_config(args.config, ov)
        if args.command == "sample":
            out_dir = cfg.out or "seeds_out"
            return cmd_sample(cfg, out_dir, save_trajectories=args.save_trajectories)
        if args.command == "order":
            out_dir = cfg.out or "seeds_out"
            return cmd_order(cfg, args.kind, out_dir)
        if args.command == "grid":
            if args.grid_kind:
                cfg.grid_spec["kind"] = args.grid_kind
            return cmd_grid(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DomainError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
