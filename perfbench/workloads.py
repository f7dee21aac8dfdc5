"""The benchmark's workloads: the CLI calls of one round and their checks.

A round is one back-to-back pass over a workload's operations; each
operation is one ``seeds-sde`` process.  Every input comes from the
benchmark seed: it is the seed of every CLI call, and it draws the
mixture's means and variances.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Evaluations per step of each family, fixed here from the paper's schemes
# rather than read from the package, so the NFE check is independent of it.
EVALS = {"seeds1": 1, "seeds2": 2, "seeds3": 3, "dpm3": 3, "dpm4": 5, "gddim": 1,
         "euler_maruyama": 1, "exp_euler_etd": 1, "ve2_sde": 2}

# Terminal mean and variance must sit within 5 Monte Carlo standard errors
# of the exact flow, plus an allowance for the solver's own discretization
# error: seeds3 at M=31 on N(0, 1) data inflates the variance by about 1.8%
# (4 SE at 1e5 paths; measured over 8 seeds), which is weak error, not a
# broken run.  A broken RNG, scheme or oracle moves these by far more.
MEAN_SE = 5.0
DISC_REL = 0.03      # allowance: 3% of the target variance, 3% of the target SD
SINGLE_SD = 6.0      # a one-path terminal state must sit within 6 marginal SDs
COMPARE_BOUND = 1e-10
STRONG_SLOPE = (0.8, 1.2)
STRONG_R2 = 0.95

# strong_order's reference level sits this many halvings below the finest
# measured level (its default; the CLI does not expose it)
STRONG_REF_EXTRA = 2


@dataclass
class Op:
    """One CLI call of a round."""

    name: str                  # unique in the workload; also its output directory
    argv: list                 # seeds-sde arguments, without --out
    kind: str                  # "sample", "compare", "strong" or "weak"
    path_steps: int            # paths x real steps x evals per step
    evals: int = 0             # evals per step, for the printed-NFE check
    steps: int = 0             # M (grid intervals), for the printed-NFE check
    paths: int = 0
    check: str = ""            # "moments" or "single" for sample ops
    same_as: str = ""          # op whose terminal.csv must be byte-identical
    layers: bool = True        # per-layer metrics come from this op
    config: dict = field(default_factory=dict)  # written to <work>/<name>.json


@dataclass
class Workload:
    name: str
    ops: list


def _sample(name, family, schedule, steps, paths, seed, mode=None, workers=None,
            config=None, check="moments", same_as="", layers=True):
    argv = ["sample", "--solver", family, "--schedule", schedule, "--steps", str(steps),
            "--paths", str(paths), "--seed", str(seed)]
    if mode:
        argv += ["--mode", mode]
    if workers:
        argv += ["--workers", str(workers)]
    evals = EVALS[family]
    return Op(name, argv, "sample", paths * (steps - 1) * evals, evals=evals, steps=steps,
              paths=paths, check=check, same_as=same_as, layers=layers,
              config=config or {})


def _mixture(seed: int, k: int = 8, d: int = 16) -> dict:
    rng = np.random.default_rng(seed)
    comps = [{"weight": 1.0 / k, "mean": rng.normal(0.0, 2.0, d).tolist(),
              "var": rng.uniform(0.3, 1.5, d).tolist()} for _ in range(k)]
    return {"model": {"kind": "gaussian_mixture", "components": comps}}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` at benchmark seed ``seed``; smoke shrinks every size."""
    if name == "sample-wide":
        # many paths, few steps, cheap oracle: draws and CSV writing dominate;
        # the only workload where the process pool runs
        paths = 20000 if smoke else 100000
        w1 = _sample("workers1", "seeds3", "vp", 31, paths, seed, workers=1)
        w2 = _sample("workers2", "seeds3", "vp", 31, paths, seed, workers=2,
                     same_as="workers1", layers=False)
        return Workload(name, [w1, w2])
    if name == "sample-mixture":
        # 8-component mixture at d=16: the oracle dominates, draws are small
        paths = 1024 if smoke else 4096
        cfg = _mixture(seed)
        ops = [_sample(f"mixture-{fam}", fam, "vp", 31, paths, seed, config=cfg)
               for fam in ("seeds3", "dpm3")]
        return Workload(name, ops)
    if name == "sample-narrow":
        # one path over many steps: per-step scalar Python overhead dominates
        m = 101 if smoke else 1001
        single = dict(check="single")
        ops = [_sample(f"narrow-{fam}", fam, "vp", m, 1, seed, **single)
               for fam in ("seeds1", "seeds2", "seeds3", "dpm3", "dpm4", "gddim",
                           "euler_maruyama", "exp_euler_etd")]
        ops.append(_sample("narrow-seeds1-cosine", "seeds1", "vp_cosine", m, 1, seed,
                           **single))
        churn = {"solver": {"family": "seeds3", "churn": {
            "s_churn": 11.0, "s_tmin": 0.05, "s_tmax": 15.0, "s_noise": 1.003}}}
        ops.append(_sample("narrow-seeds3-edm-churn", "seeds3", "edm", m, 1, seed,
                           config=churn, **single))
        ops.append(_sample("narrow-ve2_sde", "ve2_sde", "ve", m, 1, seed, mode="dp",
                           **single))
        cmp_argv = ["compare", "--solver-a", "gddim", "--solver-b", "seeds1",
                    "--mode-b", "dp", "--schedule", "vp", "--steps", str(m),
                    "--seed", str(seed), "--threshold", repr(COMPARE_BOUND)]
        ops.append(Op("narrow-compare", cmp_argv, "compare", 2 * (m - 1)))
        return Workload(name, ops)
    if name == "order":
        # the README's order commands: the only harness-heavy, memory-heavy workload
        base, refinements = 32, 4
        strong_paths = 2000 if smoke else 10000
        weak_paths = 20000 if smoke else 100000
        steps_list = [14, 17, 21, 26]
        fine = base * 2 ** (refinements - 1 + STRONG_REF_EXTRA)
        strong_steps = fine + sum(base * 2 ** lvl for lvl in range(refinements))
        strong = Op("order-strong", ["order", "strong", "--solver", "seeds1", "--paths",
                                     str(strong_paths), "--seed", str(seed)],
                    "strong", strong_paths * strong_steps * EVALS["seeds1"],
                    paths=strong_paths,
                    config={"order": {"base_steps": base, "refinements": refinements}})
        weak = Op("order-weak", ["order", "weak", "--solver", "seeds2", "--paths",
                                 str(weak_paths), "--seed", str(seed)],
                  "weak", weak_paths * sum(m - 1 for m in steps_list) * EVALS["seeds2"],
                  paths=weak_paths, config={"order": {"steps_list": steps_list}})
        return Workload(name, [strong, weak])
    raise KeyError(name)


NAMES = ("sample-wide", "sample-mixture", "sample-narrow", "order")


# -- correctness checks ------------------------------------------------------


def _load_config(op: Op, config_path):
    from seeds_sde import cli
    from seeds_sde.config import load_config

    args = cli.build_parser().parse_args(op.argv)
    overrides = {k: getattr(args, k, None) for k in
                 ("seed", "paths", "steps", "solver", "schedule", "mode", "workers")}
    return load_config(config_path, overrides)


def check(op: Op, out_dir: str, stdout: str, config_path) -> tuple:
    """(problems, record) for one finished operation; record holds outputs
    worth printing, such as fitted slopes."""
    if op.kind == "sample":
        return _check_sample(op, out_dir, stdout, config_path)
    if op.kind == "compare":
        return _check_compare(stdout), {}
    return _check_order(op, out_dir)


def _check_sample(op, out_dir, stdout, config_path) -> tuple:
    from seeds_sde.harness import GaussianFlowOracle

    problems = []
    nfe_line = [ln for ln in stdout.splitlines() if ln.startswith("NFE per path:")]
    want = op.evals * (op.steps - 1)
    if not nfe_line or int(nfe_line[0].split()[3]) != want:
        problems.append(f"printed NFE {nfe_line} != {op.evals} x {op.steps - 1} = {want}")
    x = np.loadtxt(os.path.join(out_dir, "terminal.csv"), delimiter=",", skiprows=1,
                   ndmin=2)[:, 1:]
    if x.shape[0] != op.paths or not np.all(np.isfinite(x)):
        return problems + [f"terminal.csv has {x.shape[0]} rows (want {op.paths}) "
                           "or non-finite values"], {}
    cfg = _load_config(op, config_path)
    grid = cfg.build_grid()
    oracle = GaussianFlowOracle(cfg.build_model().data, cfg.schedule)
    t_end = float(grid.times[grid.n_steps - 1])
    mean, var = oracle.mean(t_end), oracle.var(t_end)
    if op.check == "single":
        z = np.abs(x[0] - mean) / np.sqrt(var)
        if np.any(z > SINGLE_SD):
            problems.append(f"terminal state {z.max():.2f} marginal SDs from the mean")
        return problems, {}
    n = x.shape[0]
    m, v = x.mean(axis=0), x.var(axis=0)
    m4 = ((x - m) ** 4).mean(axis=0)
    se_mean, se_var = np.sqrt(v / n), np.sqrt((m4 - v * v) / n)
    err_mean, err_var = np.abs(m - mean), np.abs(v - var)
    record = {f"{op.name}.mean_err_se": float(np.max(err_mean / se_mean)),
              f"{op.name}.var_rel_err": float(np.max((v - var) / var)),
              f"{op.name}.var_err_se": float(np.max(err_var / se_var))}
    if (np.any(err_mean > MEAN_SE * se_mean + DISC_REL * np.sqrt(var))
            or np.any(err_var > MEAN_SE * se_var + DISC_REL * var)):
        problems.append(f"terminal moments off: {record} (limit {MEAN_SE} SE + "
                        f"{DISC_REL:.0%} of target)")
    return problems, record


def _check_compare(stdout) -> list:
    diff = [ln for ln in stdout.splitlines() if ln.startswith("max relative per-step")]
    if not diff:
        return ["compare printed no difference"]
    value = float(diff[0].rsplit(" ", 1)[1])
    if not value < COMPARE_BOUND or "PASS" not in stdout:
        return [f"compare difference {value!r} not below {COMPARE_BOUND}"]
    return []


def _check_order(op, out_dir) -> tuple:
    family = "seeds1" if op.kind == "strong" else "seeds2"
    base = os.path.join(out_dir, f"order_{op.kind}_{family}")
    with open(base + ".json") as fh:
        summary = json.load(fh)
    with open(base + ".csv") as fh:
        rows = fh.read().strip().splitlines()[1:]
    errors = [float(r.split(",")[1]) for r in rows]
    slope, r2 = summary.get("slope"), summary.get("r2")
    record = {f"{op.kind}.slope": slope, f"{op.kind}.r2": r2,
              f"{op.kind}.errors": errors, f"{op.kind}.notes": summary.get("notes", [])}
    problems = []
    if not errors or not all(math.isfinite(e) for e in errors):
        problems.append(f"{op.kind} order errors not finite: {errors}")
    if op.kind == "strong":
        lo, hi = STRONG_SLOPE
        if slope is None or not lo <= slope <= hi or r2 is None or r2 < STRONG_R2:
            problems.append(f"strong slope {slope} outside [{lo}, {hi}] or r2 {r2} "
                            f"< {STRONG_R2}")
    # The weak fit of seeds2 at these settings blows up on the coarsest grid
    # (a known defect of the scheme at large h); it is recorded, not gated.
    return problems, record
