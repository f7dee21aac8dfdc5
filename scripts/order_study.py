#!/usr/bin/env python3
"""Convergence-order study: strong order of the one-stage solver, weak order
of the two- and three-stage solvers, and the Euler-Maruyama baseline, all on
the 1-D VP single-Gaussian problem.  Writes one CSV + JSON pair per run.

The --beta-d flag switches between the analytical default (19.9) and the
experiment-style 19.1 schedule.
"""

import argparse
import os

from seeds_sde import (
    DataDistribution,
    RngStream,
    ScoreModel,
    SolverSpec,
    VpLinear,
    linear_lambda_grid,
    strong_order,
    weak_order,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="order_study_out")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--beta-d", type=float, default=19.9)
    parser.add_argument("--strong-paths", type=int, default=10_000)
    parser.add_argument("--weak-paths", type=int, default=100_000)
    args = parser.parse_args()

    sched = VpLinear(beta_d=args.beta_d)
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    os.makedirs(args.out, exist_ok=True)

    est = strong_order(SolverSpec("seeds1"), model, base_steps=32,
                       refinements=4, n_paths=args.strong_paths,
                       stream=RngStream(args.seed))
    _emit(args.out, "strong_seeds1", est)

    weak_grids = {
        "seeds2": (14, 17, 21, 25),
        "seeds3": (14, 17, 21, 26),
        "euler_maruyama": (14, 21, 32, 48),
    }
    for fam, steps in weak_grids.items():
        grids = [linear_lambda_grid(m, sched.t_min, sched.t_max, sched) for m in steps]
        est = weak_order(SolverSpec(fam), model, grids, args.weak_paths,
                         RngStream(args.seed))
        _emit(args.out, f"weak_{fam}", est)


def _emit(out_dir, name, est):
    base = os.path.join(out_dir, name)
    with open(base + ".csv", "w") as fh:
        fh.write(est.to_csv())
    with open(base + ".json", "w") as fh:
        fh.write(est.to_json() + "\n")
    print(f"{name}: slope={est.slope:.3f} r2={est.r2:.4f} slope_se={est.slope_se:.3f}")
    for note in est.notes:
        print(f"  note: {note}")


if __name__ == "__main__":
    main()
