#!/usr/bin/env python3
"""Terminal-distribution recovery report for a chosen solver.

Samples backward from the Gaussian prior and prints terminal moments next
to the exact flow values, for a single Gaussian and for a symmetric
two-component mixture.
"""

import argparse

import numpy as np

from seeds_sde import (
    DataDistribution,
    RngStream,
    ScoreModel,
    SolverSpec,
    VpLinear,
    linear_lambda_grid,
    terminal_distribution_check,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--solver", default="seeds3")
    parser.add_argument("--mode", default=None, help="default: the solver's default mode")
    parser.add_argument("--steps", type=int, default=31)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    sched = VpLinear()
    grid = linear_lambda_grid(args.steps, sched.t_min, sched.t_max, sched)
    spec = SolverSpec(args.solver, mode=args.mode)

    datasets = {
        "N(0,1)": DataDistribution.standard_normal(1),
        "0.5 N(+1.5,1) + 0.5 N(-1.5,1)": DataDistribution(
            np.array([0.5, 0.5]), np.array([[1.5], [-1.5]]), np.ones((2, 1))),
    }
    for label, data in datasets.items():
        model = ScoreModel(data, sched)
        rep = terminal_distribution_check(spec, model, sched, grid, args.paths,
                                          RngStream(args.seed))
        print(f"{label} via {spec.family}-{spec.mode}, M={args.steps}, "
              f"NFE={spec.evals_per_step * (grid.n_steps - 1)}:")
        print(f"  mean      {rep.mean} +- {rep.mean_se}  (target {rep.target_mean})")
        print(f"  cov diag  {rep.cov_diag}  (target {rep.target_cov_diag})")
        print(f"  skewness  {rep.skewness} +- {rep.skewness_se:.4f}")


if __name__ == "__main__":
    main()
