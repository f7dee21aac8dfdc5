#!/usr/bin/env python3
"""Per-step solver relations on a shared-noise VP grid.

Prints the max relative per-step differences behind the three structural
claims: the DDIM-style step coincides with the one-stage data-prediction
step, the one-stage stochastic step is not the order-1 ODE step, and the
noise- and data-prediction modes are genuinely different parameterizations.
"""

import argparse

from seeds_sde import (
    DataDistribution,
    RngStream,
    ScoreModel,
    SolverSpec,
    VpLinear,
    linear_lambda_grid,
    per_step_compare,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    sched = VpLinear()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    grid = linear_lambda_grid(args.steps, sched.t_min, sched.t_max, sched)

    pairs = [
        ("gddim == seeds1-dp", SolverSpec("gddim"), SolverSpec("seeds1", mode="dp"), False),
        ("seeds1 deterministic != dpm1", SolverSpec("seeds1"), SolverSpec("dpm1"), True),
        ("seeds1-np != seeds1-dp", SolverSpec("seeds1", mode="np"),
         SolverSpec("seeds1", mode="dp"), False),
        ("seeds2 deterministic != dpm2", SolverSpec("seeds2"), SolverSpec("dpm2"), True),
    ]
    for label, a, b, zero_noise in pairs:
        diff = per_step_compare(a, b, model, grid, RngStream(args.seed),
                                zero_noise=zero_noise)
        print(f"{label}: max relative per-step diff = {diff:.3e}")


if __name__ == "__main__":
    main()
