#!/usr/bin/env python3
"""Layer microbenchmark of the step coefficients and arithmetic.

Prints, for each solver family and mode on one schedule it runs on (VP where
it can), the median wall time in milliseconds of building its ``StepPlan``
on an M-step linear-lambda grid (``plan ms``) and of one ``walk`` over that
plan at one path from one x_T, the model prepared for the plan's times and
the keyed draws made inside the walk: at d = 1, where the walk steps on
Python floats (``walk ms d=1``), and at d = 2, where it steps on (1, 2)
arrays (``walk ms d=2``).  The medians are taken over ``--repeats`` runs
after one untimed run; the model is the exact oracle of N(0, I) data.

    python scripts/step_bench.py
    python scripts/step_bench.py --steps 101 --repeats 3
"""

import argparse
import statistics
import time

from seeds_sde import (DataDistribution, Edm, RngStream, ScoreModel, SolverSpec, Ve, VpLinear,
                       linear_lambda_grid)
from seeds_sde.solvers import FAMILIES, StepDraws, StepPlan, walk

SCHEDULES = {"vp": VpLinear(), "ve": Ve(), "edm": Edm()}


def time_ms(fn, repeats):
    """Median wall time of ``fn()`` over ``repeats`` calls after one untimed call, in
    milliseconds."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def walk_ms(spec, sched, grid, d, repeats):
    """Median milliseconds of one walk at one path in dimension d."""
    model = ScoreModel(DataDistribution.standard_normal(d), sched)
    plan = StepPlan(spec, model, grid)
    model.prepare(plan.times())
    # x_T as ``lockstep`` makes it: a float at d = 1, a (1, d) array otherwise
    x_top = sched.alpha_sigma(plan.top)[2] * StepDraws(RngStream(0), 1, d)(0)[0]

    def run():
        for _ in walk(plan, StepDraws(RngStream(0), 1, d), x_top):
            pass

    return time_ms(run, repeats)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--steps", type=int, default=1001, help="grid steps M")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    print(f"{'family':<17} {'mode':<4} {'sched':<5} {'plan ms':>9} {'walk ms d=1':>12} "
          f"{'walk ms d=2':>12}")
    for family, desc in FAMILIES.items():
        for mode, form in desc.forms.items():
            name = "vp" if "vp" in form.schedules else form.schedules[0]
            sched, spec = SCHEDULES[name], SolverSpec(family, mode=mode)
            model = ScoreModel(DataDistribution.standard_normal(1), sched)
            grid = linear_lambda_grid(args.steps, sched.t_min, sched.t_max, sched)
            plan_ms = time_ms(lambda: StepPlan(spec, model, grid), args.repeats)
            one, two = (walk_ms(spec, sched, grid, d, args.repeats) for d in (1, 2))
            print(f"{family:<17} {mode:<4} {name:<5} {plan_ms:>9.2f} {one:>12.2f} {two:>12.2f}")


if __name__ == "__main__":
    main()
