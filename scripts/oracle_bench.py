#!/usr/bin/env python3
"""Layer microbenchmark of the exact mixture oracle.

Prints the median wall time in microseconds of one ``ScoreModel.noise_pred``
call on the VP schedule for each (K components, d dimensions, n states):
``us/call`` at a time the model has no table for, which builds a one-time row
of its time-only terms from one ``alpha_sigma`` call, and ``prepared`` at a time
``ScoreModel.prepare`` has tabulated, which reads its row.  At K = 1, d = 1,
n = 1 on a shared 2-CPU host (Python 3.11, NumPy 2.4; three runs at
``--repeats 5 --sample-ms 30``), ``us/call`` read 30-46 and ``prepared``
10-18; host noise spans more than the gap between the two.
Each timed sample averages enough back-to-back calls to last about
``--sample-ms`` milliseconds; the median is taken over ``--repeats`` samples.
The mixture's means and variances and the states are drawn from a fixed seed.

    python scripts/oracle_bench.py
    python scripts/oracle_bench.py --components 8 --dims 16 --paths 4096
"""

import argparse
import statistics
import time

import numpy as np

from seeds_sde import DataDistribution, ScoreModel, VpLinear


def median_us(model, x, t, repeats, sample_s):
    """Median over ``repeats`` samples of the mean time per call, in microseconds."""
    start = time.perf_counter()
    model.noise_pred(x, t)
    calls = max(1, int(sample_s / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            model.noise_pred(x, t)
        samples.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--components", type=int, nargs="+", default=[1, 8])
    parser.add_argument("--dims", type=int, nargs="+", default=[1, 16, 64])
    parser.add_argument("--paths", type=int, nargs="+", default=[1, 8192])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--sample-ms", type=float, default=50.0)
    args = parser.parse_args()

    sched = VpLinear()
    t = 0.5 * (sched.t_min + sched.t_max)
    rng = np.random.default_rng(0)
    print(f"{'K':>3} {'d':>4} {'n':>7} {'us/call':>11} {'prepared':>11}")
    for k in args.components:
        for d in args.dims:
            data = DataDistribution(np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, d)),
                                    rng.uniform(0.3, 1.5, (k, d)))
            model, prepared = ScoreModel(data, sched), ScoreModel(data, sched)
            prepared.prepare([t])
            for n in args.paths:
                x = rng.normal(size=(n, d))
                us = [median_us(m, x, t, args.repeats, args.sample_ms / 1e3)
                      for m in (model, prepared)]
                print(f"{k:>3} {d:>4} {n:>7} {us[0]:>11.1f} {us[1]:>11.1f}")


if __name__ == "__main__":
    main()
