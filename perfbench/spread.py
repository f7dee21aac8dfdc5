"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--trace 0]
                                [--seconds <s>] [--json <file>]

Runs ``run.py`` once per seed, sequentially, from the current directory and
prints for each metric the median of its values and their spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median.  ``--seconds`` defaults to BENCHMARK.json's
run_seconds; each run's result line is kept in ``--json`` when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as fh:
            seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {line}", flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh)
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{key}: median {med:.6g} spread {spread:.4f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
