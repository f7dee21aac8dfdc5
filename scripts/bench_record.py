"""Record the benchmark's end-to-end results as a BENCH_<n>.json file.

    python3 scripts/bench_record.py --workloads sample-narrow order --seeds 11 12 13 \
        [--seconds 30] [--smoke] [--checkout DIR]

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one run at a
time, from the root of a checkout (by default the one this script sits in),
and writes BENCH_<n>.json in the current directory, with n one past the
highest number already there, holding:

  results   each run's JSON result line, with its workload and seed
  summary   per workload and metric, the median and the quartiles over the seeds
            (inclusive method, so they lie within the runs' range)
  commit    the checkout's git commit, suffixed "-dirty" when tracked files differ,
            or null when the checkout is not a git work tree
  python, numpy, seconds, smoke   what ran, and how long each run was asked to take

A run that exits non-zero or prints no result line stops the recording, and
no file is written.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def _next_path(directory: str) -> str:
    taken = [int(m.group(1)) for name in os.listdir(directory)
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    return os.path.join(directory, f"BENCH_{max(taken, default=0) + 1}.json")


def _commit(checkout: str) -> str | None:
    """The checkout's git commit, suffixed "-dirty" when tracked files differ, or None
    when the checkout is not a git work tree (an exported copy)."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True,
                              check=False)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")   # inside the data's range
    return q[0], q[2]


def run_one(checkout: str, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its JSON result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(results) -> dict:
    """workload -> metric -> {median, q1, q3, unit} over the workload's runs."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r["result"]["metrics"] for r in results if r["workload"] == workload]
        summary[workload] = {}
        for name, first in runs[0].items():
            values = [m[name]["value"] for m in runs]
            q1, q3 = _quartiles(values)
            summary[workload][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                       "unit": first["unit"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--smoke", action="store_true", help="perfbench's shrunken inputs")
    parser.add_argument("--checkout", default=os.path.dirname(HERE),
                        help="root of the checkout to benchmark")
    args = parser.parse_args(argv)

    commit = _commit(args.checkout)   # read before the runs, which may take minutes
    results = []
    for workload in args.workloads:
        for seed in args.seeds:
            try:
                result = run_one(args.checkout, workload, seed, args.seconds, args.smoke)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            results.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    record = {"commit": commit, "python": platform.python_version(),
              "numpy": np.__version__, "seconds": args.seconds, "smoke": args.smoke,
              "summary": summarize(results), "results": results}
    out = _next_path(os.getcwd())
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
