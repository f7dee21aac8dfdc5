"""seeds-sde benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke]

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (workloads.py): sample-wide, sample-mixture, sample-narrow, order.
Each is a closed loop: this process starts one ``seeds-sde`` process at a
time and waits for it, in rounds of the workload's operations, until
``--seconds`` have passed (at least one round).  Pool workers of
sample-wide's ``--workers 2`` call are the only other processes, so at most
two run at once.

Machine speed on a shared host drifts by tens of percent over minutes, so
reference.py, a fixed process doing the same kinds of work as a call
(interpreter start, NumPy import, a Python loop, array arithmetic), runs
before the first call and after every call.  Each call's times are scaled
by NOMINAL_S / (mean wall time of the references just before and after it):
they read as seconds on a machine that runs the reference in NOMINAL_S.
Raw seconds are printed alongside.

--trace 0 reports the end-to-end metrics, all untraced:
  wall_s            wall time of one CLI call: each call's median over the
                    rounds, averaged over the workload's calls
  setup_s           the same for the time from process start to the first
                    solver step (interpreter, import seeds_sde, load_config,
                    grid and model build), which every call pays
  path_steps_per_s  paths x real steps x evals per step of a round's calls,
                    divided by their summed median (wall - setup); the work
                    comes from the inputs, not from tracing
  peak_rss_mb       largest peak resident set of any process of the run
--trace 1 alternates untraced and traced rounds; the traced calls wrap each
module's public functions in spans (tracer.py).  Per-layer metrics are per
round, summed over its calls, in raw seconds; times are medians over the
traced rounds and counts must repeat exactly.  trace.wall_s and
trace.overhead_s (traced minus untraced round) are reference-scaled.

Every call is checked (workloads.check); a call that exits non-zero or fails
a check counts in ``failed``.  The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NOMINAL_S = 0.25   # reference.py's wall time on the baseline machine, roughly

# per-layer metrics that must repeat exactly from round to round
EXACT = ("noise.draw_calls", "noise.rows_generated", "noise.rows_used", "models.nfe",
         "models.rows_per_eval", "schedules.calls", "phi.calls", "solvers.steps",
         "cli.bytes_written", "cli.chunks")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def run_process(argv):
    """Run one process to completion: (exit code, output, wall s, peak RSS MB,
    monotonic start time)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=_env(), cwd=ROOT)
    out = proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss of a reaped child covers its own reaped children (pool workers)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0, t0


def _digest(out_dir, stdout):
    """Hash of an operation's outputs: its files, or its stdout if it wrote none."""
    h = hashlib.sha256()
    names = sorted(os.listdir(out_dir))
    for name in names:
        if name == "config.json":
            continue   # records the worker count, which legitimately differs
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    if not names:
        h.update(stdout.encode())
    return h.hexdigest()


def _bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}    # op name -> output digest from its first call
        self.records = {}    # printed outputs such as order slopes
        self.peak_rss = 0.0
        self.last_ref = None  # wall time of the latest reference process
        self.config_paths = {}
        for op in workload.ops:
            path = None
            if op.config:
                path = os.path.join(WORK, f"{op.name}.json")
                with open(path, "w") as fh:
                    json.dump(op.config, fh)
            self.config_paths[op.name] = path

    def _cli_args(self, op, out_dir):
        args = list(op.argv)
        if self.config_paths[op.name]:
            args += ["--config", self.config_paths[op.name]]
        if op.kind != "compare":
            args += ["--out", out_dir]
        return args

    def reference(self):
        rc, out, wall, _, _ = run_process([sys.executable, os.path.join(HERE, "reference.py")])
        if rc != 0:
            raise RuntimeError(f"reference process failed (exit {rc}): {out[-2000:]}")
        return wall

    def round(self, traced):
        """One pass over the workload's calls: [(wall, setup, scale)] per call,
        and the traced calls' span totals."""
        times, traces = [], []
        for op in self.wl.ops:
            out_dir = os.path.join(WORK, op.name)
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            marks_path = os.path.join(WORK, f"{op.name}.marks.json")
            argv = [sys.executable, os.path.join(HERE, "child.py"),
                    "trace" if traced else "run", marks_path, "--"]
            rc, out, wall, rss, t0 = run_process(argv + self._cli_args(op, out_dir))
            ref_after = self.reference()
            scale = NOMINAL_S / (0.5 * (self.last_ref + ref_after))
            self.last_ref = ref_after
            self.attempted += 1
            self.peak_rss = max(self.peak_rss, rss)
            problems = self._check(op, rc, out, out_dir)
            marks = {}
            if rc == 0:
                with open(marks_path) as fh:
                    marks = json.load(fh)
                if "first_step" not in marks:
                    problems.append("no solver step was seen")
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]
            times.append((wall, marks.get("first_step", t0 + wall) - t0, scale))
            if traced and marks:
                marks["bytes_written"] = _bytes_written(out_dir)
                traces.append((op, marks))
        return times, traces

    def _check(self, op, rc, out, out_dir):
        import workloads

        if rc != 0:
            return [f"exit code {rc}: {out[-500:]}"]
        digest = _digest(out_dir, out)
        if op.name in self.digests:
            # later calls only need to reproduce the first one byte for byte
            if digest != self.digests[op.name]:
                return ["outputs differ from the first call of this run"]
            return []
        try:
            problems, record = workloads.check(op, out_dir, out, self.config_paths[op.name])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"outputs unreadable: {exc!r}"]
        self.records.update(record)
        self.digests[op.name] = digest
        if op.same_as and self.digests.get(op.same_as) not in (None, digest):
            problems.append(f"terminal.csv differs from {op.same_as}")
        return problems


def layer_metrics(traces):
    """Per-layer metrics of one traced round."""
    import tracer

    layer = [t for op, t in traces if op.layers]

    def names(keys, idx):
        return sum(t["names"][k][idx] for t in layer for k in keys if k in t["names"])

    def groups(key, idx):
        return sum(t["groups"][key][idx] for t in layer if key in t["groups"])

    def counter(key):
        return sum(t["counters"].get(key) or 0 for t in layer)

    used = counter("noise.rows_used")
    # None: the stream no longer draws whole blocks, so it generates what it uses
    blockless = any(t["counters"].get("noise.rows_generated", 0) is None for t in layer)
    generated = used if blockless else counter("noise.rows_generated")
    nfe = names(tracer.NFE_CALLS, 0)
    steps = groups("solvers.step", 0)
    sched_calls = groups("schedules", 0)
    return {
        "noise.draw_s": groups("noise.draw", 1),
        "noise.draw_calls": groups("noise.draw", 0),
        "noise.rows_generated": generated,
        "noise.rows_used": used,
        "noise.draw_use_ratio": used / generated if generated else 0.0,
        "models.eval_s": groups("models.eval", 1),
        "models.score_s": groups("models.score", 1),
        "models.nfe": nfe,
        "models.rows_per_eval": counter("models.rows") / nfe if nfe else 0.0,
        "schedules.calls": sched_calls,
        "schedules.self_s": groups("schedules", 2),
        "schedules.calls_per_step": sched_calls / steps if steps else 0.0,
        "phi.calls": groups("phi", 0),
        "phi.self_s": groups("phi", 2),
        "solvers.steps": steps,
        "solvers.step_self_s": groups("solvers.step", 2) + groups("solvers.churn", 2),
        "grids.build_s": groups("grids", 1),
        "config.load_s": groups("config", 1),
        "harness.self_s": groups("harness", 2),
        "cli.io_s": names(["cmd_sample", "cmd_order"], 2),
        "cli.bytes_written": sum(t["bytes_written"] for t in layer),
        # the pool runs only in calls whose other layers are not reported
        "cli.pool_wait_s": sum(t["counters"].get("cli.pool_wait_s", 0.0) for _, t in traces),
        "cli.chunks": names(["_run_chunk"], 0) + counter("cli.pool_chunks"),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(workload, seconds, trace):
    """Rounds until ``seconds`` pass: the untraced and traced rounds'
    [(wall, setup, scale)] per call, and the traced rounds' layer metrics."""
    runner = Runner(workload)
    deadline = time.monotonic() + seconds
    untraced, traced, layer_rounds, round_times = [], [], [], []
    runner.last_ref = runner.reference()
    while True:
        want_traced = trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        times, traces = runner.round(want_traced)
        round_times.append(time.monotonic() - t0)
        (traced if want_traced else untraced).append(times)
        if want_traced and len(traces) == len(workload.ops):
            layer_rounds.append(layer_metrics(traces))
        done = untraced and (traced or not trace)
        if done and time.monotonic() + max(round_times) > deadline:
            break
    return runner, untraced, traced, layer_rounds


def end_to_end(workload, untraced, runner):
    """End-to-end metrics of the untraced rounds, in reference-scaled seconds."""
    med = statistics.median
    calls = range(len(workload.ops))
    # each call's median over the rounds: one slow call does not move it,
    # and calls of very different length weigh alike in the mean
    wall = [med(r[i][2] * r[i][0] for r in untraced) for i in calls]
    setup = [med(r[i][2] * r[i][1] for r in untraced) for i in calls]
    compute = [med(r[i][2] * (r[i][0] - r[i][1]) for r in untraced) for i in calls]
    raw_wall = statistics.fmean(med(r[i][0] for r in untraced) for i in calls)
    raw_setup = statistics.fmean(med(r[i][1] for r in untraced) for i in calls)
    per_round = [statistics.fmean(scale * w for w, _, scale in r) for r in untraced]
    lo, hi = _quartiles(per_round)
    print(f"rounds: {len(untraced)} of {len(workload.ops)} calls; reference scale "
          f"median {med(c[2] for r in untraced for c in r):.4f}")
    print(f"wall_s per call: {statistics.fmean(wall):.4f} scaled, {raw_wall:.4f} raw; "
          f"scaled round means quartiles {lo:.4f} {hi:.4f}")
    print(f"setup_s per call: {statistics.fmean(setup):.4f} scaled, {raw_setup:.4f} raw")
    return {
        "wall_s": statistics.fmean(wall),
        "setup_s": statistics.fmean(setup),
        "path_steps_per_s": sum(op.path_steps for op in workload.ops) / sum(compute),
        "peak_rss_mb": runner.peak_rss,
    }


def per_layer(traced, untraced, layer_rounds, runner):
    if not layer_rounds:
        runner.problems.append("no traced round completed")
        return {}
    first = layer_rounds[0]
    for other in layer_rounds[1:]:
        for key in EXACT:
            if other[key] != first[key]:
                runner.problems.append(f"{key} differs between rounds: "
                                       f"{first[key]} vs {other[key]}")
    out = {key: (first[key] if key in EXACT
                 else statistics.median(r[key] for r in layer_rounds)) for key in first}
    # round wall times in reference-scaled seconds, like wall_s
    traced_wall = statistics.median(sum(w * scale for w, _, scale in r) for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(
        sum(w * scale for w, _, scale in r) for r in untraced)
    print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
          f"tracing overhead {out['trace.overhead_s']:.4f} s per round (scaled)")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every input for a quick self-check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "seeds_sde", "__init__.py")):
        print(f"error: no seeds_sde package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import seeds_sde
    import workloads

    if not os.path.abspath(seeds_sde.__file__).startswith(SRC + os.sep):
        print(f"error: seeds_sde imported from {seeds_sde.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        runner, untraced, traced, layer_rounds = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for key, value in sorted(runner.records.items()):
        print(f"output {key}: {value}")
    e2e = end_to_end(workload, untraced, runner)
    if args.trace:
        values, section = per_layer(traced, untraced, layer_rounds, runner), "per_layer"
    else:
        values, section = e2e, "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if values and set(values) != set(units):
        runner.problems.append(f"metrics {sorted(set(values) ^ set(units))} are not both "
                               f"measured and listed in BENCHMARK.json")
    print(f"failed_ratio: {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.4f}")
    for problem in runner.problems:
        print(f"problem: {problem}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
