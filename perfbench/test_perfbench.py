"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench`` from
the repository root.  The end-to-end cases use ``--smoke`` inputs and a
one-second run, so each takes a few seconds."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_exact_counts_repeat_across_seeds():
    counts = []
    for seed in (1, 2):
        proc = _run("sample-narrow", 1, seed=seed)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in ("models.nfe", "solvers.steps",
                                                         "schedules.calls", "phi.calls",
                                                         "noise.rows_used")})
    assert counts[0] == counts[1]
    assert counts[0]["models.nfe"] == 100 * (1 + 2 + 3 + 3 + 5 + 1 + 1 + 1 + 1 + 3 + 2 + 1 + 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("order", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tr = tracer.Tracer()

    def inner():
        time.sleep(0.02)

    inner_w = tr.wrap(inner, "inner", "b")

    def outer():
        time.sleep(0.01)
        inner_w()
        inner_w()

    tr.wrap(outer, "outer", "a")()
    calls, incl, self_s = tr.names["outer"]
    assert calls == 1 and incl >= 0.05
    assert 0.01 <= self_s < incl - 0.035
    assert tr.names["inner"][0] == 2 and tr.groups["b"][0] == 2
    assert [e[:3] for e in tr.report()["edges"]] == [["", "outer", 1], ["outer", "inner", 2]]


def test_nested_calls_in_one_group_count_once():
    tr = tracer.Tracer()
    leaf = tr.wrap(lambda: None, "leaf", "g")
    top = tr.wrap(lambda: leaf(), "top", "g")
    top()
    top_calls, top_incl, _ = tr.groups["g"]
    assert top_calls == 1
    assert top_incl == pytest.approx(tr.names["top"][1])
