"""The experiment scripts run end to end on small inputs.

Each script imports the ``SolverSpec`` API and builds specs from its own
flags, so a change to that API shows up here first.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(script):
    """The script as a module, to call its helpers."""
    path = os.path.join(ROOT, "scripts", script)
    spec = importlib.util.spec_from_file_location(script[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(script, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
                          check=False)


def test_solver_equivalences_script_runs():
    proc = _run("solver_equivalences.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("max relative per-step diff") == 4


@pytest.mark.parametrize("args", [[], ["--solver", "seeds1", "--mode", "dp"],
                                  ["--solver", "dpm2"]])
def test_distribution_recovery_script_runs(args):
    proc = _run("distribution_recovery.py", "--paths", "2000", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("cov diag") == 2


def test_distribution_recovery_script_names_a_mode_the_solver_lacks():
    # the script lists no modes of its own: SolverSpec's error names the family's
    proc = _run("distribution_recovery.py", "--solver", "seeds3", "--mode", "bogus")
    assert proc.returncode == 1
    assert "seeds3 has no mode 'bogus'; its modes are ('np',)" in proc.stderr


def test_order_study_script_runs(tmp_path):
    proc = _run("order_study.py", "--out", str(tmp_path / "orders"), "--strong-paths", "400",
                "--weak-paths", "2000")
    assert proc.returncode == 0, proc.stderr
    assert len(os.listdir(tmp_path / "orders")) == 8  # CSV + JSON for four studies


def test_oracle_bench_script_runs():
    proc = _run("oracle_bench.py", "--components", "1", "2", "--dims", "1", "3",
                "--paths", "1", "16", "--repeats", "2", "--sample-ms", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["us/call", "prepared"]
    assert len(rows) == 8
    assert all(len(row.split()) == 5 and float(row.split()[3]) > 0 and float(row.split()[4]) > 0
               for row in rows)


def test_step_bench_script_runs():
    from seeds_sde.solvers import FAMILIES

    proc = _run("step_bench.py", "--steps", "4", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["family", "mode", "sched", "plan", "ms", "walk", "ms", "d=1",
                              "walk", "ms", "d=2"]
    # one row per family and mode, with the plan's time and the walk's at d = 1 and d = 2
    assert [tuple(row.split()[:2]) for row in rows] == [
        (fam, mode) for fam, desc in FAMILIES.items() for mode in desc.forms]
    assert all(float(value) > 0 for row in rows for value in row.split()[3:6])


def test_bench_record_script_runs(tmp_path):
    (tmp_path / "BENCH_2.json").write_text("{}")
    proc = _run("bench_record.py", "--workloads", "sample-mixture", "--seeds", "3", "4",
                "--seconds", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "BENCH_3.json") as fh:   # one past the highest number there
        record = json.load(fh)
    assert [(r["workload"], r["seed"]) for r in record["results"]] == [
        ("sample-mixture", 3), ("sample-mixture", 4)]
    assert all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in record["results"])
    rate = record["summary"]["sample-mixture"]["path_steps_per_s"]
    values = sorted(r["result"]["metrics"]["path_steps_per_s"]["value"]
                    for r in record["results"])
    assert values[0] <= rate["q1"] <= rate["median"] <= rate["q3"] <= values[1]
    assert rate["median"] == sum(values) / 2 and rate["unit"] == "1/s"
    # the commit of the checkout benchmarked: null in an exported copy that is no work tree
    commit = _load("bench_record.py")._commit(ROOT)
    assert record["commit"] == commit and (commit is None or len(commit) >= 40)
    assert record["numpy"] and record["python"]


def test_bench_record_commit_is_null_outside_a_git_work_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # look no higher
    assert _load("bench_record.py")._commit(str(tmp_path)) is None
