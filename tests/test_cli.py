import json
import os
import pickle

import pytest

from seeds_sde import cli
from seeds_sde.cli import main
from seeds_sde.config import load_config


def run(argv):
    return main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_sample_writes_csv_and_reports_nfe(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["sample", "--solver", "seeds3", "--schedule", "vp", "--steps", "31",
                "--paths", "50", "--seed", "7", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "NFE per path: 90" in captured
    lines = read(out / "terminal.csv").decode().strip().splitlines()
    assert lines[0] == "path,x0"
    assert len(lines) == 51


def test_sample_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["sample", "--solver", "seeds2", "--steps", "9", "--paths", "40",
                    "--seed", "3", "--out", str(out)]) == 0
    assert read(a / "terminal.csv") == read(b / "terminal.csv")


def test_sample_invalid_combination_exits_1(tmp_path, capsys):
    code = run(["sample", "--solver", "gddim", "--schedule", "edm", "--steps", "8",
                "--paths", "4", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_sample_seed_out_of_range_exits_1(tmp_path, capsys, seed):
    code = run(["sample", "--solver", "seeds1", "--steps", "5", "--paths", "4",
                "--seed", seed, "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def _config_error(capsys):
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["--solver", "euler_maruyama", "--mode", "dp"],
    ["--solver", "gddim", "--mode", "dp"],
    ["--solver", "ve2_sde", "--schedule", "ve", "--mode", "np"],
    ["--solver", "exp_euler_etd", "--schedule", "ve", "--mode", "dp"],
])
def test_sample_mode_without_a_form_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run(["sample", *argv, "--steps", "5", "--paths", "4", "--out", str(out)]) == 1
    assert "has no mode" in _config_error(capsys)
    assert not out.exists()


def test_sample_exp_euler_on_ve_rejected_before_sampling(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["sample", "--solver", "exp_euler_lawson", "--schedule", "ve", "--steps", "5",
                "--paths", "4", "--out", str(out)]) == 1
    assert "not 've'" in _config_error(capsys)
    assert not out.exists()


def test_sample_records_the_default_mode(tmp_path):
    out = tmp_path / "x"
    assert run(["sample", "--solver", "ve2_sde", "--schedule", "ve", "--steps", "5",
                "--paths", "4", "--out", str(out)]) == 0
    assert json.loads(read(out / "config.json"))["solver"]["mode"] == "dp"


@pytest.mark.parametrize("config, key", [
    ({"seed": 1.5, "paths": 2.9, "grid": {"steps": 8.7}}, "seed"),
    ({"paths": 2.9}, "paths"),
    ({"paths": "abc"}, "paths"),
    ({"workers": 1.5}, "workers"),
    ({"grid": {"kind": "linear_lambda", "steps": 8.7}}, "grid steps"),
    ({"model": {"kind": "zero", "dim": 1.5}}, "model dim"),
])
def test_sample_non_integral_config_exits_1(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"{key} must be an integer" in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("kind, order, key", [
    ("strong", {"base_steps": 8.5}, "order base_steps"),
    ("strong", {"refinements": "3"}, "order refinements"),
    ("weak", {"steps_list": [5, 7.5, 10]}, "order steps_list"),
    ("weak", {"steps_list": 5}, "order steps_list"),
])
def test_order_non_integral_config_exits_1(tmp_path, capsys, kind, order, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"order": order, "paths": 100}))
    out = tmp_path / "x"
    assert run(["order", kind, "--config", str(cfg_path), "--solver", "seeds1",
                "--out", str(out)]) == 1
    assert key in _config_error(capsys)
    assert not out.exists()


def test_integral_float_config_values_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3.0, "paths": 20.0, "grid": {"steps": 6.0}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    resolved = json.loads(read(out / "config.json"))
    assert resolved["seed"] == 3 and resolved["paths"] == 20
    assert len(read(out / "terminal.csv").decode().splitlines()) == 21


@pytest.mark.parametrize("config, key", [
    ({"threshold": "abc"}, "threshold"),
    ({"threshold": float("nan")}, "threshold"),
    ({"threshold": True}, "threshold"),
    ({"grid": {"kind": "linear_lambda", "eps_end": "x"}}, "grid eps_end"),
    ({"grid": {"kind": "linear_lambda", "t_top": float("inf")}}, "grid t_top"),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "sigma_min": "0.1"}},
     "grid sigma_min"),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "sigma_max": [80.0]}},
     "grid sigma_max"),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "rho": 10**400}}, "grid rho"),
])
def test_sample_non_numeric_config_exits_1(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"{key} must be a finite number" in _config_error(capsys)
    assert not out.exists()


def test_compare_non_finite_threshold_flag_exits_1(capsys):
    assert run(["compare", "--solver-a", "seeds1", "--solver-b", "seeds1", "--steps", "5",
                "--threshold", "nan"]) == 1
    assert "threshold must be a finite number" in _config_error(capsys)


def test_numeric_config_values_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"kind": "edm"}, "paths": 4, "threshold": 1,
                                    "grid": {"kind": "edm", "steps": 6, "sigma_min": 0.01,
                                             "sigma_max": 50, "rho": 7}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads(read(out / "config.json"))["threshold"] == 1.0


@pytest.mark.parametrize("config, words", [
    ([1, 2], "must hold a JSON object"),
    ({"schedule": "vp"}, "schedule config must be a JSON object"),
    ({"solver": "seeds3"}, "solver config must be a JSON object"),
    ({"grid": 5}, "grid config must be a JSON object"),
    ({"model": [1]}, "model config must be a JSON object"),
    ({"model": {"kind": "gaussian_mixture"}}, "at least one mixture component"),
    ({"order": "x"}, "order config must be a JSON object"),
    ({"out": 5}, "out must be a string"),
    ({"schedule": {"kind": 5}}, "schedule kind must be a string"),
    ({"solver": {"family": ["seeds3"]}}, "solver family must be a string"),
    ({"solver": {"family": "seeds1", "mode": ["dp"]}}, "solver mode must be a string"),
    ({"solver": {"family": "seeds2", "c2": True}}, "solver c2 must be a finite number"),
    ({"solver": {"family": "seeds3", "r1": "x"}}, "solver r1 must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": [1]}}, "solver churn config must be a JSON object"),
    ({"solver": {"family": "seeds3", "churn": {"s_churn": "abc"}}},
     "solver churn s_churn must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": {"s_churn": 1.0, "s_tmin": float("-inf")}}},
     "solver churn s_tmin must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": {"bogus": 1}}},
     "unknown keys in solver churn config: ['bogus']"),
    ({"schedule": {"kind": "vp", "beta_d": True}}, "schedule beta_d must be a finite number"),
    ({"schedule": {"kind": "vp", "beta_d": float("nan")}},
     "schedule beta_d must be a finite number"),
    ({"schedule": {"kind": "edm", "sigma_data": float("inf")}},
     "schedule sigma_data must be a finite number"),
    ({"schedule": {"kind": "vp", "t_max": "1"}}, "schedule t_max must be a finite number"),
    ({"model": {"kind": "zero", "bogus": 1}}, "unknown keys in model config: ['bogus']"),
    ({"model": {"kind": "gaussian_mixture", "dim": 1,
                "components": [{"weight": 1.0, "mean": [0.0], "var": [1.0]}]}},
     "unknown keys in model config: ['dim']"),
])
def test_sample_config_of_the_wrong_type_exits_1(tmp_path, monkeypatch, capsys, config, words):
    # no --out: a run that got past the config would write seeds_out/ here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run(["sample", "--config", "cfg.json"]) == 1
    assert words in _config_error(capsys)
    assert not (tmp_path / "seeds_out" / "terminal.csv").exists()


def test_churn_config_json_reruns(tmp_path):
    # s_tmax keeps its +inf default, which config.json records as Infinity
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"kind": "edm"}, "grid": {"kind": "edm"},
                                    "solver": {"family": "seeds2", "c2": 1,
                                               "churn": {"s_churn": 5}}}))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(["sample", "--config", str(cfg_path), "--steps", "8", "--paths", "6",
                "--out", str(out1)]) == 0
    assert '"s_tmax": Infinity' in read(out1 / "config.json").decode()
    assert run(["sample", "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
    assert read(out1 / "terminal.csv") == read(out2 / "terminal.csv")
    assert read(out1 / "config.json") == read(out2 / "config.json")


_COMPONENT = {"weight": 0.5, "mean": [0.0, 1.0], "var": [1.0, 2.0]}


@pytest.mark.parametrize("bad, words", [
    ({"mean": [float("nan"), 1.0]}, ["component 1", "'mean'"]),
    ({"var": [float("inf"), 1.0]}, ["component 1", "'var'"]),
    ({"var": [1.0] * 3}, ["component 1", "'var'", "'mean'"]),
    ({"mean": ["abc", 1.0]}, ["component 1", "'mean'"]),
    ({"var": None}, ["component 1", "'var'"]),
])
def test_sample_bad_mixture_exits_1(tmp_path, capsys, bad, words):
    comp = {k: v for k, v in {**_COMPONENT, **bad}.items() if v is not None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"kind": "gaussian_mixture",
                                              "components": [_COMPONENT, comp]}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--steps", "5", "--paths", "4",
                "--out", str(out)]) == 1
    err = _config_error(capsys)
    assert all(w in err for w in words), err
    assert not (out / "terminal.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sample_non_finite_state_exits_1(tmp_path, monkeypatch, capsys, workers):
    # the components' means are finite, but the score's weights overflow to nan
    monkeypatch.setattr(cli, "_CHUNK", 2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"kind": "gaussian_mixture", "components": [
        {"weight": 0.5, "mean": [1e200], "var": [1.0]},
        {"weight": 0.5, "mean": [-1e200], "var": [1.0]}]}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--paths", "3", "--steps", "8",
                "--workers", workers, "--out", str(out)]) == 1
    err = _config_error(capsys)
    assert "non-finite state after step 1 at t=" in err, err
    assert not (out / "terminal.csv").exists()


@pytest.mark.parametrize("schedule", ["vp", "vp_cosine", "ve", "edm"])
def test_run_config_pickles_unchanged(schedule):
    solver = "ve2_sde" if schedule == "ve" else "seeds3"
    cfg = load_config(None, {"schedule": schedule, "solver": solver})
    back = pickle.loads(pickle.dumps(cfg))
    assert back.resolved() == cfg.resolved()
    assert back.solver == cfg.solver and back.solver.step_kwargs == cfg.solver.step_kwargs


def test_sample_largest_seed_runs(tmp_path):
    assert run(["sample", "--solver", "seeds1", "--steps", "5", "--paths", "4",
                "--seed", str(2**128 - 1), "--out", str(tmp_path / "x")]) == 0


def test_config_file_round_trip(tmp_path):
    out1 = tmp_path / "r1"
    assert run(["sample", "--solver", "seeds1", "--steps", "7", "--paths", "20",
                "--seed", "11", "--out", str(out1)]) == 0
    # rerunning from the resolved config reproduces the output exactly
    out2 = tmp_path / "r2"
    assert run(["sample", "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
    assert read(out1 / "terminal.csv") == read(out2 / "terminal.csv")


def test_save_trajectories(tmp_path):
    out = tmp_path / "traj"
    assert run(["sample", "--solver", "seeds1", "--steps", "5", "--paths", "3",
                "--seed", "0", "--out", str(out), "--save-trajectories"]) == 0
    files = sorted(os.listdir(out / "trajectories"))
    assert files == ["path_000000.csv", "path_000001.csv", "path_000002.csv"]
    rows = read(out / "trajectories" / "path_000000.csv").decode().strip().splitlines()
    assert len(rows) == 7  # header + M+1 nodes


def test_order_strong_writes_summary(tmp_path, capsys):
    out = tmp_path / "ord"
    cfg = {"order": {"base_steps": 8, "refinements": 3}, "paths": 400}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["order", "strong", "--config", str(cfg_path), "--solver", "seeds1",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "order_strong_seeds1.json"))
    assert "slope" in summary and "r2" in summary and "slope_se" in summary
    csv_head = read(out / "order_strong_seeds1.csv").decode().splitlines()[0]
    assert csv_head == "h,error,se,n_paths"


def test_order_strong_defaults_meet_fit_quality(tmp_path):
    out = tmp_path / "ord_default"
    code = run(["order", "strong", "--solver", "seeds1", "--seed", "0",
                "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "order_strong_seeds1.json"))
    assert summary["r2"] >= 0.95
    assert 0.8 <= summary["slope"] <= 1.2


def test_order_strong_rejects_other_families(tmp_path, capsys):
    code = run(["order", "strong", "--solver", "seeds2", "--paths", "100",
                "--out", str(tmp_path / "x")])
    assert code == 1
    assert "one-stage" in capsys.readouterr().err


def test_order_weak_runs_small(tmp_path):
    cfg = {"order": {"steps_list": [5, 7, 10]}, "paths": 2000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["order", "weak", "--config", str(cfg_path), "--solver", "seeds2",
                "--seed", "2", "--out", str(tmp_path / "w")])
    assert code == 0
    summary = json.loads(read(tmp_path / "w" / "order_weak_seeds2.json"))
    assert summary["kind"] == "weak"


def test_compare_pass_and_fail(tmp_path, capsys):
    base = ["compare", "--schedule", "vp", "--steps", "30", "--seed", "5",
            "--paths", "1"]
    code = run(base + ["--solver-a", "gddim", "--solver-b", "seeds1", "--mode-b", "dp",
                       "--threshold", "1e-10"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out

    code = run(base + ["--solver-a", "seeds1", "--mode-a", "np", "--solver-b", "seeds1",
                       "--mode-b", "dp", "--threshold", "1e-6"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out

    code = run(base + ["--solver-a", "seeds1", "--solver-b", "seeds1"])
    assert code == 0
    assert "0.0" in capsys.readouterr().out


def test_compare_applies_churn(tmp_path, capsys):
    churn = {"s_churn": 11, "s_tmin": 0.05, "s_tmax": 15, "s_noise": 1.003}
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps({"solver": {"family": "seeds3", "churn": churn}}))
    cfg_b.write_text(json.dumps({"solver": {"family": "seeds3"}}))
    base = ["compare", "--schedule", "edm", "--steps", "16", "--seed", "3"]
    assert run(base + ["--config-a", str(cfg_a), "--config-b", str(cfg_b)]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "difference: 0.0\n" not in out
    assert run(base + ["--config-a", str(cfg_a), "--config-b", str(cfg_a)]) == 0
    assert "difference: 0.0\n" in capsys.readouterr().out


def test_compare_mismatched_grids_rejected(tmp_path, capsys):
    cfg_a = tmp_path / "a.json"
    cfg_b = tmp_path / "b.json"
    cfg_a.write_text(json.dumps({"grid": {"kind": "linear_lambda", "steps": 10}}))
    cfg_b.write_text(json.dumps({"grid": {"kind": "linear_lambda", "steps": 12}}))
    code = run(["compare", "--config-a", str(cfg_a), "--config-b", str(cfg_b),
                "--solver-a", "seeds1", "--solver-b", "seeds1"])
    assert code == 1
    assert "identical grids" in capsys.readouterr().err


def test_grid_subcommand_prints_table(capsys):
    assert run(["grid", "--schedule", "vp", "--steps", "6"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "i,t,sigma,lambda,h"
    assert len(out) == 8  # header + M+1 nodes


def test_selftest_passes(capsys):
    assert run(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_selftest_output_deterministic(capsys):
    run(["selftest", "--seed", "0"])
    first = capsys.readouterr().out
    run(["selftest", "--seed", "0"])
    second = capsys.readouterr().out
    assert first == second
