import concurrent.futures
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from seeds_sde import (ChurnParams, DataDistribution, Edm, RngStream, ScoreModel, SolverSpec,
                       StepPlan, VpLinear, cli, edm_grid, linear_lambda_grid, make_schedule,
                       sample)
from seeds_sde.cli import main
from seeds_sde.config import RunConfig, load_config
from seeds_sde.errors import ConfigError
from seeds_sde.solvers import FAMILIES


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
    ["--solver", "seeds1", "--mode", "bogus"],
    ["--mode", "bogus"],
])
def test_sample_mode_without_a_form_exits_1(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert run(["sample", *argv, "--steps", "5", "--paths", "4", "--out", str(out)]) == 1
    assert "has no mode" in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["order", "weak", "--solver", "seeds2", "--mode", "bogus", "--paths", "10"],
    ["compare", "--solver-a", "seeds1", "--mode-a", "bogus", "--solver-b", "dpm1", "--steps", "5"],
    ["compare", "--solver-a", "seeds1", "--solver-b", "dpm1", "--mode", "bogus", "--steps", "5"],
])
def test_a_mode_no_family_has_exits_1(tmp_path, monkeypatch, capsys, argv):
    # the parser lists no modes: the registry's error names the family's own
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert re.search(r"\w+ has no mode 'bogus'; its modes are \(", _config_error(capsys))
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("order, words", [
    ({"refinements": 3, "base_step": 4}, "unknown keys in order config: ['base_step']"),
    ({"base_steps": 0}, "base_steps >= 1"),
    ({"base_steps": -2}, "base_steps >= 1"),
])
def test_order_bad_section_exits_1(tmp_path, capsys, order, words):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"order": order, "paths": 100}))
    out = tmp_path / "x"
    assert run(["order", "strong", "--config", str(cfg_path), "--solver", "seeds1",
                "--out", str(out)]) == 1
    assert words in _config_error(capsys)
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


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_compare_non_positive_threshold_flag_exits_1(capsys, threshold):
    # identical solvers differ by 0.0, which no threshold <= 0 would pass
    assert run(["compare", "--solver-a", "seeds1", "--solver-b", "seeds1", "--steps", "5",
                "--threshold", threshold]) == 1
    assert "threshold must be > 0" in _config_error(capsys)


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
    ({"solver": {"family": "seeds2", "c2": True}}, "seeds2 c2 must be a finite number"),
    ({"solver": {"family": "seeds3", "r1": "x"}}, "seeds3 r1 must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": [1]}}, "solver churn config must be a JSON object"),
    ({"solver": {"family": "seeds3", "churn": {"s_churn": "abc"}}},
     "churn s_churn must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": {"s_churn": 1.0, "s_tmin": float("-inf")}}},
     "churn s_tmin must be a finite number"),
    ({"solver": {"family": "seeds3", "churn": {"bogus": 1}}},
     "unknown keys in solver churn config: ['bogus']"),
    ({"schedule": {"kind": "vp", "beta_d": True}}, "schedule 'vp' beta_d must be a finite number"),
    ({"schedule": {"kind": "vp", "beta_d": float("nan")}},
     "schedule 'vp' beta_d must be a finite number"),
    ({"schedule": {"kind": "edm", "sigma_data": float("inf")}},
     "schedule 'edm' sigma_data must be a finite number"),
    ({"schedule": {"kind": "vp", "t_max": "1"}}, "schedule 'vp' t_max must be a finite number"),
    ({"model": {"kind": "zero", "bogus": 1}}, "unknown keys in model config: ['bogus']"),
    ({"model": {"kind": "gaussian_mixture", "dim": 1,
                "components": [{"weight": 1.0, "mean": [0.0], "var": [1.0]}]}},
     "unknown keys in model config: ['dim']"),
    ({"solver": {"family": "seeds1", "c2": 0.5}},
     "seeds1 does not read c2; it reads no stage parameter"),
    ({"solver": {"family": "seeds3", "c2": 0.5}}, "seeds3 does not read c2; it reads r1, r2"),
    ({"solver": {"family": "dpm2", "r1": 0.5}}, "dpm2 does not read r1; it reads c2"),
    ({"threshold": 0}, "threshold must be > 0, got 0.0"),
    ({"threshold": -1}, "threshold must be > 0, got -1.0"),
    ({"solver": {"family": None}}, "solver family must be a string, got None"),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "rho": 0.001}},
     "grid rho 0.001 is too small for sigma_max 80.0"),
])
def test_sample_config_of_the_wrong_type_exits_1(tmp_path, monkeypatch, capsys, config, words):
    # no --out: a run that got past the config would write seeds_out/ here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run(["sample", "--config", "cfg.json"]) == 1
    assert words in _config_error(capsys)
    assert not (tmp_path / "seeds_out" / "terminal.csv").exists()


@pytest.mark.parametrize("config, build", [
    ({"schedule": {"kind": "vp", "beta_d": "x"}}, lambda: make_schedule("vp", beta_d="x")),
    ({"schedule": {"kind": 5}}, lambda: make_schedule(5)),
    ({"solver": {"family": "seeds1", "mode": ["dp"]}}, lambda: SolverSpec("seeds1", mode=["dp"])),
    ({"solver": {"family": "seeds2", "c2": True}}, lambda: SolverSpec("seeds2", c2=True)),
    ({"solver": {"family": "seeds3", "churn": {"s_tmin": "x"}}}, lambda: ChurnParams(s_tmin="x")),
    ({"grid": {"eps_end": "x"}}, lambda: linear_lambda_grid(31, "x", 1.0, VpLinear())),
    ({"grid": {"t_top": None}}, lambda: linear_lambda_grid(31, 1e-4, None, VpLinear())),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "sigma_min": "x"}},
     lambda: edm_grid(31, "x", 80.0, 7.0, Edm())),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "sigma_max": [80.0]}},
     lambda: edm_grid(31, 0.002, [80.0], 7.0, Edm())),
    ({"schedule": {"kind": "edm"}, "grid": {"kind": "edm", "rho": 10**400}},
     lambda: edm_grid(31, 0.002, 80.0, 10**400, Edm())),
], ids=["schedule-field", "schedule-kind", "solver-mode", "stage-parameter", "churn-field",
        "grid-eps_end", "grid-t_top", "grid-sigma_min", "grid-sigma_max", "grid-rho"])
def test_a_rule_gives_one_text_from_a_config_file_and_from_its_constructor(tmp_path, config,
                                                                           build):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with pytest.raises(ConfigError) as from_file:
        load_config(str(tmp_path / "cfg.json"), {})
    with pytest.raises(ConfigError) as from_call:
        build()
    assert str(from_file.value) == str(from_call.value)


@pytest.mark.parametrize("build, words", [
    (lambda: make_schedule(5), "schedule kind must be a string, got 5"),
    (lambda: SolverSpec("seeds1", mode=["dp"]), "solver mode must be a string, got ['dp']"),
    (lambda: linear_lambda_grid(5, "a", 1.0, VpLinear()),
     "linear-lambda grid eps_end must be a finite number, got 'a'"),
    (lambda: edm_grid(5, 0.002, 80.0, "a", Edm()), "edm grid rho must be a finite number, got 'a'"),
    (lambda: edm_grid(5, 0.002, math.inf, 7.0, Edm()),
     "edm grid sigma_max must be a finite number, got inf"),
])
def test_bad_library_inputs_raise_named_config_errors(build, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            build()
    assert str(err.value) == words


def test_constructors_store_their_numbers_as_floats():
    spec = SolverSpec("seeds2", c2=1)
    values = (VpLinear(beta_d=20).beta_d, ChurnParams(s_churn=2).s_churn, spec.params["c2"],
              spec.c2)
    assert [type(v) for v in values] == [float] * 4 and values == (20, 2, 1, 1)


@pytest.mark.parametrize("command", [["sample"], ["grid"], ["order", "weak"]])
@pytest.mark.parametrize("schedule, key", [
    ({"kind": "vp", "t_max": 40}, "'t_max': 40.0"),   # expm1(abar) overflows above t_max ~ 8.44
    ({"kind": "vp", "t_max": 1e40}, "'t_max': 1e+40"),
    ({"kind": "vp", "beta_d": 1e300}, "'beta_d': 1e+300"),
    ({"kind": "vp_cosine", "shift": 1e300}, "'shift': 1e+300"),
    ({"kind": "edm", "t_max": 1e300}, "'t_max': 1e+300"),
])
def test_schedule_whose_lambda_is_not_a_float_exits_1(tmp_path, monkeypatch, capsys, command,
                                                      schedule, key):
    # no --out: a run that got past the config would write seeds_out/ here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"schedule": schedule}))
    assert run([*command, "--config", "cfg.json"]) == 1
    err = _config_error(capsys)
    assert f"schedule {schedule['kind']!r}" in err and key in err
    assert not (tmp_path / "seeds_out").exists()


@pytest.mark.parametrize("schedule, key", [
    # EDM's sde lambda saturates at log(sigma_data), outside the image its inverse takes
    ({"kind": "edm", "sigma_data": 1e-300}, "'sigma_data': 1e-300"),
    # lambda(t_max) = -318.8, below the -300 that VP's t_of_lambda takes
    ({"kind": "vp", "t_max": 8.0}, "'t_max': 8.0"),
])
def test_schedule_whose_lambda_does_not_invert_is_a_config_error(tmp_path, schedule, key):
    (tmp_path / "cfg.json").write_text(json.dumps({"schedule": schedule}))
    with pytest.raises(ConfigError, match="lambda that t_of_lambda does not invert") as err:
        load_config(str(tmp_path / "cfg.json"), {})
    assert f"schedule {schedule['kind']!r}" in str(err.value) and key in str(err.value)


def test_a_step_too_wide_for_phi_names_the_steps_and_the_time_range(tmp_path):
    # at t_max = 7.5 lambda spans 286, so 3 to 5 steps are 57 to 95 wide, past phi's
    # |h| <= 50; main turns the ConfigError into exit 1
    (tmp_path / "cfg.json").write_text(json.dumps({"schedule": {"kind": "vp", "t_max": 7.5},
                                                   "order": {"steps_list": [3, 4, 5]}}))
    cfg = load_config(str(tmp_path / "cfg.json"), {"steps": 5, "paths": 3, "workers": 1})
    span = r"from t_max=7\.5 to t_min=0\.0001 of schedule 'vp'\)$"
    with pytest.raises(ConfigError, match=r"^phi argument h=57\.19.* \(with grid steps 5 " + span):
        cli.cmd_sample(cfg, str(tmp_path / "s"))
    with pytest.raises(ConfigError, match=r"^phi argument .* \(with order steps_list \[3, 4, 5\] "
                       + span):
        cli.cmd_order(cfg, "weak", str(tmp_path / "o"))
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_strong_order_with_errors_past_float_max_is_a_config_error(tmp_path):
    # at t_max = 7.5 the coarse levels' states grow huge but stay finite, and their
    # squared distances to the reference overflow: nothing is written
    (tmp_path / "cfg.json").write_text(json.dumps({"schedule": {"kind": "vp", "t_max": 7.5}}))
    cfg = load_config(str(tmp_path / "cfg.json"),
                      {"solver": "seeds1", "paths": 100, "workers": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no NumPy overflow warning before the named error
        with pytest.raises(ConfigError, match=r"^strong order level 0 \(h=8\.93.*\) has error "
                           r".* standard error inf; both must be finite \(with order base_steps "
                           r"32 "):
            cli.cmd_order(cfg, "strong", str(tmp_path / "o"))
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_weak_order_with_a_moment_past_float_max_is_a_config_error(tmp_path):
    # a component variance of 1e200 is finite, as are the states, but the exact fourth
    # moment 3 V^2 overflows: nothing is written, where the errors read inf before
    (tmp_path / "cfg.json").write_text(json.dumps({
        "model": {"components": [{"weight": 0.5, "mean": [0.0], "var": 1e200},
                                 {"weight": 0.5, "mean": [1.0], "var": 1.0}]},
        "order": {"steps_list": [5, 7, 9]}}))
    cfg = load_config(str(tmp_path / "cfg.json"), {"solver": "seeds2", "paths": 50, "workers": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no NumPy overflow warning before the named error
        with pytest.raises(ConfigError, match=r"^weak order grid 0 \(h=.*\) has moment errors and "
                           r"standard errors .*inf.*; all must be finite \(with order steps_list "
                           r"\[5, 7, 9\] "):
            cli.cmd_order(cfg, "weak", str(tmp_path / "o"))
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("order, steps", [({"refinements": 40}, "32 * 2**41"),
                                          ({"refinements": 10**9}, "32 * 2**1000000001"),
                                          ({"base_steps": 129}, "129 * 2**5"),
                                          ({"base_steps": 1, "refinements": 12}, "1 * 2**13")])
def test_strong_order_past_the_reference_grid_cap_is_a_config_error(tmp_path, order, steps):
    # each asks for more than 4096 fine steps, and fails before anything is built
    (tmp_path / "cfg.json").write_text(json.dumps({"order": order}))
    cfg = load_config(str(tmp_path / "cfg.json"), {"solver": "seeds1", "paths": 4, "workers": 1})
    with pytest.raises(ConfigError, match=r"^order base_steps \d+ and order refinements \d+ ask "
                       rf"for a reference grid of {re.escape(steps)} steps; at most 4096$"):
        cli.cmd_order(cfg, "strong", str(tmp_path / "o"))
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("argv, config, key, cap", [
    (["sample", "--steps", str(10**14)], None, "grid steps", 100_000),
    (["grid", "--steps", str(10**14)], None, "grid steps", 100_000),
    (["compare", "--steps", str(10**14)], None, "grid steps", 100_000),
    (["sample"], {"grid": {"steps": 10**14}}, "grid steps", 100_000),
    (["grid", "--grid-kind", "edm"], {"grid": {"steps": 1e14}}, "grid steps", 100_000),
    (["order", "weak"], {"order": {"steps_list": [10**14, 14, 17]}}, "order steps_list", 100_000),
    (["sample", "--paths", str(10**14)], None, "paths", 10_000_000),
    (["order", "strong", "--paths", str(10**14)], None, "paths", 10_000_000),
    (["order", "weak"], {"paths": 10**14}, "paths", 10_000_000),
    # the pool is never opened: the count fails before path_chunks or fan_out runs
    (["order", "strong"], {"workers": 10**14}, "workers", 256),
    (["sample"], {"model": {"kind": "zero", "dim": 10**14}}, "model dim", 10_000),
    (["order", "strong"], {"model": {"kind": "zero", "dim": 1e14}}, "model dim", 10_000),
])
def test_sizes_past_their_caps_are_config_errors(tmp_path, argv, config, key, cap):
    # parsed and loaded as main does, without main, which freezes the test heap: the size
    # fails in load_config, before a grid, model or chunk of paths is built
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ConfigError, match=rf"^{key} must be at most {cap}, got 100000000000000$"):
        load_config(args.config, vars(args))


def test_sizes_at_their_caps_load(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({"order": {"steps_list": [100_000, 14, 17]},
                                                   "model": {"kind": "zero", "dim": 10_000}}))
    cfg = load_config(str(tmp_path / "cfg.json"), {"paths": 10_000_000, "workers": 256})
    assert cfg.n_paths == 10_000_000 and cfg.order["steps_list"][0] == 100_000
    assert cfg.model.dim == 10_000
    assert cfg.workers == 256


def test_a_billion_workers_is_a_config_error():
    # parsed and loaded only: no pool of that size is ever asked for
    args = cli.build_parser().parse_args(["sample", "--paths", "10000000", "--workers", str(10**9)])
    with pytest.raises(ConfigError, match=r"^workers must be at most 256, got 1000000000$"):
        load_config(args.config, vars(args))


def test_default_workers_stop_at_the_cap(monkeypatch):
    # a host with more CPUs than the cap runs the cap, as a config of 256 workers would
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    assert load_config(None, {}).workers == 256


def test_stage_parameter_a_family_does_not_read_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"family": "seeds3", "c2": 0.5}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--paths", "4", "--steps", "5",
                "--out", str(out)]) == 1
    assert "c2" in _config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("schedule, solver", [
    ("ve", {"family": "ve2_sde", "r1": 1e-308}), ("ve", {"family": "ve2_ode_a", "r1": 1e-308}),
    ("vp", {"family": "dpm2", "c2": 1e-308}), ("vp", {"family": "seeds3", "r1": 1e-308}),
])
def test_a_stage_node_on_its_steps_start_exits_1(tmp_path, capsys, schedule, solver):
    # r1 h or c2 h rounds away against the start's level, so the node would not move and
    # the weight 1/(2c) would blow the step up (or, in data prediction, cancel its noise)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"kind": schedule}, "solver": solver}))
    out = tmp_path / "x"
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always", RuntimeWarning)
        assert run(["sample", "--config", str(cfg_path), "--paths", "4", "--out", str(out)]) == 1
    assert warned == []
    assert re.search(r"stage fraction 1e-308 puts a node on its step's start s=\S+ with h=\S+ "
                     r"\(with grid steps 31 from t_max=", _config_error(capsys))
    assert not out.exists()


@pytest.mark.parametrize("solver, params", [
    ({"family": "seeds2"}, {"c2": 0.3}),
    ({"family": "seeds3"}, {"r1": 0.2, "r2": 0.5}),
    ({"family": "ve2_sde", "mode": "dp"}, {"r1": 0.45}),
])
def test_stage_parameters_a_family_reads_change_its_output(tmp_path, solver, params):
    schedule = {"kind": "ve"} if solver["family"] == "ve2_sde" else {"kind": "vp"}
    texts = []
    for name, section in (("default", solver), ("set", {**solver, **params})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps({"schedule": schedule, "solver": section}))
        assert run(["sample", "--config", str(cfg_path), "--paths", "4", "--steps", "6",
                    "--out", str(tmp_path / name)]) == 0
        texts.append(read(tmp_path / name / "terminal.csv"))
    written = json.loads(read(tmp_path / "set" / "config.json"))["solver"]
    assert {key: written[key] for key in params} == params
    assert texts[0] != texts[1]


@pytest.mark.parametrize("solver, keys", [
    ("seeds1", {"family", "mode"}),
    ("seeds3", {"family", "mode", "r1", "r2"}),
])
def test_config_json_records_only_the_stage_parameters_that_ran(tmp_path, solver, keys):
    out = tmp_path / "x"
    assert run(["sample", "--solver", solver, "--steps", "5", "--paths", "3",
                "--out", str(out)]) == 0
    assert set(json.loads(read(out / "config.json"))["solver"]) == keys
    assert run(["sample", "--config", str(out / "config.json"), "--out", str(tmp_path / "y")]) == 0
    assert read(out / "terminal.csv") == read(tmp_path / "y" / "terminal.csv")


@pytest.mark.parametrize("flag, expected", [
    ("vp", {"kind": "vp", "beta_d": 10.0}), ("VP-Linear", {"kind": "vp", "beta_d": 10.0}),
    ("edm", {"kind": "edm", "sigma_data": 0.5}),
], ids=["vp", "vp-linear-alias", "edm"])
def test_schedule_flag_keeps_the_parameters_of_the_configs_own_kind(tmp_path, flag, expected):
    # as --solver keeps the stage parameters, a --schedule naming the section's kind keeps
    # its beta_d; another kind starts from that kind's defaults
    cfg_path = tmp_path / "vp10.json"
    cfg_path.write_text(json.dumps({"schedule": {"kind": "vp_linear", "beta_d": 10.0}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--schedule", flag, "--solver", "seeds1",
                "--steps", "5", "--paths", "3", "--out", str(out)]) == 0
    written = json.loads(read(out / "config.json"))["schedule"]
    assert {key: written[key] for key in expected} == expected


_SMALL_ORDER = {"strong": {"base_steps": 4, "refinements": 3}, "weak": {"steps_list": [5, 7, 10]}}


def _with_order_config(tmp_path, argv, kind):
    """argv with a config file that holds a small order section for ``kind``."""
    cfg_path = tmp_path / "order.json"
    cfg_path.write_text(json.dumps({"order": _SMALL_ORDER[kind]}))
    return argv + ["--config", str(cfg_path)]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every process pool opened from here on; each runs its tasks in this
    process, so none starts."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


def test_sample_pool_holds_no_more_workers_than_chunks(tmp_path, pool_sizes):
    # 4096 paths at two workers are two chunks of 2048, and a pool of 2; 8200 paths
    # at four are four chunks (2048 x 4 and 8); config.json records the size that ran
    for paths, workers, size in (("4096", "2", 2), ("8200", "4", 4)):
        out = tmp_path / paths
        assert run(["sample", "--solver", "seeds1", "--steps", "3", "--paths", paths,
                    "--workers", workers, "--out", str(out)]) == 0
        assert json.loads(read(out / "config.json"))["workers"] == size
    assert pool_sizes == [2, 4]


def test_one_chunk_starts_no_pool_and_records_one_worker(tmp_path, pool_sizes):
    # fewer than two full 1024-path blocks are one chunk at any worker count (the
    # default, the host's CPUs, included), and any run at one worker starts no pool
    for paths, workers in (("1024", "4"), ("2047", "4"), ("1", None), ("1100", None),
                           ("8192", "1"), ("100000", "1")):
        out = tmp_path / paths
        assert run(["sample", "--solver", "seeds1", "--steps", "3", "--paths", paths,
                    "--out", str(out), *(["--workers", workers] if workers else [])]) == 0
        assert json.loads(read(out / "config.json"))["workers"] == 1
    assert pool_sizes == []


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_order_pool_holds_no_more_workers_than_chunks(tmp_path, pool_sizes, kind):
    # 8192 paths at nine workers are eight chunks of one block: strong order runs one
    # task a chunk, weak order one for each of its three grids and each chunk, and
    # either opens a pool of 8; 1024 paths at nine workers, and 8192 at one, are one
    # chunk and start none
    for paths, workers in (("8192", "9"), ("1024", "9"), ("8192", "1")):
        argv = ["order", kind, "--solver", "seeds1", "--paths", paths, "--workers", workers,
                "--out", str(tmp_path / "x")]
        assert run(_with_order_config(tmp_path, argv, kind)) == 0
    assert pool_sizes == [8]


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sample_non_finite_state_exits_1(tmp_path, monkeypatch, capsys, workers,
                                         nan_from_model, chunks_of):
    # every chunk's model returns NaN from its first noise prediction on
    def build_model(cfg):
        return nan_from_model(ScoreModel(DataDistribution.standard_normal(1), cfg.schedule), 1)

    chunks_of(cli, 2)
    monkeypatch.setattr(RunConfig, "build_model", build_model)
    out = tmp_path / "x"
    assert run(["sample", "--paths", "3", "--steps", "8", "--workers", workers,
                "--out", str(out)]) == 1
    err = _config_error(capsys)
    assert "non-finite state after step 1 at t=" in err, err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["strong", "weak"])
def test_order_non_finite_state_in_a_pooled_chunk_exits_1(tmp_path, monkeypatch, capsys, kind,
                                                          nan_from_model):
    # 9000 paths are two chunks, so the NaN surfaces inside a pool worker
    def build_model(cfg):
        return nan_from_model(ScoreModel(DataDistribution.standard_normal(1), cfg.schedule), 1)

    monkeypatch.setattr(RunConfig, "build_model", build_model)
    out = tmp_path / "x"
    argv = ["order", kind, "--solver", "seeds1", "--paths", "9000", "--workers", "2",
            "--out", str(out)]
    assert run(_with_order_config(tmp_path, argv, kind)) == 1
    err = _config_error(capsys)
    assert "non-finite state after step 1 at t=" in err, err
    assert not out.exists()


def test_sample_huge_mixture_means_exit_1(tmp_path, capsys):
    # finite means whose distance cannot be squared are a config error, not a failed run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"kind": "gaussian_mixture", "components": [
        {"weight": 0.5, "mean": [1e200], "var": [1.0]},
        {"weight": 0.5, "mean": [-1e200], "var": [1.0]}]}}))
    out = tmp_path / "x"
    assert run(["sample", "--config", str(cfg_path), "--paths", "3", "--steps", "8",
                "--out", str(out)]) == 1
    err = _config_error(capsys)
    assert "mixture component 0: 'mean' must be below sqrt(float max) / 2" in err, err
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["vp", "vp_cosine", "ve", "edm"])
def test_run_config_pickles_unchanged(schedule):
    solver = "ve2_sde" if schedule == "ve" else "seeds3"
    cfg = load_config(None, {"schedule": schedule, "solver": solver})
    back = pickle.loads(pickle.dumps(cfg))
    assert back.resolved() == cfg.resolved()
    assert back.solver == cfg.solver and back.solver.step_kwargs == cfg.solver.step_kwargs


@pytest.mark.parametrize("family, mode", [(fam, mode) for fam, desc in FAMILIES.items()
                                          for mode in desc.forms])
def test_resolved_config_round_trips_every_family_and_mode(tmp_path, family, mode):
    # integer stage parameters and churn values load as floats and are written as floats
    desc = FAMILIES[family]
    params = dict(zip(desc.params, (1,) if len(desc.params) == 1 else (0.25, 0.75)))
    churn = {"s_churn": 1, "s_tmin": 0, "s_tmax": 80, "s_noise": 1}
    (tmp_path / "cfg.json").write_text(json.dumps({
        "schedule": {"kind": desc.forms[mode].schedules[0]},
        "solver": {"family": family, "mode": mode, **params, "churn": churn}}))
    cfg = load_config(str(tmp_path / "cfg.json"), {})
    text = json.dumps(cfg.resolved(), indent=2, sort_keys=True)
    solver = json.loads(text)["solver"]
    assert solver == {"family": family, "mode": mode, **params, "churn": churn}
    assert all(type(v) is float for v in (*solver["churn"].values(), *map(solver.get, params)))
    (tmp_path / "back.json").write_text(text)
    assert load_config(str(tmp_path / "back.json"), {}).resolved() == cfg.resolved()


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


def test_order_strong_rejects_churn(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"family": "seeds1", "churn": {"s_churn": 4.0}},
                               "order": {"base_steps": 4, "refinements": 3}}))
    out = tmp_path / "o"
    assert run(["order", "strong", "--config", str(cfg), "--paths", "20",
                "--out", str(out)]) == 1
    assert "churn" in _config_error(capsys)
    assert not out.exists()


def test_order_strong_non_finite_state_exits_1(tmp_path, monkeypatch, capsys, nan_from_model):
    def build_model(cfg):
        return nan_from_model(ScoreModel(DataDistribution.standard_normal(1), cfg.schedule), 1)

    monkeypatch.setattr(RunConfig, "build_model", build_model)
    out = tmp_path / "o"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": {"base_steps": 4, "refinements": 3}}))
    assert run(["order", "strong", "--config", str(cfg), "--solver", "seeds1", "--paths", "20",
                "--seed", "3", "--out", str(out)]) == 1
    assert "non-finite state after step 1 at t=" in _config_error(capsys)
    assert not out.exists()


def test_order_weak_runs_small(tmp_path):
    cfg = {"order": {"steps_list": [5, 7, 10]}, "paths": 2000}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["order", "weak", "--config", str(cfg_path), "--solver", "seeds2",
                "--seed", "2", "--out", str(tmp_path / "w")])
    assert code == 0
    summary = json.loads(read(tmp_path / "w" / "order_weak_seeds2.json"))
    assert summary["kind"] == "weak"


def test_order_weak_walks_the_config_grid(tmp_path):
    # on EDM the grid section's rho = 7 ladder replaces the default linear-lambda grids,
    # at each steps_list entry's step count
    sched, steps_list = Edm(), [5, 7, 10]
    csvs = []
    for grid in ({}, {"grid": {"kind": "edm"}}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"order": {"steps_list": steps_list}, "paths": 500,
                                        **grid}))
        out = tmp_path / str(len(csvs))
        assert run(["order", "weak", "--config", str(cfg_path), "--solver", "seeds2",
                    "--schedule", "edm", "--seed", "2", "--workers", "1", "--out", str(out)]) == 0
        csvs.append(read(out / "order_weak_seeds2.csv").decode())
    assert csvs[0] != csvs[1]
    ladders = [edm_grid(m, sched.sigma_of_t(sched.t_min), sched.sigma_of_t(sched.t_max), 7.0,
                        sched) for m in steps_list]
    walked = sorted(float(line.split(",")[0]) for line in csvs[1].splitlines()[1:])
    assert walked == sorted(float(np.max(g.step_widths(sched))) for g in ladders)


def test_order_strong_notes_the_grid_keys_it_does_not_read(tmp_path, capsys):
    # its levels must nest, so a grid section shared with other commands is named, not walked
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"order": {"base_steps": 4, "refinements": 3}, "paths": 50,
                                    "grid": {"kind": "edm", "rho": 3.0}}))
    assert run(["order", "strong", "--config", str(cfg_path), "--solver", "seeds1",
                "--workers", "1", "--out", str(tmp_path / "s")]) == 0
    note = ("grid keys ['kind', 'rho'] not read: strong order's levels are halvings linear "
            "in the SDE lambda over [t_min, t_max]")
    assert note in json.loads(read(tmp_path / "s" / "order_strong_seeds1.json"))["notes"]
    assert f"note: {note}" in capsys.readouterr().out


def test_compare_pass_and_fail(tmp_path, capsys):
    base = ["compare", "--schedule", "vp", "--steps", "30", "--seed", "5"]
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


def test_compare_accepts_grid_sections_that_build_one_grid(tmp_path, capsys):
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps({"grid": {"steps": 12}}))
    cfg_b.write_text(json.dumps({"grid": {"kind": "linear_lambda", "steps": 12}}))
    assert run(["compare", "--config-a", str(cfg_a), "--config-b", str(cfg_b),
                "--solver-a", "seeds1", "--solver-b", "seeds1", "--seed", "3"]) == 0
    assert "difference: 0.0\nPASS" in capsys.readouterr().out


def test_compare_rejects_two_thresholds(tmp_path, capsys):
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps({"threshold": 1e-3}))
    cfg_b.write_text(json.dumps({"threshold": 1e-30}))
    base = ["compare", "--config-a", str(cfg_a), "--config-b", str(cfg_b), "--solver-a",
            "gddim", "--solver-b", "seeds1", "--mode-b", "dp", "--steps", "12"]
    assert run(base) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "config error" in captured.err
    assert "0.001" in captured.err and "1e-30" in captured.err
    # the flag sets both sides
    assert run(base + ["--threshold", "1e-30"]) == 2
    assert "FAIL (threshold 1e-30)" in capsys.readouterr().out


def test_compare_different_models_rejected(tmp_path, capsys):
    cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
    cfg_a.write_text(json.dumps({"solver": {"family": "seeds1"}}))
    mixture = {"kind": "gaussian_mixture",
               "components": [{"weight": 1.0, "mean": [5.0], "var": [0.1]}]}
    cfg_b.write_text(json.dumps({"solver": {"family": "seeds1"}, "model": mixture}))
    base = ["compare", "--config-a", str(cfg_a), "--steps", "12", "--seed", "3"]
    assert run(base + ["--config-b", str(cfg_b)]) == 1
    captured = capsys.readouterr()
    assert "identical models" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    # the default model spelled out, with a scalar variance and an integer weight
    cfg_b.write_text(json.dumps({"solver": {"family": "seeds1"}, "model": {
        "kind": "gaussian_mixture", "components": [{"weight": 1, "mean": [0.0], "var": 1.0}]}}))
    assert run(base + ["--config-b", str(cfg_b)]) == 0
    assert "difference: 0.0\nPASS" in capsys.readouterr().out


def test_compare_non_finite_state_exits_1(monkeypatch, capsys, nan_from_model):
    def build_model(cfg):
        return nan_from_model(ScoreModel(DataDistribution.standard_normal(1), cfg.schedule), 4)

    monkeypatch.setattr(RunConfig, "build_model", build_model)
    assert run(["compare", "--solver-a", "seeds1", "--solver-b", "dpm1", "--steps", "12",
                "--seed", "3"]) == 1
    assert "non-finite state after step 2 at t=" in _config_error(capsys)


def test_order_weak_grids_of_one_step_width_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": {"steps_list": [14, 14, 14]}}))
    out = tmp_path / "o"
    assert run(["order", "weak", "--solver", "seeds2", "--paths", "50", "--config", str(cfg),
                "--out", str(out)]) == 1
    assert "distinct largest step widths" in _config_error(capsys)
    assert not out.exists()


def test_order_weak_zero_model_on_edm_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"kind": "zero", "dim": 1},
                               "order": {"steps_list": [6, 8, 11, 15]}}))
    out = tmp_path / "o"
    assert run(["order", "weak", "--solver", "seeds1", "--schedule", "edm", "--paths", "4000",
                "--seed", "3", "--config", str(cfg), "--out", str(out)]) == 1
    assert "zero model has no exact law on EDM" in _config_error(capsys)
    assert not (out / "order_weak_seeds1.csv").exists()


def test_grid_kind_flag_validates_the_grid_that_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"rho": 5.0}}))
    assert run(["grid", "--schedule", "edm", "--steps", "4", "--grid-kind", "edm",
                "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    sigmas = [float(row.split(",")[2]) for row in rows[1:-1]]
    # the rho = 5 power ladder from sigma_max = 80 down to sigma_min = 0.002
    lo, hi = 0.002 ** 0.2, 80.0 ** 0.2
    assert sigmas == pytest.approx([(hi + i / 3 * (lo - hi)) ** 5 for i in range(4)], rel=1e-12)


def test_selftest_reads_the_staged_noise_coefficients(monkeypatch, capsys):
    from seeds_sde import selftest
    from seeds_sde.noise import stage_noise_weights

    def wrong_z2(fracs, h):  # the full-step noise's z2 weight off by 0.01
        n1, a, (b1, b2, b3) = stage_noise_weights(fracs, h)
        return n1, a, (b1, b2 + 0.01, b3)

    monkeypatch.setattr(selftest, "stage_noise_weights", wrong_z2)
    assert run(["selftest", "--seed", "0"]) == 2
    out = capsys.readouterr().out
    assert "FAIL staged-noise telescoping" in out and "13/14 checks passed" in out


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


# the flags each subcommand takes: the only ones it reads
_SUBCOMMAND_FLAGS = {
    "sample": {"--config", "--seed", "--paths", "--steps", "--solver", "--schedule", "--mode",
               "--out", "--workers", "--save-trajectories"},
    "order": {"--config", "--seed", "--paths", "--solver", "--schedule", "--mode", "--out",
              "--workers"},
    "compare": {"--config", "--seed", "--steps", "--solver", "--schedule", "--mode",
                "--threshold", "--config-a", "--config-b", "--solver-a", "--solver-b",
                "--mode-a", "--mode-b"},
    "grid": {"--config", "--steps", "--schedule", "--grid-kind"},
    "selftest": {"--seed"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    declared = {name: {flag for action in p._actions for flag in action.option_strings
                       if flag not in ("-h", "--help")}
                for name, p in sub.choices.items()}
    assert declared == _SUBCOMMAND_FLAGS
    assert sum(map(len, declared.values())) == 36


# (subcommand, flag it does not read, a value): each was accepted and ignored before
_DEAD_FLAGS = [
    ("sample", "--threshold", "5"),
    ("order", "--steps", "8"), ("order", "--threshold", "5"),
    ("compare", "--paths", "1"), ("compare", "--out", "x"), ("compare", "--workers", "2"),
    ("grid", "--seed", "3"), ("grid", "--paths", "3"), ("grid", "--solver", "seeds1"),
    ("grid", "--mode", "np"), ("grid", "--out", "x"), ("grid", "--workers", "2"),
    ("grid", "--threshold", "5"),
]


@pytest.mark.parametrize("command, flag, value", _DEAD_FLAGS)
def test_flag_a_subcommand_does_not_read_exits_1(tmp_path, monkeypatch, capsys, command, flag,
                                                 value):
    monkeypatch.chdir(tmp_path)   # where the default output directory would go
    argv = {"sample": ["sample", "--steps", "5", "--paths", "4"],
            "order": ["order", "strong", "--paths", "20"],
            "compare": ["compare", "--solver-a", "seeds1", "--solver-b", "seeds1",
                        "--steps", "8"],
            "grid": ["grid", "--steps", "4"]}[command]
    assert run(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and flag in captured.err, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_grid_runs_no_solver_check(capsys):
    # the default solver, seeds3 (np), does not run on VE; grid runs no solver
    assert run(["grid", "--schedule", "ve", "--steps", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6   # header + M+1 nodes


@pytest.mark.parametrize("argv", [["sample", "--stpes", "5"], ["sample", "--paths", "1.5"],
                                  ["compare", "--solver-a", "gddim", "--threshld", "1e-6"],
                                  ["order", "sideways"], []])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_usage_error_is_not_a_failed_check(capsys):
    assert run(["sample", "--steps", "abc"]) == 1
    assert "argument --steps: invalid int value: 'abc'" in _config_error(capsys)
    # exit 2 stays a failed check: a compare whose difference is over its threshold
    assert run(["compare", "--solver-a", "seeds1", "--mode-a", "np", "--solver-b", "seeds1",
                "--mode-b", "dp", "--steps", "30", "--threshold", "1e-6"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--help"])
    assert exc.value.code == 0
    assert "--save-trajectories" in capsys.readouterr().out


def test_unknown_top_level_config_key_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"sed": 3, "pahts": 5}))
    assert run(["sample", "--config", "cfg.json", "--steps", "5"]) == 1
    assert "unknown keys in top-level config: ['pahts', 'sed']" in _config_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("extra", [["--workers", "1"], ["--workers", "2", "--paths", "9000"]])
def test_sample_solver_off_its_schedule_exits_1(tmp_path, capsys, extra):
    # the solver-vs-schedule check runs when the parent builds the run's plan, before
    # the two chunks' pool opens
    out = tmp_path / "x"
    assert run(["sample", "--solver", "ve2_sde", "--schedule", "vp", "--steps", "5",
                "--out", str(out), *extra]) == 1
    assert "runs on ve/edm schedules, not 'vp'" in _config_error(capsys)
    assert not out.exists()


def test_sample_builds_one_plan_for_every_chunk(tmp_path, monkeypatch):
    # 20,000 paths at one worker are three chunks, and the parent's one plan walks them all
    built = []
    init = StepPlan.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(StepPlan, "__init__", counting)
    out = tmp_path / "x"
    assert len(cli.path_chunks(20_000, 1)) == 3
    assert run(["sample", "--solver", "seeds2", "--steps", "4", "--paths", "20000",
                "--seed", "3", "--workers", "1", "--out", str(out)]) == 0
    assert len(built) == 1
    cfg = load_config(None, {"solver": "seeds2", "steps": 4, "seed": 3})
    whole = sample(StepPlan(cfg.solver, cfg.model, cfg.grid), RngStream(3), n_paths=20_000)
    rows = enumerate(whole.terminal[:, 0].tolist())
    want = "path,x0\n" + "".join(f"{p},{v!r}\n" for p, v in rows)
    same = read(out / "terminal.csv") == want.encode()   # no 20,000-row diff on failure
    assert same


def test_sample_tabulates_its_model_once_for_every_chunk(tmp_path, monkeypatch):
    # the three chunks of 20,000 paths at one worker hand the one model the same times
    tables, table_of = [], ScoreModel._table_of

    def counting(self, times):
        tables.append(len(times))
        return table_of(self, times)

    monkeypatch.setattr(ScoreModel, "_table_of", counting)
    assert run(["sample", "--solver", "seeds3", "--steps", "31", "--paths", "20000",
                "--workers", "1", "--out", str(tmp_path / "x")]) == 0
    assert len(tables) == 1


def test_a_plan_that_cannot_be_built_fails_before_any_pool(tmp_path, monkeypatch, capsys):
    # two chunks at two workers, but the parent's plan fails first: no pool, no --out
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"schedule": {"kind": "ve"}, "solver": {"family": "ve2_sde", "r1": 1e-308}}))
    out = tmp_path / "x"
    assert len(cli.path_chunks(4096, 2)) == 2
    assert run(["sample", "--config", str(tmp_path / "cfg.json"), "--paths", "4096",
                "--workers", "2", "--out", str(out)]) == 1
    assert "stage fraction 1e-308 puts a node on its step's start" in _config_error(capsys)
    assert not out.exists()


def test_readme_commands_parse():
    # every `seeds-sde ...` line in README's code blocks, continuations joined
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]   # the text inside each fence
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("seeds-sde ")]
    assert {argv[0] for argv in commands} == set(_SUBCOMMAND_FLAGS)
    for argv in commands:
        cli.build_parser().parse_args(argv)   # a flag the table drops raises ConfigError


def test_readme_config_example_loads(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]
    (example,) = [block.removeprefix("json") for block in blocks if block.startswith("json")]
    (tmp_path / "cfg.json").write_text(example)
    assert set(load_config(str(tmp_path / "cfg.json"), {}).resolved()["solver"]) == {
        "family", "mode", "r1", "r2"}


# the entry point as a process: `python -m seeds_sde` runs `cli.main` in a fresh
# interpreter, which freezes its heap before any command runs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def test_readme_library_example_runs(tmp_path):
    # README's one python block, as written, in a fresh interpreter with src on the path
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]
    (example,) = [block.removeprefix("python") for block in blocks if block.startswith("python")]
    proc = _python("-c", example, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    means, nfe = re.fullmatch(r"\[(.*)\] (\d+)\n", proc.stdout, re.S).groups()
    assert nfe == "90"
    assert len(means.split()) == 2 and all(math.isfinite(float(m)) for m in means.split())


@pytest.mark.parametrize("argv", [
    ["--solver", "seeds3", "--steps", "11", "--paths", "50", "--workers", "1"],
    # two chunks of 1024: a pool of two forks after the freeze
    ["--solver", "seeds1", "--steps", "4", "--paths", "2048", "--workers", "2"],
])
def test_module_entry_point_writes_what_main_writes(tmp_path, argv):
    proc = _python("-m", "seeds_sde", "sample", *argv, "--seed", "5",
                   "--out", str(tmp_path / "process"))
    assert proc.returncode == 0, proc.stderr
    wrote, nfe = proc.stdout.splitlines()
    paths = argv[argv.index("--paths") + 1]
    assert wrote == f"wrote {paths} terminal states to {tmp_path / 'process' / 'terminal.csv'}"
    assert nfe.startswith("NFE per path: ")
    assert run(["sample", *argv, "--seed", "5", "--out", str(tmp_path / "main")]) == 0
    assert read(tmp_path / "process" / "terminal.csv") == read(tmp_path / "main" / "terminal.csv")


def test_module_entry_point_bad_argument_exits_1(tmp_path):
    proc = _python("-m", "seeds_sde", "sample", "--steps", "many", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: ")
    assert os.listdir(tmp_path) == []


def test_only_main_freezes_the_heap(tmp_path):
    # library calls leave the collector as they found it, a pool included; main freezes
    # the heap before its paths fan out
    script = textwrap.dedent("""
        import gc, json, sys
        from seeds_sde import RngStream, SolverSpec, StepPlan, cli, linear_lambda_grid
        from seeds_sde.config import load_config
        from seeds_sde.harness import weak_order
        from seeds_sde.solvers import sample

        cfg = load_config(None, {})
        sched, model = cfg.schedule, cfg.build_model()
        sample(StepPlan(cfg.solver, model, cfg.build_grid()), RngStream(0), n_paths=3)
        grids = [linear_lambda_grid(m, sched.t_min, sched.t_max, sched) for m in (4, 5, 6)]
        weak_order(SolverSpec("seeds1"), model, grids, 2048, RngStream(0), workers=2)
        counts = {"library": gc.get_freeze_count()}
        fan_out = cli.fan_out

        def spy(*args):
            counts["fan_out"] = gc.get_freeze_count()
            return fan_out(*args)

        cli.fan_out = spy
        code = cli.main(["sample", "--steps", "4", "--paths", "2", "--out", sys.argv[1]])
        print(json.dumps({**counts, "code": code}))
    """)
    proc = _python("-c", script, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["library"] == 0 and counts["code"] == 0
    assert counts["fan_out"] > 0


@pytest.mark.parametrize("argv", [["sample", "--steps", "5", "--paths", "3", "--out", "o"],
                                  ["grid", "--steps", "5"]])
def test_sample_and_grid_never_load_the_harness(tmp_path, argv):
    # a fresh interpreter: this one loaded the harness long ago
    script = ("import sys; from seeds_sde.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'seeds_sde.harness' in sys.modules)")
    proc = _python("-c", script, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    # and the package still hands out the harness's names on first use
    assert _python("-c", "from seeds_sde import weak_order, GaussianFlowOracle").returncode == 0


@pytest.mark.parametrize("argv, files, words", [
    (["compare", "--config-a", "@a", "--config-b", "@b"],
     {"a": {"schedule": {"kind": "vp"}}, "b": {"schedule": {"kind": "vp_cosine"}}},
     "compare requires identical schedules on both sides"),
    (["compare", "--config-a", "@a", "--config-b", "@b"], {"a": {"seed": 1}, "b": {"seed": 2}},
     "compare requires identical seeds on both sides"),
    (["compare", "--config-a", "@a", "--config-b", "@b"],
     {"a": {"model": {"kind": "zero", "dim": 1}}, "b": {"model": {"kind": "zero", "dim": 2}}},
     "compare requires identical models on both sides"),
    (["sample", "--config", "@missing", "--out", "@out"], {}, "cannot read config file"),
    (["sample", "--config", "@a", "--out", "@out"], {"a": '{"seed": '}, "is not valid JSON"),
    (["sample", "--config", "@a", "--out", "@out"], {"a": {"workers": 0}}, "workers must be >= 1"),
], ids=["compare-schedules", "compare-seeds", "compare-model-dims", "missing-file",
        "bad-json", "zero-workers"])
def test_config_errors_name_what_is_wrong(tmp_path, capsys, argv, files, words):
    # "@name" is tmp_path / name, where files[name], JSON or raw text, is written first
    for name, body in files.items():
        (tmp_path / name).write_text(body if isinstance(body, str) else json.dumps(body))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert run(argv) == 1
    assert words in _config_error(capsys)
    assert not (tmp_path / "out").exists()
