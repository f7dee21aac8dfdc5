"""Seeded config fuzz: no input ends in a traceback.

Each case takes a small valid config, replaces one to three of its values (a
section, a key or a list entry) with a wrong type, NaN, an infinity, a huge or
tiny number, null or an empty list or object, sometimes with flag overrides of
the parsed flags' types, and runs ``load_config`` and one ``cmd_*`` in-process,
as ``cli.main`` would but without its heap freeze.  Only ``ConfigError``,
``DomainError`` and ``GridError`` may escape, and any terminal.csv written holds
finite numbers.  RuntimeWarnings are recorded, as the command line prints them,
and no case may print one, whether it runs to the end or ends in a named error:
a bad value is named before NumPy computes with it.  Every size the base
configs set is small (paths, steps, refinements, base_steps, steps_list, model
dim) and every run has one worker; no replacement value is a larger valid
size, so no case asks for a big allocation or a pool.  A ``grid`` or ``order`` section emptied to ``{}`` runs
on the command line's defaults: 31 grid steps, strong order's 32 * 2**5-step
reference and weak order's 14 to 26 steps, still at most 64 paths.
"""

import copy
import csv
import json
import math
import random
import warnings

import pytest

from seeds_sde import cli
from seeds_sde.config import load_config
from seeds_sde.errors import ConfigError, DomainError, GridError

NAMED = (ConfigError, DomainError, GridError)

_ORDER = {"base_steps": 2, "refinements": 3, "steps_list": [5, 7, 9]}
BASES = [
    {"schedule": {"kind": "vp", "beta_d": 19.9, "beta_m": 0.1},
     "model": {"kind": "gaussian_mixture",
               "components": [{"weight": 0.4, "mean": [1.0, -0.5], "var": [0.5, 1.2]},
                              {"weight": 0.6, "mean": [-1.0, 0.0], "var": 0.8}]},
     "solver": {"family": "seeds3", "r1": 0.3, "r2": 0.6},
     "grid": {"kind": "linear_lambda", "steps": 8},
     "seed": 3, "paths": 40, "workers": 1, "threshold": 1e-3, "order": _ORDER},
    {"schedule": {"kind": "edm", "sigma_data": 0.5, "t_max": 80.0},
     "model": {"components": [{"weight": 0.5, "mean": [2.0], "var": 0.3},
                              {"weight": 0.5, "mean": [-1.0], "var": 1.5}]},
     "solver": {"family": "seeds2", "c2": 0.5,
                "churn": {"s_churn": 2.0, "s_tmin": 0.05, "s_tmax": 10.0, "s_noise": 1.003}},
     "grid": {"kind": "edm", "steps": 9, "sigma_min": 0.01, "sigma_max": 60.0, "rho": 7.0},
     "seed": 11, "paths": 33, "workers": 1, "order": _ORDER},
    {"schedule": {"kind": "ve", "t_min": 0.01, "t_max": 50.0},
     "model": {"kind": "zero", "dim": 2},
     "solver": {"family": "ve2_sde", "mode": "dp", "r1": 0.4},
     "grid": {"kind": "linear_lambda", "steps": 10, "variant": "ode", "eps_end": 0.02,
              "t_top": 40.0},
     "seed": 0, "paths": 64, "workers": 1, "order": _ORDER},
    {"schedule": {"kind": "vp_cosine", "shift": 0.008},
     "model": {"kind": "zero", "dim": 1},
     "solver": {"family": "seeds1"},
     "grid": {"steps": 12},
     "seed": 5, "paths": 17, "workers": 1, "threshold": 0.5, "order": _ORDER},
]

MUTANTS = ["seeds1", "", True, False, None, [], {}, [1.0], {"kind": "vp"}, math.nan,
           math.inf, -math.inf, 1e308, -1e308, 1e-308, -1e-308, 0, -1, 0.5]

# flag overrides as the parser would type them: its int, float and string flags
FLAGS = {
    "seed": [-1, 2**80, 7], "paths": [0, -5, 10**12, 7], "steps": [0, 1, -3, 10**20, 6],
    "threshold": [math.nan, math.inf, -1.0, 0.0, 1e-308], "schedule": ["nope", "ve", "edm"],
    "solver": ["nope", "dpm4", "gddim", "ve2_ode_a", "euler_maruyama"], "mode": ["dp", "xx"],
    "grid_kind": ["edm", "linear_lambda"],
}

COMMANDS = ("sample", "grid", "strong", "weak", "compare")


def _paths(node, prefix=()):
    """Every place a value sits in a config: each key of an object and each list entry."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(rng: random.Random, base: dict) -> dict:
    cfg = copy.deepcopy(base)
    places = list(_paths(cfg))
    for place in rng.sample(places, rng.randint(1, 3)):
        node = cfg
        try:
            for key in place[:-1]:
                node = node[key]
            node[place[-1]] = copy.deepcopy(rng.choice(MUTANTS))
        except (KeyError, IndexError, TypeError):   # an earlier change replaced its parent
            pass
    return cfg


def _case(seed: int):
    """Case ``seed``: a mutated base config, its flag overrides and its command."""
    rng = random.Random(seed)
    base, command = copy.deepcopy(rng.choice(BASES)), rng.choice(COMMANDS)
    if command == "strong":   # the one solver strong order runs
        base["solver"] = {"family": "seeds1"}
    cfg = _mutated(rng, base)
    flags = {}
    if rng.random() < 0.3:
        for key in rng.sample(sorted(FLAGS), rng.randint(1, 2)):
            flags[key] = rng.choice(FLAGS[key])
    return cfg, flags, command


def _run(tmp_path, cfg: dict, flags: dict, command: str) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(str(path), {**flags, "workers": 1})
    if command == "sample":
        cli.cmd_sample(loaded, str(tmp_path / "out"))
    elif command == "grid":
        cli.cmd_grid(loaded)
    elif command == "compare":   # against seeds1 in data prediction, which runs on every schedule
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**cfg, "solver": {"family": "seeds1", "mode": "dp"}}))
        cli.cmd_compare(loaded, load_config(str(other), {**flags, "workers": 1, "solver": None,
                                                         "mode": None}))
    else:
        cli.cmd_order(loaded, command, str(tmp_path / "out"))


@pytest.mark.parametrize("block", range(8))
def test_mutated_configs_fail_only_by_name(block, tmp_path, capsys):
    failures = []
    for seed in range(block * 500, (block + 1) * 500):
        cfg, flags, command = _case(seed)
        case_dir = tmp_path / str(seed)
        case_dir.mkdir()
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                _run(case_dir, cfg, flags, command)
            except NAMED:
                pass
            except Exception as exc:   # noqa: BLE001 - every other exception is a finding
                failures.append(f"case {seed} ({command}, flags {flags}): "
                                f"{type(exc).__name__}: {exc}\n{json.dumps(cfg)}")
        if warned:
            failures.append(f"case {seed} ({command}, flags {flags}) printed "
                            f"{warned[0].message!r}\n{json.dumps(cfg)}")
        terminal = case_dir / "out" / "terminal.csv"
        if terminal.exists():
            with open(terminal) as fh:
                rows = list(csv.reader(fh))[1:]
            if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
                failures.append(f"case {seed}: non-finite terminal.csv\n{json.dumps(cfg)}")
    capsys.readouterr()
    assert not failures, "\n\n".join(failures)


def test_a_run_that_goes_non_finite_fails_by_name_and_writes_no_terminal(tmp_path):
    # one component whose log-normaliser 2 pi cov overflows on VE, where alpha = 1: its
    # responsibilities are NaN from the first evaluation, and the walk stops on step 1,
    # before any file is written
    cfg = {**BASES[2], "model": {"components": [{"weight": 1.0, "mean": [0.0], "var": 1e308}]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ConfigError, match=r"^non-finite state after step 1 .*\(with grid "
                                              r"steps 10 "):
            cli.cmd_sample(load_config(str(path), {}), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
