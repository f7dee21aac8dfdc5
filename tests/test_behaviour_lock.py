"""Behaviour lock: the sha256 of terminal.csv for a fixed set of CLI runs.

Every output of ``seeds-sde sample`` is a deterministic function of (config,
seed), so a change that claims to keep the bits (a refactor, a speed-up) must
leave these hashes alone.  A change that means to alter the draws or the
arithmetic re-baselines them once and says so in CHANGES.md.

The paths counts cross the 1024-path draw block (1100 paths) and, for the
mixture run, the 8192-path chunk (17000 paths over three chunks at
``--workers 2``), so block and chunk joins are locked as well.
"""

import hashlib
import json

import pytest

from seeds_sde.cli import main

_CHURN = {"s_churn": 11.0, "s_tmin": 0.05, "s_tmax": 15.0, "s_noise": 1.003}
_MIXTURE = {"kind": "gaussian_mixture",
            "components": [{"weight": 0.3, "mean": [1.5, -0.5, 0.0], "var": [0.5, 1.0, 2.0]},
                           {"weight": 0.7, "mean": [-1.0, 0.5, 2.0], "var": [1.0, 0.25, 1.5]}]}

# name -> (argv after "sample", config file contents or None)
CASES = {
    "seeds1-vp": (["--solver", "seeds1", "--schedule", "vp", "--steps", "16",
                   "--paths", "1100", "--seed", "3"], None),
    "seeds2-vp": (["--solver", "seeds2", "--schedule", "vp", "--steps", "16",
                   "--paths", "1100", "--seed", "4"], None),
    "seeds3-vp": (["--solver", "seeds3", "--schedule", "vp", "--steps", "16",
                   "--paths", "1100", "--seed", "5"], None),
    "seeds3-vp-one-path": (["--solver", "seeds3", "--schedule", "vp", "--steps", "41",
                            "--paths", "1", "--seed", "6"], None),
    "dpm3-vp": (["--solver", "dpm3", "--schedule", "vp", "--steps", "16",
                 "--paths", "1100", "--seed", "7"], None),
    "gddim-vp": (["--solver", "gddim", "--schedule", "vp", "--steps", "16",
                  "--paths", "1100", "--seed", "8"], None),
    "euler_maruyama-vp": (["--solver", "euler_maruyama", "--schedule", "vp", "--steps", "40",
                           "--paths", "1100", "--seed", "9"], None),
    "ve2_sde-ve-dp": (["--solver", "ve2_sde", "--schedule", "ve", "--mode", "dp",
                       "--steps", "16", "--paths", "1100", "--seed", "10"], None),
    "seeds3-edm-churn": (["--schedule", "edm", "--steps", "16", "--paths", "1100",
                          "--seed", "11"],
                         {"solver": {"family": "seeds3", "churn": _CHURN}}),
    "mixture-d3-workers2": (["--solver", "seeds3", "--schedule", "vp", "--steps", "8",
                             "--paths", "17000", "--seed", "12", "--workers", "2"],
                            {"model": _MIXTURE}),
}

# Computed from the parent of the commit that introduced this file, before
# the keyed-draw and CSV-writing changes that ship with it.
LOCKED = {
    "dpm3-vp": "7acbc0fc7b95d63ccc5294469e3b4b5c1d1726556d6ddd581b9b834f49018eaf",
    "euler_maruyama-vp": "584d5402c2af661ced81654b8a5fdca3c3381b8939ecccc583a1fab3187951c7",
    "gddim-vp": "430d6af13a04f3cec287f7dac96b1c5fdec30bc4d0dfaa1af68d0ebb8d33c020",
    "mixture-d3-workers2": "a5d6d86ddc48b5c10a7a1eba91978055a126be683485a4274a9aad5394a4e708",
    "seeds1-vp": "b5496e8bfe3c97aaa05f318d620531ecc4db9b91fce9db2f3ba9f2a397db0e77",
    "seeds2-vp": "2b6638d04a1f8afbf55d24af96d42f23d0c464783dd0c57ab7b29ae15af8c7d5",
    "seeds3-edm-churn": "4590eafd0ae53c2b3e6c5907fcd6b970ed3e7a895d03e755013ea107f69bd029",
    "seeds3-vp": "acfaa16674748d6e7206d9459de098a94dc8d99c5eaa530379ebc564c48aa043",
    "seeds3-vp-one-path": "7bab9cb4e64cb1f4a4d48886257928ecb1588f968516afe4c32636bab0ac3695",
    "ve2_sde-ve-dp": "3581b17b2c214c01dbfde8bf82e1c2f37edd77351f93126f9140ff42c04b92a3",
}


def _terminal_sha256(tmp_path, name):
    argv, config = CASES[name]
    argv = ["sample", *argv, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 0
    return hashlib.sha256((tmp_path / "out" / "terminal.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_terminal_csv_hash_locked(tmp_path, name):
    assert _terminal_sha256(tmp_path, name) == LOCKED[name]
