"""Behaviour lock: the sha256 of terminal.csv for a fixed set of CLI runs.

Every output of ``seeds-sde sample`` is a deterministic function of (config,
seed), so a change that claims to keep the bits (a refactor, a speed-up) must
leave these hashes alone.  A change that means to alter the draws or the
arithmetic re-baselines them once and says so in CHANGES.md.

The paths counts cross the 1024-path draw block (1100 paths) and, for the
mixture run, the 8192-path chunk (17000 paths over three chunks at
``--workers 2``), so block and chunk joins are locked as well.

Besides the ten hand-picked runs, the lock covers every valid (family,
schedule, mode) ``sample`` run on the four schedules, five runs on an
8-component d=16 mixture (the benchmark's oracle shape: noise and data
prediction on VP, VE and EDM) and one 4096-path run on it that must write the
same bytes in one chunk and in two, the CSV and JSON that ``order strong``
and ``order weak`` write (9000-path runs at one, two and three workers: two
chunks, then three), the ``strong_order`` estimate at two reference depths
and at a stride ratio of 512 through the Python API, the stdout of
``compare`` and the files that ``sample --save-trajectories`` writes.  Through
the Python API it also locks ``per_step_compare`` with zeroed draws, with and
without churn, the exact-flow oracle's moments on every schedule, and the
``config.json`` written for each schedule kind.
"""

import hashlib
import json

import numpy as np
import pytest

from seeds_sde import (ChurnParams, DataDistribution, GaussianFlowOracle, RngStream, ScoreModel,
                       SolverSpec, VpCosine, VpLinear, linear_lambda_grid, make_schedule,
                       per_step_compare, strong_order)
from seeds_sde import cli
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
# the keyed-draw and CSV-writing changes that ship with it.  Every seeds3 hash
# in this file was re-baselined once, when the three-stage noise moved onto one
# Brownian path: at the default fractions its full-step weights now read 1 - r1
# and 1 - r2, one ulp from the r2 and r1 they read before.
LOCKED = {
    "dpm3-vp": "7acbc0fc7b95d63ccc5294469e3b4b5c1d1726556d6ddd581b9b834f49018eaf",
    "euler_maruyama-vp": "584d5402c2af661ced81654b8a5fdca3c3381b8939ecccc583a1fab3187951c7",
    "gddim-vp": "430d6af13a04f3cec287f7dac96b1c5fdec30bc4d0dfaa1af68d0ebb8d33c020",
    "mixture-d3-workers2": "57e6d54027c5359ca4c5e3c98bb4b0e8c94817c09b92d0f1d5362e21aea5b074",
    "seeds1-vp": "b5496e8bfe3c97aaa05f318d620531ecc4db9b91fce9db2f3ba9f2a397db0e77",
    "seeds2-vp": "2b6638d04a1f8afbf55d24af96d42f23d0c464783dd0c57ab7b29ae15af8c7d5",
    "seeds3-edm-churn": "2188e5c94690ca0436576ac05f290002bce503bdfb805f428620b2a98f98d0bf",
    "seeds3-vp": "82ac9d69d4cceb73f249db5056473b4109ba316f3421e5ccf8409715242ba6b9",
    "seeds3-vp-one-path": "e9db1c8d318ffca8ab4a0ab84df6c20462ce8cb29ce7cc14c23adb1f612b206e",
    "ve2_sde-ve-dp": "3581b17b2c214c01dbfde8bf82e1c2f37edd77351f93126f9140ff42c04b92a3",
}


# every valid (family, schedule, mode) run at 1100 paths and 12 steps, seed 21,
# keyed "family-schedule-mode"; computed from the parent of the commit that
# added this table, before the solver registry and stage routine it ships with; the
# dpm4 entries since dpm4 took the Hochbruck-Ostermann order-4 tableau
SWEEP_LOCKED = {
    "dpm1-edm-dp": "6c60bca9d81f7f9dfb463d76cf0059f9c2d8b20def7209d15cf73fc98d01bc3f",
    "dpm1-edm-np": "2ff71e54e3807cbdff611b6c67e0483b7e8c8293bbc12b26adf3014ace95b68b",
    "dpm1-ve-dp": "299451e24e64cb74e1698ca2c1a16bbc633e42e2eb417f241fee62ebe24b1448",
    "dpm1-vp-dp": "2f37ed47777e65eee05805e61759925b6fb6ff0d5af1db49f9b4934395e5f3e3",
    "dpm1-vp-np": "f424bab96dbbf4dd37a4e7501579c4ce019d8749cc51999add7766d23ca6b663",
    "dpm1-vp_cosine-dp": "724749acc732d0f83bd01f750e9895f86f180e43ef0f28c5cd49563fa2408c40",
    "dpm1-vp_cosine-np": "a2c5223e5d78172b4e15f7754c21347aa6c54deda84cbe971e80f75dbe53953d",
    "dpm2-edm-np": "c4cee895e7f9bea45b9731acf0b368e95d9776f061fce5ba920cc529f4869660",
    "dpm2-vp-np": "ed6038396fcea085607d3ce87a0cdd3134b8672d304764158cd4bed680520e8b",
    "dpm2-vp_cosine-np": "1c99f5611322371160b68d1d75749e594fdf8306aa47ce99ec8dcb77a2dd9f4b",
    "dpm3-edm-np": "bb3c0970dfe8f0b3c859c15574483eac9480f33c34f3bc88025fdb1cfc2c91a4",
    "dpm3-vp-np": "2952c29e23ebe11c57cef7d2c36495449c7e2b06d9d157bf793f42ace74a87b4",
    "dpm3-vp_cosine-np": "273def68f4a01834931eaf034cbede4a069f10785317374df43d61dc5eceb6a0",
    "dpm4-edm-np": "c2d3f7a2289cfb777f0ed0df965dcddb1ae9b97366e4ef806921b7d8a94ae574",
    "dpm4-vp-np": "4edb3f0fd3369e33758cb32d16c731558847ed0cdca6396ce9595ee0e68d2f5e",
    "dpm4-vp_cosine-np": "071d3058579662de29ccb68b5fb7f41022e935a65dfc983291297c691f74d70d",
    "euler_maruyama-edm-np": "10ed244d18e57022722edb19b265fe0907bebce339a100473877bf19617ba305",
    "euler_maruyama-ve-np": "3c9d9821788f602a528d7251f8b0314b3b4a8640e2b1154426d57c3b703d6fc2",
    "euler_maruyama-vp-np": "adb89ce2015dce7a08a0c54e45b5eb372b9bd3c34fb61a9161cb49eaa30dc500",
    "euler_maruyama-vp_cosine-np":
        "fb3d6f0331f2bbcbde1e426277c96c0c39237e5258c13ca4442310bccd16d89d",
    "exp_euler_etd-edm-np": "6fa19040d6997e1f0b8b767f56ac92385527f0c9e79416b5c28b2c3a729583ec",
    "exp_euler_etd-vp-np": "f05f0f023965d162313b2d29ea5dde51aa00e8cce1e8cb4687c047dae9d2b6c6",
    "exp_euler_etd-vp_cosine-np":
        "caf5496ad31dc38fa0b44a15f552d84f07d24695dc14e7604ff16ad41bcc6c7b",
    "exp_euler_lawson-edm-np": "ce8630575fc75110459bafa034b787fea9529bfbd0cebb1464351d1eef7dbe2f",
    "exp_euler_lawson-vp-np": "9d0344f2b7086b96a4b249986d41924b40f15c4a89cdf9280e26628163d0ea69",
    "exp_euler_lawson-vp_cosine-np":
        "06f4401d7075cc49ebda79592674316b58ae7818d3f295f4a9d9f3993c46ad88",
    "gddim-vp-np": "11f48e2f7554e202fa3ae391d970fe4f050e574f4a2b259c85bc97261f735927",
    "gddim-vp_cosine-np": "9bed8d637e51485ecd6ff61b57667fd86d6bb6cfdc58917a4cd912f7f6dbc372",
    "seeds1-edm-dp": "3457b6748e635e86cbdb5a7dd1759b3dc85225bea649ef10976aa6180033b6a0",
    "seeds1-edm-np": "8273b9c5b000293f1b99254bce4cd8d5fd6d5cbc9d9f65b0602a3a94a8894e72",
    "seeds1-ve-dp": "5b00ba3c3fa2d5abe52eeaaf2f86ce3670846cd80ba5ca012b3297a85313e54e",
    "seeds1-vp-dp": "ea56bcfbbd25f662c4e8fe68ecff5aa30220849b966a076facec55a963f7d1c4",
    "seeds1-vp-np": "2da4f413d85bb2df50107b3511c89cb0a34f94de09ad50244f22a7653d17435a",
    "seeds1-vp_cosine-dp": "f50e3d1992e5fb5c9056a43667609516a80e106f0adf025694bdc920431bb237",
    "seeds1-vp_cosine-np": "9ff5fc9689640557c90c756ac0d82208a42d77993c8b3bf1c78e0c443736c1c2",
    "seeds2-edm-np": "5dce45286c0ec371ce3353ead48dc02137e6db896f6e53e4834b4f0448de7ce8",
    "seeds2-vp-np": "56a241109ad87c3211fd7af050a339bf6a867d47c97aa141aaffd5095d5ecbc0",
    "seeds2-vp_cosine-np": "4d2516d1522eef4bbdf654774f84be8692568103ec96c7ebbefdff3ae94b971b",
    "seeds3-edm-np": "0aeb7aac1827e3df93dc674a253b90ef3b292fe147bb95a8d3d7557e098bd5a8",
    "seeds3-vp-np": "554e1f9a93e6799b53564dc2ed653e9cffbeef3ece015859ec728b46e5f17cb1",
    "seeds3-vp_cosine-np": "4994f66b0ca3f6453a27d2b05b2821aef13420b37741ce86138493896a3f8251",
    "ve2_ode_a-edm-dp": "4b64f39733d23adddf0aeeb4ebed5cb577ead396ac01b9508ec73dbaaf87670d",
    "ve2_ode_a-ve-dp": "440b34695fa416c9498e56e294fb72a1693aaec0146288889aaf25eb6c3f4611",
    "ve2_ode_b-edm-dp": "b5775b500e5b58160b5eaa91ae2c14996b57f3915e752123394dd8286d17af1e",
    "ve2_ode_b-ve-dp": "e29ab29162bede09e34d20511b62727c9af887a11ce9d2a79d17e86cbbb2530b",
    "ve2_sde-edm-dp": "481f7c60989b89e92a930622df700289b4796593e3d56784fb187584f557d931",
    "ve2_sde-ve-dp": "6cfbc9d80bf1a081a561222bccc33dc653b81ddfebc518fdcd1619dd2aad99ca",
}

# 8 components with unequal weights (k+1)/36 in d=16; means and variances
# come from integer arithmetic and correctly rounded float operations, not a
# random generator, so the JSON config is the same on every platform
_MIXTURE_K8D16 = {"kind": "gaussian_mixture", "components": [
    {"weight": (k + 1) / 36,
     "mean": [((7 * k + 3 * j) % 13 - 6) / 4 for j in range(16)],
     "var": [0.3 + 0.2 * ((5 * k + 11 * j) % 7) for j in range(16)]}
    for k in range(8)]}

# name -> argv after "sample"; every run uses _MIXTURE_K8D16 and 12 steps
MIXTURE_CASES = {
    "k8d16-seeds3-vp": ["--solver", "seeds3", "--schedule", "vp", "--paths", "1100",
                        "--seed", "31"],
    "k8d16-dpm3-vp": ["--solver", "dpm3", "--schedule", "vp", "--paths", "1100",
                      "--seed", "32"],
    "k8d16-seeds1-vp-dp": ["--solver", "seeds1", "--schedule", "vp", "--mode", "dp",
                           "--paths", "500", "--seed", "33"],
    "k8d16-ve2_sde-ve": ["--solver", "ve2_sde", "--schedule", "ve", "--paths", "500",
                         "--seed", "34"],
    "k8d16-seeds3-edm": ["--solver", "seeds3", "--schedule", "edm", "--paths", "500",
                         "--seed", "35"],
}

# computed from the parent of the commit that added this table, before the
# per-component score oracle it ships with
MIXTURE_LOCKED = {
    "k8d16-dpm3-vp": "56efddd6f412d9314bf6344bc5e72fa08cd1c57aaf752260cf3feee4d90c8c18",
    "k8d16-seeds1-vp-dp": "990a57a6e07946a0f1869cd91210a14a4e802dcd464202832cf29284fc3d7b50",
    "k8d16-seeds3-edm": "ccb912c2f2a0de9b0584c8e5055708c43eeb47189313892ebe934774316e2a35",
    "k8d16-seeds3-vp": "d373ddfae25fe481fb83abf590bdf4742324d18acae9015daf736b413561c55c",
    "k8d16-ve2_sde-ve": "a6d3d591757fe362caa7291f558bc53ee727d4e1ade5c147a21855d784efda64",
}

_ZERO_MODEL = {"kind": "zero", "dim": 1}

# name -> (argv, config file contents or None, output file stem)
ORDER_CASES = {
    "strong-seeds1": (["order", "strong", "--solver", "seeds1", "--seed", "1"],
                      {"order": {"base_steps": 8, "refinements": 3}, "paths": 400},
                      "order_strong_seeds1"),
    "weak-seeds2": (["order", "weak", "--solver", "seeds2", "--seed", "2"],
                    {"order": {"steps_list": [5, 7, 10]}, "paths": 2000},
                    "order_weak_seeds2"),
    "weak-seeds3-edm": (["order", "weak", "--solver", "seeds3", "--schedule", "edm",
                         "--seed", "3"],
                        {"order": {"steps_list": [6, 8, 11]}, "paths": 2000},
                        "order_weak_seeds3"),
    # the zero model leaves every moment error below 3 SE: all grids excluded
    "weak-seeds1-zero-model": (["order", "weak", "--solver", "seeds1", "--seed", "4"],
                               {"order": {"steps_list": [5, 7, 10]}, "paths": 1500,
                                "model": _ZERO_MODEL},
                               "order_weak_seeds1"),
    # one path in d = 1, whose coarse draws are summed in the same order as any other
    "strong-seeds1-one-path": (["order", "strong", "--solver", "seeds1", "--seed", "1",
                                "--paths", "1"],
                               {"order": {"base_steps": 8, "refinements": 3}, "paths": 400},
                               "order_strong_seeds1"),
    "strong-seeds1-mixture-d3": (["order", "strong", "--solver", "seeds1", "--seed", "5"],
                                 {"order": {"base_steps": 8, "refinements": 3}, "paths": 50,
                                  "model": _MIXTURE},
                                 "order_strong_seeds1"),
    "strong-seeds1-edm": (["order", "strong", "--solver", "seeds1", "--schedule", "edm",
                           "--seed", "6"],
                          {"order": {"base_steps": 8, "refinements": 3}, "paths": 200},
                          "order_strong_seeds1"),
    # 9000 paths are two chunks (4096 + 4904) at one or two workers and three
    # (3072 + 3072 + 2856) at three, run at every worker count below
    "strong-seeds1-two-chunks": (["order", "strong", "--solver", "seeds1", "--seed", "21"],
                                 {"order": {"base_steps": 4, "refinements": 3}, "paths": 9000},
                                 "order_strong_seeds1"),
    "weak-seeds2-two-chunks": (["order", "weak", "--solver", "seeds2", "--seed", "21"],
                               {"order": {"steps_list": [5, 7, 10]}, "paths": 9000},
                               "order_weak_seeds2"),
}

# name -> sha256 of the CSV and of the JSON, same provenance as SWEEP_LOCKED,
# except the four strong-order entries: they were re-baselined once when
# strong_order moved onto walk (the seeds1 step's own noise form replaced the
# harness's sqrt(2) c(t) e^lambda w), which moved h, error and se by at most
# 1.1e-14 relative
ORDER_LOCKED = {
    "strong-seeds1": ["9734dd29ca43458a4f10a18f2e4e916f46e3a8eec692bcf46969140b901c42f5",
                      "e276264a61829895c2e04adf1700baae2880e7e6a5d5d2a78f741cdcbae245d9"],
    "weak-seeds1-zero-model": ["09d990e46f420c31104b3d5eba8464082ca58eb5efc645e15feec667ef4f79db",
                               "23ab64481114ef6d52af8fd0127017d0a9b6581bb3904652ddab978eb65c17c5"],
    "weak-seeds2": ["76f1aac9af48e3f0da7ff5592525a6782878db19207beeb7f31a6cb65af03b22",
                    "6eee79e5ec583b9920ac391e4a15f94f00cd37016aad4659fac6654dfd91e5b7"],
    "weak-seeds3-edm": ["a06acca4365b190ad011cd43dff8934a1ca4ad7e21fe1e8828dff048f68f606b",
                        "cca303aa61aaaedc208741ec481d7f8677f148f55a9a43a3c64d1fd15c7d327d"],
    "strong-seeds1-edm": ["210799af9b67eb2af3eda0240b9f7a277ee9fc971937a3cc24980054daa84a3e",
                          "84ccb24d63cf7dcdd5ba4cdd55ad46a97f81753cdeb34b0977c3ae1a06aa4835"],
    "strong-seeds1-mixture-d3": [
        "9165501a7580915a54564e0a01cffcfd140fa7a71a4b452530fc0507ca4da19e",
        "b6009ff781ae08f566aa08f64e4b6f0677814d238c0da081b58379448cc816ed"],
    # re-baselined when a lone path's coarse draws stopped being summed pairwise
    # (NumPy's sum over a contiguous axis) and were summed in sequence like any
    # other path count's: error, r2 and slope_se moved by at most 4.7e-16 relative
    "strong-seeds1-one-path": ["7ab99bd4d7b74fc941dde4a993e3393e6cea635f7be86aa6edb6d635563157d6",
                               "09ecafff44efeda980589d880b1a886da05ba971e73f528d0ce53d2845955bdc"],
    # from the parent of the commit that put order on the process pool, which ran
    # every order in one process
    "strong-seeds1-two-chunks": [
        "c6a05cbfa8270ec8c4618baa36a901b48aa14206f931c1bace44d7464cdf7ae4",
        "b75690fb74311fde4943ea0392b0911734ab19f773dba76eb46481b526c09ca3"],
    "weak-seeds2-two-chunks": [
        "d17c511fff7838e3c64d60da1edd93516446a4fc148c60c649b4c66f49545779",
        "512daf509f83856e7d4e8b3cfdd782108de408d40a3cd993209a496920f81b8e"],
}

# ref_extra -> (schedule, sha256 of to_csv() + to_json()) for strong_order on
# N(0, 1) data, base 4, 3 refinements, 60 paths, seed 8; the CLI does not
# expose ref_extra.  Re-baselined with the strong-order entries above, from
# the commit that moved strong_order onto walk.
API_STRONG_LOCKED = {
    1: (VpCosine, "b84fbc5b9365ca561f1a58b8c88799e0bb92938f4b295ff4ce4a636fa04dec30"),
    3: (VpLinear, "74b0fb61c66050879dcef37e5ce24df718f198a195181bef865404dd9bb12a4c"),
}

# sha256 of to_csv() + to_json() for strong_order on N(0, 1) data with VpLinear,
# base 1, 8 refinements and the default reference depth (512 fine steps per
# level-0 step, where the entries above have at most 32), 64 paths, seed 21;
# computed from the parent of the commit that replaced the window of fine
# increments with one running sum per level
API_STRONG_HIGH_RATIO_LOCKED = "8a81af3ea328f7ca9cecc68a4f94b153400c94f8ea683587e08b264cf053e146"

# --save-trajectories at 5 paths in chunks of 2 on two workers (EDM seeds3, 6
# steps, seed 4): sha256 of each trajectory file, computed from the parent of
# the commit that moved the recording into the chunked run
TRAJECTORY_LOCKED = {
    "path_000000.csv": "dd792413e9c8d2f9ffdd70ca92ddba9ecbc8eb39595a00435f577ba860cf8fcf",
    "path_000001.csv": "ba385461b27e8adb180b551e70efb3908a8f67d019e3d9d158b685d59e65b16f",
    "path_000002.csv": "3a78693f70daa606a3cfb8898d85aedb8f564ff0439b5d2841e2ffbffd12391e",
    "path_000003.csv": "8e8216d9c2e03f87b2f70f90d4d9df09365d4989ec886eb13f24a1d4a18d12ee",
    "path_000004.csv": "5fdd146c3ba1465f9fa5b88df4f3954a1e8cadc8e702fbe64f40e7cd6fb4be51",
}

# name -> argv after "compare"
COMPARE_CASES = {
    "gddim-vs-seeds1-dp": ["--solver-a", "gddim", "--solver-b", "seeds1", "--mode-b", "dp",
                           "--schedule", "vp", "--steps", "30", "--seed", "5"],
    "seeds1-np-vs-dp": ["--solver-a", "seeds1", "--mode-a", "np", "--solver-b", "seeds1",
                        "--mode-b", "dp", "--schedule", "vp", "--steps", "30", "--seed", "5",
                        "--threshold", "1e-6"],
    "seeds3-vs-dpm3-edm": ["--solver-a", "seeds3", "--solver-b", "dpm3", "--schedule", "edm",
                           "--steps", "20", "--seed", "6"],
    "seeds2-vs-dpm2-cosine": ["--solver-a", "seeds2", "--solver-b", "dpm2", "--schedule",
                              "vp_cosine", "--steps", "20", "--seed", "7"],
}

# name -> (exit code, stdout), same provenance as SWEEP_LOCKED
COMPARE_LOCKED = {
    "gddim-vs-seeds1-dp": [0, "max relative per-step difference: 2.320768761760039e-15\n"
                           "PASS (threshold 1e-10)\n"],
    "seeds1-np-vs-dp": [2, "max relative per-step difference: 1.9592179311122058\n"
                        "FAIL (threshold 1e-06)\n"],
    "seeds2-vs-dpm2-cosine": [2, "max relative per-step difference: 1.9698282444909219\n"
                              "FAIL (threshold 1e-10)\n"],
    "seeds3-vs-dpm3-edm": [2, "max relative per-step difference: 0.7709883406292822\n"
                           "FAIL (threshold 1e-10)\n"],
}


# "a-vs-b-schedule" -> repr of per_step_compare(..., zero_noise=True) on the d=3
# mixture, 20 steps, seed 9 (the CLI never zeroes the draws); computed from
# the parent of the commit that added this table, before the shared
# first-order move it ships with
ZERO_NOISE_COMPARE_LOCKED = {
    "seeds1-vs-dpm1-vp": "1.0925063840808935",
    "seeds2-vs-dpm2-vp": "0.9792524186667566",
    "seeds3-vs-dpm3-edm": "0.40771486709663884",
}

# "a-vs-b" -> repr of per_step_compare(..., zero_noise=True) with side a churned
# by _CHURN, on the d=3 mixture, EDM, 20 steps, seed 9: zero noise zeroes the
# stage-0 churn draw too, so only the lifted time and the lift's scaling act;
# computed at the parent of the commit that added this table
ZERO_NOISE_CHURN_COMPARE_LOCKED = {
    "seeds3-vs-dpm3": "0.43359537911566637",
    "seeds3-vs-seeds3": "0.061898891887014584",
}

# schedule kind -> sha256 of the bytes of GaussianFlowOracle.mean, .var and
# .moment(., 4) on the k8d16 mixture at five log-spaced times from t_min to
# t_max (VE and EDM share alpha = 1, sigma = t and the time range, so their
# laws agree); same provenance as ZERO_NOISE_COMPARE_LOCKED
ORACLE_LOCKED = {
    "edm": "45ca8b8e87e4a1ed67dea2ec8d39ae6fafc8af63e0cb729ff86d47828a1d9fea",
    "ve": "45ca8b8e87e4a1ed67dea2ec8d39ae6fafc8af63e0cb729ff86d47828a1d9fea",
    "vp": "2da018fb69b800291e540ee9932cf88d95380542c9941ec41e4c94d83b1d14b8",
    "vp_cosine": "f0780c8ccd25d1c123862bac31889e40e98931cb4b36ee8b42e8fd3d83512100",
}

# schedule section -> sha256 of the config.json a two-path seeds1-dp sample
# writes; re-baselined once, when config.json stopped recording the stage
# parameters (r1, r2, c2) of a family that does not read them, such as seeds1
CONFIG_JSON_CASES = {
    "vp": {"kind": "vp", "beta_d": 18.5, "beta_m": 0.2, "t_max": 0.9},
    "vp_cosine": {"kind": "vp_cosine", "shift": 0.01},
    "ve": {"kind": "ve", "t_min": 0.01},
    "edm": {"kind": "edm", "sigma_data": 1.5, "t_max": 60},
}
CONFIG_JSON_LOCKED = {
    "edm": "b67aecbe11fdac7434f526beaf83e205f2c5372c1c530712e83611de062b5ec9",
    "ve": "e9115b70e8e17c0f1fb770d8ebef0ba7b77f0b6865e7cef544a1e66cc8232e0f",
    "vp": "e2c6d1ca4c574a49370f61fa7cf7cc7d3dec810d96cc3c043dece6a7a0ef0626",
    "vp_cosine": "d8b0bb42b4a5647daa9cee30a42df2c28c0ea292dce7d4d53a39cc7f2dbf0b6f",
}

# a solver section that spells its stage parameter and every churn field as integers
CONFIG_JSON_INTEGER_SOLVER = {"family": "seeds2", "c2": 1,
                              "churn": {"s_churn": 1, "s_tmin": 0, "s_tmax": 10, "s_noise": 1}}
CONFIG_JSON_INTEGER_SOLVER_LOCKED = (
    "d1b65b48bfa398dccdb3a73f97de601188da28f169dc92dae18d7f329445f7ad")


def _with_config(tmp_path, argv, config):
    if config is None:
        return argv
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return argv + ["--config", str(cfg_path)]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _terminal_sha256(tmp_path, name):
    argv, config = CASES[name]
    argv = _with_config(tmp_path, ["sample", *argv, "--out", str(tmp_path / "out")], config)
    assert main(argv) == 0
    return _sha256(tmp_path / "out" / "terminal.csv")


def _sweep_sha256(tmp_path, key):
    family, schedule, mode = key.rsplit("-", 2)
    assert main(["sample", "--solver", family, "--schedule", schedule, "--mode", mode,
                 "--steps", "12", "--paths", "1100", "--seed", "21",
                 "--out", str(tmp_path / "out")]) == 0
    return _sha256(tmp_path / "out" / "terminal.csv")


def _mixture_sha256(tmp_path, name):
    argv = ["sample", *MIXTURE_CASES[name], "--steps", "12", "--out", str(tmp_path / "out")]
    assert main(_with_config(tmp_path, argv, {"model": _MIXTURE_K8D16})) == 0
    return _sha256(tmp_path / "out" / "terminal.csv")


def _order_sha256(tmp_path, name, extra=()):
    argv, config, stem = ORDER_CASES[name]
    argv = [*argv, *extra, "--out", str(tmp_path / "out")]
    assert main(_with_config(tmp_path, argv, config)) == 0
    return [_sha256(tmp_path / "out" / f"{stem}.{ext}") for ext in ("csv", "json")]


def _compare_output(name, capsys):
    code = main(["compare", *COMPARE_CASES[name]])
    return [code, capsys.readouterr().out]


@pytest.mark.parametrize("name", sorted(CASES))
def test_terminal_csv_hash_locked(tmp_path, name):
    assert _terminal_sha256(tmp_path, name) == LOCKED[name]


@pytest.mark.parametrize("key", sorted(SWEEP_LOCKED))
def test_sweep_terminal_csv_hash_locked(tmp_path, key):
    assert _sweep_sha256(tmp_path, key) == SWEEP_LOCKED[key]


@pytest.mark.parametrize("name", sorted(MIXTURE_CASES))
def test_mixture_terminal_csv_hash_locked(tmp_path, name):
    assert _mixture_sha256(tmp_path, name) == MIXTURE_LOCKED[name]


def test_mixture_terminal_csv_same_in_one_chunk_and_two(tmp_path):
    # the benchmark's oracle shape at 4096 paths: one chunk at one worker, two chunks
    # of 2048 on a pool of two, and the same terminal.csv
    outs = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        argv = ["sample", "--solver", "seeds3", "--schedule", "vp", "--steps", "4",
                "--paths", "4096", "--seed", "36", "--workers", workers, "--out", str(out)]
        assert main(_with_config(tmp_path, argv, {"model": _MIXTURE_K8D16})) == 0
        assert json.loads((out / "config.json").read_text())["workers"] == int(workers)
        outs[workers] = (out / "terminal.csv").read_bytes()
    assert outs["1"] == outs["2"]


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_order_outputs_locked(tmp_path, name):
    assert _order_sha256(tmp_path, name) == ORDER_LOCKED[name]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
@pytest.mark.parametrize("name", ["strong-seeds1-two-chunks", "weak-seeds2-two-chunks"])
def test_order_outputs_locked_for_any_workers(tmp_path, name, workers):
    assert _order_sha256(tmp_path, name, ["--workers", workers]) == ORDER_LOCKED[name]


@pytest.mark.parametrize("name", sorted(COMPARE_CASES))
def test_compare_stdout_locked(name, capsys):
    assert _compare_output(name, capsys) == COMPARE_LOCKED[name]


@pytest.mark.parametrize("ref_extra", sorted(API_STRONG_LOCKED))
def test_strong_order_api_locked(ref_extra):
    sched_cls, digest = API_STRONG_LOCKED[ref_extra]
    sched = sched_cls()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    est = strong_order(SolverSpec("seeds1"), model, 4, 3, 60, RngStream(8),
                       ref_extra=ref_extra)
    assert hashlib.sha256((est.to_csv() + est.to_json()).encode()).hexdigest() == digest


def test_strong_order_api_locked_at_a_high_stride_ratio():
    sched = VpLinear()
    model = ScoreModel(DataDistribution.standard_normal(1), sched)
    est = strong_order(SolverSpec("seeds1"), model, 1, 8, 64, RngStream(21))
    digest = hashlib.sha256((est.to_csv() + est.to_json()).encode()).hexdigest()
    assert digest == API_STRONG_HIGH_RATIO_LOCKED


def test_trajectory_files_locked(tmp_path, chunks_of):
    chunks_of(cli, 2)
    out = tmp_path / "out"
    assert main(["sample", "--solver", "seeds3", "--schedule", "edm", "--steps", "6",
                 "--paths", "5", "--seed", "4", "--workers", "2", "--save-trajectories",
                 "--out", str(out)]) == 0
    traj = out / "trajectories"
    assert {f: _sha256(traj / f) for f in sorted(TRAJECTORY_LOCKED)} == TRAJECTORY_LOCKED
    assert sorted(p.name for p in traj.iterdir()) == sorted(TRAJECTORY_LOCKED)
    # each file ends at its path's terminal state
    terminal = out.joinpath("terminal.csv").read_text().splitlines()[1:]
    for p, row in enumerate(terminal):
        last = (traj / f"path_{p:06d}.csv").read_text().splitlines()[-1]
        assert last.split(",")[1:] == row.split(",")[1:]


@pytest.mark.parametrize("name", sorted(ZERO_NOISE_COMPARE_LOCKED))
def test_zero_noise_compare_locked(name):
    fam_a, _, fam_b, kind = name.split("-")
    sched = make_schedule(kind)
    model = ScoreModel(DataDistribution.from_components(_MIXTURE["components"]), sched)
    grid = linear_lambda_grid(20, sched.t_min, sched.t_max, sched)
    diff = per_step_compare(SolverSpec(fam_a), SolverSpec(fam_b), model, grid,
                            RngStream(9), zero_noise=True)
    assert repr(diff) == ZERO_NOISE_COMPARE_LOCKED[name]


@pytest.mark.parametrize("name", sorted(ZERO_NOISE_CHURN_COMPARE_LOCKED))
def test_zero_noise_churn_compare_locked(name):
    fam_a, _, fam_b = name.split("-")
    sched = make_schedule("edm")
    model = ScoreModel(DataDistribution.from_components(_MIXTURE["components"]), sched)
    grid = linear_lambda_grid(20, sched.t_min, sched.t_max, sched)
    churned = SolverSpec(fam_a, churn=ChurnParams(**_CHURN))
    diff = per_step_compare(churned, SolverSpec(fam_b), model, grid, RngStream(9),
                            zero_noise=True)
    assert repr(diff) == ZERO_NOISE_CHURN_COMPARE_LOCKED[name]


@pytest.mark.parametrize("kind", sorted(ORACLE_LOCKED))
def test_oracle_moments_locked(kind):
    sched = make_schedule(kind)
    oracle = GaussianFlowOracle(DataDistribution.from_components(_MIXTURE_K8D16["components"]),
                                sched)
    digest = hashlib.sha256()
    for t in np.geomspace(sched.t_min, sched.t_max, 5).tolist():
        for values in (oracle.mean(t), oracle.var(t), oracle.moment(t, 4)):
            digest.update(values.tobytes())
    assert digest.hexdigest() == ORACLE_LOCKED[kind]


@pytest.mark.parametrize("kind", sorted(CONFIG_JSON_LOCKED))
def test_config_json_locked(tmp_path, kind):
    argv = ["sample", "--solver", "seeds1", "--mode", "dp", "--steps", "4", "--paths", "2",
            "--out", str(tmp_path / "out")]
    assert main(_with_config(tmp_path, argv, {"schedule": CONFIG_JSON_CASES[kind]})) == 0
    assert _sha256(tmp_path / "out" / "config.json") == CONFIG_JSON_LOCKED[kind]


def test_config_json_of_an_integer_solver_section_locked(tmp_path):
    argv = ["sample", "--steps", "4", "--paths", "2", "--out", str(tmp_path / "out")]
    assert main(_with_config(tmp_path, argv, {"solver": CONFIG_JSON_INTEGER_SOLVER})) == 0
    assert _sha256(tmp_path / "out" / "config.json") == CONFIG_JSON_INTEGER_SOLVER_LOCKED
