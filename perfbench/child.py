"""One CLI call of the benchmark, run in its own process.

    python3 perfbench/child.py run <marks.json> -- <seeds-sde arguments>
    python3 perfbench/child.py trace <marks.json> -- <seeds-sde arguments>

Both run ``seeds_sde.cli.main`` in this process and exit with its exit code.
They write to <marks.json> the ``time.monotonic()`` of the first solver
step: the first Gaussian draw, model evaluation or pool submission, which
comes after the interpreter start, ``import seeds_sde``, ``load_config`` and
the grid and model build.  The hooks that catch it remove themselves at
that first call, so an untraced call pays nothing after it.

``trace`` also wraps each module's public functions in spans (tracer.py)
and adds the span totals to <marks.json>.  The caller puts the package's
source directory on PYTHONPATH.
"""

import concurrent.futures
import json
import sys
import time

FIRST_STEP_HOOKS = (
    ("seeds_sde.noise", "RngStream", ("normal_paths", "gauss")),
    ("seeds_sde.models", "ScoreModel", ("noise_pred", "data_pred")),
    ("seeds_sde.models", "ZeroModel", ("noise_pred", "data_pred")),
)


def hook_first_step(marks: dict) -> None:
    """Record in ``marks`` the time of the first call to any hooked method."""
    import importlib

    targets = [(concurrent.futures.ProcessPoolExecutor, "submit")]
    for mod_name, cls_name, methods in FIRST_STEP_HOOKS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        targets += [(cls, m) for m in methods if cls is not None and m in vars(cls)]
    originals = [(cls, name, vars(cls)[name]) for cls, name in targets]

    def make(original):
        def first_call(*args, **kwargs):
            marks["first_step"] = time.monotonic()
            for cls, name, fn in originals:
                setattr(cls, name, fn)
            return original(*args, **kwargs)

        return first_call

    for cls, name, fn in originals:
        setattr(cls, name, make(fn))


def main(argv) -> int:
    if len(argv) < 3 or argv[0] not in ("run", "trace") or argv[2] != "--":
        print(f"usage: child.py run|trace <marks.json> -- <seeds-sde args>, got {argv}",
              file=sys.stderr)
        return 2
    mode, marks_path, cli_args = argv[0], argv[1], argv[3:]
    import seeds_sde.cli

    marks = {}
    tr = None
    if mode == "trace":
        import tracer

        tr = tracer.Tracer()
        tracer.install(tr)
    hook_first_step(marks)
    rc = seeds_sde.cli.main(cli_args)
    if tr is not None:
        marks.update(tr.report())
    with open(marks_path, "w") as fh:
        json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
