"""The path fan-out of ``seeds-sde sample`` and both order estimators: the chunks and
the map over them.  No path's bytes depend on its chunk."""

from .errors import ConfigError, as_integer
from .noise import BLOCK

_CHUNK = 8192   # the most paths one task of the fan-out holds


def path_chunks(n_paths: int, workers: int) -> list:
    """(offset, count) of each chunk of paths 0..n_paths-1, in path order.

    There are as many chunks as the larger of ceil(n_paths / ``_CHUNK``) and
    min(workers, full ``BLOCK``-path draw blocks), so no chunk holds more than
    ``_CHUNK`` paths and no worker gets less than a full block; the blocks are dealt
    out as evenly as they go, the partial block last.  A ConfigError names a count that
    is not an integer or is below 1."""
    n_paths, workers = as_integer("path count", n_paths), as_integer("workers", workers)
    if n_paths < 1:
        raise ConfigError(f"need at least one path, got {n_paths}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    n_chunks = max(-(-n_paths // _CHUNK), min(workers, n_paths // BLOCK))
    blocks = -(-n_paths // BLOCK)
    ends = [BLOCK * (i * blocks // n_chunks) for i in range(n_chunks)] + [n_paths]
    return [(start, end - start) for start, end in zip(ends, ends[1:])]


def fan_out(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks]: in this process at one worker, otherwise on a
    fork process pool of at most ``workers`` processes, and no more than there are
    tasks (the pool starts every worker when it opens); ``path_chunks`` at the same
    worker count gives each worker a chunk where the paths allow.  A task's
    exception is raised here."""
    workers = min(as_integer("workers", workers), len(tasks))
    if workers <= 1:
        return [fn(*task) for task in tasks]
    import concurrent.futures   # only a pool needs it

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))
