"""Reproducible noise: keyed substreams and the weighted-increment algebra.

The RNG contract is counter based: a draw is addressed by (seed, trajectory,
step, stage) and is identical across runs, platforms, evaluation orders and
worker counts.  Trajectories are grouped into fixed blocks of ``BLOCK``
consecutive indices; the Philox counter is keyed per (block, step, stage)
and a trajectory reads its own row of the block draw.  This makes vectorized
sampling cheap while keeping every (trajectory, step, stage) draw a pure
function of the key.

Each ``RngStream`` holds one Philox generator for its seed and resets its
counter (and output buffer) to the key before every block draw, which gives
the same numbers as a generator built fresh for that key.  The reset writes
a state dict of plain ints, which NumPy reads faster than uint64 arrays.  A
block draw stops at the last row the caller reads: NumPy fills normals in
order, so the first k rows of a keyed draw do not depend on how many rows
follow.  The reset makes an ``RngStream`` stateful, so one stream must not be
shared between threads; the package itself starts none.

Stage index conventions used by the samplers:
  stage 0  churn noise (and the initial-state draw at step 0),
  stage j  the j-th Gaussian z^j of a multi-stage solver step: the unit draw
           of the j-th sub-interval of the step, split at its stage nodes.
SEEDS-1/2/3 on the same (seed, trajectory, step) therefore share z^1, which
is what the per-step equivalence checks rely on.  ``stage_noise_weights``
builds every stage node's noise from these draws on one Brownian path.
"""

import math

import numpy as np

from .errors import ConfigError, DomainError, as_integer
from .phi import sqrt_exp_diff

BLOCK = 1024
SEED_LIMIT = 2**128  # Philox takes a 128-bit key


class RngStream:
    """Counter-based provider of independent Gaussian substreams; the seed is an integer
    (a NumPy one too, a bool not) in [0, 2**128)."""

    def __init__(self, seed: int):
        self.seed = as_integer("seed", seed)
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed}")
        self._bitgen = np.random.Philox(key=self.seed)
        self._gen = np.random.Generator(self._bitgen)
        # state of a just-built generator (counter 0, empty output buffer) in plain
        # ints: the state setter reads them faster than uint64 arrays
        self._fresh = self._bitgen.state
        self._counter = [0] * 4
        self._fresh["state"] = {"counter": self._counter,
                                "key": self._fresh["state"]["key"].tolist()}
        self._fresh["buffer"] = self._fresh["buffer"].tolist()

    def _normal_block(self, block, step, stage, d, rows, out=None):
        """The first ``rows`` rows of the (block, step, stage) draw, shape (rows, d),
        written into ``out`` (a C-contiguous (rows, d) array) when given."""
        self._counter[1:] = (stage, step, block)
        self._bitgen.state = self._fresh
        return self._gen.standard_normal((rows, d), out=out)

    def normal_paths(self, n: int, step: int, stage: int, d: int, offset: int = 0) -> np.ndarray:
        """Draws for trajectories offset..offset+n-1, shape (n, d).

        Row p of the result is trajectory offset + p's draw, the same for any
        n or offset, so any partition of the path range reproduces the same
        values.
        """
        out = np.empty((n, d))
        filled = 0
        while filled < n:
            block, row = divmod(offset + filled, BLOCK)
            take = min(BLOCK - row, n - filled)
            dest = out[filled : filled + take]
            if row == 0:  # a block-aligned run is the draw's first rows: fill it in place
                self._normal_block(block, step, stage, d, take, out=dest)
            else:
                dest[...] = self._normal_block(block, step, stage, d, row + take)[row:]
            filled += take
        return out


def raw_increment_var(lam_a: float, lam_b: float) -> float:
    """Variance of integral_{lam_a}^{lam_b} e^{-lam} dW for lam_b > lam_a."""
    if lam_b <= lam_a:
        raise DomainError("need lam_b > lam_a")
    return 0.5 * math.exp(-2.0 * lam_a) * (-math.expm1(-2.0 * (lam_b - lam_a)))


def stage_noise_weights(fracs, h, data_pred=False):
    """Every stage node's weights on the stage draws of one step of width h.

    ``fracs`` are the nodes' fractions of h, increasing, the last one the full
    step (1.0).  They split [0, h] into sub-intervals, and the j-th
    sub-interval's unit draw is stage j's z^j (z^1 first).  Row k belongs to
    the node of width w = fracs[k] h, which covers the first k + 1
    sub-intervals; its noise is c(node) sum_j row[j] z^(j+1), where the
    sub-interval [a, b] weighs sqrt(e^{2(w-a)} - e^{2(w-b)}), its increment
    carried to the node.  Data prediction negates the exponents,
    sqrt(e^{-2(w-b)} - e^{-2(w-a)}).  A node's last sub-interval weighs
    sqrt(+-expm1(+-2(w-a))), a one-stage step's noise over it.  A node's
    squared weights sum to its one-stage variance e^{2w} - 1 (1 - e^{-2w}),
    and nodes share the draws of the sub-intervals they share, so all of a
    step's stage noises are increments of one Brownian path.
    """
    rows = []
    for k, w in enumerate(fracs):
        row = []
        for j, (a, b) in enumerate(zip((0.0, *fracs), fracs[:k + 1])):
            hi, lo = 2.0 * (w - a) * h, 2.0 * (w - b) * h
            if j == k:
                row.append(math.sqrt(-math.expm1(-hi) if data_pred else math.expm1(hi)))
            else:
                row.append(sqrt_exp_diff(-lo, -hi) if data_pred else sqrt_exp_diff(hi, lo))
        rows.append(tuple(row))
    return tuple(rows)
