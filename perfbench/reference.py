"""Fixed reference process that measures how fast the machine is right now.

The benchmark runs this before its first call and after every call, and
scales each call's times by ``NOMINAL_S / (mean wall time of the two
references around it)``.  It does what a seeds-sde call does, in miniature
and without seeds_sde: start the interpreter, import NumPy, run a scalar
Python loop, do elementwise arithmetic on an array that fits in the L2
cache, and evaluate mixture-style log densities on (paths, K, d) arrays
that do not.  Its work must never change, or times measured before and
after the change stop being comparable.
"""

import numpy as np

total = 0
for i in range(300_000):
    total += i * i
arr = np.ones(200_000)
for _ in range(20):
    arr = np.exp(-arr * arr) + arr
x = np.linspace(-3.0, 3.0, 4096 * 16).reshape(4096, 1, 16)
mu = np.linspace(-2.0, 2.0, 8 * 16).reshape(8, 16)
acc = np.zeros((4096, 8))
for _ in range(15):
    diff = x - mu
    acc += np.exp(-0.5 * np.sum(diff * diff / 1.5, axis=-1))
if not (np.isfinite(arr).all() and np.isfinite(acc).all() and total > 0):
    raise SystemExit(1)
