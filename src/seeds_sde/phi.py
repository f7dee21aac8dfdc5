"""Phi-function calculus and expm1-stable coefficient algebra.

phi_0(h) = e^h and phi_{k+1}(h) = (phi_k(h) - 1/k!) / h, with phi_k(0) = 1/k!,
equivalently phi_{k+1}(h) = integral_0^1 e^{(1-tau) h} tau^k / k! dtau.

These weights turn exponentially weighted polynomial integrals into closed
forms: integral_{lam_s}^{lam_t} e^{-lam} (lam - lam_s)^k / k! dlam equals
e^{-lam_t} h^{k+1} phi_{k+1}(h) with h = lam_t - lam_s.  ``sqrt_exp_diff``
gives the square roots sqrt(e^a - e^b) of the staged-noise coefficients,
rearranged so that the subtraction goes through expm1 and stays accurate
down to h ~ 1e-300.
"""

import math

import numpy as np

from .errors import DomainError

MAX_ORDER = 8
MAX_ABS_H = 50.0

# Upward recursion from e^h loses roughly log10(k! / h^k) digits, so below
# this cutoff the direct Taylor series (exact to ~1e-16 there) is used.
_SERIES_CUTOFF = 3.0
_SERIES_TERMS = 60


def _phi_series(k: int, h: float) -> float:
    # sum_{j>=0} h^j / (k+j)!  -- factorially convergent for |h| < cutoff
    term = 1.0 / math.factorial(k)
    acc = term
    for j in range(1, _SERIES_TERMS):
        term *= h / (k + j)
        acc += term
        if abs(term) <= 1e-20 * abs(acc):
            break
    return acc


def phi(k: int, h: float) -> float:
    """Evaluate phi_k(h) for 0 <= k <= 8 and |h| <= 50."""
    if not isinstance(k, (int, np.integer)) or not 0 <= k <= MAX_ORDER:
        raise DomainError(f"phi order k={k!r} outside 0..{MAX_ORDER}")
    h = float(h)
    if not math.isfinite(h) or abs(h) > MAX_ABS_H:
        raise DomainError(f"phi argument h={h!r} outside |h| <= {MAX_ABS_H}")
    if k == 0:
        return math.exp(h)
    if h == 0.0:
        return 1.0 / math.factorial(k)
    if k == 1:
        return math.expm1(h) / h
    if abs(h) < _SERIES_CUTOFF:
        return _phi_series(k, h)
    val = math.expm1(h) / h
    for j in range(1, k):
        val = (val - 1.0 / math.factorial(j)) / h
    return val


def sqrt_exp_diff(a: float, b: float) -> float:
    """sqrt(e^a - e^b) for a >= b, computed without cancellation."""
    if b > a:
        raise DomainError(f"sqrt(e^a - e^b) needs a >= b, got a={a}, b={b}")
    if a == b:
        return 0.0
    return math.exp(0.5 * b) * math.sqrt(math.expm1(a - b))
