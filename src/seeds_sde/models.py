"""Closed-form score oracles for Gaussian-mixture data.

A mixture with known parameters plays the role of the trained network: the
forward-process marginal started from sum_k w_k N(m_k, diag(V_k)) is again a
mixture, so the score, the noise prediction and the data prediction are all
exact.  Noise/data-prediction calls are tallied so samplers can report NFE;
one call counts once whatever the batch width, and only after its states pass
the states rule both models share (a last axis of d, else a DomainError).
The rule's one exception is the float state: where d = 1, a float is one
state, and every call returns a float for it with the bytes of the same call
on its (1, 1) array.  ``solvers.StepDraws`` is the one place a walk is put on
floats, at one path in d = 1.

``ScoreModel.score`` evaluates the mixture one component at a time.  It
performs the float operations of the broadcast form over (..., K, d), in
the same order, so it returns the same bytes, while its scratch memory is
O(n (d + K)) for n states instead of O(n K d).  One exception: for d = 1
and K >= 8 the broadcast form summed the K score terms in NumPy's pairwise
order, and the loop sums them in order, so the last bit may differ there.
With one component the responsibilities are exactly 1, so the score skips
them, with the same bytes, when every |x - mu| is at most one bound per time,
R_t = sqrt(F / (2d)) min(1, sqrt(c_min)) for float max F and the smallest
marginal variance c_min: then every (x_j - mu_j)^2 and every
(x_j - mu_j)^2 / c_j is at most about F / (2d), so every row's log density is
finite.  A time whose log-normaliser is not finite has R_t = -1.

A float state within R_t of one component's mean takes that closed form in
float arithmetic, from its time's row of the table packed as six doubles;
any other float state takes ``_score`` on its (1, 1) array.  At a prepared
time on N(0, 1) data a float ``noise_pred`` takes about 0.8 us, and one on
the (1, 1) array about 10 us (timeit, 2-CPU Linux host).
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .schedules import ScheduleBase


_FLOAT_MAX = float(np.finfo(float).max)
MEAN_LIMIT = 0.5 * math.sqrt(_FLOAT_MAX)
# a one-number row: (alpha, sigma, sigma_bar, mean, variance, bound)
_ONE_ROW = struct.Struct("6d")


@dataclass(frozen=True)
class DataDistribution:
    """Axis-aligned Gaussian mixture: weights (K,), means (K, d), variances (K, d).

    The score squares x - mean_k at states near any other mean_j, and a square
    overflows past sqrt(float max) ~ 1.34e154, so every |mean| must be below
    ``MEAN_LIMIT`` = sqrt(float max) / 2 ~ 6.7e153.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        v = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise ConfigError("weights must be a non-empty 1-D sequence")
        if m.shape[0] != w.size or v.shape != m.shape:
            raise ConfigError("weights, means and variances have inconsistent shapes")
        for key, values in (("weight", w[:, None]), ("mean", m), ("var", v)):
            rows = np.flatnonzero(~np.isfinite(values).all(axis=1))
            if rows.size:
                raise ConfigError(f"mixture component {rows[0]}: {key!r} must be finite")
        rows = np.flatnonzero((np.abs(m) >= MEAN_LIMIT).any(axis=1))
        if rows.size:
            raise ConfigError(f"mixture component {rows[0]}: 'mean' must be below "
                              f"sqrt(float max) / 2 = {MEAN_LIMIT:.3g} in magnitude, or "
                              f"(x - mean)^2 overflows")
        if np.any(w <= 0):
            raise ConfigError("mixture weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights must sum to 1, got {w.sum()!r}")
        if np.any(v <= 0):
            raise ConfigError("component variances must be positive")
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def marginal(self, sched: ScheduleBase, t):
        """Component means and variances of the forward marginal at t:
        (alpha m_k, alpha^2 V_k + sigma_bar^2), each (K, d)."""
        a, _, sbar = sched.alpha_sigma(t)
        return self.marginal_of(a, sbar)

    def marginal_of(self, a, sbar):
        """The marginal's means and variances for scalar alpha and sigma_bar, each
        (K, d), or for (T, 1, 1) arrays of them, each (T, K, d)."""
        return a * self.means, a * a * self.variances + sbar * sbar

    @classmethod
    def from_components(cls, components) -> "DataDistribution":
        """Build from [{"weight": w, "mean": [...], "var": [...]}, ...]; "var"
        may be one number for every coordinate."""
        if not isinstance(components, list) or not components:
            raise ConfigError("at least one mixture component is required")
        w, m, v = [], [], []
        for i, comp in enumerate(components):
            weight, mean, var = (_component_numbers(i, comp, key)
                                 for key in ("weight", "mean", "var"))
            if weight.size != 1:
                raise ConfigError(f"mixture component {i}: 'weight' must be one number")
            if var.size != 1 and var.size != mean.size:
                raise ConfigError(f"mixture component {i}: 'var' has {var.size} entries, "
                                  f"'mean' has {mean.size}")
            w.append(weight[0])
            m.append(mean)
            v.append(np.broadcast_to(var, mean.shape))
        if len({mean.size for mean in m}) != 1:
            raise ConfigError("mixture components must all have the same dimension")
        return cls(np.array(w), np.array(m), np.array(v))

    @classmethod
    def standard_normal(cls, d: int) -> "DataDistribution":
        return cls(np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))


def _component_numbers(i: int, comp, key: str) -> np.ndarray:
    """``comp[key]``, a number or a non-empty list of numbers, as a 1-D array;
    a ConfigError naming component ``i`` and ``key`` otherwise."""
    if not isinstance(comp, dict) or key not in comp:
        raise ConfigError(f"mixture component {i} has no {key!r}")
    value = comp[key]
    items = value if isinstance(value, list) else [value]
    if not items or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items):
        raise ConfigError(f"mixture component {i}: {key!r} must be a number or a list of "
                          f"numbers, got {value!r}")
    return np.array(items, dtype=float)


def _states(x, d: int):
    """``x`` as float states: a float is one state where d = 1, and anything else a float
    array of (..., d) states; a DomainError naming its shape otherwise.  Every network call
    checks its states with this before it counts."""
    if isinstance(x, float) and d == 1:
        return x
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d,):
        raise DomainError(f"states of shape {x.shape} are not of dimension d = {d}")
    return x


def _log_normalisers(cov):
    """sum over d of log(2 pi cov): the (..., K) log-normalisers, +inf where 2 pi cov overflows."""
    with np.errstate(over="ignore"):
        return np.add.reduce(np.log(2.0 * math.pi * cov), axis=-1)


def _closed_form_bounds(cov, lognorm):
    """The one-component score's bound per time, (...): sqrt(F / (2d)) min(1, sqrt(c_min))
    for the smallest variance c_min over the components and axes of each (..., K, d)
    ``cov``, and -1 where one of its (..., K) log-normalisers ``lognorm`` is not finite."""
    # sqrt(min(1, c_min)) == min(1, sqrt(c_min)): sqrt is correctly rounded and sqrt(1) == 1
    root = np.sqrt(np.minimum.reduce(cov, axis=(-2, -1), initial=1.0))
    bound = math.sqrt(_FLOAT_MAX / (2 * cov.shape[-1])) * root
    return np.where(np.logical_and.reduce(np.isfinite(lognorm), axis=-1), bound, -1.0)


class ScoreModel:
    """Exact score / noise-prediction / data-prediction oracle on a schedule.

    ``prepare(times)`` tabulates the work of an evaluation that depends only on its time;
    an evaluation at a tabulated time reads its row, and one at any other time builds a
    one-time row the same way, with the same bytes.  States are (..., d) arrays or, where
    d = 1, a float; a network call reads its row once and checks its states before it counts.
    """

    def __init__(self, data: DataDistribution, sched: ScheduleBase):
        self.data = data
        self.sched = sched
        self.nfe = 0
        self._log_weights = np.log(data.weights)
        self._rows = {}      # tabulated time -> its row of the table
        # (alpha_sigma (T, 3), means and variances (T, K, d), log-normalisers (T, K),
        # the one-component score's bounds (T,), the packed one-number rows or None)
        self._table = None

    @property
    def dim(self) -> int:
        return self.data.dim

    def prepare(self, times) -> None:
        """Replace the table with ``_table_of``'s rows, one per distinct time in ``times``,
        unless it holds exactly those rows already (each chunk of a run hands the same)."""
        rows = {}
        for t in times:
            rows.setdefault(float(t), len(rows))
        if rows != self._rows:
            self._rows, self._table = rows, self._table_of(list(rows))

    def _table_of(self, times):
        """Stacked rows at ``times``: (alpha, sigma, sigma_bar) from the scalar
        ``alpha_sigma``, the marginal's (K, d) means and variances, the (K,) log-normalisers
        sum_d log(2 pi cov) and the bound R_t of ``score``'s one-component closed form, then,
        with one component in d = 1, every row's (alpha, sigma, sigma_bar, mean, variance,
        R_t) packed as doubles for a float state to read (None otherwise).  Every operation
        is elementwise or a per-row reduction, so a row's bytes do not depend on the other
        times."""
        coef = np.array([self.sched.alpha_sigma(t) for t in times]).reshape(len(times), 3)
        mu, cov = self.data.marginal_of(coef[:, 0, None, None], coef[:, 2, None, None])
        lognorm = _log_normalisers(cov)
        bound = _closed_form_bounds(cov, lognorm)
        one = (np.concatenate((coef, mu[:, 0], cov[:, 0], bound[:, None]), axis=1).tobytes()
               if mu.shape[1:] == (1, 1) else None)
        return coef, mu, cov, lognorm, bound, one

    def _row(self, t):
        """t's row index and its table: the table's row at a tabulated time, a one-time
        table's at any other."""
        i = self._rows.get(float(t))   # float: a 0-d array is unhashable
        return (0, self._table_of([t])) if i is None else (i, self._table)

    def _scored(self, x, t):
        """(alpha, sigma, sigma_bar) at t as floats, the states ``x`` as ``_states`` takes
        them and the score there, from t's ``_row``.  A float state gets a float score:
        within the bound, one component's closed form in float arithmetic from the packed
        row, and otherwise ``_score`` on its (1, 1) array."""
        i, table = self._row(t)
        if table[-1] is not None and isinstance(x, float):   # d = 1: x is one state
            a, s, sbar, mu, cov, bound = _ONE_ROW.unpack_from(table[-1], _ONE_ROW.size * i)
            diff = x - mu
            if abs(diff) <= bound:   # as in ``_score``: NaN and +-inf fail the test
                return (a, s, sbar), x, -(diff / cov + 0.0)
        x = _states(x, self.dim)
        coef, *marginal, _ = table
        row = [column[i] for column in marginal]
        if not isinstance(x, float):
            return coef[i].tolist(), x, self._score(row, x)
        return coef[i].tolist(), x, self._score(row, np.array(x, ndmin=2)).item()

    # -- exact quantities (not NFE-counted) ---------------------------------

    def score(self, x, t):
        """Exact gradient of log p_t at the states ``x``: (..., d) arrays, or a float."""
        return self._scored(x, t)[2]

    def _score(self, marginal, x):
        """The score at float states ``x`` from one time's row of the marginal, via log-space
        responsibilities.

        Loops over the K components with one (..., d) scratch array: first
        the quadratic forms sum((x - mu_k)^2 / cov_k) into column k of an
        (..., K) array, then, after the log-sum-exp over K, the sum over k
        of resp_k (x - mu_k) / cov_k, recomputing x - mu_k.  With one
        component, a batch whose every |x - mu| is at most the time's bound
        R_t (the row's bound) has finite log densities, so its
        responsibilities are exactly 1 and it skips the loops.
        """
        mu, cov, lognorm, bound = marginal
        if mu.shape[0] == 1:
            # one component: within the bound every row's log density is finite,
            # its responsibility is exactly 1 and the score is -(0.0 + (x - mu) / cov);
            # NaN and +-inf fail the test
            diff = x - mu[0]
            if np.abs(diff).max(initial=0.0) <= bound:
                diff /= cov[0]
                diff += 0.0
                return np.negative(diff, out=diff)
        tmp = np.empty(x.shape)
        # (..., K): quadratic forms, then log densities, then responsibilities
        resp = np.empty(tmp.shape[:-1] + mu.shape[:1])
        for k in range(mu.shape[0]):
            np.subtract(x, mu[k], out=tmp)
            tmp *= tmp
            tmp /= cov[k]
            np.add.reduce(tmp, axis=-1, out=resp[..., k])
        resp += lognorm
        resp *= -0.5
        resp += self._log_weights
        resp -= np.maximum.reduce(resp, axis=-1, keepdims=True)
        np.exp(resp, out=resp)
        resp /= np.add.reduce(resp, axis=-1, keepdims=True)
        # a sum starting from +0.0, as NumPy's reduction does: the sign of
        # an all-zero sum is part of the bytes
        acc = np.zeros(tmp.shape)
        for k in range(mu.shape[0]):
            np.subtract(x, mu[k], out=tmp)
            np.multiply(resp[..., k, None], tmp, out=tmp)
            tmp /= cov[k]
            acc += tmp
        return np.negative(acc, out=acc)

    # -- network-style evaluations (NFE-counted) -----------------------------

    def noise_pred(self, x, t):
        """Raw-network value: -sigma_bar * score for VP/VE, the preconditioned
        inversion for EDM (returns zero on data matching the EDM prior)."""
        (_, _, sbar), x, sc = self._scored(x, t)
        self.nfe += 1
        if self.sched.family == "edm":
            sd = self.sched.sigma_data
            den = t * t + sd * sd
            return (sc + x / den) * (t * math.sqrt(den) / sd)
        return -sbar * sc

    def data_pred(self, x, t):
        """Posterior-mean denoiser: x/alpha - sigma * eps_hat, with eps_hat the
        noise prediction (for EDM this equals c1 x + c2 F(c3 x))."""
        (a, s, sbar), x, sc = self._scored(x, t)
        self.nfe += 1
        if self.sched.family == "edm":
            return x + t * t * sc
        eps_hat = -sbar * sc
        return x / a - s * eps_hat


class ZeroModel:
    """Model with vanishing nonlinear part: F == 0 and D == x / alpha.

    Makes every exponential step an exact linear transition, which is the
    basis of the exactness tests; evaluations still count toward NFE, once their
    (..., d) states pass the states rule ``ScoreModel`` applies.  The dimension d
    is an integer >= 1 (a bool is not), else a DomainError.
    """

    def __init__(self, d: int, sched: ScheduleBase):
        if not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1:
            raise DomainError("dimension must be >= 1")
        self._d = int(d)
        self.sched = sched
        self.nfe = 0

    @property
    def dim(self) -> int:
        return self._d

    def noise_pred(self, x, t):
        x = _states(x, self._d)
        self.nfe += 1
        return 0.0 if isinstance(x, float) else np.zeros_like(x)

    def data_pred(self, x, t):
        a, _, _ = self.sched.alpha_sigma(t)
        x = _states(x, self._d)
        self.nfe += 1
        return x / a
