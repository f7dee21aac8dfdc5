"""Closed-form score oracles for Gaussian-mixture data.

A mixture with known parameters plays the role of the trained network: the
forward-process marginal started from sum_k w_k N(m_k, diag(V_k)) is again a
mixture, so the score, the noise prediction and the data prediction are all
exact.  Noise/data-prediction calls are tallied so samplers can report NFE;
one call counts once whatever the batch width, and only after its states pass
the states rule both models share (a last axis of d, else a DomainError).

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
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .schedules import ScheduleBase


_FLOAT_MAX = float(np.finfo(float).max)
MEAN_LIMIT = 0.5 * math.sqrt(_FLOAT_MAX)


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


def _states(x, d: int) -> np.ndarray:
    """``x`` as a float array of (..., d) states; a DomainError naming its shape otherwise.
    Every network call checks its states with this before it counts."""
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
    one-time row the same way, with the same bytes.  States are (..., d) arrays; a
    network call reads its row once and checks its states before it counts.
    """

    def __init__(self, data: DataDistribution, sched: ScheduleBase):
        self.data = data
        self.sched = sched
        self.nfe = 0
        self._log_weights = np.log(data.weights)
        self._rows = {}      # tabulated time -> its row of the table
        # (alpha_sigma (T, 3), means and variances (T, K, d), log-normalisers (T, K),
        # the one-component score's bounds (T,))
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
        sum_d log(2 pi cov) and the bound R_t of ``score``'s one-component closed form.
        Every operation is elementwise or a per-row reduction, so a row's bytes do not
        depend on the other times."""
        coef = np.array([self.sched.alpha_sigma(t) for t in times]).reshape(len(times), 3)
        mu, cov = self.data.marginal_of(coef[:, 0, None, None], coef[:, 2, None, None])
        lognorm = _log_normalisers(cov)
        return coef, mu, cov, lognorm, _closed_form_bounds(cov, lognorm)

    def _row(self, t):
        """(alpha, sigma, sigma_bar) at t as floats, and the marginal's (K, d) means and
        variances, (K,) log-normalisers and the one-component score's bound: the table's
        row at a tabulated time, a one-time table's at any other."""
        i, table = self._rows.get(float(t)), self._table   # float: a 0-d array is unhashable
        if i is None:
            i, table = 0, self._table_of([t])
        coef, *marginal = table
        return coef[i].tolist(), [column[i] for column in marginal]

    # -- exact quantities (not NFE-counted) ---------------------------------

    def score(self, x, t):
        """Exact gradient of log p_t at the (..., d) states ``x``."""
        return self._score(self._row(t)[1], _states(x, self.dim))

    def _score(self, marginal, x):
        """The score at float states ``x`` from one time's ``_row`` marginal, via log-space
        responsibilities.

        Loops over the K components with one (..., d) scratch array: first
        the quadratic forms sum((x - mu_k)^2 / cov_k) into column k of an
        (..., K) array, then, after the log-sum-exp over K, the sum over k
        of resp_k (x - mu_k) / cov_k, recomputing x - mu_k.  With one
        component, a batch whose every |x - mu| is at most the time's bound
        R_t (the table's last column) has finite log densities, so its
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
        (_, _, sbar), marginal = self._row(t)
        x = _states(x, self.dim)
        sc = self._score(marginal, x)
        self.nfe += 1
        if self.sched.family == "edm":
            sd = self.sched.sigma_data
            den = t * t + sd * sd
            return (sc + x / den) * (t * math.sqrt(den) / sd)
        return -sbar * sc

    def data_pred(self, x, t):
        """Posterior-mean denoiser: x/alpha - sigma * eps_hat, with eps_hat the
        noise prediction (for EDM this equals c1 x + c2 F(c3 x))."""
        (a, s, sbar), marginal = self._row(t)
        x = _states(x, self.dim)
        sc = self._score(marginal, x)
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
        return np.zeros_like(x)

    def data_pred(self, x, t):
        a, _, _ = self.sched.alpha_sigma(t)
        x = _states(x, self._d)
        self.nfe += 1
        return x / a
