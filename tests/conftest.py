import math

import numpy as np
import pytest

from seeds_sde import DataDistribution, ScoreModel, VpLinear


@pytest.fixture(scope="session")
def vp():
    return VpLinear()


@pytest.fixture(scope="session")
def gauss_model(vp):
    return ScoreModel(DataDistribution.standard_normal(1), vp)


@pytest.fixture(scope="session")
def mixture_model(vp):
    data = DataDistribution(
        weights=np.array([0.5, 0.5]),
        means=np.array([[1.5], [-1.5]]),
        variances=np.array([[1.0], [1.0]]),
    )
    return ScoreModel(data, vp)


class ConstantModel:
    """Stub network returning fixed values; used by degeneration tests."""

    def __init__(self, d, sched, noise_value=0.0, data_value=0.0):
        self._d, self.sched = d, sched
        self.noise_value = noise_value
        self.data_value = data_value
        self.nfe = 0

    @property
    def dim(self):
        return self._d

    def noise_pred(self, x, t):
        self.nfe += 1
        return np.full_like(np.asarray(x, dtype=float), self.noise_value)

    def data_pred(self, x, t):
        self.nfe += 1
        return np.full_like(np.asarray(x, dtype=float), self.data_value)


@pytest.fixture
def constant_model():
    return ConstantModel


class NanFromModel:
    """Wraps a model; its noise predictions from the ``start``-th on are NaN."""

    def __init__(self, model, start):
        self.model, self.start, self.calls = model, start, 0
        self.dim, self.sched = model.dim, model.sched

    def noise_pred(self, x, t):
        self.calls += 1
        out = self.model.noise_pred(x, t)
        return out * np.nan if self.calls >= self.start else out


@pytest.fixture
def nan_from_model():
    return NanFromModel


@pytest.fixture
def chunks_of(monkeypatch):
    """chunks_of(module, size): the ``path_chunks`` that ``module`` calls cuts the
    paths into chunks of ``size`` at any worker count, the last holding the rest."""
    def patch(module, size):
        monkeypatch.setattr(module, "path_chunks", lambda n, workers:
                            [(o, min(size, n - o)) for o in range(0, n, size)])

    return patch


@pytest.fixture
def marginal_calls(monkeypatch):
    """The times of every untabulated ``ScoreModel._row`` lookup from here on: a
    ``ScoreModel`` evaluation at a time it has no table row for builds a one-time
    row there, one at a tabulated time reads the row."""
    times, row = [], ScoreModel._row

    def counting(self, t):
        if float(t) not in self._rows:
            times.append(t)
        return row(self, t)

    monkeypatch.setattr(ScoreModel, "_row", counting)
    return times


def _correlated_pair(gen, h, size=None):
    """Correlated pair (w_hat, z_hat) approximating (W_h, int_0^h W dt).

    Lower-triangular construction from two unit normals:
        w_hat = sqrt(h) u1
        z_hat = (h sqrt(h)/2) u1 + (h sqrt(h)/(2 sqrt(3))) u2
    giving covariance [[h, h^2/2], [h^2/2, h^3/3]].
    """
    assert h > 0.0, "correlated pair needs h > 0"
    shape = () if size is None else (size,)
    u1 = gen.standard_normal(shape)
    u2 = gen.standard_normal(shape)
    rh = math.sqrt(h)
    w = rh * u1
    z = (h * rh / 2.0) * u1 + (h * rh / (2.0 * math.sqrt(3.0))) * u2
    return w, z


@pytest.fixture
def correlated_pair():
    return _correlated_pair


def _moments_within(rep, n_se, rel_tol):
    """Whether a terminal ``MomentReport``'s mean sits within n_se standard errors of
    its target and its covariance diagonal within rel_tol of its target."""
    return bool(np.all(np.abs(rep.mean - rep.target_mean) <= n_se * rep.mean_se)
                and np.all(np.abs(rep.cov_diag - rep.target_cov_diag)
                           <= rel_tol * rep.target_cov_diag))


@pytest.fixture
def moments_within():
    return _moments_within
